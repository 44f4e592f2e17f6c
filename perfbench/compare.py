"""Compare two sets of benchmark results, or smoke-test the benchmark.

    python3 perfbench/compare.py PARENT CHANGE
    python3 perfbench/compare.py --smoke

PARENT and CHANGE are `results.jsonl` files written by run.py (or the
`.perfbench/` directories holding them), one from each commit, made with the
same --seconds.  Runs are paired by workload, trace mode and seed.  For every
workload and metric of BENCHMARK.json it prints each side's median and
quartiles, the share of pairs the change wins (ties count for neither) and a
verdict:

- improved: at least ten pairs, the change wins at least nine tenths of
  them, and the medians differ by more than the parent's quartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (per-layer metrics, which have no bound, use the mirror
  image of the rule for improved);
- unresolved: the parent's own quartile distance is wider than the bound,
  and not every change run is better than every parent run;
- unchanged: otherwise.

--smoke runs every workload (also strict-witness, which BENCHMARK.json
leaves out) at tiny sizes in both trace modes, checks that
every metric prints by name with its unit, and checks that the oracle
catches tampered witness lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(path: Path) -> dict[tuple, list[dict]]:
    """Records grouped by (workload, trace), smoke runs left out."""
    if path.is_dir():
        path = path / "results.jsonl"
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if not record.get("smoke"):
            groups[(record["workload"], record["trace"])].append(record)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pairs runs with equal seeds, in the order they were made."""
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for record in change:
        by_seed[record["seed"]].append(record)
    pairs = []
    for record in parent:
        if by_seed[record["seed"]]:
            pairs.append((record, by_seed[record["seed"]].pop(0)))
    return pairs


def verdict(parent: list[float], change: list[float], pairs, better: str, bound) -> tuple[str, float]:
    """The verdict of section 8 of the choosing-metrics method, and the win share."""
    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = p_q3 - p_q1
    gain = sign * (p_med - c_med)  # positive when the change is better
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (p - c) < 0)
    share = wins / len(pairs) if pairs else 0.0
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", share
    if bound is None:
        if len(pairs) >= 10 and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse", share
        return ("unchanged" if abs(gain) <= spread else "unresolved"), share
    scale = abs(p_med) or 1.0
    if -gain / scale > bound:
        return "worse", share
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread / scale > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def compare(parent_path: Path, change_path: Path) -> int:
    spec = load_spec()
    parent, change = load(parent_path), load(change_path)
    print(
        f"{'workload':<15} {'metric':<42} {'unit':<6} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'pairs':>5} {'wins':>5}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            p_runs, c_runs = parent.get((workload, trace), []), change.get((workload, trace), [])
            if not p_runs or not c_runs:
                continue
            pairs = pair_up(p_runs, c_runs)
            for metric in spec[section]:
                name = metric["name"]
                p_vals = [r["metrics"][name] for r in p_runs if name in r["metrics"]]
                c_vals = [r["metrics"][name] for r in c_runs if name in r["metrics"]]
                if not p_vals or not c_vals:
                    continue
                value_pairs = [
                    (p["metrics"][name], c["metrics"][name])
                    for p, c in pairs
                    if name in p["metrics"] and name in c["metrics"]
                ]
                result, share = verdict(
                    p_vals, c_vals, value_pairs, metric["better"], metric.get("bound")
                )
                p_q1, p_med, p_q3 = quartiles(p_vals)
                c_q1, c_med, c_q3 = quartiles(c_vals)
                print(
                    f"{workload:<15} {name:<42} {metric['unit']:<6} "
                    f"{f'{p_med:.5g} [{p_q1:.5g}, {p_q3:.5g}]':<34} "
                    f"{f'{c_med:.5g} [{c_q1:.5g}, {c_q3:.5g}]':<34} "
                    f"{len(value_pairs):>5} {share:>5.0%}  {result}"
                )
    return 0


# ------------------------------------------------------------ smoke


def _smoke_runs() -> list[str]:
    spec = load_spec()
    problems = []
    for workload in workloads.NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            where = f"{workload} trace {trace}"
            before = len(problems)
            lines = proc.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: no result line (exit {proc.returncode}): {proc.stderr[-300:]}")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True or proc.returncode != 0:
                problems.append(f"{where}: not correct: {proc.stderr[-300:]}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
            printed = {line.split()[1] for line in lines if line.startswith("metric ")}
            if printed != set(want):
                problems.append(f"{where}: printed metrics differ: {sorted(printed ^ set(want))}")
            print(f"smoke {where}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    return problems


def _tampered(lines: list[str]) -> dict[str, list[str]]:
    """Copies of a witness output, each with one line altered."""
    def edit(target: int, change) -> list[str]:
        out = list(lines)
        index = next(i for i, line in enumerate(out) if json.loads(line).get("target") == str(target))
        witness = json.loads(out[index])
        change(witness)
        out[index] = json.dumps(witness)
        return out

    def off_by_one(w):
        w["terms"][0] = str(int(w["terms"][0]) + 1)

    def not_platonic(w):  # 104 = 85 + 19 becomes 86 + 18: same sum
        w["terms"] = [str(int(w["terms"][0]) + 1), str(int(w["terms"][1]) - 1)]

    def not_minimal(w):  # 8 is a cube; 4 + 4 is a valid but longer sum
        w["terms"], w["min_terms"] = ["4", "4"], 2

    dropped = list(lines)
    del dropped[50]
    return {
        "sum off by one": edit(100, off_by_one),
        "non-platonic term": edit(104, not_platonic),
        "non-minimal witness": edit(8, not_minimal),
        "dropped line": dropped,
    }


def _smoke_tamper() -> list[str]:
    n = 300
    work = ROOT / ".perfbench" / f"smoke-{os.getpid()}.json"
    work.parent.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        subprocess.run(
            [sys.executable, "-m", "platonics", "pollock", str(n), "--witnesses",
             "--format", "json", "--out", str(work)],
            cwd=ROOT, env=env, check=True, timeout=120,
        )
        text = work.read_text(encoding="utf-8")
    finally:
        work.unlink(missing_ok=True)
    expected = oracle.brute_histogram(n, False)
    problems = []
    found, _ = oracle.check_witness_text(text, n, False, expected, seed=1)
    if found:
        problems.append(f"untampered output rejected: {found[:3]}")
    lines = text.splitlines()
    for label, variant in _tampered(lines).items():
        found, _ = oracle.check_witness_text("\n".join(variant) + "\n", n, False, expected, seed=1)
        print(f"smoke tamper {label}: {'caught' if found else 'MISSED'}")
        if not found:
            problems.append(f"tampered witness not caught: {label}")
    return problems


def smoke() -> int:
    sys.set_int_max_str_digits(0)
    problems = _smoke_tamper() + _smoke_runs()
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.parent is None or args.change is None:
        parser.error("give PARENT and CHANGE result sets, or --smoke")
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
