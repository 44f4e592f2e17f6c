"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): scan, witness-json,
strict-witness, arith-cli.  Run from the root of a checkout; the program is
imported from its `src/`.  Each run starts fresh worker interpreters (one
closed-loop client, one operation at a time), checks every output with the
independent oracle in oracle.py, prints one line per metric and, as the last
line, a JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  Each result is also appended, with its samples and the
machine context, to `.perfbench/results.jsonl` for compare.py.

The end-to-end timings are scaled to the reference speed of gauge.py: ticks
timed during every untraced round, and between worker starts, give the
host's speed at that moment.  The raw medians are printed beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
REQUIRED_FILES = (
    "BENCHMARK.json",
    "src/platonics/__init__.py",
    "docs/period_agreement_2_200.csv",
    "tests/golden/paper_tables.txt",
)

#: Set-up-only interpreters started per run, besides the measuring one; half
#: of them before it and half after, so set-up is sampled at two moments.
SETUP_PROBES = 12

#: Gauge ticks timed between two worker starts, to scale their set-up times.
SETUP_TICKS = 8

#: Timed rounds are grouped into blocks of consecutive rounds lasting at
#: least this long; wall_s and cpu_s are medians over blocks of the block's
#: mean round time, scaled by the block's gauge ticks.  A pollock round
#: takes about as long as a block, so there a block holds one or two rounds;
#: the ~1 s arith-cli rounds are averaged over a few seconds first.
BLOCK_S = 5.0

#: Seconds a worker may run beyond --seconds before the run is abandoned.
WORKER_GRACE_S = 120

#: Per-layer metric -> tracer aggregate it is read from.
LAYER_SOURCES = {
    "pollock.platonic_pool.s": "pollock.platonic_pool.s",
    "pollock.platonic_pool.calls": "pollock.platonic_pool.calls",
    "pollock.pool_size": "pollock.pool_size",
    "pollock.scan_conjecture.s": "pollock.scan_conjecture.s",
    "pollock.scan_conjecture.self_s": "pollock.scan_conjecture.self_s",
    "pollock.scan_conjecture.calls": "pollock.scan_conjecture.calls",
    "pollock.layer_builds": "pollock._layer_masks.calls",
    "pollock.layers.s": "pollock._layer_masks.s",
    "pollock.iter_witnesses.first_s": "pollock.iter_witnesses.first_s",
    "pollock.iter_witnesses.rest_s": "pollock.iter_witnesses.rest_s",
    "cli.main.s": "cli.main.s",
    "cli.self_s": "cli.main.self_s",
    "periodicity.check_period_claim.s": "periodicity.check_period_claim.s",
    "periodicity.empirical_period.s": "periodicity.empirical_period.s",
    "periodicity.disagreements": "periodicity.disagreements",
    "identities.identity_residual.s": "identities.identity_residual.s",
    "identities.identity_residual.calls": "identities.identity_residual.calls",
    "representations.represent_multiple.s": "representations.represent_multiple.s",
    "representations.represent_multiple.calls": "representations.represent_multiple.calls",
    "sequences.platonic_value.calls": "sequences.platonic_value.calls",
    "sequences.difference_table.s": "sequences.difference_table.s",
    "sequences.platonic_values_by_recurrence.s": "sequences.platonic_values_by_recurrence.s",
}


class BenchError(RuntimeError):
    """The run could not produce a result."""


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------ workers


def _worker_cmd(args, run_dir: Path, setup_only: bool) -> list[str]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--run-dir", str(run_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    return cmd


def _start_worker(cmd: list[str], err_path: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it and the seconds until it printed `ready`."""
    with open(err_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready; see {err_path}")
    return proc, ready_s


def _finish_worker(proc: subprocess.Popen, timeout: float, err_path: Path) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ran over {timeout:.0f} s") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}; see {err_path}")


def _ticks() -> list[float]:
    return [gauge.timed_tick() for _ in range(SETUP_TICKS)]


def run_workers(args, run_dir: Path) -> tuple[list[float], list[float], dict]:
    """Runs the probes and the measuring worker.

    Returns each worker start's seconds to ready, raw and scaled by the
    gauge ticks timed just before and just after it (just before, for the
    measuring worker), and the measuring worker's result.
    """
    err_path = run_dir / "worker.err"
    raw: list[float] = []
    scaled: list[float] = []
    before = _ticks()

    def probe() -> None:
        nonlocal before
        proc, ready_s = _start_worker(_worker_cmd(args, run_dir, True), err_path)
        _finish_worker(proc, WORKER_GRACE_S, err_path)
        after = _ticks()
        raw.append(ready_s)
        scaled.append(gauge.scale(ready_s, before + after))
        before = after

    for _ in range(SETUP_PROBES // 2):
        probe()
    proc, ready_s = _start_worker(_worker_cmd(args, run_dir, False), err_path)
    raw.append(ready_s)
    scaled.append(gauge.scale(ready_s, before))
    _finish_worker(proc, args.seconds + WORKER_GRACE_S, err_path)
    before = _ticks()
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        probe()
    return raw, scaled, json.loads((run_dir / "worker.json").read_text(encoding="utf-8"))


# ------------------------------------------------------------ checks


class Checker:
    """Checks every operation once per distinct output, outside any timing."""

    def __init__(self, args, run_dir: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.run_dir = run_dir
        self.problems: list[str] = []
        self.failed = 0
        self.defects = 0
        self.report: dict | None = None
        self.items = 0  # integers decided, witness lines or commands, per round
        self._seen: dict[tuple, tuple] = {}
        if args.workload != "arith-cli":
            self.n = workloads.pollock_n(args.workload, args.smoke)
            self.expected = oracle.expected_report(args.workload, self.n, args.smoke)
        else:
            self.commands = {c.label: c for c in workloads.arith_commands(args.seed)}
            self.items = len(self.commands)

    def _text(self, op: dict) -> tuple[str | None, str | None]:
        if not op.get("out"):
            return None, None
        data = (self.run_dir / op["out"]).read_bytes()
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()

    def check(self, op: dict) -> None:
        if self.workload == "scan":
            verdict = self._check_scan(op)
        elif self.workload == "arith-cli":
            verdict = self._check_command(op)
        else:
            verdict = self._check_witnesses(op)
        if verdict != "ok":
            self.failed += 1
        if verdict == "defect":
            self.defects += 1

    def _check_scan(self, op: dict) -> str:
        report = op["report"]
        histogram = {int(k): v for k, v in report["histogram"].items()}
        problems = oracle.check_report(histogram, report["failures"], self.expected)
        self.report = {"histogram": histogram, "failures": tuple(report["failures"])}
        self.items = self.n
        self.problems += problems
        return "wrong" if problems else "ok"

    def _check_witnesses(self, op: dict) -> str:
        want_rc = 5 if self.expected[1] else 0
        text, digest = self._text(op)
        if op["rc"] != want_rc or text is None:
            self.problems.append(f"pollock exited {op['rc']}, expected {want_rc}: {op.get('stderr', '')[:200]}")
            return "wrong"
        if digest not in self._seen:
            problems, report = oracle.check_witness_text(
                text, self.n, self.workload == "strict-witness", self.expected, self.seed
            )
            self._seen[digest] = (problems, report)
            self.problems += problems
        problems, report = self._seen[digest]
        if report:
            self.report = report
            self.items = self.n - len(report["failures"])
        return "wrong" if problems else "ok"

    def _check_command(self, op: dict) -> str:
        text, digest = self._text(op)
        key = (op["label"], op["rc"], digest, op["stderr"])
        if key not in self._seen:
            cmd = self.commands[op["label"]]
            verdict, detail = oracle.check_command(cmd, op["rc"], op["stderr"], text, ROOT)
            self._seen[key] = (verdict, detail)
            if verdict == "wrong":
                self.problems.append(f"{op['label']}: {detail}")
        return self._seen[key][0]


def out_bytes(run_dir: Path, ops: list[dict]) -> int:
    return sum((run_dir / op["out"]).stat().st_size for op in ops if op.get("out"))


# ------------------------------------------------------------ metrics


def _round_wall(r: dict) -> float:
    return sum(op["wall"] for op in r["ops"])


def _round_cpu(r: dict) -> float:
    return sum(op["cpu"] for op in r["ops"])


def timed_rounds(worker: dict, traced: bool) -> list[dict]:
    """Rounds after the warm-up round 0, traced or not."""
    return [r for r in worker["rounds"][1:] if r["traced"] == traced]


def blocks(rounds: list[dict]) -> list[list[dict]]:
    """Consecutive rounds grouped into blocks of at least BLOCK_S seconds.

    A last block shorter than half of that joins the one before it.
    """
    groups: list[list[dict]] = [[]]
    span = 0.0
    for r in rounds:
        if span >= BLOCK_S:
            groups.append([])
            span = 0.0
        groups[-1].append(r)
        span += _round_wall(r)
    if len(groups) > 1 and span < BLOCK_S / 2:
        tail = groups.pop()
        groups[-1] += tail
    return groups


def _block_median(rounds: list[dict], key, scaled: bool) -> float:
    """Median over blocks of the mean round time, scaled to the reference
    speed by the block's ticks if `scaled`."""
    values = []
    for b in blocks(rounds):
        mean = statistics.fmean(key(r) for r in b)
        if scaled:
            mean = gauge.scale(mean, [t for r in b for t in r["ticks"]])
        values.append(mean)
    return _median(values)


def end_to_end(worker: dict, setup: list[float], checker: Checker, attempted: int) -> dict:
    rounds = timed_rounds(worker, False)
    wall_s = _block_median(rounds, _round_wall, True)
    return {
        "setup_s": _median(setup),
        "wall_s": wall_s,
        "cpu_s": _block_median(rounds, _round_cpu, True),
        "items_per_s": checker.items / wall_s,
        "peak_rss_mb": worker["peak_rss_mb"],
        "success_rate": (attempted - checker.failed) / attempted,
    }


def per_layer(worker: dict, checker: Checker, sizes: list[int]) -> dict:
    traced = timed_rounds(worker, True)
    plain = timed_rounds(worker, False)
    values = {
        name: _median([r["layers"].get(source, 0) for r in traced])
        for name, source in LAYER_SOURCES.items()
    }
    report = checker.report or {"histogram": {}, "failures": ()}
    histogram = report["histogram"]
    for k in range(1, oracle.MAX_TERMS + 1):
        values[f"pollock.terms_{k}"] = histogram.get(k, 0)
    values["pollock.failures"] = len(report["failures"])
    values["pollock.holes_after_3"] = (
        checker.n - sum(histogram.get(k, 0) for k in (1, 2, 3)) if histogram else 0
    )
    values["cli.out_bytes"] = _median([s for s, r in zip(sizes, worker["rounds"]) if r["traced"]])
    values["trace.overhead_s"] = _median([_round_wall(r) for r in traced]) - _median(
        [_round_wall(r) for r in plain]
    )
    return values


def context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


# ------------------------------------------------------------ main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny pollock sizes checked against brute force, for compare.py --smoke",
    )
    args = parser.parse_args(argv)

    missing = [f for f in REQUIRED_FILES if not (ROOT / f).is_file()]
    if missing:
        print(f"error: not a platonics checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # The checker parses values of any size; the worker keeps the default limit.
    sys.set_int_max_str_digits(0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_spec = spec["per_layer" if args.trace else "end_to_end"]

    machine = context()
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        raw_setup, setup, worker = run_workers(args, run_dir)
        checker = Checker(args, run_dir)
        ops = [op for r in worker["rounds"] for op in r["ops"]]
        for op in ops:
            checker.check(op)
        sizes = [out_bytes(run_dir, r["ops"]) for r in worker["rounds"]]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        for path in run_dir.glob("*.out"):
            path.unlink()

    attempted = len(ops)
    e2e = end_to_end(worker, setup, checker, attempted)
    values = per_layer(worker, checker, sizes) if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    correct = not checker.problems

    plain = timed_rounds(worker, False)
    walls = [_round_wall(r) for r in plain]
    n_blocks = len(blocks(plain))
    round_bytes = _median([s for s, r in zip(sizes[1:], worker["rounds"][1:]) if not r["traced"]])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print(
        f"context  nproc {machine['nproc']}  python {machine['python']}  "
        f"loadavg {' '.join(f'{x:.2f}' for x in machine['loadavg'])}"
    )
    print(
        f"rounds   {len(worker['rounds'])} ({len(plain)} untraced)  operations {attempted}  "
        f"failed {checker.failed} (known 4300-digit defect: {checker.defects})  correct {correct}"
    )
    ticks = [t for r in plain for t in r["ticks"]]
    print(
        f"gauge        tick median {_median(ticks) * 1e3:.3f} ms  n={len(ticks)}  "
        f"(reference {gauge.TICK_S * 1e3:g} ms; timings below are scaled to it)"
    )
    print(f"setup_s      median {e2e['setup_s']:.4f} s  n={len(setup)}  raw {_median(raw_setup):.4f} s")
    print(
        f"wall_s       median {e2e['wall_s']:.4f} s  n={n_blocks} blocks of {len(walls)} rounds  "
        f"raw {_block_median(plain, _round_wall, False):.4f} s, min {min(walls):.4f}, "
        f"max {max(walls):.4f}, warm-up {_round_wall(worker['rounds'][0]):.4f}"
    )
    print(
        f"cpu_s        median {e2e['cpu_s']:.4f} s  n={n_blocks}  "
        f"raw {_block_median(plain, _round_cpu, False):.4f} s"
    )
    rate = {"scan": "ints_per_s", "arith-cli": "cmds_per_s"}.get(args.workload, "witnesses_per_s")
    print(f"{rate:<12} {e2e['items_per_s']:.1f} 1/s (items_per_s)")
    if args.workload in ("witness-json", "strict-witness"):
        print(f"ints_per_s   {checker.n / e2e['wall_s']:.1f} 1/s")
    if args.workload != "scan":
        print(f"out_mb_per_s {round_bytes / 1e6 / e2e['wall_s']:.3f} MB/s")
    print(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"error_rate   {checker.failed / attempted:.4f} ({checker.failed} of {attempted})")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    if worker["absent"]:
        print(f"absent   {' '.join(worker['absent'])} (reported as 0)")
    for problem in checker.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "context": machine,
        "correct": correct,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {name: m["value"] for name, m in metrics.items()},
        "samples": {
            "setup_s": raw_setup,
            "wall_s": walls,
            "tick_s": [statistics.fmean(r["ticks"]) for r in plain],
        },
        "absent": worker["absent"],
    }
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
