"""Time `platonics` command lines on two source trees, in fresh interpreters.

    python tools/bench_cli.py --base PARENT_TREE --change . --runs 5 \
        --out BENCH_7.json "pollock 300000 --witnesses --format json" ...
    python tools/bench_cli.py --base PARENT_TREE --change . --runs 5 \
        --out BENCH_27.json --set report-ceilings

`--set NAME` adds the command lines of a named set (SETS) after the ones
given.

Each command line runs `platonics ARGS` as `python -m platonics` would, with
PYTHONPATH set to the tree's `src`, once per tree per round.  The rounds
alternate which tree goes first, so drift in the host's speed falls on both
sides alike.  Each tree has its own temporary PYTHONPYCACHEPREFIX, which
every child of that tree is given.  Before the timed rounds, each command
runs once per tree, untimed and with bytecode writes on, so that the bytecode
of every module it imports, the standard library's too, is in the tree's
prefix: no timed child compiles a module, also where PYTHONDONTWRITEBYTECODE
is set, so its peak follows the program and not the compiler's heap.

Per command and tree the output records the wall clock, the
peak resident set size, the minor page faults and the user and system CPU
seconds of every run, their median and quartiles, the exit codes, and the
sha256 of stdout; both must agree between the trees for a refactor that keeps
outputs byte-identical, and the script exits 1 where either differs.  The
peak is the child's own VmHWM, which it reads from /proc/self/status as it
exits: the rusage maximum of a child starts at the RSS of the process that
forked it, so it cannot show a peak below this script's own.  The faults
and the CPU times come from the child's own getrusage at the same point, so
they leave out the fork and exec; on a busy host the user time tells a
change from drift better than the wall clock does.

The file is one JSON object, the schema every BENCH_<n>.json written with
this script shares:

    {"schema": "bench_cli/1", "host": {...}, "runs": N,
     "commands": [{"args": "...", "trees": {"base": STATS, "change": STATS}}]}

    STATS = {"wall_s": {"median", "q1", "q3", "runs": [...]},
             "vmhwm_mb": {...}, "minflt": {...}, "user_s": {...},
             "sys_s": {...}, "exit": [...], "stdout_sha256": [...]}

minflt, user_s and sys_s were added to STATS later; files written before
lack them.

Other sections (stage timings, notes) may be added to the object by hand;
the script keeps any key of an existing --out file that it does not write.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCHEMA = "bench_cli/1"

#: Named sets of command lines.  `report-ceilings` is the report-only scan
#: (no --witnesses) at its ceilings: the largest bound in table and json,
#: and the one-term budget, whose failures are almost every integer.
#: `witness-streams` is the witness stream, which fills the first-term table
#: from every layer: json at three sizes, table at the smallest, and the
#: strict stream.  `arith-ceilings` is every other command at its ceiling:
#: `represent` of the 10,000-digit tetrahedral target -(10**10000 - 1),
#: whose second index has 10,001 digits, in every format and of the
#: 4,400-digit dodecahedral target 8181...81 in json, and `period` over the
#: last 10,000 moduli up to 10**6, `verify-identities` at its largest index,
#: and `gen` and `difftable` at their largest index or row count, each in
#: every format.
SETS = {
    "report-ceilings": [
        "pollock 100000000",
        "pollock 100000000 --format json",
        "pollock 10000000",
        "pollock 10000000 --max-terms 1",
        "pollock 1000000 --max-terms 1",
    ],
    "witness-streams": [
        "pollock 300000 --witnesses --format json",
        "pollock 300000 --witnesses --format table",
        "pollock 1000000 --witnesses --format json",
        "pollock 10000000 --witnesses --format json",
        "pollock 1000000 --strict-distinct --witnesses --format json",
    ],
    "arith-ceilings": [
        f"represent tetrahedral -{'9' * 10_000} --format json",
        f"represent tetrahedral -{'9' * 10_000} --format csv",
        f"represent tetrahedral -{'9' * 10_000} --format table",
        f"represent dodecahedral {'81' * 2_200} --format json",
        "period all 990001..1000000 --format json",
        "period all 990001..1000000 --format csv",
        "period all 990001..1000000 --format table",
        "gen dodecahedral 1..1000000 --check-recurrence --format json",
        "gen dodecahedral 1..1000000 --check-recurrence --format table",
        "gen dodecahedral 1..1000000 --check-recurrence --format csv",
        "verify-identities all 1..10000 --format table",
        "verify-identities all 1..10000 --format json",
        "verify-identities all 1..10000 --format csv",
        "difftable dodecahedral 100000 --format json",
        "difftable dodecahedral 100000 --format table",
        "difftable dodecahedral 100000 --format csv",
    ],
}

#: Runs platonics as `python -m platonics ARGS` does, then writes its VmHWM
#: in kB, its minor page faults and its user and system CPU seconds to the
#: file named by the first argument.
CHILD = """
import atexit, resource, runpy, sys
def report(path=sys.argv[1]):
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open("/proc/self/status") as status, open(path, "w") as out:
        hwm = next(l for l in status if l.startswith("VmHWM")).split()[1]
        out.write(f"{hwm} {usage.ru_minflt} {usage.ru_utime} {usage.ru_stime}")
atexit.register(report)
sys.argv = ["platonics", *sys.argv[2:]]
runpy.run_module("platonics", run_name="__main__", alter_sys=True)
"""


def run_once(
    tree: Path, prefix: Path, args: list[str], compile: bool = False
) -> tuple:
    """Wall seconds, VmHWM in MB, minor faults, user and system seconds,
    exit code and stdout sha256 of one run, which reads bytecode from
    `prefix` and, with `compile`, writes there what it lacks."""
    env = dict(
        os.environ, PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=str(prefix)
    )
    if compile:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryDirectory() as tmp:
        peak = Path(tmp) / "vmhwm"
        started = time.perf_counter()
        code = subprocess.call(
            [sys.executable, "-c", CHILD, str(peak), *args],
            env=env,
            stdout=out,
            stderr=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - started
        out.seek(0)
        digest = hashlib.sha256()
        for chunk in iter(lambda: out.read(1 << 20), b""):
            digest.update(chunk)
        hwm_kb, minflt, user_s, sys_s = peak.read_text().split()
    hwm_mb = int(hwm_kb) / 1024
    cpu = float(user_s), float(sys_s)
    return wall, hwm_mb, int(minflt), *cpu, code, digest.hexdigest()


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": round(median, 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "runs": [round(s, 4) for s in samples],
    }


def bench(
    trees: dict[str, Path], prefixes: dict[str, Path], command: str, runs: int
) -> dict:
    args = command.split()
    for name, tree in trees.items():
        run_once(tree, prefixes[name], args, compile=True)
    taken: dict[str, list[tuple]] = {name: [] for name in trees}
    names = list(trees)
    for round_ in range(runs):
        for name in names if round_ % 2 == 0 else names[::-1]:
            taken[name].append(run_once(trees[name], prefixes[name], args))
            wall, hwm, minflt, user_s, sys_s, code, _ = taken[name][-1]
            print(
                f"{command} [{name}] {wall:.3f} s {hwm:.1f} MB {minflt} faults"
                f" {user_s:.3f} s user {sys_s:.3f} s sys exit {code}",
                file=sys.stderr,
            )
    result = {}
    for name, samples in taken.items():
        walls, hwms, minflts, user_ss, sys_ss, codes, digests = zip(*samples)
        result[name] = {
            "wall_s": summary(list(walls)),
            "vmhwm_mb": summary(list(hwms)),
            "minflt": summary(list(minflts)),
            "user_s": summary(list(user_ss)),
            "sys_s": summary(list(sys_ss)),
            "exit": sorted(set(codes)),
            "stdout_sha256": sorted(set(digests)),
        }
    return {"args": command, "trees": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("commands", nargs="*", help="platonics arguments, quoted")
    parser.add_argument("--set", choices=SETS, help="add a named set of commands")
    parser.add_argument("--base", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed tree")
    parser.add_argument("--runs", type=int, default=5, help="runs per tree (>= 3)")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    commands = args.commands + SETS.get(args.set, [])
    if not commands:
        parser.error("give a command line or --set")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    with tempfile.TemporaryDirectory() as cache:
        prefixes = {name: Path(cache) / name for name in trees}
        commands = [bench(trees, prefixes, command, args.runs) for command in commands]
    document.update(
        schema=SCHEMA,
        host={
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        runs=args.runs,
        commands=commands,
    )
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    differs = False
    for c in document["commands"]:
        base, change = c["trees"]["base"], c["trees"]["change"]
        for key, what in (
            ("stdout_sha256", "stdout differs"),
            ("exit", "exit codes differ"),
        ):
            if base[key] != change[key]:
                print(f"{what} between the trees: {c['args']}", file=sys.stderr)
                differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
