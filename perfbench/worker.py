"""One benchmark process: set a workload up, then run it in a closed loop.

run.py starts this script in a fresh interpreter.  It imports platonics from
the checkout's `src/`, builds the workload's inputs from the seed and prints
`ready`; that line ends the set-up that run.py times.  Unless --setup-only is
given it then runs one operation at a time (a round of CLI commands for
arith-cli) for as long as the next round is expected to end within --seconds,
and writes what it measured to `worker.json` in --run-dir.  Round 0 is a
warm-up: it runs and is checked like the others, but run.py leaves it out of
the timings, because the first large allocations of a fresh process fault
their pages in (about 1.3 s of system time in the first 10**7 scan, 0.05 s in
later ones).  With --trace 1 rounds 1, 3, 5, ... run with the layer tracer
installed, so one run gives traced and untraced timings.  Untraced rounds run
with the gauge of gauge.py: every operation's wall and CPU time leave out the
ticks timed during it, and the round records its ticks, so run.py can scale
its time to the reference speed.  Outputs are checked by run.py, not here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

import gauge
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB.

    Read from VmHWM, which starts afresh at exec.  ru_maxrss is only the
    fallback: it also counts the parent's resident memory at the moment it
    started this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(fn, ticks: list[float]):
    """Calls fn; returns its result and wall and CPU seconds, less the time
    of the gauge ticks appended to `ticks` meanwhile."""
    n0 = len(ticks)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = fn()
    cpu1, wall1 = time.process_time(), time.perf_counter()
    ticked = sum(ticks[n0:])
    return result, wall1 - wall0 - ticked, cpu1 - cpu0 - ticked


class Workload:
    """The operations of one workload, bound to the imported package."""

    def __init__(self, name: str, seed: int, run_dir: Path, smoke: bool):
        import platonics.cli
        import platonics.pollock

        self.cli = platonics.cli
        self.pollock = platonics.pollock
        self.name = name
        self.run_dir = run_dir
        self.gauge = gauge.Gauge()
        if name == "arith-cli":
            self.commands = [
                (cmd.label, [*cmd.argv, "--format", cmd.fmt])
                for cmd in workloads.arith_commands(seed)
            ]
        else:
            self.n = workloads.pollock_n(name, smoke)
            self.commands = [("pollock", workloads.pollock_argv(name, self.n))]

    def run_round(self, index: int) -> list[dict]:
        if self.name == "scan":
            return [self._scan()]
        return [
            self._cli(label, argv, self.run_dir / f"r{index}-c{i}.out")
            for i, (label, argv) in enumerate(self.commands)
        ]

    def _scan(self) -> dict:
        # Looked up on every call, so the tracer's wrapper is seen.
        report, wall, cpu = _timed(
            lambda: self.pollock.scan_conjecture(self.n), self.gauge.samples
        )
        return {
            "label": "scan",
            "wall": wall,
            "cpu": cpu,
            "rc": 0,
            "report": {
                "histogram": {str(k): v for k, v in report.histogram.items()},
                "failures": [int(m) for m in report.failures],
            },
        }

    def _cli(self, label: str, argv: list[str], out: Path) -> dict:
        def call():
            try:
                return self.cli.main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse rejects the arguments
                return exc.code

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, wall, cpu = _timed(call, self.gauge.samples)
        return {
            "label": label,
            "wall": wall,
            "cpu": cpu,
            "rc": rc,
            "stderr": err.getvalue()[:400],
            "out": out.name if out.exists() else None,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    work = Workload(args.workload, args.seed, args.run_dir, args.smoke)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds = []
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        index = len(rounds)
        round_start = time.perf_counter()
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        n0 = len(work.gauge.samples)
        if traced:
            tracer.begin_op(index)
            tracer.install()
        else:
            work.gauge.start()
        try:
            ops = work.run_round(index)
        finally:
            if traced:
                tracer.uninstall()
            else:
                work.gauge.stop()
                # Every untraced round gets at least one tick.
                work.gauge.samples.append(gauge.timed_tick())
        rounds.append(
            {
                "traced": traced,
                "ops": ops,
                "layers": tracer.op_summary() if traced else None,
                "ticks": work.gauge.samples[n0:],
            }
        )
        now = time.perf_counter()
        durations.append(now - round_start)
        # A result needs one timed round after the warm-up, and a traced
        # run needs an untraced round to compare the traced ones with.
        # Beyond that, start no round that would end after --seconds.
        enough = len(rounds) >= (3 if tracer else 2)
        if enough and now - start + max(durations[-2:]) > args.seconds:
            break

    result = {
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb(),
        "absent": tracer.absent if tracer else [],
    }
    if tracer is not None:
        tracer.write_spans(args.run_dir / "spans.jsonl")
    (args.run_dir / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
