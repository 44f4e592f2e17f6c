"""Spans around calls into the platonics layers, recorded from outside.

The tracer replaces module attributes with timing wrappers, in every
platonics module that binds the function, so calls made through a name
imported into another module (`cli.iter_witnesses`) and calls inside the
defining module (`pollock.platonic_pool`) are both seen.  Nothing in the
package changes on disk, and `uninstall` puts every original back.

Per wrapped name it keeps exact aggregates (calls, total time, self time),
and it keeps the first SPAN_CAP spans of each name in each operation in
memory as (op, id, parent, name, start, end) for writing out when the run
ends.  A kept span's parent may be one the cap dropped.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("pollock", "cli", "sequences", "identities", "representations", "periodicity")

#: Names the per-layer metrics need even when they are not public.
REQUIRED = (
    "pollock.platonic_pool",
    "pollock.scan_conjecture",
    "pollock.iter_witnesses",
    "pollock._layer_masks",
    "cli.main",
    "periodicity.check_period_claim",
    "periodicity.empirical_period",
    "identities.identity_residual",
    "representations.represent_multiple",
    "sequences.platonic_value",
    "sequences.difference_table",
    "sequences.platonic_values_by_recurrence",
)

PACKAGE = "platonics"

SPAN_CAP = 200


class _Frame:
    __slots__ = ("span", "child_s")

    def __init__(self, span: int):
        self.span = span
        self.child_s = 0.0


class Tracer:
    """Wraps layer functions and aggregates their spans per operation."""

    def __init__(self):
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict | None = None
        self._next_span = 0
        self._op = -1
        self._op_spans: dict[str, int] = {}
        self.stats: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}

    # ------------------------------------------------------------ install

    def _targets(self) -> dict[object, str]:
        """Map each function to wrap onto its dotted layer name."""
        targets: dict[object, str] = {}
        modules = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            modules[layer] = module
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    targets[obj] = f"{layer}.{name}"
        for dotted in REQUIRED:
            layer, name = dotted.split(".", 1)
            obj = getattr(modules.get(layer), name, None)
            if inspect.isfunction(obj):
                targets[obj] = dotted
            else:
                self.absent.append(dotted)
        return targets

    def install(self) -> None:
        """Wrap every binding of every layer function in the package."""
        if self._wrappers is None:
            self._wrappers = {
                fn: self._wrap(fn, name) for fn, name in self._targets().items()
            }
        wrappers = self._wrappers
        prefix = PACKAGE + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == PACKAGE or mod_name.startswith(prefix)
            ):
                continue
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable attribute
                    continue
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ spans

    def begin_op(self, op: int) -> None:
        self._op = op
        self._op_spans = {}
        self.stats = {}
        self.counters = {}

    def _enter(self) -> _Frame:
        self._next_span += 1
        return _Frame(self._next_span)

    def _exit(self, frame: _Frame, name: str, start: float, end: float) -> None:
        """Close a span: aggregate it, and keep it unless its name is at the cap."""
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += duration
        self_s = duration - frame.child_s
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_s
        kept = self._op_spans.get(name, 0)
        if kept < SPAN_CAP:
            self._op_spans[name] = kept + 1
            self.spans.append(
                (self._op, frame.span, parent.span if parent else 0, name, start, end)
            )

    def _count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, fn, name: str):
        clock = time.perf_counter
        stack = self._stack
        hook = _RESULT_HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):

            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = True
                while True:
                    frame = self._enter()
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        self._exit(frame, name, start, end)
                        self._count(name + (".first_s" if first else ".rest_s"), end - start)
                        first = False
                    yield item

            generator_wrapper.__wrapped__ = fn
            return generator_wrapper

        def wrapper(*args, **kwargs):
            frame = self._enter()
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._exit(frame, name, start, end)
            if hook is not None:
                hook(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ output

    def op_summary(self) -> dict:
        """Aggregates of the current operation, keyed by metric name."""
        out: dict[str, float] = dict(self.counters)
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, span, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"op": op, "span": span, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def _pool_hook(tracer: Tracer, pool) -> None:
    tracer.counters["pollock.pool_size"] = max(
        tracer.counters.get("pollock.pool_size", 0), len(pool)
    )


def _period_hook(tracer: Tracer, report) -> None:
    agrees = getattr(report, "agrees", None)
    if agrees is not None:
        tracer._count("periodicity.disagreements", 0 if agrees else 1)


_RESULT_HOOKS = {
    "pollock.platonic_pool": _pool_hook,
    "periodicity.check_period_claim": _period_hook,
}
