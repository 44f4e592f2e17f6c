"""Bounded search: which integers are sums of at most five platonic numbers.

The pool is the union of the five families' values up to a limit, with the
provenance of every value kept so a witness can be re-derived and checked
independently.  Reachability runs in layers over bitsets (Python ints), one
cumulative layer per additional term, so min-term counts are exact and the
whole scan is deterministic.  By default values may repeat inside a witness
(the five families are what must differ); strict-distinct mode forbids
repeated values.

With repeats, each layer is built by the method that suits its density.
Layers 1 and 2 are sparse, so their sums are enumerated into a bit-packed
buffer.  A later layer shift-ors the previous one by pool values while
holes (integers not yet reached) are dense, then tests each remaining hole
against the values not yet shifted in.  Layering stops at the fixpoint,
and failures are read from the set bits of the final complement.  Every
layer is bit-identical to the plain shift-or over the whole pool.

A witness is recovered by walking back through the layers, taking the
largest pool value that leaves a remainder in the layer below.  One walk,
_witnesses, serves the scans' streams and min_term_decomposition alike.
With repeats it looks a remainder at layer 2 up in a table of pair sums,
so only the steps from layer 3 up probe pool values; with distinct values
it is a depth-first search that the layers prune.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .sequences import PlatonicKind, platonic_value

#: Largest scan bound accepted before the dense bit tables get unreasonable.
DEFAULT_SCAN_CEILING = 100_000_000


@dataclass(frozen=True)
class PoolEntry:
    """One pool value and every (kind, index) pair that attains it."""

    value: int
    provenance: tuple[tuple[PlatonicKind, int], ...]


@dataclass(frozen=True)
class Witness:
    """A target written as a sum of pool values within the term budget."""

    target: int
    terms: tuple[PoolEntry, ...]

    @property
    def term_values(self) -> tuple[int, ...]:
        return tuple(entry.value for entry in self.terms)

    def to_json_dict(self) -> dict:
        return {
            "target": str(self.target),
            "min_terms": len(self.terms),
            "terms": [str(v) for v in self.term_values],
        }


@dataclass(frozen=True)
class ScanReport:
    """Aggregate outcome of a scan over [1, n]."""

    n: int
    max_terms: int
    strict_distinct: bool
    histogram: dict[int, int]
    failures: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "max_terms": self.max_terms,
            "strict_distinct": self.strict_distinct,
            "histogram": {str(k): v for k, v in self.histogram.items()},
            "failure_count": len(self.failures),
            "failures": [str(m) for m in self.failures],
        }


def platonic_pool(limit: int) -> list[PoolEntry]:
    """All platonic values in [1, limit], merged, sorted, with provenance."""
    if limit < 1:
        raise ValueError(f"pool limit must be >= 1, got {limit}")
    attained: dict[int, list[tuple[PlatonicKind, int]]] = {}
    for kind in PlatonicKind:
        n = 1
        while True:
            value = platonic_value(kind, n)
            if value > limit:
                break
            attained.setdefault(value, []).append((kind, n))
            n += 1
    return [
        PoolEntry(value=value, provenance=tuple(attained[value]))
        for value in sorted(attained)
    ]


def verify_witness(witness: Witness, max_terms: int = 5) -> bool:
    """Independently check a witness: term count, sum, and provenance.

    Every term value is re-derived from its claimed (kind, index) pairs, so
    a forged value can never pass no matter what the pool said.
    """
    if not 1 <= len(witness.terms) <= max_terms:
        return False
    if sum(entry.value for entry in witness.terms) != witness.target:
        return False
    for entry in witness.terms:
        if not entry.provenance:
            return False
        for kind, index in entry.provenance:
            if index < 1 or platonic_value(kind, index) != entry.value:
                return False
    return True


def witness_from_values(
    target: int, values: list[int] | tuple[int, ...], pool: list[PoolEntry]
) -> Witness:
    """Attach pool provenance to a plain value list, e.g. a reported sum."""
    by_value = {entry.value: entry for entry in pool}
    terms = []
    for value in values:
        if value not in by_value:
            raise ValueError(f"{value} is not a platonic value within the pool")
        terms.append(by_value[value])
    return Witness(target=target, terms=tuple(terms))


def _layer_masks(
    values: list[int],
    limit: int,
    max_terms: int,
    strict_distinct: bool,
    stop_bit: int | None = None,
) -> list[int]:
    """Cumulative reachability masks; masks[k] = sums of at most k terms.

    `values` must be ascending and lie in [1, limit], and max_terms must be
    at least 1.  Bit 0 stands for the empty sum.  With stop_bit set,
    layering stops as soon as that bit appears (single-target use).
    Layering also stops at the fixpoint, so the list may be shorter than
    max_terms + 1: every later mask equals the last one.
    """
    full = (1 << (limit + 1)) - 1
    masks = [1]
    if strict_distinct:
        # k distinct values need k pool values, so exact[k] = 0 beyond that
        depth = min(max_terms, len(values))
        exact = [1] + [0] * depth
        for v in values:
            for k in range(depth, 0, -1):
                exact[k] = (exact[k] | (exact[k - 1] << v)) & full
        layers = (masks[-1] | exact[k] for k in range(1, depth + 1))
    else:
        layers = _default_layers(values, limit, max_terms, full)
    for mask in layers:
        # with repeats, a layer that adds nothing is a fixpoint; a strict
        # layer can add nothing and the next one still add sums
        if not strict_distinct and mask == masks[-1]:
            break
        masks.append(mask)
        if stop_bit is not None and (mask >> stop_bit) & 1:
            break
    return masks


def _default_layers(values: list[int], limit: int, max_terms: int, full: int):
    """Yield masks[1..max_terms] with repeats allowed: layers 1 and 2 by
    enumerating sums into a bit-packed buffer, later ones by _grow_layer."""
    buf = bytearray(limit // 8 + 1)
    buf[0] = 1
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    mask = int.from_bytes(buf, "little")
    yield mask
    if max_terms < 2:
        return
    for i, v in enumerate(values):
        top = limit - v
        if v > top:
            break
        for w in values[i : bisect_right(values, top)]:
            s = v + w
            buf[s >> 3] |= 1 << (s & 7)
    mask = int.from_bytes(buf, "little")
    yield mask
    del buf  # the generator frame would keep it through the dense layers
    for _ in range(3, max_terms + 1):
        mask = _grow_layer(mask, values, limit, full)
        yield mask


#: A layer stops shifting and tests its holes one by one once fewer than
#: one integer in HOLE_SPARSITY is still unreached.  A shift-or costs a
#: pass over all limit bits and removes a few percent of the holes; a hole
#: costs tens of byte probes.  4096 is near the measured optimum at 10^6
#: and 10^7, where the per-hole phase then starts with ~n/10^4 holes left.
HOLE_SPARSITY = 4096

#: Shift-or chunks grow 1, 2, 4, ... up to this many values between hole
#: counts, since masking and counting cost about as much as one shift-or.
MAX_CHUNK = 16


def _grow_layer(previous: int, values: list[int], limit: int, full: int) -> int:
    """masks[k] from masks[k - 1] = previous, for k >= 3."""
    mask = previous
    holes = limit + 1 - mask.bit_count()
    used = 0
    chunk = 1
    while holes * HOLE_SPARSITY >= limit and used < len(values):
        for v in values[used : used + chunk]:
            mask |= previous << v
        mask &= full
        used += chunk
        chunk = min(2 * chunk, MAX_CHUNK)
        holes = limit + 1 - mask.bit_count()
    rest = values[used:]
    if not rest or not holes:
        return mask
    previous_bytes = _mask_bytes(previous, limit)
    reached = bytearray(limit // 8 + 1)
    for h in _set_bits(_mask_bytes(mask ^ full, limit)):
        # the bit probe is inlined: this loop is the phase's whole cost
        for v in rest:
            d = h - v
            if d < 0:
                break
            if previous_bytes[d >> 3] >> (d & 7) & 1:
                reached[h >> 3] |= 1 << (h & 7)
                break
    return mask | int.from_bytes(reached, "little")


#: Bit offsets set in each byte value, for walking sparse masks.
_BYTE_BITS = tuple(
    tuple(b for b in range(8) if byte >> b & 1) for byte in range(256)
)

_NONZERO_BYTE = re.compile(rb"[^\x00]")


def _set_bits(mask_bytes: bytes) -> list[int]:
    """Indices of the set bits of a little-endian bitset, ascending."""
    found = []
    for match in _NONZERO_BYTE.finditer(mask_bytes):
        i = match.start()
        base = i << 3
        found.extend(base + b for b in _BYTE_BITS[mask_bytes[i]])
    return found


def _mask_bytes(mask: int, limit: int) -> bytes:
    return mask.to_bytes(limit // 8 + 1, "little")


def _strict_search(values_desc: list[int], layer_bytes: list[bytes]):
    """search(target, need, start): the first decomposition of target into
    `need` distinct values of values_desc[start:], in descending order, or
    None.

    A value v is tried only if target - v is set in layer_bytes[need - 1],
    the sums of at most need - 1 distinct values, so no branch is entered
    that cannot complete.  Layer 0 holds only the empty sum, so the last
    value taken is what remains.
    """
    total = len(values_desc)

    def search(remaining: int, need: int, start: int) -> list[int] | None:
        below = layer_bytes[need - 1]
        for idx in range(start, total):
            d = remaining - values_desc[idx]
            if d < 0 or not below[d >> 3] >> (d & 7) & 1:
                continue
            if need == 1:
                return [values_desc[idx]]
            rest = search(d, need - 1, idx + 1)
            if rest is not None:
                return [values_desc[idx], *rest]
        return None

    return search


def min_term_decomposition(
    m: int,
    pool: list[PoolEntry],
    max_terms: int = 5,
    strict_distinct: bool = False,
) -> Witness | None:
    """Witness with the minimum possible term count, or None.

    The pool must contain every platonic value up to m (build it with
    limit >= m); None means no decomposition exists within the budget,
    which is a result, not an error.  m is held to the scans' ceiling,
    since its masks are (m + 1)-bit layers like a scan's.
    """
    _check_scan_args(m, max_terms, DEFAULT_SCAN_CEILING, "target")
    values = [entry.value for entry in pool if entry.value <= m]
    masks = _layer_masks(values, m, max_terms, strict_distinct, stop_bit=m)
    return next(_witnesses([m], m, masks, pool, strict_distinct), None)


def _check_scan_args(
    n: int, max_terms: int, ceiling: int, name: str = "scan bound"
) -> None:
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    if max_terms < 1:
        raise ValueError(f"term budget must be >= 1, got {max_terms}")
    if n > ceiling:
        raise ValueError(
            f"{name} {n} exceeds the ceiling {ceiling}; "
            f"raise the ceiling explicitly if you really want this"
        )


def _scan_layers(
    n: int, max_terms: int, strict_distinct: bool, ceiling: int
) -> tuple[list[PoolEntry], list[int]]:
    """Check the scan arguments, then build the pool and the layer masks."""
    _check_scan_args(n, max_terms, ceiling)
    pool = platonic_pool(n)
    values = [entry.value for entry in pool]
    return pool, _layer_masks(values, n, max_terms, strict_distinct)


def _report_from_masks(
    n: int, max_terms: int, strict_distinct: bool, masks: list[int]
) -> ScanReport:
    built = len(masks) - 1
    histogram = {
        k: (masks[k] ^ masks[k - 1]).bit_count() if k <= built else 0
        for k in range(1, max_terms + 1)
    }
    full = (1 << (n + 1)) - 1
    failures = tuple(_set_bits(_mask_bytes(masks[built] ^ full, n)))
    return ScanReport(
        n=n,
        max_terms=max_terms,
        strict_distinct=strict_distinct,
        histogram=histogram,
        failures=failures,
    )


def scan_conjecture(
    n: int,
    max_terms: int = 5,
    strict_distinct: bool = False,
    ceiling: int = DEFAULT_SCAN_CEILING,
) -> ScanReport:
    """Decide for every integer in [1, n] whether it decomposes in budget."""
    _, masks = _scan_layers(n, max_terms, strict_distinct, ceiling)
    return _report_from_masks(n, max_terms, strict_distinct, masks)


def scan_with_witnesses(
    n: int, max_terms: int = 5, strict_distinct: bool = False
) -> tuple[ScanReport, Iterator[Witness]]:
    """One scan of [1, n]: its report, and a lazy stream of a minimal
    witness for every representable m, recovered from the same masks."""
    pool, masks = _scan_layers(n, max_terms, strict_distinct, DEFAULT_SCAN_CEILING)
    report = _report_from_masks(n, max_terms, strict_distinct, masks)
    return report, _witnesses(range(1, n + 1), n, masks, pool, strict_distinct)


def iter_witnesses(
    n: int, max_terms: int = 5, strict_distinct: bool = False
) -> Iterator[Witness]:
    """Yield a minimal witness for every representable m in [1, n]."""
    yield from scan_with_witnesses(n, max_terms, strict_distinct)[1]


def _pair_largest(values: list[int], limit: int) -> dict[int, int]:
    """For every pair sum v + w <= limit, the largest term of such a pair.

    Pairs are enumerated as layer 2 enumerates them, v ascending and w >= v,
    and the first pair of each sum is kept.  It has the smallest v, so its w
    is the value that a largest-first probe of a remainder at layer 2 takes.
    """
    largest: dict[int, int] = {}
    for i, v in enumerate(values):
        top = limit - v
        if v > top:
            break
        for w in values[i : bisect_right(values, top)]:
            largest.setdefault(v + w, w)
    return largest


def _witnesses(
    targets: Iterable[int],
    limit: int,
    masks: list[int],
    pool: list[PoolEntry],
    strict_distinct: bool,
) -> Iterator[Witness]:
    """A minimal witness for every target in `targets` that the masks reach.

    `masks` are _layer_masks over the values of `pool` up to `limit`.  A
    target's depth is the first layer that holds it.  Its terms come from
    walking back through the layers, each step taking the largest pool value
    that leaves a remainder in the layer below.  With repeats that choice
    always completes: a remainder at layer 2 is one lookup in the pair
    table, and only the steps from layer 3 up probe pool values.  With
    distinct values a choice can strand the rest, so the walk is the
    depth-first _strict_search, which backs up past it.
    """
    layer_bytes = [_mask_bytes(mask, limit) for mask in masks]
    built = len(masks) - 1
    values_asc = [entry.value for entry in pool]
    by_value = {entry.value: entry for entry in pool}
    if strict_distinct:
        search = _strict_search(values_asc[::-1], layer_bytes)
        total = len(values_asc)
    else:
        pairs = _pair_largest(values_asc, limit) if built >= 2 else {}
    # the mode is tested per target, not bound to a function before the
    # loop: a call per target made the default stream about 4% slower
    for m in targets:
        byte, bit = m >> 3, m & 7
        depth = 1
        while depth <= built and not layer_bytes[depth][byte] >> bit & 1:
            depth += 1
        if depth > built:
            continue
        if depth == 1:
            yield Witness(m, (by_value[m],))
        elif strict_distinct:
            # the values <= m start at this index of the descending list
            term_values = search(m, depth, total - bisect_right(values_asc, m))
            if term_values is None:
                raise RuntimeError(f"strict recovery failed for {m}; masks corrupt")
            yield Witness(m, tuple([by_value[v] for v in term_values]))
        else:
            terms = []
            remaining = m
            for k in range(depth, 2, -1):
                previous = layer_bytes[k - 1]
                for i in range(bisect_right(values_asc, remaining) - 1, -1, -1):
                    d = remaining - values_asc[i]
                    if previous[d >> 3] >> (d & 7) & 1:
                        terms.append(pool[i])
                        remaining = d
                        break
                else:
                    raise RuntimeError(
                        f"no predecessor for {remaining} at layer {k}; masks corrupt"
                    )
            w = pairs.get(remaining)
            if w is None:
                raise RuntimeError(
                    f"no predecessor for {remaining} at layer 2; masks corrupt"
                )
            terms += (by_value[w], by_value[remaining - w])
            yield Witness(m, tuple(terms))
