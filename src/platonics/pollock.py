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
_witnesses, serves the scans' streams and min_term_decomposition alike; it
yields plain term values, which the CLI formats as they come and the
library wraps in Witness objects.  With repeats it reads its steps from
tables: a remainder at layer 2 is looked up in a table of pair sums, and
the first term of every depth-3 target comes from one bulk pass per pool
value over a block of targets, so only deeper targets probe pool values.
With distinct values it is a depth-first search that the layers prune.
"""

from __future__ import annotations

import re
import sys
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


def _strict_search(values: list[int], layer_bytes: list[bytes]):
    """search(target, need, start): the first decomposition of target into
    `need` distinct values of values[::-1][start:], in descending order, or
    None.  `values` is ascending.

    Each level starts at the largest value not above what remains.  A value
    v is tried only if target - v is set in layer_bytes[need - 1], the sums
    of at most need - 1 distinct values, so no branch is entered that cannot
    complete.  Layer 0 holds only the empty sum, so the last value taken is
    what remains.
    """
    total = len(values)
    values_desc = values[::-1]

    def search(remaining: int, need: int, start: int) -> list[int] | None:
        below = layer_bytes[need - 1]
        # the values <= remaining start at this index of the descending list
        for idx in range(max(start, total - bisect_right(values, remaining)), total):
            d = remaining - values_desc[idx]
            if not below[d >> 3] >> (d & 7) & 1:
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
    found = _witnesses(m, m + 1, m, masks, values, strict_distinct)
    return next(_with_provenance(found, pool), None)


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


def _scan_terms(
    n: int, max_terms: int, strict_distinct: bool
) -> tuple[ScanReport, list[PoolEntry], Iterator[tuple[int, tuple[int, ...]]]]:
    """One scan of [1, n]: its report, its pool, and (m, term values) of a
    minimal witness for every representable m, recovered from the same
    masks.  The CLI formats these plain values; library callers get them
    as Witness objects from scan_with_witnesses."""
    pool, masks = _scan_layers(n, max_terms, strict_distinct, DEFAULT_SCAN_CEILING)
    report = _report_from_masks(n, max_terms, strict_distinct, masks)
    values = [entry.value for entry in pool]
    return report, pool, _witnesses(1, n + 1, n, masks, values, strict_distinct)


def scan_with_witnesses(
    n: int, max_terms: int = 5, strict_distinct: bool = False
) -> tuple[ScanReport, Iterator[Witness]]:
    """One scan of [1, n]: its report, and a lazy stream of a minimal
    witness for every representable m, recovered from the same masks."""
    report, pool, found = _scan_terms(n, max_terms, strict_distinct)
    return report, _with_provenance(found, pool)


def iter_witnesses(
    n: int, max_terms: int = 5, strict_distinct: bool = False
) -> Iterator[Witness]:
    """Yield a minimal witness for every representable m in [1, n]."""
    yield from scan_with_witnesses(n, max_terms, strict_distinct)[1]


def _with_provenance(
    found: Iterable[tuple[int, tuple[int, ...]]], pool: list[PoolEntry]
) -> Iterator[Witness]:
    """The Witness, with the pool entry of every term, for each (m, terms)."""
    by_value = {entry.value: entry for entry in pool}
    for m, terms in found:
        yield Witness(m, tuple([by_value[v] for v in terms]))


#: Depth-3 first terms are found for this many targets at a time, so the
#: table and the bitsets of one pass stay this size however large the scan.
#: Blocks of 2**14 to 2**20 took the same time at 10^6 and 10^7, but 2**20
#: raised the peak RSS of `pollock 1000000 --witnesses` from 19 to 28 MB.
WITNESS_BLOCK = 1 << 16


def _pair_largest(values: list[int], limit: int) -> memoryview:
    """For every pair sum v + w <= limit, 1 + the pool index of the largest
    term w of such a pair; 0 where no pair sums to the index.

    Pairs are written v descending, so the pair left for a sum has the
    smallest v, and its w is the value that a largest-first probe of a
    remainder at layer 2 takes.  'H' holds the index of every pool up to
    the scan ceiling, which has about 2,500 values.
    """
    largest = memoryview(bytearray(2 * (limit + 1))).cast("H")
    for i in range(bisect_right(values, limit // 2) - 1, -1, -1):
        v = values[i]
        for j in range(i, bisect_right(values, limit - v)):
            largest[v + values[j]] = j + 1
    return largest


#: Per bit b, a table from "0"/"1" to the byte 0/2**b, which spreads one
#: bitplane of pool indices into byte lanes.
_LANE_BIT = [bytes.maketrans(b"01", bytes([0, 1 << b])) for b in range(8)]


def _first_terms(
    lo: int, hi: int, layer_bytes: list[bytes], values: list[int]
) -> memoryview:
    """1 + the pool index of the first term of every m in [lo, hi) whose
    depth is 3, at index m - lo; 0 for every other m.

    The first term is the largest pool value v that leaves a remainder at
    layer 2.  One pass per value, largest first, finds it for the whole
    block: the targets still open are T, the hits are T & (L2 << v), and
    each hit takes v and leaves T.  A pass reads only the bytes of layer 2
    under the open targets.  Its hits are not read out bit by bit: they are
    ORed into one bitplane per bit of the index, and at the end each plane
    is spread into byte lanes (its binary text, translated) and the lanes
    are ORed into the table.
    """
    span = hi - lo
    lanes = bytearray(2 * span)
    if len(layer_bytes) < 4:
        return memoryview(lanes).cast("H")
    below, layer = layer_bytes[2], layer_bytes[3]
    a, b = lo >> 3, ((hi - 1) >> 3) + 1
    open_ = int.from_bytes(layer[a:b], "little") & ~int.from_bytes(below[a:b], "little")
    open_ = (open_ >> (lo & 7)) & ((1 << span) - 1)
    planes = [0] * 16
    for i in range(bisect_right(values, hi - 1) - 1, -1, -1):
        if not open_:
            break
        # bit j of the window is bit s + j of layer 2, up to the last open target
        s = lo - values[i]
        top = s + open_.bit_length()
        if top <= 0:
            continue
        end = ((top - 1) >> 3) + 1
        if s >= 0:
            window = int.from_bytes(below[s >> 3 : end], "little") >> (s & 7)
        else:
            window = int.from_bytes(below[:end], "little") << -s
        hits = open_ & window
        if hits:
            open_ ^= hits
            for bit in range((i + 1).bit_length()):
                if (i + 1) >> bit & 1:
                    planes[bit] |= hits
    if open_:
        m = lo + (open_ & -open_).bit_length() - 1
        raise RuntimeError(f"no predecessor for {m} at layer 3; masks corrupt")
    # the low byte of a native 16-bit lane comes first on a little-endian host
    for half, offset in enumerate((0, 1) if sys.byteorder == "little" else (1, 0)):
        acc = 0
        for bit, translate in enumerate(_LANE_BIT):
            plane = planes[8 * half + bit]
            if plane:
                # the text is most significant bit first, so read it big-endian
                text = format(plane, f"0{span}b").encode().translate(translate)
                acc |= int.from_bytes(text, "big")
        lanes[offset::2] = acc.to_bytes(span, "little")
    return memoryview(lanes).cast("H")


def _depth(m: int, layer_bytes: list[bytes]) -> int:
    """The first layer that holds m; len(layer_bytes) if none does."""
    byte, bit = m >> 3, m & 7
    depth = 1
    while depth < len(layer_bytes) and not layer_bytes[depth][byte] >> bit & 1:
        depth += 1
    return depth


def _witnesses(
    lo: int,
    hi: int,
    limit: int,
    masks: list[int],
    values: list[int],
    strict_distinct: bool,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(m, term values) of a minimal witness for every m in [lo, hi) that
    the masks reach.

    `masks` are _layer_masks over the ascending pool `values` up to
    `limit`.  A target's depth is the first layer that holds it.  Its terms
    come from walking back through the layers, each step taking the largest
    pool value that leaves a remainder in the layer below.  With repeats
    that choice always completes: a remainder at layer 2 is one lookup in
    the pair table, a target at depth 3 takes its first term from the
    block's bulk pass (_first_terms), and only the steps of deeper targets
    probe pool values.  With distinct values a choice can strand the rest,
    so the walk is the depth-first _strict_search, which backs up past it.
    """
    layer_bytes = [_mask_bytes(mask, limit) for mask in masks]
    built = len(masks) - 1
    # the walk reads only the bytes; a stream's frame would hold both to its end
    del masks
    if strict_distinct:
        search = _strict_search(values, layer_bytes)
        for m in range(lo, hi):
            depth = _depth(m, layer_bytes)
            if depth > built:
                continue
            terms = search(m, depth, 0)
            if terms is None:
                raise RuntimeError(f"strict recovery failed for {m}; masks corrupt")
            yield m, tuple(terms)
        return
    pairs = _pair_largest(values, limit) if built >= 2 else None
    # the tables hold 1 + a pool index, so that 0 can mean "no such term"
    value_at = [0, *values]
    for start in range(lo, hi, WITNESS_BLOCK):
        stop = min(start + WITNESS_BLOCK, hi)
        first = _first_terms(start, stop, layer_bytes, values)
        for m, i in zip(range(start, stop), first):
            if i:
                v = value_at[i]
                remaining = m - v
            else:
                depth = _depth(m, layer_bytes)
                if depth > built:
                    continue
                if depth == 1:
                    yield m, (m,)
                    continue
                terms = []
                remaining = m
                for k in range(depth, 2, -1):
                    previous = layer_bytes[k - 1]
                    for j in range(bisect_right(values, remaining) - 1, -1, -1):
                        d = remaining - values[j]
                        if previous[d >> 3] >> (d & 7) & 1:
                            terms.append(values[j])
                            remaining = d
                            break
                    else:
                        raise RuntimeError(
                            f"no predecessor for {remaining} at layer {k}; "
                            "masks corrupt"
                        )
            w = value_at[pairs[remaining]]
            if not w:
                raise RuntimeError(
                    f"no predecessor for {remaining} at layer 2; masks corrupt"
                )
            if i:
                yield m, (v, w, remaining - w)
            else:
                yield m, (*terms, w, remaining - w)
