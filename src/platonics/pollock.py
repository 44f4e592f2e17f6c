"""Bounded search: which integers are sums of at most five platonic numbers.

The pool is the union of the five families' values up to a limit, with the
provenance of every value kept so a witness can be re-derived and checked
independently.  Reachability runs in layers, one cumulative layer per
additional term, so min-term counts are exact and the whole scan is
deterministic.  A layer is a bitset stored as little-endian bytes from its
build to the walk, and the build returns its bit count with it.  By default
values may repeat inside a witness (the five families are what must
differ); strict-distinct mode forbids repeated values.

With repeats, the layers are grown in place in one buffer, layer k over
layer k - 1, by the method that suits each one's density; a walk needs
every layer, so for one each is copied to bytes before it is grown, and a
report alone holds the last.  Layers 1 and 2 are sparse, so their sums are
enumerated into the bit-packed buffer, the pair sums through per-residue
tables of byte offsets and bits.  A later layer whose holes (integers not
yet reached) are dense is built one window of bits at a time, from the top
down, so that no temporary is the size of a layer: the window shift-ors in
the previous layer's bits by pool values while its holes are dense, the
values nearest the window's start first, so that their bits come from the
dense bottom of the previous layer, then tests each remaining hole against
the values not yet shifted in.  Those tests read the previous layer below
the window's top, so the window is written over it only after them.  A
layer whose holes are already sparse tests them all at once and sets the
ones reached only after every test.  Layering stops at the fixpoint.  The
holes of a layer, and so the failures of the last one, are found a byte
that is not full at a time.  Every layer is bit-identical to the plain
shift-or over the whole pool.

A witness is recovered by walking back through the layers, taking the
largest pool value that leaves a remainder in the layer below.  The scan
only builds; each caller reads what it needs.  A stream, the scans' or the
CLI's, is one walk, _witnesses, in both modes; it yields blocks of targets
with their depths, one byte each, and their terms as pool indices, which
the CLI renders a block at a time and the library unpacks into Witness
objects.  Every step is one lookup in a single first-term table over
[0, limit], filled by bulk passes per layer and pool value over blocks of
targets, and a block is walked in rounds, each one lookup for all its
targets at once, until every remainder is 0.  The fill also makes the
depths, as bitplanes of the targets each layer adds, one set per block of
the table.  A walk block ends where its table block does, so the walk
spreads one window of that block's planes into byte lanes, as the fill
spreads the table's pool indices.  One target, for min_term_decomposition,
is a depth-first search (_search) that the layers prune, which takes the
walk's choice at every step and needs no table.  With distinct values a
walk block whose terms all strictly descend is done; any other block is
rebuilt by that search, per target, at its depth.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, zip_longest
from operator import ge, itemgetter, sub

from .sequences import PlatonicKind, platonic_value

#: Largest scan bound accepted before the dense bit tables get unreasonable.
DEFAULT_SCAN_CEILING = 100_000_000

#: Largest term budget accepted.  Layering stops at the fixpoint, but the
#: report keeps a histogram entry per term count: the scan of 10 peaks at
#: 21 MB with this budget, and at 97 MB with 10**6 terms.
MAX_TERMS_CEILING = 200_000

#: Most strict layer bits a scan may build, min(max_terms, pool size) *
#: (n + 1): as many as the strict scan at the ceiling with the default
#: budget of 5 terms.  The layers are one cumulative set built in place,
#: and each is shifted once per pool value, so these bits cost time as
#: well as memory.
STRICT_BITS_CEILING = 5 * (DEFAULT_SCAN_CEILING + 1)


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
    """All platonic values in [1, limit], merged, sorted, with provenance.

    limit is held to the scans' ceiling, the largest bound any scan uses.
    """
    if limit < 1:
        raise ValueError(f"pool limit must be >= 1, got {limit}")
    if limit > DEFAULT_SCAN_CEILING:
        raise ValueError(
            f"pool limit {limit} exceeds the ceiling {DEFAULT_SCAN_CEILING}"
        )
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
    walk: bool = True,
) -> tuple[list[bytes], list[int]]:
    """Cumulative reachability layers and their bit counts; layers[k] holds
    the sums of at most k terms, as limit // 8 + 1 little-endian bytes.

    `values` must be strictly ascending and lie in [1, limit], and max_terms
    must be at least 1.  Bit 0 stands for the empty sum.  With repeats,
    layering stops at the fixpoint; with distinct values, at the pool size.
    So there may be fewer than max_terms + 1 counts: every later layer
    equals the last one.

    `walk` says whether a witness walk will read the layers.  Without one
    only the last layer is returned, and the counts are the same.  With
    repeats every layer is grown in place in one buffer: layer k - 1 is read
    only while layer k is built over it (_grow_layer), and for a walk it is
    first copied to bytes.  A last layer that adds nothing equals the one
    below, since the layers are cumulative, so dropping it drops only its
    count and, for a walk, the copy below it.
    """
    size = limit // 8 + 1
    if strict_distinct:
        # masks[k] is the sums of at most k distinct values seen so far: a
        # sum leaves v out, or is v plus at most k - 1 values seen before.
        # A layer can add nothing and the next still add sums, so there is
        # no fixpoint stop
        full = (1 << (limit + 1)) - 1
        masks = [1] * (min(max_terms, len(values)) + 1)
        for v in values:
            for k in range(len(masks) - 1, 0, -1):
                masks[k] = (masks[k] | (masks[k - 1] << v)) & full
        counts = [mask.bit_count() for mask in masks]
        if not walk:
            del masks[:-1]
        # each mask gives way to its bytes, so no layer is held twice
        for k, mask in enumerate(masks):
            masks[k] = mask.to_bytes(size, "little")
        return masks, counts
    buf = bytearray(size)
    buf[0] = 1
    # the layers below the one in buf, which only a walk reads
    layers = [bytes(buf)] if walk else []
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    counts = [1, 1 + len(values)]
    if max_terms > 1:
        if walk:
            layers.append(bytes(buf))
        # v = 8q + r puts v + w at byte q + ((w + r) >> 3), bit (w + r) & 7,
        # so two tables per residue r, of every w's byte offset and bit,
        # serve each v of that residue
        offsets = [[(w + r) >> 3 for w in values] for r in range(8)]
        bits = [[1 << ((w + r) & 7) for w in values] for r in range(8)]
        for i, v in enumerate(values):
            top = limit - v
            if v > top:
                break
            stop = bisect_right(values, top)
            q, r = v >> 3, v & 7
            for b, m in zip(offsets[r][i:stop], bits[r][i:stop]):
                buf[q + b] |= m
        del offsets, bits  # so the dense layers are not built beside them
        counts.append(int.from_bytes(buf, "little").bit_count())
    # with repeats, a layer that adds nothing is a fixpoint, and so is a
    # full one
    while len(counts) <= max_terms and counts[-2] < counts[-1] <= limit:
        if walk:
            layers.append(bytes(buf))
        counts.append(_grow_layer(buf, counts[-1], values, limit))
    if counts[-1] == counts[-2]:
        del counts[-1]
        if walk:
            del layers[-1]
    layers.append(buf)
    return layers, counts


#: A window of a layer stops shifting and tests its holes one by one once
#: fewer than one integer in HOLE_SPARSITY of the window is still unreached.
#: A shift-or costs a pass over the window's bits and removes a few percent
#: of its holes; a hole costs tens of byte probes.  4096 is near the measured
#: optimum at 10^6 and 10^7, where the per-hole phase then starts with
#: about one hole in 10^4 bits left.
HOLE_SPARSITY = 4096

#: Shift-or chunks grow 1, 2, 4, ... up to this many values between hole
#: counts, since masking and counting a window cost about as much as one
#: shift-or into it.
MAX_CHUNK = 16

#: A dense layer is built this many bits at a time, so that no temporary of
#: the build is the size of the layer; it must be a multiple of 8, so that a
#: window is whole bytes.  Narrower windows cost more Python steps: on a
#: 2-core host, scans of 10^7 took 0.64, 0.60 and 0.58 s with windows of
#: 2**17, 2**18 and 2**19 bits, and 0.55 s with 2**20.  But a window of
#: 2**20 bits is one window at 10^6, and its temporaries, ints of about
#: 130 kB, sit at glibc's heap trim threshold: a fresh scan of 10^6 faulted
#: 3,021 pages in 41 ms against 164 in 37 ms with 2**19 bits.
LAYER_WINDOW = 1 << 19


def _grow_layer(layer: bytearray, count: int, values: list[int], limit: int) -> int:
    """Turn layer k - 1, of `count` bits, into layer k in place, for k >= 3,
    and return the new bit count.

    A layer whose holes (integers not yet reached) are sparse over the whole
    range finds them once (_holes) and tests each against the values
    (_fill_holes), which reads layer k - 1 and writes nothing; the holes it
    fills are set afterwards.

    A denser layer is built one window of LAYER_WINDOW bits at a time, from
    the top down, out of layer k - 1 cut into block ints of that width.
    Window j, whose first bit is lo, starts from block j.  While its holes
    are dense it ORs in, value by value, the window of layer k - 1 at
    offset s = lo - v: a value v <= lo as one right shift of a pair int
    that joins blocks s // width and s // width + 1, a larger v as block 0
    shifted left.  One pair int is alive at a time, with a copy cut to 1.5
    widths for the shifts that would leave more bits than that above the
    window.  The values nearest lo go first, since they read the bottom of
    the previous layer, where its sums are densest, so each shift fills
    more holes.  Windows 0 and 1 take the values smallest first instead:
    that already reads blocks 0 and 1, and their shifts by values near lo
    would be longer.  Each remaining hole is then tested against the values
    not shifted in, in the same order, by probes into the layer's bytes
    below the window's top, which still hold layer k - 1; the holes they
    fill are set in the window's own bytes, and only then is the window
    written over block j.  Window j reads only blocks up to j, so a block
    is freed once its window is done.  The count is each window's bits
    after shifting plus the holes the tests fill.
    """
    if (limit + 1 - count) * HOLE_SPARSITY < limit + 1:
        filled = _fill_holes(layer, _holes(layer, limit), values)
        for h in filled:
            layer[h >> 3] |= 1 << (h & 7)
        return count + len(filled)
    width = LAYER_WINDOW
    cut = (1 << (width + width // 2)) - 1
    below = _block_ints(layer, limit, width)
    count = 0  # the new layer's bits, window by window
    for j in reversed(range(len(below))):
        lo = j * width
        hi = min(lo + width, limit + 1)
        span = hi - lo
        low = (1 << span) - 1
        # values above the window's top shift nothing into it
        order = values[: bisect_right(values, hi - 1)]
        if j > 1:
            order.sort(key=lambda v: abs(v - lo))
        mask = below[j]
        holes = span - mask.bit_count()
        used = 0
        chunk = 1
        pair_at = None
        while holes * HOLE_SPARSITY >= span and used < len(order):
            for v in order[used : used + chunk]:
                s = lo - v
                if s < 0:
                    mask |= below[0] << -s
                    continue
                q, r = divmod(s, width)
                if q != pair_at:
                    # bit t of the pair is bit q * width + t of layer k - 1;
                    # a shift by r < width / 2 takes it cut to 1.5 widths,
                    # so that no shift makes more than 1.5 widths of bits
                    pair_at, pair = q, below[q + 1] << width | below[q]
                    short = pair & cut
                mask |= (short if 2 * r < width else pair) >> r
            mask &= low
            used += chunk
            chunk = min(2 * chunk, MAX_CHUNK)
            holes = span - mask.bit_count()
        below[j] = pair = short = None
        count += span - holes
        window = bytearray(mask.to_bytes((span + 7) >> 3, "little"))
        if holes and used < len(order):
            window_holes = [lo + h for h in _holes(window, span - 1)]
            filled = _fill_holes(layer, window_holes, order[used:])
            for h in filled:
                h -= lo
                window[h >> 3] |= 1 << (h & 7)
            count += len(filled)
        layer[lo >> 3 : (lo >> 3) + len(window)] = window
    return count


def _fill_holes(layer: bytearray, holes: list[int], values: list[int]) -> list[int]:
    """The holes h that some v of `values`, taken in their order, reaches
    with h - v set in `layer`, ascending; `layer` is read, not written."""
    filled = []
    for h in holes:
        # the bit probe is inlined: this loop is the phase's whole cost
        for v in values:
            d = h - v
            if d >= 0 and layer[d >> 3] >> (d & 7) & 1:
                filled.append(h)
                break
    return filled


#: The clear bit offsets of each byte value, for walking sparse holes.
_BYTE_HOLES = tuple(
    tuple(b for b in range(8) if not byte >> b & 1) for byte in range(256)
)

#: Maps byte 0xFF to 0 and every other byte to 1.
_HOLE_FLAG = bytes([1] * 255 + [0])


def _holes(layer: bytes, limit: int) -> list[int]:
    """The integers in [0, limit] that a layer's little-endian bytes do not
    hold, ascending.

    The bytes are mapped to 0/1 flags, and bytes.find (memchr) steps from
    one flagged byte to the next, so a run of 0xFF bytes costs no Python
    step.  The last byte's clear bits past the limit are not holes.
    """
    flags = layer.translate(_HOLE_FLAG)
    found = []
    i = flags.find(1)
    while i >= 0:
        base = i << 3
        found.extend(base + b for b in _BYTE_HOLES[layer[i]])
        i = flags.find(1, i + 1)
    del found[bisect_right(found, limit) :]
    return found


def _search(values: list[int], layers: list[bytes], distinct: bool):
    """recover(target, depth): the first decomposition of target into
    `depth` values, largest first, as 1 + the pool index of each term, which
    are the walk's column entries.  `values` is the ascending pool and
    `layers` the layers over it (_layer_masks); with `distinct`, no value is
    taken twice.

    Each level tries the values from the largest not above what remains
    down; with distinct values a level starts below the value the level
    above took, with repeats at it.  A value v is tried only if what
    remains less v is set in the layer of one term fewer, so the layers
    prune every branch that they show cannot complete.  Layer 0 holds only
    the empty sum, so the last value taken is what remains.  recover raises where the layers
    claim a depth that no decomposition has.

    With repeats nothing is ever undone, and the answer is the walk's
    (_witnesses).  A target m of depth d and any v with m - v in layer
    d - 1 leave m - v of depth exactly d - 1: at most d - 1 by its layer,
    and at least that, since v and a shorter sum would give m fewer than d
    terms.  So the first v tried is the first-term table's F[m], and every
    branch entered completes.  The next level's first hit w, the largest
    value with m - v - w in layer d - 2, is at most v: for a larger w,
    m - w = (m - v - w) + v would be in layer d - 1, and w, not v, would
    have been the first choice for m.  So starting that level at v loses
    no value, and its hit is F[m - v], as in the walk.
    """
    total = len(values)
    values_desc = values[::-1]

    def search(remaining: int, need: int, start: int) -> list[int] | None:
        below = layers[need - 1]
        # the values <= remaining start at this index of the descending list
        for idx in range(max(start, total - bisect_right(values, remaining)), total):
            d = remaining - values_desc[idx]
            if not below[d >> 3] >> (d & 7) & 1:
                continue
            if need == 1:
                return [total - idx]
            rest = search(d, need - 1, idx + distinct)
            if rest is not None:
                return [total - idx, *rest]
        return None

    def recover(target: int, depth: int) -> list[int]:
        terms = search(target, depth, 0)
        if terms is None:
            raise RuntimeError(f"no {depth} terms sum to {target}; masks corrupt")
        return terms

    return recover


def _scan(
    n: int, max_terms: int, strict_distinct: bool, walk: bool = True
) -> tuple[ScanReport, list[PoolEntry], list[int], list[bytes]]:
    """One scan of [1, n]: check the arguments, then build the pool, the
    layers and the report they give.

    Returns the report, the pool, its values and the layers (_layer_masks):
    every layer if `walk`, for a caller that reads witnesses from them, and
    otherwise only the last, whose holes are the failures.  A stream walks
    the layers (_witnesses), and one target is searched in them (_search).
    """
    if n < 1:
        raise ValueError(f"scan bound must be >= 1, got {n}")
    if max_terms < 1:
        raise ValueError(f"term budget must be >= 1, got {max_terms}")
    if n > DEFAULT_SCAN_CEILING:
        raise ValueError(f"scan bound {n} exceeds the ceiling {DEFAULT_SCAN_CEILING}")
    if max_terms > MAX_TERMS_CEILING:
        raise ValueError(
            f"term budget {max_terms} exceeds the ceiling {MAX_TERMS_CEILING}"
        )
    pool = platonic_pool(n)
    values = [entry.value for entry in pool]
    bits = min(max_terms, len(values)) * (n + 1)
    if strict_distinct and bits > STRICT_BITS_CEILING:
        raise ValueError(
            f"strict layers of {bits} bits exceed the ceiling {STRICT_BITS_CEILING}"
        )
    layers, counts = _layer_masks(values, n, max_terms, strict_distinct, walk)
    built = len(counts) - 1
    # the layers are cumulative, so layer k adds its count less the one below
    histogram = {
        k: counts[k] - counts[k - 1] if k <= built else 0
        for k in range(1, max_terms + 1)
    }
    failures = tuple(_holes(layers[-1], n))
    report = ScanReport(
        n=n,
        max_terms=max_terms,
        strict_distinct=strict_distinct,
        histogram=histogram,
        failures=failures,
    )
    return report, pool, values, layers


def scan_conjecture(
    n: int, max_terms: int = 5, strict_distinct: bool = False
) -> ScanReport:
    """Decide for every integer in [1, n] whether it decomposes in budget."""
    return _scan(n, max_terms, strict_distinct, False)[0]


def scan_with_witnesses(
    n: int, max_terms: int = 5, strict_distinct: bool = False
) -> tuple[ScanReport, Iterator[Witness]]:
    """One scan of [1, n]: its report, and a lazy stream of a minimal
    witness for every representable m, recovered from the same layers.

    The stream alone holds the layers, so they are freed once its walk has
    cut them into its table, or with it if it is dropped unread."""
    report, pool, values, layers = _scan(n, max_terms, strict_distinct)
    blocks = _witnesses(1, n, layers, values, strict_distinct)
    return report, _with_provenance(blocks, pool)


def min_term_decomposition(
    m: int, max_terms: int = 5, strict_distinct: bool = False
) -> Witness | None:
    """Witness of m with the minimum possible term count, or None.

    The pool is every platonic value up to m.  None means no decomposition
    exists within the budget, which is a result, not an error.  m is held
    to the scans' ceilings, since its layers are (m + 1) bits like a scan's.

    m's depth is the first layer that holds it, and its terms are the
    search's (_search) at that depth: the same witness as the stream's row
    for m, in both modes, with no first-term table.
    """
    report, pool, values, layers = _scan(m, max_terms, strict_distinct)
    # the failures ascend, and none is above m
    if report.failures[-1:] == (m,):
        return None
    depth = next(k for k, layer in enumerate(layers) if layer[m >> 3] >> (m & 7) & 1)
    terms = _search(values, layers, strict_distinct)(m, depth)
    return Witness(m, tuple([pool[i - 1] for i in terms]))


def _with_provenance(
    blocks: Iterable[_WitnessBlock], entries: list[PoolEntry]
) -> Iterator[Witness]:
    """The Witness of every target of the blocks, with the pool entry of
    every term; `entries` are the pool entries of the walk's values."""
    entry_at = [None, *entries]
    for targets, _, columns in blocks:
        for m, row in zip(targets, zip(*columns)):
            yield Witness(m, tuple([entry_at[i] for i in row if i]))


#: The first-term table is filled for this many targets at a time, so the
#: bitsets of one pass stay this size however large the scan.  Blocks of
#: 2**14 to 2**20 took about the same time at 10^6 and 10^7, but 2**20 raised
#: the peak RSS of `pollock 1000000 --witnesses` from 19 to 26 MB.
WITNESS_BLOCK = 1 << 16

#: Per bit b, a table from "0"/"1" to the byte 0/2**b, which spreads one
#: bitplane of a table block's pool indices, or of a walk block's depths,
#: into byte lanes (_lanes).
_LANE_BIT = [bytes.maketrans(b"01", bytes([0, 1 << b])) for b in range(8)]


def _block_ints(layer: bytes, limit: int, width: int) -> list[int]:
    """The bits 0..limit of a layer's bytes as ints of `width` bits; entry
    j holds bits j * width up."""
    # a layer narrower than one block gets no wider mask
    low = (1 << min(width, limit + 1)) - 1
    return [
        int.from_bytes(layer[lo >> 3 : ((lo + width - 1) >> 3) + 1], "little")
        >> (lo & 7)
        & low
        for lo in range(0, limit + 1, width)
    ]


def _shifted_window(blocks: list[int], s: int, width: int) -> int:
    """Bits s up of the bitset cut into `blocks` of `width` bits (_block_ints),
    as an int whose low `width` bits are exact; the bits above it may miss
    some of the set's, so the caller masks them off.  A negative s shifts in
    -s zeros."""
    if s < 0:
        return blocks[0] << -s
    q, r = divmod(s, width)
    return blocks[q] >> r | blocks[q + 1] << (width - r)


def _lanes(planes: Iterable[int], span: int) -> bytes:
    """`span` bytes, byte t of which has bit b set where bit t of plane b is,
    for at most 8 planes of at most `span` bits.

    Each plane's binary text is translated to byte lanes (_LANE_BIT) and the
    lanes are ORed, so a plane costs one text and an empty one nothing."""
    acc = 0
    for plane, translate in zip(planes, _LANE_BIT):
        if plane:
            # the text is most significant bit first, so read it big-endian
            text = format(plane, f"0{span}b").encode().translate(translate)
            acc |= int.from_bytes(text, "big")
    return acc.to_bytes(span, "little")


def _first_terms(
    layers: list[bytes], values: list[int], limit: int
) -> tuple[memoryview, list[list[int]]]:
    """F over [0, limit], and the depths of every block of WITNESS_BLOCK
    targets in [0, limit] as 8 bitplanes.  F[m] is 1 + the pool index of
    the largest value v such that m - v is in the layer below m's depth, 0
    where no layer holds m; bit t of plane b of depths[j] is set where the
    depth of target j * WITNESS_BLOCK + t has bit b set, so an unreached
    target is in none.

    With repeats such an m - v has depth exactly depth(m) - 1, with distinct
    values at most that, so F serves every step of a walk.  Each layer is
    first taken out of the list given and cut into block ints, so its bytes
    go once it is cut if nothing else holds them.  The table is then filled
    one block of targets at a time, from the top block down, one pass per
    layer k and pool value, largest value first: the targets of depth k
    still open are T, the hits are T & (L[k-1] << v), and each hit takes v
    and leaves T.  Before its passes, T is ORed into the block's depth planes
    of the bits of k.  The layers are cumulative, so the block's passes stop
    at the first k whose layer k - 1 equals the deepest layer there: no
    target of the block is deeper.  A byte holds a depth up to 255: the
    strict scans' ceilings keep every depth under 179.  A pass's window of
    layer k - 1 starts at a bit offset s < lo and is two shifts and an OR
    of the block ints that hold it (_shifted_window), so a block reads no
    layer block above its own, and its own are freed once it is filled.
    The hits are not read out bit by bit: they are ORed into one bitplane
    per bit of the index, and at the end of the block the planes are
    spread into byte lanes (_lanes) and written into F.  'H' holds the
    index of every pool up to the scan ceiling, which has about 2,500
    values.
    """
    width = WITNESS_BLOCK
    # the list given is emptied as its layers are cut, so the bytes that
    # nothing else holds go before the table is allocated
    layers = [_block_ints(layers.pop(0), limit, width) for _ in range(len(layers))]
    deepest = layers[-1]
    depths: list[list[int]] = [[]] * len(deepest)
    table = bytearray(2 * (limit + 1))
    # the low byte of a native 16-bit lane comes first on a little-endian host
    offsets = (0, 1) if sys.byteorder == "little" else (1, 0)
    for j in reversed(range(len(deepest))):
        lo = j * width
        hi = min(lo + width, limit + 1)
        planes = [0] * 16
        depths[j] = [0] * (len(layers) - 1).bit_length()
        for k in range(1, len(layers)):
            below = layers[k - 1]
            if below[j] == deepest[j]:
                break
            if k > 255:
                raise ValueError(f"depth {k} at {lo} exceeds a byte")
            open_ = layers[k][j] & ~below[j]
            for bit in range(k.bit_length()):
                if k >> bit & 1:
                    depths[j][bit] |= open_
            for i in range(bisect_right(values, hi - 1) - 1, -1, -1):
                if not open_:
                    break
                # bit t of the window is bit s + t of layer k - 1; a value
                # above every open target can hit none of them.  s < lo, so
                # the window never reaches past block j
                s = lo - values[i]
                if s + open_.bit_length() <= 0:
                    continue
                hits = open_ & _shifted_window(below, s, width)
                if hits:
                    open_ ^= hits
                    for bit in range((i + 1).bit_length()):
                        if (i + 1) >> bit & 1:
                            planes[bit] |= hits
            if open_:
                m = lo + (open_ & -open_).bit_length() - 1
                raise RuntimeError(
                    f"no predecessor for {m} at layer {k}; masks corrupt"
                )
        for layer in layers:
            layer[j] = None
        for half, offset in enumerate(offsets):
            bits = planes[8 * half : 8 * half + 8]
            table[2 * lo + offset : 2 * hi : 2] = _lanes(bits, hi - lo)
    return memoryview(table).cast("H"), depths


#: The walk yields its witnesses this many targets at a time.  Blocks of
#: 4096 raised the peak RSS of `pollock 300000 --witnesses` from 17.2 to
#: 18.6 MB, and blocks of 65536 to 52 MB.
_WALK_BLOCK = 1024

#: (targets, depths, columns): the reachable targets of a walk block,
#: ascending and inside one block of the first-term table;
#: the depth of each, one byte per target, which is its number of terms;
#: and per term j a column whose entry t is 1 + the pool index of term j of
#: targets[t], or 0 past its last term.
_WitnessBlock = tuple[list[int], bytes, list[Sequence[int]]]


def _gather(table: Sequence, keys: Sequence[int]) -> Sequence:
    """table[k] for every k of a non-empty sequence, in one C-level call; an
    itemgetter of a single key returns that item, not a 1-tuple."""
    if len(keys) == 1:
        return (table[keys[0]],)
    return itemgetter(*keys)(table)


def _witnesses(
    lo: int,
    limit: int,
    layers: list[bytes],
    values: list[int],
    strict_distinct: bool,
) -> Iterator[_WitnessBlock]:
    """Blocks (_WitnessBlock) of a minimal witness for every m in [lo, limit]
    that the layers reach.  Each block of the first-term table's targets
    (WITNESS_BLOCK) is walked from max(lo, its first target) on in slices
    of _WALK_BLOCK targets, the last cut where the table block ends; a
    slice with no reachable target yields no block.

    `layers` are _layer_masks over the ascending pool `values` up to
    `limit`.  With repeats the walk empties that list as it cuts the layers
    into block ints (_first_terms), so each layer's bytes go before the
    first-term table is allocated, unless something else holds them.  A
    target's depth is the first layer that holds it; the table's fill makes
    the depths as bitplanes per table block, and a walk block reads its
    depths as one shifted, masked window of its table block's planes
    (_lanes).  Its terms come from walking back through the layers,
    each step taking the largest pool value that leaves a remainder in the
    layer below.  With repeats that choice always completes, and every step
    is one lookup in the first-term table (_first_terms) over [0, limit]: the
    first column is a slice of the table, and each later one is a round of
    lookups at the block's remainders.  A round whose term values equal
    the remainders leaves all of them 0, so the block ends there without
    subtracting.  The table must name a first term for exactly the targets
    that have a depth, which each block checks: where every target has one,
    the first column must hold no 0, and its targets are the block's range;
    elsewhere the targets the column names must all have depths, and as
    many as the block's depths.  A target left with a remainder after as
    many terms as there are layers also means a corrupt table.

    With distinct values a largest-first choice can strand the rest, so
    each walked block is checked in bulk: in neighbouring columns the later
    index is below the earlier one wherever the earlier is nonzero.  A row
    that passes is the depth-first search's first answer (_search, with
    distinct values): each step lowers the depth, so it has at most depth(m)
    terms, and as a distinct sum at least that many, so every step took the
    search's first candidate.  A block with a failing row is rebuilt by that
    search, target by target at its depth, which reads the layers' bytes
    for the whole stream.  With repeats the walk and the search give the
    same rows too (_search); a single target is searched, not walked.
    """
    built = len(layers) - 1
    # the strict fallback reads the layers' bytes for the whole stream, so
    # _first_terms empties a copy of the list
    first, planes = _first_terms(
        layers[:] if strict_distinct else layers, values, limit
    )
    # the table holds 1 + a pool index, so that 0 can mean "unreached"
    value_at = [0, *values]
    width = WITNESS_BLOCK
    stop = lo
    while stop <= limit:
        start, j = stop, stop // width
        stop = min(start + _WALK_BLOCK, (j + 1) * width, limit + 1)
        shift, low = start - j * width, (1 << (stop - start)) - 1
        window = _lanes([plane >> shift & low for plane in planes[j]], stop - start)
        column = first[start:stop].tolist()
        if 0 not in window:
            targets, depths = list(range(start, stop)), window
            agree = all(column)
        else:
            targets = list(compress(range(start, stop), column))
            depths = bytes(compress(window, column))
            agree = 0 not in depths and len(depths) == len(window) - window.count(0)
            column = list(filter(None, column))
        if not agree:
            m = next(
                m
                for m, d, f in zip(range(start, stop), window, first[start:stop])
                if bool(d) != bool(f)
            )
            raise RuntimeError(
                f"first-term table and layer {built} disagree at {m}; masks corrupt"
            )
        if not targets:
            continue
        columns = [column]
        rest = tuple(targets)
        while True:
            taken = _gather(value_at, column)
            # equal only when every remainder becomes 0: the block is done
            if taken == rest:
                break
            if len(columns) == built:
                t = next(t for t, (r, v) in enumerate(zip(rest, taken)) if r != v)
                raise RuntimeError(
                    f"walk of {targets[t]} leaves {rest[t] - taken[t]} after"
                    f" {built} terms; masks corrupt"
                )
            rest = tuple(map(sub, rest, taken))
            column = _gather(first, rest)
            columns.append(column)
        # a 0 is only followed by 0, so every row descends exactly when the
        # later index is >= the earlier one in the earlier column's 0s alone
        if strict_distinct and not all(
            sum(map(ge, later, earlier)) == earlier.count(0)
            for earlier, later in zip(columns, columns[1:])
        ):
            rows = map(_search(values, layers, True), targets, depths)
            columns = list(zip_longest(*rows, fillvalue=0))
        yield targets, depths, columns
