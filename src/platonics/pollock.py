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
_witnesses, serves both modes, the scans' streams and min_term_decomposition
alike; it yields blocks of targets with their terms as pool indices, which
the CLI renders a block at a time and the library unpacks into Witness
objects.  Every step is one lookup in a single first-term table over
[0, limit], filled by bulk passes per layer and pool value over blocks of
targets, and a block is walked in rounds, each one lookup for all its
targets at once, until every remainder is 0.  With distinct values a
block whose terms all strictly descend is done; any other block is
rebuilt by a depth-first search per target that the layers prune.
"""

from __future__ import annotations

import re
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
    values: list[int], limit: int, max_terms: int, strict_distinct: bool
) -> list[int]:
    """Cumulative reachability masks; masks[k] = sums of at most k terms.

    `values` must be ascending and lie in [1, limit], and max_terms must be
    at least 1.  Bit 0 stands for the empty sum.  With repeats, layering
    stops at the fixpoint; with distinct values, at the pool size.  So the
    list may be shorter than max_terms + 1: every later mask equals the
    last one.
    """
    full = (1 << (limit + 1)) - 1
    if strict_distinct:
        # masks[k] is the sums of at most k distinct values seen so far: a
        # sum leaves v out, or is v plus at most k - 1 values seen before.
        # A layer can add nothing and the next still add sums, so there is
        # no fixpoint stop
        masks = [1] * (min(max_terms, len(values)) + 1)
        for v in values:
            for k in range(len(masks) - 1, 0, -1):
                masks[k] = (masks[k] | (masks[k - 1] << v)) & full
        return masks
    masks = [1]
    for mask in _default_layers(values, limit, max_terms, full):
        # with repeats, a layer that adds nothing is a fixpoint
        if mask == masks[-1]:
            break
        masks.append(mask)
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


def _scan(
    n: int, max_terms: int, strict_distinct: bool, first: int = 1
) -> tuple[ScanReport, list[PoolEntry], Iterator[_WitnessBlock]]:
    """One scan of [1, n]: check the arguments, then build the pool, the
    layer masks and the report they give.

    The third item is the walk over [first, n] (_witnesses) on those masks.
    It runs only as its blocks are read, and it alone holds the masks, so
    they are freed once it has cut them into its table, or with it if it
    is dropped unread.
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
    masks = _layer_masks(values, n, max_terms, strict_distinct)
    built = len(masks) - 1
    histogram = {
        k: (masks[k] ^ masks[k - 1]).bit_count() if k <= built else 0
        for k in range(1, max_terms + 1)
    }
    full = (1 << (n + 1)) - 1
    failures = tuple(_set_bits(_mask_bytes(masks[built] ^ full, n)))
    report = ScanReport(
        n=n,
        max_terms=max_terms,
        strict_distinct=strict_distinct,
        histogram=histogram,
        failures=failures,
    )
    return report, pool, _witnesses(first, n, masks, values, strict_distinct)


def scan_conjecture(
    n: int, max_terms: int = 5, strict_distinct: bool = False
) -> ScanReport:
    """Decide for every integer in [1, n] whether it decomposes in budget."""
    return _scan(n, max_terms, strict_distinct)[0]


def scan_with_witnesses(
    n: int, max_terms: int = 5, strict_distinct: bool = False
) -> tuple[ScanReport, Iterator[Witness]]:
    """One scan of [1, n]: its report, and a lazy stream of a minimal
    witness for every representable m, recovered from the same masks."""
    report, pool, blocks = _scan(n, max_terms, strict_distinct)
    return report, _with_provenance(blocks, pool)


def min_term_decomposition(
    m: int, max_terms: int = 5, strict_distinct: bool = False
) -> Witness | None:
    """Witness of m with the minimum possible term count, or None.

    The pool is every platonic value up to m.  None means no decomposition
    exists within the budget, which is a result, not an error.  m is held
    to the scans' ceilings, since its masks are (m + 1)-bit layers like a
    scan's.
    """
    _, pool, blocks = _scan(m, max_terms, strict_distinct, first=m)
    return next(_with_provenance(blocks, pool), None)


def _with_provenance(
    blocks: Iterable[_WitnessBlock], entries: list[PoolEntry]
) -> Iterator[Witness]:
    """The Witness of every target of the blocks, with the pool entry of
    every term; `entries` are the pool entries of the walk's values."""
    entry_at = [None, *entries]
    for targets, columns in blocks:
        for m, row in zip(targets, zip(*columns)):
            yield Witness(m, tuple([entry_at[i] for i in row if i]))


#: The first-term table is filled for this many targets at a time, so the
#: bitsets of one pass stay this size however large the scan.  Blocks of
#: 2**14 to 2**20 took about the same time at 10^6 and 10^7, but 2**20 raised
#: the peak RSS of `pollock 1000000 --witnesses` from 19 to 26 MB.
WITNESS_BLOCK = 1 << 16

#: Per bit b, a table from "0"/"1" to the byte 0/2**b, which spreads one
#: bitplane of pool indices into byte lanes.
_LANE_BIT = [bytes.maketrans(b"01", bytes([0, 1 << b])) for b in range(8)]


def _block_ints(layer: bytes, limit: int) -> list[int]:
    """The bits 0..limit of a layer's bytes as ints of WITNESS_BLOCK bits;
    entry j holds bits j * WITNESS_BLOCK up."""
    width = WITNESS_BLOCK
    low = (1 << width) - 1
    return [
        int.from_bytes(layer[lo >> 3 : ((lo + width - 1) >> 3) + 1], "little")
        >> (lo & 7)
        & low
        for lo in range(0, limit + 1, width)
    ]


def _first_terms(
    layer_bytes: Iterable[bytes], values: list[int], limit: int
) -> memoryview:
    """F over [0, limit]: F[m] is 1 + the pool index of the largest value v
    such that m - v is in the layer below m's depth; 0 where no layer holds m.

    With repeats such an m - v has depth exactly depth(m) - 1, with distinct
    values at most that, so F serves every step of a walk.  Each layer is
    first cut into ints of WITNESS_BLOCK bits (_block_ints); a layer's bytes
    can go once it is cut, so pass them lazily to keep one layer's bytes at
    a time.  The table is then filled one block of targets at a time, one
    pass per layer k and pool value, largest value first: the targets of
    depth k still open are T, the hits are T & (L[k-1] << v), and each hit
    takes v and leaves T.  A pass's window of layer k - 1 starts at a bit
    offset s and is two shifts and an OR of the block ints that hold it.
    The hits are not read out bit by bit: they are ORed into one bitplane
    per bit of the index, and at the end of the block each plane is spread
    into byte lanes (its binary text, translated) and the lanes are written
    into F.  'H' holds the index of every pool up to the scan ceiling,
    which has about 2,500 values.
    """
    width = WITNESS_BLOCK
    layers = [_block_ints(layer, limit) for layer in layer_bytes]
    table = bytearray(2 * (limit + 1))
    # the low byte of a native 16-bit lane comes first on a little-endian host
    offsets = (0, 1) if sys.byteorder == "little" else (1, 0)
    for j, lo in enumerate(range(0, limit + 1, width)):
        hi = min(lo + width, limit + 1)
        span = hi - lo
        planes = [0] * 16
        for k in range(1, len(layers)):
            below = layers[k - 1]
            open_ = layers[k][j] & ~below[j]
            for i in range(bisect_right(values, hi - 1) - 1, -1, -1):
                if not open_:
                    break
                # bit t of the window is bit s + t of layer k - 1; a value
                # above every open target can hit none of them.  s < lo, so
                # the window never reaches past block j
                s = lo - values[i]
                if s + open_.bit_length() <= 0:
                    continue
                if s >= 0:
                    q, r = divmod(s, width)
                    window = below[q] >> r | below[q + 1] << (width - r)
                else:
                    window = below[0] << -s
                hits = open_ & window
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
        for half, offset in enumerate(offsets):
            acc = 0
            for bit, translate in enumerate(_LANE_BIT):
                plane = planes[8 * half + bit]
                if plane:
                    # the text is most significant bit first, so read it big-endian
                    text = format(plane, f"0{span}b").encode().translate(translate)
                    acc |= int.from_bytes(text, "big")
            table[2 * lo + offset : 2 * hi : 2] = acc.to_bytes(span, "little")
    return memoryview(table).cast("H")


#: The walk yields its witnesses this many targets at a time.  Blocks of
#: 4096 raised the peak RSS of `pollock 300000 --witnesses` from 17.2 to
#: 18.6 MB, and blocks of 65536 to 52 MB.
_WALK_BLOCK = 1024

#: (targets, columns): the reachable targets of a block, ascending, and
#: per term j a column whose entry t is 1 + the pool index of term j of
#: targets[t], or 0 past its last term.
_WitnessBlock = tuple[list[int], list[Sequence[int]]]


def _gather(table: Sequence, keys: list[int]) -> Sequence:
    """table[k] for every k of a non-empty list, in one C-level call; an
    itemgetter of a single key returns that item, not a 1-tuple."""
    if len(keys) == 1:
        return (table[keys[0]],)
    return itemgetter(*keys)(table)


def _witnesses(
    lo: int,
    limit: int,
    masks: list[int],
    values: list[int],
    strict_distinct: bool,
) -> Iterator[_WitnessBlock]:
    """Blocks (_WitnessBlock) of a minimal witness for every m in [lo, limit]
    that the masks reach, _WALK_BLOCK targets of the range at a time; a
    block with no reachable target is skipped.

    `masks` are _layer_masks over the ascending pool `values` up to
    `limit`.  Nothing but the walk holds them (_scan builds it), and it
    drops them once the layers are cut, before it allocates the first-term
    table.  A target's depth is the first layer that holds it.  Its terms
    come from walking back through the layers, each step taking the largest
    pool value that leaves a remainder in the layer below.  With repeats
    that choice always completes, and every step is one lookup in the
    first-term table (_first_terms) over [0, limit]: the first column is a
    slice of the table, and each later one is a round of lookups at the
    block's remainders.  A round whose term values equal the remainders
    leaves all of them 0, so the block ends there without subtracting.
    The table must name a first term for exactly the targets that the
    deepest layer holds, which each block checks by counting both; a
    target left with a remainder after as many terms as there are layers
    also means a corrupt table.

    With distinct values a largest-first choice can strand the rest, so
    each walked block is checked in bulk: in neighbouring columns the later
    index is below the earlier one wherever the earlier is nonzero.  A row
    that passes is the depth-first _strict_search's first answer: each step
    lowers the depth, so it has at most depth(m) terms, and as a distinct
    sum at least that many, so every step took the search's first
    candidate.  A block with a failing row is rebuilt by the search, target
    by target.
    """
    built = len(masks) - 1
    # the deepest layer holds every target the walk must yield
    reached = _mask_bytes(masks[built], limit)
    layer_bytes = (_mask_bytes(mask, limit) for mask in masks)
    if strict_distinct:
        # the fallback searches the layers' bytes for the whole stream
        layer_bytes = list(layer_bytes)
        search = _strict_search(values, layer_bytes)
    # once _first_terms has cut the layers, nothing holds the masks, so they
    # are gone before it allocates the table
    del masks
    first = _first_terms(layer_bytes, values, limit)
    # the table holds 1 + a pool index, so that 0 can mean "unreached"
    value_at = [0, *values]
    for start in range(lo, limit + 1, _WALK_BLOCK):
        stop = min(start + _WALK_BLOCK, limit + 1)
        column = first[start:stop].tolist()
        targets = list(compress(range(start, stop), column))
        window = int.from_bytes(reached[start >> 3 : ((stop - 1) >> 3) + 1], "little")
        window = window >> (start & 7) & ((1 << (stop - start)) - 1)
        if len(targets) != window.bit_count():
            m = next(
                m
                for m in range(start, stop)
                if bool(first[m]) != bool(reached[m >> 3] >> (m & 7) & 1)
            )
            raise RuntimeError(
                f"first-term table and layer {built} disagree at {m}; masks corrupt"
            )
        if not targets:
            continue
        column = list(filter(None, column))
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
            rows = []
            for m in targets:
                depth = 1
                while not layer_bytes[depth][m >> 3] >> (m & 7) & 1:
                    depth += 1
                terms = search(m, depth, 0)
                if terms is None:
                    raise RuntimeError(f"strict recovery failed for {m}; masks corrupt")
                rows.append([bisect_right(values, v) for v in terms])
            columns = list(zip_longest(*rows, fillvalue=0))
        yield targets, columns
