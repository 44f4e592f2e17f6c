"""Decomposition search: pool, minimal witnesses, scans, verification."""

import itertools
import sys
import time
import tracemalloc
import weakref
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platonics import (
    DEFAULT_SCAN_CEILING,
    PlatonicKind,
    PoolEntry,
    Witness,
    min_term_decomposition,
    platonic_pool,
    platonic_value,
    scan_conjecture,
    scan_with_witnesses,
    verify_witness,
    witness_from_values,
)
from platonics import pollock
from known_sums import REFERENCE_SUMS
from test_scan_oracle import ORACLE_LIMIT


def brute_force_min_terms(limit, max_terms):
    """Independent oracle: enumerate multisets of pool values outright."""
    values = [entry.value for entry in platonic_pool(limit)]
    best = {}
    for k in range(1, max_terms + 1):
        for combo in itertools.combinations_with_replacement(values, k):
            total = sum(combo)
            if total <= limit and total not in best:
                best[total] = k
    return best


def brute_force_min_terms_distinct(limit, max_terms):
    values = [entry.value for entry in platonic_pool(limit)]
    best = {}
    for k in range(1, max_terms + 1):
        for combo in itertools.combinations(values, k):
            total = sum(combo)
            if total <= limit and total not in best:
                best[total] = k
    return best


def test_pool_small_limits():
    assert [e.value for e in platonic_pool(10)] == [1, 4, 6, 8, 10]
    only_one = platonic_pool(1)
    assert len(only_one) == 1
    assert only_one[0].value == 1
    assert len(only_one[0].provenance) == 5
    assert [kind for kind, _ in only_one[0].provenance] == list(PlatonicKind)


def test_pool_provenance_merging():
    pool = platonic_pool(20)
    assert [e.value for e in pool] == [1, 4, 6, 8, 10, 12, 19, 20]
    twenty = pool[-1]
    assert twenty.provenance == (
        (PlatonicKind.TETRAHEDRAL, 4),
        (PlatonicKind.DODECAHEDRAL, 2),
    )


def test_pool_validation():
    with pytest.raises(ValueError):
        platonic_pool(0)


def test_pool_refuses_over_the_ceiling():
    started = time.perf_counter()
    with pytest.raises(ValueError, match="ceiling"):
        platonic_pool(DEFAULT_SCAN_CEILING + 1)
    assert time.perf_counter() - started < 1.0


def test_min_term_trivial():
    witness = min_term_decomposition(1)
    assert witness.term_values == (1,)
    assert verify_witness(witness)


def test_min_term_104_is_two_terms():
    witness = min_term_decomposition(104)
    assert witness.term_values == (85, 19)
    assert verify_witness(witness, max_terms=5)


def test_min_term_119_is_two_terms():
    witness = min_term_decomposition(119)
    assert witness.term_values == (84, 35)
    assert sum(witness.term_values) == 119


def test_min_term_absent_is_none():
    assert min_term_decomposition(2, max_terms=1) is None
    assert min_term_decomposition(17, max_terms=2) is None
    assert min_term_decomposition(17, max_terms=3) is not None


def test_min_term_validation():
    with pytest.raises(ValueError):
        min_term_decomposition(0)
    with pytest.raises(ValueError):
        min_term_decomposition(5, max_terms=0)


def test_min_term_refuses_over_the_ceiling():
    started = time.perf_counter()
    with pytest.raises(ValueError, match="ceiling"):
        min_term_decomposition(10**8 + 1)
    assert time.perf_counter() - started < 1.0


def test_min_terms_match_brute_force():
    limit = 300
    oracle = brute_force_min_terms(limit, 5)
    for m in range(1, limit + 1):
        witness = min_term_decomposition(m)
        observed = len(witness.terms) if witness else None
        assert observed == oracle.get(m), f"min terms disagree at {m}"
        if witness:
            assert verify_witness(witness)


def test_verify_witness_examples():
    pool = platonic_pool(120)
    assert verify_witness(witness_from_values(93, (85, 8), pool))
    five_terms = witness_from_values(100, (85, 12, 1, 1, 1), pool)
    assert len(five_terms.terms) == 5
    assert verify_witness(five_terms)


@pytest.mark.parametrize(
    "term",
    [
        # 9 is no platonic value: the cube of 2 is 8
        PoolEntry(value=9, provenance=((PlatonicKind.CUBE, 2),)),
        # no (kind, index) pair to re-derive the value from
        PoolEntry(value=9, provenance=()),
        # every family has f(0) = 0, but indices start at 1
        PoolEntry(value=0, provenance=((PlatonicKind.CUBE, 0),)),
    ],
    ids=["value", "no-provenance", "index-0"],
)
def test_verify_witness_rejects_forged_value(term):
    # the witness sums to its target within the budget, so only the
    # provenance of its second term can reject it
    forged = Witness(
        target=85 + term.value,
        terms=(PoolEntry(value=85, provenance=((PlatonicKind.OCTAHEDRAL, 5),)), term),
    )
    assert not verify_witness(forged)


def test_verify_witness_rejects_bad_counts_and_sums():
    pool = platonic_pool(10)
    witness = witness_from_values(5, (4, 1), pool)
    assert verify_witness(witness)
    assert not verify_witness(witness, max_terms=1)
    assert not verify_witness(witness_from_values(6, (4, 1), pool))


def test_witness_from_values_rejects_non_platonic():
    with pytest.raises(ValueError):
        witness_from_values(93, (85, 9), platonic_pool(120))


def test_reference_sums_all_verify():
    pool = platonic_pool(120)
    assert len(REFERENCE_SUMS) == 34
    for target, terms in REFERENCE_SUMS:
        witness = witness_from_values(target, terms, pool)
        assert verify_witness(witness, max_terms=5), f"reference row {target}"


def test_scan_small():
    report = scan_conjecture(120)
    assert report.failures == ()
    assert sum(report.histogram.values()) == 120
    assert report.histogram[1] == 17  # pool values up to 120


def test_scan_trivial():
    report = scan_conjecture(1, max_terms=1)
    assert report.histogram == {1: 1}
    assert report.failures == ()


def test_scan_histogram_plus_failures_covers_everything():
    for budget in (1, 2, 5):
        report = scan_conjecture(60, max_terms=budget)
        assert sum(report.histogram.values()) + len(report.failures) == 60


def test_scan_budget_one_failures():
    report = scan_conjecture(10, max_terms=1)
    assert report.failures == (2, 3, 5, 7, 9)


def test_scan_witnesses_kept():
    report, stream = scan_with_witnesses(50)
    witnesses = list(stream)
    assert witnesses
    assert len(witnesses) == 50 - len(report.failures)
    for witness in witnesses:
        assert verify_witness(witness, max_terms=5)


def test_scan_determinism():
    assert scan_conjecture(2000) == scan_conjecture(2000)


def shift_or_masks(values, limit, max_terms, strict_distinct):
    """The plain layer definition: shift the previous mask by every value."""
    full = (1 << (limit + 1)) - 1
    masks = [1]
    if strict_distinct:
        exact = [1] + [0] * max_terms
        for v in values:
            for k in range(max_terms, 0, -1):
                exact[k] = (exact[k] | (exact[k - 1] << v)) & full
    for k in range(1, max_terms + 1):
        if strict_distinct:
            mask = masks[k - 1] | exact[k]
        else:
            mask = masks[k - 1]
            for v in values:
                mask |= masks[k - 1] << v
        masks.append(mask & full)
    return masks


def layer_ints(values, limit, max_terms, strict_distinct):
    """_layer_masks's layers as ints, once each is checked to be limit // 8 + 1
    bytes and its returned count to be its own bit count, and the build
    for no walk to return the same counts and the last layer alone, also
    with windows of 8 bits, where the block cache spans many windows and
    holds blocks far below the window that reads them."""
    layers, counts = pollock._layer_masks(values, limit, max_terms, strict_distinct)
    assert all(len(layer) == limit // 8 + 1 for layer in layers)
    masks = [int.from_bytes(layer, "little") for layer in layers]
    assert counts == [mask.bit_count() for mask in masks]
    last, last_counts = pollock._layer_masks(
        values, limit, max_terms, strict_distinct, False
    )
    assert last == [layers[-1]] and last_counts == counts
    with mock.patch.object(pollock, "LAYER_WINDOW", 8):
        narrow = pollock._layer_masks(values, limit, max_terms, strict_distinct, False)
    assert narrow == (last, counts)
    return masks


def one_family(kind, limit):
    values = (platonic_value(kind, i) for i in itertools.count(1))
    return list(itertools.takewhile(lambda v: v <= limit, values))


@pytest.mark.parametrize("window", [8, 64, 488, 1024, pollock.LAYER_WINDOW])
@pytest.mark.parametrize(
    "strict_distinct, sparsity",
    [(False, 1), (False, 16), (False, pollock.HOLE_SPARSITY), (True, 1)],
)
def test_layer_masks_equal_plain_shift_or(
    strict_distinct, sparsity, window, monkeypatch
):
    # a low sparsity moves the switch to per-hole tests into small scans
    monkeypatch.setattr(pollock, "HOLE_SPARSITY", sparsity)
    # windows far below n cut every dense layer into many windows; 489 is
    # octahedral, so a window of 488 bits meets the smallest value whose
    # shift reads past the block below its own
    monkeypatch.setattr(pollock, "LAYER_WINDOW", window)
    cases = [(n, k) for n in (1, 2, 3, 8, 17, 100, 2000) for k in (1, 2, 3, 5)]
    cases += [(5000, 8), (100, 40), (30_000, 5)]
    inputs = [([e.value for e in platonic_pool(n)], n, k) for n, k in cases]
    if strict_distinct:
        # one family up to 3000 has 9 to 25 values, so at 25 terms the
        # strict depth is the whole pool
        inputs += [(one_family(kind, 3000), 3000, 25) for kind in PlatonicKind]
    for values, n, max_terms in inputs:
        want = shift_or_masks(values, n, max_terms, strict_distinct)
        got = layer_ints(values, n, max_terms, strict_distinct)
        # layering may stop early at a fixpoint; later masks repeat
        assert got == want[: len(got)], (n, max_terms)
        assert all(mask == got[-1] for mask in want[len(got) :])


@st.composite
def ascending_pools(draw):
    limit = draw(st.integers(min_value=1, max_value=2000))
    values = draw(st.sets(st.integers(1, limit), min_size=1, max_size=40))
    return sorted(values), limit


@settings(max_examples=150, deadline=None)
@given(
    pool=ascending_pools(),
    max_terms=st.integers(min_value=1, max_value=6),
    window=st.sampled_from([8, 64, 488, 1024]),
    sparsity=st.sampled_from([1, 4, 16, pollock.HOLE_SPARSITY]),
)
# a window that shifts many values reads pair ints one, two and more blocks
# below it and block 0 shifted left, in the order nearest its first bit
@example(
    pool=([1, 3, 4, 5, 9, 40, 41, 100], 400),
    max_terms=6,
    window=8,
    sparsity=pollock.HOLE_SPARSITY,
)
# a low sparsity leaves holes whose only value is the next one in the
# window's order, so the per-hole tests must start from it
@example(
    pool=([3, 14, 15, 32, 34, 79, 102, 104, 155, 163, 193, 220], 246),
    max_terms=6,
    window=8,
    sparsity=4,
)
# after two dense layers, holes under one in 16 send layer 5 down the
# sparse path
@example(
    pool=([1, 5, 8, 13, 24, 64, 81, 92, 111, 132, 136, 149, 262], 354),
    max_terms=5,
    window=64,
    sparsity=16,
)
# windows of 8 bits over 2000: the top window's pairs read blocks from 0
# to near its own, which stay cached until their own windows
@example(
    pool=([1, 2, 3, 700, 1000, 1500, 1990], 2000),
    max_terms=6,
    window=8,
    sparsity=pollock.HOLE_SPARSITY,
)
# one window: the layer is its own only block
@example(
    pool=([2, 3, 7], 1000), max_terms=6, window=1024, sparsity=pollock.HOLE_SPARSITY
)
# layer 5 adds nothing, so it is dropped, and the layer below it is the
# last one
@example(pool=([5], 20), max_terms=6, window=8, sparsity=pollock.HOLE_SPARSITY)
# layer 2 adds nothing: no pair sum is in range
@example(pool=([15], 20), max_terms=4, window=8, sparsity=pollock.HOLE_SPARSITY)
# one term: layer 1 is the last, and no layer is grown
@example(pool=([1, 3], 10), max_terms=1, window=8, sparsity=pollock.HOLE_SPARSITY)
def test_layer_masks_match_shift_or_on_random_pools(
    pool, max_terms, window, sparsity
):
    values, limit = pool
    with mock.patch.object(pollock, "LAYER_WINDOW", window), mock.patch.object(
        pollock, "HOLE_SPARSITY", sparsity
    ):
        got = layer_ints(values, limit, max_terms, False)
    want = shift_or_masks(values, limit, max_terms, False)
    # layering may stop early at a fixpoint; later masks repeat
    assert got == want[: len(got)]
    assert all(mask == got[-1] for mask in want[len(got) :])


def test_layers_stop_at_the_fixpoint():
    # every m <= 100 needs at most three terms, so layer 4 adds nothing
    values = [entry.value for entry in platonic_pool(100)]
    assert len(layer_ints(values, 100, 200_000, False)) == 4
    # the multiples of 5 up to 20 take four terms, so layer 5 adds nothing,
    # though it is not full: the union pool holds 1, so its fixpoints are full
    masks = layer_ints([5], 20, 10, False)
    assert [mask.bit_count() for mask in masks] == [1, 2, 3, 4, 5]


def test_strict_masks_go_past_a_layer_that_adds_nothing():
    # no distinct 5-sum is new here, yet 68 = 1+3+4+16+20+24 is a new 6-sum
    values = [1, 3, 4, 12, 16, 20, 24, 38]
    masks = layer_ints(values, 75, 8, True)
    assert masks == shift_or_masks(values, 75, 8, True)
    assert masks[5] == masks[4] and (masks[6] ^ masks[5]) == 1 << 68


def test_strict_layers_hold_one_set():
    # the strict build keeps its depth + 1 layers and never a second set
    n, max_terms = 200_000, 25
    values = [entry.value for entry in platonic_pool(n)]
    depth = min(max_terms, len(values))
    layer = sys.getsizeof((1 << (n + 1)) - 1)
    tracemalloc.start()
    try:
        pollock._layer_masks(values, n, max_terms, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (depth + 1 + 8) * layer, peak / layer


def test_strict_walk_holds_each_layer_once(monkeypatch):
    # the strict build hands the walk its layers as bytes, so up to its
    # first-term table the walk holds no layer as an int and as bytes at once
    n, max_terms = 200_000, 25
    values = [entry.value for entry in platonic_pool(n)]
    depth = min(max_terms, len(values))
    layer = sys.getsizeof((1 << (n + 1)) - 1)

    class Cut(Exception):
        pass

    def cut(*args):
        raise Cut(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(pollock, "_first_terms", cut)
    tracemalloc.start()
    try:
        layers, _ = pollock._layer_masks(values, n, max_terms, True)
        tracemalloc.reset_peak()
        with pytest.raises(Cut) as stopped:
            next(pollock._witnesses(1, n, layers, values, True))
    finally:
        tracemalloc.stop()
    [peak] = stopped.value.args
    assert peak <= (depth + 1 + 4) * layer, peak / layer


def test_default_walk_cuts_each_layer_once():
    # the default walk takes each layer's bytes out of the list it is given
    # as it cuts them, so the bytes are gone before the first-term table
    # (two bytes a target) is allocated, though the caller holds the list.
    # The fill frees the layers' block ints a table block at a time, so
    # for the rest of the stream the walk holds the table and the depth
    # planes
    n = 10**6
    values = [entry.value for entry in platonic_pool(n)]
    layer = sys.getsizeof((1 << (n + 1)) - 1)
    tracemalloc.start()
    try:
        layers, _ = pollock._layer_masks(values, n, 5, False)
        tracemalloc.reset_peak()
        blocks = pollock._witnesses(1, n, layers, values, False)
        next(blocks)
        _, first_peak = tracemalloc.get_traced_memory()
        assert not layers
        for _ in blocks:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first_peak <= 24 * layer, first_peak / layer
    assert peak <= 24 * layer, peak / layer


def test_strict_walk_after_its_fill_holds_no_block_ints():
    # the fill frees each block of the layers' ints once it has filled that
    # block, so after it the strict walk holds the layers' bytes, which its
    # search reads, the first-term table (two bytes a target) and a few
    # depth planes (a bit a target each)
    n, max_terms = 200_000, 25
    values = [entry.value for entry in platonic_pool(n)]
    depth = min(max_terms, len(values))
    layer = sys.getsizeof((1 << (n + 1)) - 1)
    tracemalloc.start()
    try:
        layers, _ = pollock._layer_masks(values, n, max_terms, True)
        next(pollock._witnesses(1, n, layers, values, True))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= (depth + 1 + 16 + 6) * layer, held / layer


@pytest.mark.parametrize("table_block, walk_block", [(7, 1024), (64, 10)])
def test_depths_are_the_first_layer_that_holds_a_target(
    table_block, walk_block, monkeypatch
):
    # layer k holds 0..k, so target t has depth t up to the deepest layer,
    # here 255, and none above it.  A table block of 7 cuts the range
    # inside bytes and each walk block of 1024 short; walk blocks of 10 are
    # cut where table blocks of 64 end
    monkeypatch.setattr(pollock, "WITNESS_BLOCK", table_block)
    layers = [((1 << (k + 1)) - 1).to_bytes(33, "little") for k in range(256)]
    table, planes = pollock._first_terms(layers, [1], 263)
    # the layers are taken out of the list given as they are cut
    assert layers == []
    # every target that a layer holds, but 0, takes the value 1 first
    assert table.tolist() == [0, *[1] * 255, *[0] * 8]
    # one set of planes per table block, read as the walk over [1, 263]
    # reads them: a window of walk_block targets at a time from the table
    # block's start or 1, spread into byte lanes
    assert len(planes) == -(-264 // table_block)
    depths = b""
    for lo, block in zip(range(0, 264, table_block), planes):
        hi = min(lo + table_block, 264)
        for start in range(max(1, lo), hi, walk_block):
            stop = min(start + walk_block, hi)
            low = (1 << (stop - start)) - 1
            window = [plane >> start - lo & low for plane in block]
            depths += pollock._lanes(window, stop - start)
    assert depths == bytes([*range(1, 256), *[0] * 8])
    # a depth past 255 does not fit a byte
    deeper = [((1 << (k + 1)) - 1).to_bytes(38, "little") for k in range(257)]
    monkeypatch.setattr(pollock, "WITNESS_BLOCK", 1 << 16)
    with pytest.raises(ValueError, match="depth 256 at 0 exceeds a byte"):
        pollock._first_terms(deeper, [1], 300)


def test_strict_depths_stop_at_the_deepest_layer():
    # the seven largest of the values 1..300 sum to 2079 and the six
    # largest to 1785, so a distinct sum up to 2000 takes at most 7 terms,
    # and the strict walk's 300 layers are its 8 first, repeated.  The
    # depths are read from the layers up to the block's deepest alone, as
    # they must be, since a byte holds no depth past 255
    values = list(range(1, 301))
    walks = []
    for max_terms in (10, 300):
        layers, _ = pollock._layer_masks(values, 2000, max_terms, True)
        walks.append(list(pollock._witnesses(1, 2000, layers, values, True)))
    assert walks[0] == walks[1]
    targets, depths, _ = zip(*walks[1])
    assert sum(targets, []) == list(range(1, 2001))
    depths = b"".join(depths)
    assert depths.index(7) == 1786 - 1 and max(depths) == 7


def test_dense_layer_temporaries_stay_window_sized(monkeypatch):
    # a dense layer is grown in place, and a block of the previous layer
    # becomes an int when a window first reads it and goes when its own
    # window is written, so the cached blocks and a window's temporaries
    # are all the build holds (0.78 layer sizes; 1.24 when the whole
    # previous layer was cut into block ints first)
    monkeypatch.setattr(pollock, "LAYER_WINDOW", 1 << 14)
    n = 10**6
    values = [entry.value for entry in platonic_pool(n)]
    layers, counts = pollock._layer_masks(values, n, 2, False)
    layer = sys.getsizeof((1 << (n + 1)) - 1)
    tracemalloc.start()
    try:
        pollock._grow_layer(layers[2], counts[2], values, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * layer, peak / layer


def test_window_reader_goes_before_its_window_is_written(monkeypatch):
    # each window's reader holds a pair of blocks of layer k - 1; it is
    # dropped with the window's own block, before the window is written
    # over the layer, so no pair outlives the window that read it
    readers = []
    make_reader = pollock._window_reader

    def tracked(block, width):
        reader = make_reader(block, width)
        readers.append(weakref.ref(reader))
        return reader

    class Layer(bytearray):
        def __setitem__(self, index, value):
            # a slice is a window written back; one index is a filled hole
            if isinstance(index, slice):
                assert readers and all(ref() is None for ref in readers)
            super().__setitem__(index, value)

    monkeypatch.setattr(pollock, "LAYER_WINDOW", 1 << 10)
    n = 20_000
    values = [entry.value for entry in platonic_pool(n)]
    layers, counts = pollock._layer_masks(values, n, 3, False)
    monkeypatch.setattr(pollock, "_window_reader", tracked)
    layer = Layer(layers[2])
    assert pollock._grow_layer(layer, counts[2], values, n) == counts[3]
    assert layer == layers[3]
    # one reader per window: layer 3 is dense here
    assert len(readers) == -(-(n + 1) // (1 << 10))


def test_report_only_scan_holds_one_layer(monkeypatch):
    # with no walk to read them, the layers are grown in one buffer and no
    # layer below the last is kept: the scan holds that buffer, the blocks
    # of the previous layer that windows have read and whose own windows
    # are not yet written, and window-sized temporaries (1.84 layer sizes;
    # 3.11 when layer 2 was counted as one int).  Windows of 2**14 bits are
    # small beside the layer
    monkeypatch.setattr(pollock, "LAYER_WINDOW", 1 << 14)
    n = 3 * 10**6
    layer = sys.getsizeof((1 << (n + 1)) - 1)
    tracemalloc.start()
    try:
        report = scan_conjecture(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.failures == ()
    assert peak <= 2 * layer, peak / layer


def test_layer_two_is_counted_a_window_at_a_time(monkeypatch):
    # layer 2 is counted one window of its bytes at a time, so the build
    # holds the buffer and the residue tables (0.6 layer sizes at 3 * 10**6)
    # and no copy or int of the whole layer (2.88 layer sizes when it did)
    monkeypatch.setattr(pollock, "LAYER_WINDOW", 1 << 14)
    n = 3 * 10**6
    values = [entry.value for entry in platonic_pool(n)]
    layer = sys.getsizeof((1 << (n + 1)) - 1)
    tracemalloc.start()
    try:
        [built], counts = pollock._layer_masks(values, n, 2, False, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts[2] == int.from_bytes(built, "little").bit_count()
    assert peak <= 1.75 * layer, peak / layer


def test_holes_hold_no_copy_of_the_layer(monkeypatch):
    # a layer's holes are found one hole window of its bytes at a time, an
    # eighth of the layer window, here 2**11 bits, so the flags of one
    # hole window are the only copy (0.012 layer sizes; 0.053 with hole
    # windows as wide as the layer window, 0.95 when the whole layer was
    # translated at once)
    monkeypatch.setattr(pollock, "LAYER_WINDOW", 1 << 14)
    n = 10**6
    values = [entry.value for entry in platonic_pool(n)]
    [built], _ = pollock._layer_masks(values, n, 3, False, False)
    layer = sys.getsizeof((1 << (n + 1)) - 1)
    tracemalloc.start()
    try:
        found = sum(map(len, pollock._holes(built, n)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == n + 1 - int.from_bytes(built, "little").bit_count()
    assert peak <= 0.03 * layer, peak / layer


@pytest.mark.parametrize(
    "m, strict, bound",
    [
        # the layers a walk reads, kept as bytes (about 6 at the fixpoint),
        # and the block ints of the layer being grown; a first-term table
        # alone would be 16 layer sizes
        (3 * 10**6 - 1, False, 10),
        # the six strict layers as ints while they are built, then as bytes
        (10**6 - 1, True, 15),
    ],
)
def test_one_target_holds_the_layers_alone(m, strict, bound):
    # one target is searched in the layers, so the call holds no first-term
    # table and no depth planes
    layer = sys.getsizeof((1 << (m + 1)) - 1)
    tracemalloc.start()
    try:
        witness = min_term_decomposition(m, strict_distinct=strict)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verify_witness(witness)
    assert peak <= bound * layer, peak / layer


def test_one_target_needs_no_first_term_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("a single target filled the first-term table")

    monkeypatch.setattr(pollock, "_first_terms", no_table)
    # 26015 is the smallest integer that needs four terms
    for strict in (False, True):
        witness = min_term_decomposition(104, strict_distinct=strict)
        assert witness.term_values == (85, 19)
        witness = min_term_decomposition(26015, strict_distinct=strict)
        assert len(witness.terms) == 4 and verify_witness(witness)
        assert min_term_decomposition(17, 2, strict_distinct=strict) is None
    assert min_term_decomposition(2, strict_distinct=True) is None


def holes_by_bit(layer, limit):
    """The plain definition: test every bit up to the limit."""
    return [h for h in range(limit + 1) if not layer[h >> 3] >> (h & 7) & 1]


# layers with sparse holes: runs of up to 5000 0xFF bytes between short runs
# of any bytes
SPARSE_HOLES = st.lists(
    st.tuples(st.integers(0, 5000), st.binary(max_size=4)), max_size=8
).map(lambda runs: b"".join(b"\xff" * full + chunk for full, chunk in runs))


WINDOWS = st.sampled_from([8, 64, 1 << 14, pollock.LAYER_WINDOW])


@settings(max_examples=200, deadline=None)
@given(
    layer=st.binary(max_size=300) | SPARSE_HOLES, cut=st.integers(1, 8), window=WINDOWS
)
@example(layer=b"", cut=8, window=8)
@example(layer=bytes(1000), cut=8, window=64)
@example(layer=b"\xff" * 1000, cut=8, window=8)
@example(layer=bytes(range(256)), cut=8, window=8)  # every byte value once
# a lone hole in the last byte, and past the limit
@example(layer=b"\xff" * 10_000 + b"\x7f", cut=8, window=1 << 14)
@example(layer=b"\xff" * 10_000 + b"\x7f", cut=7, window=64)
def test_holes_match_a_per_bit_loop(layer, cut, window):
    # the limit falls in the last byte, whose clear bits above it are no
    # holes; each list holds the holes inside one hole window, an eighth
    # of the layer window in whole bytes, and at least one byte
    limit = 8 * len(layer) - 1 - (8 - cut)
    with mock.patch.object(pollock, "LAYER_WINDOW", window):
        blocks = list(pollock._holes(layer, limit))
    holes_window = 8 * max(1, window // 64)
    assert len(blocks) == -(-len(layer) * 8 // holes_window)
    for j, block in enumerate(blocks):
        assert all(j * holes_window <= h < (j + 1) * holes_window for h in block)
    assert [h for block in blocks for h in block] == holes_by_bit(layer, limit)


#: Block widths for the reader and the kernel: widths of 1 and 7 bits cut
#: blocks inside bytes, as WITNESS_BLOCK = 7 does in the walk's tests.
KERNEL_WIDTHS = st.sampled_from([1, 7, 8, 64, 1 << 14])


@settings(max_examples=200, deadline=None)
@given(
    layer=st.binary(min_size=1, max_size=300) | SPARSE_HOLES.filter(bool),
    width=KERNEL_WIDTHS,
    data=st.data(),
)
def test_block_reader_and_window_kernel_match_plain_shifts(layer, width, data):
    # the reader's blocks join back into the layer's bits 0..limit, and the
    # kernel's windows over them equal the plain shifts of the whole layer
    # in their low `width` bits: for s < 0, and for s = q * width + r with r
    # on both sides of width / 2, in calls that share a pair and calls that
    # move to another
    limit = data.draw(st.integers(0, 8 * len(layer) - 1), label="limit")
    whole = int.from_bytes(layer, "little") & ((1 << (limit + 1)) - 1)
    blocks = [pollock._bits(layer, lo, width, limit) for lo in range(0, limit + 1, width)]
    assert all(block >> width == 0 for block in blocks)
    assert sum(block << q * width for q, block in enumerate(blocks)) == whole
    low = (1 << width) - 1
    window = pollock._window_reader(blocks.__getitem__, width)
    # a window at s >= 0 reads block s // width + 1, so q stops one short
    # of the last block; q < 0 gives negative offsets
    pairs = st.tuples(st.integers(-2, len(blocks) - 2), st.integers(0, width - 1))
    for q, drawn in data.draw(st.lists(pairs, min_size=1, max_size=8), label="q, r"):
        # the r drawn, then the r next to width / 2 on each side and the
        # last bit, all in one pair
        edges = (width // 2 - 1, width // 2, (width + 1) // 2, width - 1)
        for r in (drawn, *[r for r in edges if 0 <= r < width]):
            s = q * width + r
            want = (whole >> s if s >= 0 else whole << -s) & low
            assert window(s) & low == want, (q, r)


@pytest.mark.parametrize("window", [8, 64, 1 << 14])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_window_edges_count_and_holes(window, edge, monkeypatch):
    # limit + 1 one less than, equal to, or one more than a multiple of the
    # window, and so of the hole window, an eighth of it or one byte: the
    # windowed count and holes equal the whole-layer forms
    monkeypatch.setattr(pollock, "LAYER_WINDOW", window)
    limit = 3 * window + edge - 1
    values = [entry.value for entry in platonic_pool(limit)]
    for max_terms in (2, 3):
        [built], counts = pollock._layer_masks(values, limit, max_terms, False, False)
        assert counts[-1] == int.from_bytes(built, "little").bit_count()
        want = holes_by_bit(built, limit)
        assert [h for block in pollock._holes(built, limit) for h in block] == want
        report = scan_conjecture(limit, max_terms)
        assert tuple(report.failures) == tuple(want)


@pytest.mark.parametrize("window", [8, 64, 1 << 14])
@pytest.mark.parametrize(
    "n, max_terms, strict",
    [(10, 1, False), (1000, 1, False), (2000, 2, False), (100_000, 3, False),
     (120, 5, False), (300, 2, True)],
)
def test_failures_view_equals_the_holes_tuple(n, max_terms, strict, window, monkeypatch):
    # the failures are a lazy view of the last layer; they equal the tuple
    # of its holes, which the report held before, in length, items,
    # slices, equality both ways and hash
    monkeypatch.setattr(pollock, "LAYER_WINDOW", window)
    report = scan_conjecture(n, max_terms, strict)
    values = [entry.value for entry in platonic_pool(n)]
    [last], _ = pollock._layer_masks(values, n, max_terms, strict, False)
    want = tuple(holes_by_bit(last, n))
    failures = report.failures
    assert len(failures) == len(want) and bool(failures) == bool(want)
    assert failures == want and want == failures and failures == failures
    assert tuple(failures) == want and list(reversed(failures)) == list(want[::-1])
    assert failures != want + (n + 1,) and failures != want[1:] + (n + 1,)
    assert failures != list(want)
    for index in (0, 1, -1, -2, len(want) // 2):
        if -len(want) <= index < len(want):
            assert failures[index] == want[index]
    with pytest.raises(IndexError):
        failures[len(want)]
    for cut in (slice(-1, None), slice(None, 3), slice(1, -1, 2), slice(None, None, -3)):
        assert failures[cut] == want[cut]
    assert hash(failures) == hash(want) and repr(failures) == repr(want)
    assert sum(report.histogram.values()) + len(failures) == n


def test_scan_validation_and_ceiling():
    with pytest.raises(ValueError):
        scan_conjecture(0)
    with pytest.raises(ValueError):
        scan_conjecture(100, max_terms=0)
    started = time.perf_counter()
    with pytest.raises(ValueError, match="ceiling"):
        scan_conjecture(DEFAULT_SCAN_CEILING + 1)
    assert time.perf_counter() - started < 1.0


def test_four_term_integers_exist():
    # smallest integer needing four terms; no three pool values reach it
    target = 26015
    pool = platonic_pool(target)
    witness = min_term_decomposition(target)
    assert len(witness.terms) == 4
    assert verify_witness(witness)
    values = [e.value for e in pool]
    pair_sums = {a + b for a, b in itertools.combinations_with_replacement(values, 2)}
    assert all(target - v not in pair_sums for v in values)
    assert target not in pair_sums and target not in values


def test_strict_distinct_counterexamples():
    report = scan_conjecture(30, strict_distinct=True)
    assert report.failures == (2, 3)  # 1+1 and 1+1+1 are barred
    assert report.strict_distinct


def test_strict_distinct_witnesses_have_distinct_values():
    for m in (87, 88, 92, 100, 115):
        witness = min_term_decomposition(m, strict_distinct=True)
        assert witness is not None
        assert len(set(witness.term_values)) == len(witness.term_values)
        assert sum(witness.term_values) == m


def test_strict_distinct_matches_brute_force():
    limit = 150
    oracle = brute_force_min_terms_distinct(limit, 5)
    for m in range(1, limit + 1):
        witness = min_term_decomposition(m, strict_distinct=True)
        observed = len(witness.terms) if witness else None
        assert observed == oracle.get(m), f"strict min terms disagree at {m}"
    targets = []
    for witness in scan_with_witnesses(limit, strict_distinct=True)[1]:
        values = witness.term_values
        assert len(values) == oracle[witness.target], witness.target
        assert len(set(values)) == len(values)
        assert verify_witness(witness)
        targets.append(witness.target)
    assert targets == sorted(oracle)


def test_strict_recovery_never_reuses_a_value():
    # a largest-first walk that could reuse a value would reach 9 as 4 + 4 + 1
    # and 10 as 4 + 4 + 1 + 1 here; the platonic pool has no such target up
    # to 3 * 10**5, so these values are made up
    values = [1, 2, 3, 4]
    for m, terms in ((9, (4, 3, 2)), (10, (4, 3, 2, 1))):
        layers, _ = pollock._layer_masks(values, m, 5, True)
        [(targets, depths, columns)] = pollock._witnesses(m, m, layers, values, True)
        assert targets == [m]
        assert list(depths) == [len(terms)]
        assert tuple(values[i - 1] for i in next(zip(*columns)) if i) == terms


def test_strict_single_target_never_reuses_a_value(monkeypatch):
    # the same made-up values as the scan's pool: one target is searched,
    # not walked, and in strict mode the search must step back from 4 + 4
    pool = [PoolEntry(v, ((PlatonicKind.CUBE, v),)) for v in (1, 2, 3, 4)]
    monkeypatch.setattr(
        pollock, "platonic_pool", lambda limit: [e for e in pool if e.value <= limit]
    )
    for m, terms in ((9, (4, 3, 2)), (10, (4, 3, 2, 1))):
        assert min_term_decomposition(m, strict_distinct=True).term_values == terms
    assert min_term_decomposition(9).term_values == (4, 4, 1)
    assert min_term_decomposition(10).term_values == (4, 4, 2)


class ForwardOnly(bytes):
    """Layer bytes that refuse a negative index rather than wrap round."""

    def __getitem__(self, index):
        if index < 0:
            raise IndexError(f"layer byte {index}: a value above the remainder")
        return super().__getitem__(index)


def test_strict_search_tries_no_value_above_the_remainder():
    # a value v above what remains leaves d < 0, and below[d >> 3] reads a
    # byte from the end of the layer; here 7 is the top bit of the only layer
    # byte, so trying 7 for 6 (d = -1) would pass the bit test and enter a
    # branch.  That branch cannot complete, so only the probe shows the slip
    values = [1, 2, 4, 7]
    layers, _ = pollock._layer_masks(values, 7, 4, True)
    recover = pollock._search(values, [ForwardOnly(layer) for layer in layers], True)
    expected = {1: (1,), 2: (2,), 3: (2, 1), 4: (4,), 5: (4, 1), 6: (4, 2), 7: (7,)}
    for m, terms in expected.items():
        assert tuple(values[i - 1] for i in recover(m, len(terms))) == terms


def with_bit(layers, bit, layer):
    """Layers that also claim `bit` from `layer` up, as a corrupt build might."""
    claimed = [bytearray(old) for old in layers]
    for new in claimed[layer:]:
        new[bit >> 3] |= 1 << (bit & 7)
    return claimed


@pytest.mark.parametrize(
    "claims, lo, message",
    [
        # a target of depth 2, 3 or 4 that no pass of its layer's fill hits
        ([(6, 2)], 1, "no predecessor for 6 at layer 2"),
        ([(7, 3)], 1, "no predecessor for 7 at layer 3"),
        ([(8, 4)], 1, "no predecessor for 8 at layer 4"),
        # 7 = 5 + 2 passes layer 3, but the table also covers the targets
        # below the stream's start, and 2 fails at layer 2
        ([(2, 2), (7, 3)], 7, "no predecessor for 2 at layer 2"),
    ],
)
def test_corrupt_masks_raise(claims, lo, message):
    # with the single value 5, the layers hold 0, 5, 10, 15, 20 and no other sum
    values = [5]
    layers, _ = pollock._layer_masks(values, 20, 4, False)
    masks = [1, 1 | 1 << 5, 0x421, 0x8421, 0x108421]
    assert layers == [mask.to_bytes(3, "little") for mask in masks]
    for bit, layer in claims:
        layers = with_bit(layers, bit, layer)
    with pytest.raises(RuntimeError, match=f"{message}; masks corrupt"):
        list(pollock._witnesses(lo, 20, layers, values, False))


def test_walk_stops_on_a_corrupt_table(monkeypatch):
    # with the single value 5, F names 5 at 5, 10, 15 and 20 and is 0 elsewhere
    cases = [
        # a stream over 10 would drop a target that the layers reach
        ({10: 0}, 1, "first-term table and layer 4 disagree at 10"),
        # a block whose only target is dropped must not be skipped as empty
        ({20: 0}, 16, "first-term table and layer 4 disagree at 20"),
        # nor may a block that the layers reach whole drop a target
        ({20: 0}, 20, "first-term table and layer 4 disagree at 20"),
        # nor may the table name a first term for a target no layer holds
        ({12: 1}, 1, "first-term table and layer 4 disagree at 12"),
        # even where it drops another, so that the counts agree
        ({10: 0, 12: 1}, 1, "first-term table and layer 4 disagree at 10"),
        # past 10, the walk of 15 keeps the remainder 10 however many rounds
        # it runs, and must stop after as many terms as there are layers
        ({10: 0}, 11, "walk of 15 leaves 10 after 4 terms"),
    ]
    real = pollock._first_terms
    layers, _ = pollock._layer_masks([5], 20, 4, False)
    for entries, lo, message in cases:

        def corrupt(*args):
            table, planes = real(*args)
            table = array("H", table)
            for entry, value in entries.items():
                assert table[entry] == (entry % 5 == 0)
                table[entry] = value
            return table, planes

        monkeypatch.setattr(pollock, "_first_terms", corrupt)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match=f"{message}; masks corrupt"):
            # the walk empties the list it is given, so it gets a copy
            list(pollock._witnesses(lo, 20, layers[:], [5], False))
        assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "layer, message",
    [
        # no two distinct values of 1..4 sum to 11, nor any value leaves a
        # one-term remainder, so the fill of layer 2 finds no first term
        (2, "no predecessor for 11 at layer 2"),
        # 11 - 4 = 7 = 4 + 2 + 1 gives the fill a first term, but the walk
        # takes 4 twice and the depth-first rebuild finds no four distinct
        # values of 1..4 that sum to 11
        (4, "no 4 terms sum to 11"),
    ],
    ids=["fill", "fallback"],
)
def test_corrupt_strict_masks_raise(layer, message):
    values = [1, 2, 3, 4]
    layers = with_bit(pollock._layer_masks(values, 12, 4, True)[0], 11, layer)
    with pytest.raises(RuntimeError, match=f"{message}; masks corrupt"):
        list(pollock._witnesses(1, 12, layers, values, True))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=ORACLE_LIMIT),
    max_terms=st.integers(min_value=1, max_value=8),
)
@example(n=100, max_terms=5)
@example(n=ORACLE_LIMIT, max_terms=3)
@example(n=ORACLE_LIMIT, max_terms=8)
def test_strict_never_beats_default(n, max_terms):
    # a distinct sum is a sum, so no target's strict depth is below its
    # default depth, and a default witness with distinct values is a
    # distinct sum of as many terms, so there the depths are equal: only a
    # target whose default witness repeats a value can go deeper, or fail,
    # in strict mode alone.  The depths are the ones the walks yield
    failures, rows = {}, {}
    for strict in (False, True):
        report, _, values, layers = pollock._scan(n, max_terms, strict)
        blocks = pollock._witnesses(1, n, layers, values, strict)
        failures[strict] = set(report.failures)
        rows[strict] = {
            m: (d, [i for i in row if i])
            for targets, depths, columns in blocks
            for m, d, row in zip(targets, depths, zip(*columns))
        }
    default, strict = rows[False], rows[True]
    assert strict.keys() <= default.keys()
    repeats = {m for m, (_, row) in default.items() if len(set(row)) < len(row)}
    for m, (depth, _) in strict.items():
        assert depth >= default[m][0]
        assert depth == default[m][0] or m in repeats
    assert failures[True] <= failures[False] | repeats
    # a single target takes the same depth in each mode as the stream
    for m in range(max(1, n - 99), n + 1):
        for mode in (False, True):
            witness = min_term_decomposition(m, max_terms, strict_distinct=mode)
            if m in failures[mode]:
                assert witness is None
            else:
                assert len(witness.terms) == rows[mode][m][0]
