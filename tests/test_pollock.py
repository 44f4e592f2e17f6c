"""Decomposition search: pool, minimal witnesses, scans, verification."""

import itertools
import sys
import time
import tracemalloc
from array import array

import pytest

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


def test_verify_witness_rejects_forged_value():
    forged = Witness(
        target=93,
        terms=(
            PoolEntry(value=85, provenance=((PlatonicKind.OCTAHEDRAL, 5),)),
            PoolEntry(value=9, provenance=((PlatonicKind.CUBE, 2),)),
        ),
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


def one_family(kind, limit):
    values = (platonic_value(kind, i) for i in itertools.count(1))
    return list(itertools.takewhile(lambda v: v <= limit, values))


@pytest.mark.parametrize(
    "strict_distinct, sparsity",
    [(False, 1), (False, 16), (False, pollock.HOLE_SPARSITY), (True, 1)],
)
def test_layer_masks_equal_plain_shift_or(strict_distinct, sparsity, monkeypatch):
    # a low sparsity moves the switch to per-hole tests into small scans
    monkeypatch.setattr(pollock, "HOLE_SPARSITY", sparsity)
    cases = [(n, k) for n in (1, 2, 3, 8, 17, 100, 2000) for k in (1, 2, 3, 5)]
    cases += [(5000, 8), (100, 40), (30_000, 5)]
    inputs = [([e.value for e in platonic_pool(n)], n, k) for n, k in cases]
    if strict_distinct:
        # one family up to 3000 has 9 to 25 values, so at 25 terms the
        # strict depth is the whole pool
        inputs += [(one_family(kind, 3000), 3000, 25) for kind in PlatonicKind]
    for values, n, max_terms in inputs:
        want = shift_or_masks(values, n, max_terms, strict_distinct)
        got = pollock._layer_masks(values, n, max_terms, strict_distinct)
        # layering may stop early at a fixpoint; later masks repeat
        assert got == want[: len(got)], (n, max_terms)
        assert all(mask == got[-1] for mask in want[len(got) :])


def test_layers_stop_at_the_fixpoint():
    # every m <= 100 needs at most three terms, so layer 4 adds nothing
    values = [entry.value for entry in platonic_pool(100)]
    assert len(pollock._layer_masks(values, 100, 200_000, False)) == 4


def test_strict_masks_go_past_a_layer_that_adds_nothing():
    # no distinct 5-sum is new here, yet 68 = 1+3+4+16+20+24 is a new 6-sum
    values = [1, 3, 4, 12, 16, 20, 24, 38]
    masks = pollock._layer_masks(values, 75, 8, True)
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
        masks = pollock._layer_masks(values, m, 5, True)
        [(targets, columns)] = pollock._witnesses(m, m, masks, values, True)
        assert targets == [m]
        assert tuple(values[i - 1] for i in next(zip(*columns)) if i) == terms


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
    masks = pollock._layer_masks(values, 7, 4, True)
    search = pollock._strict_search(
        values, [ForwardOnly(pollock._mask_bytes(mask, 7)) for mask in masks]
    )
    expected = {1: (1,), 2: (2,), 3: (2, 1), 4: (4,), 5: (4, 1), 6: (4, 2), 7: (7,)}
    for m, terms in expected.items():
        assert tuple(search(m, len(terms), 0)) == terms


def with_bit(masks, bit, layer):
    """Layer masks that also claim `bit` from `layer` up, as a corrupt build might."""
    return [mask | 1 << bit if k >= layer else mask for k, mask in enumerate(masks)]


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
    masks = pollock._layer_masks(values, 20, 4, False)
    assert masks == [1, 1 | 1 << 5, 0x421, 0x8421, 0x108421]
    for bit, layer in claims:
        masks = with_bit(masks, bit, layer)
    with pytest.raises(RuntimeError, match=f"{message}; masks corrupt"):
        list(pollock._witnesses(lo, 20, masks, values, False))


def test_walk_stops_on_a_corrupt_table(monkeypatch):
    # with the single value 5, F names 5 at 5, 10, 15 and 20 and is 0 elsewhere
    cases = [
        # a stream over 10 would drop a target that the layers reach
        (10, 0, 1, "first-term table and layer 4 disagree at 10"),
        # a block whose only target is dropped must not be skipped as empty
        (20, 0, 16, "first-term table and layer 4 disagree at 20"),
        # nor may the table name a first term for a target no layer holds
        (12, 1, 1, "first-term table and layer 4 disagree at 12"),
        # past 10, the walk of 15 keeps the remainder 10 however many rounds
        # it runs, and must stop after as many terms as there are layers
        (10, 0, 11, "walk of 15 leaves 10 after 4 terms"),
    ]
    real = pollock._first_terms
    masks = pollock._layer_masks([5], 20, 4, False)
    for entry, value, lo, message in cases:

        def corrupt(*args):
            table = array("H", real(*args))
            assert table[entry] == (entry % 5 == 0)
            table[entry] = value
            return table

        monkeypatch.setattr(pollock, "_first_terms", corrupt)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match=f"{message}; masks corrupt"):
            list(pollock._witnesses(lo, 20, masks, [5], False))
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
        (4, "strict recovery failed for 11"),
    ],
    ids=["fill", "fallback"],
)
def test_corrupt_strict_masks_raise(layer, message):
    values = [1, 2, 3, 4]
    masks = with_bit(pollock._layer_masks(values, 12, 4, True), 11, layer)
    with pytest.raises(RuntimeError, match=f"{message}; masks corrupt"):
        list(pollock._witnesses(1, 12, masks, values, True))


def test_strict_never_beats_default():
    for m in range(1, 101):
        default = min_term_decomposition(m)
        strict = min_term_decomposition(m, strict_distinct=True)
        if strict is not None:
            assert default is not None
            assert len(default.terms) <= len(strict.terms)
