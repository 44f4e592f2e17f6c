"""Scan results against oracles that share no code with the layer engine.

The minimum term counts come from a plain dynamic program over platonic
values computed here from their closed forms, so a fault in the pool or in
any layer method of the engine shows up as a disagreement.
"""

import io
import json
import time
from contextlib import redirect_stdout
from itertools import combinations, zip_longest
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from platonics import (
    cli,
    min_term_decomposition,
    platonic_pool,
    pollock,
    scan_conjecture,
    scan_with_witnesses,
    verify_witness,
    witness_from_values,
)

ORACLE_LIMIT = 3000

CLOSED_FORMS = (
    lambda k: k * (k + 1) * (k + 2) // 6,
    lambda k: k * (2 * k * k + 1) // 3,
    lambda k: k**3,
    lambda k: k * (5 * k * k - 5 * k + 2) // 2,
    lambda k: k * (3 * k - 1) * (3 * k - 2) // 2,
)


def platonic_values_upto(limit):
    values = set()
    for form in CLOSED_FORMS:
        k = 1
        while form(k) <= limit:
            values.add(form(k))
            k += 1
    return sorted(values)


def min_terms_dp(limit):
    """depth[t] = fewest platonic values summing to t, repeats allowed."""
    values = platonic_values_upto(limit)
    depth = [0] + [None] * limit
    for t in range(1, limit + 1):
        depth[t] = 1 + min(depth[t - v] for v in values if v <= t)
    return depth


# every t >= 1 is a sum of ones, so depth is defined on the whole range; a
# scan of [1, n] uses pool values <= n, and a target t <= n uses only <= t
DEPTH = min_terms_dp(ORACLE_LIMIT)


def largest_first_paths(limit):
    """path[t]: from r = t down, each step takes the largest value v with
    DEPTH[r - v] == DEPTH[r] - 1, the walk a witness stream must follow."""
    values = platonic_values_upto(limit)
    paths = [()]
    for t in range(1, limit + 1):
        v = max(v for v in values if v <= t and DEPTH[t - v] == DEPTH[t] - 1)
        paths.append((v, *paths[t - v]))
    return paths


PATHS = largest_first_paths(ORACLE_LIMIT)


def expected_report(n, max_terms):
    histogram = {k: 0 for k in range(1, max_terms + 1)}
    failures = []
    for t in range(1, n + 1):
        if DEPTH[t] <= max_terms:
            histogram[DEPTH[t]] += 1
        else:
            failures.append(t)
    return histogram, tuple(failures)


@pytest.mark.parametrize("window", [8, pollock.LAYER_WINDOW])
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=ORACLE_LIMIT),
    max_terms=st.integers(min_value=1, max_value=6),
)
@example(n=1, max_terms=1)
@example(n=2, max_terms=1)
@example(n=3, max_terms=2)
@example(n=ORACLE_LIMIT, max_terms=1)
@example(n=ORACLE_LIMIT, max_terms=2)
@example(n=ORACLE_LIMIT, max_terms=6)
def test_scan_matches_dynamic_program(window, n, max_terms):
    # a window of 8 bits cuts every dense layer of a scan into many windows
    with mock.patch.object(pollock, "LAYER_WINDOW", window):
        report = scan_conjecture(n, max_terms=max_terms)
    assert (report.histogram, report.failures) == expected_report(n, max_terms)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=1500),
    max_terms=st.integers(min_value=1, max_value=6),
)
@example(n=1, max_terms=1)
@example(n=3, max_terms=2)
def test_every_witness_verifies_and_is_minimal(n, max_terms):
    targets = []
    for witness in scan_with_witnesses(n, max_terms=max_terms)[1]:
        assert verify_witness(witness, max_terms=max_terms)
        assert len(witness.terms) == DEPTH[witness.target]
        targets.append(witness.target)
    assert targets == [t for t in range(1, n + 1) if DEPTH[t] <= max_terms]


def first_difference(got, expected):
    """The first (index, got, expected) at which two lists differ, or None.

    Long lists are compared this way because the diff that pytest writes
    for a failing == of thousands of items takes about a second, which a
    hypothesis search repeats on every failing example it shrinks."""
    pairs = zip_longest(got, expected, fillvalue="<missing>")
    return next(((i, g, e) for i, (g, e) in enumerate(pairs) if g != e), None)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=ORACLE_LIMIT - 1),
    longer=st.integers(min_value=1, max_value=ORACLE_LIMIT - 1),
    max_terms=st.integers(min_value=1, max_value=6),
    strict_distinct=st.booleans(),
)
@example(n=1, longer=ORACLE_LIMIT - 1, max_terms=5, strict_distinct=False)
@example(n=ORACLE_LIMIT - 1, longer=1, max_terms=2, strict_distinct=True)
def test_scan_of_n_is_a_prefix_of_a_longer_scan(n, longer, max_terms, strict_distinct):
    # a target's witness uses only values up to the target, so a scan of
    # [1, n] must read as the start of a scan of [1, n'] for every n' > n
    n_prime = min(n + longer, ORACLE_LIMIT)
    options = {"max_terms": max_terms, "strict_distinct": strict_distinct}
    report, stream = scan_with_witnesses(n, **options)
    longer_report, longer_stream = scan_with_witnesses(n_prime, **options)
    witnesses = list(stream)
    longer_witnesses = list(longer_stream)
    assert first_difference(witnesses, longer_witnesses[: len(witnesses)]) is None
    assert all(w.target > n for w in longer_witnesses[len(witnesses) :])
    assert report.failures == tuple(m for m in longer_report.failures if m <= n)
    assert report == scan_conjecture(n, **options)
    depths = [len(w.terms) for w in witnesses]
    assert report.histogram == {k: depths.count(k) for k in range(1, max_terms + 1)}


def cli_stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def assert_cli_lines(n, max_terms, json_lines, table_lines):
    """The CLI's witness lines in json and table, then the same report as
    without --witnesses."""
    argv = ["pollock", str(n), "--max-terms", str(max_terms)]
    for fmt, lines in (("json", json_lines), ("table", table_lines)):
        report = cli_stdout([*argv, "--format", fmt]).splitlines(True)
        out = cli_stdout([*argv, "--witnesses", "--format", fmt]).splitlines(True)
        assert first_difference(out, [*lines, *report]) is None


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=ORACLE_LIMIT),
    max_terms=st.integers(min_value=1, max_value=6),
)
@example(n=ORACLE_LIMIT, max_terms=5)
@example(n=ORACLE_LIMIT, max_terms=2)
@example(n=ORACLE_LIMIT, max_terms=1)
@example(n=2, max_terms=2)
def test_witnesses_follow_the_largest_first_path(n, max_terms):
    pool = platonic_pool(n)
    targets = []
    first_of_depth = {}
    json_lines, table_lines = [], []
    for witness in scan_with_witnesses(n, max_terms=max_terms)[1]:
        path = PATHS[witness.target]
        assert witness.term_values == path
        assert witness == witness_from_values(witness.target, path, pool)
        targets.append(witness.target)
        first_of_depth.setdefault(len(witness.terms), witness.target)
        json_lines.append(json.dumps(witness.to_json_dict()) + "\n")
        terms_text = " + ".join(str(v) for v in witness.term_values)
        table_lines.append(f"{witness.target} = {terms_text}\n")
    assert targets == [t for t in range(1, n + 1) if DEPTH[t] <= max_terms]
    assert_cli_lines(n, max_terms, json_lines, table_lines)
    # a single target takes the same walk as the stream
    for m in {*first_of_depth.values(), *targets[-1:]}:
        assert min_term_decomposition(m, max_terms).term_values == PATHS[m]


@pytest.mark.parametrize("table_block", [1, 7, 64, 1000])
@pytest.mark.parametrize("block", [1, 7, 1000, 2500])
def test_witness_text_at_any_walk_block(block, table_block, monkeypatch):
    # m's text is cut at its thousands, and the runs of targets that share
    # them meet the walk's blocks in every way: blocks of 1 and 7 cut a run
    # into many blocks, blocks of 1000 end each run one target into the
    # next (the range starts at 1), and blocks of 2500 hold whole runs.
    # The json count of terms is the depth, made a table block at a time,
    # so walk blocks also straddle table blocks, or fall inside one
    monkeypatch.setattr(pollock, "_WALK_BLOCK", block)
    monkeypatch.setattr(pollock, "WITNESS_BLOCK", table_block)
    n = ORACLE_LIMIT
    for max_terms in (1, 3, 5):
        paths = [(t, PATHS[t]) for t in range(1, n + 1) if DEPTH[t] <= max_terms]
        json_lines = [
            json.dumps(
                {"target": str(t), "min_terms": len(p), "terms": [str(v) for v in p]}
            )
            + "\n"
            for t, p in paths
        ]
        table_lines = [f"{t} = {' + '.join(map(str, p))}\n" for t, p in paths]
        assert_cli_lines(n, max_terms, json_lines, table_lines)


def flatten(blocks, block, values, depth=DEPTH):
    """(m, term values) of every target of a block stream over [1, n], after
    checking the shape of each block against a block size of `block`, and
    each target's depth against its number of terms and depth[m], the
    oracle's; `depth` None checks the number of terms alone."""
    value_at = [0, *values]
    found = []
    windows = []
    for targets, depths, columns in blocks:
        assert targets == sorted(targets)
        # a block's targets share one window of the range, and no window
        # comes twice
        window = (targets[0] - 1) // block
        assert (targets[-1] - 1) // block == window
        assert not windows or windows[-1] < window
        windows.append(window)
        assert len(depths) == len(targets)
        assert all(len(column) == len(targets) for column in columns)
        for m, d, row in zip(targets, depths, zip(*columns)):
            terms = tuple(value_at[i] for i in row if i)
            # the zeros come after the last term
            assert not any(row[len(terms) :])
            assert d == len(terms)
            assert depth is None or d == depth[m]
            found.append((m, terms))
    return found, windows


def scan_blocks(n, max_terms, strict_distinct):
    """The walk's blocks over [1, n] from one scan, as the CLI gets them."""
    return pollock._scan(n, max_terms, strict_distinct)[2]


@pytest.mark.parametrize("table_block", [1, 7, 64, 1000])
@pytest.mark.parametrize("block", [1, 7, 64, 1000])
def test_witness_blocks_join_up(block, table_block, monkeypatch):
    n = ORACLE_LIMIT
    values = platonic_values_upto(n)
    strict_n = 300
    strict = [
        (w.target, w.term_values)
        for w in scan_with_witnesses(strict_n, strict_distinct=True)[1]
    ]
    # blocks that are not whole bytes put block edges inside layer bytes,
    # and walk blocks of another size straddle the table's, whose depths
    # the walk reads
    monkeypatch.setattr(pollock, "WITNESS_BLOCK", table_block)
    monkeypatch.setattr(pollock, "_WALK_BLOCK", block)
    # the table names the first term of every reachable target at every
    # depth and nothing else; every step of the walk is one of its entries
    layers, _ = pollock._layer_masks(values, n, 5, False)
    first, _ = pollock._first_terms(layers, values, n)
    got = [values[i - 1] if i else None for i in first]
    assert got == [PATHS[t][0] if 1 <= DEPTH[t] <= 5 else None for t in range(n + 1)]
    for max_terms in (2, 5):
        reachable = [t for t in range(1, n + 1) if DEPTH[t] <= max_terms]
        blocks = scan_blocks(n, max_terms, False)
        found, windows = flatten(blocks, block, values)
        assert found == [(t, PATHS[t]) for t in reachable]
        # a window with no reachable target yields no block
        assert windows == sorted({(t - 1) // block for t in reachable})
        if max_terms == 2 and block < 64:
            assert len(windows) < -(-n // block)
    blocks = scan_blocks(strict_n, 5, True)
    assert flatten(blocks, block, values, depth=None)[0] == strict


def first_distinct_sums(values, limit, max_terms):
    """{m: terms} for every m in [1, limit] that at most max_terms distinct
    values sum to: the first entry of combinations(values, k), values
    descending, that sums to m, for the smallest such k.  That is the first
    answer of a depth-first search that tries the largest value first."""
    values_desc = sorted(values, reverse=True)
    # fewest[t] = fewest distinct values summing to t, by a 0/1 knapsack
    fewest = [0] + [None] * limit
    for v in values_desc:
        for t in range(limit, v - 1, -1):
            if fewest[t - v] is not None and (
                fewest[t] is None or fewest[t - v] + 1 < fewest[t]
            ):
                fewest[t] = fewest[t - v] + 1
    deepest = min(max_terms, max(k for k in fewest if k is not None))
    first = {}
    for k in range(1, deepest + 1):
        for combo in combinations(values_desc, k):
            m = sum(combo)
            if m <= limit and fewest[m] == k:
                first.setdefault(m, combo)
    return first


def strict_walk(values, limit, max_terms):
    """[(m, terms)] of the strict walk over [1, limit], and the targets whose
    rows the depth-first fallback rebuilt."""
    rebuilt = []
    real = pollock._strict_search

    def counting(*args):
        search = real(*args)

        def top(target, need, start):
            rebuilt.append(target)
            return search(target, need, start)

        return top

    layers, _ = pollock._layer_masks(values, limit, max_terms, True)
    with mock.patch.object(pollock, "_strict_search", counting):
        blocks = pollock._witnesses(1, limit, layers, values, True)
        found = []
        for targets, depths, columns in blocks:
            for m, depth, row in zip(targets, depths, zip(*columns)):
                terms = tuple(values[i - 1] for i in row if i)
                # a distinct sum has as many terms as its depth
                assert depth == len(terms)
                found.append((m, terms))
    return found, rebuilt


#: Rows of the one-family strict walks up to ORACLE_LIMIT whose indices do
#: not strictly descend, found at a walk block of 1.
FAILING_ROWS = (57, 193, 88, 1, 0)


@pytest.mark.parametrize("table_block", [7, pollock.WITNESS_BLOCK])
@pytest.mark.parametrize("family", range(5))
def test_strict_walk_of_one_family_matches_combinations(
    family, table_block, monkeypatch
):
    # a one-family pool is small enough that the first-term table's choice
    # often strands the rest of a distinct sum, which the walk must catch;
    # the rebuild searches each target at its depth, which table blocks of
    # 7 make a block at a time inside the walk's
    monkeypatch.setattr(pollock, "WITNESS_BLOCK", table_block)
    n = ORACLE_LIMIT
    form = CLOSED_FORMS[family]
    values = [form(k) for k in range(1, n + 1) if form(k) <= n]
    expected = sorted(first_distinct_sums(values, n, 25).items())
    monkeypatch.setattr(pollock, "_WALK_BLOCK", 1)
    found, failing = strict_walk(values, n, 25)
    assert first_difference(found, expected) is None
    assert len(failing) == FAILING_ROWS[family]
    # a block with one failing row is rebuilt whole
    monkeypatch.setattr(pollock, "_WALK_BLOCK", 1024)
    found, rebuilt = strict_walk(values, n, 25)
    assert first_difference(found, expected) is None
    windows = {(m - 1) // 1024 for m in failing}
    assert rebuilt == [m for m, _ in expected if (m - 1) // 1024 in windows]


@settings(max_examples=60, deadline=None)
@given(
    pool=st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=12),
    limit=st.integers(min_value=1, max_value=60),
    max_terms=st.integers(min_value=1, max_value=8),
    block=st.sampled_from([1, 1024]),
)
# the table walks 9 as 4 + 4 + 1 and 10 as 4 + 4 + 2, so both need the fallback
@example(pool={1, 2, 3, 4}, limit=10, max_terms=4, block=1)
@example(pool={1, 2, 3, 4}, limit=10, max_terms=4, block=1024)
def test_strict_walk_of_a_small_pool_matches_combinations(
    pool, limit, max_terms, block
):
    values = sorted(v for v in pool if v <= limit)
    assume(values)
    expected = sorted(first_distinct_sums(values, limit, max_terms).items())
    with mock.patch.object(pollock, "_WALK_BLOCK", block):
        found, _ = strict_walk(values, limit, max_terms)
    assert first_difference(found, expected) is None


def test_scan_million_pinned():
    # re-derived once by an independent numpy array DP over closed forms
    report = scan_conjecture(10**6)
    assert report.histogram == {1: 465, 2: 89116, 3: 910387, 4: 32, 5: 0}
    assert report.failures == ()


def test_scan_ten_million_pinned():
    # the largest scan here, 20 default windows per dense layer; the
    # figures are perfbench's scan workload pins (perfbench/workloads.py
    # PINNED), computed there by a separate array implementation
    report = scan_conjecture(10**7)
    assert report.histogram == {1: 1007, 2: 432644, 3: 9566094, 4: 255, 5: 0}
    assert report.failures == ()


def test_huge_budget_stops_at_fixpoint():
    started = time.perf_counter()
    report = scan_conjecture(100, max_terms=200_000)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert len(report.histogram) == 200_000
    five = scan_conjecture(100, max_terms=5)
    assert {k: report.histogram[k] for k in range(1, 6)} == five.histogram
    assert not any(report.histogram[k] for k in range(6, 200_001))
    assert report.failures == five.failures == ()


def test_witness_stream_refuses_before_building(capsys):
    started = time.perf_counter()
    assert cli.main(["pollock", str(10**8 + 1), "--witnesses"]) == 2
    assert time.perf_counter() - started < 1.0
    assert "ceiling" in capsys.readouterr().err
    for kwargs in ({"n": 10**8 + 1}, {"n": 10, "max_terms": 0}, {"n": 0}):
        with pytest.raises(ValueError):
            next(scan_with_witnesses(**kwargs)[1])
