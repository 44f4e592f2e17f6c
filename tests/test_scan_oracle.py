"""Scan results against oracles that share no code with the layer engine.

The minimum term counts come from a plain dynamic program over platonic
values computed here from their closed forms, so a fault in the pool or in
any layer method of the engine shows up as a disagreement.
"""

import io
import json
import time
from contextlib import redirect_stdout
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platonics import (
    cli,
    iter_witnesses,
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
def test_scan_matches_dynamic_program(n, max_terms):
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
    for witness in iter_witnesses(n, max_terms=max_terms):
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
    for witness in iter_witnesses(n, max_terms=max_terms):
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
        assert min_term_decomposition(m, pool, max_terms).term_values == PATHS[m]


@pytest.mark.parametrize("block", [1, 7, 1000, 2500])
def test_witness_text_at_any_walk_block(block, monkeypatch):
    # m's text is cut at its thousands, and the runs of targets that share
    # them meet the walk's blocks in every way: blocks of 1 and 7 cut a run
    # into many blocks, blocks of 1000 end each run one target into the
    # next (the range starts at 1), and blocks of 2500 hold whole runs
    monkeypatch.setattr(pollock, "_WALK_BLOCK", block)
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


def flatten(blocks, block, values):
    """(m, term values) of every target of a block stream over [1, n], after
    checking the shape of each block against a block size of `block`."""
    value_at = [0, *values]
    found = []
    windows = []
    for targets, columns in blocks:
        assert targets == sorted(targets)
        # a block's targets share one window of the range, and no window
        # comes twice
        window = (targets[0] - 1) // block
        assert (targets[-1] - 1) // block == window
        assert not windows or windows[-1] < window
        windows.append(window)
        assert all(len(column) == len(targets) for column in columns)
        for m, row in zip(targets, zip(*columns)):
            terms = tuple(value_at[i] for i in row if i)
            # the zeros come after the last term
            assert not any(row[len(terms) :])
            found.append((m, terms))
    return found, windows


@pytest.mark.parametrize("block", [1, 7, 64, 1000])
def test_witness_blocks_join_up(block, monkeypatch):
    n = ORACLE_LIMIT
    values = platonic_values_upto(n)
    strict_n = 300
    strict = [
        (w.target, w.term_values)
        for w in iter_witnesses(strict_n, strict_distinct=True)
    ]
    # blocks that are not whole bytes put block edges inside layer bytes
    monkeypatch.setattr(pollock, "WITNESS_BLOCK", block)
    monkeypatch.setattr(pollock, "_WALK_BLOCK", block)
    # the table names the first term of every reachable target at every
    # depth and nothing else; every step of the walk is one of its entries
    masks = pollock._layer_masks(values, n, 5, False)
    layer_bytes = [pollock._mask_bytes(mask, n) for mask in masks]
    first = pollock._first_terms(layer_bytes, values, n)
    got = [values[i - 1] if i else None for i in first]
    assert got == [PATHS[t][0] if 1 <= DEPTH[t] <= 5 else None for t in range(n + 1)]
    for max_terms in (2, 5):
        reachable = [t for t in range(1, n + 1) if DEPTH[t] <= max_terms]
        blocks = pollock._scan_terms(n, max_terms, False)[2]
        found, windows = flatten(blocks, block, values)
        assert found == [(t, PATHS[t]) for t in reachable]
        # a window with no reachable target yields no block
        assert windows == sorted({(t - 1) // block for t in reachable})
        if max_terms == 2 and block < 64:
            assert len(windows) < -(-n // block)
    blocks = pollock._scan_terms(strict_n, 5, True)[2]
    assert flatten(blocks, block, values)[0] == strict


def test_scan_million_pinned():
    # re-derived once by an independent numpy array DP over closed forms
    report = scan_conjecture(10**6)
    assert report.histogram == {1: 465, 2: 89116, 3: 910387, 4: 32, 5: 0}
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
            next(iter_witnesses(**kwargs))
