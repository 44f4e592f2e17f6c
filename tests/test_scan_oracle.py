"""Scan results against oracles that share no code with the layer engine.

The minimum term counts come from a plain dynamic program over platonic
values computed here from their closed forms, so a fault in the pool or in
any layer method of the engine shows up as a disagreement.
"""

import json
import time

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


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=ORACLE_LIMIT),
    max_terms=st.integers(min_value=1, max_value=6),
)
@example(n=ORACLE_LIMIT, max_terms=5)
@example(n=2, max_terms=2)
def test_witnesses_follow_the_largest_first_path(n, max_terms):
    pool = platonic_pool(n)
    # the CLI formats the plain values of the same walk
    _, _, found = pollock._scan_terms(n, max_terms, False)
    targets = []
    first_of_depth = {}
    stream = iter_witnesses(n, max_terms=max_terms)
    for witness, (m, terms) in zip(stream, found, strict=True):
        path = PATHS[witness.target]
        assert witness.term_values == path
        assert witness == witness_from_values(witness.target, path, pool)
        assert (m, terms) == (witness.target, witness.term_values)
        assert cli._witness_line(m, terms) == json.dumps(witness.to_json_dict()) + "\n"
        targets.append(witness.target)
        first_of_depth.setdefault(len(witness.terms), witness.target)
    assert targets == [t for t in range(1, n + 1) if DEPTH[t] <= max_terms]
    # a single target takes the same walk as the stream
    for m in {*first_of_depth.values(), *targets[-1:]}:
        assert min_term_decomposition(m, pool, max_terms).term_values == PATHS[m]


@pytest.mark.parametrize("block", [1, 7, 64, 1000])
def test_witness_blocks_join_up(block, monkeypatch):
    # blocks that are not whole bytes put block edges inside layer bytes
    monkeypatch.setattr(pollock, "WITNESS_BLOCK", block)
    n = ORACLE_LIMIT
    found = list(pollock._scan_terms(n, 5, False)[2])
    assert found == [(t, PATHS[t]) for t in range(1, n + 1) if DEPTH[t] <= 5]
    # the bulk pass gives the first term of every depth-3 target and no other;
    # the walk would probe for a target it missed, so check its table too
    values = platonic_values_upto(n)
    masks = pollock._layer_masks(values, n, 5, False)
    layer_bytes = [pollock._mask_bytes(mask, n) for mask in masks]
    for lo in range(1, n + 1, block):
        hi = min(lo + block, n + 1)
        first = pollock._first_terms(lo, hi, layer_bytes, values)
        got = [values[i - 1] if i else None for i in first]
        assert got == [PATHS[t][0] if DEPTH[t] == 3 else None for t in range(lo, hi)]


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
