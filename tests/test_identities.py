"""Difference identities: closed-form sides vs raw-value differences."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platonics import (
    PlatonicKind,
    THIRD_DIFFERENCE_CONSTANTS,
    combined_residual_tetrahedral,
    expected_difference,
    identities,
    identity_residual,
    platonic_value,
    sequences,
)
from platonics.identities import _identity_columns


def test_second_order_dodecahedral_at_one():
    check = identity_residual(PlatonicKind.DODECAHEDRAL, 2, 1)
    assert check.expected == 45 == 27 * 1 + 18
    assert check.actual == 84 - 2 * 20 + 1
    assert check.holds


def test_third_order_icosahedral_is_constant():
    for n in (1, 5, 40):
        check = identity_residual(PlatonicKind.ICOSAHEDRAL, 3, n)
        assert check.expected == 15
        assert check.actual == 15


def test_fourth_order_cube_at_one():
    check = identity_residual(PlatonicKind.CUBE, 4, 1)
    assert check.expected == 0
    assert check.actual == 125 - 256 + 162 - 32 + 1 == 0


def test_first_order_tetrahedral_at_three():
    check = identity_residual(PlatonicKind.TETRAHEDRAL, 1, 3)
    assert check.expected == 10
    assert check.actual == platonic_value(PlatonicKind.TETRAHEDRAL, 4) - 10


@pytest.mark.parametrize("kind", list(PlatonicKind))
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_identities_hold_over_range(kind, order):
    for n in range(1, 121):
        assert identity_residual(kind, order, n).holds


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(list(PlatonicKind)),
    lo=st.integers(min_value=1, max_value=10**6),
    width=st.integers(min_value=0, max_value=60),
)
def test_identity_checks_match_binomial_sums(kind, lo, width):
    # Independent oracle: the order-k forward difference at n is
    # sum_j (-1)**(k-j) * C(k, j) * f(n+j), with no differencing code shared.
    # One call covers every order, one pair of columns per order.
    hi = lo + width
    columns = _identity_columns(kind, lo, hi)
    assert len(columns) == 4
    for order, (expected, actual) in enumerate(columns, 1):
        oracle = [
            sum(
                (-1) ** (order - j) * comb(order, j) * platonic_value(kind, n + j)
                for j in range(order + 1)
            )
            for n in range(lo, hi + 1)
        ]
        assert actual == oracle
        assert expected == oracle


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_identity_checks_compute_each_value_once(kind, monkeypatch):
    # All four orders share one window of hi - lo + 5 values: order 4 at hi
    # reads the value at hi + 4.
    calls = 0
    real = sequences.platonic_value

    def counting(kind, n):
        nonlocal calls
        calls += 1
        return real(kind, n)

    monkeypatch.setattr(sequences, "platonic_value", counting)
    for lo, hi in [(1, 1), (1, 50), (999_990, 10**6)]:
        calls = 0
        columns = _identity_columns(kind, lo, hi)
        assert [len(c) for pair in columns for c in pair] == [hi - lo + 1] * 8
        assert calls == hi - lo + 5


def exact_difference(kind, order, n):
    """The order-k forward difference at n of the exact values N(m)/q of a
    family's closed-form numerator N and divisor q, as a Fraction."""
    numerator, divisor = sequences._CLOSED_FORMS[kind]
    values = [Fraction(numerator(m), divisor) for m in range(n, n + order + 1)]
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values[0]


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_identities_hold_at_every_index(kind):
    # A certificate, not a sample.  Each family is a cubic in n, so its
    # order-k difference is a polynomial of degree 3 - k, and each order-1
    # and order-2 right-hand side below is written as a polynomial of degree
    # <= 2 in n.  Two such polynomials that agree at three points are equal,
    # so n = 1, 2, 3 prove those identities at every n; orders 3 and 4
    # compare constants, so n = 1 proves them.
    first = identities._FIRST_DIFFERENCE_RHS[kind]
    second = identities._SECOND_DIFFERENCE_RHS[kind]
    for n in (1, 2, 3):
        assert first(n) == exact_difference(kind, 1, n)
        assert second(n) == exact_difference(kind, 2, n)
    assert THIRD_DIFFERENCE_CONSTANTS[kind] == exact_difference(kind, 3, 1)
    assert exact_difference(kind, 4, 1) == 0


def test_third_order_constants():
    assert THIRD_DIFFERENCE_CONSTANTS == {
        PlatonicKind.TETRAHEDRAL: 1,
        PlatonicKind.OCTAHEDRAL: 4,
        PlatonicKind.CUBE: 6,
        PlatonicKind.ICOSAHEDRAL: 15,
        PlatonicKind.DODECAHEDRAL: 27,
    }
    for kind, constant in THIRD_DIFFERENCE_CONSTANTS.items():
        assert identity_residual(kind, 3, 77).actual == constant


def test_combined_residual_examples():
    assert combined_residual_tetrahedral(1) == 1
    assert combined_residual_tetrahedral(7) == 7
    assert combined_residual_tetrahedral(100) == 100


def test_combined_residual_full_range():
    for n in range(1, 10_001):
        assert combined_residual_tetrahedral(n) == n


def test_validation():
    with pytest.raises(ValueError):
        identity_residual(PlatonicKind.CUBE, 0, 1)
    with pytest.raises(ValueError):
        identity_residual(PlatonicKind.CUBE, 5, 1)
    # identity_residual checks the order first, so only a direct call reaches
    # the closed form's own check
    with pytest.raises(ValueError, match="order must be in 1..4, got 5"):
        expected_difference(PlatonicKind.CUBE, 5, 1)
    with pytest.raises(ValueError):
        identity_residual(PlatonicKind.CUBE, 2, 0)
    with pytest.raises(ValueError):
        combined_residual_tetrahedral(0)
