"""Difference identities: closed-form sides vs raw-value differences."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platonics import (
    PlatonicKind,
    THIRD_DIFFERENCE_CONSTANTS,
    combined_residual_tetrahedral,
    expected_difference,
    identity_residual,
    platonic_value,
)
from platonics.identities import _identity_checks


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
    order=st.integers(min_value=1, max_value=4),
    lo=st.integers(min_value=1, max_value=10**6),
    width=st.integers(min_value=0, max_value=60),
)
def test_identity_checks_match_binomial_sums(kind, order, lo, width):
    # Independent oracle: the order-k forward difference at n is
    # sum_j (-1)**(k-j) * C(k, j) * f(n+j), with no differencing code shared.
    hi = lo + width
    checks = list(_identity_checks(kind, order, lo, hi))
    assert [c.index for c in checks] == list(range(lo, hi + 1))
    for check in checks:
        n = check.index
        oracle = sum(
            (-1) ** (order - j) * comb(order, j) * platonic_value(kind, n + j)
            for j in range(order + 1)
        )
        assert (check.kind, check.order) == (kind, order)
        assert check.actual == oracle
        assert check.holds


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
