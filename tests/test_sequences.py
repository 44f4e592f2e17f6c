"""Sequence generation and forward differencing against known values."""

import math
import random
import time

import pytest

from platonics import (
    DIFFERENCE_MAX_ROWS,
    SEQUENCE_MAX_INDEX,
    PlatonicKind,
    difference_table,
    exact_div,
    forward_difference,
    platonic_value,
    platonic_values_by_recurrence,
)

FIRST_TEN = {
    PlatonicKind.TETRAHEDRAL: (1, 4, 10, 20, 35, 56, 84, 120, 165, 220),
    PlatonicKind.OCTAHEDRAL: (1, 6, 19, 44, 85, 146, 231, 344, 489, 670),
    PlatonicKind.CUBE: (1, 8, 27, 64, 125, 216, 343, 512, 729, 1000),
    PlatonicKind.ICOSAHEDRAL: (1, 12, 48, 124, 255, 456, 742, 1128, 1629, 2260),
    PlatonicKind.DODECAHEDRAL: (1, 20, 84, 220, 455, 816, 1330, 2024, 2925, 4060),
}


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_first_ten_values(kind):
    assert tuple(platonic_value(kind, n) for n in range(1, 11)) == FIRST_TEN[kind]


def test_point_values():
    assert platonic_value(PlatonicKind.TETRAHEDRAL, 9) == 165
    assert platonic_value(PlatonicKind.DODECAHEDRAL, 10) == 4060
    assert platonic_value(PlatonicKind.ICOSAHEDRAL, 0) == 0
    assert platonic_value(PlatonicKind.OCTAHEDRAL, 100) == 666700


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_index_zero_is_zero(kind):
    assert platonic_value(kind, 0) == 0


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_negative_index_rejected(kind):
    with pytest.raises(ValueError):
        platonic_value(kind, -1)


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_recurrence_matches_closed_form(kind):
    seq = platonic_values_by_recurrence(kind, 300)
    assert seq.start_index == 1
    for offset, value in enumerate(seq.values):
        assert value == platonic_value(kind, offset + 1)


def test_recurrence_examples():
    assert platonic_values_by_recurrence(PlatonicKind.CUBE, 10).values == FIRST_TEN[
        PlatonicKind.CUBE
    ]
    assert platonic_values_by_recurrence(PlatonicKind.TETRAHEDRAL, 5).values[-1] == 35
    # count <= 4 is pure seed, no recurrence step
    assert platonic_values_by_recurrence(PlatonicKind.OCTAHEDRAL, 4).values == (
        1,
        6,
        19,
        44,
    )


def test_recurrence_count_validation():
    with pytest.raises(ValueError):
        platonic_values_by_recurrence(PlatonicKind.CUBE, 0)


def test_sizes_over_the_ceiling_rejected():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"ceiling {SEQUENCE_MAX_INDEX}"):
        platonic_values_by_recurrence(PlatonicKind.CUBE, SEQUENCE_MAX_INDEX + 1)
    with pytest.raises(ValueError, match=f"ceiling {DIFFERENCE_MAX_ROWS}"):
        difference_table(PlatonicKind.CUBE, DIFFERENCE_MAX_ROWS + 1)
    assert time.perf_counter() - start < 1.0


def test_difference_rows_ceiling_is_inclusive():
    table = difference_table(PlatonicKind.CUBE, DIFFERENCE_MAX_ROWS)
    assert table.orders[0][-1] == DIFFERENCE_MAX_ROWS**3
    assert set(table.orders[4]) == {0}


def test_forward_difference_examples():
    assert forward_difference([1, 4, 10, 20, 35], 1) == [3, 6, 10, 15]
    assert forward_difference([1, 19, 84], 0) == [1, 19, 84]
    assert forward_difference([1, 12, 48, 124, 255], 3) == [15, 15]


def test_forward_difference_validation():
    with pytest.raises(ValueError):
        forward_difference([1, 2], 2)
    with pytest.raises(ValueError):
        forward_difference([1, 2, 3], 5)
    with pytest.raises(ValueError):
        forward_difference([1, 2, 3], -1)


def test_forward_difference_linearity():
    rng = random.Random(20260808)
    for _ in range(20):
        x = [rng.randrange(-1000, 1000) for _ in range(8)]
        y = [rng.randrange(-1000, 1000) for _ in range(8)]
        a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
        combined = [a * xi + b * yi for xi, yi in zip(x, y)]
        for order in range(5):
            dx = forward_difference(x, order)
            dy = forward_difference(y, order)
            expected = [a * u + b * v for u, v in zip(dx, dy)]
            assert forward_difference(combined, order) == expected


def test_iterated_first_order_equals_fourth_order():
    values = [platonic_value(PlatonicKind.ICOSAHEDRAL, n) for n in range(1, 12)]
    once = values
    for _ in range(4):
        once = forward_difference(once, 1)
    assert once == forward_difference(values, 4)


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_fourth_difference_vanishes(kind):
    for start in (1, 17, 240):
        window = [platonic_value(kind, start + j) for j in range(9)]
        assert forward_difference(window, 4) == [0] * 5


def test_difference_table_dodecahedral():
    table = difference_table(PlatonicKind.DODECAHEDRAL, 6)
    assert table.orders[0] == (1, 20, 84, 220, 455, 816)
    assert table.orders[1] == (19, 64, 136, 235, 361)
    assert table.orders[2] == (45, 72, 99, 126)
    assert table.orders[3] == (27, 27, 27)
    assert table.orders[4] == (0, 0)


def test_difference_table_cube():
    table = difference_table(PlatonicKind.CUBE, 8)
    assert set(table.orders[3]) == {6}
    assert set(table.orders[4]) == {0}


def test_difference_table_minimum_rows():
    table = difference_table(PlatonicKind.TETRAHEDRAL, 5)
    assert table.orders[4] == (0,)
    with pytest.raises(ValueError):
        difference_table(PlatonicKind.TETRAHEDRAL, 4)


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_difference_table_column_lengths(kind):
    table = difference_table(kind, 9)
    for order, column in enumerate(table.orders):
        assert len(column) == 9 - order


def test_large_index_exact():
    n = 10**6
    # binomial(n+2, 3) is an independent route to the same product
    assert platonic_value(PlatonicKind.TETRAHEDRAL, n) == math.comb(n + 2, 3)
    assert platonic_value(PlatonicKind.CUBE, n) == n**3
    # the closed forms divide exactly, and a remainder is an error, not a
    # rounded value
    with pytest.raises(ArithmeticError, match="7 is not divisible by 2"):
        exact_div(7, 2)
