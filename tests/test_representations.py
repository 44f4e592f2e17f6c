"""Four-term combination representations: round trips and divisibility."""

import random
import sys
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platonics import (
    COMBINATION_COEFFICIENTS,
    COMBINATION_MODULUS,
    REPRESENT_MAX_DIGITS,
    NotDivisibleError,
    PlatonicKind,
    Representation,
    evaluate_representation,
    platonic_value,
    represent_multiple,
    represent_tetrahedral,
)


def test_tetrahedral_positive():
    rep = represent_tetrahedral(1)
    assert rep.base_index == 1
    assert rep.coefficients == (3, -8, 7, -2)
    assert rep.values == (1, 4, 10, 20)
    assert evaluate_representation(rep) == 3 - 32 + 70 - 40 == 1


def test_tetrahedral_zero_uses_base_zero():
    rep = represent_tetrahedral(0)
    assert rep.base_index == 0
    assert rep.values == (0, 1, 4, 10)
    assert evaluate_representation(rep) == 0


def test_tetrahedral_negative():
    rep = represent_tetrahedral(-5)
    assert rep.base_index == 5
    assert rep.coefficients == (-3, 8, -7, 2)
    assert evaluate_representation(rep) == -105 + 448 - 588 + 240 == -5


def test_tetrahedral_round_trip_sweep():
    for m in range(-2000, 2001):
        assert evaluate_representation(represent_tetrahedral(m)) == m


def test_cube_multiple():
    rep = represent_multiple(PlatonicKind.CUBE, 6)
    assert rep.base_index == 1
    assert evaluate_representation(rep) == 2 - 40 + 108 - 64 == 6


def test_icosahedral_multiple():
    rep = represent_multiple(PlatonicKind.ICOSAHEDRAL, 90)
    assert rep.base_index == 2
    assert evaluate_representation(rep) == 60 - 576 + 1116 - 510 == 90


def test_octahedral_not_divisible():
    with pytest.raises(NotDivisibleError) as info:
        represent_multiple(PlatonicKind.OCTAHEDRAL, 7)
    assert info.value.modulus == 4
    assert info.value.target == 7


def test_dodecahedral_zero():
    rep = represent_multiple(PlatonicKind.DODECAHEDRAL, 0)
    assert rep.base_index == 0
    assert evaluate_representation(rep) == 0


def test_dodecahedral_combination_slope_is_81():
    # The tuple (5, -12, 9, -2) over four consecutive dodecahedral values
    # based at n evaluates to exactly 81*n; that pins the modulus.
    coeffs = COMBINATION_COEFFICIENTS[PlatonicKind.DODECAHEDRAL]
    for n in range(0, 51):
        value = sum(
            c * platonic_value(PlatonicKind.DODECAHEDRAL, n + j)
            for j, c in enumerate(coeffs)
        )
        assert value == 81 * n
    assert COMBINATION_MODULUS[PlatonicKind.DODECAHEDRAL] == 81


def test_dodecahedral_rejects_non_multiples_of_81():
    with pytest.raises(NotDivisibleError) as info:
        represent_multiple(PlatonicKind.DODECAHEDRAL, 54)
    assert info.value.modulus == 81
    rep = represent_multiple(PlatonicKind.DODECAHEDRAL, 81)
    assert rep.base_index == 1
    assert evaluate_representation(rep) == 81
    assert evaluate_representation(
        represent_multiple(PlatonicKind.DODECAHEDRAL, 162)
    ) == 162


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_constrained_round_trip_sweep(kind):
    modulus = COMBINATION_MODULUS[kind]
    for q in range(0, 101):
        for m in (modulus * q, -modulus * q):
            rep = represent_multiple(kind, m)
            assert rep.base_index == abs(m) // modulus
            assert evaluate_representation(rep) == m


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_not_divisible_exactly_when_remainder(kind):
    modulus = COMBINATION_MODULUS[kind]
    for m in range(-200, 201):
        if m % modulus == 0:
            assert evaluate_representation(represent_multiple(kind, m)) == m
        else:
            with pytest.raises(NotDivisibleError):
                represent_multiple(kind, m)


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_four_nonzero_coefficients_at_consecutive_indices(kind):
    rep = represent_multiple(kind, 6 * COMBINATION_MODULUS[kind])
    assert len(rep.coefficients) == 4
    assert all(c != 0 for c in rep.coefficients)
    assert rep.indices == tuple(rep.base_index + j for j in range(4))


def test_evaluate_hand_built():
    rep = Representation(
        kind=PlatonicKind.TETRAHEDRAL,
        base_index=1,
        coefficients=(1, 1, 1, 1),
        target=35,
    )
    assert evaluate_representation(rep) == 1 + 4 + 10 + 20 == 35


def test_json_dict_checks_hand_built_representations():
    # the values' text is checked as represent_multiple checks the ints
    rep = Representation(
        kind=PlatonicKind.TETRAHEDRAL,
        base_index=1,
        coefficients=(1, 1, 1, 1),
        target=36,
    )
    with pytest.raises(ArithmeticError, match="evaluated to 35 in decimal"):
        rep.to_json_dict()
    rep = Representation(
        kind=PlatonicKind.CUBE, base_index=-1, coefficients=(2, -5, 4, -1), target=-6
    )
    with pytest.raises(ValueError, match="index must be >= 0, got -1"):
        rep.to_json_dict()


def test_round_trip_contract_examples():
    assert evaluate_representation(represent_tetrahedral(42)) == 42
    assert evaluate_representation(
        represent_multiple(PlatonicKind.DODECAHEDRAL, 81 * 7)
    ) == 81 * 7


def test_json_dict_shape():
    payload = represent_tetrahedral(42).to_json_dict()
    assert payload == {
        "kind": "tetrahedral",
        "base_index": 42,
        "coefficients": [3, -8, 7, -2],
        "indices": [42, 43, 44, 45],
        "values": ["13244", "14190", "15180", "16215"],
        "target": "42",
    }


@pytest.mark.parametrize("sign", [1, -1])
def test_target_over_the_ceiling_is_refused(sign):
    # the smallest target over the ceiling, and one that is a multiple of
    # every modulus, so that only the ceiling can refuse it
    for target in (10**REPRESENT_MAX_DIGITS, 81 * 10**REPRESENT_MAX_DIGITS):
        for kind in PlatonicKind:
            started = time.perf_counter()
            with pytest.raises(ValueError, match=f"more than {REPRESENT_MAX_DIGITS}"):
                represent_multiple(kind, sign * target)
            assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_largest_allowed_target_round_trips(kind):
    modulus = COMBINATION_MODULUS[kind]
    largest = (10**REPRESENT_MAX_DIGITS - 1) // modulus * modulus
    for target in (largest, -largest):
        rep = represent_multiple(kind, target)
        assert rep.base_index == largest // modulus
        assert evaluate_representation(rep) == target


@contextmanager
def int_text_unlimited():
    """Lift the interpreter's int/str digit limit, so that `str` of the
    values can serve as the oracle of their decimal text."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def assert_values_text_is_str(kind, target):
    rep = represent_multiple(kind, target)
    with int_text_unlimited():
        assert rep.to_json_dict()["values"] == [str(v) for v in rep.values]


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_values_text_matches_str_at_every_size(kind):
    """The decimal text of the values equals `str` of the int values, for
    both signs, at every digit count up to 60, around the default 4300-digit
    limit and at the ceiling: for the largest multiple of the modulus with
    that many digits and a seeded one."""
    modulus = COMBINATION_MODULUS[kind]
    rng = random.Random(f"values-text-{kind.value}")
    assert_values_text_is_str(kind, 0)
    for digits in [*range(1, 61), 4299, 4300, 4301, REPRESENT_MAX_DIGITS]:
        largest = (10**digits - 1) // modulus * modulus
        seeded = rng.randrange(10 ** (digits - 1), 10**digits) // modulus * modulus
        for target in (largest, seeded):
            assert_values_text_is_str(kind, target)
            assert_values_text_is_str(kind, -target)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(PlatonicKind)),
    sign=st.sampled_from([1, -1]),
    digits=st.integers(1, 3000),
    data=st.data(),
)
def test_values_text_matches_str_property(kind, sign, digits, data):
    value = data.draw(st.integers(0, 10**digits - 1), label="value")
    modulus = COMBINATION_MODULUS[kind]
    assert_values_text_is_str(kind, sign * (value // modulus * modulus))
