"""Every public callable is bounded: a call past its ceiling is refused fast,
or its work grows with the length of its arguments, never with their value.

A name added to `platonics.__all__` that is in neither table below fails
`test_every_public_callable_is_classified`, so no size-taking entry point
ships without an over-the-ceiling case.
"""

import time

import pytest

import platonics
from platonics import (
    DEFAULT_SCAN_CEILING,
    DIFFERENCE_MAX_ROWS,
    PERIOD_MAX_MODULI,
    PERIOD_MAX_MODULUS,
    REPRESENT_MAX_DIGITS,
    SEQUENCE_MAX_INDEX,
    PlatonicKind,
)

KIND = PlatonicKind.DODECAHEDRAL

#: (name, call): one smallest call past a ceiling of that name, each of
#: which must raise ValueError naming the ceiling.
OVER_THE_CEILING = [
    ("platonic_pool", lambda f: f(DEFAULT_SCAN_CEILING + 1)),
    ("scan_conjecture", lambda f: f(DEFAULT_SCAN_CEILING + 1)),
    ("scan_with_witnesses", lambda f: f(DEFAULT_SCAN_CEILING + 1)),
    ("min_term_decomposition", lambda f: f(DEFAULT_SCAN_CEILING + 1)),
    ("platonic_values_by_recurrence", lambda f: f(KIND, SEQUENCE_MAX_INDEX + 1)),
    ("difference_table", lambda f: f(KIND, DIFFERENCE_MAX_ROWS + 1)),
    ("empirical_period", lambda f: f(KIND, PERIOD_MAX_MODULUS + 1)),
    ("check_period_claim", lambda f: f(KIND, PERIOD_MAX_MODULUS + 1)),
    ("check_period_range", lambda f: f([KIND], 2, PERIOD_MAX_MODULI + 2)),
    (
        "check_period_range",
        lambda f: f([KIND], PERIOD_MAX_MODULUS, PERIOD_MAX_MODULUS + 1),
    ),
    ("represent_multiple", lambda f: f(KIND, 10**REPRESENT_MAX_DIGITS)),
    ("represent_tetrahedral", lambda f: f(-(10**REPRESENT_MAX_DIGITS))),
]

#: Callables with no size argument: each does a fixed number of steps on
#: its arguments (closed forms, a window of at most five values, a check
#: of one witness) or one pass over a sequence the caller already holds.
#: The classes and exceptions only store what they are given.
BOUNDED_BY_INPUT = {
    "closed_form_period",
    "combined_residual_tetrahedral",
    "evaluate_representation",
    "exact_div",
    "expected_difference",
    "forward_difference",
    "identity_residual",
    "platonic_value",
    "verify_witness",
    "witness_from_values",
    "DifferenceTable",
    "IdentityCheck",
    "NotDivisibleError",
    "PeriodConsistencyError",
    "PeriodReport",
    "PlatonicKind",
    "PoolEntry",
    "Representation",
    "ScanReport",
    "Sequence",
    "Witness",
}


def test_every_public_callable_is_classified():
    public = {name for name in platonics.__all__ if callable(getattr(platonics, name))}
    ceilinged = {name for name, _ in OVER_THE_CEILING}
    assert not ceilinged & BOUNDED_BY_INPUT
    assert sorted(public - ceilinged - BOUNDED_BY_INPUT) == []
    # a name that left the package leaves the tables too
    assert sorted((ceilinged | BOUNDED_BY_INPUT) - public) == []


@pytest.mark.parametrize(
    "name, call", OVER_THE_CEILING, ids=[name for name, _ in OVER_THE_CEILING]
)
def test_over_the_ceiling_call_is_refused_fast(name, call):
    started = time.perf_counter()
    with pytest.raises(ValueError, match="ceiling"):
        call(getattr(platonics, name))
    assert time.perf_counter() - started < 1.0
