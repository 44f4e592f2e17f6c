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
    pollock,
)

KIND = PlatonicKind.DODECAHEDRAL
MAX_TERMS_CEILING = pollock.MAX_TERMS_CEILING

#: (name, call): one smallest call past a ceiling of that name, each of
#: which must raise ValueError naming the ceiling.
OVER_THE_CEILING = [
    ("platonic_pool", lambda f: f(DEFAULT_SCAN_CEILING + 1)),
    ("scan_conjecture", lambda f: f(DEFAULT_SCAN_CEILING + 1)),
    ("scan_with_witnesses", lambda f: f(DEFAULT_SCAN_CEILING + 1)),
    ("min_term_decomposition", lambda f: f(DEFAULT_SCAN_CEILING + 1)),
    # the term budget, in every mode
    ("scan_conjecture", lambda f: f(10, max_terms=MAX_TERMS_CEILING + 1)),
    ("scan_with_witnesses", lambda f: f(10, max_terms=MAX_TERMS_CEILING + 1)),
    ("min_term_decomposition", lambda f: f(10, max_terms=MAX_TERMS_CEILING + 1)),
    # strict layer bits: min(50, 1007 pool values) * (10**7 + 1) is just past
    # 5 * (DEFAULT_SCAN_CEILING + 1), and so is 6 layers at the scan ceiling
    ("scan_conjecture", lambda f: f(10**7, max_terms=50, strict_distinct=True)),
    ("scan_with_witnesses", lambda f: f(10**7, max_terms=50, strict_distinct=True)),
    ("min_term_decomposition", lambda f: f(10**7, max_terms=50, strict_distinct=True)),
    (
        "scan_conjecture",
        lambda f: f(DEFAULT_SCAN_CEILING, max_terms=6, strict_distinct=True),
    ),
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


class LayersStarted(Exception):
    """Raised in place of the layer build: the scan got past its checks."""


def refuse_layers(*args):
    raise LayersStarted


@pytest.mark.parametrize(
    "n, max_terms, strict_distinct",
    [
        (10, MAX_TERMS_CEILING, False),
        (10, MAX_TERMS_CEILING, True),
        (10**7, 49, True),
        (DEFAULT_SCAN_CEILING, 5, True),
    ],
)
@pytest.mark.parametrize(
    "name", ["scan_conjecture", "scan_with_witnesses", "min_term_decomposition"]
)
def test_budget_at_the_ceiling_is_accepted(
    name, n, max_terms, strict_distinct, monkeypatch
):
    # the largest budgets allowed pass every check and reach the layer build
    monkeypatch.setattr(pollock, "_layer_masks", refuse_layers)
    with pytest.raises(LayersStarted):
        getattr(platonics, name)(n, max_terms, strict_distinct)
