"""Exact arithmetic for the platonic numbers.

Five figurate families (tetrahedral, octahedral, cube, icosahedral,
dodecahedral), their forward-difference identities, constructive four-term
integer combinations, modular periods with an empirical cross-check, and a
bounded search for decompositions into at most five platonic numbers.
"""

from .identities import (
    IdentityCheck,
    THIRD_DIFFERENCE_CONSTANTS,
    combined_residual_tetrahedral,
    expected_difference,
    identity_residual,
)
from .periodicity import (
    PERIOD_MAX_MODULI,
    PERIOD_MAX_MODULUS,
    PeriodConsistencyError,
    PeriodReport,
    check_period_claim,
    check_period_range,
    closed_form_period,
    empirical_period,
)
from .pollock import (
    DEFAULT_SCAN_CEILING,
    PoolEntry,
    ScanReport,
    Witness,
    min_term_decomposition,
    platonic_pool,
    scan_conjecture,
    scan_with_witnesses,
    verify_witness,
    witness_from_values,
)
from .representations import (
    COMBINATION_COEFFICIENTS,
    COMBINATION_MODULUS,
    REPRESENT_MAX_DIGITS,
    NotDivisibleError,
    Representation,
    evaluate_representation,
    represent_multiple,
    represent_tetrahedral,
)
from .sequences import (
    DIFFERENCE_MAX_ROWS,
    SEQUENCE_MAX_INDEX,
    DifferenceTable,
    PlatonicKind,
    RECURRENCE_COEFFICIENTS,
    Sequence,
    difference_table,
    exact_div,
    forward_difference,
    platonic_value,
    platonic_values_by_recurrence,
)

__version__ = "0.1.0"

__all__ = [
    "COMBINATION_COEFFICIENTS",
    "COMBINATION_MODULUS",
    "DEFAULT_SCAN_CEILING",
    "DIFFERENCE_MAX_ROWS",
    "DifferenceTable",
    "IdentityCheck",
    "NotDivisibleError",
    "PERIOD_MAX_MODULI",
    "PERIOD_MAX_MODULUS",
    "PeriodConsistencyError",
    "PeriodReport",
    "PlatonicKind",
    "PoolEntry",
    "RECURRENCE_COEFFICIENTS",
    "REPRESENT_MAX_DIGITS",
    "Representation",
    "SEQUENCE_MAX_INDEX",
    "ScanReport",
    "Sequence",
    "THIRD_DIFFERENCE_CONSTANTS",
    "Witness",
    "check_period_claim",
    "check_period_range",
    "closed_form_period",
    "combined_residual_tetrahedral",
    "difference_table",
    "empirical_period",
    "evaluate_representation",
    "exact_div",
    "expected_difference",
    "forward_difference",
    "identity_residual",
    "min_term_decomposition",
    "platonic_pool",
    "platonic_value",
    "platonic_values_by_recurrence",
    "represent_multiple",
    "represent_tetrahedral",
    "scan_conjecture",
    "scan_with_witnesses",
    "verify_witness",
    "witness_from_values",
]
