"""Closed-form identities for the forward differences of each family.

For each family the order-1 and order-2 differences are quadratic and
linear polynomials in the index, the order-3 difference is a constant, and
the order-4 difference vanishes.  `identity_residual` evaluates both sides
of the matching identity so a disagreement is diagnosable, not just
detectable.

One column producer, `_identity_columns`, gives a run of indices two lists
of ints per order: the closed form mapped over the run, and the
differences of one window of its values.  One pass of differencing per
order serves all four orders, so each value is computed once per family
and run, not once per index or order, and no object is made per index.
`verify-identities` renders the columns as they are; `identity_residual`
makes its `IdentityCheck` from the columns of a one-index run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sequences import PlatonicKind, _difference_columns, exact_div

# Right-hand sides of the order-1 identities.  The halves that appear for
# the tetrahedral, icosahedral, and dodecahedral families are evaluated as
# exact integer divisions of even numerators.
_FIRST_DIFFERENCE_RHS = {
    PlatonicKind.TETRAHEDRAL: lambda n: exact_div(n * n + 3 * n + 2, 2),
    PlatonicKind.OCTAHEDRAL: lambda n: 2 * n * n + 2 * n + 1,
    PlatonicKind.CUBE: lambda n: 3 * n * n + 3 * n + 1,
    PlatonicKind.ICOSAHEDRAL: lambda n: exact_div(15 * n * n + 5 * n + 2, 2),
    PlatonicKind.DODECAHEDRAL: lambda n: exact_div(27 * n * n + 9 * n + 2, 2),
}

_SECOND_DIFFERENCE_RHS = {
    PlatonicKind.TETRAHEDRAL: lambda n: n + 2,
    PlatonicKind.OCTAHEDRAL: lambda n: 4 * n + 4,
    PlatonicKind.CUBE: lambda n: 6 * n + 6,
    PlatonicKind.ICOSAHEDRAL: lambda n: 15 * n + 10,
    PlatonicKind.DODECAHEDRAL: lambda n: 27 * n + 18,
}

#: The constant order-3 forward difference of each family.
THIRD_DIFFERENCE_CONSTANTS = {
    PlatonicKind.TETRAHEDRAL: 1,
    PlatonicKind.OCTAHEDRAL: 4,
    PlatonicKind.CUBE: 6,
    PlatonicKind.ICOSAHEDRAL: 15,
    PlatonicKind.DODECAHEDRAL: 27,
}


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of one difference identity at one index."""

    kind: PlatonicKind
    order: int
    index: int
    expected: int
    actual: int
    holds: bool


def expected_difference(kind: PlatonicKind, order: int, n: int) -> int:
    """Closed-form right-hand side for the order-k difference at index n."""
    if order == 1:
        return _FIRST_DIFFERENCE_RHS[kind](n)
    if order == 2:
        return _SECOND_DIFFERENCE_RHS[kind](n)
    if order == 3:
        return THIRD_DIFFERENCE_CONSTANTS[kind]
    if order == 4:
        return 0
    raise ValueError(f"order must be in 1..4, got {order}")


def _identity_columns(
    kind: PlatonicKind, lo: int, hi: int
) -> list[tuple[list[int], list[int]]]:
    """The expected and the actual column of each order 1..4, one entry per
    index n in [lo, hi].

    The actual columns are the differences of one window of hi - lo + 5
    values, cut to the range; the expected ones map each order's closed
    form over it.
    """
    if lo < 1:
        raise ValueError(f"index must be >= 1, got {lo}")
    count = hi - lo + 1
    indices = range(lo, hi + 1)
    expected = [
        list(map(_FIRST_DIFFERENCE_RHS[kind], indices)),
        list(map(_SECOND_DIFFERENCE_RHS[kind], indices)),
        [THIRD_DIFFERENCE_CONSTANTS[kind]] * count,
        [0] * count,
    ]
    actual = _difference_columns(kind, lo, count + 4)[1:]
    return [
        (column, differences[:count]) for column, differences in zip(expected, actual)
    ]


def identity_residual(kind: PlatonicKind, order: int, n: int) -> IdentityCheck:
    """Evaluate one identity: closed form vs. raw-value differences."""
    if not 1 <= order <= 4:
        raise ValueError(f"order must be in 1..4, got {order}")
    (expected,), (actual,) = _identity_columns(kind, n, n)[order - 1]
    return IdentityCheck(kind, order, n, expected, actual, expected == actual)


def combined_residual_tetrahedral(n: int) -> int:
    """Second minus twice the third difference of the tetrahedral family.

    Computed from raw values; equals n for every n >= 1, which is the fact
    that turns differencing into a four-term representation of any integer.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    _, _, second, third, _ = _difference_columns(PlatonicKind.TETRAHEDRAL, n, 5)
    return second[0] - 2 * third[0]
