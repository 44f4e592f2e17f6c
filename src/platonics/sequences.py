"""The five platonic-solid figurate sequences, exactly.

Every value is a plain Python int, so arithmetic is arbitrary precision and
never rounds.  Values come either from the per-family closed forms or from
the shared order-4 linear recurrence

    y[n] = 4*y[n-1] - 6*y[n-2] + 4*y[n-3] - y[n-4],

which all five families satisfy because each is a cubic polynomial in its
index.  Forward differencing of these sequences is the workhorse behind the
identity checks and the four-term combination constructions elsewhere in
this package: one window of values and its differences of orders 1..4
(_difference_columns) serve the difference table, every identity check of
a family and the combined tetrahedral residual.  The decimal text of a
representation's values is made in `representations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class PlatonicKind(Enum):
    """One of the five figurate families, one per platonic solid."""

    TETRAHEDRAL = "tetrahedral"
    OCTAHEDRAL = "octahedral"
    CUBE = "cube"
    ICOSAHEDRAL = "icosahedral"
    DODECAHEDRAL = "dodecahedral"

    # Members are singletons compared by identity; Enum's hash goes via the name.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


#: Coefficients of the shared linear recurrence, applied to the four
#: preceding values (most recent first).
RECURRENCE_COEFFICIENTS = (4, -6, 4, -1)

#: Most values platonic_values_by_recurrence produces, and so the largest
#: index `gen` accepts; its time and peak at this ceiling are measured by
#: the `gen` lines of `tools/bench_cli.py --set arith-ceilings`.
SEQUENCE_MAX_INDEX = 1_000_000

#: Most rows difference_table builds; its time and peak at this ceiling are
#: measured by the `difftable` lines of `tools/bench_cli.py --set
#: arith-ceilings`.
DIFFERENCE_MAX_ROWS = 100_000

# Closed forms as (numerator polynomial, divisor).  The divisor always
# divides the numerator exactly for integer n >= 0, so // is exact; a
# nonzero remainder can only mean a bug and is raised loudly.
_CLOSED_FORMS = {
    PlatonicKind.TETRAHEDRAL: (lambda n: n * (n + 1) * (n + 2), 6),
    PlatonicKind.OCTAHEDRAL: (lambda n: n * (2 * n * n + 1), 3),
    PlatonicKind.CUBE: (lambda n: n * n * n, 1),
    PlatonicKind.ICOSAHEDRAL: (lambda n: n * (5 * n * n - 5 * n + 2), 2),
    PlatonicKind.DODECAHEDRAL: (lambda n: n * (9 * n * n - 9 * n + 2), 2),
}


def exact_div(numerator: int, divisor: int) -> int:
    """Integer division that refuses to lose a remainder."""
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ArithmeticError(
            f"inexact division: {numerator} is not divisible by {divisor}"
        )
    return quotient


def platonic_value(kind: PlatonicKind, n: int) -> int:
    """Closed-form value of the given family at index n.

    Index 0 is included by extension (all five closed forms give 0 there);
    negative indices are a domain error.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    numerator, divisor = _CLOSED_FORMS[kind]
    return exact_div(numerator(n), divisor)


@dataclass(frozen=True)
class Sequence:
    """A contiguous run of values of one family."""

    kind: PlatonicKind
    start_index: int
    values: tuple[int, ...]


def platonic_values_by_recurrence(kind: PlatonicKind, count: int) -> Sequence:
    """Values at indices 1..count, seeded from the closed form.

    Only the first four values come from the closed form; every later value
    is produced purely by the recurrence, which makes this an independent
    generation route for cross-checking.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > SEQUENCE_MAX_INDEX:
        raise ValueError(f"count {count} exceeds the ceiling {SEQUENCE_MAX_INDEX}")
    values = [platonic_value(kind, n) for n in range(1, min(count, 4) + 1)]
    a, b, c, d = RECURRENCE_COEFFICIENTS
    while len(values) < count:
        values.append(
            a * values[-1] + b * values[-2] + c * values[-3] + d * values[-4]
        )
    return Sequence(kind=kind, start_index=1, values=tuple(values))


def forward_difference(values: list[int] | tuple[int, ...], order: int) -> list[int]:
    """Iterated forward difference of a list: delta y[n] = y[n+1] - y[n].

    Order 0 returns a copy of the input.  Each application shortens the
    list by one, so the input must have more than `order` entries.
    """
    if not 0 <= order <= 4:
        raise ValueError(f"order must be in 0..4, got {order}")
    if order > 0 and len(values) <= order:
        raise ValueError(
            f"need more than {order} values for order {order}, got {len(values)}"
        )
    result = list(values)
    for _ in range(order):
        result = [result[j + 1] - result[j] for j in range(len(result) - 1)]
    return result


@dataclass(frozen=True)
class DifferenceTable:
    """Forward differences of orders 0..4 over one family's first values.

    Column k holds the order-k differences of column 0 (the values at
    indices 1..rows) and has length rows - k.  Column 4 is identically
    zero because every family is a cubic in its index.
    """

    kind: PlatonicKind
    rows: int
    orders: tuple[tuple[int, ...], ...]


def _difference_columns(kind: PlatonicKind, first: int, count: int) -> list[list[int]]:
    """The values at indices first..first + count - 1 and their forward
    differences of orders 1..4: column k holds count - k entries, and
    count must be at least 5."""
    columns = [[platonic_value(kind, n) for n in range(first, first + count)]]
    for _ in range(4):
        columns.append(forward_difference(columns[-1], 1))
    return columns


def difference_table(kind: PlatonicKind, rows: int) -> DifferenceTable:
    """Build the order-0..4 difference table over indices 1..rows."""
    if rows < 5:
        raise ValueError(f"rows must be >= 5, got {rows}")
    if rows > DIFFERENCE_MAX_ROWS:
        raise ValueError(f"rows {rows} exceeds the ceiling {DIFFERENCE_MAX_ROWS}")
    orders = tuple(map(tuple, _difference_columns(kind, 1, rows)))
    return DifferenceTable(kind=kind, rows=rows, orders=orders)
