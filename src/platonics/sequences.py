"""The five platonic-solid figurate sequences, exactly.

Every value is a plain Python int, so arithmetic is arbitrary precision and
never rounds.  Values come either from the per-family closed forms or from
the shared order-4 linear recurrence

    y[n] = 4*y[n-1] - 6*y[n-2] + 4*y[n-3] - y[n-4],

which all five families satisfy because each is a cubic polynomial in its
index.  Forward differencing of these sequences is the workhorse behind the
identity checks and the four-term combination constructions elsewhere in
this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce


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
#: index `gen` accepts; `gen dodecahedral 1..1000000 --check-recurrence`
#: takes 1.3 to 3.2 s and 164 to 194 MB, by format (BENCH_14.json).
SEQUENCE_MAX_INDEX = 1_000_000

#: Most rows difference_table builds; `difftable KIND 100000` takes about
#: 0.6 to 1.6 s and 45 to 100 MB, by format.
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


def _cubic_coefficients(values: list[int]) -> tuple[int, int, int, int]:
    """Coefficients (a0, a1, a2, a3) of the cubic that takes `values` at
    0, 1, 2, 3, from its forward differences d1, d2, d3 there:
    p(x) = v0 + d1*x + d2*x(x-1)/2 + d3*x(x-1)(x-2)/6."""
    v0, v1, v2, v3 = values
    d1, d2, d3 = v1 - v0, v2 - 2 * v1 + v0, v3 - 3 * v2 + 3 * v1 - v0
    return (
        v0,
        exact_div(6 * d1 - 3 * d2 + 2 * d3, 6),
        exact_div(d2 - d3, 2),
        exact_div(d3, 6),
    )


# For each kind and shift j = 0..3, the coefficients of the numerator at
# index b + j as a cubic in b, from the closed form's values at j..j+3.
_SHIFTED_NUMERATORS = {
    kind: tuple(
        _cubic_coefficients([numerator(j + x) for x in range(4)]) for j in range(4)
    )
    for kind, (numerator, _) in _CLOSED_FORMS.items()
}


def _decimal_values(kind: PlatonicKind, base: int):
    """The Decimal of `base`, a context that holds it and every value at
    indices base..base+3 without rounding, and an iterator of those values
    as exact Decimals, computed as it is read.

    CPython converts an int to decimal text in time quadratic in its digits,
    and these values have about three times the digits of `base`.  So only
    `base` is converted, and each value is its numerator, a small-integer
    combination of base^3, base^2, base and 1, divided by the family's
    divisor, all in decimal arithmetic, whose text `format(value, "f")`
    gives in linear time.  The context traps Inexact and Rounded, so a
    division that leaves a remainder raises `decimal.Inexact`, an
    ArithmeticError.  A negative base is a domain error, as in
    platonic_value.
    """
    import decimal  # here, so that importing the package does not load it

    if base < 0:
        raise ValueError(f"index must be >= 0, got {base}")
    b = decimal.Decimal(base)
    context = decimal.Context(
        prec=3 * (b.adjusted() + 1) + 12, traps=[decimal.Inexact, decimal.Rounded]
    )

    def values():
        b2 = context.multiply(b, b)
        powers = (1, b, b2, context.multiply(b2, b))
        divisor = _CLOSED_FORMS[kind][1]
        for coefficients in _SHIFTED_NUMERATORS[kind]:
            numerator = reduce(context.add, map(context.multiply, coefficients, powers))
            yield context.divide(numerator, divisor)

    return context, b, values()


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


def difference_table(kind: PlatonicKind, rows: int) -> DifferenceTable:
    """Build the order-0..4 difference table over indices 1..rows."""
    if rows < 5:
        raise ValueError(f"rows must be >= 5, got {rows}")
    if rows > DIFFERENCE_MAX_ROWS:
        raise ValueError(f"rows {rows} exceeds the ceiling {DIFFERENCE_MAX_ROWS}")
    orders = [tuple(platonic_value(kind, n) for n in range(1, rows + 1))]
    for _ in range(4):
        orders.append(tuple(forward_difference(orders[-1], 1)))
    return DifferenceTable(kind=kind, rows=rows, orders=tuple(orders))
