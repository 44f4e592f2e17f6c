"""Four-term integer combinations of consecutive platonic numbers.

Combining the second and third forward differences eliminates everything
but a linear term, so for each family there is a fixed coefficient tuple
over four consecutive indices whose value at base index n is M*n for a
family-specific modulus M.  That turns "m is divisible by M" into an
explicit four-term representation of m with base index m/M.

Every decimal text of a representation (its indices, its target and its
values) is made from one Decimal of its base index, so no int above the
coefficients is converted to text: CPython does that in time quadratic in
the digits, and refuses it past its digit limit.  The decimal arithmetic
lives here: each value's numerator as a cubic in the base index
(_SHIFTED_NUMERATORS, from the closed forms of `sequences`) and the exact
context it is evaluated in (_decimal_texts).  The error texts quote a
target or a combination's value as Decimal text too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul

from .sequences import _CLOSED_FORMS, PlatonicKind, exact_div, platonic_value

#: Largest target of a representation, in decimal digits: represent_multiple
#: refuses |target| >= 10**REPRESENT_MAX_DIGITS.
REPRESENT_MAX_DIGITS = 10_000
_REPRESENT_BOUND = 10**REPRESENT_MAX_DIGITS

#: Coefficients applied to values at indices base, base+1, base+2, base+3.
COMBINATION_COEFFICIENTS = {
    PlatonicKind.TETRAHEDRAL: (3, -8, 7, -2),
    PlatonicKind.OCTAHEDRAL: (2, -5, 4, -1),
    PlatonicKind.CUBE: (2, -5, 4, -1),
    PlatonicKind.ICOSAHEDRAL: (5, -12, 9, -2),
    PlatonicKind.DODECAHEDRAL: (5, -12, 9, -2),
}

# Exact value of each tuple at base index n, i.e. the modulus M with
# combination(n) = M*n.  For the dodecahedral family the second difference
# is 27n+18 and the third is 27, so 3*(27n+18) - 2*27 = 81n; 81 is also the
# only positive slope any integer combination of four consecutive
# dodecahedral numbers can realize (the Vandermonde system over the cubic
# closed form has integer solutions exactly for slopes in 81Z).
COMBINATION_MODULUS = {
    PlatonicKind.TETRAHEDRAL: 1,
    PlatonicKind.OCTAHEDRAL: 4,
    PlatonicKind.CUBE: 6,
    PlatonicKind.ICOSAHEDRAL: 45,
    PlatonicKind.DODECAHEDRAL: 81,
}


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


def _decimal_text(value: int) -> str:
    """Decimal text of an int, in time linear in its digits and past the
    interpreter's int/str digit limit."""
    from decimal import Decimal  # as in _decimal_texts

    return format(Decimal(value), "f")


class NotDivisibleError(ValueError):
    """Raised when a target misses the divisibility the combination needs."""

    def __init__(self, kind: PlatonicKind, target: int, modulus: int):
        self.kind = kind
        self.target = target
        self.modulus = modulus
        super().__init__(
            f"{_decimal_text(target)} is not divisible by {modulus}, the "
            f"modulus of the four-term {kind.value} combination"
        )


@dataclass(frozen=True)
class Representation:
    """A target expressed as a 4-term combination of consecutive values."""

    kind: PlatonicKind
    base_index: int
    coefficients: tuple[int, int, int, int]
    target: int

    @property
    def indices(self) -> tuple[int, int, int, int]:
        return (
            self.base_index,
            self.base_index + 1,
            self.base_index + 2,
            self.base_index + 3,
        )

    @cached_property
    def values(self) -> tuple[int, int, int, int]:
        return tuple(platonic_value(self.kind, i) for i in self.indices)

    def to_json_dict(self) -> dict:
        """The representation with its values and target as decimal text;
        raises ArithmeticError if the values do not combine to the target."""
        _, target, values = _decimal_texts(self, with_values=True)
        return {
            "kind": self.kind.value,
            "base_index": self.base_index,
            "coefficients": list(self.coefficients),
            "indices": list(self.indices),
            "values": values,
            "target": target,
        }


def _decimal_texts(
    rep: Representation, with_values: bool
) -> tuple[list[str], str, list[str] | None]:
    """Decimal text of rep's four indices, of its target and, with
    `with_values`, of its four values (else None), all from one Decimal b
    of the base index, in time linear in the digits.

    CPython converts an int to decimal text in time quadratic in its
    digits, and the values have about three times the digits of the base.
    So only the base is converted.  The indices are b + j.  The target of
    a representation that represent_multiple made is +-M*b; a hand-built
    one whose target is not is converted itself.  Each value is its
    numerator, a small-integer combination of b^3, b^2, b and 1
    (_SHIFTED_NUMERATORS), divided by the family's divisor, all in decimal
    arithmetic, whose text `format(value, "f")` gives in linear time.  The
    values are so computed afresh, and their text is checked as
    represent_multiple checks the ints: the combination of the Decimals
    must equal the target.  The context holds every one of these numbers
    exactly and traps Inexact and Rounded, so a division that leaves a
    remainder raises `decimal.Inexact`, an ArithmeticError.  A negative
    base is a domain error, as in platonic_value.
    """
    import decimal  # here, so that importing the package does not load it

    if rep.base_index < 0:
        raise ValueError(f"index must be >= 0, got {rep.base_index}")
    b = decimal.Decimal(rep.base_index)
    context = decimal.Context(
        prec=3 * (b.adjusted() + 1) + 12, traps=[decimal.Inexact, decimal.Rounded]
    )
    indices = [format(context.add(b, j), "f") for j in range(4)]
    modulus = COMBINATION_MODULUS[rep.kind]
    signed = -modulus if rep.target < 0 else modulus
    if rep.target == signed * rep.base_index:
        target = context.multiply(signed, b)
    else:
        target = decimal.Decimal(rep.target)
    target_text = format(target, "f")
    if not with_values:
        return indices, target_text, None
    b2 = context.multiply(b, b)
    powers = (1, b, b2, context.multiply(b2, b))
    divisor = _CLOSED_FORMS[rep.kind][1]
    numerators = (
        reduce(context.add, map(context.multiply, shifted, powers))
        for shifted in _SHIFTED_NUMERATORS[rep.kind]
    )
    values = [context.divide(numerator, divisor) for numerator in numerators]
    total = reduce(context.add, map(context.multiply, rep.coefficients, values))
    if total != target:
        raise ArithmeticError(
            f"combination for {rep.kind.value} evaluated to {total:f} in "
            f"decimal, expected {target_text}"
        )
    return indices, target_text, [format(value, "f") for value in values]


def evaluate_representation(rep: Representation) -> int:
    """Exact value of the combination; equals rep.target for our output."""
    return sum(map(mul, rep.coefficients, rep.values))


def represent_multiple(kind: PlatonicKind, target: int) -> Representation:
    """Represent a multiple of the kind's modulus as a 4-term combination.

    The base index is |target| / M; for negative targets all four
    coefficients are negated, which keeps every index in the domain where
    the combination identity is established.  |target| must have at most
    REPRESENT_MAX_DIGITS digits.
    """
    if abs(target) >= _REPRESENT_BOUND:
        raise ValueError(
            f"target has more than {REPRESENT_MAX_DIGITS} digits, the ceiling"
        )
    modulus = COMBINATION_MODULUS[kind]
    base, remainder = divmod(abs(target), modulus)
    if remainder:
        raise NotDivisibleError(kind, target, modulus)
    coefficients = COMBINATION_COEFFICIENTS[kind]
    if target < 0:
        coefficients = tuple(-c for c in coefficients)
    rep = Representation(
        kind=kind, base_index=base, coefficients=coefficients, target=target
    )
    # The identity guarantees this; verify anyway so a bad table entry can
    # never emit a representation that does not evaluate to its target.
    value = evaluate_representation(rep)
    if value != target:
        raise ArithmeticError(
            f"combination for {kind.value} evaluated to {_decimal_text(value)}, "
            f"expected {_decimal_text(target)}"
        )
    return rep


def represent_tetrahedral(target: int) -> Representation:
    """Represent any integer as a 4-term tetrahedral combination."""
    return represent_multiple(PlatonicKind.TETRAHEDRAL, target)
