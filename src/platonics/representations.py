"""Four-term integer combinations of consecutive platonic numbers.

Combining the second and third forward differences eliminates everything
but a linear term, so for each family there is a fixed coefficient tuple
over four consecutive indices whose value at base index n is M*n for a
family-specific modulus M.  That turns "m is divisible by M" into an
explicit four-term representation of m with base index m/M.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul

from .sequences import PlatonicKind, _decimal_values, platonic_value

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


class NotDivisibleError(ValueError):
    """Raised when a target misses the divisibility the combination needs."""

    def __init__(self, kind: PlatonicKind, target: int, modulus: int):
        self.kind = kind
        self.target = target
        self.modulus = modulus
        super().__init__(
            f"{target} is not divisible by {modulus}, the modulus of the "
            f"four-term {kind.value} combination"
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
        target = str(self.target)
        return {
            "kind": self.kind.value,
            "base_index": self.base_index,
            "coefficients": list(self.coefficients),
            "indices": list(self.indices),
            "values": _values_text(self, target),
            "target": target,
        }


def _values_text(rep: Representation, target: str) -> list[str]:
    """Decimal text of rep's four values, made without `str` of an int.

    The values are computed afresh in decimal arithmetic, so their text is
    checked as represent_multiple checks the ints: the combination of the
    Decimals must equal the target, whose text is parsed back.  Both steps
    take time linear in the digits.
    """
    context, values = _decimal_values(rep.kind, rep.base_index)
    total = reduce(context.add, map(context.multiply, rep.coefficients, values))
    if total != context.create_decimal(target):
        raise ArithmeticError(
            f"combination for {rep.kind.value} evaluated to {total:f} in "
            f"decimal, expected {target}"
        )
    return [format(value, "f") for value in values]


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
            f"combination for {kind.value} evaluated to {value}, "
            f"expected {target}"
        )
    return rep


def represent_tetrahedral(target: int) -> Representation:
    """Represent any integer as a 4-term tetrahedral combination."""
    return represent_multiple(PlatonicKind.TETRAHEDRAL, target)
