"""Modular periods of the platonic sequences: closed form vs. observed.

Each family has a proven period modulo d given by a small case split on d.
The closed form is a period, but not necessarily the minimal one, so the
empirical detector works like order finding: it certifies the closed form,
then strips its prime factors one at a time for as long as what is left
still repeats, and reports the shift it ends at.

A shift s is decided from four residues.  Every family satisfies the order-4
recurrence y[n] = 4y[n-1] - 6y[n-2] + 4y[n-3] - y[n-4], and so does
e(n) = f(n+s) - f(n).  If e(n) = 0 mod d for n = 1..4, the recurrence
carries it to every later n, and since its last coefficient -1 is a unit
mod d it runs backwards too; so s repeats mod d exactly when those four
differences vanish.  The values come from the exact closed forms, not from
the case split, so the check stays independent of the claim it tests.

A report where the two periods disagree is a legitimate finding, not an
error; an error is raised only if the closed form fails to be a period at
all, which would contradict the congruence argument behind it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .sequences import PlatonicKind, platonic_value

#: Largest modulus the empirical detector accepts.
PERIOD_MAX_MODULUS = 10**6
#: Most moduli one `check_period_range` call covers.
PERIOD_MAX_MODULI = 10**4


class PeriodConsistencyError(RuntimeError):
    """The proven period failed to repeat; surfaced loudly, never patched."""


@dataclass(frozen=True)
class PeriodReport:
    """Closed-form period next to the observed minimal period."""

    kind: PlatonicKind
    modulus: int
    closed_form: int
    empirical: int
    agrees: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "d": self.modulus,
            "closed_form": self.closed_form,
            "empirical": self.empirical,
            "agrees": self.agrees,
        }


def _require_modulus(d: int) -> None:
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")


def _require_period_modulus(d: int) -> None:
    _require_modulus(d)
    if d > PERIOD_MAX_MODULUS:
        raise ValueError(f"modulus {d} is above the ceiling {PERIOD_MAX_MODULUS}")


def closed_form_period(kind: PlatonicKind, d: int) -> int:
    """Proven period of the family modulo d."""
    _require_modulus(d)
    if kind is PlatonicKind.TETRAHEDRAL:
        if d % 2 == 0:
            return 6 * d if d % 3 == 0 else 2 * d
        return 3 * d if d % 3 == 0 else d
    if kind is PlatonicKind.OCTAHEDRAL:
        return 3 * d if d % 3 == 0 else d
    if kind is PlatonicKind.CUBE:
        return d
    # Icosahedral and dodecahedral share the same case split.
    return 2 * d if d % 2 == 0 else d


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending.

    Trial division stops at the square root of the part of n not yet
    factored.  A closed-form period is d times 1, 2, 3 or 6, so that part
    is soon a factor of d, most often far below the square root of n.
    """
    primes = []
    rest = n
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            primes.append(f)
            while rest % f == 0:
                rest //= f
        f += 1 if f == 2 else 2
    if rest > 1:
        primes.append(rest)
    return primes


# f(1..4) of each family: the left-hand sides of every four-residue test.
_FIRST_VALUES = {
    kind: tuple(platonic_value(kind, n) for n in range(1, 5)) for kind in PlatonicKind
}


def empirical_period(kind: PlatonicKind, d: int) -> int:
    """Smallest shift under which the residues repeat.

    The periods of a purely periodic sequence are exactly the multiples of
    its minimal one.  So once the closed form L is certified as a period,
    the minimal period is what is left after dividing L by each of its
    primes p for as long as the quotient is still a period: a quotient that
    fails is no longer a multiple of the minimum, so p is then down to the
    minimum's power of it.  Each shift s is certified by f(n+s) = f(n) mod d
    at n = 1..4, which by the shared recurrence holds for every n (see the
    module docstring).
    """
    _require_period_modulus(d)
    length = closed_form_period(kind, d)
    base = _FIRST_VALUES[kind]

    def repeats(shift: int) -> bool:
        for n, value in enumerate(base, 1):
            if (platonic_value(kind, n + shift) - value) % d:
                return False
        return True

    if not repeats(length):
        raise PeriodConsistencyError(
            f"no divisor of {length} is a period of {kind.value} mod {d}; "
            f"the closed-form period claim is violated"
        )
    period = length
    for p in _prime_factors(length):
        while period % p == 0 and repeats(period // p):
            period //= p
    return period


def check_period_claim(kind: PlatonicKind, d: int) -> PeriodReport:
    """Cross-check the closed-form period against the observed minimum."""
    closed = closed_form_period(kind, d)
    observed = empirical_period(kind, d)
    return PeriodReport(
        kind=kind,
        modulus=d,
        closed_form=closed,
        empirical=observed,
        agrees=observed == closed,
    )


def check_period_range(
    kinds: Iterable[PlatonicKind], lo: int, hi: int
) -> list[PeriodReport]:
    """`check_period_claim` for every kind and every d in [lo, hi], kind-major."""
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got {lo}..{hi}")
    if hi - lo >= PERIOD_MAX_MODULI:
        raise ValueError(
            f"{hi - lo + 1} moduli is above the ceiling of {PERIOD_MAX_MODULI}"
        )
    _require_period_modulus(hi)
    return [check_period_claim(kind, d) for kind in kinds for d in range(lo, hi + 1)]
