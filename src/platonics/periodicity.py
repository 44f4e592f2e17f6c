"""Modular periods of the platonic sequences: closed form vs. observed.

Each family has a proven period modulo d given by a small case split on d.
The closed form is a period, but not necessarily the minimal one, so the
empirical detector works like order finding: it certifies the closed form,
then strips its prime factors one at a time for as long as what is left
still repeats, and reports the shift it ends at.

A shift s is decided from three residues.  It is tested on the closed
form's numerator N = q*f, an integer cubic: d divides f(n+s) - f(n) exactly
when d*q divides e(n) = N(n+s) - N(n), whose cubic terms cancel, so e is an
integer quadratic in n.  In Newton form
e(n) = e(1) + (n-1)*De(1) + C(n-1, 2)*D2e(1), with De(1) = e(2) - e(1) and
D2e(1) = e(3) - 2e(2) + e(1), and C(n-1, 2) is an integer at every integer
n.  So if e(1), e(2) and e(3) are 0 mod d*q, all three Newton coefficients
are, and e(n) = 0 mod d*q for every n, later and earlier alike; s repeats
mod d exactly when those three differences vanish.  The numerators are the
exact closed forms, not the case split, so the check stays independent of
the claim it tests.

One column producer, `_period_columns`, gives a family's closed-form and
minimal periods over a run of moduli, as two lists of ints.  `period`
renders them as they are; `check_period_claim` and `check_period_range`
make their `PeriodReport`s from them, and `empirical_period` reads its one
entry, so every route runs the same detector.

A report where the two periods disagree is a legitimate finding, not an
error; an error is raised only if the closed form fails to be a period at
all, which would contradict the congruence argument behind it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat
from operator import eq

from .sequences import _CLOSED_FORMS, PlatonicKind

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


def _require_period_range(lo: int, hi: int) -> None:
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got {lo}..{hi}")
    if hi - lo >= PERIOD_MAX_MODULI:
        raise ValueError(
            f"{hi - lo + 1} moduli is above the ceiling of {PERIOD_MAX_MODULI}"
        )
    _require_period_modulus(hi)


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


# N(1..3) of each family's closed-form numerator N: the left-hand sides of
# every three-residue test.
_FIRST_NUMERATORS = {
    kind: tuple(numerator(n) for n in range(1, 4))
    for kind, (numerator, _) in _CLOSED_FORMS.items()
}


def empirical_period(kind: PlatonicKind, d: int) -> int:
    """Smallest shift under which the residues repeat."""
    _require_period_modulus(d)
    return _period_columns(kind, d, d)[1][0]


def _period_columns(
    kind: PlatonicKind, lo: int, hi: int
) -> tuple[list[int], list[int]]:
    """The closed-form and the minimal periods of one family, one entry per
    modulus d in [lo, hi].

    The periods of a purely periodic sequence are exactly the multiples of
    its minimal one.  So once the closed form L is certified as a period,
    the minimal period is what is left after dividing L by each of its
    primes p for as long as the quotient is still a period: a quotient that
    fails is no longer a multiple of the minimum, so p is then down to the
    minimum's power of it.  Each shift s is certified by f(n+s) = f(n) mod d
    at n = 1..3, tested as N(n+s) = N(n) mod d*q on the numerator N = q*f,
    which holds then for every n since N(n+s) - N(n) is a quadratic in n
    (see the module docstring).
    """
    numerator, divisor = _CLOSED_FORMS[kind]
    first_1, first_2, first_3 = _FIRST_NUMERATORS[kind]

    def repeats(shift: int, modulus: int) -> bool:
        return not (
            (numerator(1 + shift) - first_1) % modulus
            or (numerator(2 + shift) - first_2) % modulus
            or (numerator(3 + shift) - first_3) % modulus
        )

    moduli = range(lo, hi + 1)
    closed = [closed_form_period(kind, d) for d in moduli]
    minimal = []
    for d, length in zip(moduli, closed):
        modulus = d * divisor
        if not repeats(length, modulus):
            raise PeriodConsistencyError(
                f"no divisor of {length} is a period of {kind.value} mod {d}; "
                f"the closed-form period claim is violated"
            )
        period = length
        for p in _prime_factors(length):
            while period % p == 0 and repeats(period // p, modulus):
                period //= p
        minimal.append(period)
    return closed, minimal


def check_period_claim(kind: PlatonicKind, d: int) -> PeriodReport:
    """Cross-check the closed-form period against the observed minimum."""
    _require_period_modulus(d)
    (closed,), (observed,) = _period_columns(kind, d, d)
    return PeriodReport(kind, d, closed, observed, observed == closed)


def check_period_range(
    kinds: Iterable[PlatonicKind], lo: int, hi: int
) -> list[PeriodReport]:
    """`check_period_claim` for every kind and every d in [lo, hi], kind-major."""
    _require_period_range(lo, hi)
    moduli = range(lo, hi + 1)
    reports = []
    for kind in kinds:
        closed, minimal = _period_columns(kind, lo, hi)
        agrees = map(eq, minimal, closed)
        reports += map(PeriodReport, repeat(kind), moduli, closed, minimal, agrees)
    return reports
