"""Workload definitions shared by the worker (which runs them) and the checker.

Sizes are fixed; the seed only chooses the `represent` targets (and, in the
checker, which witnesses get the extra minimality check).  Nothing here
imports `platonics`, so the checker can use it without loading the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("scan", "witness-json", "strict-witness", "arith-cli")

#: Bound of the scan for each pollock workload, full size and smoke size.
POLLOCK_N = {"scan": 10**7, "witness-json": 300_000, "strict-witness": 100_000}
SMOKE_N = {"scan": 2_000, "witness-json": 1_500, "strict-witness": 1_000}

#: Histogram and failure list of each pollock workload at full size.  They
#: were recomputed with a separate array implementation of the reachability
#: layers (not the engine's big-int code) and agree with the engine.
PINNED = {
    "scan": ({1: 1007, 2: 432644, 3: 9566094, 4: 255, 5: 0}, ()),
    "witness-json": ({1: 308, 2: 38386, 3: 261301, 4: 5, 5: 0}, ()),
    "strict-witness": ({1: 213, 2: 17565, 3: 82215, 4: 5, 5: 0}, (2, 3)),
}

FORMATS = ("table", "json", "csv")

#: Four-term combination modulus of each family (README, "Combination moduli").
MODULUS = {
    "tetrahedral": 1,
    "octahedral": 4,
    "cube": 6,
    "icosahedral": 45,
    "dodecahedral": 81,
}

#: Digit counts of the `represent` targets.  The four values of a
#: representation have about three times the digits of its target, and
#: Python refuses to convert ints of more than 4300 digits to text, so from
#: 1700 digits up the json and csv renderings fail, and the 4400-digit
#: target cannot even be parsed.  This is a known defect that the benchmark
#: keeps visible instead of avoiding.
REPRESENT_DIGITS = (4, 40, 400, 1200, 1700, 4200, 4400)

PERIOD_RANGE = "2..200"
GEN_ARGS = ("dodecahedral", "1..3000")
DIFFTABLE_ARGS = ("icosahedral", "400")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of the arith-cli mix (without --format/--out)."""

    label: str
    argv: tuple[str, ...]
    fmt: str


def _multiple_text(rng: random.Random, digits: int, modulus: int) -> str:
    """Decimal text of a random `digits`-digit multiple of `modulus`.

    Built digit by digit, never through int/str conversion, so it works
    beyond the interpreter's 4300-digit conversion limit.
    """
    prefix = str(rng.randrange(1, 10)) + "".join(
        rng.choice("0123456789") for _ in range(digits - 4)
    )
    residue = 0
    for ch in prefix:
        residue = (residue * 10 + ord(ch) - 48) % modulus
    return prefix + f"{-residue * 1000 % modulus:03d}"


def represent_targets(seed: int) -> list[tuple[str, str]]:
    """Seeded (kind, target text) pairs, one per entry of REPRESENT_DIGITS."""
    rng = random.Random(f"represent-{seed}")
    kinds = sorted(MODULUS)
    targets = []
    for digits in REPRESENT_DIGITS:
        kind = rng.choice(kinds)
        sign = rng.choice(("", "-"))
        targets.append((kind, sign + _multiple_text(rng, digits, MODULUS[kind])))
    return targets


def arith_commands(seed: int) -> list[Command]:
    """The arith-cli round: every non-pollock subcommand in every format."""
    base = [
        ("period", ("period", "all", PERIOD_RANGE)),
        ("verify-identities", ("verify-identities", "all")),
        ("gen", ("gen", *GEN_ARGS, "--check-recurrence")),
        ("difftable", ("difftable", *DIFFTABLE_ARGS)),
        ("paper-tables", ("paper-tables",)),
    ]
    for i, (kind, target) in enumerate(represent_targets(seed)):
        base.append((f"represent-{i}", ("represent", kind, target)))
    return [
        Command(label=f"{label}/{fmt}", argv=argv, fmt=fmt)
        for label, argv in base
        for fmt in FORMATS
    ]


def pollock_n(name: str, smoke: bool) -> int:
    return (SMOKE_N if smoke else POLLOCK_N)[name]


def pollock_argv(name: str, n: int) -> list[str]:
    """CLI arguments of a witness workload (without --out)."""
    argv = ["pollock", str(n), "--witnesses", "--format", "json"]
    if name == "strict-witness":
        argv.append("--strict-distinct")
    return argv
