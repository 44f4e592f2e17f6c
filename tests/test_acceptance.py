"""Acceptance gate: one test per criterion, each printing a summary line.

Every tolerance here is exact (integer equality); the runtime bounds are
the stated budgets for the reference workloads.  Criterion 4 records the
closed-form-vs-observed agreement table as an artifact and surfaces every
disagreement; a disagreement is a reported finding, not a failure, as long
as the observed period divides the closed form.
"""

import itertools
import time
from pathlib import Path

from platonics import (
    COMBINATION_MODULUS,
    PlatonicKind,
    THIRD_DIFFERENCE_CONSTANTS,
    check_period_claim,
    cli,
    evaluate_representation,
    identity_residual,
    min_term_decomposition,
    platonic_pool,
    platonic_value,
    platonic_values_by_recurrence,
    represent_multiple,
    represent_tetrahedral,
    scan_conjecture,
    verify_witness,
    witness_from_values,
)
from known_sums import REFERENCE_SUMS

FIRST_TEN = {
    PlatonicKind.TETRAHEDRAL: (1, 4, 10, 20, 35, 56, 84, 120, 165, 220),
    PlatonicKind.OCTAHEDRAL: (1, 6, 19, 44, 85, 146, 231, 344, 489, 670),
    PlatonicKind.CUBE: (1, 8, 27, 64, 125, 216, 343, 512, 729, 1000),
    PlatonicKind.ICOSAHEDRAL: (1, 12, 48, 124, 255, 456, 742, 1128, 1629, 2260),
    PlatonicKind.DODECAHEDRAL: (1, 20, 84, 220, 455, 816, 1330, 2024, 2925, 4060),
}

DOCS = Path(__file__).resolve().parents[1] / "docs"


def test_criterion_1_sequence_reproduction():
    started = time.perf_counter()
    for kind, expected in FIRST_TEN.items():
        assert tuple(platonic_value(kind, n) for n in range(1, 11)) == expected
    for kind in PlatonicKind:
        recurrent = platonic_values_by_recurrence(kind, 1000).values
        for offset, value in enumerate(recurrent):
            assert value == platonic_value(kind, offset + 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"criterion 1 PASS: 50 listed values exact; closed form == recurrence "
        f"for n <= 1000, all kinds ({elapsed:.2f}s)"
    )


def test_criterion_2_difference_identities():
    started = time.perf_counter()
    for kind in PlatonicKind:
        for order in (1, 2, 3, 4):
            for n in range(1, 501):
                check = identity_residual(kind, order, n)
                assert check.holds, (kind, order, n, check)
    assert [THIRD_DIFFERENCE_CONSTANTS[k] for k in PlatonicKind] == [1, 4, 6, 15, 27]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"criterion 2 PASS: orders 1..4 exact for n <= 500, all kinds; "
        f"third-difference constants (1, 4, 6, 15, 27); fourth == 0 ({elapsed:.2f}s)"
    )


def test_criterion_3_representation_round_trips():
    started = time.perf_counter()
    for m in range(-10_000, 10_001):
        rep = represent_tetrahedral(m)
        assert len(rep.coefficients) == 4
        assert all(c != 0 for c in rep.coefficients)
        assert evaluate_representation(rep) == m
    constrained = [
        PlatonicKind.OCTAHEDRAL,
        PlatonicKind.CUBE,
        PlatonicKind.ICOSAHEDRAL,
        PlatonicKind.DODECAHEDRAL,
    ]
    for kind in constrained:
        modulus = COMBINATION_MODULUS[kind]
        for q in range(1, 1001):
            for m in (modulus * q, -modulus * q):
                assert evaluate_representation(represent_multiple(kind, m)) == m
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    moduli = ", ".join(
        f"{kind.value} x{COMBINATION_MODULUS[kind]}" for kind in constrained
    )
    print(
        f"criterion 3 PASS: tetrahedral round trip exact on [-10^4, 10^4]; "
        f"10^3 positive and negative multiples exact for {moduli} ({elapsed:.2f}s)"
    )


def test_criterion_4_periods(tmp_path):
    started = time.perf_counter()
    reports = [
        check_period_claim(kind, d)
        for kind in PlatonicKind
        for d in range(2, 201)
    ]
    for report in reports:
        assert report.closed_form % report.empirical == 0, report
    tetra2 = check_period_claim(PlatonicKind.TETRAHEDRAL, 2)
    assert tetra2.empirical == 4 == tetra2.closed_form

    # artifact of record: regenerate the committed agreement table
    artifact = tmp_path / "period_agreement.csv"
    assert cli.main(
        ["period", "all", "2..200", "--format", "csv", "--out", str(artifact)]
    ) == 0
    committed = DOCS / "period_agreement_2_200.csv"
    assert artifact.read_bytes() == committed.read_bytes()

    disagreements = [r for r in reports if not r.agrees]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    agree_rate = (len(reports) - len(disagreements)) / len(reports)
    print(
        f"criterion 4 PASS: observed period divides closed form for all "
        f"{len(reports)} (kind, d) pairs; tetrahedral mod 2 -> 4; agreement "
        f"rate {agree_rate:.3f} ({elapsed:.2f}s)"
    )
    for report in disagreements:
        print(
            f"  finding: {report.kind.value} mod {report.modulus} has minimal "
            f"period {report.empirical}, closed form {report.closed_form}"
        )


def test_criterion_5_conjecture_scan():
    started = time.perf_counter()
    report = scan_conjecture(100_000, max_terms=5)
    assert report.failures == (), "scan found unrepresentable integers"

    pool_small = platonic_pool(120)
    for target, terms in REFERENCE_SUMS:
        assert verify_witness(witness_from_values(target, terms, pool_small))

    limit = 500
    oracle = {}
    values = [entry.value for entry in platonic_pool(limit)]
    for k in range(1, 6):
        for combo in itertools.combinations_with_replacement(values, k):
            total = sum(combo)
            if total <= limit and total not in oracle:
                oracle[total] = k
    for m in range(1, limit + 1):
        witness = min_term_decomposition(m)
        observed = len(witness.terms) if witness else None
        assert observed == oracle.get(m), f"min-term count disagrees at {m}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 5 PASS: scan(10^5, 5) has zero failures "
        f"(histogram {report.histogram}); all {len(REFERENCE_SUMS)} reference "
        f"decompositions verify; min-term counts match brute force on "
        f"[1, 500] ({elapsed:.2f}s)"
    )


def test_criterion_6_determinism(capsys):
    fixed_runs = [
        ["gen", "tetrahedral", "1..200", "--format", "json"],
        ["gen", "dodecahedral", "1..50", "--format", "csv"],
        ["difftable", "cube", "12", "--format", "csv"],
        ["represent", "icosahedral", "-900", "--format", "json"],
        ["period", "all", "2..40", "--format", "csv"],
        ["verify-identities", "all", "1..12", "--format", "json"],
        ["pollock", "3000", "--witnesses", "--format", "json"],
        ["pollock", "3000", "--format", "json"],
        ["paper-tables", "--format", "json"],
    ]
    started = time.perf_counter()
    for args in fixed_runs:
        outputs = []
        for _ in range(2):
            code = cli.main(args)
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], f"nondeterministic output for {args}"
    elapsed = time.perf_counter() - started
    print(
        f"criterion 6 PASS: byte-identical repeated output for every "
        f"subcommand ({elapsed:.2f}s)"
    )
