"""Modular periods: closed forms, residues, and the empirical detector."""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platonics import (
    PERIOD_MAX_MODULI,
    PERIOD_MAX_MODULUS,
    PeriodConsistencyError,
    PlatonicKind,
    check_period_claim,
    check_period_range,
    cli,
    closed_form_period,
    empirical_period,
    periodicity,
    platonic_value,
    residue_sequence,
)


def naive_min_period(kind, d):
    """Independent oracle: scan every shift, not just divisors."""
    length = closed_form_period(kind, d)
    window = [platonic_value(kind, n) % d for n in range(1, 2 * length + 1)]
    for shift in range(1, length + 1):
        if all(window[j + shift] == window[j] for j in range(length)):
            return shift
    return None


def test_closed_form_examples():
    assert closed_form_period(PlatonicKind.TETRAHEDRAL, 2) == 4
    assert closed_form_period(PlatonicKind.TETRAHEDRAL, 6) == 36
    assert closed_form_period(PlatonicKind.CUBE, 17) == 17
    assert closed_form_period(PlatonicKind.ICOSAHEDRAL, 10) == 20


def test_closed_form_case_split():
    # tetrahedral: (even, div 3) -> 6d; (even) -> 2d; (odd, div 3) -> 3d; else d
    assert closed_form_period(PlatonicKind.TETRAHEDRAL, 12) == 72
    assert closed_form_period(PlatonicKind.TETRAHEDRAL, 8) == 16
    assert closed_form_period(PlatonicKind.TETRAHEDRAL, 9) == 27
    assert closed_form_period(PlatonicKind.TETRAHEDRAL, 7) == 7
    # octahedral: 3d when divisible by 3, else d
    assert closed_form_period(PlatonicKind.OCTAHEDRAL, 9) == 27
    assert closed_form_period(PlatonicKind.OCTAHEDRAL, 5) == 5
    # cube: always d
    assert closed_form_period(PlatonicKind.CUBE, 100) == 100
    # icosahedral and dodecahedral: 2d when even, else d
    assert closed_form_period(PlatonicKind.ICOSAHEDRAL, 7) == 7
    assert closed_form_period(PlatonicKind.DODECAHEDRAL, 8) == 16
    assert closed_form_period(PlatonicKind.DODECAHEDRAL, 9) == 9


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_modulus_below_two_rejected(kind):
    for d in (1, 0, -3):
        with pytest.raises(ValueError):
            closed_form_period(kind, d)
        with pytest.raises(ValueError):
            empirical_period(kind, d)


def test_residue_sequence_examples():
    assert residue_sequence(PlatonicKind.TETRAHEDRAL, 2, 8).residues == (
        1, 0, 0, 0, 1, 0, 0, 0,
    )
    assert residue_sequence(PlatonicKind.OCTAHEDRAL, 2, 6).residues == (
        1, 0, 1, 0, 1, 0,
    )
    for d in (2, 7, 100):
        assert residue_sequence(PlatonicKind.CUBE, d, 1).residues == (1,)


def test_residue_sequence_validation():
    with pytest.raises(ValueError):
        residue_sequence(PlatonicKind.CUBE, 2, 0)


def test_empirical_examples():
    assert empirical_period(PlatonicKind.TETRAHEDRAL, 2) == 4
    assert empirical_period(PlatonicKind.CUBE, 5) == 5
    assert empirical_period(PlatonicKind.DODECAHEDRAL, 3) == 3


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_empirical_matches_naive_oracle(kind):
    for d in range(2, 41):
        assert empirical_period(kind, d) == naive_min_period(kind, d)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(list(PlatonicKind)),
    d=st.integers(min_value=2, max_value=600),
)
@example(kind=PlatonicKind.CUBE, d=2)
@example(kind=PlatonicKind.TETRAHEDRAL, d=3)
@example(kind=PlatonicKind.CUBE, d=9)
@example(kind=PlatonicKind.TETRAHEDRAL, d=198)
def test_four_residue_certificate_matches_full_window(kind, d):
    assert empirical_period(kind, d) == naive_min_period(kind, d)


def trial_division_divisors(n):
    small = [f for f in range(1, int(n**0.5) + 1) if n % f == 0]
    return sorted({*small, *(n // f for f in small)})


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=10**6))
@example(n=1)
@example(n=999_983)  # the largest prime below 10**6
@example(n=2 * 999_983)
@example(n=720_720)
@example(n=2**19)
@example(n=997 * 997)
def test_divisors_match_trial_division(n):
    assert periodicity._divisors(n) == trial_division_divisors(n)


def test_period_range_value_calls_stay_bounded(monkeypatch, tmp_path):
    # Each shift costs at most four closed-form values; a window of two
    # closed-form periods per modulus would cost 328,118 for this command.
    calls = 0

    def counting(kind, n):
        nonlocal calls
        calls += 1
        return platonic_value(kind, n)

    monkeypatch.setattr(periodicity, "platonic_value", counting)
    out = tmp_path / "period.csv"
    assert cli.main(["period", "all", "2..200", "--out", str(out)]) == 0
    assert calls <= 40_000


def test_non_period_closed_form_raises(monkeypatch, capsys):
    real = closed_form_period

    def wrong(kind, d):
        return 7 if (kind, d) == (PlatonicKind.CUBE, 10) else real(kind, d)

    monkeypatch.setattr(periodicity, "closed_form_period", wrong)
    with pytest.raises(PeriodConsistencyError):
        empirical_period(PlatonicKind.CUBE, 10)
    assert cli.main(["period", "cube", "10"]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no divisor of 7 is a period of cube mod 10")


def test_modulus_over_the_ceiling_rejected():
    start = time.perf_counter()
    for call in (empirical_period, check_period_claim):
        with pytest.raises(ValueError, match="ceiling"):
            call(PlatonicKind.TETRAHEDRAL, PERIOD_MAX_MODULUS + 1)
    with pytest.raises(ValueError, match="ceiling"):
        check_period_range(list(PlatonicKind), 2, PERIOD_MAX_MODULUS + 1)
    assert time.perf_counter() - start < 1.0


def test_range_over_the_ceiling_rejected():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="ceiling"):
        check_period_range(list(PlatonicKind), 2, PERIOD_MAX_MODULI + 2)
    assert time.perf_counter() - start < 1.0


def test_ceilings_are_inclusive():
    assert empirical_period(PlatonicKind.CUBE, PERIOD_MAX_MODULUS) == PERIOD_MAX_MODULUS
    reports = check_period_range([PlatonicKind.CUBE], 2, PERIOD_MAX_MODULI + 1)
    assert len(reports) == PERIOD_MAX_MODULI


@pytest.mark.parametrize(
    "span",
    [str(PERIOD_MAX_MODULUS + 1), f"2..{PERIOD_MAX_MODULI + 2}"],
    ids=["modulus", "range"],
)
def test_period_cli_over_the_ceiling_exits_2(span, capsys):
    start = time.perf_counter()
    assert cli.main(["period", "all", span]) == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "ceiling" in captured.err


def test_check_period_claim_examples():
    report = check_period_claim(PlatonicKind.TETRAHEDRAL, 2)
    assert (report.closed_form, report.empirical, report.agrees) == (4, 4, True)
    report = check_period_claim(PlatonicKind.OCTAHEDRAL, 9)
    assert (report.closed_form, report.empirical, report.agrees) == (27, 27, True)
    report = check_period_claim(PlatonicKind.CUBE, 2)
    assert (report.closed_form, report.empirical, report.agrees) == (2, 2, True)


def test_cube_disagrees_at_multiples_of_nine():
    # the closed form d is a period of the cubes mod d but not minimal when
    # 9 | d: shifting by d/3 already repeats
    for d in (9, 18, 27):
        report = check_period_claim(PlatonicKind.CUBE, d)
        assert report.empirical == d // 3
        assert not report.agrees


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_empirical_divides_closed_form(kind):
    for d in range(2, 101):
        report = check_period_claim(kind, d)
        assert report.closed_form % report.empirical == 0
        assert report.agrees == (report.closed_form == report.empirical)


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_window_repeats_under_empirical_shift(kind):
    for d in (2, 9, 14):
        shift = empirical_period(kind, d)
        window = residue_sequence(kind, d, 2 * shift).residues
        assert window[shift:] == window[:shift]


def test_report_json_dict():
    payload = check_period_claim(PlatonicKind.TETRAHEDRAL, 2).to_json_dict()
    assert payload == {
        "kind": "tetrahedral",
        "d": 2,
        "closed_form": 4,
        "empirical": 4,
        "agrees": True,
    }
