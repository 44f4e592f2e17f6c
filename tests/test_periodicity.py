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
    sequences,
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
# Powers of 3 in the closed form: the detector strips one 3 and tests for
# a second, which must fail, since cubes mod 9k repeat first at 3k.
@example(kind=PlatonicKind.CUBE, d=81)
@example(kind=PlatonicKind.CUBE, d=243)
@example(kind=PlatonicKind.CUBE, d=486)
def test_three_residue_certificate_matches_full_window(kind, d):
    assert empirical_period(kind, d) == naive_min_period(kind, d)


def test_detector_strips_each_prime_down_to_the_minimum(monkeypatch):
    # No platonic family needs a prime stripped twice, so a stand-in
    # sequence of minimal period 6 under a claimed period of 2**3 * 3**3 * 5
    # checks that 2 and 3 go twice each and 5 once.  It agrees with the
    # cubes at n = 1..6, so also at the three first numerators the detector
    # holds, and its values stay distinct mod 1000.  The detector
    # reads the cubes' closed-form numerator, so the stand-in goes there.
    numerator, divisor = sequences._CLOSED_FORMS[PlatonicKind.CUBE]
    monkeypatch.setattr(periodicity, "closed_form_period", lambda kind, d: 1080)
    monkeypatch.setitem(
        sequences._CLOSED_FORMS,
        PlatonicKind.CUBE,
        (lambda n: numerator((n - 1) % 6 + 1), divisor),
    )
    assert empirical_period(PlatonicKind.CUBE, 1000) == 6


def reference_period(kind, d):
    """The detector in its earlier form, with one platonic_value per
    residue: the closed form certified by f(n + s) = f(n) mod d at n = 1..4,
    then each prime stripped while the quotient still repeats."""
    length = closed_form_period(kind, d)
    first = [platonic_value(kind, n) for n in range(1, 5)]

    def repeats(shift):
        return all(
            (platonic_value(kind, n + shift) - value) % d == 0
            for n, value in enumerate(first, 1)
        )

    assert repeats(length)
    period = length
    for p in trial_division_primes(length):
        while period % p == 0 and repeats(period // p):
            period //= p
    return period


@pytest.mark.parametrize("kind", list(PlatonicKind))
def test_numerator_residues_match_the_value_residues(kind):
    # d*q divides N(n + s) - N(n) exactly when d divides f(n + s) - f(n)
    for d in range(2, 3001):
        assert empirical_period(kind, d) == reference_period(kind, d), d


def trial_division_primes(n):
    def is_prime(p):
        return p > 1 and all(p % f for f in range(2, int(p**0.5) + 1))

    small = [f for f in range(1, int(n**0.5) + 1) if n % f == 0]
    return sorted(p for p in {*small, *(n // f for f in small)} if is_prime(p))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=10**6))
@example(n=1)
@example(n=999_983)  # the largest prime below 10**6
@example(n=2 * 999_983)
@example(n=720_720)
@example(n=2**19)
@example(n=997 * 997)
def test_prime_factors_match_trial_division(n):
    assert periodicity._prime_factors(n) == trial_division_primes(n)


def test_period_range_value_calls_stay_bounded(monkeypatch, tmp_path):
    # Each shift costs at most three residues, each one closed-form
    # numerator, and the detector tests at most one shift more than the
    # closed form has prime factors, counted with multiplicity: 4,968
    # residues for this command (the bound was set when four residues a
    # shift cost 5,985).  Testing the divisors in ascending order up to the
    # first that repeats would cost 8,871, and a window of two closed-form
    # periods per modulus 328,118.
    calls = 0

    def counting(numerator):
        def count(n):
            nonlocal calls
            calls += 1
            return numerator(n)

        return count

    for kind, (numerator, divisor) in list(sequences._CLOSED_FORMS.items()):
        monkeypatch.setitem(
            sequences._CLOSED_FORMS, kind, (counting(numerator), divisor)
        )
    out = tmp_path / "period.csv"
    assert cli.main(["period", "all", "2..200", "--out", str(out)]) == 0
    assert 0 < calls <= 6_500


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


def test_check_period_claim_computes_the_closed_form_once(monkeypatch):
    # the detector starts from the closed form the report already holds
    calls = []

    def counted(kind, d):
        calls.append((kind, d))
        return closed_form_period(kind, d)

    monkeypatch.setattr(periodicity, "closed_form_period", counted)
    report = check_period_claim(PlatonicKind.CUBE, 9)
    assert (report.closed_form, report.empirical) == (9, 3)
    assert calls == [(PlatonicKind.CUBE, 9)]


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
        window = [platonic_value(kind, n) % d for n in range(1, 2 * shift + 1)]
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
