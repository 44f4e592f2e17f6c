"""CLI surface: arguments, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import pytest

from platonics import (
    DIFFERENCE_MAX_ROWS,
    SEQUENCE_MAX_INDEX,
    PlatonicKind,
    Representation,
    cli,
    evaluate_representation,
    identities,
    pollock,
    representations,
    sequences,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "platonics", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def int_text_limit():
    """The interpreter's int/str conversion digit limit; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_gen_table(capsys):
    code, out, _ = run_cli(["gen", "tetrahedral", "1..10"], capsys)
    assert code == 0
    assert out == "1, 4, 10, 20, 35, 56, 84, 120, 165, 220\n"


def test_gen_single_index(capsys):
    code, out, _ = run_cli(["gen", "cube", "1"], capsys)
    assert code == 0
    assert out == "1\n"


def test_gen_icosahedral_span(capsys):
    code, out, _ = run_cli(["gen", "icosahedral", "7..8"], capsys)
    assert code == 0
    assert out == "742, 1128\n"


def test_gen_json_and_csv(capsys):
    code, out, _ = run_cli(["gen", "octahedral", "1..3", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "kind": "octahedral",
        "start": 1,
        "end": 3,
        "values": ["1", "6", "19"],
    }
    code, out, _ = run_cli(["gen", "octahedral", "1..3", "--format", "csv"], capsys)
    assert code == 0
    assert out == "n,value\n1,1\n2,6\n3,19\n"


def test_gen_check_recurrence(capsys):
    code, out, _ = run_cli(["gen", "dodecahedral", "1..50", "--check-recurrence"], capsys)
    assert code == 0


def test_gen_invalid_range(capsys):
    code, _, err = run_cli(["gen", "cube", "0..5"], capsys)
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(["gen", "cube", "9..5"], capsys)
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "cube", "1-5"])
    assert exc.value.code == 2
    assert "expected N or LO..HI, got '1-5'" in capsys.readouterr().err


def test_gen_unknown_kind_exits_2():
    result = run_subprocess(["gen", "pyramidal", "1..5"])
    assert result.returncode == 2


def test_difftable_octahedral(capsys):
    code, out, _ = run_cli(["difftable", "octahedral", "6"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "value", "d1", "d2", "d3", "d4"]
    assert lines[1].split() == ["1", "1", "5", "8", "4", "0"]
    assert lines[2].split() == ["2", "6", "13", "12", "4", "0"]


def test_difftable_rows_too_small(capsys):
    code, _, err = run_cli(["difftable", "cube", "4"], capsys)
    assert code == 2
    assert "rows" in err


def test_difftable_json_lengths(capsys):
    code, out, _ = run_cli(["difftable", "dodecahedral", "9", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [len(column) for column in payload["orders"]] == [9, 8, 7, 6, 5]
    assert payload["orders"][1][-1] == "901"


def test_represent_tetrahedral(capsys):
    code, out, _ = run_cli(
        ["represent", "tetrahedral", "1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [3, -8, 7, -2]
    assert payload["base_index"] == 1
    assert payload["target"] == "1"


def test_represent_octahedral_eight(capsys):
    code, out, _ = run_cli(["represent", "octahedral", "8", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["base_index"] == 2
    values = [int(v) for v in payload["values"]]
    coeffs = payload["coefficients"]
    assert sum(c * v for c, v in zip(coeffs, values)) == 8


def test_represent_not_divisible_exit_3(capsys):
    code, _, err = run_cli(["represent", "cube", "7"], capsys)
    assert code == 3
    assert "6" in err
    code, _, err = run_cli(["represent", "dodecahedral", "54"], capsys)
    assert code == 3
    assert "81" in err


def represent_payload(fmt, out):
    """The json object of `represent` output, or the same keys and values
    read back from its csv header and row (the list cells split at `;`)."""
    if fmt == "json":
        return json.loads(out)
    header, row = out.splitlines()
    payload = dict(zip(header.split(","), row.split(",")))
    payload["base_index"] = int(payload["base_index"])
    for key in ("coefficients", "indices"):
        payload[key] = [int(item) for item in payload[key].split(";")]
    payload["values"] = payload["values"].split(";")
    return payload


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "kind, target",
    [
        ("dodecahedral", "81" * 2200),  # 4400 digits, 81 * 1010...101
        ("tetrahedral", "-" + "9" * cli.REPRESENT_MAX_DIGITS),  # largest values
    ],
    ids=["dodecahedral-4400-digits", "tetrahedral-ceiling"],
)
def test_represent_text_past_the_default_digit_limit(kind, target, fmt, capsys):
    limit = int_text_limit()
    code, out, err = run_cli(["represent", kind, target, "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert int_text_limit() == limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        payload = represent_payload(fmt, out)
        rep = Representation(
            kind=PlatonicKind(payload["kind"]),
            base_index=payload["base_index"],
            coefficients=tuple(payload["coefficients"]),
            target=int(payload["target"]),
        )
        assert payload["target"] == target
        assert payload["indices"] == list(rep.indices)
        assert payload["values"] == [str(v) for v in rep.values]
        assert evaluate_representation(rep) == rep.target
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, ceiling",
    [
        (["gen", "cube", f"1..{SEQUENCE_MAX_INDEX + 1}"], SEQUENCE_MAX_INDEX),
        (["difftable", "cube", str(DIFFERENCE_MAX_ROWS + 1)], DIFFERENCE_MAX_ROWS),
        (
            ["verify-identities", "all", f"1..{cli.IDENTITY_MAX_INDEX + 1}"],
            cli.IDENTITY_MAX_INDEX,
        ),
    ],
    ids=["gen", "difftable", "verify-identities"],
)
def test_sizes_over_the_ceiling_exit_2(argv, ceiling, capsys):
    start = time.perf_counter()
    assert cli.main(argv) == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"exceeds the ceiling {ceiling}" in captured.err


def test_index_ceilings_are_inclusive(capsys):
    top = SEQUENCE_MAX_INDEX
    code, out, _ = run_cli(["gen", "cube", f"{top}..{top}", "--format", "csv"], capsys)
    assert (code, out) == (0, f"n,value\n{top},{top**3}\n")
    top = cli.IDENTITY_MAX_INDEX
    code, out, _ = run_cli(
        ["verify-identities", "cube", f"{top}..{top}", "--format", "csv"], capsys
    )
    assert code == 0
    assert out.count("\ncube,") == 4


@pytest.mark.parametrize(
    "target, message",
    [
        (
            "9" * (cli.REPRESENT_MAX_DIGITS + 1),
            f"more than {cli.REPRESENT_MAX_DIGITS} digits",
        ),
        ("12x", "invalid int value: '12x'"),
    ],
    ids=["over-the-ceiling", "not-an-int"],
)
def test_represent_target_refused_at_parse_exits_2(target, message, capsys):
    limit = int_text_limit()
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["represent", "tetrahedral", target])
    assert time.perf_counter() - started < 1.0
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert int_text_limit() == limit


def test_represent_table_equation(capsys):
    code, out, _ = run_cli(["represent", "cube", "6"], capsys)
    assert code == 0
    assert out == "6 = 2*cube(1) - 5*cube(2) + 4*cube(3) - 1*cube(4)\n"


def test_period_tetrahedral_two(capsys):
    code, out, _ = run_cli(["period", "tetrahedral", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "tetrahedral,2,4,4,true"


def test_period_all_counts_rows(capsys):
    code, out, _ = run_cli(["period", "all", "2..10", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,d,closed_form,empirical,agrees"
    assert len(lines) == 1 + 45


def test_period_cube_100(capsys):
    code, out, _ = run_cli(["period", "cube", "100", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == 100


def test_period_invalid_range(capsys):
    code, _, _ = run_cli(["period", "all", "1..5"], capsys)
    assert code == 2


def test_verify_identities_all(capsys):
    code, out, _ = run_cli(
        ["verify-identities", "all", "1..20", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 5 * 4 * 20
    assert all(line.endswith("true") for line in lines[1:])


def test_pollock_small(capsys):
    code, out, _ = run_cli(["pollock", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["histogram"] == {"1": 1, "2": 0, "3": 0, "4": 0, "5": 0}
    assert payload["failures"] == []


def test_pollock_witness_for_104(capsys):
    code, out, _ = run_cli(["pollock", "120", "--witnesses"], capsys)
    assert code == 0
    lines = out.splitlines()
    line = next(l for l in lines if l.startswith("104 = "))
    terms = [int(t) for t in line.split("=")[1].split("+")]
    assert sum(terms) == 104
    assert len(terms) <= 4


def test_pollock_witnesses_json_stream(capsys):
    code, out, _ = run_cli(
        ["pollock", "30", "--witnesses", "--format", "json"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    *witness_lines, report_line = lines
    report = json.loads(report_line)
    assert report["n"] == 30
    assert len(witness_lines) == 30 - report["failure_count"]
    first = json.loads(witness_lines[0])
    assert first == {"target": "1", "min_terms": 1, "terms": ["1"]}


def test_pollock_witnesses_csv_rejected(capsys):
    code, _, err = run_cli(
        ["pollock", "30", "--witnesses", "--format", "csv"], capsys
    )
    assert code == 2
    assert "format" in err


def test_pollock_budget_one_exit_5(capsys):
    code, out, _ = run_cli(["pollock", "10", "--max-terms", "1", "--format", "csv"], capsys)
    assert code == 5
    lines = out.splitlines()
    assert "failure_count,5" in lines
    assert "failure,2" in lines


def test_pollock_strict_distinct_exit_5(capsys):
    code, out, _ = run_cli(["pollock", "10", "--strict-distinct", "--format", "json"], capsys)
    assert code == 5
    payload = json.loads(out)
    assert payload["failures"] == ["2", "3"]


def test_pollock_ceiling_exit_2(capsys):
    code, _, err = run_cli(["pollock", str(10**9)], capsys)
    assert code == 2
    assert "ceiling" in err


@pytest.mark.parametrize(
    "args",
    [
        ["pollock", "10", "--max-terms", "200001"],
        ["pollock", "10000000", "--strict-distinct", "--max-terms", "50"],
    ],
    ids=["term-budget", "strict-layer-bits"],
)
def test_pollock_budget_ceiling_exit_2(args, capsys):
    started = time.perf_counter()
    code, out, err = run_cli(args, capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "ceiling" in err


def test_walk_runs_only_when_read(monkeypatch, capsys):
    usual = {
        fmt: run_cli(["pollock", "1000", "--format", fmt], capsys)
        for fmt in cli.FORMATS
    }

    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(pollock, "_first_terms", no_walk)
    for fmt in cli.FORMATS:
        assert run_cli(["pollock", "1000", "--format", fmt], capsys) == usual[fmt]
        assert usual[fmt][0] == 0
    pollock.scan_conjecture(1000)
    _, stream = pollock.scan_with_witnesses(1000)
    with pytest.raises(AssertionError, match="the walk started"):
        next(stream)


def test_corrupt_first_term_table_exits_4(monkeypatch, capsys):
    real = pollock._first_terms

    def corrupt(*args):
        table, planes = real(*args)
        table = array("H", table)
        table[10] = 0  # drops 10, which the pool value 10 reaches
        return table, planes

    monkeypatch.setattr(pollock, "_first_terms", corrupt)
    code, out, err = run_cli(["pollock", "20", "--witnesses"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err.startswith("error: first-term table and layer 3 disagree at 10")
    assert "masks corrupt" in err


def test_wrong_combination_coefficients_exit_4(monkeypatch, capsys):
    coefficients = representations.COMBINATION_COEFFICIENTS
    monkeypatch.setitem(coefficients, PlatonicKind.TETRAHEDRAL, (3, -8, 7, -1))
    code, out, err = run_cli(["represent", "tetrahedral", "5"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err.startswith("error: combination for tetrahedral evaluated to ")


@pytest.mark.parametrize(
    "shift, message",
    [
        (6, "error: combination for tetrahedral evaluated to 3 in decimal, "),
        (1, "error: "),
    ],
    ids=["wrong-value", "inexact-division"],
)
def test_wrong_decimal_values_exit_4(shift, message, monkeypatch, capsys):
    # The decimal rendering computes the values afresh from its own table;
    # a wrong entry there must not reach the output.  Off by 6, the first
    # tetrahedral value is off by one and the combination by 3; off by 1,
    # the division by 6 is inexact.
    shifted = sequences._SHIFTED_NUMERATORS[PlatonicKind.TETRAHEDRAL]
    (a0, *rest), *later = shifted
    monkeypatch.setitem(
        sequences._SHIFTED_NUMERATORS,
        PlatonicKind.TETRAHEDRAL,
        ((a0 + shift, *rest), *later),
    )
    argv = ["represent", "tetrahedral", "0"]
    for fmt in ("json", "csv"):
        code, out, err = run_cli([*argv, "--format", fmt], capsys)
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert err.startswith(message)
    # the table has no values, so it is still written
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.startswith("0 = 3*tetrahedral(0) - 8*tetrahedral(1) ")


def test_recurrence_disagreement_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(sequences, "RECURRENCE_COEFFICIENTS", (4, -6, 4, -2))
    code, out, err = run_cli(["gen", "cube", "1..10", "--check-recurrence"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == "error: recurrence and closed form disagree for cube\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_failed_identity_writes_every_record_then_exits_4(
    to_file, monkeypatch, tmp_path, capsys
):
    monkeypatch.setitem(identities.THIRD_DIFFERENCE_CONSTANTS, PlatonicKind.CUBE, 7)
    target = tmp_path / "checks.csv"
    argv = ["verify-identities", "cube", "1..3", "--format", "csv"]
    code, out, err = run_cli([*argv, "--out", str(target)] if to_file else argv, capsys)
    assert code == cli.EXIT_INTERNAL
    assert err == "error: a difference identity failed to hold\n"
    if to_file:
        assert out == ""
        out = target.read_text(encoding="utf-8")
    lines = out.splitlines()
    assert lines[0] == "kind,order,n,expected,actual,holds"
    assert len(lines) == 13
    assert [line for line in lines if line.endswith(",false")] == [
        f"cube,3,{n},7,6,false" for n in (1, 2, 3)
    ]


def test_out_file_writes_payload(tmp_path, capsys):
    target = tmp_path / "values.csv"
    code, out, _ = run_cli(
        ["gen", "cube", "1..4", "--format", "csv", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == "n,value\n1,1\n2,8\n3,27\n4,64\n"


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "cube", "1..4", "--format", "csv", "--out", "{tmp}/missing/x.csv"],
        ["pollock", "50", "--witnesses", "--out", "{tmp}"],
    ],
)
def test_unwritable_out_exits_2(args, tmp_path, capsys):
    args = [arg.format(tmp=tmp_path) for arg in args]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {args[-1]}: ")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "fmt, first_line",
    [
        ("json", b'{"target": "1", "min_terms": 1, "terms": ["1"]}\n'),
        ("table", b"1 = 1\n"),
    ],
    ids=["json", "table"],
)
def test_closed_pipe_exits_quietly(fmt, first_line):
    # about 1 MB of witness lines, far more than a pipe buffer holds
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = ["pollock", "20000", "--witnesses", "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, "-m", "platonics", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def test_witness_stream_memory_is_bounded(tmp_path, capsys):
    target = tmp_path / "witnesses.json"
    argv = ["pollock", "100000", "--witnesses", "--format", "json"]
    tracemalloc.start()
    try:
        code = cli.main([*argv, "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr() == ("", "")
    # the lines are written as they are recovered, never held together
    assert peak < target.stat().st_size / 2


def test_paper_tables_matches_golden(capsys):
    golden = Path(__file__).parent / "golden" / "paper_tables.txt"
    code, out, _ = run_cli(["paper-tables"], capsys)
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_paper_tables_supersedes_printed_typos(capsys):
    # regenerated cube table carries 54 where a well-known printing shows 52
    code, out, _ = run_cli(["paper-tables", "--format", "json"], capsys)
    payload = json.loads(out)
    cube_second = payload["difference_tables"]["cube"][2]
    assert cube_second == ["12", "18", "24", "30", "36", "42", "48", "54"]


def test_cli_runs_as_module():
    result = run_subprocess(["gen", "tetrahedral", "1..5"])
    assert result.returncode == 0
    assert result.stdout == "1, 4, 10, 20, 35\n"


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "dodecahedral", "1..12", "--format", "json"],
        ["difftable", "icosahedral", "8", "--format", "csv"],
        ["represent", "octahedral", "-12", "--format", "json"],
        ["period", "all", "2..12", "--format", "csv"],
        ["pollock", "200", "--witnesses", "--format", "json"],
        ["paper-tables", "--format", "json"],
        ["verify-identities", "cube", "1..10", "--format", "json"],
    ],
)
def test_repeated_runs_are_byte_identical(args, capsys):
    first = run_cli(args, capsys)
    second = run_cli(args, capsys)
    assert first == second


def test_shared_parser_carries_nothing_between_calls(capsys):
    # One parser serves every call in a process; a flag or a range given to
    # one call must not reach the next, so each output matches a fresh run.
    sequence = [
        ["pollock", "50", "--witnesses"],
        ["pollock", "50"],
        ["verify-identities", "all", "3..4"],
        ["verify-identities", "all"],
        ["pollock", "50", "--witnesses"],
    ]
    in_process = [run_cli(args, capsys) for args in sequence]
    assert cli._build_parser() is cli._build_parser()
    fresh = [run_subprocess(args) for args in sequence]
    assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]
