"""Byte-exact CLI outputs: every subcommand in every format.

`golden/cli_matrix.json` maps each command line below to the stdout, stderr
and exit code that `cli.main` produced for it before the per-format
renderers were merged into one.  Any change to those bytes is a change of
the CLI's output contract, not a refactor.  Each case also runs with
`--out FILE`: stdout stays empty and the file holds the golden stdout.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from platonics import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_matrix.json"

COMMANDS = [
    "gen tetrahedral 1..10",
    "gen cube 5",
    "gen dodecahedral 1..12 --check-recurrence",
    "gen cube 0..5",
    "difftable octahedral 6",
    "difftable cube 4",
    "represent tetrahedral 1234",
    "represent cube -36",
    "represent octahedral 0",
    "represent icosahedral 45000000000000000000000000000000000000000",
    "represent dodecahedral 54",
    "period all 2..6",
    "period cube 9",
    "period all 1..3",
    "verify-identities tetrahedral 1..4",
    "verify-identities all 7",
    "verify-identities cube",
    "verify-identities cube 0..3",
    "pollock 40",
    "pollock 40 --witnesses",
    "pollock 30 --strict-distinct",
    "pollock 30 --strict-distinct --witnesses",
    "pollock 10 --max-terms 1",
    "pollock 0",
    "paper-tables",
]

CASES = [f"{command} --format {fmt}" for command in COMMANDS for fmt in cli.FORMATS]


def run_main(argv: list[str]) -> dict:
    """stdout, stderr and exit code of one in-process `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_bytes().decode("utf-8"))


def test_golden_covers_exactly_the_matrix(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(case, golden):
    assert run_main(case.split()) == golden[case]


@pytest.mark.parametrize("case", CASES)
def test_out_file_matches_golden(case, golden, tmp_path):
    target = tmp_path / "out.txt"
    result = run_main([*case.split(), "--out", str(target)])
    expected = golden[case]
    assert result == {**expected, "stdout": ""}
    if expected["stdout"]:
        assert target.read_bytes().decode("utf-8") == expected["stdout"]
    else:
        assert not target.exists()
