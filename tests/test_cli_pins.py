"""sha256 pins of witness streams too large for the golden matrix.

`golden/cli_matrix.json` stops at N = 40, where no target needs four terms.
At N = 80000 the targets 26015, 63117 and 75977 do, so these pins cover
every recovery depth of the default mode.  The strict-distinct pins cover
its recovery: at N = 3000 it never goes past three terms, and
N = 30000 is the first size whose stream has a four-term target (26015).
The 80000 and 3000 digests were taken from the output of the buffered
renderer, before witness lines were streamed; the 30000 digest from the
stream whose strict search was bounded by prefix sums, before it was
pruned by the layer masks.  The 100000 strict digest was taken from the
depth-first stream, before strict recovery went through the first-term table.
"""

import contextlib
import hashlib
import io

import pytest

from platonics import cli

PINS = {
    "pollock 80000 --witnesses --format json": (
        "c445e4be1400098d3daf9b7e9fc9d942f727d797d4e4696b0db6cf5d1f85387c",
        0,
    ),
    "pollock 80000 --witnesses --format table": (
        "217e5dfb9747d340cafc35e8aff9e6f03b0493d67f2374fd35cfb5a67e7b64f0",
        0,
    ),
    "pollock 3000 --strict-distinct --witnesses --format json": (
        "c7472df981df353e706add8f08d266fd757f38e2235fa1352e5686e419b28b86",
        5,
    ),
    "pollock 30000 --strict-distinct --witnesses --format json": (
        "da2a01fd68d48d2e80590a7976be7edd08a8f61bbc2e52ad253163bb810a531e",
        5,
    ),
    "pollock 100000 --strict-distinct --witnesses --format json": (
        "6436b6e3fbd48b5bd51b5726dac9bbbfb083d2cd5d98942ddbcc8ab01acc7886",
        5,
    ),
}

DEPTH_FOUR = {26015: "25432 + 560 + 19 + 4", 63117: "62196 + 891 + 20 + 10"}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(PINS))
def test_stdout_matches_pin(case, capsys):
    pinned, code = PINS[case]
    assert cli.main(case.split()) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert digest(out) == pinned
    if "80000" in case and "table" in case:
        for target, terms in DEPTH_FOUR.items():
            assert f"\n{target} = {terms}\n" in out


@pytest.mark.parametrize("case", sorted(PINS))
def test_out_file_matches_pin(case, tmp_path, capsys):
    pinned, code = PINS[case]
    path = tmp_path / "witnesses.out"
    assert cli.main([*case.split(), "--out", str(path)]) == code
    assert capsys.readouterr() == ("", "")
    assert digest(path.read_bytes().decode("utf-8")) == pinned
