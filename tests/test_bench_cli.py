"""Smoke tests of tools/bench_cli.py, which proves refactors byte-identical.

Each case runs the script in process on a tiny command line; its children
are fresh interpreters, as in a real comparison.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "bench_cli", REPO / "tools" / "bench_cli.py"
)
bench_cli = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_cli)

# each child reads its peak from its own /proc status as it exits
pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="needs /proc/self/status"
)


def test_equal_trees_agree(tmp_path, capsys):
    out = tmp_path / "bench.json"
    argv = ["--base", str(REPO), "--change", str(REPO), "--runs", "3"]
    assert bench_cli.main([*argv, "--out", str(out), "pollock 30"]) == 0
    document = json.loads(out.read_text())
    assert document["schema"] == "bench_cli/1"
    [command] = document["commands"]
    assert command["args"] == "pollock 30"
    for stats in command["trees"].values():
        assert len(stats["wall_s"]["runs"]) == 3
        assert stats["exit"] == [0]
        assert len(stats["stdout_sha256"]) == 1
    trees = command["trees"]
    assert trees["base"]["stdout_sha256"] == trees["change"]["stdout_sha256"]
    assert "differ" not in capsys.readouterr().err


def test_differing_stdout_exits_1(tmp_path, capsys):
    stub = tmp_path / "stub" / "src" / "platonics"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "__main__.py").write_text('print("not the scan")\n')
    out = tmp_path / "bench.json"
    argv = ["--base", str(REPO), "--change", str(tmp_path / "stub"), "--runs", "3"]
    assert bench_cli.main([*argv, "--out", str(out), "pollock 30"]) == 1
    assert "stdout differs between the trees: pollock 30" in capsys.readouterr().err
