"""Smoke tests of tools/bench_cli.py, which proves refactors byte-identical.

Each case runs the script in process on a tiny command line; its children
are fresh interpreters, as in a real comparison.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import platonics
from platonics import (
    DIFFERENCE_MAX_ROWS,
    PERIOD_MAX_MODULI,
    PERIOD_MAX_MODULUS,
    SEQUENCE_MAX_INDEX,
    cli,
)

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
        # the child's own CPU seconds: importing the package takes user time
        assert len(stats["user_s"]["runs"]) == 3
        assert all(user > 0 for user in stats["user_s"]["runs"])
        assert all(sys_s >= 0 for sys_s in stats["sys_s"]["runs"])
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


def test_each_tree_runs_from_its_own_compiled_prefix(tmp_path, monkeypatch):
    # with bytecode writes off, a child would compile every module it
    # imports; an untimed run per tree first fills the tree's own prefix
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    shutil.copytree(REPO / "src", tmp_path / "copy" / "src")
    calls = []
    call = subprocess.call

    def record(argv, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        # the prefix mirrors each source's absolute directory
        compiled = {Path("/", p.relative_to(prefix)) for p in prefix.rglob("*.pyc")}
        writes = "PYTHONDONTWRITEBYTECODE" not in env
        calls.append((env["PYTHONPATH"], prefix, writes, compiled))
        return call(argv, env=env, **kwargs)

    monkeypatch.setattr(bench_cli.subprocess, "call", record)
    out = tmp_path / "bench.json"
    argv = ["--base", str(REPO), "--change", str(tmp_path / "copy"), "--runs", "3"]
    assert bench_cli.main([*argv, "--out", str(out), "pollock 30"]) == 0
    # one untimed run per tree, then three timed ones each
    assert [writes for _, _, writes, _ in calls] == [True] * 2 + [False] * 6
    prefixes = {path: prefix for path, prefix, _, _ in calls[:2]}
    assert len(set(prefixes.values())) == 2
    for path, prefix, _, compiled in calls[2:]:
        assert prefix == prefixes[path]
        # the tree's own package and the standard library are compiled
        package = {p.parent for p in compiled if p.name.startswith("pollock.")}
        assert package == {Path(path, "platonics")}
        assert any(p.parent.name == "json" for p in compiled)
    # the prefixes are temporary
    assert not any(prefix.exists() for _, prefix, _, _ in calls)


def parsed_set(name):
    """The command lines of a named set, each parsed as platonics parses it,
    with the int/str digit limit lifted as `cli.main` lifts it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(max(limit, cli.REPRESENT_MAX_DIGITS))
    try:
        return [
            cli._build_parser().parse_args(line.split())
            for line in bench_cli.SETS[name]
        ]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_named_sets_parse_as_platonics_command_lines():
    # each line of a named set is a platonics command that the parser takes
    for name in bench_cli.SETS:
        parsed_set(name)
    report = parsed_set("report-ceilings")
    assert report and all(a.command == "pollock" and not a.witnesses for a in report)


def test_witness_streams_set_streams_witnesses():
    # every line streams witnesses, in both formats that can, and one of
    # them with distinct values
    streams = parsed_set("witness-streams")
    assert streams and all(a.command == "pollock" and a.witnesses for a in streams)
    assert {a.format for a in streams} == {"json", "table"}
    assert any(a.strict_distinct for a in streams)


def test_arith_ceilings_set_runs_every_other_command_at_its_ceiling():
    lines = parsed_set("arith-ceilings")
    commands = {a.command for a in lines}
    assert commands == {"represent", "period", "gen", "verify-identities", "difftable"}
    represent = [a for a in lines if a.command == "represent"]
    largest = 10**cli.REPRESENT_MAX_DIGITS - 1
    ceiling = [a.format for a in represent if a.target == -largest]
    assert sorted(ceiling) == sorted(cli.FORMATS)
    assert any(a.kind == "dodecahedral" and a.target > 10**4300 for a in represent)
    for a in lines:
        if a.command == "period":
            lo, hi = a.range
            assert (hi, hi - lo + 1) == (PERIOD_MAX_MODULUS, PERIOD_MAX_MODULI)
        elif a.command == "gen":
            assert a.range[1] == SEQUENCE_MAX_INDEX and a.check_recurrence
        elif a.command == "verify-identities":
            assert a.range[1] == cli.IDENTITY_MAX_INDEX
        elif a.command == "difftable":
            assert a.rows == DIFFERENCE_MAX_ROWS
    for command in ("gen", "difftable", "period", "verify-identities"):
        formats = [a.format for a in lines if a.command == command]
        assert sorted(formats) == sorted(cli.FORMATS), command


def test_arith_ceilings_reach_every_ceiling_constant():
    # Every public ceiling constant, and the CLI's index ceiling, is reached
    # by a line of the set, so each ceiling has its measured line; a new
    # public ceiling fails here until the set reaches it.
    reached = defaultdict(set)
    lines = bench_cli.SETS["arith-ceilings"]
    for line, a in zip(lines, parsed_set("arith-ceilings")):
        if a.command == "gen":
            reached["SEQUENCE_MAX_INDEX"].add(a.range[1])
        elif a.command == "difftable":
            reached["DIFFERENCE_MAX_ROWS"].add(a.rows)
        elif a.command == "represent":
            # the digits of the target as written, sign apart
            reached["REPRESENT_MAX_DIGITS"].add(len(line.split()[2].lstrip("+-")))
        elif a.command == "period":
            lo, hi = a.range
            reached["PERIOD_MAX_MODULUS"].add(hi)
            reached["PERIOD_MAX_MODULI"].add(hi - lo + 1)
        elif a.command == "verify-identities":
            reached["IDENTITY_MAX_INDEX"].add(a.range[1])
    ceilings = {name: getattr(platonics, name) for name in platonics.__all__}
    ceilings = {name: value for name, value in ceilings.items() if "_MAX_" in name}
    ceilings["IDENTITY_MAX_INDEX"] = cli.IDENTITY_MAX_INDEX
    assert reached.keys() == ceilings.keys()
    for name, value in ceilings.items():
        assert value in reached[name], name


def test_a_set_or_a_command_line_is_required(tmp_path):
    argv = ["--base", str(REPO), "--change", str(REPO), "--out", str(tmp_path / "b")]
    with pytest.raises(SystemExit):
        bench_cli.main(argv)
