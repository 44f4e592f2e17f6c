"""tools/code_lines.py, which counts the code lines this project quotes."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "code_lines", REPO / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment


def f(x):
    """A function docstring."""
    # a comment line

    "a bare string statement"
    total = (
        x
        + 1
    )
    return f"{total}" + """a string
that code spans"""
'''


def test_counts_code_and_skips_docstrings_comments_and_bare_strings():
    # import, def, the wrapped expression's four lines, and the return's two
    assert code_lines.code_lines(SNIPPET) == 8


def test_empty_and_comment_only_sources_count_nothing():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines("# only a comment\n\n") == 0
    assert code_lines.code_lines('"""only a docstring"""\n') == 0


def test_main_prints_each_file_and_a_total(tmp_path, capsys):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(SNIPPET)
    second.write_text("x = 1\n")
    assert code_lines.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"8\t{first}",
        f"1\t{second}",
        "9\ttotal",
    ]
