"""Count the code lines of Python files, the size this project quotes.

    python tools/code_lines.py src/platonics/pollock.py src/platonics/cli.py

A code line is a line that a token of a statement covers.  Comments, blank
lines and bare string statements (docstrings, and any other statement that
is only a string) count nothing; a wrapped expression counts every line it
spans, a multi-line string inside code every line it covers.  Prints one
line per file, its count and its path, and a total when there are several
files.
"""

from __future__ import annotations

import io
import sys
import tokenize

#: Tokens that are no code: layout, comments and the stream's ends.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in Python `source`."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if token.type != tokenize.NEWLINE:
            statement.append(token)
            continue
        # a statement of strings alone is a docstring or a bare string
        if any(t.type != tokenize.STRING for t in statement):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for path in argv:
        with open(path, encoding="utf-8") as source:
            count = code_lines(source.read())
        total += count
        print(f"{count}\t{path}")
    if len(argv) > 1:
        print(f"{total}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
