"""Command-line front end over every operation in the package.

All output is deterministic for fixed inputs: integers render as exact
decimal text, JSON field order is fixed, and CSV column orders are frozen
(documented in the README).  Each command picks its format's text and hands
it to `_write`, the one function that writes command output: it writes each
piece of text to stdout or `--out` as the piece is produced.  `pollock`
produces its witness text one block of lines at a time, so each block is
written as soon as its witnesses are recovered; the other commands hand
over one string.  `_columns_text` formats named columns of cell text:
`json` gives one object per row and line, `csv` the names as a header and
then one row per line, and `table` the same rows aligned.  Each command
picks its cells' text, one map per column: `str` of an int, `true`/`false`
for a bool, and a list's items joined by `;`; it names the columns whose
cells json quotes as strings, and json writes the other cells as they
are.  Exit codes: 0 success, 2 usage or domain error
(an unwritable `--out` included), 3 divisibility violation, 4 internal
consistency failure (any `RuntimeError`), 5 scan found an integer with no
decomposition inside the term budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from bisect import bisect_left
from collections.abc import Callable, Collection, Iterable, Iterator
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, mod

from .identities import _identity_checks
from .periodicity import check_period_range
from .pollock import ScanReport, _gather, _scan, _WitnessBlock, _witnesses
from .representations import (
    REPRESENT_MAX_DIGITS,
    NotDivisibleError,
    _decimal_texts,
    represent_multiple,
)
from .sequences import (
    SEQUENCE_MAX_INDEX,
    DifferenceTable,
    PlatonicKind,
    difference_table,
    platonic_value,
    platonic_values_by_recurrence,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_DIVISIBLE = 3
EXIT_INTERNAL = 4
EXIT_COUNTEREXAMPLE = 5

FORMATS = ("table", "json", "csv")
KIND_NAMES = tuple(kind.value for kind in PlatonicKind)
_BOOL_TEXT = {True: "true", False: "false"}

#: Largest index `verify-identities` checks; its time and peak at this
#: ceiling are measured by the `verify-identities` lines of
#: `tools/bench_cli.py --set arith-ceilings`.
IDENTITY_MAX_INDEX = 10_000


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
    else:
        lo_text = hi_text = text
    try:
        return int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N or LO..HI, got {text!r}"
        ) from None


def _parse_target(text: str) -> int:
    if len(text.strip().lstrip("+-")) > REPRESENT_MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {REPRESENT_MAX_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _columns_text(
    fmt: str, columns: dict[str, Iterable[str]], quoted: Collection[str] = ()
) -> str:
    """json lines, or csv or table text headed by the column names, from
    named columns of cell text of one length.

    json writes each record from one `%` template of the names, quoting
    the cells of the `quoted` columns as `json.dumps` quotes a str and
    writing the others as they are.  csv and table write every cell as it
    is.  json and csv read the columns once, as they go; a table holds
    each column's cells to find its width, the header's included.
    """
    if fmt == "json":
        keys = (encode_basestring_ascii(name).replace("%", "%%") for name in columns)
        template = "{" + ", ".join(f"{key}: %s" for key in keys) + "}\n"
        cells = [
            map(encode_basestring_ascii, column) if name in quoted else column
            for name, column in columns.items()
        ]
        return "".join(map(template.__mod__, zip(*cells)))
    if fmt == "csv":
        rows = map(",".join, zip(*columns.values()))
        return "\n".join(chain([",".join(columns)], rows)) + "\n"
    cells = [[name, *column] for name, column in columns.items()]
    template = "  ".join(f"%-{max(map(len, column))}s" for column in cells)
    return "\n".join(map(str.rstrip, map(template.__mod__, zip(*cells)))) + "\n"


def _kind_cells(kinds: list[PlatonicKind], count: int) -> Iterator[str]:
    """The kind column of `count` records that take the kinds in turn, an
    equal run of records each."""
    run = count // len(kinds)
    return chain.from_iterable(repeat(kind.value, run) for kind in kinds)


def _field_cells(records: list, name: str, text: Callable = str) -> Iterator[str]:
    """The text of one attribute of every record."""
    return map(text, map(attrgetter(name), records))


def _write(args: argparse.Namespace, pieces: Iterable[str]) -> None:
    """Write each piece of text to stdout or `--out` as it is produced."""
    if not args.out:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.writelines(pieces)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None


def _kinds_for(name: str) -> list[PlatonicKind]:
    if name == "all":
        return list(PlatonicKind)
    return [PlatonicKind(name)]


# ---------------------------------------------------------------- gen


def _cmd_gen(args: argparse.Namespace) -> int:
    lo, hi = args.range
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= from <= to, got {lo}..{hi}")
    if hi > SEQUENCE_MAX_INDEX:
        raise ValueError(f"index {hi} exceeds the ceiling {SEQUENCE_MAX_INDEX}")
    kind = PlatonicKind(args.kind)
    values = [platonic_value(kind, n) for n in range(lo, hi + 1)]
    if args.check_recurrence:
        # one expression, so that no name keeps the recurrence's values
        if list(platonic_values_by_recurrence(kind, hi).values[lo - 1 :]) != values:
            raise RuntimeError(f"recurrence and closed form disagree for {kind}")
    if args.format == "json":
        values_text = [str(v) for v in values]
        payload = {"kind": kind.value, "start": lo, "end": hi, "values": values_text}
        text = json.dumps(payload) + "\n"
    elif args.format == "table":
        text = ", ".join(str(v) for v in values) + "\n"
    else:
        columns = {"n": map(str, range(lo, hi + 1)), "value": map(str, values)}
        text = _columns_text(args.format, columns)
    _write(args, [text])
    return EXIT_OK


# ---------------------------------------------------------------- difftable


def _difference_cells(table: DifferenceTable) -> dict[str, Iterator[str]]:
    """The `n, value, d1..d4` columns of a table, one row per index; cells
    past the end of a shorter difference column are empty."""
    cells = {"n": map(str, range(1, table.rows + 1))}
    cells["value"] = map(str, table.orders[0])
    for order in range(1, 5):
        column = table.orders[order]
        padding = repeat("", table.rows - len(column))
        cells[f"d{order}"] = chain(map(str, column), padding)
    return cells


def _orders_text(table: DifferenceTable) -> list[list[str]]:
    return [[str(v) for v in column] for column in table.orders]


def _cmd_difftable(args: argparse.Namespace) -> int:
    table = difference_table(PlatonicKind(args.kind), args.rows)
    if args.format == "json":
        payload = {"kind": args.kind, "rows": args.rows, "orders": _orders_text(table)}
        text = json.dumps(payload) + "\n"
    else:
        text = _columns_text(args.format, _difference_cells(table))
    _write(args, [text])
    return EXIT_OK


# ---------------------------------------------------------------- represent


def _cmd_represent(args: argparse.Namespace) -> int:
    """The representation in its format, laid out from the decimal texts of
    `_decimal_texts`, so that no int above the coefficients is converted to
    text; the table has no values, so they are not computed for it.  json
    and csv give `to_json_dict`'s keys in its order: json from one
    template, csv by `_columns_text` over one row of the texts."""
    rep = represent_multiple(PlatonicKind(args.kind), args.target)
    indices, target, values = _decimal_texts(rep, args.format != "table")
    kind, coefficients = rep.kind.value, rep.coefficients
    if args.format == "table":
        (first, base), *later = zip(coefficients, indices)
        terms = [f"{first}*{kind}({base})"]
        terms += [f"{'-' if c < 0 else '+'} {abs(c)}*{kind}({i})" for c, i in later]
        text = f"{target} = {' '.join(terms)}\n"
    elif args.format == "json":
        text = (
            '{"kind": "%s", "base_index": %s, "coefficients": [%s], '
            '"indices": [%s], "values": ["%s"], "target": "%s"}\n'
        ) % (
            kind,
            indices[0],
            ", ".join(map(str, coefficients)),
            ", ".join(indices),
            '", "'.join(values),
            target,
        )
    else:
        row = {
            "kind": kind,
            "base_index": indices[0],
            "coefficients": ";".join(map(str, coefficients)),
            "indices": ";".join(indices),
            "values": ";".join(values),
            "target": target,
        }
        text = _columns_text(args.format, {key: [cell] for key, cell in row.items()})
    _write(args, [text])
    return EXIT_OK


# ---------------------------------------------------------------- period


def _cmd_period(args: argparse.Namespace) -> int:
    """`PeriodReport.to_json_dict`'s keys, one row per report."""
    kinds = _kinds_for(args.kind)
    reports = check_period_range(kinds, *args.range)
    columns = {
        "kind": _kind_cells(kinds, len(reports)),
        "d": _field_cells(reports, "modulus"),
        "closed_form": _field_cells(reports, "closed_form"),
        "empirical": _field_cells(reports, "empirical"),
        "agrees": _field_cells(reports, "agrees", _BOOL_TEXT.__getitem__),
    }
    _write(args, [_columns_text(args.format, columns, quoted=["kind"])])
    return EXIT_OK


# ---------------------------------------------------------------- verify-identities


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    lo, hi = args.range
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got {lo}..{hi}")
    if hi > IDENTITY_MAX_INDEX:
        raise ValueError(f"index {hi} exceeds the ceiling {IDENTITY_MAX_INDEX}")
    kinds = _kinds_for(args.kind)
    checks = [check for kind in kinds for check in _identity_checks(kind, lo, hi)]
    columns = {
        "kind": _kind_cells(kinds, len(checks)),
        "order": _field_cells(checks, "order"),
        "n": _field_cells(checks, "index"),
        "expected": _field_cells(checks, "expected"),
        "actual": _field_cells(checks, "actual"),
        "holds": _field_cells(checks, "holds", _BOOL_TEXT.__getitem__),
    }
    quoted = ["kind", "expected", "actual"]
    _write(args, [_columns_text(args.format, columns, quoted)])
    if any(not c.holds for c in checks):
        raise RuntimeError("a difference identity failed to hold")
    return EXIT_OK


# ---------------------------------------------------------------- pollock


def _report_fields(report: ScanReport) -> dict[str, tuple[str, ...]]:
    """The csv columns of a report up to its failure count."""
    fields = [("n", str(report.n)), ("max_terms", str(report.max_terms))]
    fields.append(("strict_distinct", _BOOL_TEXT[report.strict_distinct]))
    fields += [(f"terms_{k}", str(c)) for k, c in sorted(report.histogram.items())]
    fields.append(("failure_count", str(len(report.failures))))
    names, values = zip(*fields)
    return {"field": names, "value": values}


def _joined(
    blocks: Iterable[list[int]], before: str, between: str, after: str
) -> Iterator[str]:
    """before + between.join(map(str, items)) + after over the items of
    every block, as one piece per block that has items; nothing when no
    block has any."""
    lead, wrote = before, False
    for block in blocks:
        if block:
            yield lead + between.join(map(str, block))
            lead, wrote = between, True
    if wrote:
        yield after


def _witness_text(
    fmt: str, blocks: Iterable[_WitnessBlock], values: list[int]
) -> Iterator[str]:
    """The witness lines of each block of a scan's walk, joined into one
    string per block.

    json lines are `json.dumps(w.to_json_dict())` of each Witness, written
    directly since every value is a digit string that needs no escaping,
    and table lines read `m = v + w + ...`.  Every term's text is rendered
    once per pool index, as a first term and as a later one, with "" at
    index 0 (past a witness's last term).  A block's lines are laid out in
    one list of pieces, one stride per line, and each kind of piece goes in
    by slice assignment: the head, m's last three digits, the min-terms
    part (json only), the term columns and the line end.  m is not passed
    to str.  The targets are cut (by bisect) into runs that share
    q = m // 1000; for q > 0 the run's head carries str(q), rendered once,
    and m's piece is m % 1000 as three digits from a table, one slice of
    it where the run's targets are consecutive.  Only the targets below
    1000 (q = 0) take str(m), once per stream.  A row's term count is its
    target's depth, which the walk yields with it, so the min-terms parts
    are one gather by depth.
    """
    json_lines = fmt == "json"
    if json_lines:
        head, after_m, end = '{"target": "', "", "]}\n"
        first = ["", *[f'"{v}"' for v in values]]
        later = ["", *[f', "{v}"' for v in values]]
    else:
        head, after_m, end = "", " = ", "\n"
        first = ["", *map(str, values)]
        later = ["", *[f" + {v}" for v in values]]
    padded = [f"{r:03d}" for r in range(1000)]
    for targets, depths, columns in blocks:
        width = len(columns)
        stride = width + 4
        count = len(targets)
        pieces = [head, "", after_m, *[""] * width, end] * count
        # targets[lo:hi] is a run that shares q
        lo = 0
        while lo < count:
            q, r = divmod(targets[lo], 1000)
            hi = bisect_left(targets, 1000 * (q + 1), lo)
            if not q:
                pieces[1 : hi * stride : stride] = map(str, targets[:hi])
            else:
                pieces[lo * stride : hi * stride : stride] = [head + str(q)] * (hi - lo)
                if targets[hi - 1] - targets[lo] == hi - 1 - lo:
                    # the run's targets are consecutive, so their keys are too
                    low = padded[r : r + hi - lo]
                else:
                    low = _gather(padded, list(map(mod, targets[lo:hi], repeat(1000))))
                pieces[lo * stride + 1 : hi * stride : stride] = low
            lo = hi
        if json_lines:
            # the text after m for each depth, which is the count of terms
            counted = [f'", "min_terms": {n}, "terms": [' for n in range(width + 1)]
            pieces[2::stride] = _gather(counted, depths)
        pieces[3::stride] = _gather(first, columns[0])
        for j in range(1, width):
            pieces[3 + j :: stride] = _gather(later, columns[j])
        yield "".join(pieces)


def _report_text(fmt: str, report: ScanReport) -> Iterator[str]:
    """A report's text in its format, its failures written one block (an
    eighth of a window of the last layer) at a time."""
    blocks = report.failures.blocks()
    if fmt == "json":
        # the json.dumps text, its failures list written from the blocks
        yield json.dumps(report._json_head())[:-1] + ', "failures": ['
        yield from _joined(blocks, '"', '", "', '"')
        yield "]}\n"
        return
    if fmt == "csv":
        yield _columns_text(fmt, _report_fields(report))
        yield from _joined(blocks, "failure,", "\nfailure,", "\n")
        return
    lines = [
        f"n: {report.n}",
        f"max terms: {report.max_terms}",
        f"strict distinct: {_BOOL_TEXT[report.strict_distinct]}",
        "histogram:",
    ]
    lines += [f"  {k} terms: {report.histogram[k]}" for k in sorted(report.histogram)]
    if not report.failures:
        yield "\n".join(lines) + "\nfailures: none\n"
        return
    lines.append(f"failures ({len(report.failures)}): ")
    yield "\n".join(lines)
    yield from _joined(blocks, "", " ", "")
    yield "\n"


def _cmd_pollock(args: argparse.Namespace) -> int:
    if args.witnesses and args.format == "csv":
        raise ValueError("witness streaming needs table or json format")
    # a report alone reads only the last layer, so only that one is kept
    n, strict = args.n, args.strict_distinct
    report, _, values, layers = _scan(n, args.max_terms, strict, args.witnesses)
    pieces = _report_text(args.format, report)
    if args.witnesses:
        # Witness lines are written a block at a time as they are recovered,
        # the report last.
        blocks = _witnesses(1, n, layers, values, strict)
        pieces = chain(_witness_text(args.format, blocks, values), pieces)
    _write(args, pieces)
    return EXIT_COUNTEREXAMPLE if report.failures else EXIT_OK


# ---------------------------------------------------------------- paper-tables


def _paper_tables_text(tables: list[DifferenceTable]) -> str:
    lines = ["platonic numbers: first 10 values of each family", ""]
    for table in tables:
        lines.append(f"{table.kind.value}: " + ", ".join(map(str, table.orders[0])))
    for table in tables:
        lines.append("")
        lines.append(f"forward differences: {table.kind.value}")
        lines.append(_columns_text("table", _difference_cells(table)).rstrip("\n"))
    return "\n".join(lines) + "\n"


def _cmd_paper_tables(args: argparse.Namespace) -> int:
    kinds = list(PlatonicKind)
    tables = [difference_table(kind, 10) for kind in kinds]
    if args.format == "json":
        orders = {t.kind.value: _orders_text(t) for t in tables}
        payload = {
            "sequences": {kind: text[0] for kind, text in orders.items()},
            "difference_tables": orders,
        }
        text = json.dumps(payload) + "\n"
    elif args.format == "table":
        text = _paper_tables_text(tables)
    else:
        cells = [_difference_cells(table) for table in tables]
        columns = {"kind": _kind_cells(kinds, sum(table.rows for table in tables))}
        for name in cells[0]:
            columns[name] = chain(*[table_cells[name] for table_cells in cells])
        text = _columns_text(args.format, columns)
    _write(args, [text])
    return EXIT_OK


# ---------------------------------------------------------------- parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later `main` call.

    `parse_args` returns a fresh namespace each time and the parser keeps no
    parsed state, so sharing it changes no output.
    """
    parser = argparse.ArgumentParser(
        prog="platonics",
        description="Exact arithmetic over the five platonic-number families.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument("--out", metavar="FILE", default=None)

    gen = subparsers.add_parser(
        "gen", parents=[common], help="generate sequence values over an index range"
    )
    gen.add_argument("kind", choices=KIND_NAMES)
    gen.add_argument("range", type=_parse_range, metavar="FROM..TO")
    gen.add_argument(
        "--check-recurrence",
        action="store_true",
        help="cross-check the closed form against the linear recurrence",
    )
    gen.set_defaults(handler=_cmd_gen)

    difftable = subparsers.add_parser(
        "difftable", parents=[common], help="forward-difference table of a family"
    )
    difftable.add_argument("kind", choices=KIND_NAMES)
    difftable.add_argument("rows", type=int)
    difftable.set_defaults(handler=_cmd_difftable)

    represent = subparsers.add_parser(
        "represent",
        parents=[common],
        help="write a target as a 4-term combination of consecutive values",
    )
    represent.add_argument("kind", choices=KIND_NAMES)
    represent.add_argument("target", type=_parse_target)
    represent.set_defaults(handler=_cmd_represent)

    period = subparsers.add_parser(
        "period", parents=[common], help="closed-form vs observed period mod d"
    )
    period.add_argument("kind", choices=KIND_NAMES + ("all",))
    period.add_argument("range", type=_parse_range, metavar="D_LO..D_HI")
    period.set_defaults(handler=_cmd_period)

    verify = subparsers.add_parser(
        "verify-identities",
        parents=[common],
        help="evaluate both sides of every difference identity over a range",
    )
    verify.add_argument("kind", choices=KIND_NAMES + ("all",))
    verify.add_argument(
        "range", type=_parse_range, metavar="N_LO..N_HI", nargs="?", default=(1, 50)
    )
    verify.set_defaults(handler=_cmd_verify_identities)

    pollock = subparsers.add_parser(
        "pollock",
        parents=[common],
        help="scan [1, N] for sums of at most K platonic numbers",
    )
    pollock.add_argument("n", type=int, metavar="N")
    pollock.add_argument("--max-terms", type=int, default=5, metavar="K")
    pollock.add_argument(
        "--witnesses",
        action="store_true",
        help="stream one minimal decomposition per representable integer",
    )
    pollock.add_argument(
        "--strict-distinct",
        action="store_true",
        help="forbid repeated values inside a decomposition",
    )
    pollock.set_defaults(handler=_cmd_pollock)

    tables = subparsers.add_parser(
        "paper-tables",
        parents=[common],
        help="emit the canonical sequence lists and difference tables",
    )
    tables.set_defaults(handler=_cmd_paper_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Interpreters since 3.10.7 refuse int/str conversions past a digit
    # limit (4300 by default); lift it as far as `represent` needs, for this
    # call only.  The lift serves the parse of its target alone: its output
    # and its error texts are made as decimal text without int/str
    # conversion.  Zero means no limit, as on interpreters without one.
    saved_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved_limit:
        sys.set_int_max_str_digits(max(saved_limit, REPRESENT_MAX_DIGITS))
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except NotDivisibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_DIVISIBLE
    except (RuntimeError, ArithmeticError) as exc:
        # an engine consistency check failed: a bug, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if saved_limit:
            sys.set_int_max_str_digits(saved_limit)


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`| head`), so the rest of the output
        # has nowhere to go.  Point stdout at devnull, so that the flush at
        # interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)
