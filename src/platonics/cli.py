"""Command-line front end over every operation in the package.

All output is deterministic for fixed inputs: integers render as exact
decimal text, JSON field order is fixed, and CSV column orders are frozen
(documented in the README).  Exit codes: 0 success, 2 usage or domain
error, 3 divisibility violation, 4 internal consistency failure, 5 scan
found an integer with no decomposition inside the term budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .identities import identity_residual
from .periodicity import PeriodConsistencyError, check_period_claim
from .pollock import scan_with_witnesses
from .representations import NotDivisibleError, represent_multiple
from .sequences import (
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


def _align(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _kinds_for(name: str) -> list[PlatonicKind]:
    if name == "all":
        return list(PlatonicKind)
    return [PlatonicKind(name)]


# ---------------------------------------------------------------- gen


def _cmd_gen(args: argparse.Namespace) -> int:
    lo, hi = args.range
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= from <= to, got {lo}..{hi}")
    kind = PlatonicKind(args.kind)
    values = [platonic_value(kind, n) for n in range(lo, hi + 1)]
    if args.check_recurrence:
        recurrent = platonic_values_by_recurrence(kind, hi).values[lo - 1 :]
        if list(recurrent) != values:
            print(
                f"error: recurrence and closed form disagree for {kind}",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
    if args.format == "json":
        payload = {
            "kind": kind.value,
            "start": lo,
            "end": hi,
            "values": [str(v) for v in values],
        }
        text = json.dumps(payload) + "\n"
    elif args.format == "csv":
        rows = ["n,value"]
        rows += [f"{n},{v}" for n, v in zip(range(lo, hi + 1), values)]
        text = "\n".join(rows) + "\n"
    else:
        text = ", ".join(str(v) for v in values) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- difftable


def _render_difference_rows(kind: PlatonicKind, rows: int) -> list[list[str]]:
    table = difference_table(kind, rows)
    body = [["n", "value", "d1", "d2", "d3", "d4"]]
    for n in range(1, rows + 1):
        row = [str(n), str(table.orders[0][n - 1])]
        for order in range(1, 5):
            column = table.orders[order]
            row.append(str(column[n - 1]) if n - 1 < len(column) else "")
        body.append(row)
    return body


def _cmd_difftable(args: argparse.Namespace) -> int:
    kind = PlatonicKind(args.kind)
    table = difference_table(kind, args.rows)
    if args.format == "json":
        payload = {
            "kind": kind.value,
            "rows": table.rows,
            "orders": [[str(v) for v in column] for column in table.orders],
        }
        text = json.dumps(payload) + "\n"
    elif args.format == "csv":
        rows = [",".join(row) for row in _render_difference_rows(kind, args.rows)]
        text = "\n".join(rows) + "\n"
    else:
        text = _align(_render_difference_rows(kind, args.rows))
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- represent


def _equation_text(rep) -> str:
    parts = []
    for j, (coeff, index) in enumerate(zip(rep.coefficients, rep.indices)):
        term = f"{abs(coeff)}*{rep.kind.value}({index})"
        if j == 0:
            parts.append(term if coeff >= 0 else f"-{term}")
        else:
            parts.append(f"{'+' if coeff >= 0 else '-'} {term}")
    return f"{rep.target} = " + " ".join(parts)


def _cmd_represent(args: argparse.Namespace) -> int:
    kind = PlatonicKind(args.kind)
    rep = represent_multiple(kind, args.target)
    if args.format == "json":
        text = json.dumps(rep.to_json_dict()) + "\n"
    elif args.format == "csv":
        header = "kind,base_index,coefficients,indices,values,target"
        row = ",".join(
            [
                rep.kind.value,
                str(rep.base_index),
                ";".join(str(c) for c in rep.coefficients),
                ";".join(str(i) for i in rep.indices),
                ";".join(str(v) for v in rep.values),
                str(rep.target),
            ]
        )
        text = header + "\n" + row + "\n"
    else:
        text = _equation_text(rep) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- period


def _cmd_period(args: argparse.Namespace) -> int:
    lo, hi = args.range
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got {lo}..{hi}")
    reports = [
        check_period_claim(kind, d)
        for kind in _kinds_for(args.kind)
        for d in range(lo, hi + 1)
    ]
    if args.format == "json":
        text = "".join(json.dumps(r.to_json_dict()) + "\n" for r in reports)
    elif args.format == "csv":
        rows = ["kind,d,closed_form,empirical,agrees"]
        rows += [
            f"{r.kind.value},{r.modulus},{r.closed_form},{r.empirical},"
            f"{'true' if r.agrees else 'false'}"
            for r in reports
        ]
        text = "\n".join(rows) + "\n"
    else:
        body = [["kind", "d", "closed_form", "empirical", "agrees"]]
        body += [
            [
                r.kind.value,
                str(r.modulus),
                str(r.closed_form),
                str(r.empirical),
                "true" if r.agrees else "false",
            ]
            for r in reports
        ]
        text = _align(body)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- verify-identities


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    lo, hi = args.range
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got {lo}..{hi}")
    checks = [
        identity_residual(kind, order, n)
        for kind in _kinds_for(args.kind)
        for order in range(1, 5)
        for n in range(lo, hi + 1)
    ]
    if args.format == "json":
        text = "".join(
            json.dumps(
                {
                    "kind": c.kind.value,
                    "order": c.order,
                    "n": c.index,
                    "expected": str(c.expected),
                    "actual": str(c.actual),
                    "holds": c.holds,
                }
            )
            + "\n"
            for c in checks
        )
    elif args.format == "csv":
        rows = ["kind,order,n,expected,actual,holds"]
        rows += [
            f"{c.kind.value},{c.order},{c.index},{c.expected},{c.actual},"
            f"{'true' if c.holds else 'false'}"
            for c in checks
        ]
        text = "\n".join(rows) + "\n"
    else:
        body = [["kind", "order", "n", "expected", "actual", "holds"]]
        body += [
            [
                c.kind.value,
                str(c.order),
                str(c.index),
                str(c.expected),
                str(c.actual),
                "true" if c.holds else "false",
            ]
            for c in checks
        ]
        text = _align(body)
    _emit(text, args.out)
    if any(not c.holds for c in checks):
        print("error: a difference identity failed to hold", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


# ---------------------------------------------------------------- pollock


def _cmd_pollock(args: argparse.Namespace) -> int:
    if args.witnesses and args.format == "csv":
        raise ValueError("witness streaming needs table or json format")
    chunks: list[str] = []
    report, witnesses = scan_with_witnesses(
        args.n, max_terms=args.max_terms, strict_distinct=args.strict_distinct
    )
    if args.witnesses:
        for witness in witnesses:
            if args.format == "json":
                chunks.append(json.dumps(witness.to_json_dict()) + "\n")
            else:
                terms = " + ".join(str(v) for v in witness.term_values)
                chunks.append(f"{witness.target} = {terms}\n")
    if args.format == "json":
        chunks.append(json.dumps(report.to_json_dict()) + "\n")
    elif args.format == "csv":
        rows = ["field,value"]
        rows.append(f"n,{report.n}")
        rows.append(f"max_terms,{report.max_terms}")
        rows.append(
            f"strict_distinct,{'true' if report.strict_distinct else 'false'}"
        )
        rows += [f"terms_{k},{report.histogram[k]}" for k in sorted(report.histogram)]
        rows.append(f"failure_count,{len(report.failures)}")
        rows += [f"failure,{m}" for m in report.failures]
        chunks.append("\n".join(rows) + "\n")
    else:
        lines = [
            f"n: {report.n}",
            f"max terms: {report.max_terms}",
            f"strict distinct: {'true' if report.strict_distinct else 'false'}",
            "histogram:",
        ]
        lines += [
            f"  {k} terms: {report.histogram[k]}" for k in sorted(report.histogram)
        ]
        if report.failures:
            failing = " ".join(str(m) for m in report.failures)
            lines.append(f"failures ({len(report.failures)}): {failing}")
        else:
            lines.append("failures: none")
        chunks.append("\n".join(lines) + "\n")
    _emit("".join(chunks), args.out)
    return EXIT_COUNTEREXAMPLE if report.failures else EXIT_OK


# ---------------------------------------------------------------- paper-tables


def _reference_tables_text() -> str:
    lines = ["platonic numbers: first 10 values of each family", ""]
    for kind in PlatonicKind:
        first = [str(platonic_value(kind, n)) for n in range(1, 11)]
        lines.append(f"{kind.value}: " + ", ".join(first))
    for kind in PlatonicKind:
        lines.append("")
        lines.append(f"forward differences: {kind.value}")
        lines.append(_align(_render_difference_rows(kind, 10)).rstrip("\n"))
    return "\n".join(lines) + "\n"


def _cmd_paper_tables(args: argparse.Namespace) -> int:
    if args.format == "json":
        payload = {
            "sequences": {
                kind.value: [str(platonic_value(kind, n)) for n in range(1, 11)]
                for kind in PlatonicKind
            },
            "difference_tables": {
                kind.value: [
                    [str(v) for v in column]
                    for column in difference_table(kind, 10).orders
                ]
                for kind in PlatonicKind
            },
        }
        text = json.dumps(payload) + "\n"
    elif args.format == "csv":
        rows = ["kind,n,value,d1,d2,d3,d4"]
        for kind in PlatonicKind:
            for row in _render_difference_rows(kind, 10)[1:]:
                rows.append(",".join([kind.value, *row]))
        text = "\n".join(rows) + "\n"
    else:
        text = _reference_tables_text()
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
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
    represent.add_argument("target", type=int)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NotDivisibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_DIVISIBLE
    except PeriodConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())
