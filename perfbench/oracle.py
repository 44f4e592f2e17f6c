"""Output checks that share no code with the engine.

Platonic values come from this file's own closed forms, minimality is
checked by brute force, and the period and paper-table outputs are compared
with the committed reference files.  The pollock checks return the list of
problems they found (empty when the output is right); check_command
classifies one arith-cli result as right, the known defect, or wrong.
"""

from __future__ import annotations

import json
import random
import re
from bisect import bisect_left, bisect_right
from math import comb
from pathlib import Path

import workloads

KINDS = ("tetrahedral", "octahedral", "cube", "icosahedral", "dodecahedral")

_CLOSED = {
    "tetrahedral": lambda n: n * (n + 1) * (n + 2) // 6,
    "octahedral": lambda n: n * (2 * n * n + 1) // 3,
    "cube": lambda n: n**3,
    "icosahedral": lambda n: n * (5 * n * n - 5 * n + 2) // 2,
    "dodecahedral": lambda n: n * (9 * n * n - 9 * n + 2) // 2,
}

#: Python's default limit on int <-> decimal text conversion.
INT_TEXT_DIGITS = 4300

MAX_TERMS = 5


def value(kind: str, n: int) -> int:
    return _CLOSED[kind](n)


def values_upto(limit: int) -> list[int]:
    """Sorted distinct platonic values in [1, limit]."""
    found = set()
    for kind in KINDS:
        n = 1
        while (v := value(kind, n)) <= limit:
            found.add(v)
            n += 1
    return sorted(found)


def difference(kind: str, order: int, n: int) -> int:
    """Order-k forward difference at index n, from the binomial formula."""
    return sum(
        (-1) ** (order - i) * comb(order, i) * value(kind, n + i)
        for i in range(order + 1)
    )


def difference_columns(kind: str, rows: int) -> list[list[int]]:
    column = [value(kind, n) for n in range(1, rows + 1)]
    columns = [column]
    for _ in range(4):
        column = [b - a for a, b in zip(column, column[1:])]
        columns.append(column)
    return columns


# ------------------------------------------------------------ pollock


def brute_histogram(n: int, strict: bool) -> tuple[dict[int, int], tuple[int, ...]]:
    """Minimal term counts over [1, n] by dynamic programming (small n only)."""
    pool = values_upto(n)
    depth = [0] + [MAX_TERMS + 1] * n
    if strict:
        exact = [{0}] + [set() for _ in range(MAX_TERMS)]
        for v in pool:
            for k in range(MAX_TERMS, 0, -1):
                exact[k] |= {s + v for s in exact[k - 1] if s + v <= n}
        for k in range(MAX_TERMS, 0, -1):
            for s in exact[k]:
                depth[s] = min(depth[s], k)
    else:
        for t in range(1, n + 1):
            depth[t] = min(
                (depth[t - v] + 1 for v in pool[: bisect_right(pool, t)]),
                default=MAX_TERMS + 1,
            )
    histogram = {k: depth[1:].count(k) for k in range(1, MAX_TERMS + 1)}
    failures = tuple(t for t in range(1, n + 1) if depth[t] > MAX_TERMS)
    return histogram, failures


def expected_report(name: str, n: int, smoke: bool):
    if smoke:
        return brute_histogram(n, name == "strict-witness")
    return workloads.PINNED[name]


def check_report(histogram: dict[int, int], failures, expected) -> list[str]:
    want_hist, want_failures = expected
    problems = []
    if histogram != want_hist:
        problems.append(f"histogram {histogram} != expected {want_hist}")
    if tuple(failures) != tuple(want_failures):
        problems.append(f"failures {tuple(failures)[:10]} != expected {want_failures}")
    return problems


def _within(t: int, j: int, bound: int, pool: list[int], pool_set: set, strict: bool) -> bool:
    """Is t a sum of at most j pool values, each at most bound?

    Terms are taken largest first; with strict they must also be distinct,
    which the shrinking bound enforces.
    """
    if t == 0:
        return True
    if j == 0:
        return False
    if t <= bound and t in pool_set:
        return True
    if j == 1:
        return False
    lo = bisect_left(pool, -(-t // j))
    hi = bisect_right(pool, min(t, bound))
    for a in pool[lo:hi]:
        if _within(t - a, j - 1, a - 1 if strict else a, pool, pool_set, strict):
            return True
    return False


def check_witness_text(
    text: str, n: int, strict: bool, expected, seed: int, sample: int = 500
) -> tuple[list[str], dict]:
    """Check a `pollock N --witnesses --format json` output in full.

    Returns the problems found and the report's histogram and failures.
    """
    problems: list[str] = []
    if not text.endswith("\n"):
        return ["output does not end with a newline"], {}
    lines = text[:-1].split("\n")
    try:
        report = json.loads(lines[-1])
        histogram = {int(k): v for k, v in report["histogram"].items()}
        failures = tuple(int(m) for m in report["failures"])
    except (ValueError, KeyError, AttributeError) as exc:
        return [f"unreadable report line: {exc}"], {}
    if report.get("n") != n or report.get("strict_distinct") is not strict:
        problems.append(f"report header {report.get('n')}/{report.get('strict_distinct')} wrong")
    if report.get("failure_count") != len(failures):
        problems.append("failure_count does not match the failure list")
    problems += check_report(histogram, failures, expected)

    pool = values_upto(n)
    pool_set = set(pool)
    failure_set = set(failures)
    expected_targets = (m for m in range(1, n + 1) if m not in failure_set)
    mix = {k: 0 for k in range(1, MAX_TERMS + 1)}
    deep: list[tuple[int, int]] = []
    shallow: list[tuple[int, int]] = []
    for line_no, line in enumerate(lines[:-1], 1):
        try:
            witness = json.loads(line)
            target = int(witness["target"])
            terms = [int(t) for t in witness["terms"]]
            count = witness["min_terms"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"line {line_no}: unreadable witness ({exc})")
            break
        want = next(expected_targets, None)
        bad = []
        if target != want:
            bad.append(f"target {target}, expected {want}")
        if sum(terms) != target:
            bad.append("terms do not sum to the target")
        if any(t not in pool_set for t in terms):
            bad.append("a term is not a platonic value")
        if count != len(terms) or not 1 <= count <= MAX_TERMS:
            bad.append(f"min_terms {count} with {len(terms)} terms")
        if strict and len(set(terms)) != len(terms):
            bad.append("repeated term in strict mode")
        if bad:
            problems.append(f"line {line_no}: " + "; ".join(bad))
            if len(problems) > 20:
                break
            continue
        mix[count] += 1
        (deep if count >= 4 else shallow).append((target, count))
    else:
        leftover = next(expected_targets, None)
        if leftover is not None:
            problems.append(f"no witness for {leftover}")
    if mix != histogram:
        problems.append(f"depth mix {mix} != report histogram {histogram}")

    rng = random.Random(f"witness-{seed}")
    picked = deep + rng.sample(shallow, min(sample, len(shallow)))
    for target, count in picked:
        if _within(target, count - 1, target, pool, pool_set, strict):
            problems.append(f"witness for {target} is not minimal ({count} terms)")
    return problems, {"histogram": histogram, "failures": failures}


# ------------------------------------------------------------ arith-cli


def _csv(rows: list[list[str]]) -> str:
    return "\n".join(",".join(row) for row in rows) + "\n"


def _split_table(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines()]


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines()]


def _period_rows(root: Path) -> list[list[str]]:
    return [line.split(",") for line in (root / "docs/period_agreement_2_200.csv").read_text().splitlines()]


def _check_period(fmt: str, text: str, root: Path) -> bool:
    reference = root / "docs/period_agreement_2_200.csv"
    if fmt == "csv":
        return text.encode() == reference.read_bytes()
    rows = _period_rows(root)
    if fmt == "table":
        return _split_table(text) == rows
    got = [
        [r["kind"], str(r["d"]), str(r["closed_form"]), str(r["empirical"]),
         "true" if r["agrees"] is True else "false"]
        for r in _json_lines(text)
    ]
    return got == rows[1:]


def _check_identities(fmt: str, text: str) -> bool:
    rows = [["kind", "order", "n", "expected", "actual", "holds"]]
    for kind in KINDS:
        for order in range(1, 5):
            for n in range(1, 51):
                d = str(difference(kind, order, n))
                rows.append([kind, str(order), str(n), d, d, "true"])
    if fmt == "csv":
        return text == _csv(rows)
    if fmt == "table":
        return _split_table(text) == rows
    got = [
        [r["kind"], str(r["order"]), str(r["n"]), r["expected"], r["actual"],
         "true" if r["holds"] is True else "false"]
        for r in _json_lines(text)
    ]
    return got == rows[1:]


def _check_gen(fmt: str, text: str) -> bool:
    kind, span = workloads.GEN_ARGS
    lo, hi = (int(x) for x in span.split(".."))
    values = [str(value(kind, n)) for n in range(lo, hi + 1)]
    if fmt == "table":
        return text == ", ".join(values) + "\n"
    if fmt == "csv":
        return text == _csv([["n", "value"]] + [[str(n), v] for n, v in zip(range(lo, hi + 1), values)])
    return json.loads(text) == {"kind": kind, "start": lo, "end": hi, "values": values}


def _difference_rows(kind: str, rows: int) -> list[list[str]]:
    columns = difference_columns(kind, rows)
    body = [["n", "value", "d1", "d2", "d3", "d4"]]
    for i in range(rows):
        body.append([str(i + 1)] + [str(c[i]) if i < len(c) else "" for c in columns])
    return body


def _check_difftable(fmt: str, text: str) -> bool:
    kind, rows_text = workloads.DIFFTABLE_ARGS
    rows = int(rows_text)
    body = _difference_rows(kind, rows)
    if fmt == "csv":
        return text == _csv(body)
    if fmt == "table":
        return _split_table(text) == [[c for c in row if c] for row in body]
    orders = [[str(v) for v in c] for c in difference_columns(kind, rows)]
    return json.loads(text) == {"kind": kind, "rows": rows, "orders": orders}


def _check_paper_tables(fmt: str, text: str, root: Path) -> bool:
    if fmt == "table":
        return text.encode() == (root / "tests/golden/paper_tables.txt").read_bytes()
    if fmt == "csv":
        rows = [["kind", "n", "value", "d1", "d2", "d3", "d4"]]
        for kind in KINDS:
            rows += [[kind, *row] for row in _difference_rows(kind, 10)[1:]]
        return text == _csv(rows)
    return json.loads(text) == {
        "sequences": {k: [str(value(k, n)) for n in range(1, 11)] for k in KINDS},
        "difference_tables": {
            k: [[str(v) for v in c] for c in difference_columns(k, 10)] for k in KINDS
        },
    }


_TERM = re.compile(r"(\d+)\*([a-z]+)\((\d+)\)")


def _digits(x: int) -> int:
    """Decimal digit count of x, to within one, without text conversion."""
    return int(abs(x).bit_length() * 0.30103) + 1


def represent_defect(kind: str, target_text: str, fmt: str) -> str | None:
    """The stderr text of the known 4300-digit defect this command hits, if any."""
    if len(target_text.lstrip("-")) > INT_TEXT_DIGITS:
        return "invalid int value"
    base = abs(int(target_text)) // workloads.MODULUS[kind]
    if fmt != "table" and _digits(value(kind, base + 3)) > INT_TEXT_DIGITS:
        return "Exceeds the limit"
    return None


def _check_represent(kind: str, target_text: str, fmt: str, text: str) -> bool:
    """The four terms must be consecutive values of `kind` summing to the target."""
    target = int(target_text)
    base = abs(target) // workloads.MODULUS[kind]
    indices = [base + i for i in range(4)]
    values = [value(kind, i) for i in indices]
    if fmt == "table":
        left, _, right = text.partition(" = ")
        tokens = right.rstrip("\n").split(" ")
        if left != target_text or len(tokens) != 7:
            return False
        signs = ["-" if tokens[0].startswith("-") else "+", *tokens[1::2]]
        terms = [_TERM.fullmatch(token.lstrip("-")) for token in tokens[0::2]]
        if None in terms or not set(signs) <= {"+", "-"}:
            return False
        if [m[2] for m in terms] != [kind] * 4:
            return False
        coefficients = [int(m[1]) * (-1 if s == "-" else 1) for s, m in zip(signs, terms)]
        got_indices = [int(m[3]) for m in terms]
    elif fmt == "json":
        payload = json.loads(text)
        if payload["kind"] != kind or payload["target"] != target_text:
            return False
        if payload["base_index"] != base or payload["values"] != [str(v) for v in values]:
            return False
        coefficients, got_indices = payload["coefficients"], payload["indices"]
    else:
        header, row = text.splitlines()
        fields = row.split(",")
        if header != "kind,base_index,coefficients,indices,values,target":
            return False
        if fields[0] != kind or fields[1] != str(base) or fields[5] != target_text:
            return False
        if fields[4] != ";".join(str(v) for v in values):
            return False
        coefficients = [int(c) for c in fields[2].split(";")]
        got_indices = [int(i) for i in fields[3].split(";")]
    return got_indices == indices and sum(c * v for c, v in zip(coefficients, values)) == target


def check_command(cmd: workloads.Command, rc, stderr: str, text: str | None, root: Path) -> tuple[str, str]:
    """Classify one arith-cli result as ("ok"|"defect"|"wrong", detail)."""
    name = cmd.argv[0]
    if name == "represent":
        defect = represent_defect(cmd.argv[1], cmd.argv[2], cmd.fmt)
        if rc == 2 and defect and defect in stderr:
            return "defect", defect
    if rc != 0 or text is None:
        return "wrong", f"exit {rc}: {stderr.strip()[:200]}"
    try:
        if name == "period":
            ok = _check_period(cmd.fmt, text, root)
        elif name == "verify-identities":
            ok = _check_identities(cmd.fmt, text)
        elif name == "gen":
            ok = _check_gen(cmd.fmt, text)
        elif name == "difftable":
            ok = _check_difftable(cmd.fmt, text)
        elif name == "paper-tables":
            ok = _check_paper_tables(cmd.fmt, text, root)
        else:
            ok = _check_represent(cmd.argv[1], cmd.argv[2], cmd.fmt, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "wrong", f"unreadable output: {exc!r}"
    return ("ok", "") if ok else ("wrong", "output differs from the oracle")
