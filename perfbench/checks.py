"""Output checks for the benchmark's `python -m collatzkit` commands.

`check(argv, stdout)` returns None when stdout is correct for the command
line, else a one-line reason.  Range scans and walks are checked against
references written here (an independent odd-to-odd step and closed-form
residue counts); single-operation commands are checked field by field
against the library call made in-process.

This module imports collatzkit, so the benchmark imports it only after its
timed commands have run: a smaller benchmark process keeps the peak RSS
reported for each child its own (Linux carries the spawning process's peak
over into the child's ru_maxrss).
"""

from __future__ import annotations

import json
import math

import collatzkit as lib
from collatzkit.cli import build_parser


class CheckFailed(Exception):
    pass


def _expect(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _v2(t: int) -> int:
    return (t & -t).bit_length() - 1


def _step(x: int) -> int:
    t = 3 * x + 1
    return t >> _v2(t)


def _walk(x: int) -> tuple[list[int], list[int]]:
    """Reference odd-to-odd walk from odd x down to 1: (iterates, alphas)."""
    iterates, alphas = [], []
    while True:
        t = 3 * x + 1
        a = _v2(t)
        x = t >> a
        iterates.append(x)
        alphas.append(a)
        if x == 1:
            return iterates, alphas


def _residue_count(bound: int, alpha: int) -> int:
    """Odd x <= bound with exactly 2**alpha dividing 3x+1, by closed form.

    They form one residue class r mod 2**(alpha+1): 3r+1 == 2**alpha there.
    """
    m = 2 ** (alpha + 1)
    r = (2**alpha - 1) * pow(3, -1, m) % m
    return (bound - r) // m + 1 if r <= bound else 0


def _starts(args) -> range:
    if args.end is None:
        return range(args.start, args.start + 1)
    return range(args.start | 1, args.end + 1, 2)


def _check_trajectory(args, text: str) -> None:
    starts = _starts(args)
    if args.stats:
        _expect(args.format == "text", "only text --stats output is checked")
        fields = {"odd_length": [], "total_divisions": [], "peak": []}
        for x in starts:
            iterates, alphas = _walk(x)
            fields["odd_length"].append(len(iterates))
            fields["total_divisions"].append(sum(alphas))
            fields["peak"].append(max(iterates))
        want = f"count={len(starts)}\n" + "".join(
            f"{name} min={min(v)} max={max(v)} mean={sum(v) / len(v)!r}\n" for name, v in fields.items()
        )
        _expect(text == want, "--stats aggregate differs from the reference walk")
        return
    lines = text.splitlines()
    _expect(len(lines) == len(starts), f"{len(lines)} records for {len(starts)} starts")
    for x, line in zip(starts, lines):
        iterates, alphas = _walk(x)
        if args.format == "json":
            rec = json.loads(line)
            _expect(rec["start"] == x, f"record for {rec['start']}, expected {x}")
            _expect(rec["odd_length"] == len(rec["iterates"]), f"odd_length != len(iterates) at {x}")
            _expect(sum(rec["alphas"]) == rec["total_divisions"], f"sum(alphas) != total_divisions at {x}")
            _expect(rec["iterates"][-1] == 1, f"walk from {x} does not end at 1")
            _expect(rec["peak"] == max(rec["iterates"]), f"peak is not the largest iterate at {x}")
            _expect(rec["iterates"] == iterates and rec["alphas"] == alphas, f"walk from {x} differs from the reference")
        else:
            _expect(line == " ".join(map(str, (x, *iterates))), f"walk from {x} differs from the reference")


def _check_verify(args, text: str) -> None:
    bound = args.bound
    odds = (bound + 1) // 2
    lines = text.splitlines()
    theorem = _fields(lines[0])
    _expect(lines[0].startswith("theorem scan:"), "no theorem scan line")
    _expect(int(theorem["trajectories"]) == odds, f"trajectories {theorem['trajectories']} != {odds}")
    _expect(theorem["multiple-of-3-violations"] == "0", "multiple-of-3 violations reported")
    _expect(theorem["duplicate-violations"] == "0", "duplicate violations reported")
    _expect(int(_fields(lines[1])["odds"]) == odds, "alpha density odd count")
    for line in lines[2:-1]:
        bucket = _fields(line)
        alpha = int(bucket["alpha"])
        count = _residue_count(bound, alpha)
        _expect(int(bucket["count"]) == count, f"alpha={alpha} count {bucket['count']} != {count}")
        _expect(bucket["ratio"] == repr(count / odds), f"alpha={alpha} ratio")
        _expect(bucket["expected"] == repr(2.0**-alpha), f"alpha={alpha} expected share")
    max_alpha = args.max_alpha or max(1, min(10, bound.bit_length() - 2))
    _expect(len(lines) == max_alpha + 3, f"{len(lines) - 3} alpha buckets, expected {max_alpha}")
    # the iterate is 6m+5 exactly when alpha is odd
    c5 = sum(_residue_count(bound, a) for a in range(1, 3 * bound.bit_length() + 4, 2))
    classes = _fields(lines[-1])
    _expect(classes["6m+1"] == repr((odds - c5) / odds), "6m+1 class share")
    _expect(classes["6m+5"] == repr(c5 / odds), "6m+5 class share")


def _drift_payload(args) -> dict:
    report = lib.drift_report(n_terms=args.terms)
    odd_part, even_part = lib.drift_series_decrease_parts(args.terms)
    return {
        "terms": str(args.terms),
        "increase": repr(float(report.series_increase)),
        "decrease": repr(float(report.series_decrease)),
        "odd-alpha": repr(float(odd_part)),
        "even-alpha": repr(float(even_part)),
    }


def _check_drift(args, text: str) -> None:
    if args.bound is not None:
        # geometric mean of y/x over odd x in [3, bound], summed independently
        logs = [math.log(_step(x)) - math.log(x) for x in range(3, args.bound + 1, 2)]
        want = math.exp(math.fsum(logs) / len(logs))
        got = _fields(text.splitlines()[-1])
        _expect(int(got["bound"]) == args.bound, "empirical bound")
        _expect(math.isclose(float(got["geometric-mean"]), want, rel_tol=1e-12), "geometric mean")
        _expect(got["target"] == "0.75" and got["tolerance"] == "0.05", "target or tolerance")
    if args.terms is None:
        return
    want = _drift_payload(args)
    if args.format == "json":
        got = json.loads(text)
        _expect(got["n_terms"] == args.terms, "n_terms")
        _expect(repr(got["series_increase"]) == want["increase"], "increase series")
        _expect(repr(got["series_decrease"]) == want["decrease"], "decrease series")
        return
    inc, dec = (_fields(line) for line in text.splitlines()[:2])
    _expect(inc["terms"] == dec["terms"] == want["terms"], "terms")
    _expect(inc["sum"] == want["increase"] and inc["limit"] == "3", "increase series")
    _expect(dec["sum"] == want["decrease"] and dec["limit"] == "0.25", "decrease series")
    _expect(dec["odd-alpha"] == want["odd-alpha"] and dec["even-alpha"] == want["even-alpha"], "parts")


def _compare(args, text: str, payload: dict, text_keys: dict[str, str]) -> None:
    """JSON output must equal payload; text output's key=value fields must match it."""
    if args.format == "json":
        _expect(json.loads(text) == payload, "JSON fields differ from the library call")
        return
    got = _fields(text)
    for text_key, key in text_keys.items():
        value = payload[key]
        want = ("yes" if value else "no") if isinstance(value, bool) else str(value)
        _expect(got.get(text_key) == want, f"{text_key}={got.get(text_key)} != {want}")


def _check_classify(args, text: str) -> None:
    x = args.value
    cls = lib.classify(x)
    payload = {
        "value": x,
        "kind": cls.kind.value,
        "is_terminal": cls.is_terminal,
        "is_end": cls.is_end,
        "iterate": lib.syracuse_step(x).iterate,
        "alpha": lib.alpha_of(x),
    }
    keys = {"value": "value", "kind": "kind", "terminal": "is_terminal", "end": "is_end"}
    _compare(args, text, payload, {**keys, "iterate": "iterate", "alpha": "alpha"})
    _expect(3 * x + 1 == payload["iterate"] << payload["alpha"], "iterate and alpha do not fit 3x+1")


def _check_locate(args, text: str) -> None:
    x = args.value
    coord = lib.locate(x)
    payload = {
        "value": x,
        "table": coord.table.value,
        "column": coord.column,
        "row": coord.row,
        "alpha": lib.column_alpha(coord.table, coord.column),
        "iterate": lib.row_iterate(coord.table, coord.row),
    }
    _compare(args, text, payload, {k: k for k in payload})
    _expect(lib.table_entry(coord.table, coord.column, coord.row) == x, "coordinate does not hold x")
    _expect(_step(x) == payload["iterate"], "row iterate is not the step image")


def _check_predecessors(args, text: str) -> None:
    y = args.iterate
    if args.to_starter:
        values = lib.reverse_to_starter(y)
        payload = {"value": y, "chain": values}
        _expect(values[-1] % 3 == 0, "chain does not end on a starter")
    else:
        values = list(lib.predecessor_row(y, args.count).entries)
        payload = {"iterate": y, "entries": values}
        _expect(all(_step(v) == y for v in values), "an entry does not step onto the iterate")
    if args.format == "json":
        _expect(json.loads(text) == payload, "JSON fields differ from the library call")
    else:
        _expect(text == " ".join(map(str, values)) + "\n", "predecessor list differs")


def _check_tree(args, text: str) -> None:
    want = lib.export_tree(lib.build_layers(args.depth, args.breadth), args.format).decode()
    _expect(text == want, "tree export differs from the library call")


def _check_alpha_table(args, text: str) -> None:
    if args.chain is not None:
        run = lib.alpha_chain(args.chain)
        payload = {
            "start": run.start,
            "length": lib.alpha_chain_length(args.chain),
            "chain": list(run.chain),
            "exit_iterate": run.exit_iterate,
        }
        if args.format == "json":
            _expect(json.loads(text) == payload, "JSON fields differ from the library call")
        else:
            want = f"start={run.start} length={payload['length']} chain={' '.join(map(str, run.chain))} "
            _expect(text == f"{want}exit={run.exit_iterate}\n", "chain line differs")
        return
    rows = [[n, *(lib.alpha_table_entry(h, n) for h in range(1, args.cols + 1))] for n in range(1, args.rows + 1)]
    if args.format == "json":
        _expect(json.loads(text) == {"rows": args.rows, "cols": args.cols, "values": rows}, "table differs")
        return
    lines = text.splitlines()
    sep = "," if args.format == "csv" else " "
    _expect(len(lines) == args.rows + 1, "row count")
    _expect([list(map(int, line.split(sep))) for line in lines[1:]] == rows, "table entries differ")


def _check_table_export(args, text: str) -> None:
    table = lib.TableId(args.table)
    cols = args.cols or (5 if table is lib.TableId.A else 6)
    _expect(text == lib.table_window_csv(table, args.rows, cols), "CSV differs from the library call")


_CHECKS = {
    "trajectory": _check_trajectory,
    "verify": _check_verify,
    "drift": _check_drift,
    "classify": _check_classify,
    "locate": _check_locate,
    "predecessors": _check_predecessors,
    "tree": _check_tree,
    "alpha-table": _check_alpha_table,
    "table-export": _check_table_export,
}


def check(argv: tuple[str, ...], stdout: bytes) -> str | None:
    """None when stdout is correct for `collatzkit *argv`, else why not."""
    args = build_parser().parse_args(argv)
    try:
        _CHECKS[args.command](args, stdout.decode())
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable output: {exc!r}"
    return None
