"""Command-line front end; every library operation is reachable from here.

Exit codes: 0 success, 1 domain error (or Ctrl-C, or a dead worker
process), 2 usage error, 3 step budget exceeded.  Output for a fixed
command line is byte-identical across runs.  COLLATZ_MAX_STEPS overrides
the default odd-step budget for walks, and range-scan commands accept
--workers for parallel partitioning (fixed chunk boundaries keep the
results identical for any worker count).  Canonical command lines are
parsed straight from the command table (_fast_parse); argparse, built from
the same table, parses help requests and every other line.  main(), the
entry point of the console script and of python -m collatzkit, ends the
process at its last byte: it flushes stdout and stderr, runs the atexit
callbacks and skips the interpreter's teardown, unless a tracer, profiler
or second thread is watching the process; it alone may fork, to render a
long walk line in two processes.  run() is the in-process API and never
forks.
"""

from __future__ import annotations

import atexit
import os
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NoReturn, Sequence, TextIO

from . import _HOMES
from .core import DEFAULT_MAX_STEPS, DomainError, MaxStepsExceeded, _require_count

if TYPE_CHECKING:
    import argparse

# every public name (collatzkit._HOMES) is served here too.  A module's
# names are bound when a command whose _COMMANDS entry names the module runs
# (_dispatch binds them just before it calls the handler) or when the first
# of them is read from here, so a command loads only what it uses.  A name
# already set here, by a test or a tracer that wraps it, is never
# overwritten, and no handler imports a public name itself, so such a
# replacement is the function that gets called.
def _bind(module: str) -> None:
    home = import_module(f"{__package__}.{module}")
    for name, where in _HOMES.items():
        if where == module:
            globals().setdefault(name, getattr(home, name))


def __getattr__(name: str):
    # PEP 562: outside callers (and patchers) read the library names here
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_HOMES[name])
    return globals()[name]


def _max_steps_from_env() -> int:
    raw = os.environ.get("COLLATZ_MAX_STEPS")
    if raw is None:
        return DEFAULT_MAX_STEPS
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"COLLATZ_MAX_STEPS must be an integer, got {raw!r}") from None
    if value < 1:
        raise DomainError(f"COLLATZ_MAX_STEPS must be >= 1, got {value}")
    return value


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _write(out: TextIO, text: str) -> None:
    # at most 64 KiB per out.write: one large write to a pipe whose reader
    # has gone can return quietly, while a later one raises BrokenPipeError
    # and main exits 1
    for i in range(0, len(text), 1 << 16):
        out.write(text[i : i + (1 << 16)])


def _emit(out: TextIO, fmt: str, payload: dict, text: str) -> None:
    # the one output path of every single-result command
    if fmt == "json":
        import json  # only JSON output needs it; not a module-level import

        text = json.dumps(payload) + "\n"
    _write(out, text)


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only help, usage errors and non-canonical lines need it

    parser = argparse.ArgumentParser(
        prog="collatzkit",
        description="Odd-iterate Collatz toolkit: classification, predecessor tables, "
        "trajectories, tree layers, drift statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


def _fast_parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace build_parser() would give for a canonical line, or None.

    Canonical: a known command, then its options spelled in full, each at
    most once and each but a flag followed by one value token, and at most
    its one positional; no token but a flag starts with "-", and every
    required argument is present.  Any other line (help, abbreviations,
    --opt=value, repeats, negative numbers, usage errors) gets None, and
    argparse parses it as it always has.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    values: dict = {"command": argv[0]}
    options, positional, required, seen = {}, None, set(), set()
    for flag, kwargs in _COMMANDS[argv[0]][3]:
        dest = flag.lstrip("-").replace("-", "_")
        values[dest] = kwargs.get("default", False if "action" in kwargs else None)
        if kwargs.get("required", not flag.startswith("-")):  # argparse's default
            required.add(dest)
        if flag.startswith("-"):
            options[flag] = dest, kwargs
        else:
            positional = dest, kwargs
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            dest, kwargs = options[token]
            # a store_true flag takes no value; any other option takes the
            # next token, and a missing one reads as "-", which is refused
            value = True if "action" in kwargs else next(tokens, "-")
        elif positional is not None:
            (dest, kwargs), value = positional, token
        else:
            return None
        if dest in seen or value is not True and value.startswith("-"):
            return None
        seen.add(dest)
        if kwargs.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    return SimpleNamespace(**values) if required <= seen else None


def _cmd_classify(args: argparse.Namespace, out: TextIO) -> None:
    cls = classify(args.value)
    payload = {
        "value": args.value,
        "kind": cls.kind.value,
        "is_terminal": cls.is_terminal,
        "is_end": cls.is_end,
        "iterate": syracuse_step(args.value).iterate,
        "alpha": alpha_of(args.value),
    }
    text = (
        f"value={payload['value']} kind={payload['kind']} terminal={_yesno(payload['is_terminal'])} "
        f"end={_yesno(payload['is_end'])} iterate={payload['iterate']} alpha={payload['alpha']}\n"
    )
    _emit(out, args.format, payload, text)


def _cmd_trajectory(args: argparse.Namespace, out: TextIO) -> None:
    max_steps = _max_steps_from_env()
    if args.format == "csv" and not args.stats:
        raise DomainError("csv output is only available with --stats")
    if args.end is None:
        starts = [args.start]
    else:
        if args.end < args.start:
            raise DomainError(f"--end {args.end} is below the start {args.start}")
        first = args.start if args.start % 2 else args.start + 1
        starts = range(first, args.end + 1, 2)
    if args.stats:
        if args.method == "direct" and starts:
            from .trajectory import _fold, _range_columns

            # the first start goes through this module's trajectory_direct:
            # perfbench/tracing.py counts direct steps there and divides by
            # them unguarded, and its probe's --stats range runs on every
            # workload.  The later starts' walks join the earlier ones, and
            # their iterates below the first start, without records
            stats = _fold(_range_columns(trajectory_direct(starts[0], max_steps), starts[-1], max_steps))
        else:
            from .trajectory import _lookup_rows

            # the lookup route never evaluates 3x+1: its kernel walks each
            # start by lookup steps and builds no record (an empty direct
            # range comes here too, for the same error)
            stats = trajectory_stats(_lookup_rows(starts, max_steps))
        fields = {name: getattr(stats, name)._asdict() for name in ("odd_length", "total_divisions", "peak")}
        if args.format == "csv":
            text = stats_csv(stats)
        else:
            text = f"count={stats.count}\n" + "".join(
                f"{name} min={f['minimum']} max={f['maximum']} mean={f['mean']!r}\n"
                for name, f in fields.items()
            )
        _emit(out, args.format, {"count": stats.count, **fields}, text)
        return
    from .trajectory import DECIMAL_MIN_BITS, _write_range, _write_walk

    # a long line may be rendered by two processes: only under main(), whose
    # process ends after the command, and never under a tracer, a profiler
    # or a second thread
    fork = args.fork and not _watched()
    if args.method == "direct":
        if starts:
            # every direct line, of one start or of a range, at any size
            _write_range(out, starts[0], starts[-1], args.format, max_steps, fork)
        return
    for x in starts:
        if x.bit_length() >= DECIMAL_MIN_BITS:
            _write_walk(out, x, args.format, max_steps, "lookup", fork)
        else:
            # a smaller start keeps its record, built before its first byte
            # is written, for two reasons.  It is faster: one lookup walk,
            # where _write_walk takes a count pass and then a write pass
            # (per start, 140 against 204 us at 64 bits and 4.6 against
            # 5.0 ms at 1000 bits, text, on a 2-vCPU host).  And
            # perfbench/tracing.py counts lookup steps through this
            # module's trajectory_lookup and divides by those counts
            # unguarded, and its probe's one 1000-bit walk is the only
            # lookup walk on some workloads
            write_record(out, trajectory_lookup(x, max_steps), args.format)


def _cmd_predecessors(args: argparse.Namespace, out: TextIO) -> None:
    if args.to_starter:
        values = reverse_to_starter(args.iterate, _max_steps_from_env())
        payload: dict = {"value": args.iterate, "chain": values}
    else:
        row = predecessor_row(args.iterate, args.count)
        values = list(row.entries)
        payload = {"iterate": row.iterate, "entries": values}
    _emit(out, args.format, payload, " ".join(map(str, values)) + "\n")


def _cmd_locate(args: argparse.Namespace, out: TextIO) -> None:
    coord = locate(args.value)
    payload = {
        "value": args.value,
        "table": coord.table.value,
        "column": coord.column,
        "row": coord.row,
        "alpha": column_alpha(coord.table, coord.column),
        "iterate": row_iterate(coord.table, coord.row),
    }
    _emit(out, args.format, payload, " ".join(f"{k}={v}" for k, v in payload.items()) + "\n")


def _cmd_tree(args: argparse.Namespace, out: TextIO) -> None:
    layers = build_layers(args.depth, args.breadth)
    _write(out, export_tree(layers, args.format).decode("utf-8"))


def _cmd_alpha_table(args: argparse.Namespace, out: TextIO) -> None:
    if args.chain is not None:
        if args.format == "csv":
            raise DomainError("csv output is only available without --chain")
        run = alpha_chain(args.chain)
        payload = {
            "start": run.start,
            "length": alpha_chain_length(args.chain),
            "chain": list(run.chain),
            "exit_iterate": run.exit_iterate,
        }
        chain_text = " ".join(map(str, payload["chain"]))
        text = (
            f"start={payload['start']} length={payload['length']} "
            f"chain={chain_text} exit={payload['exit_iterate']}\n"
        )
        _emit(out, args.format, payload, text)
        return
    _require_count(args.rows, 1, "rows")
    _require_count(args.cols, 1, "cols")
    # written row by row, so a window holds one row at a time
    heights = range(1, args.cols + 1)
    rows = ([n] + [alpha_table_entry(h, n) for h in heights] for n in range(1, args.rows + 1))
    if args.format == "json":
        # the bytes of json.dumps({"rows": ..., "cols": ..., "values": rows}),
        # with its ", " and ": " separators
        _write(out, f'{{"rows": {args.rows}, "cols": {args.cols}, "values": [')
        for i, row in enumerate(rows):
            _write(out, (", [" if i else "[") + ", ".join(map(str, row)) + "]")
        _write(out, "]}\n")
        return
    sep = "," if args.format == "csv" else " "
    _write(out, sep.join(["n", *(f"h={h}" for h in heights)]) + "\n")
    for row in rows:
        _write(out, sep.join(map(str, row)) + "\n")


def _cmd_drift(args: argparse.Namespace, out: TextIO) -> None:
    from .analysis import EMPIRICAL_TARGET, EMPIRICAL_TOLERANCE

    n_terms = args.terms
    if n_terms is None and args.bound is None:
        n_terms = 60
    report = drift_report(n_terms=n_terms, scan_bound=args.bound, workers=args.workers)
    payload = {
        "n_terms": report.n_terms,
        "series_increase": None,
        "series_increase_limit": 3.0,
        "series_decrease": None,
        "series_decrease_limit": 0.25,
        "scan_bound": report.scan_bound,
        "empirical_value": report.empirical_value,
        "target": EMPIRICAL_TARGET,
        "tolerance": EMPIRICAL_TOLERANCE,
    }
    text = ""
    if report.series_increase is not None:
        payload["series_increase"] = float(report.series_increase)
        payload["series_decrease"] = float(report.series_decrease)
        odd_part, even_part = drift_series_decrease_parts(report.n_terms)
        text += (
            f"increase series: terms={payload['n_terms']} sum={payload['series_increase']!r} limit=3\n"
            f"decrease series: terms={payload['n_terms']} sum={payload['series_decrease']!r} limit=0.25 "
            f"odd-alpha={float(odd_part)!r} even-alpha={float(even_part)!r}\n"
        )
    if report.empirical_value is not None:
        text += (
            f"empirical: bound={payload['scan_bound']} geometric-mean={payload['empirical_value']!r} "
            f"target={payload['target']!r} tolerance={payload['tolerance']!r}\n"
        )
    _emit(out, args.format, payload, text)


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> None:
    bound = args.bound
    max_alpha = args.max_alpha
    if max_alpha is None:
        max_alpha = max(1, min(10, bound.bit_length() - 2))
    # the density check is closed form: a max_alpha the bound cannot hold
    # is refused before the scan, after the scan's own bound check
    _require_count(bound, 3, "bound")
    density = empirical_alpha_density(bound, max_alpha)
    theorem = verify_theorems(bound, _max_steps_from_env(), workers=args.workers)
    ratio_6m1, ratio_6m5 = empirical_iterate_class_ratio(bound)
    buckets = [
        {"alpha": b.alpha, "count": b.count, "ratio": b.ratio, "expected": 2.0**-b.alpha}
        for b in density.buckets
    ]
    payload = {
        "bound": bound,
        "trajectories": theorem.trajectories,
        "iterates_checked": theorem.iterates_checked,
        # no iterate is a multiple of 3 and no walk repeats a value: both
        # are lemmas (analysis's docstring), so there is never a witness
        "multiple_of_three_violations": [],
        "duplicate_violations": [],
        "alpha_density": buckets,
        "iterate_class_ratio": {"6m+1": ratio_6m1, "6m+5": ratio_6m5},
    }
    if args.format == "csv":
        text = "".join(",".join(map(repr, b.values())) + "\n" for b in buckets)
        text = "alpha,count,ratio,expected\n" + text
    else:
        text = (
            f"theorem scan: bound={bound} trajectories={payload['trajectories']} "
            f"iterates={payload['iterates_checked']} "
            "multiple-of-3-violations=0 duplicate-violations=0\n"
            f"alpha density: bound={bound} odds={density.odd_total}\n"
            + "".join("  " + " ".join(f"{k}={v!r}" for k, v in b.items()) + "\n" for b in buckets)
            + f"iterate classes: 6m+1={ratio_6m1!r} 6m+5={ratio_6m5!r}\n"
        )
    _emit(out, args.format, payload, text)


def _cmd_table_export(args: argparse.Namespace, out: TextIO) -> None:
    table = TableId(args.table)
    cols = args.cols
    if cols is None:
        cols = 5 if table is TableId.A else 6
    _write(out, table_window_csv(table, args.rows, cols))


# the one command table: each command's help text, the library modules whose
# public names its handler reads (_dispatch binds them, then calls the
# handler), the handler, and its arguments as (flag, add_argument keywords).
# build_parser builds the argparse parser from it, and _fast_parse reads
# canonical command lines straight from it
_COMMANDS: dict[str, tuple[str, tuple[str, ...], Callable, tuple[tuple[str, dict], ...]]] = {
    "classify": ("classify an odd integer and show its single step", ("core",), _cmd_classify, (
        ("value", {"type": int}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
    )),
    "trajectory": ("odd-iterate walk down to 1", ("trajectory",), _cmd_trajectory, (
        ("start", {"type": int}),
        ("--end", {"type": int, "default": None, "help": "scan odd starts up to END inclusive"}),
        ("--method", {"choices": ("direct", "lookup"), "default": "direct"}),
        ("--stats", {"action": "store_true", "help": "aggregate the scanned records"}),
        ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
    )),
    "predecessors": ("odd integers stepping onto a given iterate", ("tables", "core"), _cmd_predecessors, (
        ("iterate", {"type": int}),
        ("--count", {"type": int, "default": 5}),
        ("--to-starter", {"action": "store_true", "help": "walk least predecessors upward until an odd multiple of 3"}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
    )),
    "locate": ("table coordinate of an odd integer", ("tables",), _cmd_locate, (
        ("value", {"type": int}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
    )),
    "tree": ("layered tree rooted at 1", ("tree",), _cmd_tree, (
        ("--depth", {"type": int, "default": 3}),
        ("--breadth", {"type": int, "default": 4}),
        ("--format", {"choices": ("text", "json", "dot"), "default": "text"}),
    )),
    "alpha-table": ("alpha=1 run lengths: table window or one run", ("analysis",), _cmd_alpha_table, (
        ("--rows", {"type": int, "default": 36}),
        ("--cols", {"type": int, "default": 10}),
        ("--chain", {"type": int, "default": None, "metavar": "X", "help": "show the run from X"}),
        ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
    )),
    "drift": ("average-drift series and measured per-step factor", ("analysis",), _cmd_drift, (
        ("--terms", {"type": int, "default": None}),
        ("--bound", {"type": int, "default": None}),
        ("--workers", {"type": int, "default": 1}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
    )),
    "verify": ("bounded scans: theorem properties, alpha density, class ratio", ("analysis",), _cmd_verify, (
        ("--bound", {"type": int, "required": True}),
        ("--max-alpha", {"type": int, "default": None}),
        ("--workers", {"type": int, "default": 1}),
        ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
    )),
    "table-export": ("CSV window of a predecessor table", ("tables",), _cmd_table_export, (
        ("--table", {"choices": ("A", "B"), "required": True}),
        ("--rows", {"type": int, "default": 36}),
        ("--cols", {"type": int, "default": None, "help": "defaults to 5 for A, 6 for B"}),
    )),
}


def run(argv: Sequence[str] | None = None, out: TextIO | None = None, err: TextIO | None = None) -> int:
    """Parse argv, dispatch, and return the process exit code.

    Numbers of any length are parsed and printed: CPython's int/str digit
    limit is lifted for the call and restored on return.  The command runs
    in this process alone: no process is forked.
    """
    return _run(argv, out, err, fork=False)


def _run(argv: Sequence[str] | None, out: TextIO | None, err: TextIO | None, fork: bool) -> int:
    # run's body; main() alone passes fork=True, so that a long walk line
    # may be written by two processes (trajectory._write_walk)
    if not hasattr(sys, "set_int_max_str_digits"):
        return _dispatch(argv, out, err, fork)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _dispatch(argv, out, err, fork)
    finally:
        sys.set_int_max_str_digits(previous)


def _dispatch(argv: Sequence[str] | None, out: TextIO | None, err: TextIO | None, fork: bool) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    # parsed here, under run's lifted digit limit: a start may be any length
    args = _fast_parse(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        _, modules, handler, _ = _COMMANDS[args.command]
        for module in modules:
            _bind(module)
        args.fork = fork
        handler(args, out)
        return 0
    except MaxStepsExceeded as exc:
        err.write(f"error: {exc}\n")
        return 3
    except DomainError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        err.write("error: out of memory\n")
        return 1
    except (ChildProcessError, *_broken_pool()) as exc:
        # a dead render helper (trajectory._write_forked) or pool worker
        err.write(f"error: a worker process died: {exc}\n")
        return 1


def _broken_pool() -> tuple:
    # evaluated only when an error reaches the except clause; without a
    # started pool the class is not loaded and the empty tuple matches nothing
    process = sys.modules.get("concurrent.futures.process")
    return (process.BrokenProcessPool,) if process is not None else ()


def _watched() -> bool:
    # a trace or profile function (debuggers, coverage, cProfile up to 3.11),
    # a sys.monitoring tool, ids 0-5 (cProfile from 3.12 on), or a thread
    # other than the main one: each may still act at the interpreter's exit
    monitoring = getattr(sys, "monitoring", None)
    threading = sys.modules.get("threading")
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(map(monitoring.get_tool, range(6))))
        or (threading is not None and threading.active_count() > 1)
    )


def main() -> NoReturn:
    """Run the command line in sys.argv and end the process with its exit code.

    The process ends at its last byte: after the atexit callbacks and a
    flush of stdout and stderr it calls os._exit, skipping the teardown of
    modules and objects (about 10 ms a command).  Under a tracer, profiler
    or a second thread it exits by sys.exit, as any program would.  Here
    alone a long trajectory line may be rendered with a forked helper
    (trajectory._write_walk), which the command reaps before it returns.
    """
    try:
        code = _run(None, None, None, fork=True)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send the unflushed rest to devnull so
        # the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except KeyboardInterrupt:
        sys.stderr.write("error: interrupted\n")
        code = 1
    if _watched():
        sys.exit(code)
    # the interpreter's exit in its order (atexit callbacks, then the flush);
    # a pooled scan has already joined its workers
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # output still buffered after an interrupt, for a reader gone since
        code = 1
    os._exit(code)
