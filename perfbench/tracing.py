"""The traced per-layer run: spans around the library calls that cross modules.

The benchmark runs each command in-process through
`collatzkit.cli.run(argv, out=buffer)` while the module attributes that
`cli` and `analysis` call across a module boundary are wrapped with timing
spans.  No file of the package changes: the wrappers are set on the module
objects for the traced pass and removed after it.  Spans stay in memory as
[name, parent index, start ns, end ns] and are written out when the run
ends.  Pool workers run outside this process, so for `--workers N>1`
commands only parent-side spans and counts exist.

Microcases time single layers with no spans at all: interpreter import,
pool start-up, the step kernel and the table lookups.
"""

from __future__ import annotations

import io
import random
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import collatzkit.analysis as analysis
import collatzkit.cli as cli
from collatzkit import locate, predecessor_row, syracuse_step


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start ns, end ns]
        self.counts: Counter = Counter()
        self.root_command: dict[int, str] = {}  # cli.run span index -> subcommand
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, count))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _walk_counter(kind: str):
    def count(counts, args, kwargs, record) -> None:
        counts["trajectory.walks"] += 1
        counts["trajectory.steps"] += record.odd_length
        counts[f"trajectory.{kind}_steps"] += record.odd_length

    return count


def _counter(key: str, measure):
    def count(counts, args, kwargs, result) -> None:
        counts[key] += measure(args, kwargs, result)

    return count


def _odds(args, kwargs, result) -> int:
    return (args[0] + 1) // 2


def _count_verify(counts, args, kwargs, report) -> None:
    counts["analysis.odds_scanned"] += report.trajectories
    counts["analysis.verify_starts"] += report.trajectories
    counts["analysis.verify_iterates"] += report.iterates_checked


def _drift_odds(args, kwargs, report) -> int:
    bound = kwargs.get("scan_bound")
    return (bound - 1) // 2 if bound else 0


def _tree_nodes(args, kwargs, layers) -> int:
    return sum(len(layer.nodes()) for layer in layers)


def _install(tracer: Tracer) -> None:
    """Wrap every cross-module call the CLI and the scans make.

    Every library call gets a span, even where no metric reads it, so that
    cli.self_s keeps only the CLI's own parsing, formatting and writing.
    """
    p = tracer.patch
    for attr in ("classify", "syracuse_step", "alpha_of", "reverse_to_starter"):
        p(cli, attr, f"core.{attr}")
    for attr in ("locate", "predecessor_row", "column_alpha", "row_iterate", "table_window_csv"):
        p(cli, attr, f"tables.{attr}")
    p(cli, "trajectory_direct", "trajectory.direct", _walk_counter("direct"))
    p(cli, "trajectory_lookup", "trajectory.lookup", _walk_counter("lookup"))
    p(cli, "trajectory_stats", "trajectory.stats")
    p(cli, "record_json", "trajectory.record_json")
    p(cli, "stats_csv", "trajectory.stats_csv")
    p(cli, "build_layers", "tree.build", _counter("tree.nodes", _tree_nodes))
    p(cli, "export_tree", "tree.export")
    p(cli, "verify_theorems", "analysis.verify", _count_verify)
    p(cli, "empirical_alpha_density", "analysis.density", _counter("analysis.odds_scanned", _odds))
    p(cli, "empirical_iterate_class_ratio", "analysis.ratio", _counter("analysis.odds_scanned", _odds))
    p(cli, "drift_report", "analysis.drift", _counter("analysis.odds_scanned", _drift_odds))
    for attr in ("alpha_chain", "alpha_chain_length", "alpha_table_entry", "drift_series_decrease_parts"):
        p(cli, attr, f"analysis.{attr}")
    # the theorem scan walks every start through trajectory's public function
    p(analysis, "trajectory_direct", "trajectory.direct", _walk_counter("direct"))

    class TracedPool(ProcessPoolExecutor):
        # lifetime of one pool in the parent: start-up, map, IPC and shutdown
        def __init__(self, *args, **kwargs):
            tracer.counts["analysis.pools"] += 1
            self._span = tracer.open("analysis.pool")
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    tracer._patched.append((analysis, "ProcessPoolExecutor", analysis.ProcessPoolExecutor))
    analysis.ProcessPoolExecutor = TracedPool


def run_command(argv, tracer: Tracer | None) -> tuple[float, int, str, str]:
    """Run one argv through cli.run in this process: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        _install(tracer)
        tracer.root_command[len(tracer.spans)] = argv[0]
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = cli.run(list(argv), out=out, err=err)
        else:
            span = tracer.open("cli.run")
            try:
                code = cli.run(list(argv), out=out, err=err)
            finally:
                tracer.close(span)
        error = err.getvalue()
    except Exception:  # a traceback out of the CLI counts as a failed command
        code, error = -1, traceback.format_exc()
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
    return seconds, code, out.getvalue(), error


def _self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    self_ns = []
    for i, (name, parent, start, end) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        self_ns.append(end - start - covered)
    return self_ns


def _root(spans: list[list], i: int) -> int:
    while spans[i][1] >= 0:
        i = spans[i][1]
    return i


def pass_metrics(tracer: Tracer, out_bytes: int) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    spans = tracer.spans
    self_ns = _self_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    for (name, _, start, end), s in zip(spans, self_ns):
        total[name] += end - start
        own[name] += s
    counts = tracer.counts
    verify_pools = Counter()
    for i, span in enumerate(spans):
        if span[0] == "analysis.pool":
            root = _root(spans, i)
            if tracer.root_command.get(root) == "verify":
                verify_pools[root] += 1
    direct_ns, lookup_ns = total["trajectory.direct"], total["trajectory.lookup"]
    return {
        "cli.self_s": own["cli.run"] / 1e9,
        "cli.out_bytes": out_bytes,
        "trajectory.walk_s": (direct_ns + lookup_ns) / 1e9,
        "trajectory.walks": counts["trajectory.walks"],
        "trajectory.steps": counts["trajectory.steps"],
        "trajectory.direct_ns_per_step": direct_ns / counts["trajectory.direct_steps"],
        "trajectory.lookup_ns_per_step": lookup_ns / counts["trajectory.lookup_steps"],
        "trajectory.record_json_s": total["trajectory.record_json"] / 1e9,
        "trajectory.stats_s": total["trajectory.stats"] / 1e9,
        "analysis.verify_s": own["analysis.verify"] / 1e9,
        "analysis.density_s": own["analysis.density"] / 1e9,
        "analysis.ratio_s": own["analysis.ratio"] / 1e9,
        "analysis.drift_s": own["analysis.drift"] / 1e9,
        "analysis.odds_scanned": counts["analysis.odds_scanned"],
        "analysis.iterates_per_start": counts["analysis.verify_iterates"] / counts["analysis.verify_starts"],
        # over verify commands that started a pool (--workers > 1)
        "analysis.pools_per_verify": sum(verify_pools.values()) / max(1, len(verify_pools)),
        "analysis.pool_s": total["analysis.pool"] / 1e9,
        "tree.build_s": total["tree.build"] / 1e9,
        "tree.export_s": total["tree.export"] / 1e9,
        "tree.nodes": counts["tree.nodes"],
    }


# --- microcases -----------------------------------------------------------


def _median_of(reps: int, fn) -> float:
    return statistics.median(fn() for _ in range(reps))


def import_ms(env: dict, reps: int) -> float:
    """Import time of collatzkit.cli in a fresh interpreter, as it reports it."""
    code = "import time; t = time.perf_counter(); import collatzkit.cli; print(time.perf_counter() - t)"

    def once() -> float:
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return float(done.stdout) * 1e3

    return _median_of(reps, once)


def pool_startup_ms(workers: int, reps: int) -> float:
    """A pool of `workers` processes, as analysis creates it, mapping a no-op."""

    def once() -> float:
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(abs, range(workers)))
        return (time.perf_counter() - t0) * 1e3

    return _median_of(reps, once)


def step_ns(rng: random.Random, bits: int, steps: int, reps: int) -> float:
    """Chained public syracuse_step from seeded starts of `bits` bits, ns per step."""
    starts = [rng.getrandbits(bits) | 1 | (1 << (bits - 1)) for _ in range(64)]

    def once() -> float:
        x, fresh = starts[0], iter(starts[1:] * (steps // bits + 2))
        t0 = time.perf_counter_ns()
        for _ in range(steps):
            x = syracuse_step(x).iterate
            if x == 1:
                x = next(fresh)
        return (time.perf_counter_ns() - t0) / steps

    return _median_of(reps, once)


def call_us(fn, inputs: list, reps: int) -> float:
    """Mean µs per call of fn over the inputs, median over reps."""

    def once() -> float:
        t0 = time.perf_counter_ns()
        for x in inputs:
            fn(x)
        return (time.perf_counter_ns() - t0) / len(inputs) / 1e3

    return _median_of(reps, once)


def microcases(seed: int, env: dict, workers: int, reps: int, scale: float) -> dict[str, float]:
    rng = random.Random(f"micro:{seed}")
    odds = [rng.getrandbits(64) | 1 for _ in range(max(50, int(2000 * scale)))]
    images = [y for y in odds if y % 3]  # valid predecessor_row iterates
    return {
        "collatzkit.import_ms": import_ms(env, reps),
        "analysis.pool_startup_ms": pool_startup_ms(workers, reps),
        "core.step_ns_64b": step_ns(rng, 64, max(500, int(200_000 * scale)), reps),
        "core.step_ns_1000b": step_ns(rng, 1000, max(500, int(50_000 * scale)), reps),
        "core.step_ns_5000b": step_ns(rng, 5000, max(500, int(20_000 * scale)), reps),
        "tables.locate_us": call_us(locate, odds, reps),
        "tables.predecessor_row_us": call_us(lambda y: predecessor_row(y, 5), images, reps),
    }
