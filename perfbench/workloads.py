"""Seeded command lists for the collatzkit benchmark.

Every workload is a list of `python -m collatzkit` argument vectors built
from the seed alone.  The program sees only these arguments.  FULL sizes
are the benchmark; TINY sizes exist for the smoke test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    odds: int = 0  # odd starts the command walks or scans
    same_as: int | None = None  # index of a command whose stdout must be byte-identical


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # known-defect commands: run and reported apart from the timed list
    probes: tuple[Command, ...] = ()


@dataclass(frozen=True)
class Size:
    verify_bound: int
    drift_bound: int
    stats_span: int  # trajectory --end START+span --stats
    big_bits: int  # the 2**bits - 1 walk
    batch_bits: int
    batch_count: int
    stream_span: int  # trajectory --end START+span --format json
    per_kind: int  # interactive commands of each kind


# FULL keeps commands short enough that each runs several times in a 30 s
# window: the host's speed swings within seconds, and more runs average them.
FULL = Size(100001, 1000001, 50000, 5000, 1000, 100, 25000, 4)
TINY = Size(1001, 2001, 1000, 64, 64, 20, 1000, 2)

DEFECT_BITS = 5000  # trajectory_stats overflows a float once peaks pass ~2**1024

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_EFFECTS = {
    "collatzkit.import_ms": "setup_s and wall_ref (cmd_ms_p50) on interactive; not scan",
    "cli.self_s": "out_mb_per_ref and wall_ref on walk, wall_ref (cmd_ms_p50) on interactive; not scan",
    "cli.out_bytes": "out_mb_per_ref and wall_ref on walk, wall_ref (cmd_ms_p50) on interactive; not scan",
    "core.step_ns_64b": "odds_per_ref and wall_ref on scan; not interactive",
    "core.step_ns_1000b": "wall_ref on walk (--stats batches); not interactive",
    "core.step_ns_5000b": "wall_ref on walk (--stats batches); not interactive",
    "trajectory.walk_s": "scan (verify, --stats) and walk",
    "trajectory.walks": "scan (verify, --stats) and walk",
    "trajectory.steps": "scan (verify, --stats) and walk",
    "trajectory.direct_ns_per_step": "scan (verify, --stats) and walk",
    "trajectory.lookup_ns_per_step": "walk (--method lookup)",
    "trajectory.record_json_s": "out_mb_per_ref and wall_ref on walk",
    "trajectory.stats_s": "wall_ref and peak_rss_mb on scan and walk",
    "analysis.verify_s": "odds_per_ref and wall_ref on scan only",
    "analysis.density_s": "odds_per_ref and wall_ref on scan only",
    "analysis.ratio_s": "odds_per_ref and wall_ref on scan only",
    "analysis.drift_s": "odds_per_ref and wall_ref on scan only",
    "analysis.odds_scanned": "odds_per_ref on scan only",
    "analysis.iterates_per_start": "odds_per_ref and wall_ref on scan only (glide mode cuts it)",
    "analysis.pools_per_verify": "wall_ref on scan only (a fused scan driver makes it 1)",
    "analysis.pool_s": "odds_per_ref and wall_ref on scan only",
    "analysis.pool_startup_ms": "odds_per_ref and wall_ref on scan only",
    "tables.locate_us": "interactive only",
    "tables.predecessor_row_us": "interactive only",
    "tree.build_s": "interactive only",
    "tree.export_s": "interactive only",
    "tree.nodes": "interactive only",
    "trace.overhead_ratio": "none: traced over untraced in-process wall time",
}

KNOWN_DEFECTS = [
    "trajectory <5000-bit start> --stats exits 1 with an OverflowError traceback: "
    "trajectory_stats computes sum(values) / len(values) as a float, which overflows "
    "once peaks pass about 2**1024 (2**1100-1 reproduces it too)",
]


def _odd(rng: random.Random, bits: int) -> int:
    return rng.getrandbits(bits) | 1 | (1 << (bits - 1))


def _step_image(rng: random.Random, bits: int) -> int:
    # odd, not a multiple of 3 and not 1: valid for predecessors and --to-starter
    while True:
        y = _odd(rng, bits)
        if y % 3 and y != 1:
            return y


def _range(start: int, span: int, *extra: str, same_as: int | None = None) -> Command:
    argv = ("trajectory", str(start), "--end", str(start + span), *extra)
    return Command(argv, span // 2 + 1, same_as)


def scan(rng: random.Random, size: Size, workers: int) -> Workload:
    # verify prints float shares whose length moves with the bound, so the
    # bound is fixed and out_mb_per_ref does not move with the seed
    bound = size.verify_bound
    drift = size.drift_bound + 2 * rng.randrange(1000)
    first = 1 + 2 * rng.randrange(500)
    verify = ("verify", "--bound", str(bound), "--workers")
    drift_args = ("drift", "--bound", str(drift), "--workers")
    return Workload(
        "scan",
        (
            Command((*verify, "1"), (bound + 1) // 2),
            Command((*verify, str(workers)), (bound + 1) // 2, same_as=0),
            Command((*drift_args, "1"), (drift - 1) // 2),
            Command((*drift_args, str(workers)), (drift - 1) // 2, same_as=2),
            _range(first, size.stats_span, "--stats"),
        ),
    )


def walk(rng: random.Random, size: Size) -> Workload:
    big = str(2**size.big_bits - 1)
    batch = _odd(rng, size.batch_bits)
    span = 2 * (size.batch_count - 1)
    defect = _odd(rng, DEFECT_BITS)
    first = 1 + 2 * rng.randrange(500)
    return Workload(
        "walk",
        (
            Command(("trajectory", big), 1),
            Command(("trajectory", big, "--format", "json"), 1),
            Command(("trajectory", big, "--method", "lookup"), 1, same_as=0),
            _range(batch, span, "--stats"),
            _range(batch, span, "--stats", "--method", "lookup", same_as=3),
            _range(first, size.stream_span, "--format", "json"),
        ),
        probes=(Command(("trajectory", str(defect), "--stats"), 1),),
    )


# Output sizes of tree, alpha-table and table-export depend only on these
# shape arguments, so they are fixed and the seed only sets the order;
# out_mb_per_ref then does not move with the seed.
TREES = (
    (2, 4, "text"), (3, 3, "json"), (4, 2, "dot"), (5, 4, "text"), (6, 3, "json"),
    (7, 2, "dot"), (8, 3, "text"), (4, 4, "json"), (6, 4, "dot"), (5, 2, "text"),
)
WINDOWS = (
    (8, 2, "text"), (18, 6, "json"), (27, 10, "csv"), (36, 6, "text"), (12, 10, "json"),
    (24, 2, "csv"), (36, 10, "json"), (8, 10, "text"), (30, 4, "csv"), (20, 8, "text"),
)


def interactive(rng: random.Random, size: Size) -> Workload:
    def fmt(i: int) -> tuple[str, str]:
        # the format follows the index, so output size does not depend on the seed
        return ("--format", ("text", "json")[i % 2])

    def tree(i: int) -> Command:
        depth, breadth, form = TREES[i]
        return Command(("tree", "--depth", str(depth), "--breadth", str(breadth), "--format", form))

    def window(i: int) -> Command:
        rows, cols, form = WINDOWS[i]
        return Command(("alpha-table", "--rows", str(rows), "--cols", str(cols), "--format", form))

    kinds = [
        lambda i: Command(("classify", str(_odd(rng, 64)), *fmt(i))),
        lambda i: Command(("locate", str(_odd(rng, 64)), *fmt(i))),
        lambda i: Command(("predecessors", str(_step_image(rng, 64)), "--count", str(1 + i % 8), *fmt(i))),
        lambda i: Command(("predecessors", str(_step_image(rng, 64)), "--to-starter", *fmt(i))),
        lambda i: Command(("trajectory", str(rng.randrange(3, 10**4, 2))), 1),
        tree,
        window,
        lambda i: Command(("alpha-table", "--chain", str(_odd(rng, 64) | 3), *fmt(i))),
        lambda i: Command(("table-export", "--table", "AB"[i % 2], "--rows", str(9 + 3 * i))),
        lambda i: Command(("drift", "--terms", str(10 + 7 * i), *fmt(i))),
    ]
    # the largest tree is always present, so peak_rss_mb does not depend on the seed
    commands = [Command(("tree", "--depth", "8", "--breadth", "4", "--format", "json"))]
    commands += [make(i) for make in kinds for i in range(size.per_kind)]
    rng.shuffle(commands)
    return Workload("interactive", tuple(commands))


def build(name: str, seed: int, size: Size, workers: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "scan":
        return scan(rng, size, workers)
    if name == "walk":
        return walk(rng, size)
    return interactive(rng, size)


def layer_probe(seed: int, size: Size, workers: int) -> tuple[Command, ...]:
    """Small commands that reach every layer; appended to each traced pass.

    They keep every per-layer metric measured, and non-zero, on every
    workload, including layers the workload's own commands never reach.
    """
    rng = random.Random(f"probe:{seed}")
    return (
        # two chunks of the scans' 32768 odd starts, so --workers starts a pool
        Command(("verify", "--bound", "65537", "--workers", str(workers))),
        Command(("drift", "--bound", str(size.drift_bound // 10 | 1))),
        Command(("trajectory", str(_odd(rng, size.batch_bits)), "--method", "lookup", "--format", "json"), 1),
        _range(1, size.stats_span // 50 * 2, "--stats"),
        Command(("tree", "--depth", "6", "--format", "json")),
        Command(("locate", str(_odd(rng, 64)))),
        Command(("predecessors", str(_step_image(rng, 64)))),
    )
