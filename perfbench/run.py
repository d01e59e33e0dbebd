"""collatzkit benchmark: closed-loop CLI workloads and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload {scan,walk,interactive} --seed N --seconds S --trace {0,1}

--trace 0 runs the workload's `python -m collatzkit` commands as untraced
subprocesses in a closed loop with one client: each command starts only
after the previous one exits, cycling through the list until S seconds
have passed, then to the end of the pass.  It reports the end-to-end
metrics.  Between commands it runs a reference process, fixed pure-Python
work of the workload's kind that imports nothing from the repository, as
often as keeps the references' time at REF_SHARE of the commands' time.  A shared host's speed
swings by half within seconds and drifts between minutes, and moves the
commands and the reference alike, so times are reported in units of the
reference's mean time over the same window ("ref"), which cancels the
drift.  The same figures in seconds are printed too, ungated.

--trace 1 runs the same commands, plus a small probe that reaches every
layer, inside this process, each once untraced and once with spans around
each layer, and reports the per-layer metrics.  Every output is checked.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Metric and
workload names, units and reasons come from BENCHMARK.json at the
repository root.  A record of the run (machine, seed, commands, reasons,
known defects, metrics) is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPS = 21  # set-up processes per run, spread evenly over the timed window; setup_s is their median
MICRO_REPS = 5
COMMAND_TIMEOUT_S = 60  # the slowest command takes about 4 s
SETUP_CODE = "import collatzkit.cli as cli; cli.build_parser()"
# Fixed work for the reference process, of the kind the workload's commands
# do but without the repository's code; each takes about 0.1 s, interpreter
# start included, on a 2 GHz core.  The host's slow spells slow big-int
# formatting less than small-int loops, so walk gets a reference of its own.
SMALL_INT_LOOP = "s = 0\nfor i in range(300000):\n    s += i * i % 7"
BIG_INT_FORMAT = "x = 3 ** 3000\nfor i in range(1000):\n    x = 3 * x + 1 >> 1\n    s = str(x)"
REF_CODE = {"scan": SMALL_INT_LOOP, "walk": BIG_INT_FORMAT, "interactive": SMALL_INT_LOOP}
REF_SHARE = 0.25

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("COLLATZ_MAX_STEPS", None)  # every walk runs under the default budget
    return env


def spawn(args: list[str], env: dict, stdout, stderr) -> tuple[float, int, int]:
    """Run one child to completion: (wall s, exit code, peak RSS KiB from wait4)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def setup_time(env: dict) -> float:
    """One process that imports collatzkit and builds the parser but runs no command."""
    elapsed, code, _ = spawn([sys.executable, "-c", SETUP_CODE], env, subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise SystemExit(f"set-up process exited {code}: cannot import collatzkit from {SRC}")
    return elapsed


def reference_time(source: str, env: dict) -> float:
    """One reference process, isolated (-I) so nothing under the repository can change it."""
    elapsed, code, _ = spawn([sys.executable, "-I", "-c", source], env, subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise SystemExit(f"reference process exited {code}")
    return elapsed


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least 10 samples beyond it (nearest rank)."""
    n = len(samples)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[max(0, math.ceil(p * n / 100) - 1)]


class Execution(NamedTuple):
    line: int  # index into the workload's command list
    seconds: float
    code: int
    rss_kib: int
    traceback: bool
    identical: bool  # stdout byte-identical to the line's first run


def run_probe(command: workloads.Command, env: dict, workdir: Path) -> dict:
    """A known-defect command: run once, reported apart from attempted/failed."""
    err_path = workdir / "probe.err"
    with open(err_path, "wb") as err:
        _, code, _ = spawn([sys.executable, "-m", "collatzkit", *command.argv], env, subprocess.DEVNULL, err)
    stderr = err_path.read_text(errors="replace")
    present = code != 0 and "OverflowError" in stderr
    return {
        "argv": " ".join(command.argv),
        "exit": code,
        "status": "defect present (OverflowError traceback)" if present else "behaviour changed: recheck the defect",
    }


def end_to_end(wl: workloads.Workload, seconds: float, env: dict) -> dict:
    commands = wl.commands
    execs: list[Execution] = []
    setup_times = [setup_time(env)]
    ref_times: list[float] = []
    cmd_s = 0.0
    timeline: list[tuple[int, float]] = []  # (command line, or -1 for the reference; seconds) in run order
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        probes = [run_probe(c, env, workdir) for c in wl.probes]
        first: dict[int, Path] = {}  # each line's first stdout, kept for the checks
        start = time.perf_counter()
        passes, line = 0, 0
        while True:
            # a shared host's speed can drift within seconds, so every metric samples the whole window
            if len(setup_times) < SETUP_REPS and time.perf_counter() >= start + seconds * len(setup_times) / SETUP_REPS:
                setup_times.append(setup_time(env))
                continue
            if not ref_times or sum(ref_times) < REF_SHARE * cmd_s:
                ref_times.append(reference_time(REF_CODE[wl.name], env))
                timeline.append((-1, ref_times[-1]))
                continue
            argv = [sys.executable, "-m", "collatzkit", *commands[line].argv]
            out_path, err_path = workdir / f"{len(execs)}.out", workdir / f"{len(execs)}.err"
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                elapsed, code, rss = spawn(argv, env, out, err)
            with open(err_path, "rb") as err:
                traceback = b"Traceback" in err.read()
            err_path.unlink()
            if line in first:
                identical = filecmp.cmp(first[line], out_path, shallow=False)
                out_path.unlink()
            else:
                first[line], identical = out_path, True
            execs.append(Execution(line, elapsed, code, rss, traceback, identical))
            timeline.append((line, elapsed))
            cmd_s += elapsed
            line = (line + 1) % len(commands)
            passes += line == 0
            # whole passes only, so every command is weighted alike over the window
            if line == 0 and time.perf_counter() >= start + seconds:
                break
        setup_times += [setup_time(env) for _ in range(SETUP_REPS - len(setup_times))]
        # checks run after the timed loop: see checks.py on why this process stays small until now
        import checks

        reasons = {i: checks.check(c.argv, first[i].read_bytes()) for i, c in enumerate(commands)}
        for i, c in enumerate(commands):
            if c.same_as is not None and not filecmp.cmp(first[i], first[c.same_as], shallow=False):
                reasons[i] = f"stdout differs from {' '.join(commands[c.same_as].argv)[:80]}"
        out_bytes = [first[i].stat().st_size for i in range(len(commands))]
    finally:
        shutil.rmtree(workdir)

    def failure(e: Execution) -> str | None:
        if e.code != 0 or e.traceback:
            return f"exit {e.code}" + (" with a traceback" if e.traceback else "")
        return reasons[e.line] if e.identical else "stdout differs from the command's first run"

    failures = {" ".join(commands[e.line].argv)[:120]: why for e in execs if (why := failure(e))}
    per_line = [[e.seconds for e in execs if e.line == i] for i in range(len(commands))]
    means = [statistics.fmean(s) for s in per_line]
    wall_s = sum(means)  # one pass of the command list, from each command's mean over the window
    ref_s = statistics.fmean(ref_times)
    wall_ref = wall_s / ref_s
    odds, out_mb = sum(c.odds for c in commands), sum(out_bytes) / 1e6
    return {
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "wall_ref": wall_ref,
            "odds_per_ref": odds / wall_ref,
            "out_mb_per_ref": out_mb / wall_ref,
            "peak_rss_mb": max(e.rss_kib for e in execs) / 1024,
        },
        "attempted": len(execs),
        "failed": sum(failure(e) is not None for e in execs),
        "samples": {
            "setup_s": len(setup_times),
            "wall_ref": f"{passes} full passes, {min(map(len, per_line))}-{max(map(len, per_line))} runs per command",
            "ref": len(ref_times),
        },
        # the same figures in seconds: what a user sees, but they move with the host's speed
        "seconds": {"ref_s": ref_s, "wall_s": wall_s, "odds_per_s": odds / wall_s, "out_mb_per_s": out_mb / wall_s},
        # reported, not gated: on scan and walk these mix a handful of unlike commands
        "cmd_ms_p50": statistics.median(means) * 1e3,
        "tail": tail([e.seconds for e in execs]),
        "failures": failures,
        "probes": probes,
        "timeline": timeline,
        "lines": [
            {"argv": list(c.argv), "mean_s": m, "runs_s": s, "stdout_bytes": b}
            for c, m, s, b in zip(commands, means, per_line, out_bytes)
        ],
    }


def traced(wl: workloads.Workload, probe, seconds: float, env: dict, seed: int, workers: int, scale: float) -> dict:
    import hashlib

    import checks
    import tracing

    started = time.perf_counter()
    metrics = tracing.microcases(seed, env, workers, MICRO_REPS, scale)
    commands = [c.argv for c in wl.commands] + [c.argv for c in probe]
    digests: dict[int, str] = {}
    reasons: dict[int, str] = {}
    attempted = failed = 0
    untraced_walls, traced_walls, passes = [], [], []
    while True:
        pass_start = time.perf_counter()
        tracer = tracing.Tracer()
        walls = {False: 0.0, True: 0.0}
        out_bytes = 0
        for i, argv in enumerate(commands):
            # each command runs untraced and traced back to back, in alternating
            # order, so drifting machine speed and warm-up favour neither side
            for trace_on in (False, True) if i % 2 == 0 else (True, False):
                elapsed, code, out, err = tracing.run_command(argv, tracer if trace_on else None)
                walls[trace_on] += elapsed
                data = out.encode()
                digest = hashlib.sha256(data).hexdigest()
                if code != 0 or "Traceback" in err:
                    reasons[i] = f"exit {code}: {(err.strip().splitlines() or [''])[-1]}"
                elif i not in digests:
                    digests[i] = digest
                    if reason := checks.check(argv, data):
                        reasons[i] = reason
                elif digests[i] != digest:
                    reasons[i] = "stdout differs between runs"
                attempted += 1
                failed += i in reasons
                out_bytes += len(data) if trace_on else 0
        untraced_walls.append(walls[False])
        traced_walls.append(walls[True])
        passes.append(tracing.pass_metrics(tracer, out_bytes))
        # start another pass only if it can end within the window
        now = time.perf_counter()
        if now - started + (now - pass_start) > seconds:
            break
    for name in passes[0]:
        metrics[name] = statistics.median(p[name] for p in passes)
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    spans_path = RESULTS / f"{wl.name}-spans.json"
    spans_path.write_text(json.dumps({"names": "[name, parent index, start ns, end ns]", "spans": tracer.spans}))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "samples": {"passes, each command untraced and traced": len(passes), "microcase repeats": MICRO_REPS},
        "failures": {" ".join(commands[i])[:120]: r for i, r in reasons.items()},
        "spans": str(spans_path.relative_to(ROOT)),
    }


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("scan", "walk", "interactive"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "collatzkit" / "__init__.py").is_file():
        print(f"error: no collatzkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    sys.path.insert(0, str(SRC))
    os.environ.pop("COLLATZ_MAX_STEPS", None)
    RESULTS.mkdir(exist_ok=True)
    size = workloads.TINY if args.size == "tiny" else workloads.FULL
    workers = min(2, os.cpu_count() or 1)  # pools never exceed the CPUs present
    wl = workloads.build(args.workload, args.seed, size, workers)
    env = child_env()
    if args.trace:
        scale = 1.0 if args.size == "full" else 0.01
        probe = workloads.layer_probe(args.seed, size, workers)
        result = traced(wl, probe, args.seconds, env, args.seed, workers, scale)
    else:
        result = end_to_end(wl, args.seconds, env)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}

    print(f"collatzkit benchmark: workload={wl.name} seed={args.seed} trace={args.trace} size={args.size}")
    print(f"  why: {why}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:16.6f} {m['unit']}")
    for name, n in result["samples"].items():
        print(f"  samples {name}: {n}")
    for name, value in result.get("seconds", {}).items():
        print(f"  {name:32s} {value:16.6f} (not gated)")
    if "tail" in result:
        n = result["attempted"]
        print(f"  cmd_ms_p50 {result['cmd_ms_p50']:.3f} ms (median over {len(wl.commands)} commands of their mean; {n} runs)")
        if result["tail"]:
            p, value = result["tail"]
            print(f"  cmd_ms_tail {value * 1e3:.3f} ms (p{p} of {n} runs)")
        print(f"  failed_ratio {result['failed'] / n:.6f} ({result['failed']}/{n})")
    for probe_result in result.get("probes", []):
        print(f"  known-defect probe: {probe_result['argv'][:60]}... exit={probe_result['exit']}: {probe_result['status']}")
    for argv_text, reason in result["failures"].items():
        print(f"  FAILED {argv_text}: {reason}")

    record = {
        "workload": wl.name,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine(),
        "commands": [" ".join(c.argv) for c in wl.commands],
        "known_defects": workloads.KNOWN_DEFECTS,
        "layer_effects": workloads.LAYER_EFFECTS,
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": metrics,
    }
    (RESULTS / f"{wl.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
