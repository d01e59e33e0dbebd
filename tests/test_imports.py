"""Start-up import guard: the process-pool stack loads only when a scan starts a pool.

concurrent.futures brings in multiprocessing, logging, pickle, socket and
subprocess; a CLI process that runs in one process must not pay for them.
Each case runs in a fresh interpreter so that nothing imported by the test
session can hide or cause a load.  No timing is asserted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
POOL_STACK = ("concurrent.futures", "multiprocessing", "logging")

REPORT = "import json, sys; print(json.dumps([m for m in {mods!r} if m in sys.modules]))"


def loaded_after(code):
    # run `code`, then report which pool-stack modules it left loaded (last stdout line)
    script = f"{code}\n{REPORT.format(mods=POOL_STACK)}"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=ENV, timeout=120, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "code",
    [
        "import collatzkit.cli; collatzkit.cli.build_parser()",
        "import collatzkit.cli; collatzkit.cli.run(['classify', '7'])",
        # one chunk, so the worker clamp leaves a single worker and no pool
        "import collatzkit.cli; collatzkit.cli.run(['verify', '--bound', '1001', '--workers', '2'])",
    ],
    ids=["build_parser", "classify", "verify-one-chunk"],
)
def test_single_process_commands_do_not_load_the_pool_stack(code):
    assert loaded_after(code) == []


def test_a_pooled_scan_gives_the_single_process_output():
    # two chunks: with two or more CPUs this starts a real pool
    def verify(workers):
        argv = [sys.executable, "-m", "collatzkit", "verify", "--bound", "70001", "--workers", workers]
        return subprocess.run(argv, capture_output=True, env=ENV, timeout=120, check=True).stdout

    assert verify("2") == verify("1")


def test_the_pool_class_stays_a_module_attribute():
    # tests and the benchmark's tracer replace it there
    from collatzkit import analysis

    assert hasattr(analysis, "ProcessPoolExecutor")
