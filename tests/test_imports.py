"""Start-up import guard: modules a command does not use stay unloaded.

concurrent.futures brings in multiprocessing, logging, pickle, socket and
subprocess, and loads only when a scan starts a pool.  The result records
are named tuples, so dataclasses (and with it inspect) is never loaded,
and json loads only for JSON output.  Each case runs in a fresh
interpreter so that nothing imported by the test session can hide or
cause a load.  No timing is asserted.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
POOL_STACK = ("concurrent.futures", "multiprocessing", "logging")
RECORD_STACK = ("dataclasses", "inspect", "json")

# imports nothing, so that it reports the modules exactly as `code` left them
REPORT = "import sys; print(' '.join(m for m in {mods!r} if m in sys.modules))"


def loaded_after(code, mods):
    # run `code`, then report which of `mods` it left loaded (last stdout line)
    script = f"{code}\n{REPORT.format(mods=mods)}"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=ENV, timeout=120, check=True
    )
    return proc.stdout.splitlines()[-1].split()


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
    assert loaded_after(code, POOL_STACK) == []


@pytest.mark.parametrize(
    "code",
    [
        "import collatzkit.cli; collatzkit.cli.build_parser()",
        "import collatzkit.cli; collatzkit.cli.run(['classify', '7'])",
    ],
    ids=["build_parser", "classify"],
)
def test_text_commands_do_not_load_dataclasses_or_json(code):
    assert loaded_after(code, RECORD_STACK) == []


def test_json_output_loads_json():
    # the guard above would pass vacuously if the report could not see json
    code = "import collatzkit.cli; collatzkit.cli.run(['classify', '7', '--format', 'json'])"
    assert loaded_after(code, RECORD_STACK) == ["json"]


def test_a_pooled_scan_gives_the_single_process_output():
    # two chunks: with two or more CPUs this starts a real pool
    def drift(workers):
        argv = [sys.executable, "-m", "collatzkit", "drift", "--bound", "70001", "--workers", workers]
        return subprocess.run(argv, capture_output=True, env=ENV, timeout=120, check=True).stdout

    assert drift("2") == drift("1")


def test_the_pool_class_stays_a_module_attribute():
    # tests and the benchmark's tracer replace it there
    from collatzkit import analysis

    assert hasattr(analysis, "ProcessPoolExecutor")
