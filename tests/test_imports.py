"""Start-up import guard: modules a command does not use stay unloaded.

`import collatzkit` loads no submodule: the package and `cli` import a
library module when a name from it is first read or a command that uses it
runs.  No command loads concurrent.futures, which brings in
multiprocessing, logging, pickle, socket and subprocess: a scan with
--workers forks its helpers with os.fork, and only such a scan loads
pickle, to send results back, and the fork rules (collatzkit._fork); signal
loads only once a helper is forked.  verify runs its table kernels in analysis and loads no
trajectory, and fractions loads only where a Fraction is built.  The
result records are named tuples, so dataclasses (and with it inspect) is
never loaded, and json loads only for JSON output.  argparse (with gettext
and locale) loads only for help and for lines the table parser hands on:
abbreviations, --opt=value, repeats and usage errors.  Each case runs in a
fresh interpreter so that nothing imported by the test session can hide or
cause a load.  No timing is asserted.
"""

import builtins
import dis
import importlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from fractions import Fraction

import pytest

import collatzkit
from collatzkit import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
POOL_STACK = ("concurrent.futures", "multiprocessing", "logging")
RECORD_STACK = ("dataclasses", "inspect", "json")
SUBMODULES = ("core", "tables", "trajectory", "tree", "analysis")
LIBRARY = (*(f"collatzkit.{m}" for m in SUBMODULES), "fractions", "decimal", "collatzkit._fork")
FORK_STACK = ("collatzkit._fork", "signal", "pickle")

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
        # one chunk, so the worker clamp leaves a single process
        "import collatzkit.cli; collatzkit.cli.run(['verify', '--bound', '1001', '--workers', '2'])",
        # 32 chunks: a scan that forks helpers where two CPUs are usable
        "import collatzkit.cli; collatzkit.cli.run(['drift', '--bound', '2097151', '--workers', '2'])",
    ],
    ids=["build_parser", "classify", "verify-one-chunk", "drift-forked"],
)
def test_commands_do_not_load_the_pool_stack(code):
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


ARGPARSE_STACK = ("argparse", "gettext", "locale")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "7"],
        ["trajectory", "27"],
        ["tree", "--depth", "2", "--format", "json"],
        # one chunk, so no pool
        ["verify", "--bound", "1001", "--workers", "2"],
    ],
    ids=["classify", "trajectory", "tree-json", "verify-one-chunk"],
)
def test_canonical_command_lines_do_not_load_argparse(argv):
    code = f"import collatzkit.cli; collatzkit.cli.run({argv!r})"
    assert loaded_after(code, ARGPARSE_STACK) == []


def test_help_loads_argparse():
    # the guard above would pass vacuously if the report could not see argparse
    code = "import collatzkit.cli; collatzkit.cli.run(['--help'])"
    assert "argparse" in loaded_after(code, ARGPARSE_STACK)


def test_json_output_loads_json():
    # the guard above would pass vacuously if the report could not see json
    code = "import collatzkit.cli; collatzkit.cli.run(['classify', '7', '--format', 'json'])"
    assert loaded_after(code, RECORD_STACK) == ["json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "7"],
        ["verify", "--bound", "1001"],
        # 32 chunks, as many as the forked case below, with one worker
        ["drift", "--bound", "2097151", "--workers", "1"],
    ],
    ids=["classify", "verify", "drift-one-worker"],
)
def test_commands_that_cannot_fork_do_not_load_the_fork_rules(argv):
    code = f"import collatzkit.cli; collatzkit.cli.run({argv!r})"
    assert loaded_after(code, FORK_STACK) == []


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="a scan forks only with two usable CPUs"
)
def test_a_scan_that_may_fork_loads_the_fork_rules():
    # the guard above would pass vacuously if the report could not see them;
    # signal and pickle load only once a helper is forked, so on two CPUs or
    # more (the pinned test below covers one)
    code = "import collatzkit.cli; collatzkit.cli.run(['drift', '--bound', '2097151', '--workers', '2'])"
    assert loaded_after(code, FORK_STACK) == list(FORK_STACK)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the CPUs a process may run on cannot be set")
def test_a_scan_pinned_to_one_cpu_loads_the_fork_rules_but_nothing_to_fork_with():
    # the fork rules load to count the CPUs, and refuse on one: signal, for
    # the forks, and pickle, for the results, stay unloaded
    code = (
        "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "import collatzkit.cli; collatzkit.cli.run(['drift', '--bound', '2097151', '--workers', '2'])"
    )
    assert loaded_after(code, FORK_STACK) == ["collatzkit._fork"]


def test_a_forked_scan_gives_the_single_process_output():
    # 32 chunks: helpers forked where the process may run on two CPUs
    def drift(workers):
        argv = [sys.executable, "-m", "collatzkit", "drift", "--bound", "2097151", "--workers", workers]
        return subprocess.run(argv, capture_output=True, env=ENV, timeout=120, check=True).stdout

    assert drift("2") == drift("1")


def test_the_pool_class_stays_a_module_attribute():
    # the benchmark's tracer reads and replaces it there, though no scan uses it
    from collatzkit import analysis

    assert hasattr(analysis, "ProcessPoolExecutor")


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import collatzkit", ("collatzkit.cli", *LIBRARY)) == []


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["classify", "7"], ["collatzkit.core"]),
        (["locate", "27"], ["collatzkit.core", "collatzkit.tables"]),
        (["table-export", "--table", "B", "--rows", "3"], ["collatzkit.core", "collatzkit.tables"]),
        (["tree", "--depth", "3"], ["collatzkit.core", "collatzkit.tables", "collatzkit.tree"]),
        (["trajectory", "27"], ["collatzkit.core", "collatzkit.trajectory"]),
        # only the series build a Fraction; fractions loads decimal
        (["drift", "--terms", "5"], ["collatzkit.core", "collatzkit.analysis", "fractions", "decimal"]),
        (["drift", "--bound", "1001"], ["collatzkit.core", "collatzkit.analysis"]),
        (["alpha-table", "--rows", "3", "--cols", "2"], ["collatzkit.core", "collatzkit.analysis"]),
        # verify's table kernels live in analysis
        (["verify", "--bound", "1001"], ["collatzkit.core", "collatzkit.analysis"]),
    ],
    ids=["classify", "locate", "table-export", "tree", "trajectory", "drift", "drift-bound", "alpha-table", "verify"],
)
def test_a_command_loads_only_the_library_modules_it_uses(argv, loaded):
    assert loaded_after(f"import collatzkit.cli; collatzkit.cli.run({argv!r})", LIBRARY) == loaded


def test_every_public_name_is_its_home_modules_object():
    for name in collatzkit.__all__:
        home = importlib.import_module(f"collatzkit.{collatzkit._HOMES[name]}")
        value = getattr(collatzkit, name)
        assert value is getattr(home, name), name
        if callable(value):  # defined there, not imported from elsewhere
            assert value.__module__ == home.__name__, name


def test_the_series_limits_are_one_object_wherever_they_are_read():
    # made on first read in analysis, here first read through cli, which
    # binds no name its module has not made yet
    code = (
        "import collatzkit, collatzkit.cli as cli, collatzkit.analysis as analysis\n"
        "from fractions import Fraction\n"
        "for name, limit in [('INCREASE_SERIES_LIMIT', Fraction(3)), ('DECREASE_SERIES_LIMIT', Fraction(1, 4))]:\n"
        "    value = getattr(cli, name)\n"
        "    assert value is getattr(collatzkit, name) is getattr(analysis, name), name\n"
        "    assert value == limit and type(value) is Fraction, name\n"
    )
    loaded_after(code, ())
    assert cli.INCREASE_SERIES_LIMIT is collatzkit.INCREASE_SERIES_LIMIT == Fraction(3)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from collatzkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(collatzkit.__all__)


def test_analysis_serves_the_tracers_trajectory_direct():
    # the benchmark's tracer wraps analysis.trajectory_direct by name
    from collatzkit import analysis, trajectory

    assert analysis.trajectory_direct is trajectory.trajectory_direct


def test_unknown_names_raise_attribute_error():
    from collatzkit import analysis

    for module in (collatzkit, cli, analysis):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_cli_serves_exactly_the_public_names():
    for name in collatzkit.__all__:
        assert getattr(cli, name) is getattr(collatzkit, name), name
    # private library names and submodules are read from their modules
    for name in ("_range_columns", "_raw_step", "trajectory"):
        with pytest.raises(AttributeError, match=name):
            getattr(cli, name)


def global_reads(code):
    # the LOAD_GLOBAL names of code and of the code objects nested in it:
    # generator expressions, and on 3.11 comprehensions, compile to their own
    names = {ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= global_reads(const)
    return names


def test_every_global_a_cli_function_reads_exists():
    # cli's own globals, before any command binds a library name there; a
    # read of anything else is a NameError when the function runs
    code = "import json, collatzkit.cli as c; print(json.dumps(sorted(vars(c))))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=120, check=True
    )
    known = {*json.loads(proc.stdout), *dir(builtins), *collatzkit._HOMES}
    functions = [
        f for f in vars(cli).values() if isinstance(f, types.FunctionType) and f.__module__ == cli.__name__
    ]
    assert {cli._emit, cli._cmd_classify, cli._cmd_trajectory} <= set(functions)
    reads = set().union(*(global_reads(f.__code__) for f in functions))
    assert {"classify", "trajectory_direct", "verify_theorems"} <= reads
    assert reads - known == set()


def test_dir_lists_every_public_name_without_loading_it():
    code = "import collatzkit; assert set(collatzkit.__all__) <= set(dir(collatzkit))"
    assert loaded_after(code, LIBRARY) == []


def test_submodules_resolve_after_a_bare_import():
    code = "import collatzkit\n" + "".join(
        f"assert collatzkit.{m}.__name__ == 'collatzkit.{m}'\n" for m in SUBMODULES
    )
    assert loaded_after(code, LIBRARY[:5]) == list(LIBRARY[:5])


# a spy set on cli before any command runs, so before the name's module is
# loaded; a benchmark tracer wraps these names the same way
SPY = """
import io, json
from importlib import import_module
from collatzkit import cli
from collatzkit.core import DomainError

def spy(*args, **kwargs):
    raise DomainError("spied")

def run():
    out, err = io.StringIO(), io.StringIO()
    return [cli.run({argv!r}, out, err), out.getvalue(), err.getvalue()]

setattr(cli, {name!r}, spy)
results = [run(), run()]
setattr(cli, {name!r}, getattr(import_module("collatzkit.{home}"), {name!r}))
print(json.dumps([*results, run()]))
"""


@pytest.mark.parametrize(
    "name,home,argv",
    [
        ("classify", "core", ["classify", "7"]),
        ("locate", "tables", ["locate", "27"]),
        ("trajectory_direct", "trajectory", ["trajectory", "27", "--end", "29", "--stats"]),
        ("build_layers", "tree", ["tree", "--depth", "2"]),
        ("drift_report", "analysis", ["drift", "--terms", "5"]),
    ],
    ids=["classify", "locate", "trajectory_direct", "build_layers", "drift_report"],
)
def test_a_name_set_on_cli_before_any_command_is_the_one_it_calls(name, home, argv):
    script = SPY.format(name=name, home=home, argv=argv)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=ENV, timeout=120, check=True
    )
    spied, again, restored = json.loads(proc.stdout)
    out, err = io.StringIO(), io.StringIO()
    normal = [cli.run(argv, out, err), out.getvalue(), err.getvalue()]
    assert spied == again == [1, "", "error: spied\n"]
    assert restored == normal and normal[0] == 0
