import contextlib
import hashlib
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzkit import analysis, cli, record_json, trajectory, trajectory_direct, trajectory_lookup
from collatzkit.cli import run

from reference_windows import TABLE_B_WINDOW, TRAJECTORY_27

SPEC_OPERATIONS = {
    "core.syracuse_step",
    "core.alpha_of",
    "core.classify",
    "core.is_terminal",
    "core.terminal",
    "core.pre_terminal",
    "core.reverse_to_starter",
    "tables.table_entry",
    "tables.row_iterate",
    "tables.locate",
    "tables.predecessor_row",
    "trajectory.trajectory_direct",
    "trajectory.trajectory_lookup",
    "trajectory.trajectory_stats",
    "tree.build_layers",
    "tree.export_tree",
    "analysis.alpha_chain_length",
    "analysis.alpha_table_entry",
    "analysis.alpha_chain",
    "analysis.drift_series_increase",
    "analysis.drift_series_decrease",
    "analysis.empirical_alpha_density",
    "analysis.empirical_drift",
    "analysis.empirical_iterate_class_ratio",
    "analysis.verify_theorems",
}


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def test_every_operation_is_reachable_from_some_command(monkeypatch):
    # the README examples, then the golden matrix, run in-process until each
    # operation's code has been called; the matrix's leading NAME=value
    # words set environment variables, as in test_golden
    from test_golden import MATRIX, readme_examples

    uncalled = {}
    for op in SPEC_OPERATIONS:
        module, name = op.split(".")
        uncalled[getattr(importlib.import_module(f"collatzkit.{module}"), name).__code__] = op

    def profile(frame, event, arg):
        if event == "call":
            uncalled.pop(frame.f_code, None)

    for line in [*readme_examples(), *MATRIX]:
        if not uncalled:
            break
        argv = line.split()
        with monkeypatch.context() as env, contextlib.redirect_stderr(io.StringIO()):
            env.delenv("COLLATZ_MAX_STEPS", raising=False)
            while "=" in argv[0]:
                env.setenv(*argv.pop(0).split("=", 1))
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                run(argv, io.StringIO(), io.StringIO())
            finally:
                sys.setprofile(previous)
    assert not uncalled, f"no command calls {sorted(uncalled.values())}"


def test_classify_text_and_json():
    code, out, _ = invoke("classify", "9")
    assert code == 0
    assert out == "value=9 kind=starter terminal=no end=no iterate=7 alpha=2\n"
    code, out, _ = invoke("classify", "21", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "starter"
    assert payload["is_terminal"] is True


def test_classify_rejects_even_with_exit_1():
    code, out, err = invoke("classify", "4")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_trajectory_27_text():
    code, out, _ = invoke("trajectory", "27")
    assert code == 0
    assert [int(v) for v in out.split()] == [27, *TRAJECTORY_27]


def test_trajectory_lookup_output_matches_direct():
    _, direct, _ = invoke("trajectory", "27")
    _, lookup, _ = invoke("trajectory", "27", "--method", "lookup")
    assert direct == lookup


def test_trajectory_json_record():
    code, out, _ = invoke("trajectory", "9", "--format", "json")
    payload = json.loads(out)
    assert payload["start"] == 9
    assert payload["iterates"] == [7, 11, 17, 13, 5, 1]
    assert set(payload) == {"start", "iterates", "alphas", "odd_length", "total_divisions", "peak"}


def test_trajectory_range_jsonl_and_stats():
    code, out, _ = invoke("trajectory", "3", "--end", "15", "--format", "json")
    lines = out.strip().split("\n")
    assert [json.loads(line)["start"] for line in lines] == [3, 5, 7, 9, 11, 13, 15]
    code, out, _ = invoke("trajectory", "3", "--end", "15", "--stats", "--format", "csv")
    assert code == 0
    assert out.startswith("metric,min,max,mean\n")
    code, _, _ = invoke("trajectory", "3", "--end", "1")
    assert code == 1
    code, _, _ = invoke("trajectory", "3", "--format", "csv")
    assert code == 1


def test_big_trajectory_text_and_json_bytes():
    # reference built with str and json.dumps; the walk crosses the cut-over
    start = 2**1100 - 1
    iterates, alphas, x = [], [], start
    while x != 1:
        t = 3 * x + 1
        alpha = (t & -t).bit_length() - 1
        x = t >> alpha
        iterates.append(x)
        alphas.append(alpha)
    code, out, _ = invoke("trajectory", str(start))
    assert code == 0
    assert out == " ".join(map(str, [start, *iterates])) + "\n"
    code, out, _ = invoke("trajectory", str(start), "--format", "json")
    assert code == 0
    payload = {
        "start": start,
        "iterates": iterates,
        "alphas": alphas,
        "odd_length": len(iterates),
        "total_divisions": sum(alphas),
        "peak": max(iterates),
    }
    assert out == json.dumps(payload, separators=(",", ":")) + "\n"


def test_stats_beyond_float_range_exits_0():
    # the mean of peaks past 2**1024 is reported as the nearest integer
    start = 2**1100 - 1
    peak = trajectory_direct(start).peak
    code, out, err = invoke("trajectory", str(start), "--stats")
    assert (code, err) == (0, "")
    assert out.splitlines()[3] == f"peak min={peak} max={peak} mean={peak}"
    code, out, err = invoke("trajectory", str(start), "--stats", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[3] == f"peak,{peak},{peak},{peak}"
    code, out, err = invoke("trajectory", str(start), "--stats", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["peak"] == {"minimum": peak, "maximum": peak, "mean": peak}


@contextlib.contextmanager
def digit_limit(digits):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def invoke_under_default_limit(*argv):
    # run lifts CPython's 4300-digit int/str limit and restores it on return
    with digit_limit(4300):
        result = invoke(*argv)
        assert sys.get_int_max_str_digits() == 4300
    return result


def _walk(start):
    iterates, alphas, x = [], [], start
    while x != 1:
        t = 3 * x + 1
        alpha = (t & -t).bit_length() - 1
        x = t >> alpha
        iterates.append(x)
        alphas.append(alpha)
    return iterates, alphas


def test_classify_past_the_digit_limit():
    value = 10**4399 + 1  # 4400 digits
    t = 3 * value + 1
    alpha = (t & -t).bit_length() - 1
    with digit_limit(0):
        arg = str(value)
        expected = (
            f"value={value} kind=intermediary-6m+5 terminal=no end=no "
            f"iterate={t >> alpha} alpha={alpha}\n"
        )
    assert invoke_under_default_limit("classify", arg) == (0, expected, "")


def test_stats_of_a_walk_past_the_digit_limit():
    start = 2**13000 - 1  # its peak has about 6200 digits
    iterates, alphas = _walk(start)
    peak, steps, divisions = max(iterates), len(iterates), sum(alphas)
    with digit_limit(0):
        arg = str(start)
        expected = (
            f"count=1\nodd_length min={steps} max={steps} mean={float(steps)!r}\n"
            f"total_divisions min={divisions} max={divisions} mean={float(divisions)!r}\n"
            f"peak min={peak} max={peak} mean={peak}\n"
        )
    assert invoke_under_default_limit("trajectory", arg, "--stats") == (0, expected, "")


def test_json_record_past_the_digit_limit():
    # y = (4**7501 - 1) / 3 steps straight to 1 and x = (4y - 1) / 3 steps to
    # y, so the walk x -> y -> 1 peaks at a 4516-digit y in two steps
    y = (4**7501 - 1) // 3
    start = (4 * y - 1) // 3
    iterates, alphas = _walk(start)
    assert iterates == [y, 1]
    payload = {
        "start": start,
        "iterates": iterates,
        "alphas": alphas,
        "odd_length": len(iterates),
        "total_divisions": sum(alphas),
        "peak": max(iterates),
    }
    with digit_limit(0):
        arg = str(start)
        expected = json.dumps(payload, separators=(",", ":")) + "\n"
    assert invoke_under_default_limit("trajectory", arg, "--format", "json") == (0, expected, "")


# a walk range writes line by line; each of the others writes 0.5-2.7 MB as
# one text, and one write that large to a pipe whose reader has gone can
# return quietly, so it goes out in blocks
@pytest.mark.parametrize(
    "argv",
    [
        ["trajectory", "1", "--end", "2000001"],
        ["alpha-table", "--rows", "200", "--cols", "200", "--format", "csv"],
        ["predecessors", "7", "--count", "3000"],
        ["table-export", "--table", "A", "--rows", "3000", "--cols", "40"],
        ["tree", "--depth", "9", "--breadth", "4"],
        # streamed: the count pass writes nothing, then the line goes out in blocks
        pytest.param(
            ["trajectory", str(2**5000 - 1), "--method", "lookup", "--format", "json"], id="trajectory-stream"
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_closed_pipe_exits_1_without_traceback(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "collatzkit", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert len(proc.stdout.read(100)) == 100  # as `| head -c 100` would
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_trajectory_env_budget(monkeypatch):
    monkeypatch.setenv("COLLATZ_MAX_STEPS", "2")
    code, out, err = invoke("trajectory", "27")
    assert code == 3
    assert "budget" in err
    monkeypatch.setenv("COLLATZ_MAX_STEPS", "not-a-number")
    code, _, err = invoke("trajectory", "27")
    assert code == 1


def test_predecessors_output():
    code, out, _ = invoke("predecessors", "41", "--count", "3")
    assert code == 0
    assert out == "27 109 437\n"
    code, out, _ = invoke("predecessors", "85", "--to-starter")
    assert out == "113 75\n"
    code, out, _ = invoke("predecessors", "7", "--count", "2", "--format", "json")
    assert json.loads(out) == {"iterate": 7, "entries": [9, 37]}
    code, _, _ = invoke("predecessors", "9")
    assert code == 1


def test_locate_output():
    code, out, _ = invoke("locate", "27")
    assert code == 0
    assert out == "value=27 table=B column=1 row=6 alpha=1 iterate=41\n"
    _, out, _ = invoke("locate", "5", "--format", "json")
    assert json.loads(out) == {
        "value": 5,
        "table": "A",
        "column": 2,
        "row": 0,
        "alpha": 4,
        "iterate": 1,
    }


def test_tree_formats():
    code, out, _ = invoke("tree", "--depth", "2", "--breadth", "4", "--format", "dot")
    assert code == 0
    assert "5 -> 1;" in out
    _, out, _ = invoke("tree", "--depth", "1", "--breadth", "3", "--format", "text")
    assert out == "1\n  5\n  21\n  85\n"
    _, out, _ = invoke("tree", "--depth", "2", "--breadth", "2", "--format", "json")
    payload = json.loads(out)
    assert payload[2]["segments"][0]["parent"] == 5


def test_alpha_table_window_and_chain():
    code, out, _ = invoke("alpha-table", "--rows", "2", "--cols", "3", "--format", "csv")
    assert out == "n,h=1,h=2,h=3\n1,3,7,15\n2,11,23,47\n"
    code, out, _ = invoke("alpha-table", "--chain", "63")
    assert out == "start=63 length=5 chain=95 143 215 323 485 exit=91\n"
    code, out, _ = invoke("alpha-table", "--chain", "63", "--format", "json")
    assert json.loads(out)["exit_iterate"] == 91


@pytest.mark.parametrize("rows,cols", [(1, 1), (7, 1), (1, 9), (36, 10)])
def test_alpha_table_window_json_is_json_dumps(rows, cols):
    from collatzkit import alpha_table_entry

    values = [[n, *(alpha_table_entry(h, n) for h in range(1, cols + 1))] for n in range(1, rows + 1)]
    expected = json.dumps({"rows": rows, "cols": cols, "values": values}) + "\n"
    assert invoke("alpha-table", "--rows", str(rows), "--cols", str(cols), "--format", "json") == (0, expected, "")


@pytest.mark.parametrize(
    "argv,line",
    [
        (("--rows", "0"), "error: rows must be >= 1, got 0\n"),
        (("--rows", "-3", "--format", "json"), "error: rows must be >= 1, got -3\n"),
        (("--cols", "-1"), "error: cols must be >= 1, got -1\n"),
        (("--cols", "0", "--format", "csv"), "error: cols must be >= 1, got 0\n"),
    ],
)
def test_alpha_table_rejects_an_empty_window(argv, line):
    assert invoke("alpha-table", *argv) == (1, "", line)


def test_alpha_table_rejects_csv_with_chain():
    # a run is one record with a list field; csv is only the window's format
    assert invoke("alpha-table", "--chain", "7", "--format", "csv") == (
        1,
        "",
        "error: csv output is only available without --chain\n",
    )


def test_drift_rejects_zero_workers_without_a_scan():
    # as drift --bound and verify do, although no scan would use the workers
    error = "error: workers must be >= 1, got 0\n"
    assert invoke("drift", "--terms", "5", "--workers", "0") == (1, "", error)


def test_drift_series_and_scan():
    code, out, _ = invoke("drift", "--terms", "60")
    assert code == 0
    assert "limit=3" in out and "limit=0.25" in out
    code, out, _ = invoke("drift", "--bound", "1001", "--format", "json")
    payload = json.loads(out)
    assert payload["scan_bound"] == 1001
    assert 0.65 <= payload["empirical_value"] <= 0.85
    assert payload["series_increase"] is None
    code, out, _ = invoke("drift")
    assert "terms=60" in out


def test_verify_command():
    code, out, _ = invoke("verify", "--bound", "2048", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["multiple_of_three_violations"] == []
    assert payload["duplicate_violations"] == []
    assert payload["alpha_density"][0]["alpha"] == 1
    code, out, _ = invoke("verify", "--bound", "2048", "--max-alpha", "3", "--format", "csv")
    assert out.startswith("alpha,count,ratio,expected\n")
    assert len(out.strip().split("\n")) == 4


def test_verify_with_workers():
    baseline = invoke("verify", "--bound", "9999")
    parallel = invoke("verify", "--bound", "9999", "--workers", "2")
    assert baseline == parallel


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--bound", "2"], "error: bound must be >= 3, got 2\n"),
        (["--bound", "99", "--workers", "0"], "error: workers must be >= 1, got 0\n"),
        (["--bound", "5", "--max-alpha", "9"], "error: bound must be >= 2**(max_alpha+1) - 1 = 1023, got 5\n"),
    ],
)
def test_verify_reports_its_single_error(argv, line):
    assert invoke("verify", *argv) == (1, "", line)


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["--bound", "4194305", "--max-alpha", "30"],
            "error: bound must be >= 2**(max_alpha+1) - 1 = 2147483647, got 4194305\n",
        ),
        (["--bound", "99", "--max-alpha", "0", "--workers", "2"], "error: max_alpha must be >= 1, got 0\n"),
        # doubly wrong: the --max-alpha error comes first
        (
            ["--bound", "5", "--max-alpha", "9", "--workers", "0"],
            "error: bound must be >= 2**(max_alpha+1) - 1 = 1023, got 5\n",
        ),
    ],
)
def test_verify_refuses_max_alpha_before_the_scan(monkeypatch, argv, line):
    # the density check is closed form, so no range is walked and no pool started
    def scan(*args, **kwargs):
        raise AssertionError("verify scanned before its density check")

    monkeypatch.setattr(cli, "verify_theorems", scan)
    assert invoke("verify", *argv) == (1, "", line)


def test_verify_at_the_least_bound():
    # odd starts 1 and 3: walks 1 and 3 -> 5 -> 1, alphas 2 and 1
    code, out, err = invoke("verify", "--bound", "3")
    assert (code, err) == (0, "")
    starts = [1, 3]
    iterates = sum(trajectory_direct(x).odd_length for x in starts)
    alpha_1 = sum(1 for x in starts if (3 * x + 1) % 4 == 2)
    to_6m1 = sum(1 for x in starts if trajectory_direct(x).iterates[0] % 6 == 1)
    assert out == (
        f"theorem scan: bound=3 trajectories=2 iterates={iterates} "
        "multiple-of-3-violations=0 duplicate-violations=0\n"
        "alpha density: bound=3 odds=2\n"
        f"  alpha=1 count={alpha_1} ratio={alpha_1 / 2!r} expected=0.5\n"
        f"iterate classes: 6m+1={to_6m1 / 2!r} 6m+5={(2 - to_6m1) / 2!r}\n"
    )


def test_budget_exhaustion_at_a_huge_bound_exits_3_in_bounded_memory():
    # the scan makes its chunk spans one at a time, so a 10**12 bound stops
    # at the first over-budget start, 9, under a 1 GiB address-space cap
    script = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from collatzkit.cli import main\n"
        "sys.argv = ['collatzkit', 'verify', '--bound', str(10**12)]\n"
        "main()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "COLLATZ_MAX_STEPS": "5"},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: budget of 5 steps exhausted starting from 9\n"


def test_running_out_of_memory_exits_1_without_a_traceback():
    # 200000 predecessors of 7 grow by 2 bits each, about 5 GB of ints in
    # all: under a 1 GiB address-space cap the command runs out of memory
    # before any output
    script = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from collatzkit.cli import main\n"
        "sys.argv = ['collatzkit', 'predecessors', '7', '--count', '200000']\n"
        "main()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


# runs argv and prints its exit code, the sha256 of its stdout and its peak
# RSS in KiB.  A child's ru_maxrss starts from the peak of the process it was
# forked from, which for pytest itself can be hundreds of MiB, so the walk is
# measured as the child of this small process
RSS_DRIVER = """
import hashlib, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
sha = hashlib.sha256()
while chunk := proc.stdout.read(1 << 20):
    sha.update(chunk)
proc.stdout.close()
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, sha.hexdigest(), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize(
    "options,digest",
    [
        ([], "5148dd1c759301b4383981ac15e8c7e73bf000a34d0d14aa7200138cdb4736ec"),
        (["--format", "json"], "648669bece2b2885f00fba2ea787561da539a3a5581e8f7e5d808f06375c217c"),
        (["--method", "lookup"], "5148dd1c759301b4383981ac15e8c7e73bf000a34d0d14aa7200138cdb4736ec"),
    ],
    ids=["text", "json", "lookup"],
)
def test_a_big_walk_is_written_in_bounded_memory(options, digest):
    # the 33 MB line of 2**5000 - 1 goes out in blocks of iterates, each
    # rendered as the walk makes it: neither the whole line (125 MiB peak
    # RSS as one string) nor the record's ints (about 16 MB, 32 MiB peak)
    # are held, so the peak is about 18 MiB.  Run under a 1 GiB
    # address-space cap
    script = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from collatzkit.cli import main\n"
        f"sys.argv = ['collatzkit', 'trajectory', str(2**5000 - 1), *{options!r}]\n"
        "main()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", RSS_DRIVER, sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, sha, max_rss_kib = proc.stdout.split()
    assert (proc.returncode, proc.stderr, code, sha) == (0, "", "0", digest)
    assert int(max_rss_kib) < 24 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize(
    "options,digest",
    [
        ([], "7e520fd0547dc8afced76c307553b799aefdf64e010f2d73debd1d761f265171"),
        (["--format", "json"], "15f5c5319eb74f789a0f18f4d984deb400724f3b253aea7c9b7837809c977da2"),
        (["--method", "lookup"], "7e520fd0547dc8afced76c307553b799aefdf64e010f2d73debd1d761f265171"),
    ],
    ids=["text", "json", "lookup"],
)
def test_a_range_of_big_starts_is_written_in_bounded_memory(options, digest):
    # three lines of 5000-bit starts, each streamed as a single walk is:
    # no record of any of them is held (36 MiB peak when the records were
    # built), so the peak is that of one walk.  Run under a 1 GiB
    # address-space cap
    script = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from collatzkit.cli import main\n"
        f"sys.argv = ['collatzkit', 'trajectory', str(2**5000 - 1), '--end', str(2**5000 + 3), *{options!r}]\n"
        "main()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", RSS_DRIVER, sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, sha, max_rss_kib = proc.stdout.split()
    assert (proc.returncode, proc.stderr, code, sha) == (0, "", "0", digest)
    assert int(max_rss_kib) < 24 * 1024


def peak_rss_kib(*argv):
    # the exit code, the stdout sha256 and the peak RSS of main() on argv,
    # run as the child of RSS_DRIVER under a 1 GiB address-space cap
    script = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from collatzkit.cli import main\n"
        f"sys.argv = ['collatzkit', *{list(argv)!r}]\n"
        "main()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", RSS_DRIVER, sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    code, sha, max_rss_kib = proc.stdout.split()
    return int(code), sha, int(max_rss_kib)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_a_lookup_stats_range_of_big_starts_holds_no_record():
    # lookup --stats builds no record of any start, and its joins below the
    # first start hold at most _JOIN_ROOM bits of entries (4 MiB) as counted:
    # the peak stays near that of classify 7 plus the room.  Holding each
    # start's record, this command peaked at 71.5 MiB
    from collatzkit.trajectory import _JOIN_ROOM

    *_, floor = peak_rss_kib("classify", "7")
    big = 2**10000
    code, sha, rss = peak_rss_kib("trajectory", str(big - 1), "--end", str(big + 1), "--stats", "--method", "lookup")
    assert (code, sha) == (0, "a890ccab1ff015b75f382fcf9c30a2a286f0c804a1165baf34e37ec2751460a3")
    assert rss < floor + _JOIN_ROOM // 8 // 1024 + 4 * 1024


# the length of 2**5000 - 1's walk is 24131: one step less is over budget
BIG_WALK_DIGESTS = {
    "text": "5148dd1c759301b4383981ac15e8c7e73bf000a34d0d14aa7200138cdb4736ec",
    "json": "648669bece2b2885f00fba2ea787561da539a3a5581e8f7e5d808f06375c217c",
}


@pytest.mark.parametrize("method", ["direct", "lookup"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_big_walk_over_budget_writes_no_byte(monkeypatch, fmt, method):
    start = str(2**5000 - 1)
    argv = ["trajectory", start, "--format", fmt, "--method", method]
    monkeypatch.setenv("COLLATZ_MAX_STEPS", "24130")
    assert invoke(*argv) == (3, "", f"error: budget of 24130 steps exhausted starting from {start}\n")
    monkeypatch.setenv("COLLATZ_MAX_STEPS", "24131")
    code, out, err = invoke(*argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, BIG_WALK_DIGESTS[fmt], "")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_huge_alpha_table_window_is_written_row_by_row(fmt):
    # 9 million entries of up to 3001 bits: built whole they outgrow a 1 GiB
    # address-space cap; row by row, a reader that closes early gets exit 1
    script = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from collatzkit.cli import main\n"
        f"sys.argv = ['collatzkit', 'alpha-table', '--rows', '3000', '--cols', '3000', '--format', {fmt!r}]\n"
        "main()\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_a_joined_range_is_written_in_bounded_memory():
    # 32768 lines, 10.7 MB of JSON: the line memo fills its 2**20-character
    # budget many times over, and later lines still join the kept ones
    script = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from collatzkit.cli import main\n"
        "sys.argv = ['collatzkit', 'trajectory', '1', '--end', '65535', '--format', 'json']\n"
        "main()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", RSS_DRIVER, sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, sha, max_rss_kib = proc.stdout.split()
    digest = "1747ccef7409d4bb5324eb107524919d7d93bff913c70b7002f6384548d3fdbf"
    assert (proc.returncode, proc.stderr, code, sha) == (0, "", "0", digest)
    assert int(max_rss_kib) < 32 * 1024


# the odd starts below 2**18 fill verify's table in the calling process, and
# this bound puts the fewest chunks past it that verify pools
POOLED_VERIFY_BOUND = 2**18 - 1 + 2 * analysis._CHUNK_ODDS * analysis._VERIFY_POOL_CHUNKS


def test_budget_exhaustion_in_a_pool_worker_exits_3():
    # the chunks past the table go to the pool; every start below 2**18
    # takes at most 164 odd steps, so the first over budget (410011, in the
    # third chunk) is met in a worker
    def verify(workers):
        return subprocess.run(
            [sys.executable, "-m", "collatzkit", "verify", "--bound", str(POOLED_VERIFY_BOUND), "--workers", workers],
            capture_output=True,
            env={**os.environ, "COLLATZ_MAX_STEPS": "164"},
            timeout=120,
        )

    pooled, single = verify("2"), verify("1")
    assert (pooled.returncode, pooled.stdout, pooled.stderr) == (3, b"", single.stderr)
    assert single.returncode == 3
    assert single.stderr == b"error: budget of 164 steps exhausted starting from 410011\n"


class BrokenPool:
    # stands in for ProcessPoolExecutor: a worker died before returning
    def __init__(self, max_workers, initializer, initargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        future = Future()
        future.set_exception(BrokenProcessPool("A process in the process pool was terminated abruptly"))
        return future


# verify pools only the theorem-scan chunks past its table; drift pools
# only a scan of 32 chunks or more
@pytest.mark.parametrize("argv", [["verify", "--bound", str(POOLED_VERIFY_BOUND)], ["drift", "--bound", "2097151"]])
def test_a_dead_pool_worker_exits_1_with_one_line(monkeypatch, argv):
    from collatzkit import analysis

    monkeypatch.setattr(analysis, "ProcessPoolExecutor", BrokenPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out, err = io.StringIO(), io.StringIO()
    assert run([*argv, "--workers", "2"], out, err) == 1
    assert err.getvalue() == (
        "error: a worker process died: A process in the process pool was terminated abruptly\n"
    )


# the command's child: a SIGINT before its ready line would land in
# interpreter start-up, before any collatzkit handler exists
INTERRUPTIBLE = """
import sys
from collatzkit import cli
print("ready", flush=True)
sys.argv = ["collatzkit", "verify", "--bound", "4000001", "--workers", "2"]
cli.main()
"""


# from the ready line: before, during and after the pool's start-up, which
# follows the theorem scan's in-process table chunks
@pytest.mark.parametrize("delay", [0.05, 0.1, 0.15, 0.25, 0.4, 0.6])
def test_ctrl_c_during_a_pooled_scan_exits_1_with_one_line(delay):
    # a terminal's Ctrl-C sends SIGINT to the whole process group, workers
    # included; only the parent may report it
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTIBLE],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        assert proc.stdout.readline() == b"ready\n"
        time.sleep(delay)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):  # the workers too, should the scan hang
            os.killpg(proc.pid, signal.SIGKILL)
    assert b"Traceback" not in err
    assert (proc.returncode, err) == (1, b"error: interrupted\n")


def test_a_direct_stats_range_walks_only_its_first_start_through_the_cli(monkeypatch):
    # benchmark tracers count direct-walk steps through cli.trajectory_direct
    # and divide by them, so a --stats range must still reach it
    calls = []

    def counting(x, max_steps):
        calls.append(x)
        return trajectory_direct(x, max_steps)

    monkeypatch.setattr(cli, "trajectory_direct", counting)
    code, out, err = invoke("trajectory", "281", "--end", "50281", "--stats")
    assert (code, err, calls) == (0, "", [281])
    assert out.startswith("count=25001\n")


def test_a_lookup_stats_range_walks_every_start_by_lookup(monkeypatch):
    # the lookup kernel walks every start by lookup steps alone: it reaches
    # neither the block rule nor the direct kernels, and builds no record.
    # The later starts of the big range join earlier walks below its first
    from collatzkit import trajectory

    ranges = [(str(first), "--end", str(last), "--stats") for first, last in [(3, 99), (2**99 + 1, 2**99 + 399)]]
    wants = [invoke("trajectory", *argv) for argv in ranges]
    calls = []

    def fail(*args):
        calls.append(args)
        raise AssertionError("the lookup --stats route left its lookup kernel")

    for name in ("_jump_table", "_range_columns", "_count_walks"):
        monkeypatch.setattr(trajectory, name, fail)
    monkeypatch.setattr(cli, "trajectory_direct", fail)
    monkeypatch.setattr(cli, "trajectory_lookup", fail)
    for argv, want in zip(ranges, wants):
        assert want[0] == 0
        assert invoke("trajectory", *argv, "--method", "lookup") == want
    assert calls == []


@pytest.mark.parametrize("method", ["direct", "lookup"])
@pytest.mark.parametrize(
    "argv,error",
    [
        (["8", "--end", "8"], "error: no trajectory records to summarise\n"),
        (["-3", "--end", "5"], "error: x must be >= 1, got -3\n"),
        (["8"], "error: x must be odd, got 8\n"),
    ],
)
def test_a_stats_range_with_no_valid_start_exits_1(method, argv, error):
    assert invoke("trajectory", *argv, "--stats", "--method", method) == (1, "", error)


def test_a_direct_range_walks_only_its_first_start_through_cli(monkeypatch):
    # every start, the first too, is walked inside trajectory._write_range,
    # and later lines join earlier ones there
    calls = []

    def counting(x, max_steps):
        calls.append(x)
        return trajectory_direct(x, max_steps)

    monkeypatch.setattr(cli, "trajectory_direct", counting)
    monkeypatch.setattr(cli, "trajectory_lookup", None)
    code, out, err = invoke("trajectory", "3", "--end", "99", "--format", "json")
    assert (code, err, calls) == (0, "", [])
    assert out == "".join(record_json(trajectory_direct(x)) + "\n" for x in range(3, 100, 2))


def test_a_lookup_range_walks_every_start_by_lookup(monkeypatch):
    from collatzkit import trajectory

    calls = []

    def counting(x, max_steps):
        calls.append(x)
        return trajectory_lookup(x, max_steps)

    monkeypatch.setattr(cli, "trajectory_lookup", counting)
    monkeypatch.setattr(cli, "trajectory_direct", None)
    monkeypatch.setattr(trajectory, "_write_range", None)
    code, out, err = invoke("trajectory", "3", "--end", "99", "--method", "lookup")
    assert (code, err, calls) == (0, "", list(range(3, 100, 2)))
    assert out == "".join(f"{x} {' '.join(map(str, trajectory_direct(x).iterates))}\n" for x in range(3, 100, 2))


# main() ends the process, so each test of it runs the command as a child
# with PYTHONUNBUFFERED set as given (None: unset), returning its
# (exit code, stdout, stderr)
def run_main(script, unbuffered=None, **kwargs):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.run([sys.executable, *script], capture_output=True, env=env, timeout=120, **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


def interrupted(partial):
    # a child whose classify command writes partial, then meets a Ctrl-C
    # (the handler reads classify from cli, where this replacement stays)
    return (
        "import sys\n"
        "from collatzkit import cli\n"
        "def interrupted(value):\n"
        f"    sys.stdout.write({partial!r})\n"
        "    raise KeyboardInterrupt\n"
        "cli.classify = interrupted\n"
        "sys.argv = ['collatzkit', 'classify', '7']\n"
        "cli.main()\n"
    )


def test_interrupt_exits_1_with_one_line():
    assert run_main(["-c", interrupted("")]) == (1, b"", b"error: interrupted\n")


def test_interrupt_with_output_for_a_closed_pipe_exits_1_with_one_line():
    # the handler's output is still buffered when the interrupt ends it, and
    # its flush at exit meets a pipe whose reader has gone
    proc = subprocess.Popen(
        [sys.executable, "-c", interrupted("partial")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"error: interrupted\n")


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_a_streamed_walk_reaches_a_pipe_whole(unbuffered):
    from test_golden import MATRIX

    command = f"trajectory {2**1100 - 1}"  # 20 writes of 256 iterates
    code, out, err = run_main(["-m", "collatzkit", *command.split()], unbuffered)
    assert (hashlib.sha256(out).hexdigest(), code, err) == (*MATRIX[command], b"")


@pytest.mark.parametrize(
    "argv, env, code, last_line",
    [
        (
            ["verify", "--bound", "5", "--max-alpha", "9"],
            {},
            1,
            "error: bound must be >= 2**(max_alpha+1) - 1 = 1023, got 5",
        ),
        (["classify"], {}, 2, "collatzkit classify: error: the following arguments are required: value"),
        (["trajectory", "27"], {"COLLATZ_MAX_STEPS": "2"}, 3, "error: budget of 2 steps exhausted starting from 27"),
    ],
    ids=["exit-1", "exit-2", "exit-3"],
)
def test_an_error_exit_keeps_its_code_and_stderr_line(argv, env, code, last_line):
    argv = [sys.executable, "-m", "collatzkit", *argv]
    proc = subprocess.run(argv, capture_output=True, text=True, env={**os.environ, **env}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr.splitlines()[-1]) == (code, "", last_line)
    assert proc.stderr.endswith("\n")


def test_an_atexit_callback_runs_after_the_command_output():
    script = (
        "import atexit, sys\n"
        "from collatzkit import cli\n"
        "atexit.register(print, 'atexit ran')\n"
        "sys.argv = ['collatzkit', 'classify', '7']\n"
        "cli.main()\n"
    )
    classified = b"value=7 kind=intermediary-6m+1 terminal=no end=no iterate=11 alpha=1\n"
    assert run_main(["-c", script]) == (0, classified + b"atexit ran\n", b"")


def test_a_live_thread_still_ends_its_work():
    # the interpreter's exit waits for a non-daemon thread; so does main's
    script = (
        "import sys, threading, time\n"
        "from collatzkit import cli\n"
        "threading.Thread(target=lambda: (time.sleep(0.5), print('thread done'))).start()\n"
        "sys.argv = ['collatzkit', 'classify', '7']\n"
        "cli.main()\n"
    )
    code, out, err = run_main(["-c", script])
    classified = b"value=7 kind=intermediary-6m+1 terminal=no end=no iterate=11 alpha=1"
    assert (code, sorted(out.splitlines()), err) == (0, sorted([classified, b"thread done"]), b"")


def test_a_profiled_command_still_prints_its_stats():
    # cProfile sets a profile function up to 3.11 and a sys.monitoring tool
    # from 3.12 on; either way main exits by sys.exit and cProfile prints
    code, out, err = run_main(["-m", "cProfile", "-m", "collatzkit", "classify", "7"], text=True)
    first, _, stats = out.partition("\n")
    assert (code, err, first) == (0, "", "value=7 kind=intermediary-6m+1 terminal=no end=no iterate=11 alpha=1")
    assert "function calls" in stats


def test_no_process_outlives_a_pooled_verify():
    # the command runs in a session of its own: once it has exited, no
    # process of that group (a pool worker) may be left
    proc = subprocess.Popen(
        [sys.executable, "-m", "collatzkit", "verify", "--bound", str(POOLED_VERIFY_BOUND), "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        assert out.startswith(f"theorem scan: bound={POOLED_VERIFY_BOUND} trajectories={(POOLED_VERIFY_BOUND + 1) // 2} ".encode())
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


BIG = str(2**5000 - 1)


def in_session(args, env=None):
    # python with args, in a session of its own: its process group id is its pid
    return subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, **(env or {})},
        start_new_session=True,
    )


@contextlib.contextmanager
def no_process_left(proc):
    # once the command has exited, no process of its group (a render helper)
    # may be left; should the test fail first, none is left running either
    try:
        yield
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)


@pytest.mark.parametrize("options", [[], ["--method", "lookup", "--format", "json"]], ids=["text", "lookup-json"])
def test_a_forked_walk_into_a_closed_pipe_exits_1_and_leaves_no_process(options):
    # as `trajectory 2**5000-1 | head -c 100`: either process may meet the closed pipe
    proc = in_session(["-m", "collatzkit", "trajectory", BIG, *options])
    with no_process_left(proc):
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")


def test_ctrl_c_in_mid_line_exits_1_with_one_line_and_leaves_no_process():
    # the line's first bytes come after the fork; the unread pipe then holds
    # both processes mid-line until the group's SIGINT, which only the parent
    # may report
    proc = in_session(["-m", "collatzkit", "trajectory", BIG])
    with no_process_left(proc):
        assert proc.stdout.read(100) == BIG[:100].encode()
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"error: interrupted\n")


# the helper walks each of its blocks (1, 3, ...) by a call of its own, and
# the second call raises: blocks 0 and 2 are the parent's
DYING_HELPER = """
import os, sys
from collatzkit import cli, trajectory
parent, walk, calls = os.getpid(), trajectory._direct_blocks, []
def blocks(x):
    if os.getpid() != parent:
        calls.append(x)
        if len(calls) == 2:
            raise RuntimeError("only in the helper")
    return walk(x)
trajectory._direct_blocks = blocks
sys.argv = ["collatzkit", "trajectory", str(2**5000 - 1)]
cli.main()
"""


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="a line is shared only with two usable CPUs"
)
def test_a_dead_render_helper_exits_1_with_one_line_and_leaves_no_process():
    proc = in_session(["-c", DYING_HELPER])
    with no_process_left(proc):
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"error: a worker process died: the render helper exited with status 2\n")
        # blocks 0 to 2, then nothing: the parent never got the token for block 4
        assert out.startswith(BIG.encode()) and not out.endswith(b"\n")


# once the line is shared, each block the route's walker yields is logged
# as (pid, its first iterate); the count pass, before the fork, is not
WALKED_BLOCKS = """
import os, sys
from collatzkit import cli, trajectory
log, method, fmt = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND), sys.argv[2], sys.argv[3]
name = "_lookup_blocks" if method == "lookup" else "_direct_blocks"
walk, write_forked, shared = getattr(trajectory, name), trajectory._write_forked, []
def blocks(x):
    for block in walk(x):
        if shared:
            os.write(log, f"{os.getpid()} {block[0][0]}\\n".encode())
        yield block
def share(*args):
    shared.append(True)
    write_forked(*args)
setattr(trajectory, name, blocks)
trajectory._write_forked = share
sys.argv = ["collatzkit", "trajectory", str(2**5000 - 1), "--method", method, "--format", fmt]
cli.main()
"""


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="a line is shared only with two usable CPUs"
)
@pytest.mark.parametrize("method", ["direct", "lookup"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_each_block_of_a_shared_line_is_walked_only_by_the_process_that_renders_it(tmp_path, method, fmt):
    log = tmp_path / "blocks.log"
    log.touch()
    proc = in_session(["-c", WALKED_BLOCKS, str(log), method, fmt])
    with no_process_left(proc):
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, hashlib.sha256(out).hexdigest(), err) == (0, BIG_WALK_DIGESTS[fmt], b"")
    walked = {}
    for line in log.read_text().splitlines():
        pid, first = line.split()
        walked.setdefault(int(pid), []).append(int(first))
    # the parent walks blocks 0, 2, ..., the helper 1, 3, ..., each once
    iterates = trajectory_direct(2**5000 - 1).iterates
    firsts = iterates[:: trajectory._BLOCK]
    helper = (walked.keys() - {proc.pid}).pop()
    assert walked == {proc.pid: list(firsts[::2]), helper: list(firsts[1::2])}


# each process logs the CPUs it may run on as it walks each of its blocks;
# the command logs them before the line and after _write_forked returns
CPU_MASKS = """
import os, sys
from collatzkit import cli, trajectory
log = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND)
def mask(when):
    cpus = " ".join(map(str, sorted(os.sched_getaffinity(0))))
    os.write(log, f"{os.getpid()} {when} {cpus}\\n".encode())
walk, write_forked = trajectory._direct_blocks, trajectory._write_forked
def blocks(x):
    for block in walk(x):
        mask("block")
        yield block
def share(*args):
    write_forked(*args)
    mask("after")
trajectory._direct_blocks = blocks
trajectory._write_forked = share
mask("before")
sys.argv = ["collatzkit", "trajectory", str(2**5000 - 1)]
cli.main()
"""


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="a line is shared only with two usable CPUs"
)
def test_the_two_processes_of_a_shared_line_run_on_disjoint_cpus_and_the_command_gets_its_own_back(tmp_path):
    log = tmp_path / "masks.log"
    log.touch()
    proc = in_session(["-c", CPU_MASKS, str(log)])
    with no_process_left(proc):
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, hashlib.sha256(out).hexdigest(), err) == (0, BIG_WALK_DIGESTS["text"], b"")
    masks = {}  # (pid, when) -> the masks logged
    for line in log.read_text().splitlines():
        pid, when, *cpus = line.split()
        masks.setdefault((int(pid), when), set()).add(frozenset(map(int, cpus)))
    (helper,) = {pid for pid, _ in masks} - {proc.pid}
    (before,), (after,) = masks[proc.pid, "before"], masks[proc.pid, "after"]
    # one mask each, for every block it walked
    (parent,), (other,) = masks[proc.pid, "block"], masks[helper, "block"]
    assert parent and other and not parent & other
    assert parent | other == before == after


# os.fork refused: a command that reaches it fails
NO_FORK = """
import io, os, sys, threading, time
from collatzkit import cli
def refuse():
    raise AssertionError("forked")
os.fork = refuse
argv = sys.argv[1:]
"""


@pytest.mark.parametrize("method", ["direct", "lookup"])
def test_a_walk_over_budget_forks_nothing(method):
    # the count pass raises before the fork: one step short of 2**5000-1's walk
    script = NO_FORK + "sys.argv = ['collatzkit', *argv]\ncli.main()\n"
    proc = in_session(["-c", script, "trajectory", BIG, "--method", method], {"COLLATZ_MAX_STEPS": "24130"})
    with no_process_left(proc):
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (3, b"")
        assert err == f"error: budget of 24130 steps exhausted starting from {BIG}\n".encode()


def test_run_and_a_watched_main_never_fork():
    # run() to sys.stdout and to a StringIO, then main() with a second
    # thread alive: each writes the line of 2**5000-1 alone
    script = NO_FORK + (
        "assert cli.run(argv) == 0\n"
        "assert cli.run(argv, io.StringIO()) == 0\n"
        "threading.Thread(target=time.sleep, args=(0.2,)).start()\n"
        "sys.argv = ['collatzkit', *argv]\n"
        "cli.main()\n"
    )
    proc = in_session(["-c", script, "trajectory", BIG])
    with no_process_left(proc):
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")
        line = out[: len(out) // 2]
        assert (out, hashlib.sha256(line).hexdigest()) == (2 * line, BIG_WALK_DIGESTS["text"])


def test_table_export():
    code, out, _ = invoke("table-export", "--table", "B", "--rows", "36")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 37
    for fixture_row, line in zip(TABLE_B_WINDOW, lines[1:]):
        assert line == ",".join(str(v) for v in fixture_row)
    code, out, _ = invoke("table-export", "--table", "A", "--rows", "3", "--cols", "2")
    assert out.split("\n")[1] == "0,1,5,1"


def test_usage_errors_exit_2():
    code, _, _ = invoke("no-such-command")
    assert code == 2
    code, _, _ = invoke()
    assert code == 2
    code, _, _ = invoke("table-export")  # missing required --table
    assert code == 2


def test_help_exits_0():
    code, _, _ = invoke("--help")
    assert code == 0


def test_the_table_uses_only_keywords_the_table_parser_reads():
    # _fast_parse converts int values, checks choices and sets store_true
    # flags; any other add_argument keyword would need it taught first
    for *_, arguments in cli._COMMANDS.values():
        for flag, kwargs in arguments:
            assert set(kwargs) <= {"type", "choices", "default", "action", "required", "help", "metavar"}, flag
            assert kwargs.get("type", int) is int and kwargs.get("action", "store_true") == "store_true", flag


def argparse_namespace(argv):
    # vars() of build_parser()'s parse, or None where it exits (help, usage errors)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


def good_value(kwargs):
    # a value token the argument accepts
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    return st.integers(min_value=0, max_value=2**70).map(str)


@st.composite
def canonical_lines(draw):
    # a known command, then its required and some optional arguments in any
    # order, options spelled in full with one valid value each
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for flag, kwargs in draw(st.permutations(cli._COMMANDS[command][3])):
        if kwargs.get("required", not flag.startswith("-")) or draw(st.booleans()):
            value = [] if "action" in kwargs else [draw(good_value(kwargs))]
            argv += value if not flag.startswith("-") else [flag, *value]
    return argv


def odd_tokens(command):
    # tokens that make a line non-canonical, or wrong, drawn from the table
    arguments = cli._COMMANDS[command][3] if command in cli._COMMANDS else ()
    flags = [flag for flag, _ in arguments if flag.startswith("-")] or ["--format"]
    return st.one_of(
        st.sampled_from(["-h", "--help", "-7", "-0", "-1_000", "--", "-", "", "x", "7.5", "1_000", " 9", "xml", "C", "nosuch"]),
        st.sampled_from(flags).flatmap(lambda f: st.integers(3, max(3, len(f) - 1)).map(lambda k: f[:k])),
        st.sampled_from(flags).map(lambda f: f + "=json"),
        st.sampled_from(flags),
        st.sampled_from([flag for *_, arguments in cli._COMMANDS.values() for flag, _ in arguments]),
        st.integers(min_value=-(2**40), max_value=2**40).map(str),
    )


@st.composite
def mixed_lines(draw):
    # a canonical line with tokens inserted and removed: abbreviations,
    # --opt=value, repeats, negative and non-numeric values, bad choices,
    # missing required options, extra positionals and -h
    argv = draw(canonical_lines())
    for _ in range(draw(st.integers(0, 3))):
        argv.insert(draw(st.integers(0, len(argv))), draw(odd_tokens(argv[0])))
    if len(argv) > 1 and draw(st.booleans()):
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


with digit_limit(0):
    BIG_START = str(2**20000 - 1)  # 6021 digits


@given(argv=canonical_lines())
@example(argv=["trajectory", BIG_START])
@settings(max_examples=300, deadline=None)
def test_canonical_lines_take_the_table_parser(argv):
    # under run's lifted digit limit, as the parse runs in the CLI
    with digit_limit(0):
        fast = cli._fast_parse(argv)
        assert fast is not None
        assert vars(fast) == argparse_namespace(argv)


@given(argv=mixed_lines())
@example(argv=["tree", "--form", "json"])
@example(argv=["classify", "-7"])
@example(argv=["trajectory", "27", "--end", "-1_000"])  # int() reads it; argparse takes it for an option
@example(argv=["verify", "--bound", "9", "--bound", "9"])
@settings(max_examples=400, deadline=None)
def test_the_table_parser_gives_argparses_namespace_or_none(argv):
    with digit_limit(0):
        fast = cli._fast_parse(argv)
        if fast is not None:
            assert vars(fast) == argparse_namespace(argv)


def test_every_benchmark_command_line_takes_the_table_parser(monkeypatch):
    # the benchmark's commands (timed lists, probes and the traced layer
    # probe) never build the argparse parser
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    parser = cli.build_parser()
    for size in (workloads.FULL, workloads.TINY):
        for seed in range(3):
            commands = [c for w in ("scan", "walk", "interactive") for c in workloads.build(w, seed, size, 2).commands]
            commands += workloads.build("walk", seed, size, 2).probes + workloads.layer_probe(seed, size, 2)
            with digit_limit(0):
                for command in commands:
                    fast = cli._fast_parse(command.argv)
                    assert fast is not None, command.argv
                    assert vars(fast) == vars(parser.parse_args(command.argv))


def test_output_is_deterministic():
    for argv in (
        ("trajectory", "255"),
        ("tree", "--depth", "3", "--breadth", "3", "--format", "dot"),
        ("verify", "--bound", "512", "--format", "json"),
        ("drift", "--terms", "25", "--bound", "501"),
    ):
        assert invoke(*argv) == invoke(*argv)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "collatzkit", "trajectory", "27"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert [int(v) for v in proc.stdout.split()] == [27, *TRAJECTORY_27]
