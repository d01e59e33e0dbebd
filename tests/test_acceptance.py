"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and prints
one pass/fail line (run with `pytest -s tests/test_acceptance.py` to see
the lines as they go by).
"""

import io
import time
from contextlib import contextmanager

from collatzkit import (
    TableId,
    alpha_chain_length,
    alpha_residue_class,
    alpha_table_entry,
    build_layers,
    drift_series_decrease,
    drift_series_increase,
    empirical_alpha_density,
    empirical_drift,
    empirical_iterate_class_ratio,
    locate,
    row_iterate,
    table_entry,
    trajectory_direct,
    trajectory_lookup,
    verify_theorems,
)
from collatzkit.cli import run

from reference_windows import ALPHA_LENGTH_WINDOW, TABLE_A_WINDOW, TABLE_B_WINDOW, TRAJECTORY_27


@contextmanager
def criterion(num, title):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {title}: FAIL")
        raise
    extra = f" ({info['detail']})" if "detail" in info else ""
    print(f"ACCEPTANCE {num:2d} {title}: PASS{extra}")


def test_01_trajectory_fidelity():
    with criterion(1, "trajectory fidelity for 27") as info:
        out = io.StringIO()
        assert run(["trajectory", "27"], out, io.StringIO()) == 0
        values = [int(v) for v in out.getvalue().split()]
        assert values == [27, *TRAJECTORY_27]
        assert values[-6:] == [61, 23, 35, 53, 5, 1]
        assert len(values) - 1 == 41
        elapsed = min(_timed(trajectory_direct, 27) for _ in range(5))
        assert elapsed < 1e-3
        info["detail"] = f"walk {elapsed * 1e6:.0f}us"


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_02_table_windows_reproduced():
    with criterion(2, "predecessor-table windows cell-for-cell") as info:
        cells = 0
        for n, *cols, iterate in TABLE_A_WINDOW:
            for k, expected in enumerate(cols, start=1):
                assert table_entry(TableId.A, k, n) == expected
                cells += 1
            assert row_iterate(TableId.A, n) == iterate
            cells += 1
        for n, *cols, iterate in TABLE_B_WINDOW:
            for k, expected in enumerate(cols, start=1):
                assert table_entry(TableId.B, k, n) == expected
                cells += 1
            assert row_iterate(TableId.B, n) == iterate
            cells += 1
        info["detail"] = f"{cells} cells"


def test_03_lookup_route_equals_direct_route():
    with criterion(3, "lookup trajectories equal direct below 1e5") as info:
        t0 = time.perf_counter()
        mismatches = 0
        for x in range(1, 100_000, 2):
            if trajectory_lookup(x) != trajectory_direct(x):
                mismatches += 1
        elapsed = time.perf_counter() - t0
        assert mismatches == 0
        assert elapsed < 10.0
        info["detail"] = f"50000 walks, {elapsed:.1f}s"


def test_04_alpha_length_table_and_classifier():
    with criterion(4, "run-length table and classifier agreement") as info:
        for n, *cols in ALPHA_LENGTH_WINDOW:
            for h, expected in enumerate(cols, start=1):
                assert alpha_table_entry(h, n) == expected
        checked = 0
        for x in range(3, 100_000, 4):
            h = 0
            cur = x
            while cur % 4 == 3:
                cur = (3 * cur + 1) // 2
                h += 1
            assert alpha_chain_length(x) == h
            checked += 1
        info["detail"] = f"360 cells, {checked} classifications"


def test_05_every_odd_has_exactly_one_coordinate():
    with criterion(5, "coordinate partition below 1e5") as info:
        limit = 99_999
        seen = []
        for table in TableId:
            k = 1
            while table_entry(table, k, 0) <= limit:
                n = 0
                while True:
                    v = table_entry(table, k, n)
                    if v > limit:
                        break
                    seen.append(v)
                    n += 1
                k += 1
        seen.sort()
        assert seen == list(range(1, limit + 1, 2))
        for x in range(1, limit + 1, 2):
            coord = locate(x)
            assert table_entry(coord.table, coord.column, coord.row) == x
        info["detail"] = f"{len(seen)} odds, one coordinate each"


def test_06_theorem_scans_clean():
    with criterion(6, "no iterate divisible by 3, no in-walk duplicates") as info:
        report = verify_theorems(99_999)
        assert report.trajectories == 50_000
        # verify_theorems tests no iterate (both properties are lemmas), so
        # check them here on the walks themselves
        walked = 0
        for x in range(1, 10_000, 2):
            iterates = trajectory_direct(x).iterates
            assert all(y % 3 for y in iterates), x
            assert len(set(iterates)) == len(iterates) and (x == 1 or x not in iterates), x
            walked += len(iterates)
        info["detail"] = f"{report.iterates_checked} iterates counted, {walked} tested"


def test_07_series_identities():
    with criterion(7, "series partial sums near their limits") as info:
        inc = float(drift_series_increase(60))
        dec = float(drift_series_decrease(20))
        assert abs(inc - 3.0) < 1e-6
        assert abs(dec - 0.25) < 1e-6
        info["detail"] = f"inc={inc:.9f} dec={dec:.9f}"


def test_08_empirical_drift_band():
    with criterion(8, "geometric mean step factor in [0.73, 0.77]") as info:
        t0 = time.perf_counter()
        value = empirical_drift(1_000_000).empirical_value
        elapsed = time.perf_counter() - t0
        assert 0.73 <= value <= 0.77
        assert elapsed < 30.0
        info["detail"] = f"value={value:.5f}, {elapsed:.1f}s"


def test_09_alpha_density_exact():
    with criterion(9, "alpha counts equal residue-class predictions") as info:
        bound = 2**20
        report = empirical_alpha_density(bound, 10)
        for bucket in report.buckets:
            residue, modulus = alpha_residue_class(bucket.alpha)
            predicted = (bound - residue) // modulus + 1 if residue <= bound else 0
            assert bucket.count == predicted, bucket
        info["detail"] = f"alphas 1..10 over {report.odd_total} odds"


def test_10_iterate_class_ratio():
    with criterion(10, "6m+5 iterate share equals 2/3 within 0.005") as info:
        _, ratio_6m5 = empirical_iterate_class_ratio(1_000_000)
        assert abs(ratio_6m5 - 2 / 3) <= 0.005
        info["detail"] = f"share={ratio_6m5:.5f}"


def test_11_tree_spot_checks_and_completeness():
    with criterion(11, "tree spot segments and bounded completeness") as info:
        layers = build_layers(2, 4)
        by_parent = {seg.parent: seg.children for seg in layers[2].segments}
        assert by_parent == {
            5: (3, 13, 53, 213),
            85: (113, 453, 1813, 7253),
            341: (227, 909, 3637, 14549),
        }
        depth = 6
        candidates = []
        breadth = 1
        for x in range(1, 10_001, 2):
            rec = trajectory_direct(x)
            if rec.odd_length > depth:
                continue
            candidates.append(x)
            for i, alpha in enumerate(rec.alphas):
                if i == len(rec.alphas) - 1:
                    breadth = max(breadth, alpha // 2 - 1)
                else:
                    breadth = max(breadth, (alpha + 1) // 2)
        present = set()
        for layer in build_layers(depth, breadth):
            for seg in layer.segments:
                present.update(seg.children)
        missing = [x for x in candidates if x not in present]
        assert missing == []
        info["detail"] = f"{len(candidates)} integers at breadth {breadth}"
