import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzkit import (
    DomainError,
    TableCoordinate,
    TableId,
    column_alpha,
    column_header,
    locate,
    predecessor_row,
    row_iterate,
    syracuse_step,
    table_entry,
    table_window_csv,
)

from reference_windows import TABLE_A_WINDOW, TABLE_B_WINDOW

odd_ints = st.integers(min_value=0, max_value=2**200).map(lambda n: 2 * n + 1)


@pytest.mark.parametrize(
    "table,column,row,value",
    [
        (TableId.A, 2, 1, 37),
        (TableId.B, 1, 6, 27),
        (TableId.B, 3, 0, 53),
        (TableId.A, 1, 0, 1),
    ],
)
def test_table_entry_examples(table, column, row, value):
    assert table_entry(table, column, row) == value


@pytest.mark.parametrize(
    "table,row,value", [(TableId.A, 2, 13), (TableId.B, 6, 41), (TableId.A, 0, 1)]
)
def test_row_iterate_examples(table, row, value):
    assert row_iterate(table, row) == value


def test_coordinate_validation():
    with pytest.raises(DomainError):
        table_entry(TableId.A, 0, 0)
    with pytest.raises(DomainError):
        table_entry(TableId.B, 1, -1)
    with pytest.raises(DomainError):
        table_entry("A", 1, 0)


@pytest.mark.parametrize(
    "x,table,column,row",
    [
        (27, TableId.B, 1, 6),
        (437, TableId.B, 3, 6),
        (5, TableId.A, 2, 0),
        (1, TableId.A, 1, 0),
    ],
)
def test_locate_examples(x, table, column, row):
    assert locate(x) == TableCoordinate(table, column, row)


def test_locate_rejects_even():
    with pytest.raises(DomainError):
        locate(6)


def test_predecessor_row_examples():
    assert predecessor_row(7, 3).entries == (9, 37, 149)
    assert predecessor_row(41, 3).entries == (27, 109, 437)
    # the children of 13, 53 and 5 in the tree of odd integers
    assert predecessor_row(13, 3).entries == (17, 69, 277)
    assert predecessor_row(53, 3).entries == (35, 141, 565)
    assert predecessor_row(5, 4).entries == (3, 13, 53, 213)
    with pytest.raises(DomainError):
        predecessor_row(9, 3)
    with pytest.raises(DomainError):
        predecessor_row(8, 3)
    with pytest.raises(DomainError):
        predecessor_row(7, 0)


def test_predecessor_row_entries_step_to_iterate():
    for iterate in range(1, 302, 2):
        if iterate % 3 == 0:
            continue
        row = predecessor_row(iterate, 6)
        for k, entry in enumerate(row.entries, start=1):
            assert syracuse_step(entry).iterate == iterate
        for a, b in zip(row.entries, row.entries[1:]):
            assert b == 4 * a + 1


def test_round_trip_below_bound():
    for x in range(1, 100_001, 2):
        coord = locate(x)
        assert table_entry(coord.table, coord.column, coord.row) == x


@given(x=odd_ints)
@settings(max_examples=300)
def test_round_trip_random(x):
    coord = locate(x)
    assert table_entry(coord.table, coord.column, coord.row) == x
    assert coord.column >= 1 and coord.row >= 0


def test_oracle_consistency_over_coordinates():
    # every entry steps to its row's iterate using the column's alpha
    for table in TableId:
        for k in range(1, 7):
            alpha = column_alpha(table, k)
            for n in range(0, 1001):
                result = syracuse_step(table_entry(table, k, n))
                assert result.iterate == row_iterate(table, n)
                assert result.alpha == alpha


def _entries_up_to(limit):
    for table in TableId:
        k = 1
        while table_entry(table, k, 0) <= limit:
            n = 0
            while True:
                v = table_entry(table, k, n)
                if v > limit:
                    break
                yield v
                n += 1
            k += 1


def test_partition_covers_every_odd_exactly_once():
    limit = 100_000
    seen = sorted(_entries_up_to(limit))
    assert seen == list(range(1, limit + 1, 2))


def test_starter_spread_in_columns():
    # residues mod 3 repeat with period 3 down a column; one hit per period
    for table in TableId:
        for k in range(1, 7):
            col = [table_entry(table, k, n) for n in range(102)]
            for n in range(len(col) - 3):
                assert col[n] % 3 == col[n + 3] % 3
            for n in range(0, 99, 3):
                assert sum(1 for v in col[n : n + 3] if v % 3 == 0) == 1


def test_column_counts_match_floor_formulas():
    limit = 2**20
    for table in TableId:
        k = 1
        while True:
            base = table_entry(table, k, 0)
            if base > limit:
                break
            step = 2 * 4**k if table is TableId.A else 4**k
            counted = 0
            n = 0
            while table_entry(table, k, n) <= limit:
                counted += 1
                n += 1
            assert counted == (limit - base) // step + 1
            k += 1


def test_column_headers():
    assert column_header(TableId.A, 1) == "1+8*n"
    assert column_header(TableId.A, 2) == "5+32*n"
    assert column_header(TableId.B, 1) == "3+4*n"
    assert column_header(TableId.B, 6) == "3413+4096*n"


def test_window_matches_reference_rows():
    for n, *cols, iterate in TABLE_A_WINDOW:
        assert [table_entry(TableId.A, k, n) for k in range(1, 6)] == cols
        assert row_iterate(TableId.A, n) == iterate
    for n, *cols, iterate in TABLE_B_WINDOW:
        assert [table_entry(TableId.B, k, n) for k in range(1, 7)] == cols
        assert row_iterate(TableId.B, n) == iterate


def test_table_window_csv_shape_and_values():
    text = table_window_csv(TableId.B, 7, 6)
    lines = text.strip().split("\n")
    assert lines[0] == "n,3+4*n,13+16*n,53+64*n,213+256*n,853+1024*n,3413+4096*n,6*n+5"
    assert lines[7] == "6,27,109,437,1749,6997,27989,41"
    assert len(lines) == 8
    assert table_window_csv(TableId.B, 7, 6) == text  # deterministic
    head_a = table_window_csv(TableId.A, 1, 5).split("\n")[0]
    assert head_a == "n,1+8*n,5+32*n,21+128*n,85+512*n,341+2048*n,6*n+1"
