"""Closed-form predecessor tables covering every odd integer.

Two infinite tables organise the odd integers by their step image.  Row n
of table A holds 1+8n, 5+32n, 21+128n, ... and every entry steps to 6n+1;
row n of table B holds 3+4n, 13+16n, 53+64n, ... and every entry steps to
6n+5.  Column k uses alpha = 2k in table A and alpha = 2k-1 in table B,
consecutive entries of a row are linked by y = 4x+1, and each odd integer
appears at exactly one coordinate across the two tables.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .core import DomainError, _least_predecessor, _require_count, _require_odd, pre_terminal, terminal


class TableId(enum.Enum):
    A = "A"  # rows step to 6n+1
    B = "B"  # rows step to 6n+5


class TableCoordinate(NamedTuple):
    table: TableId
    column: int  # k >= 1
    row: int  # n >= 0


class PredecessorRow(NamedTuple):
    iterate: int
    entries: tuple[int, ...]


def _require_table(table: TableId) -> None:
    if not isinstance(table, TableId):
        raise DomainError(f"table must be a TableId, got {table!r}")


def table_entry(table: TableId, column: int, row: int) -> int:
    """Value at (column k >= 1, row n >= 0) of the given table."""
    _require_table(table)
    _require_count(column, 1, "column")
    _require_count(row, 0, "row")
    if table is TableId.A:
        return terminal(column - 1) + 4**column * (2 * row)
    return pre_terminal(column) + 4**column * row


def row_iterate(table: TableId, row: int) -> int:
    """Common step image of every entry in the row: 6n+1 for A, 6n+5 for B."""
    _require_table(table)
    _require_count(row, 0, "row")
    return 6 * row + 1 if table is TableId.A else 6 * row + 5


def column_alpha(table: TableId, column: int) -> int:
    """Alpha used by every entry of the column: 2k for A, 2k-1 for B."""
    _require_table(table)
    _require_count(column, 1, "column")
    return 2 * column if table is TableId.A else 2 * column - 1


def locate(x: int) -> TableCoordinate:
    """The unique coordinate with table_entry(...) == x.

    While x == 5 (mod 8) it sits in column >= 2 of either table, and
    (x-1)/4 is the same row one column to the left; after stripping, the
    residue picks the table and the first-column formulas give the row.
    """
    _require_odd(x)
    column = 1
    while x % 8 == 5:
        x = (x - 1) // 4
        column += 1
    if x % 4 == 3:
        return TableCoordinate(TableId.B, column, (x - 3) // 4)
    return TableCoordinate(TableId.A, column, (x - 1) // 8)


def predecessor_row(iterate: int, count: int) -> PredecessorRow:
    """First `count` odd integers whose single step lands on `iterate`.

    Rows are unbounded, so `count` picks the window; consecutive entries
    satisfy y = 4x+1.
    """
    _require_odd(iterate, "iterate")
    if iterate % 3 == 0:
        raise DomainError(f"{iterate} is a starter (odd multiple of 3) and has no predecessors")
    _require_count(count, 1, "count")
    # the least predecessor is the row's column-1 entry: 1+8n in A, 3+4n in B
    entries = [_least_predecessor(iterate)]
    for _ in range(count - 1):
        entries.append(4 * entries[-1] + 1)
    return PredecessorRow(iterate=iterate, entries=tuple(entries))


def column_header(table: TableId, column: int) -> str:
    """Header text for a column, e.g. "1+8*n" or "3413+4096*n"."""
    _require_table(table)
    _require_count(column, 1, "column")
    if table is TableId.A:
        return f"{terminal(column - 1)}+{2 * 4**column}*n"
    return f"{pre_terminal(column)}+{4**column}*n"


def table_window_csv(table: TableId, rows: int, cols: int) -> str:
    """CSV of the top-left rows x cols window plus the iterate column."""
    _require_table(table)
    _require_count(rows, 1, "rows")
    _require_count(cols, 1, "cols")
    iterate_header = "6*n+1" if table is TableId.A else "6*n+5"
    # ints and fixed headers: no cell needs quoting
    lines = [["n", *(column_header(table, k) for k in range(1, cols + 1)), iterate_header]]
    for n in range(rows):
        lines.append([n, *(table_entry(table, k, n) for k in range(1, cols + 1)), row_iterate(table, n)])
    return "".join(",".join(map(str, line)) + "\n" for line in lines)
