"""Counting 0/1 fillings of Young diagrams by shape.

A shape is a weakly decreasing tuple of positive row lengths.  A filling
of its boxes with 0s and 1s is valid when (1) every column contains at
least one 1 and (2) no box holds a 0 that has a 1 above it in its column
and a 1 to its left in its row.  Row 1 is the top row; rows and columns
are 1-based.

Walking the southeast border of the diagram from the top-right corner of
its bounding rectangle down to the bottom-left corner and numbering the
steps 1..n (n = rows + columns), the horizontal steps form a set S of
values in [2, n] with max S = n, and the number of valid fillings equals
the number of permutations of [n] with descent-value set S.  The count is
therefore available three ways: by the border-path descent set
(``formula.cdes_formula``, the one closed form), by a column-transfer
count of fillings, and by brute enumeration of fillings.  The paper also
states the formula by the shape's type (:func:`partition_type`); the
exponents it builds are the gap vector of the border set, so
:func:`count_tableaux_type_sum` is the closed form under that name.  The
column transfer shares no code with the closed form or with the search;
it is exponential in rows only, so it reaches shapes too wide for the
sum.  The search, exponential in boxes, stays the naive oracle: it
enumerates the fillings one by one, column by column, on the transfer's
row bitmask, and states the transfer's column rule as the same one mask
test.  Since the two routes share that rule, the per-box check
:func:`is_valid_tableau` is the search's independent judge in the tests.
``verify``'s ``tableaux-three-routes`` compares the closed form with the
transfer and with the brute permutation scan's count of the border set.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .contract import BOX_CAP, COUNT_MAX_N, TRANSFER_CAP, check_cap, check_int, check_ints
from .formula import cdes_formula


def check_shape(parts: Iterable[int]) -> tuple[int, ...]:
    """Validate a weakly decreasing tuple of positive row lengths."""
    p = tuple(parts)
    if not p:
        raise ValueError("a shape needs at least one row")
    check_ints("row length", p, 1)
    above = next((i for i in range(1, len(p)) if p[i - 1] < p[i]), 0)
    if above:
        raise ValueError(f"row lengths must be weakly decreasing: row {above + 1} is longer than row {above}")
    check_cap("rows + width", len(p) + p[0], "count", "COUNT_MAX_N", COUNT_MAX_N)
    return p


def partition_type(parts: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Distinct row lengths in decreasing order, paired with the number of
    rows at least that long.

    >>> partition_type((2, 1))
    ((2, 1), (1, 2))
    >>> partition_type((3, 3, 1))
    ((3, 1), (2, 3))
    """
    p = check_shape(parts)
    a = tuple(sorted(set(p), reverse=True))
    b = tuple(sum(1 for row in p if row >= v) for v in a)
    return a, b


def shape_to_descent_set(parts: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Label the border-path steps 1..n and collect the horizontal ones.

    At row r and column c the path steps down when the r-th row ends at
    column c, and left otherwise; below the last row it runs left along
    the bottom.  The first step is always vertical and the last always
    horizontal, so 1 is never in the set and n always is.

    >>> shape_to_descent_set((2, 1))
    (4, (2, 4))
    >>> shape_to_descent_set((3,))
    (4, (2, 3, 4))
    """
    p = check_shape(parts)
    rows, width = len(p), p[0]
    n = rows + width
    horizontal = []
    row, col = 1, width
    for step in range(1, n + 1):
        if row <= rows and p[row - 1] == col:
            row += 1
        else:
            horizontal.append(step)
            col -= 1
    assert row == rows + 1 and col == 0
    return n, tuple(horizontal)


def count_tableaux_formula(parts: Iterable[int]) -> int:
    """Number of valid fillings, through the border-path descent set.

    >>> count_tableaux_formula((2, 1))
    3
    >>> count_tableaux_formula((1, 1, 1))
    7
    """
    n, s = shape_to_descent_set(parts)
    return cdes_formula(n, s)


def count_tableaux_type_sum(parts: Iterable[int]) -> int:
    """:func:`count_tableaux_formula` under the name of the paper's
    statement by the shape's type (:func:`partition_type`): exponent 1 per
    column, raised at column a_t by the number of rows of length exactly
    a_t (one fewer at the widest).  Those exponents are the gap vector of
    the border-path descent set, so the count is the one closed form.

    >>> count_tableaux_type_sum((3, 3, 1))
    37
    """
    return count_tableaux_formula(parts)


def _column_heights(p: tuple[int, ...]) -> list[int]:
    # The height of each column of a checked shape, from the left.
    return [sum(1 for row in p if row > c) for c in range(p[0])]


def count_tableaux_transfer(parts: Iterable[int]) -> int:
    """Number of valid fillings, column by column from the left, keeping
    only the count of partial fillings per state: the bitmask of the rows
    (bit 0 the top row) that already hold a 1.

    In a column of height h, a nonempty pattern P of 1s is legal exactly
    when no row below the topmost 1 of P holds a 0 and a 1 to its left;
    the state then becomes its union with P, cut to the rows of the next
    column.  The work is 4^h (patterns by states) per column, refused
    above ``TRANSFER_CAP`` in all before any is done: the first column's
    4^rows first, before the heights of a tall shape are scanned.

    >>> count_tableaux_transfer((2, 1))
    3
    >>> count_tableaux_transfer((2, 2))
    7
    """
    p = check_shape(parts)
    check_cap("first-column steps", 4 ** len(p), "column transfer", "TRANSFER_CAP", TRANSFER_CAP)
    heights = _column_heights(p)
    steps = sum(4**h for h in heights)
    check_cap("transfer steps", steps, "column transfer", "TRANSFER_CAP", TRANSFER_CAP)
    weights = {0: 1}
    for h, h_next in zip(heights, [*heights[1:], 0]):
        keep = (1 << h_next) - 1
        new: dict[int, int] = {}
        for pattern in range(1, 1 << h):
            below = -((pattern & -pattern) << 1)  # rows under the topmost 1
            for rows, weight in weights.items():
                if not rows & ~pattern & below:
                    key = (rows | pattern) & keep
                    new[key] = new.get(key, 0) + weight
        weights = new
    return sum(weights.values())


def _split_rows(p: tuple[int, ...], bits: Sequence[int]) -> list[list[int]]:
    cells = list(bits)
    if len(cells) != sum(p):
        raise ValueError(f"filling has {len(cells)} bits for {sum(p)} boxes")
    check_ints("filling entry", cells, 0, 1)
    rows = []
    at = 0
    for length in p:
        rows.append(cells[at : at + length])
        at += length
    return rows


def is_valid_tableau(parts: Iterable[int], bits: Sequence[int]) -> bool:
    """Check both validity properties for a flat row-major filling.

    >>> is_valid_tableau((2, 1), (1, 1, 1))
    True
    >>> is_valid_tableau((2, 2), (1, 1, 1, 0))
    False
    """
    p = check_shape(parts)
    rows = _split_rows(p, bits)
    for col in range(p[0]):
        if not any(row[col] for row in rows if len(row) > col):
            return False
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v == 0:
                above = any(rows[rr][c] for rr in range(r))
                left = any(row[cc] for cc in range(c))
                if above and left:
                    return False
    return True


def format_filling(parts: Iterable[int], bits: Sequence[int]) -> str:
    """Debug dump: one row per line of 0/1 characters."""
    rows = _split_rows(check_shape(parts), bits)
    return "\n".join("".join(str(v) for v in row) for row in rows)


def brute_count_tableaux(parts: Iterable[int]) -> int:
    """Count valid fillings by depth-first search, column by column,
    visiting every valid filling one at a time.

    The search carries the column transfer's state: the bitmask of the
    rows (bit 0 the top row) that already hold a 1, cut to the next
    column's height.  A nonempty pattern P is placed exactly when no row
    below its topmost 1 holds a 0 and a 1 to its left, the one mask test
    ``not rows & ~P & -((P & -P) << 1)``.  The transfer states the same
    rule in its own loop and shares no code with the search, and
    :func:`is_valid_tableau`, which checks every box, is the search's
    independent judge in the tests.

    >>> brute_count_tableaux((2, 1))
    3
    >>> brute_count_tableaux((2, 2))
    7
    """
    p = check_shape(parts)
    check_cap("boxes", sum(p), "filling search", "BOX_CAP", BOX_CAP)
    heights = _column_heights(p)
    columns = [(h, (1 << h_next) - 1) for h, h_next in zip(heights, [*heights[1:], 0])]

    def extend(col: int, rows: int) -> int:
        if col == len(columns):
            return 1
        h, keep = columns[col]
        count = 0
        for pattern in range(1, 1 << h):
            if not rows & ~pattern & -((pattern & -pattern) << 1):
                count += extend(col + 1, (rows | pattern) & keep)
        return count

    return extend(0, 0)


def iter_shapes(max_boxes: int, max_rows: int) -> Iterator[tuple[int, ...]]:
    """Every shape with at most ``max_boxes`` boxes and ``max_rows`` rows.

    The arguments are checked at the call, before the iterator is made.
    """
    check_int("max_boxes", max_boxes, 0)
    check_int("max_rows", max_rows, 0)

    def grow(prefix: tuple[int, ...], remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        for part in range(1, min(max_part, remaining) + 1):
            shape = (*prefix, part)
            yield shape
            if len(shape) < max_rows:
                yield from grow(shape, remaining - part, part)

    return grow((), max_boxes, max_boxes)
