import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdescent import (
    brute_count_tableaux,
    count_tableaux_formula,
    count_tableaux_transfer,
    count_tableaux_type_sum,
    format_filling,
    gap_vector,
    is_valid_tableau,
    iter_shapes,
    partition_type,
    shape_to_descent_set,
)
from cdescent.contract import BOX_CAP, TRANSFER_CAP


@pytest.mark.parametrize(
    "shape, a, b",
    [
        ((2, 1), (2, 1), (1, 2)),
        ((3, 3, 1), (3, 1), (2, 3)),
        ((2, 2), (2,), (2,)),
    ],
)
def test_partition_type(shape, a, b):
    assert partition_type(shape) == (a, b)


@pytest.mark.parametrize("bad", [(), (1, 2), (2, 0), (2, -1)])
def test_bad_shapes_rejected(bad):
    with pytest.raises(ValueError):
        partition_type(bad)


@pytest.mark.parametrize("bad", [(True,), (2, True)])
def test_bool_row_lengths_rejected(bad):
    with pytest.raises(ValueError, match="^row length must be an integer: True$"):
        count_tableaux_formula(bad)


@pytest.mark.parametrize(
    "shape, expected",
    [
        ((2, 1), (4, (2, 4))),
        ((1, 1, 1), (4, (4,))),
        ((3,), (4, (2, 3, 4))),
        ((3, 3, 1), (6, (3, 4, 6))),
    ],
)
def test_shape_to_descent_set(shape, expected):
    assert shape_to_descent_set(shape) == expected


def test_border_path_invariants():
    for shape in iter_shapes(12, 4):
        n, s = shape_to_descent_set(shape)
        assert n == len(shape) + shape[0]
        assert 1 not in s
        assert s[-1] == n
        assert len(s) == shape[0]
        assert n - len(s) == len(shape)


@pytest.mark.parametrize(
    "shape, expected",
    [
        ((2, 1), 3),
        ((1, 1, 1), 7),
        ((3,), 1),
    ],
)
def test_count_tableaux_formula(shape, expected):
    assert count_tableaux_formula(shape) == expected


@pytest.mark.parametrize(
    "shape, bits, expected",
    [
        ((2, 1), (1, 1, 1), True),
        ((2, 1), (0, 1, 0), False),  # first column has no 1
        ((2, 2), (1, 1, 1, 0), False),  # 0 with a 1 above and a 1 to its left
    ],
)
def test_is_valid_tableau(shape, bits, expected):
    assert is_valid_tableau(shape, bits) is expected


def test_filling_validation():
    with pytest.raises(ValueError):
        is_valid_tableau((2, 1), (1, 1))
    with pytest.raises(ValueError):
        is_valid_tableau((2, 1), (1, 2, 0))


def test_format_filling():
    assert format_filling((2, 1), (1, 0, 1)) == "10\n1"


@pytest.mark.parametrize(
    "shape, expected",
    [
        ((2, 1), 3),
        ((2, 2), 7),
        ((1, 1), 3),
    ],
)
def test_brute_count(shape, expected):
    assert brute_count_tableaux(shape) == expected


def test_brute_count_is_filter_count():
    # The pruned search agrees with filtering all fillings through the
    # validity predicate, on every shape of at most 10 boxes.  The search
    # states the column transfer's rule, so this per-box filter is its
    # independent judge.
    import itertools

    shapes = list(iter_shapes(10, 10))
    assert len(shapes) == 138
    for shape in shapes:
        boxes = sum(shape)
        direct = sum(
            is_valid_tableau(shape, bits)
            for bits in itertools.product((0, 1), repeat=boxes)
        )
        assert brute_count_tableaux(shape) == direct, shape


def test_box_cap():
    with pytest.raises(ValueError, match=f"boxes = 24 exceeds the filling search cap BOX_CAP = {BOX_CAP}"):
        brute_count_tableaux((6, 6, 6, 6))
    # Two rows of BOX_CAP / 2 boxes: at the cap, and only 3^(BOX_CAP / 2)
    # column patterns to search.
    at_cap = (BOX_CAP // 2,) * 2
    assert brute_count_tableaux(at_cap) == count_tableaux_formula(at_cap)


def type_exponents(shape):
    """The exponents of the paper's statement by the shape's type: 1 per
    column, raised at column a_t by b_t - b_{t-1}, with b_0 = 1."""
    a, b = partition_type(shape)
    exponents = [1] * a[0]
    prev_count = 1
    for length, count in zip(a, b):
        exponents[length - 1] += count - prev_count
        prev_count = count
    return tuple(exponents)


@st.composite
def shapes_within(draw, max_boxes=40, max_rows=10):
    # Row lengths from the top, each at most the row above and the boxes left.
    parts = [draw(st.integers(1, max_boxes))]
    while len(parts) < max_rows and sum(parts) < max_boxes and draw(st.booleans()):
        parts.append(draw(st.integers(1, min(parts[-1], max_boxes - sum(parts)))))
    return tuple(parts)


@given(shapes_within())
def test_type_exponents_are_the_border_gap_vector(shape):
    # Why count_tableaux_type_sum is count_tableaux_formula: the type
    # statement builds the gap vector of the border-path descent set.
    assert type_exponents(shape) == gap_vector(shape_to_descent_set(shape)[1])


def test_three_routes_agree():
    for shape in iter_shapes(12, 4):
        want = count_tableaux_formula(shape)
        assert count_tableaux_type_sum(shape) == want, shape
        assert brute_count_tableaux(shape) == want, shape


def test_transfer_equals_the_search_on_every_small_shape():
    for shape in iter_shapes(14, 6):
        assert count_tableaux_transfer(shape) == brute_count_tableaux(shape), shape


# Shapes of at most 7 rows and width at most 14: weakly decreasing row lengths.
shapes = st.lists(st.integers(1, 14), min_size=1, max_size=7).map(
    lambda rows: tuple(sorted(rows, reverse=True))
)


@settings(max_examples=200, deadline=None)
@given(shapes)
def test_transfer_equals_the_formula(shape):
    assert count_tableaux_transfer(shape) == count_tableaux_formula(shape)


def test_transfer_reaches_past_the_summation_cap():
    # Width 40 is past SUM_CAP; the sum agrees where it still applies.
    assert count_tableaux_transfer((40, 30, 20)) == 21418506295297
    assert count_tableaux_transfer((16, 12, 7, 3)) == count_tableaux_formula((16, 12, 7, 3))


def test_transfer_cap():
    # 4^8 steps in each of 40 columns; refused before any work.
    with pytest.raises(
        ValueError,
        match=f"transfer steps = 2621440 exceeds the column transfer cap TRANSFER_CAP = {TRANSFER_CAP}",
    ):
        count_tableaux_transfer((40,) * 8)
    # A shape too tall for its first column, 4^rows steps, is refused on
    # that column before the heights are scanned, a huge count by its size.
    with pytest.raises(
        ValueError,
        match=f"^first-column steps = 4194304 exceeds the column transfer cap TRANSFER_CAP = {TRANSFER_CAP}$",
    ):
        count_tableaux_transfer((1,) * 11)
    with pytest.raises(
        ValueError,
        match="^first-column steps = an integer of 99999 bits exceeds the column transfer cap TRANSFER_CAP = ",
    ):
        count_tableaux_transfer((50000,) * 49999)
    assert count_tableaux_transfer((1,) * 10) == count_tableaux_formula((1,) * 10)
    below = (16,) * 8  # 16 * 4^8 steps, under the cap
    assert 16 * 4**8 <= TRANSFER_CAP
    assert count_tableaux_transfer(below) == count_tableaux_formula(below)


def test_counts_by_length_sum_to_factorial():
    # Every shape of semiperimeter <= n is reachable in S_n (short shapes
    # stand for tableaux padded with empty rows), and with the empty
    # descent set they exhaust the n! permutations.  rows + width <= n
    # bounds the boxes by n^2 / 4 and the rows by n - 1.
    for n in range(2, 9):
        total = 1 + sum(
            count_tableaux_formula(shape)
            for shape in iter_shapes(n * n // 4, n - 1)
            if len(shape) + shape[0] <= n
        )
        assert total == math.factorial(n), n


def test_iter_shapes():
    shapes = list(iter_shapes(4, 2))
    assert (2, 2) in shapes and (4,) in shapes and (1, 1) in shapes
    assert (1, 1, 1) not in shapes  # three rows
    assert (3, 2) not in shapes  # five boxes
    assert all(sum(s) <= 4 and len(s) <= 2 for s in shapes)
    assert len(shapes) == len(set(shapes))
