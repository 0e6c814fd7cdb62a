import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdescent import (
    TreeNode,
    build_tree,
    cdes_formula,
    cdes_formula_typed,
    count_tableaux_type_sum,
    gap_vector,
    iter_leaf_paths,
    iter_value_sets,
    leaf_theta,
    leaf_theta_inverse,
    shape_to_descent_set,
    tree_weight_sum,
    tree_weight_traversal,
)
from cdescent.formula import cube_sum
from cdescent.contract import BUILD_CAP

value_sets = st.sets(st.integers(2, 14), max_size=7).map(lambda s: tuple(sorted(s)))
shapes = st.lists(st.integers(1, 6), min_size=1, max_size=5).map(
    lambda p: tuple(sorted(p, reverse=True))
)


def test_build_tree_small():
    root = build_tree(0)
    assert (root.label, root.height, root.children) == (1, 0, ())
    root = build_tree(1)
    assert [(c.label, c.height) for c in root.children] == [(1, 1), (2, 1)]
    leaves = [p[-1] for p in iter_leaf_paths(build_tree(2))]
    assert sorted(leaves) == [1, 2, 2, 3]


def test_build_tree_holds_one_node_per_height_and_label():
    # T_k is shared bottom-up, (k + 1)(k + 2)/2 nodes, yet every one of its
    # 2^k root-to-leaf paths is still walked.
    for k in range(11):
        root = build_tree(k)
        nodes, stack = {}, [root]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.children)
        assert len(nodes) == (k + 1) * (k + 2) // 2
        assert {(v.height, v.label) for v in nodes.values()} == {
            (h, label) for h in range(k + 1) for label in range(1, h + 2)
        }
        assert sum(1 for _ in iter_leaf_paths(root)) == 2**k


def test_build_tree_rejects():
    with pytest.raises(ValueError):
        build_tree(-1)
    with pytest.raises(ValueError, match=f"exceeds the materialization cap BUILD_CAP = {BUILD_CAP}"):
        build_tree(BUILD_CAP + 1)


def test_leaf_count_and_labels():
    for k in range(9):
        paths = list(iter_leaf_paths(build_tree(k)))
        assert len(paths) == 2**k
        for path in paths:
            # A label equals 1 plus the incrementing steps taken so far.
            for at, label in enumerate(path):
                assert label == 1 + sum(
                    1 for a, b in itertools.pairwise(path[: at + 1]) if b > a
                )


@pytest.mark.parametrize(
    "path, expected",
    [
        ((1, 2, 3), (1, 1)),
        ((1, 1, 1), (0, 0)),
        ((1, 2, 2), (1, 0)),
        ((1,), ()),
    ],
)
def test_leaf_theta(path, expected):
    assert leaf_theta(path) == expected
    assert leaf_theta_inverse(expected) == path


@pytest.mark.parametrize("bad", [(2, 3), (1, 3), (1, 0), ()])
def test_leaf_theta_rejects(bad):
    with pytest.raises(ValueError):
        leaf_theta(bad)


def test_theta_is_a_bijection():
    for k in range(9):
        images = {leaf_theta(p) for p in iter_leaf_paths(build_tree(k))}
        assert images == set(itertools.product((0, 1), repeat=k))


@pytest.mark.parametrize(
    "d, expected",
    [
        ((2, 1), 3),
        ((1, 2), 7),
        ((0,), 0),
    ],
)
def test_tree_weight_traversal(d, expected):
    assert tree_weight_traversal(d) == expected


@pytest.mark.parametrize(
    "d, expected",
    [
        ((4,), 15),
        ((1, 1, 2), 15),
        ((1, 1), 1),
        ((), 1),
    ],
)
def test_tree_weight_sum(d, expected):
    assert tree_weight_sum(d) == expected


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tree_weight_sum((1,) * 31), "work = 100931731456 exceeds the summation cap SUM_CAP = 40000000"),
        # A work of ~6,000 digits is named by its size, in a short line.
        (lambda: tree_weight_sum((0,) * 20000), "work = an integer of 20005 bits exceeds the summation cap SUM_CAP = 40000000"),
        (lambda: tree_weight_sum((2,) * 21), "work = 121634816 exceeds the summation cap SUM_CAP = 40000000"),
        (lambda: tree_weight_traversal((1,) * 18), "height = 18 exceeds the materialization cap BUILD_CAP = 17"),
        # 2^30 * (30 + 16): the work is checked before the height, whose
        # one check is build_tree's.
        (lambda: tree_weight_traversal((1,) * 30), "work = 49392123904 exceeds the summation cap SUM_CAP = 40000000"),
        # 2^17 * (1012 + 16): the walk is bounded by the work of the closed sum.
        (
            lambda: tree_weight_traversal((1,) * 12 + (200,) * 5),
            "work = 134742016 exceeds the summation cap SUM_CAP = 40000000",
        ),
        (lambda: tree_weight_sum((-1,)), "weight exponent must be at least 0: -1"),
        (lambda: tree_weight_sum((True, 2)), "weight exponent must be an integer: True"),
        (lambda: tree_weight_traversal((2, 2.0)), "weight exponent must be an integer: 2.0"),
        (lambda: leaf_theta((1, 2, 3.0)), "path label must be an integer: 3.0"),
        (lambda: leaf_theta((True, 2)), "path label must be an integer: True"),
        (lambda: leaf_theta((1, 3)), "path step must be at most 1: 2"),
        (lambda: leaf_theta((1, 0)), "path step must be at least 0: -1"),
        (lambda: leaf_theta_inverse((True, 1.0)), "increment must be an integer: True"),
        (lambda: leaf_theta_inverse((1, 1.0)), "increment must be an integer: 1.0"),
        (lambda: leaf_theta_inverse((1, 2)), "increment must be at most 1: 2"),
        (lambda: build_tree(-1), "k must be at least 0: -1"),
    ],
)
def test_weight_caps_and_validation(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_traversal_runs_up_to_the_summation_cap():
    # 2^17 * (289 + 16) = 39,976,960, just within SUM_CAP.
    d = (17,) * 17
    assert tree_weight_traversal(d) == tree_weight_sum(d)


def test_traversal_matches_sum_exhaustively():
    for k in range(0, 6):
        for d in itertools.product((0, 1, 2), repeat=k):
            assert tree_weight_traversal(d) == tree_weight_sum(d), d


def test_traversal_matches_sum_sampled():
    rng = random.Random(424211)
    for _ in range(40):
        d = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 12)))
        assert tree_weight_traversal(d) == tree_weight_sum(d), d


def _path_weight_sum(d):
    # The definition: over every root-to-leaf path of the materialized
    # tree, the product of label**d[j-1] over its non-root vertices,
    # negated at each edge whose child repeats its parent's label.
    total = 0
    for path in iter_leaf_paths(build_tree(len(d))):
        w = 1
        for parent, child, exponent in zip(path, path[1:], d):
            w *= child**exponent
            if child == parent:
                w = -w
        total += w
    return total


def test_traversal_matches_the_path_definition():
    for k in range(7):
        for d in itertools.product(range(4), repeat=k):
            assert tree_weight_traversal(d) == _path_weight_sum(d), d


def test_gap_vector_weight_counts_permutations():
    for n in range(2, 11):
        for s in iter_value_sets(n):
            if not s:
                continue
            weight = tree_weight_sum(gap_vector(s))
            assert weight == cdes_formula(n, s), (n, s)
            assert weight >= 0


# The closed forms of a set and of a shape are formula.cube_sum on a gap
# vector; the materialized tree shares no code with it, so these
# properties check the evaluator and the gap vectors independently.


@given(st.lists(st.integers(0, 4), max_size=10).map(tuple))
def test_cube_sum_matches_traversal(d):
    assert cube_sum(d) == tree_weight_traversal(d)


@given(value_sets)
def test_set_routes_match_traversal(s):
    n = max(s, default=1)
    want = tree_weight_traversal(gap_vector(s))
    assert cdes_formula_typed(n, s) == want


@given(shapes)
def test_type_sum_matches_traversal(shape):
    _, s = shape_to_descent_set(shape)
    assert count_tableaux_type_sum(shape) == tree_weight_traversal(gap_vector(s))


def test_tree_node_value_semantics():
    leaf = TreeNode(1, 1)
    assert leaf.children == () and leaf.is_leaf
    assert repr(leaf) == "TreeNode(label=1, height=1, children=())"
    assert repr(build_tree(1)) == (
        "TreeNode(label=1, height=0, children=(TreeNode(label=1, height=1, children=()),"
        " TreeNode(label=2, height=1, children=())))"
    )
    root = TreeNode(label=1, height=0, children=(leaf, TreeNode(2, 1)))
    assert root == build_tree(1) and not root.is_leaf
    assert leaf == TreeNode(1, 1, ()) and leaf != TreeNode(2, 1)
    assert hash(root) == hash(build_tree(1))
    assert len({root, build_tree(1), leaf}) == 2
    for name in ("label", "height", "children"):
        with pytest.raises(AttributeError):
            setattr(leaf, name, 0)
