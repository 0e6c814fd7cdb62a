"""Weighted binary generating tree.

The tree grows from a root labelled 1 by the rule that a node labelled k
has two children, labelled k and k + 1.  Truncated at height k it has 2^k
leaves, and reading off the label increments along a root-to-leaf path is
a bijection onto {0,1}^k (``leaf_theta``).

Given a weight sequence d, a non-root vertex at height j with label l
weighs l**d[j-1]; an edge weighs +1 when the child label increments and
-1 when it repeats.  The sum of signed path weights over all leaves can
be computed two ways: by walking the materialized tree
(:func:`tree_weight_traversal`), or as a closed alternating sum over
{0,1}^k with no tree at all (:func:`tree_weight_sum`).  The closed sum is
``formula.cube_sum`` with d as the exponents, the one evaluator of the
package; the walk shares no code with it.  When d is the gap vector of a
descent-value set S, both equal the number of permutations with
descent-value set S, so the count of S by the tree is
``formula.cdes_formula``.  ``verify`` checks the walk against the
formula table on the gap vector of every set of [2, n], n <= 8
(``tree-sum-vs-formula``), and against the closed sum on seeded weight
sequences (``tree-traversal-vs-closed-sum``).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .contract import BUILD_CAP, COUNT_MAX_N, check_cap, check_int, check_ints
from .formula import check_sum_work, cube_sum


class TreeNode(namedtuple("TreeNode", "label height children", defaults=((),))):
    """An immutable tree node: ``TreeNode(label, height, children=())``,
    children a tuple of nodes."""

    __slots__ = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


def build_tree(k: int) -> TreeNode:
    """Materialize the full tree of height k, its 2^k root-to-leaf paths
    held by (k + 1)(k + 2)/2 nodes.

    The subtree under a node depends only on its height and label, so the
    tree is built bottom-up with one node per (height, label), which
    every parent with a child there shares.  Children are ordered
    repeating label first, then incremented label.

    >>> root = build_tree(1)
    >>> [(c.height, c.label) for c in root.children]
    [(1, 1), (1, 2)]
    >>> root = build_tree(2)
    >>> root.children[0].children[1] is root.children[1].children[0]
    True
    """
    check_int("k", k, 0)
    check_cap("height", k, "materialization", "BUILD_CAP", BUILD_CAP)
    level = [TreeNode(label, k) for label in range(1, k + 2)]
    for height in range(k - 1, -1, -1):
        # level[label - 1] is the node (label, height + 1)
        level = [
            TreeNode(label, height, (level[label - 1], level[label]))
            for label in range(1, height + 2)
        ]
    return level[0]


def iter_leaf_paths(root: TreeNode) -> Iterator[tuple[int, ...]]:
    """Root-to-leaf label sequences, repeating-label branch first."""
    stack: list[tuple[TreeNode, tuple[int, ...]]] = [(root, (root.label,))]
    while stack:
        node, path = stack.pop()
        if node.is_leaf:
            yield path
        else:
            for child in reversed(node.children):
                stack.append((child, (*path, child.label)))


def _check_weights(d: Iterable[int]) -> tuple[int, ...]:
    w = tuple(d)
    check_ints("weight exponent", w, 0)
    check_cap("exponent total", sum(w), "count", "COUNT_MAX_N", COUNT_MAX_N)
    return w


def tree_weight_traversal(d: Sequence[int]) -> int:
    """Total signed path weight of the height-len(d) tree, by one
    depth-first walk of every root-to-leaf path of the materialized tree:
    each visited node's signed path product is its parent's times its own
    weight, one power per visit, and the leaves' products are summed.
    The work that :func:`tree_weight_sum` refuses is refused first (the
    walk has 2^len(d) leaves), then a height above ``contract.BUILD_CAP``
    (:func:`build_tree`), before any node is built.

    >>> tree_weight_traversal((2, 1))
    3
    >>> tree_weight_traversal((0,))
    0
    """
    weights = _check_weights(d)
    check_sum_work(weights)
    total = 0
    stack = [(build_tree(len(weights)), 1)]  # (node, signed product from the root)
    while stack:
        node, w = stack.pop()
        if not node.children:
            total += w
            continue
        exponent = weights[node.height]  # the weight of the children's height
        for child in node.children:
            cw = w * child.label**exponent
            stack.append((child, -cw if child.label == node.label else cw))
    return total


def tree_weight_sum(d: Sequence[int]) -> int:
    """Closed form of :func:`tree_weight_traversal`: ``formula.cube_sum``
    with d as the exponents, no tree materialized.  Work above
    ``contract.SUM_CAP`` is refused.

    >>> tree_weight_sum((4,))
    15
    >>> tree_weight_sum((1, 1, 2))
    15
    """
    return cube_sum(_check_weights(d))


def leaf_theta(path: Sequence[int]) -> tuple[int, ...]:
    """Binary increment pattern of a root-to-leaf label path.

    >>> leaf_theta((1, 2, 3))
    (1, 1)
    >>> leaf_theta((1, 2, 2))
    (1, 0)
    """
    p = tuple(path)
    if not p or p[0] != 1:
        raise ValueError("paths start at the root label 1")
    check_ints("path label", p)
    steps = tuple(b - a for a, b in itertools.pairwise(p))
    check_ints("path step", steps, 0, 1)
    return steps


def leaf_theta_inverse(bits: Sequence[int]) -> tuple[int, ...]:
    """Rebuild the label path from its increment pattern.

    >>> leaf_theta_inverse((1, 0))
    (1, 2, 2)
    """
    check_ints("increment", bits, 0, 1)
    return tuple(itertools.accumulate(bits, initial=1))
