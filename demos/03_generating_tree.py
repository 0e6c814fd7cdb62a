#!/usr/bin/env python3
"""The weighted generating tree behind the counting formula.

A root labelled 1 grows by the rule "label k begets labels k and k+1".
Given exponents d = (d_1, ..., d_k), a vertex at height j with label l
weighs l**d_j, edges weigh +1 (label up) or -1 (label repeated), and the
sum of signed path weights over the 2^k leaves counts permutations when
d is the gap vector of a descent-value set.
"""

from cdescent import (
    build_tree,
    cdes_formula,
    gap_vector,
    iter_leaf_paths,
    leaf_theta,
    leaf_theta_inverse,
    tree_weight_sum,
    tree_weight_traversal,
)
from cdescent.cli_extra import format_tree

print("The tree of height 2, as `height label sign` lines:")
print(format_tree(build_tree(2)))
print()

print("Each leaf path encodes a binary vector (its label increments):")
for path in iter_leaf_paths(build_tree(2)):
    bits = leaf_theta(path)
    assert leaf_theta_inverse(bits) == path
    print(f"  path {path} <-> bits {bits}")
print()

# S = {2, 4} has gap vector (2, 1): from 4 down to 2 is 2, from 2 down
# to the floor 1 is 1.
s = (2, 4)
d = gap_vector(s)
print(f"S = {s} has gap vector d = {d}")
print(f"  walking the materialized tree : {tree_weight_traversal(d)}")
print(f"  closed alternating sum        : {tree_weight_sum(d)}")
print(f"  permutations of [4] counted   : {cdes_formula(4, s)}")
print()

# Order matters: the reversed exponents belong to a different set.
print(f"Reversed exponents {d[::-1]} weigh {tree_weight_sum(d[::-1])},")
print(f"which is the count for S = {{3, 4}}: {cdes_formula(4, (3, 4))}")
print()

# The closed sum tolerates zero exponents, where weights can cancel to 0
# or go negative; such sequences are no longer gap vectors of any set.
for d in [(0,), (0, 1), (2, 0)]:
    print(f"  weight{d} = {tree_weight_sum(d)}")
