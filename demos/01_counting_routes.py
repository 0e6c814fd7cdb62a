#!/usr/bin/env python3
"""Four independent ways to count permutations by their descent-value set.

A value v is a "descent value" of a permutation when it sits immediately
before a smaller neighbour.  This script counts the permutations of [n]
whose descent-value set is exactly S by brute force, by the closed
formula, by the minimum-element recursion and by walking the weighted
generating tree, and shows they agree.  The paper also states the
formula run by run; that statement builds the same exponents as the
gaps, so its line is the formula's count under another name.
"""

from cdescent import (
    brute_cdes_count,
    brute_cdes_table,
    cdes_formula,
    cdes_formula_typed,
    cdes_recursive,
    circular_descent_set,
    gap_vector,
    tree_weight_traversal,
)

# The descent values of a single permutation: 8, 6, 3 and 5 each precede
# a smaller entry; 1 never can.
sigma = (4, 8, 6, 3, 2, 5, 1, 7)
print(f"sigma = {sigma}")
print(f"descent-value set = {circular_descent_set(sigma)}")
print()

# Count all permutations of [5] with descent-value set {3, 5}.
n, s = 5, (3, 5)
print(f"How many permutations of [{n}] have descent-value set {s}?")
print(f"  brute-force enumeration              : {brute_cdes_count(n, s)}")
print(f"  alternating-sum formula              : {cdes_formula(n, s)}")
print(f"  run-grouped formula (same exponents) : {cdes_formula_typed(n, s)}")
print(f"  minimum-element recursion            : {cdes_recursive(n, s)}")
print(f"  generating-tree walk                 : {tree_weight_traversal(gap_vector(s))}")
print()

# The whole table for n = 4.  Sets containing 1 never occur; everything
# else does, and the counts add up to 4! = 24.
print("Full table for n = 4:")
table = brute_cdes_table(4)
for key, count in sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0])):
    label = "{" + ",".join(map(str, key)) + "}"
    print(f"  {label:<10} {count}")
print(f"  total      {sum(table.values())}")
print()

# The count never depends on n once n reaches max(S): entries above
# max(S) are frozen in place.
print("n-independence of the count for S = {3, 5}:")
for m in range(5, 9):
    print(f"  n = {m}: {cdes_formula(m, s)}")
print()

# A single descent value m admits a closed form: 2^(m-1) - 1 ways.
print("Singleton sets, exact at any size:")
for m in (5, 10, 64):
    print(f"  cdes({m}, {{{m}}}) = {cdes_formula(m, (m,))}")
