#!/usr/bin/env python3
"""Counting 0/1 fillings of Young diagrams by shape.

A filling is valid when every column holds a 1 and no 0 has both a 1
above it and a 1 to its left.  Walking the diagram's southeast border
turns the shape into a descent-value set, so the closed counting formula
applies; a brute-force search over fillings confirms it, and a
column-by-column transfer count, exponential in rows only, reaches
shapes too wide for the formula.  The paper also states the formula by
the shape's type; that statement builds the same exponents as the
border set's gaps, so the type sum is the formula under another name.
"""

import itertools
import math

from cdescent import (
    brute_count_tableaux,
    count_tableaux_formula,
    count_tableaux_transfer,
    count_tableaux_type_sum,
    format_filling,
    is_valid_tableau,
    iter_shapes,
    shape_to_descent_set,
)

shape = (2, 1)
print(f"All valid fillings of shape {shape}:")
for bits in itertools.product((0, 1), repeat=sum(shape)):
    if is_valid_tableau(shape, bits):
        print(format_filling(shape, bits))
        print()

n, s = shape_to_descent_set(shape)
print(f"Border path of {shape}: length {n}, horizontal steps at {s}")
print(f"  fillings by formula     : {count_tableaux_formula(shape)}")
print(f"  fillings by type sum    : {count_tableaux_type_sum(shape)} (the formula, by type)")
print(f"  fillings by transfer    : {count_tableaux_transfer(shape)}")
print(f"  fillings by brute force : {brute_count_tableaux(shape)}")
print()

wide = (40, 30, 20)
print(f"Shape {wide} is 40 columns wide, past the alternating sum's cap;")
print(f"  fillings by transfer    : {count_tableaux_transfer(wide)}")
print()

print("Shape, border-path set and count, a few more examples:")
for shape in [(1, 1, 1), (3,), (2, 2), (3, 3, 1), (4, 2, 1)]:
    n, s = shape_to_descent_set(shape)
    print(f"  {str(shape):<12} -> n = {n}, S = {s}, count = {count_tableaux_formula(shape)}")
print()

# Shapes of semiperimeter up to n stand for all fillings of length n
# (shorter shapes pad with empty rows); with the empty set they exhaust
# the n! permutations.
n = 6
total = 1 + sum(
    count_tableaux_formula(sh)
    for sh in iter_shapes(n * n, n)
    if len(sh) + sh[0] <= n
)
print(f"1 + sum over shapes of semiperimeter <= {n}: {total} = {n}! = {math.factorial(n)}")
