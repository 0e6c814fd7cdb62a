"""Sparse polynomials in squarefree x-variables and one y-variable, and
the descent-set generating polynomials built on them.

A monomial is a pair ``(xvars, ydeg)``: a sorted tuple of distinct
variable indices, each to the first power, and a nonnegative power of y.
Coefficients are exact integers.  The generating polynomial of order n
assigns each permutation of [n] the monomial ``prod x_{s-1} * y^|S|``
over its descent-value set S (note the index shift: set element s marks
variable x_{s-1}), so the coefficient of a monomial is the number of
permutations with that exact descent-value set.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping

from .perms import TABLE_MAX_N, as_descent_set, check_cap, check_int, check_ints
from .tree import tree_count

Monomial = tuple[tuple[int, ...], int]


def _check_monomial(key: Monomial) -> Monomial:
    xvars, ydeg = key
    xv = tuple(sorted(xvars))
    check_ints("x-variable index", xv, 1)
    if len(set(xv)) != len(xv):
        raise ValueError(f"monomials are squarefree in x: {xvars!r}")
    check_int("y-degree", ydeg, 0)
    return xv, ydeg


class Poly:
    """Immutable sparse polynomial; zero coefficients are never stored.

    Supports +, -, * (with ints and other polynomials), coefficient
    lookup and exact evaluation.  Because the x-variables are
    squarefree, multiplying two terms whose x-supports overlap has no
    representation and raises.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        terms = terms or {}
        check_ints("coefficient", tuple(terms.values()))
        clean: dict[Monomial, int] = {}
        for key, coeff in terms.items():
            key = _check_monomial(key)
            coeff = clean.get(key, 0) + coeff
            if coeff:
                clean[key] = coeff
            else:
                clean.pop(key, None)
        self._terms = clean

    @classmethod
    def constant(cls, value: int) -> "Poly":
        return cls({((), 0): value})

    @classmethod
    def x(cls, i: int) -> "Poly":
        return cls({((i,), 0): 1})

    @classmethod
    def y(cls, degree: int = 1) -> "Poly":
        return cls({((), degree): 1})

    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def coefficient(self, xvars: Iterable[int], ydeg: int) -> int:
        return self._terms.get(_check_monomial((tuple(xvars), ydeg)), 0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical order: ascending y-degree, then lexicographic
        ascending x-variables."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def evaluate(self, x: int | Mapping[int, int] = 1, y: int = 1) -> int:
        """Exact value with every x-variable set to ``x`` (or looked up in a
        mapping) and y set to ``y``."""
        total = 0
        for (xvars, ydeg), coeff in self._terms.items():
            term = coeff * y**ydeg
            for i in xvars:
                term *= x[i] if isinstance(x, Mapping) else x
            total += term
        return total

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            # Compared as Python compares ints, so a bool compares too.
            return self._terms == ({((), 0): other} if other else {})
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict backed; identity hashing would be a trap

    def __add__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            total = merged.get(key, 0) + coeff
            if total:
                merged[key] = total
            else:
                merged.pop(key, None)
        return _raw(merged)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "Poly | int") -> "Poly":
        return self + (-other)

    def __rsub__(self, other: int) -> "Poly":
        return Poly.constant(other) + (-self)

    def __mul__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            return _raw(
                {k: c * other for k, c in self._terms.items()} if other else {}
            )
        if not isinstance(other, Poly):
            return NotImplemented
        product: dict[Monomial, int] = {}
        for (xa, ya), ca in self._terms.items():
            for (xb, yb), cb in other._terms.items():
                if set(xa) & set(xb):
                    raise ValueError(
                        f"cannot square x-variables {sorted(set(xa) & set(xb))}: "
                        "monomials are squarefree"
                    )
                key = (tuple(sorted(xa + xb)), ya + yb)
                total = product.get(key, 0) + ca * cb
                if total:
                    product[key] = total
                else:
                    product.pop(key, None)
        return _raw(product)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (xvars, ydeg), coeff in self.sorted_terms():
            factors = [f"x{i}" for i in xvars]
            if ydeg == 1:
                factors.append("y")
            elif ydeg > 1:
                factors.append(f"y^{ydeg}")
            if coeff != 1 or not factors:
                factors.insert(0, str(coeff))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<Poly {self}>"


def _raw(terms: dict[Monomial, int]) -> Poly:
    # Internal constructor for terms already normalized and zero-free.
    p = Poly.__new__(Poly)
    p._terms = terms
    return p


def gn(n: int) -> Poly:
    """Generating polynomial over all permutations of [n], each weighted
    by its descent-value monomial.  Computed by the derivative recursion

        g_{m+1} = (1 + m*x_m*y) * g_m
                  + x_m * sum_i d(g_m)/d(x_i)
                  - x_m * y^2 * d(g_m)/dy

    from g_2 = 1 + x1*y, not by enumerating permutations.  The recursion
    is applied term by term, in one pass over g_m per step: a term
    c * x_X * y^d keeps its place, adds (m - d) * c to x_X * x_m * y^(d+1)
    (the m*x_m*y and y^2 d/dy terms land there together), and adds c to
    each monomial that swaps one x_i of X for x_m.  As d = |X| in every
    term, the swapped supports are ``itertools.combinations(X, d - 1)``,
    each with m appended.  n above ``perms.TABLE_MAX_N`` is refused.

    Read coefficient by coefficient this is the insertion recurrence of
    ``recursion.cdes_insertion_table``, but the two are kept as separate
    code on purpose: ``verify``'s ``poly-vs-formula`` and
    ``insertion-vs-formula`` are independent checks only while neither
    route is derived from the other.

    >>> str(gn(3))
    '1 + x1*y + 3*x2*y + x1*x2*y^2'
    """
    check_int("n", n, 2)
    check_cap("n", n, "table", "TABLE_MAX_N", TABLE_MAX_N)
    terms: dict[Monomial, int] = {((), 0): 1, ((1,), 1): 1}
    for m in range(2, n):
        step = dict(terms)  # the 1 * g_m part; every other key holds x_m
        tail = (m,)
        for (xvars, ydeg), c in terms.items():
            key = (xvars + tail, ydeg + 1)
            step[key] = step.get(key, 0) + (m - ydeg) * c
            if ydeg:  # the y-degree of every term is its number of x-variables
                for rest in itertools.combinations(xvars, ydeg - 1):
                    key = (rest + tail, ydeg)
                    step[key] = step.get(key, 0) + c
        terms = step
    return _raw(terms)


def descent_set_coefficient(g: Poly, s: Iterable[int]) -> int:
    """Coefficient in ``g`` of the monomial marking descent-value set S:
    variables sit one below their set element and the y-degree is |S|.

    >>> descent_set_coefficient(gn(5), {3, 5})
    17
    """
    s = as_descent_set(s)
    return g.coefficient((v - 1 for v in s), len(s))


def tau(parts: Iterable[int]) -> tuple[int, ...]:
    """Prefix sums of a composition, shifted up by one: the set whose gap
    vector is the reversed composition.

    >>> tau((1, 2))
    (2, 4)
    >>> tau((1, 1, 1))
    (2, 3, 4)
    """
    d = tuple(parts)
    check_ints("composition part", d, 1)
    return tuple(1 + t for t in itertools.accumulate(d))


def gnk(n: int, k: int) -> Poly:
    """The y-degree-k slice of :func:`gn` with the y-power dropped: one
    term per size-k subset S of [2, n], whose coefficient is the tree
    weight of S's gap vector (``tree.tree_count``).

    >>> str(gnk(4, 2))
    'x1*x2 + 3*x1*x3 + 7*x2*x3'
    """
    check_int("n", n, 1)
    check_cap("n", n, "table", "TABLE_MAX_N", TABLE_MAX_N)
    check_int("k", k, 0, n - 1)
    return Poly(
        {
            (tuple(v - 1 for v in s), 0): tree_count(n, s)
            for s in itertools.combinations(range(2, n + 1), k)
        }
    )
