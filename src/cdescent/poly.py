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
import math
import operator
from collections.abc import Iterable, Mapping

from .contract import TABLE_MAX_N, _monomial_keys, as_descent_set, check_cap, check_distinct, check_int, check_ints

Monomial = tuple[tuple[int, ...], int]


def _check_monomial(key: Monomial) -> Monomial:
    xvars, ydeg = key
    xv = tuple(xvars)
    check_ints("x-variable index", xv, 1)  # unsorted: sorting may fail on a non-int
    xv = tuple(sorted(xv))
    check_distinct("monomials are squarefree in x", xv)
    check_int("y-degree", ydeg, 0)
    return xv, ydeg


def _accumulate(terms: dict[Monomial, int], key: Monomial, coeff: int) -> None:
    # Add coeff to the term at key; a term that sums to zero is dropped.
    total = terms.get(key, 0) + coeff
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


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
            _accumulate(clean, _check_monomial(key), coeff)
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
        if isinstance(x, Mapping):
            return sum(
                coeff * y**ydeg * math.prod(x[i] for i in xvars)
                for (xvars, ydeg), coeff in self._terms.items()
            )
        return sum(
            coeff * y**ydeg * x ** len(xvars)
            for (xvars, ydeg), coeff in self._terms.items()
        )

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
            _accumulate(merged, key, coeff)
        return _raw(merged)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "Poly | int") -> "Poly":
        if not isinstance(other, (int, Poly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Poly":
        if not isinstance(other, int):
            return NotImplemented
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
                xv = tuple(sorted(xa + xb))
                check_distinct("monomials are squarefree in x", xv)
                _accumulate(product, (xv, ya + yb), ca * cb)
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

    from g_1 = 1, not by enumerating permutations.  As the
    y-degree of every term is its number of x-variables, g_m is held as
    a plain list of coefficients indexed by bitmask, x_i at bit i - 1.
    A step keeps the list, the 1 * g_m part, and appends a new half for
    the masks holding x_m, in whole-slice passes: first the new entry of
    each mask X is (m - |X|) times the coefficient of X (the m*x_m*y and
    y^2 d/dy terms land there together); then, for each x-variable at bit
    j, every coefficient of a mask holding bit j is added into the new
    entry of the mask without it, the monomial that swaps that variable
    for x_m.  The masks holding bit j come in runs of 2^j every 2^(j+1)
    masks, so a pass takes either its runs or, where runs outnumber their
    length, the columns of entries 2^(j+1) apart: min(2^j, 2^(m-j-2))
    slice operations for each bit.  The ``Monomial`` keys come from the
    shared key list ``contract._monomial_keys``, in the same ascending-bitmask
    order, read after the coefficients and paired with them.  The list is
    built once per process, grown to the largest n asked for, and every
    smaller n reads a prefix of it: it holds the keys of that polynomial,
    ~10.5 MB at n = 17 and ~91 MB at ``contract.TABLE_MAX_N``, which a
    caller holding the polynomial holds anyway.  n above
    ``contract.TABLE_MAX_N`` is refused.

    Read coefficient by coefficient this is the insertion recurrence of
    ``recursion.cdes_insertion_table``, but the two are kept as separate
    code on purpose: ``verify``'s ``poly-vs-formula`` and
    ``insertion-vs-formula`` are independent checks only while neither
    route is derived from the other.  Here slices of a list are added;
    the insertion table shifts and masks packed fields of one int.  The
    two share only how their key lists are kept (``contract._KeyList``),
    each family in its own list, and the checks read the keys off the
    formula table's own sets.

    >>> str(gn(3))
    '1 + x1*y + 3*x2*y + x1*x2*y^2'
    """
    check_int("n", n, 1)
    check_cap("n", n, "table", "TABLE_MAX_N", TABLE_MAX_N)
    coeffs = [1]  # g_1 = 1
    for m in range(1, n):
        top = 1 << (m - 1)  # the bit of x_m
        # The range stops the map before it reads an entry it appended.
        coeffs += map(
            operator.mul,
            map(operator.sub, itertools.repeat(m), map(int.bit_count, range(top))),
            coeffs,
        )
        for j in range(m - 1):
            run = 1 << j
            period = run << 1
            if top // period <= run:  # each run as one slice
                for k in range(0, top, period):
                    new = top + k
                    coeffs[new : new + run] = map(
                        operator.add, coeffs[new : new + run], coeffs[k + run : k + period]
                    )
            else:  # each column of entries a period apart as one slice
                for k in range(run):
                    coeffs[top + k :: period] = map(
                        operator.add, coeffs[top + k :: period], coeffs[k + run : top : period]
                    )
    # The keys come last: the slice passes' temporaries never stand beside
    # the dict, nor beside keys that a first call lists.
    return _raw(dict(zip(_monomial_keys(n), coeffs)))


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
    term per size-k subset S of [2, n], whose coefficient is cdes_n(S).
    It is read off ``gn(n)``, so every slice costs one ``gn(n)``.

    >>> str(gnk(4, 2))
    'x1*x2 + 3*x1*x3 + 7*x2*x3'
    """
    check_int("n", n, 1)
    check_cap("n", n, "table", "TABLE_MAX_N", TABLE_MAX_N)
    check_int("k", k, 0, n - 1)
    return _raw({(xv, 0): c for (xv, ydeg), c in gn(n)._terms.items() if ydeg == k})
