"""The keys of the whole tables, listed once per process, one list per
key family, each grown to the largest n asked for: the sorted tuples
over [2, N] of ``recursion.cdes_insertion_table`` (``_value_set_keys``)
and the ``(xvars, ydeg)`` monomials over [1, N - 1] of ``poly.gn``
(``_monomial_keys``), both in ascending bitmask order, so the keys of
every smaller n are a prefix of the list (``_KeyList``).  The brute
tables label their keys with ``perms._members`` instead, so the oracle's
labels stay independent of these lists.

Only those two builders import this module, inside their bodies, so a
call that builds no whole table does not load it.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterable, Iterator


class _KeyList:
    """One family of table keys, listed once per process: a key for every
    subset of the values from ``first`` up, in ascending bitmask order
    with value ``first + i`` at bit i, so the keys of a table of n are
    the first 2^(n-1) keys of the list grown for any larger n, and
    ``dict(zip(keys, counts))`` reads them with no copy or slice (``zip``
    stops where the counts end).  ``grow(keys, (v,))`` gives the keys of
    the subsets holding v, one from each of the len(keys) subsets before
    them, while they are appended to ``keys``: unbounded, it would chase
    its own tail until memory ran out.

    The list is grown to the largest n asked for.  A caller that needs
    more keys than the published list holds gets them one by one, each
    appended to a longer list built beside the published one as it is
    read, so each key is made as the caller's table takes it, and a first
    call peaks no higher than one that lists no keys ahead; read to its
    end, as ``zip(keys, counts)`` reads it, the longer list is published
    with one assignment.  A published list is never changed, so a caller
    on any thread reads a complete one; two callers growing it at once
    each build their own, and the last assignment stands, to be grown
    again if it is the shorter.  While a caller holds the table of the
    largest n, the list costs 8 bytes per entry: the table holds the same
    keys.
    """

    def __init__(self, empty: object, first: int, grow: Callable[[list, tuple[int]], Iterable]):
        self._keys = [empty]  # the table of n = 1: the empty set alone
        self._first = first
        self._grow = grow

    def __call__(self, n: int) -> Iterable:
        keys = self._keys
        return keys if len(keys) >= 1 << (n - 1) else self._listing(keys, n)

    def _listing(self, keys: list, n: int) -> Iterator:
        keys = keys.copy()
        yield from keys
        top = self._first + len(keys).bit_length() - 1  # the next value to list
        for v in range(top, self._first + n - 1):
            for key in self._grow(keys, (v,)):
                keys.append(key)
                yield key
        self._keys = keys


# The keys of ``recursion.cdes_insertion_table``: the subsets of [2, N] as
# sorted tuples.
_value_set_keys = _KeyList((), 2, lambda keys, tail: map(operator.add, keys, itertools.repeat(tail, len(keys))))
# The keys of ``poly.gn``: the monomials (xvars, |xvars|), xvars a subset
# of [1, N - 1] as a sorted tuple.
_monomial_keys = _KeyList(
    ((), 0), 1, lambda keys, tail: ((xvars + tail, ydeg + 1) for xvars, ydeg in itertools.islice(keys, len(keys)))
)
