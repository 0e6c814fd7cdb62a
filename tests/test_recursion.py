import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdescent import (
    brute_cdes_table,
    cdes_formula,
    cdes_insertion_table,
    cdes_recursive,
    iter_value_sets,
)
from cdescent.contract import COUNT_MAX_N, RECURSION_CAP, RECURSION_MAX_SIZE, TABLE_MAX_N, as_value_mask
from cdescent.perms import _members
from cdescent import recursion
from cdescent.recursion import _CAP_FREE_BITS, _FIELD_BITS, _insertion_counts, _work

SRC = Path(__file__).resolve().parent.parent / "src"

# S within [2, n] for n <= 64, |S| <= 10.
queries = st.integers(1, 64).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(2, max(n, 2)), max_size=min(10, n - 1)))
)


@pytest.mark.parametrize(
    "n, s, expected",
    [
        (3, (3,), 3),
        (4, (3, 4), 7),
        (9, (2,), 1),
        (6, (), 1),
        (6, (1, 4), 0),
    ],
)
def test_cdes_recursive(n, s, expected):
    assert cdes_recursive(n, s) == expected


def test_recursive_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cdes_recursive(3, (4,))
    with pytest.raises(ValueError):
        cdes_recursive(0, ())


def test_recursion_matches_formula():
    cache = {}
    for n in range(1, 13):
        for s in iter_value_sets(n):
            assert cdes_recursive(n, s, cache) == cdes_formula(n, s), (n, s)


def test_shared_cache_and_fresh_cache_agree():
    shared = {}
    first = cdes_recursive(8, (3, 5, 8), shared)
    assert shared  # composite keys were memoized
    assert cdes_recursive(8, (3, 5, 8), shared) == first
    assert cdes_recursive(8, (3, 5, 8)) == first
    # Cached keys are n-free, so a larger n reuses them unchanged.
    assert cdes_recursive(12, (3, 5, 8), shared) == first


def assert_cache_matches_formula(cache):
    # Every key decodes, element v at bit v, to a set whose count it holds.
    for mask, count in cache.items():
        s = _members(mask)
        assert s and s[0] >= 2, mask
        assert count == cdes_formula(s[-1], s), s


def test_too_deep_recursion_raises_value_error():
    cache = {}
    cdes_recursive(12, (3, 5, 8), cache)
    filled = dict(cache)
    assert filled
    # Every child is one element smaller, so |S| sets the depth: a dense
    # set at the size cap fits under the limit from the top of a stack,
    # but not below as many frames as the limit leaves above the cap.
    limit = sys.getrecursionlimit()
    dense = iter(range(RECURSION_MAX_SIZE + 1, 1, -1))

    def deep(frames):
        return deep(frames - 1) if frames else cdes_recursive(RECURSION_MAX_SIZE + 1, dense, cache)

    with pytest.raises(ValueError) as refused:
        deep(limit - RECURSION_MAX_SIZE)
    assert str(refused.value) == (
        f"the recursion for |S| = {RECURSION_MAX_SIZE} exceeds the interpreter's depth limit {limit}"
    )
    # Only completed values were published, so the cache stays usable.
    assert cache.items() >= filled.items()
    assert_cache_matches_formula(cache)
    assert cdes_recursive(12, (3, 5, 8), cache) == cdes_formula(12, (3, 5, 8))


def test_size_cap_refuses_before_any_state():
    # A dense set at the cap is answered from inside the test runner,
    # whose own frames come first; one element more is refused in the
    # one message of every cap, whatever the depth, and nothing is cached.
    assert RECURSION_MAX_SIZE == 900
    assert cdes_recursive(901, range(2, 902)) == 1
    for n in (902, 1001, 5000):
        cache = {}
        with pytest.raises(ValueError) as refused:
            cdes_recursive(n, range(2, n + 1), cache)
        assert str(refused.value) == (
            f"|S| = {n - 1} exceeds the recursion cap RECURSION_MAX_SIZE = {RECURSION_MAX_SIZE}"
        )
        assert cache == {}


def test_depth_limit_landmarks():
    # The recursion takes one frame per element of S but the last, and
    # the size cap keeps that within the default limit of 1000 frames.
    # Called from the top of a fresh interpreter, [33, 64], [41, 80],
    # [49, 96] and [2, 901] fit; [2, 902], [2, 990] and [2, 1010] are
    # refused by the cap, before the depth limit is reached.
    code = """
from cdescent import cdes_recursive
for n, low in ((64, 33), (80, 41), (96, 49), (901, 2), (902, 2), (990, 2), (1010, 2)):
    try:
        print(cdes_recursive(n, range(low, n + 1)) > 0)
    except ValueError as refused:
        print(refused)
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "True",
        "True",
        "True",
        "True",
        *(f"|S| = {size} exceeds the recursion cap RECURSION_MAX_SIZE = 900" for size in (901, 989, 1009)),
    ]


def test_work_cap_refuses_before_any_state():
    # W(S) * (max(S) + 16) above RECURSION_CAP is refused in one message,
    # and nothing is cached.
    for n, s, work in (
        (4000, (1000, 2000, 3000, 4000), 22053876048),
        (100000, (300, 600, 100000), 13457152800),
        (400, range(201, 401), 1655680000),
    ):
        cache = {}
        with pytest.raises(ValueError) as refused:
            cdes_recursive(n, s, cache)
        assert str(refused.value) == (
            f"work = {work} exceeds the recursion cap RECURSION_CAP = {RECURSION_CAP}"
        )
        assert cache == {}


@pytest.mark.parametrize("pair", [(50000, 100000), (70000, 99000), (99999, 100000)])
def test_work_cap_never_refuses_a_pair(pair):
    # W(S) charges a pair min(S) - 1 and puts these far past the cap, yet
    # a pair is one closed form: answered, and the fresh cache holds it alone.
    assert _work(_mask(pair)) * (pair[1] + 16) > RECURSION_CAP
    cache = {}
    count = cdes_recursive(100000, pair, cache)
    assert count == cdes_formula(100000, pair)
    assert cache == {_mask(pair): count}


def _mask(s):
    return sum(1 << v for v in s)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(2, 400), min_size=2, max_size=40))
def test_work_is_at_most_the_cube_of_the_maximum(s):
    # Why sets below bit _CAP_FREE_BITS skip the count of W(S).
    assert _work(_mask(s)) <= max(s) ** 3
    m = _CAP_FREE_BITS
    assert (m - 1) ** 3 * (m - 1 + 16) <= RECURSION_CAP < m**3 * (m + 16)


class _CountedRow(tuple):
    # A binomial row that counts the terms read from it: one multiply-add
    # of _fill's summed loop each.
    reads = 0

    def __iter__(self):
        for c in super().__iter__():
            _CountedRow.reads += 1
            yield c


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(2, 64), min_size=2))
def test_summed_loop_stays_within_the_charged_work(s):
    # RECURSION_CAP reads W(S) as a bound on the multiply-adds of a fresh
    # evaluation: every step of _fill with U composite and min(S) >= 3
    # runs the summed loop over a binomial row, a min(S) = 2 step reads
    # none, and all of them together never read more terms than W(S).
    expected = cdes_recursive(max(s), s)
    rows = [_CountedRow(row) for row in recursion._BINOMIAL_ROWS]
    _CountedRow.reads = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recursion, "_BINOMIAL_ROWS", rows)
        assert cdes_recursive(max(s), s, {}) == expected
    assert _CountedRow.reads <= _work(_mask(s))
    # A set of three or more elements with min(S) >= 3 reads at least its own row.
    assert _CountedRow.reads > 0 or len(s) == 2 or min(s) == 2


def _reachable(s):
    # The composite sets a fresh evaluation of the sorted tuple s caches:
    # s, then from each set {a} + U its children U - j, j in [1, a - 1].
    # Singletons are closed forms, never cached.
    seen = set()
    stack = [s]
    while stack:
        t = stack.pop()
        if len(t) < 2 or t in seen:
            continue
        seen.add(t)
        stack += [tuple(v - j for v in t[1:]) for j in range(1, t[0])]
    return seen


class _WriteLog(dict):
    # A cache that logs the key of every write.
    def __init__(self):
        super().__init__()
        self.writes = []

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)


def test_fresh_cache_holds_exactly_the_reachable_sets():
    # The recursion's work: a fresh cache holds exactly the sets reachable
    # by U -> U - j, 1 + sum over d <= k - 2 of (s_d - d) of them, and
    # charging each min - 1, pairs included, gives W(S), the bound on the
    # multiply-adds that the cap reads.  Every set is computed and
    # written once; through a shared cache, no state is computed again.
    shared = _WriteLog()
    for s in iter_value_sets(10):
        cache = _WriteLog()
        cdes_recursive(10, s, cache)
        assert len(cache.writes) == len(cache), s
        cached = set(map(_members, cache))
        assert cached == _reachable(s), s
        if len(s) >= 2:
            assert len(cache) == 1 + sum(s[d - 1] - d for d in range(1, len(s) - 1)), s
            assert sum(t[0] - 1 for t in cached) == _work(_mask(s)), s
            # No child outworks its parent, so the cap never refuses a cached set.
            assert max(map(_work, cache)) == _work(_mask(s)), s
        else:
            assert not cache, s
        cdes_recursive(10, s, shared)
    assert len(shared.writes) == len(shared)


def _oracle_cdes_recursive(n, s, cache=None):
    # The three-branch minimum-element recursion, as the package ran it
    # before its first branch was summed, kept verbatim as an oracle.
    mask = as_value_mask(s, n=n)
    if mask & (mask - 1) == 0:
        # The empty set, or the singleton {m} at bit m: 2^(m-1) - 1.
        return (1 << (mask.bit_length() - 2)) - 1 if mask else 1
    if mask & 2:
        return 0
    if cache is None:
        cache = {}
    value = cache.get(mask)
    if value is not None:
        return value
    try:
        return _oracle_fill(mask, cache)
    except RecursionError:
        raise ValueError(
            f"the recursion for max(S) = {mask.bit_length() - 1} exceeds the "
            f"interpreter's depth limit {sys.getrecursionlimit()}"
        ) from None


def _oracle_fill(mask, cache):
    # The count of a composite set without 1 that is missing from the
    # cache, its children resolved in this frame.  The first two children
    # keep the size of S, so only the last can be a singleton, and no
    # child is empty or holds 1.
    low = mask & -mask
    if low == 4:
        # Only the third branch survives: the 2 forces its companion 1
        # immediately to its right, and deleting the pair reduces n by one.
        child = (mask ^ 4) >> 1
        if child & (child - 1) == 0:
            value = (1 << (child.bit_length() - 2)) - 1
        else:
            value = cache.get(child)
            if value is None:
                value = _oracle_fill(child, cache)
    else:
        below = low >> 1  # the bit of min(S) - 1
        shifted = mask >> 1
        child = mask ^ low ^ below
        value = cache.get(child)
        if value is None:
            value = _oracle_fill(child, cache)
        part = cache.get(shifted)
        if part is None:
            part = _oracle_fill(shifted, cache)
        value += part
        child = shifted ^ below
        if child & (child - 1) == 0:
            value += (1 << (child.bit_length() - 2)) - 1
        else:
            part = cache.get(child)
            if part is None:
                part = _oracle_fill(child, cache)
            value += part
    cache[mask] = value
    return value


def _in_deep_thread(call):
    # call() in a worker thread with a 64 MB stack and a recursion limit of
    # 20,000: the oracle takes one frame per state of its deepest chain,
    # sum of (s_i - i), over 2,000 for [49, 96].  Both are restored after.
    stack = threading.stack_size(64 << 20)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        with ThreadPoolExecutor(1) as pool:
            return pool.submit(call).result(timeout=120)
    finally:
        threading.stack_size(stack)
        sys.setrecursionlimit(limit)


def test_summed_recursion_matches_the_three_branch_oracle():
    # Every set of [2, 12], and every pair of [2, 60]: the pair leaf's
    # closed form against the oracle's three branches, which stay under
    # 120 frames deep for these pairs.
    cases = [(12, s) for s in iter_value_sets(12)]
    cases += [(60, pair) for pair in itertools.combinations(range(2, 61), 2)]
    oracle_shared = {}
    expected = {case: _oracle_cdes_recursive(*case, oracle_shared) for case in cases}
    shared = {}
    for (n, s), count in expected.items():
        assert cdes_recursive(n, s) == count, s
        assert cdes_recursive(n, s, shared) == count, s
    assert shared.items() <= oracle_shared.items()
    rng = random.Random(120)
    deep = [(80, tuple(range(41, 81))), (96, tuple(range(49, 97)))]
    for _ in range(50):
        n = rng.randint(20, 120)
        deep.append((n, tuple(sorted(rng.sample(range(2, n + 1), rng.randint(2, 8))))))
    wanted = _in_deep_thread(lambda: [_oracle_cdes_recursive(n, s) for n, s in deep])
    assert [cdes_recursive(n, s) for n, s in deep] == wanted


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, COUNT_MAX_N).flatmap(
        lambda m: st.tuples(st.integers(2, min(m - 1, RECURSION_CAP // (m + 16) + 1)), st.just(m))
    )
)
def test_deep_pairs_close_in_one_formula(pair):
    # Pairs up to the count cap that the work cap lets through: each is
    # one closed form, and the fresh cache holds that pair alone.
    m = pair[1]
    assert _work(_mask(pair)) * (m + 16) <= RECURSION_CAP
    cache = {}
    count = cdes_recursive(m, pair, cache)
    assert count == cdes_formula(m, pair)
    assert cache == {_mask(pair): count}


def test_cache_keys_are_bitmasks_of_sets():
    cache = {}
    for n in range(1, 11):
        for s in iter_value_sets(n):
            cdes_recursive(n, s, cache)
    # Composite subproblems only: every set of [2, 10] with two or more
    # elements is a key, and nothing else is.
    assert sorted(map(_members, cache)) == sorted(s for s in iter_value_sets(10) if len(s) >= 2)
    assert_cache_matches_formula(cache)


def test_shared_cache_sweep_matches_the_insertion_table():
    # Every set of [2, 12] through one cache, cold then warm: each count is
    # the table's, and the cache holds every set but the empty set and the
    # singletons, however the set was checked on its way in.
    table = cdes_insertion_table(12)
    cache = {}
    for _ in range(2):
        assert {s: cdes_recursive(12, s, cache) for s in table} == table
        assert len(cache) == 2**11 - 12


def test_min_two_sets_share_their_childs_int():
    # After a cold sweep of [2, 12] through one cache, a cached set
    # {2} + U, U composite, holds its child U - 1's own int object.
    cache = {}
    for s in iter_value_sets(12):
        cdes_recursive(12, s, cache)
    shared = [m for m in cache if m & 4 and (m ^ 4) & ((m ^ 4) - 1)]
    assert len(shared) == 2**10 - 11
    assert all(cache[m] is cache[(m ^ 4) >> 1] for m in shared)


@settings(max_examples=100, deadline=None)
@given(st.lists(queries, min_size=1, max_size=5))
def test_recursion_matches_formula_beyond_the_sweep(batch):
    shared = {}
    for n, s in batch:
        expected = cdes_formula(n, s)
        assert cdes_recursive(n, s) == expected, (n, s)
        assert cdes_recursive(n, s, shared) == expected, (n, s)


def test_insertion_table_small():
    assert cdes_insertion_table(2) == {(): 1, (2,): 1}
    assert cdes_insertion_table(3) == {(): 1, (2,): 1, (3,): 3, (2, 3): 1}
    table4 = cdes_insertion_table(4)
    assert table4[(4,)] == 7
    assert table4[(2, 3, 4)] == 1
    assert cdes_insertion_table(1) == {(): 1}
    with pytest.raises(ValueError, match="^n must be at least 1: 0$"):
        cdes_insertion_table(0)


def test_insertion_matches_formula_and_mass():
    for n in range(2, 13):
        table = cdes_insertion_table(n)
        assert len(table) == 2 ** (n - 1)
        assert sum(table.values()) == math.factorial(n)
        for s, count in table.items():
            assert count == cdes_formula(n, s), (n, s)


def test_insertion_step_with_explicit_i_equals_1_term():
    # The insertion sum may formally run over i in [1, n-1]: the i = 1
    # term counts sets containing 1 and is identically zero.
    for n in range(3, 8):
        small = cdes_insertion_table(n - 1)
        grown = cdes_insertion_table(n)
        for s, count in small.items():
            members = set(s)
            total = (n - 1 - len(s)) * count
            for i in range(1, n):
                if i not in members:
                    total += cdes_formula(n - 1, tuple(sorted((*s, i))))
            assert total == grown[(*s, n)], (n, s)


def test_regrouped_insertion_step_matches_formula():
    # count_n(S + {n}) = c(S) + sum over i in [2, n-1] outside S of
    # (c(S) + c(S + {i})), c = cdes_formula(n - 1, .): the step the packed
    # insertion table takes, one whole-int pass per i.
    for n in range(3, 9):
        for s in iter_value_sets(n - 1):
            c = cdes_formula(n - 1, s)
            total = c + sum(
                c + cdes_formula(n - 1, tuple(sorted((*s, i))))
                for i in range(2, n)
                if i not in s
            )
            assert total == cdes_formula(n, (*s, n)), (n, s)


def test_insertion_fields_hold_every_count_below_the_cap():
    # Every count of a table is below n!; with TABLE_MAX_N! below 2^63 no
    # field of the packed table can carry into the next.  Raising the cap
    # past 20 needs wider fields.
    assert math.factorial(TABLE_MAX_N) < 2 ** (_FIELD_BITS - 1)


def test_insertion_matches_brute_scan():
    for n in range(2, 9):
        table = cdes_insertion_table(n)
        brute = brute_cdes_table(n)
        assert set(table) == set(iter_value_sets(n))
        for s in iter_value_sets(n):
            assert table[s] == brute.get(s, 0), (n, s)


def test_insertion_matches_recursion():
    cache = {}
    for n in range(2, 13):
        for s, count in cdes_insertion_table(n).items():
            assert count == cdes_recursive(n, s, cache), (n, s)


def test_insertion_keys_ascend_by_bitmask():
    # Element v sits at bit v - 2; each step appends the sets containing
    # the new maximum after all the sets that do not.
    for n in range(2, 13):
        masks = [sum(1 << (v - 2) for v in s) for s in cdes_insertion_table(n)]
        assert masks == list(range(2 ** (n - 1))), n


def test_insertion_table_cap():
    with pytest.raises(ValueError, match=f"TABLE_MAX_N = {TABLE_MAX_N}"):
        cdes_insertion_table(TABLE_MAX_N + 1)


def _listed_insertion_table(n):
    # The table with its counts first unpacked into a list and its keys
    # grown by list comprehension, as it was once built: the reference
    # for the peak memory below.
    view = _insertion_counts(n)
    counts = view.tolist()
    del view
    keys = [()]
    for m in range(2, n + 1):
        tail = (m,)
        keys += [s + tail for s in keys]
    return dict(zip(keys, counts))


def _peak_bytes(build, n):
    build(n)  # a first call settles the allocator's free lists
    tracemalloc.start()
    try:
        build(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _first_call_peak_bytes(build, n):
    # The peak of build(n) as the first call of a fresh interpreter, where
    # the shared key lists hold the empty key alone, so a library builder
    # lists every key; a reference from the tests runs there from its source.
    if build.__module__.startswith("cdescent."):
        source = f"from {build.__module__} import {build.__name__}"
    else:
        source = inspect.getsource(build)
    code = f"""
import itertools, tracemalloc
from cdescent.recursion import _insertion_counts
{source}
tracemalloc.start()
{build.__name__}({n})
print(tracemalloc.get_traced_memory()[1])
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_insertion_table_peaks_no_higher_than_a_listed_build():
    # The counts are read off the packed fields only as the dict takes
    # them, so no list of 2^16 counts stands beside the growing dict.  A
    # warm call finds its keys listed; a first call lists them.
    assert _listed_insertion_table(12) == cdes_insertion_table(12)
    assert _peak_bytes(cdes_insertion_table, 17) <= _peak_bytes(_listed_insertion_table, 17)
    assert _first_call_peak_bytes(cdes_insertion_table, 17) <= _first_call_peak_bytes(_listed_insertion_table, 17)
