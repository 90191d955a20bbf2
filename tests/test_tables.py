"""The combinatorial tables of symspace against the per-entry loops they
replace: the recursive occupation generator, the split-table loop that
looked each m = a + b up in a {tuple: index} dict and took each coefficient
as math.sqrt of an exact integer ratio, and the index map built from d
outer sums at once.  Also the memos of the index maps and split tables,
each bounded by the bytes it holds."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdist import symspace
from symdist.definetti import OccupationState
from symdist.scenario import emit, run_scenario, scenario_from_dict
from symdist.symspace import (
    _half_log_multiplicities,
    _index_map,
    _occupation_table,
    _rank,
    plan,
    split_table,
    sym_dim,
)

from dense_oracles import index_map_by_outer_sums

SPLIT_FIELDS = ("whole", "whole_coef", "rest", "rest_coef")
# sizes past the float64 and int64 ranges of binom(n, k) and sym_dim
BIG_SPLITS = [(2, 1027, 3), (3, 67, 3), (2, 1036, 12), (4, 20, 5)]


def _occupations(d, n):
    """All (n_1..n_d) with sum n, lexicographically descending."""
    if d == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _occupations(d - 1, n - first):
            yield (first,) + rest


def _split_oracle(d, n, k):
    occ_k = list(_occupations(d, k))
    occ_rest = list(_occupations(d, n - k))
    index_n = {occ: c for c, occ in enumerate(_occupations(d, n))}
    total = math.comb(n, k)
    whole = np.empty((len(occ_k), len(occ_rest)), dtype=np.int64)
    coef = np.empty(whole.shape)
    for i, a in enumerate(occ_k):
        for j, b in enumerate(occ_rest):
            m = tuple(x + y for x, y in zip(a, b))
            whole[i, j] = index_n[m]
            hits = math.prod(math.comb(x, y) for x, y in zip(m, a))
            coef[i, j] = math.sqrt(hits / total)
    rows = np.arange(len(occ_k))[:, None]
    rest = np.zeros((len(index_n), len(occ_k)), dtype=np.int64)
    rest_coef = np.zeros(rest.shape)
    rest[whole, rows] = np.arange(len(occ_rest))[None, :]
    rest_coef[whole, rows] = coef
    return whole, coef, rest, rest_coef


def _assert_split_matches(d, n, k):
    got = split_table(d, n, k)
    for field, want in zip(SPLIT_FIELDS, _split_oracle(d, n, k)):
        have = getattr(got, field)
        assert have.dtype == want.dtype, (d, n, k, field)
        assert np.array_equal(have, want), (d, n, k, field)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_occupation_order_matches_the_generator(d):
    for n in range(13):
        occ = _occupation_table(d, n)
        assert occ.shape == (sym_dim(d, n), d)
        assert occ.tolist() == [list(m) for m in _occupations(d, n)]
        assert not occ.flags.writeable


@pytest.mark.parametrize("d,n", [(d, n) for d in range(1, 6) for n in range(13)]
                         + [(2, 2000), (3, 67), (4, 20), (9, 4)])
def test_rank_round_trip(d, n):
    occ = _occupation_table(d, n)
    col = _rank(occ.T, d, n, np.zeros(len(occ), dtype=np.int64))
    assert np.array_equal(col, np.arange(len(occ)))


@pytest.mark.parametrize("d,n", [(2, 1024), (3, 60), (4, 20), (1, 7), (3, 0)])
def test_half_log_multiplicities_match_the_loop(d, n):
    # mult(m) as the product of math.comb over the running totals, one
    # occupation at a time; the table takes the log of the same integers
    def mult(occ):
        return math.prod(math.comb(t, x) for t, x in
                         zip(itertools.accumulate(occ), occ))

    want = np.array([0.5 * math.log(mult(m)) for m in _occupations(d, n)])
    assert np.array_equal(_half_log_multiplicities(d, n), want)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_split_tables_match_the_loop(d):
    for n in range(13):
        for k in range(n + 1):
            _assert_split_matches(d, n, k)


@pytest.mark.parametrize("d,n,k", BIG_SPLITS)
def test_split_tables_match_the_loop_with_big_integers(d, n, k):
    if (d, n, k) == (2, 1036, 12):
        assert math.comb(n, k) > 2 ** 63  # beyond int64, let alone float64
    _assert_split_matches(d, n, k)


@st.composite
def _splits(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, {1: 200, 2: 200, 3: 24, 4: 12}[d]))
    return d, n, draw(st.integers(0, n))


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(case=_splits())
def test_split_table_matches_the_loop_anywhere(case):
    _assert_split_matches(*case)


def test_cold_build_stays_under_the_route_estimate():
    # the tables of a lemma1 run at d = 3, M = 64, k = 1..3, from empty
    # caches: marginals read the first layout, reductions both
    ks = (1, 2, 3)
    split_table.cache_clear()
    _occupation_table.cache_clear()
    tracemalloc.start()
    try:
        for k in ks:
            split_table(3, 64, k)
            t = split_table(3, 64 + k, k)
            assert t.rest.shape == t.rest_coef.shape == (sym_dim(3, 64 + k),
                                                         sym_dim(3, k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(nbytes for _, nbytes in plan(3, 64, ks).stages)


@pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 6), (4, 11), (9, 6), (16, 4),
                                 (2, 14), (1, 3), (3, 0), (1, 0), (5, 1), (32, 2)])
def test_index_map_matches_the_outer_sum_builder(d, n):
    _index_map.cache_clear()
    got, want = _index_map(d, n), index_map_by_outer_sums(d, n)
    for field in ("col", "weight", "scale", "order", "starts"):
        have, expected = getattr(got, field), getattr(want, field)
        assert have.dtype == expected.dtype, field
        assert np.array_equal(have, expected), field
    _index_map.cache_clear()


@pytest.mark.parametrize("d,n", [(2, 16), (4, 8), (9, 5), (1024, 2)])
def test_index_map_builds_in_64_bytes_an_entry(d, n):
    # the figure of the plan's dense stages; a d^n x d array of counts alone would
    # take 8d bytes an entry, 72 at d = 9.  At d = 1024 the occupation table
    # of one factor is built too, from an empty memo: d^2 entries of 8 bytes
    _index_map.cache_clear()
    _occupation_table.cache_clear()
    tracemalloc.start()
    try:
        _index_map(d, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * d ** n


def _noisy_theorem2(m_users, ks):
    return scenario_from_dict({
        "schema": 1,
        "channel": {"kind": "noisy_cloner", "d": 2, "N": 1, "M": m_users, "p": 0.1},
        "input": {"type": "random_pure", "seed": 0},
        "k": ks, "checks": ["theorem2"],
    })


def _map_bytes(v):
    return sum(a.nbytes for a in vars(v).values())


def test_index_map_cache_keeps_at_most_its_bytes_after_a_theorem2_run():
    # the 10-qubit noisy cloner purifies into pairs at d^2 = 4, whose index
    # map takes 24 MiB (96 MiB at 11 qubits); the memo keeps none of it
    assert symspace.INDEX_MAP_CACHE_BYTES == 2 ** 24
    _index_map.cache_clear()
    split_table.cache_clear()
    tracemalloc.start()
    try:
        row, = run_scenario(_noisy_theorem2(10, [1]))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert row.satisfied_theorem2
    assert held <= 2 ** 24
    kept = [v for v, _ in symspace._INDEX_MAPS.values()]
    assert sum(map(_map_bytes, kept)) <= 2 ** 24
    assert (4, 10) not in symspace._INDEX_MAPS


def test_index_map_cache_evicts_the_least_recently_used(monkeypatch):
    _index_map.cache_clear()
    limit = _map_bytes(_index_map(2, 5)) + _map_bytes(_index_map(3, 3))
    _index_map.cache_clear()
    monkeypatch.setattr(symspace, "INDEX_MAP_CACHE_BYTES", limit)
    first = _index_map(2, 5)
    _index_map(3, 3)
    assert _index_map(2, 5) is first  # a hit, now the most recently used
    _index_map(2, 4)  # evicts (3, 3)
    assert list(symspace._INDEX_MAPS) == [(2, 5), (2, 4)]
    big = _index_map(2, 9)  # larger than the bound: built, not kept
    assert _map_bytes(big) > limit
    assert list(symspace._INDEX_MAPS) == [(2, 5), (2, 4)]
    assert _index_map(2, 5) is first
    _index_map.cache_clear()


def test_a_second_small_theorem2_run_builds_no_table(monkeypatch):
    # the warm memo a session of small scenarios keeps: no index map (nor
    # split table) is ranked again
    cfg = _noisy_theorem2(4, [1, 2])
    first = emit(run_scenario(cfg))

    def refuse(*args):
        raise AssertionError("a table was built again")

    monkeypatch.setattr(symspace, "_rank", refuse)
    assert emit(run_scenario(cfg)) == first


def _split_bytes(t):
    return sum(a.nbytes for a in (t.whole, t.whole_coef, t.rest, t.rest_coef))


def test_split_table_bytes_count_both_layouts():
    split_table.cache_clear()
    t = split_table(3, 12, 2)
    (held, counted), = symspace._SPLIT_TABLES.values()
    assert held is t and counted == _split_bytes(t)  # rest is built on reading
    split_table.cache_clear()


def test_split_table_cache_evicts_the_least_recently_used(monkeypatch):
    split_table.cache_clear()
    limit = _split_bytes(split_table(2, 9, 3)) + _split_bytes(split_table(3, 6, 2))
    split_table.cache_clear()
    monkeypatch.setattr(symspace, "SPLIT_TABLE_CACHE_BYTES", limit)
    first = split_table(2, 9, 3)
    split_table(3, 6, 2)
    assert split_table(2, 9, 3) is first  # a hit, now the most recently used
    split_table(2, 8, 3)  # evicts (3, 6, 2)
    assert list(symspace._SPLIT_TABLES) == [(2, 9, 3), (2, 8, 3)]
    big = split_table(3, 30, 3)  # larger than the bound: built, not kept
    assert _split_bytes(big) > limit
    assert list(symspace._SPLIT_TABLES) == [(2, 9, 3), (2, 8, 3)]
    with pytest.raises(ValueError, match="need 0 <= k <= n"):
        split_table(2, 3, 4)
    assert list(symspace._SPLIT_TABLES) == [(2, 9, 3), (2, 8, 3)]
    split_table.cache_clear()


def test_split_table_cache_keeps_at_most_its_bytes_after_a_long_sweep():
    # lemma1 on the 1 -> 1024 qubit cloner at k = 1..64: its two tables at
    # K = 64 and 63 drops' small ones
    assert symspace.SPLIT_TABLE_CACHE_BYTES == 2 ** 24
    split_table.cache_clear()
    state = OccupationState(np.full(1025, 1 / 1025), 2, 1024)
    assert len(list(state.sweep(range(1, 65)))) == 64
    assert sum(b for _, b in symspace._SPLIT_TABLES.values()) <= 2 ** 24
    assert (2, 1024, 64) in symspace._SPLIT_TABLES
    split_table.cache_clear()
