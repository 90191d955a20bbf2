"""The cloner's diagonal is Werner's closed form.

cloner_diagonal(d, N, M) gives the N -> M universal cloner's output on
|0>^N as x(n) = (s_N/s_M) C(n_0, N)/C(M, N), one value for each n_0 in
contiguous blocks of basis order, with no split table.  The split-table
diagonal it replaced is the oracle (dense_oracles.split_cloner_diagonal):
the two agree within 4e-16 of the largest entry over the grid below (3.1e-16
at worst, the oracle's square root and square), and each entry is the
exact ratio, correctly rounded.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from symdist import channels, symspace
from symdist.channels import cloner_diagonal
from symdist.symspace import _occupation_table, split_table, sym_dim

from dense_oracles import split_cloner_diagonal

# every N <= M, with M <= 24 for d <= 3 and M <= 11 for d >= 4
GRID = [(d, n, m) for d in range(1, 6) for m in range(1, (24 if d <= 3 else 11) + 1)
        for n in range(1, m + 1)]


@pytest.mark.parametrize("d", range(1, 6))
def test_closed_form_matches_the_split_table(d):
    for _, n_in, m_users in (case for case in GRID if case[0] == d):
        got = cloner_diagonal(d, n_in, m_users)
        want = split_cloner_diagonal(d, n_in, m_users)
        assert got.shape == want.shape == (sym_dim(d, m_users),)
        assert np.max(np.abs(got - want)) <= 4e-16 * np.max(want), (d, n_in, m_users)


@pytest.mark.parametrize("d,n_in,m_users", [(1, 1, 1), (1, 3, 7), (2, 1, 9), (2, 4, 9),
                                            (3, 2, 7), (3, 7, 7), (4, 2, 5), (5, 3, 6)])
def test_each_entry_is_the_exact_ratio_correctly_rounded(d, n_in, m_users):
    """Entry n is float(Fraction(s_N C(n_0, N), C(M, N) s_M)) exactly, with
    n_0 read off the occupation table, so the blocks sit in basis order."""
    n0 = _occupation_table(d, m_users)[:, 0]
    s_n, s_m = math.comb(d + n_in - 1, n_in), math.comb(d + m_users - 1, m_users)
    want = [float(Fraction(s_n * math.comb(int(n), n_in), math.comb(m_users, n_in) * s_m))
            for n in n0]
    assert cloner_diagonal(d, n_in, m_users).tolist() == want


def test_the_closed_form_builds_no_table():
    assert not hasattr(channels, "split_table") and not hasattr(channels, "sym_dim")
    for table in (split_table, _occupation_table):
        table.cache_clear()
    cloner_diagonal(3, 2, 7)
    assert not symspace._SPLIT_TABLES and _occupation_table.cache_info().currsize == 0
