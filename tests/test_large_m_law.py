"""The universal cloner's large-M law, as an exact oracle.

On the 1 -> M cloner the mixture tilde_k does not depend on M, and
M (rho_k - tilde_k) does not either, so M D_k is a constant of d and k
(measured, and exact at k = 1 for every N).  At k = 1, tilde_1 is optimal
estimation from N copies, with shrinking factor N/(N + d) (Bruss and
Macchiavello, Phys. Lett. A 253, 249 (1999)), and Werner's cloner factor is
N(M + d)/(M(N + d)) (PRA 58, 1827 (1998)), so D_1 = 2N(d - 1)/(M(N + d)).
The oracle holds these laws in exact Fractions; every run must agree with
them within a relative 1e-11 up to M = 100, and 1e-8 past it.  The looser
tolerance is the digits the run loses, not a looser law: rho_k and tilde_k
agree to about 1/M of each diagonal entry, so their difference cancels
that much, and its rounding grows with the s_M terms summed into it.
Over M drawn past 100 up to the byte budget's edges the worst seen was
5.5e-9 at 140000 qubits (4.0e-10 at 102466) and 5.9e-10 at 838 qutrits,
all at k = 1.
"""

import csv
import io
from fractions import Fraction

import pytest

from symdist.scenario import default_suite, emit, run_scenario, scenario_from_dict

REL_TOL = 1e-11
LARGE_M_REL_TOL = 1e-8
# M D_k of the 1 -> M qutrit cloner at k = 1..4
QUTRIT_LAW = {1: Fraction(1), 2: Fraction(6, 5), 3: Fraction(6, 5), 4: Fraction(48, 35)}


def law(d: int, n_in: int, m_users: int, k: int) -> Fraction:
    """D_k of the universal N -> M cloner, where the law is known: k = 1 at
    every N, and N = 1 at every k for qubits (M D_k = c/(c + 1), c =
    2 ceil(k/2)) and at k <= 4 for qutrits."""
    if k == 1:
        return Fraction(2 * n_in * (d - 1), m_users * (n_in + d))
    if n_in != 1 or d not in (2, 3):
        raise ValueError(f"no law for d={d}, N={n_in}, k={k}")
    if d == 3:
        return QUTRIT_LAW[k] / m_users
    c = 2 * -(-k // 2)
    return Fraction(c, (c + 1) * m_users)


def _distances(d, n_in, m_users, ks):
    cfg = scenario_from_dict({
        "schema": 1,
        "channel": {"kind": "universal_cloner", "d": d, "N": n_in, "M": m_users},
        "input": {"type": "random_pure", "seed": 0},
        "k": list(ks), "checks": ["lemma1"]})
    return {row.k: row.actual_distance for row in run_scenario(cfg)}


def _check(d, n_in, m_users, ks, rel_tol=REL_TOL):
    for k, got in _distances(d, n_in, m_users, ks).items():
        want = float(law(d, n_in, m_users, k))
        assert abs(got - want) <= rel_tol * want, (d, n_in, m_users, k, got, want)


@pytest.mark.parametrize("d,n_in,top", [(2, 1, 100), (2, 2, 100), (2, 3, 100),
                                        (3, 1, 60), (3, 2, 60), (3, 3, 60)])
def test_single_user_law_at_every_n(d, n_in, top):
    for m_users in range(n_in, top + 1):
        _check(d, n_in, m_users, [1])


@pytest.mark.parametrize("d,top,ks", [(2, 100, range(1, 7)), (3, 60, range(1, 5))])
def test_k_user_law_of_the_one_to_m_cloner(d, top, ks):
    for m_users in range(1, top + 1):
        _check(d, 1, m_users, [k for k in ks if k <= m_users])


@pytest.mark.parametrize("d,m_users,ks", [
    (2, 1000, range(1, 7)), (2, 16384, range(1, 7)), (2, 50000, range(1, 7)),
    (2, 102466, range(1, 4)), (2, 140000, [1]), (2, 145348, [1]),
    (3, 180, range(1, 5)), (3, 400, range(1, 4)), (3, 838, [1]), (3, 1000, [1])])
def test_k_user_law_past_m_100(d, m_users, ks):
    # up to the byte budget's edges: 102466 qubits at k = 1..3 and 145348
    # at k = 1 are the last admitted
    _check(d, 1, m_users, ks, LARGE_M_REL_TOL)


def test_the_abstracts_number():
    """Ten qubit users of the 1 -> 10 cloner: one user guesses which of its
    two marginals it holds with error 1/2 - D_1/4 = 29/60, against the floor
    1/2 - (d - 1)/(2M) = 0.45."""
    entry, = [e for e in default_suite(42) if e["label"] == "ten-user cloner"]
    row = next(csv.DictReader(io.StringIO(emit(run_scenario(scenario_from_dict(entry))))))
    assert (row["k"], row["p_err"], row["p_err_bound"]) == ("1", "0.483333333333", "0.45")
    assert Fraction(1, 2) - law(2, 1, 10, 1) / 4 == Fraction(29, 60)
