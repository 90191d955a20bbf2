"""The occupation-number route against the dense route it replaces.

The dense oracle is `apply` on the Choi matrix, `partial_trace`, and an
explicit (s_M/s_{M+k}) Tr_M[(rho tensor 1^k) symmetrizer(d, M+k)]; for the
pair-purified route, the same formula on |Phi><Phi| at local dimension d^2
with the ancillas traced out afterwards.
"""

import tracemalloc

import numpy as np
import pytest

from symdist.channels import SDIChannelSpec, apply, embed_pure_input, validate_sdi
from symdist.definetti import (
    approx_reduced_general,
    definetti_weight,
    marginal_coords,
    mc_approx_reduced,
    mc_reduce_coords,
    purify_perm_invariant,
    reduce_coords,
)
from symdist.linalg import (
    DEFAULT_DIM_CAP,
    DenseOperator,
    ResourceLimitError,
    ket,
    partial_trace,
    projector,
)
from symdist.metrics import trace_distance
from symdist.scenario import _input_state, _output, run_scenario, scenario_from_dict
from symdist.symspace import (
    HaarSampler,
    check_occupation_route,
    embed_coords,
    haar_sample,
    power_coords,
    split_table,
    sym_basis,
    sym_dim,
    symmetrizer,
)

TOL = 1e-12


def _pure(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


PHI2 = _pure([0.6, 0.8j])
PSI2 = _pure([1.0, -1.0 + 0.5j])
PHI3 = _pure([0.5, 0.5j, -0.7])
POVM2 = (np.diag([0.8, 0.3]), np.diag([0.2, 0.7]))
MIXED2 = np.diag([0.9, 0.1])

COVERED = [
    SDIChannelSpec("universal_cloner", d=2, M=4, N=1),
    SDIChannelSpec("universal_cloner", d=2, M=8, N=1),
    SDIChannelSpec("universal_cloner", d=2, M=5, N=2),
    SDIChannelSpec("universal_cloner", d=3, M=3, N=1),
    SDIChannelSpec("universal_cloner", d=3, M=4, N=2),
    SDIChannelSpec("noisy_cloner", d=2, M=4, N=1, p=0.0),
    SDIChannelSpec("fixed_prep", d=2, M=6, prep=(PHI2,)),
    SDIChannelSpec("fixed_prep", d=3, M=3, prep=(PHI3,)),
    SDIChannelSpec("measure_prepare", d=2, M=5, prep=(PHI2, PSI2), povm=POVM2),
]
DENSE_ONLY = [
    SDIChannelSpec("noisy_cloner", d=2, M=3, N=1, p=0.1),
    SDIChannelSpec("fixed_prep", d=2, M=3, prep=(MIXED2,)),
    SDIChannelSpec("measure_prepare", d=2, M=2, prep=(PHI2, MIXED2), povm=POVM2),
]


PURIFIED = DENSE_ONLY + [SDIChannelSpec("noisy_cloner", d=3, M=2, N=1, p=0.1)]


def _label(spec):
    return f"{spec.kind}-d{spec.d}-N{spec.N}-M{spec.M}"


def _input_ket(d):
    rng = np.random.default_rng(5)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return ket(v / np.linalg.norm(v))


def _dense_output(spec):
    ch = spec.build()
    phi = _input_ket(spec.d)
    return apply(ch, embed_pure_input(ch, phi)), spec.symmetric_output(phi)


def _dense_reduction(rho, d, m, k):
    """(s_M/s_{M+k}) Tr_M[(rho tensor 1^k) P_{M+k}], contracted index by index."""
    p = symmetrizer(d, m + k).entries.reshape(d ** m, d ** k, d ** m, d ** k)
    traced = np.einsum("aA,AbaB->bB", rho.entries, p)
    return sym_dim(d, m) / sym_dim(d, m + k) * traced


def _choi_output(spec):
    ch = spec.build()
    return apply(ch, embed_pure_input(ch, _input_ket(spec.d)))


def _dense_purified_reduction(rho, d, m, k):
    """The dense formula on the pair purification at d^2, ancillas traced out."""
    pur = purify_perm_invariant(rho)
    pairs = _dense_reduction(projector(pur.phi), d * d, m, k)
    return partial_trace(DenseOperator(pairs, (d,) * (2 * k)), range(0, 2 * k, 2))


def _purified_ks(spec):
    return [k for k in range(1, spec.M + 1) if (spec.d ** 2) ** (spec.M + k) <= 2 ** 11]


@pytest.mark.parametrize("spec", COVERED, ids=_label)
def test_output_and_marginals_match_dense(spec):
    rho, coords = _dense_output(spec)
    assert np.max(np.abs(embed_coords(coords, spec.d, spec.M).entries
                         - rho.entries)) <= TOL
    for k in range(1, min(3, spec.M) + 1):
        got = embed_coords(marginal_coords(coords, spec.d, spec.M, k), spec.d, k)
        want = partial_trace(rho, range(k))
        assert np.max(np.abs(got.entries - want.entries)) <= TOL


@pytest.mark.parametrize("spec", COVERED, ids=_label)
def test_reduction_matches_dense(spec):
    rho, coords = _dense_output(spec)
    for k in range(1, 4):
        if spec.d ** (spec.M + k) > 2 ** 11:
            break
        got = embed_coords(reduce_coords(coords, spec.d, spec.M, k), spec.d, k)
        want = _dense_reduction(rho, spec.d, spec.M, k)
        assert np.max(np.abs(got.entries - want)) <= TOL


@pytest.mark.parametrize("spec", PURIFIED, ids=_label)
def test_purified_route_matches_dense(spec):
    """approx_reduced_general, and the theorem2 marginal, reduction and
    distance of run_scenario, against the dense formula on the pairs."""
    ks = _purified_ks(spec)
    phi = _input_ket(spec.d).entries[:, 0]
    cfg = scenario_from_dict({
        "schema": 1,
        "channel": spec.to_json(),
        "input": {"type": "pure", "coeffs": [[z.real, z.imag] for z in phi]},
        "k": ks,
        "checks": ["theorem2"],
    })
    rho = _choi_output(spec)
    state, _ = _output(cfg, _input_state(cfg)[0], DEFAULT_DIM_CAP)
    assert state.paired
    for k, row in zip(ks, run_scenario(cfg)):
        marginal = partial_trace(rho, range(k))
        tilde = _dense_purified_reduction(rho, spec.d, spec.M, k)
        general = approx_reduced_general(rho, k).tilde_rho_k
        assert np.max(np.abs(general.entries - tilde.entries)) <= TOL
        assert np.max(np.abs(state.marginal(k).entries - marginal.entries)) <= TOL
        assert np.max(np.abs(state.reduction(k).entries - tilde.entries)) <= TOL
        assert abs(row.actual_distance - trace_distance(marginal, tilde)) <= TOL
        assert row.satisfied_theorem2


@pytest.mark.parametrize("spec", COVERED, ids=_label)
def test_monte_carlo_weight_matches_dense(spec):
    rho, coords = _dense_output(spec)
    s_m = sym_dim(spec.d, spec.M)
    sampler = HaarSampler(spec.d, 17)
    for _ in range(4):
        psi = haar_sample(sampler)
        u = psi.entries[:, 0]
        full = u
        for _ in range(spec.M - 1):
            full = np.kron(full, u)
        want = s_m * np.vdot(full, rho.entries @ full).real
        c = power_coords(u, spec.M)
        assert abs(s_m * np.vdot(c, coords @ c).real - want) <= TOL
        assert abs(definetti_weight(rho, psi) - want) <= TOL


@pytest.mark.parametrize("spec", COVERED[:4], ids=_label)
def test_monte_carlo_estimates_match_dense(spec):
    rho, coords = _dense_output(spec)
    dense = mc_approx_reduced(rho, 1, 300, seed=4)
    occ = mc_reduce_coords(coords, spec.d, spec.M, 1, 300, seed=4)
    assert np.max(np.abs(occ.tilde_rho_k.entries
                         - dense.tilde_rho_k.entries)) <= TOL
    assert np.max(np.abs(occ.stderr - dense.stderr)) <= TOL


@pytest.mark.parametrize("spec", COVERED + DENSE_ONLY, ids=_label)
def test_route_decision_matches_validate_sdi(spec):
    assert spec.symmetric_by_construction == validate_sdi(spec.build()).symmetric_support


@pytest.mark.parametrize("spec", DENSE_ONLY, ids=_label)
def test_symmetric_output_refuses_dense_only_specs(spec):
    with pytest.raises(ValueError, match="build"):
        spec.symmetric_output(_input_ket(spec.d))


def test_power_coords_matches_isometry():
    u = _input_ket(3).entries[:, 0]
    full = np.kron(np.kron(u, u), u)
    want = sym_basis(3, 3).isometry.entries.conj().T @ full
    assert np.max(np.abs(power_coords(u, 3) - want)) <= TOL
    assert np.array_equal(power_coords(np.array([1.0, 0.0]), 3),
                          np.array([1.0, 0.0, 0.0, 0.0]))


# -- resource guard ----------------------------------------------------------


def _cloner(d, m_users, ks):
    return scenario_from_dict({
        "schema": 1,
        "channel": {"kind": "universal_cloner", "d": d, "N": 1, "M": m_users},
        "input": {"type": "random_pure", "seed": 0},
        "k": list(ks),
        "checks": ["lemma1", "perr", "fidelity_gap"],
    })


@pytest.mark.parametrize("d,m_users", [(2, 20000), (3, 200)])
def test_too_large_raises_before_allocating(d, m_users):
    cfg = _cloner(d, m_users, [1])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="occupation-coordinate state"):
            run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_guard_counts_gathers_in_bytes():
    check_occupation_route(2, 1024, [1, 2, 3])
    check_occupation_route(3, 64, [1, 2, 3])
    # s_M = 12001 fits the side cap, but three copies of the state do not fit
    # the byte budget of one complex matrix at that cap
    with pytest.raises(ResourceLimitError, match="bytes"):
        check_occupation_route(2, 12000, [1])
    # a 50 -> 100 qutrit cloner scatters s_50^2 s_50 = 1326^3 terms
    check_occupation_route(3, 100, [1])
    with pytest.raises(ResourceLimitError, match="bytes"):
        check_occupation_route(3, 100, [1], n_in=50)
    with pytest.raises(ResourceLimitError, match="30-user marginal"):
        check_occupation_route(2, 1000, [30])
    with pytest.raises(ResourceLimitError):
        check_occupation_route(2, 10 ** 30, [1])


def test_theorem2_keeps_the_dense_side_cap():
    # the purified route no longer builds (d^2)^(M+k) arrays, but keeps
    # refusing what the dense formula could not hold
    cfg = scenario_from_dict({
        "schema": 1,
        "channel": {"kind": "noisy_cloner", "d": 2, "N": 1, "M": 3, "p": 0.1},
        "input": {"type": "random_pure", "seed": 0},
        "k": [1, 2],
        "checks": ["theorem2"],
    })
    assert len(run_scenario(cfg, cap=4 ** 5)) == 2
    with pytest.raises(ResourceLimitError, match="purified reduction on 5 pair factors"):
        run_scenario(cfg, cap=4 ** 4)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_split_table_is_unit_normalised_at_large_n(k):
    t = split_table(2, 2000, k)
    assert np.all(np.isfinite(t.rest_coef))
    assert np.max(np.abs((t.rest_coef ** 2).sum(axis=1) - 1.0)) <= 1e-12
    assert np.array_equal(t.rest_coef[t.whole, np.arange(k + 1)[:, None]],
                          t.whole_coef)


# -- regression pins at large M -----------------------------------------------


@pytest.mark.parametrize("d,m_users", [(2, 11), (2, 1000), (4, 20)])
def test_one_to_m_cloner_single_user_distance(d, m_users):
    """k = 1 distance of the optimal 1 -> M cloner: 2(d-1)/((d+1)M).

    The value is observed (to within 7e-16 at every (d, M) tried, from
    (2, 10) to (3, 64) and (4, 20)), not proved; at d = 2 it is 2/(3M).
    """
    row, = run_scenario(_cloner(d, m_users, [1]))
    assert abs(row.actual_distance - 2 * (d - 1) / ((d + 1) * m_users)) <= TOL


@pytest.mark.parametrize("d,m_users", [(2, 1024), (3, 64)])
def test_bounds_hold_at_ladder_tops(d, m_users):
    rows = run_scenario(_cloner(d, m_users, [1, 2, 3]))
    assert [r.k for r in rows] == [1, 2, 3]
    assert all(r.satisfied_lemma1 for r in rows)
    assert rows[0].satisfied_perr and rows[0].satisfied_fidelity_gap
    # the (3, 64) pin of the observed 2(d-1)/((d+1)M), see above
    assert abs(rows[0].actual_distance - 2 * (d - 1) / ((d + 1) * m_users)) <= TOL
