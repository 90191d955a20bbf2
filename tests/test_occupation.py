"""The occupation-number route against the dense route it replaces.

The dense oracle is `apply` on the Choi matrix, `partial_trace`, and an
explicit (s_M/s_{M+k}) Tr_M[(rho tensor 1^k) symmetrizer(d, M+k)]; for the
pair-purified route, the same formula on |Phi><Phi| at local dimension d^2
with the ancillas traced out afterwards.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdist import channels, definetti, linalg, scenario, symspace
from symdist.channels import SDIChannelSpec, apply, embed_pure_input, validate_sdi
from symdist.definetti import (
    OccupationState,
    check_mc_route,
    marginal_coords,
    mc_reduce_coords,
    purified_state,
    purify_perm_invariant,
    reduce_coords,
    symmetric_state,
)
from symdist.linalg import (
    DEFAULT_DIM_CAP,
    DenseOperator,
    ResourceLimitError,
    ket,
    partial_trace,
    projector,
    swap_residual,
    validate_state,
)
from symdist.metrics import trace_distance
from symdist.scenario import (
    SchemaError,
    _input_state,
    _output,
    moment_check_record,
    run_scenario,
    scenario_from_dict,
)
from symdist.symspace import (
    _eigh_bytes,
    _index_map,
    check_dense_route,
    check_occupation_route,
    embed_coords,
    haar_kets,
    power_coords,
    split_table,
    sym_basis,
    sym_dim,
    symmetrizer,
)

from conftest import random_state

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
    pairs = _dense_reduction(projector(purify_perm_invariant(rho)), d * d, m, k)
    return partial_trace(DenseOperator(pairs, (d,) * (2 * k)), range(0, 2 * k, 2))


def _scenario(spec, checks, coeffs=None, ks=(1,)):
    """A scenario on `spec` with the input _input_ket(d), or the ket `coeffs`."""
    phi = _input_ket(spec.d).entries[:, 0] if coeffs is None else coeffs
    return scenario_from_dict({
        "schema": 1,
        "channel": spec.to_json(),
        "input": {"type": "pure", "coeffs": [[z.real, z.imag] for z in phi]},
        "k": list(ks),
        "checks": checks,
    })


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
    """purified_state on the dense output, and the theorem2 marginal,
    reduction and distance of run_scenario, against the dense formula on
    the pairs."""
    ks = _purified_ks(spec)
    cfg = _scenario(spec, ["theorem2"], ks=ks)
    rho = _choi_output(spec)
    state, _ = _output(cfg, _input_state(cfg)[0], DEFAULT_DIM_CAP)
    assert state.paired
    for k, row in zip(ks, run_scenario(cfg)):
        marginal = partial_trace(rho, range(k))
        tilde = _dense_purified_reduction(rho, spec.d, spec.M, k)
        general = purified_state(rho).reduction(k)
        assert np.max(np.abs(general.entries - tilde.entries)) <= TOL
        assert np.max(np.abs(state.marginal(k).entries - marginal.entries)) <= TOL
        assert np.max(np.abs(state.reduction(k).entries - tilde.entries)) <= TOL
        assert abs(row.actual_distance - trace_distance(marginal, tilde)) <= TOL
        assert row.satisfied_theorem2


@pytest.mark.parametrize("d,m,k", [(9, 2, 1), (9, 2, 2), (4, 6, 1),
                                   (4, 4, 1), (4, 4, 2), (4, 4, 3)])
def test_ket_kernels_match_matrix_kernels(d, m, k):
    """A 1-D state is a ket c; the kernels on it equal those on |c><c|,
    also where the dense oracle cannot reach, e.g. (d^2 = 9, M = 2, k = 2)."""
    rng = np.random.default_rng(11)
    s = sym_dim(d, m)
    c = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    c /= np.linalg.norm(c)
    rho = np.outer(c, c.conj())
    assert np.max(np.abs(marginal_coords(c, d, m, k)
                         - marginal_coords(rho, d, m, k))) <= TOL
    assert np.max(np.abs(reduce_coords(c, d, m, k)
                         - reduce_coords(rho, d, m, k))) <= TOL


@st.composite
def _occupation_states(draw):
    """A random s_M x s_M state at d, or a random ket of Sym^M(C^{d^2})
    standing for a pair purification."""
    d = draw(st.sampled_from([2, 3]))
    m_users = draw(st.integers(1, 8 if d == 2 else 4))
    paired = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if not paired:
        return OccupationState(random_state(rng, sym_dim(d, m_users)).entries,
                               d, m_users)
    c = rng.standard_normal(sym_dim(d * d, m_users)) * (1 + 0j)
    c += 1j * rng.standard_normal(c.size)
    return OccupationState(c / np.linalg.norm(c), d, m_users, paired=True)


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(state=_occupation_states())
def test_users_step_matches_embedding_and_partial_trace(state):
    """marginal and reduction against the kernel's output embedded at side
    q^k (q = d^2 paired) with the ancillas traced out, where that side is at
    most 2^10; every result, up to a gather of 2^20 entries (all but k > 6
    paired qubits, 64 MiB and more), is a state."""
    d, q = state.d, state.d ** 2 if state.paired else state.d
    for k in range(1, state.m + 1):
        if d ** (3 * k if state.paired else 2 * k) > 2 ** 20:
            break
        for kernel, users in ((marginal_coords, state.marginal),
                              (reduce_coords, state.reduction)):
            got = users(k).entries
            assert np.array_equal(got, got.conj().T)
            assert np.linalg.eigvalsh(got)[0] >= -TOL
            assert abs(np.trace(got) - 1.0) <= TOL
            if q ** k > 2 ** 10:
                continue
            want = embed_coords(kernel(state.coords, q, state.m, k), q, k)
            if state.paired:
                want = partial_trace(DenseOperator(want.entries, (d,) * (2 * k)),
                                     range(0, 2 * k, 2))
            assert np.max(np.abs(got - want.entries)) <= TOL


def test_run_path_embeds_no_k_user_result(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a k-user result was embedded on the run path")

    assert not any(hasattr(definetti, name) for name in ("embed_coords", "partial_trace"))
    monkeypatch.setattr(symspace, "embed_coords", refuse)
    monkeypatch.setattr(linalg, "partial_trace", refuse)
    for spec in COVERED[:3] + PURIFIED:
        checks = ["lemma1"] if spec in COVERED else ["theorem2"]
        rows = run_scenario(_scenario(spec, checks, ks=range(1, spec.M + 1)))
        assert all(row.satisfied_theorem2 or row.satisfied_lemma1 for row in rows)


def test_purified_state_holds_a_ket():
    rho = _choi_output(PURIFIED[-1])
    state = purified_state(rho)
    assert state.paired and state.coords.shape == (sym_dim(9, 2),)


@pytest.mark.parametrize("spec", COVERED, ids=_label)
def test_monte_carlo_weight_matches_dense(spec):
    rho, coords = _dense_output(spec)
    compressed = symmetric_state(rho).coords
    s_m = sym_dim(spec.d, spec.M)
    u = haar_kets(np.random.default_rng(17), 4, spec.d)
    full = u
    for _ in range(spec.M - 1):
        full = (full[:, :, None] * u[:, None, :]).reshape(len(u), -1)
    want = s_m * np.einsum("bi,bi->b", full.conj(), full @ rho.entries.T).real
    c = power_coords(u, spec.M)
    for state in (coords, compressed):
        got = s_m * np.einsum("bs,bs->b", c.conj(), c @ state.T).real
        assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("spec", COVERED[:4], ids=_label)
def test_monte_carlo_estimates_match_dense(spec):
    rho, coords = _dense_output(spec)
    dense, dense_err = mc_reduce_coords(symmetric_state(rho).coords, spec.d,
                                        spec.M, 1, 300, seed=4)
    occ, occ_err = mc_reduce_coords(coords, spec.d, spec.M, 1, 300, seed=4)
    assert np.max(np.abs(occ - dense)) <= TOL
    assert np.max(np.abs(occ_err - dense_err)) <= TOL


@pytest.mark.parametrize("spec", COVERED + DENSE_ONLY, ids=_label)
def test_route_decision_matches_validate_sdi(spec):
    assert spec.symmetric_by_construction == validate_sdi(spec.build()).symmetric_support


@pytest.mark.parametrize("spec", COVERED[:4] + PURIFIED, ids=_label)
def test_support_residual_matches_dense_projection(spec):
    """validate_sdi projects both output indices of the Choi matrix."""
    ch = spec.build()
    p = symmetrizer(spec.d, spec.M).entries
    c = ch.choi.entries.reshape(ch.dim_out, ch.dim_in, ch.dim_out, ch.dim_in)
    proj = np.tensordot(np.tensordot(p, c, axes=(1, 0)), p, axes=(2, 0))
    proj = proj.transpose(0, 1, 3, 2)
    want = float(np.max(np.abs(c - proj)))
    assert abs(validate_sdi(ch).support_residual - want) <= TOL


@pytest.mark.parametrize("spec", DENSE_ONLY, ids=_label)
def test_symmetric_output_refuses_dense_only_specs(spec):
    with pytest.raises(ValueError, match="dense_output"):
        spec.symmetric_output(_input_ket(spec.d))


# -- the dense output, built from the spec -------------------------------------


@pytest.mark.parametrize("spec", COVERED + PURIFIED, ids=_label)
def test_dense_output_matches_choi_oracle(spec):
    got = spec.dense_output(_input_ket(spec.d))
    assert got.row_dims == (spec.d,) * spec.M
    assert np.max(np.abs(got.entries - _choi_output(spec).entries)) <= TOL


def test_dense_output_of_a_density_matrix_matches_choi_oracle():
    spec = SDIChannelSpec("measure_prepare", d=2, M=3, prep=(PHI2, MIXED2),
                          povm=POVM2)
    rho_in = DenseOperator(np.diag([0.3, 0.7]), (2,))
    want = apply(spec.build(), rho_in)
    assert np.max(np.abs(spec.dense_output(rho_in).entries - want.entries)) <= TOL


@pytest.mark.parametrize("p", [1.5, -0.1])
def test_dense_output_refuses_a_depolarizing_weight_as_before(p):
    spec = SDIChannelSpec("noisy_cloner", d=2, M=3, N=1, p=p)
    for make in (spec.build, lambda: spec.dense_output(_input_ket(2))):
        with pytest.raises(ValueError, match=r"depolarizing weight must be in \[0, 1\]"):
            make()


POVM3 = (np.diag([1.0, 0.5, 0.0]), np.diag([0.0, 0.5, 1.0]))


@pytest.mark.parametrize("spec,state", [
    (SDIChannelSpec("noisy_cloner", d=2, M=2, N=1, p=0.1), _input_ket(3)),
    (SDIChannelSpec("fixed_prep", d=2, M=2, prep=(MIXED2,)), _input_ket(3)),
    (SDIChannelSpec("measure_prepare", d=2, M=2, prep=(PHI2, MIXED2), povm=POVM3),
     _input_ket(2)),
    (SDIChannelSpec("measure_prepare", d=2, M=2, prep=(PHI2, MIXED2), povm=POVM3),
     DenseOperator(np.diag([0.5, 0.5]), (2,))),
], ids=["cloner-ket", "prep-ket", "measure-ket", "measure-matrix"])
def test_dense_output_refuses_a_wrong_input_as_the_oracle_does(spec, state):
    ch = spec.build()
    with pytest.raises(ValueError) as oracle:
        apply(ch, embed_pure_input(ch, state) if state.shape[1] == 1 else state)
    with pytest.raises(ValueError) as built:
        spec.dense_output(state)
    assert str(built.value) == str(oracle.value)


BASIS2 = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
# outputs that go through the dense route and still have symmetric support
LEMMA1_DENSE = [
    (SDIChannelSpec("fixed_prep", d=2, M=1, prep=(MIXED2,)), None),
    (SDIChannelSpec("measure_prepare", d=2, M=3, prep=(PHI2, MIXED2), povm=BASIS2),
     np.array([1.0, 0.0])),
]


def test_run_path_builds_no_choi_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Choi oracle was called on the run path")

    names = ("apply", "validate_sdi", "embed_pure_input")
    assert not any(hasattr(scenario, name) for name in names)
    monkeypatch.setattr(SDIChannelSpec, "build", refuse)
    for name in names:
        monkeypatch.setattr(channels, name, refuse)
    runs = [(spec, ["theorem2"], None) for spec in COVERED[:1] + PURIFIED]
    runs += [(spec, ["lemma1"], None) for spec in COVERED]
    runs += [(spec, ["lemma1"], coeffs) for spec, coeffs in LEMMA1_DENSE]
    for spec, checks, coeffs in runs:
        row, = run_scenario(_scenario(spec, checks, coeffs))
        assert row.satisfied_theorem2 or row.satisfied_lemma1


def _density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T + 1e-3 * np.eye(d)
    return rho / np.trace(rho).real


def _two_outcome_povm(rng, d, weights):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    e = (q * np.asarray(weights)) @ q.conj().T
    return (e, np.eye(d) - e)


@st.composite
def _mixed_specs(draw):
    d = draw(st.sampled_from([2, 3]))
    m_users = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["noisy_cloner", "fixed_prep", "measure_prepare"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "noisy_cloner":
        spec = SDIChannelSpec(kind, d=d, M=m_users, N=draw(st.integers(1, m_users)),
                              p=draw(st.floats(0.0, 1.0)))
    elif kind == "fixed_prep":
        spec = SDIChannelSpec(kind, d=d, M=m_users, prep=(_density(rng, d),))
    else:
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))
        spec = SDIChannelSpec(kind, d=d, M=m_users,
                              prep=(_density(rng, d), _density(rng, d)),
                              povm=_two_outcome_povm(rng, d, weights))
    phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return spec, ket(phi / np.linalg.norm(phi))


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(case=_mixed_specs())
def test_dense_output_is_a_permutation_invariant_state(case):
    spec, phi = case
    rho = spec.dense_output(phi)
    validate_state(rho, name="dense output")
    for t in range(spec.M - 1):
        assert swap_residual(rho, t) <= 1e-12


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


@pytest.mark.parametrize("m_users", [9, 10])
def test_occupation_route_estimate_bounds_the_traced_peak(m_users):
    # k = M: the k-user stage at side 2^M, not the state, is the peak
    cfg = _cloner(2, m_users, [1, m_users])
    estimate = check_occupation_route(2, m_users, [1, m_users], n_in=1)
    assert _traced_peak(lambda: run_scenario(cfg)) <= estimate


def test_large_k_refused_before_allocating():
    # the 13-user result side 2^13 fits the cap, but its gather and the two
    # 2^13 x 2^13 matrices exceed the budget; k = 12 fits
    check_occupation_route(2, 13, [1, 12])
    cfg = _cloner(2, 13, [1, 13])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match="occupation-coordinate route for 13 users"):
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


def test_mc_guard_counts_bytes():
    # what the suite samples fits, up to the fourth moment
    assert check_mc_route(2, 2, 1) > 1
    for n in (1, 2, 3, 4):
        check_mc_route(2, n, n)
    # 12 qubits: five complex 4096^2 arrays, 80 * 2^24 bytes, and chunks of
    # 254 draws of 4096 + 26 entries each
    assert check_mc_route(2, 12, 12) == 2 ** 20 // (4096 + 26)
    # 13 qubits fit the side cap, but the five arrays' 80 * 2^26 bytes
    # exceed the budget of one complex matrix at that cap (16 * 2^28)
    with pytest.raises(ResourceLimitError, match="bytes"):
        check_mc_route(2, 13, 13)
    with pytest.raises(ResourceLimitError, match="15-user Monte Carlo estimate"):
        check_mc_route(2, 15, 15)
    with pytest.raises(ValueError, match="1 <= k <= M=3"):
        check_mc_route(2, 3, 4)


@pytest.mark.parametrize("d,m,k", [(2, 8, 8), (3, 20, 2)])
def test_mc_guard_bounds_the_traced_peak(d, m, k, monkeypatch):
    counted = []

    def spy(nbytes, cap, what):
        counted.append(nbytes)
        return linalg._check_bytes(nbytes, cap, what)

    monkeypatch.setattr(definetti, "_check_bytes", spy)
    chunk = check_mc_route(d, m, k)
    tracemalloc.start()
    try:
        s_m = sym_dim(d, m)
        # two full chunks and one draw, from a state built under the trace
        mc_reduce_coords(np.eye(s_m) / s_m, d, m, k, 2 * chunk + 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= counted[-1]


def test_moment_check_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="30-user Monte Carlo"):
            moment_check_record(2, 30, samples=10, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _dense_scenario(channel, ks=(1,), checks=("theorem2",),
                    input_state=None):
    return scenario_from_dict({
        "schema": 1,
        "channel": channel,
        "input": input_state or {"type": "random_pure", "seed": 0},
        "k": list(ks),
        "checks": list(checks),
        "mc": {"samples": 200, "seed": 0},
    })


def _noisy(d, m_users, p=0.1):
    return {"kind": "noisy_cloner", "d": d, "N": 1, "M": m_users, "p": p}


def _traced_peak(run, raises=None):
    """Peak bytes that tracemalloc sees while `run` works from empty caches."""
    _index_map.cache_clear()
    split_table.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(raises) if raises else contextlib.nullcontext():
            run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIXED_PREP = [[[[0.5, 0], [0.1, 0]], [[0.1, 0], [0.5, 0]]]]


@pytest.mark.parametrize("channel,ks,checks", [
    *[(_noisy(2, m), [1], ["theorem2"]) for m in (6, 7, 8, 9)],
    *[(_noisy(3, m), [1], ["theorem2"]) for m in (3, 4, 5)],
    (_noisy(2, 6), [1, 2, 3, 4, 5], ["theorem2"]),
    (_noisy(2, 8), [1, 2, 3, 4, 5, 6], ["theorem2"]),
    ({"kind": "fixed_prep", "d": 2, "M": 10, "prep": MIXED_PREP}, [1], ["lemma1"]),
    ({"kind": "universal_cloner", "d": 2, "N": 1, "M": 8}, [1],
     ["theorem2", "mc_crosscheck"]),
], ids=["2-6", "2-7", "2-8", "2-9", "3-3", "3-4", "3-5", "2-6-k1to5",
        "2-8-k1to6", "mixed-prep-lemma1", "cloner-mc"])
def test_dense_route_estimate_bounds_the_traced_peak(channel, ks, checks):
    # tracemalloc does not see LAPACK's workspace, so the bound it checks is
    # the estimate less that analytic term; the mixed preparation runs the
    # whole lemma1 route before it is refused for its support
    cfg = _dense_scenario(channel, ks, checks)
    spec, paired = cfg.channel, "theorem2" in checks
    traced = (check_dense_route(spec.d, spec.M, ks, paired)
              - paired * _eigh_bytes(spec.d ** spec.M))
    phi, _ = _input_state(cfg)
    raises = SchemaError if "lemma1" in checks else None
    assert _traced_peak(lambda: _output(cfg, phi, DEFAULT_DIM_CAP), raises) <= traced
    assert _traced_peak(lambda: run_scenario(cfg), raises) <= traced


@pytest.mark.parametrize("d,m_users", [(2, 13), (3, 8)])
def test_dense_route_refuses_before_allocating(d, m_users):
    # the first size refused: the one below fits the byte budget
    check_dense_route(d, m_users - 1, [1], paired=True)
    cfg = _dense_scenario(_noisy(d, m_users))
    with pytest.raises(ResourceLimitError, match=f"dense route for {m_users} users"):
        check_dense_route(d, m_users, [1], paired=True)
    assert _traced_peak(lambda: run_scenario(cfg), ResourceLimitError) < 2 ** 20


def test_dense_route_counts_each_k_and_huge_m():
    # the pair route gathers 32 bytes for each of the d^3k entries of a
    # k-user result: every k fits at M = 8 qubits; at M = 9, k = 8 takes
    # 512 MiB and k = 9 more than the budget, and at M = 5 qutrits k = 5
    check_dense_route(2, 8, [1, 8], paired=True)
    check_dense_route(2, 9, [1, 8], paired=True)
    with pytest.raises(ResourceLimitError, match="bytes"):
        check_dense_route(2, 9, [9], paired=True)
    check_dense_route(3, 5, [4], paired=True)
    with pytest.raises(ResourceLimitError, match="bytes"):
        check_dense_route(3, 5, [5], paired=True)
    with pytest.raises(ResourceLimitError, match="side 2\\^1000000000"):
        check_dense_route(2, 10 ** 9)


@pytest.mark.parametrize("channel,checks", [
    pytest.param(_noisy(2, 14), ["theorem2"], id="qubit-cloner-checks0"),
    pytest.param(_noisy(2, 14), ["lemma1"], id="qubit-cloner-checks1"),
    pytest.param(_noisy(3, 8), ["theorem2"], id="qutrit-cloner-checks0"),
    # 3.5 r of 690 MB fit the 4 GiB budget at M = 8
    pytest.param(_noisy(3, 9), ["lemma1"], id="qutrit-cloner-checks1"),
    pytest.param({"kind": "fixed_prep", "d": 2, "M": 14, "prep": MIXED_PREP},
                 ["theorem2"], id="mixed-prep-checks0"),
    pytest.param({"kind": "fixed_prep", "d": 2, "M": 14, "prep": MIXED_PREP},
                 ["lemma1"], id="mixed-prep-checks1"),
])
def test_dense_output_too_large_raises_before_allocating(channel, checks):
    cfg = _dense_scenario(channel, checks=checks)
    peak = _traced_peak(lambda: run_scenario(cfg), ResourceLimitError)
    assert peak < 2 ** 20
    with pytest.raises(ResourceLimitError, match="dense route"):
        run_scenario(cfg)


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


@pytest.mark.parametrize("d,m_users,want", [
    (2, 7, 0.14025974025974142),
    (2, 8, 0.12500000000000022),
    (2, 9, 0.11282051282049926),
    (3, 4, 0.36346153846154017),
    (3, 5, 0.3085714285714424),
])
def test_theorem2_pins_past_the_old_side_cap(d, m_users, want):
    """k = 1 theorem2 distance of the noisy 1 -> M cloner at p = 0.1, pinned
    to what the same kernels gave before the byte budget, with the side cap
    that stopped them at M = 6 qubits and M = 3 qutrits lifted to 2^24."""
    basis = [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1)
    cfg = _dense_scenario(_noisy(d, m_users),
                          input_state={"type": "pure", "coeffs": basis})
    row, = run_scenario(cfg)
    assert row.satisfied_theorem2
    assert abs(row.actual_distance - want) <= TOL


@pytest.mark.parametrize("d,m_users", [(2, 1024), (3, 64)])
def test_bounds_hold_at_ladder_tops(d, m_users):
    rows = run_scenario(_cloner(d, m_users, [1, 2, 3]))
    assert [r.k for r in rows] == [1, 2, 3]
    assert all(r.satisfied_lemma1 for r in rows)
    assert rows[0].satisfied_perr and rows[0].satisfied_fidelity_gap
    # the (3, 64) pin of the observed 2(d-1)/((d+1)M), see above
    assert abs(rows[0].actual_distance - 2 * (d - 1) / ((d + 1) * m_users)) <= TOL
