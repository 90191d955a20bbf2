"""The occupation-number route against the dense route it replaces.

The dense oracle is `apply` on the Choi matrix, `partial_trace`, and an
explicit (s_M/s_{M+k}) Tr_M[(rho tensor 1^k) symmetrizer(d, M+k)]; for the
pair-purified route, the same formula on |Phi><Phi| at local dimension d^2
with the ancillas traced out afterwards.
"""

import contextlib
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdist import channels, definetti, linalg, scenario
from symdist.channels import QuantumChannel, SDIChannelSpec, SupportError
from symdist.definetti import (
    OccupationState,
    marginal_coords,
    mc_reduce_coords,
    purified_state,
    reduce_coords,
)
from symdist.linalg import (
    DEFAULT_DIM_CAP,
    DenseOperator,
    ResourceLimitError,
    swap_residual,
    validate_state,
)
from symdist.metrics import trace_distance
from symdist.scenario import (
    SchemaError,
    _basis_prep,
    _covariant_distances,
    _output,
    _plan,
    moment_check_record,
    run_scenario,
    scenario_from_dict,
)
from symdist.symspace import (
    _index_map,
    haar_kets,
    plan,
    power_coords,
    split_table,
    sym_dim,
)

from conftest import dense_users, random_state, users
from dense_oracles import (
    apply,
    build,
    coords_matrix,
    embed_coords,
    embed_pure_input,
    in_input_frame,
    ket,
    kets_of,
    partial_trace,
    prep_coords,
    projector,
    purify_perm_invariant,
    symmetric_state,
    symmetrizer,
    to_json,
    validate_sdi,
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
    """A unit ket of side d, a plain 1-D array as the channels take it."""
    rng = np.random.default_rng(5)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _dense_output(spec):
    """The Choi oracle's output and symmetric_output, both at _input_ket(d),
    and both in the input's frame for the cloners."""
    return _choi_output(spec), spec.symmetric_output(_input_ket(spec.d))


def _dense_reduction(rho, d, m, k):
    """(s_M/s_{M+k}) Tr_M[(rho tensor 1^k) P_{M+k}], contracted index by index."""
    p = symmetrizer(d, m + k).entries.reshape(d ** m, d ** k, d ** m, d ** k)
    traced = np.einsum("aA,AbaB->bB", rho.entries, p)
    return sym_dim(d, m) / sym_dim(d, m + k) * traced


def _choi_output(spec):
    """apply on the Choi matrix at _input_ket(d); a cloner's output turned
    into the input's frame, where symdist gives it."""
    ch, phi = build(spec), ket(_input_ket(spec.d))
    rho = apply(ch, embed_pure_input(ch, phi))
    return in_input_frame(rho, phi) if spec.covariant else rho


def _dense_purified_reduction(rho, d, m, k):
    """The dense formula on the pair purification at d^2, ancillas traced out."""
    pairs = _dense_reduction(projector(purify_perm_invariant(rho)), d * d, m, k)
    return partial_trace(DenseOperator(pairs, (d,) * (2 * k)), range(0, 2 * k, 2))


def _scenario(spec, checks, coeffs=None, ks=(1,)):
    """A scenario on `spec` with the input _input_ket(d), or the ket `coeffs`."""
    phi = _input_ket(spec.d) if coeffs is None else coeffs
    return scenario_from_dict({
        "schema": 1,
        "channel": to_json(spec),
        "input": {"type": "pure", "coeffs": [[z.real, z.imag] for z in phi]},
        "k": list(ks),
        "checks": checks,
    })


def _purified_ks(spec):
    return [k for k in range(1, spec.M + 1) if (spec.d ** 2) ** (spec.M + k) <= 2 ** 11]


@pytest.mark.parametrize("spec", COVERED, ids=_label)
def test_output_and_marginals_match_dense(spec):
    rho, coords = _dense_output(spec)
    assert np.max(np.abs(embed_coords(coords_matrix(coords), spec.d, spec.M).entries
                         - rho.entries)) <= TOL
    for k in range(1, min(3, spec.M) + 1):
        got = embed_coords(marginal_coords(coords, spec.d, spec.M, k, ket=coords.ndim == 2),
                           spec.d, k)
        want = partial_trace(rho, range(k))
        assert np.max(np.abs(got.entries - want.entries)) <= TOL


@pytest.mark.parametrize("spec", COVERED, ids=_label)
def test_reduction_matches_dense(spec):
    rho, coords = _dense_output(spec)
    for k in range(1, 4):
        if spec.d ** (spec.M + k) > 2 ** 11:
            break
        got = embed_coords(reduce_coords(coords, spec.d, spec.M, k, ket=coords.ndim == 2),
                           spec.d, k)
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
    # a theorem2 run keeps only its distances, so its purification is built
    # here as the run builds it
    state = purified_state(spec.dense_output(cfg.phi))
    assert state.paired
    for k, row in zip(ks, run_scenario(cfg)):
        marginal = partial_trace(rho, range(k))
        tilde = _dense_purified_reduction(rho, spec.d, spec.M, k)
        general = dense_users(purified_state(rho), k)[1]
        assert np.max(np.abs(general.entries - tilde.entries)) <= TOL
        rho_k, tilde_k = dense_users(state, k)
        assert np.max(np.abs(rho_k.entries - marginal.entries)) <= TOL
        assert np.max(np.abs(tilde_k.entries - tilde.entries)) <= TOL
        dist = trace_distance(marginal.entries, tilde.entries)
        assert abs(row.actual_distance - dist) <= TOL
        assert row.satisfied_theorem2


@pytest.mark.parametrize("d,m,k", [(9, 2, 1), (9, 2, 2), (4, 6, 1),
                                   (4, 4, 1), (4, 4, 2), (4, 4, 3)])
def test_ket_kernels_match_matrix_kernels(d, m, k):
    """Rows c_j with `ket` stand for sum_j c_j c_j†; the kernels on them
    equal those on that matrix, also where the dense oracle cannot reach,
    e.g. (d^2 = 9, M = 2, k = 2).  One row is the pair route's ket."""
    rng = np.random.default_rng(11)
    s = sym_dim(d, m)
    for r in (1, 3):
        c = rng.standard_normal((r, s)) + 1j * rng.standard_normal((r, s))
        c /= np.linalg.norm(c)
        rho = coords_matrix(c)
        assert np.max(np.abs(marginal_coords(c, d, m, k, ket=True)
                             - marginal_coords(rho, d, m, k))) <= TOL
        assert np.max(np.abs(reduce_coords(c, d, m, k, ket=True)
                             - reduce_coords(rho, d, m, k))) <= TOL


@st.composite
def _occupation_states(draw):
    """A random full-rank state of Sym^M(C^d) as the rows of its kets_of,
    or a random ket of Sym^M(C^{d^2}), one row, standing for a pair
    purification."""
    d = draw(st.sampled_from([2, 3]))
    m_users = draw(st.integers(1, 8 if d == 2 else 4))
    paired = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if not paired:
        return OccupationState(kets_of(random_state(rng, sym_dim(d, m_users)).entries),
                               d, m_users)
    c = rng.standard_normal(sym_dim(d * d, m_users)) * (1 + 0j)
    c += 1j * rng.standard_normal(c.size)
    return OccupationState((c / np.linalg.norm(c))[None, :], d, m_users, paired=True)


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(state=_occupation_states())
def test_users_step_matches_embedding_and_partial_trace(state):
    """users(state, k) against the kernel's output embedded at side q^k
    (q = d^2 paired) with the ancillas traced out, where that side is at most 2^10;
    every result, up to a gather of 2^20 entries (all but k > 6 paired
    qubits, 24 MiB and more), is a state in its frame."""
    d, q = state.d, state.d ** 2 if state.paired else state.d
    for k in range(1, state.m + 1):
        if d ** (3 * k if state.paired else 2 * k) > 2 ** 20:
            break
        results = zip((marginal_coords, reduce_coords), users(state, k),
                      dense_users(state, k) if q ** k <= 2 ** 10 else (None,) * 2)
        for kernel, frame, dense in results:
            got = frame
            assert np.array_equal(got, got.conj().T)
            assert np.linalg.eigvalsh(got)[0] >= -TOL
            assert abs(np.trace(got) - 1.0) <= TOL
            if dense is None:
                continue
            want = embed_coords(kernel(state.coords, q, state.m, k, ket=True), q, k)
            if state.paired:
                want = partial_trace(DenseOperator(want.entries, (d,) * (2 * k)),
                                     range(0, 2 * k, 2))
            assert np.max(np.abs(dense.entries - want.entries)) <= TOL


@st.composite
def _reductions(draw):
    """A random unit-trace PSD s_M x s_M state, or the rows of one to three
    random kets of Sym^M(C^d) of unit trace (ket True), with d, M and
    1 <= k <= M."""
    d = draw(st.sampled_from([2, 3, 4]))
    m_users = draw(st.integers(1, {2: 8, 3: 5, 4: 3}[d]))
    k = draw(st.integers(1, m_users))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = sym_dim(d, m_users)
    if draw(st.booleans()):
        return random_state(rng, s).entries, False, d, m_users, k
    r = draw(st.integers(1, 3))
    c = rng.standard_normal((r, s)) + 1j * rng.standard_normal((r, s))
    return c / np.linalg.norm(c), True, d, m_users, k


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(case=_reductions())
def test_reduction_is_a_state(case):
    """reduce_coords maps states, as matrices and as kets, to states."""
    rho, ket_rows, d, m_users, k = case
    tilde = reduce_coords(rho, d, m_users, k, ket=ket_rows)
    assert tilde.shape == (sym_dim(d, k),) * 2
    assert np.max(np.abs(tilde - tilde.conj().T)) <= TOL
    assert np.linalg.eigvalsh(tilde)[0] >= -TOL
    assert abs(np.trace(tilde) - 1.0) <= TOL


def test_run_path_embeds_no_k_user_result(monkeypatch):
    """No run builds a k-user result by embedding or partial trace, and a
    lemma1 run gathers none at side d^k: its results stay s_k x s_k."""
    def refuse(*args, **kwargs):
        raise AssertionError("a k-user result was embedded on the run path")

    assert not hasattr(definetti, "embed_coords")
    assert not any(hasattr(OccupationState, name)
                   for name in ("marginal", "reduction"))
    assert not any(hasattr(mod, "partial_trace") for mod in (linalg, definetti))
    for spec in COVERED[:3] + PURIFIED:
        checks = ["lemma1"] if spec in COVERED else ["theorem2"]
        with monkeypatch.context() as patch:
            if spec in COVERED:
                patch.setattr(definetti, "_trace_table", refuse)
            rows = run_scenario(_scenario(spec, checks, ks=range(1, spec.M + 1)))
        assert all(row.satisfied_theorem2 or row.satisfied_lemma1 for row in rows)


def test_monte_carlo_stays_in_occupation_coordinates(monkeypatch):
    """mc_crosscheck, under lemma1 and theorem2, and the moment check take
    their references in occupation coordinates: no symmetrizer, embedding
    or dense k-user result."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Monte Carlo path left occupation coordinates")

    for name in ("symmetrizer", "embed_coords"):
        monkeypatch.setattr(scenario, name, refuse, raising=False)
    assert not hasattr(definetti, "embed_coords")
    assert not any(hasattr(OccupationState, name)
                   for name in ("marginal", "reduction"))
    spec = SDIChannelSpec("universal_cloner", d=2, M=3, N=1)
    for check in ("lemma1", "theorem2"):
        cfg = scenario_from_dict({
            "schema": 1,
            "channel": to_json(spec),
            "input": {"type": "random_pure", "seed": 3},
            "k": [1],
            "checks": [check, "mc_crosscheck"],
            "mc": {"samples": 2000, "seed": 3},
        })
        assert run_scenario(cfg)[0].satisfied_mc
    assert moment_check_record(2, 3, samples=2000, seed=3).satisfied_mc


@pytest.mark.parametrize("d,m_users", [(2, 8), (2, 5), (3, 4), (4, 3)])
def test_frame_distance_matches_the_embedded_route(d, m_users):
    """Unpaired, the distance between the hermitized s_k x s_k kernel
    outputs equals the one between their embeddings at side d^k, since the
    isometry V preserves the trace norm."""
    rng = np.random.default_rng(17 * d + m_users)
    for _ in range(3):
        state = OccupationState(kets_of(random_state(rng, sym_dim(d, m_users)).entries),
                                d, m_users)
        for k in range(1, m_users + 1):
            rho_k, tilde = users(state, k)
            assert rho_k.shape == (sym_dim(d, k),) * 2
            want = trace_distance(
                embed_coords(marginal_coords(state.coords, d, m_users, k, ket=True),
                             d, k).entries,
                embed_coords(reduce_coords(state.coords, d, m_users, k, ket=True),
                             d, k).entries)
            assert abs(trace_distance(rho_k, tilde) - want) <= TOL


def test_kernels_run_only_for_the_checks_that_read_them(monkeypatch):
    calls = []

    def counted(kernel):
        def run(rho, d, m, k, ket=False):
            calls.append((kernel.__name__, m, k))
            return kernel(rho, d, m, k, ket)
        return run

    for kernel in (marginal_coords, reduce_coords):
        monkeypatch.setattr(definetti, kernel.__name__, counted(kernel))

    def cloner(checks, ks):
        return scenario_from_dict({
            "schema": 1,
            "channel": {"kind": "universal_cloner", "d": 2, "N": 1, "M": 4},
            "input": {"type": "random_pure", "seed": 0},
            "k": ks, "checks": checks, "mc": {"samples": 200, "seed": 3},
        })

    # a bare mc_crosscheck reads the reduction at k = 1 from a sweep at
    # k = 1 alone, whose one-user marginal it leaves unread
    rows = run_scenario(cloner(["mc_crosscheck"], [1, 2]))
    assert calls == [("marginal_coords", 4, 1), ("reduce_coords", 4, 1)]
    assert rows[0].satisfied_mc and rows[1].actual_distance is None
    # under lemma1 each kernel runs once, on the 4 users at K = 3; k = 2 and
    # k = 1 drop one user from each result above them, and the sampler's
    # reference is the reduction the distance took
    calls.clear()
    rows = run_scenario(cloner(["lemma1", "perr", "fidelity_gap",
                                "mc_crosscheck"], [1, 3, 2]))
    assert all(row.satisfied_lemma1 for row in rows) and rows[0].satisfied_mc
    assert calls == [("marginal_coords", 4, 3), ("reduce_coords", 4, 3),
                     *[("marginal_coords", k + 1, k) for k in (2, 2, 1, 1)]]


def test_every_k_user_result_is_one_contraction(monkeypatch):
    """marginal_coords, reduce_coords and the pair route's ancilla trace all
    run through definetti.contract: two calls a k unpaired, four paired, of
    which the ancilla traces read d^k x d^k tables."""
    calls, contract = [], definetti.contract

    def counted(x, idx, coef, ket=False):
        calls.append(idx.shape)
        return contract(x, idx, coef, ket)

    rng = np.random.default_rng(5)
    unpaired = OccupationState(kets_of(random_state(rng, sym_dim(2, 4)).entries), 2, 4)
    paired = purified_state(_choi_output(PURIFIED[0]))
    with monkeypatch.context() as patch:
        patch.setattr(definetti, "contract", counted)
        users(unpaired, 2)
        assert len(calls) == 2
        calls.clear()
        users(paired, 2)
    d = paired.d
    assert len(calls) == 4 and calls.count((d ** 2, d ** 2)) == 2


def _rank3(d, m_users):
    rng = np.random.default_rng(d * 100 + m_users)
    s = sym_dim(d, m_users)
    w = rng.standard_normal((3, s)) + 1j * rng.standard_normal((3, s))
    return OccupationState(w / np.linalg.norm(w), d, m_users)


def _noisy_purification(d, m_users):
    spec = SDIChannelSpec("noisy_cloner", d=d, M=m_users, N=1, p=0.1)
    return purified_state(spec.dense_output(_input_ket(d)))


@pytest.mark.parametrize("make,d,m_users", [
    *[(_rank3, d, m) for d, m in ((2, 10), (3, 8), (4, 6))],
    *[(_noisy_purification, d, m) for d, m in ((2, 5), (3, 3), (4, 2))],
], ids=["rank3-2-10", "rank3-3-8", "rank3-4-6", "paired-2-5", "paired-3-3",
        "paired-4-2"])
def test_sweep_matches_the_direct_kernels_at_every_k(make, d, m_users):
    """Each smaller k of a sweep is a chain of one-user partial traces down
    from K = M; it agrees with users(state, k), which runs both kernels at k
    itself, and a sweep over some ks yields those ks, largest first,
    chained through the ones it skips."""
    state = make(d, m_users)
    every = {k: pair for k, *pair in state.sweep(range(1, m_users + 1))}
    assert list(every) == list(range(m_users, 0, -1))
    some = {k: pair for k, *pair in state.sweep({1, m_users})}
    assert list(some) == sorted({1, m_users}, reverse=True)
    for k, results in every.items():
        for got, want in zip(results, users(state, k)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= TOL
        if k in some:
            assert all(np.array_equal(a, b) for a, b in zip(some[k], results))


def test_a_run_holds_one_k_user_pair_at_a_time(monkeypatch):
    """run_scenario takes each k's distance as the sweep passes it: when
    the distance of a k is taken, the pairs of the ks above it are freed."""
    taken = []

    def spy(rho, sigma):
        assert all(ref() is None for ref in taken)
        taken.extend((weakref.ref(rho), weakref.ref(sigma)))
        return trace_distance(rho, sigma)

    monkeypatch.setattr(scenario, "trace_distance", spy)
    rows = run_scenario(_cloner(2, 12, [1, 3, 6, 12]))
    assert all(row.satisfied_lemma1 for row in rows) and len(taken) == 8


def test_users_are_plain_complex_arrays():
    """A sweep hands over two hermitized complex arrays, with no wrapper:
    s_k x s_k unpaired, d^k x d^k paired."""
    rng = np.random.default_rng(5)
    unpaired = OccupationState(kets_of(random_state(rng, sym_dim(2, 4)).entries), 2, 4)
    paired = purified_state(_choi_output(PURIFIED[0]))
    for state, side in ((unpaired, sym_dim(2, 2)), (paired, paired.d ** 2)):
        for x in users(state, 2):
            assert type(x) is np.ndarray and x.dtype == complex
            assert x.shape == (side, side) and np.array_equal(x, x.conj().T)


def test_lemma1_run_builds_no_dense_operator(monkeypatch):
    """The symmetric route wraps nothing: a lemma1 run of the 1 -> 10 qubit
    cloner, every k-user result and the Monte Carlo reference included,
    builds no DenseOperator, not even its input ket, which a cloner's run
    neither draws nor builds."""
    built, post_init = [], DenseOperator.__post_init__

    def counted(op):
        post_init(op)
        built.append(op.shape)

    monkeypatch.setattr(DenseOperator, "__post_init__", counted)
    cfg = _dense_scenario({"kind": "universal_cloner", "d": 2, "N": 1, "M": 10},
                          ks=(1, 2, 3), checks=["lemma1", "perr", "fidelity_gap",
                                                "mc_crosscheck"])
    rows = run_scenario(cfg)
    assert all(row.satisfied_lemma1 for row in rows) and rows[0].satisfied_mc
    assert built == []


MIXED_PREP = [[[[0.5, 0], [0.1, 0]], [[0.1, 0], [0.5, 0]]]]
PLUS = [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]
PURE_PREP = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
DIAG_POVM = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
             [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
LEMMA1_RUNS = {
    "cloner-random": ({"kind": "universal_cloner", "d": 3, "N": 2, "M": 6}, None),
    "noisy-p0": ({"kind": "noisy_cloner", "d": 2, "N": 1, "M": 5, "p": 0.0}, None),
    "noisy-M1": ({"kind": "noisy_cloner", "d": 3, "N": 1, "M": 1, "p": 0.2}, None),
    "prep-pure-input": ({"kind": "fixed_prep", "d": 2, "M": 6, "prep": [PLUS]},
                        {"type": "pure", "coeffs": [[0.6, 0.0], [0.0, 0.8]]}),
    "prep-random": ({"kind": "fixed_prep", "d": 2, "M": 6, "prep": [PURE_PREP]}, None),
    "measure-diag-input": ({"kind": "measure_prepare", "d": 2, "M": 4,
                            "prep": [PURE_PREP, PLUS], "povm": DIAG_POVM},
                           {"type": "diag", "probs": [0.25, 0.75]}),
    "measure-mixed-M1": ({"kind": "measure_prepare", "d": 2, "M": 1,
                          "prep": [MIXED_PREP[0], PLUS], "povm": DIAG_POVM}, None),
}


@pytest.mark.parametrize("name", LEMMA1_RUNS)
def test_no_lemma1_run_of_any_kind_builds_a_dense_operator(monkeypatch, name):
    """Inputs are plain arrays, and the symmetric route holds diagonals and
    kets: no lemma1 run builds a DenseOperator, whatever the channel kind
    and the input type, with its Monte Carlo check or without."""
    built, post_init = [], DenseOperator.__post_init__

    def counted(op):
        post_init(op)
        built.append(op.shape)

    monkeypatch.setattr(DenseOperator, "__post_init__", counted)
    channel, state = LEMMA1_RUNS[name]
    for checks in (["lemma1"], ["lemma1", "mc_crosscheck"]):
        rows = run_scenario(_dense_scenario(channel, ks=(1,), checks=checks,
                                            input_state=state))
        assert rows[0].satisfied_lemma1 and rows[0].satisfied_mc is not False
    assert built == []


@pytest.mark.parametrize("d,k", [(2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4)])
def test_trace_table_holds_d_to_the_2k_entries(d, k):
    """The cached ancilla-trace table is two d^k x d^k arrays, not d^3k."""
    idx, coef = definetti._trace_table(d, k)
    assert idx.shape == coef.shape == (d ** k, d ** k)


def test_purified_state_holds_a_ket():
    rho = _choi_output(PURIFIED[-1])
    state = purified_state(rho)
    assert state.paired and state.coords.shape == (1, sym_dim(9, 2))


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
        state = coords_matrix(state)
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
    # _input_ket weights every outcome, so the spec alone decides the support
    try:
        spec.symmetric_output(_input_ket(spec.d))
    except SupportError:
        refused = True
    else:
        refused = False
    assert refused != validate_sdi(build(spec)).symmetric_support


BASIS2 = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
# mixed preparations whose output still lies in Sym^M: one user, or an
# outcome that the input never gives
MIXED_IN_SYM = [
    (SDIChannelSpec("fixed_prep", d=2, M=1, prep=(MIXED2,)), None),
    (SDIChannelSpec("measure_prepare", d=2, M=3, prep=(PHI2, MIXED2), povm=BASIS2),
     np.array([1.0, 0.0])),
]
# the grid of the support decision: specs and inputs (None: _input_ket(d))
DECISIONS = [(spec, None) for spec in COVERED + DENSE_ONLY] + MIXED_IN_SYM + [
    (SDIChannelSpec("noisy_cloner", d=2, M=1, N=1, p=0.1), None),
    (SDIChannelSpec("noisy_cloner", d=1, M=3, N=1, p=0.1), None),
    (MIXED_IN_SYM[1][0], np.array([0.0, 1.0])),
]


def _decision_label(case):
    spec, coeffs = case
    return _label(spec) + ("" if coeffs is None else f"-in{int(coeffs[1])}")


@pytest.mark.parametrize("spec,coeffs", DECISIONS,
                         ids=[_decision_label(case) for case in DECISIONS])
def test_symmetric_output_decides_as_the_dense_oracle(spec, coeffs):
    """symmetric_output runs exactly where V† rho V of the dense output
    does, and both give the same coordinates there."""
    phi = _input_ket(spec.d) if coeffs is None else coeffs
    results = []
    for route in (spec.symmetric_output,
                  lambda x: symmetric_state(spec.dense_output(x)).coords):
        try:
            results.append(route(phi))
        except SupportError:
            results.append(None)
    got, want = results
    assert (got is None) == (want is None)
    if got is not None:
        # a cloner's output is its diagonal in the input's frame, a
        # preparation's its kets
        assert got.ndim == 1 + (not spec.covariant)
        assert np.max(np.abs(coords_matrix(got) - coords_matrix(want))) <= TOL


@pytest.mark.parametrize("spec", COVERED[:4] + PURIFIED, ids=_label)
def test_support_residual_matches_dense_projection(spec):
    """validate_sdi projects both output indices of the Choi matrix."""
    ch = build(spec)
    p = symmetrizer(spec.d, spec.M).entries
    c = ch.choi.entries.reshape(ch.dim_out, ch.dim_in, ch.dim_out, ch.dim_in)
    proj = np.tensordot(np.tensordot(p, c, axes=(1, 0)), p, axes=(2, 0))
    proj = proj.transpose(0, 1, 3, 2)
    want = float(np.max(np.abs(c - proj)))
    assert abs(validate_sdi(ch).support_residual - want) <= TOL


@pytest.mark.parametrize("spec", DENSE_ONLY, ids=_label)
def test_symmetric_output_refuses_dense_only_specs(spec):
    field = {"noisy_cloner": r"p: 0\.1 depolarizes the 3 users",
             "fixed_prep": r"prep\[0\]: mixed \(second eigenvalue 1\.000e-01\), "
                           r"weight 1\.000e\+00 from the input",
             "measure_prepare": r"prep\[1\]: mixed \(second eigenvalue "
                                r"1\.000e-01\), weight \d\.\d{3}e-01 from the input"}
    with pytest.raises(SupportError, match=f"^channel\\.{field[spec.kind]}"):
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
    rho_in = np.diag([0.3, 0.7])
    want = apply(build(spec), DenseOperator(rho_in, (2,)))
    assert np.max(np.abs(spec.dense_output(rho_in).entries - want.entries)) <= TOL


def test_a_cloner_dense_output_reaches_its_index_map_only_within_the_cap(monkeypatch):
    """dense_output takes a cloner's index map with no side check of its
    own: over d <= 5, M <= 30 and six caps, its plan refuses every output
    of side d^M > cap first (it admits 182 cases, d^M/cap at most 0.712)."""
    class Reached(Exception):
        pass

    def spy(d, n):
        reached.append((d, n, d ** n / cap))
        raise Reached

    monkeypatch.setattr(channels, "_index_map", spy)
    reached = []
    for cap in (3, 7, 64, 2 ** 10, 2 ** 14, 2 ** 16):
        for d in range(1, 6):
            for m_users in range(1, 31):
                with pytest.raises((Reached, ResourceLimitError)):
                    SDIChannelSpec("universal_cloner", d=d, M=m_users, N=1).dense_output(
                        None, cap)
    assert max(ratio for _, _, ratio in reached) <= 1.0
    assert {d for d, _, _ in reached} == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("p", [1.5, -0.1])
def test_dense_output_refuses_a_depolarizing_weight_as_before(p):
    # the spec refuses it when constructed, naming the field
    with pytest.raises(ValueError, match=r"^p: depolarizing weight must be in \[0, 1\]"):
        SDIChannelSpec("noisy_cloner", d=2, M=3, N=1, p=p)


POVM3 = (np.diag([1.0, 0.5, 0.0]), np.diag([0.0, 0.5, 1.0]))


@pytest.mark.parametrize("spec,state", [
    (SDIChannelSpec("noisy_cloner", d=2, M=2, N=1, p=0.1), _input_ket(3)),
    (SDIChannelSpec("fixed_prep", d=2, M=2, prep=(MIXED2,)), _input_ket(3)),
    (SDIChannelSpec("measure_prepare", d=2, M=2, prep=(PHI2, MIXED2), povm=POVM3),
     _input_ket(2)),
    (SDIChannelSpec("measure_prepare", d=2, M=2, prep=(PHI2, MIXED2), povm=POVM3),
     np.diag([0.5, 0.5])),
], ids=["cloner-ket", "prep-ket", "measure-ket", "measure-matrix"])
def test_dense_output_refuses_a_wrong_input_as_the_oracle_does(spec, state):
    ch = build(spec)
    with pytest.raises(ValueError) as oracle:
        apply(ch, embed_pure_input(ch, ket(state)) if state.ndim == 1
              else DenseOperator(state, state.shape[:1]))
    with pytest.raises(ValueError) as built:
        spec.dense_output(state)
    assert str(built.value) == str(oracle.value)


@pytest.mark.parametrize("m_users", [1, 3])
@pytest.mark.parametrize("state,message", [
    (_input_ket(3), "^ket dimension 3 does not match single-copy dimension 2$"),
    (np.array([0.6, 0.6]), "^input ket has norm 0.84"),
    (np.eye(2) / 2, "^expected a ket$"),
], ids=["dimension", "norm", "matrix"])
def test_cloner_outputs_check_a_given_ket(m_users, state, message):
    """A cloner's output is taken in its input's frame, so it is the same
    for every unit ket, or none; a ket that is given is still checked."""
    spec = SDIChannelSpec("noisy_cloner", d=2, M=m_users, N=1, p=0.0)
    for output in (spec.symmetric_output, spec.dense_output):
        with pytest.raises(ValueError, match=message):
            output(state)
    for output in (spec.symmetric_output, lambda x: spec.dense_output(x).entries):
        assert np.array_equal(output(_input_ket(2)), output(None))


def test_run_path_builds_no_choi_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Choi oracle was called on the run path")

    names = ("apply", "validate_sdi", "embed_pure_input")
    assert not any(hasattr(mod, name) for mod in (scenario, channels) for name in names)
    assert not hasattr(SDIChannelSpec, "build")
    monkeypatch.setattr(QuantumChannel, "__post_init__", refuse)
    runs = [(spec, ["theorem2"], None) for spec in COVERED[:1] + PURIFIED]
    runs += [(spec, ["lemma1"], None) for spec in COVERED]
    runs += [(spec, ["lemma1"], coeffs) for spec, coeffs in MIXED_IN_SYM]
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
    return spec, phi / np.linalg.norm(phi)


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(case=_mixed_specs())
def test_dense_output_is_a_permutation_invariant_state(case):
    spec, phi = case
    rho = spec.dense_output(phi)
    validate_state(rho.entries, name="dense output")
    for t in range(spec.M - 1):
        assert swap_residual(rho, t) <= 1e-12


def test_power_coords_matches_isometry():
    u = _input_ket(3)
    full = np.kron(np.kron(u, u), u)
    want = _index_map(3, 3).compress(full)
    assert np.max(np.abs(power_coords(u, 3) - want)) <= TOL
    assert np.array_equal(power_coords(np.array([1.0, 0.0]), 3),
                          np.array([1.0, 0.0, 0.0, 0.0]))


# -- the preparations' kets --------------------------------------------------


def _random_pure(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return _pure(z)


def _random_povm(rng, n, r):
    """r random POVM elements on C^n: S^{-1/2} A_i S^{-1/2} for random PSD
    A_i with S = sum_i A_i."""
    a = [_density(rng, n) for _ in range(r)]
    vals, vecs = np.linalg.eigh(sum(a))
    root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return tuple(root @ x @ root for x in a)


def _prep_cases():
    """(label, spec, input) for the ket route: one to four pure
    preparations, measure_prepare on a density matrix, mixed preparations
    at M = 1, and d = 1."""
    rng = np.random.default_rng(26)
    cases = []
    for d, m_users in ((2, 6), (3, 4)):
        for m in (m_users, 1):
            cases.append((f"fixed-d{d}-M{m}", SDIChannelSpec(
                "fixed_prep", d=d, M=m, prep=(_random_pure(rng, d),)), _input_ket(d)))
            for r in (2, 3, 4):
                spec = SDIChannelSpec("measure_prepare", d=d, M=m,
                                      prep=tuple(_random_pure(rng, d) for _ in range(r)),
                                      povm=_random_povm(rng, 3, r))
                cases.append((f"measure{r}-d{d}-M{m}", spec, _input_ket(3)))
                cases.append((f"measure{r}-d{d}-M{m}-mixed-input", spec,
                              _density(rng, 3)))
        cases.append((f"mixed-preps-d{d}-M1", SDIChannelSpec(
            "measure_prepare", d=d, M=1, prep=(_density(rng, d), _random_pure(rng, d),
                                               _density(rng, d)),
            povm=_random_povm(rng, 2, 3)), _density(rng, 2)))
    one = np.ones((1, 1))
    for m in (1, 5):
        cases.append((f"fixed-d1-M{m}", SDIChannelSpec("fixed_prep", d=1, M=m, prep=(one,)),
                      np.array([1.0])))
        cases.append((f"measure2-d1-M{m}", SDIChannelSpec(
            "measure_prepare", d=1, M=m, prep=(one, one), povm=POVM2), _input_ket(2)))
    return cases


PREP_CASES = _prep_cases()
# the matrix kernels gather s_k^2 s_{M+k} terms; larger (d, M, k) are left out
MAX_MATRIX_GATHER = 2 ** 20


@pytest.mark.parametrize("spec,state", [case[1:] for case in PREP_CASES],
                         ids=[case[0] for case in PREP_CASES])
def test_ket_route_matches_the_matrix_kernels_on_prep_coords(spec, state):
    """A preparation's output is its kets sqrt(w_j) v_j: they stand for the
    s_M x s_M matrix of prep_coords (at M = 1, the d x d dense output), and
    the ket kernels on them give the matrix kernels on it, at every k whose
    matrix gather fits, within 1e-13."""
    rows = spec.symmetric_output(state)
    kets, weights = spec._pure_preps(state)
    assert rows.shape == (len(kets), sym_dim(spec.d, spec.M))
    assert len(kets) <= spec.rows and weights.min() > 0  # no zero rows
    validate_state(rows, "channel output", ket=True)
    matrix = prep_coords(kets, weights, spec.M)
    assert np.max(np.abs(coords_matrix(rows) - matrix)) <= 1e-13
    if spec.M == 1:
        assert np.max(np.abs(matrix - spec.dense_output(state).entries)) <= 1e-13
    for k in range(1, spec.M + 1):
        if sym_dim(spec.d, k) ** 2 * sym_dim(spec.d, spec.M + k) > MAX_MATRIX_GATHER:
            break
        for kernel in (marginal_coords, reduce_coords):
            got = kernel(rows, spec.d, spec.M, k, ket=True)
            assert np.max(np.abs(got - kernel(matrix, spec.d, spec.M, k))) <= 1e-13


def test_a_negative_weight_counts_as_zero():
    """A POVM element may have eigenvalues down to -PSD_TOL, so an outcome
    may get a weight just below 0; it counts as 0 and its ket is dropped
    (its square root would not be finite), a weight below -PSD_TOL is
    refused, and the distance moves by less than 1e-9 from the s_M x s_M
    matrix's, which kept the weight -5e-10."""
    spec = SDIChannelSpec("measure_prepare", d=2, M=4, prep=BASIS2,
                          povm=(np.diag([1.0, -5e-10]), np.diag([0.0, 1.0 + 5e-10])))
    rows = spec.symmetric_output(np.array([0.0, 1.0]))
    assert np.isfinite(rows).all() and rows.shape == (1, sym_dim(2, 4))
    row, _ = run_scenario(_scenario(spec, ["lemma1"], np.array([0.0, 1.0]), (1, 2)))
    assert np.isfinite(row.actual_distance)
    assert abs(row.actual_distance - 0.3333333336666667) <= 1e-9
    deeper = SDIChannelSpec("measure_prepare", d=2, M=4, prep=spec.prep,
                            povm=(np.diag([1.0, -1e-9]), np.diag([0.0, 1.0 + 1e-9])))
    with pytest.raises(ValueError, match=r"^prep\[0\] has weight -1\.000e-09 from the input"):
        deeper.symmetric_output(np.array([0.0, 1.0 + 5e-10]))


def test_fixed_prep_holds_no_s_m_matrix():
    """fixed_prep of |+> under lemma1 at 2048 qubits holds its one ket of
    s_M = 2049 coordinates: the run peaks below one complex 2049 x 2049
    matrix, which it never builds."""
    spec = SDIChannelSpec("fixed_prep", d=2, M=2048, prep=(_pure([1.0, 1.0]),))
    cfg = _scenario(spec, ["lemma1"], np.array([1.0, 0.0]), (1, 2, 3))
    assert _traced_peak(lambda: run_scenario(cfg)) < 16 * 2049 ** 2
    assert all(row.satisfied_lemma1 for row in run_scenario(cfg))


# -- resource guard ----------------------------------------------------------


def _cloner(d, m_users, ks):
    return scenario_from_dict({
        "schema": 1,
        "channel": {"kind": "universal_cloner", "d": d, "N": 1, "M": m_users},
        "input": {"type": "random_pure", "seed": 0},
        "k": list(ks),
        "checks": ["lemma1", "perr", "fidelity_gap"],
    })


@pytest.mark.parametrize("d,m_users", [(2, 145349), (3, 3914)])
def test_too_large_raises_before_allocating(d, m_users):
    # the first sizes the byte budget refuses at k = 1
    plan(d, m_users - 1, [1])
    cfg = _cloner(d, m_users, [1])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"route for {m_users} users: 1-user "
                                                     "result would need [0-9]+ bytes"):
            run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("d,ran,first", [(2, 102466, 102467), (3, 400, 2188)])
def test_cloner_reach_is_the_byte_budget(d, ran, first):
    """A cloner's output is charged as its s_M diagonal, and no side caps
    it: lemma1 at k = 1..3 runs until its 3-user stage passes the byte
    budget, and is refused there before anything is allocated.  The qubit
    edge runs; the qutrit one, 2187 users, is planned at nearly 4 GiB, so
    400 qutrits run in its place."""
    rows = run_scenario(_cloner(d, ran, [1, 2, 3]))
    assert all(row.satisfied_lemma1 for row in rows)
    assert abs(rows[0].actual_distance - 2 * (d - 1) / ((d + 1) * ran)) <= TOL
    plan(d, first - 1, [1, 2, 3])
    cfg = _cloner(d, first, [1, 2, 3])
    assert _traced_peak(lambda: run_scenario(cfg), ResourceLimitError) < 2 ** 20
    with pytest.raises(ResourceLimitError, match=f"occupation-coordinate route for "
                                                 f"{first} users: 3-user result would need"):
        run_scenario(cfg)


@pytest.mark.parametrize("d,n_in,m_users,ks,rel_tol", [
    (3, 50, 100, [1], 1e-11), (2, 600, 1200, [1, 2, 3], 1e-11), (2, 1000, 2000, [1], 1e-11),
    (4, 20, 40, [1], 1e-11), (2, 638, 957, [1], 1e-11), (3, 36, 58, [1], 1e-11),
    (2, 1, 50000, [1], 1e-8), (3, 1, 400, [1], 1e-8)])
def test_cloners_the_scatter_charge_refused_now_run(d, n_in, m_users, ks, rel_tol):
    """The plan charged an N -> M cloner's output as the split table's
    s_N^2 s_{M-N} scatter, which refused these, 638 -> 957 qubits and
    36 -> 58 qutrits the first of each d; the side cap on s_M refused the
    last two.  The closed form holds M + 1 values: each runs under its
    plan's largest stage, traced from empty caches, and D_1 is the law
    2N(d - 1)/(M(N + d)) within `rel_tol`, the large-M law test's."""
    cfg = scenario_from_dict({
        "schema": 1,
        "channel": {"kind": "universal_cloner", "d": d, "N": n_in, "M": m_users},
        "input": {"type": "random_pure", "seed": 0},
        "k": ks, "checks": ["lemma1"]})
    stages = _plan(cfg, DEFAULT_DIM_CAP).stages
    rows = []
    assert _traced_peak(lambda: rows.extend(run_scenario(cfg))) <= max(b for _, b in stages)
    assert all(row.satisfied_lemma1 for row in rows)
    want = 2 * n_in * (d - 1) / (m_users * (n_in + d))
    assert abs(rows[0].actual_distance - want) <= rel_tol * want


def test_one_user_reach_in_d():
    """One user of a cloner is an s_1 = d diagonal, whose reduction gathers
    d s_2 terms: refused from d = 563.  A preparation at M = 1 holds d
    kets, gathered one at a time over s_1 s_2 terms: refused from d = 561."""
    plan(562, 1, [1])
    with pytest.raises(ResourceLimitError, match="1-user result would need"):
        plan(563, 1, [1])
    spec = SDIChannelSpec("fixed_prep", d=128, M=1, prep=(np.eye(128) / 128,))
    assert spec.rows == 128
    plan(128, 1, [1], rows=spec.rows)
    plan(560, 1, [1], rows=560)
    with pytest.raises(ResourceLimitError, match="1-user result would need"):
        plan(561, 1, [1], rows=561)


def test_a_pure_preparation_holds_one_row_at_one_user():
    """fixed_prep of a pure state at M = 1 holds its one ket of weight 1,
    not d eigenvectors of which d - 1 weigh 0: at d = 100 its k = 1 run
    took 1.7 s of CPU while it gathered all 100 (0.15 s with one)."""
    d = 100
    basis = [[[float(i == j == 0), 0.0] for j in range(d)] for i in range(d)]
    cfg = _dense_scenario({"kind": "fixed_prep", "d": d, "M": 1, "prep": [basis]},
                          checks=["lemma1"])
    assert cfg.channel.rows == d  # the plan's bound
    assert cfg.channel.symmetric_output(cfg.phi).shape == (1, d)
    start = time.process_time()
    row, = run_scenario(cfg)
    assert time.process_time() - start < 0.6
    # rho_1 = |0><0| against (rho_1 + 1)/(d + 1)
    assert abs(row.actual_distance - 2 * (d - 1) / (d + 1)) <= TOL


def test_large_k_refused_before_allocating():
    # k-user results stay s_k x s_k (diagonals for a cloner), so k = M = 13
    # qubits runs; a diagonal's gathers are s_k s_{M+k} terms, so every k
    # of 1024 qubits fits; at M = 4096 the split table at K, with its
    # Python-integer binomials, first passes the byte budget at k = 1144
    rows = run_scenario(_cloner(2, 13, [1, 13]))
    assert all(row.satisfied_lemma1 for row in rows)
    plan(2, 1024, [1, 1024])
    plan(2, 1024, [1, 1024], rows=1)
    plan(2, 4096, [1, 1143])
    with pytest.raises(ResourceLimitError,
                       match="occupation-coordinate route for 4096 users: 1144-user"):
        plan(2, 4096, [1, 1144])
    for k in (1144, 2048):
        cfg = _cloner(2, 4096, [1, k])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError,
                               match="occupation-coordinate route for 4096 users"):
                run_scenario(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_guard_counts_gathers_in_bytes():
    plan(2, 1024, [1, 2, 3])
    plan(3, 64, [1, 2, 3])
    # s_M reals, or kets of s_M, fit until the 1-user result's gathers,
    # 32 bytes each of s_1 s_{M+1} terms, pass the budget; no side bounds s_M
    plan(2, 12000, [1])
    plan(2, 145348, [1])
    plan(2, 145268, [1], rows=1)
    plan(2, 144793, [1], rows=4)
    for rows, m_users in ((None, 145349), (1, 145269), (4, 144794)):
        with pytest.raises(ResourceLimitError, match=f"route for {m_users} users: "
                                                     "1-user result would need"):
            plan(2, m_users, [1], rows=rows)
    plan(3, 100, [1])
    # a 500-user result is 501 x 501; its reduction gathers 501 s_1500
    # terms of a ket
    plan(2, 1000, [30])
    plan(2, 1000, [500], rows=1)
    with pytest.raises(ResourceLimitError, match="bytes"):
        plan(2, 4096, [1144], rows=1)
    with pytest.raises(ResourceLimitError):
        plan(2, 10 ** 30, [1])


def _mc_chunk(d, m, k):
    return plan(d, m, output=False, mc=k).chunk


def test_mc_guard_counts_bytes():
    # what the suite samples fits, up to the fourth moment
    assert _mc_chunk(2, 2, 1) > 1
    for n in (1, 2, 3, 4):
        _mc_chunk(2, n, n)
    # 12 qubits: six complex 13^2 arrays, and chunks of 26886 draws of
    # 13 + 26 entries each
    assert _mc_chunk(2, 12, 12) == 2 ** 20 // (13 + 26) == 26886
    # 7257 qubits fit; at 7258, s_n = 7259 fits the side cap, but five
    # complex s_n x s_n arrays, 80 * 7259^2 bytes, and a chunk of 48 draws of
    # 21777 entries exceed the budget of one complex matrix at that cap
    # (16 * 2^28); the diagonal state is 8 s_n bytes
    assert _mc_chunk(2, 7257, 7257) == 2 ** 20 // 21774 == 48
    with pytest.raises(ResourceLimitError, match="bytes"):
        _mc_chunk(2, 7258, 7258)
    _mc_chunk(3, 119, 119)
    with pytest.raises(ResourceLimitError, match="bytes"):
        _mc_chunk(3, 120, 120)
    # one user of 205097 qubits fits; at 205098 power_coords' tables at M,
    # M + 1 binomials of up to M bits, pass the budget
    _mc_chunk(2, 205097, 1)
    with pytest.raises(ResourceLimitError,
                       match="route for 205098 users: Monte Carlo estimate of 1 users would need"):
        _mc_chunk(2, 205098, 1)
    # s_180 = 16471 qutrit coordinates: five s_n x s_n arrays of 4.3 GB each
    with pytest.raises(ResourceLimitError,
                       match="Monte Carlo estimate of 180 users would need [0-9]+ bytes"):
        _mc_chunk(3, 180, 180)
    with pytest.raises(ValueError, match="1 <= k <= M=3"):
        _mc_chunk(2, 3, 4)


def test_moment_check_at_order_540_has_a_finite_sigma():
    # |c_n c_n'|^2 of far-apart coordinates underflowed from order 540, so
    # stderr read 0 where the estimate did not, and sigma inf
    row = moment_check_record(2, 540, samples=1000, seed=1)
    assert np.isfinite(row.actual_distance)
    s_n = sym_dim(2, 540)
    est, stderr = mc_reduce_coords(np.full(s_n, 1 / s_n), 2, 540, 540, 1000, seed=1)
    assert np.all(stderr[est != 0] > 0)


@pytest.mark.parametrize("d,m,k", [(2, 12, 12), (3, 6, 3), (2, 100, 100)])
def test_scaled_squares_move_no_digit_where_nothing_underflows(d, m, k):
    # the unscaled E|x|^2 - |E x|^2 over the same draws, in one chunk
    s_m, samples = sym_dim(d, m), 600
    rng = np.random.default_rng(3)
    a = rng.standard_normal((s_m, 2)) + 1j * rng.standard_normal((s_m, 2))
    rows = a.T / np.sqrt(np.sum(np.abs(a) ** 2))  # the kets of a a† / Tr
    u = haar_kets(np.random.default_rng((4, 1)), samples, d)
    c, c_k = power_coords(u, m), power_coords(u, k)
    w = s_m * (np.abs(c @ rows.conj().T) ** 2).sum(axis=1)
    mean = (w[:, None] * c_k).T @ c_k.conj() / samples
    p = np.abs(c_k) ** 2
    var = np.maximum((w[:, None] ** 2 * p).T @ p / samples - np.abs(mean) ** 2, 0.0)
    est, stderr = mc_reduce_coords(rows, d, m, k, samples, seed=4)
    assert np.array_equal(est, mean)
    assert np.array_equal(stderr, np.sqrt(var / samples))


def test_moment_check_raises_before_allocating():
    # refused by the bytes (s_180 = 16471 at d = 3, s_7258 = 7259 at
    # d = 2), each before the s_n diagonal exists
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match="Monte Carlo estimate of 180 users would need"):
            moment_check_record(3, 180, samples=10, seed=0)
        with pytest.raises(ResourceLimitError, match="of 7258 users"):
            moment_check_record(2, 7258, samples=10, seed=0)
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
    """Peak bytes that tracemalloc sees while `run` works from empty caches,
    the covariant distances' memo among them."""
    _index_map.cache_clear()
    split_table.cache_clear()
    _covariant_distances.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(raises) if raises else contextlib.nullcontext():
            run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _measure4(d, m_users):
    """A measure_prepare channel of four pure preparations, each outcome
    weighted 1/4 for every input."""
    def basis(i):
        return [[[float(a == b == i % d), 0.0] for b in range(d)] for a in range(d)]
    flat = [[[0.25 * (a == b), 0.0] for b in range(d)] for a in range(d)]
    return {"kind": "measure_prepare", "d": d, "M": m_users,
            "prep": [basis(0), basis(1), PLUS if d == 2 else basis(2), basis(0)],
            "povm": [flat] * 4}


def _scenario_case(cfg):
    """The run's plan, and the output stage and the whole run of cfg."""
    return (_plan(cfg, DEFAULT_DIM_CAP),
            [lambda: _output(cfg, DEFAULT_DIM_CAP), lambda: run_scenario(cfg)])


def _mc_case(d, m, k):
    """The sampler's plan, and two full chunks and one draw from a state
    built under the trace: the maximally mixed one, as s_M kets."""
    s_m = sym_dim(d, m)
    p = plan(d, m, output=False, mc=k, rows=s_m)
    return p, [lambda: mc_reduce_coords(np.eye(s_m) / np.sqrt(s_m), d, m, k,
                                        2 * p.chunk + 1, seed=0)]


@pytest.mark.parametrize("case", [
    # k = M: the largest k-user stage, which stays s_k x s_k
    *[lambda m=m: _scenario_case(_cloner(2, m, [1, m])) for m in (9, 10)],
    # every k of 64 qubits: the reduction's gather at k = M is the peak, and
    # up to 64 split tables stay cached
    lambda: _scenario_case(_cloner(2, 64, range(1, 65))),
    lambda: _mc_case(2, 8, 8),
    lambda: _mc_case(3, 20, 2),
    # the ket route: one ket of 2048 qubits, and four of 400 qubits and of
    # 60 qutrits, the last with its Monte Carlo estimate
    lambda: _scenario_case(_dense_scenario(
        {"kind": "fixed_prep", "d": 2, "M": 2048, "prep": [PLUS]}, [1, 2, 3], ["lemma1"])),
    *[lambda d=d, m=m, checks=checks: _scenario_case(_dense_scenario(
        _measure4(d, m), [1, 2, 3], checks))
      for d, m, checks in ((2, 400, ["lemma1"]), (3, 60, ["lemma1", "mc_crosscheck"]))],
    # real outputs, 8 bytes an entry, up to 10 qubits
    *[lambda m=m: _scenario_case(_dense_scenario(_noisy(2, m)))
      for m in (6, 7, 8, 9, 10)],
    *[lambda m=m: _scenario_case(_dense_scenario(_noisy(3, m))) for m in (3, 4, 5)],
    lambda: _scenario_case(_dense_scenario(_noisy(2, 6), [1, 2, 3, 4, 5])),
    lambda: _scenario_case(_dense_scenario(_noisy(2, 8), [1, 2, 3, 4, 5, 6])),
    lambda: _scenario_case(_dense_scenario(
        {"kind": "universal_cloner", "d": 2, "N": 1, "M": 8}, [1],
        ["theorem2", "mc_crosscheck"])),
], ids=["symmetric-2-9", "symmetric-2-10", "symmetric-2-64-every-k",
        "mc-2-8-8", "mc-3-20-2", "prep-2-2048", "measure4-2-400", "measure4-3-60-mc",
        "dense-2-6", "dense-2-7", "dense-2-8",
        "dense-2-9", "dense-2-10", "dense-3-3", "dense-3-4", "dense-3-5", "dense-2-6-k1to5",
        "dense-2-8-k1to6", "dense-cloner-mc"])
def test_plan_bounds_the_traced_peak(case):
    # tracemalloc does not see LAPACK's workspace, so the bound it checks
    # leaves that term out of the pair purification stage
    run_plan, runs = case()
    bound = max(nbytes - run_plan.untraced * (name == "pair purification")
                for name, nbytes in run_plan.stages)
    for run in runs:
        assert _traced_peak(run) <= bound


CLONER5 = {"kind": "universal_cloner", "d": 2, "N": 1, "M": 5}
SYMMETRIC_STAGES = ["symmetric output", "1-user result"]
DENSE_STAGES = ["dense output", "pair purification", "1-user result"]


@pytest.mark.parametrize("channel,checks,route,field,stages", [
    (CLONER5, ["lemma1"], "symmetric", "scenario.channel.kind", SYMMETRIC_STAGES),
    (_noisy(2, 5, 0.0), ["lemma1"], "symmetric", "scenario.channel.p",
     SYMMETRIC_STAGES),
    (_noisy(2, 1), ["lemma1"], "symmetric", "scenario.channel.M", SYMMETRIC_STAGES),
    ({"kind": "fixed_prep", "d": 2, "M": 5, "prep": _basis_prep(2)}, ["lemma1"],
     "symmetric", "scenario.channel.prep", SYMMETRIC_STAGES),
    (_noisy(2, 5), ["theorem2"], "dense", "scenario.checks", DENSE_STAGES),
    (CLONER5, ["theorem2", "mc_crosscheck"], "dense", "scenario.checks",
     DENSE_STAGES + SYMMETRIC_STAGES + ["Monte Carlo estimate of 1 users"]),
], ids=["cloner", "noiseless", "one-user", "prep", "theorem2", "theorem2-mc"])
def test_plan_names_the_route_and_its_stages(channel, checks, route, field, stages):
    cfg = _dense_scenario(channel, checks=checks)
    run_plan = _plan(cfg, DEFAULT_DIM_CAP)
    assert (run_plan.route, run_plan.field) == (route, field)
    assert [name for name, _ in run_plan.stages] == stages
    assert (run_plan.chunk > 0) == ("mc_crosscheck" in checks)
    assert (run_plan.untraced > 0) == (route == "dense")


def test_every_stage_of_a_run_plans_under_its_cap(monkeypatch):
    # the run's cap reaches every plan, the Monte Carlo stage's included
    caps = []

    def spy(*args, cap=DEFAULT_DIM_CAP, **kwargs):
        caps.append(cap)
        return plan(*args, cap=cap, **kwargs)

    for module in (channels, definetti, scenario):
        monkeypatch.setattr(module, "plan", spy)
    cfg = _dense_scenario(CLONER5, ks=(1, 2), checks=["lemma1", "mc_crosscheck"])
    assert run_scenario(cfg, cap=2 ** 15)[0].satisfied_mc
    # the run, the output, one sweep for k = 1, 2 and the Monte Carlo estimate
    assert caps == [2 ** 15] * 4


@pytest.mark.parametrize("m_users", [3, 13, 10 ** 4])
@pytest.mark.parametrize("channel", [
    _noisy(2, 1), {"kind": "fixed_prep", "d": 2, "M": 1, "prep": MIXED_PREP},
], ids=["noisy-cloner", "mixed-prep"])
def test_lemma1_refusal_allocates_nothing(channel, m_users):
    # the plan only sizes the run, and symmetric_output checks the support
    # before it builds anything
    cfg = _dense_scenario({**channel, "M": m_users}, checks=["lemma1"])
    assert _traced_peak(lambda: run_scenario(cfg), SchemaError) < 2 ** 20


@pytest.mark.parametrize("channel", [_noisy(2, 3), {"kind": "fixed_prep", "d": 2, "M": 3,
                                                    "prep": MIXED_PREP}])
def test_the_budget_refuses_before_the_support(channel):
    # outside Sym^M and over the byte budget: the plan comes first
    cfg = _dense_scenario(channel, checks=["lemma1"])
    with pytest.raises(ResourceLimitError, match="^occupation-coordinate route"):
        run_scenario(cfg, cap=2)
    with pytest.raises(SchemaError, match="symmetric subspace"):
        run_scenario(cfg)


@pytest.mark.parametrize("channel", [
    {"kind": "fixed_prep", "d": 2, "M": 1, "prep": MIXED_PREP},
    {"kind": "fixed_prep", "d": 2, "M": 4, "prep": [PLUS]},
    _measure4(2, 1), _measure4(3, 4),
], ids=["fixed-prep-1", "fixed-prep-4", "measure-1", "measure-4"])
def test_a_lemma1_run_of_a_preparation_takes_one_eigh(monkeypatch, channel):
    # the output's one Sym^M check is the eigh of its stack that it is built
    # from; the plan and a second check each took one more
    cfg = _dense_scenario(channel, ks=(1,), checks=["lemma1"])
    shapes, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    row, = run_scenario(cfg)
    assert row.satisfied_lemma1
    assert shapes == [cfg.channel.prep.shape]


# real matrices inside a complex field: they are solved and weighed in
# complex128 with the rest of their stack
ZERO2, ONE2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
TILT = np.array([[0.25, -0.125j], [0.125j, 0.25]])
MIXED_FIELDS = [
    (SDIChannelSpec("measure_prepare", d=2, M=4, prep=(PHI2, ZERO2), povm=POVM2),
     ["lemma1"]),
    (SDIChannelSpec("measure_prepare", d=2, M=1, prep=(PSI2 / 2 + MIXED2 / 2, MIXED2),
                    povm=POVM2), ["lemma1"]),
    (SDIChannelSpec("measure_prepare", d=2, M=3, prep=(ZERO2, PHI2, ONE2),
                    povm=(TILT, TILT.conj(), np.eye(2) / 2 + 0j)), ["lemma1"]),
    (SDIChannelSpec("measure_prepare", d=2, M=3, prep=(PSI2 / 2 + MIXED2 / 2, MIXED2, ZERO2),
                    povm=(TILT, TILT.conj(), np.eye(2) / 2 + 0j)), ["theorem2"]),
]


@pytest.mark.parametrize("spec,checks", MIXED_FIELDS,
                         ids=["prep", "prep-1", "povm", "both-theorem2"])
def test_mixed_real_and_complex_fields_match_the_dense_oracle(spec, checks):
    cfg = _scenario(spec, checks, ks=range(1, min(spec.M, 3) + 1))
    assert cfg.channel.prep.dtype == complex
    rho = _choi_output(spec)
    for k, row in zip(cfg.k_list, run_scenario(cfg), strict=True):
        tilde = (_dense_reduction(rho, spec.d, spec.M, k) if checks == ["lemma1"]
                 else _dense_purified_reduction(rho, spec.d, spec.M, k).entries)
        want = trace_distance(partial_trace(rho, range(k)).entries, tilde)
        assert abs(row.actual_distance - want) <= 1e-12


def test_zero_weight_mixed_preparation_runs_lemma1_at_500_users():
    spec = SDIChannelSpec("measure_prepare", d=2, M=500, prep=(PHI2, MIXED2),
                          povm=BASIS2)
    rows = run_scenario(_scenario(spec, ["lemma1"], np.array([1.0, 0.0]), (1, 2)))
    assert all(row.satisfied_lemma1 for row in rows)


# a mixed qutrit preparation with an imaginary part: its dense output is complex
COMPLEX_PREP3 = [[[0.5, 0], [0, 0.25], [0, 0]], [[0, -0.25], [0.5, 0], [0, 0]],
                 [[0, 0], [0, 0], [0, 0]]]


@pytest.mark.parametrize("channel,d,m_users,itemsize", [
    pytest.param(_noisy(2, 13), 2, 13, 8, id="2-13"),
    pytest.param({"kind": "fixed_prep", "d": 3, "M": 8, "prep": [COMPLEX_PREP3]},
                 3, 8, 16, id="3-8"),
    pytest.param(_noisy(3, 9), 3, 9, 8, id="3-9-real"),
])
def test_dense_route_refuses_before_allocating(channel, d, m_users, itemsize):
    # the first size refused: the one below fits the byte budget.  At 8
    # bytes an entry a real output fits at 8 qutrits, a complex one does not
    plan(d, m_users - 1, [1], route="dense", itemsize=itemsize)
    cfg = _dense_scenario(channel)
    assert cfg.channel.itemsize == itemsize
    with pytest.raises(ResourceLimitError, match=f"dense route for {m_users} users"):
        plan(d, m_users, [1], route="dense", itemsize=itemsize)
    assert _traced_peak(lambda: run_scenario(cfg), ResourceLimitError) < 2 ** 20


def test_dense_route_counts_each_k_and_huge_m():
    # the pair route's ancilla trace takes 24 bytes for each of the d^3k
    # entries of a k-user result: every k fits at M = 9 qubits, k = 9 in
    # 3 GiB; at M = 10, k = 10 takes more than the budget, and at M = 5
    # qutrits the kernel gathers of k = 5 do
    plan(2, 8, [1, 8], route="dense")
    plan(2, 9, [1, 8], route="dense")
    plan(2, 9, [9], route="dense")
    plan(2, 10, [1, 9], route="dense")
    with pytest.raises(ResourceLimitError, match="bytes"):
        plan(2, 10, [10], route="dense")
    plan(3, 5, [4], route="dense")
    with pytest.raises(ResourceLimitError, match="bytes"):
        plan(3, 5, [5], route="dense")
    # at 8 bytes an entry, 8 qutrits fit up to k = 3; at 16 (above) they
    # do not, and no other (d, M, k) of side up to 2^16 moves
    assert plan(3, 8, [1, 3], route="dense", itemsize=8).stages[1] == (
        "pair purification", 2 ** 20 + 64 * 3 ** 8 + 10 * 8 * 3 ** 16 + 128 * 3 ** 8)
    with pytest.raises(ResourceLimitError, match="4-user result would need"):
        plan(3, 8, [4], route="dense", itemsize=8)
    with pytest.raises(ResourceLimitError,
                       match="dense output would need 16\\*2\\^2000000000 bytes"):
        plan(2, 10 ** 9, route="dense", purify=False)


@pytest.mark.parametrize("channel,checks", [
    pytest.param(_noisy(2, 14), ["theorem2"], id="qubit-cloner-checks0"),
    pytest.param(_noisy(2, 14), ["lemma1"], id="qubit-cloner-checks1"),
    # a real output fits at 8 qutrits (2.4 GB and 90 s of CPU), not at 9
    pytest.param(_noisy(3, 9), ["theorem2"], id="qutrit-cloner-checks0"),
    # 3.5 r of 690 MB fit the 4 GiB budget at M = 8
    pytest.param(_noisy(3, 9), ["lemma1"], id="qutrit-cloner-checks1"),
    pytest.param({"kind": "fixed_prep", "d": 2, "M": 14, "prep": MIXED_PREP},
                 ["theorem2"], id="mixed-prep-checks0"),
    pytest.param({"kind": "fixed_prep", "d": 2, "M": 14, "prep": MIXED_PREP},
                 ["lemma1"], id="mixed-prep-checks1"),
])
def test_dense_output_too_large_raises_before_allocating(channel, checks):
    # lemma1 never takes the dense route: the spec refuses its support first
    cfg = _dense_scenario(channel, checks=checks)
    raises, match = ((SchemaError, "lemma1 requires") if checks == ["lemma1"]
                     else (ResourceLimitError, "dense route"))
    assert _traced_peak(lambda: run_scenario(cfg), raises) < 2 ** 20
    with pytest.raises(raises, match=match):
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
    (2, 10, 0.10285714285714348),
    (2, 11, 0.09454545454543972),
    (3, 4, 0.36346153846154017),
    (3, 5, 0.3085714285714424),
])
def test_theorem2_pins_past_the_old_side_cap(d, m_users, want):
    """k = 1 theorem2 distance of the noisy 1 -> M cloner at p = 0.1, pinned
    to what the same kernels gave before the byte budget, with the side cap
    that stopped them at M = 6 qubits and M = 3 qutrits lifted to 2^24; at
    M = 10 and 11 qubits, to what one eigh of the whole output gave before
    the square root was taken by occupation blocks.  At M = 11 the bound
    is 0.4543789582883267."""
    basis = [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1)
    cfg = _dense_scenario(_noisy(d, m_users),
                          input_state={"type": "pure", "coeffs": basis})
    row, = run_scenario(cfg)
    assert row.satisfied_theorem2
    if m_users == 11:
        assert abs(row.bound_exact - 0.4543789582883267) <= TOL
    assert abs(row.actual_distance - want) <= TOL


def test_one_to_64_cloner_pins_up_to_k_equal_m():
    """lemma1 distance of the optimal 1 -> 64 qubit cloner, out to k = M.

    Pinned to the values of the first run that reached k > 12.  M times
    them is 2/3, 16/17, 32/33 and 64/65 to within 1e-14 (observed, not
    proved), while M times the bound grows about linearly in k.
    """
    want = {1: 0.010416666666666796, 16: 0.014705882352941232,
            32: 0.015151515151515242, 64: 0.015384615384615464}
    rows = run_scenario(_cloner(2, 64, list(want)))
    assert [row.k for row in rows] == list(want)
    for row in rows:
        assert row.satisfied_lemma1
        assert abs(row.actual_distance - want[row.k]) <= TOL


@pytest.mark.parametrize("d,m_users", [(2, 1024), (3, 64)])
def test_bounds_hold_at_ladder_tops(d, m_users):
    rows = run_scenario(_cloner(d, m_users, [1, 2, 3]))
    assert [r.k for r in rows] == [1, 2, 3]
    assert all(r.satisfied_lemma1 for r in rows)
    assert rows[0].satisfied_perr and rows[0].satisfied_fidelity_gap
    # the (3, 64) pin of the observed 2(d-1)/((d+1)M), see above
    assert abs(rows[0].actual_distance - 2 * (d - 1) / ((d + 1) * m_users)) <= TOL
