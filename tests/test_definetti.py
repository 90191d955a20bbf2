import itertools
import tracemalloc

import numpy as np
import pytest

from symdist import symspace
from symdist.definetti import mc_reduce_coords, purified_state, purify_perm_invariant
from symdist.linalg import DenseOperator, ResourceLimitError, ket, tensor_power
from symdist.metrics import general_bound, lemma1_bound, trace_distance
from symdist.symspace import haar_kets, power_coords, sym_dim

from conftest import dense_users, users
from dense_oracles import (
    apply,
    basis_ket,
    embed_coords,
    embed_pure_input,
    identity,
    noisy_cloner,
    partial_trace,
    permutation_operator,
    projector,
    symmetric_state,
    symmetrizer,
    universal_cloner,
)


def dense_reduction(rho, k):
    """Brute-force (s_M/s_{M+k}) Tr_M[(rho x 1_k) P_{M+k}] on small systems."""
    d = rho.factor_dims[0]
    m = len(rho.factor_dims)
    big = tensor_power(identity((d,)), k)
    lifted = DenseOperator(np.kron(rho.entries, big.entries), (d,) * (m + k))
    pi = symmetrizer(d, m + k)
    prod = DenseOperator(lifted.entries @ pi.entries, (d,) * (m + k))
    x = sym_dim(d, m) / sym_dim(d, m + k) * partial_trace(prod, range(m, m + k)).entries
    return DenseOperator(0.5 * (x + x.conj().T), (d,) * k)


def ket00():
    return projector(DenseOperator(np.kron([1, 0], [1, 0]).reshape(4, 1),
                                   (2, 2), ()))


def weight(state, u):
    """Density s_M <c|rho|c> of each ket in u (shape (..., d)), with
    c = power_coords(u, M), for the state's rows x_j of rho = sum_j x_j x_j†:
    s_M sum_j |x_j† c|^2."""
    c = power_coords(u, state.m)
    return sym_dim(state.d, state.m) * (np.abs(c @ state.coords.conj().T) ** 2).sum(-1)


def mc(rho, k, samples, seed):
    """(estimate, stderr) of the sampler on a symmetric-support rho."""
    state = symmetric_state(rho)
    return mc_reduce_coords(state.coords, state.d, state.m, k, samples, seed)


def pair_marginal(phi, d, m):
    """Trace the ancilla halves back out of a pair purification."""
    full = projector(DenseOperator(phi.entries, (d,) * (2 * m), ()))
    return partial_trace(full, range(0, 2 * m, 2))


class TestWeight:
    def test_aligned_product_state(self):
        w = weight(symmetric_state(ket00()), np.array([1, 0]))
        assert abs(w - sym_dim(2, 2)) <= 1e-12

    def test_orthogonal_direction(self):
        assert weight(symmetric_state(ket00()), np.array([0, 1])) == 0.0

    def test_flat_on_maximally_mixed_symmetric(self):
        flat = DenseOperator(symmetrizer(2, 3).entries / sym_dim(2, 3), (2, 2, 2))
        state = symmetric_state(flat)
        u = haar_kets(np.random.default_rng(11), 5, 2)
        assert np.max(np.abs(weight(state, u) - 1.0)) <= 1e-12

    def test_haar_mean_is_one(self):
        state = symmetric_state(ket00())
        n = 4000
        ws = weight(state, haar_kets(np.random.default_rng(19), n, 2))
        se = ws.std(ddof=1) / np.sqrt(n)
        assert abs(ws.mean() - 1.0) <= 5 * se

    def test_input_checks(self):
        with pytest.raises(ValueError, match="share one dimension"):
            symmetric_state(identity((2, 3)))


class TestSymmetricReduction:
    def test_two_copies_single_user(self):
        red = dense_users(symmetric_state(ket00()), 1)[1]
        assert np.max(np.abs(red.entries - np.diag([0.75, 0.25]))) <= 1e-12

    @pytest.mark.parametrize("d,m,k", [(2, 2, 1), (2, 2, 2), (2, 3, 2),
                                       (3, 2, 1), (2, 4, 3)])
    def test_matches_dense_formula(self, d, m, k):
        ch = universal_cloner(d, 1, m)
        rho = apply(ch, embed_pure_input(ch, basis_ket(d, 0)))
        got = dense_users(symmetric_state(rho), k)[1]
        want = dense_reduction(rho, k)
        assert np.max(np.abs(got.entries - want.entries)) <= 1e-12

    def test_is_a_state(self):
        ch = universal_cloner(2, 1, 5)
        rho = apply(ch, embed_pure_input(ch, ket([0.6, 0.8])))
        t = dense_users(symmetric_state(rho), 2)[1]
        assert abs(np.trace(t.entries) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(t.entries)[0] >= -1e-10

    def test_maximally_mixed_fixed_point(self):
        rho = DenseOperator(symmetrizer(2, 3).entries / sym_dim(2, 3), (2, 2, 2))
        red = dense_users(symmetric_state(rho), 2)[1]
        want = symmetrizer(2, 2).entries / sym_dim(2, 2)
        assert np.max(np.abs(red.entries - want)) <= 1e-12

    def test_bound_holds_on_pure_powers(self):
        u = np.array([0.8, 0.6j])
        for m in range(2, 6):
            rho = tensor_power(projector(ket(u)), m)
            for k in (1, 2):
                red = dense_users(symmetric_state(rho), k)[1]
                dist = trace_distance(partial_trace(rho, range(k)).entries, red.entries)
                assert dist <= lemma1_bound(2, m, k) + 1e-9

    def test_rejects_non_symmetric_support(self):
        ch = noisy_cloner(2, 1, 2, 0.2)
        rho = apply(ch, embed_pure_input(ch, basis_ket(2, 0)))
        with pytest.raises(ValueError, match="leaves the symmetric subspace"):
            symmetric_state(rho)

    def test_k_range(self):
        state = symmetric_state(ket00())
        for k in (3, 0, -1):
            with pytest.raises(ValueError, match="1 <= k <= M=2"):
                state.mixture(k)
            with pytest.raises(ValueError, match="1 <= k <= M=2"):
                users(state, k)

    def test_byte_budget(self):
        # 8 qubits: 3.5 r of 1 MiB, and 1 MiB more, exceed the budget of
        # cap 2^9 (4 MiB) and fit that of 2^10; refused before compressing
        rho = tensor_power(projector(basis_ket(2, 0)), 8)
        with pytest.raises(ResourceLimitError, match="dense route for 8 users"):
            symmetric_state(rho, cap=2 ** 9)
        state = symmetric_state(rho, cap=2 ** 10)
        assert abs(np.trace(dense_users(state, 7, cap=2 ** 10)[1].entries) - 1.0) <= 1e-9


class TestPurification:
    def test_maximally_mixed_two_qubits(self):
        rho = DenseOperator(np.eye(4) / 4, (2, 2))
        phi = purify_perm_invariant(rho)
        assert phi.row_dims == (4, 4) and phi.col_dims == ()
        v = phi.entries[:, 0]
        want = np.zeros(16)
        want[[0, 3, 12, 15]] = 0.5  # |ii> on each pair
        assert np.max(np.abs(v - want)) <= 1e-12

    def _twirled(self, rng, d, m):
        x = rng.standard_normal((d ** m, d ** m)) \
            + 1j * rng.standard_normal((d ** m, d ** m))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        acc = np.zeros_like(rho)
        perms = list(itertools.permutations(range(m)))
        for perm in perms:
            u = permutation_operator(list(perm), d).entries
            acc += u @ rho @ u.conj().T
        return DenseOperator(acc / len(perms), (d,) * m)

    def test_roundtrip(self):
        rng = np.random.default_rng(31)
        for m in (2, 3):
            rho = self._twirled(rng, 2, m)
            back = pair_marginal(purify_perm_invariant(rho), 2, m)
            assert np.max(np.abs(back.entries - rho.entries)) <= 1e-9

    def test_pair_swap_invariance(self):
        rho = self._twirled(np.random.default_rng(37), 2, 3)
        v = purify_perm_invariant(rho).entries
        for t in range(2):
            perm = list(range(3))
            perm[t], perm[t + 1] = perm[t + 1], perm[t]
            u = permutation_operator(perm, 4).entries
            assert np.max(np.abs(u @ v - v)) <= 1e-9

    def test_rejects_asymmetric(self):
        rho = DenseOperator(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2))
        with pytest.raises(ValueError, match="not permutation invariant"):
            purify_perm_invariant(rho)

    def test_rejects_negative(self):
        rho = DenseOperator(np.diag([1.2, 0.0, 0.0, -0.2]), (2, 2))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            purify_perm_invariant(rho)

    def test_rejects_wrong_trace(self):
        rho = DenseOperator(np.eye(4) / 2, (2, 2))
        with pytest.raises(ValueError, match="norm"):
            purify_perm_invariant(rho)


class TestGeneralReduction:
    def test_single_copy_pure_closed_form(self):
        # at M = k = 1 the purified mixture is (1 + |w><w|)/(D+1) on the
        # pair, whose ancilla trace is (2*1 + |u><u|)/(D+1) with D = d^2
        rho = projector(ket([0.6, 0.8]))
        got = dense_users(purified_state(rho), 1)[1].entries
        want = (2 * np.eye(2) + rho.entries) / 5
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_pure_power_within_bound(self):
        rho = tensor_power(projector(ket([0.6, 0.8])), 3)
        t = dense_users(purified_state(rho), 1)[1]
        assert abs(np.trace(t.entries) - 1.0) <= 1e-9
        dist = trace_distance(partial_trace(rho, [0]).entries, t.entries)
        assert dist <= general_bound(2, 3, 1) + 1e-9

    def test_noisy_output_within_bound(self):
        for m in (2, 3):
            ch = noisy_cloner(2, 1, m, 0.1)
            rho = apply(ch, embed_pure_input(ch, basis_ket(2, 0)))
            for k in (1, 2):
                t = dense_users(purified_state(rho), k)[1]
                assert abs(np.trace(t.entries) - 1.0) <= 1e-9
                dist = trace_distance(partial_trace(rho, range(k)).entries, t.entries)
                assert dist <= general_bound(2, m, k) + 1e-9

    def test_k_zero(self):
        with pytest.raises(ValueError, match="1 <= k <= M=2"):
            purified_state(ket00()).mixture(0)

    def test_refuses_a_large_k_before_gathering(self):
        # the result's side 2^6 fits the cap, but its gather (2^18 entries
        # of gathered values and coefficient products, 6 MiB) exceeds the
        # cap's 64 KiB
        state = purified_state(DenseOperator(np.eye(2 ** 6) / 2 ** 6, (2,) * 6))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError,
                               match=r"6-user result would need \d+ bytes"):
                state.mixture(6, cap=2 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 18

    def test_byte_budget(self):
        # 8 qubits: the purification's 7 r of 1 MiB and eigh's 3 r exceed
        # the budget of cap 2^9 (4 MiB) and fit that of 2^10
        rho = DenseOperator(np.eye(2 ** 8) / 2 ** 8, (2,) * 8)
        with pytest.raises(ResourceLimitError, match="dense route for 8 users"):
            purified_state(rho, cap=2 ** 9)
        state = purified_state(rho, cap=2 ** 10)
        assert abs(np.trace(dense_users(state, 2, cap=2 ** 10)[1].entries) - 1.0) <= 1e-9


class TestMonteCarlo:
    def test_matches_exact_within_error(self):
        est, stderr = mc(ket00(), 1, 20000, seed=43)
        dev = np.abs(est - np.diag([0.75, 0.25]))
        assert np.all(dev <= 5 * stderr + 1e-12)

    def test_trace_near_one(self):
        est, stderr = mc(ket00(), 1, 20000, seed=47)
        slack = 5 * float(np.sum(stderr))
        assert abs(np.trace(est).real - 1.0) <= slack

    def test_deterministic(self):
        a, a_err = mc(ket00(), 1, 500, seed=9)
        b, b_err = mc(ket00(), 1, 500, seed=9)
        assert np.array_equal(a, b)
        assert np.array_equal(a_err, b_err)
        c, _ = mc(ket00(), 1, 500, seed=10)
        assert not np.array_equal(a, c)

    def test_error_shrinks_with_samples(self):
        _, small = mc(ket00(), 1, 400, seed=3)
        _, big = mc(ket00(), 1, 40000, seed=3)
        assert float(np.mean(big)) < float(np.mean(small))

    def test_matches_the_draws_of_its_stream(self):
        # draw j is row j of haar_kets from default_rng((seed, 1)), weighted
        # by s_M <psi^M|rho|psi^M>; this oracle sums the outer products of
        # psi^{tensor k} at side d^k, where the sampler's s_k x s_k estimate
        # and stderr embed
        n, ch = 500, universal_cloner(2, 1, 3)
        rho = apply(ch, embed_pure_input(ch, ket([0.6, 0.8j])))
        u = haar_kets(np.random.default_rng((9, 1)), n, 2)
        powers = [np.ones((n, 1))]
        for _ in range(3):
            powers.append((powers[-1][:, :, None] * u[:, None, :]).reshape(n, -1))
        w = sym_dim(2, 3) * np.einsum("bi,ij,bj->b", powers[3].conj(),
                                      rho.entries, powers[3]).real
        for k in (1, 2, 3):
            x = w[:, None, None] * powers[k][:, :, None] * powers[k][:, None, :].conj()
            mean = x.mean(axis=0)
            se = np.sqrt(((np.abs(x) ** 2).mean(axis=0) - np.abs(mean) ** 2) / n)
            est, stderr = mc(rho, k, n, seed=9)
            assert est.shape == stderr.shape == (sym_dim(2, k),) * 2
            assert np.max(np.abs(embed_coords(est, 2, k).entries - mean)) <= 1e-12
            assert np.max(np.abs(embed_coords(stderr, 2, k).entries - se)) <= 1e-12

    def test_draws_do_not_depend_on_the_chunk(self, monkeypatch):
        est, stderr = mc(ket00(), 2, 3000, seed=5)
        # 7 draws of 3 + 2 * 3 entries a chunk, where the default takes all
        # 3000 in one
        monkeypatch.setattr(symspace, "MC_CHUNK_ENTRIES", 64)
        assert symspace.plan(2, 2, output=False, mc=2).chunk == 7
        small, small_err = mc(ket00(), 2, 3000, seed=5)
        assert np.max(np.abs(small - est)) <= 1e-12
        assert np.max(np.abs(small_err - stderr)) <= 1e-12

    def test_argument_checks(self):
        for samples in (0, 1):
            with pytest.raises(ValueError, match="at least 2 samples"):
                mc(ket00(), 1, samples, seed=1)
        for samples in (2 ** 63, 10 ** 30):
            with pytest.raises(ValueError, match=r"at most 2\^63 - 1 samples"):
                mc(ket00(), 1, samples, seed=1)
        with pytest.raises(ValueError):
            mc(ket00(), 5, 100, seed=1)
        ch = noisy_cloner(2, 1, 2, 0.3)
        rho = apply(ch, embed_pure_input(ch, basis_ket(2, 0)))
        with pytest.raises(ValueError, match="symmetric"):
            mc(rho, 1, 100, seed=1)


class TestRouteConsistency:
    def test_marginal_of_reduction_matches_smaller_k(self):
        ch = universal_cloner(2, 1, 4)
        rho = apply(ch, embed_pure_input(ch, basis_ket(2, 0)))
        state = symmetric_state(rho)
        two = dense_users(state, 2)[1]
        one = dense_users(state, 1)[1]
        assert np.max(np.abs(partial_trace(two, [0]).entries
                             - one.entries)) <= 1e-9

    def test_reduction_is_permutation_invariant(self):
        ch = universal_cloner(2, 1, 4)
        rho = apply(ch, embed_pure_input(ch, ket([0.6, 0.8])))
        three = dense_users(symmetric_state(rho), 3)[1].entries
        u = permutation_operator([1, 0, 2], 2).entries
        assert np.max(np.abs(u @ three @ u.conj().T - three)) <= 1e-12

    def test_routes_differ_but_both_bounded(self):
        # on symmetric support both routes apply; the purified one answers
        # with a flatter mixture, and each stays inside its own bound
        rho = projector(basis_ket(2, 0))
        sym = dense_users(symmetric_state(rho), 1)[1]
        gen = dense_users(purified_state(rho), 1)[1]
        assert np.max(np.abs(sym.entries - np.diag([2 / 3, 1 / 3]))) <= 1e-12
        assert np.max(np.abs(gen.entries - np.diag([3 / 5, 2 / 5]))) <= 1e-12
        assert trace_distance(rho.entries, sym.entries) <= lemma1_bound(2, 1, 1) + 1e-9
        assert trace_distance(rho.entries, gen.entries) <= general_bound(2, 1, 1) + 1e-9
