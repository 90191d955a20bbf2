import numpy as np
import pytest

from symdist.linalg import (
    DenseOperator,
    ResourceLimitError,
    basis_ket,
    herm_eigvals,
    identity,
    ket,
    partial_trace,
    permutation_index_map,
    permutation_operator,
    permute_factors,
    projector,
    swap_residual,
    tensor_power,
    tensor_product,
    validate_state,
)


def _rand_op(rng, dims):
    n = int(np.prod(dims))
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return DenseOperator(m, dims)


def _rand_herm(rng, dims):
    x = _rand_op(rng, dims)
    return DenseOperator(0.5 * (x.entries + x.entries.conj().T), dims)


class TestDenseOperator:
    def test_shape_dims_mismatch(self):
        with pytest.raises(ValueError):
            DenseOperator(np.eye(4), (2, 3))

    def test_entries_are_write_locked(self):
        op = identity((2,))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_factor_dims_requires_square(self):
        v = ket([1.0, 0.0])
        with pytest.raises(ValueError):
            _ = v.factor_dims

    def test_dag_trace_matmul(self):
        rng = np.random.default_rng(0)
        a = _rand_op(rng, (2,))
        b = _rand_op(rng, (2,))
        assert np.allclose((a @ b).entries, a.entries @ b.entries)
        assert np.allclose(a.dag().entries, a.entries.conj().T)
        assert np.isclose((a @ b).trace(), np.trace(a.entries @ b.entries))

    def test_scalar_and_add(self):
        op = identity((2,))
        assert np.allclose((2 * op - op).entries, np.eye(2))
        assert np.allclose((-op).entries, -np.eye(2))


class TestTensorProduct:
    def test_identity_case(self):
        out = tensor_product(identity((2,)), identity((2,)))
        assert out.row_dims == (2, 2)
        assert np.allclose(out.entries, np.eye(4))

    def test_basis_projectors(self):
        p0 = projector(basis_ket(2, 0))
        p1 = projector(basis_ket(2, 1))
        out = tensor_product(p0, p1)
        assert np.allclose(out.entries, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_entry_oracle_four_index_loop(self):
        rng = np.random.default_rng(1)
        a = _rand_op(rng, (2,))
        b = _rand_op(rng, (2,))
        out = tensor_product(a, b).entries
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert np.isclose(
                            out[2 * i + k, 2 * j + l],
                            a.entries[i, j] * b.entries[k, l],
                        )

    def test_trace_multiplies(self):
        rng = np.random.default_rng(2)
        a = _rand_op(rng, (3,))
        b = _rand_op(rng, (2,))
        assert np.isclose(tensor_product(a, b).trace(), a.trace() * b.trace())

    def test_cap(self):
        big = identity((2,) * 13)
        with pytest.raises(ResourceLimitError, match="dimension"):
            tensor_product(big, identity((4,)))

    def test_tensor_power_zero_is_scalar(self):
        out = tensor_power(identity((3,)), 0)
        assert out.row_dims == ()
        assert out.entries.shape == (1, 1)


class TestPartialTrace:
    def test_product_factorizes(self):
        rng = np.random.default_rng(3)
        a = _rand_op(rng, (2,))
        b = _rand_op(rng, (2,))
        out = partial_trace(tensor_product(a, b), [0])
        assert np.allclose(out.entries, b.trace() * a.entries)

    def test_maximally_entangled_marginal(self):
        omega = ket(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2), (2, 2))
        out = partial_trace(projector(omega), [0])
        assert np.allclose(out.entries, np.eye(2) / 2)

    def test_double_sum_oracle_three_factors(self):
        rng = np.random.default_rng(4)
        dims = (2, 3, 2)
        x = _rand_op(rng, dims)
        got = partial_trace(x, [0, 2]).entries
        t = x.entries.reshape(dims + dims)
        want = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    for l in range(2):
                        s = sum(t[i, m, k, j, m, l] for m in range(3))
                        want[2 * i + k, 2 * j + l] = s
        assert np.allclose(got, want)

    def test_trace_preserved_and_empty_keep(self):
        rng = np.random.default_rng(5)
        x = _rand_op(rng, (2, 2, 2))
        assert np.isclose(partial_trace(x, [1]).trace(), x.trace())
        scal = partial_trace(x, [])
        assert scal.entries.shape == (1, 1)
        assert np.isclose(scal.entries[0, 0], x.trace())

    def test_composition(self):
        rng = np.random.default_rng(6)
        x = _rand_op(rng, (2, 3, 2))
        two_step = partial_trace(partial_trace(x, [0, 2]), [1])
        one_step = partial_trace(x, [2])
        assert np.max(np.abs(two_step.entries - one_step.entries)) <= 1e-12

    def test_invalid_keep(self):
        x = identity((2, 2))
        with pytest.raises(ValueError):
            partial_trace(x, [2])
        with pytest.raises(ValueError):
            partial_trace(x, [0, 0])
        with pytest.raises(ValueError):
            partial_trace(ket([1, 0]), [0])


class TestPermutations:
    def test_identity_perm(self):
        assert np.allclose(permutation_operator([0, 1], 2).entries, np.eye(4))

    def test_swap_column_mapping(self):
        u = permutation_operator([1, 0], 2).entries
        # |01> (column 1) ends up at |10> (row 2)
        assert u[2, 1] == 1.0
        assert u[1, 2] == 1.0
        assert u[0, 0] == 1.0 and u[3, 3] == 1.0

    def test_three_cycle_cubes_to_identity(self):
        u = permutation_operator([1, 2, 0], 2)
        cubed = u @ u @ u
        assert np.max(np.abs(cubed.entries - np.eye(8))) <= 1e-12

    def test_composition_law(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            pi = list(rng.permutation(3))
            sigma = list(rng.permutation(3))
            u_pi = permutation_operator(pi, 2).entries
            u_sigma = permutation_operator(sigma, 2).entries
            comp = [pi[sigma[j]] for j in range(3)]
            assert np.allclose(u_pi @ u_sigma,
                               permutation_operator(comp, 2).entries)

    def test_unitary(self):
        u = permutation_operator([2, 0, 1], 3).entries
        assert np.allclose(u @ u.conj().T, np.eye(27))

    def test_non_bijective_raises(self):
        with pytest.raises(ValueError):
            permutation_operator([0, 0, 1], 2)
        with pytest.raises(ValueError):
            permutation_index_map([0, 2], 2)

    def test_index_map_cached_read_only(self):
        dest = permutation_index_map([1, 0, 2], 2)
        assert dest is permutation_index_map((1, 0, 2), 2)
        assert not dest.flags.writeable
        assert dest.tolist() == [0, 1, 4, 5, 2, 3, 6, 7]

    def test_swap_residual_matches_conjugation(self):
        rng = np.random.default_rng(9)
        x = _rand_op(rng, (2, 2, 2))
        tail = _rand_op(rng, (2, 2, 2, 3))  # a trailing factor of another size
        for t in range(2):
            perm = [0, 1, 2]
            perm[t], perm[t + 1] = perm[t + 1], perm[t]
            want = np.max(np.abs(permute_factors(x, perm, 2).entries - x.entries))
            assert swap_residual(x, t) == want
            u = np.kron(permutation_operator(perm, 2).entries, np.eye(3))
            want = np.max(np.abs(u @ tail.entries @ u.T - tail.entries))
            assert abs(swap_residual(tail, t) - want) <= 1e-12
        with pytest.raises(ValueError, match="cannot swap"):
            swap_residual(tail, 2)

    def test_permute_factors_matches_conjugation(self):
        rng = np.random.default_rng(8)
        x = _rand_op(rng, (2, 2, 2))
        perm = [2, 0, 1]
        u = permutation_operator(perm, 2).entries
        want = u @ x.entries @ u.conj().T
        got = permute_factors(x, perm, 2).entries
        assert np.allclose(got, want)


class TestHermEigvals:
    def test_known_diag(self):
        x = DenseOperator(np.diag([3.0, 1.0, -2.0]), (3,))
        assert np.allclose(herm_eigvals(x), [3.0, 1.0, -2.0])

    def test_pauli_x(self):
        x = DenseOperator(np.array([[0, 1], [1, 0]], dtype=float), (2,))
        assert np.allclose(herm_eigvals(x), [1.0, -1.0])

    def test_descending_and_sum_is_trace(self):
        rng = np.random.default_rng(9)
        x = _rand_herm(rng, (8,))
        w = herm_eigvals(x)
        assert np.all(np.diff(w) <= 0)
        assert abs(w.sum() - x.trace().real) <= 1e-9 * 8

    def test_singular_value_residual_oracle(self):
        rng = np.random.default_rng(10)
        x = _rand_herm(rng, (8,))
        for lam in herm_eigvals(x):
            smin = np.linalg.svd(x.entries - lam * np.eye(8), compute_uv=False)[-1]
            assert smin <= 1e-8 * max(1.0, np.abs(x.entries).max())

    def test_non_hermitian_raises(self):
        x = DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eigvals(x)


class TestValidateState:
    def test_good_state_passes(self):
        validate_state(DenseOperator(np.diag([0.5, 0.5]), (2,)))

    def test_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_state(identity((2,)))

    def test_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            validate_state(DenseOperator(np.diag([1.5, -0.5]), (2,)))

    def test_non_hermitian(self):
        m = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError):
            validate_state(DenseOperator(m, (2,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, bad):
        # NaN would slip past every comparison in the later checks
        with pytest.raises(ValueError, match="non-finite"):
            validate_state(DenseOperator(np.diag([bad, 0.5]), (2,)))
