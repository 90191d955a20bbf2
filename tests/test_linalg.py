import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdist.linalg import (
    DenseOperator,
    ResourceLimitError,
    herm_eigvals,
    swap_residual,
    validate_state,
)

from dense_oracles import (
    basis_ket,
    identity,
    ket,
    partial_trace,
    permutation_operator,
    projector,
    tensor_power,
    tensor_product,
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

    def test_complex_entries_are_wrapped_not_copied(self):
        # float64 and complex128 entries are both kept as they come
        for m in (np.eye(2, dtype=complex), np.eye(2)):
            op = DenseOperator(m, (2,))
            assert np.shares_memory(op.entries, m) and op.entries.dtype == m.dtype
            assert not op.entries.flags.writeable
            assert m.flags.writeable  # the caller's array is left as it was
        for other, dtype in ((np.asfortranarray(np.eye(2, dtype=complex)[:, ::-1]), complex),
                             (np.eye(2, dtype=int), float),
                             (np.eye(2, dtype=np.complex64), complex)):
            copied = DenseOperator(other, (2,)).entries
            assert not np.shares_memory(copied, other)
            assert copied.flags.c_contiguous and copied.dtype == dtype

    def test_dtype_follows_the_input(self):
        # real entries stay float64 through tensor_power; complex stay complex
        real = DenseOperator(np.diag([0.25, 0.75]), (2,))
        assert tensor_power(real, 3).entries.dtype == float
        assert DenseOperator([[1, 0], [0, 0]], (2,)).entries.dtype == float
        assert DenseOperator([[1, 0j], [0, 0]], (2,)).entries.dtype == complex
        power = tensor_power(DenseOperator(real.entries.astype(complex), (2,)), 3)
        assert power.entries.dtype == complex
        assert np.array_equal(power.entries, tensor_power(real, 3).entries)

    def test_factor_dims_requires_square(self):
        v = ket([1.0, 0.0])
        with pytest.raises(ValueError):
            _ = v.factor_dims

    def test_has_no_arithmetic(self):
        # callers compute on entries with numpy
        for name in ("trace", "__matmul__", "__mul__", "__rmul__"):
            assert name not in vars(DenseOperator)


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
        assert np.isclose(np.trace(tensor_product(a, b).entries),
                          np.trace(a.entries) * np.trace(b.entries))

    def test_cap(self):
        big = identity((2,) * 13)
        with pytest.raises(ResourceLimitError, match="dimension"):
            tensor_product(big, identity((4,)))

    def test_tensor_power_zero_is_scalar(self):
        out = tensor_power(identity((3,)), 0)
        assert out.row_dims == ()
        assert out.entries.shape == (1, 1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tensor_power_is_the_kron_chain_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        square = _rand_op(rng, (d,))
        column = ket(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        for a in (square, column):
            chain = DenseOperator(np.array([[1.0]]), (), ())
            for n in range(8):
                got = tensor_power(a, n)
                assert np.array_equal(got.entries, chain.entries)
                assert (got.row_dims, got.col_dims) == (chain.row_dims, chain.col_dims)
                chain = tensor_product(chain, a)

    def test_tensor_power_cap(self):
        with pytest.raises(ResourceLimitError,
                           match="tensor product would have dimension 16, "
                                 "exceeding the cap 8"):
            tensor_power(identity((2,)), 4, cap=8)
        assert tensor_power(identity((2,)), 3, cap=8).shape == (8, 8)


class TestPartialTrace:
    def test_product_factorizes(self):
        rng = np.random.default_rng(3)
        a = _rand_op(rng, (2,))
        b = _rand_op(rng, (2,))
        out = partial_trace(tensor_product(a, b), [0])
        assert np.allclose(out.entries, np.trace(b.entries) * a.entries)

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
        assert np.isclose(np.trace(partial_trace(x, [1]).entries), np.trace(x.entries))
        scal = partial_trace(x, [])
        assert scal.entries.shape == (1, 1)
        assert np.isclose(scal.entries[0, 0], np.trace(x.entries))

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


@st.composite
def _traced_factors(draw):
    """An operator on 2-4 factors of dimension 1-3, and two disjoint sets of
    factors to trace out."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    slots = draw(st.permutations(range(len(dims))))
    cut = draw(st.integers(0, len(dims)))
    cut_b = draw(st.integers(cut, len(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _rand_op(rng, dims), set(slots[:cut]), set(slots[cut:cut_b])


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(case=_traced_factors())
def test_partial_trace_composes(case):
    """Tracing out A and then B equals tracing out both at once."""
    x, a, b = case
    n = len(x.row_dims)
    keep_a = [t for t in range(n) if t not in a]
    # after the first trace, factor t sits at position keep_a.index(t)
    then_b = [i for i, t in enumerate(keep_a) if t not in b]
    two_step = partial_trace(partial_trace(x, keep_a), then_b)
    one_step = partial_trace(x, [t for t in range(n) if t not in a | b])
    assert two_step.row_dims == one_step.row_dims
    assert np.max(np.abs(two_step.entries - one_step.entries)) <= 1e-12


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
        u = permutation_operator([1, 2, 0], 2).entries
        cubed = u @ u @ u
        assert np.max(np.abs(cubed - np.eye(8))) <= 1e-12

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
            permutation_operator([0, 2], 2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_index_map_matches_the_digit_loop(self, d):
        # digit j of x, counted from the most significant, becomes digit p[j]
        for n in range(5):
            for p in itertools.permutations(range(n)):
                want = [sum((x // d ** (n - 1 - j)) % d * d ** (n - 1 - p[j])
                            for j in range(n)) for x in range(d ** n)]
                u = permutation_operator(p, d).entries
                assert u.argmax(axis=0).tolist() == want

    def test_swap_residual_matches_conjugation(self):
        rng = np.random.default_rng(9)
        x = _rand_op(rng, (2, 2, 2))
        tail = _rand_op(rng, (2, 2, 2, 3))  # a trailing factor of another size
        for t in range(2):
            perm = [0, 1, 2]
            perm[t], perm[t + 1] = perm[t + 1], perm[t]
            u = permutation_operator(perm, 2).entries
            moved = u @ x.entries @ u.conj().T
            assert swap_residual(x, t) == np.max(np.abs(moved - x.entries))
            u = np.kron(u, np.eye(3))
            want = np.max(np.abs(u @ tail.entries @ u.T - tail.entries))
            assert abs(swap_residual(tail, t) - want) <= 1e-12
        with pytest.raises(ValueError, match="cannot swap"):
            swap_residual(tail, 2)


class TestHermEigvals:
    def test_known_diag(self):
        x = np.diag([3.0, 1.0, -2.0])
        assert np.allclose(herm_eigvals(x), [3.0, 1.0, -2.0])

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=float)
        assert np.allclose(herm_eigvals(x), [1.0, -1.0])

    def test_descending_and_sum_is_trace(self):
        rng = np.random.default_rng(9)
        x = _rand_herm(rng, (8,))
        w = herm_eigvals(x.entries)
        assert np.all(np.diff(w) <= 0)
        assert abs(w.sum() - np.trace(x.entries).real) <= 1e-9 * 8

    def test_singular_value_residual_oracle(self):
        rng = np.random.default_rng(10)
        x = _rand_herm(rng, (8,))
        for lam in herm_eigvals(x.entries):
            smin = np.linalg.svd(x.entries - lam * np.eye(8), compute_uv=False)[-1]
            assert smin <= 1e-8 * max(1.0, np.abs(x.entries).max())

    def test_non_hermitian_raises(self):
        x = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eigvals(x)

    def test_not_a_finite_square_matrix_raises(self):
        for x in (np.ones(2), np.ones((2, 3)), np.array(1.0)):
            with pytest.raises(ValueError, match="expected a square matrix"):
                herm_eigvals(x)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite entries"):
                herm_eigvals(np.diag([bad, 0.5]))


class TestValidateState:
    def test_good_state_passes(self):
        validate_state(np.diag([0.5, 0.5]))

    def test_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_state(identity((2,)).entries)

    def test_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            validate_state(np.diag([1.5, -0.5]))

    def test_non_hermitian(self):
        m = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError):
            validate_state(m)

    def test_not_square(self):
        # a 1-D array is a diagonal (TestDiagonalStates); three axes are not
        for x in (np.full((2, 2, 2), 0.125), np.full((2, 3), 0.5), np.array(1.0)):
            with pytest.raises(ValueError, match="state: expected a square matrix"):
                validate_state(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, bad):
        # NaN would slip past every comparison in the later checks
        with pytest.raises(ValueError, match="non-finite"):
            validate_state(np.diag([bad, 0.5]))
