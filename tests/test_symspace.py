import itertools
import math

import numpy as np
import pytest

from symdist.definetti import mc_reduce_coords
from symdist.linalg import ResourceLimitError
from symdist.symspace import _occupation_table, haar_kets, sym_dim

from dense_oracles import embed_coords, index_map, permutation_operator, symmetrizer


def _isometry(d, n):
    """V as a dense d^n x s_n matrix."""
    return index_map(d, n).expand(np.eye(sym_dim(d, n)))


class TestSymDim:
    @pytest.mark.parametrize("d,n,want", [(2, 2, 3), (2, 10, 11), (3, 2, 6),
                                          (2, 0, 1), (5, 0, 1), (4, 1, 4)])
    def test_values(self, d, n, want):
        assert sym_dim(d, n) == want

    def test_matches_binomial(self):
        for d in range(1, 5):
            for n in range(0, 7):
                assert sym_dim(d, n) == math.comb(d + n - 1, n)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sym_dim(0, 2)
        with pytest.raises(ValueError):
            sym_dim(2, -1)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError, match="64-bit"):
            sym_dim(2, 2 ** 63)


class TestSymBasis:
    def test_occupation_order_descending(self):
        assert _occupation_table(2, 2).tolist() == [[2, 0], [1, 1], [0, 2]]
        occs = _occupation_table(3, 2).tolist()
        assert occs == sorted(occs, reverse=True)

    def test_triplet_columns(self):
        v = _isometry(2, 2)
        s = 1 / np.sqrt(2)
        want = np.array([[1, 0, 0], [0, s, 0], [0, s, 0], [0, 0, 1]])
        assert np.allclose(v, want)

    def test_type_class_column(self):
        # occupation (2,1) of 3 qubits: two zeros, one one
        col = _occupation_table(2, 3).tolist().index([2, 1])
        v = _isometry(2, 3)[:, col]
        want = np.zeros(8)
        want[[1, 2, 4]] = 1 / np.sqrt(3)  # |001>, |010>, |100>
        assert np.allclose(v, want)

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (2, 6), (4, 2)])
    def test_isometry(self, d, n):
        v = _isometry(d, n)
        assert np.max(np.abs(v.conj().T @ v - np.eye(sym_dim(d, n)))) <= 1e-12

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (2, 6), (4, 2),
                                     (1, 3), (2, 0), (3, 4), (4, 3)])
    def test_index_map_products(self, d, n):
        """The index map against a loop that counts each flat index's
        occupation, and V†x, Vx and VxV† against the dense isometry that
        the loop builds."""
        occs = _occupation_table(d, n).tolist()
        s = sym_dim(d, n)
        v = np.zeros((d ** n, s))
        vmap = index_map(d, n)
        for x in range(d ** n):
            digits = [x // d ** (n - 1 - j) % d for j in range(n)]
            occ = [digits.count(i) for i in range(d)]
            v[x, occs.index(occ)] = 1 / math.sqrt(math.factorial(n) / math.prod(
                math.factorial(m) for m in occ))
            assert vmap.col[x] == occs.index(occ)
            assert vmap.weight[x] == v[x, occs.index(occ)]
        rng = np.random.default_rng(3)
        x = rng.standard_normal((d ** n, 2)) + 1j * rng.standard_normal((d ** n, 2))
        z = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        assert np.max(np.abs(vmap.compress(x) - v.conj().T @ x)) <= 1e-12
        assert np.max(np.abs(vmap.expand(z) - v @ z)) <= 1e-12
        assert np.max(np.abs(embed_coords(z, d, n).entries
                             - v @ z @ v.conj().T)) <= 1e-12
        along_1 = np.moveaxis(vmap.compress(np.moveaxis(x.T, 1, 0)), 0, 1)
        assert np.max(np.abs(along_1 - x.T @ v)) <= 1e-12
        assert not vmap.col.flags.writeable

    def test_n_zero(self):
        v = _isometry(3, 0)
        assert v.shape == (1, 1)
        assert np.isclose(v[0, 0], 1.0)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            symmetrizer(2, 20)

    def test_index_map_cap(self):
        with pytest.raises(ResourceLimitError, match="symmetric basis on 20"):
            index_map(2, 20)


class TestSymmetrizer:
    def test_n1_identity(self):
        assert np.allclose(symmetrizer(3, 1).entries, np.eye(3))

    def test_two_qubit_action(self):
        p = symmetrizer(2, 2).entries
        e00 = np.array([1, 0, 0, 0.0])
        e01 = np.array([0, 1, 0, 0.0])
        assert np.allclose(p @ e00, e00)
        assert np.allclose(p @ e01, np.array([0, 0.5, 0.5, 0.0]))
        swap = permutation_operator([1, 0], 2).entries
        assert np.allclose(p, (np.eye(4) + swap) / 2)

    def test_projector_properties(self):
        for d, n in [(2, 3), (3, 2)]:
            p = symmetrizer(d, n)
            m = p.entries
            assert np.max(np.abs(m @ m - m)) <= 1e-12
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
            assert np.isclose(np.trace(m).real, sym_dim(d, n))

    def test_rank(self):
        w = np.linalg.eigvalsh(symmetrizer(2, 4).entries)
        s = sym_dim(2, 4)
        assert np.sum(w >= 1 - 1e-9) == s
        assert np.sum(w <= 1e-9) == len(w) - s

    def test_brute_force_permutation_average(self):
        avg = np.zeros((16, 16), dtype=complex)
        for perm in itertools.permutations(range(4)):
            avg += permutation_operator(list(perm), 2).entries
        avg /= math.factorial(4)
        assert np.max(np.abs(symmetrizer(2, 4).entries - avg)) <= 1e-12

    def test_commutes_with_permutations(self):
        p = symmetrizer(2, 3)
        for t in range(2):
            perm = list(range(3))
            perm[t], perm[t + 1] = perm[t + 1], perm[t]
            u = permutation_operator(perm, 2).entries
            assert np.max(np.abs(u @ p.entries @ u.conj().T - p.entries)) <= 1e-12


class TestHaarSampler:
    def test_determinism_same_seed(self):
        a = haar_kets(np.random.default_rng(42), 3, 2)
        b = haar_kets(np.random.default_rng(42), 3, 2)
        assert a.shape == (3, 2)
        assert np.array_equal(a, b)

    def test_rows_do_not_depend_on_the_split(self):
        whole = haar_kets(np.random.default_rng(7), 10, 3)
        rng = np.random.default_rng(7)
        parts = [haar_kets(rng, n, 3) for n in (1, 4, 5)]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_row_layout(self):
        # row j is 2d normals of the stream: d real parts, then d imaginary
        x = np.random.default_rng(5).standard_normal((4, 2, 3))
        z = x[:, 0] + 1j * x[:, 1]
        u = haar_kets(np.random.default_rng(5), 4, 3)
        norm = np.linalg.norm(z, axis=1, keepdims=True)
        assert np.max(np.abs(u * norm - z)) <= 1e-12

    def test_unit_norm(self):
        u = haar_kets(np.random.default_rng(3), 50, 4)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            mc_reduce_coords(np.eye(2) / 2, 2, 1, 1, 100, seed=-1)

    def _moment_mean(self, d, n, samples, seed):
        u = haar_kets(np.random.default_rng(seed), samples, d)
        full = u
        for _ in range(n - 1):
            full = (full[:, :, None] * u[:, None, :]).reshape(samples, -1)
        # mean of x = full full^dagger and of |x|^2, over the draws
        mean = full.T @ full.conj() / samples
        p = np.abs(full) ** 2
        var = np.maximum(p.T @ p / samples - np.abs(mean) ** 2, 0.0)
        se = np.sqrt(var / samples)
        return mean, se

    def test_first_moment_identity(self):
        mean, se = self._moment_mean(2, 1, 100_000, seed=5)
        dev = np.abs(mean - np.eye(2) / 2)
        assert np.all(dev <= 5 * se + 1e-12)

    def test_second_moment_symmetrizer(self):
        mean, se = self._moment_mean(2, 2, 100_000, seed=6)
        target = symmetrizer(2, 2).entries / sym_dim(2, 2)
        dev = np.abs(mean - target)
        assert np.all(dev <= 5 * se + 1e-12)
