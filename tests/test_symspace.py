import itertools
import math

import numpy as np
import pytest

from symdist.linalg import ResourceLimitError, permutation_operator, permute_factors
from symdist.symspace import (
    HaarSampler,
    haar_sample,
    sym_basis,
    sym_dim,
    symmetrizer,
)


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
        b = sym_basis(2, 2)
        assert b.occupations == ((2, 0), (1, 1), (0, 2))
        b3 = sym_basis(3, 2)
        assert list(b3.occupations) == sorted(b3.occupations, reverse=True)

    def test_triplet_columns(self):
        v = sym_basis(2, 2).isometry.entries
        s = 1 / np.sqrt(2)
        want = np.array([[1, 0, 0], [0, s, 0], [0, s, 0], [0, 0, 1]])
        assert np.allclose(v, want)

    def test_type_class_column(self):
        # occupation (2,1) of 3 qubits: two zeros, one one
        b = sym_basis(2, 3)
        col = list(b.occupations).index((2, 1))
        v = b.isometry.entries[:, col]
        want = np.zeros(8)
        want[[1, 2, 4]] = 1 / np.sqrt(3)  # |001>, |010>, |100>
        assert np.allclose(v, want)

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (2, 6), (4, 2)])
    def test_isometry(self, d, n):
        v = sym_basis(d, n).isometry.entries
        assert np.max(np.abs(v.conj().T @ v - np.eye(sym_dim(d, n)))) <= 1e-12

    def test_n_zero(self):
        b = sym_basis(3, 0)
        assert b.isometry.entries.shape == (1, 1)
        assert np.isclose(b.isometry.entries[0, 0], 1.0)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            sym_basis(2, 20)


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
            assert np.isclose(p.trace().real, sym_dim(d, n))

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
            moved = permute_factors(p, perm, 2)
            assert np.max(np.abs(moved.entries - p.entries)) <= 1e-12


class TestHaarSampler:
    def test_determinism_same_seed(self):
        a = haar_sample(HaarSampler(2, 42))
        b = haar_sample(HaarSampler(2, 42))
        assert np.array_equal(a.entries, b.entries)

    def test_counter_replay(self):
        s = HaarSampler(3, 7)
        draws = [haar_sample(s).entries for _ in range(3)]
        replay = haar_sample(HaarSampler(3, 7, counter=2))
        assert np.array_equal(replay.entries, draws[2])
        assert s.counter == 3

    def test_unit_norm(self):
        s = HaarSampler(4, 3)
        for _ in range(50):
            assert np.isclose(np.linalg.norm(haar_sample(s).entries), 1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            HaarSampler(2, -1)

    def _moment_mean(self, d, n, samples, seed):
        s = HaarSampler(d, seed)
        side = d ** n
        acc = np.zeros((side, side), dtype=complex)
        acc2 = np.zeros((side, side))
        for _ in range(samples):
            u = haar_sample(s).entries[:, 0]
            full = u
            for _ in range(n - 1):
                full = np.kron(full, u)
            x = np.outer(full, full.conj())
            acc += x
            acc2 += x.real ** 2 + x.imag ** 2
        mean = acc / samples
        var = np.maximum(acc2 / samples - np.abs(mean) ** 2, 0.0)
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
