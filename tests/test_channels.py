import numpy as np
import pytest

from symdist.channels import (
    QuantumChannel,
    SDIChannelSpec,
    adjoint_apply,
    apply,
    embed_pure_input,
    fixed_prep_channel,
    identity_channel,
    measure_prepare,
    noisy_cloner,
    universal_cloner,
    validate_sdi,
)
from symdist.linalg import (
    DenseOperator,
    basis_ket,
    identity,
    ket,
    partial_trace,
    permute_factors,
    projector,
    tensor_power,
)

from conftest import random_state


def _proj(i, d=2):
    return projector(basis_ket(d, i))


class TestChoiBasics:
    def test_identity_choi(self):
        ch = identity_channel(2)
        c = ch.choi_tensor()
        for a in range(2):
            for i in range(2):
                for b in range(2):
                    for j in range(2):
                        want = 1.0 if (a == i and b == j) else 0.0
                        assert np.isclose(c[a, i, b, j], want)

    def test_identity_apply(self):
        ch = identity_channel(3)
        rng = np.random.default_rng(0)
        rho = random_state(rng, 3)
        assert np.max(np.abs(apply(ch, rho).entries - rho.entries)) <= 1e-12

    def test_factor_dims_must_match(self):
        ch = identity_channel(2)
        with pytest.raises(ValueError, match="out_factors"):
            QuantumChannel(ch.choi, 2, 4, (4,))
        with pytest.raises(ValueError, match="factor dims"):
            QuantumChannel(identity((4,)), 2, 2, (2,))

    def test_apply_shape_check(self):
        ch = identity_channel(2)
        with pytest.raises(ValueError, match="shape"):
            apply(ch, identity((3,)))
        with pytest.raises(ValueError, match="observable"):
            adjoint_apply(ch, identity((3,)))

    @pytest.mark.parametrize("builder", [
        lambda: identity_channel(2),
        lambda: universal_cloner(2, 1, 3),
        lambda: fixed_prep_channel(DenseOperator(np.eye(2) / 2, (2,)), 2),
        lambda: noisy_cloner(2, 1, 2, 0.3),
    ])
    def test_trace_preserving(self, builder):
        ch = builder()
        dual = adjoint_apply(ch, identity(ch.out_factors))
        assert np.max(np.abs(dual.entries - np.eye(ch.dim_in))) <= 1e-10

    def test_heisenberg_duality(self):
        rng = np.random.default_rng(7)
        ch = universal_cloner(2, 1, 3)
        rho = random_state(rng, ch.dim_in, (ch.dim_in,))
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        obs = DenseOperator(m + m.conj().T, ch.out_factors)
        lhs = (apply(ch, rho) @ obs).trace()
        rhs = (rho @ adjoint_apply(ch, obs)).trace()
        assert abs(lhs - rhs) <= 1e-10


class TestUniversalCloner:
    def test_trivial_cloner_is_identity(self):
        ch = universal_cloner(2, 1, 1)
        assert np.max(np.abs(ch.choi.entries
                             - identity_channel(2).choi.entries)) <= 1e-12

    def test_one_to_two_marginal(self):
        ch = universal_cloner(2, 1, 2)
        out = apply(ch, embed_pure_input(ch, basis_ket(2, 0)))
        assert abs(out.trace() - 1.0) <= 1e-12
        one = partial_trace(out, [0])
        assert np.max(np.abs(one.entries - np.diag([5 / 6, 1 / 6]))) <= 1e-12

    def test_marginals_identical(self):
        ch = universal_cloner(2, 1, 3)
        out = apply(ch, embed_pure_input(ch, basis_ket(2, 1)))
        users = [partial_trace(out, [t]).entries for t in range(3)]
        for u in users[1:]:
            assert np.max(np.abs(u - users[0])) <= 1e-12

    def test_output_in_symmetric_subspace(self, cloner10, cloner10_output,
                                          cloner10_report):
        assert cloner10_report.symmetric_support
        assert cloner10_report.support_residual <= 1e-10
        out = cloner10_output
        for t in range(9):
            perm = list(range(10))
            perm[t], perm[t + 1] = perm[t + 1], perm[t]
            moved = permute_factors(out, perm, 2)
            assert np.max(np.abs(moved.entries - out.entries)) <= 1e-10

    def test_nonadjacent_permutation(self):
        ch = universal_cloner(2, 1, 4)
        out = apply(ch, embed_pure_input(ch, basis_ket(2, 0)))
        moved = permute_factors(out, [2, 0, 3, 1], 2)
        assert np.max(np.abs(moved.entries - out.entries)) <= 1e-10

    def test_two_copy_input_coords(self):
        ch = universal_cloner(2, 2, 3)
        rho_in = embed_pure_input(ch, basis_ket(2, 0))
        want = np.zeros((3, 3))
        want[0, 0] = 1.0  # occupation (2, 0) sits first
        assert np.max(np.abs(rho_in.entries - want)) <= 1e-12

    def test_bad_args(self):
        with pytest.raises(ValueError):
            universal_cloner(2, 0, 2)
        with pytest.raises(ValueError):
            universal_cloner(2, 3, 2)
        with pytest.raises(ValueError):
            universal_cloner(0, 1, 2)


class TestFixedPrep:
    def test_ignores_input(self):
        sigma = _proj(0)
        ch = fixed_prep_channel(sigma, 2)
        for rho in (_proj(0), _proj(1), DenseOperator(np.eye(2) / 2, (2,))):
            out = apply(ch, rho)
            assert np.max(np.abs(out.entries - np.diag([1, 0, 0, 0.0]))) <= 1e-12

    def test_mixed_prep_leaves_symmetric_subspace(self):
        ch = fixed_prep_channel(DenseOperator(np.eye(2) / 2, (2,)), 2)
        rep = validate_sdi(ch)
        assert rep.permutation_invariant
        assert not rep.symmetric_support
        assert abs(rep.support_residual - 1 / 8) <= 1e-12

    def test_pure_prep_keeps_symmetric_subspace(self):
        rep = validate_sdi(fixed_prep_channel(_proj(0), 3))
        assert rep.symmetric_support
        assert rep.passed

    def test_not_a_state(self):
        with pytest.raises(ValueError):
            fixed_prep_channel(DenseOperator(2 * np.eye(2), (2,)), 2)


class TestNoisyCloner:
    def test_zero_noise_matches_cloner(self):
        a = noisy_cloner(2, 1, 3, 0.0).choi.entries
        b = universal_cloner(2, 1, 3).choi.entries
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_full_noise_is_flat(self):
        ch = noisy_cloner(2, 1, 3, 1.0)
        out = apply(ch, embed_pure_input(ch, basis_ket(2, 0)))
        assert np.max(np.abs(out.entries - np.eye(8) / 8)) <= 1e-12

    def test_invariant_but_off_support(self):
        rep = validate_sdi(noisy_cloner(2, 1, 3, 0.1))
        assert rep.permutation_invariant
        assert rep.max_permutation_residual <= 1e-12
        assert not rep.symmetric_support
        assert rep.support_residual > 1e-3

    def test_output_trace_one(self):
        ch = noisy_cloner(2, 1, 2, 0.4)
        out = apply(ch, embed_pure_input(ch, basis_ket(2, 0)))
        assert abs(out.trace() - 1.0) <= 1e-12

    def test_p_range(self):
        with pytest.raises(ValueError):
            noisy_cloner(2, 1, 2, -0.1)
        with pytest.raises(ValueError):
            noisy_cloner(2, 1, 2, 1.1)


class TestMeasurePrepare:
    def test_trivial_povm_matches_fixed_prep(self):
        sigma = _proj(0)
        a = measure_prepare([identity((2,))], [sigma], 3).choi.entries
        b = fixed_prep_channel(sigma, 3).choi.entries
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_basis_readout(self):
        povm = [_proj(0), _proj(1)]
        preps = [_proj(0), _proj(1)]
        ch = measure_prepare(povm, preps, 2)
        q = 0.3
        rho = DenseOperator(np.diag([q, 1 - q]), (2,))
        out = apply(ch, rho)
        want = q * np.diag([1, 0, 0, 0.0]) + (1 - q) * np.diag([0, 0, 0, 1.0])
        assert np.max(np.abs(out.entries - want)) <= 1e-12
        rep = validate_sdi(ch)
        assert rep.passed and rep.symmetric_support

    def test_incomplete_povm(self):
        with pytest.raises(ValueError, match="identity"):
            measure_prepare([_proj(0)], [_proj(0)], 2)

    def test_negative_povm_element(self):
        bad = DenseOperator(np.diag([1.5, -0.5]), (2,))
        good = DenseOperator(np.diag([-0.5, 1.5]), (2,))
        with pytest.raises(ValueError, match="negative"):
            measure_prepare([bad, good], [_proj(0), _proj(1)], 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            measure_prepare([identity((2,))], [_proj(0), _proj(1)], 2)


class TestEmbedPureInput:
    def test_plain_channel_takes_ket_directly(self):
        ch = fixed_prep_channel(_proj(0), 2)
        v = ket([1 / np.sqrt(2), 1j / np.sqrt(2)])
        rho = embed_pure_input(ch, v)
        assert np.max(np.abs(rho.entries - projector(v).entries)) <= 1e-12

    def test_norm_check(self):
        ch = identity_channel(2)
        with pytest.raises(ValueError, match="norm"):
            embed_pure_input(ch, DenseOperator([[1.0], [1.0]], (2,), ()))

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension"):
            embed_pure_input(universal_cloner(2, 1, 2), basis_ket(3, 0))

    def test_symmetric_coordinates_norm(self):
        ch = universal_cloner(2, 2, 4)
        v = ket([0.6, 0.8])
        rho = embed_pure_input(ch, v)
        assert abs(rho.trace() - 1.0) <= 1e-12
        # overlap with (2,0) occupation column is <00|psi psi> = 0.36
        assert abs(rho.entries[0, 0] - 0.6 ** 4) <= 1e-12


class TestValidateSDI:
    def test_asymmetric_prep_fails(self):
        choi = np.kron(np.kron(_proj(0).entries, _proj(1).entries), np.eye(2))
        ch = QuantumChannel(DenseOperator(choi, (2, 2, 2)), 2, 4, (2, 2))
        rep = validate_sdi(ch)
        assert not rep.permutation_invariant
        assert not rep.passed
        assert rep.max_permutation_residual > 0.5

    def test_unequal_factors_rejected(self):
        choi = identity((2, 3, 2))
        ch = QuantumChannel(choi, 2, 6, (2, 3))
        with pytest.raises(ValueError, match="identical"):
            validate_sdi(ch)

    def test_cloner_passes(self, cloner10_report):
        assert cloner10_report.passed
        assert cloner10_report.max_permutation_residual <= 1e-12

    def test_tol_is_recorded(self):
        rep = validate_sdi(identity_channel(2), tol=1e-6)
        assert rep.tol == 1e-6


class TestSDIChannelSpec:
    def test_roundtrip_noisy(self):
        spec = SDIChannelSpec(kind="noisy_cloner", d=2, M=3, N=1, p=0.1)
        again = SDIChannelSpec.from_json(spec.to_json())
        assert again == spec
        ch = again.build()
        assert ch.kind == "noisy_cloner"
        assert ch.out_factors == (2, 2, 2)

    def test_roundtrip_measure_prepare(self):
        povm = (np.diag([1.0, 0.0]).astype(complex),
                np.diag([0.0, 1.0]).astype(complex))
        preps = (np.diag([1.0, 0.0]).astype(complex),
                 np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        spec = SDIChannelSpec(kind="measure_prepare", d=2, M=2,
                              prep=preps, povm=povm)
        data = spec.to_json()
        again = SDIChannelSpec.from_json(data)
        for got, want in zip(again.prep, preps):
            assert np.max(np.abs(got - want)) <= 1e-15
        ch = again.build()
        assert validate_sdi(ch).passed

    def test_fixed_prep_build(self):
        spec = SDIChannelSpec(kind="fixed_prep", d=2, M=2,
                              prep=(np.eye(2, dtype=complex) / 2,))
        ch = spec.build()
        out = apply(ch, _proj(0))
        assert np.max(np.abs(out.entries - np.eye(4) / 4)) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            SDIChannelSpec(kind="teleporter", d=2, M=2)
        with pytest.raises(ValueError, match="requires N"):
            SDIChannelSpec(kind="universal_cloner", d=2, M=2)
        with pytest.raises(ValueError, match="requires p"):
            SDIChannelSpec(kind="noisy_cloner", d=2, M=2, N=1)
        with pytest.raises(ValueError, match="prep"):
            SDIChannelSpec(kind="fixed_prep", d=2, M=2)

    def test_from_json_bad_matrix(self):
        data = {"kind": "fixed_prep", "d": 2, "M": 2, "prep": [[[1.0, 0.0]]]}
        with pytest.raises(ValueError, match="prep"):
            SDIChannelSpec.from_json(data)


class TestChannelOutputsAreStates:
    @pytest.mark.parametrize("builder", [
        lambda: universal_cloner(2, 1, 4),
        lambda: universal_cloner(3, 1, 2),
        lambda: noisy_cloner(2, 1, 3, 0.25),
        lambda: fixed_prep_channel(DenseOperator(np.diag([0.7, 0.3]), (2,)), 3),
    ])
    def test_output_is_a_state(self, builder):
        ch = builder()
        if ch.in_isometry is not None:
            d = ch.in_isometry.row_dims[0]
            rho_in = embed_pure_input(ch, ket([0.6, 0.8] + [0.0] * (d - 2)))
        else:
            rho_in = DenseOperator(np.diag([0.6, 0.4]), (2,))
        out = apply(ch, rho_in)
        assert abs(out.trace() - 1.0) <= 1e-10
        w = np.linalg.eigvalsh(out.entries)
        assert w[0] >= -1e-10

    def test_prep_output_matches_tensor_power(self):
        sigma = DenseOperator(np.diag([0.7, 0.3]), (2,))
        ch = fixed_prep_channel(sigma, 3)
        out = apply(ch, _proj(1))
        want = tensor_power(sigma, 3).entries
        assert np.max(np.abs(out.entries - want)) <= 1e-12
