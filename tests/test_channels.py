import functools
import json
import re
import tracemalloc

import numpy as np
import pytest

from symdist.channels import QuantumChannel, SDIChannelSpec
from symdist.linalg import (
    DenseOperator,
    swap_residual,
)
from symdist.scenario import SchemaError, _channel
from symdist.symspace import plan

from dense_oracles import (
    apply,
    basis_ket,
    build,
    embed_pure_input,
    fixed_prep_channel,
    identity,
    ket,
    measure_prepare,
    noisy_cloner,
    partial_trace,
    permutation_operator,
    projector,
    tensor_power,
    to_json,
    universal_cloner,
    validate_sdi,
)

from conftest import random_state


def _proj(i, d=2):
    return projector(basis_ket(d, i))


class TestChoiBasics:
    def test_identity_choi(self):
        c = universal_cloner(2, 1, 1).choi.entries.reshape(2, 2, 2, 2)
        for a in range(2):
            for i in range(2):
                for b in range(2):
                    for j in range(2):
                        want = 1.0 if (a == i and b == j) else 0.0
                        assert np.isclose(c[a, i, b, j], want)

    def test_identity_apply(self):
        ch = universal_cloner(3, 1, 1)
        rng = np.random.default_rng(0)
        rho = random_state(rng, 3)
        assert np.max(np.abs(apply(ch, rho).entries - rho.entries)) <= 1e-12

    def test_factor_dims_must_match(self):
        ch = universal_cloner(2, 1, 1)
        with pytest.raises(ValueError, match="out_factors"):
            QuantumChannel(ch.choi, 2, 4, (4,))
        with pytest.raises(ValueError, match="factor dims"):
            QuantumChannel(identity((4,)), 2, 2, (2,))

    def test_apply_shape_check(self):
        ch = universal_cloner(2, 1, 1)
        with pytest.raises(ValueError, match="shape"):
            apply(ch, identity((3,)))

    @pytest.mark.parametrize("builder", [
        lambda: measure_prepare([_proj(0), _proj(1)], [_proj(1), _proj(0)], 2),
        lambda: universal_cloner(2, 1, 3),
        lambda: fixed_prep_channel(DenseOperator(np.eye(2) / 2, (2,)), 2),
        lambda: noisy_cloner(2, 1, 2, 0.3),
    ])
    def test_trace_preserving(self, builder):
        # Tr_out of the Choi matrix is the identity on the input
        ch = builder()
        dual = partial_trace(ch.choi, [len(ch.out_factors)])
        assert np.max(np.abs(dual.entries - np.eye(ch.dim_in))) <= 1e-10


class TestUniversalCloner:
    def test_trivial_cloner_is_identity(self):
        # the identity channel's Choi matrix, vec(1) vec(1)†
        for d in (2, 3):
            vec_one = np.eye(d).ravel()
            assert np.max(np.abs(universal_cloner(d, 1, 1).choi.entries
                                 - np.outer(vec_one, vec_one))) <= 1e-12

    def test_one_to_two_marginal(self):
        ch = universal_cloner(2, 1, 2)
        out = apply(ch, embed_pure_input(ch, basis_ket(2, 0)))
        assert abs(np.trace(out.entries) - 1.0) <= 1e-12
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
        for t in range(9):
            assert swap_residual(cloner10_output, t) <= 1e-10

    def test_nonadjacent_permutation(self):
        ch = universal_cloner(2, 1, 4)
        out = apply(ch, embed_pure_input(ch, basis_ket(2, 0))).entries
        u = permutation_operator([2, 0, 3, 1], 2).entries
        assert np.max(np.abs(u @ out @ u.conj().T - out)) <= 1e-10

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
        assert rep.permutation_invariant

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
        assert abs(np.trace(out.entries) - 1.0) <= 1e-12

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
        assert rep.permutation_invariant and rep.symmetric_support

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

    def test_bad_prep(self):
        bad = DenseOperator(np.diag([1.2, -0.2]), (2,))
        with pytest.raises(ValueError,
                           match="prepared state 1 has negative eigenvalue"):
            measure_prepare([_proj(0), _proj(1)], [_proj(0), bad], 2)


class TestEmbedPureInput:
    def test_plain_channel_takes_ket_directly(self):
        ch = fixed_prep_channel(_proj(0), 2)
        v = ket([1 / np.sqrt(2), 1j / np.sqrt(2)])
        rho = embed_pure_input(ch, v)
        assert np.max(np.abs(rho.entries - projector(v).entries)) <= 1e-12

    def test_norm_check(self):
        ch = fixed_prep_channel(_proj(0), 1)
        with pytest.raises(ValueError, match="norm"):
            embed_pure_input(ch, DenseOperator([[1.0], [1.0]], (2,), ()))

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension"):
            embed_pure_input(universal_cloner(2, 1, 2), basis_ket(3, 0))

    def test_symmetric_coordinates_norm(self):
        ch = universal_cloner(2, 2, 4)
        v = ket([0.6, 0.8])
        rho = embed_pure_input(ch, v)
        assert abs(np.trace(rho.entries) - 1.0) <= 1e-12
        # overlap with (2,0) occupation column is <00|psi psi> = 0.36
        assert abs(rho.entries[0, 0] - 0.6 ** 4) <= 1e-12


class TestValidateSDI:
    def test_asymmetric_prep_fails(self):
        choi = np.kron(np.kron(_proj(0).entries, _proj(1).entries), np.eye(2))
        ch = QuantumChannel(DenseOperator(choi, (2, 2, 2)), 2, 4, (2, 2))
        rep = validate_sdi(ch)
        assert not rep.permutation_invariant
        assert rep.max_permutation_residual > 0.5

    def test_unequal_factors_rejected(self):
        choi = identity((2, 3, 2))
        ch = QuantumChannel(choi, 2, 6, (2, 3))
        with pytest.raises(ValueError, match="identical"):
            validate_sdi(ch)

    def test_cloner_passes(self, cloner10_report):
        assert cloner10_report.permutation_invariant
        assert cloner10_report.max_permutation_residual <= 1e-12


class TestSDIChannelSpec:
    def test_roundtrip_noisy(self):
        spec = SDIChannelSpec(kind="noisy_cloner", d=2, M=3, N=1, p=0.1)
        again = _channel(to_json(spec), "channel")
        assert again == spec
        ch = build(again)
        assert ch.kind == "noisy_cloner"
        assert ch.out_factors == (2, 2, 2)

    def test_roundtrip_measure_prepare(self):
        povm = (np.diag([1.0, 0.0]).astype(complex),
                np.diag([0.0, 1.0]).astype(complex))
        preps = (np.diag([1.0, 0.0]).astype(complex),
                 np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        spec = SDIChannelSpec(kind="measure_prepare", d=2, M=2,
                              prep=preps, povm=povm)
        data = to_json(spec)
        again = _channel(data, "channel")
        for got, want in zip(again.prep, preps):
            assert np.max(np.abs(got - want)) <= 1e-15
        ch = build(again)
        assert validate_sdi(ch).permutation_invariant

    def test_each_field_is_validated_in_one_eigvalsh(self, monkeypatch):
        # the PSD check takes one eigvalsh over each stacked field
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(x):
            shapes.append(x.shape)
            return eigvalsh(x)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        spec = SDIChannelSpec(kind="measure_prepare", d=2, M=2,
                              prep=(np.diag([1.0, 0.0]), np.eye(2) / 2, np.eye(2) / 2),
                              povm=(np.diag([1.0, 0.0]), np.diag([0.0, 0.5]),
                                    np.diag([0.0, 0.5])))
        assert shapes == [(3, 2, 2), (3, 2, 2)]
        assert spec.prep.shape == spec.povm.shape == (3, 2, 2)

    def test_fixed_prep_build(self):
        spec = SDIChannelSpec(kind="fixed_prep", d=2, M=2,
                              prep=(np.eye(2, dtype=complex) / 2,))
        ch = build(spec)
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

    @pytest.mark.parametrize("fields,name", [
        ({"kind": "universal_cloner", "N": 1, "p": 0.3}, "p"),
        ({"kind": "fixed_prep", "N": 5, "prep": (np.eye(2) / 2,)}, "N"),
        ({"kind": "noisy_cloner", "N": 1, "p": 0.1, "povm": (np.eye(2),)}, "povm"),
        ({"kind": "universal_cloner", "N": 1, "prep": (np.eye(2) / 2,)}, "prep"),
        ({"kind": "fixed_prep", "prep": (np.eye(2) / 2,), "povm": (np.eye(2),)},
         "povm"),
        ({"kind": "measure_prepare", "p": 0.1, "prep": (np.eye(2) / 2,),
          "povm": (np.eye(2),)}, "p"),
    ], ids=["cloner-p", "prep-N", "noisy-povm", "cloner-prep", "prep-povm",
            "measure-p"])
    def test_refuses_fields_the_kind_does_not_read(self, fields, name):
        with pytest.raises(ValueError, match=f"{fields['kind']} does not take {name}$"):
            SDIChannelSpec(d=2, M=3, **fields)

    @pytest.mark.parametrize("element", [np.array(1.0), np.array([1.0, 0.0]),
                                         np.ones((2, 3))], ids=["0-d", "1-D", "2x3"])
    def test_povm_element_that_is_not_a_square_matrix_names_povm(self, element):
        with pytest.raises(ValueError, match=r"^povm: POVM element 0 has shape "
                           rf"{re.escape(str(element.shape))}, expected a square matrix$"):
            SDIChannelSpec("measure_prepare", d=2, M=2, prep=(np.eye(2) / 2,),
                           povm=(element,))

    @pytest.mark.parametrize("spec", [
        SDIChannelSpec(kind="universal_cloner", d=2, M=3, N=1),
        SDIChannelSpec(kind="fixed_prep", d=2, M=2, prep=(np.eye(2) / 2,)),
    ], ids=["cloner", "prep"])
    def test_absent_fields_round_trip_as_none(self, spec):
        data = to_json(spec)
        assert data["p"] is None and data["povm"] is None
        again = _channel(json.loads(json.dumps(data)), "channel")
        assert (again.kind, again.N, again.p, again.povm) == (
            spec.kind, spec.N, spec.p, spec.povm)

    def test_reader_refuses_a_bad_matrix(self):
        data = {"kind": "fixed_prep", "d": 2, "M": 2, "prep": [[[1.0, 0.0]]]}
        with pytest.raises(SchemaError,
                           match=r"^channel: prep\[0\]: expected an \[re, im\] pair$"):
            _channel(data, "channel")

    @pytest.mark.parametrize("fields,message", [
        (dict(d=2.0, M=3, N=1), "d: expected an integer, got 2.0"),
        (dict(d=2, M=3.0, N=1), "M: expected an integer, got 3.0"),
        (dict(d=2, M=3, N=True), "N: expected an integer, got True"),
        (dict(d=True, M=3, N=1), "d: expected an integer, got True"),
        (dict(d=2, M=np.float64(3.0), N=1), "M: expected an integer, got np.float64(3.0)"),
        (dict(d=2, M="3", N=1), "M: expected an integer, got '3'"),
        # the integer rule comes before every other check, the kind's too
        (dict(kind="cloner", d=2, M=None, N=1), "M: expected an integer, got None"),
    ], ids=["d-float", "M-float", "N-bool", "d-bool", "M-numpy-float", "M-string", "M-none"])
    def test_d_m_n_must_be_integers(self, fields, message):
        # a float d or M once failed inside cloner_diagonal with a TypeError,
        # and N=True ran as N = 1
        fields = {"kind": "universal_cloner", **fields}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SDIChannelSpec(**fields).symmetric_output(None)

    def test_numpy_integers_are_accepted_as_ints(self):
        spec = SDIChannelSpec("universal_cloner", d=np.int64(2), M=np.int32(3),
                              N=np.uint8(1))
        plain = SDIChannelSpec("universal_cloner", d=2, M=3, N=1)
        assert spec == plain
        assert [type(x) for x in (spec.d, spec.M, spec.N)] == [int] * 3
        assert spec.symmetric_output(None).tobytes() == plain.symmetric_output(None).tobytes()


# the measurement channel of the benchmark's theorem2 workload, as JSON
BENCH_CHANNEL = {
    "kind": "measure_prepare", "d": 2, "M": 3,
    "povm": [[[[0.8, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]],
             [[[0.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7, 0.0]]]],
    "prep": [[[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]],
             [[[0.3, 0.0], [0.2, 0.0]], [[0.2, 0.0], [0.7, 0.0]]]]}


def _stacked_spec(rng, d, m_users, complex_preps):
    """A measure_prepare spec on C^2 whose preps are random full-rank states
    on C^d, complex where complex_preps says so, with an equal-weight POVM."""
    preps = []
    for cplx in complex_preps:
        a = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if cplx else 0)
        preps.append(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    r = len(preps)
    return SDIChannelSpec("measure_prepare", d=d, M=m_users, prep=tuple(preps),
                          povm=tuple(np.eye(2) / r for _ in preps)), preps


def _kron_chain_sum(weights, preps, m_users):
    """sum_i w_i sigma_i^{tensor M}, each power the chain of np.kron products
    in the prep's own dtype, summed by sum(): the oracle for dense_output."""
    return sum(w * functools.reduce(np.kron, [s] * m_users, np.ones((1, 1)))
               for w, s in zip(weights, preps))


class TestStackedPreps:
    @pytest.mark.parametrize("d,m_users", [(2, m) for m in range(1, 9)]
                             + [(3, m) for m in range(1, 6)])
    @pytest.mark.parametrize("complex_preps", [
        (False,), (True,), (False, True), (True, False, False)],
        ids=["real", "complex", "real-beside-complex", "complex-beside-real"])
    def test_dense_output_is_the_kron_chain_bit_for_bit(self, d, m_users, complex_preps):
        rng = np.random.default_rng(10 * d + m_users)
        spec, preps = _stacked_spec(rng, d, m_users, complex_preps)
        phi = np.array([0.6, 0.8j])
        want = _kron_chain_sum(spec._weights(phi), preps, m_users)
        got = spec.dense_output(phi).entries
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        # fixed_prep: the one-outcome POVM, weight 1
        fixed = SDIChannelSpec("fixed_prep", d=d, M=m_users, prep=(preps[0],))
        want = _kron_chain_sum([1.0], preps[:1], m_users)
        assert fixed.dense_output(np.eye(d)[0]).entries.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d,m_users,complex_preps", [
        (2, 8, (True, False) * 6), (2, 8, (False,) * 9), (3, 5, (True,) * 10)],
        ids=["d2-12-complex", "d2-9-real", "d3-10-complex"])
    def test_more_than_d2_preps_stay_within_the_plan(self, d, m_users, complex_preps):
        # the chain holds every prep's M-th power beside its (M-1)-th, then
        # the sum beside them: bit for bit the kron chain, inside the dense
        # output stage that the plan charges
        rng = np.random.default_rng(d + len(complex_preps))
        spec, preps = _stacked_spec(rng, d, m_users, complex_preps)
        phi = np.array([0.6, 0.8])
        (_, charge), = plan(d, m_users, route="dense", purify=False, preps=len(preps),
                            itemsize=spec.itemsize).stages
        tracemalloc.start()
        try:
            got = spec.dense_output(phi).entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == _kron_chain_sum(spec._weights(phi), preps,
                                                m_users).tobytes()
        assert len(preps) * got.nbytes < peak <= charge

    def test_fields_are_read_only_stacks(self):
        spec = SDIChannelSpec("measure_prepare", d=2, M=2,
                              prep=(np.diag([1.0, 0.0]), [[0.5, 0.5j], [-0.5j, 0.5]]),
                              povm=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert (spec.prep.shape, spec.prep.dtype) == ((2, 2, 2), complex)
        assert (spec.povm.shape, spec.povm.dtype) == ((2, 2, 2), float)
        assert not (spec.prep.flags.writeable or spec.povm.flags.writeable)
        assert spec.itemsize == 16 and spec.input_dim == 2

    def test_equal_specs_compare_equal(self):
        # two parses of the same JSON: == once raised "truth value of an
        # array ... is ambiguous"
        a, b = (_channel(json.loads(json.dumps(BENCH_CHANNEL)), "channel")
                for _ in range(2))
        assert a == b and not a != b
        other = json.loads(json.dumps(BENCH_CHANNEL))
        other["prep"][1][0][0][0] = 0.4
        other["prep"][1][1][1][0] = 0.6
        assert a != _channel(other, "channel")
        # equal entries of another dtype, another field or another M differ
        real = SDIChannelSpec("fixed_prep", d=2, M=2, prep=(np.eye(2) / 2,))
        assert real == SDIChannelSpec("fixed_prep", d=2, M=2, prep=[np.eye(2) / 2])
        assert real != SDIChannelSpec("fixed_prep", d=2, M=2,
                                      prep=(np.eye(2, dtype=complex) / 2,))
        assert real != SDIChannelSpec("fixed_prep", d=2, M=3, prep=(np.eye(2) / 2,))
        assert a != SDIChannelSpec("measure_prepare", d=2, M=3, prep=a.prep,
                                   povm=a.povm[::-1])
        assert a != real and a != "measure_prepare"

    def test_covariant_specs_stay_hashable(self):
        specs = [SDIChannelSpec("noisy_cloner", d=2, M=3, N=1, p=0.1) for _ in range(2)]
        assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])
        assert len({*specs, SDIChannelSpec("universal_cloner", d=2, M=3, N=1)}) == 2


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
        assert abs(np.trace(out.entries) - 1.0) <= 1e-10
        w = np.linalg.eigvalsh(out.entries)
        assert w[0] >= -1e-10

    def test_prep_output_matches_tensor_power(self):
        sigma = DenseOperator(np.diag([0.7, 0.3]), (2,))
        ch = fixed_prep_channel(sigma, 3)
        out = apply(ch, _proj(1))
        want = tensor_power(sigma, 3).entries
        assert np.max(np.abs(out.entries - want)) <= 1e-12
