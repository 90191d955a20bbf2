import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdist.definetti import purified_state
from symdist.linalg import ket
from symdist.metrics import (
    general_bound,
    helstrom_perr,
    lemma1_bound,
    perr_lower_bound,
    trace_distance,
    universal_clone_gap,
)
from symdist.scenario import run_scenario, scenario_from_dict
from symdist.symspace import sym_dim

from conftest import dense_users, random_state
from dense_oracles import (
    apply,
    basis_ket,
    embed_pure_input,
    fixed_prep_channel,
    noisy_cloner,
    partial_trace,
    projector,
    symmetric_state,
)


class TestTraceDistance:
    def test_identical_states(self):
        rho = projector(ket([0.6, 0.8]))
        assert trace_distance(rho.entries, rho.entries) == 0.0

    def test_orthogonal_pure_states(self):
        d = trace_distance(projector(basis_ket(2, 0)).entries,
                           projector(basis_ket(2, 1)).entries)
        assert abs(d - 2.0) <= 1e-12

    def test_known_diagonal_pair(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.75, 0.25])
        assert abs(trace_distance(a, b) - 0.5) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            trace_distance(projector(basis_ket(2, 0)).entries,
                           projector(basis_ket(3, 0)).entries)
        # a 1-D array, a non-square matrix, or one of each
        half = np.full(2, 0.5)
        for rho, sigma in ((half, half), (np.ones((2, 3)), np.ones((2, 3))),
                           (np.eye(2) / 2, half)):
            with pytest.raises(ValueError, match="shape"):
                trace_distance(rho, sigma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        good = np.eye(2) / 2
        for rho, sigma in ((np.diag([bad, 0.5]), good), (good, np.diag([0.5, bad]))):
            with pytest.raises(ValueError, match="non-finite entries"):
                trace_distance(rho, sigma)

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            trace_distance(bad, np.eye(2) / 2)

    @pytest.mark.parametrize("which", ["rho", "sigma", "both"])
    def test_each_argument_checked_for_hermiticity(self, which):
        # with both the same non-Hermitian matrix, the difference is 0
        bad = np.array([[0.5, 1e-8], [0.0, 0.5]])
        good = np.eye(2) / 2
        rho = bad if which in ("rho", "both") else good
        sigma = bad if which in ("sigma", "both") else good
        with pytest.raises(ValueError, match="not Hermitian within 1e-09"):
            trace_distance(rho, sigma)

    def test_equals_the_eigenvalues_of_the_difference(self):
        rng = np.random.default_rng(19)
        for dim in (2, 5, 16):
            a, b = random_state(rng, dim), random_state(rng, dim)
            diff = a.entries - b.entries
            w = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))[::-1]
            assert trace_distance(a.entries, b.entries) == float(np.sum(np.abs(w)))

    def test_data_processing(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = random_state(rng, 4, (2, 2))
            b = random_state(rng, 4, (2, 2))
            full = trace_distance(a.entries, b.entries)
            reduced = trace_distance(partial_trace(a, [0]).entries,
                                     partial_trace(b, [0]).entries)
            assert reduced <= full + 1e-12


class TestHelstrom:
    def test_complement_identity(self):
        # the Helstrom measurement guesses a on the positive part of a - b
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = random_state(rng, 3)
            b = random_state(rng, 3)
            vals, vecs = np.linalg.eigh(a.entries - b.entries)
            pos = vecs[:, vals > 0]
            guess_a = pos @ pos.conj().T
            p_err = 0.5 * (1 - np.trace(guess_a @ (a.entries - b.entries)).real)
            dist = trace_distance(a.entries, b.entries)
            assert abs(helstrom_perr(dist) - p_err) <= 1e-12

    def test_endpoints(self):
        same = projector(basis_ket(2, 0)).entries
        other = projector(basis_ket(2, 1)).entries
        assert abs(helstrom_perr(trace_distance(same, same)) - 0.5) <= 1e-12
        assert abs(helstrom_perr(trace_distance(same, other))) <= 1e-12

    def test_known_value(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.75, 0.25])
        assert abs(helstrom_perr(trace_distance(a, b)) - 0.375) <= 1e-12


class TestClosedFormBounds:
    def test_lemma1_exact_value(self):
        want = 4 * (1 - math.sqrt(math.comb(10, 9) / math.comb(11, 10)))
        assert abs(lemma1_bound(2, 10, 1) - want) <= 1e-15

    def test_lemma1_asymptotic(self):
        assert lemma1_bound(2, 10, 1, asymptotic=True) == pytest.approx(0.2)
        assert lemma1_bound(3, 8, 2, asymptotic=True) == pytest.approx(1.0)

    def test_lemma1_edges(self):
        assert lemma1_bound(2, 5, 0) == 0.0
        full = 4 * (1 - math.sqrt(1 / sym_dim(2, 5)))
        assert abs(lemma1_bound(2, 5, 5) - full) <= 1e-15
        with pytest.raises(ValueError):
            lemma1_bound(2, 3, 4)

    def test_general_is_lemma1_at_squared_dimension(self):
        assert general_bound(2, 10, 1) == lemma1_bound(4, 10, 1)
        want = 4 * (1 - math.sqrt(math.comb(12, 9) / math.comb(13, 10)))
        assert abs(general_bound(2, 10, 1) - want) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_bound_keeps_its_digits_at_large_m(self, d):
        # 4(1 - sqrt(r)) cancels as r -> 1: against 60 digits it was off by
        # 8e-8 (relative) at M = 5e9; the exact difference keeps 1e-15
        tol = decimal.Decimal("1e-15")
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for m in (10, 10 ** 4, 10 ** 5, 10 ** 6, 5 * 10 ** 9):
                for k in (1, 2, 3):
                    for dim, bound in ((d, lemma1_bound(d, m, k)),
                                       (d * d, general_bound(d, m, k))):
                        r = (decimal.Decimal(math.comb(dim + m - k - 1, m - k))
                             / math.comb(dim + m - 1, m))
                        want = 4 * (1 - r.sqrt())
                        assert abs(decimal.Decimal(bound) - want) <= tol * want

    def test_general_asymptotic(self):
        assert general_bound(2, 10, 1, asymptotic=True) == pytest.approx(0.6)

    def test_exact_below_asymptotic_when_m_dominates(self):
        # the linearization overshoots once M is well past k*d
        for d in (2, 3):
            for k in (1, 2):
                for m in range(4 * k * d, 30):
                    assert lemma1_bound(d, m, k) <= lemma1_bound(
                        d, m, k, asymptotic=True) + 1e-15

    def test_perr_values(self):
        assert abs(perr_lower_bound(2, 10) - 0.45) <= 1e-15
        assert abs(perr_lower_bound(2, 2) - 0.25) <= 1e-15
        assert perr_lower_bound(4, 2) == pytest.approx(-0.25)  # vacuous, unclamped
        with pytest.raises(ValueError):
            perr_lower_bound(2, 0)

    def test_gap_values(self):
        assert universal_clone_gap(1, 2, 2) == 1 / 6
        assert abs(universal_clone_gap(1, 10, 2) - 1 / 30) <= 1e-15
        assert universal_clone_gap(1, 2, 1) == 0.0
        with pytest.raises(ValueError):
            universal_clone_gap(2, 1, 2)
        with pytest.raises(ValueError):
            universal_clone_gap(1, 2, 0)


@st.composite
def _bound_args(draw):
    d = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4095))
    return d, m, draw(st.integers(1, m))


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(args=_bound_args())
def test_bounds_are_monotone(args):
    # exact integer dimensions and their difference, correctly rounded
    # ratios and sqrt keep each step monotone in floating point, so no
    # slack is needed
    d, m, k = args
    for bound in (lemma1_bound, general_bound):
        for asymptotic in (False, True):
            here = bound(d, m, k, asymptotic=asymptotic)
            assert bound(d, m + 1, k, asymptotic=asymptotic) <= here
            if k < m:
                assert bound(d, m, k + 1, asymptotic=asymptotic) >= here
    assert perr_lower_bound(d, m + 1) >= perr_lower_bound(d, m)


def _channel_fidelities(ch, phi, state):
    """(F_clon, F_tilde) of one user, the second through `state`'s route."""
    rho_out = apply(ch, embed_pure_input(ch, phi))
    u = phi.entries[:, 0]
    rho_1 = partial_trace(rho_out, [0]).entries
    tilde = dense_users(state(rho_out), 1)[1].entries
    return (float(np.real(np.vdot(u, rho_1 @ u))),
            float(np.real(np.vdot(u, tilde @ u))))


def _cloner_fidelities(d, n, m, phi):
    """(F_clon, F_tilde) from the k = 1 row of a fidelity_gap scenario."""
    row, = run_scenario(scenario_from_dict({
        "schema": 1,
        "channel": {"kind": "universal_cloner", "d": d, "N": n, "M": m},
        "input": {"type": "pure",
                  "coeffs": [[z.real, z.imag] for z in phi.entries[:, 0]]},
        "k": [1],
        "checks": ["lemma1", "fidelity_gap"],
    }))
    return row.F_clon, row.F_tilde


class TestSingleUserFidelities:
    def test_one_to_two_qubit(self):
        f_clon, f_tilde = _cloner_fidelities(2, 1, 2, basis_ket(2, 0))
        assert abs(f_clon - 5 / 6) <= 1e-12
        assert abs(f_tilde - 2 / 3) <= 1e-12

    @pytest.mark.parametrize("n,m,d", [(1, 2, 2), (1, 3, 2), (2, 3, 2),
                                       (1, 2, 3)])
    def test_matches_closed_form(self, n, m, d):
        f_clon, f_tilde = _cloner_fidelities(d, n, m, basis_ket(d, 0))
        want = n / m + (m - n) * (n + 1) / (m * (n + d))
        assert abs(f_clon - want) <= 1e-9
        gap = universal_clone_gap(n, m, d)
        assert abs((f_clon - f_tilde) - gap) <= 1e-9

    def test_trivial_cloner(self):
        f_clon, f_tilde = _cloner_fidelities(2, 1, 1, basis_ket(2, 0))
        assert abs(f_clon - 1.0) <= 1e-12
        assert abs(f_tilde - 2 / 3) <= 1e-12

    def test_prep_channel(self):
        ch = fixed_prep_channel(projector(basis_ket(2, 0)), 2)
        f_clon, f_tilde = _channel_fidelities(ch, basis_ket(2, 0),
                                              symmetric_state)
        assert abs(f_clon - 1.0) <= 1e-12
        assert abs(f_tilde - 0.75) <= 1e-12

    def test_general_route_kicks_in(self):
        ch = noisy_cloner(2, 1, 3, 0.1)
        f_clon, f_tilde = _channel_fidelities(ch, basis_ket(2, 0),
                                              purified_state)
        assert 0.0 <= f_tilde <= 1.0
        assert 0.0 <= f_clon <= 1.0

    def test_input_independence(self):
        f_a, _ = _cloner_fidelities(2, 1, 3, basis_ket(2, 0))
        f_b, _ = _cloner_fidelities(2, 1, 3, ket([0.6, 0.8j]))
        assert abs(f_a - f_b) <= 1e-10
