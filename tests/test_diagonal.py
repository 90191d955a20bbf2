"""The diagonal form against the matrix form it stands for.

A cloner's output in its input's frame is diagonal in occupation
coordinates, and is held as that diagonal: a 1-D array x standing for
np.diag(x).  Each kernel, the sweep's one-user drops, the Monte Carlo
weights, the state check and the distance take it; each must agree with
what the matrix kernels and checks give on np.diag(x), refusals and their
messages included, and the sweep and the Monte Carlo weights with what
they give on the kets sqrt(x_s) e_s that stand for it.
"""

import numpy as np
import pytest

from symdist.definetti import (
    OccupationState,
    marginal_coords,
    mc_reduce_coords,
    reduce_coords,
)
from symdist.linalg import PSD_TOL, validate_state
from symdist.metrics import trace_distance
from symdist.scenario import _max_sigma
from symdist.symspace import sym_dim

TOL = 1e-14
# the matrix kernels gather s_k^2 s_{M+k} complex terms; the larger (d, M, k)
# with d <= 4, M <= 12 (up to 605 million terms at (4, 12, 12)) are left out
MAX_GATHER = 2 ** 21
CASES = [(d, m, k) for d in (1, 2, 3, 4) for m in range(1, 13) for k in range(1, m + 1)
         if sym_dim(d, k) ** 2 * sym_dim(d, m + k) <= MAX_GATHER]


def _diagonal(d, m, seed=0):
    """A random diagonal state of Sym^M(C^d) with some zero entries, as a
    cloner's output has."""
    rng = np.random.default_rng([d, m, seed])
    x = rng.random(sym_dim(d, m)) * (rng.random(sym_dim(d, m)) < 0.8)
    x[0] += 1e-3
    return x / x.sum()


def _kets(x):
    """The rows sqrt(x_s) e_s, the stack of kets that stands for np.diag(x)
    as OccupationState holds a preparation's output."""
    return np.diag(np.sqrt(x))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kernels_on_a_diagonal_match_the_matrix_kernels(d):
    """The marginal and the mixture of a diagonal are diagonals, equal to
    the matrix kernels on np.diag of it (off-diagonal entries 0 there), at
    every (d, M <= 12, k) whose matrix gather fits."""
    cases = [(m, k) for dd, m, k in CASES if dd == d]
    assert cases
    for m, k in cases:
        x = _diagonal(d, m)
        for kernel in (marginal_coords, reduce_coords):
            got = kernel(x, d, m, k)
            assert got.shape == (sym_dim(d, k),)
            assert np.max(np.abs(np.diag(got) - kernel(np.diag(x), d, m, k))) <= TOL


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sweep_of_a_diagonal_matches_the_matrix_sweep(d):
    """Every one-user drop of a sweep over k = 1..K, with the kernels at
    the largest K whose matrix gather fits, on a diagonal and on its
    matrix."""
    for m in range(1, 13):
        top = max(k for dd, mm, k in CASES if (dd, mm) == (d, m))
        x = _diagonal(d, m, seed=1)
        diag = OccupationState(x, d, m).sweep(range(1, top + 1))
        full = OccupationState(_kets(x), d, m).sweep(range(1, top + 1))
        for (k, *got), (k_full, *want) in zip(diag, full, strict=True):
            assert k == k_full
            for a, b in zip(got, want):
                assert a.shape == (sym_dim(d, k),) and a.dtype == float
                assert np.max(np.abs(np.diag(a) - b)) <= TOL


@pytest.mark.parametrize("d,m,k", [(2, 6, 1), (2, 12, 3), (3, 5, 2), (4, 3, 3)])
def test_monte_carlo_on_a_diagonal_matches_its_matrix(d, m, k):
    # a draw's weight s_M sum_s |c_s|^2 x_s, against s_M <c|diag(x)|c> from
    # the kets sqrt(x_s) e_s of diag(x)
    x = _diagonal(d, m, seed=2)
    est, stderr = mc_reduce_coords(x, d, m, k, 500, seed=3)
    want, want_err = mc_reduce_coords(_kets(x), d, m, k, 500, seed=3)
    assert np.max(np.abs(est - want)) <= TOL
    assert np.max(np.abs(stderr - want_err)) <= TOL
    reference = reduce_coords(x, d, m, k)
    assert _max_sigma(est, reference, stderr) == _max_sigma(
        est, np.diag(reference), stderr)


def test_trace_distance_of_diagonals_is_the_l1_distance():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 40):
        a, b = rng.random(n), rng.random(n)
        a, b = a / a.sum(), b / b.sum()
        got = trace_distance(a, b)
        assert got == float(np.abs(a - b).sum())
        assert abs(got - trace_distance(np.diag(a), np.diag(b))) <= TOL
        assert trace_distance(a.astype(complex), a) == 0.0


def _message(check, *args):
    with pytest.raises(ValueError) as err:
        check(*args)
    return str(err.value)


@pytest.mark.parametrize("x", [
    np.array([np.nan, 0.5]), np.array([0.5, np.inf]),   # not finite
    np.array([1.5, -0.5]),                               # below -PSD_TOL
    np.array([1.0 + 2 * PSD_TOL, -2 * PSD_TOL]),
    np.array([0.5, 0.6]), np.array([0.25, 0.25]),       # trace other than 1
    np.array([0.5 + 1e-6j, 0.5]),                        # not real
], ids=["nan", "inf", "negative", "just-negative", "trace-high", "trace-low",
        "complex"])
def test_validate_state_refuses_a_diagonal_as_its_matrix(x):
    assert _message(validate_state, x, "channel output") == _message(
        validate_state, np.diag(x), "channel output")


def test_validate_state_passes_a_diagonal_within_the_tolerances():
    validate_state(np.array([1.0 + PSD_TOL / 2, -PSD_TOL / 2]))
    validate_state(np.array([0.5 + 1e-10j, 0.5]))
    validate_state(np.array([1.0]))
    # three axes are neither a matrix nor a diagonal
    assert _message(validate_state, np.full((2, 2, 2), 0.125)) == (
        "state: expected a square matrix, got shape (2, 2, 2)")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trace_distance_refuses_a_non_finite_diagonal_as_its_matrix(bad):
    good = np.array([0.5, 0.5])
    for rho, sigma in ((np.array([bad, 0.5]), good), (good, np.array([0.5, bad]))):
        assert _message(trace_distance, rho, sigma) == _message(
            trace_distance, np.diag(rho), np.diag(sigma))


def test_trace_distance_refuses_a_diagonal_against_a_matrix():
    half = np.full(2, 0.5)
    for rho, sigma in ((half, np.diag(half)), (np.diag(half), half),
                       (half, np.full(3, 1 / 3))):
        assert _message(trace_distance, rho, sigma).startswith("shape mismatch")
    complex_half = np.array([0.5 + 1e-6j, 0.5])
    assert _message(trace_distance, complex_half, half) == _message(
        trace_distance, np.diag(complex_half), np.diag(half))
