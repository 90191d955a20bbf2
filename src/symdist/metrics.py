"""Distances, distinguishability, and the closed-form bounds.

Exact bounds use binomial symmetric-subspace dimensions; asymptotic forms are
reported for orientation only and are never valid as hard bounds at finite M.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import check_hermitian

BOUND_SLACK = 1e-9


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace norm of rho - sigma (so states are at most 2 apart), for two
    square matrices of one shape in one frame, or two diagonals (sum_i
    |a_i - b_i|).  Each, and a difference of matrices, must be finite and
    Hermitian within HERMITICITY_TOL (a diagonal: real); only that
    difference is diagonalized, by one eigvalsh of (X+X†)/2."""
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    check_hermitian(rho)
    check_hermitian(sigma)
    if rho.ndim == 1:
        return float(np.abs((rho - sigma).real).sum())
    x = rho - sigma
    check_hermitian(x)
    w = np.linalg.eigvalsh(0.5 * (x + x.conj().T))
    return float(np.abs(w[::-1]).sum())  # descending: the recorded distances' order


def helstrom_perr(distance: float) -> float:
    """Minimal error probability discriminating two states at equal priors,
    from their trace distance (the trace norm of their difference)."""
    return 0.5 - 0.25 * distance


def lemma1_bound(d: int, M: int, k: int, asymptotic: bool = False) -> float:
    """Distance bound 4(1 - sqrt(s_{M-k}/s_M)) for symmetric-support states.

    asymptotic=True returns 2(d-1)k/M instead, the large-M simplification.
    The dimensions stay exact Python integers, past the 64-bit range of
    sym_dim.  The bound is evaluated as 4(s_M - s_{M-k})/s_M / (1 + sqrt(r)),
    r = s_{M-k}/s_M, with the difference exact: 1 - sqrt(r) would cancel
    catastrophically at large M (a relative error of 8e-8 at M = 5e9 qubits).
    """
    if not 0 <= k <= M:
        raise ValueError(f"need 0 <= k <= M={M}, got k={k}")
    if d < 1:
        raise ValueError(f"local dimension must be >= 1, got {d}")
    if asymptotic:
        return 2.0 * (d - 1) * k / M
    s_m, s_rest = math.comb(d + M - 1, M), math.comb(d + M - k - 1, M - k)
    return 4.0 * ((s_m - s_rest) / s_m) / (1.0 + (s_rest / s_m) ** 0.5)


def general_bound(d: int, M: int, k: int, asymptotic: bool = False) -> float:
    """Same bound through the pair purification: local dimension becomes d^2."""
    if d < 1:
        raise ValueError(f"local dimension must be >= 1, got {d}")
    return lemma1_bound(d * d, M, k, asymptotic)


def perr_lower_bound(d: int, M: int) -> float:
    """Floor 1/2 - (d-1)/(2M) on distinguishing a single user's two marginals.

    Unclamped: for M < d - 1 this goes negative and is vacuously true.
    """
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    return 0.5 - (d - 1) / (2.0 * M)


def universal_clone_gap(N: int, M: int, d: int) -> float:
    """Closed-form fidelity gap N(d-1)/(M(N+d)) of optimal N -> M cloning."""
    if not 1 <= N <= M:
        raise ValueError(f"need 1 <= N <= M, got N={N}, M={M}")
    if d < 1:
        raise ValueError(f"local dimension must be >= 1, got {d}")
    return N * (d - 1) / (M * (N + d))
