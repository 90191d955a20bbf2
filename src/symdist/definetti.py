"""Classical approximations to the marginals of symmetrically distributed states.

A state rho on M identical factors that lives in (or is purified into) the
symmetric subspace induces a density over pure states,
w(psi) = s_M <psi^M| rho |psi^M>, and the mixture of psi^{tensor k} under it
approximates rho's k-user marginal: exactly, a rescaled partial trace
against the (M+k)-fold symmetrizer, or by Monte Carlo over Haar samples.

An OccupationState holds the state in occupation coordinates as a
diagonal (a cloner's output in its input's frame) or as the rows of a
stack of kets (a preparation's output, or, from purified_state, the pair
purification (sqrt(rho) tensor 1)|Omega> of a permutation-invariant rho,
one ket symmetric in the d^2-dimensional pairs, real where rho is, its
root taken by occupation blocks wherever rho's exact zeros allow); no
s_M x s_M matrix.  The exact kernels, and the ancilla trace, are one
contraction over split coefficients (Harrow, arXiv:1308.6595), with s_k x
s_k results, or diagonals, in Sym^k and the state's dtype; the sweep runs
them once, at the largest k, and drops one user at a time.
mc_reduce_coords is the one Monte Carlo entry.  Each entry point is sized
by symspace.plan under its `cap`, and its tolerances are linalg's.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DEFAULT_DIM_CAP, PSD_TOL, SUPPORT_TOL, DenseOperator, swap_residual
from .symspace import (_half_log_multiplicities, _index_map, _occupation_table,
                       haar_kets, plan, power_coords, split_table, sym_dim)

PERM_INVARIANCE_TOL = 1e-8


def _uniform_square(rho: DenseOperator, name: str) -> tuple[int, int]:
    if not rho.is_square:
        raise ValueError(f"{name} must be a square operator")
    dims = rho.factor_dims
    if not dims:
        raise ValueError(f"{name} must have at least one factor")
    if len(set(dims)) > 1:
        raise ValueError(f"{name} factors must share one dimension, got {dims}")
    return dims[0], len(dims)


def contract(x: np.ndarray, idx: np.ndarray, coef: np.ndarray,
             ket: bool = False) -> np.ndarray:
    """sum_j coef[a, j] coef[a', j] x[idx[a, j], idx[a', j]]: the one
    contraction behind every k-user result.  For a diagonal (1-D) x, the
    diagonal sum_j coef[a, j]^2 x[idx[a, j]]; with `ket`, x holds rows x_i of
    sum_i x_i x_i†, and the result is W W† = sum_i W_i W_i† for the gathers
    W_i[a, j] = coef[a, j] x_i[idx[a, j]], one row at a time.  A matrix x is
    the drops'."""
    if ket:
        gathers = (coef * row[idx] for row in x)
        return sum(w @ w.conj().T for w in gathers)
    if x.ndim == 2:
        gathered = x[idx[:, None, :], idx[None, :, :]]
        gathered *= coef[:, None, :] * coef[None, :, :]
        return gathered.sum(axis=-1)
    return (coef ** 2 * x[idx]).sum(-1)


def marginal_coords(rho: np.ndarray, d: int, m: int, k: int,
                    ket: bool = False) -> np.ndarray:
    """Tr_{M-k} of an occupation-coordinate state, an s_M x s_M matrix (its
    diagonal, or with `ket` its rows of kets), as s_k x s_k (a diagonal):
    rho_k[a, a'] = sum_b c(a+b; a) c(a'+b; a') rho[a+b, a'+b]."""
    t = split_table(d, m, k)
    return contract(rho, t.whole, t.whole_coef, ket)


def reduce_coords(rho: np.ndarray, d: int, m: int, k: int,
                  ket: bool = False) -> np.ndarray:
    """(s_M/s_{M+k}) Tr_M[(rho tensor 1^k) P_{M+k}] for an occupation-
    coordinate state, an s_M x s_M matrix (its diagonal, or with `ket` its
    rows of kets), as s_k x s_k (a diagonal):
    tilde[a, a'] = (s_M/s_{M+k}) sum_m c(m;a) c(m;a') rho[m-a', m-a], the
    contraction over the rest layout, transposed."""
    t = split_table(d, m + k, k)
    ratio = sym_dim(d, m) / sym_dim(d, m + k)
    return ratio * contract(rho, t.rest.T, t.rest_coef.T, ket).T


def mc_reduce_coords(x: np.ndarray, d: int, m: int, k: int, samples: int,
                     seed: int, cap: int = DEFAULT_DIM_CAP
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo (estimate, stderr) of the k-user mixture of a state held
    as OccupationState holds it, a diagonal (1-D x) or rows x_j of kets
    (2-D): two s_k x s_k arrays, componentwise, in the frame of the sweep's
    k-user results.  The one Monte Carlo entry: scenario checks and moment
    checks draw here.  Its plan under `cap` refuses it before anything is
    allocated, or sets the chunk; fewer than 2 samples, or more than
    2^63 - 1, are refused.

    The draws are the first `samples` rows of haar_kets from
    default_rng((seed, 1)), taken a chunk at a time, so draw j does not
    depend on the chunk.  Each, weighted by w = s_M <psi^M|rho|psi^M> (with
    c = power_coords(psi, M): s_M sum_s |c_s|^2 x_s, or s_M sum_j |x_j† c|^2),
    contributes w c c† with c = power_coords(psi, k); standard errors combine
    the real and imaginary spreads in quadrature, bit for bit on a rerun.
    The squares of draws sum as |2^h_n c_n|^2, where |c_n c_n'|^2 would
    underflow (from order 540 at d = 2), h_n as large as keeps sums finite,
    since |c_n|^2 <= mult(n) prod_i (n_i/k)^{n_i} and |w| <= s_M |x|^2 (|x|
    for a diagonal).  Powers of two scale exactly: no digit moves where
    nothing underflows.
    """
    rows = x.shape[0] if x.ndim == 2 else None
    chunk = plan(d, m, output=False, mc=k, rows=rows, cap=cap).chunk
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, "
                         f"got {samples}")
    if samples >= 2 ** 63:
        raise ValueError(f"need at most 2^63 - 1 samples, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng((seed, 1))
    s_k, s_m = sym_dim(d, k), sym_dim(d, m)
    occ = _occupation_table(d, k)
    log2_top = (2 * _half_log_multiplicities(d, k) + (
        occ * np.log(np.maximum(occ, 1) / k)).sum(axis=1)) / np.log(2)
    norm = np.linalg.norm(x) ** (2 if rows else 1)
    room = 510 - np.log2(samples) / 2 - np.log2(max(s_m * norm, 1.0))
    up = np.ldexp(1.0, np.floor((room - log2_top) / 2).astype(int))
    acc = np.zeros((s_k, s_k), dtype=complex)  # sum of the draws x
    acc_sq = np.zeros((s_k, s_k))  # sum of |x|^2 up_n^2 up_n'^2
    for lo in range(0, samples, chunk):
        u = haar_kets(rng, min(chunk, samples - lo), d)
        c = power_coords(u, m)
        w = s_m * ((np.abs(c @ x.conj().T) ** 2).sum(axis=1) if rows
                   else (np.abs(c) ** 2 @ x).real)
        # each draw adds w c_k c_k^dagger, summed over the chunk as matrix products
        c_k = c if k == m else power_coords(u, k)
        acc += (w[:, None] * c_k).T @ c_k.conj()
        p = np.abs(c_k * up) ** 2
        acc_sq += (w[:, None] ** 2 * p).T @ p
    mean = acc / samples
    var = np.maximum(acc_sq / samples - (np.abs(mean) * up[:, None] * up) ** 2, 0.0)
    return mean, np.sqrt(var / samples) / up[:, None] / up


@dataclass(frozen=True)
class OccupationState:
    """M users in occupation coordinates of Sym^M(C^d), held as a diagonal
    (1-D, a cloner's output in its input's frame) or as the (r, s) rows
    x_j of a stack of kets, standing for sum_j x_j x_j† (a preparation's
    output); no state is held as its s x s matrix.

    When `paired`, each factor is a (user, ancilla) pair and `coords` the
    pure pair purification from purified_state, one row in Sym^M(C^{d^2});
    contract, through _trace_table, traces the ancillas out of the kernels'
    outputs.  sweep, the one way to the k-user results, runs the kernels at
    the largest k only and drops one user at a time; at one k it runs them
    there, as for the Monte Carlo reference, next(sweep([1]))[2]."""

    coords: np.ndarray
    d: int
    m: int
    paired: bool = False

    def sweep(self, ks, cap: int = DEFAULT_DIM_CAP
              ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(k, marginal, mixture) for each k of ks, from the largest down,
        planned once before the first, as hermitized matrices in coords'
        dtype and the frame of their distance: d^k x d^k on (C^d)^{tensor k}
        paired, else s_k x s_k in occupation coordinates of Sym^k(C^d) (V
        keeps the trace norm; k = 1: C^d), or diagonals where coords is one.
        Both families are consistent (rho_k = Tr_1 rho_{k+1}, and the
        mixtures likewise), so the kernels run only at K = max(ks), and each
        smaller k is the one-user partial trace of the k + 1 pair.  The
        sweep holds only the pair of the current k."""
        ks = set(ks)
        self._plan(sorted(ks), cap)
        top, d = max(ks), self.d
        pair = [self._result(kernel, top) for kernel in (marginal_coords, reduce_coords)]
        for k in range(top, min(ks) - 1, -1):
            if k < top:
                pair = [_hermitized(
                    np.einsum("aibi->ab", x.reshape(d ** k, d, d ** k, d)) if self.paired
                    else marginal_coords(x, d, k + 1, k)) for x in pair]
            if k in ks:
                yield k, *pair

    def _plan(self, ks, cap: int) -> None:
        plan(self.d, self.m, tuple(ks), route="dense" if self.paired else "symmetric",
             output=False, rows=len(self.coords) if self.coords.ndim == 2 else None,
             itemsize=self.coords.itemsize, cap=cap)

    def _result(self, kernel, k: int) -> np.ndarray:
        d, ket = self.d, self.coords.ndim == 2
        x = kernel(self.coords, d * d if self.paired else d, self.m, k, ket=ket)
        return _hermitized(contract(x, *_trace_table(d, k)) if self.paired else x)


def _hermitized(e: np.ndarray) -> np.ndarray:
    """(E + E†)/2 (of a diagonal, its real part): scrubs roundoff off E."""
    return 0.5 * (e + e.conj().T)


@lru_cache(maxsize=32)
def _trace_table(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The index table and coefficients that make contract(X, idx, coef)
    the ancilla trace Tr_anc V X V† of an s_k x s_k coordinate matrix X.

    V is the isometry of Sym^k(C^{d^2}).  Row i and column a of both d^k x
    d^k arrays stand for system string i and ancilla string a (the pair
    digits interleave, system first): `idx` holds the column that V gives
    row (i, a), and `coef` its weight.
    """
    q = d * d
    flat = np.arange(q ** k).reshape((d,) * (2 * k)).transpose(
        [*range(0, 2 * k, 2), *range(1, 2 * k, 2)]).reshape(d ** k, -1)
    v = _index_map(q, k)
    idx, coef = v.col[flat], v.weight[flat]
    for a in (idx, coef):
        a.setflags(write=False)
    return idx, coef


def _sqrt_by_blocks(a: np.ndarray, squares) -> np.ndarray:
    """sqrt(a), written over a, of a Hermitian PSD `a` that is zero outside
    its diagonal blocks, the indices `squares`: one eigh a block."""
    for square in squares:
        vals, vecs = np.linalg.eigh(a[square])
        if vals[0] < -PSD_TOL:
            raise ValueError(f"rho has negative eigenvalue {vals[0]:.3e}")
        a[square] = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
    return a


def purified_state(rho: DenseOperator, cap: int = DEFAULT_DIM_CAP) -> OccupationState:
    """The pair purification |Phi> = (sqrt(rho) tensor 1)|Omega> of rho in
    occupation coordinates of Sym^M(C^{d^2}), real where rho is, its
    coordinates read-only.

    Each factor j of |Phi> is the pair (system j, ancilla j), the system
    the more significant digit.  Permuting the pairs jointly leaves |Phi>
    invariant whenever rho is permutation invariant, which the adjacent
    swaps check first, so |Phi> lies in the symmetric subspace of the
    pairs.  The support check bounds its weight outside that subspace, not
    an entry: sqrt lifts roundoff to ~1e-8.

    _sqrt_by_blocks takes sqrt(rho) over (rho + rho†)/2, one block at a
    time: one for each column of _index_map(d, M) where that is exactly zero
    outside these occupation blocks, as an output that commutes with the
    diagonal unitaries is (zeros kept as they are), else all of rho."""
    d, m = _uniform_square(rho, "rho")
    plan(d, m, route="dense", itemsize=rho.entries.itemsize, cap=cap)
    for t in range(m - 1):
        resid = swap_residual(rho, t)
        if resid > PERM_INVARIANCE_TOL:
            raise ValueError(
                f"rho is not permutation invariant within {PERM_INVARIANCE_TOL} "
                f"(swap {t},{t + 1} residual {resid:.3e})"
            )
    # one name for (rho + rho†)/2, its square root and the pair ket, so
    # that each is freed as the next is made
    phi = 0.5 * (rho.entries + rho.entries.conj().T)
    v, nonzero = _index_map(d, m), np.count_nonzero(phi)
    # more nonzeros than the blocks' sum(side^2) entries put one outside them
    squares = ([np.ix_(b, b) for b in np.split(v.order, v.starts[1:])]
               if nonzero <= (np.bincount(v.col) ** 2).sum() else [])
    if sum(np.count_nonzero(phi[square]) for square in squares) < nonzero:
        squares = [np.s_[:, :]]
    phi = _sqrt_by_blocks(phi, squares)
    order = [ax for j in range(m) for ax in (j, m + j)]
    phi = phi.reshape((d,) * (2 * m)).transpose(order).reshape(-1)
    nrm = float(np.linalg.norm(phi))
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"purification norm {nrm} deviates from 1; trace(rho) != 1?")
    phi /= nrm
    v = _index_map(d * d, m)
    c = v.compress(phi)
    resid = float(np.linalg.norm(phi - v.expand(c)) ** 2)
    if resid > SUPPORT_TOL:
        raise ValueError(
            f"pair purification has weight {resid:.3e} outside the symmetric "
            "subspace of the pairs"
        )
    c = c[None, :]
    c.setflags(write=False)
    return OccupationState(c, d, m, paired=True)
