"""Classical approximations to the marginals of symmetrically distributed states.

A state rho on M identical factors that lives in (or is purified into) the
symmetric subspace induces a probability density over pure states,
w(psi) = s_M <psi^M| rho |psi^M>, and the mixture of psi^{tensor k} under
that density approximates rho's k-user marginal.  The exact mixture has a
closed form as a rescaled partial trace against the (M+k)-fold symmetrizer;
Monte Carlo over Haar samples recovers the same object statistically.

The kernels (marginal_coords, reduce_coords, mc_reduce_coords) take the state
as an s_M x s_M matrix in occupation coordinates, and the first two also a
pure state as its s_M-vector; each returns s_k x s_k matrices in the
occupation coordinates of Sym^k, and none forms anything of side d^M or
d^k.  The exact ones, and the pair route's ancilla trace, are one
contraction, sum_j c[a,j] c[a',j] X[idx[a,j], idx[a',j]], over tables of
split coefficients (Harrow, arXiv:1308.6595).  The sampler weights each
draw's power_coords, so its estimate is compared there too: the Haar moment
P_k/s_k is 1/s_k times the identity.  An OccupationState holds either.  An
output in the symmetric subspace (the lemma) comes from
SDIChannelSpec.symmetric_output; its k-user marginal and mixture lie in
Sym^k, where V keeps the trace norm, so their distance is taken between the
kernels' s_k x s_k outputs.  Any permutation-invariant dense rho (the
theorem) enters by purified_state(rho), which pairs each user with an
ancilla in |Phi> = (sqrt(rho) tensor 1)|Omega>, symmetric in the
d^2-dimensional pairs; the kernels run at d^2 on |Phi> as a ket, and the
same contraction traces the ancillas out at d^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import SUPPORT_TOL, SupportError
from .linalg import (
    DEFAULT_DIM_CAP,
    DenseOperator,
    _check_bytes,
    _check_cap,
    swap_residual,
)
from .symspace import (
    _index_map,
    check_dense_route,
    haar_kets,
    index_map,
    power_coords,
    split_table,
    sym_dim,
    users_bytes,
)

PERM_INVARIANCE_TOL = 1e-8
# Monte Carlo draws are weighted and accumulated in chunks that hold about
# this many entries of their k- and M-user occupation coordinates.
MC_CHUNK_ENTRIES = 2 ** 20


def _uniform_square(rho: DenseOperator, name: str) -> tuple[int, int]:
    if not rho.is_square:
        raise ValueError(f"{name} must be a square operator")
    dims = rho.factor_dims
    if not dims:
        raise ValueError(f"{name} must have at least one factor")
    if len(set(dims)) > 1:
        raise ValueError(f"{name} factors must share one dimension, got {dims}")
    return dims[0], len(dims)


def _check_k(k: int, m: int) -> None:
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= M={m}, got k={k}")


def contract(x: np.ndarray, idx: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_j coef[a, j] coef[a', j] x[idx[a, j], idx[a', j]]: the one
    contraction behind every k-user result.  A 1-D `x` is a ket standing for
    |x><x|; then the sum is W W† with W[a, j] = coef[a, j] x[idx[a, j]]."""
    if x.ndim == 1:
        w = coef * x[idx]
        return w @ w.conj().T
    gathered = x[idx[:, None, :], idx[None, :, :]]
    gathered *= coef[:, None, :] * coef[None, :, :]
    return gathered.sum(axis=-1)


def marginal_coords(rho: np.ndarray, d: int, m: int, k: int) -> np.ndarray:
    """Tr_{M-k} of an s_M x s_M occupation-coordinate state (or ket), as
    s_k x s_k: rho_k[a, a'] = sum_b c(a+b; a) c(a'+b; a') rho[a+b, a'+b]."""
    t = split_table(d, m, k)
    return contract(rho, t.whole, t.whole_coef)


def reduce_coords(rho: np.ndarray, d: int, m: int, k: int) -> np.ndarray:
    """(s_M/s_{M+k}) Tr_M[(rho tensor 1^k) P_{M+k}] for an s_M x s_M
    occupation-coordinate state (or ket), as s_k x s_k:
    tilde[a, a'] = (s_M/s_{M+k}) sum_m c(m;a) c(m;a') rho[m-a', m-a], the
    contraction over the rest layout, transposed."""
    t = split_table(d, m + k, k)
    ratio = sym_dim(d, m) / sym_dim(d, m + k)
    return ratio * contract(rho, t.rest.T, t.rest_coef.T).T


def check_mc_route(d: int, m: int, k: int) -> int:
    """Raise ResourceLimitError, before anything is allocated, unless
    mc_reduce_coords at (d, M, k) fits DEFAULT_DIM_CAP; else return its
    draws per chunk.  Side s_k is checked against the cap; the bytes of the
    state, five s_k x s_k arrays (the two sums, a chunk's two products and
    a reference) and one chunk (64 bytes, four complex copies, for each
    entry of a draw's k-user coordinates and of its d x s_M table of
    logarithms in power_coords), against the byte budget that goes with it.
    """
    _check_k(k, m)
    s_k, s_m = sym_dim(d, k), sym_dim(d, m)
    _check_cap(s_k, DEFAULT_DIM_CAP, f"{k}-user Monte Carlo estimate")
    per_draw = s_k + d * s_m
    chunk = max(1, MC_CHUNK_ENTRIES // per_draw)
    nbytes = 16 * (s_m * s_m + 5 * s_k * s_k) + 64 * chunk * per_draw
    _check_bytes(nbytes, DEFAULT_DIM_CAP, f"Monte Carlo estimate of {k} users")
    return chunk


def mc_reduce_coords(rho: np.ndarray, d: int, m: int, k: int, samples: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo (estimate, stderr) of the k-user mixture of an s_M x s_M
    occupation-coordinate state: two s_k x s_k arrays, componentwise, in the
    occupation coordinates of Sym^k(C^d) that OccupationState.users(k)
    returns (C^d at k = 1).

    The draws are the first `samples` rows of haar_kets from one generator,
    default_rng((seed, 1)), taken chunk by chunk in order, so draw j does
    not depend on the chunk size.  Each is weighted by
    w = s_M <psi^M|rho|psi^M> with <n|psi^M> = sqrt(mult(n)) prod_i psi_i^{n_i}
    and contributes w c c†, where c = power_coords(psi, k).  Standard errors
    combine the real and imaginary spreads in quadrature.  Same (seed,
    samples) reproduces both arrays bit for bit.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, "
                         f"got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    chunk = check_mc_route(d, m, k)
    rng = np.random.default_rng((seed, 1))
    s_k = sym_dim(d, k)
    acc = np.zeros((s_k, s_k), dtype=complex)  # sum of the draws x
    acc_sq = np.zeros((s_k, s_k))  # sum of |x|^2
    for lo in range(0, samples, chunk):
        u = haar_kets(rng, min(chunk, samples - lo), d)
        c = power_coords(u, m)
        w = sym_dim(d, m) * np.einsum("bs,bs->b", c.conj(), c @ rho.T).real
        # x = w c_k c_k^dagger, summed over the chunk as matrix products
        c_k = c if k == m else power_coords(u, k)
        acc += (w[:, None] * c_k).T @ c_k.conj()
        p = np.abs(c_k) ** 2
        acc_sq += (w[:, None] ** 2 * p).T @ p
    mean = acc / samples
    var = np.maximum(acc_sq / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / samples)


@dataclass(frozen=True)
class OccupationState:
    """M users in occupation coordinates of Sym^M(C^d): an s x s matrix.

    When `paired`, each factor is a (user, ancilla) pair and `coords` is
    the pure pair purification as an s-vector in Sym^M(C^{d^2}); the
    kernels take it as a ket, and contract, through _trace_table, traces
    the ancillas out of their s_k x s_k outputs at side d^k.
    """

    coords: np.ndarray
    d: int
    m: int
    paired: bool = False

    def users(self, k: int, cap: int = DEFAULT_DIM_CAP) -> tuple[DenseOperator, ...]:
        """The k-user marginal and mixture, hermitized, in the frame their
        distance is taken in: (C^d)^{tensor k} paired, else occupation
        coordinates of Sym^k(C^d), where V keeps the trace norm (k = 1: C^d)."""
        return self._result(marginal_coords, k, cap), self.mixture(k, cap)

    def mixture(self, k: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
        """The mixture of users(k) alone, in its frame: what the sampler's
        estimate is compared against."""
        return self._result(reduce_coords, k, cap)

    def _result(self, kernel, k: int, cap: int) -> DenseOperator:
        _check_k(k, self.m)
        d = self.d
        if not self.paired:
            x = kernel(self.coords, d, self.m, k)
            return DenseOperator(x, (len(x),)).hermitize()
        # side and bytes before the gathers
        _check_cap(d ** k, cap, f"{k}-user result")
        _check_bytes(users_bytes(d, k), cap, f"{k}-user result")
        x = contract(kernel(self.coords, d * d, self.m, k), *_trace_table(d, k))
        x += x.conj().T
        x *= 0.5
        return DenseOperator(x, (d,) * k)


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


def symmetric_state(rho: DenseOperator,
                    cap: int = DEFAULT_DIM_CAP) -> OccupationState:
    """V† rho V, after checking that rho lies in the symmetric subspace.  No
    run path calls it: tests use it as the dense oracle for symmetric_output,
    its coordinates and its support decision."""
    d, m = _uniform_square(rho, "rho_out")
    check_dense_route(d, m, cap=cap)
    v = index_map(d, m, cap)
    coords = v.compress(v.compress(rho.entries, 0), 1)
    resid = float(np.max(np.abs(rho.entries - v.expand(v.expand(coords, 0), 1))))
    if resid > SUPPORT_TOL:
        raise SupportError(
            f"rho_out leaves the symmetric subspace (residual {resid:.3e}); "
            "the sampled mixture only reproduces symmetric-support marginals")
    return OccupationState(coords, d, m)


def purify_perm_invariant(rho: DenseOperator) -> DenseOperator:
    """Purify with one ancilla per factor, keeping permutation symmetry.

    |Phi> = (sqrt(rho) tensor 1)|Omega>, returned as a ket on M factors of
    dimension d^2: factor j is the pair (system j, ancilla j), with the
    system as the more significant digit.  Permuting the pairs jointly
    leaves |Phi> invariant whenever rho is permutation invariant, so |Phi>
    lies in the symmetric subspace of the pair factors.
    """
    d, m = _uniform_square(rho, "rho")
    for t in range(m - 1):
        resid = swap_residual(rho, t)
        if resid > PERM_INVARIANCE_TOL:
            raise ValueError(
                f"rho is not permutation invariant within {PERM_INVARIANCE_TOL} "
                f"(swap {t},{t + 1} residual {resid:.3e})"
            )
    mat = 0.5 * (rho.entries + rho.entries.conj().T)
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] < -1e-9:
        raise ValueError(f"rho has negative eigenvalue {vals[0]:.3e}")
    sq = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
    tensor = sq.reshape((d,) * (2 * m))
    order = [ax for j in range(m) for ax in (j, m + j)]
    phi = tensor.transpose(order).reshape(-1, 1)
    nrm = float(np.linalg.norm(phi))
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"purification norm {nrm} deviates from 1; trace(rho) != 1?")
    return DenseOperator(phi / nrm, (d * d,) * m, ())


def purified_state(rho: DenseOperator,
                   cap: int = DEFAULT_DIM_CAP) -> OccupationState:
    """The pair purification of rho in occupation coordinates of
    Sym^M(C^{d^2}).  The support check bounds its weight outside that
    subspace, not an entry: sqrt(rho) lifts roundoff eigenvalues to ~1e-8."""
    d, m = _uniform_square(rho, "rho")
    check_dense_route(d, m, paired=True, cap=cap)
    phi = purify_perm_invariant(rho).entries[:, 0]
    v = _index_map(d * d, m)
    c = v.compress(phi)
    resid = float(np.linalg.norm(phi - v.expand(c)) ** 2)
    if resid > SUPPORT_TOL:
        raise ValueError(
            f"pair purification has weight {resid:.3e} outside the symmetric "
            "subspace of the pairs"
        )
    return OccupationState(c, d, m, paired=True)
