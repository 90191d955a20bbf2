"""Classical approximations to the marginals of symmetrically distributed states.

A state rho on M identical factors that lives in (or is purified into) the
symmetric subspace induces a probability density over pure states,
w(psi) = s_M <psi^M| rho |psi^M>, and the mixture of psi^{tensor k} under
that density approximates rho's k-user marginal.  The exact mixture has a
closed form as a rescaled partial trace against the (M+k)-fold symmetrizer;
Monte Carlo over Haar samples recovers the same object statistically.

The kernels (marginal_coords, reduce_coords, mc_reduce_coords) take the state
as an s_M x s_M matrix in occupation coordinates and never form anything of
side d^M; marginal_coords and reduce_coords also take a pure state as its
s_M-vector.  An OccupationState holds either, and turns each kernel's
s_k x s_k output into a k-user result on (C^d)^{tensor k} with one gather.
A dense state enters by one of two routes, picked by the caller:
symmetric_state(rho) for rho supported in the symmetric subspace (the
lemma), and purified_state(rho) for any permutation-invariant rho (the
theorem).  The latter pairs each user with an ancilla in |Phi> =
(sqrt(rho) tensor 1)|Omega>, which is symmetric in the d^2-dimensional
pairs; the same kernels then run at d^2 on |Phi> as a ket, and the gather
traces the ancillas out, so nothing of side d^2k is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import SUPPORT_TOL, QuantumChannel, _plain_ket, adjoint_apply
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
# this many entries of the k-user kets and occupation coordinates.
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


def _kron_power(u: np.ndarray, n: int) -> np.ndarray:
    """u^{tensor n} for one vector or a stack of them (shape (..., d))."""
    out = np.ones(u.shape[:-1] + (1,), dtype=complex)
    for _ in range(n):
        out = (out[..., :, None] * u[..., None, :]).reshape(u.shape[:-1] + (-1,))
    return out


def marginal_coords(rho: np.ndarray, d: int, m: int, k: int) -> np.ndarray:
    """Tr_{M-k} of an s_M x s_M occupation-coordinate state, as s_k x s_k.

    rho_k[a, a'] = sum_b c(a+b; a) c(a'+b; a') rho[a+b, a'+b].  A 1-D `rho`
    is a ket x standing for |x><x|; then rho_k = W W† with
    W[a, b] = c(a+b; a) x[a+b].
    """
    t = split_table(d, m, k)
    if rho.ndim == 1:
        w = t.whole_coef * rho[t.whole]
        return w @ w.conj().T
    gathered = rho[t.whole[:, None, :], t.whole[None, :, :]]
    weights = t.whole_coef[:, None, :] * t.whole_coef[None, :, :]
    return (weights * gathered).sum(axis=-1)


def reduce_coords(rho: np.ndarray, d: int, m: int, k: int) -> np.ndarray:
    """(s_M/s_{M+k}) Tr_M[(rho tensor 1^k) P_{M+k}] for an s_M x s_M
    occupation-coordinate state, as s_k x s_k.

    tilde[a, a'] = (s_M/s_{M+k}) sum_m c(m;a) c(m;a') rho[m-a', m-a].  A 1-D
    `rho` is a ket x standing for |x><x|; then tilde = (s_M/s_{M+k}) B†B
    with B[m, a] = c(m;a) x[m-a].
    """
    t = split_table(d, m + k, k)
    ratio = sym_dim(d, m) / sym_dim(d, m + k)
    if rho.ndim == 1:
        b = t.rest_coef * rho[t.rest]
        return ratio * (b.conj().T @ b)
    gathered = rho[t.rest[:, None, :], t.rest[:, :, None]]
    weights = t.rest_coef[:, :, None] * t.rest_coef[:, None, :]
    return ratio * (weights * gathered).sum(axis=0)


def check_mc_route(d: int, m: int, k: int) -> int:
    """Raise ResourceLimitError, before anything is allocated, unless
    mc_reduce_coords at (d, M, k) fits DEFAULT_DIM_CAP; else return its
    draws per chunk.  Side d^k is checked against the cap; the bytes of the
    state, five d^k x d^k arrays (the two sums, a chunk's two products and
    a reference) and one chunk (64 bytes, four complex copies, for each
    entry of a draw's k-user ket and of its d x s_M table of logarithms in
    power_coords), against the byte budget that goes with it.
    """
    _check_k(k, m)
    side = d ** k
    _check_cap(side, DEFAULT_DIM_CAP, f"{k}-user Monte Carlo estimate")
    s_m = sym_dim(d, m)
    per_draw = side + d * s_m
    chunk = max(1, MC_CHUNK_ENTRIES // per_draw)
    nbytes = 16 * (s_m * s_m + 5 * side * side) + 64 * chunk * per_draw
    _check_bytes(nbytes, DEFAULT_DIM_CAP, f"Monte Carlo estimate of {k} users")
    return chunk


def mc_reduce_coords(rho: np.ndarray, d: int, m: int, k: int, samples: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo (estimate, stderr) of the k-user mixture of an s_M x s_M
    occupation-coordinate state: two d^k x d^k arrays, componentwise.

    The draws are the first `samples` rows of haar_kets from one generator,
    default_rng((seed, 1)), taken chunk by chunk in order, so draw j does
    not depend on the chunk size.  Each is weighted by
    s_M <psi^M|rho|psi^M> with <n|psi^M> = sqrt(mult(n)) prod_i psi_i^{n_i}.
    Standard errors combine the real and imaginary spreads in quadrature.
    Same (seed, samples) reproduces both arrays bit for bit.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, "
                         f"got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    chunk = check_mc_route(d, m, k)
    rng = np.random.default_rng((seed, 1))
    acc = np.zeros((d ** k, d ** k), dtype=complex)  # sum of the draws x
    acc_sq = np.zeros((d ** k, d ** k))  # sum of |x|^2
    for lo in range(0, samples, chunk):
        u = haar_kets(rng, min(chunk, samples - lo), d)
        c = power_coords(u, m)
        w = sym_dim(d, m) * np.einsum("bs,bs->b", c.conj(), c @ rho.T).real
        # x = w u_k u_k^dagger, summed over the chunk as matrix products
        u_k = _kron_power(u, k)
        acc += (w[:, None] * u_k).T @ u_k.conj()
        p = np.abs(u_k) ** 2
        acc_sq += (w[:, None] ** 2 * p).T @ p
    mean = acc / samples
    var = np.maximum(acc_sq / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / samples)


@dataclass(frozen=True)
class OccupationState:
    """M users in occupation coordinates of Sym^M(C^d): an s x s matrix.

    When `paired`, each factor is a (user, ancilla) pair and `coords` is
    the pure pair purification as an s-vector in Sym^M(C^{d^2}); the
    kernels take it as a ket.  k-user results come from the kernel's
    s_k x s_k output by one gather through _trace_table, which traces the
    ancilla halves out on the way (unpaired, there are none to trace), and
    are hermitized at side d^k.
    """

    coords: np.ndarray
    d: int
    m: int
    paired: bool = False

    def marginal(self, k: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
        """The k-user marginal Tr_{M-k} rho, on (C^d)^{tensor k}."""
        return self._users(marginal_coords, k, cap)

    def reduction(self, k: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
        """The exact k-user classical mixture, on (C^d)^{tensor k}."""
        return self._users(reduce_coords, k, cap)

    def _users(self, kernel, k: int, cap: int) -> DenseOperator:
        _check_k(k, self.m)
        # the result's side and bytes, before the kernel gathers
        _check_cap(self.d ** k, cap, f"{k}-user result")
        _check_bytes(users_bytes(self.d, k, self.paired), cap,
                     f"{k}-user result")
        pos, weight = _trace_table(self.d, k, self.paired)
        q = self.d * self.d if self.paired else self.d
        x = kernel(self.coords, q, self.m, k).ravel()[pos]
        x *= weight
        x = x.sum(axis=-1)
        x += x.conj().T
        x *= 0.5
        return DenseOperator(x, (self.d,) * k)


@lru_cache(maxsize=32)
def _trace_table(d: int, k: int, paired: bool) -> tuple[np.ndarray, np.ndarray]:
    """Tr_anc V X V† as one gather from an s_k x s_k coordinate matrix X.

    V is the isometry of Sym^k(C^q), q = d^2 paired, else d.  Entry
    [i, i', a] of `pos` is the flat index in X of the columns that V gives
    rows (i, a) and (i', a), for system strings i, i' and ancilla string a
    (the pair digits interleave, system first); `weight` holds the product
    of their weights, so the result is (weight * X.flat[pos]).sum(-1).
    Unpaired, the ancilla axis has length 1 and the result is V X V†.
    """
    q = d * d if paired else d
    flat = np.arange(q ** k)
    if paired:
        flat = flat.reshape((d,) * (2 * k)).transpose(
            [*range(0, 2 * k, 2), *range(1, 2 * k, 2)])
    flat = flat.reshape(d ** k, -1)
    v = _index_map(q, k)
    col, w = v.col[flat], v.weight[flat]
    pos = col[:, None, :] * sym_dim(q, k) + col[None, :, :]
    weight = w[:, None, :] * w[None, :, :]
    pos.setflags(write=False)
    weight.setflags(write=False)
    return pos, weight


class SupportError(ValueError):
    """rho leaves the symmetric subspace: `residual` = max |rho - P rho P|."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"rho_out leaves the symmetric subspace (residual {residual:.3e}); "
            "the sampled mixture only reproduces symmetric-support marginals")


def symmetric_state(rho: DenseOperator,
                    cap: int = DEFAULT_DIM_CAP) -> OccupationState:
    """V† rho V, after checking that rho lies in the symmetric subspace."""
    d, m = _uniform_square(rho, "rho_out")
    check_dense_route(d, m, cap=cap)
    v = index_map(d, m, cap)
    coords = v.compress(v.compress(rho.entries, 0), 1)
    resid = float(np.max(np.abs(rho.entries - v.expand(v.expand(coords, 0), 1))))
    if resid > SUPPORT_TOL:
        raise SupportError(resid)
    return OccupationState(coords, d, m)


def induced_povm_element(ch: QuantumChannel, psi: DenseOperator) -> DenseOperator:
    """Input-side POVM density at psi: the adjoint image of s_M |psi^M><psi^M|.

    Integrated over Haar measure these resolve the identity on the input,
    so they define the measurement whose outcomes drive a measure-and-prepare
    imitation of the channel.  Only tests call it, as the Choi-matrix
    oracle for that measurement: positive elements whose Haar average is
    the identity.
    """
    if len(set(ch.out_factors)) > 1:
        raise ValueError(f"output factors {ch.out_factors} are not identical")
    d = ch.out_factors[0]
    m = len(ch.out_factors)
    u = _kron_power(_plain_ket(psi, d), m)
    obs = sym_dim(d, m) * np.outer(u, u.conj())
    return adjoint_apply(ch, DenseOperator(obs, ch.out_factors)).hermitize()


def purify_perm_invariant(rho: DenseOperator,
                          tol: float = PERM_INVARIANCE_TOL) -> DenseOperator:
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
        if resid > tol:
            raise ValueError(
                f"rho is not permutation invariant within {tol} "
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
