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
s_M-vector.  An OccupationState holds either and embeds k-user results.
A dense state enters by one of two routes, picked by the caller:
symmetric_state(rho) for rho supported in the symmetric subspace (the
lemma), and purified_state(rho) for any permutation-invariant rho (the
theorem).  The latter pairs each user with an ancilla in |Phi> =
(sqrt(rho) tensor 1)|Omega>, which is symmetric in the d^2-dimensional
pairs; the same kernels then run at d^2 on |Phi> as a ket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import SUPPORT_TOL, QuantumChannel, _plain_ket, adjoint_apply
from .linalg import (
    DEFAULT_DIM_CAP,
    DenseOperator,
    _check_bytes,
    _check_cap,
    partial_trace,
    swap_residual,
)
from .symspace import (
    HaarSampler,
    _index_map,
    check_dense_route,
    embed_coords,
    haar_sample,
    index_map,
    power_coords,
    split_table,
    sym_dim,
)

PERM_INVARIANCE_TOL = 1e-8
# Monte Carlo draws are weighted and accumulated in chunks that hold about
# this many entries of the k-user projectors and occupation coordinates.
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
    state, the accumulators, one chunk (two complex d^k x d^k temporaries
    and two s_M-vectors per draw) and a d^k x d^k reference, against the
    byte budget that goes with it.
    """
    _check_k(k, m)
    side = d ** k
    _check_cap(side, DEFAULT_DIM_CAP, f"{k}-user Monte Carlo estimate")
    s_m = sym_dim(d, m)
    square = side * side
    chunk = max(1, MC_CHUNK_ENTRIES // (square + d * s_m))
    nbytes = 16 * (s_m * s_m + 3 * square) + 32 * chunk * (square + s_m)
    _check_bytes(nbytes, DEFAULT_DIM_CAP, f"Monte Carlo estimate of {k} users")
    return chunk


def mc_reduce_coords(rho: np.ndarray, d: int, m: int, k: int, samples: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo (estimate, stderr) of the k-user mixture of an s_M x s_M
    occupation-coordinate state: two d^k x d^k arrays, componentwise.

    Draw j is the Haar ket of HaarSampler(d, seed) at counter j, weighted by
    s_M <psi^M|rho|psi^M> with <n|psi^M> = sqrt(mult(n)) prod_i psi_i^{n_i}.
    Standard errors combine the real and imaginary spreads in quadrature.
    Same (seed, samples) reproduces both arrays bit for bit.
    """
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    chunk = check_mc_route(d, m, k)
    sampler = HaarSampler(d, seed)
    side = d ** k
    acc = np.zeros((4, side, side))  # sums of re, im, re^2, im^2
    for lo in range(0, samples, chunk):
        u = np.array([haar_sample(sampler).entries[:, 0]
                      for _ in range(min(chunk, samples - lo))])
        c = power_coords(u, m)
        w = sym_dim(d, m) * np.einsum("bs,bs->b", c.conj(), c @ rho.T).real
        u_k = _kron_power(u, k)
        x = w[:, None, None] * u_k[:, :, None] * u_k[:, None, :].conj()
        acc += np.stack([x.real.sum(0), x.imag.sum(0),
                         (x.real ** 2).sum(0), (x.imag ** 2).sum(0)])
    mean_re, mean_im = acc[0] / samples, acc[1] / samples
    var_re = np.maximum(acc[2] / samples - mean_re ** 2, 0.0)
    var_im = np.maximum(acc[3] / samples - mean_im ** 2, 0.0)
    return mean_re + 1j * mean_im, np.sqrt((var_re + var_im) / samples)


@dataclass(frozen=True)
class OccupationState:
    """M users in occupation coordinates of Sym^M(C^d): an s x s matrix.

    When `paired`, each factor is a (user, ancilla) pair and `coords` is
    the pure pair purification as an s-vector in Sym^M(C^{d^2}); the
    kernels take it as a ket, and k-user results have the ancilla halves
    traced out.
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
        q = self.d * self.d if self.paired else self.d
        index_map(q, k, cap)  # the side of the result, before the kernel gathers
        op = embed_coords(kernel(self.coords, q, self.m, k), q, k, cap=cap)
        if not self.paired:
            return op.hermitize()
        pairs = DenseOperator(op.entries, (self.d,) * (2 * k)).hermitize()
        return partial_trace(pairs, range(0, 2 * k, 2))


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
