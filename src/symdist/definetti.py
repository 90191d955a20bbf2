"""Classical approximations to the marginals of symmetrically distributed states.

A state rho on M identical factors that lives in (or is purified into) the
symmetric subspace induces a probability density over pure states,
w(psi) = s_M <psi^M| rho |psi^M>, and the mixture of psi^{tensor k} under
that density approximates rho's k-user marginal.  The exact mixture has a
closed form as a rescaled partial trace against the (M+k)-fold symmetrizer;
Monte Carlo over Haar samples recovers the same object statistically.

The kernels (marginal_coords, reduce_coords, mc_reduce_coords) take the state
as an s_M x s_M matrix in occupation coordinates and never form anything of
side d^M; an OccupationState holds such a matrix and embeds k-user results.

States that are permutation invariant without symmetric support go through
a pair purification first: |Phi> = (sqrt(rho) tensor 1)|Omega> regrouped so
each user's system sits next to its ancilla, which is symmetric in the
paired d^2-dimensional factors whenever rho is permutation invariant; the
same kernels then run at local dimension d^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import SUPPORT_TOL, QuantumChannel, adjoint_apply
from .linalg import (
    DEFAULT_DIM_CAP,
    DenseOperator,
    _check_cap,
    partial_trace,
    permute_factors,
    projector,
)
from .symspace import (
    HaarSampler,
    embed_coords,
    haar_sample,
    power_coords,
    split_table,
    sym_basis,
    sym_dim,
)

PERM_INVARIANCE_TOL = 1e-8
# Monte Carlo draws are weighted and accumulated in chunks that hold about
# this many entries of the k-user projectors and occupation coordinates.
MC_CHUNK_ENTRIES = 2 ** 20
MC_SUPPORT_HINT = "the sampled mixture only reproduces symmetric-support marginals"


@dataclass(frozen=True)
class ApproxReduction:
    """A k-user classical approximation together with how it was obtained."""

    k: int
    tilde_rho_k: DenseOperator
    method: str  # symmetric_exact | general_exact | monte_carlo
    sample_count: int | None = None
    seed: int | None = None
    stderr: np.ndarray | None = None


@dataclass(frozen=True)
class Purification:
    """Pair purification of a permutation-invariant state.

    phi is a ket on M factors of dimension d^2; pair j holds the original
    factor j and its ancilla, in that order, at the listed slot positions of
    the flattened 2M-factor picture.
    """

    phi: DenseOperator
    d: int
    M: int
    pair_slots: tuple[tuple[int, int], ...]


def _uniform_square(rho: DenseOperator, name: str) -> tuple[int, int]:
    if not rho.is_square:
        raise ValueError(f"{name} must be a square operator")
    dims = rho.factor_dims
    if not dims:
        raise ValueError(f"{name} must have at least one factor")
    if len(set(dims)) > 1:
        raise ValueError(f"{name} factors must share one dimension, got {dims}")
    return dims[0], len(dims)


def _unit_ket(psi: DenseOperator, d: int) -> np.ndarray:
    if psi.shape != (d, 1):
        raise ValueError(f"expected a ket of dimension {d}, got shape {psi.shape}")
    u = psi.entries[:, 0]
    nrm = float(np.linalg.norm(u))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"ket has norm {nrm}, expected 1")
    return u


def _kron_power(u: np.ndarray, n: int) -> np.ndarray:
    """u^{tensor n} for one vector or a stack of them (shape (..., d))."""
    out = np.ones(u.shape[:-1] + (1,), dtype=complex)
    for _ in range(n):
        out = (out[..., :, None] * u[..., None, :]).reshape(u.shape[:-1] + (-1,))
    return out


def marginal_coords(rho: np.ndarray, d: int, m: int, k: int) -> np.ndarray:
    """Tr_{M-k} of an s_M x s_M occupation-coordinate state, as s_k x s_k.

    rho_k[a, a'] = sum_b c(a+b; a) c(a'+b; a') rho[a+b, a'+b].
    """
    t = split_table(d, m, k)
    gathered = rho[t.whole[:, None, :], t.whole[None, :, :]]
    weights = t.whole_coef[:, None, :] * t.whole_coef[None, :, :]
    return (weights * gathered).sum(axis=-1)


def reduce_coords(rho: np.ndarray, d: int, m: int, k: int) -> np.ndarray:
    """(s_M/s_{M+k}) Tr_M[(rho tensor 1^k) P_{M+k}] for an s_M x s_M
    occupation-coordinate state, as s_k x s_k.

    tilde[a, a'] = (s_M/s_{M+k}) sum_m c(m;a) c(m;a') rho[m-a', m-a].
    """
    t = split_table(d, m + k, k)
    gathered = rho[t.rest[:, None, :], t.rest[:, :, None]]
    weights = t.rest_coef[:, :, None] * t.rest_coef[:, None, :]
    return (sym_dim(d, m) / sym_dim(d, m + k)) * (weights * gathered).sum(axis=0)


def mc_reduce_coords(rho: np.ndarray, d: int, m: int, k: int, samples: int,
                     seed: int) -> ApproxReduction:
    """Monte Carlo estimate of the k-user mixture of an s_M x s_M
    occupation-coordinate state, with componentwise stderr.

    Draw j is the Haar ket of HaarSampler(d, seed) at counter j, weighted by
    s_M <psi^M|rho|psi^M> with <n|psi^M> = sqrt(mult(n)) prod_i psi_i^{n_i}.
    Standard errors combine the real and imaginary spreads in quadrature.
    """
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    sampler = HaarSampler(d, seed)
    side = d ** k
    chunk = max(1, MC_CHUNK_ENTRIES // (side * side + d * len(rho)))
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
    return ApproxReduction(
        k,
        DenseOperator(mean_re + 1j * mean_im, (d,) * k),
        "monte_carlo",
        sample_count=samples,
        seed=seed,
        stderr=np.sqrt((var_re + var_im) / samples),
    )


def _check_dense_cap(d: int, m: int, k: int, paired: bool, cap: int) -> None:
    name, unit = ("purified", "pair factors") if paired else ("symmetric", "factors")
    _check_cap((d * d if paired else d) ** (m + k), cap,
               f"{name} reduction on {m + k} {unit}")


@dataclass(frozen=True)
class OccupationState:
    """M users as an s x s matrix in occupation coordinates of Sym^M(C^d),
    or of Sym^M(C^{d^2}) when `paired`: each factor is then a (user, ancilla)
    pair, and k-user results have the ancilla halves traced out.  A state
    compressed from a dense operator keeps the side cap of the dense
    (M+k)-factor reduction formula, so dense callers meet the same limits.
    """

    coords: np.ndarray
    d: int
    m: int
    paired: bool = False
    from_dense: bool = False

    def marginal(self, k: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
        return self._users(marginal_coords(self.coords, self._local, self.m, k),
                           k, cap)

    def reduction(self, k: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
        if self.from_dense:
            _check_dense_cap(self.d, self.m, k, self.paired, cap)
        return self._users(reduce_coords(self.coords, self._local, self.m, k),
                           k, cap)

    @property
    def _local(self) -> int:
        return self.d * self.d if self.paired else self.d

    def _users(self, x: np.ndarray, k: int, cap: int) -> DenseOperator:
        op = embed_coords(x, self._local, k, cap=cap)
        if not self.paired:
            return op.hermitize()
        pairs = DenseOperator(op.entries, (self.d,) * (2 * k)).hermitize()
        return partial_trace(pairs, range(0, 2 * k, 2))


def symmetric_state(rho: DenseOperator, hint: str) -> OccupationState:
    """V† rho V, after checking that rho lies in the symmetric subspace."""
    d, m = _uniform_square(rho, "rho_out")
    v = sym_basis(d, m).isometry.entries
    coords = v.conj().T @ rho.entries @ v
    resid = float(np.max(np.abs(rho.entries - v @ coords @ v.conj().T)))
    if resid > SUPPORT_TOL:
        raise ValueError(
            f"rho_out leaves the symmetric subspace (residual {resid:.3e}); {hint}"
        )
    return OccupationState(coords, d, m, from_dense=True)


def definetti_weight(rho_out: DenseOperator, psi: DenseOperator) -> float:
    """Density s_M <psi^M| rho |psi^M> of psi under the induced distribution."""
    d, m = _uniform_square(rho_out, "rho_out")
    c = power_coords(_unit_ket(psi, d), m)
    v = sym_basis(d, m).isometry.entries
    # psi^M lies in the symmetric subspace, so only V† rho V enters
    coords = v.conj().T @ rho_out.entries @ v
    w = sym_dim(d, m) * float(np.real(np.vdot(c, coords @ c)))
    if w < -1e-9:
        raise ValueError(f"negative weight {w:.3e}; rho_out is not PSD")
    return max(w, 0.0)


def _scalar_reduction(method: str, **extra) -> ApproxReduction:
    one = DenseOperator(np.array([[1.0]]), ())
    return ApproxReduction(0, one, method, **extra)


def approx_reduced_symmetric(rho_out: DenseOperator, k: int,
                             cap: int = DEFAULT_DIM_CAP) -> ApproxReduction:
    """Exact k-user mixture for a state supported in the symmetric subspace.

    (s_M / s_{M+k}) Tr_{first M}[(rho tensor 1^k) P_{M+k}], computed by
    reduce_coords on V_M† rho V_M, embedded at side d^k.
    """
    d, m = _uniform_square(rho_out, "rho_out")
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= M={m}, got k={k}")
    state = symmetric_state(rho_out, "use approx_reduced_general")
    if k == 0:
        return _scalar_reduction("symmetric_exact")
    return ApproxReduction(k, state.reduction(k, cap), "symmetric_exact")


def induced_povm_element(ch: QuantumChannel, psi: DenseOperator) -> DenseOperator:
    """Input-side POVM density at psi: the adjoint image of s_M |psi^M><psi^M|.

    Integrated over Haar measure these resolve the identity on the input,
    so they define the measurement whose outcomes drive a measure-and-prepare
    imitation of the channel.
    """
    if len(set(ch.out_factors)) > 1:
        raise ValueError(f"output factors {ch.out_factors} are not identical")
    d = ch.out_factors[0]
    m = len(ch.out_factors)
    u = _kron_power(_unit_ket(psi, d), m)
    obs = sym_dim(d, m) * np.outer(u, u.conj())
    return adjoint_apply(ch, DenseOperator(obs, ch.out_factors)).hermitize()


def purify_perm_invariant(rho: DenseOperator,
                          tol: float = PERM_INVARIANCE_TOL) -> Purification:
    """Purify with one ancilla per factor, keeping permutation symmetry.

    |Phi> = (sqrt(rho) tensor 1)|Omega| regrouped into M pairs (system_j,
    ancilla_j); permuting the pairs jointly leaves |Phi> invariant whenever
    rho is permutation invariant, so |Phi> lies in the symmetric subspace of
    the d^2-dimensional pair factors.
    """
    d, m = _uniform_square(rho, "rho")
    for t in range(m - 1):
        perm = list(range(m))
        perm[t], perm[t + 1] = perm[t + 1], perm[t]
        swapped = permute_factors(rho, perm, d)
        resid = float(np.max(np.abs(swapped.entries - rho.entries)))
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
    phi = phi / nrm
    return Purification(
        phi=DenseOperator(phi, (d * d,) * m, ()),
        d=d,
        M=m,
        pair_slots=tuple((2 * j, 2 * j + 1) for j in range(m)),
    )


def purification_marginal(pur: Purification) -> DenseOperator:
    """Trace the ancilla halves back out; equals the purified state up to roundoff."""
    full = projector(DenseOperator(pur.phi.entries, (pur.d,) * (2 * pur.M), ()))
    return partial_trace(full, [2 * j for j in range(pur.M)])


def purified_state(rho: DenseOperator,
                   cap: int = DEFAULT_DIM_CAP) -> OccupationState:
    """The pair purification of rho in occupation coordinates of
    Sym^M(C^{d^2}).  The support check bounds its weight outside that
    subspace, not an entry: sqrt(rho) lifts roundoff eigenvalues to ~1e-8."""
    pur = purify_perm_invariant(rho)
    v = sym_basis(pur.d ** 2, pur.M, cap=cap).isometry.entries
    phi = pur.phi.entries[:, 0]
    c = v.conj().T @ phi
    resid = float(np.linalg.norm(phi - v @ c) ** 2)
    if resid > SUPPORT_TOL:
        raise ValueError(
            f"pair purification has weight {resid:.3e} outside the symmetric "
            "subspace of the pairs"
        )
    return OccupationState(np.outer(c, c.conj()), pur.d, pur.M, paired=True,
                           from_dense=True)


def approx_reduced_general(rho_out: DenseOperator, k: int,
                           cap: int = DEFAULT_DIM_CAP) -> ApproxReduction:
    """Exact k-user mixture for any permutation-invariant state.

    reduce_coords at local dimension d^2 on purified_state(rho), embedded
    at side d^{2k} with the ancilla half of each pair traced out.
    """
    d, m = _uniform_square(rho_out, "rho_out")
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= M={m}, got k={k}")
    if k == 0:
        return _scalar_reduction("general_exact")
    _check_dense_cap(d, m, k, True, cap)
    tilde = purified_state(rho_out, cap).reduction(k, cap)
    return ApproxReduction(k, tilde, "general_exact")


def mc_approx_reduced(rho_out: DenseOperator, k: int, samples: int,
                      seed: int) -> ApproxReduction:
    """Monte Carlo estimate of the k-user mixture, with componentwise stderr.

    Draws Haar kets, weights psi^{tensor k} projectors by the induced density
    and averages (mc_reduce_coords on V_M† rho V_M).  Same (seed, samples)
    reproduces the estimate bit-for-bit.
    """
    d, m = _uniform_square(rho_out, "rho_out")
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= M={m}, got k={k}")
    state = symmetric_state(rho_out, MC_SUPPORT_HINT)
    return mc_reduce_coords(state.coords, d, m, k, samples, seed)
