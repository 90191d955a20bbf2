"""Totally symmetric subspace machinery and Haar sampling.

The symmetric subspace of (C^d)^{tensor n} is spanned by occupation-number
vectors; the isometry into it gives projectors and partial traces that never
touch the n! permutations explicitly.  States inside the subspace can also be
kept as sym_dim(d, n)-sided matrices in these coordinates: split_table holds
the coefficients that split |m>_n into k-factor and (n-k)-factor parts, and
power_coords gives the coordinates of a product vector u^{tensor n} (see
Harrow, "The church of the symmetric subspace", arXiv:1308.6595).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DEFAULT_DIM_CAP, DenseOperator, _check_bytes, _check_cap, ket

_INT64_MAX = 2 ** 63 - 1


def sym_dim(d: int, n: int) -> int:
    """Dimension binom(d+n-1, n) of the totally symmetric subspace."""
    if d < 1:
        raise ValueError(f"local dimension must be >= 1, got {d}")
    if n < 0:
        raise ValueError(f"copy count must be >= 0, got {n}")
    v = math.comb(d + n - 1, n)
    if v > _INT64_MAX:
        raise OverflowError(
            f"sym_dim({d}, {n}) = {v} exceeds the 64-bit integer range"
        )
    return v


def _occupations(d: int, n: int):
    """All (n_1..n_d) with sum n, lexicographically descending."""
    if d == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _occupations(d - 1, n - first):
            yield (first,) + rest


@dataclass(frozen=True)
class SymBasis:
    """Occupation-number basis of the symmetric subspace of (C^d)^{tensor n}.

    `isometry` is the d^n x sym_dim(d, n) matrix V whose columns are the
    normalized symmetric basis vectors; V†V = 1 and VV† is the symmetrizer.
    Column c corresponds to occupations[c].
    """

    d: int
    n: int
    occupations: tuple[tuple[int, ...], ...]
    isometry: DenseOperator


@lru_cache(maxsize=128)
def _occupation_table(d: int, n: int):
    """Occupations in basis order: the tuples, an (s, d) array, and {tuple: index}."""
    occs = tuple(_occupations(d, n))
    arr = np.array(occs, dtype=np.int64).reshape(len(occs), d)
    return occs, arr, {occ: c for c, occ in enumerate(occs)}


@lru_cache(maxsize=128)
def _sym_basis_arrays(d: int, n: int):
    occs, _, col_of = _occupation_table(d, n)
    full = d ** n
    mat = np.zeros((full, len(occs)))
    # digit j of flat index x is the state of factor j (factor 0 most significant)
    cols = np.zeros(full, dtype=int)
    for x in range(full):
        counts = [0] * d
        rem = x
        for _ in range(n):
            rem, i = divmod(rem, d)
            counts[i] += 1
        cols[x] = col_of[tuple(counts)]
    mat[np.arange(full), cols] = 1.0
    # column sums are the multinomial multiplicities n!/(prod n_i!)
    mat /= np.sqrt(mat.sum(axis=0, keepdims=True))
    return occs, mat


def sym_basis(d: int, n: int, cap: int = DEFAULT_DIM_CAP) -> SymBasis:
    s = sym_dim(d, n)  # validates d, n
    _check_cap(d ** n, cap, f"symmetric basis on {n} factors of dimension {d}")
    occs, mat = _sym_basis_arrays(d, n)
    assert len(occs) == s
    return SymBasis(d, n, occs, DenseOperator(mat, (d,) * n, (s,)))


def symmetrizer(d: int, n: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """Orthogonal projector onto the symmetric subspace of (C^d)^{tensor n}."""
    v = sym_basis(d, n, cap=cap).isometry
    return DenseOperator(v.entries @ v.entries.conj().T, (d,) * n)


def embed_coords(x: np.ndarray, d: int, n: int,
                 cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """V x V†: an operator given in occupation coordinates, on (C^d)^{tensor n}."""
    v = sym_basis(d, n, cap=cap).isometry.entries
    return DenseOperator(v @ x @ v.conj().T, (d,) * n)


def _multinomial(occ) -> int:
    out, total = 1, 0
    for x in occ:
        total += x
        out *= math.comb(total, x)
    return out


@lru_cache(maxsize=128)
def _half_log_multiplicities(d: int, n: int) -> np.ndarray:
    occs, _, _ = _occupation_table(d, n)
    return np.array([0.5 * math.log(_multinomial(occ)) for occ in occs])


def power_coords(u: np.ndarray, n: int) -> np.ndarray:
    """Occupation coordinates <m|u^{tensor n}> = sqrt(mult(m)) prod_i u_i^{m_i}.

    `u` is one vector of length d or a stack of them, shape (..., d); the
    result replaces the last axis by one of length sym_dim(d, n).  Evaluated
    through logarithms, so that neither the multinomials mult(m) nor the
    powers overflow or underflow at large n.
    """
    u = np.asarray(u, dtype=complex)
    _, occ, _ = _occupation_table(u.shape[-1], n)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = occ * np.log(np.abs(u))[..., None, :]
    logs = np.where(occ > 0, logs, 0.0)  # 0^0 = 1, even where u_i = 0
    log_abs = _half_log_multiplicities(u.shape[-1], n) + logs.sum(axis=-1)
    return np.exp(log_abs) * np.exp(1j * (np.angle(u) @ occ.T))


@dataclass(frozen=True)
class SplitTable:
    """Coefficients of |m>_n = sum_a c(m;a) |a>_k |m-a>_{n-k}.

    c(m;a)^2 = prod_i binom(m_i, a_i) / binom(n, k), so sum_a c(m;a)^2 = 1.
    The same triples (m = a + b) come in two layouts: `whole[a, b]` is the
    index of a + b in Sym^n, with coefficient `whole_coef[a, b]`; `rest[m, a]`
    is the index of m - a in Sym^{n-k}, with coefficient `rest_coef[m, a]`,
    both zero where a does not fit inside m.
    """

    whole: np.ndarray
    whole_coef: np.ndarray
    rest: np.ndarray
    rest_coef: np.ndarray


@lru_cache(maxsize=64)
def split_table(d: int, n: int, k: int) -> SplitTable:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n={n}, got k={k}")
    occ_k, _, _ = _occupation_table(d, k)
    occ_rest, _, _ = _occupation_table(d, n - k)
    _, _, index_n = _occupation_table(d, n)
    total = math.comb(n, k)
    whole = np.empty((len(occ_k), len(occ_rest)), dtype=np.int64)
    coef = np.empty(whole.shape)
    for i, a in enumerate(occ_k):
        for j, b in enumerate(occ_rest):
            m = tuple(x + y for x, y in zip(a, b))
            whole[i, j] = index_n[m]
            # exact integer ratio, correctly rounded by true division
            hits = math.prod(math.comb(x, y) for x, y in zip(m, a))
            coef[i, j] = math.sqrt(hits / total)
    rows = np.arange(len(occ_k))[:, None]
    rest = np.zeros((len(index_n), len(occ_k)), dtype=np.int64)
    rest_coef = np.zeros(rest.shape)
    rest[whole, rows] = np.arange(len(occ_rest))[None, :]
    rest_coef[whole, rows] = coef
    return SplitTable(whole, coef, rest, rest_coef)


def _sym(d: int, n: int) -> int:
    # sym_dim in plain Python integers, which cannot overflow
    return math.comb(d + n - 1, n)


def check_occupation_route(d: int, m: int, ks, n_in: int | None = None,
                           cap: int = DEFAULT_DIM_CAP) -> None:
    """Raise ResourceLimitError, before anything is allocated, when the
    occupation-coordinate route at (d, M, ks) would not fit the cap.

    The state is s_M x s_M, so s_M is checked against the side cap.  Each k
    gathers s_k^2 s_{M-k} entries for the marginal and s_k^2 s_{M+k} for
    the reduction, and embeds the results at side d^k; an N -> M cloner
    scatters s_N^2 s_{M-N} terms into the state.  Bytes are checked against
    the budget of one complex matrix at the side cap.
    """
    s_m = _sym(d, m)
    _check_cap(s_m, cap, f"occupation-coordinate state of {m} users")
    state = 3 * 16 * s_m * s_m  # the state, its validated copy, eigvalsh workspace
    gathers = [_sym(d, k) ** 2 * max(_sym(d, m - k), _sym(d, m + k)) for k in ks]
    if n_in is not None:
        gathers.append(_sym(d, n_in) ** 2 * _sym(d, m - n_in))
    for k in ks:
        _check_cap(d ** k, cap, f"{k}-user marginal")
    _check_bytes(state + 32 * max(gathers, default=0), cap,
                 f"occupation-coordinate route for {m} users")


@dataclass
class HaarSampler:
    """Reproducible source of Haar-random kets in C^d.

    Each draw is generated from SeedSequence((seed, 0, counter)), so a given
    (seed, counter) pair yields the same ket bit-for-bit no matter what was
    drawn before.
    """

    d: int
    seed: int
    counter: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"local dimension must be >= 1, got {self.d}")
        if min(self.seed, self.counter) < 0:
            raise ValueError("seed and counter must be non-negative")


def haar_sample(sampler: HaarSampler) -> DenseOperator:
    """Next Haar-random ket; advances sampler.counter by one."""
    rng = np.random.default_rng((sampler.seed, 0, sampler.counter))
    z = rng.standard_normal(sampler.d) + 1j * rng.standard_normal(sampler.d)
    sampler.counter += 1
    return ket(z / np.linalg.norm(z))
