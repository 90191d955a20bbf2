"""Totally symmetric subspace machinery and Haar sampling.

The symmetric subspace of (C^d)^{tensor n} is spanned by occupation-number
vectors; the isometry into it gives projectors and partial traces that never
touch the n! permutations explicitly.  The isometry has one nonzero per row,
so index_map keeps it as the column of each flat index plus a weight and
applies it by gathers and grouped sums; sym_basis expands the same map into
the dense matrix for the Choi-matrix oracle and tests.  States inside the
subspace can also be kept as sym_dim(d, n)-sided matrices in these
coordinates: split_table holds the coefficients that split |m>_n into
k-factor and (n-k)-factor parts, and power_coords gives the coordinates of
a product vector u^{tensor n} (see Harrow, "The church of the symmetric
subspace", arXiv:1308.6595).  haar_kets draws the Haar-random kets that
Monte Carlo weights by those coordinates, as rows taken in order from one
numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (DEFAULT_DIM_CAP, DenseOperator, ResourceLimitError,
                     _check_bytes, _check_cap)

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


@dataclass(frozen=True)
class IndexMap:
    """V = sym_basis(d, n).isometry without its zeros.

    Row x of V holds one nonzero, `weight[x]` = 1/sqrt(mult), in column
    `col[x]`, the position of x's occupation in the basis order.  So V z is
    a gather, V† x a grouped sum over the rows of each column (`order` lists
    the flat indices sorted by column, `starts` where each column's run
    begins), and neither needs the d^n x s_n matrix.  V is real, so
    V† = V^T.  `scale[c]` is the weight of column c.  Arrays are made
    read-only.
    """

    col: np.ndarray
    weight: np.ndarray
    scale: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        for a in vars(self).values():
            a.setflags(write=False)

    def compress(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """V† applied along `axis` of x (length d^n there, s_n after)."""
        sums = np.add.reduceat(np.take(x, self.order, axis=axis), self.starts,
                               axis=axis)
        return sums * _along(self.scale, axis, sums.ndim)

    def expand(self, z: np.ndarray, axis: int = 0) -> np.ndarray:
        """V applied along `axis` of z (length s_n there, d^n after)."""
        out = np.take(z, self.col, axis=axis)
        return out * _along(self.weight, axis, out.ndim)


def _along(v: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = -1
    return v.reshape(shape)


@lru_cache(maxsize=128)
def _index_map(d: int, n: int) -> IndexMap:
    # the digits of flat index x are the states of the factors; n_i counts
    # those equal to i, one digit at a time.  The column is the rank of x's
    # occupation in descending lexicographic order: occupations that agree
    # on entries < i and hold more at entry i come first,
    # C(rest - n_i + d-i-2, d-i-1) of them (compositions of rest - n_i - 1
    # or less into d - i - 1 parts)
    x = np.arange(d ** n)
    col = np.zeros(d ** n, dtype=np.int64)
    rest = np.full(d ** n, n)
    for i in range(d - 1):
        n_i = sum(x // d ** j % d == i for j in range(n))
        ahead = np.array([math.comb(u + d - i - 2, d - i - 1)
                          for u in range(n + 1)], dtype=np.int64)
        col += ahead[rest - n_i]
        rest -= n_i
    # column sizes are the multinomial multiplicities n!/(prod n_i!)
    mult = np.bincount(col, minlength=sym_dim(d, n))
    scale = 1.0 / np.sqrt(mult)
    order = np.argsort(col, kind="stable")
    starts = np.concatenate(([0], np.cumsum(mult)[:-1]))
    return IndexMap(col, scale[col], scale, order, starts)


def index_map(d: int, n: int, cap: int = DEFAULT_DIM_CAP) -> IndexMap:
    """The isometry of sym_basis(d, n) as an index map, under the same cap."""
    sym_dim(d, n)  # validates d, n
    _check_cap(d ** n, cap, f"symmetric basis on {n} factors of dimension {d}")
    return _index_map(d, n)


def sym_basis(d: int, n: int, cap: int = DEFAULT_DIM_CAP) -> SymBasis:
    """The isometry as a dense d^n x s_n matrix: only the Choi-matrix oracle
    (channels.universal_cloner) and tests use it; runs use index_map."""
    v = index_map(d, n, cap)  # validates d, n and the cap
    occs, _, _ = _occupation_table(d, n)
    mat = np.zeros((d ** n, len(occs)))
    mat[np.arange(d ** n), v.col] = v.weight
    return SymBasis(d, n, occs, DenseOperator(mat, (d,) * n, (len(occs),)))


def symmetrizer(d: int, n: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """Orthogonal projector onto the symmetric subspace of (C^d)^{tensor n}."""
    index_map(d, n, cap)  # the cap, before the s_n x s_n identity is built
    return embed_coords(np.eye(sym_dim(d, n)), d, n, cap)


def embed_coords(x: np.ndarray, d: int, n: int,
                 cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """V x V†: an operator given in occupation coordinates, on (C^d)^{tensor n}."""
    v = index_map(d, n, cap)
    return DenseOperator(v.expand(v.expand(x, 0), 1), (d,) * n)


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


def users_bytes(d: int, k: int, paired: bool = False) -> int:
    """Peak bytes of a run's k-user stage beside the kernel gathers: the
    kernel's s_k x s_k output (q = d^2 paired, else d); the cached gather
    table (16 bytes an entry) and the complex gathered values, d^3k entries
    each paired and d^2k unpaired; and six complex d^k x d^k matrices for
    the two results and their trace distance."""
    q = d * d if paired else d
    return (16 * _sym(q, k) ** 2 + 32 * d ** (3 * k if paired else 2 * k)
            + 96 * d ** (2 * k))


def check_occupation_route(d: int, m: int, ks, n_in: int | None = None,
                           cap: int = DEFAULT_DIM_CAP) -> int:
    """Raise ResourceLimitError, before anything is allocated, when the
    occupation-coordinate route at (d, M, ks) would not fit the cap; else
    return its estimated peak bytes.

    The state is s_M x s_M, so s_M is checked against the side cap, and
    each k-user result's side d^k too.  Each k gathers s_k^2 s_{M-k} entries
    for the marginal and s_k^2 s_{M+k} for the reduction, and the result
    takes users_bytes; an N -> M cloner scatters s_N^2 s_{M-N} terms into
    the state.  Bytes are checked against the budget of one complex matrix
    at the side cap.
    """
    s_m = _sym(d, m)
    _check_cap(s_m, cap, f"occupation-coordinate state of {m} users")
    state = 3 * 16 * s_m * s_m  # the state, its validated copy, eigvalsh workspace
    gathers = [_sym(d, k) ** 2 * max(_sym(d, m - k), _sym(d, m + k)) for k in ks]
    if n_in is not None:
        gathers.append(_sym(d, n_in) ** 2 * _sym(d, m - n_in))
    for k in ks:
        _check_cap(d ** k, cap, f"{k}-user marginal")
    users = max((users_bytes(d, k) for k in ks), default=0)
    nbytes = state + 32 * max(gathers, default=0) + users
    _check_bytes(nbytes, cap, f"occupation-coordinate route for {m} users")
    return nbytes


def _eigh_bytes(side: int) -> int:
    return 48 * side * side + 128 * side  # zheevd's copy and workspaces


def check_dense_route(d: int, m: int, ks=(), paired: bool = False,
                      cap: int = DEFAULT_DIM_CAP) -> int:
    """Raise ResourceLimitError, before anything is allocated, when the dense
    route at (d, M, ks) would not fit the byte budget of the cap; else return
    its estimated peak bytes: the d^M x d^M complex output rho (r bytes)
    built and compressed in 3.5 r, or pair-purified in 7 r plus eigh's
    workspace (not numpy arrays); then, beside rho, each k's gathers (s_k
    s_{M+k} entries of the state at q = d, or d^2 paired, s_k times as many
    unpaired), the users_bytes of its result, and the cached index maps (64
    bytes an entry to build, 24 kept) and split tables; and 1 MiB for what
    does not grow with rho.
    """
    if d > 1 and m > cap.bit_length():  # d^M > cap, too large to compute
        raise ResourceLimitError(f"{m}-user dense output would have side "
                                 f"{d}^{m}, exceeding the cap {cap}")
    rho, q = 16 * d ** (2 * m), d * d if paired else d
    gathers = [_sym(q, k) * _sym(q, m + k) * (1 if paired else _sym(q, k))
               for k in ks]
    loop = rho + 24 * q ** m + 112 * sum(gathers) + max(
        (users_bytes(d, k, paired) for k in ks), default=0)
    nbytes = (2 ** 20 + 64 * d ** m + paired * _eigh_bytes(d ** m)
              + max(7 * rho if paired else 7 * rho // 2, loop))
    _check_bytes(nbytes, cap, f"dense route for {m} users")
    return nbytes


def haar_kets(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n Haar-random unit kets in C^d, as the rows of an (n, d) array.

    Row j takes the next 2d normals of `rng`: d real parts, then d imaginary
    parts.  numpy fills arrays in order, so n rows drawn at once equal the
    same n drawn in any split into consecutive calls.
    """
    x = rng.standard_normal((n, 2, d))
    z = x[:, 0] + 1j * x[:, 1]
    return z / np.linalg.norm(z, axis=1, keepdims=True)
