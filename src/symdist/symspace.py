"""Totally symmetric subspace machinery and Haar sampling.

The symmetric subspace of (C^d)^{tensor n} is spanned by occupation-number
vectors m; _occupation_table lists them in basis order and _rank maps them
back to it, both by array arithmetic.  The isometry has one nonzero per
row, so index_map keeps it as the column (_rank of the digit counts) of
each flat index plus a weight and applies it by gathers and grouped sums;
its expand of the identity is the dense matrix, where the Choi oracle
needs one.  States inside the subspace can also be kept as
sym_dim(d, n)-sided matrices in these coordinates: split_table holds the
coefficients, exact ratios of integer binomials, that split |m>_n into k-
and (n-k)-factor parts, and power_coords the coordinates of a product
vector u^{tensor n} (Harrow, "The church of the symmetric subspace",
arXiv:1308.6595).
haar_kets draws the Haar-random kets that Monte Carlo weights by those
coordinates, as rows taken in order from one numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .linalg import (DEFAULT_DIM_CAP, DenseOperator, ResourceLimitError,
                     _check_bytes, _check_cap)


def sym_dim(d: int, n: int) -> int:
    """Dimension binom(d+n-1, n) of the totally symmetric subspace."""
    if d < 1:
        raise ValueError(f"local dimension must be >= 1, got {d}")
    if n < 0:
        raise ValueError(f"copy count must be >= 0, got {n}")
    v = math.comb(d + n - 1, n)
    if v >= 2 ** 63:
        raise OverflowError(
            f"sym_dim({d}, {n}) = {v} exceeds the 64-bit integer range"
        )
    return v


@lru_cache(maxsize=128)
def _occupation_table(d: int, n: int) -> np.ndarray:
    """Occupations of total n as rows, in basis order (descending lexicographic):
    built entry by entry, each prefix that leaves t followed by t, t-1, ..., 0."""
    cols, left = ([np.arange(n, -1, -1)], np.arange(n + 1)) if d > 1 else ([], np.array([n]))
    for _ in range(d - 2):
        counts = left + 1
        ends = np.add.accumulate(counts)
        runs = (ends - 1).repeat(counts) - np.arange(ends[-1])
        cols = [c.repeat(counts) for c in cols] + [runs]
        left = left.repeat(counts) - runs
    occ = np.array(cols + [left]).T
    occ.setflags(write=False)
    return occ


def _rank(occ, d: int, n: int, out: np.ndarray) -> np.ndarray:
    """Add to `out` the basis-order column of occupations of total n, given as
    their entry arrays (entry d-1 unread).  Those agreeing on entries < i, with
    more at entry i, come first: C(t + r - 1, r) of them for t left after entry
    i and r = d-1-i entries after it, which row r of `ahead` holds."""
    ahead = np.zeros((d, n + 1), dtype=np.int64)
    ahead[0] = 1
    for r in range(1, d):
        np.add.accumulate(ahead[r - 1, 1:], out=ahead[r, 1:])
    left = n
    for row, entry in zip(ahead[:0:-1], occ):  # rows r = d-1, ..., 1
        left = left - entry
        out += row[left]
    return out


@dataclass(frozen=True)
class IndexMap:
    """The isometry V of Sym^n(C^d) into (C^d)^{tensor n}, without its zeros:
    its columns are the normalized symmetric basis vectors, so V†V = 1 and
    VV† is the symmetrizer.

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
    # entry i of the occupation of flat index x counts its digits equal to i:
    # the outer sum of n indicators of i (0 if n = 0), one entry at a time
    entries = (reduce(np.add.outer, [e] * n or [0 * e[:1]]).ravel()
               for e in np.eye(d, dtype=np.int64))
    col = _rank(entries, d, n, np.zeros(d ** n, dtype=np.int64))
    # column sizes are the multinomial multiplicities n!/(prod n_i!)
    mult = np.bincount(col, minlength=sym_dim(d, n))
    scale = 1.0 / np.sqrt(mult)
    order = col.argsort(kind="stable")
    starts = np.add.accumulate(mult) - mult
    return IndexMap(col, scale[col], scale, order, starts)


def index_map(d: int, n: int, cap: int = DEFAULT_DIM_CAP) -> IndexMap:
    """The isometry V of Sym^n(C^d) as an index map; refuses d^n > cap."""
    sym_dim(d, n)  # validates d, n
    _check_cap(d ** n, cap, f"symmetric basis on {n} factors of dimension {d}")
    return _index_map(d, n)


def symmetrizer(d: int, n: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """Orthogonal projector onto the symmetric subspace of (C^d)^{tensor n}:
    a dense oracle for tests; runs keep it as the identity on Sym^n."""
    index_map(d, n, cap)  # the cap, before the s_n x s_n identity is built
    return embed_coords(np.eye(sym_dim(d, n)), d, n, cap)


def embed_coords(x: np.ndarray, d: int, n: int,
                 cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """V x V†: an operator given in occupation coordinates, on (C^d)^{tensor n}.

    No run path calls it: tests use it as the dense oracle for results in
    occupation coordinates, such as OccupationState.users(k) and
    symmetrizer."""
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
    return np.array([0.5 * math.log(_multinomial(occ))
                     for occ in _occupation_table(d, n).tolist()])


def power_coords(u: np.ndarray, n: int) -> np.ndarray:
    """Occupation coordinates <m|u^{tensor n}> = sqrt(mult(m)) prod_i u_i^{m_i}.

    `u` is one vector of length d or a stack of them, shape (..., d); the
    result replaces the last axis by one of length sym_dim(d, n).  Evaluated
    through logarithms, so that neither the multinomials mult(m) nor the
    powers overflow or underflow at large n.
    """
    u = np.asarray(u, dtype=complex)
    occ = _occupation_table(u.shape[-1], n)
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
    both zero where a does not fit inside m.  Only reductions read the second
    layout, so it is scattered from the first when first read.
    """

    whole: np.ndarray
    whole_coef: np.ndarray
    rest = cached_property(lambda self: self._scatter(np.arange(self.whole.shape[1])))
    rest_coef = cached_property(lambda self: self._scatter(self.whole_coef))

    def _scatter(self, x: np.ndarray) -> np.ndarray:
        # whole[-1, -1] is the index of the last occupation, (0, ..., 0, n)
        out = np.zeros((self.whole[-1, -1] + 1, len(self.whole)), x.dtype)
        out[self.whole, np.arange(len(self.whole))[:, None]] = x
        return out


@lru_cache(maxsize=64)
def split_table(d: int, n: int, k: int) -> SplitTable:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n={n}, got k={k}")
    a = _occupation_table(d, k)
    m = a[:, None, :] + _occupation_table(d, n - k)  # m = a + b, for b in Sym^{n-k}
    whole = _rank(m.transpose(2, 0, 1), d, n, np.zeros(m.shape[:2], np.int64))
    # C(x, y) as Python integers, column y the partial sums of column y-1,
    # so each c(m;a)^2 is an exact ratio, correctly rounded by true division
    binom = np.zeros((n + 1, k + 1), dtype=object)
    binom[:, 0] = 1
    for y in range(1, k + 1):
        np.add.accumulate(binom[:-1, y - 1], out=binom[1:, y])
    hits = np.multiply.reduce(binom[m, a[:, None, :]], axis=-1)
    return SplitTable(whole, np.sqrt((hits / math.comb(n, k)).astype(float)))


def _sym(d: int, n: int) -> int:
    # sym_dim in plain Python integers, which cannot overflow
    return math.comb(d + n - 1, n)


def users_bytes(d: int, k: int) -> int:
    """Peak bytes of the pair route's k-user stage beside the kernel
    gathers: the kernel's s_k x s_k output at d^2; the transient of the
    ancilla trace, d^3k complex gathered values and their real coefficient
    products; and, d^2k entries each, the cached trace table (16 bytes an
    entry) and six complex matrices for the two results and their trace
    distance."""
    return 16 * _sym(d * d, k) ** 2 + 24 * d ** (3 * k) + 112 * d ** (2 * k)


def check_occupation_route(d: int, m: int, ks, n_in: int | None = None,
                           cap: int = DEFAULT_DIM_CAP) -> int:
    """Raise ResourceLimitError, before anything is allocated, when the
    occupation-coordinate route at (d, M, ks) would not fit the cap; else
    return its estimated peak bytes: four s_M x s_M arrays to check the state
    (s_M also against the side cap); the largest gather, s_k^2 s_{M-k} or
    s_k^2 s_{M+k} entries for a k's marginal or reduction (this limits k), or
    s_N^2 s_{M-N} for an N -> M cloner; 16 bytes an entry of each k's cached
    split tables, and 4 KiB; eight s_k x s_k arrays; and 32 KiB."""
    s_m = _sym(d, m)
    _check_cap(s_m, cap, f"occupation-coordinate state of {m} users")
    gathers = [_sym(d, k) ** 2 * max(_sym(d, m - k), _sym(d, m + k)) for k in ks]
    if n_in is not None:
        gathers.append(_sym(d, n_in) ** 2 * _sym(d, m - n_in))
    tables = sum(_sym(d, k) * (_sym(d, m - k) + s_m + _sym(d, m + k)) for k in ks)
    nbytes = (2 ** 15 + 2 ** 12 * len(ks) + 64 * s_m * s_m + 16 * tables
              + 32 * max(gathers, default=0) + 128 * _sym(d, max(ks, default=0)) ** 2)
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
    workspace (not numpy arrays); then, beside rho, the cached index map (64
    bytes an entry to build, 24 kept) and, on the pair route, each k's
    gathers (s_k s_{M+k} entries of the state at d^2), its k-user stage
    (users_bytes: the ancilla trace, whose table holds d^2k entries) and
    split tables; and 1 MiB for what does not grow with rho.  Only the pair
    route reduces the output, so only it takes ks.
    """
    if d > 1 and m > cap.bit_length():  # d^M > cap, too large to compute
        raise ResourceLimitError(f"{m}-user dense output would have side "
                                 f"{d}^{m}, exceeding the cap {cap}")
    rho, q = 16 * d ** (2 * m), d * d if paired else d
    loop = (rho + 24 * q ** m + sum(112 * _sym(q, k) * _sym(q, m + k) for k in ks)
            + max((users_bytes(d, k) for k in ks), default=0))
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
