"""Totally symmetric subspace machinery, Haar sampling, and the size plan.

The symmetric subspace of (C^d)^{tensor n} is spanned by occupation-number
vectors m; _occupation_table lists them in basis order and _rank maps them
back to it.  The isometry has one nonzero per row, so _index_map keeps it as
the column of each flat index plus a weight, applied by gathers and grouped
sums.  States inside the subspace are held in these coordinates, as
diagonals or kets: split_table holds the exact coefficients that split
|m>_n into k- and (n-k)-factor parts, power_coords the coordinates of
u^{tensor n} (Harrow, arXiv:1308.6595), and haar_kets draws the kets that
Monte Carlo weights by them.  plan holds every byte estimate: a run's
stages, each state charged as it is held, sized before anything is
allocated, and the one guard on them.  No run embeds these coordinates
back into (C^d)^{tensor n}; the tests' oracles do.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps

import numpy as np

from .linalg import DEFAULT_DIM_CAP, ResourceLimitError, _check_bytes


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


def _ahead(d: int, n: int) -> np.ndarray:
    # row r, entry t: C(t + r - 1, r), the occupations of total t over r
    # entries (row 0 all ones), each row the partial sums of the one before
    ahead = np.zeros((d, n + 1), dtype=np.int64)
    ahead[0] = 1
    for r in range(1, d):
        np.add.accumulate(ahead[r - 1, 1:], out=ahead[r, 1:])
    return ahead


def _rank(occ, d: int, n: int, out: np.ndarray) -> np.ndarray:
    """Add to `out` the basis-order column of occupations of total n, given as
    their entry arrays (entry d-1 unread).  Those agreeing on entries < i, with
    more at entry i, come first: C(t + r - 1, r) of them for t left after entry
    i and r = d-1-i entries after it, which row r of _ahead holds."""
    left = n
    for row, entry in zip(_ahead(d, n)[:0:-1], occ):  # rows r = d-1, ..., 1
        left = left - entry
        out += row[left]
    return out


def _raised(d: int, n: int) -> np.ndarray:
    """Row i, column c: the column in Sym^n of occupation c of Sym^{n-1} plus
    e_i.  Row 0 is c (_rank's sum, at the same lefts); row i + 1 is row i
    with the left t after entry i one larger, which adds row r - 1 of _ahead
    at t + 1 to _rank's sum, for r = d-1-i."""
    occ = _occupation_table(d, n - 1)
    ahead = _ahead(d, n)
    out = np.empty((d, len(occ)), dtype=np.int64)
    out[0] = np.arange(len(occ))
    left = np.full(len(occ), n - 1)
    for i in range(d - 1):
        left -= occ[:, i]
        np.add(out[i], ahead[d - 2 - i, left + 1], out=out[i + 1])
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

    def compress(self, x: np.ndarray) -> np.ndarray:
        """V† applied along axis 0 of x (length d^n there, s_n after)."""
        return (np.add.reduceat(x[self.order], self.starts).T * self.scale).T

    def expand(self, z: np.ndarray) -> np.ndarray:
        """V applied along axis 0 of z (length s_n there, d^n after)."""
        return (z[self.col].T * self.weight).T


def _memo_in_bytes(memo: OrderedDict, limit: str, nbytes):
    """Memoize a function in `memo` by its arguments, keeping at most the
    module constant `limit` in bytes (its values' `nbytes`), the least
    recently used out first; a larger value is built for its call and not
    kept.  The function gains the cache_clear of lru_cache."""
    def wrap(build):
        @wraps(build)
        def cached(*key):
            if key in memo:
                memo.move_to_end(key)
                return memo[key][0]
            value = build(*key)
            size = nbytes(value)
            if size <= globals()[limit]:
                memo[key] = value, size
                while sum(b for _, b in memo.values()) > globals()[limit]:
                    memo.popitem(last=False)
            return value
        cached.cache_clear = memo.clear
        return cached
    return wrap


# _index_map and split_table each keep up to this many bytes of results
INDEX_MAP_CACHE_BYTES = 2 ** 24
SPLIT_TABLE_CACHE_BYTES = 2 ** 24
_INDEX_MAPS = OrderedDict()  # (d, n) -> (map, bytes), least recent first
_SPLIT_TABLES = OrderedDict()  # (d, n, k) -> (table, bytes), likewise


@_memo_in_bytes(_INDEX_MAPS, "INDEX_MAP_CACHE_BYTES",
                lambda v: sum(a.nbytes for a in vars(v).values()))
def _index_map(d: int, n: int) -> IndexMap:
    # the occupation of flat index (x_0, rest) is that of rest plus e_{x_0},
    # so col over j + 1 factors is _raised(d, j + 1)[x_0, col over j]
    col = np.zeros(1, dtype=np.int64)
    for j in range(1, n + 1):
        col = _raised(d, j).take(col, axis=1).ravel()
    # column sizes are the multinomial multiplicities n!/(prod n_i!)
    mult = np.bincount(col, minlength=sym_dim(d, n))
    scale = 1.0 / np.sqrt(mult)
    # the same stable order from the narrowest keys: numpy sorts keys of 16
    # bits or fewer by radix
    order = col.astype(np.min_scalar_type(len(mult) - 1)).argsort(kind="stable")
    starts = np.add.accumulate(mult) - mult
    return IndexMap(col, scale[col], scale, order, starts)


def _pascal(n: int, k: int) -> np.ndarray:
    # C(x, y) for x <= n, y <= k as Python integers in an object array,
    # column y the partial sums of column y-1
    binom = np.zeros((n + 1, k + 1), dtype=object)
    binom[:, 0] = 1
    for y in range(1, k + 1):
        np.add.accumulate(binom[:-1, y - 1], out=binom[1:, y])
    return binom


@lru_cache(maxsize=128)
def _half_log_multiplicities(d: int, n: int) -> np.ndarray:
    # mult(m) = prod_i C(m_0 + ... + m_i, m_i) in exact integers, so each
    # math.log is that of the integer; for d <= 2 only C(n, x) is needed,
    # C(n, x - 1) (n - x + 1) / x, exact at every step
    occ = _occupation_table(d, n)
    if d <= 2:
        x = np.arange(n + 1).astype(object)
        x[0] = 1
        step = np.frompyfunc(lambda c, x: c * (n + 1 - x) // x, 2, 1)
        mult = step.accumulate(x, dtype=object)[occ[:, -1]]
    else:
        mult = np.multiply.reduce(_pascal(n, n)[occ.cumsum(axis=1), occ], axis=1)
    return np.frompyfunc(lambda v: 0.5 * math.log(v), 1, 1)(mult).astype(float)


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


# both layouts, the rest one as it will be once read: s_n x s_k entries of
# an index and a coefficient
@_memo_in_bytes(_SPLIT_TABLES, "SPLIT_TABLE_CACHE_BYTES", lambda t: (
    t.whole.nbytes + t.whole_coef.nbytes + 16 * int(t.whole[-1, -1] + 1) * len(t.whole)))
def split_table(d: int, n: int, k: int) -> SplitTable:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n={n}, got k={k}")
    a = _occupation_table(d, k)
    m = a[:, None, :] + _occupation_table(d, n - k)  # m = a + b, for b in Sym^{n-k}
    whole = _rank(m.transpose(2, 0, 1), d, n, np.zeros(m.shape[:2], np.int64))
    # each c(m;a)^2 is an exact ratio, correctly rounded by true division
    hits = np.multiply.reduce(_pascal(n, k)[m, a[:, None, :]], axis=-1)
    return SplitTable(whole, np.sqrt((hits / math.comb(n, k)).astype(float)))


def _sym(d: int, n: int) -> int:
    # sym_dim in plain Python integers, which cannot overflow
    return math.comb(d + n - 1, n)


def _table_bytes(d: int, n: int, k: int) -> int:
    # split_table(d, n, k) as it is built, 128 bytes an entry (16 kept), and
    # _pascal(n, k): Python integers of at most n bits
    return 128 * _sym(d, k) * _sym(d, n - k) + (n + 1) * (k + 1) * (48 + n // 10)


def _coords_bytes(d: int, n: int) -> int:
    # power_coords' tables at n as they are built: the occupations, their
    # logarithms and the multinomials, from n + 1 binomials (d <= 2) or _pascal(n, n)
    return (24 * d + 64) * _sym(d, n) + (n + 1) ** (1 + (d > 2)) * (48 + n // 10)


# Monte Carlo draws are weighted and accumulated in chunks that hold about
# this many entries of their k- and M-user occupation coordinates.
MC_CHUNK_ENTRIES = 2 ** 20


@dataclass(frozen=True)
class Plan:
    """A run's route, the field that decided it, its stages as (name,
    estimated peak bytes), the Monte Carlo draws per chunk (0 without), which
    fix the order of its sums, and the LAPACK bytes of the purification."""

    route: str
    field: str
    stages: tuple
    chunk: int = 0
    untraced: int = 0


def plan(d: int, m: int, ks=(), *, route: str = "symmetric", field: str = "",
         output: bool = True, rows: int | None = None, preps: int = 0,
         purify: bool = True, mc: int | None = None, itemsize: int = 16,
         cap: int = DEFAULT_DIM_CAP) -> Plan:
    """The Plan of M users at local dimension d: the output (`itemsize`
    bytes an entry on the dense route, 8 real or 16 complex, from `preps`
    stacked matrices, 0 for a cloner) and its pair purification there, the
    k-user results of `ks`, from one sweep at K = max(ks), and the Monte
    Carlo estimate of `mc` users.  The symmetric state, the output
    included, is charged as it is held: `rows` kets of s_M coordinates, or
    with None an s_M diagonal (a cloner's, from M + 1 closed-form values).
    The guard of every run and library call: before anything is allocated,
    ResourceLimitError where the largest stage passes the byte budget of
    16 cap^2."""
    if not (ks or output or mc):
        raise ValueError("empty k list: no k-user result, output or Monte Carlo to plan")
    for k in (*ks, mc or 1):
        if not 1 <= k <= m:
            raise ValueError(f"need 1 <= k <= M={m}, got k={k}")
    stages, untraced, chunk, top = [], 0, 0, max(ks, default=0)
    s = _sym(d, m)
    state = 8 * s if rows is None else 16 * rows * s
    if route == "dense":
        # r bytes of the d^M x d^M output beside its index map (64 bytes an
        # entry): 3.5 r to build a cloner's, a preparation's M-th powers beside
        # their (M-1)-th, then their sum; 7 r and eigh's workspace (a copy and
        # dsyevd's or zheevd's 2 n^2 entries, 3 r) to purify it; a k-user
        # result holds r, the pair ket and the split tables at K, and adds
        # its s_k x s_k kernel output at d^2 and the ancilla trace, charged
        # complex: 24 bytes each of d^3k gathered terms, 112 of d^2k (its
        # table and six matrices for the two results and their distance).
        if d > 1 and m > cap.bit_length():  # d^M > cap: r passes the budget
            raise ResourceLimitError(  # before its bytes are too many to compute
                f"dense route for {m} users: dense output would need {itemsize}*{d}^{2 * m}"
                f" bytes, exceeding the budget of {16 * cap * cap} bytes")
        side, q = d ** m, d * d
        r, held = itemsize * side * side, 2 ** 20 + 64 * side
        untraced = purify * (3 * r + 128 * side)
        kept = r + 24 * q ** m + 112 * _sym(q, top) * _sym(q, m + top)
        built = preps * r + max(r, preps * r // q) if preps else 7 * r // 2
        stages += ([("dense output", held + built)] * output
                   + [("pair purification", held + 7 * r + untraced)] * purify)
        for k in ks:
            stages.append((f"{k}-user result", held + kept + 16 * _sym(q, k) ** 2
                           + 24 * d ** (3 * k) + 112 * d ** (2 * k)))
        # Monte Carlo samples the symmetric output, and compares its mixture
        ks, top, output = ((mc,), mc, True) if mc and output else ((), 0, False)
    if output or ks:
        # the state and three working copies; the output adds a diagonal's
        # M + 1 values and block sizes as Python objects, or power_coords on
        # each ket (16 d + 64 bytes an entry) and its tables.  A sweep keeps
        # the split tables at K, the drops' small ones and eight k-user
        # results (the pair beside the next, and the distance's copies); at K
        # it builds its tables, then gathers s_K s_{M+-K} terms (of one ket at
        # a time), and each smaller k drops a user from the pair above it,
        # s_k d terms a result entry: 32 bytes a term
        held, sq = 2 ** 15 + 4 * state, 1 if rows is None else 2  # s_k^sq entries
        made = (96 * (m + 1) if rows is None
                else (16 * d + 64) * rows * s + _coords_bytes(d, m))
        s_top, low, high = _sym(d, top), _sym(d, m - top), _sym(d, m + top)
        kept = held + 16 * s_top * (low + s + high + d * top) + 128 * s_top ** sq
        at_top = max(_table_bytes(d, m, top), _table_bytes(d, m + top, top),
                     32 * s_top * max(low, high))
        stages += [("symmetric output", held + made)] * output + [
            (f"{k}-user result", kept + (at_top if k == top else 32 * d * _sym(d, k) ** sq))
            for k in ks]
    if mc:
        # the state and its conjugate, five complex s_k x s_k arrays (two
        # sums, a chunk's two products, the estimate with its stderr),
        # power_coords' tables at M and k, and 64 bytes an entry of a chunk's
        # k-user coordinates, d x s_M logarithms and overlaps with the kets
        s_k = _sym(d, mc)
        chunk = max(1, MC_CHUNK_ENTRIES // (s_k + d * s))
        stages.append((f"Monte Carlo estimate of {mc} users", 2 * state + 80 * s_k * s_k
                       + _coords_bytes(d, m) + _coords_bytes(d, mc)
                       + 64 * chunk * (s_k + d * s + (rows or 0))))
    name, nbytes = max(stages, key=lambda stage: stage[1])
    text = "dense" if route == "dense" else "occupation-coordinate"
    _check_bytes(nbytes, cap, f"{text} route for {m} users: {name}")
    return Plan(route, field, tuple(stages), chunk, untraced)


def haar_kets(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n Haar-random unit kets in C^d, as the rows of an (n, d) array.

    Row j takes the next 2d normals of `rng`: d real parts, then d imaginary
    parts.  numpy fills arrays in order, so n rows drawn at once equal the
    same n drawn in any split into consecutive calls.
    """
    x = rng.standard_normal((n, 2, d))
    z = x[:, 0] + 1j * x[:, 1]
    return z / np.linalg.norm(z, axis=1, keepdims=True)
