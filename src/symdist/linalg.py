"""Dense complex matrices with explicit tensor-factor bookkeeping.

Every operator carries the local dimensions of its row and column spaces, so
partial traces and factor permutations never have to guess how a flat index
factorizes.  Factor 0 is the most significant index: the flat row index of
|i_0 i_1 ... i_{n-1}> is i_0 * d_1 * ... * d_{n-1} + ... + i_{n-1}, which is
exactly numpy's C-order convention and the ordering np.kron produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Hard ceiling on any stored matrix side, see ResourceLimitError.
DEFAULT_DIM_CAP = 2 ** 14

HERMITICITY_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_TOL = 1e-9


class ResourceLimitError(RuntimeError):
    """A requested object would exceed the dimension cap or its byte budget."""


def _check_cap(dim: int, cap: int, what: str) -> None:
    if dim > cap:
        raise ResourceLimitError(
            f"{what} would have dimension {dim}, exceeding the cap {cap}"
        )


def _check_bytes(nbytes: int, cap: int, what: str) -> None:
    """Byte budget that goes with a side cap: one complex matrix of side cap."""
    budget = 16 * cap * cap
    if nbytes > budget:
        raise ResourceLimitError(
            f"{what} would need {nbytes} bytes, exceeding the budget of "
            f"{budget} bytes (a complex matrix of side {cap})"
        )


def _as_dims(dims) -> tuple[int, ...]:
    out = tuple(map(int, dims))
    if out and min(out) < 1:
        raise ValueError(f"factor dimensions must be positive, got {out}")
    return out


@dataclass(frozen=True)
class DenseOperator:
    """A complex matrix plus the factor dimensions of its row/column spaces.

    `row_dims`/`col_dims` are tuples whose products equal the matrix shape.
    An empty tuple denotes a one-dimensional (scalar) space, so kets are
    stored as (dim, 1) matrices with col_dims=().  Entries are write-locked;
    all arithmetic returns new instances.
    """

    entries: np.ndarray
    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex, order="C")
        if m.ndim != 2:
            raise ValueError(f"entries must be a matrix, got ndim={m.ndim}")
        rd = _as_dims(self.row_dims)
        cd = rd if self.col_dims is None else _as_dims(self.col_dims)
        if math.prod(rd) != m.shape[0] or math.prod(cd) != m.shape[1]:
            raise ValueError(
                f"shape {m.shape} does not match factor dims {rd} x {cd}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "row_dims", rd)
        object.__setattr__(self, "col_dims", cd)

    # -- structure ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def is_square(self) -> bool:
        return self.shape[0] == self.shape[1] and self.row_dims == self.col_dims

    @property
    def factor_dims(self) -> tuple[int, ...]:
        if not self.is_square:
            raise ValueError("factor_dims is defined for square operators only")
        return self.row_dims

    # -- arithmetic ---------------------------------------------------------

    def dag(self) -> "DenseOperator":
        return DenseOperator(self.entries.conj().T, self.col_dims, self.row_dims)

    def trace(self) -> complex:
        if self.shape[0] != self.shape[1]:
            raise ValueError("trace requires a square matrix")
        return complex(np.trace(self.entries))

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"cannot multiply shapes {self.shape} and {other.shape}")
        return DenseOperator(self.entries @ other.entries, self.row_dims, other.col_dims)

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        if self.shape != other.shape:
            raise ValueError(f"cannot add shapes {self.shape} and {other.shape}")
        return DenseOperator(self.entries + other.entries, self.row_dims, self.col_dims)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        if self.shape != other.shape:
            raise ValueError(f"cannot subtract shapes {self.shape} and {other.shape}")
        return DenseOperator(self.entries - other.entries, self.row_dims, self.col_dims)

    def __mul__(self, scalar) -> "DenseOperator":
        return DenseOperator(self.entries * complex(scalar), self.row_dims, self.col_dims)

    __rmul__ = __mul__

    def __neg__(self) -> "DenseOperator":
        return DenseOperator(-self.entries, self.row_dims, self.col_dims)

    def hermitize(self) -> "DenseOperator":
        """(X + X†)/2, for scrubbing roundoff off analytically Hermitian results."""
        if self.shape[0] != self.shape[1]:
            raise ValueError("hermitize requires a square matrix")
        return DenseOperator(0.5 * (self.entries + self.entries.conj().T),
                             self.row_dims, self.col_dims)


# -- constructors -----------------------------------------------------------


def identity(dims) -> DenseOperator:
    dims = _as_dims(dims)
    return DenseOperator(np.eye(math.prod(dims)), dims)


def ket(coeffs, dims=None) -> DenseOperator:
    """Column vector as a (dim, 1) operator with trivial column space."""
    v = np.array(coeffs, dtype=complex).reshape(-1, 1)
    rd = (v.shape[0],) if dims is None else _as_dims(dims)
    return DenseOperator(v, rd, ())


def basis_ket(d: int, i: int) -> DenseOperator:
    if not 0 <= i < d:
        raise ValueError(f"basis index {i} out of range for dimension {d}")
    v = np.zeros(d)
    v[i] = 1.0
    return ket(v)


def projector(psi: DenseOperator) -> DenseOperator:
    """|psi><psi| for a ket."""
    if psi.shape[1] != 1:
        raise ValueError("projector expects a column vector")
    return DenseOperator(psi.entries @ psi.entries.conj().T, psi.row_dims, psi.row_dims)


# -- core operations --------------------------------------------------------


def tensor_product(a: DenseOperator, b: DenseOperator,
                   cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    _check_cap(max(rows, cols), cap, "tensor product")
    return DenseOperator(np.kron(a.entries, b.entries),
                         a.row_dims + b.row_dims, a.col_dims + b.col_dims)


def tensor_power(a: DenseOperator, n: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    if n < 0:
        raise ValueError("tensor power requires n >= 0")
    out = DenseOperator(np.array([[1.0]]), (), ())
    for _ in range(n):
        out = tensor_product(out, a, cap=cap)
    return out


def _validated_keep(keep, n: int) -> tuple[int, ...]:
    keep = tuple(int(t) for t in keep)
    if any(t < 0 or t >= n for t in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep indices {keep} contain duplicates")
    return tuple(sorted(keep))


def partial_trace(x: DenseOperator, keep) -> DenseOperator:
    """Trace out every factor not listed in `keep` (kept factors stay in order).

    An empty `keep` returns the 1x1 operator holding Tr[x].  No run path
    calls it: tests use it as the dense oracle for the marginals, and for
    OccupationState's k-user step, which traces the pair ancillas out of
    occupation coordinates with one gather.
    """
    if not x.is_square:
        raise ValueError("partial trace requires matching row/column factors")
    dims = x.row_dims
    n = len(dims)
    keep = _validated_keep(keep, n)
    if n == 0:
        return x
    keepset = set(keep)
    tensor = x.entries.reshape(dims + dims)
    row_labels = list(range(n))
    col_labels = [n + t if t in keepset else t for t in range(n)]
    out_labels = [t for t in keep] + [n + t for t in keep]
    res = np.einsum(tensor, row_labels + col_labels, out_labels)
    new_dims = tuple(dims[t] for t in keep)
    side = math.prod(new_dims)
    return DenseOperator(res.reshape(side, side), new_dims)


def _validated_perm(perm) -> tuple[int, ...]:
    p = tuple(int(t) for t in perm)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"{p} is not a permutation of 0..{len(p) - 1}")
    return p


def permutation_index_map(perm, d: int) -> np.ndarray:
    """dest[x] = flat index of the basis vector that U_perm sends |x> to.

    perm maps source slot j to target slot perm[j]: digit j of x becomes
    digit perm[j] of dest[x].  Cached per (perm, d) and read-only.
    """
    return _permutation_index_map(_validated_perm(perm), d)


@lru_cache(maxsize=128)
def _permutation_index_map(p: tuple[int, ...], d: int) -> np.ndarray:
    n = len(p)
    idx = np.arange(d ** n)
    dest = np.zeros_like(idx)
    for j in range(n):
        digit = (idx // d ** (n - 1 - j)) % d
        dest += digit * d ** (n - 1 - p[j])
    dest.setflags(write=False)
    return dest


def permutation_operator(perm, d: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """Unitary permuting tensor factors: |i_0..i_{n-1}> -> slot perm[j] carries i_j.

    Only tests call it, as the dense oracle that permute_factors and the
    symmetrizer are checked against."""
    p = _validated_perm(perm)
    n = len(p)
    _check_cap(d ** n, cap, "permutation operator")
    dest = permutation_index_map(p, d)
    mat = np.zeros((d ** n, d ** n))
    mat[dest, np.arange(d ** n)] = 1.0
    return DenseOperator(mat, (d,) * n)


def permute_factors(x: DenseOperator, perm, d: int) -> DenseOperator:
    """U_perm X U_perm† without materializing U_perm (index relabeling).

    Only tests call it, as the oracle for invariance under a whole
    permutation; runs check adjacent swaps with swap_residual."""
    if not x.is_square:
        raise ValueError("factor permutation requires a square operator")
    dest = permutation_index_map(perm, d)
    if dest.size != x.shape[0]:
        raise ValueError(
            f"permutation acts on dimension {dest.size}, operator has {x.shape[0]}"
        )
    out = np.empty_like(x.entries)
    out[np.ix_(dest, dest)] = x.entries
    return DenseOperator(out, x.row_dims, x.col_dims)


def swap_residual(x: DenseOperator, t: int) -> float:
    """max |U X U† - X| for the swap U of factors t and t+1.

    The swap only relabels the axes of X as a tensor, so the difference is
    taken against a transposed view; nothing is permuted in memory.
    """
    if not x.is_square:
        raise ValueError("factor swap requires a square operator")
    dims = x.row_dims
    if not 0 <= t < len(dims) - 1 or dims[t] != dims[t + 1]:
        raise ValueError(f"cannot swap factors {t} and {t + 1} of {dims}")
    pre, d, post = math.prod(dims[:t]), dims[t], math.prod(dims[t + 2:])
    y = x.entries.reshape(pre, d, d, post, pre, d, d, post)
    return float(np.max(np.abs(y.transpose(0, 2, 1, 3, 4, 6, 5, 7) - y)))


def herm_eigvals(x: DenseOperator, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian operator, descending.

    Rejects inputs whose max-abs deviation from Hermiticity exceeds `tol`;
    the symmetrized (X+X†)/2 is what gets diagonalized.
    """
    if x.shape[0] != x.shape[1]:
        raise ValueError("eigenvalues require a square matrix")
    check_hermitian(x, tol)
    m = x.entries
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return w[::-1]


def check_hermitian(x: DenseOperator, tol: float = HERMITICITY_TOL) -> None:
    """Raise ValueError if x's max-abs deviation from Hermiticity exceeds `tol`."""
    m = x.entries
    asym = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if asym > tol:
        raise ValueError(f"matrix is not Hermitian within {tol} (residual {asym:.3e})")


def validate_state(x: DenseOperator, name: str = "state",
                   herm_tol: float = HERMITICITY_TOL,
                   psd_tol: float = PSD_TOL,
                   trace_tol: float = TRACE_TOL) -> None:
    """Raise ValueError unless x is finite, Hermitian, PSD and of unit trace."""
    if not x.is_square:
        raise ValueError(f"{name} must be a square operator")
    if not np.all(np.isfinite(x.entries)):
        raise ValueError(f"{name} has non-finite entries")
    w = herm_eigvals(x, tol=herm_tol)  # also enforces Hermiticity
    if w.size and w[-1] < -psd_tol:
        raise ValueError(f"{name} has negative eigenvalue {w[-1]:.3e}")
    tr = x.trace()
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"{name} has trace {tr}, expected 1")
