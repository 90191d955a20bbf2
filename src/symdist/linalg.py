"""Dense complex matrices with explicit tensor-factor bookkeeping, and the
checks that every state passes.

DenseOperator serves the dense route (the output on (C^d)^{tensor M} and its
pair purification) and the test oracles.  Every operator carries the local
dimensions of its row and column spaces, so partial traces and factor
permutations never have to guess how a flat index factorizes.  Factor 0 is
the most significant index: the flat row index of |i_0 i_1 ... i_{n-1}> is
i_0 * d_1 * ... * d_{n-1} + ... + i_{n-1}, which is exactly numpy's C-order
convention and the ordering np.kron produces.  The state checks
(check_hermitian, herm_eigvals, validate_state) take plain square arrays:
the symmetric route's matrices carry no factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    stored as (dim, 1) matrices with col_dims=().  Entries are write-locked,
    a read-only view where they come complex and C-ordered (so callers hand
    over arrays they no longer write to); all arithmetic returns new instances.
    """

    entries: np.ndarray
    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex, order="C").view()
        if m.ndim != 2:
            raise ValueError(f"entries must be a matrix, got ndim={m.ndim}")
        rd = _as_dims(self.row_dims)
        cd = rd if self.col_dims is None else _as_dims(self.col_dims)
        if math.prod(rd) != m.shape[0] or math.prod(cd) != m.shape[1]:
            raise ValueError(f"shape {m.shape} does not match factor dims {rd} x {cd}")
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

    def trace(self) -> complex:
        """Tr[X].  Only tests call it, as the oracle for the unit trace of
        dense results."""
        if self.shape[0] != self.shape[1]:
            raise ValueError("trace requires a square matrix")
        return complex(np.trace(self.entries))

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        """X @ Y.  Only tests call it, as an oracle for dense products."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"cannot multiply shapes {self.shape} and {other.shape}")
        return DenseOperator(self.entries @ other.entries, self.row_dims, other.col_dims)

    def __mul__(self, scalar) -> "DenseOperator":
        """Scalar multiple.  Only tests call it, as an oracle for scaled
        dense results."""
        return DenseOperator(self.entries * complex(scalar), self.row_dims, self.col_dims)

    __rmul__ = __mul__


# -- constructors -----------------------------------------------------------


def identity(dims) -> DenseOperator:
    """The identity on `dims`.  Only tests call it, to build the inputs of
    the dense oracles."""
    dims = _as_dims(dims)
    return DenseOperator(np.eye(math.prod(dims)), dims)


def ket(coeffs, dims=None) -> DenseOperator:
    """Column vector as a (dim, 1) operator with trivial column space."""
    v = np.array(coeffs, dtype=complex).reshape(-1, 1)
    rd = (v.shape[0],) if dims is None else _as_dims(dims)
    return DenseOperator(v, rd, ())


def basis_ket(d: int, i: int) -> DenseOperator:
    """|i> in C^d.  Only tests and library examples call it, to build the
    inputs of the dense oracles; runs build their input kets with ket."""
    if not 0 <= i < d:
        raise ValueError(f"basis index {i} out of range for dimension {d}")
    v = np.zeros(d)
    v[i] = 1.0
    return ket(v)


def projector(psi: DenseOperator) -> DenseOperator:
    """|psi><psi| for a ket.  Only tests call it, to build the inputs of the
    dense oracles."""
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


def permutation_operator(perm, d: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """Unitary permuting tensor factors: |i_0..i_{n-1}> -> slot perm[j] carries i_j.

    Only tests call it, as the dense oracle for whole permutations (U X U†)
    that swap_residual and the symmetrizer are checked against."""
    p = tuple(int(t) for t in perm)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"{p} is not a permutation of 0..{len(p) - 1}")
    n = len(p)
    _check_cap(d ** n, cap, "permutation operator")
    # transposing the grid of flat indices moves axis (digit) j to p[j]
    dest = np.arange(d ** n).reshape((d,) * n).transpose(p).ravel()
    mat = np.zeros((d ** n, d ** n))
    mat[dest, np.arange(d ** n)] = 1.0
    return DenseOperator(mat, (d,) * n)


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
    return float(np.abs(y.transpose(0, 2, 1, 3, 4, 6, 5, 7) - y).max())


def herm_eigvals(x: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square Hermitian matrix, descending.

    Rejects inputs that check_hermitian rejects; the symmetrized (X+X†)/2 is
    what gets diagonalized.
    """
    check_hermitian(x)
    w = np.linalg.eigvalsh(0.5 * (x + x.conj().T))
    return w[::-1]


def check_hermitian(x: np.ndarray) -> None:
    """Raise ValueError unless x is a square matrix with finite entries whose
    max-abs deviation from Hermiticity is at most HERMITICITY_TOL."""
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("matrix has non-finite entries")
    asym = float(np.abs(x - x.conj().T).max()) if x.size else 0.0
    if asym > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian within {HERMITICITY_TOL} "
                         f"(residual {asym:.3e})")


def validate_state(x: np.ndarray, name: str = "state") -> None:
    """Raise ValueError unless x passes check_hermitian (a finite, square,
    Hermitian matrix) and is PSD and of unit trace; each message starts with
    name."""
    try:
        w = herm_eigvals(x)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if w.size and w[-1] < -PSD_TOL:
        raise ValueError(f"{name} has negative eigenvalue {w[-1]:.3e}")
    tr = complex(np.trace(x))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} has trace {tr}, expected 1")
