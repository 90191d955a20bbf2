"""Dense matrices, float64 or complex128 as their input is real or not,
with explicit tensor-factor bookkeeping, and the checks every state passes.

DenseOperator serves the dense route only: the output on (C^d)^{tensor M}
(a preparation's built in one chain of products over its stacked
matrices), whose permutation invariance swap_residual checks before it is
purified.  Inputs and every state of the symmetric route are plain arrays.
Factor 0 is the most significant index, numpy's C order and the order
np.kron produces.  The state checks (check_hermitian, herm_eigvals,
validate_state) take plain arrays: square matrices, diagonals (1-D), and
for validate_state the rows of a stack of kets; a channel checks its
stacked matrices at once, under the same tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Sets the byte budget of every run, see _check_bytes.
DEFAULT_DIM_CAP = 2 ** 14

HERMITICITY_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_TOL = 1e-9


class ResourceLimitError(RuntimeError):
    """A run would exceed the byte budget."""


def _check_bytes(nbytes: int, cap: int, what: str) -> None:
    """The byte budget of every run: one complex matrix of side cap."""
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
    """A matrix plus the factor dimensions of its row/column spaces.

    `row_dims`/`col_dims` are tuples whose products equal the matrix shape.
    An empty tuple denotes a one-dimensional (scalar) space, so kets are
    stored as (dim, 1) matrices with col_dims=().  Entries are complex128
    where they come complex, else float64, write-locked, and a read-only
    view where they come so and C-ordered (so callers hand over arrays they
    no longer write to).  It has no arithmetic: callers compute on `entries`.
    """

    entries: np.ndarray
    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        m = np.asarray(self.entries)
        m = np.asarray(m, dtype=complex if m.dtype.kind == "c" else float, order="C").view()
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


# -- operations --------------------------------------------------------------


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

    Rejects inputs that check_hermitian rejects, and diagonals; the
    symmetrized (X+X†)/2 is what gets diagonalized.
    """
    if x.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    check_hermitian(x)
    w = np.linalg.eigvalsh(0.5 * (x + x.conj().T))
    return w[::-1]


def check_hermitian(x: np.ndarray) -> None:
    """Raise ValueError unless x is a square matrix with finite entries whose
    max-abs deviation from Hermiticity is at most HERMITICITY_TOL.  A 1-D x
    is the diagonal of one: x - x.conj().T is then 2i Im x."""
    if x.ndim not in (1, 2) or x.shape[0] != x.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("matrix has non-finite entries")
    asym = float(np.abs(x - x.conj().T).max()) if x.size else 0.0
    if asym > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian within {HERMITICITY_TOL} "
                         f"(residual {asym:.3e})")


def validate_state(x: np.ndarray, name: str = "state", ket: bool = False) -> None:
    """Raise ValueError, its message starting with name, unless x passes
    check_hermitian (a finite, square, Hermitian matrix, or a real diagonal)
    and is PSD within PSD_TOL and of unit trace.  With `ket`, x holds rows
    x_j of sum_j x_j x_j†, PSD by construction: finite, of trace
    sum_j |x_j|^2 one, and no eigenvalue is taken."""
    try:
        if not ket:
            check_hermitian(x)
        elif not np.isfinite(x).all():
            raise ValueError("matrix has non-finite entries")
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if not ket:
        w = x.real if x.ndim == 1 else herm_eigvals(x)
        if w.size and w.min() < -PSD_TOL:
            raise ValueError(f"{name} has negative eigenvalue {w.min():.3e}")
    tr = complex(np.vdot(x, x) if ket else x.sum() if x.ndim == 1 else np.trace(x))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} has trace {tr}, expected 1")
