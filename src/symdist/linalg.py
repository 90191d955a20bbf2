"""Dense matrices, float64 or complex128 as their input is real or not,
with explicit tensor-factor bookkeeping, and the one rule every state passes.

DenseOperator serves the dense route only: the output on (C^d)^{tensor M}
(a preparation's built in one chain of products over its stacked
matrices), whose permutation invariance swap_residual checks before it is
purified.  Inputs and every state of the symmetric route are plain arrays.
Factor 0 is the most significant index, numpy's C order and the order
np.kron produces.  The rule, under the tolerances below, is finite,
Hermitian, PSD and of unit trace: check_states checks it on a stack of
matrices (a channel's fields, validate_state's matrix), validate_state on
diagonals and kets too, and check_hermitian, run by trace_distance, in part.
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
# Output-support deviation below this counts as "inside the symmetric subspace".
SUPPORT_TOL = 1e-8


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


def check_states(s: np.ndarray, matrix: str, state: str, unit_trace: bool) -> None:
    """Check the stack s of square matrices at once: finite, Hermitian within
    HERMITICITY_TOL, PSD within PSD_TOL (one eigvalsh) and, with unit_trace,
    of trace 1.  The first matrix i that fails is named by `matrix` or
    `state`, formatted with i."""
    finite = np.isfinite(s).all(axis=(1, 2))
    if not finite.all():  # the matrices before the first non-finite one fail first
        i = int(finite.argmin())
        check_states(s[:i], matrix, state, unit_trace)
        raise ValueError(f"{matrix.format(i)}: matrix has non-finite entries")
    st = s.conj().transpose(0, 2, 1)
    asym = np.abs(s - st).max(axis=(1, 2))
    least = np.linalg.eigvalsh(0.5 * (s + st))[:, 0]
    tr = s.trace(axis1=1, axis2=2)
    faults = (asym > HERMITICITY_TOL, least < -PSD_TOL, unit_trace & (abs(tr - 1.0) > TRACE_TOL))
    bad = faults[0] | faults[1] | faults[2]
    if bad.any():
        i = int(bad.argmax())
        raise ValueError((f"{matrix.format(i)}: matrix is not Hermitian within "
                          f"{HERMITICITY_TOL} (residual {asym[i]:.3e})",
                          f"{state.format(i)} has negative eigenvalue {least[i]:.3e}",
                          f"{state.format(i)} has trace {complex(tr[i])}, expected 1",
                          )[next(j for j, f in enumerate(faults) if f[i])])


def validate_state(x: np.ndarray, name: str = "state", ket: bool = False) -> None:
    """Raise ValueError, its message starting with name, unless x is a state:
    a nonempty square matrix that passes check_states, or a real diagonal
    (1-D) that passes check_hermitian, PSD within PSD_TOL and of unit trace.
    With `ket`, x holds rows x_j of sum_j x_j x_j†, PSD by construction:
    finite, of trace sum_j |x_j|^2 one, and no eigenvalue is taken."""
    if not ket and x.ndim == 2 and x.shape[0] == x.shape[1] > 0:
        name = name.replace("{", "{{").replace("}", "}}")
        return check_states(x[None], name, name, True)
    try:
        if not ket:
            check_hermitian(x)
        elif not np.isfinite(x).all():
            raise ValueError("matrix has non-finite entries")
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if not ket and x.size and x.real.min() < -PSD_TOL:
        raise ValueError(f"{name} has negative eigenvalue {x.real.min():.3e}")
    tr = complex(np.vdot(x, x) if ket else x.sum())  # a diagonal, or 0 x 0
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} has trace {tr}, expected 1")
