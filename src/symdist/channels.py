"""Channels that hand the same quantum payload to M users.

SDIChannelSpec names one of four kinds, each invariant under permutations
of the M output slots by construction: the optimal universal N -> M cloner,
a constant-output preparation, the cloner followed by single-user
depolarizing noise, and a measure-and-prepare channel.  A preparation's
matrices are held as one stack per field, checked at once.  A run builds
the output from the spec and its input, a plain array (a unit ket, a
density matrix, or None for a cloner), sized first by symspace.plan:
dense_output for every kind (a preparation's in one chain of products over
its stack, a cloner's through the index map that its plan admits), and
symmetric_output in occupation coordinates, the one check that the output
lies in Sym^M, which the field named by symmetric_field decides.  There a
preparation's output is its weighted kets sqrt(w_j) power_coords(phi_j, M),
and a cloner's its diagonal in the input's frame: the cloners are
U-covariant (Werner, PRA 58, 1827 (1998)), so every distance and input
fidelity is the one on |0>, where cloner_diagonal is Werner's closed form:
real, as dense_output is wherever the preps are.  Only dense_output builds
a DenseOperator.  The tests hold the Choi oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_DIM_CAP, HERMITICITY_TOL, PSD_TOL, TRACE_TOL, DenseOperator
from .symspace import _index_map, plan, power_coords

# Output-support deviation below this counts as "inside the symmetric subspace".
SUPPORT_TOL = 1e-8


class SupportError(ValueError):
    """An output leaves the symmetric subspace of its users."""


@dataclass(frozen=True)
class QuantumChannel:
    """CPTP map described by its Choi matrix on (out tensor in), factor dims
    out_factors + (dim_in,), as the tests' oracles build it (in_isometry:
    the embedding of a symmetric-subspace input).  No run makes one; the
    benchmark's tracer counts channels through its __post_init__.
    """

    choi: DenseOperator
    dim_in: int
    dim_out: int
    out_factors: tuple[int, ...]
    kind: str = "custom"
    in_isometry: DenseOperator | None = None

    def __post_init__(self):
        if math.prod(self.out_factors) != self.dim_out:
            raise ValueError(
                f"out_factors {self.out_factors} inconsistent with dim_out {self.dim_out}"
            )
        if self.choi.row_dims != self.out_factors + (self.dim_in,):
            raise ValueError("choi factor dims must be out_factors + (dim_in,)")


def _check_cloner_args(d: int, N: int, M: int) -> None:
    if d < 1:
        raise ValueError(f"local dimension must be >= 1, got {d}")
    if not 1 <= N <= M:
        raise ValueError(f"need 1 <= N <= M, got N={N}, M={M}")


def cloner_diagonal(d: int, N: int, M: int) -> np.ndarray:
    """universal_cloner(d, N, M) on N copies of |0>, in occupation
    coordinates: the s_M diagonal of a diagonal matrix, in Werner's closed
    form x(n) = (s_N/s_M) C(n_0, N)/C(M, N), which depends on n_0 alone.

    In basis order n_0 runs M, M-1, ..., 0, in blocks of the
    C(M - n_0 + d - 2, d - 2) occupations of the other d - 1 entries (at
    d = 1, the one block n_0 = M).  Each of the M + 1 values is one
    correctly rounded division of Python integers.
    """
    _check_cloner_args(d, N, M)
    n0 = range(M, -1, -1) if d > 1 else [M]
    scale = math.comb(M, N) * math.comb(d + M - 1, M)
    ratios = [math.comb(d + N - 1, N) * math.comb(n, N) / scale for n in n0]
    return np.repeat(ratios, [math.comb(M - n + d - 2, d - 2) for n in n0] if d > 1 else 1)


def _check_depolarizing_weight(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing weight must be in [0, 1], got {p}")


def _depolarize_factor(mat: np.ndarray, dims: tuple[int, ...],
                       t: int, p: float) -> None:
    """Apply X -> (1-p) X + p (1/d) tensor Tr_t[X] to factor t of a
    C-contiguous state or Choi matrix on `dims`, in place: after the
    scaling, the d diagonal slices of factor t each gain p/d Tr_t[X]."""
    d = dims[t]
    pre = math.prod(dims[:t])
    post = math.prod(dims[t + 1:])
    x = mat.reshape(pre, d, post, pre, d, post)
    traced = np.einsum("aibAiB->abAB", x)
    traced *= p / d
    x *= 1.0 - p
    for i in range(d):
        x[:, i, :, :, i, :] += traced


def _stacked(matrices, shape: tuple, bad_shape) -> np.ndarray:
    """The `matrices` as one read-only (r, *shape) array, complex128 where an
    entry is complex, else float64; bad_shape(i, s) refuses matrix i of shape s."""
    for i, other in enumerate(map(np.shape, matrices)):
        if other != shape:
            raise ValueError(bad_shape(i, other))
    s = np.asarray(matrices)
    s = np.asarray(s, complex if s.dtype.kind == "c" else float).reshape(len(matrices), *shape)
    s.setflags(write=False)
    return s


def _check_stack(s: np.ndarray, matrix: str, state: str, unit_trace: bool) -> None:
    """Check the stack s at once, in validate_state's order and words: finite,
    Hermitian within HERMITICITY_TOL, PSD within PSD_TOL (one eigvalsh) and,
    with unit_trace, of trace 1.  The first matrix i that fails is named by
    `matrix` or `state`, formatted with i."""
    finite = np.isfinite(s).all(axis=(1, 2))
    if not finite.all():  # the matrices before the first non-finite one fail first
        i = int(finite.argmin())
        _check_stack(s[:i], matrix, state, unit_trace)
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


def _validated_povm(matrices, n_preps: int) -> np.ndarray:
    """The POVM as one stack: one element for each of n_preps prepared
    states, PSD, and summing to the identity."""
    if len(matrices) != n_preps:
        raise ValueError(f"povm: got {len(matrices)} POVM elements but {n_preps} prepared states")
    if not len(matrices):
        raise ValueError("povm: POVM must have at least one element")
    shape = np.shape(matrices[0])
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
        raise ValueError(f"povm: POVM element 0 has shape {shape}, expected a square matrix")
    s = _stacked(matrices, shape, lambda i, other: f"povm: POVM element {i} has shape {other}")
    _check_stack(s, "povm", "povm: POVM element {}", False)
    if abs(s.sum(0) - np.eye(shape[0])).max() > 1e-9:
        raise ValueError("povm: POVM elements do not sum to the identity within 1e-9")
    return s


def _plain_ket(phi, dim: int, what: str = "channel input") -> np.ndarray:
    """phi as an array, checked to be a unit ket (1-D) of side `dim`."""
    phi = np.asarray(phi)
    if phi.ndim != 1:
        raise ValueError("expected a ket")
    nrm = float(np.linalg.norm(phi))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"input ket has norm {nrm}, expected 1")
    if phi.shape[0] != dim:
        raise ValueError(f"ket dimension {phi.shape[0]} does not match {what} {dim}")
    return phi


def _same_fields(x, y) -> bool:
    """Whether x and y are of one dataclass and agree field by field, an
    array in shape, dtype and entries."""
    return type(x) is type(y) and all(
        a.dtype == b.dtype and np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in zip(vars(x).values(), vars(y).values()))


# -- serialization -----------------------------------------------------------


def _json_real(value, where: str) -> float:
    """The rule for every number of a scenario: an int or a float, not a
    JSON true/false, and finite as a float."""
    if type(value) is float and math.isfinite(value):  # most numbers, first
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{where}: expected a finite number")
    return x


def _json_complex(pair, where: str) -> complex:
    """An [re, im] pair, both under the rule of _json_real."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"{where}: expected an [re, im] pair")
    return complex(_json_real(pair[0], where), _json_real(pair[1], where))


def _json_matrices(matrices: list, name: str) -> list[np.ndarray]:
    """The matrices of a JSON list, each of [re, im] pairs under the rule of
    _json_complex (a violation names its matrix, name[i]), read in one pass:
    complex where some imaginary part in the list is nonzero, else float64."""
    shapes, zs = [], []
    for i, rows in enumerate(matrices):
        if not (isinstance(rows, list) and rows and all(
                isinstance(row, list) and row and len(row) == len(rows[0])
                for row in rows)):
            raise ValueError(f"{name}[{i}]: expected a matrix of [re, im] pairs")
        where = f"{name}[{i}]"
        shapes.append((len(rows), len(rows[0])))
        zs += [_json_complex(z, where) for row in rows for z in row]
    x = np.array(zs, dtype=complex)
    x = x if x.imag.any() else x.real.copy()
    ends = itertools.accumulate(a * b for a, b in shapes)
    return [x[end - a * b:end].reshape(a, b) for end, (a, b) in zip(ends, shapes)]


def _json_number(data: dict, key: str, kind: type, optional: bool = False):
    """data[key] as an int (kind int) or a real under _json_real (kind float)."""
    value = data.get(key)
    if value is None and optional:
        return None
    if kind is float:
        return _json_real(value, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SDIChannelSpec:
    """Declarative description of one of the channel kinds, JSON
    round-trippable.  Construction checks every field, and an error in a
    field's value names the field.  `prep` and `povm`, given as any
    sequence of matrices, are held as one read-only (r, n, n) array each,
    complex128 where some entry is complex, else float64; two specs are
    equal where their matrix fields agree in shape, dtype and entries."""

    kind: str
    d: int
    M: int
    N: int | None = None
    p: float | None = None
    # (sigma,) for fixed_prep, outcome states for measure_prepare; __eq__
    # compares the matrix fields, and the hash leaves them out
    prep: np.ndarray | None = field(default=None, compare=False)
    povm: np.ndarray | None = field(default=None, compare=False)

    # the optional fields that each kind reads; None counts as absent
    FIELDS = {"universal_cloner": ("N",), "fixed_prep": ("prep",),
              "noisy_cloner": ("N", "p"), "measure_prepare": ("prep", "povm")}
    KINDS = tuple(FIELDS)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}; expected one of {self.KINDS}")
        if self.d < 1 or self.M < 1:
            raise ValueError(f"need d >= 1 and M >= 1, got d={self.d}, M={self.M}")
        for name in ("N", "p", "prep", "povm"):
            given = getattr(self, name) is not None
            if given != (name in self.FIELDS[self.kind]):
                raise ValueError(f"{self.kind} "
                                 f"{'does not take' if given else 'requires'} {name}")
        if self.kind == "fixed_prep" and len(self.prep) != 1:
            raise ValueError("fixed_prep requires exactly one prep matrix")
        name = "N"
        try:
            if self.N is not None:
                _check_cloner_args(self.d, self.N, self.M)
            if self.p is not None:
                name = "p"
                _check_depolarizing_weight(self.p)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
        if self.prep is not None:
            prep = _stacked(self.prep, (self.d, self.d), lambda i, other: (
                f"prep[{i}]: expected a {self.d} x {self.d} matrix, got shape {other}"))
            _check_stack(prep, "prep[{}]: prepared state", "prep[{}]: prepared state", True)
            object.__setattr__(self, "prep", prep)
        if self.povm is not None:
            object.__setattr__(self, "povm", _validated_povm(self.povm, len(self.prep)))

    # kind comes first: where it agrees, each matrix field is None or a stack on both sides
    __eq__ = _same_fields

    @classmethod
    def from_json(cls, data: dict) -> "SDIChannelSpec":
        if not isinstance(data, dict):
            raise ValueError("channel spec must be a JSON object")
        prep, povm = data.get("prep"), data.get("povm")
        for name, matrices in (("prep", prep), ("povm", povm)):
            if not (matrices is None or isinstance(matrices, list)):
                raise ValueError(f"{name}: expected a list of matrices")
        return cls(
            kind=data.get("kind"),
            d=_json_number(data, "d", int),
            M=_json_number(data, "M", int),
            N=_json_number(data, "N", int, optional=True),
            p=_json_number(data, "p", float, optional=True),
            prep=None if prep is None else _json_matrices(prep, "prep"),
            povm=None if povm is None else _json_matrices(povm, "povm"),
        )

    @property
    def input_dim(self) -> int:
        """The dimension of the input ket or matrix: the POVM side for
        measure_prepare, d for every other kind."""
        return self.povm.shape[1] if self.kind == "measure_prepare" else self.d

    @property
    def itemsize(self) -> int:
        """Bytes an entry of dense_output: 16 where the preps are complex, else 8."""
        return 8 if self.prep is None else self.prep.itemsize

    def _weights(self, state: np.ndarray) -> np.ndarray:
        """The weight Tr[E_i rho_in] of each prepared state for the input
        `state`, a unit ket or a density matrix; fixed_prep measures the
        one-outcome POVM {1}.  A weight in [-PSD_TOL, 0), which POVM
        eigenvalues down to -PSD_TOL allow, is 0."""
        n, state = self.input_dim, np.asarray(state)
        if state.ndim == 1:
            x = _plain_ket(state, n)
            rho_in = np.outer(x, x.conj())
        elif state.shape == (n, n):
            rho_in = state
        else:
            raise ValueError(f"input has shape {state.shape}, channel expects {(n, n)}")
        povm = self.povm if self.kind == "measure_prepare" else [np.eye(n)]
        weights = [float(np.real(np.vdot(e, rho_in))) for e in povm]
        for i, w in enumerate(weights):
            if w < -PSD_TOL:
                raise ValueError(f"prep[{i}] has weight {w:.3e} from the input")
        return np.maximum(weights, 0.0)

    def _pure_preps(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The kets (rows) of positive weight that the preps enter as, and
        their weights for `state`, from one eigh of the stack: at M = 1 each
        eigenpair (lam, v) of prep i, weighted w_i lam, past it prep i's top
        eigenvector, weighted w_i, where its second eigenvalue or w_i is at
        most SUPPORT_TOL."""
        vals, vecs = np.linalg.eigh(self.prep)
        w = self._weights(state)
        if self.M == 1:
            kets = vecs.transpose(0, 2, 1).reshape(-1, self.d)
            w = (w[:, None] * np.maximum(vals, 0.0)).ravel()
        else:
            mixed = np.flatnonzero((vals[:, -2] > SUPPORT_TOL) & (w > SUPPORT_TOL)
                                   ) if self.d > 1 else ()
            if len(mixed):
                i = mixed[0]
                raise SupportError(
                    f"channel.prep[{i}]: mixed (second eigenvalue {vals[i, -2]:.3e}), "
                    f"weight {w[i]:.3e} from the input, so the output leaves the "
                    "symmetric subspace")
            kets = vecs[:, :, -1]
        kept = w > 0  # a zero row adds only zeros
        return kets[kept], w[kept]

    @property
    def rows(self) -> int | None:
        """The most kets symmetric_output holds, one a prep (at M = 1 one an
        eigenvector); None for a cloner, whose output is a diagonal."""
        return None if self.covariant else len(self.prep) * (self.d if self.M == 1 else 1)

    @property
    def covariant(self) -> bool:
        """Whether the output is given in the input's frame: for the two
        U-covariant cloners, whose input ket a run neither draws nor builds."""
        return self.kind in ("universal_cloner", "noisy_cloner")

    @property
    def symmetric_field(self) -> str:
        """The field that decides whether symmetric_output lies in Sym^M:
        M = 1 (Sym^1(C^d) is C^d in basis order), d = 1, the preps (if each
        is rank one or weighted at most SUPPORT_TOL), the kind, or p (if 0)."""
        if self.M == 1 or self.d == 1:
            return "channel.M" if self.M == 1 else "channel.d"
        if self.prep is not None:
            return "channel.prep"
        return "channel.kind" if self.p is None else "channel.p"

    def symmetric_output(self, state: np.ndarray | None,
                         cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
        """The output for the input `state` in occupation coordinates, once
        planned: a cloner's s_M diagonal in the input's frame (`state`, a
        1-D ket of side d or None, is only checked), or a preparation's
        (rows, s_M) kets sqrt(w_j) power_coords(phi_j, M) for the phi_j, w_j
        of _pure_preps on a ket or density matrix of side input_dim, with no
        s_M x s_M matrix built.  The one check of Sym^M: an output outside
        it raises SupportError, naming symmetric_field, before its plan."""
        if not self.covariant:
            kets, weights = self._pure_preps(state)
            plan(self.d, self.M, rows=self.rows, cap=cap)
            return np.sqrt(weights)[:, None] * power_coords(kets, self.M)
        if self.p and self.symmetric_field == "channel.p":
            raise SupportError(f"channel.p: {self.p} depolarizes the "
                               f"{self.M} users out of the symmetric subspace")
        plan(self.d, self.M, cap=cap)
        if state is not None:
            _plain_ket(state, self.d, "single-copy dimension")
        x = cloner_diagonal(self.d, self.N, self.M)
        # at M = 1 or d = 1, p > 0 stays in Sym^M: X -> (1-p) X + p/d
        return (1.0 - self.p) * x + self.p / self.d if self.p else x

    def dense_output(self, state: np.ndarray | None,
                     cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
        """The output on (C^d)^{tensor M}, for every kind and the input of
        symmetric_output, in the input's frame for the cloners: their
        diagonal embedded, with each user depolarized in place, or the sum
        of w_i sigma_i^{tensor M}; float64 unless a prep is complex.
        Refused, before anything is allocated, where its plan does not fit."""
        r = 0 if self.covariant else len(self.prep)
        plan(self.d, self.M, route="dense", purify=False, preps=r, itemsize=self.itemsize,
             cap=cap)
        dims = (self.d,) * self.M
        if not self.covariant:
            # each step of the kron chain is one broadcast product over the
            # stack; weighted in place and summed from 0 in order, as sum() does
            out = np.ones((r, 1, 1), self.prep.dtype)
            for _ in range(self.M):
                out = (out[:, :, None, :, None] * self.prep[:, None, :, None, :]).reshape(
                    r, out.shape[1] * self.d, -1)
            out *= self._weights(state)[:, None, None]
            return DenseOperator(out.sum(0, initial=0.0), dims)
        if state is not None:
            _plain_ket(state, self.d, "single-copy dimension")
        v = _index_map(self.d, self.M)  # d^M <= cap: the plan refuses larger outputs
        # V diag(x) V†: x[c] w^2 on every pair of flat indices in column c
        x = cloner_diagonal(self.d, self.N, self.M)[v.col] * v.weight
        rho = np.equal.outer(v.col, v.col) * (x * v.weight)[:, None]
        if self.kind == "noisy_cloner":
            for t in range(self.M):
                _depolarize_factor(rho, dims, t, self.p)
        return DenseOperator(rho, dims)
