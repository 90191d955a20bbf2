"""Channels that hand the same quantum payload to M users.

SDIChannelSpec names one of four kinds, each invariant under permutations
of the M output slots by construction: the optimal universal N -> M cloner,
a constant-output preparation, the cloner followed by single-user
depolarizing noise, and a measure-and-prepare channel.  A run builds the
output from the spec, sized first by symspace.plan: dense_output for every
kind, and symmetric_output in occupation coordinates where symmetric_field
puts it in Sym^M.  There a preparation's output is its weighted kets
sqrt(w_j) power_coords(phi_j, M), and a cloner's its diagonal in the
input's frame: the cloners are U-covariant (Werner, PRA 58, 1827 (1998)),
so every distance and input fidelity is the one on |0>, where Werner's
P_M (X tensor 1) P_M = P_M (X tensor P_{M-N}) P_M gives cloner_diagonal.
The Choi oracles that tests compare both outputs with live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_DIM_CAP,
    PSD_TOL,
    DenseOperator,
    herm_eigvals,
    tensor_power,
    validate_state,
)
from .symspace import index_map, plan, power_coords, split_table, sym_dim

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
    coordinates: the s_M diagonal of a diagonal matrix.

    (s_N/s_M) sum_b B_b |n><n| B_b† over b in Sym^{M-N}, where n = (N, 0,
    ..., 0) and B_b|n> = c(n+b; n)|n+b> is P_M restricted to |n>|b>: each b
    lands on its own diagonal entry n + b.
    """
    _check_cloner_args(d, N, M)
    t = split_table(d, M, N)
    out = np.zeros(sym_dim(d, M))
    out[t.whole[0]] = (sym_dim(d, N) / sym_dim(d, M)) * t.whole_coef[0] ** 2
    return out


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


def _validated_measurement(povm: list[np.ndarray], n_preps: int) -> int:
    """Check a POVM, given as matrices, with one element for each of n_preps
    prepared states; returns the input dimension."""
    if len(povm) != n_preps:
        raise ValueError(
            f"got {len(povm)} POVM elements but {n_preps} prepared states"
        )
    if not povm:
        raise ValueError("POVM must have at least one element")
    if povm[0].ndim != 2 or povm[0].shape[0] != povm[0].shape[1]:
        raise ValueError(f"POVM element 0 has shape {povm[0].shape}, "
                         "expected a square matrix")
    dim_in = povm[0].shape[0]
    total = np.zeros((dim_in, dim_in), dtype=complex)
    for idx, e in enumerate(povm):
        if e.shape != (dim_in, dim_in):
            raise ValueError(f"POVM element {idx} has shape {e.shape}")
        w = herm_eigvals(e)
        if w.size and w[-1] < -1e-9:
            raise ValueError(f"POVM element {idx} has negative eigenvalue {w[-1]:.3e}")
        total += e
    if np.max(np.abs(total - np.eye(dim_in))) > 1e-9:
        raise ValueError("POVM elements do not sum to the identity within 1e-9")
    return dim_in


def _plain_ket(phi: DenseOperator, dim: int, what: str = "channel input") -> np.ndarray:
    """The entries of phi, checked to be a unit ket of side `dim`."""
    if phi.shape[1] != 1:
        raise ValueError("expected a ket")
    nrm = float(np.linalg.norm(phi.entries))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"input ket has norm {nrm}, expected 1")
    if phi.shape[0] != dim:
        raise ValueError(f"ket dimension {phi.shape[0]} does not match {what} {dim}")
    return phi.entries[:, 0]


def _check_prep(m: np.ndarray, d: int) -> None:
    if m.shape != (d, d):
        raise ValueError(f"expected a {d} x {d} matrix, got shape {m.shape}")
    validate_state(m, name="prepared state")


# -- serialization -----------------------------------------------------------


def _json_real(value, where: str) -> float:
    """The rule for every number of a scenario: an int or a float, not a
    JSON true/false, and finite as a float."""
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


def _matrix_from_json(rows, where: str) -> np.ndarray:
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, list) and row and len(row) == len(rows[0])
            for row in rows)):
        raise ValueError(f"{where}: expected a matrix of [re, im] pairs")
    return np.array([[_json_complex(z, where) for z in row] for row in rows])


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
    field's value names the field."""

    kind: str
    d: int
    M: int
    N: int | None = None
    p: float | None = None
    prep: tuple | None = None   # matrices: (sigma,) for fixed_prep, outcome states for measure_prepare
    povm: tuple | None = None

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
        field = None
        try:
            if self.N is not None:
                field = "N"
                _check_cloner_args(self.d, self.N, self.M)
            if self.p is not None:
                field = "p"
                _check_depolarizing_weight(self.p)
            for i, m in enumerate(self._matrices(self.prep or ())):
                field = f"prep[{i}]"
                _check_prep(m, self.d)
            if self.povm is not None:
                field = "povm"
                _validated_measurement(self._matrices(self.povm), len(self.prep))
        except ValueError as exc:
            raise ValueError(f"{field}: {exc}") from exc

    @classmethod
    def from_json(cls, data: dict) -> "SDIChannelSpec":
        if not isinstance(data, dict):
            raise ValueError("channel spec must be a JSON object")
        kind = data.get("kind")
        prep = data.get("prep")
        povm = data.get("povm")
        for name, field in (("prep", prep), ("povm", povm)):
            if not (field is None or isinstance(field, list)):
                raise ValueError(f"{name}: expected a list of matrices")
        return cls(
            kind=kind,
            d=_json_number(data, "d", int),
            M=_json_number(data, "M", int),
            N=_json_number(data, "N", int, optional=True),
            p=_json_number(data, "p", float, optional=True),
            prep=None if prep is None else tuple(
                _matrix_from_json(m, f"prep[{i}]") for i, m in enumerate(prep)
            ),
            povm=None if povm is None else tuple(
                _matrix_from_json(m, f"povm[{i}]") for i, m in enumerate(povm)
            ),
        )

    @property
    def input_dim(self) -> int:
        """The dimension of the input ket or matrix: the POVM side for
        measure_prepare, d for every other kind."""
        return len(self.povm[0]) if self.kind == "measure_prepare" else self.d

    @staticmethod
    def _matrices(field: tuple) -> list[np.ndarray]:
        """The stored matrices of `prep` or `povm` as complex arrays."""
        return [np.asarray(m, dtype=complex) for m in field]

    def _preps(self) -> list[DenseOperator]:
        return [DenseOperator(m, (self.d,)) for m in self._matrices(self.prep)]

    def _weights(self, state: DenseOperator) -> list[float]:
        """The weight Tr[E_i rho_in] of each prepared state for the input
        `state`; fixed_prep measures the one-outcome POVM {1}.  A weight in
        [-PSD_TOL, 0), which POVM eigenvalues down to -PSD_TOL allow, is 0."""
        n = self.input_dim
        if state.shape[1] == 1:
            x = _plain_ket(state, n)
            rho_in = np.outer(x, x.conj())
        elif state.shape == (n, n):
            rho_in = state.entries
        else:
            raise ValueError(f"input has shape {state.shape}, channel expects {(n, n)}")
        povm = self.povm if self.kind == "measure_prepare" else [np.eye(n)]
        weights = [float(np.real(np.vdot(np.asarray(e), rho_in))) for e in povm]
        for i, w in enumerate(weights):
            if w < -PSD_TOL:
                raise ValueError(f"prep[{i}] has weight {w:.3e} from the input")
        return [max(w, 0.0) for w in weights]

    def _pure_preps(self, state: DenseOperator) -> tuple[np.ndarray, np.ndarray]:
        """The kets (rows) that the preps enter as, and their weights for
        `state`: at M = 1 each eigenpair (lam, v) of prep i, weighted w_i lam,
        past it prep i's top eigenvector, weighted w_i, where its second
        eigenvalue or w_i is at most SUPPORT_TOL (else SupportError)."""
        kets, weights = [], []
        for i, (s, w) in enumerate(zip(self._matrices(self.prep), self._weights(state))):
            vals, vecs = np.linalg.eigh(s)
            if self.M == 1:
                kets += list(vecs.T)
                weights += [w * max(lam, 0.0) for lam in vals]
                continue
            if self.d > 1 and vals[-2] > SUPPORT_TOL and w > SUPPORT_TOL:
                raise SupportError(
                    f"channel.prep[{i}]: mixed (second eigenvalue {vals[-2]:.3e}), "
                    f"weight {w:.3e} from the input, so the output leaves the "
                    "symmetric subspace")
            kets.append(vecs[:, -1])
            weights.append(w)
        return np.array(kets), np.array(weights)

    @property
    def rows(self) -> int | None:
        """The kets of symmetric_output, one a prep (at M = 1 one an
        eigenvector); None for a cloner, whose output is a diagonal."""
        return None if self.covariant else len(self.prep) * (self.d if self.M == 1 else 1)

    @property
    def covariant(self) -> bool:
        """Whether the output is given in the input's frame: for the two
        U-covariant cloners, whose input ket a run neither draws nor builds."""
        return self.kind in ("universal_cloner", "noisy_cloner")

    def symmetric_field(self, state: DenseOperator | None) -> str:
        """The field that puts the output for the input `state` in Sym^M:
        M = 1 (Sym^1(C^d) is C^d in basis order), d = 1, the preps where each
        is rank one or weighted at most SUPPORT_TOL, or the cloner's kind or
        p = 0.  Any other output raises SupportError naming its field."""
        if self.M == 1 or self.d == 1:
            return "channel.M" if self.M == 1 else "channel.d"
        if self.prep is not None:
            self._pure_preps(state)
            return "channel.prep"
        if self.p:
            raise SupportError(f"channel.p: {self.p} depolarizes the "
                               f"{self.M} users out of the symmetric subspace")
        return "channel.kind" if self.p is None else "channel.p"

    def symmetric_output(self, state: DenseOperator | None,
                         cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
        """The output for the input `state` in occupation coordinates where
        symmetric_field puts it in Sym^M, once planned: a cloner's in the
        input's frame, as its s_M diagonal (`state`, a ket of side d or None,
        is only checked); a preparation's, for a ket or a density matrix of
        side input_dim, as the (rows, s_M) kets sqrt(w_j) v_j of
        sum_j w_j v_j v_j†, v_j = power_coords(phi_j, M) for the phi_j of
        _pure_preps: no s_M x s_M matrix is built."""
        self.symmetric_field(state)
        plan(self.d, self.M, n_in=self.N, rows=self.rows, cap=cap)
        if self.covariant:
            if state is not None:
                _plain_ket(state, self.d, "single-copy dimension")
            x = cloner_diagonal(self.d, self.N, self.M)
            # p > 0 passes symmetric_field at M = 1 or d = 1: X -> (1-p) X + p/d
            return (1.0 - self.p) * x + self.p / self.d if self.p else x
        kets, weights = self._pure_preps(state)
        return np.sqrt(weights)[:, None] * power_coords(kets, self.M)

    def dense_output(self, state: DenseOperator | None,
                     cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
        """The output on (C^d)^{tensor M}, for every kind and the input of
        symmetric_output, in the input's frame for the cloners: their
        diagonal embedded, with each user depolarized in place, or the sum
        of w_i sigma_i^{tensor M}.  Refused, before anything is allocated,
        where its plan does not fit."""
        plan(self.d, self.M, route="dense", purify=False, cap=cap)
        dims = (self.d,) * self.M
        if not self.covariant:
            return DenseOperator(sum(w * tensor_power(s, self.M, cap).entries
                                     for s, w in zip(self._preps(), self._weights(state))),
                                 dims)
        if state is not None:
            _plain_ket(state, self.d, "single-copy dimension")
        v = index_map(self.d, self.M, cap)
        # V diag(x) V†: x[c] w^2 on every pair of flat indices in column c
        x = cloner_diagonal(self.d, self.N, self.M)[v.col] * v.weight
        rho = np.equal.outer(v.col, v.col) * (x * v.weight).astype(complex)[:, None]
        if self.kind == "noisy_cloner":
            for t in range(self.M):
                _depolarize_factor(rho, dims, t, self.p)
        return DenseOperator(rho, dims)
