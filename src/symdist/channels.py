"""Channels that hand the same quantum payload to M users.

SDIChannelSpec names one of four kinds, each invariant under permutations
of the M output slots by construction: the optimal universal N -> M cloner
(input given in symmetric-subspace coordinates), a constant-output
preparation, the cloner followed by independent single-user depolarizing
noise, and a measure-and-prepare channel.  A run builds the output from
the spec, sized first by symspace.plan: symmetric_output in occupation
coordinates where symmetric_field puts it in Sym^M (cloner_coords by
Werner's P_M (X tensor 1) P_M = P_M (X tensor P_{M-N}) P_M, PRA 58, 1827
(1998); prep_coords sums product states), dense_output for every kind.

The Choi form of each kind, its application to an input and the check of
a built channel's invariance and support are the oracles that tests compare
both outputs with; they live with the tests, and hold their Choi matrices
in a QuantumChannel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_DIM_CAP,
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
    """CPTP map described by its Choi matrix on (out tensor in), as the
    test oracles build it; no run path makes one.

    choi factor dims are out_factors + (dim_in,).  For channels whose input
    is handed over in symmetric-subspace coordinates, in_isometry is the
    embedding V of that subspace into the underlying tensor-product space.
    The class stays in the package because the benchmark's tracer counts
    channels by patching QuantumChannel.__post_init__; it can leave with
    the tests' oracles once the benchmark reads the run's own trace.
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


def cloner_coords(d: int, N: int, M: int, x: np.ndarray) -> np.ndarray:
    """universal_cloner(d, N, M) applied to x (s_N x s_N, occupation
    coordinates), as an s_M x s_M matrix in occupation coordinates.

    (s_N/s_M) sum_b B_b x B_b† over b in Sym^{M-N}, where B_b|n> =
    c(n+b; n)|n+b> is P_M restricted to |n>|b>.
    """
    _check_cloner_args(d, N, M)
    t = split_table(d, M, N)
    s_m = sym_dim(d, M)
    terms = t.whole_coef[:, None, :] * t.whole_coef[None, :, :] * x[:, :, None]
    out = np.zeros((s_m, s_m), dtype=complex)
    np.add.at(out, (t.whole[:, None, :], t.whole[None, :, :]), terms)
    return (sym_dim(d, N) / s_m) * out


def prep_coords(kets: np.ndarray, weights, M: int) -> np.ndarray:
    """sum_j weights[j] (phi_j phi_j†)^{tensor M} for the rows phi_j of
    `kets`, as an s_M x s_M matrix in occupation coordinates."""
    v = power_coords(kets, M)
    return (v.T * np.asarray(weights)) @ v.conj()


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


def _unit_entries(phi: DenseOperator) -> np.ndarray:
    if phi.shape[1] != 1:
        raise ValueError("expected a ket")
    nrm = float(np.linalg.norm(phi.entries))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"input ket has norm {nrm}, expected 1")
    return phi.entries[:, 0]


def _plain_ket(phi: DenseOperator, dim_in: int) -> np.ndarray:
    u = _unit_entries(phi)
    if u.size != dim_in:
        raise ValueError(
            f"ket dimension {u.size} does not match channel input {dim_in}"
        )
    return u


def _sym_power_ket(phi: DenseOperator, d: int, n_copies: int) -> np.ndarray:
    """phi^{tensor n_copies} in occupation coordinates."""
    u = _unit_entries(phi)
    if u.size != d:
        raise ValueError(
            f"ket dimension {u.size} does not match single-copy dimension {d}"
        )
    x = power_coords(u, n_copies)
    return x / np.linalg.norm(x)  # a unit vector already; scrub roundoff


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
        `state`; fixed_prep measures the one-outcome POVM {1}."""
        n = self.input_dim
        if state.shape[1] == 1:
            x = _plain_ket(state, n)
            rho_in = np.outer(x, x.conj())
        elif state.shape == (n, n):
            rho_in = state.entries
        else:
            raise ValueError(f"input has shape {state.shape}, channel expects {(n, n)}")
        povm = self.povm if self.kind == "measure_prepare" else [np.eye(n)]
        return [float(np.real(np.vdot(np.asarray(e), rho_in))) for e in povm]

    def _cloner_output(self, state: DenseOperator) -> np.ndarray:
        """The noiseless cloner output for N copies of the ket `state`, as
        an s_M x s_M matrix in occupation coordinates."""
        x = _sym_power_ket(state, self.d, self.N)
        return cloner_coords(self.d, self.N, self.M, np.outer(x, x.conj()))

    def _pure_preps(self, state: DenseOperator) -> tuple[np.ndarray, list[float]]:
        # each prepared state's top eigenvector and its weight for `state`
        weights, kets = self._weights(state), []
        for i, (s, w) in enumerate(zip(self._matrices(self.prep), weights)):
            vals, vecs = np.linalg.eigh(s)
            if self.d > 1 and vals[-2] > SUPPORT_TOL and w > SUPPORT_TOL:
                raise SupportError(
                    f"channel.prep[{i}]: mixed (second eigenvalue {vals[-2]:.3e}), "
                    f"weight {w:.3e} from the input, so the output leaves the "
                    "symmetric subspace")
            kets.append(vecs[:, -1])
        return np.array(kets), weights

    def symmetric_field(self, state: DenseOperator) -> str:
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

    def symmetric_output(self, state: DenseOperator,
                         cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
        """The output for the input `state` (a ket of side d for the cloners,
        a ket or a density matrix of side input_dim for the preparations) as
        an s_M x s_M matrix in occupation coordinates, where symmetric_field
        puts it in Sym^M (a prep enters as its top eigenvector), once planned."""
        self.symmetric_field(state)
        plan(self.d, self.M, n_in=self.N, cap=cap)
        if self.M == 1:
            return self.dense_output(state, cap).entries
        if self.prep is None:
            return self._cloner_output(state)
        return prep_coords(*self._pure_preps(state), self.M)

    def dense_output(self, state: DenseOperator,
                     cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
        """The output on (C^d)^{tensor M}, for every kind and the input of
        symmetric_output: the cloner output embedded, with each user
        depolarized in place, or the sum of w_i sigma_i^{tensor M}.
        Refused, before anything is allocated, where its plan does not fit."""
        plan(self.d, self.M, route="dense", purify=False, cap=cap)
        dims = (self.d,) * self.M
        if self.kind in ("fixed_prep", "measure_prepare"):
            return DenseOperator(sum(w * tensor_power(s, self.M, cap).entries
                                     for s, w in zip(self._preps(), self._weights(state))),
                                 dims)
        coords = self._cloner_output(state)
        v = index_map(self.d, self.M, cap)
        rho = v.expand(v.expand(coords, 0), 1)
        if self.kind == "noisy_cloner":
            for t in range(self.M):
                _depolarize_factor(rho, dims, t, self.p)
        return DenseOperator(rho, dims)
