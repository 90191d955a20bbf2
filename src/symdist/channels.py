"""Channels that hand the same quantum payload to M users.

SDIChannelSpec names one of four kinds, each invariant under permutations
of the M output slots by construction: the optimal universal N -> M cloner
(input given in symmetric-subspace coordinates), a constant-output
preparation, the cloner followed by independent single-user depolarizing
noise, and a measure-and-prepare channel.  A run builds the output straight
from the spec: symmetric_output as an s_M x s_M matrix in occupation
coordinates when it lies in the symmetric subspace for every input
(cloner_coords uses Werner's form P_M (X tensor 1) P_M = P_M (X tensor
P_{M-N}) P_M, PRA 58, 1827 (1998); prep_coords sums pure product states),
dense_output on (C^d)^{tensor M} for every kind.

The Choi form is the test oracle for both: QuantumChannel holds the Choi
matrix on (output tensor input), output factors first, summed from Kraus
operators as vec(K_m) vec(K_m)†; apply/adjoint_apply contract against it,
and validate_sdi checks a built channel's invariance and output support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_DIM_CAP,
    DenseOperator,
    _check_cap,
    herm_eigvals,
    swap_residual,
    tensor_power,
    validate_state,
)
from .symspace import (
    check_occupation_route,
    index_map,
    power_coords,
    split_table,
    sym_basis,
    sym_dim,
)

# Output-support deviation below this counts as "inside the symmetric subspace".
SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class QuantumChannel:
    """CPTP map described by its Choi matrix on (out tensor in).

    choi factor dims are out_factors + (dim_in,).  For channels whose input
    is handed over in symmetric-subspace coordinates, in_isometry is the
    embedding V of that subspace into the underlying tensor-product space.
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

    def choi_tensor(self) -> np.ndarray:
        """Choi entries reshaped to [out, in, out', in']."""
        return self.choi.entries.reshape(
            self.dim_out, self.dim_in, self.dim_out, self.dim_in
        )


def apply(ch: QuantumChannel, rho: DenseOperator) -> DenseOperator:
    """Channel output for input state rho (in the channel's input coordinates)."""
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise ValueError(
            f"input has shape {rho.shape}, channel expects {(ch.dim_in, ch.dim_in)}"
        )
    out = np.einsum("aibj,ij->ab", ch.choi_tensor(), rho.entries)
    return DenseOperator(out, ch.out_factors)


def adjoint_apply(ch: QuantumChannel, obs: DenseOperator) -> DenseOperator:
    """Heisenberg picture: the observable on the input dual to obs on the output."""
    if obs.shape != (ch.dim_out, ch.dim_out):
        raise ValueError(
            f"observable has shape {obs.shape}, channel output is {ch.dim_out}"
        )
    m = np.einsum("ab,biaj->ij", obs.entries, ch.choi_tensor())
    return DenseOperator(m.T, (ch.dim_in,))


def _choi_from_kraus_stack(k_stack: np.ndarray) -> np.ndarray:
    """Choi matrix sum_m vec(K_m) vec(K_m)† from a stack shaped (m, out, in)."""
    v = k_stack.reshape(k_stack.shape[0], -1)
    return v.T @ v.conj()


def identity_channel(d: int) -> QuantumChannel:
    choi = _choi_from_kraus_stack(np.eye(d)[None, :, :])
    return QuantumChannel(DenseOperator(choi, (d, d)), d, d, (d,), kind="identity")


def _check_cloner_args(d: int, N: int, M: int) -> None:
    if d < 1:
        raise ValueError(f"local dimension must be >= 1, got {d}")
    if not 1 <= N <= M:
        raise ValueError(f"need 1 <= N <= M, got N={N}, M={M}")


def universal_cloner(d: int, N: int, M: int,
                     cap: int = DEFAULT_DIM_CAP) -> QuantumChannel:
    """Optimal universal N -> M cloner for d-dimensional systems.

    Input is a state on the symmetric subspace of N copies, in occupation
    coordinates (dim sym_dim(d, N)); output is on M full factors.  The map is
    X -> (s_N/s_M) P_M (V_N X V_N† tensor 1^{M-N}) P_M with P_M the
    symmetrizer, realized through d^{M-N} Kraus operators.
    """
    _check_cloner_args(d, N, M)
    s_in = sym_dim(d, N)
    _check_cap(d ** M, cap, f"{M}-user cloner output")
    _check_cap(d ** M * s_in, cap, f"{M}-user cloner Choi matrix")
    v_n = sym_basis(d, N, cap=cap).isometry
    v_m = index_map(d, M, cap)
    scale = math.sqrt(sym_dim(d, N) / sym_dim(d, M))
    # columns indexed (i, m): i over sym coords of the input, m over the
    # d^{M-N} extra slots; projecting through V_M keeps everything rank-bounded
    embed = np.kron(v_n.entries, np.eye(d ** (M - N)))
    t = scale * v_m.expand(v_m.compress(embed))
    k_cols = t.reshape(d ** M * s_in, d ** (M - N))
    choi = k_cols @ k_cols.conj().T
    return QuantumChannel(
        DenseOperator(choi, (d,) * M + (s_in,)),
        dim_in=s_in,
        dim_out=d ** M,
        out_factors=(d,) * M,
        kind="universal_cloner",
        in_isometry=v_n,
    )


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


def fixed_prep_channel(sigma: DenseOperator, M: int,
                       cap: int = DEFAULT_DIM_CAP) -> QuantumChannel:
    """Discard the input, hand every one of the M users a copy of sigma."""
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    validate_state(sigma, name="prepared state")
    d = sigma.shape[0]
    out = tensor_power(sigma, M, cap=cap)
    _check_cap(out.shape[0] * d, cap, "fixed-prep Choi matrix")
    choi = np.kron(out.entries, np.eye(d))
    return QuantumChannel(
        DenseOperator(choi, (d,) * M + (d,)),
        dim_in=d,
        dim_out=d ** M,
        out_factors=(d,) * M,
        kind="fixed_prep",
    )


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


def noisy_cloner(d: int, N: int, M: int, p: float,
                 cap: int = DEFAULT_DIM_CAP) -> QuantumChannel:
    """Universal cloner followed by independent depolarizing noise per user.

    For p > 0 the output leaks out of the symmetric subspace while staying
    permutation invariant, which is exactly the regime the general (pair-
    purified) approximation machinery exists for.
    """
    _check_depolarizing_weight(p)
    base = universal_cloner(d, N, M, cap=cap)
    dims = base.out_factors + (base.dim_in,)
    mat = base.choi.entries.copy()
    for t in range(M):
        _depolarize_factor(mat, dims, t, p)
    return QuantumChannel(
        DenseOperator(mat, dims),
        dim_in=base.dim_in,
        dim_out=base.dim_out,
        out_factors=base.out_factors,
        kind="noisy_cloner",
        in_isometry=base.in_isometry,
    )


def _validated_measurement(povm: list[DenseOperator],
                           preps: list[DenseOperator]) -> int:
    """Check a POVM and its prepared states; returns the input dimension."""
    if len(povm) != len(preps):
        raise ValueError(
            f"got {len(povm)} POVM elements but {len(preps)} prepared states"
        )
    if not povm:
        raise ValueError("POVM must have at least one element")
    dim_in = povm[0].shape[0]
    total = np.zeros((dim_in, dim_in), dtype=complex)
    for idx, e in enumerate(povm):
        if e.shape != (dim_in, dim_in):
            raise ValueError(f"POVM element {idx} has shape {e.shape}")
        w = herm_eigvals(e)
        if w.size and w[-1] < -1e-9:
            raise ValueError(f"POVM element {idx} has negative eigenvalue {w[-1]:.3e}")
        total += e.entries
    if np.max(np.abs(total - np.eye(dim_in))) > 1e-9:
        raise ValueError("POVM elements do not sum to the identity within 1e-9")
    d = preps[0].shape[0]
    for idx, s in enumerate(preps):
        validate_state(s, name=f"prepared state {idx}")
        if s.shape != (d, d):
            raise ValueError(f"prepared state {idx} has shape {s.shape}")
    return dim_in


def measure_prepare(povm: list[DenseOperator], preps: list[DenseOperator], M: int,
                    cap: int = DEFAULT_DIM_CAP) -> QuantumChannel:
    """Measure the input with a POVM, hand all M users copies keyed to the outcome."""
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    dim_in = _validated_measurement(povm, preps)
    d = preps[0].shape[0]
    _check_cap(d ** M * dim_in, cap, "measure-prepare Choi matrix")
    choi = np.zeros((d ** M * dim_in, d ** M * dim_in), dtype=complex)
    for e, s in zip(povm, preps):
        choi += np.kron(tensor_power(s, M, cap=cap).entries, e.entries.T)
    return QuantumChannel(
        DenseOperator(choi, (d,) * M + (dim_in,)),
        dim_in=dim_in,
        dim_out=d ** M,
        out_factors=(d,) * M,
        kind="measure_prepare",
    )


def embed_pure_input(ch: QuantumChannel, phi: DenseOperator) -> DenseOperator:
    """Density matrix, in the channel's input coordinates, for N copies of phi.

    Channels carrying in_isometry take phi^{tensor N} re-expressed in symmetric
    coordinates; all others take phi directly (dim must match dim_in).
    """
    if ch.in_isometry is None:
        x = _plain_ket(phi, ch.dim_in)
    else:
        x = _sym_power_ket(phi, ch.in_isometry.row_dims[0],
                           len(ch.in_isometry.row_dims))
    return DenseOperator(np.outer(x, x.conj()), (ch.dim_in,))


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


def _rank_one(m: np.ndarray, d: int) -> bool:
    if m.shape != (d, d) or not np.all(np.isfinite(m)):
        return False  # the output builders report what is wrong with it
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return d == 1 or w[-2] <= SUPPORT_TOL


@dataclass(frozen=True)
class SDIReport:
    """Outcome of validate_sdi.

    passed reflects permutation invariance only; symmetric_support reports
    whether the output support lies in the symmetric subspace.
    """

    max_permutation_residual: float
    permutation_invariant: bool
    support_residual: float
    symmetric_support: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.permutation_invariant


def validate_sdi(ch: QuantumChannel, tol: float = 1e-9) -> SDIReport:
    """Check invariance under permutations of the output users.

    Adjacent transpositions generate the symmetric group, so the residual is
    maximized over conjugations by (t, t+1) swaps at the Choi level.  Also
    reports how far the output support sticks out of the symmetric subspace
    for any input: the oracle for symmetric_by_construction.
    """
    if len(set(ch.out_factors)) > 1:
        raise ValueError(
            f"output factors {ch.out_factors} are not identical; "
            "user permutations are undefined"
        )
    d = ch.out_factors[0]
    m_users = len(ch.out_factors)
    resid = 0.0
    for t in range(m_users - 1):
        resid = max(resid, swap_residual(ch.choi, t))
    v = index_map(d, m_users)
    c4 = ch.choi.entries.reshape(ch.dim_out, ch.dim_in, ch.dim_out, ch.dim_in)
    # P = V V† on both output indices
    proj = v.expand(v.expand(v.compress(v.compress(c4, 0), 2), 0), 2)
    support_residual = float(np.max(np.abs(c4 - proj)))
    return SDIReport(
        max_permutation_residual=resid,
        permutation_invariant=resid <= tol,
        support_residual=support_residual,
        symmetric_support=support_residual <= SUPPORT_TOL,
        tol=tol,
    )


# -- serialization -----------------------------------------------------------


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


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
    """Declarative description of one of the channel kinds, JSON round-trippable."""

    kind: str
    d: int
    M: int
    N: int | None = None
    p: float | None = None
    prep: tuple | None = None   # matrices: (sigma,) for fixed_prep, outcome states for measure_prepare
    povm: tuple | None = None

    KINDS = ("universal_cloner", "fixed_prep", "noisy_cloner", "measure_prepare")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}; expected one of {self.KINDS}")
        if self.d < 1 or self.M < 1:
            raise ValueError(f"need d >= 1 and M >= 1, got d={self.d}, M={self.M}")
        if self.kind in ("universal_cloner", "noisy_cloner") and self.N is None:
            raise ValueError(f"{self.kind} requires N")
        if self.kind == "noisy_cloner" and self.p is None:
            raise ValueError("noisy_cloner requires p")
        if self.kind == "fixed_prep" and (self.prep is None or len(self.prep) != 1):
            raise ValueError("fixed_prep requires exactly one prep matrix")
        if self.kind == "measure_prepare" and (self.prep is None or self.povm is None):
            raise ValueError("measure_prepare requires prep and povm lists")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "N": self.N,
            "M": self.M,
            "p": self.p,
            "prep": None if self.prep is None else [_matrix_to_json(m) for m in self.prep],
            "povm": None if self.povm is None else [_matrix_to_json(m) for m in self.povm],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SDIChannelSpec":
        if not isinstance(data, dict):
            raise ValueError("channel spec must be a JSON object")
        kind = data.get("kind")
        prep = data.get("prep")
        povm = data.get("povm")
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
    def symmetric_by_construction(self) -> bool:
        """Whether the output lies in the symmetric subspace of the M users
        for every input: cloners without noise, and preparations whose every
        state is pure (rank one within SUPPORT_TOL).

        At M = 1 every output has symmetric support; a run finds that case
        from the support residual of the output.
        """
        if self.kind == "universal_cloner":
            return True
        if self.kind == "noisy_cloner":
            return self.p == 0.0
        return all(_rank_one(np.asarray(m), self.d) for m in self.prep)

    def _preps(self) -> list[DenseOperator]:
        return [DenseOperator(np.asarray(m), (self.d,)) for m in self.prep]

    def _povm(self) -> list[DenseOperator]:
        return [DenseOperator(e, (e.shape[0],)) for e in
                (np.asarray(m) for m in self.povm)]

    def build(self, cap: int = DEFAULT_DIM_CAP) -> QuantumChannel:
        if self.kind == "universal_cloner":
            return universal_cloner(self.d, self.N, self.M, cap=cap)
        if self.kind == "noisy_cloner":
            return noisy_cloner(self.d, self.N, self.M, self.p, cap=cap)
        if self.kind == "fixed_prep":
            return fixed_prep_channel(self._preps()[0], self.M, cap=cap)
        return measure_prepare(self._povm(), self._preps(), self.M, cap=cap)

    def _weighted_preps(self, state: DenseOperator):
        """The prepared states, each with its weight Tr[E_i rho_in] for the
        input `state`, and the input dimension; fixed_prep measures the
        one-outcome POVM {1}."""
        preps = self._preps()
        povm = (self._povm() if self.kind == "measure_prepare"
                else [DenseOperator(np.eye(self.d), (self.d,))])
        dim_in = _validated_measurement(povm, preps)
        if state.shape[1] == 1:
            x = _plain_ket(state, dim_in)
            rho_in = np.outer(x, x.conj())
        elif state.shape == (dim_in, dim_in):
            rho_in = state.entries
        else:
            raise ValueError(f"input has shape {state.shape}, "
                             f"channel expects {(dim_in, dim_in)}")
        weights = [float(np.real(np.vdot(e.entries, rho_in))) for e in povm]
        return preps, weights, dim_in

    def _cloner_output(self, state: DenseOperator, cap: int) -> np.ndarray:
        """The noiseless cloner output for N copies of the ket `state`, as
        an s_M x s_M matrix in occupation coordinates."""
        _check_cloner_args(self.d, self.N, self.M)
        check_occupation_route(self.d, self.M, (), n_in=self.N, cap=cap)
        x = _sym_power_ket(state, self.d, self.N)
        return cloner_coords(self.d, self.N, self.M, np.outer(x, x.conj()))

    def symmetric_output(self, state: DenseOperator,
                         cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
        """The output as an s_M x s_M matrix in occupation coordinates, for
        a spec that is symmetric_by_construction.  `state` is the input: a
        ket of dimension d for the cloners; a ket or a density matrix on the
        input space for the preparation kinds."""
        if not self.symmetric_by_construction:
            raise ValueError(f"this {self.kind} leaves the symmetric subspace; "
                             "use dense_output()")
        if self.kind in ("universal_cloner", "noisy_cloner"):
            return self._cloner_output(state, cap)
        check_occupation_route(self.d, self.M, (), cap=cap)
        preps, weights, _ = self._weighted_preps(state)
        kets = [np.linalg.eigh(s.entries)[1][:, -1] for s in preps]
        return prep_coords(np.array(kets), weights, self.M)

    def dense_output(self, state: DenseOperator,
                     cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
        """The output on (C^d)^{tensor M}, for every kind and the input of
        symmetric_output: the cloner output embedded, with each user
        depolarized in place, or the sum of w_i sigma_i^{tensor M}.

        Refused before anything large is allocated where build() refuses:
        at d^M * dim_in above `cap`.  With dim_in >= 2 the d^M x d^M output
        and its two transient copies then fit the byte budget of the cap.
        """
        dims = (self.d,) * self.M
        what = f"{self.M}-user {self.kind} output times its input"
        if self.kind in ("fixed_prep", "measure_prepare"):
            preps, weights, dim_in = self._weighted_preps(state)
            _check_cap(self.d ** self.M * dim_in, cap, what)
            return DenseOperator(sum(w * tensor_power(s, self.M, cap).entries
                                     for s, w in zip(preps, weights)), dims)
        _check_cloner_args(self.d, self.N, self.M)
        _check_cap(self.d ** self.M * sym_dim(self.d, self.N), cap, what)
        coords = self._cloner_output(state, cap)
        v = index_map(self.d, self.M, cap)
        rho = v.expand(v.expand(coords, 0), 1)
        if self.kind == "noisy_cloner":
            _check_depolarizing_weight(self.p)
            for t in range(self.M):
                _depolarize_factor(rho, dims, t, self.p)
        return DenseOperator(rho, dims)
