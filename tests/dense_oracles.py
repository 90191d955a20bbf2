"""The dense oracles that the tests check symdist's run path against.

Everything here works on (C^d)^{tensor M} with explicit matrices, the way
the paper writes it: the Choi form of each channel kind (Werner's optimal
universal cloner, PRA 58, 1827 (1998), a constant preparation, the noisy
cloner, a measure-and-prepare channel), its application to an input in the
lab frame, the turn of a cloner's output into its input's frame, the
partial trace, whole permutations of factors, the symmetrizer, the index
map under a cap on its side and the embedding of occupation coordinates,
the dense pair purification, the split-table form of a cloner's diagonal,
and the tensor power, the kron chain of one matrix that a preparation's
output stacks.  No run path needs any of it, so
none of it lives in the package: symdist keeps only what a run enters, and
these functions are what its results are compared with.  The oracles take
their kets as (dim, 1) DenseOperators, built by `ket`; symdist's channels
take plain 1-D arrays.

A Choi matrix lives on (output tensor input), output factors first, in a
symdist.channels.QuantumChannel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from symdist.channels import (
    SUPPORT_TOL,
    QuantumChannel,
    SDIChannelSpec,
    SupportError,
    _check_cloner_args,
    _check_depolarizing_weight,
    _depolarize_factor,
    _plain_ket,
    _validated_povm,
)
from symdist.definetti import OccupationState, _uniform_square
from symdist.linalg import (
    DEFAULT_DIM_CAP,
    DenseOperator,
    ResourceLimitError,
    _as_dims,
    swap_residual,
    validate_state,
)
from symdist.symspace import (IndexMap, _index_map, _rank, plan, power_coords, split_table,
                              sym_dim)

# -- linear algebra -----------------------------------------------------------


def _check_cap(dim: int, cap: int, what: str) -> None:
    """The side guard of the oracles that build d^n-side matrices, which
    no plan sizes."""
    if dim > cap:
        raise ResourceLimitError(
            f"{what} would have dimension {dim}, exceeding the cap {cap}"
        )


def ket(coeffs, dims=None) -> DenseOperator:
    """Column vector as a (dim, 1) operator with trivial column space: the
    oracles' own input kets."""
    v = np.array(coeffs, dtype=complex).reshape(-1, 1)
    rd = (v.shape[0],) if dims is None else _as_dims(dims)
    return DenseOperator(v, rd, ())


def tensor_power(a: DenseOperator, n: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """a^{tensor n} in a's dtype, entry for entry the chain of n np.kron
    products: each step a broadcast outer product, refused past the cap.
    The oracle for a preparation's dense output, one matrix at a time."""
    if n < 0:
        raise ValueError("tensor power requires n >= 0")
    x, out = a.entries, np.ones((1, 1), dtype=a.entries.dtype)
    for _ in range(n):
        rows, cols = out.shape[0] * x.shape[0], out.shape[1] * x.shape[1]
        _check_cap(max(rows, cols), cap, "tensor product")
        out = (out[:, None, :, None] * x[None, :, None, :]).reshape(rows, cols)
    return DenseOperator(out, a.row_dims * n, a.col_dims * n)


def _ket_entries(phi: DenseOperator, dim: int, what: str = "channel input") -> np.ndarray:
    """The entries of the (dim, 1) operator phi, checked to be a unit ket of
    side `dim` as the channels check theirs."""
    if phi.shape[1] != 1:
        raise ValueError("expected a ket")
    return _plain_ket(phi.entries[:, 0], dim, what)


def _on_axis(f, x: np.ndarray, axis: int) -> np.ndarray:
    """f, which acts along axis 0, applied along `axis` of x."""
    return np.moveaxis(f(np.moveaxis(x, axis, 0)), 0, axis)


def identity(dims) -> DenseOperator:
    """The identity on `dims`."""
    dims = _as_dims(dims)
    return DenseOperator(np.eye(math.prod(dims)), dims)


def basis_ket(d: int, i: int) -> DenseOperator:
    """|i> in C^d."""
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


def tensor_product(a: DenseOperator, b: DenseOperator,
                   cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    _check_cap(max(rows, cols), cap, "tensor product")
    return DenseOperator(np.kron(a.entries, b.entries),
                         a.row_dims + b.row_dims, a.col_dims + b.col_dims)


def _validated_keep(keep, n: int) -> tuple[int, ...]:
    keep = tuple(int(t) for t in keep)
    if any(t < 0 or t >= n for t in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep indices {keep} contain duplicates")
    return tuple(sorted(keep))


def partial_trace(x: DenseOperator, keep) -> DenseOperator:
    """Trace out every factor not listed in `keep` (kept factors stay in order).

    An empty `keep` returns the 1x1 operator holding Tr[x].  The oracle for
    the marginals, and for OccupationState's k-user step, which traces the
    pair ancillas out of occupation coordinates with one gather.
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

    The oracle for whole permutations (U X U†) that swap_residual and the
    symmetrizer are checked against."""
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


# -- the symmetric subspace ---------------------------------------------------


def index_map(d: int, n: int, cap: int = DEFAULT_DIM_CAP) -> IndexMap:
    """The isometry V of Sym^n(C^d) as an index map; refuses d^n > cap."""
    sym_dim(d, n)  # validates d, n
    _check_cap(d ** n, cap, f"symmetric basis on {n} factors of dimension {d}")
    return _index_map(d, n)


def symmetrizer(d: int, n: int, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """Orthogonal projector onto the symmetric subspace of (C^d)^{tensor n};
    runs keep it as the identity on Sym^n."""
    index_map(d, n, cap)  # the cap, before the s_n x s_n identity is built
    return embed_coords(np.eye(sym_dim(d, n)), d, n, cap)


def index_map_by_outer_sums(d: int, n: int) -> IndexMap:
    """The index map as symspace built it before it went factor by factor:
    entry i of the occupation of flat index x counts its digits equal to i,
    the outer sum of n indicators of i (0 if n = 0), ranked at once, which
    costs O(d d^n)."""
    entries = (reduce(np.add.outer, [e] * n or [0 * e[:1]]).ravel()
               for e in np.eye(d, dtype=np.int64))
    col = _rank(entries, d, n, np.zeros(d ** n, dtype=np.int64))
    mult = np.bincount(col, minlength=sym_dim(d, n))
    scale = 1.0 / np.sqrt(mult)
    order = col.argsort(kind="stable")
    starts = np.add.accumulate(mult) - mult
    return IndexMap(col, scale[col], scale, order, starts)


def embed_coords(x: np.ndarray, d: int, n: int,
                 cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """V x V†: an operator given in occupation coordinates (a 1-D x: its
    diagonal), on (C^d)^{tensor n}.

    The oracle for results in occupation coordinates, such as the k-user
    results of OccupationState.sweep, and for symmetrizer."""
    x = np.diag(x) if x.ndim == 1 else x
    v = index_map(d, n, cap)
    return DenseOperator(_on_axis(v.expand, v.expand(x), 1), (d,) * n)


def coords_matrix(x: np.ndarray) -> np.ndarray:
    """The s x s matrix that a state's occupation coordinates stand for, as
    OccupationState holds them: np.diag of a diagonal (1-D x), or
    sum_j x_j x_j† of the rows x_j of a stack of kets (2-D x)."""
    return np.diag(x) if x.ndim == 1 else x.T @ x.conj()


def kets_of(rho: np.ndarray) -> np.ndarray:
    """Rows sqrt(lam_i) u_i, one for each eigenpair of the s x s PSD matrix
    rho (eigenvalues below 0 count as 0): the stack of kets that stands for
    rho, so that coords_matrix(kets_of(rho)) is rho within roundoff."""
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    return (vecs * np.sqrt(np.maximum(vals, 0.0))).T


def prep_coords(kets: np.ndarray, weights, M: int) -> np.ndarray:
    """sum_j weights[j] (phi_j phi_j†)^{tensor M} for the rows phi_j of
    `kets`, as an s_M x s_M matrix in occupation coordinates: the oracle
    for the preparations' stack of kets, coords_matrix of which it is."""
    v = power_coords(kets, M)
    return (v.T * np.asarray(weights)) @ v.conj()


def symmetric_state(rho: DenseOperator,
                    cap: int = DEFAULT_DIM_CAP) -> OccupationState:
    """V† rho V, after checking that rho lies in the symmetric subspace, held
    as its kets_of: the oracle for symmetric_output, its coordinates and its
    support decision."""
    d, m = _uniform_square(rho, "rho_out")
    plan(d, m, route="dense", purify=False, cap=cap)
    v = index_map(d, m, cap)
    coords = _on_axis(v.compress, v.compress(rho.entries), 1)
    resid = float(np.max(np.abs(rho.entries - _on_axis(v.expand, v.expand(coords), 1))))
    if resid > SUPPORT_TOL:
        raise SupportError(
            f"rho_out leaves the symmetric subspace (residual {resid:.3e}); "
            "the sampled mixture only reproduces symmetric-support marginals")
    return OccupationState(kets_of(coords), d, m)


def purify_perm_invariant(rho: DenseOperator) -> DenseOperator:
    """|Phi> = (sqrt(rho) tensor 1)|Omega> as a ket on M factors of dimension
    d^2, factor j the pair (system j, ancilla j), the system the more
    significant digit: the dense pair ket, the oracle for purified_state,
    whose coordinates V expands to it.  rho is taken as given, unchecked."""
    d, m = _uniform_square(rho, "rho")
    vals, vecs = np.linalg.eigh(0.5 * (rho.entries + rho.entries.conj().T))
    sq = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
    order = [ax for j in range(m) for ax in (j, m + j)]
    phi = sq.reshape((d,) * (2 * m)).transpose(order).reshape(-1, 1)
    return DenseOperator(phi / np.linalg.norm(phi), (d * d,) * m, ())


# -- channels in Choi form ----------------------------------------------------


def apply(ch: QuantumChannel, rho: DenseOperator) -> DenseOperator:
    """Channel output for input state rho (in the channel's input
    coordinates): the oracle for SDIChannelSpec's outputs."""
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise ValueError(
            f"input has shape {rho.shape}, channel expects {(ch.dim_in, ch.dim_in)}"
        )
    choi = ch.choi.entries.reshape(ch.dim_out, ch.dim_in, ch.dim_out, ch.dim_in)
    out = np.einsum("aibj,ij->ab", choi, rho.entries)
    return DenseOperator(out, ch.out_factors)


def universal_cloner(d: int, N: int, M: int,
                     cap: int = DEFAULT_DIM_CAP) -> QuantumChannel:
    """Optimal universal N -> M cloner for d-dimensional systems.

    Input is a state on the symmetric subspace of N copies, in occupation
    coordinates (dim sym_dim(d, N)); output is on M full factors.  The map is
    X -> (s_N/s_M) P_M (V_N X V_N† tensor 1^{M-N}) P_M with P_M the
    symmetrizer, realized through d^{M-N} Kraus operators: the oracle for
    cloner_diagonal and dense_output.
    """
    _check_cloner_args(d, N, M)
    s_in = sym_dim(d, N)
    _check_cap(d ** M, cap, f"{M}-user cloner output")
    _check_cap(d ** M * s_in, cap, f"{M}-user cloner Choi matrix")
    v_n = DenseOperator(index_map(d, N, cap).expand(np.eye(s_in)),
                        (d,) * N, (s_in,))
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


def split_cloner_diagonal(d: int, N: int, M: int) -> np.ndarray:
    """cloner_diagonal as the split table gives it: (s_N/s_M) sum_b
    B_b |n><n| B_b† over b in Sym^{M-N}, where n = (N, 0, ..., 0) and
    B_b|n> = c(n+b; n)|n+b> is P_M restricted to |n>|b>, so each b lands on
    its own diagonal entry n + b.  The oracle for Werner's closed form."""
    _check_cloner_args(d, N, M)
    t = split_table(d, M, N)
    out = np.zeros(sym_dim(d, M))
    out[t.whole[0]] = (sym_dim(d, N) / sym_dim(d, M)) * t.whole_coef[0] ** 2
    return out


def fixed_prep_channel(sigma: DenseOperator, M: int,
                       cap: int = DEFAULT_DIM_CAP) -> QuantumChannel:
    """Discard the input, hand every one of the M users a copy of sigma:
    the oracle for the fixed_prep outputs."""
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    validate_state(sigma.entries, name="prepared state")
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


def noisy_cloner(d: int, N: int, M: int, p: float,
                 cap: int = DEFAULT_DIM_CAP) -> QuantumChannel:
    """Universal cloner followed by independent depolarizing noise per user.

    For p > 0 the output leaks out of the symmetric subspace while staying
    permutation invariant, which is exactly the regime the general (pair-
    purified) approximation machinery exists for.  The oracle for the
    noisy_cloner outputs.
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


def measure_prepare(povm: list[DenseOperator], preps: list[DenseOperator], M: int,
                    cap: int = DEFAULT_DIM_CAP) -> QuantumChannel:
    """Measure the input with a POVM, hand all M users copies keyed to the
    outcome: the oracle for the measure_prepare outputs."""
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    dim_in = _validated_povm([e.entries for e in povm], len(preps)).shape[1]
    d = preps[0].shape[0]
    for idx, s in enumerate(preps):
        validate_state(s.entries, name=f"prepared state {idx}")
        if s.shape != (d, d):
            raise ValueError(f"prepared state {idx} has shape {s.shape}")
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


def _sym_power_ket(phi: DenseOperator, d: int, n_copies: int) -> np.ndarray:
    """phi^{tensor n_copies} in occupation coordinates."""
    u = _ket_entries(phi, d, "single-copy dimension")
    x = power_coords(u, n_copies)
    return x / np.linalg.norm(x)  # a unit vector already; scrub roundoff


def embed_pure_input(ch: QuantumChannel, phi: DenseOperator) -> DenseOperator:
    """Density matrix, in the channel's input coordinates, for N copies of phi.

    Channels carrying in_isometry take phi^{tensor N} re-expressed in symmetric
    coordinates; all others take phi directly (dim must match dim_in).
    """
    if ch.in_isometry is None:
        x = _ket_entries(phi, ch.dim_in)
    else:
        x = _sym_power_ket(phi, ch.in_isometry.row_dims[0],
                           len(ch.in_isometry.row_dims))
    return DenseOperator(np.outer(x, x.conj()), (ch.dim_in,))


def frame_unitary(phi: DenseOperator) -> np.ndarray:
    """A unitary U with U|0> = phi: a QR completion of phi, its first column
    rephased onto phi."""
    u = _ket_entries(phi, phi.shape[0])
    q, r = np.linalg.qr(np.column_stack([u, np.eye(u.size)[:, 1:]]))
    q[:, 0] *= r[0, 0]
    return q


def in_input_frame(rho: DenseOperator, phi: DenseOperator) -> DenseOperator:
    """U^{†tensor M} rho U^{tensor M} for U = frame_unitary(phi): a cloner's
    output on phi, seen in phi's frame, where symdist gives it.  The cloners
    are U-covariant, so this is their output on |0>."""
    u = frame_unitary(phi)
    full = np.ones((1, 1))
    for _ in rho.row_dims:
        full = np.kron(full, u)
    return DenseOperator(full.conj().T @ rho.entries @ full, rho.row_dims)


@dataclass(frozen=True)
class SDIReport:
    """Outcome of validate_sdi: permutation_invariant reports the channel's
    invariance, symmetric_support whether the output support lies in the
    symmetric subspace.
    """

    max_permutation_residual: float
    permutation_invariant: bool
    support_residual: float
    symmetric_support: bool


def validate_sdi(ch: QuantumChannel) -> SDIReport:
    """Check invariance under permutations of the output users, within 1e-9.

    Adjacent transpositions generate the symmetric group, so the residual is
    maximized over conjugations by (t, t+1) swaps at the Choi level.  Also
    reports how far the output support sticks out of the symmetric subspace
    for any input: the oracle for the support that symmetric_output decides
    and for the permutation invariance of the built channels.
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
    compressed = _on_axis(v.compress, v.compress(c4), 2)
    proj = _on_axis(v.expand, v.expand(compressed), 2)
    support_residual = float(np.max(np.abs(c4 - proj)))
    return SDIReport(
        max_permutation_residual=resid,
        permutation_invariant=resid <= 1e-9,
        support_residual=support_residual,
        symmetric_support=support_residual <= SUPPORT_TOL,
    )


# -- channel specs --------------------------------------------------------------


def build(spec: SDIChannelSpec, cap: int = DEFAULT_DIM_CAP) -> QuantumChannel:
    """The channel of `spec` in Choi form: the oracle for symmetric_output
    and dense_output."""
    if spec.kind == "universal_cloner":
        return universal_cloner(spec.d, spec.N, spec.M, cap=cap)
    if spec.kind == "noisy_cloner":
        return noisy_cloner(spec.d, spec.N, spec.M, spec.p, cap=cap)
    preps = [DenseOperator(s, (spec.d,)) for s in spec.prep]
    if spec.kind == "fixed_prep":
        return fixed_prep_channel(preps[0], spec.M, cap=cap)
    povm = [DenseOperator(e, (len(e),)) for e in spec.povm]
    return measure_prepare(povm, preps, spec.M, cap=cap)


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def to_json(spec: SDIChannelSpec) -> dict:
    """The JSON object that SDIChannelSpec.from_json reads: the oracle for
    round trips through from_json."""
    return {
        "kind": spec.kind,
        "d": spec.d,
        "N": spec.N,
        "M": spec.M,
        "p": spec.p,
        "prep": None if spec.prep is None else [_matrix_to_json(m) for m in spec.prep],
        "povm": None if spec.povm is None else [_matrix_to_json(m) for m in spec.povm],
    }
