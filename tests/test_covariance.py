"""The cloners' runs, taken in their input's frame, against the lab frame.

The universal and the noisy cloner are U-covariant (Werner, PRA 58, 1827
(1998)): their output on U|0> is U^{tensor M} applied to the output on |0>.
So symdist runs them on |0>, and every row of a run must equal what the
dense oracles give in the lab frame at the input ket phi itself: apply on
the Choi matrix at phi, its marginals by partial_trace, the mixtures by the
kernels on V† rho V (lemma1) or on the pair purification of rho
(theorem2), each distance by the eigenvalues of a difference at side d^k,
and the fidelities <phi|rho_1|phi> and <phi|tilde_1|phi>.
"""

import numpy as np
import pytest

from symdist.channels import SDIChannelSpec
from symdist.definetti import purified_state, reduce_coords
from symdist.metrics import helstrom_perr, trace_distance
from symdist.scenario import run_scenario, scenario_from_dict
from symdist.symspace import sym_dim

from conftest import dense_users
from dense_oracles import (
    apply,
    build,
    embed_coords,
    embed_pure_input,
    ket,
    partial_trace,
    symmetric_state,
    to_json,
)

TOL = 1e-12
KETS = 5
# the Choi matrix has side d^M s_N: at most 1458 (34 MB) here; d = 3 at
# M = 6 would take 2187 and 4374 (76 and 306 MB)
MAX_M = {2: 6, 3: 5}
# the pair route's gathers, s_k(d^2)^2 s_{M+k}(d^2) terms for each k
MAX_PAIR_GATHER = 2 ** 22

SPECS = [
    *[SDIChannelSpec("universal_cloner", d=d, M=m, N=n)
      for d in (2, 3) for n in (1, 2) for m in range(n, MAX_M[d] + 1)],
    *[SDIChannelSpec("noisy_cloner", d=d, M=m, N=1, p=p)
      for d in (2, 3) for p in (0.05, 0.3) for m in range(1, MAX_M[d] + 1)],
]


def _label(spec):
    return f"{spec.kind}-d{spec.d}-N{spec.N}-M{spec.M}-p{spec.p}"


def _ks(spec):
    if spec.kind == "universal_cloner":
        return list(range(1, spec.M + 1))
    q = spec.d ** 2
    return [k for k in range(1, spec.M + 1)
            if sym_dim(q, k) ** 2 * sym_dim(q, spec.M + k) <= MAX_PAIR_GATHER]


def _lab_frame(spec, ch, phi, ks):
    """{k: distance}, and at k = 1 the two single-user states on C^d."""
    rho = apply(ch, embed_pure_input(ch, phi))
    d, m = spec.d, spec.M
    if spec.kind == "universal_cloner":
        coords = symmetric_state(rho).coords
        mixtures = {k: embed_coords(reduce_coords(coords, d, m, k, ket=True), d, k)
                    for k in ks}
    else:
        pairs = purified_state(rho)
        mixtures = {k: dense_users(pairs, k)[1] for k in ks}
    marginals = {k: partial_trace(rho, range(k)) for k in ks}
    distance = {k: trace_distance(marginals[k].entries, mixtures[k].entries)
                for k in ks}
    return distance, marginals[1].entries, mixtures[1].entries


@pytest.mark.parametrize("spec", SPECS, ids=_label)
def test_input_frame_rows_match_the_lab_frame(spec):
    ch, ks = build(spec), _ks(spec)
    checks = (["lemma1", "perr", "fidelity_gap"]
              if spec.kind == "universal_cloner" else ["theorem2"])
    rng = np.random.default_rng([spec.d, spec.M, spec.N, int(100 * (spec.p or 0))])
    for _ in range(KETS):
        z = rng.standard_normal(spec.d) + 1j * rng.standard_normal(spec.d)
        u = z / np.linalg.norm(z)
        rows = run_scenario(scenario_from_dict({
            "schema": 1, "channel": to_json(spec), "k": ks, "checks": checks,
            "input": {"type": "pure", "coeffs": [[x.real, x.imag] for x in u]},
        }))
        distance, rho_1, tilde_1 = _lab_frame(spec, ch, ket(u), ks)
        assert [row.k for row in rows] == ks
        for row in rows:
            assert abs(row.actual_distance - distance[row.k]) <= TOL
            assert row.satisfied_lemma1 or row.satisfied_theorem2
        if spec.kind == "universal_cloner":
            first = rows[0]
            assert abs(first.p_err - helstrom_perr(distance[1])) <= TOL
            assert abs(first.F_clon - np.vdot(u, rho_1 @ u).real) <= TOL
            assert abs(first.F_tilde - np.vdot(u, tilde_1 @ u).real) <= TOL
            assert first.satisfied_perr and first.satisfied_fidelity_gap
