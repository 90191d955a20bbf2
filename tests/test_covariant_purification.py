"""Theorem2 by occupation blocks, and a covariant cloner swept once per channel.

purified_state roots the dense output one occupation block at a time, one
block for each column of index_map(d, M), wherever (rho + rho†)/2 is exactly
zero outside those blocks, and by one whole eigh otherwise.  Both cloners
are U-covariant, so their dense output on |0> depends on the spec alone and
commutes with every diagonal unitary: it is block diagonal by occupation,
and so is any preparation made only of diagonal states.
scenario._covariant_distances memoizes a cloner's theorem2 distances per
spec and K = max(ks).  The oracle is the whole-eigh route: the dense pair
ket of purify_perm_invariant, one eigh of the whole output, compressed to
pair coordinates.
"""

import sys

import numpy as np
import pytest

from symdist import scenario, symspace
from symdist.channels import SDIChannelSpec
from symdist.definetti import OccupationState, _sqrt_by_blocks, purified_state
from symdist.linalg import DEFAULT_DIM_CAP, DenseOperator, ResourceLimitError
from symdist.scenario import _covariant_distances, run_scenario, scenario_from_dict

from dense_oracles import index_map, purify_perm_invariant

KINDS = ("universal_cloner", "noisy_cloner")
P = 0.1


def _channel(kind, d, n_in, m_users, p=P):
    channel = {"kind": kind, "d": d, "N": n_in, "M": m_users}
    return {**channel, "p": p} if kind == "noisy_cloner" else channel


def _theorem2(channel, seed=3, ks=None):
    ks = ks or range(1, min(channel["M"], 3) + 1)
    return scenario_from_dict({"schema": 1, "channel": channel,
                               "input": {"type": "random_pure", "seed": seed},
                               "k": list(ks), "checks": ["theorem2"]})


def _values(rows):
    """Each row without its seed and wall time, the two fields that a run on
    another input may change."""
    return [{c: v for c, v in row.to_dict().items() if c not in ("seed", "wall_time_ms")}
            for row in rows]


def _spy(monkeypatch):
    """The calls that dense_output, the sweep and numpy's eigh and eigvalsh
    see, by name."""
    calls = []

    def spied(owner, name):
        inner = getattr(owner, name)

        def call(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    spied(SDIChannelSpec, "dense_output")
    spied(OccupationState, "sweep")
    spied(np.linalg, "eigh")
    spied(np.linalg, "eigvalsh")
    return calls


def _whole_route(spec, phi, ks, cap=DEFAULT_DIM_CAP):
    """Theorem2's distance at each k of ks by one eigh of the whole output:
    purify_perm_invariant's dense pair ket, compressed to pair coordinates."""
    pairs = purify_perm_invariant(spec.dense_output(phi, cap)).entries[:, 0]
    coords = index_map(spec.d ** 2, spec.M, cap=pairs.size).compress(pairs)
    state = OccupationState(coords[None, :], spec.d, spec.M, paired=True)
    distance, _ = scenario._distances(state, ks, cap)
    return distance


def _assert_rows_match_the_whole_route(monkeypatch, cfg, rows):
    """Each row's distance within 1e-12 of _whole_route's, which takes
    exactly one eigh."""
    monkeypatch.undo()
    calls = _spy(monkeypatch)
    want = _whole_route(cfg.channel, cfg.phi, cfg.k_list)
    assert calls.count("eigh") == 1
    for row in rows:
        assert row.satisfied_theorem2
        assert abs(row.actual_distance - want[row.k]) <= 1e-12


def _squares(d, m_users):
    """The occupation blocks of (C^d)^{tensor M}, as purified_state takes
    them: one index square for each column of index_map(d, M)."""
    v = index_map(d, m_users)
    return [np.ix_(b, b) for b in np.split(v.order, v.starts[1:])]


# -- the memo -----------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_a_second_run_on_another_input_purifies_nothing(monkeypatch, kind):
    channel = _channel(kind, 2, 1, 5)
    first = run_scenario(_theorem2(channel, seed=3))
    calls = _spy(monkeypatch)
    second = run_scenario(_theorem2(channel, seed=4))
    assert calls == []
    assert [row.seed for row in second] == [4] * len(second)
    assert _values(second) == _values(first)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d,m_users,top", [(2, 5, 3), (2, 6, 6), (3, 3, 2)])
def test_every_ks_of_one_maximum_shares_one_entry(monkeypatch, kind, d, m_users, top):
    # each run is bit-identical to the same run from an empty memo
    channel = _channel(kind, d, 1, m_users)
    cold = []
    for ks in ([top], [1, top], range(1, top + 1)):
        _covariant_distances.cache_clear()
        cold.append((ks, run_scenario(_theorem2(channel, ks=ks))))
    _covariant_distances.cache_clear()
    for ks, want in cold:
        assert _values(run_scenario(_theorem2(channel, ks=ks))) == _values(want)
    info = _covariant_distances.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    calls = _spy(monkeypatch)
    run_scenario(_theorem2(channel, seed=5, ks=[top, 1]))
    assert calls == []


@pytest.mark.parametrize("field,value", [
    ("kind", "universal_cloner"), ("d", 3), ("N", 2), ("M", 4), ("p", 0.3),
    ("K", 2)])
def test_specs_that_differ_in_one_field_share_no_entry(monkeypatch, field, value):
    # the base, a noisy qubit cloner at p = 0, and the universal cloner have
    # the same output: the memo still keeps one entry each.  K is max(ks)
    base = _channel("noisy_cloner", 2, 1, 3, p=0.0)
    other = {**base, field: value}
    if value == "universal_cloner":
        del other["p"]
    ks = range(1, 3) if field == "K" else None
    other.pop("K", None)
    run_scenario(_theorem2(base))
    calls = _spy(monkeypatch)
    got = run_scenario(_theorem2(other, ks=ks))
    assert calls.count("dense_output") == 1 and calls.count("sweep") == 1
    assert _covariant_distances.cache_info().currsize == 2
    monkeypatch.undo()
    _covariant_distances.cache_clear()
    assert _values(got) == _values(run_scenario(_theorem2(other, ks=ks)))


def test_a_refused_or_failing_run_caches_nothing(monkeypatch):
    cfg = _theorem2(_channel("noisy_cloner", 2, 1, 5))
    with pytest.raises(ResourceLimitError):
        run_scenario(cfg, cap=2 ** 4)
    assert _covariant_distances.cache_info().currsize == 0
    for fails in ("eigh", "eigvalsh"):  # the square root's, or a distance's
        def broken(*args, fails=fails, **kwargs):
            raise np.linalg.LinAlgError(f"{fails} did not converge")

        monkeypatch.setattr(np.linalg, fails, broken)
        with pytest.raises(np.linalg.LinAlgError, match=fails):
            run_scenario(cfg)
        assert _covariant_distances.cache_info().currsize == 0
        monkeypatch.undo()
    assert all(row.satisfied_theorem2 for row in run_scenario(cfg))
    assert _covariant_distances.cache_info().currsize == 1


def test_the_cached_coordinates_are_read_only():
    # the purification's coordinates, and the memo's distances, a tuple
    cfg = _theorem2(_channel("noisy_cloner", 2, 1, 4))
    rows = run_scenario(cfg)
    state = purified_state(cfg.channel.dense_output(None))
    assert not state.coords.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        state.coords[0, 0] = 0.0
    cached = _covariant_distances(cfg.channel, 3, DEFAULT_DIM_CAP)
    assert _covariant_distances.cache_info().hits == 1
    assert type(cached) is tuple and all(type(x) is float for x in cached)
    assert cached == tuple(row.actual_distance for row in rows)
    with pytest.raises(TypeError):
        cached[0] = 0.0


def test_emptying_every_symdist_memo_makes_the_next_run_purify(monkeypatch):
    # as perfbench's worker and test_oracles empty them, by cache_clear
    cfg = _theorem2(_channel("universal_cloner", 2, 1, 4))
    first = run_scenario(cfg)
    for name, mod in list(sys.modules.items()):
        if name == "symdist" or name.startswith("symdist."):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()
    assert not symspace._INDEX_MAPS and not symspace._SPLIT_TABLES
    assert _covariant_distances.cache_info().currsize == 0
    calls = _spy(monkeypatch)
    assert _values(run_scenario(cfg)) == _values(first)
    assert calls.count("dense_output") == 1 and calls.count("eigh") == 5
    assert calls.count("sweep") == 1 and calls.count("eigvalsh") == 3


# -- the blocks ---------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d,m_users", [(2, 2), (2, 6), (2, 9), (3, 2), (3, 4), (3, 5),
                                       (4, 2), (4, 3), (4, 4)])
def test_the_output_is_zero_outside_the_occupation_blocks(kind, d, m_users):
    v = index_map(d, m_users)
    outside = v.col[:, None] != v.col[None, :]
    for n_in in sorted({1, min(2, m_users), m_users}):
        spec = SDIChannelSpec.from_json(_channel(kind, d, n_in, m_users))
        rho = spec.dense_output(None).entries
        assert np.all(rho[outside] == 0.0)
        assert np.abs(rho[~outside]).max() > 0.0


COVARIANT = [(kind, d, n_in, m_users) for kind in KINDS for d in (2, 3, 4)
             for m_users in range(1, 11) if d ** m_users <= 2 ** 10
             for n_in in range(1, m_users + 1)]


@pytest.mark.parametrize("kind,d,n_in,m_users", COVARIANT)
def test_the_block_root_matches_one_whole_eigh(kind, d, n_in, m_users):
    """The root by blocks squares to the output within 1e-13, and it matches
    the root by one whole eigh where that is determined.  A noisy output
    has no zero eigenvalue: within 1e-13, plus the whole eigh's backward
    error, about 1e-16, over 2 sqrt(lambda_min) (1.1e-12 is met at
    (2, 8, 10), where lambda_min is 1e-12).  The universal cloner's output
    has zero eigenvalues, which both eighs return as roundoff of about
    1e-17 and both roots lift to about 1e-8 (8.4e-9 is met): within 1e-13
    on the output's range (its eigenvalues above 1e-12, the rest at least
    1e-6), and 1e-7 off it."""
    spec = SDIChannelSpec.from_json(_channel(kind, d, n_in, m_users))
    rho = spec.dense_output(None).entries
    got = _sqrt_by_blocks(rho.copy(), _squares(d, m_users))
    assert np.abs(got @ got - rho).max() <= 1e-13
    vals, vecs = np.linalg.eigh(rho)
    diff = got - (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    if kind == "noisy_cloner":
        assert np.abs(diff).max() <= 1e-13 + 1e-16 / np.sqrt(vals[0])
        return
    kept = vals > 1e-12
    assert vals[kept].min() > 1e-6
    on_range = vecs[:, kept].T @ diff @ vecs[:, kept]
    assert np.abs(on_range).max() <= 1e-13
    assert np.abs(diff).max() <= 1e-7


THEOREM2 = [(kind, d, n_in, m_users) for kind in KINDS
            for d, top in ((2, 8), (3, 5)) for m_users in range(1, top + 1)
            for n_in in (1, 2) if n_in <= m_users]


@pytest.mark.parametrize("kind,d,n_in,m_users", THEOREM2)
def test_theorem2_rows_match_the_whole_eigh_route(monkeypatch, kind, d, n_in, m_users):
    cfg = _theorem2(_channel(kind, d, n_in, m_users))
    calls = _spy(monkeypatch)
    blocks = run_scenario(cfg)
    assert calls.count("eigh") == len(_squares(d, m_users))
    _assert_rows_match_the_whole_route(monkeypatch, cfg, blocks)


# -- every kind ---------------------------------------------------------------


def _matrix(rows):
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in rows]


def _mixed_diag(d, i=0):
    """diag(0.7 at i, 0.3/(d - 1) elsewhere)."""
    return np.diag([0.7 if j == i else 0.3 / (d - 1) for j in range(d)])


def _preparation(kind, d, m_users, preps):
    """A fixed_prep of preps[0], or a measure_prepare that measures the
    basis and prepares preps[i] on outcome i."""
    if kind == "fixed_prep":
        return {"kind": kind, "d": d, "M": m_users, "prep": [_matrix(preps[0])]}
    povm = [_matrix(np.diag(np.eye(d)[i])) for i in range(d)]
    return {"kind": kind, "d": d, "M": m_users, "povm": povm,
            "prep": [_matrix(sigma) for sigma in preps]}


DIAGONAL = [(kind, d, m_users) for kind in ("fixed_prep", "measure_prepare")
            for d, top in ((2, 8), (3, 5)) for m_users in range(1, top + 1)]


@pytest.mark.parametrize("kind,d,m_users", DIAGONAL)
def test_a_preparation_of_diagonal_states_takes_the_blocks(monkeypatch, kind, d, m_users):
    preps = [_mixed_diag(d, i) for i in range(d)]
    cfg = _theorem2(_preparation(kind, d, m_users, preps), ks=range(1, min(m_users, 2) + 1))
    calls = _spy(monkeypatch)
    rows = run_scenario(cfg)
    assert calls.count("eigh") == len(_squares(d, m_users))
    _assert_rows_match_the_whole_route(monkeypatch, cfg, rows)


PLUS = np.full((2, 2), 0.5)
OFF_BLOCKS = [
    ("fixed_prep", [PLUS]),
    ("measure_prepare", [np.diag([0.9, 0.1]), np.array([[0.3, 0.2], [0.2, 0.7]])]),
    ("measure_prepare", [_mixed_diag(2), 0.9 * _mixed_diag(2, 1) + 0.1 * PLUS]),
]


@pytest.mark.parametrize("kind,preps", OFF_BLOCKS, ids=["plus", "mixed-preps", "one-plus"])
@pytest.mark.parametrize("m_users", [2, 4, 6])
def test_an_entry_off_the_blocks_takes_one_whole_eigh(monkeypatch, kind, preps, m_users):
    cfg = _theorem2(_preparation(kind, 2, m_users, preps), ks=[1, 2])
    calls = _spy(monkeypatch)
    rows = run_scenario(cfg)
    assert calls.count("eigh") == 1
    _assert_rows_match_the_whole_route(monkeypatch, cfg, rows)


def test_a_single_entry_off_the_blocks_takes_one_whole_eigh(monkeypatch):
    # the maximally mixed state of 3 qubits with one symmetric pair of
    # entries of 1e-300 between |000> and |111>, which every permutation fixes
    m_users = 3
    rho = np.eye(2 ** m_users) / 2 ** m_users
    rho[0, -1] = rho[-1, 0] = 1e-300
    calls = _spy(monkeypatch)
    purified_state(DenseOperator(rho, (2,) * m_users))
    assert calls.count("eigh") == 1
    rho[0, -1] = rho[-1, 0] = 0.0
    calls.clear()
    purified_state(DenseOperator(rho, (2,) * m_users))
    assert calls.count("eigh") == len(_squares(2, m_users))
