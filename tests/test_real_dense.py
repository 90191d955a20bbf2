"""Theorem2's dense route runs in the dtype of its output.

Every cloner's output in its input's frame is real, and so is a
preparation channel's whose matrices are, so its purification, kernels and
distances run in float64: a spy on numpy's eigh and eigvalsh sees only
float64 there, and complex128 for a preparation with an imaginary part.
The real route's rows must equal those of the same run fed the output as
complex entries.
"""

import numpy as np
import pytest

from symdist.channels import SDIChannelSpec
from symdist.linalg import DenseOperator
from symdist import scenario
from symdist.scenario import _covariant_distances, run_scenario, scenario_from_dict
from symdist.symspace import sym_dim

TOL = 1e-13
REAL_PREP = [[[0.7, 0], [0.2, 0]], [[0.2, 0], [0.3, 0]]]
COMPLEX_PREP = [[[0.7, 0], [0.1, 0.2]], [[0.1, -0.2], [0.3, 0]]]
POVM = [[[[0.8, 0], [0, 0]], [[0, 0], [0.3, 0]]],
        [[[0.2, 0], [0, 0]], [[0, 0], [0.7, 0]]]]


def _channel(kind, d, m_users, prep=REAL_PREP):
    if kind == "universal_cloner":
        return {"kind": kind, "d": d, "N": 1, "M": m_users}
    if kind == "noisy_cloner":
        return {"kind": kind, "d": d, "N": 1, "M": m_users, "p": 0.2}
    if kind == "fixed_prep":
        return {"kind": kind, "d": d, "M": m_users, "prep": [prep]}
    return {"kind": kind, "d": d, "M": m_users, "prep": [prep, REAL_PREP], "povm": POVM}


def _theorem2(channel, ks):
    return scenario_from_dict({"schema": 1, "channel": channel,
                               "input": {"type": "random_pure", "seed": 3},
                               "k": list(ks), "checks": ["theorem2"]})


def _spied_run(monkeypatch, cfg):
    """The dtypes that eigh and eigvalsh see while cfg runs."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        def spy(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            seen.append((_name, np.asarray(a).dtype))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    run_scenario(cfg)
    return seen


@pytest.mark.parametrize("channel,dtype", [
    (_channel("universal_cloner", 2, 4), float),
    (_channel("universal_cloner", 3, 3), float),
    (_channel("noisy_cloner", 2, 4), float),
    (_channel("fixed_prep", 2, 4), float),
    (_channel("measure_prepare", 2, 4), float),
    (_channel("fixed_prep", 2, 4, COMPLEX_PREP), complex),
    (_channel("measure_prepare", 2, 4, COMPLEX_PREP), complex),
], ids=["cloner", "cloner-d3", "noisy", "prep", "measure", "complex-prep",
        "complex-measure"])
def test_eigensolvers_see_the_output_dtype(monkeypatch, channel, dtype):
    cfg = _theorem2(channel, (1, 2))
    assert cfg.channel.itemsize == np.dtype(dtype).itemsize
    seen = _spied_run(monkeypatch, cfg)
    # one eigh for the purification (a cloner's: one per occupation block),
    # one eigvalsh for each distance
    blocks = sym_dim(cfg.channel.d, cfg.channel.M) if cfg.channel.covariant else 1
    assert [name for name, _ in seen] == ["eigh"] * blocks + ["eigvalsh", "eigvalsh"]
    assert {t for _, t in seen} == {np.dtype(dtype)}


def test_a_json_field_is_real_where_its_imaginary_parts_are_zero():
    spec = scenario._channel(_channel("measure_prepare", 2, 3), "channel")
    assert spec.prep.dtype == spec.povm.dtype == float
    assert spec.dense_output(np.array([0.6, 0.8j])).entries.dtype == float
    # one complex entry makes its whole stacked field complex
    spec = scenario._channel(_channel("measure_prepare", 2, 3, COMPLEX_PREP),
                             "channel")
    assert (spec.prep.dtype, spec.povm.dtype) == (complex, float)
    assert spec.dense_output(np.array([0.6, 0.8j])).entries.dtype == complex


CASES = [(kind, 2, m) for kind in ("universal_cloner", "noisy_cloner", "fixed_prep",
                                   "measure_prepare") for m in range(1, 9)]
CASES += [(kind, 3, m) for kind in ("universal_cloner", "noisy_cloner") for m in (2, 4)]


@pytest.mark.parametrize("kind,d,m_users", CASES)
def test_real_rows_match_the_complex_run(monkeypatch, kind, d, m_users):
    """Every theorem2 row at k = 1..min(M, 3) of the real route, against the
    run whose dense output is cast to complex before it is purified."""
    cfg = _theorem2(_channel(kind, d, m_users), range(1, min(m_users, 3) + 1))
    real = run_scenario(cfg)
    dense_output = SDIChannelSpec.dense_output
    cast = []

    def as_complex(spec, *args, **kwargs):
        out = dense_output(spec, *args, **kwargs)
        assert out.entries.dtype == float
        cast.append(spec)
        return DenseOperator(out.entries.astype(complex), out.row_dims)

    monkeypatch.setattr(SDIChannelSpec, "dense_output", as_complex)
    # a cloner's distances are memoized by the first run: empty the memo,
    # so that the second run purifies the complex output
    _covariant_distances.cache_clear()
    complex_rows = run_scenario(cfg)
    assert cast == [cfg.channel]
    for got, want in zip(real, complex_rows, strict=True):
        assert abs(got.actual_distance - want.actual_distance) <= TOL
        assert got.satisfied_theorem2 and want.satisfied_theorem2
