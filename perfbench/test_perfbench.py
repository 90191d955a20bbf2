"""Checks of the benchmark's own machinery (not part of the repository's tests).

    python3 -m pytest perfbench -q

Set PERFBENCH_FULL_SUITE=1 to also trace the full `symdist suite --seed 42`
(10^5 draws per Monte Carlo check; several minutes on a 2-core box).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import symdist  # noqa: E402
from symdist import channels, cli, linalg, metrics, scenario  # noqa: E402

import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def _expected_suite_counts(seed: int, samples: int) -> dict:
    """Call counts implied by default_suite when every MC check draws `samples`."""
    suite = scenario.default_suite(seed)
    mc_scenarios = sum("mc_crosscheck" in s["checks"] for s in suite)
    moment_checks = 4
    # a random_pure input is drawn once for the channel input and once more
    # for the fidelity check's reference ket
    input_draws = sum((1 + ("fidelity_gap" in s["checks"]))
                      for s in suite if s["input"]["type"] == "random_pure")
    draws = samples * (mc_scenarios + moment_checks)
    return {"scenario.run_scenario.calls": len(suite),
            "channels.validate_sdi.calls": len(suite),
            "definetti.mc_approx_reduced.calls": mc_scenarios + moment_checks,
            "definetti.mc_approx_reduced.draws": draws,
            "symspace.haar_sample.calls": draws + input_draws,
            "rows": sum(len(s["k"]) for s in suite) + moment_checks}


def _data_rows(csv_text: str) -> int:
    return sum(1 for line in csv_text.splitlines()
               if line and not line.startswith("d,N,M,k"))


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        out = fn()
    finally:
        tracer.uninstall()
    return out, tracer.snapshot()


def _check_suite(run, expected: dict) -> None:
    plain = run()
    traced, counts = _traced(run)
    assert traced == plain  # the tracer changes no output byte
    assert _data_rows(plain) == expected.pop("rows")
    for name, want in expected.items():
        assert counts[name] == want, name


def test_suite_pass_counts_and_bytes(tmp_path):
    samples = 500
    ops = worker.suite_ops(42, tmp_path, samples=samples)

    def run():
        result = worker.run_pass(ops)
        assert not result["errors"]
        return "".join(result["texts"])

    _check_suite(run, _expected_suite_counts(42, samples))


@pytest.mark.skipif(os.environ.get("PERFBENCH_FULL_SUITE") != "1",
                    reason="set PERFBENCH_FULL_SUITE=1 to trace the full suite")
def test_full_suite_counts_and_bytes():
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["suite", "--seed", "42"]) == 0
        return buf.getvalue()

    expected = _expected_suite_counts(42, 100_000)
    assert expected["definetti.mc_approx_reduced.draws"] == 500_000
    assert expected["symspace.haar_sample.calls"] == 500_010
    _check_suite(run, expected)


def test_every_binding_is_patched_and_restored():
    bindings = [(channels, "apply"), (scenario, "apply"), (metrics, "apply"),
                (symdist, "apply"), (scenario, "run_scenario"), (cli, "run_scenario")]
    originals = [getattr(mod, name) for mod, name in bindings]
    assert len({id(f) for f in originals}) == 2
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, name), original in zip(bindings, originals):
            wrapped = getattr(mod, name)
            assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in bindings] == originals
    assert linalg.DenseOperator.__post_init__.__qualname__ == "DenseOperator.__post_init__"


def test_self_time_excludes_child_spans():
    rho = linalg.DenseOperator([[0.75, 0.0], [0.0, 0.25]], (2,))
    sigma = linalg.DenseOperator([[0.5, 0.0], [0.0, 0.5]], (2,))
    dist, counts = _traced(lambda: metrics.trace_distance(rho, sigma))
    assert dist == pytest.approx(0.5)
    assert counts["linalg.herm_eigvals.calls"] == 3
    assert counts["metrics.trace_distance.total_s"] == pytest.approx(
        counts["metrics.trace_distance.self_s"] + counts["linalg.herm_eigvals.total_s"])
    assert counts["linalg.DenseOperator.constructed"] == 1  # rho - sigma
    assert counts["linalg.DenseOperator.bytes"] == 4 * 16


def test_reference_check_flags_a_changed_value(tmp_path):
    op = worker.exact_large_ops(42, tmp_path)[2]  # d=3 cloner, about 2 s
    text = op.run()
    table = worker.load_reference()["exact_large"]
    assert worker.check_op(op, text, table)[1] == []
    header, first, *rest = text.splitlines(keepends=True)
    cells = first.split(",")
    cells[6] = repr(float(cells[6]) + 1e-6)  # actual_distance
    changed = "".join([header, ",".join(cells), *rest])
    problems = worker.check_op(op, changed, table)[1]
    assert len(problems) == 1 and "actual_distance" in problems[0]


def _rung(tmp_path, d: int, m_users: int, mem_bytes: int) -> dict:
    out = tmp_path / "rung.json"
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    subprocess.run([sys.executable, str(HERE / "worker.py"), "rung", "--d", str(d),
                    "--M", str(m_users), "--mem-bytes", str(mem_bytes), "--out", str(out)],
                   env=env, check=True, timeout=120)
    return json.loads(out.read_text())


def test_rung_outcomes(tmp_path):
    assert _rung(tmp_path, 3, 4, 2 ** 31)["outcome"] == "ok"
    over_cap = _rung(tmp_path, 3, 6, 2 ** 31)
    assert over_cap["outcome"] == "limit" and "ResourceLimitError" in over_cap["detail"]
    over_memory = _rung(tmp_path, 2, 11, 2 ** 29)
    assert over_memory["outcome"] == "limit" and "MemoryError" in over_memory["detail"]
