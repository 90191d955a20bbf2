import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import symdist
from symdist import cli, scenario
from symdist.cli import BOUNDS_COLUMNS, main
from symdist.scenario import RECORD_COLUMNS, ResultRecord


NOISY3 = {"kind": "noisy_cloner", "d": 2, "N": 1, "M": 3, "p": 0.1}


def _qubit(a, b):
    """diag(a, b) as a JSON matrix of [re, im] pairs."""
    return [[[a, 0.0], [0.0, 0.0]], [[0.0, 0.0], [b, 0.0]]]


def fmt(x):
    return format(float(x), ".12g")


def expected_bounds_row(d, m, k):
    def s(dim, n):
        return math.comb(dim + n - 1, n)

    exact = 4 * (1 - math.sqrt(s(d, m - k) / s(d, m)))
    gen = 4 * (1 - math.sqrt(s(d * d, m - k) / s(d * d, m)))
    return ",".join([
        str(d), str(m), str(k),
        fmt(exact), fmt(2 * (d - 1) * k / m),
        fmt(gen), fmt(2 * (d * d - 1) * k / m),
        fmt(0.5 - (d - 1) / (2 * m)),
    ])


class TestBounds:
    def test_ten_user_row(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["bounds", "--d", "2", "--M", "10", "--k", "1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(BOUNDS_COLUMNS)
        assert lines[1] == expected_bounds_row(2, 10, 1)
        assert ",0.2," in lines[1] and ",0.6," in lines[1]
        assert lines[1].endswith("0.45")

    def test_sweep_to_stdout(self, capsys):
        rc = main(["bounds", "--d", "2", "3", "--M", "4", "8", "--k", "1", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 2 * 2 * 2
        assert lines[3] == expected_bounds_row(2, 8, 1)

    def test_bounds_bytes(self, capsys):
        # the table that render_rows writes for bounds, byte for byte
        argv = ["bounds", "--d", "2", "--M", "4", "--k", "1", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "d,M,k,bound_exact,bound_asymptotic,general_exact,"
            "general_asymptotic,p_err_bound\n"
            "2,4,1,0.422291236,0.5,0.976284215926,1.5,0.375\n"
            "2,4,2,0.901613323034,1,1.8619100647,3,0.375\n")
        assert main([*argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == """[
  {
    "d": 2,
    "M": 4,
    "k": 1,
    "bound_exact": 0.4222912360003365,
    "bound_asymptotic": 0.5,
    "general_exact": 0.9762842159261822,
    "general_asymptotic": 1.5,
    "p_err_bound": 0.375
  },
  {
    "d": 2,
    "M": 4,
    "k": 2,
    "bound_exact": 0.9016133230340665,
    "bound_asymptotic": 1.0,
    "general_exact": 1.8619100647006048,
    "general_asymptotic": 3.0,
    "p_err_bound": 0.375
  }
]
"""

    def test_exact_bound_at_large_m(self, capsys):
        # 4(1 - sqrt(r)) read 4.00000033096e-10 here; the true value is
        # 3.99999999940e-10 to 12 digits
        assert main(["bounds", "--M", "5000000000", "--k", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("2,5000000000,1,3.9999999994e-10,4e-10,")

    def test_json_format(self, capsys):
        rc = main(["bounds", "--M", "6", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["d"] == 2 and rows[0]["M"] == 6
        assert rows[0]["p_err_bound"] == pytest.approx(0.5 - 1 / 12)

    def test_k_larger_than_m_skipped(self, capsys):
        rc = main(["bounds", "--M", "2", "--k", "1", "5"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_no_rows_is_an_error(self, capsys):
        rc = main(["bounds", "--M", "2", "--k", "5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            main(["bounds"])


class TestRun:
    def test_flag_driven_cloner(self, capsys):
        rc = main(["run", "--kind", "universal_cloner", "--d", "2",
                   "--N", "1", "--M", "2", "--k", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == ",".join(RECORD_COLUMNS)
        cells = dict(zip(RECORD_COLUMNS, lines[1].split(",")))
        assert cells["F_clon"] == "0.833333333333"
        assert cells["satisfied_lemma1"] == "true"
        assert cells["wall_time_ms"] == ""

    def test_scenario_file_with_output_block(self, tmp_path, capsys):
        target = tmp_path / "rows.json"
        scenario = {
            "schema": 1,
            "channel": {"kind": "universal_cloner", "d": 2, "N": 1, "M": 2},
            "input": {"type": "pure", "coeffs": [[1.0, 0.0], [0.0, 0.0]]},
            "k": [1],
            "checks": ["lemma1"],
            "output": {"format": "json", "path": str(target)},
        }
        src = tmp_path / "scenario.json"
        src.write_text(json.dumps(scenario))
        rc = main(["run", str(src)])
        assert rc == 0
        rows = json.loads(target.read_text())
        assert rows[0]["M"] == 2
        assert rows[0]["satisfied_lemma1"] is True
        first = target.read_bytes()
        assert main(["run", str(src)]) == 0
        assert target.read_bytes() == first

    def test_file_entries_override_flags(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        src.write_text(json.dumps([{
            "channel": {"kind": "universal_cloner", "d": 2, "N": 1, "M": 3},
        }]))
        rc = main(["run", str(src), "--M", "2", "--k", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        cells = dict(zip(RECORD_COLUMNS, lines[1].split(",")))
        assert cells["M"] == "3"

    def test_timings_flag_fills_column(self, capsys):
        rc = main(["run", "--M", "2", "--k", "1", "--timings"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        cells = dict(zip(RECORD_COLUMNS, lines[1].split(",")))
        assert float(cells["wall_time_ms"]) > 0

    def test_bad_config_exits_one(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"schema": 1, "checks": ["lemma3"]}))
        rc = main(["run", str(src)])
        assert rc == 1
        assert "checks" in capsys.readouterr().err

    def test_boolean_k_exits_one(self, tmp_path, capsys):
        src = tmp_path / "bool.json"
        src.write_text(json.dumps({
            "schema": 1,
            "channel": {"kind": "universal_cloner", "d": 2, "N": 1, "M": 2},
            "input": {"type": "pure", "coeffs": [[1.0, 0.0], [0.0, 0.0]]},
            "k": [True],
            "checks": ["lemma1"],
        }))
        rc = main(["run", str(src)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "scenario.k[0]" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("entries", [[1], "x", [{"k": [1]}, 3]],
                             ids=["int", "string", "int-after-object"])
    def test_non_object_entry_exits_one(self, entries, tmp_path, capsys):
        src = tmp_path / "entries.json"
        src.write_text(json.dumps(entries))
        assert main(["run", str(src)]) == 1
        where = 1 if entries == [{"k": [1]}, 3] else 0
        assert f"scenario[{where}]: expected an object" in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        src = tmp_path / "broken.json"
        src.write_text("{nope")
        assert main(["run", str(src)]) == 1
        assert "error: scenario file is not valid JSON: " in capsys.readouterr().err

    def test_deeply_nested_file_exits_one(self, tmp_path, capsys):
        # json.loads raises RecursionError here, not JSONDecodeError
        src = tmp_path / "nested.json"
        src.write_text("[" * 200000 + "]" * 200000)
        assert main(["run", str(src)]) == 1
        assert ("error: scenario file is nested too deeply to parse"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", [["run"], ["suite"]])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_exits_one(self, command, cap, capsys):
        assert main([*command, "--cap", cap]) == 1
        assert (f"error: --cap must be at least 1, got {cap}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags", [["--d", "0"], ["--d", "-2"],
                                       ["--kind", "fixed_prep", "--d", "0"]],
                             ids=["cloner-0", "cloner-negative", "prep-0"])
    def test_local_dimension_below_one_exits_one(self, flags, capsys):
        # the flags' basis input and preparation have no |0> for d < 1
        assert main(["run", *flags]) == 1
        assert (f"error: scenario.channel: need d >= 1 and M >= 1, got d={flags[-1]}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags,channel,message", [
        (["--N", "0", "--M", "2"], None, "N: need 1 <= N <= M, got N=0, M=2"),
        (["--kind", "noisy_cloner", "--p", "1.5"], None,
         "p: depolarizing weight must be in [0, 1], got 1.5"),
        ([], {"kind": "fixed_prep", "prep": [[1.2, -0.2]]},
         "prep[0]: prepared state has negative eigenvalue -2.000e-01"),
        ([], {"kind": "fixed_prep", "prep": [[0.9, 0.0]]},
         "prep[0]: prepared state has trace (0.9+0j), expected 1"),
        ([], {"kind": "fixed_prep", "prep": [[1.0, 0.0, 0.0]]},
         "prep[0]: expected a 2 x 2 matrix, got shape (3, 3)"),
        ([], {"kind": "measure_prepare", "prep": [[1.0, 0.0], [0.0, 1.0]],
              "povm": [[1.0, 0.0], [0.0, 0.5]]},
         "povm: POVM elements do not sum to the identity within 1e-9"),
    ], ids=["N", "p", "prep-not-psd", "prep-trace", "prep-shape", "povm-sum"])
    def test_channel_field_errors_name_the_field(self, flags, channel, message,
                                                 tmp_path, capsys):
        # a scenario file gives each matrix by its diagonal here
        def diag(xs):
            return [[[x if i == j else 0.0, 0.0] for j in range(len(xs))]
                    for i, x in enumerate(xs)]

        if channel is not None:
            channel = {"d": 2, "M": 2, **channel}
            for field in ("prep", "povm"):
                if field in channel:
                    channel[field] = [diag(xs) for xs in channel[field]]
            src = tmp_path / "channel.json"
            src.write_text(json.dumps({"channel": channel, "checks": ["lemma1"]}))
            flags = [str(src)]
        assert main(["run", *flags]) == 1
        assert capsys.readouterr().err == f"error: scenario.channel: {message}\n"

    def test_cap_bounds_the_run(self, capsys):
        # the budget at cap 3 is one complex 3 x 3 matrix, 144 bytes
        assert main(["run", "--M", "3", "--cap", "3"]) == 1
        assert "exceeding the budget of 144 bytes" in capsys.readouterr().err
        assert main(["run", "--M", "3", "--cap", "64"]) == 0

    @pytest.mark.parametrize("p", ["1.5", "-0.1"])
    def test_depolarizing_weight_out_of_range_exits_one(self, p, capsys):
        rc = main(["run", "--kind", "noisy_cloner", "--M", "3", "--p", p,
                   "--checks", "theorem2"])
        assert rc == 1
        assert "depolarizing weight must be in [0, 1]" in capsys.readouterr().err

    @staticmethod
    def _qutrit_measurement(tmp_path, input_state, checks):
        """A scenario file: a measure_prepare whose POVM acts on C^3 and
        prepares qubits; outcome 1, the mixed state, never follows |0>."""
        def diag(*xs):
            return [[[x if i == j else 0.0, 0.0] for j in range(len(xs))]
                    for i, x in enumerate(xs)]

        src = tmp_path / "qutrit.json"
        src.write_text(json.dumps({
            "channel": {"kind": "measure_prepare", "d": 2, "M": 2,
                        "prep": [diag(1.0, 0.0), diag(0.5, 0.5)],
                        "povm": [diag(1.0, 0.5, 0.0), diag(0.0, 0.5, 1.0)]},
            "input": input_state, "checks": checks}))
        return str(src)

    @pytest.mark.parametrize("input_state,message", [
        ({"type": "pure", "coeffs": [[1.0, 0.0], [0.0, 0.0]]},
         "scenario.input.coeffs: expected 3 [re, im] pairs"),
        ({"type": "diag", "probs": [0.5, 0.5]},
         "scenario.input.probs: expected 3 probabilities"),
    ], ids=["ket", "matrix"])
    def test_input_of_the_wrong_shape_exits_one(self, input_state, message,
                                                tmp_path, capsys):
        # the input lives on the POVM's side, C^3, not on the users' C^2
        src = self._qutrit_measurement(tmp_path, input_state, ["theorem2"])
        assert main(["run", src]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("input_state,checks", [
        ({"type": "pure", "coeffs": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
         ["lemma1"]),
        ({"type": "pure", "coeffs": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]},
         ["theorem2"]),
        ({"type": "diag", "probs": [0.2, 0.3, 0.5]}, ["theorem2"]),
        ({"type": "random_pure", "seed": 3}, ["theorem2"]),
    ], ids=["pure-lemma1", "pure-theorem2", "diag-theorem2", "random-theorem2"])
    def test_input_on_the_povm_side_runs(self, input_state, checks, tmp_path,
                                         capsys):
        src = self._qutrit_measurement(tmp_path, input_state, checks)
        assert main(["run", src]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    @pytest.mark.parametrize("channel", [
        {"kind": "noisy_cloner", "d": 2, "N": 1, "M": 3, "p": 0.1},
        {"kind": "fixed_prep", "d": 2, "M": 3,
         "prep": [[[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]]]},
    ], ids=["noisy-cloner", "mixed-prep"])
    def test_lemma1_without_symmetric_support_exits_one(self, channel, tmp_path,
                                                         capsys):
        src = tmp_path / "lemma1.json"
        src.write_text(json.dumps({"channel": channel, "checks": ["lemma1"]}))
        assert main(["run", str(src)]) == 1
        field = ("p: 0.1 depolarizes the 3 users" if channel["kind"] == "noisy_cloner"
                 else "prep[0]: mixed (second eigenvalue 1.000e-01), weight 1.000e+00")
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario.channel.{field} ")
        assert err.endswith("; lemma1 requires a symmetric-support output, "
                            "use theorem2\n")

    @pytest.mark.parametrize("channel,field", [
        ({"kind": "universal_cloner", "d": 2, "N": 1, "M": 3, "p": 0.3}, "p"),
        ({"kind": "fixed_prep", "d": 2, "M": 2, "N": 5,
          "prep": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}, "N"),
    ], ids=["cloner-p", "prep-N"])
    def test_field_the_kind_does_not_read_exits_one(self, channel, field,
                                                    tmp_path, capsys):
        # once ran, and printed the field in its row, without using it
        src = tmp_path / "extra.json"
        src.write_text(json.dumps({"channel": channel, "checks": ["lemma1"]}))
        assert main(["run", str(src)]) == 1
        assert (f"scenario.channel: {channel['kind']} does not take {field}"
                in capsys.readouterr().err)

    def test_unreadable_file_exits_one(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "missing.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_mc_on_noisy_theorem2_exits_one(self, capsys):
        rc = main(["run", "--kind", "noisy_cloner", "--M", "3", "--p", "0.1",
                   "--checks", "theorem2", "--samples", "200"])
        assert rc == 1
        assert "symmetric subspace" in capsys.readouterr().err

    def test_mc_next_to_theorem2_names_the_checks(self, capsys):
        # the symmetric state the sampler needs is refused like lemma1's
        rc = main(["run", "--kind", "noisy_cloner", "--M", "3",
                   "--checks", "theorem2,mc_crosscheck", "--samples", "100"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: scenario.channel.p: 0.1 depolarizes the 3 users out of the "
            "symmetric subspace; mc_crosscheck samples the symmetric subspace, "
            "so it requires a symmetric-support output\n")

    @pytest.mark.parametrize("channel,checks,message", [
        (NOISY3, ["lemma1"], "scenario.channel.p: 0.1 depolarizes the 3 users out of "
         "the symmetric subspace; lemma1 requires a symmetric-support output, use theorem2"),
        (NOISY3, ["theorem2", "mc_crosscheck"], "scenario.channel.p: 0.1 depolarizes "
         "the 3 users out of the symmetric subspace; mc_crosscheck samples the symmetric "
         "subspace, so it requires a symmetric-support output"),
        ({"kind": "measure_prepare", "d": 2, "M": 3, "prep": [_qubit(1, 0), _qubit(0.5, 0.5)],
          "povm": [_qubit(0.5, 0.5), _qubit(0.5, 0.5)]}, ["lemma1"],
         "scenario.channel.prep[1]: mixed (second eigenvalue 5.000e-01), weight "
         "5.000e-01 from the input, so the output leaves the symmetric subspace; lemma1 "
         "requires a symmetric-support output, use theorem2"),
    ], ids=["noisy-lemma1", "noisy-theorem2-mc", "weighted-mixed-prep"])
    def test_refusal_outside_sym_m_allocates_nothing(self, channel, checks, message,
                                                     tmp_path, capsys):
        # the plan sizes the run first; the one Sym^M check refuses the
        # output before any of it is built
        src = tmp_path / "refused.json"
        src.write_text(json.dumps({"schema": 1, "channel": channel, "checks": checks,
                                   "input": {"type": "random_pure", "seed": 0}, "k": [1],
                                   "mc": {"samples": 200, "seed": 0}}))
        tracemalloc.start()
        try:
            assert main(["run", str(src)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == f"error: {message}\n"
        assert peak < 2 ** 20

    def test_violation_exits_two(self, monkeypatch, capsys):
        failing = ResultRecord(d=2, N=1, M=2, k=1, p=None, seed=None,
                               actual_distance=9.0, bound_exact=0.5,
                               satisfied_lemma1=False)
        monkeypatch.setattr("symdist.cli.run_scenario",
                            lambda cfg, cap: [failing])
        rc = main(["run", "--M", "2", "--k", "1"])
        assert rc == 2
        assert "false" in capsys.readouterr().out


class TestMc:
    def test_moments_mode(self, capsys):
        rc = main(["mc", "--mode", "moments", "--d", "2", "--M", "1", "2",
                   "--samples", "1500", "--seed", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        cells = dict(zip(RECORD_COLUMNS, lines[1].split(",")))
        assert cells["satisfied_mc"] == "true"

    @pytest.mark.parametrize("flags", [["--samples", "0"], ["--M", "0"],
                                       ["--samples", "1"], ["--seed", "-1"],
                                       ["--samples", str(2 ** 63)],
                                       ["--samples", str(10 ** 30)]])
    def test_bad_moment_arguments_exit_one(self, flags, capsys):
        assert main(["mc", *flags]) == 1
        assert "error:" in capsys.readouterr().err

    def test_json_is_strict_past_the_finite_orders(self, monkeypatch, capsys):
        # at order 1050 the entries whose stderr underflows to 0 deviate by
        # roundoff alone, so sigma is finite, and the row fails on entries
        # that 300 draws barely reach (see README); a sigma of inf is
        # written as the CSV's token in a JSON string, where json.dumps
        # would write a bare Infinity
        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        argv = ["mc", "--d", "2", "--M", "1050", "--samples", "300"]
        assert main([*argv, "--format", "json"]) == 2
        rows = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert 5 < rows[0]["actual_distance"] < math.inf
        infinite = ResultRecord(d=2, N=None, M=1050, k=1050, p=None, seed=1,
                                actual_distance=math.inf, bound_exact=5.0,
                                satisfied_mc=False)
        monkeypatch.setattr(cli, "moment_check_record", lambda *args: infinite)
        assert main([*argv, "--format", "json"]) == 2
        rows = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert rows[0]["actual_distance"] == "inf"
        assert main(argv) == 2
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert dict(zip(RECORD_COLUMNS, row))["actual_distance"] == "inf"

    def test_one_dimensional_moments_pass_at_every_seed(self, capsys):
        # every draw at d = 1 is exactly 1, so every stderr is 0: the
        # roundoff left in the mean reads 0 sigma, not inf
        for seed in range(10):
            argv = ["mc", "--d", "1", "--M", "1", "2", "3", "--samples", "10",
                    "--seed", str(seed)]
            assert main(argv) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            assert [dict(zip(RECORD_COLUMNS, row.split(",")))["satisfied_mc"]
                    for row in rows] == ["true"] * 3
        for seed in range(3):
            argv = ["run", "--d", "1", "--M", "3", "--k", "1", "--samples", "10",
                    "--seed", str(seed)]
            assert main(argv) == 0
            capsys.readouterr()

    def test_high_orders_run(self, capsys):
        # side s_n = n + 1 at d = 2: orders 13 and 30 build nothing of 2^n
        assert main(["mc", "--M", "13", "30", "--samples", "1000"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_oversized_moment_exits_one(self, capsys):
        # refused by the byte budget before the sampler allocates anything:
        # five complex s_n x s_n arrays, s_180 = 16471 at d = 3 and
        # s_7258 = 7259 at d = 2, exceed it
        for flags, message in ((["--d", "3", "--M", "180"],
                                "Monte Carlo estimate of 180 users would need"),
                               (["--M", "7258"],
                                "Monte Carlo estimate of 7258 users")):
            assert main(["mc", *flags]) == 1
            assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["mc", "--d", "0"], "--d: local dimension must be >= 1, got 0"),
    (["mc", "--M", "0"], "--M: moment order must be >= 1, got 0"),
    (["mc", "--samples", "1"], "--samples: sample count must be >= 2, got 1"),
    (["mc", "--seed", "-1"], "--seed: seed must be >= 0, got -1"),
    (["bounds", "--d", "0", "--M", "2"],
     "--d: local dimension must be >= 1, got 0"),
    (["bounds", "--M", "2", "--k", "-1"],
     "--k: marginal size must be >= 0, got -1"),
    (["bounds", "--M", "0"], "--M: user count must be >= 1, got 0"),
], ids=["mc-d", "mc-M", "mc-samples", "mc-seed", "bounds-d", "bounds-k",
        "bounds-M"])
def test_flag_errors_name_the_flag(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv,flag", [
    (["run", "--d", "x"], "--d"),
    (["run", "--bogus"], "--bogus"),
    (["bounds", "--M", "4", "--format", "yaml"], "--format"),
    (["mc", "--samples", "1.5"], "--samples"),
    ([], "command"),
], ids=["run-d", "run-bogus", "bounds-format", "mc-samples", "bare"])
def test_usage_errors_exit_one(argv, flag, capsys):
    # argparse's message, under exit code 1: 2 means a violated check
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: " in err and flag in err


def _matrix(*rows):
    return [[[complex(z).real, complex(z).imag] for z in row] for row in rows]


P0, P1 = _matrix([1, 0], [0, 0]), _matrix([0, 0], [0, 1])


@pytest.mark.parametrize("fields,message", [
    ({"prep": [P0, _matrix([1, 0, 0], [0, 0, 0], [0, 0, 0])]},
     "prep[1]: expected a 2 x 2 matrix, got shape (3, 3)"),
    ({"povm": [P0, _matrix([0, 0, 0], [0, 1, 0], [0, 0, 0])]},
     "povm: POVM element 1 has shape (3, 3)"),
    ({"povm": [[[[1, 0], [0, 0]]], P1]},
     "povm: POVM element 0 has shape (1, 2), expected a square matrix"),
    ({"prep": [P0, _matrix([0.5, 0.1], [0, 0.5])]},
     "prep[1]: prepared state: matrix is not Hermitian within 1e-09 (residual 1.000e-01)"),
    ({"prep": [P0, _matrix([0.5, 0.1j], [0.1j, 0.5])]},
     "prep[1]: prepared state: matrix is not Hermitian within 1e-09 (residual 2.000e-01)"),
    ({"povm": [_matrix([1, 0.2], [0, 0]), _matrix([0, -0.2], [0, 1])]},
     "povm: matrix is not Hermitian within 1e-09 (residual 2.000e-01)"),
    ({"prep": [P0, _matrix([1.2, 0], [0, -0.2])]},
     "prep[1]: prepared state has negative eigenvalue -2.000e-01"),
    ({"povm": [_matrix([1.2, 0], [0, 0]), _matrix([-0.2, 0], [0, 1])]},
     "povm: POVM element 1 has negative eigenvalue -2.000e-01"),
    ({"prep": [P0, _matrix([0.5, 0], [0, 0.4])]},
     "prep[1]: prepared state has trace (0.9+0j), expected 1"),
    ({"prep": [_matrix([0.5, 0.1j], [-0.1j, 0.6]), P1]},
     "prep[0]: prepared state has trace (1.1+0j), expected 1"),
    ({"povm": [P0, _matrix([0, 0], [0, 0.9])]},
     "povm: POVM elements do not sum to the identity within 1e-9"),
    ({"povm": [P0, _matrix([0, 0], [0, 0.5]), _matrix([0, 0], [0, 0.5])]},
     "povm: got 3 POVM elements but 2 prepared states"),
    ({"prep": [], "povm": []}, "povm: POVM must have at least one element"),
    ({"prep": [P0, [[[0, 0], [0, 0]], [[0, 0], [10 ** 400, 0]]]]},
     "prep[1]: expected a finite number"),
], ids=["prep-shapes", "povm-shapes", "povm-not-square", "prep-not-hermitian",
        "prep-not-hermitian-complex", "povm-not-hermitian", "prep-negative",
        "povm-negative", "prep-trace", "prep-trace-complex", "povm-sum", "count",
        "count-empty", "prep-huge"])
def test_malformed_matrix_fields_exit_one(fields, message, tmp_path, capsys):
    # each message as it was when every matrix was checked on its own
    channel = {"kind": "measure_prepare", "d": 2, "M": 2, "prep": [P0, P1],
               "povm": [P0, P1], **fields}
    src = tmp_path / "channel.json"
    src.write_text(json.dumps({"channel": channel, "checks": ["theorem2"]}))
    assert main(["run", str(src)]) == 1
    assert capsys.readouterr().err == f"error: scenario.channel: {message}\n"


def _csv_writer_table(rows, columns):
    """rows as csv.writer writes them, each cell formatted by the rule of
    _format_cell: the oracle for the CSV that render_rows joins itself."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return str(value)
        return format(float(value), ".12g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cell(row[c]) for c in columns] for row in rows)
    return buf.getvalue()


@pytest.mark.parametrize("argv", [
    ["suite", "--seed", "42"],
    ["bounds", "--d", "2", "3", "--M", "1", "4", "10", "--k", "0", "1", "2"],
    ["run", "--M", "4", "--k", "1", "2"],
    ["run", "--kind", "noisy_cloner", "--p", "0.2", "--M", "3", "--k", "1", "2",
     "--timings"],
    ["mc", "--mode", "moments", "--d", "1", "--M", "3", "--samples", "50"],
], ids=["suite", "bounds", "run", "run-timings", "mc-moments"])
def test_csv_is_the_bytes_of_a_csv_writer(argv, monkeypatch, capsys):
    tables = []
    render_rows = scenario.render_rows

    def spy(rows, columns, fmt="csv"):
        text = render_rows(rows, columns, fmt)
        tables.append((rows, columns, text))
        return text

    monkeypatch.setattr(scenario, "render_rows", spy)
    monkeypatch.setattr(cli, "render_rows", spy)
    assert main(argv) == 0
    assert capsys.readouterr().out == "".join(text for *_, text in tables)
    for rows, columns, text in tables:
        assert text == _csv_writer_table(rows, columns)


def test_non_finite_cells_are_the_bytes_of_a_csv_writer():
    columns = ("a", "b", "c", "d", "e", "f", "g")
    rows = [{"a": math.inf, "b": -math.inf, "c": math.nan, "d": None, "e": True,
             "f": 3, "g": 1e-300},
            {"a": 0.1, "b": -0.0, "c": 2 ** 70, "d": False, "e": None, "f": 1e22,
             "g": 123456789012345.0}]
    assert scenario.render_rows(rows, columns) == _csv_writer_table(rows, columns)
    assert scenario.render_rows(rows, columns).splitlines()[1] == (
        "inf,-inf,nan,,true,3,1e-300")


class TestSharedParser:
    """main() parses with the one parser built at import."""

    def _calls(self, capsys):
        assert main(["bounds", "--M", "4"]) == 0
        assert main(["run", "--k", "1", "2", "--M", "3"]) == 0
        assert main(["mc", "--M", "1", "--samples", "50"]) == 0
        with pytest.raises(SystemExit):
            main(["run", "--bogus"])
        capsys.readouterr()

    def test_no_parser_is_built_per_call(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        self._calls(capsys)
        assert built == []

    def test_list_defaults_survive_calls(self, capsys):
        self._calls(capsys)
        parse = cli._PARSER.parse_args
        assert parse(["run"]).k == [1]
        assert parse(["bounds", "--M", "4"]).d == [2]
        assert parse(["mc"]).M == [1, 2, 3, 4]

    def test_default_run_is_byte_identical_across_calls(self, capsys):
        assert main(["run"]) == 0
        first = capsys.readouterr().out
        self._calls(capsys)
        assert main(["run"]) == 0
        assert capsys.readouterr().out == first

    def test_help_matches_a_fresh_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == cli._build_parser().format_help()


class TestSuiteCommand:
    def test_failure_exit_code(self, monkeypatch, capsys):
        failing = ResultRecord(d=2, N=None, M=2, k=1, p=None, seed=None,
                               satisfied_mc=False)
        monkeypatch.setattr("symdist.cli.run_suite",
                            lambda seed, cap: [failing])
        assert main(["suite", "--seed", "1"]) == 2

    def test_success_exit_code(self, monkeypatch, capsys):
        passing = ResultRecord(d=2, N=None, M=2, k=1, p=None, seed=None,
                               satisfied_mc=True)
        monkeypatch.setattr("symdist.cli.run_suite",
                            lambda seed, cap: [passing])
        assert main(["suite"]) == 0

    def test_seed_42_csv_is_pinned(self, capsys):
        # every exact column at 12 digits and every Monte Carlo flag of the
        # bundled suite, as printed since the suite took its current form
        assert main(["suite", "--seed", "42"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.md5(out).hexdigest() == "8c1445ff15ee8462c00096658c646f68"


class TestModuleEntry:
    def test_python_dash_m(self):
        # the child imports the same symdist as the tests, installed or not
        src = str(Path(symdist.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "symdist", "bounds", "--M", "4"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == ",".join(BOUNDS_COLUMNS)
