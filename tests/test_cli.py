import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symdist
from symdist.cli import BOUNDS_COLUMNS, main
from symdist.scenario import RECORD_COLUMNS, ResultRecord


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

    @pytest.mark.parametrize("p", ["1.5", "-0.1"])
    def test_depolarizing_weight_out_of_range_exits_one(self, p, capsys):
        rc = main(["run", "--kind", "noisy_cloner", "--M", "3", "--p", p,
                   "--checks", "theorem2"])
        assert rc == 1
        assert "depolarizing weight must be in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("input_state,message", [
        ({"type": "pure", "coeffs": [[1.0, 0.0], [0.0, 0.0]]},
         "ket dimension 2 does not match channel input 3"),
        ({"type": "diag", "probs": [0.5, 0.5]},
         "input has shape (2, 2), channel expects (3, 3)"),
    ], ids=["ket", "matrix"])
    def test_input_of_the_wrong_shape_exits_one(self, input_state, message,
                                                tmp_path, capsys):
        def diag(*xs):
            return [[[x if i == j else 0.0, 0.0] for j in range(len(xs))]
                    for i, x in enumerate(xs)]

        src = tmp_path / "shape.json"
        src.write_text(json.dumps({
            "channel": {"kind": "measure_prepare", "d": 2, "M": 2,
                        "prep": [diag(1.0, 0.0), diag(0.5, 0.5)],
                        "povm": [diag(1.0, 0.5, 0.0), diag(0.0, 0.5, 1.0)]},
            "input": input_state, "checks": ["theorem2"]}))
        assert main(["run", str(src)]) == 1
        assert message in capsys.readouterr().err

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
        assert ("scenario.checks: lemma1 requires a symmetric-support channel "
                "(support residual ") in capsys.readouterr().err

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
                                       ["--samples", "1"], ["--seed", "-1"]])
    def test_bad_moment_arguments_exit_one(self, flags, capsys):
        assert main(["mc", *flags]) == 1
        assert "error:" in capsys.readouterr().err

    def test_oversized_moment_exits_one(self, capsys):
        # refused by the byte guard before the sampler allocates anything
        assert main(["mc", "--M", "30"]) == 1
        assert "30-user Monte Carlo estimate" in capsys.readouterr().err


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
