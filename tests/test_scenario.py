import json
import math

import numpy as np
import pytest

from symdist.scenario import (
    MC_SIGMA_THRESHOLD,
    RECORD_COLUMNS,
    ResultRecord,
    SchemaError,
    all_satisfied,
    default_suite,
    emit,
    load_scenarios,
    moment_check_record,
    records_from_json,
    records_to_csv,
    records_to_json,
    run_scenario,
    scenario_from_dict,
)


def qubit_zero():
    return {"type": "pure", "coeffs": [[1.0, 0.0], [0.0, 0.0]]}


def prep_zero():
    return [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]


def cloner_scenario(**over):
    data = {
        "schema": 1,
        "channel": {"kind": "universal_cloner", "d": 2, "N": 1, "M": 2},
        "input": qubit_zero(),
        "k": [1],
        "checks": ["lemma1", "perr", "fidelity_gap"],
    }
    data.update(over)
    return data


def prep_scenario(**over):
    data = {
        "schema": 1,
        "channel": {"kind": "fixed_prep", "d": 2, "M": 2, "prep": prep_zero()},
        "input": qubit_zero(),
        "k": [1, 2],
        "checks": ["lemma1", "perr"],
    }
    data.update(over)
    return data


class TestParsing:
    def test_happy_path(self):
        cfg = scenario_from_dict(cloner_scenario(label="demo"))
        assert cfg.channel.kind == "universal_cloner"
        assert cfg.k_list == (1,)
        assert cfg.checks == ("lemma1", "perr", "fidelity_gap")
        assert cfg.label == "demo"
        assert cfg.mc is None and cfg.output is None

    def test_checks_deduplicated_in_order(self):
        cfg = scenario_from_dict(
            cloner_scenario(checks=["perr", "lemma1", "perr"]))
        assert cfg.checks == ("perr", "lemma1")

    def test_output_block(self):
        cfg = scenario_from_dict(
            cloner_scenario(output={"format": "json", "path": "x.json"}))
        assert cfg.output == {"format": "json", "path": "x.json"}
        cfg = scenario_from_dict(cloner_scenario(output={}))
        assert cfg.output == {"format": "csv", "path": None}
        with pytest.raises(SchemaError, match="output.format"):
            scenario_from_dict(cloner_scenario(output={"format": "yaml"}))

    def test_missing_schema(self):
        bad = cloner_scenario()
        del bad["schema"]
        with pytest.raises(SchemaError, match="schema"):
            scenario_from_dict(bad)

    def test_channel_errors_carry_path(self):
        with pytest.raises(SchemaError, match="scenario.channel"):
            scenario_from_dict(cloner_scenario(channel={"kind": "warp", "d": 2,
                                                        "M": 2}))

    def test_diag_input_rejected_for_cloner(self):
        with pytest.raises(SchemaError, match="input.type"):
            scenario_from_dict(cloner_scenario(
                input={"type": "diag", "probs": [0.5, 0.5]}))

    def test_unnormalized_ket(self):
        with pytest.raises(SchemaError, match="coeffs"):
            scenario_from_dict(cloner_scenario(
                input={"type": "pure", "coeffs": [[1.0, 0.0], [1.0, 0.0]]}))

    def test_bad_probs(self):
        with pytest.raises(SchemaError, match="probs"):
            scenario_from_dict(prep_scenario(
                input={"type": "diag", "probs": [1.5, -0.5]},
                checks=["lemma1"], k=[1]))

    def test_bad_random_seed(self):
        with pytest.raises(SchemaError, match="seed"):
            scenario_from_dict(cloner_scenario(
                input={"type": "random_pure", "seed": -4}))

    def test_k_validation(self):
        with pytest.raises(SchemaError, match=r"k\[0\]"):
            scenario_from_dict(cloner_scenario(k=[3]))
        with pytest.raises(SchemaError, match="duplicate"):
            scenario_from_dict(cloner_scenario(k=[1, 1]))
        with pytest.raises(SchemaError, match="non-empty"):
            scenario_from_dict(cloner_scenario(k=[]))

    def test_checks_validation(self):
        with pytest.raises(SchemaError, match=r"checks\[0\]"):
            scenario_from_dict(cloner_scenario(checks=["lemma3"]))
        with pytest.raises(SchemaError, match="mutually exclusive"):
            scenario_from_dict(cloner_scenario(checks=["lemma1", "theorem2"]))
        with pytest.raises(SchemaError, match="include 1"):
            scenario_from_dict(cloner_scenario(checks=["lemma1", "perr"],
                                               k=[2]))
        with pytest.raises(SchemaError, match="lemma1"):
            scenario_from_dict({
                "schema": 1,
                "channel": {"kind": "noisy_cloner", "d": 2, "N": 1, "M": 2,
                            "p": 0.1},
                "input": qubit_zero(),
                "k": [1],
                "checks": ["theorem2", "perr"],
            })
        with pytest.raises(SchemaError, match="universal cloner"):
            scenario_from_dict(prep_scenario(
                checks=["lemma1", "fidelity_gap"], k=[1]))

    def test_mc_validation(self):
        with pytest.raises(SchemaError, match="mc"):
            scenario_from_dict(cloner_scenario(
                checks=["lemma1", "mc_crosscheck"]))
        with pytest.raises(SchemaError, match="mc.samples"):
            scenario_from_dict(cloner_scenario(
                checks=["lemma1", "mc_crosscheck"],
                mc={"samples": 1, "seed": 0}))

    def test_load_scenarios(self):
        one = cloner_scenario()
        assert len(load_scenarios(json.dumps(one))) == 1
        assert len(load_scenarios(json.dumps([one, prep_scenario()]))) == 2
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_scenarios("{nope")
        bad = [one, cloner_scenario(k=[9])]
        with pytest.raises(SchemaError, match=r"scenario\[1\]"):
            load_scenarios(json.dumps(bad))


class TestRunScenario:
    def test_fixed_prep_numbers(self):
        records = run_scenario(scenario_from_dict(prep_scenario()))
        assert [r.k for r in records] == [1, 2]
        one = records[0]
        assert one.d == 2 and one.M == 2 and one.N is None and one.p is None
        assert one.seed is None
        assert abs(one.actual_distance - 0.5) <= 1e-12
        want_bound = 4 * (1 - math.sqrt(2 / 3))
        assert abs(one.bound_exact - want_bound) <= 1e-12
        assert abs(one.bound_asymptotic - 1.0) <= 1e-12
        assert abs(one.p_err - 0.375) <= 1e-12
        assert abs(one.p_err_bound - 0.25) <= 1e-12
        assert one.satisfied_lemma1 and one.satisfied_perr
        assert one.satisfied_theorem2 is None
        two = records[1]
        assert two.satisfied_lemma1
        assert two.p_err is None and two.satisfied_perr is None
        assert all(r.wall_time_ms > 0 for r in records)

    def test_cloner_fidelity_row(self):
        rec, = run_scenario(scenario_from_dict(cloner_scenario()))
        assert abs(rec.F_clon - 5 / 6) <= 1e-9
        assert abs(rec.F_tilde - 2 / 3) <= 1e-9
        assert abs(rec.gap_formula - 1 / 6) <= 1e-15
        assert abs(rec.actual_distance - 1 / 3) <= 1e-9
        assert rec.satisfied_fidelity_gap and rec.satisfied_lemma1
        assert rec.N == 1

    def test_random_input_seed_recorded(self):
        rec, = run_scenario(scenario_from_dict(cloner_scenario(
            input={"type": "random_pure", "seed": 77})))
        assert rec.seed == 77
        assert rec.satisfied_lemma1 and rec.satisfied_fidelity_gap

    def test_noisy_theorem2(self):
        data = {
            "schema": 1,
            "channel": {"kind": "noisy_cloner", "d": 2, "N": 1, "M": 2,
                        "p": 0.1},
            "input": qubit_zero(),
            "k": [1],
            "checks": ["theorem2"],
        }
        rec, = run_scenario(scenario_from_dict(data))
        assert rec.p == 0.1
        assert rec.satisfied_theorem2
        assert rec.satisfied_lemma1 is None
        assert rec.bound_exact == pytest.approx(4 * (1 - math.sqrt(4 / 10)))

    def test_lemma1_needs_symmetric_support(self):
        data = {
            "schema": 1,
            "channel": {"kind": "noisy_cloner", "d": 2, "N": 1, "M": 2,
                        "p": 0.1},
            "input": qubit_zero(),
            "k": [1],
            "checks": ["lemma1"],
        }
        with pytest.raises(SchemaError, match="theorem2"):
            run_scenario(scenario_from_dict(data))

    def test_mc_crosscheck(self):
        rec, = run_scenario(scenario_from_dict(prep_scenario(
            k=[1],
            checks=["lemma1", "mc_crosscheck"],
            mc={"samples": 4000, "seed": 3},
        )))
        assert rec.satisfied_mc
        assert rec.seed == 3

    def test_mc_crosscheck_without_bound_route(self):
        rec, = run_scenario(scenario_from_dict(cloner_scenario(
            channel={"kind": "universal_cloner", "d": 2, "N": 1, "M": 3},
            checks=["mc_crosscheck"],
            mc={"samples": 2000, "seed": 11},
        )))
        assert rec.satisfied_mc
        assert rec.actual_distance is None

    def test_mc_crosscheck_rides_theorem2(self):
        # the sampler estimates the symmetric-route reduction, which is not
        # the purified-route state the theorem2 columns hold; the flag must
        # compare against the former or it trips on the route gap
        rec, = run_scenario(scenario_from_dict(cloner_scenario(
            channel={"kind": "universal_cloner", "d": 2, "N": 1, "M": 3},
            checks=["theorem2", "mc_crosscheck"],
            mc={"samples": 2000, "seed": 11},
        )))
        assert rec.satisfied_theorem2
        assert rec.satisfied_mc

    def test_mc_crosscheck_needs_symmetric_support_under_theorem2(self):
        # the sampler and its reference come from the symmetric coordinates
        # of the output, which a noisy cloner does not have
        cfg = scenario_from_dict(cloner_scenario(
            channel={"kind": "noisy_cloner", "d": 2, "N": 1, "M": 3, "p": 0.1},
            checks=["theorem2", "mc_crosscheck"],
            mc={"samples": 200, "seed": 11},
        ))
        with pytest.raises(ValueError, match="symmetric-support"):
            run_scenario(cfg)

    def test_diag_input_on_prep(self):
        rec, = run_scenario(scenario_from_dict(prep_scenario(
            input={"type": "diag", "probs": [0.25, 0.75]},
            checks=["lemma1"], k=[1])))
        # prep channel ignores its input entirely
        assert abs(rec.actual_distance - 0.5) <= 1e-12


class TestMomentRecord:
    def test_record_shape(self):
        rec = moment_check_record(2, 2, samples=4000, seed=11)
        assert rec.d == 2 and rec.M == 2 and rec.k == 2 and rec.N is None
        assert rec.bound_exact == MC_SIGMA_THRESHOLD
        assert rec.actual_distance >= 0.0
        assert rec.satisfied_mc
        assert rec.wall_time_ms > 0


class TestEmission:
    def _row(self):
        return ResultRecord(d=2, N=1, M=2, k=1, p=None, seed=None,
                            actual_distance=1 / 6, satisfied_lemma1=True,
                            wall_time_ms=12.5)

    def test_csv_header(self):
        text = records_to_csv([self._row()])
        assert text.splitlines()[0] == ",".join(RECORD_COLUMNS)

    def test_csv_formatting(self):
        line = records_to_csv([self._row()]).splitlines()[1]
        cells = line.split(",")
        cols = dict(zip(RECORD_COLUMNS, cells))
        assert cols["d"] == "2"
        assert cols["actual_distance"] == "0.166666666667"
        assert cols["satisfied_lemma1"] == "true"
        assert cols["p"] == ""
        assert cols["wall_time_ms"] == ""

    def test_csv_timings_flag(self):
        line = records_to_csv([self._row()], timings=True).splitlines()[1]
        assert line.endswith("12.5")

    def test_false_flag_renders(self):
        row = self._row()
        row.satisfied_lemma1 = False
        assert ",false," in records_to_csv([row]).splitlines()[1] + ","

    def test_json_roundtrip(self):
        rows = [self._row(), moment_check_record(2, 1, 500, seed=2)]
        text = records_to_json(rows, timings=True)
        back = records_from_json(text)
        assert [r.to_dict() for r in back] == [r.to_dict() for r in rows]

    def test_json_hides_timings_by_default(self):
        data = json.loads(records_to_json([self._row()]))
        assert data[0]["wall_time_ms"] is None
        assert data[0]["actual_distance"] == pytest.approx(1 / 6)

    def test_records_from_json_validation(self):
        good = json.loads(records_to_json([self._row()]))
        good[0]["banana"] = 1
        with pytest.raises(ValueError, match="unknown"):
            records_from_json(json.dumps(good))
        bad = json.loads(records_to_json([self._row()]))
        del bad[0]["d"]
        with pytest.raises(ValueError, match="missing"):
            records_from_json(json.dumps(bad))
        with pytest.raises(ValueError, match="array"):
            records_from_json("{}")

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            records_to_csv([])
        with pytest.raises(ValueError, match="no records"):
            records_to_json([])

    def test_emit_writes_file(self, tmp_path):
        target = tmp_path / "rows.csv"
        text = emit([self._row()], fmt="csv", path=str(target))
        assert target.read_text() == text
        assert emit([self._row()], fmt="csv", path="-") == text

    def test_emit_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit([self._row()], fmt="tsv")

    def test_rerun_is_byte_identical(self):
        cfg = scenario_from_dict(cloner_scenario())
        a = records_to_csv(run_scenario(cfg))
        b = records_to_csv(run_scenario(cfg))
        assert a == b


class TestAllSatisfied:
    def test_vacuous_rows_pass(self):
        row = ResultRecord(d=2, N=None, M=2, k=1, p=None, seed=None)
        assert all_satisfied([row])

    def test_any_false_fails(self):
        ok = ResultRecord(d=2, N=None, M=2, k=1, p=None, seed=None,
                          satisfied_lemma1=True)
        bad = ResultRecord(d=2, N=None, M=2, k=2, p=None, seed=None,
                           satisfied_mc=False)
        assert all_satisfied([ok])
        assert not all_satisfied([ok, bad])


class TestDefaultSuite:
    def test_all_scenarios_parse(self):
        suite = default_suite(seed=5)
        assert len(suite) == 28
        kinds = set()
        for i, data in enumerate(suite):
            cfg = scenario_from_dict(data, where=f"scenario[{i}]")
            kinds.add(cfg.channel.kind)
        assert kinds == {"universal_cloner", "fixed_prep", "noisy_cloner"}

    def test_seed_threads_through(self):
        suite = default_suite(seed=5)
        chain_seeds = [s["input"]["seed"] for s in suite
                       if s["input"].get("type") == "random_pure"]
        assert chain_seeds == [5000, 5001, 5002, 5003, 5004]
        mc = [s for s in suite if "mc" in s]
        assert mc[-1]["mc"]["seed"] == 5
