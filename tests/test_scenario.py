import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdist.cli import main
from symdist.linalg import SUPPORT_TOL
from symdist.scenario import (
    MC_SIGMA_THRESHOLD,
    _basis_prep,
    _max_sigma,
    RECORD_COLUMNS,
    ResultRecord,
    SchemaError,
    all_satisfied,
    default_suite,
    emit,
    load_scenarios,
    moment_check_record,
    render_rows,
    run_scenario,
    run_suite,
    scenario_from_dict,
)

from dense_oracles import symmetrizer

MIXED_PREP = [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]]


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

    @pytest.mark.parametrize("over,field", [
        ({"k": [True]}, r"scenario\.k\[0\]"),
        ({"input": {"type": "random_pure", "seed": True}}, r"input\.seed"),
        ({"checks": ["lemma1", "mc_crosscheck"],
          "mc": {"samples": 100, "seed": True}}, r"mc\.seed"),
        ({"checks": ["lemma1", "mc_crosscheck"],
          "mc": {"samples": 10 ** 30, "seed": 1}},
         r"mc\.samples: expected an integer from 2 to 2\^63 - 1"),
        ({"schema": True}, r"scenario\.schema"),
        ({"channel": {"kind": "universal_cloner", "d": 2.7, "N": 1, "M": 2}},
         r"channel: d: expected an integer, got 2\.7"),
        ({"channel": {"kind": "universal_cloner", "d": 2, "N": 1, "M": "3"}},
         r"channel: M: expected an integer, got '3'"),
        ({"channel": {"kind": "universal_cloner", "d": 2, "N": True, "M": 2}},
         r"channel: N: expected an integer, got True"),
        ({"channel": {"kind": "noisy_cloner", "d": 2, "N": 1, "M": 2,
                      "p": True}, "checks": ["theorem2"]},
         r"channel: p: expected a number, got True"),
    ], ids=["k", "input-seed", "mc-seed", "mc-samples-huge", "schema", "d-float", "M-string",
            "N-bool", "p-bool"])
    def test_integer_fields_refuse_bools_and_non_integers(self, over, field):
        with pytest.raises(SchemaError, match=field):
            scenario_from_dict(cloner_scenario(**over))

    @pytest.mark.parametrize("over,field", [
        ({"input": {"type": "diag", "probs": [None, 1.0]}},
         r"input\.probs\[0\]: expected a number, got None"),
        ({"input": {"type": "diag", "probs": [[0.5], 0.5]}},
         r"input\.probs\[0\]: expected a number, got \[0\.5\]"),
        ({"input": {"type": "diag", "probs": ["0.5", 0.5]}},
         r"input\.probs\[0\]: expected a number, got '0\.5'"),
        ({"input": {"type": "diag", "probs": [True, False]}},
         r"input\.probs\[0\]: expected a number, got True"),
        ({"input": {"type": "diag", "probs": [0.0, 10 ** 400]}},
         r"input\.probs\[1\]: expected a finite number"),
        ({"input": {"type": "pure", "coeffs": [[True, 0], [0, 0]]}},
         r"input\.coeffs\[0\]: expected a number, got True"),
        ({"input": {"type": "pure", "coeffs": [[1.0, 0.0], [10 ** 400, 0]]}},
         r"input\.coeffs\[1\]: expected a finite number"),
        ({"input": {"type": "pure", "coeffs": [[1.0], [0.0, 0.0]]}},
         r"input\.coeffs\[0\]: expected an \[re, im\] pair"),
        ({"channel": {"kind": "fixed_prep", "d": 2, "M": 2,
                      "prep": [[[[1.0, False], [0, 0]], [[0, 0], [0, 0]]]]}},
         r"channel: prep\[0\]: expected a number, got False"),
        ({"channel": {"kind": "fixed_prep", "d": 2, "M": 2,
                      "prep": [[[[10 ** 400, 0], [0, 0]], [[0, 0], [0, 0]]]]}},
         r"channel: prep\[0\]: expected a finite number"),
        ({"channel": {"kind": "fixed_prep", "d": 2, "M": 2,
                      "prep": [[[[float("nan"), 0], [0, 0]], [[0, 0], [0, 0]]]]}},
         r"channel: prep\[0\]: expected a finite number"),
        ({"channel": {"kind": "measure_prepare", "d": 2, "M": 2,
                      "prep": prep_zero() * 2,
                      "povm": [[[[1, 0], [0, 0]], [[0, 0], [True, 0]]]] * 2}},
         r"channel: povm\[0\]: expected a number, got True"),
        ({"channel": {"kind": "noisy_cloner", "d": 2, "N": 1, "M": 2,
                      "p": 10 ** 400}, "checks": ["theorem2"]},
         r"channel: p: expected a finite number"),
        ({"channel": {"kind": "noisy_cloner", "d": 2, "N": 1, "M": 2,
                      "p": float("nan")}, "checks": ["theorem2"]},
         r"channel: p: expected a finite number"),
        ({"channel": {"kind": "fixed_prep", "d": 2, "M": 2, "prep": 5}},
         r"channel: prep: expected a list of matrices$"),
        ({"channel": {"kind": "measure_prepare", "d": 2, "M": 2,
                      "prep": prep_zero() * 2, "povm": 3}},
         r"channel: povm: expected a list of matrices$"),
    ], ids=["probs-null", "probs-list", "probs-string", "probs-bool",
            "probs-huge", "coeffs-bool", "coeffs-huge", "coeffs-short",
            "prep-bool", "prep-huge", "prep-nan", "povm-bool", "p-huge",
            "p-nan", "prep-int", "povm-int"])
    def test_numbers_must_be_finite_reals(self, over, field):
        with pytest.raises(SchemaError, match=field):
            scenario_from_dict(prep_scenario(k=[1], **over))

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

    def test_a_cloner_run_draws_no_input_ket(self, monkeypatch):
        # a cloner runs in its input's frame, so nothing reads the ket
        def refuse(*args, **kwargs):
            raise AssertionError("an input ket was drawn")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        rec, = run_scenario(scenario_from_dict(cloner_scenario(
            input={"type": "random_pure", "seed": 77})))
        assert rec.seed == 77 and rec.satisfied_fidelity_gap
        assert abs(rec.F_clon - 5 / 6) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_input_ket_is_pinned(self, d):
        # the rows of a preparation kind on a random input rest on this ket:
        # stream (seed, 0, 0), d real normals then d imaginary, divided by
        # the 1-D np.linalg.norm (a batched norm moves last bits).  A cloner
        # runs in its input's frame: its ket is not drawn, its seed is kept
        for seed in (0, 1, 7, 77, 5004, 2 ** 40):
            random_input = {"type": "random_pure", "seed": seed}
            cfg = scenario_from_dict(prep_scenario(
                channel={"kind": "fixed_prep", "d": d, "M": 2,
                         "prep": _basis_prep(d)}, input=random_input))
            rng = np.random.default_rng((seed, 0, 0))
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            assert cfg.input_seed == seed
            assert np.array_equal(cfg.phi, z / np.linalg.norm(z))
            cloner = scenario_from_dict(cloner_scenario(
                channel={"kind": "universal_cloner", "d": d, "N": 1, "M": 2},
                input=random_input))
            assert (cloner.phi, cloner.input_seed) == (None, seed)

    @pytest.mark.parametrize("state", [
        qubit_zero(),
        {"type": "diag", "probs": [0.25, 0.75]},
        {"type": "random_pure", "seed": 5},
    ], ids=["pure", "diag", "random_pure"])
    def test_two_parses_of_one_scenario_are_equal(self, state):
        # phi compares by shape, dtype and entries; == on a dict holding an
        # array raised "the truth value of an array ... is ambiguous"
        first, second = (scenario_from_dict(prep_scenario(input=state)) for _ in "ab")
        assert first == second and not first != second
        if state["type"] == "random_pure":
            other = {**state, "seed": 6}
        else:
            key = "coeffs" if state["type"] == "pure" else "probs"
            other = {**state, key: state[key][::-1]}  # one entry differs
        assert scenario_from_dict(prep_scenario(input=other)) != first
        # |0> against diag(1, 0): a ket and a density matrix
        as_diag = scenario_from_dict(prep_scenario(input={"type": "diag", "probs": [1, 0]}))
        assert as_diag != scenario_from_dict(prep_scenario())

    def test_cloner_parses_compare_by_seed(self):
        # a cloner holds no ket, so only a random input's seed tells two apart
        def parse(state):
            return scenario_from_dict(cloner_scenario(input=state))
        assert parse(qubit_zero()) == parse({"type": "pure", "coeffs": [[0.0, 0.0], [1.0, 0.0]]})
        seeded = parse({"type": "random_pure", "seed": 5})
        assert seeded == parse({"type": "random_pure", "seed": 5}) != parse(qubit_zero())
        assert seeded != parse({"type": "random_pure", "seed": 6})

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

    @pytest.mark.parametrize("channel", [
        {"kind": "noisy_cloner", "d": 2, "N": 1, "M": 3, "p": 0.1},
        {"kind": "fixed_prep", "d": 2, "M": 3, "prep": [MIXED_PREP]},
    ], ids=["noisy-cloner", "mixed-prep"])
    def test_lemma1_refusal_names_the_deciding_field(self, channel):
        # the spec decides, and the dense oracle agrees that the output
        # leaves the symmetric subspace
        cfg = scenario_from_dict(cloner_scenario(channel=channel, k=[1],
                                                 checks=["lemma1"]))
        with pytest.raises(SchemaError) as err:
            run_scenario(cfg)
        field = ("channel.p: 0.1 depolarizes the 3 users out of the symmetric "
                 "subspace" if channel["kind"] == "noisy_cloner" else
                 "channel.prep[0]: mixed (second eigenvalue 1.000e-01), weight "
                 "1.000e+00 from the input, so the output leaves the symmetric "
                 "subspace")
        assert str(err.value) == (f"scenario.{field}; lemma1 requires a "
                                  "symmetric-support output, use theorem2")
        rho = cfg.channel.dense_output(np.array([1.0, 0.0])).entries
        proj = symmetrizer(2, 3).entries
        assert np.max(np.abs(rho - proj @ rho @ proj)) > SUPPORT_TOL

    def test_lemma1_runs_a_mixed_prep_at_one_user(self):
        rec, = run_scenario(scenario_from_dict(prep_scenario(
            channel={"kind": "fixed_prep", "d": 2, "M": 1, "prep": [MIXED_PREP]},
            k=[1], checks=["lemma1"])))
        assert rec.satisfied_lemma1

    def test_lemma1_follows_the_output_support_not_the_channel(self):
        # the mixed preparation is handed out only on outcome 1, which the
        # input |0> never gives; on input |1> the output leaves the subspace
        channel = {"kind": "measure_prepare", "d": 2, "M": 3,
                   "prep": [prep_zero()[0], MIXED_PREP],
                   "povm": [prep_zero()[0], [[[0.0, 0.0], [0.0, 0.0]],
                                             [[0.0, 0.0], [1.0, 0.0]]]]}
        rec, = run_scenario(scenario_from_dict(cloner_scenario(
            channel=channel, checks=["lemma1"])))
        assert rec.satisfied_lemma1
        one = {"type": "pure", "coeffs": [[0.0, 0.0], [1.0, 0.0]]}
        with pytest.raises(SchemaError, match=r"^scenario\.channel\.prep\[1\]: mixed"):
            run_scenario(scenario_from_dict(cloner_scenario(
                channel=channel, input=one, checks=["lemma1"])))

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
    def test_zero_stderr_reads_roundoff_as_zero_and_more_as_inf(self):
        ref, zero = np.ones(2), np.zeros(2)
        assert _max_sigma(ref + np.array([2e-16, 0.0]), ref, zero) == 0.0
        assert _max_sigma(ref + np.array([1e-6, 0.0]), ref, zero) == math.inf
        mixed = _max_sigma(np.array([1.5, 1 + 2e-16]), ref, np.array([0.25, 0.0]))
        assert mixed == 2.0

    def test_record_shape(self):
        rec = moment_check_record(2, 2, samples=4000, seed=11)
        assert rec.d == 2 and rec.M == 2 and rec.k == 2 and rec.N is None
        assert rec.bound_exact == MC_SIGMA_THRESHOLD
        assert rec.actual_distance >= 0.0
        assert rec.satisfied_mc
        assert rec.wall_time_ms > 0

    def test_suite_moment_rows_are_pinned(self):
        # the deviations, in standard errors, that run_suite(42) reports
        # for the moments 1-4, pinned where the sampler compares them
        rows = run_suite(42)[-4:]
        assert [(r.M, r.k) for r in rows] == [(1, 1), (2, 2), (3, 3), (4, 4)]
        pinned = [0.779127385041, 1.6683161934, 1.68519709095, 1.6468997997]
        for row, sigma in zip(rows, pinned):
            assert row.actual_distance == pytest.approx(sigma, rel=1e-9)
            assert row.satisfied_mc


class TestEmission:
    def _row(self):
        return ResultRecord(d=2, N=1, M=2, k=1, p=None, seed=None,
                            actual_distance=1 / 6, satisfied_lemma1=True,
                            wall_time_ms=12.5)

    def test_csv_header(self):
        text = emit([self._row()])
        assert text.splitlines()[0] == ",".join(RECORD_COLUMNS)

    def test_csv_formatting(self):
        line = emit([self._row()]).splitlines()[1]
        cells = line.split(",")
        cols = dict(zip(RECORD_COLUMNS, cells))
        assert cols["d"] == "2"
        assert cols["actual_distance"] == "0.166666666667"
        assert cols["satisfied_lemma1"] == "true"
        assert cols["p"] == ""
        assert cols["wall_time_ms"] == ""

    def test_csv_timings_flag(self):
        line = emit([self._row()], timings=True).splitlines()[1]
        assert line.endswith("12.5")

    def test_false_flag_renders(self):
        row = self._row()
        row.satisfied_lemma1 = False
        assert ",false," in emit([row]).splitlines()[1] + ","

    def test_json_roundtrip(self):
        rows = [self._row(), moment_check_record(2, 1, 500, seed=2)]
        back = json.loads(emit(rows, fmt="json", timings=True))
        assert back == [r.to_dict() for r in rows]

    def test_non_finite_cells_are_strict_json(self):
        # the CSV's tokens, as JSON strings: json.dumps's bare Infinity and
        # NaN are not JSON
        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        rows = [{"a": float("inf"), "b": float("-inf"), "c": float("nan"), "d": 1.5}]
        text = render_rows(rows, ("a", "b", "c", "d"), "json")
        assert json.loads(text, parse_constant=refuse) == [
            {"a": "inf", "b": "-inf", "c": "nan", "d": 1.5}]
        assert render_rows(rows, ("a", "b", "c", "d")) == "a,b,c,d\ninf,-inf,nan,1.5\n"

    def test_json_hides_timings_by_default(self):
        data = json.loads(emit([self._row()], fmt="json"))
        assert data[0]["wall_time_ms"] is None
        assert data[0]["actual_distance"] == pytest.approx(1 / 6)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            emit([])
        with pytest.raises(ValueError, match="no records"):
            emit([], fmt="json")

    def test_emit_writes_file(self, tmp_path, capsys):
        # the CLI writes what emit renders, to --out FILE or, for -, stdout
        src, target = tmp_path / "scenario.json", tmp_path / "rows.csv"
        src.write_text(json.dumps(cloner_scenario()))
        text = emit(run_scenario(scenario_from_dict(cloner_scenario())))
        assert main(["run", str(src), "--out", str(target)]) == 0
        assert target.read_text() == text
        assert main(["run", str(src), "--out", "-"]) == 0
        assert capsys.readouterr().out == text

    def test_emit_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit([self._row()], fmt="tsv")

    def test_rerun_is_byte_identical(self):
        cfg = scenario_from_dict(cloner_scenario())
        a = emit(run_scenario(cfg))
        b = emit(run_scenario(cfg))
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


# -- schema fuzzing ----------------------------------------------------------

FUZZ_BASES = [
    cloner_scenario(label="fuzz", output={"format": "json", "path": None}),
    prep_scenario(input={"type": "diag", "probs": [0.25, 0.75]}),
    prep_scenario(checks=["lemma1", "mc_crosscheck"], k=[1],
                  mc={"samples": 10, "seed": 3}),
    {"schema": 1,
     "channel": {"kind": "measure_prepare", "d": 2, "M": 2,
                 "prep": prep_zero() * 2,
                 "povm": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                          [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
     "input": {"type": "random_pure", "seed": 5},
     "k": [1, 2],
     "checks": ["theorem2"]},
    cloner_scenario(channel={"kind": "noisy_cloner", "d": 2, "N": 1, "M": 3,
                             "p": 0.1}, checks=["theorem2"]),
]

JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 1024 - 1]),
              st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=4)),
    max_leaves=8)


def _paths(value, prefix=()):
    """Every position inside a JSON value, as a tuple of keys and indices."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield from _paths(sub, prefix + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(data=st.data())
def test_fuzzed_field_parses_or_raises_schema_error(data):
    base = data.draw(st.sampled_from(FUZZ_BASES))
    path = data.draw(st.sampled_from(list(_paths(base))))
    try:
        scenario_from_dict(_replaced(base, path, data.draw(JSON_VALUES)))
    except SchemaError:
        pass
