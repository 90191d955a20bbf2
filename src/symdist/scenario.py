"""Scenario configs, the run pipeline, and delimited output.

A scenario names a channel, an input state, the marginal sizes k to examine
and the checks to run; running it yields one ResultRecord per k with the
computed distances, bounds and satisfied flags.  Emission is CSV (fixed
column order, floats at 12 significant digits) or JSON mirroring the field
names; both are byte-stable across runs unless timings are requested.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .channels import SDIChannelSpec, _json_complex, _json_real
from .definetti import (
    OccupationState,
    SupportError,
    check_mc_route,
    mc_reduce_coords,
    purified_state,
    symmetric_state,
)
from .linalg import DEFAULT_DIM_CAP, DenseOperator, ket, validate_state
from .metrics import (
    BOUND_SLACK,
    general_bound,
    helstrom_perr,
    lemma1_bound,
    perr_lower_bound,
    trace_distance,
    universal_clone_gap,
)
from .symspace import (
    check_dense_route,
    check_occupation_route,
    sym_dim,
    symmetrizer,
)

SCHEMA_VERSION = 1
CHECKS = ("lemma1", "theorem2", "perr", "fidelity_gap", "mc_crosscheck")
MC_SIGMA_THRESHOLD = 5.0


class SchemaError(ValueError):
    """Invalid scenario config; the message carries the offending field path."""


@dataclass(frozen=True)
class ScenarioConfig:
    channel: SDIChannelSpec
    input_state: dict
    k_list: tuple[int, ...]
    checks: tuple[str, ...]
    mc: dict | None = None
    output: dict | None = None  # {"format": csv|json, "path": str}
    label: str | None = None


@dataclass
class ResultRecord:
    """One row of output: parameters, measured quantities, pass flags.

    Empty fields stay None; satisfied_* is None when the check did not run.
    For MC moment rows actual_distance is the worst componentwise deviation
    in standard-error units and bound_exact the flag threshold, keeping the
    rule `satisfied iff actual <= bound + slack` uniform across rows.
    """

    d: int
    N: int | None
    M: int
    k: int
    p: float | None
    seed: int | None
    actual_distance: float | None = None
    bound_exact: float | None = None
    bound_asymptotic: float | None = None
    p_err: float | None = None
    p_err_bound: float | None = None
    F_clon: float | None = None
    F_tilde: float | None = None
    gap_formula: float | None = None
    satisfied_lemma1: bool | None = None
    satisfied_theorem2: bool | None = None
    satisfied_perr: bool | None = None
    satisfied_fidelity_gap: bool | None = None
    satisfied_mc: bool | None = None
    wall_time_ms: float | None = None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ResultRecord":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown record fields {sorted(unknown)}")
        missing = names - set(data)
        if missing:
            raise ValueError(f"missing record fields {sorted(missing)}")
        return cls(**data)


RECORD_COLUMNS = tuple(f.name for f in fields(ResultRecord))


# -- config parsing ----------------------------------------------------------


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _numbers(rule, values: list, path: str) -> list:
    """Each entry under a number rule of channels; a violation names it."""
    try:
        return [rule(x, f"{path}[{i}]") for i, x in enumerate(values)]
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _parse_input_state(data, path: str, d: int) -> dict:
    _require(isinstance(data, dict), path, "expected an object")
    kind = data.get("type")
    _require(kind in ("pure", "diag", "random_pure"), f"{path}.type",
             f"expected pure, diag or random_pure, got {kind!r}")
    if kind == "pure":
        coeffs = data.get("coeffs")
        _require(isinstance(coeffs, list) and len(coeffs) == d, f"{path}.coeffs",
                 f"expected {d} [re, im] pairs")
        vec = np.array(_numbers(_json_complex, coeffs, f"{path}.coeffs"))
        with np.errstate(over="ignore"):  # a norm beyond the float range fails below
            nrm = float(np.linalg.norm(vec))
        _require(abs(nrm - 1.0) <= 1e-9, f"{path}.coeffs",
                 "ket must be normalized within 1e-9")
        return {"type": "pure", "vec": vec}
    if kind == "diag":
        probs = data.get("probs")
        _require(isinstance(probs, list) and len(probs) == d, f"{path}.probs",
                 f"expected {d} probabilities")
        arr = np.array(_numbers(_json_real, probs, f"{path}.probs"))
        _require(bool(np.all(arr >= -1e-12)), f"{path}.probs",
                 "probabilities must be non-negative")
        with np.errstate(over="ignore"):
            total = float(arr.sum())
        _require(abs(total - 1.0) <= 1e-9, f"{path}.probs",
                 "probabilities must sum to 1 within 1e-9")
        return {"type": "diag", "probs": arr}
    seed = data.get("seed")
    _require(_is_int(seed) and seed >= 0, f"{path}.seed",
             "expected a non-negative integer seed")
    return {"type": "random_pure", "seed": seed}


def scenario_from_dict(data: dict, where: str = "scenario") -> ScenarioConfig:
    _require(isinstance(data, dict), where, "expected an object")
    schema = data.get("schema")
    _require(_is_int(schema) and schema == SCHEMA_VERSION, f"{where}.schema",
             f"expected {SCHEMA_VERSION}")
    try:
        spec = SDIChannelSpec.from_json(data.get("channel"))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{where}.channel: {exc}") from exc
    parsed_input = _parse_input_state(data.get("input"), f"{where}.input", spec.d)
    if spec.kind in ("universal_cloner", "noisy_cloner"):
        _require(parsed_input["type"] != "diag", f"{where}.input.type",
                 f"{spec.kind} takes a pure input ket")
    k_raw = data.get("k")
    _require(isinstance(k_raw, list) and k_raw, f"{where}.k",
             "expected a non-empty list of integers")
    k_list = []
    for i, k in enumerate(k_raw):
        _require(_is_int(k) and 1 <= k <= spec.M, f"{where}.k[{i}]",
                 f"expected an integer in 1..{spec.M}")
        k_list.append(k)
    _require(len(set(k_list)) == len(k_list), f"{where}.k", "duplicate entries")
    checks_raw = data.get("checks")
    _require(isinstance(checks_raw, list) and checks_raw, f"{where}.checks",
             "expected a non-empty list")
    for i, c in enumerate(checks_raw):
        _require(c in CHECKS, f"{where}.checks[{i}]",
                 f"unknown check {c!r}; expected one of {list(CHECKS)}")
    checks = tuple(dict.fromkeys(checks_raw))
    _require(not ("lemma1" in checks and "theorem2" in checks), f"{where}.checks",
             "lemma1 and theorem2 are mutually exclusive; run two scenarios")
    for c in ("perr", "fidelity_gap", "mc_crosscheck"):
        if c in checks:
            _require(1 in k_list, f"{where}.checks",
                     f"{c} is a single-user check; k must include 1")
    if "perr" in checks or "fidelity_gap" in checks:
        _require("lemma1" in checks, f"{where}.checks",
                 "perr/fidelity_gap ride on the lemma1 route; add lemma1")
    if "fidelity_gap" in checks:
        _require(spec.kind == "universal_cloner", f"{where}.checks",
                 "fidelity_gap applies to the universal cloner only")
    mc = data.get("mc")
    if "mc_crosscheck" in checks:
        _require(isinstance(mc, dict), f"{where}.mc",
                 "mc_crosscheck requires an mc object")
        samples = mc.get("samples")
        seed = mc.get("seed")
        _require(_is_int(samples) and samples >= 2, f"{where}.mc.samples",
                 "expected an integer >= 2")
        _require(_is_int(seed) and seed >= 0, f"{where}.mc.seed",
                 "expected a non-negative integer")
        mc = {"samples": samples, "seed": seed}
    else:
        mc = None
    output = data.get("output")
    if output is not None:
        _require(isinstance(output, dict), f"{where}.output", "expected an object")
        fmt = output.get("format", "csv")
        _require(fmt in ("csv", "json"), f"{where}.output.format",
                 f"expected csv or json, got {fmt!r}")
        path = output.get("path")
        _require(path is None or isinstance(path, str), f"{where}.output.path",
                 "expected a string path")
        output = {"format": fmt, "path": path}
    label = data.get("label")
    if label is not None:
        _require(isinstance(label, str), f"{where}.label", "expected a string")
    return ScenarioConfig(
        channel=spec,
        input_state=parsed_input,
        k_list=tuple(k_list),
        checks=checks,
        mc=mc,
        output=output,
        label=label,
    )


def load_scenarios(text: str, defaults: dict | None = None) -> list[ScenarioConfig]:
    """Parse a scenario file: one scenario object or a list of them.  The
    fields of each object override those of `defaults`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    listed = isinstance(data, list)
    entries = data if listed else [data]
    for i, entry in enumerate(entries):
        _require(isinstance(entry, dict), f"scenario[{i}]", "expected an object")
    return [scenario_from_dict({**(defaults or {}), **entry},
                               f"scenario[{i}]" if listed else "scenario")
            for i, entry in enumerate(entries)]


# -- running -----------------------------------------------------------------


def _input_state(cfg: ScenarioConfig) -> tuple[DenseOperator, int | None]:
    """The input as a ket (a density matrix for diag inputs), and its seed."""
    info = cfg.input_state
    if info["type"] == "pure":
        return ket(info["vec"]), None
    if info["type"] == "random_pure":
        # a Haar ket from its own stream; Monte Carlo draws from (seed, 1)
        rng, d = np.random.default_rng((info["seed"], 0, 0)), cfg.channel.d
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return ket(z / np.linalg.norm(z)), info["seed"]
    return DenseOperator(np.diag(info["probs"]), (cfg.channel.d,)), None


def _output(cfg: ScenarioConfig, phi: DenseOperator,
            cap: int) -> tuple[OccupationState, DenseOperator | None]:
    """The output in occupation coordinates, plus its dense form on
    (C^d)^{tensor M}, which specs symmetric by construction skip unless
    theorem2 asks for the pair purification (coordinates at d^2)."""
    spec = cfg.channel
    if spec.symmetric_by_construction and "theorem2" not in cfg.checks:
        check_occupation_route(spec.d, spec.M, cfg.k_list, cap=cap)
        coords = spec.symmetric_output(phi, cap=cap)
        validate_state(DenseOperator(coords, (len(coords),)),
                       name="channel output")
        return OccupationState(coords, spec.d, spec.M), None
    check_dense_route(spec.d, spec.M, cfg.k_list, "theorem2" in cfg.checks, cap)
    rho = spec.dense_output(phi, cap)
    if "theorem2" in cfg.checks:
        return purified_state(rho, cap), rho
    try:
        return symmetric_state(rho, cap), rho
    except SupportError as exc:
        if "lemma1" not in cfg.checks:
            raise
        raise SchemaError(
            "scenario.checks: lemma1 requires a symmetric-support channel "
            f"(support residual {exc.residual:.3e}); use theorem2"
        ) from exc


def _fidelity(phi: DenseOperator, rho: DenseOperator) -> float:
    u = phi.entries[:, 0]
    return float(np.real(np.vdot(u, rho.entries @ u)))


def run_scenario(cfg: ScenarioConfig,
                 cap: int = DEFAULT_DIM_CAP) -> list[ResultRecord]:
    """Execute a scenario; one record per k, in k_list order."""
    start = time.perf_counter()
    spec = cfg.channel
    phi, input_seed = _input_state(cfg)
    out, dense = _output(cfg, phi, cap)
    bound = flag = None
    if "lemma1" in cfg.checks:
        bound, flag = lemma1_bound, "satisfied_lemma1"
    elif "theorem2" in cfg.checks:
        bound, flag = general_bound, "satisfied_theorem2"
    seed = cfg.mc["seed"] if cfg.mc else input_seed
    records = []
    for k in cfg.k_list:
        rho_k = out.marginal(k, cap)
        row = ResultRecord(d=spec.d, N=spec.N, M=spec.M, k=k, p=spec.p, seed=seed)
        tilde = None
        if bound is not None:
            tilde = out.reduction(k, cap)
            row.actual_distance = trace_distance(rho_k, tilde)
            row.bound_exact = bound(spec.d, spec.M, k)
            row.bound_asymptotic = bound(spec.d, spec.M, k, asymptotic=True)
            setattr(row, flag,
                    row.actual_distance <= row.bound_exact + BOUND_SLACK)
        if k != 1:
            records.append(row)
            continue
        if "perr" in cfg.checks:
            row.p_err = helstrom_perr(row.actual_distance)
            row.p_err_bound = perr_lower_bound(spec.d, spec.M)
            row.satisfied_perr = row.p_err >= row.p_err_bound - BOUND_SLACK
        if "fidelity_gap" in cfg.checks:
            # lemma1 rides along (the parser insists), so tilde is the
            # exact imitation's single-user state
            row.F_clon = _fidelity(phi, rho_k)
            row.F_tilde = _fidelity(phi, tilde)
            row.gap_formula = universal_clone_gap(spec.N, spec.M, spec.d)
            diff = row.F_clon - row.F_tilde
            row.satisfied_fidelity_gap = (
                diff >= -BOUND_SLACK
                and diff <= row.actual_distance + BOUND_SLACK
                and row.actual_distance <= row.bound_exact + BOUND_SLACK
            )
        if "mc_crosscheck" in cfg.checks:
            # The sampler estimates the symmetric-route reduction, so that is
            # the only reference its stderr applies to; under theorem2 the
            # exact columns hold the purified route's state instead.
            sym = symmetric_state(dense, cap) if out.paired else out
            est, stderr = mc_reduce_coords(sym.coords, spec.d, spec.M, 1,
                                           cfg.mc["samples"], cfg.mc["seed"])
            sigma = _max_sigma(est, sym.reduction(1, cap).entries, stderr)
            row.satisfied_mc = sigma <= MC_SIGMA_THRESHOLD + BOUND_SLACK
        records.append(row)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    for row in records:
        row.wall_time_ms = elapsed_ms
    return records


def _max_sigma(estimate: np.ndarray, reference: np.ndarray,
               stderr: np.ndarray) -> float:
    dev = np.abs(estimate - reference)
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = np.where(dev == 0.0, 0.0, dev / stderr)
    return float(np.max(sig))


def moment_check_record(d: int, n: int, samples: int, seed: int) -> ResultRecord:
    """Haar-moment identity as a record: the sampled n-copy mixture of the
    maximally mixed symmetric state must reproduce the symmetrizer / s_n."""
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    start = time.perf_counter()
    check_mc_route(d, n, n)  # before the state below is allocated
    s_n = sym_dim(d, n)
    est, stderr = mc_reduce_coords(np.eye(s_n) / s_n, d, n, n, samples, seed)
    sigma = _max_sigma(est, symmetrizer(d, n).entries / s_n, stderr)
    return ResultRecord(
        d=d, N=None, M=n, k=n, p=None, seed=seed,
        actual_distance=sigma,
        bound_exact=MC_SIGMA_THRESHOLD,
        satisfied_mc=sigma <= MC_SIGMA_THRESHOLD + BOUND_SLACK,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
    )


# -- emission ----------------------------------------------------------------


def _format_cell(value, timings: bool, name: str) -> str:
    if name == "wall_time_ms" and not timings:
        return ""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def records_to_csv(records: Sequence[ResultRecord], timings: bool = False) -> str:
    if not records:
        raise ValueError("no records to emit")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    for rec in records:
        row = rec.to_dict()
        writer.writerow([_format_cell(row[c], timings, c) for c in RECORD_COLUMNS])
    return buf.getvalue()


def records_to_json(records: Sequence[ResultRecord], timings: bool = False) -> str:
    if not records:
        raise ValueError("no records to emit")
    out = []
    for rec in records:
        row = rec.to_dict()
        if not timings:
            row["wall_time_ms"] = None
        out.append(row)
    return json.dumps(out, indent=2) + "\n"


def records_from_json(text: str) -> list[ResultRecord]:
    """Only tests call it, to check that records_to_json round-trips."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of records")
    return [ResultRecord.from_dict(d) for d in data]


def emit(records: Sequence[ResultRecord], fmt: str = "csv",
         path: str | None = None, timings: bool = False) -> str:
    """Render records; when `path` is given, also write them there."""
    if fmt == "csv":
        text = records_to_csv(records, timings=timings)
    elif fmt == "json":
        text = records_to_json(records, timings=timings)
    else:
        raise ValueError(f"unknown output format {fmt!r}; expected csv or json")
    if path is not None and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    return text


def all_satisfied(records: Sequence[ResultRecord]) -> bool:
    flags = [c for c in RECORD_COLUMNS if c.startswith("satisfied_")]
    return all(getattr(rec, f) is not False for rec in records for f in flags)


# -- bundled suite -----------------------------------------------------------


def _basis_input(d: int) -> dict:
    coeffs = [[0.0, 0.0]] * d
    coeffs[0] = [1.0, 0.0]
    return {"type": "pure", "coeffs": coeffs}


def _basis_prep(d: int) -> list:
    """The prep list of a fixed_prep spec that hands out |0><0|."""
    mat = [[[0.0, 0.0] for _ in range(d)] for _ in range(d)]
    mat[0][0] = [1.0, 0.0]
    return [mat]


def default_suite(seed: int = 1) -> list[dict]:
    """Scenario dicts covering the bounds, fidelity chain, noise route and MC.

    Everything is seeded off the single argument, so repeat runs are
    byte-identical.
    """
    qubit = _basis_input(2)
    suite: list[dict] = [{
        "schema": 1,
        "label": "ten-user cloner",
        "channel": {"kind": "universal_cloner", "d": 2, "N": 1, "M": 10},
        "input": qubit,
        "k": [1, 2, 3],
        "checks": ["lemma1", "perr", "fidelity_gap"],
    }]
    for n_in in (1, 2):
        for m_users in range(max(n_in, 2), 9):
            suite.append({
                "schema": 1,
                "label": f"cloner sweep N={n_in} M={m_users}",
                "channel": {"kind": "universal_cloner", "d": 2,
                            "N": n_in, "M": m_users},
                "input": qubit,
                "k": [k for k in (1, 2, 3) if k <= m_users],
                "checks": ["lemma1"],
            })
    for m_users in (2, 4, 6, 8):
        suite.append({
            "schema": 1,
            "label": f"fixed prep M={m_users}",
            "channel": {"kind": "fixed_prep", "d": 2, "M": m_users,
                        "prep": _basis_prep(2)},
            "input": qubit,
            "k": [1, 2],
            "checks": ["lemma1", "perr"],
        })
    for m_users in (2, 3, 4):
        suite.append({
            "schema": 1,
            "label": f"noisy cloner M={m_users}",
            "channel": {"kind": "noisy_cloner", "d": 2, "N": 1,
                        "M": m_users, "p": 0.1},
            "input": qubit,
            "k": [1, 2],
            "checks": ["theorem2"],
        })
    for i, (n_in, m_users, d) in enumerate(
            [(1, 2, 2), (1, 3, 2), (2, 3, 2), (2, 4, 2), (1, 2, 3)]):
        suite.append({
            "schema": 1,
            "label": f"fidelity chain N={n_in} M={m_users} d={d}",
            "channel": {"kind": "universal_cloner", "d": d,
                        "N": n_in, "M": m_users},
            "input": {"type": "random_pure", "seed": seed * 1000 + i},
            "k": [1],
            "checks": ["lemma1", "perr", "fidelity_gap"],
        })
    suite.append({
        "schema": 1,
        "label": "mc crosscheck",
        "channel": {"kind": "fixed_prep", "d": 2, "M": 2,
                    "prep": _basis_prep(2)},
        "input": qubit,
        "k": [1],
        "checks": ["lemma1", "mc_crosscheck"],
        "mc": {"samples": 100000, "seed": seed},
    })
    return suite


def run_suite(seed: int = 1, cap: int = DEFAULT_DIM_CAP) -> list[ResultRecord]:
    records: list[ResultRecord] = []
    for data in default_suite(seed):
        records.extend(run_scenario(scenario_from_dict(data), cap=cap))
    for n in (1, 2, 3, 4):
        records.append(moment_check_record(2, n, samples=100000, seed=seed))
    return records
