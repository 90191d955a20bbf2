"""Scenario configs, the run pipeline, and delimited output.

A scenario names a channel, an input state (settled when it is parsed, as
the array a run reads), the marginal sizes k to examine and the checks to
run; running it yields one ResultRecord per k with the computed distances,
bounds and satisfied flags.  A cloner runs in its input's frame (|0>), with
diagonal lemma1 states and no ket drawn or built.  This module alone reads
the scenario format, channel objects too, under one integer rule (_is_int)
and one number rule (_real); SDIChannelSpec checks what a channel holds,
and each refusal is a SchemaError naming its field.  It owns the output
format: render_rows, the one table writer, renders these records (through
emit) and the bounds table of the CLI as CSV (fixed column order, floats at
12 significant digits) or JSON mirroring the column names; both are
byte-stable across runs unless timings are requested.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channels import SDIChannelSpec, SupportError, _same_fields
from .definetti import OccupationState, mc_reduce_coords, purified_state
from .linalg import DEFAULT_DIM_CAP, validate_state
from .metrics import (
    BOUND_SLACK,
    general_bound,
    helstrom_perr,
    lemma1_bound,
    perr_lower_bound,
    trace_distance,
    universal_clone_gap,
)
from .symspace import Plan, plan, sym_dim

SCHEMA_VERSION = 1
CHECKS = ("lemma1", "theorem2", "perr", "fidelity_gap", "mc_crosscheck")
MC_SIGMA_THRESHOLD = 5.0


class SchemaError(ValueError):
    """Invalid scenario config; the message carries the offending field path."""


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario: phi and input_seed are from _parse_input_state."""

    channel: SDIChannelSpec
    phi: np.ndarray | None
    input_seed: int | None
    k_list: tuple[int, ...]
    checks: tuple[str, ...]
    mc: dict | None = None
    output: dict | None = None  # {"format": csv|json, "path": str}
    label: str | None = None

    __eq__ = _same_fields  # channel first: where it agrees, phi is None on both or neither


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
        return {c: getattr(self, c) for c in RECORD_COLUMNS}


RECORD_COLUMNS = tuple(f.name for f in fields(ResultRecord))


# -- config parsing ----------------------------------------------------------


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _real(value, where: str) -> float:
    """The rule for every number of a scenario: an int or a float, not a
    JSON true/false, and finite as a float."""
    if type(value) is float and math.isfinite(value):  # most numbers, first
        return value
    if not (_is_int(value) or isinstance(value, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    _require(math.isfinite(x), where, "expected a finite number")
    return x


def _complex(pair, where: str) -> complex:
    """An [re, im] pair, both under the rule of _real."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise SchemaError(f"{where}: expected an [re, im] pair")
    return complex(_real(pair[0], where), _real(pair[1], where))


def _matrices(matrices: list, where: str) -> list[np.ndarray]:
    """Each matrix of [re, im] pairs under _complex (a refusal names it,
    where[i]), in one pass: complex where some imaginary part is nonzero."""
    shapes, zs = [], []
    for i, rows in enumerate(matrices):
        at = f"{where}[{i}]"
        _require(isinstance(rows, list) and rows and all(
            isinstance(row, list) and row and len(row) == len(rows[0]) for row in rows),
            at, "expected a matrix of [re, im] pairs")
        shapes.append((len(rows), len(rows[0])))
        zs += [_complex(z, at) for row in rows for z in row]
    x = np.array(zs, dtype=complex)
    x = x if x.imag.any() else x.real.copy()
    ends = itertools.accumulate(a * b for a, b in shapes)
    return [x[end - a * b:end].reshape(a, b) for end, (a, b) in zip(ends, shapes)]


def _channel(data, where: str) -> SDIChannelSpec:
    """The channel object as a spec: its numbers read here, every field
    checked by SDIChannelSpec, a refusal named after `where`."""
    _require(isinstance(data, dict), where, "channel spec must be a JSON object")
    p, prep, povm = data.get("p"), data.get("prep"), data.get("povm")
    for name, matrices in (("prep", prep), ("povm", povm)):
        _require(matrices is None or isinstance(matrices, list), f"{where}: {name}",
                 "expected a list of matrices")
    p = None if p is None else _real(p, f"{where}: p")
    prep = None if prep is None else _matrices(prep, f"{where}: prep")
    povm = None if povm is None else _matrices(povm, f"{where}: povm")
    try:
        return SDIChannelSpec(data.get("kind"), data.get("d"), data.get("M"),
                              data.get("N"), p, prep, povm)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_input_state(data, path: str, spec: SDIChannelSpec) -> tuple:
    """The array that a run of `spec` reads (a unit ket, a diag input's
    density matrix, or None for a cloner, whose ket is never drawn), and
    a random_pure input's seed (else None)."""
    _require(isinstance(data, dict), path, "expected an object")
    kind, d = data.get("type"), spec.input_dim
    _require(kind in ("pure", "diag", "random_pure"), f"{path}.type",
             f"expected pure, diag or random_pure, got {kind!r}")
    if kind == "pure":
        coeffs = data.get("coeffs")
        _require(isinstance(coeffs, list) and len(coeffs) == d, f"{path}.coeffs",
                 f"expected {d} [re, im] pairs")
        vec = np.array([_complex(z, f"{path}.coeffs[{i}]") for i, z in enumerate(coeffs)])
        with np.errstate(over="ignore"):  # a norm beyond the float range fails below
            nrm = float(np.linalg.norm(vec))
        _require(abs(nrm - 1.0) <= 1e-9, f"{path}.coeffs",
                 "ket must be normalized within 1e-9")
        return None if spec.covariant else vec, None
    if kind == "diag":
        probs = data.get("probs")
        _require(isinstance(probs, list) and len(probs) == d, f"{path}.probs",
                 f"expected {d} probabilities")
        arr = np.array([_real(x, f"{path}.probs[{i}]") for i, x in enumerate(probs)])
        _require(bool(np.all(arr >= -1e-12)), f"{path}.probs",
                 "probabilities must be non-negative")
        with np.errstate(over="ignore"):
            total = float(arr.sum())
        _require(abs(total - 1.0) <= 1e-9, f"{path}.probs",
                 "probabilities must sum to 1 within 1e-9")
        _require(not spec.covariant, f"{path}.type", f"{spec.kind} takes a pure input ket")
        return np.diag(arr), None
    seed = data.get("seed")
    _require(_is_int(seed) and seed >= 0, f"{path}.seed",
             "expected a non-negative integer seed")
    if spec.covariant:
        return None, seed
    # a Haar ket from its own stream; Monte Carlo draws from (seed, 1)
    rng = np.random.default_rng((seed, 0, 0))
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z), seed


def scenario_from_dict(data: dict, where: str = "scenario") -> ScenarioConfig:
    _require(isinstance(data, dict), where, "expected an object")
    schema = data.get("schema")
    _require(_is_int(schema) and schema == SCHEMA_VERSION, f"{where}.schema",
             f"expected {SCHEMA_VERSION}")
    spec = _channel(data.get("channel"), f"{where}.channel")
    phi, input_seed = _parse_input_state(data.get("input"), f"{where}.input", spec)
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
        _require(_is_int(samples) and 2 <= samples < 2 ** 63, f"{where}.mc.samples",
                 "expected an integer from 2 to 2^63 - 1")
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
        phi=phi,
        input_seed=input_seed,
        k_list=tuple(k_list),
        checks=checks,
        mc=mc,
        output=output,
        label=label,
    )


def load_scenarios(text: str, defaults: dict | None = None) -> list[ScenarioConfig]:
    """Parse a scenario file: one scenario object or a non-empty list of
    them.  The fields of each object override those of `defaults`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("scenario file is nested too deeply to parse") from exc
    listed = isinstance(data, list)
    entries = data if listed else [data]
    _require(entries, "scenario file", "expected a scenario object or a non-empty list of them")
    for i, entry in enumerate(entries):
        _require(isinstance(entry, dict), f"scenario[{i}]", "expected an object")
    return [scenario_from_dict({**(defaults or {}), **entry},
                               f"scenario[{i}]" if listed else "scenario")
            for i, entry in enumerate(entries)]


# -- running -----------------------------------------------------------------


def _plan(cfg: ScenarioConfig, cap: int) -> Plan:
    """The run's checked plan: theorem2 takes the dense route; lemma1 and
    mc_crosscheck need Sym^M, which the field named by symmetric_field decides."""
    spec, theorem2 = cfg.channel, "theorem2" in cfg.checks
    return plan(spec.d, spec.M, cfg.k_list, route="dense" if theorem2 else "symmetric",
                field="scenario." + ("checks" if theorem2 else spec.symmetric_field),
                rows=spec.rows, preps=0 if spec.covariant else len(spec.prep),
                mc=1 if "mc_crosscheck" in cfg.checks else None, itemsize=spec.itemsize, cap=cap)


def _output(cfg: ScenarioConfig, cap: int) -> OccupationState | None:
    """The symmetric state, from symmetric_output, that lemma1 sweeps and
    mc_crosscheck samples (None under theorem2 alone); outside Sym^M a SchemaError."""
    if "theorem2" in cfg.checks and "mc_crosscheck" not in cfg.checks:
        return None
    try:
        coords = cfg.channel.symmetric_output(cfg.phi, cap)
    except SupportError as exc:
        raise SchemaError(f"scenario.{exc}; " + (
            "lemma1 requires a symmetric-support output, use theorem2"
            if "lemma1" in cfg.checks else "mc_crosscheck samples the "
            "symmetric subspace, so it requires a symmetric-support output")
        ) from exc
    validate_state(coords, name="channel output", ket=coords.ndim == 2)
    return OccupationState(coords, cfg.channel.d, cfg.channel.M)


def _distances(state: OccupationState, ks, cap: int) -> tuple[dict[int, float], tuple]:
    """Each k's distance, taken as the sweep passes k so that one pair is
    held, and the pair at k = 1 (None, None without it)."""
    distance, first = {}, (None, None)
    for k, rho_k, tilde in state.sweep(ks, cap):
        distance[k] = trace_distance(rho_k, tilde)
        if k == 1:
            first = rho_k, tilde
    return distance, first


def _theorem2_distances(spec: SDIChannelSpec, phi: np.ndarray | None, ks,
                        cap: int) -> dict[int, float]:
    """Theorem2's distance at each k of ks, for every kind: one sweep of the
    pair purification of dense_output."""
    return _distances(purified_state(spec.dense_output(phi, cap), cap), ks, cap)[0]


@lru_cache(maxsize=64)
def _covariant_distances(spec: SDIChannelSpec, top: int, cap: int) -> tuple[float, ...]:
    """_theorem2_distances at k = 1..top of a covariant spec, whose output
    reads no input: one entry per (kind, d, N, M, p), top = max(ks) and cap.
    Each is the one a run at ks takes, bit for bit, from the same sweep down
    from top; the plan's dense stages grow with k, so going on to k = 1
    refuses nothing.  A refusal or failure caches nothing."""
    distance = _theorem2_distances(spec, None, range(1, top + 1), cap)
    return tuple(distance[k] for k in range(1, top + 1))


def run_scenario(cfg: ScenarioConfig,
                 cap: int = DEFAULT_DIM_CAP) -> list[ResultRecord]:
    """Execute a scenario; one record per k, in k_list order.  Two routes:
    lemma1's distances come from one sweep of _output's symmetric state,
    theorem2's from _theorem2_distances (through _covariant_distances'
    memo for a covariant spec); mc_crosscheck samples the symmetric state."""
    start = time.perf_counter()
    spec = cfg.channel
    _plan(cfg, cap)
    seed = cfg.mc["seed"] if cfg.mc else cfg.input_seed
    sym = _output(cfg, cap)
    bound = flag = None
    distance, (rho_1, tilde_1) = {}, (None, None)
    if "lemma1" in cfg.checks:
        bound, flag = lemma1_bound, "satisfied_lemma1"
        distance, (rho_1, tilde_1) = _distances(sym, cfg.k_list, cap)
    elif "theorem2" in cfg.checks:
        bound, flag = general_bound, "satisfied_theorem2"
        distance = (dict(enumerate(_covariant_distances(spec, max(cfg.k_list), cap), 1))
                    if spec.covariant else _theorem2_distances(spec, cfg.phi, cfg.k_list, cap))
    records = []
    for k in cfg.k_list:
        row = ResultRecord(d=spec.d, N=spec.N, M=spec.M, k=k, p=spec.p, seed=seed)
        records.append(row)
        if bound is not None:
            row.actual_distance = distance[k]
            row.bound_exact = bound(spec.d, spec.M, k)
            row.bound_asymptotic = bound(spec.d, spec.M, k, asymptotic=True)
            setattr(row, flag,
                    row.actual_distance <= row.bound_exact + BOUND_SLACK)
        if k != 1:
            continue
        if "perr" in cfg.checks:
            row.p_err = helstrom_perr(row.actual_distance)
            row.p_err_bound = perr_lower_bound(spec.d, spec.M)
            row.satisfied_perr = row.p_err >= row.p_err_bound - BOUND_SLACK
        if "fidelity_gap" in cfg.checks:
            # lemma1 rides along (the parser insists), so rho_1 and tilde_1 are
            # the single-user diagonals on C^d in the input's frame: F = <0|.|0>
            row.F_clon = float(rho_1[0].real)
            row.F_tilde = float(tilde_1[0].real)
            row.gap_formula = universal_clone_gap(spec.N, spec.M, spec.d)
            diff = row.F_clon - row.F_tilde
            row.satisfied_fidelity_gap = (
                diff >= -BOUND_SLACK
                and diff <= row.actual_distance + BOUND_SLACK
                and row.actual_distance <= row.bound_exact + BOUND_SLACK
            )
        if "mc_crosscheck" in cfg.checks:
            # The sampler estimates the symmetric-route reduction, the only
            # reference its stderr applies to: tilde_1 under lemma1, while under
            # theorem2 the exact columns hold the purified route's state.
            ref = tilde_1 if "lemma1" in cfg.checks else next(sym.sweep([1], cap))[2]
            est, stderr = mc_reduce_coords(sym.coords, spec.d, spec.M, 1,
                                           cfg.mc["samples"], cfg.mc["seed"], cap)
            sigma = _max_sigma(est, ref, stderr)
            row.satisfied_mc = sigma <= MC_SIGMA_THRESHOLD + BOUND_SLACK
    elapsed_ms = (time.perf_counter() - start) * 1e3
    for row in records:
        row.wall_time_ms = elapsed_ms
    return records


def _max_sigma(estimate: np.ndarray, reference: np.ndarray,
               stderr: np.ndarray) -> float:
    """The largest deviation in standard errors (from a diagonal reference's
    matrix).  Where the stderr is 0, as when every draw is equal (at d = 1),
    a deviation within BOUND_SLACK is roundoff and reads 0; a larger one
    reads inf."""
    if reference.ndim < estimate.ndim:
        reference = np.diag(reference)
    dev = np.abs(estimate - reference)
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = np.where(stderr == 0.0, np.where(dev <= BOUND_SLACK, 0.0, np.inf),
                       dev / stderr)
    return float(np.max(sig))


def moment_check_record(d: int, n: int, samples: int, seed: int) -> ResultRecord:
    """Haar-moment identity as a record: the sampled n-copy mixture of the
    maximally mixed symmetric state must reproduce the symmetrizer / s_n,
    which in occupation coordinates is the identity / s_n, held as its
    diagonal."""
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    start = time.perf_counter()
    plan(d, n, output=False, mc=n)  # before the state exists
    s_n = sym_dim(d, n)
    moment = np.full(s_n, 1 / s_n)
    est, stderr = mc_reduce_coords(moment, d, n, n, samples, seed)
    sigma = _max_sigma(est, moment, stderr)
    return ResultRecord(
        d=d, N=None, M=n, k=n, p=None, seed=seed,
        actual_distance=sigma,
        bound_exact=MC_SIGMA_THRESHOLD,
        satisfied_mc=sigma <= MC_SIGMA_THRESHOLD + BOUND_SLACK,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
    )


# -- emission ----------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if type(value) is float:  # most cells, first
        return format(value, ".12g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def _json_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _format_cell(value)
    return value


def render_rows(rows: Sequence[dict], columns: Sequence[str],
                fmt: str = "csv") -> str:
    """The one table writer: rows (dicts keyed by `columns`) as CSV, a
    header and one line a row, cells at 12 significant digits and None
    empty, or as a strict JSON list of objects, None null and floats exact,
    a non-finite one as its CSV token in a string ("inf", "-inf", "nan").
    The CSV is joined in one pass, each cell formatted once: no column name
    or cell needs quoting, so it is the bytes a csv.writer would give."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}; expected csv or json")
    if not rows:
        raise ValueError("no records to emit")
    if fmt == "json":
        return json.dumps([{c: _json_cell(row[c]) for c in columns} for row in rows],
                          indent=2, allow_nan=False) + "\n"
    lines = [",".join(columns)]
    lines += [",".join(map(_format_cell, map(row.__getitem__, columns))) for row in rows]
    return "\n".join(lines) + "\n"


def emit(records: Sequence[ResultRecord], fmt: str = "csv",
         timings: bool = False) -> str:
    """Records as CSV or JSON text under RECORD_COLUMNS, through
    render_rows; wall_time_ms stays empty unless `timings`, so that reruns
    are byte-identical."""
    rows = [rec.to_dict() for rec in records]
    if not timings:
        for row in rows:
            row["wall_time_ms"] = None
    return render_rows(rows, RECORD_COLUMNS, fmt)


def all_satisfied(records: Sequence[ResultRecord]) -> bool:
    flags = [c for c in RECORD_COLUMNS if c.startswith("satisfied_")]
    return all(getattr(rec, f) is not False for rec in records for f in flags)


# -- bundled suite -----------------------------------------------------------


def _basis_input(d: int) -> dict:
    """The pure input |0> in C^d (no entries for d < 1, which the channel
    spec refuses first)."""
    return {"type": "pure", "coeffs": [[float(i == 0), 0.0] for i in range(d)]}


def _basis_prep(d: int) -> list:
    """The prep list of a fixed_prep spec that hands out |0><0|; 1 x 1 for
    d < 1, so that the spec's own check on d reports the error."""
    n = max(d, 1)
    return [[[[float(i == j == 0), 0.0] for j in range(n)] for i in range(n)]]


def default_suite(seed: int = 1) -> list[dict]:
    """Scenario dicts covering the bounds, fidelity chain, noise route and MC.

    Everything is seeded off the single argument, so repeat runs are
    byte-identical.
    """
    def entry(label, channel, ks, checks, state=None, **extra):
        return {"schema": SCHEMA_VERSION, "label": label, "channel": channel,
                "input": state or _basis_input(2), "k": ks, "checks": checks, **extra}

    def cloner(n_in, m_users, d=2):
        return {"kind": "universal_cloner", "d": d, "N": n_in, "M": m_users}

    def prep(m_users):
        return {"kind": "fixed_prep", "d": 2, "M": m_users, "prep": _basis_prep(2)}

    chain = ["lemma1", "perr", "fidelity_gap"]
    return [
        entry("ten-user cloner", cloner(1, 10), [1, 2, 3], chain),
        *[entry(f"cloner sweep N={n_in} M={m_users}", cloner(n_in, m_users),
                [k for k in (1, 2, 3) if k <= m_users], ["lemma1"])
          for n_in in (1, 2) for m_users in range(max(n_in, 2), 9)],
        *[entry(f"fixed prep M={m_users}", prep(m_users), [1, 2], ["lemma1", "perr"])
          for m_users in (2, 4, 6, 8)],
        *[entry(f"noisy cloner M={m_users}", {"kind": "noisy_cloner", "d": 2, "N": 1,
                                               "M": m_users, "p": 0.1}, [1, 2], ["theorem2"])
          for m_users in (2, 3, 4)],
        *[entry(f"fidelity chain N={n_in} M={m_users} d={d}", cloner(n_in, m_users, d), [1],
                chain, {"type": "random_pure", "seed": seed * 1000 + i})
          for i, (n_in, m_users, d) in enumerate(
              [(1, 2, 2), (1, 3, 2), (2, 3, 2), (2, 4, 2), (1, 2, 3)])],
        entry("mc crosscheck", prep(2), [1], ["lemma1", "mc_crosscheck"],
              mc={"samples": 100000, "seed": seed}),
    ]


def run_suite(seed: int = 1, cap: int = DEFAULT_DIM_CAP) -> list[ResultRecord]:
    records: list[ResultRecord] = []
    for data in default_suite(seed):
        records.extend(run_scenario(scenario_from_dict(data), cap=cap))
    for n in (1, 2, 3, 4):
        records.append(moment_check_record(2, n, samples=100000, seed=seed))
    return records
