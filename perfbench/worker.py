"""Child process of the benchmark: builds a workload from its seed, runs it
in a closed loop, checks every output and writes a JSON summary.

    python3 perfbench/worker.py workload --name suite --seed 42 --seconds 20 \
        --trace 0 --out result.json
    python3 perfbench/worker.py rung --d 2 --M 11 --mem-bytes 2147483648 \
        --out rung.json

`src/` must be on PYTHONPATH.  perfbench/run.py starts these children; run
them by hand only to debug one workload or one reach rung.

A workload is a list of operations (one scenario, or one CLI call) that
together make one pass.  Passes repeat the same inputs until --seconds have
elapsed, with at least two passes so that their outputs can be compared
byte for byte.  With --trace 1 the passes alternate untraced and traced, so
the per-layer numbers and the tracing overhead come from the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_TOL = 1e-9
EXACT_COLUMNS = ("actual_distance", "bound_exact", "bound_asymptotic", "p_err",
                 "p_err_bound", "F_clon", "F_tilde", "gap_formula")
FLAG_COLUMNS = ("satisfied_lemma1", "satisfied_theorem2", "satisfied_perr",
                "satisfied_fidelity_gap", "satisfied_mc")

# The bundled suite draws 10^5 Monte Carlo samples per check (about 97 s on a
# 2-core box); one pass here draws 10^4, which keeps Monte Carlo the bulk of
# the pass while a pass fits the benchmark's run length.
SUITE_MC_SAMPLES = 10_000
EXACT_LARGE = ((2, 1, 11, (1, 2, 3)), (2, 2, 10, (1, 2, 3)), (3, 1, 6, (1, 2)))
PURIFIED_ROUNDS = 11
# Largest k per scenario: (d^2)^(M+k) <= 2^14, the library's matrix-side cap
# today.  Fixed here, so that the workload stays the same if that cap changes.
PURIFIED_MATRIX_CAP = 2 ** 14
POVM_2 = ([[[0.8, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]],
          [[[0.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7, 0.0]]])
MIXED_PREPS_2 = ([[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]],
                 [[[0.3, 0.0], [0.2, 0.0]], [[0.2, 0.0], [0.7, 0.0]]])
CLONER_CHECKS = ["lemma1", "perr", "fidelity_gap"]
REACH_INPUT_SEED = 0

# How an operation's rows are compared with reference.json: "required" rows
# have input-independent values (covariant channels, fixed inputs) and must
# be recorded; "optional" rows are checked where recorded (seed-specific
# inputs, reach rungs); "flags" rows are Monte Carlo and checked by flags only.
REQUIRED, OPTIONAL, FLAGS = "required", "optional", "flags"


@dataclass(frozen=True)
class Op:
    label: str
    rows: tuple[tuple[str, int], ...]   # (scenario label, k) of each output row
    run: Callable[[], str]              # returns the operation's CSV output
    ref: str


# -- operations -------------------------------------------------------------


def _run_cli(argv: list[str]) -> str:
    from symdist import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"symdist {' '.join(argv)} exited with code {code}")
    return buf.getvalue()


def _run_scenario(data: dict) -> str:
    from symdist import scenario

    cfg = scenario.scenario_from_dict(data)
    return scenario.emit(scenario.run_scenario(cfg))


def _cloner(label: str, d: int, n_in: int, m_users: int, ks, input_seed: int) -> dict:
    return {"schema": 1, "label": label,
            "channel": {"kind": "universal_cloner", "d": d, "N": n_in, "M": m_users},
            "input": {"type": "random_pure", "seed": input_seed},
            "k": list(ks), "checks": list(CLONER_CHECKS)}


def suite_ops(seed: int, workdir: Path, samples: int = SUITE_MC_SAMPLES) -> list[Op]:
    """The bundled suite through the CLI: `symdist run` on its scenarios, then
    `symdist mc` for its moment checks, as two closed-loop operations."""
    from symdist.scenario import default_suite

    suite = [{**data, "mc": {**data["mc"], "samples": samples}} if "mc" in data else data
             for data in default_suite(seed)]
    path = workdir / f"suite-{seed}.json"
    path.write_text(json.dumps(suite))
    moments = (1, 2, 3, 4)
    return [
        Op("suite scenarios", tuple((data["label"], k) for data in suite for k in data["k"]),
           partial(_run_cli, ["run", str(path)]), REQUIRED),
        Op("suite moments", tuple((f"moments n={n}", n) for n in moments),
           partial(_run_cli, ["mc", "--mode", "moments", "--M", *map(str, moments),
                              "--samples", str(samples), "--seed", str(seed)]), FLAGS),
    ]


def exact_large_ops(seed: int, workdir: Path) -> list[Op]:
    """Large symmetric-route cloners at today's edge of the exact route, one
    `symdist run` call each."""
    rng = random.Random(seed)
    ops = []
    for d, n_in, m_users, ks in EXACT_LARGE:
        label = f"cloner d={d} N={n_in} M={m_users}"
        path = workdir / f"exact-{seed}-{d}-{n_in}-{m_users}.json"
        path.write_text(json.dumps(_cloner(label, d, n_in, m_users, ks,
                                           rng.randrange(2 ** 31))))
        ops.append(Op(label, tuple((label, k) for k in ks),
                      partial(_run_cli, ["run", str(path)]), REQUIRED))
    return ops


def _purified_channels() -> list[tuple[str, dict, bool]]:
    """(label, channel, covariant) for one round of purified_small."""
    out = []
    for n_in in (1, 2):
        for m_users in range(2, 7):
            for p in (0.05, 0.3):
                out.append((f"noisy d=2 N={n_in} M={m_users} p={p}",
                            {"kind": "noisy_cloner", "d": 2, "N": n_in,
                             "M": m_users, "p": p}, True))
    for m_users, p in ((2, 0.05), (3, 0.3)):
        out.append((f"noisy d=3 N=1 M={m_users} p={p}",
                    {"kind": "noisy_cloner", "d": 3, "N": 1, "M": m_users, "p": p},
                    True))
    for m_users in range(2, 7):
        out.append((f"measure_prepare d=2 M={m_users}",
                    {"kind": "measure_prepare", "d": 2, "M": m_users,
                     "povm": list(POVM_2), "prep": list(MIXED_PREPS_2)}, False))
    return out


def _purified_ks(d: int, m_users: int) -> tuple[int, ...]:
    dd = d * d
    return tuple(k for k in range(1, m_users + 1)
                 if dd ** (m_users + k) <= PURIFIED_MATRIX_CAP)


def purified_small_ops(seed: int, workdir: Path) -> list[Op]:
    """Many small theorem2 scenarios on the pair-purified route."""
    rng = random.Random(seed)
    ops = []
    for r in range(PURIFIED_ROUNDS):
        for label, channel, covariant in _purified_channels():
            ks = _purified_ks(channel["d"], channel["M"])
            data = {"schema": 1, "channel": channel,
                    "input": {"type": "random_pure", "seed": rng.randrange(2 ** 31)},
                    "k": list(ks), "checks": ["theorem2"]}
            # a covariant channel's distances do not depend on the input ket
            key = label if covariant else f"seed={seed} round={r} {label}"
            ops.append(Op(key, tuple((key, k) for k in ks), partial(_run_scenario, data),
                          REQUIRED if covariant else OPTIONAL))
    return ops


WORKLOADS = {"suite": suite_ops, "exact_large": exact_large_ops,
             "purified_small": purified_small_ops}
# suite and exact_large stand for one CLI invocation per pass, a fresh process
# whose memo caches start empty; purified_small stands for one long session of
# small scenarios, whose caches fill once.  With cold caches on every pass its
# ~30 cache-filling scenarios per run were 2.5% of all latencies and made the
# p99 swing by 20% between runs.
COLD_EVERY_PASS = {"suite": True, "exact_large": True, "purified_small": False}


# -- checking ---------------------------------------------------------------


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():  # only while the reference is first recorded
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def _cell(text: str) -> float | None:
    return None if text == "" else float(text)


def exact_values(row: dict) -> list[float | None]:
    return [_cell(row[c]) for c in EXACT_COLUMNS]


def check_op(op: Op, text: str, table: dict | None) -> tuple[list[dict], list[str]]:
    """Parse an operation's CSV and return (rows, problems)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    want_ks = [k for _, k in op.rows]
    if [int(r["k"]) for r in rows] != want_ks:
        return rows, [f"{op.label}: expected rows for k={want_ks}, "
                      f"got {[r['k'] for r in rows]}"]
    for (label, _), row in zip(op.rows, rows):
        where = f"{label}|k={row['k']}"
        flags = [row[c] for c in FLAG_COLUMNS]
        if any(f not in ("", "true") for f in flags) or "true" not in flags:
            problems.append(f"{where}: flags {dict(zip(FLAG_COLUMNS, flags))}")
        if op.ref == FLAGS or table is None:
            continue
        expected = table.get(where)
        if expected is None:
            if op.ref == REQUIRED:
                problems.append(f"{where}: no reference recorded")
            continue
        for col, got, want in zip(EXACT_COLUMNS, exact_values(row), expected):
            if (got is None) != (want is None) or (
                    got is not None and abs(got - want) > REFERENCE_TOL):
                problems.append(f"{where}: {col} = {got}, reference {want}")
    return rows, problems


# -- running ----------------------------------------------------------------


def clear_caches() -> None:
    """Empty symdist's memo caches, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "symdist" or name.startswith("symdist.")):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


def run_pass(ops: list[Op]) -> dict:
    """Run every operation once, in order.

    Times the pass by wall clock and CPU clock, and each operation by CPU
    clock: with one BLAS thread the process is single-threaded, so CPU time
    is its latency minus the time the host kept it off the processor, which
    made per-operation wall times swing by 5-10% between runs on a shared VM.
    """
    cpu = time.process_time
    texts, errors, cpu_latencies = [], [], []
    start, cpu_start = time.perf_counter(), cpu()
    for op in ops:
        t0 = cpu()
        try:
            texts.append(op.run())
        except Exception as exc:  # one failed operation must not end the run
            texts.append(None)
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        cpu_latencies.append(cpu() - t0)
    return {"wall_s": time.perf_counter() - start, "cpu_s": cpu() - cpu_start,
            "texts": texts, "errors": errors, "cpu_latencies_s": cpu_latencies}


def _check_pass(ops: list[Op], result: dict, table: dict | None) -> tuple[int, list[str], list]:
    failed, problems, rows = 0, list(result["errors"]), []
    failed += len(result["errors"])
    for op, text in zip(ops, result["texts"]):
        if text is None:
            continue
        op_rows, op_problems = check_op(op, text, table)
        rows.append((op, op_rows))
        if op_problems:
            failed += 1
            problems.extend(op_problems)
    return failed, problems, rows


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, table: dict | None, min_passes: int = 2) -> dict:
    ops = WORKLOADS[name](seed, workdir)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    passes, layers = [], []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if COLD_EVERY_PASS[name] or not passes:
            clear_caches()  # before the tracer takes its cache-counter baseline
        if traced:
            tracer.install()
        try:
            result = run_pass(ops)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(tracer.snapshot())
        pass_failed, pass_problems, rows = _check_pass(ops, result, table)
        attempted += len(ops)
        failed += pass_failed
        problems.extend(pass_problems)
        text = "".join(t or "" for t in result["texts"])
        passes.append({"wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
                       "traced": traced,
                       "rows": sum(len(r) for _, r in rows),
                       "digest": hashlib.sha256(text.encode()).hexdigest(),
                       "cpu_latencies_s": result["cpu_latencies_s"]})
    return {"workload": name, "seed": seed, "ops_per_pass": len(ops),
            "attempted": attempted, "failed": failed, "problems": problems[:20],
            "passes": passes, "layers": _median_layers(layers),
            "record": None if table is not None else _record_rows(rows)}


def _median_layers(snapshots: list[dict]) -> dict:
    if not snapshots:
        return {}
    return {key: statistics.median(s[key] for s in snapshots) for key in snapshots[0]}


def _record_rows(rows) -> dict:
    out = {}
    for op, op_rows in rows:
        if op.ref == FLAGS:
            continue
        for (label, k), row in zip(op.rows, op_rows):
            out[f"{label}|k={k}"] = [op.ref, exact_values(row)]
    return out


def run_rung(d: int, m_users: int, mem_bytes: int) -> dict:
    """One reach rung under an address-space ceiling set before numpy loads."""
    resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))
    label = f"reach d={d} M={m_users}"
    ks = tuple(range(1, min(3, m_users) + 1))
    from symdist.linalg import ResourceLimitError

    try:
        op = Op(label, tuple((label, k) for k in ks), partial(_run_scenario, _cloner(
            label, d, 1, m_users, ks, REACH_INPUT_SEED)), OPTIONAL)
        text = op.run()
    except (ResourceLimitError, MemoryError) as exc:
        return {"outcome": "limit", "detail": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:
        return {"outcome": "error", "detail": f"{type(exc).__name__}: {exc}"}
    table = load_reference().get("reach", {})
    rows, problems = check_op(op, text, table)
    return {"outcome": "fail" if problems else "ok", "detail": "; ".join(problems),
            "rows": {f"{label}|k={r['k']}": exact_values(r) for r in rows}}


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, as left at its default."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import os
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = HERE.parent / "src"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2 ** 20,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_wl = sub.add_parser("workload")
    p_wl.add_argument("--name", choices=sorted(WORKLOADS), required=True)
    p_wl.add_argument("--seed", type=int, required=True)
    p_wl.add_argument("--seconds", type=float, required=True)
    p_wl.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_wl.add_argument("--record", action="store_true",
                      help="one pass, no reference check; dump the rows")
    p_wl.add_argument("--out", required=True)
    p_rung = sub.add_parser("rung")
    p_rung.add_argument("--d", type=int, required=True)
    p_rung.add_argument("--M", type=int, required=True)
    p_rung.add_argument("--mem-bytes", type=int, required=True)
    p_rung.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    if args.mode == "rung":
        result = run_rung(args.d, args.M, args.mem_bytes)
    else:
        import symdist  # noqa: F401  (fail here, before any work, if src/ is missing)

        table = None if args.record else load_reference().get(args.name, {})
        with tempfile.TemporaryDirectory(dir=out.parent) as workdir:
            result = run_workload(args.name, args.seed, args.seconds, bool(args.trace),
                                  Path(workdir), table,
                                  min_passes=1 if args.record else 2)
        result["environment"] = environment()
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
