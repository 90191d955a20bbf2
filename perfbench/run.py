"""symdist benchmark: closed-loop workloads, end-to-end CPU clocks, memory,
reach, and per-layer metrics from a traced run.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload exact_large --seed 42 --seconds 20 --trace 0

prints the environment, then as its last stdout line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.

Every workload (also `suite`, which BENCHMARK.json leaves out because its
Python-bound Monte Carlo loop is too noisy on a shared host) and every
metric at once, with a table by name and unit, written also to
.perfbench/report.json:

    python3 perfbench/run.py --all [--seed 42] [--seconds 20]

Re-record perfbench/reference.json from the current code (seeds 42 and 7):

    python3 perfbench/run.py --record-reference

Workloads are closed loops with one client: one child process runs one
operation at a time (see worker.py).  Peak memory is the child's own, from
os.wait4.  Set-up time is the median CPU time of several fresh interpreters
that start and import symdist.  Reach is the largest M on a fixed ladder
whose rung, run in its own child under an address-space ceiling, finishes
k = 1..3 with every check true.  Reach depends only on the code, so it is
probed once per code version and cached in .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
WORKLOADS = ("suite", "exact_large", "purified_small")
DEFAULT_SEED = 42
HELD_OUT_SEED = 7

SETUP_SPAWNS = 11
WORKLOAD_TIMEOUT_S = 150
# Dense up to today's edge of the exact route (d=2: M=11, d=3: M=5), then
# geometric, so that the probe stays bounded as reach grows.
REACH_LADDER = {
    2: list(range(3, 13)) + [16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024],
    3: list(range(3, 8)) + [8, 12, 16, 24, 32, 48, 64],
}
RUNG_MEM_BYTES = 2 * 2 ** 30
RUNG_TIMEOUT_S = 60


def _env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: a second one gains under 10% on exact_large and nothing
    # on the other workloads, while its spin-waiting on the other core made
    # pass times swing by up to 20% on a 2-core box.
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list[str], timeout: float) -> tuple[int | None, object]:
    """Run a child to completion; (exit code or None on timeout, its rusage)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=sys.stderr)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:  # interrupted or terminated: take the child down too
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    return (None if timed_out.is_set() else proc.returncode), rusage


def _worker(mode: str, args: list[str], timeout: float, tag: str):
    out = STATE / f"{tag}-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    code, rusage = _spawn([sys.executable, str(WORKER), mode, *args, "--out", str(out)],
                          timeout)
    try:
        result = json.loads(out.read_text()) if code == 0 else None
    finally:
        out.unlink(missing_ok=True)
    return code, result, rusage


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*")):
            if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _write_json(path: Path, data) -> None:
    _write_text(path, json.dumps(data, indent=1, sort_keys=True) + "\n")


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(text)
    tmp.replace(path)


def _reference_text(reference: dict) -> str:
    """One reference row per line, so that a re-recording diffs row by row."""
    tables = []
    for workload, table in sorted(reference.items()):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in sorted(table.items()))
        tables.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(tables) + "\n}\n"


# -- set-up and reach -------------------------------------------------------


def measure_setup(spawns: int = SETUP_SPAWNS) -> float:
    """Median CPU seconds (user + system) that a fresh interpreter spends
    starting and importing symdist.  CPU time rather than wall time: on a
    shared 2-core VM the wall time of this 0.3 s step swung by up to 40%
    between batches, its CPU time by about half that."""
    times = []
    for _ in range(spawns):
        code, rusage = _spawn([sys.executable, "-c", "import symdist"], 60)
        if code != 0:
            raise RuntimeError(f"importing symdist failed with exit code {code}")
        times.append(rusage.ru_utime + rusage.ru_stime)
    return statistics.median(times)


def probe_reach() -> dict:
    """Climb each ladder until a rung hits a resource limit, times out or fails."""
    reach, rungs, rows = {}, [], {}
    for d, ladder in REACH_LADDER.items():
        reach[str(d)] = 0
        for m_users in ladder:
            t0 = time.perf_counter()
            code, result, _ = _worker(
                "rung", ["--d", str(d), "--M", str(m_users),
                         "--mem-bytes", str(RUNG_MEM_BYTES)], RUNG_TIMEOUT_S, "rung")
            if code is None:
                outcome, detail = "timeout", f"over {RUNG_TIMEOUT_S} s"
            elif result is None:
                outcome, detail = "error", f"exit code {code}"
            else:
                outcome, detail = result["outcome"], result["detail"]
                rows.update(result.get("rows", {}))
            rungs.append({"d": d, "M": m_users, "outcome": outcome, "detail": detail,
                          "seconds": time.perf_counter() - t0})
            if outcome != "ok":
                break
            reach[str(d)] = m_users
    failed = sum(r["outcome"] in ("fail", "error") for r in rungs)
    return {"reach": reach, "rungs": rungs, "attempted": len(rungs),
            "failed": failed, "rows": rows}


def cached_reach() -> dict:
    cache = STATE / f"reach-{code_hash()}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    result = probe_reach()
    _write_json(cache, result)
    return result


def check_repeat(workload: str, seed: int, digest: str) -> bool:
    """Output at a seed must match every earlier run of the same code and seed."""
    path = STATE / f"digests-{code_hash()}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}:{seed}"
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    _write_json(path, seen)
    return True


# -- one run ----------------------------------------------------------------


def _metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The result line of one run, plus detail for the --all report."""
    reach = cached_reach()  # first, so that the first run in a checkout probes
    setup_s = None if trace else measure_setup()
    code, result, rusage = _worker(
        "workload", ["--name", workload, "--seed", str(seed), "--seconds",
                     str(seconds), "--trace", str(int(trace))],
        WORKLOAD_TIMEOUT_S, "workload")
    if result is None:
        raise RuntimeError(f"workload {workload} child ended with "
                           f"{'a timeout' if code is None else f'exit code {code}'}")
    passes = result["passes"]
    problems = list(result["problems"])
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append("passes at one seed gave different outputs")
    elif not check_repeat(workload, seed, digests.pop()):
        problems.append("output differs from an earlier run at the same seed")
    attempted, failed = result["attempted"], result["failed"]
    plain = [p for p in passes if not p["traced"]]
    detail = {"workload": workload, "seed": seed, "passes": len(passes),
              "rows_per_pass": passes[0]["rows"], "environment": result["environment"]}
    if trace:
        traced = [p["wall_s"] for p in passes if p["traced"]]
        layers = dict(result["layers"])
        # the first pass may be the only one that fills caches
        untraced = [p["wall_s"] for p in plain[1:] or plain]
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        specs = _metric_specs()["per_layer"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in specs}
        detail["layers"] = layers
    else:
        attempted += reach["attempted"]
        failed += reach["failed"]
        problems += [f"reach d={r['d']} M={r['M']}: {r['detail']}"
                     for r in reach["rungs"] if r["outcome"] in ("fail", "error")]
        latencies_ms = sorted(1e3 * t for p in passes for t in p["cpu_latencies_s"])
        pct = statistics.quantiles(latencies_ms, n=100, method="inclusive")
        values = {
            "setup_s": setup_s,
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": rusage.ru_maxrss / 1024,
            "scenario_cpu_ms.p50": statistics.median(latencies_ms),
            "scenario_cpu_ms.p95": pct[94],
            "reach_M.d2": reach["reach"]["2"],
            "reach_M.d3": reach["reach"]["3"],
        }
        specs = _metric_specs()["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
        # Wall time is reported but not a metric: host steal on a shared VM
        # moved it by 10-15% between runs, several times its CPU time's spread.
        detail["wall_s"] = statistics.median(p["wall_s"] for p in plain)
        detail["operations_timed"] = len(latencies_ms)
        detail["reach_rungs"] = reach["rungs"]
    detail["problems"] = problems
    line = {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return {"line": line, "detail": detail}


# -- modes ------------------------------------------------------------------


def _print_table(results: list[dict]) -> None:
    for res in results:
        line, detail = res["line"], res["detail"]
        kind = "per-layer" if "layers" in detail else "end-to-end"
        print(f"\n== {detail['workload']} (seed {detail['seed']}, {kind}, "
              f"{detail['passes']} passes of {detail['rows_per_pass']} rows)")
        for name, m in line["metrics"].items():
            print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
        if "wall_s" in detail:
            print(f"  {'wall_s (not a metric: moves with host steal)':48s} "
                  f"{detail['wall_s']:>16.6g} s")
        ratio = line["failed"] / line["attempted"]
        print(f"  {'fail_ratio':48s} {ratio:>16.6g} failed/attempted "
              f"({line['failed']}/{line['attempted']})")
        print(f"  correct: {line['correct']}")
        for problem in detail["problems"]:
            print(f"  problem: {problem}")


def run_all(seed: int, seconds: float) -> int:
    report = STATE / "report.json"
    results = [run_one(w, seed, seconds, trace) for w in WORKLOADS for trace in (False, True)]
    _print_table(results)
    _write_json(report, {"environment": results[0]["detail"]["environment"],
                         "seed": seed, "seconds": seconds, "results": results})
    print(f"\nreport written to {report}")
    return 0 if all(r["line"]["correct"] for r in results) else 2


def record_reference() -> int:
    """Record exact-route values at two seeds; input-independent rows must agree."""
    from worker import REFERENCE_PATH, REFERENCE_TOL, REQUIRED

    reference: dict = {}
    for workload in WORKLOADS:
        table: dict = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            code, result, _ = _worker("workload", ["--name", workload, "--seed", str(seed),
                                                    "--seconds", "0", "--record"],
                                      WORKLOAD_TIMEOUT_S, "record")
            if result is None or result["failed"]:
                raise RuntimeError(f"recording {workload} at seed {seed} failed: "
                                   f"{result and result['problems']}")
            for key, (ref, values) in result["record"].items():
                old = table.setdefault(key, values)
                if ref == REQUIRED and any(
                        (a is None) != (b is None) or (a is not None and abs(a - b) > REFERENCE_TOL)
                        for a, b in zip(old, values)):
                    raise RuntimeError(f"{workload} {key} depends on the seed: {old} vs {values}")
        reference[workload] = table
    _write_text(REFERENCE_PATH, _reference_text(reference))  # no reach table yet
    probe = probe_reach()
    if probe["failed"]:
        raise RuntimeError(f"reach probe failed: {probe['rungs']}")
    reference["reach"] = probe["rows"]
    _write_text(REFERENCE_PATH, _reference_text(reference))
    print(f"recorded {sum(len(t) for t in reference.values())} rows; "
          f"reach {probe['reach']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, print a table")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "symdist" / "__init__.py").is_file():
        print(f"error: no symdist sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    STATE.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload, --all or --record-reference")
    res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": res["detail"]["environment"]}))
    for problem in res["detail"]["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(res["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
