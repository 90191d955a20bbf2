"""Command-line access: bound tables, scenario runs, MC checks, bundled suite.

Exit codes: 0 all satisfied flags true, 2 some check violated, 1 bad config,
a usage error or resource limits.  Output is CSV by default (plot-ready; no
figure rendering here) or JSON with --format json, to stdout or --out; the
tables are written by scenario.render_rows.

The parser is built once, at import, so main(argv) may be called many times
in one process; no command mutates the list defaults it shares.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .channels import SDIChannelSpec
from .linalg import DEFAULT_DIM_CAP, ResourceLimitError
from .metrics import general_bound, lemma1_bound, perr_lower_bound
from .scenario import (
    _basis_input,
    _basis_prep,
    all_satisfied,
    emit,
    load_scenarios,
    moment_check_record,
    render_rows,
    run_scenario,
    run_suite,
    scenario_from_dict,
)

CAP_HELP = ("a byte budget of 16*cap^2 for the arrays of a run, one complex "
            "matrix of side cap (4 GiB at the default %(default)s)")
BOUNDS_COLUMNS = ("d", "M", "k", "bound_exact", "bound_asymptotic",
                  "general_exact", "general_asymptotic", "p_err_bound")


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _at_least(*rules) -> None:
    """Refuse a flag value below its floor; each rule is (flag, values,
    floor, what the flag sets)."""
    for flag, values, low, what in rules:
        for value in values:
            if value < low:
                raise ValueError(f"{flag}: {what} must be >= {low}, got {value}")


def _bounds_rows(args) -> list[dict]:
    _at_least(("--d", args.d, 1, "local dimension"), ("--M", args.M, 1, "user count"),
              ("--k", args.k, 0, "marginal size"))
    rows = []
    for d in args.d:
        for m_users in args.M:
            for k in args.k:
                if k > m_users:
                    continue
                rows.append({
                    "d": d, "M": m_users, "k": k,
                    "bound_exact": lemma1_bound(d, m_users, k),
                    "bound_asymptotic": lemma1_bound(d, m_users, k, asymptotic=True),
                    "general_exact": general_bound(d, m_users, k),
                    "general_asymptotic": general_bound(d, m_users, k, asymptotic=True),
                    "p_err_bound": perr_lower_bound(d, m_users),
                })
    if not rows:
        raise ValueError("no (d, M, k) combinations with k <= M")
    return rows


def _cmd_bounds(args) -> int:
    _write(render_rows(_bounds_rows(args), BOUNDS_COLUMNS, args.format), args.out)
    return 0


def _default_checks(kind: str) -> list[str]:
    if kind == "universal_cloner":
        return ["lemma1", "perr", "fidelity_gap"]
    if kind == "fixed_prep":
        return ["lemma1", "perr"]
    return ["theorem2"]


def _scenario_from_flags(args) -> dict:
    channel: dict = {"kind": args.kind, "d": args.d, "M": args.M}
    for f in SDIChannelSpec.FIELDS[args.kind]:
        if f != "povm":  # no flag sets a POVM
            channel[f] = _basis_prep(args.d) if f == "prep" else getattr(args, f)
    if args.seed is not None:
        input_state: dict = {"type": "random_pure", "seed": args.seed}
    else:
        input_state = _basis_input(args.d)
    checks = args.checks.split(",") if args.checks else _default_checks(args.kind)
    data: dict = {
        "schema": 1,
        "channel": channel,
        "input": input_state,
        "k": args.k,
        "checks": checks,
    }
    if args.samples is not None:
        if "mc_crosscheck" not in checks:
            checks.append("mc_crosscheck")
        data["mc"] = {"samples": args.samples,
                      "seed": args.seed if args.seed is not None else 0}
    return data


def _cmd_run(args) -> int:
    base = _scenario_from_flags(args)
    cfgs = ([scenario_from_dict(base)] if args.scenario is None else
            load_scenarios(Path(args.scenario).read_text(), defaults=base))
    records = [rec for cfg in cfgs for rec in run_scenario(cfg, cap=args.cap)]
    # flags win; otherwise fall back to the first scenario's output block
    out_spec = next((c.output for c in cfgs if c.output is not None), None)
    fmt = args.format or (out_spec or {}).get("format") or "csv"
    out = args.out if args.out is not None else (out_spec or {}).get("path")
    _write(emit(records, fmt=fmt, timings=args.timings), out)
    return 0 if all_satisfied(records) else 2


def _cmd_mc(args) -> int:
    _at_least(("--d", [args.d], 1, "local dimension"), ("--M", args.M, 1, "moment order"),
              ("--samples", [args.samples], 2, "sample count"),
              ("--seed", [args.seed], 0, "seed"))
    records = [moment_check_record(args.d, n, args.samples, args.seed)
               for n in args.M]
    _write(emit(records, fmt=args.format, timings=args.timings), args.out)
    return 0 if all_satisfied(records) else 2


def _cmd_suite(args) -> int:
    records = run_suite(seed=args.seed, cap=args.cap)
    _write(emit(records, fmt=args.format, timings=False), args.out)
    return 0 if all_satisfied(records) else 2


def _add_io_flags(p: argparse.ArgumentParser, default_format: str | None = "csv") -> None:
    p.add_argument("--format", choices=("csv", "json"), default=default_format)
    p.add_argument("--out", default=None, help="output path; - or omitted for stdout")


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits 1, the code of malformed input: 2
    means a violated check.  Subcommand parsers inherit the class."""

    def error(self, message):
        try:
            super().error(message)
        except SystemExit:
            raise SystemExit(1) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symdist",
        description="Distances between many-user quantum channels and their "
                    "measure-and-prepare imitations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="tabulate the closed-form bounds")
    p_bounds.add_argument("--d", type=int, nargs="+", default=[2])
    p_bounds.add_argument("--M", type=int, nargs="+", required=True)
    p_bounds.add_argument("--k", type=int, nargs="+", default=[1])
    _add_io_flags(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_run = sub.add_parser("run", help="run a scenario from a file or flags")
    p_run.add_argument("scenario", nargs="?", default=None,
                       help="JSON scenario file; its fields override the flags")
    p_run.add_argument("--kind", default="universal_cloner",
                       choices=SDIChannelSpec.KINDS)
    p_run.add_argument("--d", type=int, default=2)
    p_run.add_argument("--N", type=int, default=1)
    p_run.add_argument("--M", type=int, default=2)
    p_run.add_argument("--k", type=int, nargs="+", default=[1])
    p_run.add_argument("--p", type=float, default=0.1)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--samples", type=int, default=None)
    p_run.add_argument("--checks", default=None,
                       help="comma-separated; defaults depend on the kind")
    p_run.add_argument("--timings", action="store_true",
                       help="fill wall_time_ms (breaks byte-identical reruns)")
    p_run.add_argument("--cap", type=int, default=DEFAULT_DIM_CAP, help=CAP_HELP)
    _add_io_flags(p_run, default_format=None)
    p_run.set_defaults(func=_cmd_run)

    p_mc = sub.add_parser("mc", help="Monte Carlo Haar-moment checks")
    p_mc.add_argument("--mode", choices=("moments",), default="moments")
    p_mc.add_argument("--d", type=int, default=2)
    p_mc.add_argument("--M", type=int, nargs="+", default=[1, 2, 3, 4],
                      help="moment orders")
    p_mc.add_argument("--samples", type=int, default=100000)
    p_mc.add_argument("--seed", type=int, default=1)
    p_mc.add_argument("--timings", action="store_true")
    _add_io_flags(p_mc)
    p_mc.set_defaults(func=_cmd_mc)

    p_suite = sub.add_parser("suite", help="run the bundled scenario suite")
    p_suite.add_argument("--seed", type=int, default=1)
    p_suite.add_argument("--cap", type=int, default=DEFAULT_DIM_CAP, help=CAP_HELP)
    _add_io_flags(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    return parser


_PARSER = _build_parser()  # about 1 ms of argparse set-up, paid once


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if getattr(args, "cap", 1) < 1:  # run and suite
            raise ValueError(f"--cap must be at least 1, got {args.cap}")
        return args.func(args)
    except (ValueError, ResourceLimitError, OverflowError, OSError) as exc:
        # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
