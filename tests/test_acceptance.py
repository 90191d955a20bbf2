"""Acceptance suite: eight end-to-end criteria with hard tolerances.

Each test prints one PASS/FAIL line (through the capture-disabled writer, so
it shows up in the live pytest log) and then asserts.  Slack on every bound
comparison is 1e-9 unless the criterion states otherwise.
"""

import itertools
import math
import time

import numpy as np

from symdist.cli import main as cli_main
from symdist.definetti import mc_reduce_coords, purified_state
from symdist.metrics import (
    general_bound,
    lemma1_bound,
    trace_distance,
    universal_clone_gap,
)
from symdist.scenario import run_scenario, scenario_from_dict
from symdist.symspace import haar_kets, sym_dim

from conftest import dense_users
from dense_oracles import (
    apply,
    basis_ket,
    embed_pure_input,
    index_map,
    ket,
    noisy_cloner,
    partial_trace,
    permutation_operator,
    projector,
    symmetric_state,
    symmetrizer,
    tensor_power,
    universal_cloner,
)

SLACK = 1e-9


def _verdict(capsys, num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"{status}: criterion {num} - {desc}"
    if failures:
        line += " [" + "; ".join(failures) + "]"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert not failures, line


def _cloner_output(d, n, m):
    ch = universal_cloner(d, n, m)
    return apply(ch, embed_pure_input(ch, basis_ket(d, 0)))


def test_criterion_1_ten_user_classicality(capsys):
    start = time.perf_counter()
    rho_out = _cloner_output(2, 1, 10)
    rho_1 = partial_trace(rho_out, [0])
    tilde_1 = dense_users(symmetric_state(rho_out), 1)[1]
    delta = trace_distance(rho_1.entries, tilde_1.entries)
    p_err = 0.5 - delta / 4
    bound = lemma1_bound(2, 10, 1)
    elapsed = time.perf_counter() - start

    failures = []
    if not p_err >= 0.45 - SLACK:
        failures.append(f"p_err {p_err:.6f} < 0.45")
    if not delta <= bound + SLACK:
        failures.append(f"delta {delta:.6f} > bound {bound:.6f}")
    if not elapsed <= 60.0:
        failures.append(f"runtime {elapsed:.1f}s > 60s")
    _verdict(capsys, 1,
             f"ten-user cloner p_err={p_err:.4f} (>=0.45), "
             f"delta={delta:.6f} <= {bound:.6f}, {elapsed:.1f}s",
             failures)


def test_criterion_2_lemma1_bound_sweep(capsys):
    failures = []
    dists = {}
    count = 0
    for n in (1, 2):
        for m in range(n, 9):
            rho_out = _cloner_output(2, n, m)
            for k in (1, 2, 3):
                if k > m:
                    continue
                tilde = dense_users(symmetric_state(rho_out), k)[1]
                dist = trace_distance(partial_trace(rho_out, range(k)).entries,
                                      tilde.entries)
                count += 1
                if not dist <= lemma1_bound(2, m, k) + SLACK:
                    failures.append(f"cloner N={n} M={m} k={k}: {dist:.6f}")
                dists[("cloner", n, k, m)] = dist
    prep = projector(basis_ket(2, 0))
    for m in range(2, 9):
        rho_out = tensor_power(prep, m)
        for k in (1, 2, 3):
            if k > m:
                continue
            tilde = dense_users(symmetric_state(rho_out), k)[1]
            dist = trace_distance(partial_trace(rho_out, range(k)).entries,
                                  tilde.entries)
            count += 1
            if not dist <= lemma1_bound(2, m, k) + SLACK:
                failures.append(f"fixed_prep M={m} k={k}: {dist:.6f}")
            dists[("prep", None, k, m)] = dist

    # trend report (not a hard assertion): distance/k non-increasing in M >= 4
    trend_breaks = []
    for family, n, k in {(f, n, k) for (f, n, k, _) in dists}:
        ms = sorted(m for (f, nn, kk, m) in dists
                    if (f, nn, kk) == (family, n, k) and m >= 4)
        for prev, nxt in zip(ms, ms[1:]):
            a = dists[(family, n, k, prev)] / k
            b = dists[(family, n, k, nxt)] / k
            if b > a + SLACK:
                trend_breaks.append(f"{family} N={n} k={k} M={prev}->{nxt}")
    with capsys.disabled():
        msg = "none" if not trend_breaks else "; ".join(trend_breaks)
        print(f"\n      criterion 2 trend report (M>=4, dist/k non-increasing): "
              f"violations: {msg}", flush=True)
    _verdict(capsys, 2, f"lemma1 bound holds on all {count} sweep points",
             failures)


def test_criterion_3_theorem2_pipeline(capsys):
    start = time.perf_counter()
    failures = []
    checked = 0
    for m in (2, 3, 4):
        ch = noisy_cloner(2, 1, m, 0.1)
        rho_out = apply(ch, embed_pure_input(ch, basis_ket(2, 0)))
        state = purified_state(rho_out)
        phi = index_map(4, m).expand(state.coords[0])  # the pair ket
        full = projector(ket(phi, (2,) * (2 * m)))
        back = partial_trace(full, range(0, 2 * m, 2))
        roundtrip = float(np.max(np.abs(back.entries - rho_out.entries)))
        if not roundtrip <= 1e-9:
            failures.append(f"M={m} roundtrip {roundtrip:.2e}")
        for t in range(m - 1):
            perm = list(range(m))
            perm[t], perm[t + 1] = perm[t + 1], perm[t]
            u = permutation_operator(perm, 4).entries
            resid = float(np.max(np.abs(u @ phi - phi)))
            if not resid <= 1e-9:
                failures.append(f"M={m} pair swap {t} residual {resid:.2e}")
        for k in (1, 2):
            if 4 ** (m + k) > 4096:
                continue
            tilde = dense_users(state, k)[1]
            dist = trace_distance(partial_trace(rho_out, range(k)).entries,
                                  tilde.entries)
            checked += 1
            if not dist <= general_bound(2, m, k) + SLACK:
                failures.append(f"M={m} k={k}: {dist:.6f} > "
                                f"{general_bound(2, m, k):.6f}")
    elapsed = time.perf_counter() - start
    if not elapsed <= 120.0:
        failures.append(f"runtime {elapsed:.1f}s > 120s")
    _verdict(capsys, 3,
             f"noisy-cloner purification + general bound on {checked} points, "
             f"{elapsed:.1f}s", failures)


def test_criterion_4_fidelity_chain(capsys):
    failures = []
    for n, m, d in [(1, 2, 2), (1, 3, 2), (2, 3, 2), (2, 4, 2), (1, 2, 3)]:
        row, = run_scenario(scenario_from_dict({
            "schema": 1,
            "channel": {"kind": "universal_cloner", "d": d, "N": n, "M": m},
            "input": {"type": "pure",
                      "coeffs": [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1)},
            "k": [1],
            "checks": ["lemma1", "fidelity_gap"],
        }))
        f_clon, f_tilde = row.F_clon, row.F_tilde
        rho_out = _cloner_output(d, n, m)
        tilde_1 = dense_users(symmetric_state(rho_out), 1)[1]
        delta = trace_distance(partial_trace(rho_out, [0]).entries, tilde_1.entries)
        bound = lemma1_bound(d, m, 1)
        diff = f_clon - f_tilde
        tag = f"(N={n},M={m},d={d})"
        if not diff >= -SLACK:
            failures.append(f"{tag} diff {diff:.3e} < 0")
        if not diff <= delta + SLACK:
            failures.append(f"{tag} diff {diff:.6f} > delta {delta:.6f}")
        if not delta <= bound + SLACK:
            failures.append(f"{tag} delta {delta:.6f} > bound {bound:.6f}")
        closed = n / m + (m - n) * (n + 1) / (m * (n + d))
        if not abs(f_clon - closed) <= 1e-9:
            failures.append(f"{tag} F_clon {f_clon:.12f} != {closed:.12f}")
    if universal_clone_gap(1, 2, 2) != 1 / 6:
        failures.append("gap(1,2,2) != 1/6")
    _verdict(capsys, 4,
             "fidelity chain 0 <= F_clon-F_tilde <= delta <= bound on 5 "
             "cloners; F_clon matches the closed form", failures)


def test_criterion_5_resolution_of_identity(capsys):
    failures = []
    samples = 100_000
    for n in (1, 2, 3, 4):
        u = haar_kets(np.random.default_rng(100 + n), samples, 2)
        full = u
        for _ in range(n - 1):
            full = (full[:, :, None] * u[:, None, :]).reshape(samples, -1)
        # mean of x = s_n full full^dagger and of |x|^2, over the draws
        s_n = sym_dim(2, n)
        mean = s_n * full.T @ full.conj() / samples
        p = s_n * np.abs(full) ** 2
        var = np.maximum(p.T @ p / samples - np.abs(mean) ** 2, 0.0)
        se = np.sqrt(var / samples)
        dev = np.abs(mean - symmetrizer(2, n).entries)
        worst = float(np.max(dev - 5 * se))
        if not np.all(dev <= 5 * se + 1e-12):
            failures.append(f"n={n} deviation beyond 5 s.e. (excess {worst:.2e})")
    brute = np.zeros((16, 16), dtype=complex)
    perms = list(itertools.permutations(range(4)))
    for perm in perms:
        brute += permutation_operator(list(perm), 2).entries
    brute /= len(perms)
    resid = float(np.max(np.abs(symmetrizer(2, 4).entries - brute)))
    if not resid <= 1e-12:
        failures.append(f"symmetrizer vs 24-perm average residual {resid:.2e}")
    _verdict(capsys, 5,
             "Haar moments reproduce the symmetrizer (n=1..4, 1e5 samples, "
             "5 s.e.); brute-force check at n=4", failures)


def test_criterion_6_mc_vs_exact(capsys):
    failures = []
    rho = tensor_power(projector(basis_ket(2, 0)), 2)
    coords = symmetric_state(rho).coords
    est, stderr = mc_reduce_coords(coords, 2, 2, 1, 100_000, seed=2026)
    target = np.diag([0.75, 0.25])
    dev = np.abs(est - target)
    if not np.all(dev <= 3 * stderr + 1e-12):
        worst = float(np.max(dev - 3 * stderr))
        failures.append(f"deviation beyond 3 s.e. (excess {worst:.2e})")
    again, again_err = mc_reduce_coords(coords, 2, 2, 1, 100_000, seed=2026)
    if not (np.array_equal(est, again) and np.array_equal(stderr, again_err)):
        failures.append("fixed seed is not byte-identical")
    _verdict(capsys, 6,
             "MC estimate of diag(3/4,1/4) within 3 s.e.; seeded rerun "
             "byte-identical", failures)


def test_criterion_7_bounds_table(capsys, tmp_path):
    out = tmp_path / "bounds.csv"
    rc = cli_main(["bounds", "--d", "2", "--M", "10", "--k", "1",
                   "--out", str(out)])
    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))

    def comb_dim(d, n):
        return math.comb(d + n - 1, n)

    expected = {
        "bound_exact": 4 * (1 - math.sqrt(comb_dim(2, 9) / comb_dim(2, 10))),
        "bound_asymptotic": 0.2,
        "general_exact": 4 * (1 - math.sqrt(comb_dim(4, 9) / comb_dim(4, 10))),
        "general_asymptotic": 0.6,
        "p_err_bound": 0.45,
    }
    for name, value in expected.items():
        want = format(value, ".12g")
        if cells.get(name) != want:
            failures.append(f"{name}: {cells.get(name)} != {want}")
    # the quoted six-decimal figures, give or take a final-digit rounding
    if abs(float(cells["bound_exact"]) - 0.186150) > 5e-6:
        failures.append(f"bound_exact far from 0.186150: {cells['bound_exact']}")
    if abs(float(cells["general_exact"]) - 0.491766) > 5e-6:
        failures.append(f"general_exact far from 0.491766: {cells['general_exact']}")
    if cells["bound_asymptotic"] != "0.2" or cells["general_asymptotic"] != "0.6":
        failures.append("asymptotic columns not 0.2 / 0.6")
    if cells["p_err_bound"] != "0.45":
        failures.append(f"p_err_bound: {cells['p_err_bound']}")
    _verdict(capsys, 7,
             "bounds table at (2,10,1) matches independent binomial "
             "evaluation at 12 digits", failures)


def test_criterion_8_suite_determinism(capsys, tmp_path):
    a = tmp_path / "suite_a.csv"
    b = tmp_path / "suite_b.csv"
    failures = []
    start = time.perf_counter()
    rc1 = cli_main(["suite", "--seed", "42", "--out", str(a)])
    mid = time.perf_counter()
    rc2 = cli_main(["suite", "--seed", "42", "--out", str(b)])
    end = time.perf_counter()
    if rc1 != 0 or rc2 != 0:
        failures.append(f"exit codes {rc1}, {rc2}")
    if a.read_bytes() != b.read_bytes():
        failures.append("outputs differ between runs")
    for label, dt in (("first", mid - start), ("second", end - mid)):
        if not dt <= 300.0:
            failures.append(f"{label} run took {dt:.0f}s > 300s")
    _verdict(capsys, 8,
             f"suite --seed 42 byte-identical, exit 0, runs "
             f"{mid - start:.0f}s/{end - mid:.0f}s", failures)
