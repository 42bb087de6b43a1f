"""Campaign drivers behind the command-line interface.

Every campaign is a pure function of its configuration: floats are written
by their shortest round-trip repr, so a rerun with the same configuration
reproduces each artifact byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from .config import RunConfig
from .errors import LogUnavailable
from .geometry import (
    curve_length,
    distance_upper,
    exp_curve,
    norm_sandwich_check,
)
from .group import SkewOperator, exp_skew
from .oracles import sqrt_eig
from .sampling import random_complex, random_span_skew, rng_for_trial, stiefel_near
from .space import LowRank, build_space, h1_operator_norm
from .stiefel import (
    StiefelOperator,
    act,
    binomial_sqrt_truncated,
    radius_r,
    section_factors,
    series_tail_bound,
)
from .serialize import csv_line, write_text
from .validate import _setup_point, _strong_scaled, run_suites

__all__ = [
    "run_validate",
    "run_section_demo",
    "run_sqrt_bench",
    "run_geometry",
    "BENCH_TERMS",
    "SECTION_FRACTIONS",
]

SECTION_FRACTIONS = (0.125, 0.25, 0.5, 0.9)
BENCH_TERMS = (4, 8, 16, 32, 64, 128)
BENCH_RHO = 0.8


def _ensure_outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def run_validate(cfg: RunConfig) -> int:
    outdir = _ensure_outdir(cfg)
    results = run_suites(cfg)
    payload = {
        "seed": cfg.seed,
        "space": {
            "domain_dim": cfg.space.domain_dim,
            "grid_points": cfg.space.grid_points,
            "spacing": cfg.space.spacing,
            "boundary": cfg.space.boundary,
        },
        "subspace_dim": cfg.subspace_dim,
        "trials": cfg.trials,
        "suites": [
            {
                "suite": r.suite,
                "checks": r.checks,
                "max_residual": r.max_residual,
                "passed": r.passed,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    write_text(os.path.join(outdir, "validate.json"), json.dumps(payload, indent=2) + "\n")
    for r in results:
        status = "passed" if r.passed else "FAILED"
        print(f"{r.suite}: {r.checks} checks, max residual {r.max_residual:.3e}, {status}")
    return 0 if payload["all_passed"] else 1


def run_section_demo(cfg: RunConfig) -> int:
    outdir = _ensure_outdir(cfg)
    g = build_space(cfg.space)
    _, ref, V = _setup_point(cfg, g, 0.4)
    r = radius_r(V)
    rows = []
    worst = 0.0
    for trial in range(cfg.trials):
        rng = rng_for_trial(cfg.seed, trial)
        for frac in SECTION_FRACTIONS:
            V1, achieved = stiefel_near(V, frac * r, rng)
            fac = section_factors(V, V1)
            # sigma V - V1 = (sigma Phi - Phi1)(gl2 Xi)^H, from the displacement.
            miss = fac.sigma.displacement(V.Phi) - (V1.Phi - V.Phi)
            sigma_res = LowRank(miss, ref.dual).frobenius_norm() / max(1.0, V1.factors.frobenius_norm())
            # The defect of the validated block; where gl2 is a multiple of I,
            # as on build_space grids, it equals the dense relative defect.
            B = fac.sigma.B
            mem = float(np.linalg.norm(B + B.conj().T + B.conj().T @ B) / math.sqrt(g.n))
            slack = 1.0 - max(fac.bounds)
            worst = max(worst, sigma_res, mem)
            rows.append((achieved, sigma_res, mem, slack))
    rows.sort(key=lambda row: row[0])
    lines = ["delta,sigma_residual,membership_residual,bound_slack\n"]
    lines.extend(csv_line(row) for row in rows)
    write_text(os.path.join(outdir, "section_demo.csv"), "".join(lines))
    print(f"section-demo: {len(rows)} sections inside radius {r:.6g}, worst residual {worst:.3e}")
    return 0 if worst <= cfg.tolerance("section") else 1


def run_sqrt_bench(cfg: RunConfig) -> int:
    outdir = _ensure_outdir(cfg)
    g = build_space(cfg.space)
    n = g.n
    eye = np.eye(n, dtype=np.complex128)
    max_err = {s: 0.0 for s in BENCH_TERMS}
    amp = g.pencil_factor
    for trial in range(cfg.trials):
        rng = rng_for_trial(cfg.seed, trial)
        C = random_complex(rng, n, n)
        H = C @ C.conj().T
        H /= float(np.linalg.eigvalsh(H)[-1])
        B = g.from_l2_frame(-BENCH_RHO * H)
        target = sqrt_eig(eye + B, g)
        for s, approx in zip(BENCH_TERMS, binomial_sqrt_truncated(B, g, BENCH_TERMS)):
            max_err[s] = max(max_err[s], h1_operator_norm(approx - target, g))
    rows = [(s, series_tail_bound(s, BENCH_RHO, amp), max_err[s]) for s in BENCH_TERMS]
    lines = ["s,tail_bound,max_error_vs_oracle\n"] + [csv_line(row) for row in rows]
    write_text(os.path.join(outdir, "sqrt_bench.csv"), "".join(lines))
    # Observed error carries oracle and summation roundoff on top of the
    # truncation bound, hence the absolute floor.
    failures = [f"{s} terms: error {err:.3e} exceeds bound {bound:.3e} + 1e-12 by {err - bound - 1e-12:.3e}"
                for s, bound, err in rows if not err <= bound + 1e-12]
    final = max_err[BENCH_TERMS[-1]]
    print(
        f"sqrt-bench: {cfg.trials} instances, final truncation error {final:.3e}"
        f" at {BENCH_TERMS[-1]} terms"
    )
    if not final <= cfg.tolerance("sqrt"):
        failures.append(f"final error {final:.3e} exceeds the sqrt tolerance {cfg.tolerance('sqrt'):.1e}")
    print("".join(f"sqrt-bench: {line}\n" for line in failures), end="", file=sys.stderr)
    return 1 if failures else 0


def run_geometry(cfg: RunConfig) -> int:
    outdir = _ensure_outdir(cfg)
    g = build_space(cfg.space)
    setup, ref, V0 = _setup_point(cfg, g, 0.3)
    spec = cfg.norm
    steps = 64
    nan = float("nan")
    rows = []
    all_ok = True

    def emit(curve_id, length, target):
        nonlocal all_ok
        sandwich = norm_sandwich_check(V0, target, spec)
        try:
            upper = distance_upper(V0, target, spec, steps=steps)
            status = "ok"
        except LogUnavailable:
            upper = nan
            status = "log_unavailable"
        all_ok = all_ok and sandwich.ok
        rows.append(
            (
                curve_id,
                spec.label,
                steps,
                length,
                upper,
                sandwich.operator_norm,
                sandwich.chosen_norm,
                sandwich.upper,
                int(sandwich.ok),
                status,
            )
        )

    zero = SkewOperator(V0.Phi, np.zeros((ref.N, ref.N)), g)
    emit("constant", curve_length(exp_curve(V0, zero, steps), spec, g), V0)

    X = _strong_scaled(random_span_skew(setup, V0.Phi, g), 0.05)
    V_rot = act(exp_skew(X), V0)
    emit("rotation", curve_length(exp_curve(V0, X, steps), spec, g), V_rot)

    V_near, _ = stiefel_near(V0, 0.25 * radius_r(V0), setup)
    emit("pair", nan, V_near)

    emit("far_pair", nan, StiefelOperator(-V0.Phi, ref))

    header = (
        "curve_id,spec,steps,length,distance_upper,"
        "sandwich_lhs,sandwich_mid,sandwich_rhs,sandwich_ok,log_status\n"
    )
    lines = [header]
    lines.extend(csv_line(row) for row in rows)
    write_text(os.path.join(outdir, "geometry.csv"), "".join(lines))
    statuses = {row[0]: row[9] for row in rows}
    print(
        "geometry: 4 curves, far pair "
        + ("detected" if statuses["far_pair"] == "log_unavailable" else "NOT detected")
    )
    return 0 if all_ok and statuses["far_pair"] == "log_unavailable" else 1
