"""Campaign drivers behind the command-line interface.

Every campaign is a pure function of its configuration: floats are written
by their shortest round-trip repr, so a rerun with the same configuration
reproduces each artifact byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np

from .basis import complete_basis
from .config import RunConfig
from .errors import NeighborhoodViolation
from .geometry import (
    curve_length,
    distance_upper,
    exp_curve,
    norm_sandwich_check,
)
from .group import SkewOperator, _Span, _TwoFrames, exp_skew
from .sampling import random_complex, random_skew, rng_for_trial, stiefel_near
from .space import LowRank, build_space, span_singular_values
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
        "space": dataclasses.asdict(cfg.space),
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
            mem = fac.sigma.defect
            slack = 1.0 - max(fac.bounds)
            worst = max(worst, sigma_res, mem)
            rows.append((achieved, sigma_res, mem, slack))
    rows.sort(key=lambda row: row[0])
    lines = ["delta,sigma_residual,membership_residual,bound_slack\n"]
    lines.extend(csv_line(row) for row in rows)
    write_text(os.path.join(outdir, "section_demo.csv"), "".join(lines))
    print(f"section-demo: {len(rows)} sections inside radius {r:.6g}, worst residual {worst:.3e}")
    return 0 if worst <= cfg.tolerance("section") else 1


def _bench_pair(Phi, g, rng) -> np.ndarray:
    """Psi = Phi X_a cos(Theta) + C X_b sin(Theta), for C weakly orthonormal and orthogonal to Phi.

    The min(N, n - N) sines have largest sqrt(BENCH_RHO), the rest uniform in
    (0, sqrt(BENCH_RHO)], and X_a, X_b are random unitaries.  The sines are the
    singular values of K = beta[N:] of the pair's ``_TwoFrames``, so the series
    argument -K K^H of ((I - P)(I - Q)(I - P))^(1/2) has spectral radius BENCH_RHO.
    """
    N = Phi.shape[1]
    C = complete_basis(Phi, random_complex(rng, g.n, N), g)
    m = C.shape[1]
    if m == 0:
        raise NeighborhoodViolation(f"a frame of width n = {g.n} has no weak complement to place the angles on")
    s = np.sqrt(BENCH_RHO) * np.concatenate([[1.0], 1.0 - rng.random(m - 1)])
    Xa, Xb = (np.linalg.qr(random_complex(rng, k, k))[0] for k in (N, m))
    Psi = (Phi @ Xa) * np.sqrt(1.0 - np.pad(s, (0, N - m)) ** 2)
    Psi[:, :m] += (C @ Xb) * s
    return Psi


def run_sqrt_bench(cfg: RunConfig) -> int:
    outdir = _ensure_outdir(cfg)
    g = build_space(cfg.space)
    Phi = _setup_point(cfg, g, 0.4)[2].Phi
    N = Phi.shape[1]
    max_err = np.zeros(len(BENCH_TERMS))
    for trial in range(cfg.trials):
        pair = _TwoFrames(Phi, _bench_pair(Phi, g, rng_for_trial(cfg.seed, trial)), g)
        K = pair.beta[N:]
        # I - K K^H = Z diag(1 - s^2) Z^H, so its exact root is Z diag(sqrt(1 - s^2)) Z^H.
        Z, sines, _ = np.linalg.svd(K, full_matrices=False)
        oracle = (Z * np.sqrt(1.0 - sines**2)) @ Z.conj().T
        sums = np.array(binomial_sqrt_truncated(-K @ K.conj().T, BENCH_TERMS))
        # Each error C (S - oracle)(gl2 C)^H has the strong norm of its core on the span C.
        span = _Span(pair.Q[:, N:], g)
        max_err = np.maximum(max_err, span_singular_values(span.TL, span.TR, sums - oracle)[:, 0])
    rows = [(s, series_tail_bound(s, BENCH_RHO, g.pencil_factor), err) for s, err in zip(BENCH_TERMS, max_err)]
    lines = ["s,tail_bound,max_error_vs_oracle\n"] + [csv_line(row) for row in rows]
    write_text(os.path.join(outdir, "sqrt_bench.csv"), "".join(lines))
    # Observed error carries oracle and summation roundoff on top of the
    # truncation bound, hence the absolute floor.
    failures = [f"{s} terms: error {err:.3e} exceeds bound {bound:.3e} + 1e-12 by {err - bound - 1e-12:.3e}"
                for s, bound, err in rows if not err <= bound + 1e-12]
    final = max_err[-1]
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
        # distance_upper checks that its curve reaches the target; it is no shorter than the chord.
        upper = distance_upper(V0, target, spec, steps=steps)
        chord = sandwich.chosen_norm
        all_ok = all_ok and sandwich.ok and chord - upper <= 1e-6 * max(1.0, chord)
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
                "ok",
            )
        )

    zero = SkewOperator(V0.Phi, np.zeros((ref.N, ref.N)), g)
    emit("constant", curve_length(exp_curve(V0, zero, steps), spec, g), V0)

    X = _strong_scaled(random_skew(setup, V0.Phi, g), 0.05)
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
    print(f"geometry: 4 curves, far pair length {rows[-1][4]:.6g}, {'passed' if all_ok else 'FAILED'}")
    return 0 if all_ok else 1
