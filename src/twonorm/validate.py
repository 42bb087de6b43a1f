"""Randomized self-checks for every structural identity the package relies on.

Each suite samples deterministic trials, measures worst-case residuals of the
identities it owns, and reports a single pass flag.  Residual limits are
deliberately coarse relative to double precision but far below any
mathematically meaningful violation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, load_frame_matrix
from .errors import TwoNormError
from .geometry import (
    NormSpec,
    curve_length,
    distance_upper,
    exp_curve,
    finsler_norm_grassmann,
    finsler_norm_stiefel,
    group_log,
    norm_sandwich_check,
    schatten_norm,
)
from .grassmann import (
    EQUIVALENCE_TOL,
    act_grassmann,
    delta_p,
    grassmann_equivalence,
    lie_split_grassmann,
    phi,
    psi_section,
    quotient_radius,
    section_pi_p,
)
from .group import (
    SkewOperator,
    _TwoFrames,
    algebraic_membership_residual,
    exp_skew,
    frame_unitary,
    membership_residual,
    skew_residual,
)
from .oracles import adjoint_by_definition, sqrt_eig
from .sampling import (
    SETUP_TRIAL,
    _frobenius_scaled,
    projection_near,
    random_complex,
    random_projection,
    random_reference,
    random_skew,
    random_stiefel,
    rng_for_trial,
    stiefel_near,
)
from .space import (
    GramPair,
    LowRank,
    SpaceSpec,
    adjoint_h1,
    adjoint_l2,
    build_space,
    h1_operator_norm,
    inner_h1,
    inner_l2,
    norm_h1,
    norm_l2,
    span_singular_values,
)
from .stiefel import (
    ReferenceFrame,
    StiefelOperator,
    act,
    lie_split_stiefel,
    metric_equivalence_report,
    point_difference,
    projection_lipschitz_report,
    radius_r,
    section_factors,
    sqrt_F,
    translated_section,
)

__all__ = ["SuiteResult", "run_suites", "SUITE_NAMES"]

SUITE_NAMES = ("space", "group", "section", "sqrt", "grassmann", "geometry")


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: int
    max_residual: float
    passed: bool


class _Recorder:
    def __init__(self):
        self.checks = 0
        self.max_residual = 0.0
        self.passed = True

    def residual(self, value: float, limit: float):
        value = float(value)
        self.checks += 1
        # NaN > x is false, so a NaN is recorded explicitly and then sticks.
        if value > self.max_residual or math.isnan(value):
            self.max_residual = value
        if not (value <= limit):
            self.passed = False

    def require(self, ok: bool):
        # Boolean checks contribute a unit residual on failure.
        self.residual(0.0 if ok else 1.0, 0.5)

    def result(self, suite: str) -> SuiteResult:
        return SuiteResult(
            suite=suite,
            checks=self.checks,
            max_residual=self.max_residual,
            passed=self.passed,
        )


def _reference_for(cfg: RunConfig, g: GramPair, setup) -> ReferenceFrame:
    """The configured frame file as reference, checked on the campaign's pair ``g``, else one drawn from ``setup``."""
    frame = load_frame_matrix(cfg)
    if frame is not None:
        return ReferenceFrame(Xi=frame, g=g)
    return random_reference(setup, g, cfg.subspace_dim)


def _setup_point(cfg: RunConfig, g: GramPair, scale: float):
    """The setup stream, then the reference and the base point drawn from it in that order."""
    setup = rng_for_trial(cfg.seed, SETUP_TRIAL)
    ref = _reference_for(cfg, g, setup)
    return setup, ref, random_stiefel(setup, ref, scale=scale)


def _run_trials(cfg: RunConfig, body) -> None:
    """body(rng) on each trial's stream, in a scope of its own, so a trial's values die with it."""
    for trial in range(cfg.trials):
        body(rng_for_trial(cfg.seed, trial))


def _space_suite(cfg: RunConfig, g: GramPair, rec: _Recorder) -> None:
    n = g.n
    rec.residual(np.linalg.norm(g.gl2 - g.gl2.conj().T), 1e-12 * np.linalg.norm(g.gl2))
    rec.residual(np.linalg.norm(g.gh1 - g.gh1.conj().T), 1e-12 * np.linalg.norm(g.gh1))
    gap = np.linalg.eigvalsh(g.gh1 - g.gl2)
    rec.residual(max(0.0, -float(gap[0])), 1e-10 * float(np.linalg.eigvalsh(g.gh1)[-1]))

    two = build_space(SpaceSpec(domain_dim=1, grid_points=2, spacing=1.0))
    rec.residual(
        np.max(np.abs(two.gh1 - np.array([[3.0, -2.0], [-2.0, 3.0]]))), 1e-12
    )

    def trial(rng):
        A = random_complex(rng, n, n)
        x = random_complex(rng, n, 1)[:, 0]
        y = random_complex(rng, n, 1)[:, 0]
        A2 = adjoint_l2(A, g)
        AH = adjoint_h1(A, g)
        opn = h1_operator_norm(A, g)
        ratio = norm_h1(A @ x, g) / max(norm_h1(x, g), 1e-300)
        # Each residual is recorded relative to max(1, scale) of its own operands.
        for value, scale in (
            (abs(inner_l2(A @ x, y, g) - inner_l2(x, A2 @ y, g)), norm_l2(A @ x, g) * norm_l2(y, g)),
            (abs(inner_h1(A @ x, y, g) - inner_h1(x, AH @ y, g)), norm_h1(A @ x, g) * norm_h1(y, g)),
            (np.linalg.norm(A2 - adjoint_by_definition(A, g)), np.linalg.norm(A2)),
            (max(0.0, ratio - opn), opn),
        ):
            rec.residual(value / max(1.0, scale), 1e-9)
    _run_trials(cfg, trial)


def _group_suite(cfg: RunConfig, g: GramPair, rec: _Recorder) -> None:
    # The identities are checked on the n-by-n data of elements on span[Xi, G].
    Xi = _reference_for(cfg, g, rng_for_trial(cfg.seed, SETUP_TRIAL)).Xi
    def trial(rng):
        X = _frobenius_scaled(random_skew(rng, Xi, g), 1.0)
        rec.residual(skew_residual(X.data, g), 1e-12)
        U = exp_skew(X)
        rec.residual(membership_residual(U.data, g), 1e-10)
        V = exp_skew(_frobenius_scaled(random_skew(rng, Xi, g), 0.7))
        rec.residual(membership_residual(U.data @ V.data, g), 1e-9)
        rec.residual(membership_residual(U.inverse.data, g), 1e-9)
        # exp(-X) from a decomposition of its own: reading it from U's at t = -1
        # would test only the eigensolver's orthogonality.
        back = exp_skew(SkewOperator(X.Q, -X.S, g))
        rec.residual(
            np.linalg.norm(U.data @ back.data - np.eye(g.n)), 1e-11 * np.exp(2.0)
        )
        rec.residual(algebraic_membership_residual(U.data, g), 1e-8)
    _run_trials(cfg, trial)
    drift = np.eye(g.n, dtype=np.complex128)
    drift[0, 0] = 2.0
    rec.require(algebraic_membership_residual(drift, g) > 0.1)


def _section_suite(cfg: RunConfig, g: GramPair, rec: _Recorder) -> None:
    _, ref, V = _setup_point(cfg, g, 0.4)
    P = phi(V).P
    r = radius_r(V)
    eye = np.eye(g.n, dtype=np.complex128)
    def trial(rng):
        frac = 0.1 + 0.8 * rng.random()
        V1, _ = stiefel_near(V, frac * r, rng)
        fac = section_factors(V, V1)
        P1 = phi(V1).P
        rec.residual(
            np.linalg.norm(fac.sigma.data @ V.V - V1.V), 1e-9 * np.linalg.norm(V1.V)
        )
        rec.residual(membership_residual(fac.sigma.data, g), 1e-9)
        # T1 = T P and T2 = T (I - P) are the partial isometries of the direct rotation.
        t1, t2 = fac.t.data @ P, fac.t.data @ (eye - P)
        t1s = adjoint_l2(t1, g)
        rec.residual(np.linalg.norm(t1s @ t1 - P), 1e-8 * max(1.0, np.linalg.norm(P)))
        rec.residual(np.linalg.norm(t1 @ t1s - P1), 1e-8 * max(1.0, np.linalg.norm(P1)))
        t2s = adjoint_l2(t2, g)
        rec.residual(np.linalg.norm(t2s @ t2 - (eye - P)), 1e-8 * np.sqrt(g.n))
        rec.residual(np.linalg.norm(t2 @ t2s - (eye - P1)), 1e-8 * np.sqrt(g.n))
        rec.residual(membership_residual(fac.w.data, g), 1e-8)
    _run_trials(cfg, trial)
    # The section translated along the group still maps base to target.
    mover = rng_for_trial(cfg.seed, SETUP_TRIAL - 1)
    V0 = random_stiefel(mover, ref, scale=0.3)
    allowed = r / frame_unitary(V.Phi, V0.Phi, g).inverse.h1_norm
    V1, _ = stiefel_near(V0, 0.3 * allowed, mover)
    moved = translated_section(V, V0, V1)
    rec.residual(np.linalg.norm(moved.data @ V.V - V1.V), 1e-9 * np.linalg.norm(V1.V))
    rec.residual(membership_residual(moved.data, g), 1e-8)


def _sqrt_suite(cfg: RunConfig, g: GramPair, rec: _Recorder) -> None:
    V = _setup_point(cfg, g, 0.4)[2]
    P = phi(V).P
    eye = np.eye(g.n, dtype=np.complex128)
    r = radius_r(V)
    def trial(rng):
        W, _ = stiefel_near(V, (0.1 + 0.6 * rng.random()) * r, rng)
        Q = phi(W).P
        A = (eye - P) @ (eye - Q) @ (eye - P)
        R = sqrt_F(V, W)
        rec.residual(np.linalg.norm(R @ R - A) / max(1.0, np.linalg.norm(A)), 1e-9)
        rec.residual(np.linalg.norm(R - sqrt_eig(A, g)) / max(1.0, np.linalg.norm(R)), 1e-8)
    _run_trials(cfg, trial)


def _grassmann_suite(cfg: RunConfig, g: GramPair, rec: _Recorder) -> None:
    setup = rng_for_trial(cfg.seed, SETUP_TRIAL)
    ref = _reference_for(cfg, g, setup)
    def trial(rng):
        P = random_projection(rng, g, cfg.subspace_dim)
        radius = quotient_radius(P)
        P1, _ = projection_near(P, (0.1 + 0.5 * rng.random()) * radius, rng)
        V1 = psi_section(P, P1, ref)
        rec.residual(
            np.linalg.norm(phi(V1).P - P1.P), 1e-9 * max(1.0, np.linalg.norm(P1.P))
        )
        # The direct rotation conjugates P onto P2 across the quotient radius.
        # Both checks stay on spans: the strong distance of T P T^-1 from P2,
        # relative to ||P2||_h1, and the block's form defect, which is the
        # dense membership residual where gl2 is w I.
        P2, _ = projection_near(P, (0.1 + 0.8 * rng.random()) * radius, rng)
        T = section_pi_p(P, P2)
        span = _TwoFrames(P2.frame, act_grassmann(T, P).frame, g)
        p2_norm = span_singular_values(span.TL, span.TR, span.E @ span.E.conj().T)[0]
        rec.residual(span.projection_distance, 1e-9 * max(1.0, p2_norm))
        rec.residual(T.defect, 1e-9)
        V = random_stiefel(rng, ref, scale=0.4)
        # Right translation by a split-preserving element reparameterizes the
        # embedding without moving its image, so the pair is equivalent.  The
        # generator is drawn on span[Xi, G].  With E = Q^H gl2 Xi, J = 2 E E^H - I
        # reflects across span(Xi), and S + J S J is twice the part of the block
        # that commutes with J, so T fixes span(Xi) and V T Xi = Phi (gl2 Xi)^H T Xi.
        Z = random_skew(rng, ref.Xi, g)
        E = Z.Q.conj().T @ ref.dual
        J = 2.0 * E @ E.conj().T - np.eye(len(E))
        S = Z.S + J @ Z.S @ J
        T = exp_skew(SkewOperator(Z.Q, S * (0.5 / np.linalg.norm(S)), g))
        reparam = StiefelOperator(V.Phi @ (ref.dual.conj().T @ (ref.Xi + T.displacement(ref.Xi))), ref)
        res = grassmann_equivalence(reparam, V)
        rec.require(res.equivalent)
        rec.residual(res.map_residual, 1e-7 * max(1.0, np.linalg.norm(V.V)))
        other = random_stiefel(rng, ref, scale=0.4)
        same = grassmann_equivalence(V, other).projection_distance <= EQUIVALENCE_TOL
        rec.require(grassmann_equivalence(other, V).equivalent == same)
        Y = random_complex(rng, g.n, g.n)
        d1 = delta_p(Y, P)
        d3 = delta_p(delta_p(d1, P), P)
        # The cube identity and the split sums are recorded relative to max(1, scale).
        rec.residual(np.linalg.norm(d3 - d1) / max(1.0, np.linalg.norm(d1)), 1e-12)
        # The split generator lives on span[Phi, G]: P adds N columns to its span, phi(V) none.
        X = _frobenius_scaled(random_skew(rng, V.Phi, g), 1.0)
        xg, xh = lie_split_grassmann(X, P)
        rec.residual(np.linalg.norm(xg.data + xh.data - X.data) / max(1.0, np.linalg.norm(X.data)), 1e-12)
        rec.residual(np.linalg.norm(delta_p(xg.data, P)), 1e-10 * max(1.0, np.linalg.norm(xg.data)))
        sg, sh = lie_split_stiefel(X, phi(V))
        rec.residual(np.linalg.norm(sg.data + sh.data - X.data) / max(1.0, np.linalg.norm(X.data)), 1e-12)
        rec.residual(
            np.linalg.norm(sg.data @ V.V), 1e-10 * max(1.0, np.linalg.norm(V.V))
        )
    _run_trials(cfg, trial)
    # Pairs at half and twice the documented tolerance, from a stream of their own.
    straddle = rng_for_trial(cfg.seed, SETUP_TRIAL - 2)
    V = random_stiefel(straddle, ref, scale=0.4)
    P = phi(V)
    for target, expected in ((0.5 * EQUIVALENCE_TOL, True), (2 * EQUIVALENCE_TOL, False)):
        W = StiefelOperator(projection_near(P, target, straddle)[0].frame, ref)
        rec.require(grassmann_equivalence(V, W).equivalent == expected)
        rec.require(grassmann_equivalence(W, V).equivalent == expected)


def _strong_scaled(X: SkewOperator, norm: float) -> SkewOperator:
    """X rescaled to the given strong operator norm."""
    return SkewOperator(X.Q, X.S * (norm / h1_operator_norm(LowRank(X.Q @ X.S, X.g.l2(X.Q)), X.g)), X.g)


def _geometry_suite(cfg: RunConfig, g: GramPair, rec: _Recorder) -> None:
    setup, ref, V0 = _setup_point(cfg, g, 0.3)
    P0 = phi(V0)
    spec = cfg.norm
    zero = SkewOperator(V0.Phi, np.zeros((ref.N, ref.N)), g)
    rec.residual(curve_length(exp_curve(V0, zero, 16), spec, g), 0.0)
    for trial in range(min(cfg.trials, 40)):
        rng = rng_for_trial(cfg.seed, trial)
        # A generator of strong norm 0.2 on span[V0.Phi, G] has its phases
        # inside (-pi, pi] at any spacing, so the principal logarithm returns it.
        X = _strong_scaled(random_skew(rng, V0.Phi, g), 0.2)
        # The log keeps the span, so both generators are Q S (gl2 Q)^H on one Q.
        back = group_log(exp_skew(X))
        rec.require(back.Q is X.Q)
        size = LowRank(X.Q @ X.S, g.l2(X.Q)).frobenius_norm()
        rec.residual(LowRank(X.Q @ (back.S - X.S), g.l2(X.Q)).frobenius_norm(), 1e-8 * max(1.0, size))
        # The Finsler norms of the tangents X V0 (rank N) and [X, P0] (rank 2N)
        # lie between their strong operator norm and rank times that norm.
        for f, op, rank in (
            (finsler_norm_stiefel(X, V0, spec), h1_operator_norm(LowRank(X.apply(V0.Phi), ref.dual), g), ref.N),
            (finsler_norm_grassmann(X, P0, spec), finsler_norm_grassmann(X, P0, NormSpec.operator()), 2 * ref.N),
        ):
            rec.residual(max(0.0, op - f, f - rank * op), 1e-10 * max(1.0, op))
        W = act(exp_skew(_strong_scaled(random_skew(rng, V0.Phi, g), 0.02)), V0)
        report = norm_sandwich_check(V0, W, spec)
        rec.require(report.ok)
        # distance_upper checks that its curve reaches W; it is no shorter than the chord.
        upper = distance_upper(V0, W, spec, steps=32)
        chord = schatten_norm(point_difference(W, V0), spec, g)
        rec.residual(max(0.0, chord - upper), 1e-6 * max(1.0, chord))
    # The far pair -V0 is joined by a curve as well.
    far = StiefelOperator(-V0.Phi, ref)
    chord = schatten_norm(point_difference(far, V0), spec, g)
    rec.residual(max(0.0, chord - distance_upper(V0, far, spec, steps=16)), 1e-6 * max(1.0, chord))
    # Tuple and operator distances stay within the equivalence window, and the
    # image projection is Lipschitz in the point.
    other = random_stiefel(setup, ref, scale=0.3)
    rep = metric_equivalence_report(V0, other)
    rec.require(rep.lower_ok)
    rec.require(rep.upper_ok)
    rec.require(projection_lipschitz_report(V0, other).ok)


_SUITES = (_space_suite, _group_suite, _section_suite, _sqrt_suite, _grassmann_suite, _geometry_suite)


def run_suites(cfg: RunConfig) -> list[SuiteResult]:
    """Run every suite; one that raises a package error is recorded as failed.

    The raising check counts as one more check with a NaN residual, the error
    is named on stderr, and the remaining suites still run.
    """
    g = build_space(cfg.space)
    results = []
    for name, suite in zip(SUITE_NAMES, _SUITES):
        rec = _Recorder()
        try:
            suite(cfg, g, rec)
        except TwoNormError as exc:
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rec.residual(float("nan"), 0.0)
        results.append(rec.result(name))
    return results
