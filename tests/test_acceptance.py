"""End-to-end acceptance checks, one per advertised guarantee.

Each test prints a single pass/fail line on the real stdout (bypassing
capture) and then asserts, so a full run reads as a checklist.  Tolerances
are pinned literals; loosening one is an interface change, not a test fix.
"""

import sys

import numpy as np

from twonorm import (
    LowRank,
    NormSpec,
    ProjectionOperator,
    ReferenceFrame,
    SkewOperator,
    StiefelOperator,
    curve_length,
    delta_p,
    distance_upper,
    exp_curve,
    exp_skew,
    finsler_norm_stiefel,
    frame_unitary,
    grassmann_equivalence,
    h1_operator_norm,
    h1_singular_values,
    lie_split_grassmann,
    lie_split_stiefel,
    membership_residual,
    metric_equivalence_report,
    norm_sandwich_check,
    phi,
    psi_section,
    radius_r,
    section_factors,
    section_pi_p,
    sqrt_F,
)
from twonorm.basis import orthonormal_columns
from twonorm.cli import main as cli_main
from twonorm.oracles import sqrt_eig
from twonorm.sampling import (
    base_point,
    projection_near,
    random_complex,
    random_stiefel,
    rng_for_trial,
    stiefel_near,
)

from conftest import dense, dense_skew


def report(capsys, name: str, ok: bool):
    with capsys.disabled():
        sys.stdout.write(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}\n")
        sys.stdout.flush()
    assert ok, name


def test_01_group_axioms(g, capsys):
    ok = True
    for trial in range(25):
        rng = rng_for_trial(42, trial)
        U = exp_skew(dense_skew(rng, g, scale=1.0))
        W = exp_skew(dense_skew(rng, g, scale=1.0))
        ok &= membership_residual(U.data, g) <= 1e-10
        ok &= membership_residual(U.data @ W.data, g) <= 1e-10
        ok &= membership_residual(U.inverse.data, g) <= 1e-10
        ok &= np.linalg.norm(U.data @ U.inverse.data - np.eye(g.n)) <= 1e-10
    ok &= membership_residual(np.eye(g.n), g) == 0.0
    report(capsys, "01 group-axioms", bool(ok))


def test_02_transitive_frame_action(g, capsys):
    ok = True
    for trial in range(25):
        rng = rng_for_trial(42, trial)
        F = [orthonormal_columns(random_complex(rng, g.n, 2), g) for _ in range(3)]
        U01 = frame_unitary(F[0], F[1], g)
        U12 = frame_unitary(F[1], F[2], g)
        ok &= np.linalg.norm(U01.data @ F[0] - F[1]) <= 1e-9
        ok &= membership_residual(U01.data, g) <= 1e-9
        ok &= np.linalg.norm(U12.data @ (U01.data @ F[0]) - F[2]) <= 1e-9
    report(capsys, "02 transitive-frame-action", bool(ok))


def test_03_cross_sections_inside_radius(g, ref, capsys):
    ok = True
    for trial in range(25):
        rng = rng_for_trial(42, trial)
        V = random_stiefel(rng, ref, scale=0.4)
        r = radius_r(V)
        for fraction in (0.125, 0.25, 0.5, 0.9):
            V1, _ = stiefel_near(V, fraction * r, rng)
            fac = section_factors(V, V1)
            ok &= np.linalg.norm(fac.sigma.data @ V.V - V1.V) <= 1e-9
            ok &= membership_residual(fac.sigma.data, g) <= 1e-9
            ok &= max(fac.bounds) < 1.0
    report(capsys, "03 cross-sections-inside-radius", bool(ok))


def test_04_series_square_root(g, ref, capsys):
    ok = True
    for trial in range(100):
        rng = rng_for_trial(42, trial)
        V = random_stiefel(rng, ref, scale=0.4)
        W = random_stiefel(rng, ref, scale=0.4)
        eye = np.eye(g.n)
        R = eye + dense(sqrt_F(V, W))
        ip = eye - phi(V).P
        arg = ip @ (eye - phi(W).P) @ ip
        ok &= np.linalg.norm(R - sqrt_eig(arg, g)) <= 1e-8
        ok &= np.linalg.norm(R @ R - arg) <= 1e-8
    report(capsys, "04 series-square-root", bool(ok))


def test_05_quotient_sections_and_equivalence(g, ref, capsys):
    ok = True
    for trial in range(25):
        rng = rng_for_trial(42, trial)
        V = random_stiefel(rng, ref, scale=0.4)
        P = phi(V)
        quotient_radius = 1.0 / (h1_operator_norm(P.P, g) + 1.0) ** 2
        P1, _ = projection_near(P, 0.5 * quotient_radius, rng)
        lift = psi_section(P, P1, ref)
        ok &= np.linalg.norm(phi(lift).P - P1.P) <= 1e-9

        P2, _ = projection_near(P, 0.3 * quotient_radius, rng)
        U = section_pi_p(P, P2)
        ok &= np.linalg.norm(U.data @ P.P @ U.inverse.data - P2.P) <= 1e-9

        X = dense_skew(rng, g, scale=0.4)
        P_S = ProjectionOperator(ref.Xi, g)
        xdiag, _ = lie_split_grassmann(X, P_S)
        V_re = StiefelOperator.from_matrix(V.V @ exp_skew(xdiag).data, ref)
        res = grassmann_equivalence(V, V_re)
        ok &= res.equivalent and res.map_residual <= 1e-8
        other = random_stiefel(rng, ref, scale=0.4)
        far = grassmann_equivalence(V, other)
        ok &= (far.projection_distance <= 1e-8) == far.equivalent
        ok &= not far.equivalent
    report(capsys, "05 quotient-sections-and-equivalence", bool(ok))


def test_06_tangent_space_identities(g, ref, capsys):
    ok = True
    for trial in range(25):
        rng = rng_for_trial(42, trial)
        V = random_stiefel(rng, ref, scale=0.4)
        P = phi(V)
        Y = LowRank(random_complex(rng, g.n, 3), random_complex(rng, g.n, 3))
        D = delta_p(Y, P)
        d = dense(D)
        ok &= np.linalg.norm(dense(delta_p(delta_p(D, P), P)) - d) <= 1e-12 * max(1.0, np.linalg.norm(d))
        # delta_P applied twice is idempotent.
        Eg = delta_p(D, P)
        e = dense(Eg)
        ok &= np.linalg.norm(dense(delta_p(delta_p(Eg, P), P)) - e) <= 1e-10 * max(1.0, np.linalg.norm(e))
        X = dense_skew(rng, g)
        # X V is tangent at V: in frame form, Phi^H gl2 (X Phi) is skew-Hermitian.
        M = V.Phi.conj().T @ g.l2(X.apply(V.Phi))
        ok &= np.linalg.norm(M + M.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(M))
        xg, xh = lie_split_stiefel(X, P)
        ok &= np.linalg.norm(xg.data + xh.data - X.data) <= 1e-12
        ok &= np.linalg.norm(xg.data @ P.P) <= 1e-12
        yg, yh = lie_split_grassmann(X, P)
        ok &= np.linalg.norm(yg.data + yh.data - X.data) <= 1e-12
        ok &= np.linalg.norm(yg.data @ P.P - P.P @ yg.data) <= 1e-12
    report(capsys, "06 tangent-space-identities", bool(ok))


def test_07_norm_sandwich(g, ref, capsys):
    ok = True
    specs = (NormSpec.schatten(1.0), NormSpec.schatten(2.0), NormSpec.schatten(float("inf")))
    for trial in range(25):
        rng = rng_for_trial(42, trial)
        V1 = random_stiefel(rng, ref, scale=0.4)
        V2 = random_stiefel(rng, ref, scale=0.4)
        for spec in specs:
            rep = norm_sandwich_check(V1, V2, spec)
            ok &= rep.ok
        sv = h1_singular_values(V1.V - V2.V, g)
        ok &= int(np.sum(sv > 1e-10 * max(1.0, sv[0]))) <= 2 * ref.N
    report(capsys, "07 norm-sandwich", bool(ok))


def test_08_metric_equivalence(g, ref, capsys):
    ok = True
    for trial in range(25):
        rng = rng_for_trial(42, trial)
        V1 = random_stiefel(rng, ref, scale=0.4)
        V2 = random_stiefel(rng, ref, scale=0.4)
        rep = metric_equivalence_report(V1, V2)
        ok &= rep.ok
    report(capsys, "08 metric-equivalence", bool(ok))


def test_09_curves_and_distance(g, g_flat, ref, capsys):
    ok = True
    # Constant curves have exactly zero length.
    V = random_stiefel(rng_for_trial(42, 0), ref, scale=0.3)
    const = exp_curve(V, SkewOperator(V.Phi, np.zeros((ref.N, ref.N)), g), 3)
    ok &= curve_length(const, NormSpec.schatten(2.0), g) == 0.0

    # A plane rotation's length equals its angle.
    theta = 0.4
    flat_ref = ReferenceFrame(np.array([[1.0], [0.0]]), g_flat)
    V0 = base_point(flat_ref)
    X = SkewOperator(np.eye(2), np.array([[0.0, -theta], [theta, 0.0]]), g_flat)
    length = curve_length(exp_curve(V0, X, steps=65), NormSpec.schatten(2.0), g_flat)
    ok &= abs(length - theta) <= 1e-6

    # Riemannian Gram matrices of tangent tuples are positive semidefinite.  The
    # inner product is the polarization of the p = 2 Finsler norm; dense_skew
    # draws share the span gl2^{-1/2}, so X +- Y are blocks on it.
    rng = rng_for_trial(42, 1)
    tangents = [dense_skew(rng, g) for _ in range(4)]
    two = NormSpec.schatten(2.0)

    def inner(a, b):
        plus, minus = (finsler_norm_stiefel(SkewOperator(a.Q, a.S + s * b.S, g), V, two) for s in (1, -1))
        return 0.25 * (plus**2 - minus**2)

    gram = np.array([[inner(a, b) for b in tangents] for a in tangents])
    ok &= float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[0]) >= -1e-10

    # The explicit connecting curve bounds the chord and tightens as the
    # points approach each other.
    spec = NormSpec.schatten(2.0)
    rng = rng_for_trial(42, 2)
    Y = dense_skew(rng, g)
    uppers = []
    for target in (1e-3, 1e-5, 1e-7):
        Vt, achieved = stiefel_near(V, target, rng)
        upper = distance_upper(V, Vt, spec)
        chord = h1_operator_norm(Vt.V - V.V, g)
        ok &= chord <= upper + 1e-6
        uppers.append(upper)
    ok &= uppers[0] > uppers[1] > uppers[2]
    ok &= uppers[-1] <= 1e-6
    report(capsys, "09 curves-and-distance", bool(ok))


def test_10_deterministic_campaigns(tmp_path, capsys):
    ok = True
    artifacts = {
        "validate": "validate.json",
        "section-demo": "section_demo.csv",
        "sqrt-bench": "sqrt_bench.csv",
        "geometry": "geometry.csv",
    }
    for command, artifact in artifacts.items():
        a = tmp_path / command / "a"
        b = tmp_path / command / "b"
        ok &= cli_main([command, "--trials", "2", "--out", str(a)]) == 0
        ok &= cli_main([command, "--trials", "2", "--out", str(b)]) == 0
        ok &= (a / artifact).read_bytes() == (b / artifact).read_bytes()
    capsys.readouterr()
    report(capsys, "10 deterministic-campaigns", bool(ok))
