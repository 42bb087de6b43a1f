import math
import tracemalloc

import pytest

from twonorm import grassmann, group, stiefel, validate
from twonorm.config import config_from_mapping
from twonorm.group import GroupElement, SkewOperator
from twonorm.space import GridPair, build_space
from twonorm.validate import (
    _Recorder,
    _geometry_suite,
    _grassmann_suite,
    _group_suite,
    _section_suite,
    _space_suite,
    _sqrt_suite,
)


def test_recorder_keeps_nan_as_worst_residual():
    rec = _Recorder()
    rec.residual(1e-14, 1e-12)
    rec.residual(float("nan"), 1e-12)
    rec.residual(1e-13, 1e-12)
    result = rec.result("probe")
    assert result.checks == 3
    assert math.isnan(result.max_residual)
    assert not result.passed


def test_geometry_suite_passes_at_fine_spacing():
    # At spacing 1e-3 the pencil factor is about 2e3.  A round-trip generator
    # of fixed Frobenius norm would have a strong norm near 100 there and
    # leave the domain of the principal logarithm; its strong norm is fixed.
    cfg = config_from_mapping({"space": {"grid_points": 16, "spacing": 1e-3}})
    rec = _Recorder()
    _geometry_suite(cfg, build_space(cfg.space), rec)
    result = rec.result("geometry")
    assert result.passed, result


def test_space_suite_records_residuals_on_the_scale_of_their_limits():
    # Each limit is 1e-9 max(1, scale), so each residual is recorded divided by
    # its scale and reads as a relative error.
    cfg = config_from_mapping({"seed": 42, "trials": 10, "space": {"grid_points": 128, "spacing": 0.25}})
    rec = _Recorder()
    _space_suite(cfg, build_space(cfg.space), rec)
    result = rec.result("space")
    assert result.passed and result.max_residual <= 1e-13, result


def test_the_suites_read_no_dense_operator_of_a_large_grid(monkeypatch):
    # Every suite reads the span form of what it checks: at 1D n = 4096 no Gram
    # matrix or root of the pair is read, and the traced peak stays far below
    # one n-by-n complex array, 268 MB.
    def refuse(*args, **kwargs):
        raise AssertionError("dense Gram matrix or root on a grid pair")

    for name in ("gl2", "gh1", "sqrt_l2", "isqrt_l2", "sqrt_h1", "isqrt_h1", "_sqrt_pair_l2", "_sqrt_pair_h1"):
        monkeypatch.setattr(GridPair, name, property(refuse))
    space = {"grid_points": 4096, "spacing": 0.25}
    cfg = config_from_mapping({"seed": 42, "subspace_dim": 2, "trials": 2, "space": space})
    tracemalloc.start()
    try:
        results = validate.run_suites(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.suite for r in results if not r.passed] == []
    assert peak < 64e6


def test_grassmann_suite_records_residuals_on_the_scale_of_their_limits():
    # The cube identity and the split sums have limits 1e-12 max(1, scale) and
    # are recorded divided by that scale, as relative errors.
    cfg = config_from_mapping({"seed": 42, "trials": 10, "space": {"grid_points": 128, "spacing": 0.25}})
    rec = _Recorder()
    _grassmann_suite(cfg, build_space(cfg.space), rec)
    result = rec.result("grassmann")
    assert result.passed and result.max_residual <= 1e-14, result


def test_sqrt_suite_records_residuals_on_the_scale_of_their_limits():
    # The square and oracle checks have limits 1e-9 max(1, ||A||) and
    # 1e-8 max(1, ||R||) and are recorded divided by that scale.
    cfg = config_from_mapping({"seed": 42, "trials": 10, "space": {"grid_points": 128, "spacing": 0.25}})
    rec = _Recorder()
    _sqrt_suite(cfg, build_space(cfg.space), rec)
    result = rec.result("sqrt")
    assert result.passed and result.max_residual <= 1e-14, result


def test_geometry_suite_fails_when_the_stiefel_finsler_norm_is_inflated(monkeypatch):
    # The Finsler norm of the rank-N tangent X V0 is at most N times its
    # strong operator norm; three times the norm exceeds that at N = 2.
    true_norm = validate.finsler_norm_stiefel
    monkeypatch.setattr(validate, "finsler_norm_stiefel", lambda *args: 3.0 * true_norm(*args))
    cfg = config_from_mapping({"seed": 42, "trials": 4, "space": {"grid_points": 16, "spacing": 0.25}})
    rec = _Recorder()
    _geometry_suite(cfg, build_space(cfg.space), rec)
    assert not rec.result("geometry").passed


def test_every_span_the_suites_build_has_at_most_4N_columns(monkeypatch):
    # On the validate-1d space every element and generator lives on a span of a
    # few frames: draws and sections k <= 2N, Lie splits and products k <= 3N and
    # translated sections k <= 4N.  The identities are read from their k-by-k blocks.
    cfg = config_from_mapping({"seed": 42, "trials": 3, "space": {"grid_points": 128, "spacing": 0.25}})
    N, widths, current = cfg.subspace_dim, {}, []
    span_form = group._span_form

    def recorded(element, *args):
        widths.setdefault(current[-1], []).append(element.Q.shape[1])
        span_form(element, *args)

    def tagged(name, suite):
        def run(*args):
            current.append(name)
            suite(*args)

        return run

    monkeypatch.setattr(group, "_span_form", recorded)
    monkeypatch.setattr(validate, "_SUITES", tuple(map(tagged, validate.SUITE_NAMES, validate._SUITES)))
    assert all(result.passed for result in validate.run_suites(cfg))
    assert sorted(widths) == sorted(set(validate.SUITE_NAMES) - {"space"})
    assert {name: max(ks) for name, ks in widths.items() if max(ks) > 4 * N} == {}


def test_geometry_suite_checks_the_log_round_trip_on_the_span(monkeypatch):
    # The log keeps the generator's span, so the round trip is measured on the
    # k-by-k blocks; no dense n-by-n generator is built.
    def refuse(_):
        raise AssertionError("dense n-by-n generator")

    monkeypatch.setattr(SkewOperator, "data", property(refuse))
    cfg = config_from_mapping({"seed": 42, "trials": 4, "space": {"grid_points": 16, "spacing": 0.25}})
    rec = _Recorder()
    _geometry_suite(cfg, build_space(cfg.space), rec)
    assert rec.result("geometry").passed


@pytest.mark.parametrize("tol", [1e-7, 1e-9])
def test_grassmann_suite_fails_when_the_equivalence_tolerance_moves(monkeypatch, tol):
    # Pairs at 0.5e-8 and 2e-8 straddle the documented 1e-8, so a tolerance
    # ten times looser or tighter decides one of them wrongly.
    monkeypatch.setattr(grassmann, "EQUIVALENCE_TOL", tol)
    cfg = config_from_mapping({"seed": 42, "trials": 2, "space": {"grid_points": 16, "spacing": 0.25}})
    rec = _Recorder()
    _grassmann_suite(cfg, build_space(cfg.space), rec)
    assert not rec.result("grassmann").passed


def test_grassmann_suite_fails_when_the_direct_rotation_tau_block_is_mutated(monkeypatch):
    # section_pi_p returns the block T - I = [b Z Y^H - E, -tau] of the builder
    # section_factors shares.  One tau entry moved by 3e-9 sqrt(n) leaves T P
    # T^-1 alone and stays inside the GroupElement constructor's 1e-8, but its
    # form defect, about 4.2e-9, fails the suite's 1e-9 limit.
    built = group._TwoFrames.direct_rotation

    def mutated(span):
        bounds, rot, tau, t = built(span)
        t = t.copy()
        t[0, rot.shape[0]] -= 3e-9 * math.sqrt(span.Q.shape[0])
        return bounds, rot, tau, t

    monkeypatch.setattr(group._TwoFrames, "direct_rotation", mutated)
    cfg = config_from_mapping({"seed": 42, "trials": 2, "space": {"grid_points": 16, "spacing": 0.25}})
    rec = _Recorder()
    _grassmann_suite(cfg, build_space(cfg.space), rec)
    assert not rec.result("grassmann").passed


SMALL = {"seed": 42, "trials": 2, "space": {"grid_points": 16, "spacing": 0.25}}


def test_group_suite_fails_when_the_product_block_is_mutated(monkeypatch):
    # 1e-8 on one entry of the product's block stays inside the GroupElement
    # constructor's 1e-8 / sqrt(n) but fails the suite's 1e-9 and exp(X) exp(-X) = I.
    built = group._product

    def mutated(U, V):
        W = built(U, V)
        B = W.B.copy()
        B[0, 0] += 1e-8
        return GroupElement(W.Q, B, W.g)

    monkeypatch.setattr(validate, "_product", mutated)
    cfg = config_from_mapping(SMALL)
    rec = _Recorder()
    _group_suite(cfg, build_space(cfg.space), rec)
    assert not rec.result("group").passed


@pytest.mark.parametrize("block", ["sigma", "t"])
def test_section_suite_fails_when_a_section_block_is_mutated(monkeypatch, block):
    # sigma's block is [beta, -tau] and T's is [b Z Y^H - E, -tau]: tau moved
    # by 3e-9 sqrt(n) breaks sigma's form, and 1e-8 on T's first entry breaks
    # the partial isometry T P, each past its limit but inside the constructor's.
    built = group._TwoFrames.direct_rotation

    def mutated(span):
        bounds, rot, tau, t = built(span)
        tau, t = tau.copy(), t.copy()
        if block == "sigma":
            tau[0, 0] += 3e-9 * math.sqrt(span.Q.shape[0])
        else:
            t[0, 0] += 1e-8
        return bounds, rot, tau, t

    monkeypatch.setattr(group._TwoFrames, "direct_rotation", mutated)
    cfg = config_from_mapping(SMALL)
    rec = _Recorder()
    _section_suite(cfg, build_space(cfg.space), rec)
    assert not rec.result("section").passed


def test_sqrt_suite_fails_when_a_series_term_is_dropped(monkeypatch):
    # Dropping c_1 leaves the block of K K^H out of the root, so R^2 - A is
    # about the squared sines rho.  At spacing 1.0 the draws reach rho ~ 1e-8,
    # past the 1e-9 limit; at spacing 0.25 they stay near 1e-13, below any limit.
    coefficients = stiefel.binomial_coefficients

    def dropped(count):
        c = coefficients(count).copy()
        c[0] = 0.0
        return c

    monkeypatch.setattr(stiefel, "binomial_coefficients", dropped)
    cfg = config_from_mapping({"seed": 42, "trials": 10, "space": {"grid_points": 16, "spacing": 1.0}})
    rec = _Recorder()
    _sqrt_suite(cfg, build_space(cfg.space), rec)
    assert not rec.result("sqrt").passed


@pytest.mark.parametrize("split", ["grassmann", "stiefel"])
def test_grassmann_suite_fails_when_a_split_coefficient_is_mutated(monkeypatch, split):
    # c = 2 gives delta_P^2(X) and c = 1 the complement part P X + X P - P X P.
    # Moved by 1e-6, c adds 1e-6 P X P to the isotropy part, which then no
    # longer kills V, or to the off-diagonal part, which delta_P^2 then no longer fixes.
    module = grassmann if split == "grassmann" else stiefel
    built = module._lie_split
    monkeypatch.setattr(module, "_lie_split", lambda X, H, c: built(X, H, c + 1e-6))
    cfg = config_from_mapping(SMALL)
    rec = _Recorder()
    _grassmann_suite(cfg, build_space(cfg.space), rec)
    assert not rec.result("grassmann").passed
