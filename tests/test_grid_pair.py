"""The grid pair applies gh1 through its Fourier symbol and agrees with the dense pair of the same matrices."""

import json
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm import SpaceSpec, build_space, gram_pair_from_matrices, h1_singular_values
from twonorm.cli import main
from twonorm.geometry import NormSpec, finsler_norm_stiefel
from twonorm.group import GroupElement, SkewOperator, frame_unitary
from twonorm.sampling import random_complex, random_reference, random_skew, random_stiefel, rng_for_trial
from twonorm.space import GridPair, h1_triangle, span_singular_values
from twonorm.stiefel import StiefelOperator


def _relative(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


def _disagreement(grid, dense, seed):
    """Relative differences of the grid pair's strong operators from those of the dense pair."""
    rng = rng_for_trial(seed, 0)
    n = grid.n
    F = random_complex(rng, n, 3)
    A = random_complex(rng, n, n)
    L, R, M = random_complex(rng, n, 2), random_complex(rng, n, 2), random_complex(rng, 2, 2)
    ref = random_reference(rng, grid, 1)
    U = frame_unitary(ref.Xi, random_stiefel(rng, ref, scale=0.4).Phi, grid)

    def span_sv(g):
        return span_singular_values(h1_triangle(L, g), h1_triangle(R, g, right=True), M)

    return {
        "h1": _relative(grid.h1(F), dense.h1(F)),
        "solve_h1": _relative(grid.solve_h1(F), dense.solve_h1(F)),
        "triangles": _relative(span_sv(grid), span_sv(dense)),
        "pencil_factor": _relative(grid.pencil_factor, dense.pencil_factor),
        "dense_singular_values": _relative(h1_singular_values(A, grid), h1_singular_values(A, dense)),
        "h1_norm": _relative(U.h1_norm, GroupElement(U.Q, U.B, dense).h1_norm),
    }


@settings(max_examples=25, deadline=None)
@given(
    # (d, m) with n = m^d at most 256.
    shape=st.one_of(st.tuples(st.just(1), st.integers(2, 256)), st.tuples(st.just(2), st.integers(2, 16))),
    spacing=st.floats(0.1, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_pair_agrees_with_the_dense_pair_of_its_matrices(shape, spacing, seed):
    d, m = shape
    grid = build_space(SpaceSpec(domain_dim=d, grid_points=m, spacing=spacing))
    assert isinstance(grid, GridPair)
    dense = gram_pair_from_matrices(grid.gl2, grid.gh1)
    errors = _disagreement(grid, dense, seed)
    assert max(errors.values()) <= 1e-12, errors


@pytest.mark.parametrize("d, m", [(1, 64), (2, 8)])
def test_a_mutated_symbol_is_caught(d, m):
    # A symbol off by 1% in its sines no longer matches the stencil's gh1.
    sin = np.sin
    with mock.patch.object(np, "sin", lambda x: 1.01 * sin(x)):
        grid = build_space(SpaceSpec(domain_dim=d, grid_points=m, spacing=0.3))
    errors = _disagreement(grid, gram_pair_from_matrices(grid.gl2, grid.gh1), 5)
    assert min(errors.values()) > 1e-6, errors


@pytest.mark.parametrize("d", [1, 2])
def test_two_point_grids_accumulate_both_neighbours(d):
    # With m = 2 the forward and backward neighbours are one point.
    g = build_space(SpaceSpec(domain_dim=d, grid_points=2, spacing=1.0))
    if d == 1:
        assert np.array_equal(g.gh1, [[3.0, -2.0], [-2.0, 3.0]])
    assert np.linalg.norm(g.h1(np.eye(g.n)) - g.gh1) <= 1e-14 * np.linalg.norm(g.gh1)
    assert np.linalg.norm(g.sqrt_h1 @ g.sqrt_h1 - g.gh1) <= 1e-14 * np.linalg.norm(g.gh1)
    assert g.pencil_factor == np.sqrt(1.0 + 4.0 * d)


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_a_symbol_that_underflows_or_overflows_is_rejected():
    # h^2 underflows to 0 at h = 1e-200, so the symbol is not finite, and w = h^d is 0 in 2D.
    for d in (1, 2):
        with pytest.raises(ValueError, match="grid symbol"):
            build_space(SpaceSpec(domain_dim=d, grid_points=4, spacing=1e-200))


def test_large_grids_build_no_dense_matrix(tmp_path, capsys, monkeypatch):
    # section-demo and geometry on n = 4096 read no Gram matrix or root, run no
    # n-sized eigendecomposition, and never hold an n-by-n array (268 MB in complex).
    n = 4096

    def refuse(*args, **kwargs):
        raise AssertionError("dense build on a grid pair")

    eigh = np.linalg.eigh

    def small_eigh(a, *args, **kwargs):
        return refuse() if n in np.shape(a) else eigh(a, *args, **kwargs)

    for name in ("gl2", "gh1", "_sqrt_pair_l2", "_sqrt_pair_h1"):
        monkeypatch.setattr(GridPair, name, property(refuse))
    monkeypatch.setattr(np.linalg, "eigh", small_eigh)
    config = tmp_path / "large.json"
    config.write_text(json.dumps({"space": {"grid_points": n, "spacing": 0.25}, "trials": 2}))
    tracemalloc.start()
    try:
        for command in ("section-demo", "geometry"):
            assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6  # an n-by-n float array alone is 134 MB
    capsys.readouterr()


def test_finsler_norm_on_a_large_grid_builds_no_dense_operator(monkeypatch):
    # Span generators at n = 4096: neither the Gram matrices nor the n-by-n
    # tangents X V and Y V are formed.
    def refuse(*args, **kwargs):
        raise AssertionError("dense n-by-n operator")

    g = build_space(SpaceSpec(domain_dim=1, grid_points=4096, spacing=0.25))
    rng = rng_for_trial(3, 0)
    V = random_stiefel(rng, random_reference(rng, g, 2), scale=0.4)
    X, Y = random_skew(rng, V.Phi, g), random_skew(rng, V.Phi, g)
    for name in ("gl2", "gh1", "_sqrt_pair_l2", "_sqrt_pair_h1"):
        monkeypatch.setattr(GridPair, name, property(refuse))
    monkeypatch.setattr(SkewOperator, "data", property(refuse))
    monkeypatch.setattr(StiefelOperator, "V", property(refuse))
    tracemalloc.start()
    try:
        values = [finsler_norm_stiefel(Z, V, NormSpec.schatten(2.0)) for Z in (X, Y)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(value) and value > 0 for value in values)
    assert peak < 4e6  # an n-by-n complex array is 268 MB


def test_sqrt_bench_on_a_large_grid_builds_no_dense_operator(tmp_path, capsys, monkeypatch):
    # The series runs on the k - N block of two frames at n = 4096, where an
    # n-by-n complex array is 268 MB: no Gram matrix or root is read, and the
    # campaign's traced peak stays far below one such array.
    def refuse(*args, **kwargs):
        raise AssertionError("dense Gram matrix or root on a grid pair")

    for name in ("gl2", "gh1", "_sqrt_pair_l2", "_sqrt_pair_h1"):
        monkeypatch.setattr(GridPair, name, property(refuse))
    config = tmp_path / "grid-64.json"
    config.write_text(json.dumps({"space": {"domain_dim": 2, "grid_points": 64, "spacing": 0.25}, "trials": 10}))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert main(["sqrt-bench", "--config", str(config), "--out", str(tmp_path)]) == 0
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert elapsed < 1.0
    assert peak < 16e6


def test_dense_strong_norms_and_sqrt_bench_read_no_dense_root(tmp_path, capsys, monkeypatch):
    # A dense operand's strong singular values come from the pair's strong
    # coordinates, by FFT on a grid, and agree with the dense pair's roots.
    def refuse(*args, **kwargs):
        raise AssertionError("dense Gram matrix or root on a grid pair")

    cases = []
    for d, m in ((1, 128), (2, 12)):
        grid = build_space(SpaceSpec(domain_dim=d, grid_points=m, spacing=0.25))
        A = random_complex(rng_for_trial(d, 0), grid.n, grid.n)
        dense = gram_pair_from_matrices(grid.gl2, grid.gh1)
        cases.append((grid, A, h1_singular_values(A, dense)))
    for name in ("gl2", "gh1", "_sqrt_pair_l2", "_sqrt_pair_h1"):
        monkeypatch.setattr(GridPair, name, property(refuse))
    for grid, A, expected in cases:
        assert _relative(h1_singular_values(A, grid), expected) <= 1e-13
    config = tmp_path / "series-2d.json"
    config.write_text(json.dumps({"space": {"domain_dim": 2, "grid_points": 12, "spacing": 0.25}, "trials": 10}))
    assert main(["sqrt-bench", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
