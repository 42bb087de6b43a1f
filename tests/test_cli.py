import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from twonorm import ConvergenceFailure, GroupElement, NormSpec, SpaceSpec, build_space, cli
from twonorm.basis import orthonormal_columns
from twonorm import campaigns, config, group, stiefel, validate
from twonorm.cli import main
from twonorm.config import (
    DEFAULT_TOLERANCES,
    RunConfig,
    config_from_mapping,
    load_config,
    load_frame_matrix,
)
from twonorm.sampling import _calibrated_scale, random_complex, rng_for_trial
from twonorm.serialize import matrix_to_json


def write_config(tmp_path, name="cfg.json", **entries):
    p = tmp_path / name
    p.write_text(json.dumps(entries))
    return str(p)


def orthonormal_frame_payload(cols=2):
    g = build_space(SpaceSpec(domain_dim=1, grid_points=16, spacing=0.25))
    F = orthonormal_columns(random_complex(rng_for_trial(3, 3), g.n, cols), g)
    return matrix_to_json(F)


# -- configuration ----------------------------------------------------------


def test_default_config_tolerances():
    cfg = RunConfig()
    for key, value in DEFAULT_TOLERANCES.items():
        assert cfg.tolerance(key) == value
    with pytest.raises(KeyError):
        cfg.tolerance("unheard_of")


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        RunConfig(seed=-1)
    with pytest.raises(ValueError):
        RunConfig(seed=2**64)
    with pytest.raises(ValueError):
        RunConfig(subspace_dim=0)
    with pytest.raises(ValueError):
        RunConfig(subspace_dim=99)
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(tolerances={"unknown": 0.5})
    with pytest.raises(ValueError):
        RunConfig(tolerances={"sqrt": 2.0})


@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"], ids=["float", "integral-float", "bool", "string"])
@pytest.mark.parametrize("key", ["seed", "subspace_dim", "trials"])
def test_config_integer_fields_reject_non_integers(key, value):
    # Checked by the constructor itself, as on the JSON path.
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        RunConfig(**{key: value})


def test_a_config_naming_boundary_is_a_usage_error(tmp_path, capsys):
    # Every grid is periodic; boundary was a key with one legal value and is now unknown.
    cfg = write_config(tmp_path, space={"grid_points": 4, "boundary": "periodic"}, trials=1)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "unknown space keys: ['boundary']" in capsys.readouterr().err


def test_mapping_rejects_unknown_keys():
    with pytest.raises(ValueError):
        config_from_mapping({"sede": 1})
    with pytest.raises(ValueError):
        config_from_mapping({"space": {"grid_pts": 8}})
    with pytest.raises(ValueError):
        config_from_mapping([])


def test_mapping_parses_norms():
    assert config_from_mapping({"norm": "operator_h1"}).norm.label == "operator_h1"
    assert (
        config_from_mapping({"norm": {"kind": "schatten_p", "p": 1}}).norm.label
        == "schatten_1"
    )
    # p = inf is the operator norm, whichever way it is spelled.
    assert (
        config_from_mapping({"norm": {"kind": "schatten_p", "p": "inf"}}).norm.label
        == "operator_h1"
    )
    assert config_from_mapping({"norm": {"kind": "operator_h1"}}).norm == NormSpec.operator()
    with pytest.raises(ValueError):
        config_from_mapping({"norm": {"kind": "nuclear"}})
    with pytest.raises(ValueError):
        config_from_mapping({"norm": {"kind": "operator_h1", "p": 2}})


def test_load_config_round_trip(tmp_path):
    path = write_config(
        tmp_path,
        seed=7,
        trials=5,
        space={"grid_points": 8, "spacing": 0.5},
        tolerances={"sqrt": 1e-9},
    )
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.trials == 5
    assert cfg.space.grid_points == 8
    assert cfg.tolerance("sqrt") == 1e-9
    # Untouched keys keep their defaults.
    assert cfg.tolerance("section") == DEFAULT_TOLERANCES["section"]


@pytest.mark.parametrize("value", [1.7, 2.0, True, "3"], ids=["float", "integral-float", "bool", "string"])
@pytest.mark.parametrize("key", ["seed", "subspace_dim", "trials", "domain_dim", "grid_points"])
def test_integer_fields_reject_non_integers(tmp_path, capsys, key, value):
    # A small space and one trial keep the run short should the value be accepted.
    entries = {"space": {"grid_points": 4}, "trials": 1}
    if key in ("domain_dim", "grid_points"):
        entries["space"][key] = value
    else:
        entries[key] = value
    cfg = write_config(tmp_path, **entries)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entries",
    [
        {"space": {"grid_points": 4, "spacing": "0.25"}},
        {"space": {"grid_points": 4, "spacing": True}},
        {"space": {"grid_points": 4}, "tolerances": {"section": "1e-9"}},
        {"space": {"grid_points": 4}, "norm": {"kind": "schatten_p", "p": True}},
    ],
    ids=["string-spacing", "bool-spacing", "string-tolerance", "bool-p"],
)
def test_number_fields_reject_strings_and_booleans(tmp_path, capsys, entries):
    # One trial on a small space keeps the run short should the value be accepted.
    cfg = write_config(tmp_path, trials=1, **entries)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "must be a number" in capsys.readouterr().err


HUGE = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "entries",
    [
        {"space": {"grid_points": 4, "spacing": HUGE}},
        {"space": {"grid_points": 4}, "tolerances": {"section": HUGE}},
        {"space": {"grid_points": 4}, "norm": {"kind": "schatten_p", "p": HUGE}},
        {"frame": [HUGE, 0]},
    ],
    ids=["spacing", "tolerance", "p", "frame-entry"],
)
def test_integers_beyond_the_float_range_are_configuration_errors(tmp_path, capsys, entries):
    if "frame" in entries:
        payload = orthonormal_frame_payload()
        payload[1][0] = entries.pop("frame")
        frame = tmp_path / "frame.json"
        frame.write_text(json.dumps(payload))
        entries["frame_file"] = str(frame)
    cfg = write_config(tmp_path, trials=1, **entries)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


def test_a_frame_too_large_for_its_gram_matrix_is_rejected_without_warnings(tmp_path, capsys):
    # Entries of 1e200 overflow F^H gl2 F; under the RuntimeWarning filter a warning fails this test.
    payload = orthonormal_frame_payload()
    payload[0][0], payload[1][1] = [1e200, 0.0], [-1e200, 1e200]
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(payload))
    cfg = write_config(tmp_path, trials=1, frame_file=str(frame))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "frame file columns are not orthonormal" in capsys.readouterr().err


def test_load_config_bad_files(tmp_path):
    with pytest.raises(ValueError):
        load_config(str(tmp_path / "absent.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ValueError):
        load_config(str(broken))


def test_frame_file_validation(tmp_path):
    good = tmp_path / "frame.json"
    good.write_text(json.dumps(orthonormal_frame_payload()))
    cfg = load_config(write_config(tmp_path, frame_file=str(good)))
    F = load_frame_matrix(cfg)
    assert F.shape == (16, 2)

    skewed = tmp_path / "skewed.json"
    skewed.write_text(json.dumps(matrix_to_json(np.ones((16, 2)))))
    with pytest.raises(ValueError):
        load_config(write_config(tmp_path, name="cfg2.json", frame_file=str(skewed)))

    wrong_shape = tmp_path / "narrow.json"
    wrong_shape.write_text(json.dumps(orthonormal_frame_payload(cols=3)))
    with pytest.raises(ValueError):
        load_config(write_config(tmp_path, name="cfg3.json", frame_file=str(wrong_shape)))


# -- command line -----------------------------------------------------------


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_validate_writes_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["validate", "--trials", "2", "--out", str(out)]) == 0
    report = json.loads((out / "validate.json").read_text())
    assert report["all_passed"] is True
    assert report["trials"] == 2
    assert {s["suite"] for s in report["suites"]} >= {"space", "group", "section"}
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(report["suites"])


@pytest.mark.parametrize(
    "command,artifact",
    [
        ("validate", "validate.json"),
        ("section-demo", "section_demo.csv"),
        ("sqrt-bench", "sqrt_bench.csv"),
        ("geometry", "geometry.csv"),
    ],
)
def test_double_runs_are_byte_identical(tmp_path, capsys, command, artifact):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([command, "--trials", "2", "--out", str(a)]) == 0
    assert main([command, "--trials", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / artifact).read_bytes() == (b / artifact).read_bytes()


def _is_float_cell(cell):
    """Integer and label cells are not floats; every other number is."""
    for parse, wanted in ((int, False), (float, True)):
        try:
            parse(cell)
            return wanted
        except ValueError:
            pass
    return False


@pytest.mark.parametrize(
    "command,artifact",
    [("section-demo", "section_demo.csv"), ("sqrt-bench", "sqrt_bench.csv"), ("geometry", "geometry.csv")],
)
def test_csv_floats_are_shortest_round_trip_reprs(tmp_path, capsys, command, artifact):
    assert main([command, "--trials", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    _, *rows = (tmp_path / artifact).read_text().splitlines()
    floats = [cell for row in rows for cell in row.split(",") if _is_float_cell(cell)]
    assert len(floats) >= 2 * len(rows)
    assert [cell for cell in floats if cell != repr(float(cell))] == []


def test_validate_report_is_standard_json_with_shortest_floats(tmp_path, capsys):
    assert main(["validate", "--trials", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "validate.json").read_text()
    floats = []
    payload = json.loads(text, parse_float=lambda s: floats.append(s) or float(s))
    assert text == json.dumps(payload, indent=2) + "\n"
    assert len(floats) > len(payload["suites"])
    assert [s for s in floats if s != repr(float(s))] == []


@pytest.mark.parametrize("command", ["section-demo", "geometry", "sqrt-bench"])
def test_campaign_base_point_leaves_the_reference_subspace(tmp_path, capsys, monkeypatch, command):
    # The base point's random block is drawn after the reference on one setup
    # stream. Drawn from a second copy of that stream, it would repeat the
    # reference's candidates, and exp(X) would only rotate inside span Xi.
    # Every campaign draws it through validate._setup_point.
    drawn, draw = [], validate.random_stiefel

    def recording(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(validate, "random_stiefel", recording)
    assert main([command, "--trials", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    (V,) = drawn
    outside = V.Phi - V.ref.Xi @ (V.ref.dual.conj().T @ V.Phi)
    assert np.linalg.norm(outside) > 1e-3 * np.linalg.norm(V.Phi)


def test_seed_changes_section_table(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["section-demo", "--trials", "2", "--out", str(a), "--seed", "1"]) == 0
    assert main(["section-demo", "--trials", "2", "--out", str(b), "--seed", "2"]) == 0
    capsys.readouterr()
    assert (a / "section_demo.csv").read_bytes() != (b / "section_demo.csv").read_bytes()


def test_section_demo_checks_sigma_in_span_form(tmp_path, capsys, monkeypatch):
    # sigma is checked through its displacement and its validated block, so
    # neither its dense operator nor a dense membership residual is formed.
    def refuse(*_):
        raise AssertionError("dense n-by-n group element")

    monkeypatch.setattr(group, "membership_residual", refuse)
    monkeypatch.setattr(GroupElement, "data", property(refuse))
    assert main(["section-demo", "--trials", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_frame_file_reference_is_used(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(orthonormal_frame_payload()))
    cfg = write_config(tmp_path, trials=2, frame_file=str(frame))
    out = tmp_path / "run"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()


def test_validate_draws_no_reference_with_a_frame_file(tmp_path, capsys, monkeypatch):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(orthonormal_frame_payload()))
    plain, framed = tmp_path / "plain", tmp_path / "framed"
    assert main(["validate", "--trials", "2", "--out", str(plain)]) == 0

    def no_draw(*args, **kwargs):
        raise AssertionError("the frame file should replace the sampled reference")

    monkeypatch.setattr(validate, "random_reference", no_draw)
    cfg = write_config(tmp_path, trials=2, frame_file=str(frame))
    assert main(["validate", "--config", cfg, "--out", str(framed)]) == 0
    capsys.readouterr()
    assert (framed / "validate.json").read_bytes() != (plain / "validate.json").read_bytes()


def test_non_orthonormal_frame_exits_two(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(matrix_to_json(np.ones((16, 2)))))
    cfg = write_config(tmp_path, frame_file=str(frame))
    assert main(["validate", "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [[True, False], [float("nan"), 0.0], [float("inf"), 0.0], [0.0, float("-inf")]],
    ids=["bool", "nan", "inf", "minus-inf"],
)
def test_frame_entries_must_be_finite_numbers(tmp_path, capsys, entry):
    # json reads true as an int and the NaN and Infinity tokens as floats.
    payload = orthonormal_frame_payload()
    payload[1][0] = entry
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(payload))
    cfg = write_config(tmp_path, trials=1, frame_file=str(frame))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "frame entries must be finite [re, im] pairs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "section-demo", "geometry", "sqrt-bench"])
def test_a_nan_frame_fails_the_orthonormality_gate(tmp_path, capsys, monkeypatch, command):
    # With a reader that lets NaN through, the frame reaches the weak
    # orthonormality gate, which must reject it rather than pass it on.
    def lenient(obj, name):
        return np.array([[complex(*cell) for cell in row] for row in obj])

    monkeypatch.setattr(config, "matrix_from_json", lenient)
    payload = orthonormal_frame_payload()
    payload[1][0] = [float("nan"), 0.0]
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(payload))
    cfg = write_config(tmp_path, trials=1, frame_file=str(frame))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "frame file columns are not orthonormal" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "section-demo", "geometry", "sqrt-bench"])
def test_vanishing_draws_are_a_named_numerical_failure(tmp_path, capsys, command):
    # At spacing 1e-30 a draw has weak norms near 1e-15, below the drop tolerance
    # of the Gram-Schmidt completion, so the reference sample is rank deficient.
    cfg = write_config(tmp_path, space={"grid_points": 16, "spacing": 1e-30}, trials=1)
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "RankDeficiency: sampled columns were linearly dependent" in err
    assert "configuration error" not in err
    assert (out / "validate.json").exists() == (command == "validate")


@pytest.mark.parametrize("command", ["validate", "section-demo", "geometry", "sqrt-bench"])
def test_a_frame_file_is_checked_early_and_builds_the_configured_pair_at_most_twice(
    tmp_path, capsys, monkeypatch, command
):
    # load_config checks the file on one pair before any campaign work; the
    # campaign checks it again on the pair it runs with, which it builds once.
    # The only other build is the space suite's fixed two-point stencil check.
    built = []

    def counted(spec):
        built.append(spec)
        return build_space(spec)

    for module in (config, validate, campaigns):
        monkeypatch.setattr(module, "build_space", counted)
    for name, payload, message in (
        ("skewed", matrix_to_json(np.ones((16, 2))), "frame file columns are not orthonormal for the weak product"),
        ("narrow", orthonormal_frame_payload(cols=3), r"frame file has shape \(16, 3\), expected \(16, 2\)"),
    ):
        frame = tmp_path / f"{name}.json"
        frame.write_text(json.dumps(payload))
        out = tmp_path / name
        cfg = write_config(tmp_path, name=f"{name}-cfg.json", frame_file=str(frame))
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and re.search(message, err)
        assert not out.exists()
    built.clear()
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(orthonormal_frame_payload()))
    cfg = write_config(tmp_path, trials=2, frame_file=str(frame))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    configured = SpaceSpec(domain_dim=1, grid_points=16, spacing=0.25)
    assert built.count(configured) <= 2
    assert [spec.n for spec in built if spec != configured] == ([2] if command == "validate" else [])


def test_unattainable_tolerance_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=2, tolerances={"sqrt": 1e-18})
    out = tmp_path / "run"
    assert main(["sqrt-bench", "--config", cfg, "--out", str(out)]) == 1
    assert "exceeds the sqrt tolerance 1.0e-18" in capsys.readouterr().err


def test_sqrt_bench_names_the_failing_term_counts(tmp_path, capsys, monkeypatch):
    # With c_5 off by 1e-3 every partial sum of five or more terms misses the
    # root by about 1e-3 rho^5; each count whose error then exceeds its tail
    # bound plus the 1e-12 roundoff floor is named with its error, bound and excess.
    exact = stiefel.binomial_coefficients

    def mutated(count):
        c = exact(count)
        c[4:5] += 1e-3
        return c

    monkeypatch.setattr(stiefel, "binomial_coefficients", mutated)
    out = tmp_path / "run"
    assert main(["sqrt-bench", "--config", write_config(tmp_path, trials=10), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    _, *rows = (out / "sqrt_bench.csv").read_text().splitlines()
    failing = [(int(s), float(b), float(e)) for s, b, e in (row.split(",") for row in rows) if float(e) > float(b) + 1e-12]
    assert [s for s, _, _ in failing] == [32, 64, 128]
    assert err.startswith("".join(
        f"sqrt-bench: {s} terms: error {e:.3e} exceeds bound {b:.3e} + 1e-12 by {e - b - 1e-12:.3e}\n"
        for s, b, e in failing
    ))
    assert "exceeds the sqrt tolerance" in err


@pytest.mark.parametrize("N, code", [(15, 0), (16, 1)])
def test_sqrt_bench_places_the_angles_on_the_complement_the_frame_allows(tmp_path, capsys, N, code):
    # At 2N > n a complement of the base frame has n - N columns, which carry
    # the angles; a frame of width n has none, a named numerical failure.
    cfg = write_config(tmp_path, subspace_dim=N, trials=3)
    assert main(["sqrt-bench", "--config", cfg, "--out", str(tmp_path / "run")]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("twonorm: NeighborhoodViolation: ") and "no weak complement" in err
    else:
        assert err == ""


def test_calibration_stall_exits_one(tmp_path, capsys, monkeypatch):
    # A calibration stall is a numerical failure, named, not a configuration error.
    def runner(cfg):
        _calibrated_scale(lambda s: 0.505, 0.5)
        return 0

    monkeypatch.setitem(cli._COMMANDS, "validate", (runner, "probe"))
    assert main(["validate", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "ConvergenceFailure" in err
    assert "configuration error" not in err


def test_an_allocation_failure_exits_one_on_one_line(tmp_path, capsys, monkeypatch):
    # A campaign too large for memory is a named failure, not a traceback.
    def runner(cfg):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape (1000000, 1000000)")

    monkeypatch.setitem(cli._COMMANDS, "validate", (runner, "probe"))
    assert main(["validate", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err == "twonorm: MemoryError: Unable to allocate 14.6 TiB for an array with shape (1000000, 1000000)\n"


def test_nearly_full_subspace_validates(tmp_path, capsys):
    # N = 15 of n = 16 puts the safe radius near 5e-10; the perturbations
    # still calibrate and every suite passes.
    cfg = write_config(tmp_path, subspace_dim=15, trials=2)
    out = tmp_path / "run"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "validate.json").read_text())
    assert [s["suite"] for s in report["suites"]] == list(validate.SUITE_NAMES)
    assert all(s["passed"] for s in report["suites"])


@pytest.mark.parametrize("command", ["section-demo", "geometry"])
def test_unresolvable_radius_exits_one(tmp_path, capsys, command):
    # At spacing 1e-3 the safe radius (about 1e-21) is far below what a
    # perturbation of a point of strong norm about 200 can resolve.
    cfg = write_config(tmp_path, space={"spacing": 1e-3}, trials=1)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "NeighborhoodViolation" in err
    assert "configuration error" not in err


def test_membership_defect_exits_one(tmp_path, capsys, monkeypatch):
    # A validated value that misses its defining identity is a numerical
    # defect, named on stderr, not a configuration error.
    def runner(cfg):
        g = build_space(cfg.space)
        GroupElement(g.isqrt_l2, np.eye(g.n), g)  # the k = n element 2 I
        return 0

    monkeypatch.setitem(cli._COMMANDS, "validate", (runner, "probe"))
    assert main(["validate", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "MembershipDefect" in err
    assert "configuration error" not in err


def test_a_frame_moved_off_orthonormality_fails_its_suite(tmp_path, capsys, monkeypatch):
    # A direct rotation off by 1e-8 on its diagonal passes CONSTRUCT_TOL, but the
    # range frame it moves misses FRAME_TOL: the grassmann suite fails, exit 1.
    built = validate.section_pi_p

    def skewed(P, P1):
        T = built(P, P1)
        return GroupElement(T.Q, T.B + 1e-8 * np.eye(len(T.B)), T.g)

    monkeypatch.setattr(validate, "section_pi_p", skewed)
    out = tmp_path / "run"
    assert main(["validate", "--config", write_config(tmp_path, trials=2), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "grassmann: MembershipDefect: range frame is not orthonormal" in err
    assert "configuration error" not in err
    suites = json.loads((out / "validate.json").read_text())["suites"]
    assert [s["suite"] for s in suites if not s["passed"]] == ["grassmann"]


def test_validate_writes_report_when_a_suite_raises(tmp_path, capsys):
    # At spacing 1e-3 the section suite's perturbation target is below
    # resolution; that suite is recorded as failed and the others still run.
    cfg = write_config(tmp_path, space={"spacing": 1e-3}, trials=2)
    out = tmp_path / "run"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    assert "section: NeighborhoodViolation" in capsys.readouterr().err
    report = json.loads((out / "validate.json").read_text())
    suites = {s["suite"]: s for s in report["suites"]}
    assert list(suites) == ["space", "group", "section", "sqrt", "grassmann", "geometry"]
    assert suites["section"]["passed"] is False
    assert suites["section"]["max_residual"] != suites["section"]["max_residual"]  # NaN
    assert report["all_passed"] is False


def test_validate_records_a_raising_log_and_writes_report(tmp_path, capsys, monkeypatch):
    # A package error inside the geometry suite fails that suite, not the run.
    # The principal logarithm is defined on the whole group, so it is made to raise here.
    def refuse(U):
        raise ConvergenceFailure("probe")

    monkeypatch.setattr(validate, "group_log", refuse)
    cfg = write_config(tmp_path, subspace_dim=1, space={"grid_points": 2}, trials=10)
    out = tmp_path / "run"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    capsys.readouterr()
    report = json.loads((out / "validate.json").read_text())
    suites = {s["suite"]: s for s in report["suites"]}
    assert report["all_passed"] is False
    assert suites["geometry"]["passed"] is False
    assert set(suites) == {"space", "group", "section", "sqrt", "grassmann", "geometry"}


def test_cli_import_loads_no_scipy():
    # scipy serves only the Pade oracles of the tests; the runtime is numpy-only.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, twonorm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point(tmp_path):
    out = tmp_path / "run"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "twonorm", "validate", "--trials", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "validate.json").exists()
