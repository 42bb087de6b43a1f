"""Tests of the campaign benchmark itself.

    python3 -m pytest -q campaign_bench

Scratch files go under the checkout's ignored ``.bench_run`` directory.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import sys

import pytest

import run
from artifacts import (
    VALIDATE_SUITES,
    check_geometry,
    check_section_demo,
    check_sqrt_bench,
    check_validate,
)
from spans import Tracer

sys.path.insert(0, run.SRC)

TOL = run.TOLERANCES


@pytest.fixture
def workdir():
    path = os.path.join(run.WORK, f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path)
    if not os.listdir(run.WORK):
        os.rmdir(run.WORK)


def validate_json(residual="1.5e-12", drop=None) -> str:
    suites = [
        f'{{"suite": "{name}", "checks": 10, "max_residual": {residual if name == "geometry" else "1e-14"}, "passed": true}}'
        for name in VALIDATE_SUITES
        if name != drop
    ]
    return '{"seed": 42, "suites": [' + ", ".join(suites) + '], "all_passed": true}\n'


def section_csv(rows=40, bad=None) -> str:
    lines = ["delta,sigma_residual,membership_residual,bound_slack\n"]
    for i in range(rows):
        sigma = bad if i == 7 and bad is not None else "2.5e-15"
        lines.append(f"{1e-7 * (i + 1)},{sigma},1.2e-14,0.99\n")
    return "".join(lines)


def sqrt_csv(final="2.5e-13") -> str:
    rows = [(4, 0.5, 0.04), (8, 0.08, 0.008), (16, 0.005, 0.0006), (32, 5e-5, 7e-6), (64, 1.5e-8, 2e-9)]
    lines = ["s,tail_bound,max_error_vs_oracle\n"]
    lines += [f"{s},{b},{e}\n" for s, b, e in rows]
    lines.append(f"128,3.4e-15,{final}\n")
    return "".join(lines)


def geometry_csv(drop=None) -> str:
    lines = ["curve_id,spec,steps,length,distance_upper,sandwich_lhs,sandwich_mid,sandwich_rhs,sandwich_ok,log_status\n"]
    for curve, status in (("constant", "ok"), ("rotation", "ok"), ("pair", "ok"), ("far_pair", "log_unavailable")):
        if curve != drop:
            lines.append(f"{curve},schatten_2,64,0.1,0.1,0.1,0.2,0.3,1,{status}\n")
    return "".join(lines)


def test_clean_artifacts_pass():
    assert check_validate({"validate.json": validate_json()}, 10, TOL).failed == 0
    assert check_section_demo({"section_demo.csv": section_csv()}, 10, TOL).failed == 0
    assert check_sqrt_bench({"sqrt_bench.csv": sqrt_csv()}, 10, TOL).failed == 0
    assert check_geometry({"geometry.csv": geometry_csv()}, 10, TOL).failed == 0


def test_nan_residual_fails_even_when_the_suite_says_passed():
    counted = check_validate({"validate.json": validate_json(residual="NaN")}, 10, TOL)
    assert (counted.attempted, counted.failed) == (6, 1)
    assert counted.worst_residual == 1e-14
    assert counted.expected_exit == 1


def test_failed_suite_counts_as_failed_and_leaves_the_accuracy_residual():
    text = validate_json(residual="1.0").replace('1.0, "passed": true', '1.0, "passed": false')
    text = text.replace('"all_passed": true', '"all_passed": false')
    counted = check_validate({"validate.json": text}, 10, TOL)
    assert (counted.failed, counted.problems) == (1, [])
    assert counted.worst_residual == 1e-14
    assert run.accuracy_digits(counted.worst_residual) == 14.0
    assert run.accuracy_digits(math.nan) == 0.0


def test_nan_series_error_fails_its_row_and_the_final_check():
    counted = check_sqrt_bench({"sqrt_bench.csv": sqrt_csv(final="NaN")}, 10, TOL)
    assert (counted.attempted, counted.failed) == (7, 2)


def test_section_row_over_tolerance_fails():
    counted = check_section_demo({"section_demo.csv": section_csv(bad="2e-9")}, 10, TOL)
    assert (counted.attempted, counted.failed) == (40, 1)
    assert counted.worst_residual == 2e-9
    counted = check_section_demo({"section_demo.csv": section_csv(bad="NaN")}, 10, TOL)
    assert counted.failed == 1


def test_missing_rows_and_suites_fail_and_are_reported():
    counted = check_geometry({"geometry.csv": geometry_csv(drop="pair")}, 10, TOL)
    assert (counted.attempted, counted.failed) == (5, 1)
    assert counted.problems == ["curve pair missing"]
    counted = check_validate({"validate.json": validate_json(drop="geometry")}, 10, TOL)
    assert counted.failed == 1 and counted.problems == ["suite geometry missing"]
    counted = check_section_demo({"section_demo.csv": section_csv(rows=39)}, 10, TOL)
    assert counted.failed == 1 and counted.problems


def test_exit_code_must_agree_with_the_recount():
    workload = run.WORKLOADS["validate-1d"]
    nan = {"validate.json": validate_json(residual="NaN").encode()}
    checked = run.recount(workload, [run.Invocation("plain", exit=0, files=nan)])
    assert checked["failed"] == 1
    assert checked["problems"] == ["invocation 0: exit 0, recount expects 1"]
    good = {"validate.json": validate_json().encode()}
    checked = run.recount(workload, [run.Invocation("plain", exit=0, files=good)] * 2)
    assert checked["problems"] == [] and checked["attempted"] == 12


def test_crash_or_usage_error_fails_every_check():
    workload = run.WORKLOADS["sections-1d"]
    for exit_code in (None, 2):
        checked = run.recount(workload, [run.Invocation("plain", exit=exit_code)])
        assert checked["attempted"] == checked["failed"] == 40


def test_artifacts_must_be_byte_identical_within_a_run():
    workload = run.WORKLOADS["series-2d"]
    first = {"sqrt_bench.csv": sqrt_csv().encode()}
    second = {"sqrt_bench.csv": sqrt_csv(final="2.6e-13").encode()}
    checked = run.recount(
        workload, [run.Invocation("plain", exit=0, files=first), run.Invocation("traced", exit=0, files=second)]
    )
    assert checked["problems"] == ["invocation 1: artifacts differ from invocation 0"]


def test_held_out_seed_rule():
    assert not run.held_out_conflict(42, 10)
    assert run.held_out_conflict(43, 10)  # 43 ^ 42 == 1: the same streams, reordered
    assert not run.held_out_conflict(7, 10)


def test_metric_names_match_the_benchmark_file():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    emitted = {"end_to_end": run.END_TO_END, "per_layer": run.per_layer_units()}
    for section, units in emitted.items():
        listed = {m["name"]: m["unit"] for m in declared[section]}
        assert listed == units, section
        for name in units:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def _small_config(workdir, command):
    space = {"domain_dim": 1, "grid_points": 16, "spacing": 0.25}
    config = os.path.join(workdir, f"{command}.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"space": space, "subspace_dim": 2, "trials": 2, "tolerances": TOL}, fh)
    return config


def test_call_through_an_imported_name_is_a_span():
    from twonorm import campaigns, stiefel
    from twonorm.sampling import SETUP_TRIAL, random_reference, random_stiefel, rng_for_trial, stiefel_near
    from twonorm.space import SpaceSpec, build_space

    g = build_space(SpaceSpec(domain_dim=1, grid_points=16, spacing=0.25))
    rng = rng_for_trial(42, SETUP_TRIAL)
    V = random_stiefel(rng, random_reference(rng, g, 2), scale=0.4)
    V1, _ = stiefel_near(V, 1e-7, rng_for_trial(42, 0))
    original = campaigns.section_factors
    with Tracer() as tracer:
        assert campaigns.section_factors is not original
        campaigns.section_factors(V, V1)
    assert campaigns.section_factors is original and stiefel.section_factors is original
    summary = tracer.summary()
    assert summary["stiefel.section_factors"]["calls"] == 1
    assert [span[0] for span in tracer.spans].count("stiefel.section_factors") == 1


@pytest.mark.parametrize("command", ["validate", "section-demo", "sqrt-bench"])
def test_traced_and_untraced_artifacts_are_byte_identical(workdir, command, capsys):
    from twonorm import cli

    config = _small_config(workdir, command)
    plain_out, traced_out = os.path.join(workdir, "plain"), os.path.join(workdir, "traced")
    assert cli.main([command, "--config", config, "--out", plain_out]) == 0
    runner = cli._COMMANDS[command][0]
    with Tracer() as tracer:
        assert cli.main([command, "--config", config, "--out", traced_out]) == 0
    assert cli._COMMANDS[command][0] is runner
    summary = tracer.summary()
    assert sum(summary[name]["calls"] for name in run.CAMPAIGN_RUNNERS) == 1
    assert summary["serialize.write_text"]["calls"] == 1
    assert run.read_files(plain_out) == run.read_files(traced_out)
