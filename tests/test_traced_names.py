"""The benchmark reaches the package only through names that still resolve.

``campaign_bench/spans.py`` names every layer function and runner by its
dotted path, and ``campaign_bench/child.py`` reads cached factorizations off a
``build_space`` pair.  Both are read from their files, unedited; a rename in
the package then fails here instead of breaking a benchmark run.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from twonorm import SpaceSpec, build_space, cli

SPANS = Path(__file__).resolve().parents[1] / "campaign_bench" / "spans.py"
CHILD = SPANS.with_name("child.py")


def _spans():
    spec = importlib.util.spec_from_file_location("campaign_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(spans, name):
    module_name, attr = name.rsplit(".", 1)
    return getattr(importlib.import_module(f"{spans.PACKAGE}.{module_name}"), attr, None)


def test_every_traced_name_is_a_package_callable():
    spans = _spans()
    missing = [name for name in spans.TRACED if not callable(_resolve(spans, name))]
    assert missing == []


def test_every_campaign_runner_is_a_command():
    spans = _spans()
    runners = [entry[0] for entry in cli._COMMANDS.values()]
    assert all(_resolve(spans, name) in runners for name in spans.CAMPAIGN_RUNNERS)


@pytest.mark.parametrize("d, m", [(1, 128), (2, 12)], ids=["1d-128", "2d-12x12"])
def test_the_benchmark_child_reads_what_a_grid_pair_answers(d, m):
    # The child fills g.sqrt_h1, g.sqrt_l2 and g.pencil_factor before its clock starts.
    names = set(re.findall(r"\bg\.(\w+)", CHILD.read_text()))
    assert {"sqrt_h1", "sqrt_l2", "pencil_factor"} <= names
    g = build_space(SpaceSpec(domain_dim=d, grid_points=m, spacing=0.25))
    for name in names:
        getattr(g, name)
    assert np.linalg.norm(g.sqrt_h1 @ g.sqrt_h1 - g.gh1) <= 1e-13 * np.linalg.norm(g.gh1)
    assert np.array_equal(g.sqrt_l2 @ g.sqrt_l2, g.gl2)
    assert g.pencil_factor == pytest.approx(np.sqrt(1.0 + 4.0 * d / 0.25**2), rel=1e-14)
