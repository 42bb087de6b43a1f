"""Recount a campaign's check verdicts from the artifact it wrote.

Each checker reads one campaign's artifact, independently of the package,
and returns a `Recount`: how many verdicts it expected, how many failed, the
worst residual the artifact reports, and any structural problem.  Every
comparison is written as ``value <= limit``, so a NaN fails it.  A verdict
whose row or suite is missing counts as failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

VALIDATE_SUITES = ("space", "group", "section", "sqrt", "grassmann", "geometry")
SECTION_FRACTIONS = 4  # graded distances per trial in section-demo
SQRT_TERMS = (4, 8, 16, 32, 64, 128)
# sqrt-bench allows summation and oracle roundoff above the tail bound.
SQRT_ROUNDOFF = 1e-12
GEOMETRY_CURVES = ("constant", "rotation", "pair", "far_pair")


@dataclass
class Recount:
    attempted: int
    failed: int
    worst_residual: float = math.nan
    problems: list = field(default_factory=list)

    @property
    def expected_exit(self) -> int:
        return 0 if self.failed == 0 else 1


def _number(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _rows(text: str, header: list) -> tuple[list, list]:
    reader = csv.reader(io.StringIO(text))
    got = next(reader, None)
    if got != header:
        return [], [f"header {got!r}, expected {header!r}"]
    return [row for row in reader], []


def _worst(values) -> float:
    """Largest value, NaN if any value is NaN (max() would drop it)."""
    values = list(values)
    if not values or any(math.isnan(v) for v in values):
        return math.nan
    return max(values)


def check_validate(files: dict, trials: int, tolerances: dict) -> Recount:
    """One verdict per suite of validate.json.

    The per-check limits live inside the suites, so a suite's verdict is its
    own pass flag, refused when its residual is not a finite number.  The
    worst residual is taken over passing suites only: a failed boolean check
    is recorded as a residual of exactly 1, which measures no accuracy, and a
    failed suite is already counted as failed.
    """
    expected = len(VALIDATE_SUITES)
    try:
        payload = json.loads(files["validate.json"])
        suites = {s["suite"]: s for s in payload["suites"]}
    except (KeyError, TypeError, ValueError) as exc:
        return Recount(expected, expected, problems=[f"validate.json unreadable: {exc!r}"])
    failed = 0
    problems = []
    residuals = []
    for name in VALIDATE_SUITES:
        suite = suites.get(name)
        if suite is None:
            failed += 1
            problems.append(f"suite {name} missing")
            continue
        residual = _number(suite.get("max_residual"))
        ok = suite.get("passed") is True and math.isfinite(residual) and suite.get("checks", 0) >= 1
        if ok:
            residuals.append(residual)
        failed += not ok
    extra = set(suites) - set(VALIDATE_SUITES)
    if extra:
        problems.append(f"unexpected suites {sorted(extra)}")
    if payload.get("all_passed") is not all(s.get("passed") is True for s in suites.values()):
        problems.append("all_passed disagrees with the suites")
    return Recount(expected, failed, _worst(residuals), problems)


def check_section_demo(files: dict, trials: int, tolerances: dict) -> Recount:
    """One verdict per section row: both residuals within the section tolerance."""
    expected = trials * SECTION_FRACTIONS
    tol = tolerances["section"]
    header = ["delta", "sigma_residual", "membership_residual", "bound_slack"]
    if "section_demo.csv" not in files:
        return Recount(expected, expected, problems=["section_demo.csv missing"])
    rows, problems = _rows(files["section_demo.csv"], header)
    residuals = []
    passed = 0
    for row in rows[:expected]:
        if len(row) != len(header):
            problems.append(f"row {row!r} has {len(row)} fields")
            continue
        sigma, member = _number(row[1]), _number(row[2])
        residuals += [sigma, member]
        passed += sigma <= tol and member <= tol
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    return Recount(expected, expected - passed, _worst(residuals), problems)


def check_sqrt_bench(files: dict, trials: int, tolerances: dict) -> Recount:
    """One verdict per term count (error within tail bound plus roundoff),
    and one for the final error against the sqrt tolerance."""
    expected = len(SQRT_TERMS) + 1
    header = ["s", "tail_bound", "max_error_vs_oracle"]
    if "sqrt_bench.csv" not in files:
        return Recount(expected, expected, problems=["sqrt_bench.csv missing"])
    rows, problems = _rows(files["sqrt_bench.csv"], header)
    by_terms = {}
    for row in rows:
        if len(row) == len(header):
            by_terms[row[0]] = (_number(row[1]), _number(row[2]))
        else:
            problems.append(f"row {row!r} has {len(row)} fields")
    if [row[0] for row in rows] != [str(s) for s in SQRT_TERMS]:
        problems.append(f"term counts {[row[0] for row in rows]}, expected {list(SQRT_TERMS)}")
    passed = 0
    for s in SQRT_TERMS:
        bound, error = by_terms.get(str(s), (math.nan, math.nan))
        passed += error <= bound + SQRT_ROUNDOFF
    final = by_terms.get(str(SQRT_TERMS[-1]), (math.nan, math.nan))[1]
    passed += final <= tolerances["sqrt"]
    return Recount(expected, expected - passed, final, problems)


def check_geometry(files: dict, trials: int, tolerances: dict) -> Recount:
    """One verdict per curve (norm sandwich holds) and one for the far pair,
    whose logarithm must be reported unavailable."""
    expected = len(GEOMETRY_CURVES) + 1
    header = [
        "curve_id", "spec", "steps", "length", "distance_upper",
        "sandwich_lhs", "sandwich_mid", "sandwich_rhs", "sandwich_ok", "log_status",
    ]
    if "geometry.csv" not in files:
        return Recount(expected, expected, problems=["geometry.csv missing"])
    rows, problems = _rows(files["geometry.csv"], header)
    curves = {row[0]: row for row in rows if len(row) == len(header)}
    passed = 0
    for curve in GEOMETRY_CURVES:
        row = curves.get(curve)
        if row is None:
            problems.append(f"curve {curve} missing")
            continue
        passed += row[8] == "1"
    far = curves.get("far_pair")
    passed += far is not None and far[9] == "log_unavailable"
    return Recount(expected, expected - passed, problems=problems)


CHECKERS = {
    "validate": check_validate,
    "section-demo": check_section_demo,
    "sqrt-bench": check_sqrt_bench,
    "geometry": check_geometry,
}
