"""Campaign benchmark: run twonorm's CLI campaigns in fresh child processes.

    python3 campaign_bench/run.py --workload validate-1d --seed 42 --seconds 30 --trace 0

Run from the root of a checkout; the children import the checkout's ``src``.
Each invocation is one child (see child.py) that sets up the package and
runs one campaign through ``twonorm.cli.main``.  Children start one after
another until ``--seconds`` have passed; the last one runs to its end.  Every
artifact is recounted from outside (artifacts.py) and byte-compared with the
run's first one.  The last stdout line is the JSON result; earlier lines
starting with ``#`` record the environment and sample counts.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import count, cycle

from artifacts import CHECKERS
from spans import CAMPAIGN_RUNNERS, LAYER_FUNCTIONS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")

DEFAULT_SEED = 42
# The package's default tolerances, written into every campaign config so the
# recount and the campaign compare against the same numbers.
TOLERANCES = {
    "membership": 1e-10,
    "section": 1e-9,
    "sqrt": 1e-8,
    "equivalence": 1e-8,
    "geometry": 1e-6,
}
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    command: str
    space: dict
    trials: int
    subspace_dim: int = 2


GRID_1D = {"domain_dim": 1, "grid_points": 128, "spacing": 0.25}
GRID_2D = {"domain_dim": 2, "grid_points": 12, "spacing": 0.25}
WORKLOADS = {
    "validate-1d": Workload("validate", GRID_1D, trials=10),
    "sections-1d": Workload("section-demo", GRID_1D, trials=10),
    "series-2d": Workload("sqrt-bench", GRID_2D, trials=10),
}

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}
RATIOS = {
    "sampling.stiefel_near.exp_per_call": "ratio",
    "geometry.distance_upper.log_unavailable_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["campaigns.self_s"] = "s"
    units.update(RATIOS)
    return units


class Refused(Exception):
    """The run cannot be reported: wrong environment or unusable input."""


@dataclass
class Invocation:
    mode: str
    setup_s: float | None = None
    campaign_s: float | None = None
    exit: int | None = None
    peak_rss_mb: float | None = None
    env: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    exp_in_stiefel_near: int = 0
    files: dict = field(default_factory=dict)
    stderr: str = ""


def held_out_conflict(seed: int, trials: int) -> bool:
    """True when `seed` replays the default seed's trial streams.

    Trial streams are keyed by ``seed ^ trial``, so trial t of `seed` draws
    the stream of trial ``t ^ seed ^ 42`` of seed 42.  If ``seed ^ 42 <
    trials``, trial 0 already replays one of seed 42's trials; seed 43
    replays all of them in another order.
    """
    return seed != DEFAULT_SEED and (seed ^ DEFAULT_SEED) < trials


def git_commit(root: str) -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def read_files(directory: str) -> dict:
    files = {}
    if os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as fh:
                files[name] = fh.read()
    return files


def run_child(config: str, workload: Workload, seed: int, outdir: str, mode: str) -> Invocation:
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED)
    argv = [sys.executable, os.path.join(HERE, "child.py"), config, workload.command, str(seed), outdir, mode]
    inv = Invocation(mode)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        stdout, inv.stderr, returncode = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stdout = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        inv.stderr, returncode = f"child timed out after {CHILD_TIMEOUT_S} s", None
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        message = json.loads(line)
        if "ready" in message:
            inv.setup_s = message["ready"]["t"] - start
            inv.env = message["ready"]["env"]
        elif "done" in message and returncode == 0:
            done = message["done"]
            inv.peak_rss_mb = done["peak_rss_kb"] / 1024.0
            inv.exit = done.get("exit")
            inv.campaign_s = done.get("campaign_s")
            inv.layers = done.get("layers", {})
            inv.exp_in_stiefel_near = done.get("exp_in_stiefel_near", 0)
    inv.files = read_files(outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    return inv


def check_environment(inv: Invocation):
    """Refuse to report unless BLAS ran on one thread and src was imported."""
    if not inv.env:
        raise Refused(f"child reported no environment:\n{inv.stderr}")
    threads = inv.env["blas_threads"]
    if not threads or any(count != 1 for count in threads.values()):
        raise Refused(f"BLAS thread counts are not all 1: {threads}")
    imported = os.path.realpath(inv.env["twonorm_file"])
    if not imported.startswith(os.path.realpath(SRC) + os.sep):
        raise Refused(f"twonorm imported from {imported}, not from {SRC}")


def tail_percentile(samples: list) -> tuple | None:
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if len(samples) * (1 - p / 100) >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def accuracy_digits(worst: float) -> float:
    """-log10 of the worst residual; 0 digits when it is NaN or at least 1."""
    if not worst < 1.0:
        return 0.0
    return -math.log10(max(worst, 1e-300))


def recount(workload: Workload, invocations: list) -> dict:
    """Attempted and failed check verdicts, consistency and accuracy."""
    checker = CHECKERS[workload.command]
    attempted = failed = 0
    problems = []
    worst = math.nan
    for index, inv in enumerate(invocations):
        text = {name: data.decode("utf-8", "replace") for name, data in inv.files.items()}
        if inv.exit not in (0, 1) or (inv.exit == 1 and not text):
            # Crash, timeout, usage error (exit 2) or no artifact: every check fails.
            counted = checker({}, workload.trials, TOLERANCES)
            attempted += counted.attempted
            failed += counted.attempted
            continue
        counted = checker(text, workload.trials, TOLERANCES)
        attempted += counted.attempted
        failed += counted.failed
        if index == 0 or math.isnan(worst):
            worst = counted.worst_residual
        problems += [f"invocation {index}: {p}" for p in counted.problems]
        if inv.exit != counted.expected_exit:
            problems.append(
                f"invocation {index}: exit {inv.exit}, recount expects {counted.expected_exit}"
            )
    for index, inv in enumerate(invocations[1:], start=1):
        if inv.files != invocations[0].files:
            problems.append(f"invocation {index}: artifacts differ from invocation 0")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "accuracy_digits": accuracy_digits(worst),
    }


def layer_metrics(traced: list, plain_campaign_s: float) -> dict:
    def median_of(name, key):
        return statistics.median(inv.layers[name][key] for inv in traced)

    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = median_of(name, "calls")
        metrics[f"{name}.self_s"] = median_of(name, "self_s")
    metrics["campaigns.self_s"] = statistics.median(
        sum(inv.layers[name]["self_s"] for name in CAMPAIGN_RUNNERS) for inv in traced
    )
    near_calls = metrics["sampling.stiefel_near.calls"]
    metrics["sampling.stiefel_near.exp_per_call"] = (
        statistics.median(inv.exp_in_stiefel_near for inv in traced) / near_calls
        if near_calls
        else 0.0
    )
    upper_calls = metrics["geometry.distance_upper.calls"]
    unavailable = statistics.median(
        inv.layers["geometry.distance_upper"]["raised"].get("LogUnavailable", 0) for inv in traced
    )
    metrics["geometry.distance_upper.log_unavailable_ratio"] = (
        unavailable / upper_calls if upper_calls else 0.0
    )
    traced_s = statistics.median(inv.campaign_s for inv in traced)
    metrics["trace.overhead_ratio"] = traced_s / plain_campaign_s
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    workload = WORKLOADS[name]
    config = os.path.join(workdir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "space": workload.space,
                "subspace_dim": workload.subspace_dim,
                "trials": workload.trials,
                "tolerances": TOLERANCES,
            },
            fh,
        )

    outdirs = (os.path.join(workdir, f"out{i}") for i in count())

    def child(mode: str) -> Invocation:
        inv = run_child(config, workload, seed, next(outdirs), mode)
        if inv.setup_s is None:
            raise Refused(f"child failed during set-up:\n{inv.stderr}")
        check_environment(inv)
        return inv

    modes = cycle(["plain", "traced"] if trace else ["plain"])
    deadline = time.monotonic() + seconds
    invocations = []
    while len(invocations) < (2 if trace else 1) or time.monotonic() < deadline:
        invocations.append(child(next(modes)))
    setups = [inv.setup_s for inv in invocations]
    while len(setups) < MIN_SETUPS:
        setups.append(child("setup").setup_s)

    checked = recount(workload, invocations)
    timed = {
        mode: [inv.campaign_s for inv in invocations if inv.mode == mode and inv.campaign_s is not None]
        for mode in ("plain", "traced")
    }
    if not timed["plain"] or (trace and not timed["traced"]):
        raise Refused("no campaign call completed, so there is no time to report")
    plain = [inv for inv in invocations if inv.mode == "plain" and inv.campaign_s is not None]
    campaign_s = statistics.median(timed["plain"])
    if trace:
        traced = [inv for inv in invocations if inv.mode == "traced" and inv.layers]
        metrics = layer_metrics(traced, campaign_s)
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "campaign_s": campaign_s,
            "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in plain),
            "accuracy_digits": checked["accuracy_digits"],
        }
        units = END_TO_END
    info = {
        "workload": name,
        "command": workload.command,
        "seed": seed,
        "setup_s": setups,
        "campaign_s": {
            mode: {
                "median": statistics.median(t),
                "samples": len(t),
                "tail": tail_percentile(t),
                "all": t,
            }
            for mode, t in timed.items()
            if t
        },
        "exits": [inv.exit for inv in invocations],
        "problems": checked["problems"],
    }
    return {
        "info": info,
        "env": dict(invocations[0].env, git_commit=git_commit(ROOT)),
        "result": {
            "correct": not checked["problems"],
            "attempted": checked["attempted"],
            "failed": checked["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twonorm", "__init__.py")):
        print(f"run.py: no twonorm package under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("run.py: --seed must fit in 64 bits", file=sys.stderr)
        return 2
    trials = WORKLOADS[args.workload].trials
    if held_out_conflict(args.seed, trials):
        print(
            f"run.py: seed {args.seed} replays seed {DEFAULT_SEED}'s trial streams"
            f" ({args.seed} ^ {DEFAULT_SEED} < {trials} trials); choose another seed",
            file=sys.stderr,
        )
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Refused as exc:
        print(f"run.py: refused: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print("# env " + json.dumps(report["env"], sort_keys=True))
    print("# run " + json.dumps(report["info"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
