"""One benchmark child: set up twonorm, then run one campaign through its CLI.

    python3 child.py CONFIG COMMAND SEED OUTDIR MODE

MODE is ``plain``, ``traced`` (spans recorded by `spans.Tracer`) or ``setup``
(stop after set-up).  The parent puts the checkout's ``src`` on PYTHONPATH
and pins BLAS to one thread.  Two JSON lines go to stdout: ``ready``, with
the monotonic clock read once the space and its cached factorizations are
built and the environment read back after that, and ``done``.  The campaign's own console output goes to stderr.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import time

from spans import Tracer

# Exported thread-count getters of the OpenBLAS builds numpy and scipy ship.
_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> dict:
    """Thread count of every OpenBLAS copy mapped into this process, by file."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path):
                paths.add(path)
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        counts[os.path.basename(path)] = None
        for symbol in _THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[os.path.basename(path)] = getter()
                break
    return counts


def environment() -> dict:
    import numpy
    import scipy
    import twonorm

    def blas(config):
        entry = config["Build Dependencies"]["blas"]
        return {
            "name": entry.get("name"),
            "version": entry.get("version"),
            "config": entry.get("openblas configuration"),
        }

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
        "twonorm_file": twonorm.__file__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _emit(kind: str, payload: dict):
    print(json.dumps({kind: payload}), flush=True)


def main(argv) -> int:
    config, command, seed, outdir, mode = argv
    from twonorm import cli
    from twonorm.config import load_config
    from twonorm.space import build_space

    g = build_space(load_config(config).space)
    g.sqrt_h1, g.sqrt_l2, g.pencil_factor  # fill the cached factorizations
    ready = time.monotonic()
    _emit("ready", {"t": ready, "env": environment()})

    done = {}
    if mode != "setup":
        args = [command, "--config", config, "--seed", seed, "--out", outdir]
        tracer = Tracer()
        with contextlib.redirect_stdout(sys.stderr):
            with tracer if mode == "traced" else contextlib.nullcontext():
                start = time.perf_counter()
                done["exit"] = cli.main(args)
                done["campaign_s"] = time.perf_counter() - start
        if mode == "traced":
            done["layers"] = tracer.summary()
            done["exp_in_stiefel_near"] = tracer.nested_calls(
                "sampling.stiefel_near", "group.exp_skew"
            )
    done["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit("done", done)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
