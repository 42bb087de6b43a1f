"""Span tracing of twonorm's layer functions, installed from outside the package.

`Tracer` replaces each listed function by a wrapper that records one span per
call: name, start, end, parent span and the name of any exception raised.  A
function is rebound everywhere it is reachable by name, because modules copy
functions with ``from .x import f``: the wrapper goes into every loaded
``twonorm`` module whose namespace holds the original object, and the
campaign runners are also replaced inside the ``_COMMANDS`` table of
``twonorm.cli``.  Nothing inside the package is edited; leaving the ``with``
block restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "twonorm"

# Layer functions whose calls and self time the traced run reports, as
# "<module>.<function>" under the twonorm package.
LAYER_FUNCTIONS = (
    "space.build_space",
    "space.h1_operator_norm",
    "space.adjoint_l2",
    "group.exp_skew",
    "group.frame_unitary",
    "group.membership_residual",
    "stiefel.section_factors",
    "stiefel.radius_r",
    "stiefel.sqrt_F",
    "stiefel.binomial_sqrt_truncated",
    "grassmann.psi_section",
    "grassmann.section_pi_p",
    "grassmann.grassmann_equivalence",
    "geometry.distance_upper",
    "geometry.group_log",
    "geometry.exp_curve",
    "geometry.curve_length",
    "geometry.schatten_norm",
    "sampling.stiefel_near",
    "sampling.projection_near",
    "sampling.random_skew",
    "oracles.sqrt_eig",
    "serialize.write_text",
)

# Campaign runners: the root span of every traced campaign call.  Their self
# time is the campaign's own work outside all listed layers.
CAMPAIGN_RUNNERS = (
    "campaigns.run_validate",
    "campaigns.run_section_demo",
    "campaigns.run_sqrt_bench",
    "campaigns.run_geometry",
)

TRACED = LAYER_FUNCTIONS + CAMPAIGN_RUNNERS

# Span fields.
NAME, START, END, PARENT, ERROR = range(5)


class Tracer:
    """Records spans of the listed twonorm functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        # Import everything first: a module imported while the wrappers are
        # installed would copy them and keep them after __exit__.
        table = importlib.import_module(f"{PACKAGE}.cli")._COMMANDS
        wrappers = {}
        for name in TRACED:
            module_name, attr = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            wrappers[id(original)] = (original, self._wrap(name, original))
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for command, entry in list(table.items()):
            hit = wrappers.get(id(entry[0]))
            if hit is not None and hit[0] is entry[0]:
                self._restore.append((table, command, entry))
                table[command] = (hit[1],) + tuple(entry[1:])
        return self

    def __exit__(self, *exc_info):
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()
        return False

    def summary(self) -> dict:
        """Per-name calls and self time, plus the exceptions raised.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        out = {name: {"calls": 0, "self_s": 0.0, "raised": {}} for name in TRACED}
        for span in self.spans:
            if span[END] is None:
                continue
            duration = span[END] - span[START]
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += duration
            if span[PARENT] is not None:
                out[self.spans[span[PARENT]][NAME]]["self_s"] -= duration
            if span[ERROR] is not None:
                entry["raised"][span[ERROR]] = entry["raised"].get(span[ERROR], 0) + 1
        return out

    def nested_calls(self, outer: str, inner: str) -> int:
        """Calls of `inner` made while a call of `outer` is on the stack."""
        count = 0
        for span in self.spans:
            if span[NAME] != inner:
                continue
            parent = span[PARENT]
            while parent is not None:
                if self.spans[parent][NAME] == outer:
                    count += 1
                    break
                parent = self.spans[parent][PARENT]
        return count
