"""The traced benchmark names every layer function and runner by its dotted path.

``campaign_bench/spans.py`` is loaded from its file, unedited; a rename in the
package then fails here instead of breaking a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from twonorm import cli

SPANS = Path(__file__).resolve().parents[1] / "campaign_bench" / "spans.py"


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
