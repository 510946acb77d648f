"""The benchmark's tracer wraps library functions by name.

``perfbench/tracing.py`` lists each wrapped function as a (module, attribute)
pair in ``SPANS`` and ``COUNTERS``, and ``tracing.install`` raises on a name
that no longer resolves, which would break every traced benchmark run. These
tests read that list without changing it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from motiongraph import search

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module_name, attr",
    sorted({entry[:2] for entry in tracing.SPANS + tracing.COUNTERS}),
    ids=lambda v: v,
)
def test_wrapped_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_expand_segment_takes_the_config_fifth():
    # The tracer's expansion observer reads the BeamConfig as args[4].
    params = list(inspect.signature(search.expand_segment).parameters)
    assert params[4] == "config"
