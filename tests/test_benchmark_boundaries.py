"""The benchmark's traced boundaries exist in this checkout.

perfbench/tracing.py names the functions it wraps by module and attribute;
a boundary that goes missing drops its metrics from a traced run.  The
module is imported read-only: Tracer.install() is never called here,
since it rewraps the loaded modules' globals.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        yield importlib.import_module("tracing")


def test_every_traced_boundary_resolves_to_a_callable(tracing):
    assert len(tracing.BOUNDARIES) == 19
    missing = [
        name for name, (module, attr) in tracing.BOUNDARIES.items()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
