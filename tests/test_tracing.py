"""The benchmark's tracer (perfbench/tracing.py) wraps chns names by lookup.

A chns name that the tracer wraps and that is deleted or renamed fails here,
in the quick test run, and not only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_enters_and_leaves():
    tracing = load_tracing()
    with tracing.Tracer():      # a wrapped name that is gone raises here
        assert hasattr(tracing.solver.Simulation.step, "__wrapped__")
    # leaving restores every original, which functools.wraps would have marked
    for module, name in tracing.FUNCTIONS:
        assert not hasattr(getattr(module, name), "__wrapped__"), name
    for cls, attr in tracing.METHODS:
        assert not hasattr(vars(cls)[attr], "__wrapped__"), attr
