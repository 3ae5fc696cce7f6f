"""The benchmark's tracer (perfbench/tracing.py) wraps chns names by lookup.

A chns name that the tracer wraps and that is deleted or renamed fails here,
in the quick test run, and not only when the benchmark runs.  The tracer also
counts the work of one certified record here, so a record that projects or
inverts a transform again fails the quick test run too.
"""

import importlib.util
from pathlib import Path

import numpy as np

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


def test_parabolic_record_work(monkeypatch):
    """One certified record projects nothing, inverts no transform and runs one Laplacian."""
    from chns import diagnostics
    from chns.boundary import Amplitude, WallData, wall_profile
    from chns.grid import Grid, ScalarField, VectorField
    from chns.potential import ViscositySpec
    from chns.solver import Simulation, SolverConfig

    grid = Grid(32, 32)
    data = WallData(grid, wall_profile(grid, "single_mode"), wall_profile(grid, "uniform", 0.5),
                    Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=2.0))
    cfg = SolverConfig(dt=1e-3, t_end=2e-3, mode="lifted_parabolic",
                       viscosity=ViscositySpec(nu1=0.8, nu2=1.2, kind="constant", value=1.0))
    phi0 = ScalarField.from_function(grid, lambda x, y: 0.3 * np.cos(2 * np.pi * x) + 0.1)
    sim = Simulation(grid, cfg, data, phi0, VectorField.zeros(grid))
    sim.step()
    ctx = diagnostics.DiagnosticsContext.for_run(grid, cfg, data, lift=sim.ell)

    laplacians = []
    original = diagnostics.laplacian_neumann

    def counted(s):
        laplacians.append(s)
        return original(s)

    # installed before the tracer, which then leaves this binding alone
    monkeypatch.setattr(diagnostics, "laplacian_neumann", counted)
    tracing = load_tracing()
    with tracing.Tracer() as tr:
        rec = diagnostics.energy(sim.state, ctx)
    assert np.isfinite(rec.B) and rec.B > 0.0
    assert tr.calls["diagnostics.higher_order"] == 1
    assert tr.calls["ops.leray_project"] == 0
    assert tr.calls["grid.from_spectral"] == 0
    assert len(laplacians) == 1          # the one of res_phi
