"""Spans around the calls into each chns layer, made from the benchmark's side.

``Tracer`` wraps each traced name where its caller looks it up: a module
function is replaced in every chns module that binds it (so
``chns.solver.advect_velocity`` and the ``divergence`` that ``leray_project``
calls inside ``chns.ops`` are both covered), a method is replaced on its
class, and the ``sfft`` alias of ``chns.grid``, ``chns.ops`` and
``chns.lifting`` is replaced by a proxy whose functions are the ``fft``
layer.  Nothing under ``src/`` changes; leaving the ``with`` block restores
every original.

A span records its name, start, end and parent; spans stay in memory until
``write_spans``.  A span's self time is its duration minus the time its
child spans cover.  The wrappers only pass arguments and results through, so
a traced run computes bit-for-bit what an untraced one does.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.fft

from chns import (boundary, config, diagnostics, grid, lifting, ops, potential,
                  runio, solver)

CHNS_MODULES = (grid, ops, potential, boundary, lifting, solver, diagnostics,
                config, runio)
FFT_ALIAS_MODULES = (grid, ops, lifting)

# module function -> span name
FUNCTIONS = {
    (ops, "leray_project"): "ops.leray_project",
    (ops, "advect_velocity"): "ops.advect_velocity",
    (ops, "advect_scalar"): "ops.advect_scalar",
    (ops, "viscous_term"): "ops.viscous_term",
    (ops, "gradient"): "ops.stencils",
    (ops, "divergence"): "ops.stencils",
    (ops, "laplacian_neumann"): "ops.stencils",
    (ops, "vector_laplacian"): "ops.stencils",
    (ops, "interp_center_to_xface"): "ops.stencils",
    (ops, "interp_center_to_yface"): "ops.stencils",
    (potential, "eval_dF"): "potential.eval_dF",
    (solver, "ch_substep"): "solver.ch_substep",
    (solver, "ns_substep_direct"): "solver.ns_substep",
    (solver, "ns_substep_lifted"): "solver.ns_substep",
    (solver, "cfl_bound"): "solver.cfl",
    (diagnostics, "energy"): "diagnostics.energy",
    (diagnostics, "higher_order"): "diagnostics.higher_order",
    (runio, "write_records_csv"): "runio.write",
    (runio, "snapshot_state"): "runio.write",
    (config, "parse_config_text"): "config.build",
    (config, "build_grid"): "config.build",
    (config, "build_wall_data"): "config.build",
    (config, "build_initial_phi"): "config.build",
    (config, "build_initial_u"): "config.build",
    (config, "build_solver_config"): "config.build",
}

# class attribute -> span name
METHODS = {
    (grid.Grid, "to_spectral"): "grid.to_spectral",
    (grid.Grid, "from_spectral"): "grid.from_spectral",
    (grid.Grid, "solve_helmholtz_ux"): "grid.solve_helmholtz",
    (grid.Grid, "solve_helmholtz_uy"): "grid.solve_helmholtz",
    (grid.ScalarField, "__post_init__"): "grid.field_init",
    (grid.VectorField, "__post_init__"): "grid.field_init",
    (potential.ViscositySpec, "__call__"): "potential.viscosity",
    (solver.Simulation, "step"): "solver.step",
    # every stationary Stokes solve is one lift build: the unit elliptic lift
    # and, in the parabolic mode, the initial lift
    (lifting.StationaryStokes, "solve"): "lifting.build",
    (lifting.ParabolicLift, "step"): "lifting.parabolic_step",
    (lifting.EllipticLift, "at"): "lifting.rescale",
    (lifting.EllipticLift, "dt_at"): "lifting.rescale",
    (lifting.EllipticLift, "state_at"): "lifting.rescale",
    (lifting.EllipticLift, "limit_field"): "lifting.rescale",
}


class _FFTProxy:
    """Stands in for ``scipy.fft``; each function is wrapped on first use."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __getattr__(self, name):
        fn = self._tracer.wrap("fft", getattr(scipy.fft, name), self._tracer.count_fft_bytes)
        setattr(self, name, fn)
        return fn


class Tracer:
    """In-memory span recorder; use as ``with Tracer() as tr:``."""

    def __init__(self):
        self.spans = []                 # (id, parent id, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.fft_bytes = 0
        self.stokes_sweeps = 0
        self._stack = []                # [span id, child seconds]
        self._next_id = 0
        self._patched = []              # (owner, attribute, original)

    # -- spans -----------------------------------------------------------------

    def _enter(self) -> tuple:
        self._next_id += 1
        frame = [self._next_id, 0.0]
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append(frame)
        return frame, parent, time.perf_counter()

    def _exit(self, name: str, frame: list, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((frame[0], parent, name, start, end))
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur

    @contextmanager
    def span(self, name: str):
        frame, parent, start = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame, parent, start)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span; ``on_result(args, result)`` runs after the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent, start = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, parent, start)
            if on_result is not None:
                on_result(args, out)
            return out
        return traced

    def count_fft_bytes(self, args, out) -> None:
        # computed, not measured: bytes of the input plus the output
        self.fft_bytes += np.asarray(args[0]).nbytes + out.nbytes

    def count_sweeps(self, args, out) -> None:
        self.stokes_sweeps += out[2]["iterations"]

    # -- installing the wrappers ----------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        for (module, fname), span_name in FUNCTIONS.items():
            original = getattr(module, fname)
            wrapped = self.wrap(span_name, original)
            for mod in CHNS_MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        for (cls, attr), span_name in METHODS.items():
            on_result = self.count_sweeps if span_name == "lifting.build" else None
            self._patch(cls, attr, self.wrap(span_name, vars(cls)[attr], on_result))
        proxy = _FFTProxy(self)
        for mod in FFT_ALIAS_MODULES:
            self._patch(mod, "sfft", proxy)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r}\n")


@contextmanager
def no_span(name: str):
    yield


def layer_metrics(tr: Tracer, result) -> dict:
    """Per-layer metrics of one traced solve (``ladder.Solve``), failed or not."""
    steps = tr.calls["solver.step"]

    def per_step(name):
        return tr.calls[name] / max(steps, 1)

    m = {
        "fft.calls_per_step": per_step("fft"),
        "fft.self_s": tr.self_s["fft"],
        "fft.bytes_per_step": tr.fft_bytes / max(steps, 1),
    }
    for layer in ("to_spectral", "from_spectral", "solve_helmholtz", "field_init"):
        m[f"grid.{layer}.calls_per_step"] = per_step(f"grid.{layer}")
        m[f"grid.{layer}.self_s"] = tr.self_s[f"grid.{layer}"]
    m.update({
        "ops.leray_project.calls_per_step": per_step("ops.leray_project"),
        "ops.leray_project.self_s": tr.self_s["ops.leray_project"],
        "ops.advect_velocity.self_s": tr.self_s["ops.advect_velocity"],
        "ops.advect_scalar.self_s": tr.self_s["ops.advect_scalar"],
        "ops.viscous_term.calls_per_step": per_step("ops.viscous_term"),
        "ops.viscous_term.self_s": tr.self_s["ops.viscous_term"],
        "ops.stencils.self_s": tr.self_s["ops.stencils"],
        "potential.viscosity.self_s": tr.self_s["potential.viscosity"],
        "potential.eval_dF.self_s": tr.self_s["potential.eval_dF"],
        "solver.steps": steps,
        "solver.dt": result.dt,
        "solver.attempts": len(result.rungs),
        "solver.rejected": sum(1 for r in result.rungs if not r.accepted),
        "solver.step_ms": 1e3 * tr.total_s["solver.step"] / max(steps, 1),
        "solver.ch_substep.self_s": tr.self_s["solver.ch_substep"],
        "solver.ns_substep.self_s": tr.self_s["solver.ns_substep"],
        "solver.cfl.self_s": tr.self_s["solver.cfl"],
        "solver.err_phi": result.err_phi,
        "solver.err_u": result.err_u,
        "solver.mass_drift": result.mass_drift,
        "solver.div_max": result.div_max,
        "lifting.builds": tr.calls["lifting.build"],
        "lifting.build_s": tr.total_s["lifting.build"],
        "lifting.stokes_sweeps": tr.stokes_sweeps,
        "lifting.parabolic_step.self_s": tr.self_s["lifting.parabolic_step"],
        "lifting.rescale.self_s": tr.self_s["lifting.rescale"],
        "diagnostics.records": result.n_records,
        "diagnostics.energy.self_s": tr.self_s["diagnostics.energy"],
        "diagnostics.higher_order.self_s": tr.self_s["diagnostics.higher_order"],
        "diagnostics.context_s": tr.total_s["diagnostics.context"],
        "runio.bytes": result.bytes_written,
        "runio.write_s": tr.total_s["runio.write"],
        "config.build_s": tr.self_s["config.build"],
    })
    return m


# Per-layer metrics that count work; they must repeat exactly across runs.
COUNT_METRICS = (
    "fft.calls_per_step", "fft.bytes_per_step", "grid.to_spectral.calls_per_step",
    "grid.from_spectral.calls_per_step", "grid.solve_helmholtz.calls_per_step",
    "grid.field_init.calls_per_step", "ops.leray_project.calls_per_step",
    "ops.viscous_term.calls_per_step", "solver.steps", "solver.attempts",
    "solver.rejected", "lifting.builds", "lifting.stokes_sweeps",
    "diagnostics.records", "runio.bytes")
