"""Time to solution: the dt ladder, the run outputs and the correctness gate.

One solve goes from a workload's config text to an accepted final state.  It
tries ``dt = t_end / 2**k`` from coarse to fine and accepts the first rung
that the solver accepts (no ``CFLViolation`` or ``SolverDiverged``), that
meets the accuracy target ``workloads.ACCURACY`` against the reference, and
that passes the other checks: mass and divergence at round-off,
``records.csv`` read back and validated, every snapshot read back
bit-for-bit.  A rung the solver's
first-step check would refuse is screened out with the same public
``cfl_bound`` before anything is built for it, so it costs no lift build.
Time spent on rejected rungs counts.

The chns functions are called through their modules (``config.build_grid``,
not a name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chns import config, diagnostics, errors, ops, runio, solver

from tracing import no_span
from workloads import ACCURACY

# |mean(phi) - mean(phi0)|: a few hundred ulps of an O(1) field.  The
# conservative scheme keeps the drift near 1e-17.
MASS_TOL = 1e-13
# max|div u| relative to max|u| / h, the size of one difference quotient.
DIV_TOL = 1e-12


@dataclass
class Rung:
    k: int
    outcome: str                  # "accepted" or why the rung was rejected

    @property
    def accepted(self) -> bool:
        return self.outcome == "accepted"


@dataclass
class Solve:
    """One time-to-solution measurement; partial timings are kept on failure."""

    rungs: list = field(default_factory=list)
    time_to_solution_s: float = math.nan
    setup_s: float = math.nan     # accepted rung, else the last rung that set up
    dt: float = math.nan
    state: object = None          # final SimState of the accepted rung
    n_records: int = 0
    bytes_written: int = 0
    err_phi: float = math.nan
    err_u: float = math.nan
    mass_drift: float = math.nan
    div_max: float = math.nan

    @property
    def ok(self) -> bool:
        return any(r.accepted for r in self.rungs)

    def describe(self) -> str:
        return "; ".join(f"k={r.k}: {r.outcome}" for r in self.rungs)


def _rel_l2(pairs) -> float:
    """L2 distance of arrays to their references, relative to the references."""
    diff = math.sqrt(sum(np.sum((a - b) ** 2) for a, b in pairs))
    return diff / math.sqrt(sum(np.sum(b ** 2) for _, b in pairs))


def _snapshot_fields(state) -> dict:
    return {"phi": state.phi.values, "mu": state.mu.values, "p": state.p.values,
            "ux": state.u.ux, "uy": state.u.uy}


def _check(w, cfg, sim, phi0, records, csv_path, snapshots, ref, result) -> list:
    """Correctness gate of one rung; fills the error fields of ``result``."""
    st, grid = sim.state, sim.grid
    problems = []
    result.err_phi = _rel_l2([(st.phi.values, ref["phi"])])
    result.err_u = _rel_l2([(st.u.ux, ref["ux"]), (st.u.uy, ref["uy"])])
    if not (result.err_phi <= ACCURACY and result.err_u <= ACCURACY):
        problems.append(f"accuracy: rel. L2 error phi {result.err_phi:.3e}, "
                        f"u {result.err_u:.3e} > {ACCURACY}")
    if st.t != cfg.t_end:
        problems.append(f"final time {st.t!r} != t_end {cfg.t_end!r}")
    result.mass_drift = abs(st.phi.mean() - phi0.mean())
    if not result.mass_drift <= MASS_TOL:
        problems.append(f"mass drift {result.mass_drift:.3e} > {MASS_TOL}")
    result.div_max = float(np.abs(ops.divergence(st.u).values).max())
    div_scale = max(st.u.max_abs(), 1.0) / min(grid.dx, grid.dy)
    if not result.div_max <= DIV_TOL * div_scale:
        problems.append(f"max|div u| {result.div_max:.3e} > {DIV_TOL * div_scale:.3e}")

    try:
        columns = runio.read_records_csv(csv_path)
    except (errors.ChnsError, OSError, ValueError) as exc:
        return problems + [f"records.csv unreadable: {exc}"]
    problems += runio.validate_records(columns)
    table = np.array([columns[c] for c in diagnostics.CSV_COLUMNS]).T
    if not np.array_equal(table, np.array([r.as_row() for r in records]), equal_nan=True):
        problems.append("records.csv does not read back to the records written")
    if w.certify:
        report = diagnostics.energy_inequality_report(records, sim.data,
                                                      sim.cfg.viscosity.nu1)
        if not (math.isfinite(report["sup_K"]) and report["dissipation_finite"]):
            problems.append(f"energy inequality not certified: {report}")

    for paths, snap_state in snapshots:
        expected = _snapshot_fields(snap_state)
        for path in paths:
            try:
                meta, arr = runio.read_snapshot(path)
            except (errors.ChnsError, OSError, ValueError, KeyError) as exc:
                problems.append(f"{path.name} unreadable: {exc}")
                continue
            want = np.ascontiguousarray(expected[meta["field"]], dtype="<f8")
            if meta["t"] != snap_state.t or arr.tobytes() != want.tobytes():
                problems.append(f"{path.name} does not read back bit-for-bit")
    return problems


def _build_inputs(cfg):
    grid = config.build_grid(cfg)
    data = config.build_wall_data(cfg, grid)
    phi0 = config.build_initial_phi(cfg, grid)
    return grid, data, phi0, config.build_initial_u(cfg, grid, data)


def solve(w, seed: int, ref: dict, out_dir: Path, span=no_span) -> Solve:
    """Run the ladder once; ``out_dir`` receives one directory per rung run."""
    result = Solve()
    t0 = time.perf_counter()
    inputs = None
    for k in w.rungs:
        t_rung = time.perf_counter()
        carried_s = 0.0
        dt = w.dt(k)
        rung_dir = out_dir / f"k{k}"
        with span("bench.rung"):
            cfg = config.parse_config_text(w.ini(dt, seed, rung_dir), source=f"{w.name}:k{k}")
            if inputs is None:
                # grid, wall data, phi0 and u0 do not depend on dt: built once
                t_in = time.perf_counter()
                inputs = _build_inputs(cfg)
                inputs_s = time.perf_counter() - t_in
            else:
                carried_s = inputs_s
            grid, data, phi0, u0 = inputs
            scfg = config.build_solver_config(cfg)
            bound = solver.cfl_bound(scfg, grid, u0.max_abs())
            if scfg.dt > bound:
                result.rungs.append(Rung(k, f"cfl screen: dt > bound {bound:.4e}"))
                continue
            sim = solver.Simulation(grid, scfg, data, phi0, u0)
            with span("diagnostics.context"):
                if sim.ell is not None:
                    ctx = diagnostics.DiagnosticsContext.for_run(grid, scfg, data, lift=sim.ell)
                else:
                    # for_run would build a lift only for the limit field; the
                    # direct mode keeps the lifting layer out (res_u is NaN)
                    ctx = diagnostics.DiagnosticsContext(
                        data=data, potential=scfg.potential, viscosity=scfg.viscosity,
                        mode=scfg.mode)
            # this rung's parse, Simulation and context, plus the shared inputs
            result.setup_s = time.perf_counter() - t_rung + carried_s
            outcome = _run_rung(w, cfg, sim, ctx, phi0, ref, result, span)
        result.rungs.append(Rung(k, outcome))
        if outcome == "accepted":
            result.dt = dt
            result.state = sim.state
            break
    result.time_to_solution_s = time.perf_counter() - t0
    return result


def _run_rung(w, cfg, sim, ctx, phi0, ref, result, span) -> str:
    Path(cfg.directory).mkdir(parents=True, exist_ok=True)
    snapshots = []

    def snapshot(state, record):
        if state.t % cfg.snapshot_every == 0:
            paths = runio.snapshot_state(cfg.directory, state, len(snapshots))
            snapshots.append((paths, state))

    try:
        records = sim.run(observers=(snapshot,), diagnostics_context=ctx)
    except (errors.CFLViolation, errors.SolverDiverged) as exc:
        return f"{type(exc).__name__}: {exc}"
    csv_path = Path(cfg.directory) / "records.csv"
    runio.write_records_csv(csv_path, records)
    result.n_records = len(records)
    result.bytes_written += csv_path.stat().st_size + sum(
        p.stat().st_size for paths, _ in snapshots for p in paths)
    with span("bench.checks"):
        problems = _check(w, cfg, sim, phi0, records, csv_path, snapshots, ref, result)
    return "; ".join(problems) if problems else "accepted"
