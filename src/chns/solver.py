"""Coupled time integrator for the two-phase channel flow system.

One step advances the concentration first (stabilized semi-implicit step,
one transform-diagonalized fourth-order solve, advected by the lagged
velocity) and then the momentum equation (projection step with the
constant-coefficient part implicit and everything else explicit).

Modes:
  direct            march the physical velocity; tangential wall data enters
                    the implicit solve through ghost rows.
  lifted_elliptic   march ubar = u - u_e with homogeneous walls; the
                    stationary lift u_e carries the data and contributes the
                    explicit interaction terms and a -d/dt u_e force.
  lifted_parabolic  march ubar = u - u_p against the evolutionary lift; the
                    lift force enters with coefficient 1/2 because the
                    momentum operator is the symmetric-stress divergence
                    while the lift equation uses the full Laplacian (the
                    constant-viscosity half of Lap(u_p) is d/dt u_p plus a
                    pressure gradient, and only the gradient part is
                    annihilated by the projection).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .boundary import WallData, check_compatibility
from .errors import CFLViolation, InvariantViolation, SolverDiverged
from .grid import Grid, ScalarField, VectorField
from .lifting import EllipticLift, LiftState, ParabolicLift
from .ops import (advect_scalar, advect_velocity, gradient, h1,
                  interp_center_to_xface, interp_center_to_yface,
                  laplacian_neumann, leray_project, spectral_truncate,
                  viscous_term)
from .potential import PotentialSpec, ViscositySpec, eval_dF

MODES = ("direct", "lifted_elliptic", "lifted_parabolic")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    mode: str = "direct"
    stabilization: float = 2.0
    cfl_safety: float = 0.4
    record_every: float = 0.01
    force_form: str = "mu_grad_phi"         # or "phi_grad_mu"
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    viscosity: ViscositySpec = field(default_factory=ViscositySpec)
    galerkin_cutoff: tuple[int, int] | None = None
    compat_tol: float = 1e-8

    def __post_init__(self):
        if self.dt <= 0:
            raise InvariantViolation("dt must be positive")
        if self.t_end < 0:
            raise InvariantViolation("t_end must be nonnegative")
        if self.stabilization < 0:
            raise InvariantViolation("stabilization must be nonnegative")
        if self.mode not in MODES:
            raise InvariantViolation(f"unknown mode {self.mode!r}")
        if self.force_form not in ("mu_grad_phi", "phi_grad_mu"):
            raise InvariantViolation(f"unknown force form {self.force_form!r}")


@dataclass(frozen=True)
class SimState:
    """Simulation snapshot; in lifted modes u is the reconstructed total field."""

    t: float
    u: VectorField
    phi: ScalarField
    mu: ScalarField
    p: ScalarField
    ubar: VectorField | None = None
    lift: LiftState | None = None

    def velocity_for_energy(self) -> VectorField:
        return self.ubar if self.ubar is not None else self.u


@dataclass(frozen=True)
class Forcing:
    """Optional body forces (manufactured-solution runs)."""

    phi: object = None      # callable(grid, t) -> ScalarField
    u: object = None        # callable(grid, t) -> VectorField


# ---------------------------------------------------------------------------
# substeps
# ---------------------------------------------------------------------------

def initial_mu(phi: ScalarField, potential: PotentialSpec) -> ScalarField:
    """Scheme-consistent chemical potential at t = 0 (no stabilization lag)."""
    fp = ScalarField(eval_dF(phi.values), phi.grid)
    return ScalarField(-laplacian_neumann(phi).values + fp.values, phi.grid)


def ch_substep(phi: ScalarField, advecting: VectorField, dt: float,
               stabilization: float, potential: PotentialSpec,
               f_phi: ScalarField | None = None) -> tuple[ScalarField, ScalarField]:
    """Advance the concentration by one stabilized semi-implicit step.

    Solves (phi+ - phi)/dt + div(v phi) = Lap(mu+) + f with
    mu+ = -Lap(phi+) + F'(phi) + S (phi+ - phi) through a single
    transform-diagonalized solve; the cell mean of phi is conserved exactly
    when f = 0 (conservative advection, no-flux walls).
    """
    g = phi.grid
    s = stabilization
    adv = advect_scalar(advecting, phi)
    fp = eval_dF(phi.values)

    rhs = phi.values / dt - adv.values
    if f_phi is not None:
        rhs = rhs + f_phi.values
    lam = g.lam_neumann
    rhs_hat = g.to_spectral(rhs) + lam * g.to_spectral(fp) - s * lam * g.to_spectral(phi.values)
    phi_hat = rhs_hat / (1.0 / dt + lam * lam - s * lam)
    phi_new = ScalarField(g.from_spectral(phi_hat), g)
    if not phi_new.is_finite():
        raise SolverDiverged("concentration update produced non-finite values")
    mu_new = ScalarField(-laplacian_neumann(phi_new).values + fp
                         + s * (phi_new.values - phi.values), g)
    return phi_new, mu_new


def capillary_force(phi: ScalarField, mu: ScalarField, form: str) -> VectorField:
    """Phase coupling force on the faces: mu grad(phi), or phi grad(mu)."""
    g = phi.grid
    if form == "mu_grad_phi":
        coeff, grad_of = mu, phi
    else:
        coeff, grad_of = phi, mu
    gr = gradient(grad_of)
    fx = interp_center_to_xface(coeff.values) * gr.ux
    fy = np.zeros((g.nx, g.ny + 1))
    fy[:, 1:-1] = interp_center_to_yface(coeff.values) * gr.uy[:, 1:-1]
    return VectorField(fx, fy, g)


def _viscous_excess(nu_minus_nu1: np.ndarray, v: VectorField,
                    gb: np.ndarray, gt: np.ndarray) -> VectorField:
    """div((nu - nu1) * sym grad v): the explicitly treated viscous remainder."""
    g = v.grid
    floor = nu_minus_nu1.min()
    # the operator is linear in the coefficient; shift into positive range
    # so the public operator's positivity contract stays intact
    shift = max(2.0 * -floor, 1.0) if floor <= 0.0 else 0.0
    if shift:
        shifted = viscous_term(ScalarField(nu_minus_nu1 + shift, g), v,
                               wall_bottom=gb, wall_top=gt)
        base = viscous_term(ScalarField(np.full_like(nu_minus_nu1, shift), g), v,
                            wall_bottom=gb, wall_top=gt)
        return shifted - base
    return viscous_term(ScalarField(nu_minus_nu1, g), v, wall_bottom=gb, wall_top=gt)


def _implicit_velocity_solve(rhs: VectorField, dt: float, nu1: float,
                             hb: np.ndarray | None, ht: np.ndarray | None) -> VectorField:
    """Solve (I - dt*(nu1/2)*Lap) u = rhs with tangential data (hb, ht)."""
    g = rhs.grid
    coeff = dt * 0.5 * nu1
    rx = rhs.ux
    if hb is not None:
        rx = rx.copy()
        rx[:, 0] += coeff * 2.0 * hb / g.dy**2
        rx[:, -1] += coeff * 2.0 * ht / g.dy**2
    ux = g.solve_helmholtz_ux(rx, coeff)
    uy = np.zeros((g.nx, g.ny + 1))
    uy[:, 1:-1] = g.solve_helmholtz_uy(rhs.uy[:, 1:-1], coeff)
    return VectorField(ux, uy, g)


def ns_substep_direct(u: VectorField, phi_new: ScalarField, mu_new: ScalarField,
                      data: WallData, t_old: float, dt: float, cfg: SolverConfig,
                      f_u: VectorField | None = None) -> tuple[VectorField, ScalarField]:
    """One projection step of the momentum equation with physical wall data."""
    nu1 = cfg.viscosity.nu1
    hb0, ht0 = data.eval_wall(t_old)
    hb1, ht1 = data.eval_wall(t_old + dt)
    nu_minus = cfg.viscosity(phi_new.values) - nu1

    expl = capillary_force(phi_new, mu_new, cfg.force_form) \
        - advect_velocity(u, u) \
        + _viscous_excess(nu_minus, u, hb0, ht0)
    if f_u is not None:
        expl = expl + f_u
    u_star = _implicit_velocity_solve(u + dt * expl, dt, nu1, hb1, ht1)
    u_new, q = leray_project(u_star)
    if not u_new.is_finite():
        raise SolverDiverged("momentum update produced non-finite values")
    return u_new, (1.0 / dt) * q


def ns_substep_lifted(ubar: VectorField, u_lift_old: VectorField,
                      dlift_dt: VectorField, lift_coeff: float,
                      phi_new: ScalarField, mu_new: ScalarField,
                      data: WallData, t_old: float, dt: float, cfg: SolverConfig,
                      f_u: VectorField | None = None) -> tuple[VectorField, ScalarField]:
    """Projection step for the homogeneous-wall field ubar.

    The advective and variable-viscosity terms act on the reconstructed
    total field (all lift interactions explicit); the lift time derivative
    enters the force with the given coefficient.
    """
    nu1 = cfg.viscosity.nu1
    hb0, ht0 = data.eval_wall(t_old)
    w = ubar + u_lift_old
    nu_minus = cfg.viscosity(phi_new.values) - nu1

    expl = capillary_force(phi_new, mu_new, cfg.force_form) \
        - advect_velocity(w, w) \
        + _viscous_excess(nu_minus, w, hb0, ht0) \
        - lift_coeff * dlift_dt
    if f_u is not None:
        expl = expl + f_u
    u_star = _implicit_velocity_solve(ubar + dt * expl, dt, nu1, None, None)
    ubar_new, q = leray_project(u_star)
    if not ubar_new.is_finite():
        raise SolverDiverged("lifted momentum update produced non-finite values")
    return ubar_new, (1.0 / dt) * q


def cfl_bound(cfg: SolverConfig, grid: Grid, umax: float) -> float:
    h = min(grid.dx, grid.dy)
    nu_spread = cfg.viscosity.nu2 - cfg.viscosity.nu1
    bound = math.inf
    if nu_spread > 0:
        bound = h * h / nu_spread
    if umax > 0:
        bound = min(bound, h / umax)
    return cfg.cfl_safety * bound


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

class Simulation:
    """Owns the persistent lift machinery and advances a SimState."""

    def __init__(self, grid: Grid, cfg: SolverConfig, data: WallData,
                 phi0: ScalarField, u0: VectorField, forcing: Forcing | None = None):
        self.grid = grid
        self.cfg = cfg
        self.data = data
        self.forcing = forcing or Forcing()
        self.compatible = check_compatibility(u0, data, tol=cfg.compat_tol)
        if not self.compatible:
            warnings.warn("initial velocity trace does not match the wall data at t=0",
                          stacklevel=2)

        self.ell: EllipticLift | None = None
        self.par: ParabolicLift | None = None
        phi_init = phi0
        if cfg.galerkin_cutoff is not None:
            phi_init = spectral_truncate(phi0, *cfg.galerkin_cutoff)
        mu0 = initial_mu(phi_init, cfg.potential)

        if cfg.mode == "direct":
            self.state = SimState(0.0, u0, phi_init, mu0, ScalarField.zeros(grid))
        else:
            self.ell = EllipticLift(grid, cfg.viscosity.nu1, data)
            if cfg.mode == "lifted_parabolic":
                self.par = ParabolicLift(self.ell, u0=u0, compat_tol=cfg.compat_tol)
                lift0 = self.par.state()
                ubar0 = u0 - self.par.u_p
            else:
                lift0 = self.ell.state_at(0.0)
                ubar0 = u0 - lift0.u_e
            self.state = SimState(0.0, u0, phi_init, mu0, ScalarField.zeros(grid),
                                  ubar=ubar0, lift=lift0)

    def _check_cfl(self):
        umax = self.state.u.max_abs()
        bound = cfl_bound(self.cfg, self.grid, umax)
        if self.cfg.dt > bound:
            raise CFLViolation(
                f"dt = {self.cfg.dt:.3e} exceeds the stability bound {bound:.3e} "
                f"(|u|_max = {umax:.3e})")

    def step(self) -> SimState:
        cfg, st = self.cfg, self.state
        dt = cfg.dt
        self._check_cfl()
        t_new = st.t + dt
        f_phi = self.forcing.phi(self.grid, t_new) if self.forcing.phi else None
        f_u = self.forcing.u(self.grid, t_new) if self.forcing.u else None

        phi_new, mu_new = ch_substep(st.phi, st.u, dt, cfg.stabilization,
                                     cfg.potential, f_phi)
        if cfg.galerkin_cutoff is not None:
            phi_new = spectral_truncate(phi_new, *cfg.galerkin_cutoff)
            mu_new = spectral_truncate(mu_new, *cfg.galerkin_cutoff)

        if cfg.mode == "direct":
            u_new, p = ns_substep_direct(st.u, phi_new, mu_new, self.data,
                                         st.t, dt, cfg, f_u)
            new = SimState(t_new, u_new, phi_new, mu_new, p)
        elif cfg.mode == "lifted_elliptic":
            u_e_old, _ = self.ell.at(st.t)
            ubar_new, p = ns_substep_lifted(st.ubar, u_e_old, self.ell.dt_at(t_new),
                                            1.0, phi_new, mu_new, self.data,
                                            st.t, dt, cfg, f_u)
            lift = self.ell.state_at(t_new)
            new = SimState(t_new, ubar_new + lift.u_e, phi_new, mu_new, p,
                           ubar=ubar_new, lift=lift)
        else:
            u_p_old = self.par.u_p
            self.par.step(dt)
            ubar_new, p = ns_substep_lifted(st.ubar, u_p_old, self.par.du_p_dt,
                                            0.5, phi_new, mu_new, self.data,
                                            st.t, dt, cfg, f_u)
            lift = self.par.state()
            new = SimState(t_new, ubar_new + self.par.u_p, phi_new, mu_new, p,
                           ubar=ubar_new, lift=lift)

        if not (new.u.is_finite() and new.phi.is_finite()):
            raise SolverDiverged(f"non-finite state at t = {t_new:.6g}")
        self.state = new
        return new

    def run(self, observers=(), diagnostics_context=None) -> list:
        """Advance to t_end, emitting one energy record per cadence point.

        On solver failure the records collected so far are attached to the
        raised exception (``exc.records``).
        """
        from .diagnostics import energy

        cfg = self.cfg
        n_steps = int(round(cfg.t_end / cfg.dt))
        every = max(1, int(round(cfg.record_every / cfg.dt)))
        records = []

        def emit():
            rec = energy(self.state, context=diagnostics_context)
            records.append(rec)
            for obs in observers:
                obs(self.state, rec)

        emit()
        try:
            for n in range(1, n_steps + 1):
                self.step()
                if n % every == 0 or n == n_steps:
                    emit()
        except Exception as exc:
            exc.records = records
            raise
        return records


def run(grid: Grid, cfg: SolverConfig, data: WallData, phi0: ScalarField,
        u0: VectorField, observers=(), forcing: Forcing | None = None,
        diagnostics_context=None) -> tuple[SimState, list]:
    sim = Simulation(grid, cfg, data, phi0, u0, forcing)
    records = sim.run(observers=observers, diagnostics_context=diagnostics_context)
    return sim.state, records


def galerkin_study(grid: Grid, cfg: SolverConfig, data: WallData,
                   phi0: ScalarField, u0: VectorField, cutoffs) -> dict:
    """Spectral-truncation study of the concentration equation.

    Repeats the run with the concentration (and its potential) projected to
    the first n periodic/cosine modes after every concentration substep,
    including the initial data, and reports the final-time H1 distance to
    the untruncated run per cutoff.
    """
    cutoffs = sorted(int(n) for n in cutoffs)
    if any(n <= 0 for n in cutoffs):
        raise InvariantViolation("cutoffs must be positive")
    full_state, _ = run(grid, cfg, data, phi0, u0)
    errors = []
    for n in cutoffs:
        cut = (min(n, grid.nx // 2), min(n, grid.ny))
        cfg_n = replace(cfg, galerkin_cutoff=cut)
        state_n, _ = run(grid, cfg_n, data, phi0, u0)
        errors.append(h1(state_n.phi - full_state.phi))
    report = {
        "cutoffs": cutoffs,
        "errors": errors,
        "tail_nonincreasing": all(
            errors[i + 1] <= errors[i] * (1.0 + 1e-9) + 1e-14
            for i in range(max(len(errors) - 2, 0), len(errors) - 1)),
    }
    return report
