"""Coupled time integrator for the two-phase channel flow system.

One step advances the concentration first and then the momentum equation.
The concentration step is the stabilized BDF2 scheme of Shen & Yang
(DCDS-A 28, 2010): one transform-diagonalized fourth-order solve, with the
nonlinear and advective terms evaluated at the extrapolations
2 phi^n - phi^(n-1) and 2 u^n - u^(n-1).  It is second order in dt; its
history is (phi^(n-1), u^(n-1)), the pair ``Simulation`` keeps of the
previous state.  The first step, which has no history, is the one-step
(backward Euler) form of the same scheme.  The momentum step is a
first-order projection step with the constant-coefficient split of Dong &
Shen (J. Comput. Phys. 231, 2012): (a/2) Lap u is implicit with the
constant a = (nu1 + nu2)/2 of ``implicit_viscosity``, and
div(nu(phi) sym grad u) - (a/2) Lap u is explicit.  Since
a >= nu2/2 >= nu(phi)/2 the split is unconditionally stable (see
``cfl_bound``), and for the constant viscosity at its default value a
the explicit remainder vanishes to round-off on divergence-free velocities.

The momentum step costs one explicit force and one solve.  The force
(``momentum_force``) is the capillary term mu grad(phi), the self-advection
and the viscous remainder in flux form: the four velocity difference
quotients are formed once, and each component is one difference of centre
and corner fluxes.  The solve (``ops.helmholtz_project_velocity``) is the
implicit Helmholtz solve and the Leray projection in one pass through
x-Fourier space, and it gives the pressure with the projected velocity.
The operator-by-operator forms (``capillary_force``, ``ops.advect_velocity``,
``ops.viscous_term``, ``ops.vector_laplacian``, ``ops.leray_project``) are
the same discrete operators, summed in another order.

Modes:
  direct            march the physical velocity; tangential wall data enters
                    the implicit solve through ghost rows.
  lifted_elliptic   the same step; the records read ubar = u - u_e, with
                    homogeneous walls, against the stationary lift u_e(t).
  lifted_parabolic  the same against the evolutionary lift u_p, which starts
                    at u_e(0): a mismatch of u0 with the data stays in ubar(0).

For a discretely divergence-free lift L whose trace through ``_dy_ux``'s
ghosts is the wall data, the direct step u+ = P H_w1(u + dt f) is exactly
the lifted step L_new + P H_0(ubar + dt (f - (L_new - L_old)/dt + (a/2)
Lap_w1 L_new)), with P the projection and H_w the implicit solve with wall
data w.  So the three modes march one discrete u through one
``ns_substep_direct`` call, and a state stores u alone: the lift lives in
the records' ``diagnostics.DiagnosticsContext``, the only code that reads
it, which forms ubar = u - L(t) for the certificates.  ``Simulation`` builds
what the run fixes once, as its step plan: a and, with a constant
viscosity, ``momentum_force``'s stress tables.

A step holds few full-grid arrays at once, as its memory peak sets the
resident set of a large run: each array of the step dies at its last use.
The history goes to the concentration step with no other holder and dies
there once read; the force, summed component by component into its own
arrays, goes to the solve the same way, which frees it once its two rffts
are taken, and frees each complex array once transformed back.  Only the
state and the history outlive a step.

Every mode marches the full discrete system: the paper's Faedo-Galerkin
approximations serve its existence proof and have no truncated step here.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .boundary import WallData, check_compatibility, trace_matches
from .diagnostics import _stationary_residual, energy
from .errors import CFLViolation, InvariantViolation, NonpositiveViscosity, SolverDiverged
from .grid import Grid, ScalarField, VectorField, require_same_grid, whole_steps
from .lifting import EllipticLift
from .ops import (Walls, _dy_ux, _east, _nu_at_corners, _west, advect_scalar, gradient,
                  helmholtz_project_velocity, interp_center_to_xface,
                  interp_center_to_yface, laplacian_neumann)
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
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    viscosity: ViscositySpec = field(default_factory=ViscositySpec)

    def __post_init__(self):
        # every comparison with nan is false, so nan fails its check
        for name, zero_ok in (("dt", False), ("t_end", True), ("record_every", False),
                              ("stabilization", True), ("cfl_safety", False)):
            v = getattr(self, name)
            if not ((0 <= v if zero_ok else 0 < v) and v < math.inf):
                sign = "nonnegative" if zero_ok else "positive"
                raise InvariantViolation(f"{name} must be {sign} and finite, got {v!r}")
        if self.mode not in MODES:
            raise InvariantViolation(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SimState:
    """Simulation snapshot: the physical fields at time t, in every mode.

    A state carries no lift.  A record forms ubar = u - L(t) from the lift
    its ``diagnostics.DiagnosticsContext`` keeps (``DiagnosticsContext.ubar``).
    """

    t: float
    u: VectorField
    phi: ScalarField
    mu: ScalarField
    p: ScalarField


# ---------------------------------------------------------------------------
# substeps
# ---------------------------------------------------------------------------

def initial_mu(phi: ScalarField) -> ScalarField:
    """Scheme-consistent chemical potential at t = 0 (no stabilization lag):
    -Lap(phi) + F'(phi), the records' stationary residual."""
    return ScalarField._trusted(_stationary_residual(phi), phi.grid)


@functools.lru_cache(maxsize=4)
def _ch_denominator(g: Grid, c0: float, s: float) -> np.ndarray:
    """c0 + lam^2 - S lam of ``ch_substep``, built once per grid, c0 and S; read-only."""
    lam = g.lam_neumann
    table = c0 + lam * lam - s * lam
    table.flags.writeable = False
    return table


def ch_substep(phi: ScalarField, advecting: VectorField, dt: float, stabilization: float,
               previous: tuple[ScalarField, VectorField] | None = None
               ) -> tuple[ScalarField, ScalarField]:
    """Advance the concentration by one stabilized semi-implicit step.

    With ``previous = (phi_old, advecting_old)``, the state one step back,
    this is the stabilized BDF2 step of Shen & Yang (DCDS-A 28, 2010):

        (3 phi+ - 4 phi + phi_old)/(2 dt) + div(vbar phibar) = Lap(mu+),
        mu+ = -Lap(phi+) + F'(phibar) + S (phi+ - phibar),

    with the extrapolations phibar = 2 phi - phi_old and
    vbar = 2 advecting - advecting_old.  Without ``previous`` it is the
    one-step scheme that starts BDF2: backward Euler in (phi+ - phi)/dt, with
    phibar = phi and vbar = advecting.

    Either way it is a single transform-diagonalized solve: everything but
    the implicit phi+ terms folds into T(rhs) + lam T(F'(phibar) - S phibar),
    two forward transforms, divided by c0 + lam^2 - S lam (``_ch_denominator``).
    The cell mean of phi is conserved exactly (conservative advection,
    no-flux walls).  Every intermediate lives in an array of this call's own
    and is dropped after its last use; the inputs are only read.  A
    ``previous`` handed over with no other name on it, as
    ``Simulation.step`` hands the history, is freed once rhs and the
    extrapolations are formed.
    """
    if not 0 < dt < math.inf:           # nan fails too
        raise InvariantViolation(f"concentration step: dt must be positive and finite, got {dt!r}")
    g = phi.grid
    s = stabilization
    if previous is None:
        c0, phi_bar, v_bar = 1.0 / dt, phi.values, advecting
        rhs = phi.values / dt
    else:
        # dropped once read, so a history handed over unnamed dies here
        phi_old, v_old = previous
        del previous
        c0 = 1.5 / dt
        phi_bar = 2.0 * phi.values
        phi_bar -= phi_old.values
        v_bar = VectorField._trusted(2.0 * advecting.ux, 2.0 * advecting.uy, g)
        np.subtract(v_bar.ux, v_old.ux, out=v_bar.ux)
        np.subtract(v_bar.uy, v_old.uy, out=v_bar.uy)
        rhs = 2.0 * phi.values
        rhs -= 0.5 * phi_old.values
        rhs /= dt
        del phi_old, v_old

    # each array is dropped after its last use, to keep the step's memory peak low
    rhs -= advect_scalar(v_bar, ScalarField._trusted(phi_bar, g)).values
    del v_bar
    fp = eval_dF(phi_bar)
    source = s * phi_bar
    np.subtract(fp, source, out=source)
    lam = g.lam_neumann
    phi_hat = g.to_spectral(rhs)
    source_hat = g.to_spectral(source)
    del rhs, source
    source_hat *= lam
    phi_hat += source_hat
    del source_hat
    phi_hat /= _ch_denominator(g, c0, s)
    phi_new = ScalarField._trusted(g.from_spectral(phi_hat), g)
    del phi_hat
    if not phi_new.is_finite():
        raise SolverDiverged("concentration update produced non-finite values")
    mu = laplacian_neumann(phi_new).values
    np.negative(mu, out=mu)
    mu += fp
    shift = phi_new.values - phi_bar
    shift *= s
    mu += shift
    return phi_new, ScalarField._trusted(mu, g)


def capillary_force(phi: ScalarField, mu: ScalarField) -> VectorField:
    """Phase coupling force mu grad(phi) on the faces.

    Against a discretely divergence-free u it is the exact adjoint of the
    transport term: <u, mu grad(phi)> = <mu, div(u phi)>, so the coupling
    terms of the discrete energy law cancel.
    """
    g = phi.grid
    gr = gradient(phi)
    fx = interp_center_to_xface(mu.values) * gr.ux
    fy = np.zeros((g.nx, g.ny + 1))
    fy[:, 1:-1] = interp_center_to_yface(mu.values) * gr.uy[:, 1:-1]
    return VectorField._trusted(fx, fy, g)


def implicit_viscosity(viscosity: ViscositySpec) -> float:
    """The constant a of the implicit momentum part (a/2) Lap: (nu1 + nu2)/2.

    Any a >= nu2/2 makes the viscous split unconditionally stable; the
    midpoint does so with a margin of nu1/2 and minimises max|nu - a| over
    the admissible range of nu.
    """
    return 0.5 * (viscosity.nu1 + viscosity.nu2)


def viscosity_tables(nu: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """``momentum_force``'s read-only stress tables: nu - a/2 at centres, nu at corners."""
    if np.any(nu <= 0.0):
        raise NonpositiveViscosity(f"viscosity min = {nu.min():.3e}")
    excess, nu_c = nu - 0.5 * a, _nu_at_corners(nu)
    excess.flags.writeable = nu_c.flags.writeable = False
    return excess, nu_c


def _x_difference(a: np.ndarray, east: bool, out: np.ndarray | None = None) -> np.ndarray:
    """a[i + 1] - a[i] (``east``) or a[i] - a[i - 1], periodic in x, without the shifted copy."""
    out = np.empty_like(a) if out is None else out
    lo, hi = (out[:-1], out[-1]) if east else (out[1:], out[0])
    np.subtract(a[1:], a[:-1], out=lo)
    np.subtract(a[0], a[-1], out=hi)
    return out


def momentum_force(phi: ScalarField, mu: ScalarField, v: VectorField,
                   tables: tuple[np.ndarray, np.ndarray], a: float, walls: Walls) -> VectorField:
    """The explicit momentum force, as one flux difference per component:

        mu grad(phi) - div(v v) + div(nu sym grad v) - (a/2) Lap v,

    with nu as ``viscosity_tables(nu, a)`` and the wall data ``walls`` in ``_dy_ux``'s ghosts.
    The four difference quotients of v are formed once: D_x v_x and D_y v_y
    at cell centres, D_y v_x (with the ghost rows) and D_x v_y at corners.
    Since ``vector_laplacian`` is D_x D_x + D_y D_y on these same quotients,
    the viscous remainder folds into the stress fluxes, and the
    self-advection corner flux vbar_x vbar_y is shared by both components:

        centres   (nu - a/2) D_x v_x - vbar_x^2,  (nu - a/2) D_y v_y - vbar_y^2
        corners   nu_c (D_y v_x + D_x v_y)/2 - vbar_x vbar_y - (a/2) D_y v_x  (x)
                  the same with (a/2) D_x v_y                                 (y)

    It equals ``capillary_force(phi, mu) - advect_velocity(v, v) +
    viscous_term(nu, v, walls) - (a/2) vector_laplacian(v, walls)`` up to
    the order of summation.
    """
    g = v.grid
    dx, dy = g.dx, g.dy
    ux, uy = v.ux, v.uy
    half_a = 0.5 * a
    excess, nu_c = tables

    # few live temporaries, as the force is where a step's memory peaks: the
    # two corner fluxes come first, each component is then summed into its own
    # array in the formula's left-to-right order, and every array is dropped
    # once its last use is done

    def centre_flux(lo, hi, h):
        """excess (hi - lo)/h - (0.5 (lo + hi))^2, formed in two arrays."""
        flux = hi - lo
        flux /= h
        flux *= excess
        mean = lo + hi
        mean *= 0.5
        mean *= mean
        flux -= mean
        return flux

    # corner fluxes, rows 0..ny; D_x v_y and vbar_x vbar_y vanish on the walls
    vbar_y = _west(uy)                          # v_y one cell west, then the corner mean
    dxuy = uy - vbar_y
    dxuy /= dx
    vbar_y += uy
    vbar_y *= 0.5
    advective = ux[:, 1:] + ux[:, :-1]          # vbar_x, then vbar_x vbar_y, interior rows
    advective *= 0.5
    advective *= vbar_y[:, 1:-1]
    del vbar_y
    dyux = _dy_ux(ux, walls, dy)
    shear = dyux + dxuy
    shear *= 0.5
    shear *= nu_c
    shear[:, 1:-1] -= advective
    del advective
    dyux *= -half_a
    dyux += shear                               # the x corner flux
    dxuy *= -half_a
    dxuy += shear                               # the y corner flux
    del shear

    fx = _x_difference(centre_flux(ux, _east(ux), dx), east=False)
    fx /= dx
    part = dyux[:, 1:] - dyux[:, :-1]
    del dyux
    part /= dy
    fx += part
    part = _x_difference(phi.values, east=False)
    part /= dx
    part *= interp_center_to_xface(mu.values)
    fx += part
    del part

    fy = np.zeros((g.nx, g.ny + 1))
    inner = fy[:, 1:-1]
    _x_difference(dxuy[:, 1:-1], east=True, out=inner)
    del dxuy
    inner /= dx
    cy = centre_flux(uy[:, :-1], uy[:, 1:], dy)
    part = cy[:, 1:] - cy[:, :-1]
    del cy
    part /= dy
    inner += part
    part = phi.values[:, 1:] - phi.values[:, :-1]
    part /= dy
    part *= interp_center_to_yface(mu.values)
    inner += part
    return VectorField._trusted(fx, fy, g)


def ns_substep_direct(u: VectorField, phi_new: ScalarField, mu_new: ScalarField,
                      tables: tuple[np.ndarray, np.ndarray], a: float,
                      walls0: Walls, walls1: Walls, dt: float) -> tuple[VectorField, ScalarField]:
    """One projection step with physical wall data, old ``walls0`` and new ``walls1``:
    u + dt * force, formed in the force's arrays, solved and projected; p = q/dt.

    The tables are dropped once the force is formed, and the force goes to
    the solve with no other name on it, which lets the solve release it
    before it allocates its complex arrays; the solve frees its own arrays
    at their last use (``ops.helmholtz_project_velocity``).  Tables the caller
    keeps no name for, like ``Simulation.step``'s per-step ones, are freed
    here.  Both rely on a call moving its arguments into the callee, as
    CPython does from 3.11.
    """
    # a one-element list: popped into the solve's call, the force keeps no holder here
    rhs = [momentum_force(phi_new, mu_new, u, tables, a, walls0)]
    del tables
    for f, base in ((rhs[0].ux, u.ux), (rhs[0].uy, u.uy)):
        f *= dt
        f += base
    del f
    u_new, q = helmholtz_project_velocity(rhs.pop(), dt * 0.5 * a, walls1)
    if not u_new.is_finite():
        raise SolverDiverged("momentum update produced non-finite values")
    pressure = q.values
    pressure *= 1.0 / dt
    return u_new, q


# no caller in the package: the benchmark's tracer wraps it by name
def ns_substep_lifted(u: VectorField, lift_new: VectorField, phi_new: ScalarField,
                      mu_new: ScalarField, tables: tuple[np.ndarray, np.ndarray], a: float,
                      walls0: Walls, walls1: Walls, dt: float
                      ) -> tuple[VectorField, VectorField, ScalarField]:
    """``ns_substep_direct``, and ubar = u+ - ``lift_new``: returns (u+, ubar, p)."""
    u_new, p = ns_substep_direct(u, phi_new, mu_new, tables, a, walls0, walls1, dt)
    return u_new, u_new - lift_new, p


def cfl_bound(cfg: SolverConfig, grid: Grid, umax: float) -> float:
    """Largest step the momentum split allows at velocity size ``umax``.

        bound = cfl_safety * min(h / umax, nu1 / (2 umax^2)),  h = min(dx, dy)

    and infinite for umax = 0: no viscous limit remains.

    Frozen-coefficient derivation.  Freeze nu, the implicit constant a and
    the advecting velocity c, and take one Fourier mode on which -Lap has
    the symbol lam >= 0 and centred advection the symbol i*g/dt, with
    g^2 <= dt^2 |c|^2 lam (Cauchy-Schwarz, and sin^2(t) <= 4 sin^2(t/2)).
    One step multiplies the mode by

        G = (1 - B + i g) / (1 + A),  A = dt a lam / 2,  B = dt (nu - a) lam / 2,

    and |G| <= 1 exactly when g^2 <= (A + B)(2 + A - B)
    = (dt nu lam / 2)(2 + dt (2a - nu) lam / 2).

    - Viscous split alone (g = 0): |G| <= 1 for every dt once a >= nu/2.
      ``implicit_viscosity`` gives a = (nu1 + nu2)/2 >= nu2/2, so the
      viscous terms put no limit on dt, whatever the spread nu2 - nu1.
    - Centred explicit advection: with a >= nu/2 the second factor is at
      least 2, so dt |c|^2 <= nu suffices.  The bound takes nu1 <= nu and
      keeps a factor 2 below it, since |c| is taken from the current state
      and the frozen analysis ignores how nu and u vary in space.
    - h / umax keeps the transport at most one cell per step; it also
      covers the explicit centred transport of phi in the CH substep.

    At low Reynolds number both advective limits are conservative: a 64^2
    run on an 8 x 8 channel with nu1 = 0.2, nu2 = 5, a tanh interface and a
    unit-speed moving wall stayed stable for 50 steps, with the check off,
    at 40 times this bound.  A nan umax raises InvariantViolation.
    """
    if math.isnan(umax):
        raise InvariantViolation("cfl_bound: umax is nan")
    if umax <= 0:
        return math.inf
    h = min(grid.dx, grid.dy)
    return cfg.cfl_safety * min(h / umax, cfg.viscosity.nu1 / (2.0 * umax * umax))


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

class Simulation:
    """Owns the step plan and the stationary lift, and advances a SimState.

    The plan is what the run fixes: ``a`` and, for a constant viscosity,
    ``viscosity_tables`` (None for a law of phi).  The (phi, u) of
    the state one step back are the history of the two-step concentration
    scheme.  The first step, and the first step after a state is assigned
    from outside, has no history and takes the one-step start.  A step
    refused by the CFL check changes nothing.  A step that diverges
    (``SolverDiverged``) keeps the last good state but drops the history,
    which the concentration step has already freed, so the next step takes
    the one-step start, as after an assigned state.  Initial data must be
    finite; an assigned state must be on the simulation's grid.

    The step reads no lift, in any mode: ubar and the evolutionary lift are
    the records' (``diagnostics.DiagnosticsContext``).  ``ell`` is the run's
    stationary lift in the lifted modes, None in the direct mode, which
    ``DiagnosticsContext.for_run`` takes over.

    ``compatible`` is one verdict in every mode: u0's trace matches the data,
    or u0 - L(0)'s is zero, with L the stationary lift (built in the direct
    mode only when the first check fails on nonzero data).  The second check
    reads the difference at the x-velocity wall rows 0, 1, -2 and -1 only,
    which are all the extrapolated trace takes.
    """

    def __init__(self, grid: Grid, cfg: SolverConfig, data: WallData,
                 phi0: ScalarField, u0: VectorField):
        for name, given in (("data", data), ("phi0", phi0), ("u0", u0)):
            if given.grid != grid:
                raise InvariantViolation(f"{name} is on grid {given.grid.key}, not {grid.key}")
        for name, given in (("phi0", phi0), ("u0", u0)):
            if not given.is_finite():
                raise InvariantViolation(f"{name} has non-finite values")
        self.grid = grid
        self.cfg = cfg
        self.data = data
        self.a = a = implicit_viscosity(cfg.viscosity)
        self.viscosity_tables = viscosity_tables(cfg.viscosity(phi0.values), a) \
            if cfg.viscosity.is_constant else None
        self.ell = None if cfg.mode == "direct" else EllipticLift(grid, cfg.viscosity.nu1, data)
        self.state = SimState(0.0, u0, phi0, initial_mu(phi0), ScalarField.zeros(grid))

        self.compatible = check_compatibility(u0, data)
        if not (self.compatible or data.is_zero()):
            lift0 = (self.ell or EllipticLift(grid, cfg.viscosity.nu1, data)).state_at(0.0)
            rows = [0, 1, -2, -1]               # the only rows the trace reads
            self.compatible = trace_matches(u0.ux[:, rows] - lift0.ux[:, rows], 0.0, 0.0)
        if not self.compatible:
            warnings.warn("initial velocity trace does not match the wall data at t=0",
                          stacklevel=2)

    @property
    def state(self) -> SimState:
        return self._state

    @state.setter
    def state(self, state: SimState) -> None:
        require_same_grid(self.data, state.u, state.phi, state.mu, state.p)
        self._state = state
        self._history: tuple[ScalarField, VectorField] | None = None

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

        # the history is the concentration step's alone: popped into its call,
        # it is freed there, and a step that raises leaves none behind
        history, self._history = [self._history], None
        phi_new, mu_new = ch_substep(st.phi, st.u, dt, cfg.stabilization, history.pop())
        # the per-step tables go in unnamed, so the momentum step can free them
        u_new, p = ns_substep_direct(
            st.u, phi_new, mu_new,
            self.viscosity_tables or viscosity_tables(cfg.viscosity(phi_new.values), self.a),
            self.a, self.data.eval_wall(st.t), self.data.eval_wall(t_new), dt)
        new = SimState(t_new, u_new, phi_new, mu_new, p)
        self._history, self._state = (st.phi, st.u), new
        return new

    def run(self, observers=(), diagnostics_context=None) -> list:
        """Advance to t_end, emitting one energy record per cadence point.

        The records read ubar and the lift from ``diagnostics_context``;
        without one they read u in every mode.  On solver failure the records
        collected so far are attached to the raised exception (``exc.records``).
        """
        cfg = self.cfg
        n_steps = whole_steps(cfg.t_end, cfg.dt, "t_end")
        every = whole_steps(cfg.record_every, cfg.dt, "record_every")
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
