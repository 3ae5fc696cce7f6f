"""Divergence-free lifts of the tangential wall data.

The stationary lift solves  -nu1 Lap(u) + grad(p) = 0, div u = 0 with the
prescribed tangential trace, exactly and without iteration, by the
influence-matrix method of Kleiser & Schumann (1980) on the staggered grid:
in streamfunction-vorticity form the vorticity of each x-wavenumber is a
closed-form combination of two wall modes, one sine-transform (DST-I) solve
over all wavenumbers turns it into the streamfunction, and a 2x2 system per
wavenumber fits the two wall conditions.  Because the wall data is
separable, h = a(t) g(x), the solve happens once for the unit shape g and
every lift and lift time-derivative is an amplitude rescaling of that single
field.

The evolutionary lift integrates  d/dt u_p - nu1 Lap(u_p) + grad(p) = 0 with
u_p = h on the walls.  It is stepped through the decomposition
u_p(t) = a(t) U + w(t), where U is the unit stationary lift and w solves a
homogeneous-data Stokes evolution forced by -a'(t) U, from w(0) = 0: u_p
starts at the stationary lift, and a mismatch of u0 with the data stays in
the solver's ubar(0).  Static data therefore keeps u_p identical to the
stationary lift exactly, and u_p - u_e equals w at all times, which is what
the difference estimates consume.  Moving a field d from ubar(0) into w(0)
would move the solver's next u by c P H grad(q), as (I - dt (a/2) Lap) S =
c S + (1 - c) I with S = (I - dt nu1 Lap)^-1 and H = (I - dt (a/2) Lap)^-1:
c = 1 - a/(2 nu1) is the lift-force coefficient of ``ns_substep_lifted``, P
the projection and q the projection potential of S d, so the change vanishes
for nu2 = 3 nu1 (c = 0) and is O(dt) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .boundary import WallData
from .errors import InvariantViolation, MisalignedSeries, SolverDiverged
from .grid import Grid, ScalarField, VectorField, whole_steps
from .ops import Walls, gradient, helmholtz_project_velocity, l2, v1_norm, vector_laplacian

__all__ = [
    "StationaryStokes", "EllipticLift", "ParabolicLift",
    "momentum_residual", "LiftPairHistory", "run_lift_pair",
    "lift_difference_report",
]


class StationaryStokes:
    """Exact solve of the discrete stationary Stokes problem with wall data.

    The mean mode k = 0 is closed form: its continuity rows only say that uy
    is constant in y, hence zero, and fix p up to a constant.  Its solution
    is the linear (Couette) profile between the two wall means with uy = 0
    and p = 0, which also makes p zero-mean.

    Every mode k >= 1 is solved at once by the influence-matrix method.  The
    velocity is written through a corner streamfunction, ux = D_y psi and
    uy = -D_x psi with psi = 0 on both walls, so it is divergence-free by
    construction; the curl of the momentum rows removes p and leaves
    L(L psi) = 0 with L = lam_x + D_yy.  The wall ghosts ``2 g - interior``
    of ``ops._dy_ux`` become psi_(-1) = psi_1 - 2 dy g_b and
    psi_(ny+1) = psi_(ny-1) + 2 dy g_t.

    The vorticity omega = L psi is discrete-harmonic in y, so it is fixed by
    its two wall values: a mix of sinh(kappa (ny - j)) / sinh(kappa ny) and
    its mirror image, with cosh(kappa) = 1 - lam_x dy^2 / 2.  One DST-I solve
    of L psi = omega for the bottom basis (the top one is its mirror image)
    leaves a 2x2 system per k, the two ghost rows, for the wall vorticities.
    The pressure comes from the x-momentum rows, p = nu D_y(omega) / G_x.
    """

    def __init__(self, grid: Grid, nu1: float):
        self.grid = grid
        self.nu1 = float(nu1)

    def solve(self, walls: Walls) -> tuple[VectorField, ScalarField, dict]:
        g = self.grid
        if walls is None or not (np.any(walls[0]) or np.any(walls[1])):
            return VectorField.zeros(g), ScalarField.zeros(g), {"iterations": 0}
        gb, gt = walls

        dy, ny = g.dy, g.ny
        bhat, that = sfft.rfft(gb), sfft.rfft(gt)
        lam_x = g.lam_x[1:, None]
        j = np.arange(ny + 1)
        # bottom vorticity basis sinh(kappa (ny - j)) / sinh(kappa ny), overflow-free
        kappa = np.arccosh(1.0 - 0.5 * dy**2 * lam_x)
        decay = np.exp(-kappa * j) * np.expm1(-2.0 * kappa * (ny - j)) \
            / np.expm1(-2.0 * kappa * ny)
        psi_b = np.zeros_like(decay)
        psi_b[:, 1:-1] = sfft.idst(sfft.dst(decay[:, 1:-1], type=1, axis=1)
                                   / (lam_x + g.lam_y_dst1), type=1, axis=1)
        # ghost rows: omega_0 = 2 psi_1 / dy^2 - 2 g_b / dy, and the mirror image at the top
        a = 1.0 - 2.0 * psi_b[:, 1] / dy**2
        b = -2.0 * psi_b[:, -2] / dy**2
        rb, rt = -2.0 * bhat[1:] / dy, 2.0 * that[1:] / dy
        det = a * a - b * b
        w_b = ((a * rb - b * rt) / det)[:, None]
        w_t = ((a * rt - b * rb) / det)[:, None]
        psi = w_b * psi_b + w_t * psi_b[:, ::-1]
        omega = w_b * decay + w_t * decay[:, ::-1]

        shift = np.exp(2j * np.pi * np.arange(1, g.nx // 2 + 1) / g.nx)[:, None]
        hat = np.zeros((3, g.nx // 2 + 1, ny + 1), dtype=complex)     # ux, p, uy
        hat[0, 0, :ny] = bhat[0] + (that[0] - bhat[0]) * (j[:ny] + 0.5) / ny
        hat[0, 1:, :ny] = np.diff(psi, axis=1) / dy
        hat[1, 1:, :ny] = self.nu1 * np.diff(omega, axis=1) / dy \
            / ((1.0 - shift.conj()) / g.dx)                           # x-gradient symbol
        hat[2, 1:] = -(shift - 1.0) / g.dx * psi                      # x-divergence symbol
        ux, p, uy = sfft.irfft(hat, axis=1, n=g.nx)
        u = VectorField(np.ascontiguousarray(ux[:, :ny]), uy, g)
        p = ScalarField(np.ascontiguousarray(p[:, :ny]), g)
        return u, p, {"iterations": 1}


def momentum_residual(u: VectorField, p: ScalarField, nu1: float, walls: Walls) -> float:
    """L2 norm of -nu1 Lap(u) + grad(p) with the data folded into ghosts."""
    lap = vector_laplacian(u, walls)
    return l2(gradient(p) - nu1 * lap)


class EllipticLift:
    """Unit stationary lift of a wall-data shape, rescaled by the amplitude.

    The unit solve is done once per wall data, grid and nu1 and kept
    read-only in ``data.lift_cache``; every later lift of the same data
    shares it.
    """

    def __init__(self, grid: Grid, nu1: float, data: WallData):
        self.grid = grid
        self.nu1 = float(nu1)
        self.data = data
        key = (grid.key, self.nu1)
        if key not in data.lift_cache:
            u, p, _ = StationaryStokes(grid, nu1).solve((data.g_bottom, data.g_top))
            for arr in (u.ux, u.uy, p.values):
                arr.flags.writeable = False
            data.lift_cache[key] = (u, p)
        self.unit_u, self.unit_p = data.lift_cache[key]

    def at(self, t: float) -> tuple[VectorField, ScalarField]:
        a = self.data.amplitude(t)
        return a * self.unit_u, a * self.unit_p

    def dt_at(self, t: float) -> VectorField:
        return self.data.amplitude.dt(t) * self.unit_u

    def limit_field(self) -> VectorField:
        return self.data.amplitude.limit() * self.unit_u

    def state_at(self, t: float) -> VectorField:
        """The stationary lift velocity u_e at time t."""
        return self.data.amplitude(t) * self.unit_u


class ParabolicLift:
    """Backward-Euler integrator for the evolutionary lift.

    Keeps the decomposition u_p = a(t) U + w from w(0) = 0, the stationary
    lift; each step advances w by an implicit solve with homogeneous walls
    followed by an exact projection, then stores the new sum as ``u_p`` and
    its difference quotient as ``du_p_dt`` (None before the first step).
    ``w`` is u_p - u_e, the difference from the stationary lift.  Each step
    builds new arrays for all three, so a field handed out earlier is never
    written.
    """

    def __init__(self, elliptic: EllipticLift):
        self.ell = elliptic
        self.grid = elliptic.grid
        self.nu1 = elliptic.nu1
        self.data = elliptic.data
        self.t = 0.0
        self.w = VectorField.zeros(self.grid)
        self.du_p_dt: VectorField | None = None
        self.u_p = self.data.amplitude(0.0) * self.ell.unit_u

    def step(self, dt: float) -> None:
        if not 0 < dt < math.inf:           # nan fails too
            raise InvariantViolation(f"parabolic lift: dt must be positive and finite, "
                                     f"got {dt!r}")
        g, unit = self.grid, self.ell.unit_u
        t_new = self.t + dt
        up_old = self.u_p
        # w - (dt a'(t)) U, a(t) U + w and (u_p - up_old) / dt, each in new
        # arrays: U is read-only, and u_p and du_p_dt have been handed out
        scale = dt * self.data.amplitude.dt(t_new)
        rx, ry = unit.ux * scale, unit.uy * scale
        np.subtract(self.w.ux, rx, out=rx)
        np.subtract(self.w.uy, ry, out=ry)
        self.w, _ = helmholtz_project_velocity(VectorField._trusted(rx, ry, g), dt * self.nu1)
        self.t = t_new
        a = self.data.amplitude(t_new)
        ux, uy = unit.ux * a, unit.uy * a
        ux += self.w.ux
        uy += self.w.uy
        self.u_p = VectorField._trusted(ux, uy, g)
        dux, duy = ux - up_old.ux, uy - up_old.uy
        dux *= 1.0 / dt
        duy *= 1.0 / dt
        self.du_p_dt = VectorField._trusted(dux, duy, g)
        if not self.w.is_finite():
            raise SolverDiverged("parabolic lift produced non-finite values")


# ---------------------------------------------------------------------------
# lift-difference study
# ---------------------------------------------------------------------------

@dataclass
class LiftPairHistory:
    """Scalar time series recorded while co-evolving the two lifts."""

    times: list = field(default_factory=list)
    diff_v1_sq: list = field(default_factory=list)     # |u_p - u_e|_{V1}^2
    lap_diff_cum: list = field(default_factory=list)   # int_0^t |Lap(u_p - u_e)|^2
    dtup_norm: list = field(default_factory=list)      # |d/dt u_p|
    rhs_cum: list = field(default_factory=list)        # int_0^t |d/dt h|_{-1/2}^2


def run_lift_pair(data: WallData, grid: Grid, nu1: float, dt: float,
                  t_end: float) -> LiftPairHistory:
    """Integrate the evolutionary lift from compatible data, recording every step."""
    ell = EllipticLift(grid, nu1, data)
    par = ParabolicLift(ell)
    shape_w = data.shape_trace_norm_sq(-0.5)
    hist = LiftPairHistory()
    lap_cum = 0.0

    def record():
        hist.times.append(par.t)
        hist.diff_v1_sq.append(v1_norm(par.w) ** 2)
        hist.lap_diff_cum.append(lap_cum)
        hist.dtup_norm.append(l2(par.du_p_dt) if par.du_p_dt is not None else 0.0)
        hist.rhs_cum.append(shape_w * data.amplitude.dt_sq_integral(par.t))

    record()
    for _ in range(whole_steps(t_end, dt, "t_end")):
        par.step(dt)
        lap_cum += dt * l2(vector_laplacian(par.w)) ** 2
        record()
    return hist


def lift_difference_report(hist: LiftPairHistory) -> dict:
    """Certificate for the difference estimate and the decay of d/dt u_p.

    The ratio sup_t LHS/RHS is reported as a finite constant; when the data
    is static both sides vanish and the report flags the degenerate case
    instead of dividing zero by zero.
    """
    t = np.asarray(hist.times)
    lhs = np.asarray(hist.diff_v1_sq) + np.asarray(hist.lap_diff_cum)
    rhs = np.asarray(hist.rhs_cum)
    if t.size != lhs.size or t.size != rhs.size:
        raise MisalignedSeries("lift difference history columns disagree")
    live = rhs > 1e-14                  # the rhs is zero at t = 0 and for static data
    if not live.any():
        return {"degenerate": True, "ratio_sup": 0.0, "max_lhs": float(lhs.max(initial=0.0))}

    ratio = float(np.max(lhs[live] / rhs[live]))
    dtup = np.asarray(hist.dtup_norm)
    t_half = 0.5 * t[-1]
    i_half = int(np.argmin(np.abs(t - t_half)))
    report = {
        "degenerate": False,
        "ratio_sup": ratio,
        "dtup_final": float(dtup[-1]),
        "dtup_half": float(dtup[i_half]),
        "dtup_tail_decaying": bool(dtup[-1] < 0.5 * dtup[i_half] + 1e-300),
    }
    return report
