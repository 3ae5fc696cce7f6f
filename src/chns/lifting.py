"""Divergence-free lifts of the tangential wall data.

The stationary lift solves  -nu1 Lap(u) + grad(p) = 0, div u = 0 with the
prescribed tangential trace, exactly and without iteration: periodicity in x
splits the MAC Stokes system into one small block-tridiagonal problem in y
per x-wavenumber (the influence-matrix idea of Kleiser & Schumann, 1980, on
the staggered grid).  Because the wall data is separable, h = a(t) g(x), the
solve happens once for the unit shape g and every lift and lift
time-derivative is an amplitude rescaling of that single field.

The evolutionary lift integrates  d/dt u_p - nu1 Lap(u_p) + grad(p) = 0 with
u_p = h on the walls.  It is stepped through the decomposition
u_p(t) = a(t) U + w(t), where U is the unit stationary lift and w solves a
homogeneous-data Stokes evolution forced by -a'(t) U.  Static data therefore
keeps u_p identical to the stationary lift exactly (w stays zero), and
u_p - u_e equals w at all times, which is what the difference estimates
consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .boundary import WallData, check_compatibility, extrapolated_wall_trace
from .errors import MisalignedSeries, SolverDiverged
from .grid import Grid, ScalarField, VectorField
from .ops import divergence, gradient, l2, leray_project, v1_norm, vector_laplacian

__all__ = [
    "StationaryStokes", "EllipticLift", "ParabolicLift", "LiftState",
    "initial_lift", "momentum_residual", "LiftPairHistory", "run_lift_pair",
    "lift_difference_report",
]


class StationaryStokes:
    """Exact solve of the discrete stationary Stokes problem with wall data.

    The x-transform of the stencils of ``gradient``, ``divergence`` and
    ``vector_laplacian`` (wall ghosts ``2 g - interior``) leaves, for each
    wavenumber k >= 1, a block-tridiagonal system in y with 3x3 blocks on
    (ux_j, p_j, uy_{j+1}); the last block pins the wall row uy_ny = 0.  All
    modes are eliminated together, one batched 3x3 solve per y-level, and
    only the eliminated blocks are kept for the back substitution.

    The mean mode k = 0 is closed form: its continuity rows only say that uy
    is constant in y, hence zero, and fix p up to a constant, so the block
    system is singular there.  Its solution is the linear (Couette) profile
    between the two wall means with uy = 0 and p = 0, which also makes p
    zero-mean.
    """

    def __init__(self, grid: Grid, nu1: float):
        self.grid = grid
        self.nu1 = float(nu1)

    def solve(self, gb: np.ndarray, gt: np.ndarray) -> tuple[VectorField, ScalarField, dict]:
        g = self.grid
        gb = np.asarray(gb, dtype=float)
        gt = np.asarray(gt, dtype=float)
        if not (gb.any() or gt.any()):
            return VectorField.zeros(g), ScalarField.zeros(g), {"iterations": 0, "div_norm": 0.0}

        nu, dy, ny = self.nu1, g.dy, g.ny
        bhat, that = sfft.rfft(gb), sfft.rfft(gt)
        hat = np.zeros((3, g.nx // 2 + 1, ny), dtype=complex)     # ux_j, p_j, uy_{j+1}
        hat[0, 0] = bhat[0] + (that[0] - bhat[0]) * (np.arange(ny) + 0.5) / ny

        theta = 2.0 * np.pi * np.arange(1, g.nx // 2 + 1) / g.nx
        lap = nu * (2.0 / dy**2 - g.lam_x[1:])        # -nu Lap, interior rows
        blk = np.zeros((theta.size, 3, 3), dtype=complex)
        blk[:, 0, 0] = blk[:, 2, 2] = lap
        blk[:, 0, 1] = (1.0 - np.exp(-1j * theta)) / g.dx     # gradient, x
        blk[:, 1, 0] = (np.exp(1j * theta) - 1.0) / g.dx      # divergence, x
        blk[:, 1, 2], blk[:, 2, 1] = 1.0 / dy, -1.0 / dy
        low = np.zeros((3, 3))                        # coupling to level j - 1
        low[0, 0] = low[2, 2] = -nu / dy**2
        low[1, 2] = -1.0 / dy
        aug = np.zeros((theta.size, 3, 4), dtype=complex)    # [upper | rhs]
        aug[:, 0, 0] = aug[:, 2, 2] = -nu / dy**2
        aug[:, 2, 1] = 1.0 / dy

        # forward elimination; elim[j] = A'_j^{-1} [upper | rhs'_j]
        elim = np.empty((ny,) + aug.shape, dtype=complex)
        for j in range(ny):
            a, b = blk.copy(), aug.copy()
            if j == 0 or j == ny - 1:
                a[:, 0, 0] += nu / dy**2              # ghost 2 g - interior
                b[:, 0, 3] = 2.0 * nu / dy**2 * (bhat if j == 0 else that)[1:]
            if j > 0:
                lc = low @ elim[j - 1]
                a -= lc[:, :, :3]
                b[:, :, 3] -= lc[:, :, 3]
            if j == ny - 1:
                a[:, 2] = (0.0, 0.0, 1.0)             # wall row uy_ny = 0, uncoupled
                b[:, 2, 3] = 0.0
            elim[j] = np.linalg.solve(a, b)

        sol = elim[..., 3]                            # back substitution in place
        for j in range(ny - 2, -1, -1):
            sol[j] -= (elim[j, :, :, :3] @ sol[j + 1, :, :, None])[..., 0]
        hat[:, 1:] = sol.transpose(2, 1, 0)
        ux, p, uy_up = sfft.irfft(hat, axis=1, n=g.nx)
        uy = np.zeros((g.nx, ny + 1))
        uy[:, 1:-1] = uy_up[:, :-1]
        u = VectorField(ux, uy, g)
        return u, ScalarField(p, g), {"iterations": 1, "div_norm": l2(divergence(u))}


def momentum_residual(u: VectorField, p: ScalarField, nu1: float,
                      gb: np.ndarray, gt: np.ndarray) -> float:
    """L2 norm of -nu1 Lap(u) + grad(p) with the data folded into ghosts."""
    lap = vector_laplacian(u, gb, gt)
    return l2(gradient(p) - nu1 * lap)


@dataclass(frozen=True)
class LiftState:
    """Snapshot of the active lift fields at one time."""

    t: float
    u_e: VectorField
    p_e: ScalarField
    du_e_dt: VectorField
    u_p: VectorField | None = None
    p_p: ScalarField | None = None
    du_p_dt: VectorField | None = None


class EllipticLift:
    """Unit stationary lift of a wall-data shape, rescaled by the amplitude."""

    def __init__(self, grid: Grid, nu1: float, data: WallData):
        self.grid = grid
        self.nu1 = float(nu1)
        self.data = data
        solver = StationaryStokes(grid, nu1)
        self.unit_u, self.unit_p, self.info = solver.solve(data.g_bottom, data.g_top)

    def at(self, t: float) -> tuple[VectorField, ScalarField]:
        a = self.data.amplitude(t)
        return a * self.unit_u, a * self.unit_p

    def dt_at(self, t: float) -> VectorField:
        return self.data.amplitude.dt(t) * self.unit_u

    def limit_field(self) -> VectorField:
        return self.data.amplitude.limit() * self.unit_u

    def state_at(self, t: float) -> LiftState:
        u_e, p_e = self.at(t)
        return LiftState(t=t, u_e=u_e, p_e=p_e, du_e_dt=self.dt_at(t))


def initial_lift(u0: VectorField, nu1: float) -> tuple[VectorField, ScalarField]:
    """Stationary lift of the tangential trace of the initial velocity."""
    gb, gt = extrapolated_wall_trace(u0)
    u, p, _ = StationaryStokes(u0.grid, nu1).solve(gb, gt)
    return u, p


class ParabolicLift:
    """Backward-Euler integrator for the evolutionary lift.

    Keeps the decomposition u_p = a(t) U + w; each step advances w by an
    implicit solve with homogeneous walls followed by an exact projection.
    """

    def __init__(self, elliptic: EllipticLift, u0: VectorField | None = None,
                 compat_tol: float = 1e-8):
        self.ell = elliptic
        self.grid = elliptic.grid
        self.nu1 = elliptic.nu1
        self.data = elliptic.data
        self.t = 0.0
        a0 = self.data.amplitude(0.0)
        if u0 is None or check_compatibility(u0, self.data, tol=compat_tol):
            # compatible data: same constructor as the stationary lift at t=0
            self.w = VectorField.zeros(self.grid)
        else:
            up0, _ = initial_lift(u0, self.nu1)
            self.w = up0 - a0 * self.ell.unit_u
        self.q_w = ScalarField.zeros(self.grid)
        self._du_p_dt: VectorField | None = None

    @property
    def u_p(self) -> VectorField:
        return self.data.amplitude(self.t) * self.ell.unit_u + self.w

    @property
    def p_p(self) -> ScalarField:
        return self.data.amplitude(self.t) * self.ell.unit_p + self.q_w

    @property
    def du_p_dt(self) -> VectorField | None:
        return self._du_p_dt

    def difference_from_stationary(self) -> VectorField:
        """u_p - u_e; exactly the homogeneous part w."""
        return self.w

    def step(self, dt: float) -> None:
        if dt <= 0:
            raise SolverDiverged("parabolic lift: dt must be positive")
        g = self.grid
        t_new = self.t + dt
        up_old = self.u_p
        rhs = self.w - (dt * self.data.amplitude.dt(t_new)) * self.ell.unit_u
        coeff = dt * self.nu1
        ux = g.solve_helmholtz_ux(rhs.ux, coeff)
        uy = np.zeros((g.nx, g.ny + 1))
        uy[:, 1:-1] = g.solve_helmholtz_uy(rhs.uy[:, 1:-1], coeff)
        w_star = VectorField(ux, uy, g)
        self.w, q = leray_project(w_star)
        self.q_w = (1.0 / dt) * q
        self.t = t_new
        self._du_p_dt = (1.0 / dt) * (self.u_p - up_old)
        if not self.w.is_finite():
            raise SolverDiverged("parabolic lift produced non-finite values")

    def state(self) -> LiftState:
        u_e, p_e = self.ell.at(self.t)
        return LiftState(t=self.t, u_e=u_e, p_e=p_e, du_e_dt=self.ell.dt_at(self.t),
                         u_p=self.u_p, p_p=self.p_p, du_p_dt=self._du_p_dt)


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


def run_lift_pair(data: WallData, grid: Grid, nu1: float, dt: float, t_end: float,
                  sample_every: int = 1, u0: VectorField | None = None) -> LiftPairHistory:
    """Integrate the evolutionary lift and record the difference series."""
    ell = EllipticLift(grid, nu1, data)
    par = ParabolicLift(ell, u0=u0)
    shape_w = data.shape_trace_norm_sq(-0.5)
    hist = LiftPairHistory()
    lap_cum = 0.0

    def record():
        w = par.difference_from_stationary()
        hist.times.append(par.t)
        hist.diff_v1_sq.append(v1_norm(w) ** 2)
        hist.lap_diff_cum.append(lap_cum)
        hist.dtup_norm.append(l2(par.du_p_dt) if par.du_p_dt is not None else 0.0)
        hist.rhs_cum.append(shape_w * data.amplitude.dt_sq_integral(par.t))

    record()
    n_steps = int(round(t_end / dt))
    for n in range(1, n_steps + 1):
        par.step(dt)
        lap_cum += dt * l2(vector_laplacian(par.difference_from_stationary())) ** 2
        if n % sample_every == 0 or n == n_steps:
            record()
    return hist


def lift_difference_report(hist: LiftPairHistory, rhs_floor: float = 1e-14) -> dict:
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
    live = rhs > rhs_floor
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
