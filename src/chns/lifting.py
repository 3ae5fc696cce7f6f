"""Divergence-free lifts of the tangential wall data.

The stationary lift solves  -Lap(u) + grad(p) = 0, div u = 0 with the
prescribed tangential trace, exactly and without iteration, by the
influence-matrix method of Kleiser & Schumann (1980) on the staggered grid:
in streamfunction-vorticity form the vorticity of each x-wavenumber is a
closed-form combination of two wall modes, one sine-transform (DST-I) solve
turns it into the streamfunction, and a 2x2 system fits the two wall
conditions.  The Stokes operator commutes with x-translations, so the lift
lives on the x-wavenumbers of the data: the solve is done only on K, the
wavenumbers where the larger of the two walls' rfft coefficients is above the
round-off floor nx eps times the largest of them.  The profiles of a config
(zero, uniform, single_mode:m) give at most two rows; data with every
wavenumber gives them all, on the same path.  Because the wall data is
separable, h = a(t) g(x), the solve happens once for the unit shape g and
every lift and lift time-derivative is an amplitude rescaling of that single
field.  The velocity does not depend on the viscosity: with Dirichlet data,
-nu Lap(u) + grad(p) = 0 is the unit problem in u and p / nu, so the solve is
at unit viscosity and a lift is a function of its wall data alone.  The unit
solve of each wall data is kept here, one entry per wall data, for as long as
the wall data lives; ``boundary`` knows nothing of it.

The evolutionary lift integrates  d/dt u_p - nu1 Lap(u_p) + grad(p) = 0 with
u_p = h on the walls; it owns its nu1, the only viscosity a lift reads.  It
is stepped through the decomposition u_p(t) = a(t) U + w(t), where U is the
unit stationary lift and w solves a homogeneous-data Stokes evolution forced
by -a'(t) U, from w(0) = 0: u_p starts at the stationary lift, and a
mismatch of u0 with the data stays in the records' ubar(0).  Static data
therefore keeps u_p identical to the stationary lift exactly, and u_p - u_e
equals w at all times, which is what the difference estimates consume.  The
lift owns the step dt of its clock and is read by time alone, as the
stationary lift is: ``state_at(t)`` steps it to t and forms u_p there.  The
solver's u does not depend on the lift: a state stores u alone, and the
records' context keeps the lift and forms ubar = u - u_p from its
``state_at`` (``diagnostics.DiagnosticsContext``).

Since the Stokes operator commutes with x-translations, w, forced by
-a'(t) U from zero, lives on the rows K of U.  The lift keeps w as its rfft
rows on K and steps only those rows, through the x-Fourier core of
``helmholtz_project_velocity``, starting from U's rows as the stationary
solve wrote them.  U and w are synthesized from their rows c on K alone, as
B [Re c; Im c] with B the nx x 2|K| table of K's cosines and sines, built
once per stationary solve: the inverse rfft of c zero-filled, to round-off.
Outside K, U's rfft holds only that round-off, so dropping those rows moves
u_p only by round-off: each step maps w to P S (w - dt a' U), with P the
projection and S = (I - dt nu1 Lap)^-1 the solve, which do not grow a field.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .boundary import WallData
from .errors import InvariantViolation, MisalignedSeries, SolverDiverged
from .grid import Grid, ScalarField, VectorField, whole_steps
from .ops import Walls, _helmholtz_project_modes, gradient, l2, v1_norm, vector_laplacian

__all__ = [
    "StationaryStokes", "EllipticLift", "ParabolicLift",
    "momentum_residual", "LiftPairHistory", "run_lift_pair",
    "lift_difference_report",
]


class StationaryStokes:
    """Exact solve of the discrete stationary Stokes problem with wall data,
    at unit viscosity: the velocity is that of every viscosity, and p is the
    nu = 1 pressure, nu p at viscosity nu.

    The mean mode k = 0 is closed form: its continuity rows only say that uy
    is constant in y, hence zero, and fix p up to a constant.  Its solution
    is the linear (Couette) profile between the two wall means with uy = 0
    and p = 0, which also makes p zero-mean.

    The modes k >= 1 of K (module docstring) are solved together by the
    influence-matrix method, and ux, uy and p synthesized from their rows on K
    by the table ``info["synthesis"]``.  The velocity is written through a
    corner streamfunction, ux = D_y psi and uy = -D_x psi with psi = 0 on
    both walls, so it is divergence-free by construction; the curl of the
    momentum rows removes p and leaves L(L psi) = 0 with L = lam_x + D_yy.
    The wall ghosts ``2 g - interior`` of ``ops._dy_ux`` become
    psi_(-1) = psi_1 - 2 dy g_b and psi_(ny+1) = psi_(ny-1) + 2 dy g_t.

    The vorticity omega = L psi is discrete-harmonic in y, so it is fixed by
    its two wall values: a mix of sinh(kappa (ny - j)) / sinh(kappa ny) and
    its mirror image, with cosh(kappa) = 1 - lam_x dy^2 / 2.  One DST-I solve
    of L psi = omega for the bottom basis (the top one is its mirror image)
    leaves a 2x2 system per k, the two ghost rows, for the wall vorticities.
    The pressure comes from the x-momentum rows, p = D_y(omega) / G_x.

    ``info["x_modes"]`` is (K, the rfft rows of ux on K, those of uy's
    interior rows on K); K holds 0 when a wall mean is above the floor.
    """

    def __init__(self, grid: Grid):
        self.grid = grid

    def solve(self, walls: Walls) -> tuple[VectorField, ScalarField, dict]:
        g = self.grid
        dy, ny = g.dy, g.ny
        gb, gt = walls if walls is not None else (np.zeros(g.nx), np.zeros(g.nx))
        bhat, that = sfft.rfft(gb), sfft.rfft(gt)
        size = np.maximum(np.abs(bhat), np.abs(that))
        rows = np.flatnonzero(size > g.nx * np.finfo(float).eps * size.max())     # K
        live = rows > 0
        k = rows[live]
        lam_x = g.lam_x[k, None]
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
        rb, rt = -2.0 * bhat[k] / dy, 2.0 * that[k] / dy
        det = a * a - b * b
        w_b = ((a * rb - b * rt) / det)[:, None]
        w_t = ((a * rt - b * rb) / det)[:, None]
        psi = w_b * psi_b + w_t * psi_b[:, ::-1]
        omega = w_b * decay + w_t * decay[:, ::-1]

        # the rfft rows on K of ux, p and uy
        cx, cp, cy = (np.zeros((rows.size, n), dtype=complex) for n in (ny, ny, ny + 1))
        cx[~live] = bhat[0] + (that[0] - bhat[0]) * (j[:ny] + 0.5) / ny
        cx[live] = np.diff(psi, axis=1) / dy
        cp[live] = np.diff(omega, axis=1) / dy / g.ddx_west[k, None]
        cy[live] = -g.ddx_east[k, None] * psi
        table = _x_synthesis(g.nx, rows)
        u = VectorField(_from_x_rows(table, cx), _from_x_rows(table, cy), g)
        p = ScalarField(_from_x_rows(table, cp), g)
        return u, p, {"iterations": int(rows.size > 0), "x_modes": (rows, cx, cy[:, 1:-1]),
                      "synthesis": table}


def momentum_residual(u: VectorField, p: ScalarField, walls: Walls) -> float:
    """L2 norm of -Lap(u) + grad(p), at unit viscosity, with the data folded into ghosts."""
    return l2(gradient(p) - vector_laplacian(u, walls))


# the read-only unit stationary lift of each wall data, (unit_u, x_modes,
# synthesis): an entry lives exactly as long as its wall data
_UNIT_LIFTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class EllipticLift:
    """Unit stationary lift of a wall-data shape, rescaled by the amplitude.

    The lift is a function of its wall data alone: it lives on the data's
    grid, and its velocity is that of every viscosity.  The unit solve is
    done once per wall data and kept read-only in this module's
    ``_UNIT_LIFTS``, one entry per wall data; every later lift of the same
    data shares it, and the solve's pressure is dropped.  ``x_modes`` is the
    solve's ``info["x_modes"]``: the data's rows K and the unit lift's rfft
    rows on them, which ``ParabolicLift`` steps; ``synthesis`` is the solve's
    table on K, which turns ``ParabolicLift``'s rows into w.
    """

    def __init__(self, data: WallData):
        self.grid = data.grid
        self.data = data
        if data not in _UNIT_LIFTS:
            u, _, info = StationaryStokes(data.grid).solve((data.g_bottom, data.g_top))
            for arr in (u.ux, u.uy, *info["x_modes"], info["synthesis"]):
                arr.flags.writeable = False
            _UNIT_LIFTS[data] = (u, info["x_modes"], info["synthesis"])
        self.unit_u, self.x_modes, self.synthesis = _UNIT_LIFTS[data]

    # no caller in the package: the benchmark's tracer wraps it by name
    def dt_at(self, t: float) -> VectorField:
        return self.data.amplitude.dt(t) * self.unit_u

    def limit_field(self) -> VectorField:
        return self.data.amplitude.limit() * self.unit_u

    def state_at(self, t: float) -> VectorField:
        """The stationary lift velocity u_e at time t."""
        return self.data.amplitude(t) * self.unit_u

    # no caller in the package: the benchmark's tracer wraps it by name
    at = state_at


class ParabolicLift:
    """Backward-Euler integrator for the evolutionary lift, with its own clock.

    Keeps the decomposition u_p = a(t) U + w from w(0) = 0, the stationary
    lift; each ``step`` advances w by one ``dt``, an implicit solve with
    homogeneous walls followed by an exact projection.  ``w`` is u_p - u_e,
    the difference from the stationary lift, and is all the lift stores:
    ``state_at(t)`` steps the clock ``t`` to t and forms u_p = u_e(t) + w in
    new arrays.  Each step builds new arrays, so a field handed out earlier
    is never written, and a step that raises changes nothing.

    w lives on the x-modes of its forcing -a'(t) U (module docstring), so it
    is kept as its rfft rows on K, and each step solves those rows only; K
    and U's rows on it are ``EllipticLift.x_modes``, from the stationary
    solve.  The synthesis on K (``EllipticLift.synthesis``) gives the physical
    w, and the pressure of the solve is never synthesized.  The lift owns the
    nu1 of its solve and its dt; the grid and the wall data are ``ell``'s.
    """

    def __init__(self, elliptic: EllipticLift, nu1: float, dt: float):
        if not 0 < dt < math.inf:           # nan fails too
            raise InvariantViolation(f"parabolic lift: dt must be positive and finite, "
                                     f"got {dt!r}")
        self.ell = elliptic
        self.grid = elliptic.grid
        self.nu1 = float(nu1)
        self.dt = dt
        self.t = 0.0
        self.w = VectorField.zeros(self.grid)
        # w's rfft rows on K, of ux and of uy's interior rows
        _, unit_x, unit_y = elliptic.x_modes
        self._w_rows = (np.zeros_like(unit_x), np.zeros_like(unit_y))

    def step(self) -> None:
        ell, dt = self.ell, self.dt
        g, amplitude = self.grid, ell.data.amplitude
        rows, unit_x, unit_y = ell.x_modes
        wx, wy = self._w_rows
        t_new = self.t + dt
        # w - (dt a'(t)) U on the rows, in new arrays: the core overwrites them
        scale = dt * amplitude.dt(t_new)
        rx, ry = unit_x * scale, unit_y * scale
        np.subtract(wx, rx, out=rx)
        np.subtract(wy, ry, out=ry)
        wx, wy, _ = _helmholtz_project_modes(g, dt * self.nu1, rx, ry, rows)
        if not (np.isfinite(wx).all() and np.isfinite(wy).all()):
            raise SolverDiverged("parabolic lift produced non-finite values")
        self.t = t_new
        self.w = VectorField._trusted(*(_from_x_rows(ell.synthesis, c) for c in (wx, wy)), g)
        self._w_rows = (wx, wy[:, 1:-1])

    def state_at(self, t: float) -> VectorField:
        """The evolutionary lift velocity u_p at time t, stepped by ``dt`` from the clock.

        A t behind the clock, or between two of its steps, raises
        InvariantViolation; the lift is never stepped past t.
        """
        while self.t + self.dt <= t:        # step's own sum: the run's clock
            self.step()
        if self.t != t:
            raise InvariantViolation(f"the state is at t = {t!r}, but the evolutionary lift "
                                     f"is at t = {self.t!r} and steps by dt = {self.dt!r}")
        # a(t) U in new arrays: U is read-only, and w has been handed out
        u_p = self.ell.state_at(t)
        np.add(u_p.ux, self.w.ux, out=u_p.ux)
        np.add(u_p.uy, self.w.uy, out=u_p.uy)
        return u_p


def _x_synthesis(nx: int, rows: np.ndarray) -> np.ndarray:
    """The table B of ``_from_x_rows``: columns w_k cos(theta) and -w_k sin(theta),
    theta = 2 pi ((k i) mod nx) / nx, k i reduced in integers (unreduced, the synthesis
    is 5e-14 off at nx = 256); w_k = 2/nx, but 1/nx on the mean and Nyquist rows,
    whose sine columns are zero: the inverse rfft drops their imaginary parts."""
    edge = (rows == 0) | (2 * rows == nx)
    weight = np.where(edge, 1.0, 2.0) / nx
    theta = 2.0 * np.pi * (np.outer(np.arange(nx), rows) % nx) / nx
    sine = -weight * np.sin(theta)
    sine[:, edge] = 0.0
    return np.hstack((weight * np.cos(theta), sine))


def _from_x_rows(table: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Inverse rfft in x of c on the rows of ``table`` (einsum: BLAS allocates a workspace)."""
    return np.einsum("ik,kj->ij", table, np.concatenate((c.real, c.imag)))


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


def run_lift_pair(data: WallData, nu1: float, dt: float, t_end: float) -> LiftPairHistory:
    """Integrate the evolutionary lift from compatible data, recording every step."""
    par = ParabolicLift(EllipticLift(data), nu1, dt)
    shape_w = data.shape_trace_norm_sq(-0.5)
    hist = LiftPairHistory()
    lap_cum = 0.0

    def record(dtup):
        hist.times.append(par.t)
        hist.diff_v1_sq.append(v1_norm(par.w) ** 2)
        hist.lap_diff_cum.append(lap_cum)
        hist.dtup_norm.append(dtup)
        hist.rhs_cum.append(shape_w * data.amplitude.dt_sq_integral(par.t))

    record(0.0)
    u_p = par.state_at(0.0)
    for _ in range(whole_steps(t_end, dt, "t_end")):
        par.step()
        lap_cum += dt * l2(vector_laplacian(par.w)) ** 2
        # |d/dt u_p| as the difference quotient of the step
        old, u_p = u_p, par.state_at(par.t)
        record(l2((u_p - old) * (1.0 / dt)))
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
