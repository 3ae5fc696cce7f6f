"""Discrete differential operators, transform solvers, and norms.

Sign and staggering conventions:

* ``divergence`` maps faces -> centers and ``gradient`` maps centers -> faces;
  they are exact negative adjoints under the midpoint inner products below,
  so ``leray_project`` is an exact orthogonal projection.
* Both advection operators are written in conservative flux form with
  centered face interpolation.  Against the transported argument they are
  skew-symmetric to round-off whenever the advecting field is discretely
  divergence-free, and the scalar form conserves the cell sum exactly for
  any advecting field with zero wall-normal component.
* Wall closures: scalars reflect (homogeneous Neumann); tangential velocity
  uses linear ghost extrapolation ``ghost = 2 g - interior`` for Dirichlet
  data g, which reduces to an odd reflection when g = 0.  The data is one
  value ``walls``: None for homogeneous walls, or the pair (bottom, top)
  that ``WallData.eval_wall`` returns.  The stencils ``viscous_term``,
  ``vector_laplacian`` and ``solver.momentum_force`` take the corner
  quotient D_y u_x, ghost rows included, from ``_dy_ux``; ``grad_norm_sq``
  sums the squares of the same corner differences, ghost rows included,
  without building the quotient array; the implicit solves fold the same
  ghosts into their right-hand side (``_fold_wall_data``).

The time step uses ``helmholtz_project_velocity``, the velocity solve and the
projection in one pass, and ``solver.momentum_force``, which folds the
advection, stress and Laplacian stencils into one flux form.  No step calls
``advect_velocity``, ``viscous_term``, ``helmholtz_solve_velocity`` or
``Grid.solve_helmholtz_ux/uy`` any more: they are the references those two
are tested against.  ``helmholtz_solve_neumann`` (a > 0) is likewise only the
reference of ``hminus1``.  ``vector_laplacian`` and ``leray_project`` are
references too: the lift and the diagnostics use ``vector_laplacian`` and
the initial data ``leray_project``, whose norm ``projected_norm_sq`` gives
without projecting.  Every mean-free Neumann Poisson inverse, in
``leray_project``, ``helmholtz_project_velocity`` and ``projected_norm_sq``,
is the one table ``Grid.inv_lam_neumann``.  The inverse Helmholtz symbols of
``helmholtz_project_velocity`` depend on the coefficient too: they are built
once per grid and coefficient (``grid.solve_table``).
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft

from .errors import InvariantViolation, NonpositiveViscosity
from .grid import (Grid, ScalarField, VectorField, complex_r2r, require_same_grid,
                   solve_table)

__all__ = [
    "divergence", "gradient", "laplacian_neumann", "helmholtz_solve_neumann",
    "helmholtz_solve_velocity", "helmholtz_project_velocity", "leray_project",
    "advect_scalar", "advect_velocity", "viscous_term", "inner", "inner_vec", "l2", "h1",
    "hminus1", "parseval_sum", "projected_norm_sq", "grad_norm_sq", "vector_laplacian",
    "v1_norm", "v2_norm", "h2_norm_sq", "interp_center_to_xface", "interp_center_to_yface",
]


def _west(a: np.ndarray) -> np.ndarray:
    """out[i] = a[i - 1], periodic in x: np.roll(a, 1, axis=0) by two slice copies."""
    out = np.empty_like(a)
    out[1:] = a[:-1]
    out[0] = a[-1]
    return out


def _east(a: np.ndarray) -> np.ndarray:
    """out[i] = a[i + 1], periodic in x: np.roll(a, -1, axis=0)."""
    out = np.empty_like(a)
    out[:-1] = a[1:]
    out[-1] = a[0]
    return out


def _xx(a: np.ndarray, dx2: float) -> np.ndarray:
    """(_east(a) - 2 a + _west(a)) / dx2 in that order, without the shifted copies."""
    two_a = 2.0 * a
    out = np.empty_like(two_a)
    np.subtract(a[1:], two_a[:-1], out=out[:-1])
    np.subtract(a[0], two_a[-1], out=out[-1])
    out[1:] += a[:-1]
    out[0] += a[-1]
    out /= dx2
    return out


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def divergence(v: VectorField) -> ScalarField:
    """Centered MAC divergence at cell centers."""
    g = v.grid
    if np.any(v.uy[:, 0] != 0.0) or np.any(v.uy[:, -1] != 0.0):
        raise InvariantViolation("divergence: nonzero wall-normal velocity")
    ddx = (_east(v.ux) - v.ux) / g.dx
    ddy = (v.uy[:, 1:] - v.uy[:, :-1]) / g.dy
    return ScalarField._trusted(ddx + ddy, g)


def gradient(s: ScalarField) -> VectorField:
    """Face-located centered gradient; wall-normal rows are zero (no-flux closure)."""
    g = s.grid
    gx = (s.values - _west(s.values)) / g.dx
    gy = np.zeros((g.nx, g.ny + 1))
    gy[:, 1:-1] = (s.values[:, 1:] - s.values[:, :-1]) / g.dy
    return VectorField._trusted(gx, gy, g)


def laplacian_neumann(s: ScalarField) -> ScalarField:
    """5-point Laplacian, periodic in x, reflecting ghosts at the walls.

    Identical to divergence(gradient(s)), so it annihilates constants and
    preserves the mean exactly.
    """
    g = s.grid
    a = s.values
    out = _xx(a, g.dx**2)
    d = a[:, 1:] - a[:, :-1]
    ydiff = np.zeros_like(a)
    ydiff[:, :-1] += d
    ydiff[:, 1:] -= d           # adds a[:, :-1] - a[:, 1:], the same difference negated
    ydiff /= g.dy**2
    out += ydiff
    return ScalarField._trusted(out, g)


# ---------------------------------------------------------------------------
# transform solvers
# ---------------------------------------------------------------------------

def helmholtz_solve_neumann(rhs: ScalarField, a: float, b: float) -> ScalarField:
    """Solve (a*I - b*Lap) s = rhs with the periodic/Neumann closure, exactly (a, b > 0)."""
    if not (a > 0 and b > 0):
        raise InvariantViolation(f"helmholtz_solve_neumann: need a, b > 0, got {a!r}, {b!r}")
    g = rhs.grid
    coeffs = g.to_spectral(rhs.values)
    return ScalarField._trusted(g.from_spectral(coeffs / (a - b * g.lam_neumann)), g)


# Tangential wall data: None (homogeneous walls) or the (bottom, top) pair.
Walls = tuple[np.ndarray, np.ndarray] | None


def _dy_ux(ux: np.ndarray, walls: Walls, dy: float) -> np.ndarray:
    """D_y u_x at the corner rows 0..ny; the wall rows see the ghosts ``2 g - interior``."""
    gb, gt = (0.0, 0.0) if walls is None else walls
    out = np.empty((ux.shape[0], ux.shape[1] + 1))
    inner = np.subtract(ux[:, 1:], ux[:, :-1], out=out[:, 1:-1])   # no temporaries
    inner /= dy
    out[:, 0] = 2.0 * (ux[:, 0] - gb) / dy
    out[:, -1] = 2.0 * (gt - ux[:, -1]) / dy
    return out


def _fold_wall_data(rx: np.ndarray, coeff: float, g: Grid, walls: Walls) -> np.ndarray:
    """The x-velocity right-hand side with the ghosts of ``_dy_ux`` folded in."""
    if walls is None:
        return rx
    gb, gt = walls
    rx = rx.copy()
    rx[:, 0] += coeff * 2.0 * gb / g.dy**2
    rx[:, -1] += coeff * 2.0 * gt / g.dy**2
    return rx


def helmholtz_solve_velocity(rhs: VectorField, coeff: float, walls: Walls = None) -> VectorField:
    """Solve (I - coeff*Lap) u = rhs component-wise on the staggered layout, exactly.

    ux is solved by the rfft in x and DST-II in y, the interior rows of uy
    by the rfft and DST-I; the wall rows of uy stay zero.  Tangential wall
    data enters through the ghosts of ``vector_laplacian``.
    """
    g = rhs.grid
    rx = _fold_wall_data(rhs.ux, coeff, g, walls)
    ux = g.solve_helmholtz_ux(rx, coeff)
    uy = np.zeros((g.nx, g.ny + 1))
    uy[:, 1:-1] = g.solve_helmholtz_uy(rhs.uy[:, 1:-1], coeff)
    return VectorField._trusted(ux, uy, g)


def leray_project(v: VectorField) -> tuple[VectorField, ScalarField]:
    """Orthogonal projection onto discretely divergence-free fields.

    Returns (Pv, q) with Pv = v - gradient(q), divergence(Pv) = 0 to
    round-off, and q zero-mean.
    """
    g = v.grid
    coeffs = g.to_spectral(divergence(v).values)
    coeffs *= g.inv_lam_neumann     # zero on the mean mode, where mean(div) = 0 anyway
    q = ScalarField._trusted(g.from_spectral(coeffs), g)
    return v - gradient(q), q


def _helmholtz_symbols(g: Grid, coeff: float) -> tuple[np.ndarray, np.ndarray]:
    """1 / (1 - coeff (lam_x + lam_y)) on the DST-II (ux) and DST-I (interior uy) layouts."""
    lam_x = g.lam_x[:, None]
    return (1.0 / (1.0 - coeff * (lam_x + g.lam_y_dst2)),
            1.0 / (1.0 - coeff * (lam_x + g.lam_y_dst1)))


def helmholtz_project_velocity(rhs: VectorField, coeff: float,
                               walls: Walls = None) -> tuple[VectorField, ScalarField]:
    """``leray_project(helmholtz_solve_velocity(rhs, coeff, ...))`` in one pass.

    The whole solve stays in x-Fourier space: the DST-II and DST-I Helmholtz
    solves of ``helmholtz_solve_velocity`` transform back in y only; the MAC
    divergence is the x-symbol ``Grid.ddx_east`` plus a y-difference; the
    Neumann Poisson solve of ``leray_project`` is a DCT-II pair in y; the
    pressure gradient is ``Grid.ddx_west`` plus a y-difference.  Three
    inverse rffts at the end give (Pu, q), 11 transforms in all.  The
    discrete operators are those of the composition; only the summation
    order differs.
    """
    g = rhs.grid
    rx = _fold_wall_data(rhs.ux, coeff, g, walls)
    # complex arrays are scaled by real reciprocals: a product, not a division
    inv_x, inv_y = solve_table("helmholtz", g, coeff, lambda: _helmholtz_symbols(g, coeff))
    ux_hat = complex_r2r(sfft.dst, sfft.rfft(rx, axis=0), 2, overwrite_x=True)
    ux_hat *= inv_x
    ux_hat = complex_r2r(sfft.idst, ux_hat, 2, overwrite_x=True)
    uy_hat = np.zeros((g.nx // 2 + 1, g.ny + 1), dtype=complex)
    c = complex_r2r(sfft.dst, sfft.rfft(rhs.uy[:, 1:-1], axis=0), 1, overwrite_x=True)
    c *= inv_y
    uy_hat[:, 1:-1] = complex_r2r(sfft.idst, c, 1, overwrite_x=True)

    inv_dy = 1.0 / g.dy
    div = g.ddx_east[:, None] * ux_hat
    ddy = uy_hat[:, 1:] - uy_hat[:, :-1]
    ddy *= inv_dy
    div += ddy
    c = complex_r2r(sfft.dct, div, 2, overwrite_x=True)
    c *= g.inv_lam_neumann      # zero on the mean mode, where mean(div) = 0 anyway
    q_hat = complex_r2r(sfft.idct, c, 2, overwrite_x=True)

    ux_hat -= g.ddx_west[:, None] * q_hat
    ddy = q_hat[:, 1:] - q_hat[:, :-1]
    ddy *= inv_dy
    uy_hat[:, 1:-1] -= ddy
    ux = sfft.irfft(ux_hat, axis=0, n=g.nx)
    uy = sfft.irfft(uy_hat, axis=0, n=g.nx)
    q = sfft.irfft(q_hat, axis=0, n=g.nx)
    return VectorField._trusted(ux, uy, g), ScalarField._trusted(q, g)


# ---------------------------------------------------------------------------
# advection
# ---------------------------------------------------------------------------

def interp_center_to_xface(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _west(a))


def interp_center_to_yface(a: np.ndarray) -> np.ndarray:
    """Interior horizontal faces only; callers supply wall values."""
    return 0.5 * (a[:, 1:] + a[:, :-1])


def advect_scalar(v: VectorField, s: ScalarField) -> ScalarField:
    """Conservative transport term div(v s) with centered face values."""
    require_same_grid(v, s)
    g = v.grid
    a = s.values
    # the face fluxes v * interp(s) and their divergence, operation for
    # operation, without the shifted copies (fy's wall rows are zero)
    fx = np.empty_like(a)
    np.add(a[1:], a[:-1], out=fx[1:])
    np.add(a[0], a[-1], out=fx[0])
    fx *= 0.5
    fx *= v.ux
    fy = np.zeros((g.nx, g.ny + 1))
    inner = np.add(a[:, 1:], a[:, :-1], out=fy[:, 1:-1])
    inner *= 0.5
    inner *= v.uy[:, 1:-1]
    out = np.empty_like(fx)
    np.subtract(fx[1:], fx[:-1], out=out[:-1])
    np.subtract(fx[0], fx[-1], out=out[-1])
    out /= g.dx
    ddy = fy[:, 1:] - fy[:, :-1]
    ddy /= g.dy
    out += ddy
    return ScalarField._trusted(out, g)


def advect_velocity(v: VectorField, w: VectorField) -> VectorField:
    """Conservative MAC transport of w by v, component by component.

    Each component is advected on its dual cell with the advecting normal
    velocity interpolated there; the dual divergence is the average of the
    primal one, so skew-symmetry holds exactly for discretely
    divergence-free v.
    """
    require_same_grid(v, w)
    g = v.grid
    dx, dy = g.dx, g.dy

    # x-component: dual cells centered on vertical faces.
    uc = 0.5 * (v.ux + _east(v.ux))                          # at cell centers
    fe = uc * 0.5 * (w.ux + _east(w.ux))                     # east/west dual fluxes
    vcorn = 0.5 * (v.uy + _west(v.uy))                       # at corners, rows 0..ny
    fn = np.zeros((g.nx, g.ny + 1))
    fn[:, 1:-1] = vcorn[:, 1:-1] * 0.5 * (w.ux[:, 1:] + w.ux[:, :-1])
    adv_x = (fe - _west(fe)) / dx + (fn[:, 1:] - fn[:, :-1]) / dy

    # y-component: dual cells centered on interior horizontal faces.
    ucorn = np.zeros((g.nx, g.ny + 1))
    ucorn[:, 1:-1] = 0.5 * (v.ux[:, 1:] + v.ux[:, :-1])      # at corners
    fxc = np.zeros((g.nx, g.ny + 1))
    fxc[:, 1:-1] = ucorn[:, 1:-1] * 0.5 * (w.uy[:, 1:-1] + _west(w.uy[:, 1:-1]))
    vc = 0.5 * (v.uy[:, 1:] + v.uy[:, :-1])                  # at cell centers
    fyc = vc * 0.5 * (w.uy[:, 1:] + w.uy[:, :-1])
    adv_y = np.zeros((g.nx, g.ny + 1))
    adv_y[:, 1:-1] = (_east(fxc[:, 1:-1]) - fxc[:, 1:-1]) / dx \
        + (fyc[:, 1:] - fyc[:, :-1]) / dy
    return VectorField._trusted(adv_x, adv_y, g)


# ---------------------------------------------------------------------------
# viscous stress
# ---------------------------------------------------------------------------

def _nu_at_corners(nu: np.ndarray) -> np.ndarray:
    """Viscosity averaged to corner points, rows 0..ny (reflecting wall ghosts)."""
    nx, ny = nu.shape
    out = np.zeros((nx, ny + 1))
    avg_x = 0.5 * (nu + _west(nu))
    out[:, 1:-1] = 0.5 * (avg_x[:, 1:] + avg_x[:, :-1])
    out[:, 0] = avg_x[:, 0]
    out[:, -1] = avg_x[:, -1]
    return out


def viscous_term(nu_field: ScalarField, v: VectorField, walls: Walls = None) -> VectorField:
    """Divergence of the viscous stress nu * sym(grad v).

    For constant nu and divergence-free v this is nu/2 times the vector
    Laplacian.  Tangential wall data enters through linear ghosts; with the
    default homogeneous data the operator is symmetric negative
    semi-definite against v.
    """
    require_same_grid(nu_field, v)
    g = v.grid
    nu = nu_field.values
    if np.any(nu <= 0.0):
        raise NonpositiveViscosity(f"viscosity min = {nu.min():.3e}")

    dx, dy = g.dx, g.dy
    # Normal stresses at cell centers.
    txx = nu * (_east(v.ux) - v.ux) / dx
    tyy = nu * (v.uy[:, 1:] - v.uy[:, :-1]) / dy

    # Shear stress at corners (rows 0..ny); ghost rows encode the wall data.
    dyux = _dy_ux(v.ux, walls, dy)
    dxuy = (v.uy - _west(v.uy)) / dx
    txy = _nu_at_corners(nu) * 0.5 * (dyux + dxuy)

    out_x = (txx - _west(txx)) / dx + (txy[:, 1:] - txy[:, :-1]) / dy
    out_y = np.zeros((g.nx, g.ny + 1))
    out_y[:, 1:-1] = (_east(txy[:, 1:-1]) - txy[:, 1:-1]) / dx \
        + (tyy[:, 1:] - tyy[:, :-1]) / dy
    return VectorField._trusted(out_x, out_y, g)


def vector_laplacian(v: VectorField, walls: Walls = None) -> VectorField:
    """Component-wise 5-point Laplacian with tangential Dirichlet ghosts.

    The y-part of the x-component is D_y of the corner quotient ``_dy_ux``.
    """
    g = v.grid
    dx2, dy2 = g.dx**2, g.dy**2

    a = v.ux
    lap_x = _xx(a, dx2)
    dyux = _dy_ux(a, walls, g.dy)
    ddy = dyux[:, 1:] - dyux[:, :-1]
    ddy /= g.dy
    lap_x += ddy

    b = v.uy
    yy = b[:, 2:] - 2.0 * b[:, 1:-1]
    yy += b[:, :-2]
    yy /= dy2
    lap_y = np.zeros_like(b)
    np.add(_xx(b[:, 1:-1], dx2), yy, out=lap_y[:, 1:-1])
    return VectorField._trusted(lap_x, lap_y, g)


# ---------------------------------------------------------------------------
# inner products and norms (midpoint quadrature throughout)
# ---------------------------------------------------------------------------

def inner(a: ScalarField, b: ScalarField) -> float:
    require_same_grid(a, b)
    return float(a.grid.cell_area * np.vdot(a.values, b.values))


def inner_vec(a: VectorField, b: VectorField) -> float:
    require_same_grid(a, b)
    w = a.grid.cell_area
    # uy's wall rows are exact zeros; a contiguous vdot is far cheaper than a strided one
    return float(w * (np.vdot(a.ux, b.ux) + np.vdot(a.uy, b.uy)))


def l2(f) -> float:
    if isinstance(f, ScalarField):
        return float(np.sqrt(inner(f, f)))
    return float(np.sqrt(inner_vec(f, f)))


def h1(s: ScalarField) -> float:
    return float(np.sqrt(l2(s)**2 + l2(gradient(s))**2))


def parseval_sum(g: Grid, power: np.ndarray):
    """dx dy sum_{k,m} wx_k wy_m power_km over the last two axes (stacks give stacks).

    For power = S |c|^2, c = Grid.to_spectral(s) and S the real symbol of a
    Neumann operator, this is <s, S s>: S = 1 gives |s|^2, -lam_neumann
    |gradient(s)|^2, lam_neumann^2 |Lap s|^2.  wx_k = 1/nx at k = 0 and at the
    Nyquist mode (one mode each), 2/nx at every other k (also standing for -k);
    the DCT-II weights are wy_0 = 1/(4 ny) and wy_m = 1/(2 ny) for m >= 1
    (the tables ``Grid.parseval_wx`` and ``Grid.parseval_wy``).
    """
    return g.cell_area * (g.parseval_wx @ power @ g.parseval_wy)


def hminus1(s: ScalarField) -> float:
    """Dual norm against the H1 pairing, sqrt(<s, (I - Lap)^{-1} s>), by Parseval."""
    g = s.grid
    return _hminus1_of(g, g.to_spectral(s.values))


def _hminus1_of(g: Grid, c: np.ndarray) -> float:
    """``hminus1`` of the field whose ``Grid.to_spectral`` coefficients are c."""
    return float(np.sqrt(parseval_sum(g, (c.real**2 + c.imag**2) / (1.0 - g.lam_neumann))))


def projected_norm_sq(v: VectorField) -> float:
    """``l2(leray_project(v)[0])**2`` without the projection.

    The projection is orthogonal, so |Pv|^2 = |v|^2 - |grad q|^2, and as
    gradient and divergence are negative adjoints |grad q|^2 is the Parseval
    sum of div v with the symbol -inv_lam_neumann.  A pure gradient v leaves
    round-off of either sign, so the difference is clamped at 0.
    """
    return _projected_norm_sq_of(v, v.grid.to_spectral(divergence(v).values))


def _projected_norm_sq_of(v: VectorField, c: np.ndarray) -> float:
    """``projected_norm_sq(v)`` given c, the ``Grid.to_spectral`` coefficients of div v."""
    g = v.grid
    grad_q_sq = parseval_sum(g, -(c.real**2 + c.imag**2) * g.inv_lam_neumann)
    return max(inner_vec(v, v) - float(grad_q_sq), 0.0)


def _xdiff_sq(a: np.ndarray) -> float:
    """Sum of the squared periodic x-differences a[i + 1] - a[i]."""
    d, e = a[1:] - a[:-1], a[0] - a[-1]
    return np.vdot(d, d) + np.vdot(e, e)


def _ydiff_sq(a: np.ndarray) -> float:
    """Sum of the squared differences a[:, j + 1] - a[:, j] of neighbouring rows."""
    d = a[:, 1:] - a[:, :-1]
    return np.vdot(d, d)


def grad_norm_sq(v: VectorField | ScalarField, walls: Walls = None) -> float:
    """Squared discrete gradient norm of a staggered vector field or of a scalar.

    Corner rows carry trapezoid weight 1/2 so that for homogeneous data the
    value equals -<vector_laplacian(v), v> exactly (the dissipation form).
    A scalar (reflecting walls) gives l2(gradient(s))**2; wall data is velocity's.
    """
    g = v.grid
    if isinstance(v, ScalarField):
        a = v.values
        return float(g.cell_area * (_xdiff_sq(a) / g.dx**2 + _ydiff_sq(a) / g.dy**2))
    # the corner differences of u_x with the ghosts of ``_dy_ux``, each in a
    # contiguous array: vdot sums a strided view in another order
    ux = v.ux
    gb, gt = (0.0, 0.0) if walls is None else walls
    inner = ux[:, 1:] - ux[:, :-1]
    b = 2.0 * (ux[:, 0] - gb)
    t = 2.0 * (gt - ux[:, -1])
    # uy's wall rows vanish, so only its interior rows have x-differences
    total = (_xdiff_sq(v.ux) + _xdiff_sq(v.uy[:, 1:-1])) / g.dx**2 \
        + (_ydiff_sq(v.uy) + np.vdot(inner, inner)
           + 0.5 * (np.vdot(b, b) + np.vdot(t, t))) / g.dy**2
    return float(g.cell_area * total)


def v1_norm(v: VectorField, walls: Walls = None) -> float:
    return float(np.sqrt(l2(v)**2 + grad_norm_sq(v, walls)))


def v2_norm(v: VectorField, walls: Walls = None) -> float:
    lap = vector_laplacian(v, walls)
    return float(np.sqrt(l2(v)**2 + grad_norm_sq(v, walls) + l2(lap)**2))


def h2_norm_sq(s: ScalarField) -> float:
    return l2(s)**2 + l2(gradient(s))**2 + l2(laplacian_neumann(s))**2

