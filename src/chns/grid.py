"""Staggered periodic-channel grid and the fields that live on it.

The domain is [0, Lx) x [0, Ly], periodic in x with solid walls at y = 0 and
y = Ly.  Scalars sit at cell centers ((i+1/2)dx, (j+1/2)dy); the x-velocity
sits on vertical faces (i dx, (j+1/2)dy); the y-velocity sits on horizontal
faces ((i+1/2)dx, j dy) with the two wall rows pinned to zero (impermeable
walls).  All constant-coefficient solves are diagonalized by a real FFT in x
combined with cosine/sine transforms in y, so the package never needs an
iterative tolerance for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import InvariantViolation


class Grid:
    """Immutable uniform MAC grid with cached transform eigenvalues.

    A Grid may be shared freely across threads: construction precomputes
    every wavenumber/eigenvalue table and nothing is mutated afterwards.
    Grids compare and hash by ``key``.  The tables that also depend on a
    solve coefficient are built once per grid and coefficient, read-only,
    by the ``functools.lru_cache`` builders ``ops._helmholtz_symbols`` and
    ``solver._ch_denominator``, so equal grids share them.
    """

    def __init__(self, nx: int, ny: int, lx: float = 1.0, ly: float = 1.0):
        # int() would truncate 16.5 to 16; nan and inf are not whole either
        if not (float(nx).is_integer() and float(ny).is_integer()):
            raise InvariantViolation(f"nx and ny must be whole numbers, got {nx!r} x {ny!r}")
        if nx < 4 or ny < 4:
            raise InvariantViolation(f"need nx, ny >= 4, got {nx} x {ny}")
        if nx % 2 != 0:
            raise InvariantViolation(f"nx must be even for the real FFT, got {nx}")
        if not (0 < lx < math.inf and 0 < ly < math.inf):      # nan fails too
            raise InvariantViolation(f"domain lengths must be positive and finite, "
                                     f"got {lx!r} x {ly!r}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.lx = float(lx)
        self.ly = float(ly)
        self.dx = self.lx / self.nx
        self.dy = self.ly / self.ny

        # Cell-center and face coordinates.
        self.xc = (np.arange(self.nx) + 0.5) * self.dx
        self.yc = (np.arange(self.ny) + 0.5) * self.dy
        self.xf = np.arange(self.nx) * self.dx          # vertical-face x positions
        self.yf = np.arange(self.ny + 1) * self.dy      # horizontal-face y positions

        # Eigenvalues of the discrete 1D second-difference operators.
        k = np.arange(self.nx // 2 + 1)
        self.lam_x = -(2.0 / self.dx**2) * (1.0 - np.cos(2.0 * np.pi * k / self.nx))
        # rfft symbols of the periodic first differences (a[i+1] - a[i])/dx and
        # (a[i] - a[i-1])/dx; e^(i t) - 1 = -2 sin^2(t/2) + i sin(t) keeps the
        # real part exact, and ddx_east * ddx_west = lam_x.
        theta = 2.0 * np.pi * k / self.nx
        self.ddx_east = (-2.0 * np.sin(0.5 * theta)**2 + 1j * np.sin(theta)) / self.dx
        self.ddx_west = (2.0 * np.sin(0.5 * theta)**2 + 1j * np.sin(theta)) / self.dx
        m = np.arange(self.ny)
        self.lam_y_cos = -(2.0 / self.dy**2) * (1.0 - np.cos(np.pi * m / self.ny))
        # Half-sample Dirichlet rows (x-velocity): DST-II modes sin(pi(m+1)(j+1/2)/ny).
        self.lam_y_dst2 = -(2.0 / self.dy**2) * (1.0 - np.cos(np.pi * (m + 1) / self.ny))
        # Whole-sample Dirichlet interior rows (y-velocity): DST-I modes sin(pi m j/ny).
        mi = np.arange(1, self.ny)
        self.lam_y_dst1 = -(2.0 / self.dy**2) * (1.0 - np.cos(np.pi * mi / self.ny))

        # Neumann Laplacian symbol on the scalar transform layout.
        self.lam_neumann = self.lam_x[:, None] + self.lam_y_cos[None, :]
        # its inverse on the mean-free modes and 0 on the mean: the one mean-free Poisson inverse
        self.inv_lam_neumann = np.zeros_like(self.lam_neumann)
        self.inv_lam_neumann.flat[1:] = 1.0 / self.lam_neumann.flat[1:]
        # Smallest velocity-space eigenvalue of -Laplacian (discrete Poincare constant).
        self.poincare_lambda1 = min(-self.lam_y_dst2[0], -self.lam_y_dst1[0])
        # Parseval weights of the scalar transform layout (see ``ops.parseval_sum``).
        self.parseval_wx = np.full(self.nx // 2 + 1, 2.0 / self.nx)
        self.parseval_wx[0] = self.parseval_wx[-1] = 1.0 / self.nx
        self.parseval_wy = np.full(self.ny, 1.0 / (2 * self.ny))
        self.parseval_wy[0] = 1.0 / (4 * self.ny)

    @property
    def key(self) -> tuple:
        return (self.nx, self.ny, self.lx, self.ly)

    def __eq__(self, other):
        return isinstance(other, Grid) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def __repr__(self):
        return f"Grid({self.nx}x{self.ny}, lx={self.lx}, ly={self.ly})"

    # -- scalar transforms (periodic x, even/cosine y) ----------------------

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Forward transform over the last two axes (stacks too): rfft in x, DCT-II in y."""
        return complex_r2r(sfft.dct, sfft.rfft(values, axis=-2), 2, overwrite_x=True)

    def from_spectral(self, coeffs: np.ndarray) -> np.ndarray:
        return sfft.irfft(complex_r2r(sfft.idct, coeffs, 2), axis=0, n=self.nx)

    # -- velocity-component transforms for implicit solves -------------------

    def solve_helmholtz_ux(self, rhs: np.ndarray, coeff: float) -> np.ndarray:
        """Solve (I - coeff*Lap) s = rhs on the x-velocity layout.

        The y-direction closure is half-sample Dirichlet (odd ghost rows);
        boundary data must already be folded into rhs by the caller.
        """
        shat = sfft.dst(sfft.rfft(rhs, axis=0), type=2, axis=1)
        shat /= 1.0 - coeff * (self.lam_x[:, None] + self.lam_y_dst2[None, :])
        return sfft.irfft(sfft.idst(shat, type=2, axis=1), axis=0, n=self.nx)

    def solve_helmholtz_uy(self, rhs_interior: np.ndarray, coeff: float) -> np.ndarray:
        """Same solve on the interior rows of the y-velocity layout (walls pinned)."""
        shat = sfft.dst(sfft.rfft(rhs_interior, axis=0), type=1, axis=1)
        shat /= 1.0 - coeff * (self.lam_x[:, None] + self.lam_y_dst1[None, :])
        return sfft.irfft(sfft.idst(shat, type=1, axis=1), axis=0, n=self.nx)


def complex_r2r(transform, c: np.ndarray, type: int, overwrite_x: bool = False) -> np.ndarray:
    """``transform(c, type=type, axis=-1)`` for a complex array c, in one call.

    ``transform`` is a real DCT or DST of ``scipy.fft``, which takes a complex
    input as two transforms, of the real and of the imaginary part.  Along
    axis -2 of the real view (..., n, 2) of c one transform takes both, with
    the same values.
    """
    c = np.ascontiguousarray(c, dtype=np.complex128)      # no copy for a solve's arrays
    out = transform(c.view(np.float64).reshape(*c.shape, 2), type=type, axis=-2,
                    overwrite_x=overwrite_x)
    return out.view(np.complex128).reshape(c.shape)


def _as_array(values, shape, what):
    a = np.asarray(values, dtype=float)
    if a.shape != shape:
        raise InvariantViolation(f"{what}: expected shape {shape}, got {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Cell-centered scalar (order parameter, chemical potential, pressure, ...).

    Fields compare and hash by identity: their arrays have no single truth value.
    """

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _as_array(self.values, (self.grid.nx, self.grid.ny), "ScalarField"))

    @classmethod
    def _trusted(cls, values: np.ndarray, grid: Grid) -> "ScalarField":
        """Wrap a float array of the right shape that the package built itself.

        Skips the checks of the public constructor, which stay for every
        array that comes from outside the package.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "values", values)
        object.__setattr__(f, "grid", grid)
        return f

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(np.zeros((grid.nx, grid.ny)), grid)

    @classmethod
    def from_function(cls, grid: Grid, f) -> "ScalarField":
        xx, yy = np.meshgrid(grid.xc, grid.yc, indexing="ij")
        return cls(np.asarray(f(xx, yy), dtype=float), grid)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    def mean(self) -> float:
        return float(self.values.mean())

    def copy(self) -> "ScalarField":
        return ScalarField._trusted(self.values.copy(), self.grid)

    def __add__(self, other):
        return ScalarField._trusted(self.values + other.values, self.grid)

    def __sub__(self, other):
        return ScalarField._trusted(self.values - other.values, self.grid)

    def __mul__(self, a: float):
        return ScalarField._trusted(self.values * a, self.grid)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class VectorField:
    """Face-staggered velocity; wall rows of the y-component are identically zero.

    Compares and hashes by identity, as ``ScalarField`` does.
    """

    ux: np.ndarray
    uy: np.ndarray
    grid: Grid

    def __post_init__(self):
        g = self.grid
        object.__setattr__(self, "ux", _as_array(self.ux, (g.nx, g.ny), "VectorField.ux"))
        object.__setattr__(self, "uy", _as_array(self.uy, (g.nx, g.ny + 1), "VectorField.uy"))
        if np.any(self.uy[:, 0] != 0.0) or np.any(self.uy[:, -1] != 0.0):
            raise InvariantViolation("VectorField: wall rows of uy must be exactly zero")

    @classmethod
    def _trusted(cls, ux: np.ndarray, uy: np.ndarray, grid: Grid) -> "VectorField":
        """Wrap float component arrays that the package built itself.

        The caller guarantees the shapes and exactly-zero uy wall rows; the
        public constructor keeps checking every field from outside.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "ux", ux)
        object.__setattr__(f, "uy", uy)
        object.__setattr__(f, "grid", grid)
        return f

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(np.zeros((grid.nx, grid.ny)), np.zeros((grid.nx, grid.ny + 1)), grid)

    @classmethod
    def from_components(cls, grid: Grid, fx, fy) -> "VectorField":
        """Sample component functions at their native face positions (walls forced to 0)."""
        xxf, yyc = np.meshgrid(grid.xf, grid.yc, indexing="ij")
        xxc, yyf = np.meshgrid(grid.xc, grid.yf, indexing="ij")
        uy = np.asarray(fy(xxc, yyf), dtype=float)
        uy[:, 0] = 0.0
        uy[:, -1] = 0.0
        return cls(np.asarray(fx(xxf, yyc), dtype=float), uy, grid)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.ux).all() and np.isfinite(self.uy).all())

    def max_abs(self) -> float:
        """max |u| over both components; a NaN in either propagates.

        Read off each component's max and min, so no |u| array is formed.
        """
        ux, uy = self.ux, self.uy
        # np.max keeps a NaN that Python's max drops; abs turns a -0.0 into 0.0
        return abs(float(np.max((ux.max(), -ux.min(), uy.max(), -uy.min()))))

    def __add__(self, other):
        return VectorField._trusted(self.ux + other.ux, self.uy + other.uy, self.grid)

    def __sub__(self, other):
        return VectorField._trusted(self.ux - other.ux, self.uy - other.uy, self.grid)

    def __mul__(self, a: float):
        return VectorField._trusted(self.ux * a, self.uy * a, self.grid)

    __rmul__ = __mul__


def require_same_grid(*objs):
    keys = {o.grid.key for o in objs}
    if len(keys) > 1:
        raise InvariantViolation(f"fields live on different grids: {sorted(keys)}")


def whole_steps(span: float, dt: float, what: str) -> int:
    """The number of dt steps in a time span that holds a whole number of them.

    A span such as t_end = 0.1 at dt = 0.0015 would otherwise be rounded to a
    different time (0.1005) without notice.  dt must be positive and finite,
    the span nonnegative and finite.
    """
    # every comparison with nan is false, so nan fails its check
    if not 0 < dt < math.inf:
        raise InvariantViolation(f"dt must be positive and finite, got {dt!r}")
    if not 0 <= span < math.inf:
        raise InvariantViolation(f"{what} must be nonnegative and finite, got {span!r}")
    n = round(span / dt)
    if not math.isclose(n * dt, span, rel_tol=1e-9):
        raise InvariantViolation(f"{what} = {span!r} is not a whole number of "
                                 f"steps dt = {dt!r}")
    return n
