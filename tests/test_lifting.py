import dataclasses
import gc
import math
import types
import weakref

import numpy as np
import pytest
import scipy.fft as sfft

from chns import lifting
from chns.boundary import Amplitude, WallData, extrapolated_wall_trace, wall_profile
from chns.config import (RunConfig, build_grid, build_initial_phi, build_initial_u,
                         build_solver_config, build_wall_data)
from chns.diagnostics import DiagnosticsContext
from chns.errors import InvariantViolation, SolverDiverged
from chns.grid import Grid, ScalarField, VectorField
from chns.lifting import (EllipticLift, ParabolicLift, StationaryStokes,
                          lift_difference_report, momentum_residual, run_lift_pair)
from chns.ops import (divergence, gradient, helmholtz_project_velocity, l2, leray_project,
                      v1_norm, v2_norm, vector_laplacian)
from chns.solver import Simulation

NU1 = 0.8


def make_data(grid, profile_top="uniform", amp=None):
    amp = amp or Amplitude("custom_static", a0=1.0)
    return WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, profile_top), amp)


def couette_exact(grid, U=1.0):
    return VectorField(np.tile(U * grid.yc / grid.ly, (grid.nx, 1)),
                       np.zeros((grid.nx, grid.ny + 1)), grid)


def restrict_vector(fine: VectorField, coarse: Grid) -> VectorField:
    """Average fine-grid face values onto coarse faces (factor-2 refinement)."""
    r = fine.grid.nx // coarse.nx
    assert r * coarse.nx == fine.grid.nx and r * coarse.ny == fine.grid.ny
    ux = np.zeros((coarse.nx, coarse.ny))
    for j in range(coarse.ny):
        rows = fine.ux[::r, r * j:r * (j + 1)]
        ux[:, j] = rows.mean(axis=1)
    uy = np.zeros((coarse.nx, coarse.ny + 1))
    for j in range(coarse.ny + 1):
        cols = fine.uy[:, r * j]
        uy[:, j] = cols.reshape(coarse.nx, r).mean(axis=1)
    uy[:, 0] = 0.0
    uy[:, -1] = 0.0
    return VectorField(ux, uy, coarse)


class TestEllipticLift:
    def test_zero_data_zero_lift(self):
        grid = Grid(32, 32)
        ell = EllipticLift(grid, NU1, WallData.zero(grid))
        assert l2(ell.unit_u) == 0.0 and l2(ell.unit_p) == 0.0

    def test_couette_exact(self):
        for n in (16, 32, 48):
            grid = Grid(n, n)
            ell = EllipticLift(grid, NU1, make_data(grid))
            exact = couette_exact(grid)
            assert np.abs(ell.unit_u.ux - exact.ux).max() < 1e-10
            assert np.abs(ell.unit_u.uy).max() < 1e-12

    def test_single_mode_residual_and_divergence(self):
        grid = Grid(48, 48)
        data = make_data(grid, "single_mode:1")
        ell = EllipticLift(grid, NU1, data)
        res = momentum_residual(ell.unit_u, ell.unit_p, NU1, (data.g_bottom, data.g_top))
        bound = 1e-8 * NU1 * math.sqrt(data.shape_trace_norm_sq(1.5)) + 1e-12
        assert res <= bound
        assert l2(divergence(ell.unit_u)) < 1e-11

    def test_wall_trace_second_order(self):
        errs = []
        for n in (32, 64):
            grid = Grid(n, n)
            data = make_data(grid, "single_mode:1")
            ell = EllipticLift(grid, NU1, data)
            trace_top = 1.5 * ell.unit_u.ux[:, -1] - 0.5 * ell.unit_u.ux[:, -2]
            errs.append(np.abs(trace_top - data.g_top).max())
        assert errs[1] < 0.35 * errs[0]

    def test_linearity(self):
        grid = Grid(32, 32)
        d1 = make_data(grid, "single_mode:1")
        g3 = 3.0 * d1.g_top
        d3 = WallData(grid, d1.g_bottom, g3, d1.amplitude)
        e1 = EllipticLift(grid, NU1, d1)
        e3 = EllipticLift(grid, NU1, d3)
        assert l2(e3.unit_u - 3.0 * e1.unit_u) < 1e-9 * l2(e3.unit_u)

    def test_refinement_oracle(self):
        """Coarse lifts converge to the fine-grid solve at second order."""
        fine = Grid(128, 128)
        ref = EllipticLift(fine, NU1, make_data(fine, "single_mode:1")).unit_u
        errs = []
        for n in (32, 64):
            g = Grid(n, n)
            lift = EllipticLift(g, NU1, make_data(g, "single_mode:1")).unit_u
            errs.append(l2(lift - restrict_vector(ref, g)))
        assert errs[1] < 0.35 * errs[0]

    def test_regularity_ratio_stable_under_refinement(self):
        ratios = []
        for n in (32, 128):
            g = Grid(n, n)
            data = make_data(g, "single_mode:1")
            ell = EllipticLift(g, NU1, data)
            v2 = v2_norm(ell.unit_u, (data.g_bottom, data.g_top))
            ratios.append(v2 / math.sqrt(data.shape_trace_norm_sq(1.5)))
        assert abs(ratios[1] / ratios[0] - 1.0) < 0.2

    def test_amplitude_scaling_and_dt(self):
        grid = Grid(32, 32)
        amp = Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0)
        ell = EllipticLift(grid, NU1, make_data(grid, "uniform", amp))
        u1, _ = ell.at(1.0)
        assert l2(u1 - (1 - math.exp(-1)) * ell.unit_u) < 1e-14
        # exponential amplitude: d/dt u_e = -rate * (u_e - u_inf)
        eps = 1e-4
        up, _ = ell.at(1.0 + eps)
        um, _ = ell.at(1.0 - eps)
        fd = (1.0 / (2 * eps)) * (up - um)
        assert l2(fd - ell.dt_at(1.0)) < 1e-7 * max(l2(ell.dt_at(1.0)), 1.0)

    def test_static_data_has_zero_dt(self):
        grid = Grid(32, 32)
        ell = EllipticLift(grid, NU1, make_data(grid))
        assert l2(ell.dt_at(2.0)) == 0.0


class TestLiftCache:
    def test_one_solve_per_wall_data_grid_and_nu1(self, monkeypatch):
        cfg = RunConfig(nx=16, ny=16, family="couette_ramp", a0=1.0, a_inf=0.5,
                        g_bottom="single_mode:1", g_top="uniform", u_profile="lift",
                        mode="lifted_elliptic")
        grid = build_grid(cfg)
        data = build_wall_data(cfg, grid)
        solves = []
        solve = StationaryStokes.solve
        monkeypatch.setattr(StationaryStokes, "solve",
                            lambda self, walls: solves.append(self.nu1) or solve(self, walls))
        first = EllipticLift(grid, cfg.nu1, data)
        second = EllipticLift(grid, cfg.nu1, data)
        u0 = build_initial_u(cfg, grid, data)
        ctx = DiagnosticsContext.for_run(grid, build_solver_config(cfg), data)
        # the evolutionary lift starts at the cached stationary one
        parabolic = build_solver_config(dataclasses.replace(cfg, mode="lifted_parabolic"))
        Simulation(grid, parabolic, data, build_initial_phi(cfg, grid), u0)
        assert solves == [cfg.nu1]
        assert second.unit_u is first.unit_u
        assert np.array_equal(u0.ux, first.at(0.0)[0].ux)
        assert ctx.stationary.unit_u is first.unit_u

        other = EllipticLift(grid, 2 * cfg.nu1, data)
        assert solves == [cfg.nu1, 2 * cfg.nu1]
        assert l2(other.unit_p - first.unit_p) > 0.0

    def test_unit_lift_lives_as_long_as_its_wall_data(self):
        grid = Grid(16, 16)
        data = make_data(grid, "single_mode:1")
        ell = EllipticLift(grid, NU1, data)
        assert list(lifting._UNIT_LIFTS[data]) == [NU1]
        data_ref, unit_ref = weakref.ref(data), weakref.ref(ell.unit_u)
        del data, ell
        gc.collect()
        assert data_ref() is None and unit_ref() is None

    def test_cached_fields_and_wall_shapes_are_read_only(self):
        grid = Grid(16, 16)
        top = wall_profile(grid, "uniform")
        data = WallData(grid, wall_profile(grid, "zero"), top,
                        Amplitude("custom_static", a0=1.0))
        ell = EllipticLift(grid, NU1, data)
        top[:] = 2.0                                  # the caller's array is copied
        assert np.all(data.g_top == 1.0)
        rows, ux_hat, uy_hat = ell.x_modes            # the unit lift's x-Fourier rows
        assert rows.tolist() == [0]
        for arr in (data.g_top, ell.unit_u.ux, ell.unit_u.uy, ell.unit_p.values,
                    rows, ux_hat, uy_hat):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


    def test_x_modes_built_once_per_lift(self, monkeypatch):
        """K and U's rows come from the stationary solve: the lift build
        transforms the two wall shapes and never the unit lift, and neither
        the build nor a step has an inverse rfft to call."""
        grid = Grid(16, 16)
        data = make_data(grid, "single_mode:1",
                         Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0))
        rffts = []
        monkeypatch.setattr(lifting, "sfft", types.SimpleNamespace(
            **{name: getattr(sfft, name) for name in ("dst", "idst")},
            rfft=lambda a, *args, **kw: rffts.append(a) or sfft.rfft(a, *args, **kw)))
        ell = EllipticLift(grid, NU1, data)
        par = ParabolicLift(EllipticLift(grid, NU1, data))
        for _ in range(3):
            par.step(0.01)
        assert ell.x_modes is ell.x_modes is par.ell.x_modes
        assert ell.x_modes[0].tolist() == [1]
        assert [id(a) for a in rffts] == [id(data.g_bottom), id(data.g_top)]

    @pytest.mark.parametrize("entry", ["EllipticLift", "run_lift_pair", "for_run",
                                       "build_initial_u"])
    def test_wall_data_on_another_grid_refused(self, entry):
        cfg = RunConfig(nx=16, ny=16, lx=4.0, u_profile="lift", mode="lifted_elliptic")
        grid = build_grid(cfg)
        data = make_data(Grid(16, 16))        # profiles sampled for lx = 1
        calls = {
            "EllipticLift": lambda: EllipticLift(grid, cfg.nu1, data),
            "run_lift_pair": lambda: run_lift_pair(data, grid, cfg.nu1, 0.01, 0.02),
            "for_run": lambda: DiagnosticsContext.for_run(grid, build_solver_config(cfg), data),
            "build_initial_u": lambda: build_initial_u(cfg, grid, data),
        }
        with pytest.raises(InvariantViolation, match="wall data is on grid"):
            calls[entry]()


class TestStationaryStokes:
    def test_mean_single_and_nyquist_modes_on_rectangle(self):
        """k = 0, k = 1 and k = nx/2 together on a non-square grid."""
        grid = Grid(32, 24, lx=2.0, ly=1.0)
        i = np.arange(grid.nx)
        gb = 0.5 + (-1.0) ** i
        gt = -0.25 + wall_profile(grid, "single_mode:1")
        u, p, info = StationaryStokes(grid, NU1).solve((gb, gt))
        scale = max(np.abs(gb).max(), np.abs(gt).max())
        assert info["iterations"] == 1
        assert momentum_residual(u, p, NU1, (gb, gt)) < 1e-12 * NU1 * scale / grid.dy**2
        assert np.abs(divergence(u).values).max() < 1e-12 * scale / grid.dy
        assert abs(p.mean()) < 1e-14 * np.abs(p.values).max()
        # the mean of the data is carried by the Couette profile alone
        mean_ux = u.ux.mean(axis=0)
        couette = 0.5 - 0.75 * grid.yc / grid.ly
        assert np.abs(mean_ux - couette).max() < 1e-13

    def test_pressure_on_long_box(self):
        """p = nu D_y(omega) / G_x divides round-off by a small G_x at low k.

        On this 1000 x 1 box the residual is about 2.0e-12 of nu/h^2, against
        about 1e-14 on near-square grids; the bound keeps a factor 5.
        """
        grid = Grid(8, 256, lx=1000.0)
        rng = np.random.default_rng(1)
        gb, gt = rng.standard_normal(grid.nx), rng.standard_normal(grid.nx)
        u, p, _ = StationaryStokes(grid, NU1).solve((gb, gt))
        h = min(grid.dx, grid.dy)
        assert momentum_residual(u, p, NU1, (gb, gt)) < 1e-11 * NU1 / h**2

    def test_zero_data(self):
        grid = Grid(32, 24, lx=2.0, ly=1.0)
        u, p, info = StationaryStokes(grid, NU1).solve((np.zeros(32), np.zeros(32)))
        assert info["iterations"] == 0
        assert l2(u) == 0.0 and l2(p) == 0.0


def dense_stokes(grid, nu, gb, gt):
    """MAC Stokes system assembled column by column from the operators, with
    the mean of p fixed by one extra row, and solved by least squares."""
    nx, ny = grid.nx, grid.ny
    n_ux, n_uy = nx * ny, nx * (ny - 1)

    def unpack(z):
        uy = np.zeros((nx, ny + 1))
        uy[:, 1:-1] = z[n_ux:n_ux + n_uy].reshape(nx, ny - 1)
        return (VectorField(z[:n_ux].reshape(nx, ny), uy, grid),
                ScalarField(z[n_ux + n_uy:].reshape(nx, ny), grid))

    def residual(z, wb, wt):
        u, p = unpack(z)
        mom = gradient(p) - nu * vector_laplacian(u, (wb, wt))
        return np.concatenate([mom.ux.ravel(), mom.uy[:, 1:-1].ravel(),
                               divergence(u).values.ravel(), [p.values.mean()]])

    size = n_ux + n_uy + nx * ny
    zero = np.zeros(nx)
    cols = np.column_stack([residual(e, zero, zero) for e in np.eye(size)])
    z = np.linalg.lstsq(cols, -residual(np.zeros(size), gb, gt), rcond=None)[0]
    return unpack(z)


def dense_error(u, p, gb, gt):
    """Largest difference from ``dense_stokes`` over ux, uy and p, relative to
    each field's size, or to the data's for a field that vanishes."""
    u_ref, p_ref = dense_stokes(u.grid, NU1, gb, gt)
    scale = max(np.abs(gb).max(), np.abs(gt).max())
    return max(np.abs(new - ref).max() / max(np.abs(ref).max(), scale)
               for new, ref in ((u.ux, u_ref.ux), (u.uy, u_ref.uy), (p.values, p_ref.values)))


ROW_CASES = ["mean", "mode_1", "nyquist", "mix", "uniform_and_mode_2", "random",
             "below_floor", "above_floor"]


def row_case(grid, case):
    """Wall data (bottom, top) of a test case, and the rows K that it lives on."""
    alt = (-1.0) ** np.arange(grid.nx)
    rng = np.random.default_rng(11)
    mean = (np.full(grid.nx, 0.5), np.full(grid.nx, -0.25))
    mode_1 = (np.sin(2 * np.pi * grid.xf / grid.lx), wall_profile(grid, "single_mode:1"))
    nyquist = (-alt, 2.0 * alt)
    mode_2, mode_3 = (wall_profile(grid, f"single_mode:{m}") for m in (2, 3))
    # mode_2's row is nx/2, the largest; mode_3 at c has the row c nx/2, so
    # c = nx eps puts it on the round-off floor nx eps times the largest row
    floor = grid.nx * np.finfo(float).eps
    return {
        "mean": (mean, [0]),
        "mode_1": (mode_1, [1]),
        "nyquist": (nyquist, [grid.nx // 2]),
        "mix": (tuple(a + b + c for a, b, c in zip(mean, mode_1, nyquist)),
                [0, 1, grid.nx // 2]),
        "uniform_and_mode_2": ((wall_profile(grid, "uniform"), mode_2), [0, 2]),
        "random": ((rng.standard_normal(grid.nx), rng.standard_normal(grid.nx)),
                   list(range(grid.nx // 2 + 1))),
        "below_floor": ((mode_2, 0.5 * floor * mode_3), [2]),
        "above_floor": ((mode_2, 2.0 * floor * mode_3), [2, 3]),
    }[case]


class _DropRow:
    """``lifting._x_synthesis`` with the two columns of one x-wavenumber row
    zeroed, so the synthesis reads that row of its input as zero."""

    synthesis = staticmethod(lifting._x_synthesis)

    def __init__(self, row):
        self.row = row

    def __call__(self, nx, rows):
        table = self.synthesis(nx, rows)
        table[:, np.tile(rows == self.row, 2)] = 0.0
        return table


def channel_stokes_mode(grid, nu):
    """Continuous Stokes flow under the top-wall data cos(kx), k = 2 pi / lx.

    psi = f(y) cos(kx) with f = (A + By) cosh(ky) + (C + Dy) sinh(ky) and
    f(0) = f'(0) = f(ly) = 0, f'(ly) = 1; then ux = f' cos(kx),
    uy = k f sin(kx) and p = nu (f''' - k^2 f') sin(kx) / k.
    """
    k = 2 * np.pi / grid.lx

    def basis(y):                                 # f, f', f''' of each term
        c, s = np.cosh(k * y), np.sinh(k * y)
        return (np.array([c, y * c, s, y * s]),
                np.array([k * s, c + k * y * s, k * c, s + k * y * c]),
                np.array([k**3 * s, 3 * k**2 * c + k**3 * y * s,
                          k**3 * c, 3 * k**2 * s + k**3 * y * c]))

    (f0, df0, _), (fl, dfl, _) = basis(0.0), basis(grid.ly)
    coef = np.linalg.solve(np.array([f0, df0, fl, dfl]), [0.0, 0.0, 0.0, 1.0])
    _, df, d3f = (coef @ b for b in basis(grid.yc))
    f_faces = coef @ basis(grid.yf)[0]
    f_faces[[0, -1]] = 0.0                        # the wall values, without round-off
    u = VectorField(np.outer(np.cos(k * grid.xf), df),
                    np.outer(k * np.sin(k * grid.xc), f_faces), grid)
    return u, ScalarField(np.outer(np.sin(k * grid.xc), nu * (d3f - k**2 * df) / k), grid)


class TestStationaryStokesOracles:
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_matches_dense_solve(self, case):
        """dense_stokes solves every row, the solve only those of K: a row that
        it drops below the round-off floor moves the lift by round-off."""
        grid = Grid(12, 8, lx=2.0)
        (gb, gt), rows = row_case(grid, case)
        u, p, info = StationaryStokes(grid, NU1).solve((gb, gt))
        assert info["iterations"] == 1
        assert info["x_modes"][0].tolist() == rows
        assert dense_error(u, p, gb, gt) <= 1e-12

    def test_second_order_in_h(self):
        errs = []
        for n in (32, 64, 128):
            grid = Grid(n, n)
            u, p, _ = StationaryStokes(grid, NU1).solve(
                (np.zeros(n), wall_profile(grid, "single_mode:1")))
            u_ex, p_ex = channel_stokes_mode(grid, NU1)
            errs.append((l2(u - u_ex), l2(p - p_ex)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((orders >= 1.8) & (orders <= 2.2)), orders


class TestStationaryRows:
    """The solve works on the data's rows K only; the k = 0 row is Couette."""

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_unit_lift_lives_on_k(self, case):
        grid = Grid(16, 12, lx=2.0)
        (gb, gt), rows = row_case(grid, case)
        _, _, info = StationaryStokes(grid, NU1).solve((gb, gt))
        ell = EllipticLift(grid, NU1, WallData(grid, gb, gt, Amplitude("custom_static")))
        k, ux_rows, uy_rows = ell.x_modes
        assert k.tolist() == info["x_modes"][0].tolist() == rows
        hx, hy = (sfft.rfft(a, axis=0) for a in (ell.unit_u.ux, ell.unit_u.uy[:, 1:-1]))
        largest = max(np.abs(hx).max(), np.abs(hy).max())
        # the solve's own rows are those of U, and U has no others but k = 0
        assert max(np.abs(ux_rows - hx[k]).max(), np.abs(uy_rows - hy[k]).max()) \
            <= 1e-13 * largest
        outside = np.setdiff1d(np.arange(1, grid.nx // 2 + 1), k)
        assert max(np.abs(hx[outside]).max(initial=0.0), np.abs(hy[outside]).max(initial=0.0)) \
            <= grid.nx * np.finfo(float).eps * largest

    @pytest.mark.parametrize("case, row", [
        ("mode_1", 1), ("uniform_and_mode_2", 0), ("uniform_and_mode_2", 2),
        ("nyquist", 6), ("random", 3), ("above_floor", 2),
    ], ids=["mode_1", "couette_row", "mode_2", "nyquist", "random_row_3", "above_floor"])
    def test_dropping_a_live_row_is_caught(self, monkeypatch, case, row):
        """The comparison of ``test_matches_dense_solve`` fails for a solve
        that leaves out a live data row or the Couette row."""
        grid = Grid(12, 8, lx=2.0)
        (gb, gt), _ = row_case(grid, case)
        monkeypatch.setattr(lifting, "_x_synthesis", _DropRow(row))
        u, p, _ = StationaryStokes(grid, NU1).solve((gb, gt))
        assert dense_error(u, p, gb, gt) > 1e-3

    @pytest.mark.parametrize("rows", [[0], [1], [128], [0, 2], [1, 127, 128], "all"],
                             ids=["mean", "mode_1", "nyquist", "mean_and_mode_2",
                                  "top_three", "all"])
    def test_synthesis_is_the_inverse_rfft(self, rows):
        """B [Re c; Im c] equals irfft of c zero-filled to every row; the mean
        and Nyquist rows carry imaginary parts that irfft drops."""
        nx, ny = 256, 5
        rows = np.arange(nx // 2 + 1) if rows == "all" else np.array(rows)
        rng = np.random.default_rng(3)
        c = rng.standard_normal((rows.size, ny)) + 1j * rng.standard_normal((rows.size, ny))
        full = np.zeros((nx // 2 + 1, ny), dtype=complex)
        full[rows] = c
        ref = sfft.irfft(full, axis=0, n=nx)
        out = lifting._from_x_rows(lifting._x_synthesis(nx, rows), c)
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def trace_lift(u: VectorField) -> VectorField:
    """Stationary Stokes lift of the extrapolated tangential trace of u."""
    return StationaryStokes(u.grid, NU1).solve(extrapolated_wall_trace(u))[0]


class TestInitialLift:
    def test_zero_trace(self):
        grid = Grid(32, 32)
        u = trace_lift(VectorField.zeros(grid))
        assert l2(u) == 0.0

    def test_couette_trace(self):
        grid = Grid(32, 32)
        u = trace_lift(couette_exact(grid))
        assert np.abs(u.ux - couette_exact(grid).ux).max() < 1e-10

    def test_refinement_consistency(self):
        """Lift of an interior flow's trace converges under refinement."""
        fine = Grid(128, 128)

        def sampled_flow(grid):
            # divergence-free flow with a nontrivial tangential trace
            ux = np.cos(2 * np.pi * grid.xf / grid.lx)[:, None] \
                * np.cos(np.pi * grid.yc / grid.ly)[None, :]
            uy = np.zeros((grid.nx, grid.ny + 1))
            uy[:, 1:-1] = 2 * np.sin(2 * np.pi * grid.xc / grid.lx)[:, None] \
                * np.sin(np.pi * grid.yf[1:-1] / grid.ly)[None, :] / grid.ly
            v, _ = leray_project(VectorField(ux, uy, grid))
            return v

        ref = trace_lift(sampled_flow(fine))
        errs = []
        for n in (32, 64):
            g = Grid(n, n)
            u = trace_lift(sampled_flow(g))
            errs.append(l2(u - restrict_vector(ref, g)))
        assert errs[1] < 0.5 * errs[0]


class TestParabolicLift:
    def test_static_data_is_exact_fixed_point(self):
        grid = Grid(32, 32)
        ell = EllipticLift(grid, NU1, make_data(grid))
        par = ParabolicLift(ell)
        for _ in range(25):
            par.step(0.05)
        assert l2(par.w) == 0.0
        assert l2(par.u_p - ell.at(par.t)[0]) == 0.0

    def test_zero_data_stays_zero(self):
        grid = Grid(32, 32)
        ell = EllipticLift(grid, NU1, WallData.zero(grid))
        par = ParabolicLift(ell)
        for _ in range(10):
            par.step(0.1)
        assert l2(par.u_p) == 0.0

    @pytest.mark.parametrize("dt, amp, error, match", [
        (0.0, None, InvariantViolation, "dt must be positive and finite"),
        (-0.1, None, InvariantViolation, "dt must be positive and finite"),
        (math.nan, None, InvariantViolation, "dt must be positive and finite"),
        (math.inf, None, InvariantViolation, "dt must be positive and finite"),
        # a'(0.01) = inf * 0 = nan: the step itself produces non-finite values
        (0.01, Amplitude("couette_ramp", a0=1e300, a_inf=0.0, rate=1e10),
         SolverDiverged, "non-finite"),
    ], ids=["0.0", "-0.1", "nan", "inf", "overflowing_amplitude"])
    def test_bad_step_rejected(self, dt, amp, error, match):
        grid = Grid(16, 16)
        par = ParabolicLift(EllipticLift(grid, NU1, make_data(grid, amp=amp)))
        w, u_p, rows = par.w, par.u_p, par._w_rows
        with pytest.raises(error, match=match):
            par.step(dt)
        assert par.t == 0.0
        assert par.w is w and par.u_p is u_p and par._w_rows is rows
        assert par.w.is_finite() and par.u_p.is_finite()

    @pytest.mark.parametrize("case", ["mode_1", "uniform_and_mode_2", "nyquist", "random"])
    def test_row_steps_match_full_grid_steps(self, case):
        """20 steps on the rows K against the full-grid step, written out here."""
        grid = Grid(16, 12, lx=2.0)
        alt = (-1.0) ** np.arange(grid.nx)
        rng = np.random.default_rng(11)
        gb, gt, rows = {
            "mode_1": (wall_profile(grid, "single_mode:1"),
                       wall_profile(grid, "single_mode:1"), [1]),
            "uniform_and_mode_2": (wall_profile(grid, "uniform"),
                                   wall_profile(grid, "single_mode:2"), [0, 2]),
            "nyquist": (alt, -2.0 * alt, [grid.nx // 2]),
            "random": (rng.standard_normal(grid.nx), rng.standard_normal(grid.nx),
                       list(range(grid.nx // 2 + 1))),
        }[case]
        amp = Amplitude("couette_ramp", a0=1.0, a_inf=0.5, rate=2.0)
        ell = EllipticLift(grid, NU1, WallData(grid, gb, gt, amp))
        par = ParabolicLift(ell)
        unit, dt, t = ell.unit_u, 0.02, 0.0
        w = VectorField.zeros(grid)
        for _ in range(20):
            t += dt
            w, _ = helmholtz_project_velocity(w - unit * (dt * amp.dt(t)), dt * NU1)
            par.step(dt)
            u_p = unit * amp(t) + w
            for new, ref in ((par.w, w), (par.u_p, u_p)):
                scale = ref.max_abs()
                assert scale > 0.0
                assert (new - ref).max_abs() <= 1e-13 * scale
        assert ell.x_modes[0].tolist() == rows
        assert par.t == t

    def test_ramp_difference_decays(self):
        grid = Grid(32, 32)
        amp = Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0)
        ell = EllipticLift(grid, NU1, make_data(grid, "uniform", amp))
        par = ParabolicLift(ell)
        dt = 0.01
        norms = []
        for n in range(1, 1201):
            par.step(dt)
            if n % 200 == 0:
                norms.append(v1_norm(par.w))
        # late-time tail shrinks monotonically toward the stationary lift
        assert all(a > b for a, b in zip(norms[2:], norms[3:]))
        assert norms[-1] < norms[0]


class TestLiftDifferenceReport:
    def test_static_degenerate(self):
        grid = Grid(16, 16)
        hist = run_lift_pair(make_data(grid), grid, NU1, dt=0.05, t_end=0.5)
        rep = lift_difference_report(hist)
        assert rep["degenerate"] and rep["ratio_sup"] == 0.0

    def test_t_end_not_whole_number_of_steps_rejected(self):
        grid = Grid(16, 16)
        with pytest.raises(InvariantViolation, match="whole number of steps"):
            run_lift_pair(make_data(grid), grid, NU1, dt=0.03, t_end=0.5)

    @pytest.mark.parametrize("dt, t_end, match", [
        (-0.1, 0.5, "dt must be positive"), (0.0, 0.5, "dt must be positive"),
        (math.nan, 0.5, "dt must be positive"), (math.inf, 0.5, "dt must be positive"),
        (0.05, -0.5, "t_end must be nonnegative"), (0.05, math.nan, "t_end must be"),
    ], ids=["dt_negative", "dt_zero", "dt_nan", "dt_inf", "t_end_negative", "t_end_nan"])
    def test_bad_time_span_rejected(self, dt, t_end, match):
        grid = Grid(16, 16)
        with pytest.raises(InvariantViolation, match=match):
            run_lift_pair(make_data(grid), grid, NU1, dt=dt, t_end=t_end)

    def test_ramp_ratio_stable_under_dt_halving(self):
        grid = Grid(32, 32)
        amp = Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0)
        data = make_data(grid, "uniform", amp)
        reps = []
        for dt in (0.02, 0.01):
            hist = run_lift_pair(data, grid, NU1, dt=dt, t_end=4.0)
            reps.append(lift_difference_report(hist))
        r1, r2 = reps[0]["ratio_sup"], reps[1]["ratio_sup"]
        assert all(math.isfinite(r) and r > 0 for r in (r1, r2))
        assert 0.5 < r1 / r2 < 2.0

    def test_dtup_norm_is_the_step_difference_quotient(self):
        """|d/dt u_p| of the history, bit for bit: l2 of (u_p - u_p before) * (1/dt)
        of a lift stepped here, and 0 before the first step."""
        grid = Grid(16, 16)
        amp = Amplitude("decaying_oscillation", a0=1.0, rate=0.5, omega=3.0)
        data = make_data(grid, "single_mode:1", amp)
        dt, steps = 0.05, 20
        hist = run_lift_pair(data, grid, NU1, dt=dt, t_end=dt * steps)
        par = ParabolicLift(EllipticLift(grid, NU1, data))
        expected = [0.0]
        for _ in range(steps):
            ux, uy = par.u_p.ux, par.u_p.uy
            par.step(dt)
            expected.append(l2(VectorField((par.u_p.ux - ux) * (1.0 / dt),
                                           (par.u_p.uy - uy) * (1.0 / dt), grid)))
        assert min(expected[1:]) > 0.0
        assert hist.dtup_norm == expected

    def test_dtup_tail_decays_for_decaying_data(self):
        grid = Grid(32, 32)
        amp = Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0)
        hist = run_lift_pair(make_data(grid, "uniform", amp), grid, NU1,
                             dt=0.02, t_end=8.0)
        rep = lift_difference_report(hist)
        assert rep["dtup_tail_decaying"]
