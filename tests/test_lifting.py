import math

import numpy as np
import pytest

from chns.boundary import Amplitude, WallData, wall_profile
from chns.grid import Grid, ScalarField, VectorField
from chns.lifting import (EllipticLift, ParabolicLift, StationaryStokes,
                          initial_lift, lift_difference_report,
                          momentum_residual, run_lift_pair)
from chns.ops import divergence, l2, leray_project, v1_norm, v2_norm

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
        res = momentum_residual(ell.unit_u, ell.unit_p, NU1, data.g_bottom, data.g_top)
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
            v2 = v2_norm(ell.unit_u, wall_bottom=data.g_bottom, wall_top=data.g_top)
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


class TestStationaryStokes:
    def test_mean_single_and_nyquist_modes_on_rectangle(self):
        """k = 0, k = 1 and k = nx/2 together on a non-square grid."""
        grid = Grid(32, 24, lx=2.0, ly=1.0)
        i = np.arange(grid.nx)
        gb = 0.5 + (-1.0) ** i
        gt = -0.25 + wall_profile(grid, "single_mode:1")
        u, p, info = StationaryStokes(grid, NU1).solve(gb, gt)
        scale = max(np.abs(gb).max(), np.abs(gt).max())
        assert info["iterations"] == 1
        assert momentum_residual(u, p, NU1, gb, gt) < 1e-12 * NU1 * scale / grid.dy**2
        assert np.abs(divergence(u).values).max() < 1e-12 * scale / grid.dy
        assert abs(p.mean()) < 1e-14 * np.abs(p.values).max()
        # the mean of the data is carried by the Couette profile alone
        mean_ux = u.ux.mean(axis=0)
        couette = 0.5 - 0.75 * grid.yc / grid.ly
        assert np.abs(mean_ux - couette).max() < 1e-13

    def test_zero_data(self):
        grid = Grid(32, 24, lx=2.0, ly=1.0)
        u, p, info = StationaryStokes(grid, NU1).solve(np.zeros(32), np.zeros(32))
        assert info["iterations"] == 0
        assert l2(u) == 0.0 and l2(p) == 0.0


class TestInitialLift:
    def test_zero_trace(self):
        grid = Grid(32, 32)
        u, p = initial_lift(VectorField.zeros(grid), NU1)
        assert l2(u) == 0.0

    def test_couette_trace(self):
        grid = Grid(32, 32)
        u, _ = initial_lift(couette_exact(grid), NU1)
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

        ref, _ = initial_lift(sampled_flow(fine), NU1)
        errs = []
        for n in (32, 64):
            g = Grid(n, n)
            u, _ = initial_lift(sampled_flow(g), NU1)
            errs.append(l2(u - restrict_vector(ref, g)))
        assert errs[1] < 0.5 * errs[0]


class TestParabolicLift:
    def test_static_data_is_exact_fixed_point(self):
        grid = Grid(32, 32)
        ell = EllipticLift(grid, NU1, make_data(grid))
        par = ParabolicLift(ell, u0=couette_exact(grid))
        for _ in range(25):
            par.step(0.05)
        assert l2(par.difference_from_stationary()) == 0.0
        assert l2(par.u_p - ell.at(par.t)[0]) == 0.0

    def test_zero_data_stays_zero(self):
        grid = Grid(32, 32)
        ell = EllipticLift(grid, NU1, WallData.zero(grid))
        par = ParabolicLift(ell)
        for _ in range(10):
            par.step(0.1)
        assert l2(par.u_p) == 0.0

    def test_ramp_difference_decays(self):
        grid = Grid(32, 32)
        amp = Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0)
        ell = EllipticLift(grid, NU1, make_data(grid, "uniform", amp))
        par = ParabolicLift(ell, u0=VectorField.zeros(grid))
        dt = 0.01
        norms = []
        for n in range(1, 1201):
            par.step(dt)
            if n % 200 == 0:
                norms.append(v1_norm(par.difference_from_stationary()))
        # late-time tail shrinks monotonically toward the stationary lift
        assert all(a > b for a, b in zip(norms[2:], norms[3:]))
        assert norms[-1] < norms[0]

    def test_incompatible_initial_data_uses_trace_lift(self):
        grid = Grid(32, 32)
        data = make_data(grid)  # static top speed 1
        ell = EllipticLift(grid, NU1, data)
        par = ParabolicLift(ell, u0=VectorField.zeros(grid))
        # u0 trace (zero) disagrees with the data: w(0) = lift(0) - u_e = -u_e
        assert l2(par.u_p) < 1e-12
        par.step(0.01)
        assert l2(par.u_p) > 0.0


class TestLiftDifferenceReport:
    def test_static_degenerate(self):
        grid = Grid(16, 16)
        hist = run_lift_pair(make_data(grid), grid, NU1, dt=0.05, t_end=0.5)
        rep = lift_difference_report(hist)
        assert rep["degenerate"] and rep["ratio_sup"] == 0.0

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

    def test_dtup_tail_decays_for_decaying_data(self):
        grid = Grid(32, 32)
        amp = Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0)
        hist = run_lift_pair(make_data(grid, "uniform", amp), grid, NU1,
                             dt=0.02, t_end=8.0)
        rep = lift_difference_report(hist)
        assert rep["dtup_tail_decaying"]
