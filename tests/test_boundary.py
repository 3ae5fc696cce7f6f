import math

import numpy as np
import pytest

from chns.boundary import (Amplitude, WallData, certify_decay,
                           check_compatibility, extrapolated_wall_trace,
                           trace_norm, wall_profile)
from chns.errors import InvariantViolation
from chns.grid import Grid, VectorField


@pytest.fixture
def grid():
    return Grid(64, 32)


def couette_ramp(grid, rate=1.0):
    return WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                    Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=rate))


class TestEvalWall:
    def test_ramp_starts_at_zero(self, grid):
        hb, ht = couette_ramp(grid).eval_wall(0.0)
        assert np.abs(hb).max() == 0.0 and np.abs(ht).max() == 0.0

    def test_ramp_limit(self, grid):
        data = couette_ramp(grid)
        hb, ht = data.eval_wall(60.0)
        assert np.allclose(ht, 1.0, atol=1e-12)
        assert np.allclose(hb, 0.0)
        assert data.amplitude.limit() == 1.0

    def test_decaying_oscillation_value(self, grid):
        amp = Amplitude("decaying_oscillation", a0=1.0, rate=1.0, omega=2 * np.pi)
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"), amp)
        _, ht = data.eval_wall(0.5)
        assert ht[0] == pytest.approx(math.exp(-0.5) * math.cos(math.pi), abs=1e-12)
        assert ht[0] == pytest.approx(-0.6065306597126334, abs=1e-12)

    def test_negative_time_rejected(self, grid):
        with pytest.raises(InvariantViolation):
            couette_ramp(grid).eval_wall(-0.1)
        with pytest.raises(InvariantViolation):
            couette_ramp(grid).eval_wall_dt(-0.1)


class TestWallProfile:
    def test_single_mode_defaults_to_mode_one(self, grid):
        one = wall_profile(grid, "single_mode", 0.5)
        assert np.array_equal(one, wall_profile(grid, "single_mode:1", 0.5))
        assert one == pytest.approx(0.5 * np.cos(2 * np.pi * grid.xf / grid.lx))
        assert wall_profile(grid, "single_mode:3") == pytest.approx(
            np.cos(6 * np.pi * grid.xf / grid.lx))

    @pytest.mark.parametrize("kind", ["single_mode:abc", "single_modefoo", "single_mode:",
                                      "single_mode:1.5", "single_mode:-1", "Zero", ""])
    def test_unknown_name_rejected(self, grid, kind):
        with pytest.raises(InvariantViolation, match="unknown wall profile"):
            wall_profile(grid, kind)


class TestEvalWallDt:
    @pytest.mark.parametrize("amp", [
        Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.3),
        Amplitude("decaying_oscillation", a0=0.7, rate=1.0, omega=2 * np.pi),
        Amplitude("power_decay", a0=1.0, p=1.0),
        Amplitude("custom_static", a0=0.4),
    ])
    def test_matches_finite_difference(self, grid, amp):
        data = WallData(grid, wall_profile(grid, "uniform", 0.3),
                        wall_profile(grid, "single_mode:1"), amp)
        eps = 1e-4
        for t in (0.2, 1.0, 3.7):
            hb_p, ht_p = data.eval_wall(t + eps)
            hb_m, ht_m = data.eval_wall(t - eps)
            db, dt_ = data.eval_wall_dt(t)
            assert np.abs((hb_p - hb_m) / (2 * eps) - db).max() < 1e-6
            assert np.abs((ht_p - ht_m) / (2 * eps) - dt_).max() < 1e-6


@pytest.mark.parametrize("build, match", [
    (lambda g: WallData(g, np.zeros(g.nx - 1), np.zeros(g.nx), Amplitude("custom_static")),
     "length nx"),
    (lambda g: WallData(g, np.zeros(g.nx), np.full(g.nx, np.nan), Amplitude("custom_static")),
     "finite"),
    (lambda g: certify_decay(couette_ramp(g), gamma=0.0), "gamma must be positive"),
    (lambda g: certify_decay(couette_ramp(g), gamma=math.nan), "gamma must be positive"),
    (lambda g: certify_decay(couette_ramp(g), gamma=math.inf), "gamma must be positive"),
    (lambda g: couette_ramp(g).eval_wall(math.nan), "time must be nonnegative"),
    (lambda g: couette_ramp(g).eval_wall_dt(math.nan), "time must be nonnegative"),
], ids=["wall_short", "wall_nan", "gamma_zero", "gamma_nan", "gamma_inf",
        "eval_wall_nan", "eval_wall_dt_nan"])
def test_bad_wall_input_rejected(grid, build, match):
    with pytest.raises(InvariantViolation, match=match):
        build(grid)


class TestTraceNorm:
    def test_constant_any_order(self):
        data = np.full(64, 0.7)
        for s in (-1.5, -0.5, 0.0, 0.5, 1.5, 3.0):
            assert trace_norm(data, s, lx=1.0) == pytest.approx(0.7, abs=1e-13)

    def test_cosine_half_order(self):
        x = np.arange(64) / 64
        h = np.cos(2 * np.pi * x)
        expect = math.sqrt(math.sqrt(1 + 4 * np.pi**2) / 2)
        assert trace_norm(h, 0.5) == pytest.approx(expect, rel=1e-12)

    def test_cosine_minus_half_and_product_identity(self):
        x = np.arange(64) / 64
        h = np.cos(2 * np.pi * x)
        expect = math.sqrt(1.0 / (2 * math.sqrt(1 + 4 * np.pi**2)))
        assert trace_norm(h, -0.5) == pytest.approx(expect, rel=1e-12)
        l2_sq = trace_norm(h, 0.0) ** 2
        assert trace_norm(h, 0.5) * trace_norm(h, -0.5) == pytest.approx(l2_sq, rel=1e-12)

    def test_zero_order_is_l2(self, rng=np.random.default_rng(3)):
        h = rng.standard_normal(64)
        lx = 2.0
        quad = math.sqrt(np.sum(h**2) * lx / 64)
        assert trace_norm(h, 0.0, lx=lx) == pytest.approx(quad, rel=1e-12)

    def test_monotone_in_order(self, rng=np.random.default_rng(4)):
        h = rng.standard_normal(64)
        orders = np.linspace(-2, 3, 11)
        vals = [trace_norm(h, s) for s in orders]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_order_out_of_range(self):
        with pytest.raises(InvariantViolation):
            trace_norm(np.ones(8), 3.5)


class TestCertifyDecay:
    def test_exponential_passes_any_gamma(self, grid):
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("couette_ramp", a0=1.0, a_inf=0.0, rate=1.0))
        for gamma in (0.5, 1.0, 10.0):
            rep = certify_decay(data, gamma)
            assert rep["pass"]
            assert math.isfinite(rep["conditions"]["dt_minus_half"]["constant"])

    def test_static_fails_third_unless_zero(self, grid):
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("custom_static", a0=1.0))
        rep = certify_decay(data, 1.0)
        assert rep["conditions"]["dt_minus_half"]["pass"]
        assert rep["conditions"]["dt_minus_half"]["constant"] == 0.0
        assert not rep["conditions"]["h_three_half"]["pass"]
        zero = WallData.zero(grid)
        assert certify_decay(zero, 1.0)["pass"]

    def test_power_law_gamma_window(self, grid):
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("power_decay", a0=1.0, p=1.0))
        ok = certify_decay(data, 2.0)
        assert ok["conditions"]["dt_minus_half"]["pass"]
        assert ok["conditions"]["dt_plus_half"]["pass"]
        bad = certify_decay(data, 2.5)
        assert not bad["conditions"]["dt_minus_half"]["pass"]

    def test_gamma_monotone_consistency(self, grid):
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("power_decay", a0=1.0, p=1.5))
        gammas = (0.5, 1.0, 2.0, 3.0)
        passes = [certify_decay(data, g)["conditions"]["dt_minus_half"]["pass"]
                  for g in gammas]
        # once a gamma fails, every larger gamma fails too
        assert passes == sorted(passes, reverse=True)

    def test_tail_integrals_match_quadrature(self, grid):
        amp = Amplitude("decaying_oscillation", a0=0.8, rate=0.7, omega=3.0)
        ts = np.linspace(0.0, 40.0, 400001)
        a = np.array([amp(t) for t in ts])
        adt = np.array([amp.dt(t) for t in ts])
        assert amp.sq_tail(0.0) == pytest.approx(np.trapezoid(a**2, ts), rel=1e-6)
        assert amp.dt_sq_tail(0.0) == pytest.approx(np.trapezoid(adt**2, ts), rel=1e-6)
        assert amp.sq_integral(5.0) == pytest.approx(
            np.trapezoid(a[ts <= 5.0]**2, ts[ts <= 5.0]), rel=1e-6)


class TestCompatibility:
    def test_zero_matches_zero(self, grid):
        assert check_compatibility(VectorField.zeros(grid), couette_ramp(grid))

    def test_couette_profile_matches_static_data(self, grid):
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("custom_static", a0=1.0))
        u0 = VectorField(np.tile(grid.yc / grid.ly, (grid.nx, 1)),
                         np.zeros((grid.nx, grid.ny + 1)), grid)
        bottom, top = extrapolated_wall_trace(u0)
        assert np.abs(bottom).max() < 1e-12 and np.abs(top - 1.0).max() < 1e-12
        assert check_compatibility(u0, data, tol=1e-10)

    def test_mismatch_detected(self, grid):
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("custom_static", a0=1.0))
        assert not check_compatibility(VectorField.zeros(grid), data)
