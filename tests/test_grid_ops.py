"""Operator algebra on the staggered grid: exactness and adjointness checks."""

import numpy as np
import pytest
import scipy.fft

from chns.boundary import WallData
from chns.errors import InvariantViolation, NonpositiveViscosity
from chns.grid import Grid, ScalarField, VectorField, complex_r2r
from chns.ops import (_helmholtz_symbols, advect_scalar, advect_velocity, divergence, gradient,
                      grad_norm_sq, h1, helmholtz_project_velocity, helmholtz_solve_neumann,
                      helmholtz_solve_velocity, hminus1, inner,
                      inner_vec, l2, laplacian_neumann, leray_project, parseval_sum,
                      projected_norm_sq, vector_laplacian, viscous_term)
from chns.solver import _ch_denominator, capillary_force

from conftest import random_divfree, random_scalar, random_vector


def lam_x_mode(grid, k):
    return -(2.0 / grid.dx**2) * (1.0 - np.cos(2.0 * np.pi * k * grid.dx / grid.lx))


def lam_y_mode(grid, m):
    return -(2.0 / grid.dy**2) * (1.0 - np.cos(np.pi * m * grid.dy / grid.ly))


def grad_norm_sq_stencil(v, gb, gt):
    """grad_norm_sq's corner-weighted stencil sum, written out with np.roll."""
    g = v.grid
    dxux = (np.roll(v.ux, -1, axis=0) - v.ux) / g.dx
    dyuy = np.diff(v.uy, axis=1) / g.dy
    dyux = np.diff(v.ux, axis=1) / g.dy
    dyux_b = 2.0 * (v.ux[:, 0] - gb) / g.dy
    dyux_t = 2.0 * (gt - v.ux[:, -1]) / g.dy
    dxuy = (v.uy - np.roll(v.uy, 1, axis=0))[:, 1:-1] / g.dx
    return g.cell_area * (np.sum(dxux**2) + np.sum(dyuy**2) + np.sum(dyux**2)
                          + 0.5 * np.sum(dyux_b**2) + 0.5 * np.sum(dyux_t**2)
                          + np.sum(dxuy**2))


WALL_CASES = ["homogeneous", "wall_data", "moving_top"]


def wall_case(grid, rng, case):
    """None, random data on both walls, or a resting bottom wall under a moving top."""
    if case == "homogeneous":
        return None
    bottom = rng.standard_normal(grid.nx) if case == "wall_data" else np.zeros(grid.nx)
    return bottom, rng.standard_normal(grid.nx)


class TestGrid:
    def test_invariants(self):
        with pytest.raises(InvariantViolation):
            Grid(2, 32)
        with pytest.raises(InvariantViolation):
            Grid(33, 32)
        with pytest.raises(InvariantViolation):
            Grid(32, 3)
        g = Grid(8, 4, lx=2.0)
        assert g.dx == pytest.approx(0.25)
        assert np.allclose(g.xc[:2], [0.125, 0.375])

    @pytest.mark.parametrize("nx, ny", [(16, 16.5), (16.5, 16), (16, float("nan")),
                                        (float("inf"), 16)])
    def test_non_whole_sizes_rejected(self, nx, ny):
        with pytest.raises(InvariantViolation, match="whole numbers"):
            Grid(nx, ny)

    def test_whole_valued_float_sizes_accepted(self):
        g = Grid(16.0, 8.0)
        assert (g.nx, g.ny, g.dy) == (16, 8, 0.125)
        assert isinstance(g.nx, int) and isinstance(g.ny, int)

    def test_wall_rows_enforced(self, grid32):
        uy = np.zeros((32, 33))
        uy[5, 0] = 1.0
        with pytest.raises(InvariantViolation):
            VectorField(np.zeros((32, 32)), uy, grid32)

    @pytest.mark.parametrize("largest", ["ux_positive", "ux_negative", "uy_positive",
                                         "uy_negative", "all_negative_zero"])
    def test_max_abs_is_the_largest_magnitude(self, grid32, rng, largest):
        u = VectorField(rng.uniform(-1.0, 1.0, (32, 32)), np.zeros((32, 33)), grid32)
        u.uy[:, 1:-1] = rng.uniform(-1.0, 1.0, (32, 31))
        if largest == "all_negative_zero":
            u.ux[:] = u.uy[:] = -0.0
        else:
            name, sign = largest.split("_")
            getattr(u, name)[7, 9] = 3.0 if sign == "positive" else -3.0
        expected = float(max(np.abs(u.ux).max(), np.abs(u.uy).max()))
        assert np.copysign(1.0, u.max_abs()) == 1.0 and u.max_abs() == expected

    def test_equal_grids_compare_and_hash_by_key(self):
        assert Grid(16, 16) == Grid(16, 16)
        assert hash(Grid(16, 16)) == hash(Grid(16, 16))
        assert Grid(16, 16) != Grid(16, 16, lx=4.0)
        assert Grid(16, 16) != Grid(16, 16).key

    @pytest.mark.parametrize("make", [ScalarField.zeros, VectorField.zeros, WallData.zero],
                             ids=["ScalarField", "VectorField", "WallData"])
    def test_fields_and_wall_data_compare_and_hash_by_identity(self, make):
        a, b = make(Grid(16, 16)), make(Grid(16, 16))
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    def test_equal_grids_share_read_only_solve_tables(self):
        first, second = Grid(16, 16), Grid(16, 16)
        symbols = _helmholtz_symbols(first, 0.01)
        assert all(a is b for a, b in zip(symbols, _helmholtz_symbols(second, 0.01)))
        denominator = _ch_denominator(first, 100.0, 2.0)
        assert _ch_denominator(second, 100.0, 2.0) is denominator
        for table in (*symbols, denominator):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0


class TestFieldChecksAtTheEdges:
    """Checks stay on the public constructor; internal outputs keep their walls."""

    def test_public_constructor_still_checks(self, grid32):
        uy = np.zeros((32, 33))
        uy[3, -1] = 1e-300
        with pytest.raises(InvariantViolation):
            VectorField(np.zeros((32, 32)), uy, grid32)
        with pytest.raises(InvariantViolation):
            VectorField(np.zeros((32, 31)), np.zeros((32, 33)), grid32)
        with pytest.raises(InvariantViolation):
            VectorField(np.zeros((32, 32)), np.zeros((32, 32)), grid32)
        with pytest.raises(InvariantViolation):
            ScalarField(np.zeros((31, 32)), grid32)

    def test_outputs_keep_zero_wall_rows(self, grid_rect, rng):
        g = grid_rect
        s, mu = random_scalar(g, rng), random_scalar(g, rng)
        v, w = random_vector(g, rng), random_vector(g, rng)
        nu = ScalarField(1.0 + 0.5 * rng.random((g.nx, g.ny)), g)
        gb, gt = rng.standard_normal(g.nx), rng.standard_normal(g.nx)
        outputs = {
            "gradient": gradient(s),
            "advect_velocity": advect_velocity(v, w),
            "viscous_term": viscous_term(nu, v, (gb, gt)),
            "vector_laplacian": vector_laplacian(v, (gb, gt)),
            "leray_project": leray_project(v)[0],
            "capillary_force": capillary_force(s, mu),
            "add": v + w,
            "sub": v - w,
            "mul": 1.7 * v,
        }
        for name, out in outputs.items():
            assert out.ux.shape == (g.nx, g.ny) and out.uy.shape == (g.nx, g.ny + 1), name
            assert not out.uy[:, 0].any() and not out.uy[:, -1].any(), name
            divergence(out)                 # the wall-row check at its input passes


class TestDivergence:
    def test_constant_field(self, grid32):
        v = VectorField(np.ones((32, 32)), np.zeros((32, 33)), grid32)
        assert np.abs(divergence(v).values).max() == 0.0

    def test_sine_mode_matches_stencil_value(self, grid_rect):
        g = grid_rect
        ux = np.sin(2 * np.pi * g.xf / g.lx)[:, None] * np.ones(g.ny)[None, :]
        v = VectorField(ux, np.zeros((g.nx, g.ny + 1)), g)
        # (sin(x+dx) - sin(x)) / dx = (2/dx) sin(pi dx/lx) cos(2 pi x_c/lx)
        expect = (2.0 / g.dx) * np.sin(np.pi * g.dx / g.lx) \
            * np.cos(2 * np.pi * g.xc / g.lx)[:, None] * np.ones(g.ny)[None, :]
        assert np.allclose(divergence(v).values, expect, rtol=1e-13, atol=1e-13)

    def test_dimension_mismatch(self, grid32):
        with pytest.raises(InvariantViolation):
            VectorField(np.zeros((32, 31)), np.zeros((32, 33)), grid32)


class TestGradient:
    def test_linear_in_y(self, grid32):
        s = ScalarField.from_function(grid32, lambda x, y: 3.0 * y)
        grad = gradient(s)
        assert np.allclose(grad.uy[:, 1:-1], 3.0)
        assert np.abs(grad.ux).max() == 0.0

    def test_constant(self, grid32):
        s = ScalarField(np.full((32, 32), 2.5), grid32)
        grad = gradient(s)
        assert np.abs(grad.ux).max() == 0.0 and np.abs(grad.uy).max() == 0.0

    def test_adjoint_identity(self, grid_rect, rng):
        s = random_scalar(grid_rect, rng)
        v = random_vector(grid_rect, rng)
        lhs = inner_vec(gradient(s), v)
        rhs = -inner(s, divergence(v))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs), 1.0)


class TestLaplacian:
    def test_constant_annihilated(self, grid32):
        s = ScalarField(np.full((32, 32), 4.0), grid32)
        assert np.abs(laplacian_neumann(s).values).max() == 0.0

    def test_cosine_y_eigenfield(self, grid_rect):
        g = grid_rect
        s = ScalarField.from_function(g, lambda x, y: np.cos(np.pi * y / g.ly))
        lam = lam_y_mode(g, 1)
        assert np.allclose(laplacian_neumann(s).values, lam * s.values, rtol=1e-12, atol=1e-12)

    def test_cosine_x_eigenfield(self, grid_rect):
        g = grid_rect
        s = ScalarField.from_function(g, lambda x, y: np.cos(2 * np.pi * x / g.lx))
        lam = lam_x_mode(g, 1)
        assert np.allclose(laplacian_neumann(s).values, lam * s.values, rtol=1e-12, atol=1e-12)

    def test_mean_preserved(self, grid_rect, rng):
        s = random_scalar(grid_rect, rng)
        assert abs(laplacian_neumann(s).mean()) < 1e-12


class TestHelmholtz:
    def test_single_mode(self, grid_rect):
        g = grid_rect
        rhs = ScalarField.from_function(g, lambda x, y: np.cos(2 * np.pi * x / g.lx))
        sol = helmholtz_solve_neumann(rhs, 1.0, 1.0)
        assert np.allclose(sol.values, rhs.values / (1.0 - lam_x_mode(g, 1)),
                           rtol=1e-12, atol=1e-14)

    def test_constant_in_kernel_of_lap(self, grid32):
        rhs = ScalarField(np.full((32, 32), 0.7), grid32)
        sol = helmholtz_solve_neumann(rhs, 1.0, 1.0)
        assert np.allclose(sol.values, 0.7, rtol=1e-13)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0)])
    def test_needs_positive_coefficients(self, grid32, a, b):
        rhs = ScalarField(np.zeros((32, 32)), grid32)
        with pytest.raises(InvariantViolation):
            helmholtz_solve_neumann(rhs, a, b)

    @pytest.mark.parametrize("case", WALL_CASES)
    def test_velocity_solve_residual(self, grid_rect, rng, case):
        g = grid_rect
        rhs = random_vector(g, rng)
        walls = wall_case(g, rng, case)
        u = helmholtz_solve_velocity(rhs, 0.3, walls)
        res = u - 0.3 * vector_laplacian(u, walls) - rhs
        assert l2(res) <= 1e-12 * l2(rhs)
        assert not u.uy[:, 0].any() and not u.uy[:, -1].any()


class TestHelmholtzProject:
    """The one-pass solve against leray_project(helmholtz_solve_velocity(...))."""

    @pytest.mark.parametrize("case", WALL_CASES)
    def test_matches_solve_then_project(self, grid_rect, rng, case):
        g = grid_rect
        rhs = random_vector(g, rng)
        walls = wall_case(g, rng, case)
        ref_u, ref_q = leray_project(helmholtz_solve_velocity(rhs, 0.3, walls))
        u, q = helmholtz_project_velocity(rhs, 0.3, walls)
        assert l2(u - ref_u) <= 1e-13 * l2(ref_u)
        assert l2(q - ref_q) <= 1e-13 * l2(ref_q)
        assert np.abs(divergence(u).values).max() <= 1e-13 * u.max_abs() / min(g.dx, g.dy)
        assert abs(q.mean()) <= 1e-13 * l2(q)
        assert not u.uy[:, 0].any() and not u.uy[:, -1].any()


class TestLeray:
    def test_divfree_untouched(self, grid_rect, rng):
        v = random_divfree(grid_rect, rng)
        pv, q = leray_project(v)
        assert l2(pv - v) < 1e-10 * l2(v)
        assert l2(q) < 1e-10 * l2(v)

    def test_pure_gradient_removed(self, grid_rect, rng):
        s = random_scalar(grid_rect, rng)
        s = s - ScalarField(np.full(s.values.shape, s.mean()), s.grid)
        pv, q = leray_project(gradient(s))
        assert l2(pv) < 1e-10 * h1(s)
        assert l2(q - s) < 1e-10 * l2(s)

    def test_orthogonality_and_idempotence(self, grid_rect, rng):
        v = random_vector(grid_rect, rng)
        pv, _ = leray_project(v)
        assert l2(divergence(pv)) < 1e-10 * l2(v)
        q = random_scalar(grid_rect, rng)
        assert abs(inner_vec(pv, gradient(q))) < 1e-10 * l2(v) * h1(q)
        pv2, q2 = leray_project(pv)
        assert l2(pv2 - pv) < 1e-11 * l2(v)
        assert l2(q2) < 1e-11 * l2(v)


class TestAdvectScalar:
    def test_zero_velocity(self, grid32, rng):
        s = random_scalar(grid32, rng)
        out = advect_scalar(VectorField.zeros(grid32), s)
        assert np.abs(out.values).max() == 0.0

    def test_skew_symmetry(self, grid_rect, rng):
        v = random_divfree(grid_rect, rng)
        s = random_scalar(grid_rect, rng)
        assert abs(inner(advect_scalar(v, s), s)) < 1e-12 * l2(s)**2 * max(v.max_abs(), 1.0)

    def test_single_mode_stencil(self, grid_rect):
        g = grid_rect
        v = VectorField(np.ones((g.nx, g.ny)), np.zeros((g.nx, g.ny + 1)), g)
        s = ScalarField.from_function(g, lambda x, y: np.cos(2 * np.pi * x / g.lx))
        # centered flux form with u = 1 collapses to (s[i+1] - s[i-1]) / (2 dx)
        expect = -np.sin(2 * np.pi * g.xc / g.lx) * np.sin(2 * np.pi * g.dx / g.lx) / g.dx
        assert np.allclose(advect_scalar(v, s).values,
                           expect[:, None] * np.ones(g.ny)[None, :], atol=1e-13)

    def test_conservation_any_velocity(self, grid_rect, rng):
        v = random_vector(grid_rect, rng)   # not divergence-free on purpose
        s = random_scalar(grid_rect, rng)
        assert abs(advect_scalar(v, s).mean()) < 1e-13


class TestAdvectVelocity:
    def test_zero_input(self, grid32, rng):
        w = random_vector(grid32, rng)
        out = advect_velocity(VectorField.zeros(grid32), w)
        assert out.max_abs() == 0.0

    def test_skew_symmetry(self, grid_rect, rng):
        v = random_divfree(grid_rect, rng)
        w = random_vector(grid_rect, rng)
        val = inner_vec(advect_velocity(v, w), w)
        assert abs(val) < 1e-12 * l2(w)**2 * max(v.max_abs(), 1.0)

    def test_single_mode_stencil(self, grid_rect):
        g = grid_rect
        v = VectorField(np.ones((g.nx, g.ny)), np.zeros((g.nx, g.ny + 1)), g)
        w = VectorField(np.cos(2 * np.pi * g.xf / g.lx)[:, None] * np.ones(g.ny)[None, :],
                        np.zeros((g.nx, g.ny + 1)), g)
        out = advect_velocity(v, w)
        expect = -np.sin(2 * np.pi * g.xf / g.lx) * np.sin(2 * np.pi * g.dx / g.lx) / g.dx
        assert np.allclose(out.ux, expect[:, None] * np.ones(g.ny)[None, :], atol=1e-13)


class TestViscous:
    def test_linear_profile_interior_zero(self, grid32):
        g = grid32
        nu = ScalarField(np.ones((g.nx, g.ny)), g)
        v = VectorField(np.tile(g.yc, (g.nx, 1)), np.zeros((g.nx, g.ny + 1)), g)
        out = viscous_term(nu, v)
        assert np.abs(out.ux[:, 1:-1]).max() < 1e-13
        assert out.max_abs() < 1e-13 or np.abs(out.uy).max() < 1e-13

    def test_negative_semidefinite(self, grid_rect, rng):
        nu = ScalarField(1.0 + 0.5 * rng.random((grid_rect.nx, grid_rect.ny)), grid_rect)
        v = random_vector(grid_rect, rng)
        assert inner_vec(viscous_term(nu, v), v) <= 1e-12

    def test_nonpositive_viscosity(self, grid32, rng):
        nu = np.ones((32, 32))
        nu[3, 4] = 0.0
        with pytest.raises(NonpositiveViscosity):
            viscous_term(ScalarField(nu, grid32), random_vector(grid32, rng))

    def test_constant_nu_is_half_laplacian_plus_half_grad_div(self, grid_rect, rng):
        g = grid_rect
        v = random_divfree(g, rng)
        nu = ScalarField(np.full((g.nx, g.ny), 1.7), g)
        out = viscous_term(nu, v)
        ref = vector_laplacian(v)
        assert l2(out - 0.5 * 1.7 * ref) < 1e-10 * l2(ref)


class TestNorms:
    def test_l2_of_one(self, grid32):
        assert l2(ScalarField(np.ones((32, 32)), grid32)) == pytest.approx(1.0)

    def test_l2_cos_exact_quadrature(self):
        g = Grid(64, 64)
        s = ScalarField.from_function(g, lambda x, y: np.cos(2 * np.pi * x))
        assert l2(s) == pytest.approx(np.sqrt(0.5), abs=1e-14)

    def test_hminus1_eigenmode(self, grid_rect):
        g = grid_rect
        s = ScalarField.from_function(g, lambda x, y: np.cos(2 * np.pi * x / g.lx))
        expect = l2(s) / np.sqrt(1.0 - lam_x_mode(g, 1))
        assert hminus1(s) == pytest.approx(expect, rel=1e-12)

    def test_hminus1_bounded_by_l2(self, grid_rect, rng):
        s = random_scalar(grid_rect, rng)
        assert hminus1(s) <= l2(s) * (1 + 1e-12)

    def test_hminus1_matches_helmholtz_oracle(self, grid_rect, rng):
        fields = [random_scalar(grid_rect, rng) for _ in range(3)]
        fields.append(ScalarField(rng.standard_normal((grid_rect.nx, grid_rect.ny)) + 3.0,
                                  grid_rect))
        for s in fields:
            oracle = np.sqrt(inner(s, helmholtz_solve_neumann(s, 1.0, 1.0)))
            assert hminus1(s) == pytest.approx(oracle, rel=1e-12)
        assert hminus1(ScalarField.zeros(grid_rect)) == 0.0

    def test_poincare(self, grid_rect, rng):
        v = random_vector(grid_rect, rng)
        assert l2(v)**2 <= (1.0 / grid_rect.poincare_lambda1) * grad_norm_sq(v) * (1 + 1e-12)

    def test_grad_norm_matches_dissipation_form(self, grid_rect, rng):
        v = random_vector(grid_rect, rng)
        form = -inner_vec(vector_laplacian(v), v)
        assert grad_norm_sq(v) == pytest.approx(form, rel=1e-12)

    def test_grad_norm_of_couette_profile(self, grid_rect):
        g = grid_rect
        gb, gt = -0.7, 1.3
        v = VectorField.from_components(g, lambda x, y: gb + (gt - gb) * y / g.ly + 0.0 * x,
                                        lambda x, y: 0.0 * x)
        got = grad_norm_sq(v, (np.full(g.nx, gb), np.full(g.nx, gt)))
        assert got == pytest.approx(((gt - gb) / g.ly) ** 2 * g.lx * g.ly, rel=1e-12)

    def test_grad_norm_with_wall_data_matches_stencil(self, grid_rect, rng):
        g = grid_rect
        v = random_vector(g, rng)
        gb, gt = rng.standard_normal(g.nx), rng.standard_normal(g.nx)
        want = grad_norm_sq_stencil(v, gb, gt)
        assert grad_norm_sq(v, (gb, gt)) == pytest.approx(want, rel=1e-12)
        zero = np.zeros(g.nx)
        assert grad_norm_sq(v) == pytest.approx(grad_norm_sq_stencil(v, zero, zero), rel=1e-12)


class TestParseval:
    """Parseval sums over one transform against the stencil values of the same norms."""

    @staticmethod
    def sums(s):
        g = s.grid
        c = g.to_spectral(s.values)
        p = c.real**2 + c.imag**2
        lam = g.lam_neumann
        return parseval_sum(g, np.stack((p, -lam * p, lam**2 * p, lam**4 * p)))

    @staticmethod
    def stencils(s):
        lap = laplacian_neumann(s)
        return (l2(s)**2, l2(gradient(s))**2, l2(lap)**2, l2(laplacian_neumann(lap))**2)

    def test_random_fields(self, grid_rect, rng):
        g = grid_rect
        for s in (random_scalar(g, rng),
                  ScalarField(rng.standard_normal((g.nx, g.ny)) + 3.0, g)):
            assert self.sums(s) == pytest.approx(self.stencils(s), rel=1e-12)

    # the x-Nyquist mode k = nx/2 and the last cosine mode m = ny - 1 carry
    # the edge weights of parseval_sum
    @pytest.mark.parametrize("k, m", [(16, 0), (0, 23), (16, 23), (3, 23), (16, 5)])
    def test_edge_modes(self, grid_rect, k, m):
        g = grid_rect
        s = ScalarField.from_function(
            g, lambda x, y: np.cos(2 * np.pi * k * x / g.lx + 0.4) * np.cos(np.pi * m * y / g.ly))
        assert l2(s) > 0.1
        assert self.sums(s) == pytest.approx(self.stencils(s), rel=1e-12)

    def test_stacked_transform_is_one_transform_per_field(self, grid_rect, rng):
        g = grid_rect
        a, b = random_scalar(g, rng), random_scalar(g, rng)
        c = g.to_spectral(np.stack((a.values, b.values)))
        assert np.array_equal(c[0], g.to_spectral(a.values))
        assert np.array_equal(c[1], g.to_spectral(b.values))

    @pytest.mark.parametrize("name, kind", [("dct", 2), ("idct", 2), ("dst", 2),
                                            ("idst", 2), ("dst", 1), ("idst", 1)])
    def test_complex_transform_in_one_call(self, rng, name, kind):
        transform = getattr(scipy.fft, name)
        c = rng.standard_normal((3, 17, 24)) + 1j * rng.standard_normal((3, 17, 24))
        want = transform(c, type=kind, axis=-1)
        assert np.array_equal(complex_r2r(transform, c, kind), want)
        assert np.array_equal(complex_r2r(transform, c[1], kind), want[1])
        assert np.array_equal(complex_r2r(transform, c.copy(), kind, overwrite_x=True), want)

    def test_scalar_grad_norm_matches_stencil(self, grid_rect, rng):
        s = random_scalar(grid_rect, rng)
        assert grad_norm_sq(s) == pytest.approx(l2(gradient(s))**2, rel=1e-12)


def _east(a):
    return np.roll(a, -1, axis=0)


def _west(a):
    return np.roll(a, 1, axis=0)


def _dy_ux_long_form(ux, walls, dy):
    gb, gt = (0.0, 0.0) if walls is None else walls
    out = np.empty((ux.shape[0], ux.shape[1] + 1))
    out[:, 1:-1] = (ux[:, 1:] - ux[:, :-1]) / dy
    out[:, 0] = 2.0 * (ux[:, 0] - gb) / dy
    out[:, -1] = 2.0 * (gt - ux[:, -1]) / dy
    return out


def laplacian_neumann_long_form(s):
    g, a = s.grid, s.values
    out = (_east(a) - 2.0 * a + _west(a)) / g.dx**2
    ydiff = np.zeros_like(a)
    ydiff[:, :-1] += (a[:, 1:] - a[:, :-1])
    ydiff[:, 1:] += (a[:, :-1] - a[:, 1:])
    return out + ydiff / g.dy**2


def advect_scalar_long_form(v, s):
    g, a = s.grid, s.values
    flux_x = v.ux * (0.5 * (a + _west(a)))
    flux_y = np.zeros((g.nx, g.ny + 1))
    flux_y[:, 1:-1] = v.uy[:, 1:-1] * (0.5 * (a[:, 1:] + a[:, :-1]))
    return (_east(flux_x) - flux_x) / g.dx + (flux_y[:, 1:] - flux_y[:, :-1]) / g.dy


def vector_laplacian_long_form(v, walls):
    g = v.grid
    dx2, dy2 = g.dx**2, g.dy**2
    a = v.ux
    lap_x = (_east(a) - 2 * a + _west(a)) / dx2
    dyux = _dy_ux_long_form(a, walls, g.dy)
    lap_x += (dyux[:, 1:] - dyux[:, :-1]) / g.dy
    b = v.uy
    lap_y = np.zeros_like(b)
    lap_y[:, 1:-1] = (_east(b[:, 1:-1]) - 2 * b[:, 1:-1] + _west(b[:, 1:-1])) / dx2 \
        + (b[:, 2:] - 2 * b[:, 1:-1] + b[:, :-2]) / dy2
    return lap_x, lap_y


def grad_norm_sq_long_form(v, walls):
    def xdiff_sq(a):
        d, e = a[1:] - a[:-1], a[0] - a[-1]
        return np.vdot(d, d) + np.vdot(e, e)

    def ydiff_sq(a):
        d = a[:, 1:] - a[:, :-1]
        return np.vdot(d, d)

    g = v.grid
    d = _dy_ux_long_form(v.ux, walls, 1.0)
    b, t, inner = d[:, 0].copy(), d[:, -1].copy(), d[:, 1:-1].copy()
    total = (xdiff_sq(v.ux) + xdiff_sq(v.uy[:, 1:-1])) / g.dx**2 \
        + (ydiff_sq(v.uy) + np.vdot(inner, inner)
           + 0.5 * (np.vdot(b, b) + np.vdot(t, t))) / g.dy**2
    return float(g.cell_area * total)


class TestKernelsBitForBit:
    """The stencils against their operation-by-operation forms with shifted copies.

    Each kernel keeps the order of operations of the long form, so the
    values are equal, not close.
    """

    # a sum over a few hundred terms may round alike in two orders, so
    # every kernel is also taken on a larger grid
    @pytest.mark.parametrize("case", WALL_CASES)
    def test_vector_kernels(self, grid_rect, rng, case):
        for g in (grid_rect, Grid(64, 48, lx=1.5)):
            v = random_vector(g, rng)
            walls = wall_case(g, rng, case)
            lap = vector_laplacian(v, walls)
            want_x, want_y = vector_laplacian_long_form(v, walls)
            assert np.array_equal(lap.ux, want_x) and np.array_equal(lap.uy, want_y)
            assert grad_norm_sq(v, walls) == grad_norm_sq_long_form(v, walls)

    def test_scalar_kernels(self, grid_rect, rng):
        for g in (grid_rect, Grid(64, 48, lx=1.5)):
            s, v = random_scalar(g, rng), random_vector(g, rng)
            assert np.array_equal(laplacian_neumann(s).values, laplacian_neumann_long_form(s))
            assert np.array_equal(advect_scalar(v, s).values, advect_scalar_long_form(v, s))


class TestProjectedNorm:
    @pytest.mark.parametrize("divfree", [False, True])
    def test_stokes_term_matches_projection(self, grid_rect, rng, divfree):
        ubar = (random_divfree if divfree else random_vector)(grid_rect, rng)
        v = -1.0 * vector_laplacian(ubar)
        want = l2(leray_project(v)[0])**2
        assert projected_norm_sq(v) == pytest.approx(want, rel=1e-12)

    def test_pure_gradient_gives_zero(self, grid_rect):
        # |v|^2 - |grad q|^2 is round-off of either sign here (negative for
        # about 1 in 100 of these fields), so the clamp keeps B >= 0
        for seed in range(200):
            v = gradient(random_scalar(grid_rect, np.random.default_rng(seed)))
            got = projected_norm_sq(v)
            assert 0.0 <= got <= 1e-12 * l2(v)**2, seed
