import dataclasses
import math
import warnings

import numpy as np
import pytest

from chns import lifting, ops, solver
from chns.boundary import TRACE_TOL, Amplitude, WallData, check_compatibility, wall_profile
from chns.config import (RunConfig, build_grid, build_initial_phi, build_initial_u,
                         build_solver_config, build_wall_data)
from chns.diagnostics import DiagnosticsContext, _stationary_residual, energy
from chns.errors import (CFLViolation, InvariantViolation, NonpositiveViscosity,
                         SolverDiverged)
from chns.grid import Grid, ScalarField, VectorField
from chns.lifting import EllipticLift, ParabolicLift
from chns.ops import (advect_scalar, advect_velocity, divergence, gradient, inner,
                      inner_vec, l2, laplacian_neumann, vector_laplacian, viscous_term)
from chns.potential import ViscositySpec, eval_dF, eval_F
from chns.solver import Simulation, SolverConfig, cfl_bound, ch_substep

from conftest import (needs_argument_moves, random_divfree, random_scalar,
                      random_vector, traced_peak_arrays)


def constant_visc(value=1.0, gap=0.1):
    return ViscositySpec(nu1=value - gap / 2, nu2=value + gap / 2,
                         kind="constant", value=value)


def couette_field(grid, U=1.0):
    return VectorField(np.tile(U * grid.yc / grid.ly, (grid.nx, 1)),
                       np.zeros((grid.nx, grid.ny + 1)), grid)


def same_state_bytes(a, b) -> bool:
    """Whether two states hold the same bytes in u, phi, mu and p."""
    pairs = [(a.u.ux, b.u.ux), (a.u.uy, b.u.uy)]
    pairs += [(getattr(a, n).values, getattr(b, n).values) for n in ("phi", "mu", "p")]
    return all(x.tobytes() == y.tobytes() for x, y in pairs)


def noise_phi(grid, amp=1e-2, mean=0.0, seed=7):
    rng = np.random.default_rng(seed)
    vals = amp * rng.standard_normal((grid.nx, grid.ny))
    return ScalarField(vals - vals.mean() + mean, grid)


def cfg_for(grid, dt, t_end, mode="direct", visc=None, **kw):
    return SolverConfig(dt=dt, t_end=t_end, mode=mode,
                        viscosity=visc or ViscositySpec(nu1=1.0, nu2=1.05),
                        **kw)


class TestChSubstep:
    def test_constant_is_fixed_point(self):
        grid = Grid(32, 32)
        phi = ScalarField(np.full((grid.nx, grid.ny), 0.3), grid)
        phi_new, mu_new = ch_substep(phi, VectorField.zeros(grid), 1e-3, 2.0)
        assert np.abs(phi_new.values - 0.3).max() < 1e-14
        expect_mu = 4 * 0.3 * (0.3**2 - 1)
        assert np.abs(mu_new.values - expect_mu).max() < 1e-13

    def test_single_mode_growth_factor(self):
        grid = Grid(64, 16)
        dt, s = 1e-3, 2.0
        amp = 0.01
        phi = ScalarField.from_function(grid, lambda x, y: amp * np.cos(2 * np.pi * x))
        phi_new, _ = ch_substep(phi, VectorField.zeros(grid), dt, s)
        lam = (2.0 / grid.dx**2) * (1.0 - np.cos(2 * np.pi * grid.dx))
        # linearized symbol about 0 with curvature -4
        growth = (1 + dt * lam * (s + 4.0)) / (1 + dt * lam * (lam + s))
        c_old = np.fft.rfft(phi.values[:, 0])[1]
        c_new = np.fft.rfft(phi_new.values[:, 0])[1]
        assert abs(c_new / c_old - growth) < 1e-4 * growth

    def test_mass_conserved_over_many_steps(self, rng):
        grid = Grid(32, 32)
        v = random_divfree(grid, rng)
        phi = noise_phi(grid, amp=0.1, mean=0.2)
        m0 = phi.mean()
        for _ in range(1000):
            phi, _ = ch_substep(phi, v, 1e-3, 2.0)
        assert abs(phi.mean() - m0) < 1e-11

    @pytest.mark.parametrize("dt", [-1e-3, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("form", ["one_step", "bdf2"])
    def test_dt_not_positive_and_finite_rejected(self, dt, form):
        grid = Grid(16, 16)
        phi, zero = noise_phi(grid), VectorField.zeros(grid)
        previous = (phi, zero) if form == "bdf2" else None
        with pytest.raises(InvariantViolation, match="dt must be positive and finite"):
            ch_substep(phi, zero, dt, 2.0, previous)


class TestChSubstepBdf2:
    def test_constant_is_fixed_point(self, rng):
        grid = Grid(32, 32)
        phi = ScalarField(np.full((grid.nx, grid.ny), 0.3), grid)
        history = (phi.copy(), random_divfree(grid, rng))
        phi_new, mu_new = ch_substep(phi, random_divfree(grid, rng), 1e-3, 2.0, previous=history)
        assert np.abs(phi_new.values - 0.3).max() < 1e-14
        expect_mu = 4 * 0.3 * (0.3**2 - 1)
        assert np.abs(mu_new.values - expect_mu).max() < 1e-13

    def test_single_mode_two_step_recurrence(self):
        grid = Grid(64, 16)
        dt, s = 1e-3, 2.0
        amp = 0.01
        zero = VectorField.zeros(grid)
        phi_old = ScalarField.from_function(grid, lambda x, y: amp * np.cos(2 * np.pi * x))
        phi, _ = ch_substep(phi_old, zero, dt, s)
        phi_new, _ = ch_substep(phi, zero, dt, s, previous=(phi_old, zero))
        lam = (2.0 / grid.dx**2) * (1.0 - np.cos(2 * np.pi * grid.dx))
        c_old, c, c_new = (np.fft.rfft(f.values[:, 0])[1] for f in (phi_old, phi, phi_new))
        # linearized about 0 (F'' = -4), with phibar = 2 c - c_old
        expect = ((4 * c - c_old) / (2 * dt) + lam * (s + 4.0) * (2 * c - c_old)) \
            / (1.5 / dt + lam * lam + s * lam)
        assert abs(c_new - expect) < 1e-6 * abs(expect)
        assert abs(c_new - c) > 1e-3 * abs(c)        # the mode moved

    def test_mass_conserved_over_many_steps(self, rng):
        grid = Grid(32, 32)
        phi = noise_phi(grid, amp=0.1, mean=0.2)
        m0 = phi.mean()
        history = None
        for _ in range(1000):
            v = random_divfree(grid, rng)
            phi_new, _ = ch_substep(phi, v, 1e-3, 2.0, previous=history)
            history, phi = (phi, v), phi_new
        assert abs(phi.mean() - m0) < 1e-11

    def test_one_step_start_matches_backward_euler(self, rng):
        # without history: (phi+ - phi)/dt + div(v phi) = Lap mu+,
        # mu+ = -Lap phi+ + F'(phi) + S (phi+ - phi), written term by term
        grid = Grid(32, 24, 2.0, 1.5)
        phi = noise_phi(grid, amp=0.3, mean=0.1)
        v = random_divfree(grid, rng)
        dt, s = 2e-3, 2.0
        lam = grid.lam_neumann
        rhs = phi.values / dt - advect_scalar(v, phi).values
        fp = 4 * phi.values * (phi.values**2 - 1)
        phi_hat = (grid.to_spectral(rhs) + lam * grid.to_spectral(fp)
                   - s * lam * grid.to_spectral(phi.values)) / (1 / dt + lam * lam - s * lam)
        expect = grid.from_spectral(phi_hat)
        phi_new, mu_new = ch_substep(phi, v, dt, s)
        scale = np.abs(expect).max()
        assert np.abs(phi_new.values - expect).max() < 1e-13 * scale
        mu_expect = (-laplacian_neumann(ScalarField(expect, grid)).values + fp
                     + s * (expect - phi.values))
        assert np.abs(mu_new.values - mu_expect).max() < 1e-10 * np.abs(mu_expect).max()

    def test_free_energy_nonincreasing_at_default_stabilization(self):
        # S = 2 is below L/2 = 4 at |phi| = 1 (F'' = 12 phi^2 - 4), so
        # Shen & Yang's condition does not cover the range reached here; the
        # decrease is observed, not guaranteed
        grid = Grid(64, 64, 32.0, 32.0)
        phi = noise_phi(grid)
        zero = VectorField.zeros(grid)

        def free_energy(f):
            return 0.5 * l2(gradient(f)) ** 2 + float(np.sum(eval_F(f.values))) * grid.cell_area

        energies = [free_energy(phi)]
        history = None
        for _ in range(64):
            phi_new, _ = ch_substep(phi, zero, 1 / 8, 2.0, previous=history)
            history, phi = (phi, zero), phi_new
            energies.append(free_energy(phi))
        assert np.diff(energies).max() < 0.0
        assert np.abs(phi.values).max() > 0.95         # coarsened to the wells


class TestSimulationHistory:
    def test_assigned_state_restarts_with_one_step_scheme(self):
        grid = Grid(16, 16)
        cfg = cfg_for(grid, 1e-3, 0.01)
        resumed, restarted = (Simulation(grid, cfg, WallData.zero(grid),
                                         noise_phi(grid, amp=0.1), VectorField.zeros(grid))
                              for _ in range(2))
        for _ in range(3):
            resumed.step()
        st = resumed.state
        restarted.state = st
        one_step, _ = ch_substep(st.phi, st.u, cfg.dt, cfg.stabilization)
        assert np.array_equal(restarted.step().phi.values, one_step.values)
        assert not np.array_equal(resumed.step().phi.values, one_step.values)


class TestCapillaryForce:
    def test_exchange_identity_with_transport(self, rng):
        """<u, mu grad(phi)> = <mu, div(u phi)> for discretely divergence-free u,
        so the coupling terms of the energy law cancel."""
        grid = Grid(32, 24, lx=2.0, ly=1.5)

        def smooth(amp):
            c = amp * rng.standard_normal((3, 3))
            return ScalarField.from_function(grid, lambda x, y: sum(
                c[m, n] * np.cos(2 * np.pi * m * x / grid.lx + n) * np.cos(np.pi * n * y / grid.ly)
                for m in range(3) for n in range(3)))

        phi, mu, u = smooth(1.0), smooth(30.0), random_divfree(grid, rng)
        force = inner_vec(u, solver.capillary_force(phi, mu))
        transport = inner(mu, advect_scalar(u, phi))
        assert abs(force) > 1.0
        assert abs(force - transport) < 1e-13 * l2(u) * l2(mu) * l2(gradient(phi))


class TestMomentumForce:
    """The flux-form explicit force against the sum of the reference operators."""

    @pytest.mark.parametrize("walls", ["wall_data", "homogeneous"])
    @pytest.mark.parametrize("viscosity", ["tanh", "constant"])
    def test_matches_operator_sum(self, grid_rect, rng, viscosity, walls):
        g = grid_rect
        phi, mu, v = random_scalar(g, rng), random_scalar(g, rng), random_vector(g, rng)
        spec = ViscositySpec(nu1=0.5, nu2=1.5) if viscosity == "tanh" \
            else constant_visc(0.8, gap=0.4)
        nu, a = spec(phi.values), solver.implicit_viscosity(spec)
        if walls == "wall_data":
            gb, gt = rng.standard_normal(g.nx), rng.standard_normal(g.nx)
        else:
            gb, gt = np.zeros(g.nx), np.zeros(g.nx)
        ref = solver.capillary_force(phi, mu) - advect_velocity(v, v) \
            + viscous_term(ScalarField(nu, g), v, (gb, gt)) \
            - (0.5 * a) * vector_laplacian(v, (gb, gt))
        out = solver.momentum_force(phi, mu, v, solver.viscosity_tables(nu, a), a, (gb, gt))
        assert l2(out - ref) <= 1e-13 * l2(ref)
        assert not out.uy[:, 0].any() and not out.uy[:, -1].any()

    def test_viscous_remainder_vanishes_at_nu_equal_a(self, grid_rect, rng):
        # nu = a leaves (a/2) grad(div v), zero on divergence-free v, wall data or not
        g = grid_rect
        v, a = random_divfree(g, rng), 1.3
        gb, gt = rng.standard_normal(g.nx), rng.standard_normal(g.nx)
        zero = ScalarField.zeros(g)
        tables = solver.viscosity_tables(np.full((g.nx, g.ny), a), a)
        out = solver.momentum_force(zero, zero, v, tables, a, (gb, gt))
        adv = advect_velocity(v, v)
        assert l2(out + adv) <= 1e-13 * (l2(adv) + a * l2(vector_laplacian(v, (gb, gt))))

    def test_nonpositive_viscosity_rejected(self, grid_rect, rng):
        g = grid_rect
        phi, v = random_scalar(g, rng), random_vector(g, rng)
        nu = np.ones((g.nx, g.ny))
        nu[3, 4] = 0.0
        with pytest.raises(NonpositiveViscosity):
            solver.momentum_force(phi, phi, v, solver.viscosity_tables(nu, 1.0), 1.0,
                                  (np.zeros(g.nx), np.zeros(g.nx)))


class TestStepPlan:
    """What the run fixes is computed once per Simulation, not once per step."""

    @pytest.mark.parametrize("mode", solver.MODES)
    @pytest.mark.parametrize("viscosity", ["constant", "tanh"])
    def test_viscosity_tables_built_once_per_run_when_constant(self, monkeypatch, mode,
                                                                viscosity):
        calls = {"viscosity": 0, "corners": 0}
        call, corners = ViscositySpec.__call__, solver._nu_at_corners

        def counted_call(spec, s):
            calls["viscosity"] += 1
            return call(spec, s)

        def counted_corners(nu):
            calls["corners"] += 1
            return corners(nu)

        monkeypatch.setattr(ViscositySpec, "__call__", counted_call)
        monkeypatch.setattr(solver, "_nu_at_corners", counted_corners)
        grid, n_steps = Grid(16, 16), 5
        visc = constant_visc() if viscosity == "constant" else None
        sim = Simulation(grid, cfg_for(grid, 1e-3, 0.01, mode=mode, visc=visc),
                         WallData.zero(grid), noise_phi(grid), VectorField.zeros(grid))
        for _ in range(n_steps):
            sim.step()
        once = 1 if viscosity == "constant" else n_steps
        assert calls == {"viscosity": once, "corners": once}

    def test_plan_tables_are_read_only(self):
        grid = Grid(16, 16)
        sim = Simulation(grid, cfg_for(grid, 1e-3, 0.01, visc=constant_visc()),
                         WallData.zero(grid), noise_phi(grid), VectorField.zeros(grid))
        assert len(sim.viscosity_tables) == 2
        for table in sim.viscosity_tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0


class TestNsDirect:
    def test_rest_state_stays_at_rest(self):
        grid = Grid(32, 32)
        cfg = cfg_for(grid, 1e-3, 0.01, visc=constant_visc())
        sim = Simulation(grid, cfg, WallData.zero(grid),
                         ScalarField(np.full((32, 32), 0.4), grid),
                         VectorField.zeros(grid))
        for _ in range(10):
            sim.step()
        assert sim.state.u.max_abs() == 0.0

    def test_couette_is_exact_steady_state(self):
        grid = Grid(32, 32)
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("custom_static", a0=1.0))
        cfg = cfg_for(grid, 2e-3, 0.1, visc=constant_visc())
        sim = Simulation(grid, cfg, data, ScalarField(np.full((32, 32), 0.2), grid),
                         couette_field(grid))
        for _ in range(50):
            sim.step()
        assert np.abs(sim.state.u.ux - couette_field(grid).ux).max() < 1e-12
        assert np.abs(sim.state.u.uy).max() < 1e-12

    def test_relaxation_to_couette(self):
        grid = Grid(32, 32)
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("custom_static", a0=1.0))
        cfg = cfg_for(grid, 2e-3, 4.0, visc=constant_visc())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # deliberately incompatible start
            sim = Simulation(grid, cfg, data, ScalarField(np.full((32, 32), 0.2), grid),
                             VectorField.zeros(grid))
        for _ in range(2000):
            sim.step()
        assert np.abs(sim.state.u.ux - couette_field(grid).ux).max() < 1e-6

    def test_incompressible_every_step(self):
        grid = Grid(32, 32)
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0))
        cfg = cfg_for(grid, 2e-3, 0.05, visc=ViscositySpec(nu1=1.0, nu2=1.04))
        sim = Simulation(grid, cfg, data, noise_phi(grid), VectorField.zeros(grid))
        for _ in range(25):
            sim.step()
            assert np.abs(divergence(sim.state.u).values).max() < 1e-10

    @staticmethod
    def tanh_start():
        """A 64^2 direct run of walls moving at t = 0 with a law of phi, after one step."""
        grid, cfg, data, phi0, u0 = TestSimulationInputs.lift_start(64, "direct")
        cfg = dataclasses.replace(cfg, dt=1e-3, viscosity=ViscositySpec(nu1=0.5, nu2=1.5))
        sim = Simulation(grid, cfg, data, phi0, u0)
        sim.step()
        return grid, cfg, data, sim

    @needs_argument_moves
    def test_momentum_step_frees_its_force_and_tables_before_the_solve(self):
        """The traced peak of one momentum step above entry, in full-grid arrays.

        Called as ``Simulation.step`` calls it, with the per-step tables of a
        law of phi passed unnamed: the step drops them after the force, the
        force sums each component into its own array, and the solve releases
        the force and its wall-data copy once its rffts are taken, and each
        complex array at its last use: 8.1 arrays, against 11.1 when the force
        was summed in temporaries and the solve held its complex arrays, and
        13.4 when the force and tables were held through the solve too.
        """
        grid, cfg, data, sim = self.tanh_start()
        st = sim.state
        phi, mu = solver.ch_substep(st.phi, st.u, cfg.dt, cfg.stabilization)
        walls = (data.eval_wall(st.t), data.eval_wall(st.t + cfg.dt))

        def step():
            return solver.ns_substep_direct(
                st.u, phi, mu, solver.viscosity_tables(cfg.viscosity(phi.values), sim.a),
                sim.a, walls[0], walls[1], cfg.dt)

        assert traced_peak_arrays(grid, step) <= 9.1

    @needs_argument_moves
    def test_bdf2_step_drops_each_array_at_its_last_use(self):
        """The traced peak of a whole two-step ``Simulation.step`` above entry.

        The history, the extrapolations and the advection term die inside the
        concentration step, and the momentum step peaks in its force with the
        new phi and mu and the per-step tables held: 10.2 full-grid arrays,
        against 13.2 when every array of the step lived to the end of its call.
        """
        grid, _, _, sim = self.tanh_start()
        sim.step()                              # the two-step scheme's tables are built here
        assert sim._history is not None
        assert traced_peak_arrays(grid, sim.step) <= 11.2


def single_mode_inputs(grid, visc):
    """x-dependent walls that move under a ramp, noise phi0, u0 = 0."""
    data = WallData(grid, wall_profile(grid, "single_mode:2"),
                    wall_profile(grid, "single_mode:1", scale=-0.5),
                    Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=2.0))
    return data, noise_phi(grid), VectorField.zeros(grid)


def zero_wall_inputs(grid, visc):
    return WallData.zero(grid), noise_phi(grid), VectorField.zeros(grid)


def uniform_top_inputs(grid, visc):
    data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                    Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0))
    return data, noise_phi(grid, amp=5e-3), VectorField.zeros(grid)


def orders_in_dt_inputs(grid, visc):
    """The case of ``observed_orders``: a ramped uniform top wall over a smooth phi0."""
    data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                    Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=4.0))
    phi0 = ScalarField.from_function(
        grid, lambda x, y: 0.5 * np.cos(np.pi * x / 4) * np.cos(np.pi * y / 8))
    return data, phi0, VectorField.zeros(grid)


def orders_in_h_inputs(grid, visc):
    """The case of ``orders_in_h``: a tanh interface between single-mode walls
    moving in opposite directions under a ramp, from u0 = the stationary lift."""
    data = WallData(grid, wall_profile(grid, "single_mode:1"),
                    wall_profile(grid, "single_mode:1", scale=-1.0),
                    Amplitude("couette_ramp", a0=1.0, a_inf=0.5, rate=2.0))
    phi0 = ScalarField.from_function(
        grid, lambda x, y: np.tanh((y - 4.0 - 0.5 * np.cos(np.pi * x / 4)) / np.sqrt(2)))
    return data, phi0, EllipticLift(grid, visc.nu1, data).state_at(0.0)


# id: (grid arguments, inputs, viscosity, dt, steps)
LIFTED_CASES = {
    "tanh_2to1": ((32, 32), single_mode_inputs, ViscositySpec(nu1=0.5, nu2=1.0), 4e-3, 125),
    "tanh_3to1": ((32, 32), single_mode_inputs, ViscositySpec(nu1=0.5, nu2=1.5), 4e-3, 125),
    "constant_2to1": ((32, 32), single_mode_inputs,
                      ViscositySpec(nu1=0.5, nu2=1.0, kind="constant"), 4e-3, 125),
    "constant_3to1": ((32, 32), single_mode_inputs,
                      ViscositySpec(nu1=0.5, nu2=1.5, kind="constant"), 4e-3, 125),
    "orders_in_dt": ((32, 32, 8.0, 8.0), orders_in_dt_inputs,
                     ViscositySpec(nu1=0.5, nu2=1.0), 2.0 ** -6, 16),
    "orders_in_h": ((32, 32, 8.0, 8.0), orders_in_h_inputs,
                    ViscositySpec(nu1=0.5, nu2=1.5), 2.0 ** -10, 32),
    "zero_walls": ((32, 32), zero_wall_inputs, ViscositySpec(nu1=1.0, nu2=1.04), 1e-3, 20),
    "uniform_top": ((32, 32), uniform_top_inputs, ViscositySpec(nu1=1.0, nu2=1.05), 2e-3, 30),
}


class TestLiftedModes:
    @pytest.mark.parametrize("case", LIFTED_CASES)
    @pytest.mark.parametrize("mode", ["lifted_elliptic", "lifted_parabolic"])
    def test_lifted_modes_give_the_direct_solution(self, mode, case):
        # the direct step is the exact lifted step, so the lift defines ubar
        # and not u: every case gives the direct run's bytes, moving walls or not
        grid_args, inputs, visc, dt, steps = LIFTED_CASES[case]
        grid = Grid(*grid_args)
        data, phi0, u0 = inputs(grid, visc)
        finals = {}
        for m in ("direct", mode):
            cfg = cfg_for(grid, dt, dt * steps, mode=m, visc=visc)
            sim = Simulation(grid, cfg, data, phi0, u0)
            for _ in range(steps):
                sim.step()
            finals[m] = sim.state
        st, ref = finals[mode], finals["direct"]
        assert same_state_bytes(st, ref)
        # the record's ubar, with the lift stepped lazily to the final time
        ctx = DiagnosticsContext.for_run(grid, cfg, data, lift=sim.ell)
        ubar = ctx.ubar(st)
        lift = ctx.u_p_at(st.t) if mode == "lifted_parabolic" else sim.ell.state_at(st.t)
        assert l2(ubar + lift - st.u) <= 1e-14 * l2(st.u)
        assert np.all(ubar.uy[:, 0] == 0.0) and np.all(ubar.uy[:, -1] == 0.0)
        assert np.abs(divergence(ubar).values).max() < 1e-12
        assert abs(st.phi.mean() - phi0.mean()) < 1e-14

    @pytest.mark.parametrize("mode", ["lifted_elliptic", "lifted_parabolic"])
    def test_assigned_u_is_what_the_next_record_reads(self, mode):
        # ubar is derived from u and the lift, so a new u cannot leave it stale
        grid, cfg, data, phi0, u0 = TestSimulationInputs.lift_start(16, mode)
        cfg = dataclasses.replace(cfg, dt=2e-3, t_end=0.0)
        sim = Simulation(grid, cfg, data, phi0, u0)
        ctx = DiagnosticsContext.for_run(grid, cfg, data, lift=sim.ell)
        sim.step()
        st = sim.state
        lift = ParabolicLift(sim.ell) if mode == "lifted_parabolic" else None
        if lift is not None:
            lift.step(cfg.dt)
        sim.state = dataclasses.replace(st, u=2.0 * st.u)
        kinetic = 0.5 * l2(2.0 * st.u - (lift.u_p if lift else sim.ell.state_at(st.t))) ** 2
        assert kinetic > 0.1
        assert sim.run(diagnostics_context=ctx)[0].kinetic == pytest.approx(kinetic, rel=1e-12)

    @pytest.mark.parametrize("mode", solver.MODES)
    def test_refused_momentum_step_changes_neither_state_nor_lift(self, monkeypatch, mode):
        # the step holds no lift; the record context's lift keeps its clock
        grid, cfg, data, phi0, u0 = TestSimulationInputs.lift_start(16, mode)
        dt = 2e-3
        cfg = dataclasses.replace(cfg, dt=dt, t_end=2e-2)
        sim = Simulation(grid, cfg, data, phi0, u0)
        ctx = DiagnosticsContext.for_run(grid, cfg, data, lift=sim.ell)
        sim.step()
        before = sim.state
        energy(before, ctx)
        solve = solver.helmholtz_project_velocity

        def poisoned(*args):
            u, q = solve(*args)
            u.ux[3, 5] = math.nan
            return u, q

        monkeypatch.setattr(solver, "helmholtz_project_velocity", poisoned)
        with pytest.raises(SolverDiverged):
            sim.step()
        assert sim.state is before
        if mode == "lifted_parabolic":
            assert ctx.lift.t == before.t
        monkeypatch.undo()
        after = sim.step()
        assert after.t == before.t + dt
        energy(after, ctx)
        if mode == "lifted_parabolic":
            assert ctx.lift.t == after.t
        # the diverged step dropped the history: the next one is the one-step
        # start from the last good state, as after that state is assigned
        sim.state = before
        assert same_state_bytes(after, sim.step())

    def test_step_refused_by_the_cfl_check_keeps_the_history(self, monkeypatch):
        grid, cfg, data, phi0, u0 = TestSimulationInputs.lift_start(16, "direct")
        cfg = dataclasses.replace(cfg, dt=2e-3)
        refused, plain = (Simulation(grid, cfg, data, phi0, u0) for _ in range(2))
        for sim in (refused, plain):
            sim.step()
        before = refused.state
        monkeypatch.setattr(solver, "cfl_bound", lambda cfg, grid, umax: 0.5 * cfg.dt)
        with pytest.raises(CFLViolation):
            refused.step()
        assert refused.state is before
        monkeypatch.undo()
        after = refused.step()
        assert same_state_bytes(after, plain.step())
        # the two-step scheme's state, not the one-step start's
        refused.state = before
        assert not same_state_bytes(after, refused.step())


def _starts(compatible):
    """(mode, u profile, trace shift) cases whose verdict is ``compatible``; the
    plain lift and rest starts keep the bare mode as their id."""
    if compatible:
        starts = [("lift", None, None),
                  ("lift", ("bottom", 0.5 * TRACE_TOL), "lift_bottom_half_tol")]
    else:
        starts = [("zero", None, None),
                  ("lift", ("bottom", 2.0 * TRACE_TOL), "lift_bottom_two_tol"),
                  ("lift", ("top", 2.0 * TRACE_TOL), "lift_top_two_tol"),
                  ("lift_vortex", None, "lift_vortex"), ("couette", None, "couette")]
    return [pytest.param(mode, profile, shift, id=mode if name is None else f"{mode}-{name}")
            for mode in solver.MODES for profile, shift, name in starts]


class TestSimulationInputs:
    @staticmethod
    def lift_start(n, mode, u_profile="lift", trace_shift=None):
        """Simulation inputs of a config with walls moving at t = 0 and, unless
        ``u_profile`` says otherwise, u = lift.  ``trace_shift = (wall, d)``
        adds d/1.5 to the x-velocity row at that wall alone, which moves u0's
        extrapolated trace there by d, and would move it by -d/3 if the trace
        read the rows the other way round."""
        cfg = RunConfig(nx=n, ny=n, family="couette_ramp", a0=1.0, a_inf=0.5,
                        g_bottom="single_mode:1", g_top="uniform", u_profile=u_profile,
                        u_vortex_amp=1.0, mode=mode)
        grid = build_grid(cfg)
        data = build_wall_data(cfg, grid)
        u0 = build_initial_u(cfg, grid, data)
        if trace_shift is not None:
            wall, d = trace_shift
            u0.ux[:, 0 if wall == "bottom" else -1] += d / 1.5
        return grid, build_solver_config(cfg), data, build_initial_phi(cfg, grid), u0

    @staticmethod
    def full_grid_verdict(grid, cfg, data, u0):
        """The verdict as the full-grid difference u0 - L(0) and zero wall data give it."""
        verdict = check_compatibility(u0, data)
        if not (verdict or data.is_zero()):
            lift0 = EllipticLift(grid, cfg.viscosity.nu1, data).state_at(0.0)
            verdict = check_compatibility(u0 - lift0, WallData.zero(grid))
        return verdict

    def test_initial_phi_and_mu_are_their_written_out_forms(self):
        cfg = RunConfig(nx=32, ny=24, phi_amp=0.3, phi_mean=0.1, seed=5)
        grid = build_grid(cfg)
        phi0 = build_initial_phi(cfg, grid)
        draw = np.random.default_rng(cfg.seed).standard_normal((grid.nx, grid.ny))
        vals = cfg.phi_amp * draw
        assert phi0.values.tobytes() == (vals - vals.mean() + cfg.phi_mean).tobytes()
        # one in-place function gives mu(0) and the records' stationary residual
        expected = -laplacian_neumann(phi0).values + eval_dF(phi0.values)
        assert solver.initial_mu(phi0).values.tobytes() == expected.tobytes()
        assert _stationary_residual(phi0).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode, u_profile, trace_shift", _starts(compatible=True))
    def test_lift_start_is_compatible_in_every_mode(self, mode, u_profile, trace_shift):
        # u0's extrapolated trace is O(h^2) off the data, but u0 - L(0) has a
        # trace within tol of zero; the direct mode takes L from the data's lift cache
        inputs = self.lift_start(64, mode, u_profile, trace_shift)
        grid, cfg, data, _, u0 = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = Simulation(*inputs)
        assert sim.compatible
        assert self.full_grid_verdict(grid, cfg, data, u0)
        assert len(lifting._UNIT_LIFTS[data]) == 1

    def test_direct_mode_builds_no_lift_for_a_matching_start(self):
        grid = Grid(16, 16)
        data = WallData(grid, wall_profile(grid, "single_mode:1"), wall_profile(grid, "uniform"),
                        Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0))
        sim = Simulation(grid, cfg_for(grid, 1e-3, 0.01), data, noise_phi(grid),
                         VectorField.zeros(grid))
        assert sim.compatible and sim.ell is None
        assert data not in lifting._UNIT_LIFTS

    @pytest.mark.parametrize("mode, u_profile, trace_shift", _starts(compatible=False))
    def test_rest_start_against_moving_walls_warns(self, mode, u_profile, trace_shift):
        # a rest start, and starts whose trace is more than tol off the lift's
        grid, cfg, data, phi0, u0 = self.lift_start(16, mode, u_profile, trace_shift)
        with pytest.warns(UserWarning, match="does not match the wall data"):
            sim = Simulation(grid, cfg, data, phi0, u0)
        assert not sim.compatible
        assert not self.full_grid_verdict(grid, cfg, data, u0)

    @pytest.mark.parametrize("mode", solver.MODES)
    @pytest.mark.parametrize("other", ["data", "phi0", "u0"])
    def test_inputs_from_another_grid_rejected(self, mode, other):
        def inputs(grid):
            return {"data": WallData(grid, wall_profile(grid, "zero"),
                                     wall_profile(grid, "uniform"),
                                     Amplitude("custom_static", a0=1.0)),
                    "phi0": noise_phi(grid), "u0": couette_field(grid)}

        grid = Grid(16, 16, lx=2.0)
        given = inputs(grid)
        given[other] = inputs(Grid(16, 16, lx=4.0))[other]
        with pytest.raises(InvariantViolation, match=other):
            Simulation(grid, cfg_for(grid, 1e-3, 0.01, mode=mode), **given)

    @pytest.mark.parametrize("mode, field, given", [
        *[(mode, field, "other_grid") for mode in solver.MODES
          for field in ("u", "phi", "mu", "p")]])
    def test_assigned_state_it_cannot_step_rejected(self, mode, field, given):
        grid, other = Grid(16, 16, lx=2.0), Grid(16, 16, lx=4.0)
        sim = Simulation(grid, cfg_for(grid, 1e-3, 0.01, mode=mode), WallData.zero(grid),
                         noise_phi(grid), VectorField.zeros(grid))
        before = sim.state
        value = {"phi": noise_phi(other), "mu": ScalarField.zeros(other),
                 "p": ScalarField.zeros(other)}.get(field, VectorField.zeros(other))
        with pytest.raises(InvariantViolation, match="different grids"):
            sim.state = dataclasses.replace(before, **{field: value})
        assert sim.state is before

    @pytest.mark.parametrize("where", ["phi0_nan", "phi0_inf", "ux_nan", "uy_inf", "cfl_umax_nan",
                                       "cfl_ux_nan", "cfl_uy_nan", "cfl_both_nan"])
    def test_non_finite_inputs_rejected(self, where):
        grid = Grid(16, 16)
        cfg = cfg_for(grid, 1e-3, 0.01)
        if where.startswith("cfl_"):
            # umax as the step reads it: a NaN in either component makes max_abs NaN
            u, component = couette_field(grid), where.split("_")[1]
            for name in ("ux", "uy"):
                if component in (name, "both"):
                    getattr(u, name)[3, 5] = math.nan
            with pytest.raises(InvariantViolation, match="umax is nan"):
                cfl_bound(cfg, grid, math.nan if component == "umax" else u.max_abs())
            return
        phi0, u0 = noise_phi(grid), couette_field(grid)
        name, value = where.split("_")
        array = {"phi0": phi0.values, "ux": u0.ux, "uy": u0.uy}[name]
        array[3, 5] = {"nan": math.nan, "inf": math.inf}[value]
        with pytest.raises(InvariantViolation, match="non-finite"):
            Simulation(grid, cfg, WallData.zero(grid), phi0, u0)


class TestRecordLift:
    """The lift lives in the record context (``DiagnosticsContext``), not in the states."""

    @staticmethod
    def start(mode, dt=2e-3, **changes):
        grid, cfg, data, phi0, u0 = TestSimulationInputs.lift_start(16, mode)
        cfg = dataclasses.replace(cfg, dt=dt, **changes)
        sim = Simulation(grid, cfg, data, phi0, u0)
        return sim, DiagnosticsContext.for_run(grid, cfg, data, lift=sim.ell)

    @pytest.mark.parametrize("mode", solver.MODES)
    def test_record_lift_is_the_runs(self, mode):
        """The context takes the run's lift; a re-assigned state records as it ran."""
        sim, ctx = self.start(mode, t_end=6e-3)
        lift = {"direct": None, "lifted_elliptic": sim.ell}.get(mode, ctx.lift)
        assert ctx.lift is lift
        if mode == "lifted_parabolic":
            assert ctx.lift.ell is sim.ell
        st = sim.state
        assert energy(st).kinetic == 0.5 * l2(st.u) ** 2        # no context: u itself
        # the run's own state, re-assigned in a run of its own: every record is
        # that of the run never re-assigned
        expected = [repr(r) for r in sim.run(diagnostics_context=ctx)]
        sim, ctx = self.start(mode, t_end=6e-3)
        sim.state = st
        assert sim.state is st
        assert [repr(r) for r in sim.run(diagnostics_context=ctx)] == expected

    def test_elliptic_record_at_another_time_reads_that_times_lift(self):
        sim, ctx = self.start("lifted_elliptic")
        st = sim.state
        sim.state = moved = dataclasses.replace(st, t=0.25)
        lift = sim.ell.state_at(0.25)
        assert l2(lift - sim.ell.state_at(0.0)) > 0.0
        ubar, ref = ctx.ubar(moved), st.u - lift
        assert ubar.ux.tobytes() == ref.ux.tobytes() and ubar.uy.tobytes() == ref.uy.tobytes()
        assert energy(moved, ctx).kinetic == 0.5 * l2(ref) ** 2

    def test_parabolic_record_ahead_of_the_lift_steps_it_to_that_time(self):
        """A state assigned two steps on is recorded with the u_p of two lift steps."""
        sim, ctx = self.start("lifted_parabolic")
        st = sim.state
        sim.state = moved = dataclasses.replace(st, t=2 * sim.cfg.dt)
        ref = ParabolicLift(sim.ell)
        for _ in range(2):
            ref.step(sim.cfg.dt)
        ubar, want = ctx.ubar(moved), st.u - ref.u_p
        assert ctx.lift.t == ref.t == moved.t
        assert ubar.ux.tobytes() == want.ux.tobytes() and ubar.uy.tobytes() == want.uy.tobytes()
        assert l2(ref.u_p - sim.ell.state_at(0.0)) > 0.0

    @pytest.mark.parametrize("mode", ["lifted_elliptic", "lifted_parabolic"])
    def test_record_of_a_state_on_another_grid_refused(self, mode):
        """Same shape, other length: the lift's arrays would subtract, but it is refused."""
        sim, ctx = self.start(mode)
        st = sim.state
        other = Grid(st.u.grid.nx, st.u.grid.ny, lx=2.0 * st.u.grid.lx)
        moved = dataclasses.replace(st, u=VectorField.zeros(other))
        with pytest.raises(InvariantViolation, match="different grids"):
            energy(moved, ctx)
        if mode == "lifted_parabolic":
            assert ctx.lift.t == 0.0
        assert energy(st, ctx).t == 0.0

    @pytest.mark.parametrize("every", [2, 4])
    def test_lazy_lift_records_are_the_every_step_records(self, every):
        """Records every k steps step the lift k times each, as every-step records do."""
        dt = 2.0 ** -9
        records = {}
        for k in (1, every):
            sim, ctx = self.start("lifted_parabolic", dt, viscosity=constant_visc(),
                                  t_end=16 * dt, record_every=k * dt)
            records[k] = {r.t: repr(r) for r in sim.run(diagnostics_context=ctx)}
        assert len(records[1]) == 17 and len(records[every]) == 16 // every + 1
        assert records[every] == {t: records[1][t] for t in records[every]}
        assert "nan" not in "".join(records[every].values())    # A, B and G included

    @pytest.mark.parametrize("where", ["behind", "between"])
    def test_record_behind_or_between_the_lifts_steps_refused(self, where):
        sim, ctx = self.start("lifted_parabolic")
        st0 = sim.state
        for _ in range(2):
            sim.step()
        st = sim.state
        energy(st, ctx)
        assert ctx.lift.t == st.t
        given = st0 if where == "behind" else dataclasses.replace(st, t=st.t + 0.5 * sim.cfg.dt)
        with pytest.raises(InvariantViolation, match="evolutionary lift is at"):
            energy(given, ctx)
        assert ctx.lift.t == st.t                                # never stepped past
        sim.step()
        assert energy(sim.state, ctx).t == ctx.lift.t == sim.state.t


class TestNothingReturnedIsWritten:
    """A step builds its right-hand sides in arrays of its own.

    Every array of a returned state, of the initial data and of the
    records' evolutionary lift ``u_p`` keeps its bytes through later steps
    and records, and the cached solve tables cannot be written at all.
    """

    @pytest.mark.parametrize("mode", solver.MODES)
    def test_kept_arrays_survive_later_steps(self, mode):
        grid, cfg, data, phi0, u0 = TestSimulationInputs.lift_start(16, mode)
        cfg = dataclasses.replace(cfg, dt=2e-3, t_end=2e-2)
        sim = Simulation(grid, cfg, data, phi0, u0)
        ctx = DiagnosticsContext.for_run(grid, cfg, data, lift=sim.ell)
        for _ in range(2):
            energy(sim.step(), ctx)
        st = sim.state
        kept = [phi0.values, u0.ux, u0.uy, st.phi.values, st.mu.values, st.p.values,
                st.u.ux, st.u.uy]
        if mode == "lifted_parabolic":
            kept += [ctx.lift.u_p.ux, ctx.lift.u_p.uy]
        before = [a.tobytes() for a in kept]
        for _ in range(2):
            energy(sim.step(), ctx)
        assert [a.tobytes() for a in kept] == before

        def builds():
            return (ops._helmholtz_symbols.cache_info().misses,
                    solver._ch_denominator.cache_info().misses)

        before = builds()
        a = solver.implicit_viscosity(cfg.viscosity)
        tables = [*ops._helmholtz_symbols(grid, cfg.dt * 0.5 * a),
                  solver._ch_denominator(grid, 1.5 / cfg.dt, cfg.stabilization),
                  solver._ch_denominator(grid, 1.0 / cfg.dt, cfg.stabilization)]
        if mode == "lifted_parabolic":
            tables += ops._helmholtz_symbols(grid, cfg.dt * cfg.viscosity.nu1)
        assert builds() == before, "solve table not cached"
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0


class TestRunAndInvariants:
    def test_t_end_zero_returns_initial_only(self):
        grid = Grid(16, 16)
        cfg = cfg_for(grid, 1e-3, 0.0)
        sim = Simulation(grid, cfg, WallData.zero(grid), noise_phi(grid), VectorField.zeros(grid))
        records = sim.run()
        state = sim.state
        assert state.t == 0.0
        assert len(records) == 1

    @pytest.mark.parametrize("t_end, record_every", [(0.1, 0.003), (0.099, 0.01)])
    def test_span_not_whole_number_of_steps_rejected(self, t_end, record_every):
        grid = Grid(16, 16)
        cfg = cfg_for(grid, 0.0015, t_end, record_every=record_every)
        sim = Simulation(grid, cfg, WallData.zero(grid), noise_phi(grid),
                         VectorField.zeros(grid))
        with pytest.raises(InvariantViolation, match="whole number of steps"):
            sim.run()
        assert sim.state.t == 0.0

    @pytest.mark.parametrize("field, value", [("record_every", 0.0), ("cfl_safety", 0.0),
                                              ("mode", "bogus")],
                             ids=["record_every", "cfl_safety", "mode"])
    def test_nonpositive_cadence_and_safety_rejected(self, field, value):
        grid = Grid(16, 16)
        with pytest.raises(InvariantViolation, match=field):
            cfg_for(grid, 1e-3, 0.01, **{field: value})

    def test_timestamps_strictly_increasing_and_deterministic(self):
        grid = Grid(16, 16)
        cfg = cfg_for(grid, 1e-3, 0.02, record_every=2e-3)
        outs = []
        for _ in range(2):
            sim = Simulation(grid, cfg, WallData.zero(grid), noise_phi(grid),
                             VectorField.zeros(grid))
            records = sim.run()
            state = sim.state
            ts = [r.t for r in records]
            assert all(a < b for a, b in zip(ts, ts[1:]))
            outs.append((state, records))
        assert np.array_equal(outs[0][0].phi.values, outs[1][0].phi.values)
        assert [r.total for r in outs[0][1]] == [r.total for r in outs[1][1]]

    def test_energy_nonincreasing_homogeneous(self):
        grid = Grid(32, 32)
        cfg = cfg_for(grid, 1e-3, 0.3, record_every=1e-3)
        records = Simulation(grid, cfg, WallData.zero(grid), noise_phi(grid),
                             VectorField.zeros(grid)).run()
        totals = [r.total for r in records]
        assert all(b <= a + 1e-10 for a, b in zip(totals, totals[1:]))

    def test_mass_invariant(self):
        grid = Grid(32, 32)
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0))
        cfg = cfg_for(grid, 1e-3, 0.2, mode="lifted_elliptic",
                      visc=ViscositySpec(nu1=1.0, nu2=1.04))
        records = Simulation(grid, cfg, data, noise_phi(grid, mean=0.15),
                             VectorField.zeros(grid)).run()
        masses = [r.mass for r in records]
        assert max(abs(m - masses[0]) for m in masses) < 1e-10

    def test_one_step_change_scales_linearly_in_dt(self):
        # smooth, resolved state so the first step sits in the O(dt) regime
        grid = Grid(32, 32)
        phi0 = ScalarField.from_function(
            grid, lambda x, y: 0.01 * np.cos(2 * np.pi * x) * np.cos(np.pi * y))
        deltas = []
        for dt in (2e-5, 1e-5):
            cfg = cfg_for(grid, dt, dt)
            sim = Simulation(grid, cfg, WallData.zero(grid), phi0, VectorField.zeros(grid))
            st = sim.step()
            deltas.append(l2(st.phi - phi0))
        assert 1.5 < deltas[0] / deltas[1] < 2.5

    def test_cfl_violation(self):
        # the viscous split has no step limit, so a moving wall supplies one
        grid = Grid(32, 32)
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("custom_static", a0=1.0))
        cfg = cfg_for(grid, 0.5, 1.0, visc=ViscositySpec(nu1=0.5, nu2=1.5))
        sim = Simulation(grid, cfg, data, noise_phi(grid), couette_field(grid))
        with pytest.raises(CFLViolation):
            sim.step()
        assert sim.state.t == 0.0
        assert cfl_bound(cfg, grid, 1.0) == pytest.approx(0.4 * min(grid.dx, 0.5 / 2))
        assert cfl_bound(cfg, grid, 0.0) == math.inf

    def test_stiff_viscosity_ratio_steps_beyond_old_bound(self, monkeypatch):
        # nu2/nu1 = 25 across a resolved tanh interface under a moving wall
        grid = Grid(64, 64, 8.0, 8.0)
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=4.0))
        phi0 = ScalarField.from_function(
            grid, lambda x, y: np.tanh((y - 4.0 - 0.25 * np.cos(np.pi * x / 4)) / math.sqrt(2)))
        visc = ViscositySpec(nu1=0.2, nu2=5.0)
        cfg = cfg_for(grid, 2e-2, 1.0, visc=visc)
        assert cfg.dt > 10 * 0.4 * grid.dx**2 / (visc.nu2 - visc.nu1)   # the old bound
        sim = Simulation(grid, cfg, data, phi0, VectorField.zeros(grid))
        for _ in range(50):
            sim.step()
        st = sim.state
        nu = visc(st.phi.values)
        assert nu.min() < 1.0 and nu.max() > 4.0
        assert st.u.max_abs() <= 1.0
        assert np.abs(divergence(st.u).values).max() < 1e-12

        # the same run with the old implicit constant nu1 blows up
        monkeypatch.setattr(solver, "implicit_viscosity", lambda v: v.nu1)
        sim = Simulation(grid, cfg, data, phi0, VectorField.zeros(grid))
        with pytest.raises((CFLViolation, SolverDiverged)):
            for _ in range(50):
                sim.step()

    @staticmethod
    def observed_orders(visc):
        """log2 error ratios of (u, phi, p) at dt = 2^-6, 2^-7, 2^-8 against dt/64.

        Direct mode only: the lifted modes give its bytes
        (``test_lifted_modes_give_the_direct_solution[...-orders_in_dt]``).
        """
        grid = Grid(32, 32, 8.0, 8.0)
        data, phi0, u0 = orders_in_dt_inputs(grid, visc)
        t_end, dt = 0.25, 2.0 ** -6

        def final(step):
            cfg = cfg_for(grid, step, t_end, visc=visc, record_every=t_end)
            sim = Simulation(grid, cfg, data, phi0, u0)
            sim.run()
            return sim.state

        ref = final(dt / 64)
        errs = [(l2(st.u - ref.u), l2(st.phi - ref.phi), l2(st.p - ref.p))
                for st in (final(dt), final(dt / 2), final(dt / 4))]
        return [[math.log2(c / f) for c, f in zip(coarse, fine)]
                for coarse, fine in zip(errs, errs[1:])]

    # nu2 = 2 nu1 is a second viscosity ratio
    @pytest.mark.parametrize("nu2", [1.5, 1.0], ids=["nu2_1.5", "nu2_1"])
    def test_orders_in_dt(self, nu2):
        # the momentum projection step is first order in u and p; the BDF2
        # concentration step is second order in phi
        windows = ((0.8, 1.3), (1.7, 2.3), (0.8, 1.3))      # u, phi, p
        for orders in self.observed_orders(ViscositySpec(nu1=0.5, nu2=nu2)):
            for order, (lo, hi) in zip(orders, windows):
                assert lo <= order <= hi

    @staticmethod
    def orders_in_h(visc):
        """log2 ratios of successive grid differences of (phi, ux) on 32^2, 64^2, 128^2.

        The case of ``orders_in_h_inputs``: w = u_p - u_e is not zero there,
        from the stationary lift, and the time error at dt = 2^-10 stays below
        the spatial one.  Direct mode only: the lifted modes give its bytes
        (``test_lifted_modes_give_the_direct_solution[...-orders_in_h]``).
        phi is restricted by 2 x 2 cell means, ux by the mean of the two fine
        faces on each coarse face.
        """
        finals = []
        for n in (32, 64, 128):
            grid = Grid(n, n, 8.0, 8.0)
            cfg = cfg_for(grid, 2.0 ** -10, 0.25, visc=visc, record_every=0.25)
            sim = Simulation(grid, cfg, *orders_in_h_inputs(grid, visc))
            sim.run()
            finals.append(sim.state)

        def diffs(coarse, fine):
            nc = coarse.phi.grid.nx
            phi = fine.phi.values.reshape(nc, 2, nc, 2).mean(axis=(1, 3))
            ux = fine.u.ux[::2].reshape(nc, nc, 2).mean(axis=2)
            return (np.sqrt(np.mean((phi - coarse.phi.values) ** 2)),
                    np.sqrt(np.mean((ux - coarse.u.ux) ** 2)))

        (e_phi, e_ux), (f_phi, f_ux) = diffs(*finals[:2]), diffs(*finals[1:])
        return math.log2(e_phi / f_phi), math.log2(e_ux / f_ux)

    # nu2 = 2 nu1 is a second viscosity ratio
    @pytest.mark.parametrize("nu2", [1.5, 1.0], ids=["direct", "direct_nu2_1"])
    def test_orders_in_h(self, nu2):
        orders = self.orders_in_h(ViscositySpec(nu1=0.5, nu2=nu2))
        assert all(1.8 <= order <= 2.2 for order in orders), orders

    def test_forced_nan_raises_solver_diverged_with_partial_records(self):
        grid = Grid(16, 16)
        cfg = cfg_for(grid, 1e-3, 0.01, record_every=1e-3)
        sim = Simulation(grid, cfg, WallData.zero(grid), noise_phi(grid),
                         VectorField.zeros(grid))

        def poison(state, record):
            if state.t > 5e-3:
                sim.state = dataclasses.replace(state, phi=math.nan * state.phi)

        with pytest.raises(SolverDiverged) as exc:
            sim.run(observers=(poison,))
        assert len(exc.value.records) >= 1
