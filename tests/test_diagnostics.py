import math

import numpy as np
import pytest
from scipy.integrate import quad

from chns.boundary import Amplitude, WallData, wall_profile
from chns.diagnostics import (G_TERMS, DiagnosticsContext, EnergyRecord,
                              TrajectorySample, continuous_dependence_metric,
                              energy, energy_inequality_report, evaluate_g,
                              higher_order, steady_state_residual_phi, zlem_tail_check)
from chns.errors import MisalignedSeries, ModeMismatch
from chns.grid import Grid, ScalarField, VectorField
from chns.lifting import EllipticLift, ParabolicLift
from chns.ops import (divergence, grad_norm_sq, gradient, h1, h2_norm_sq,
                      helmholtz_solve_neumann, inner, inner_vec, l2, laplacian_neumann,
                      leray_project, v1_norm, v2_norm, vector_laplacian)
from chns.potential import PotentialSpec, ViscositySpec, eval_dF, eval_F
from chns.solver import SimState, Simulation, SolverConfig

from conftest import needs_argument_moves, random_vector, traced_peak_arrays


def plain_state(grid, phi, u=None, mu_from_phi=True):
    u = u or VectorField.zeros(grid)
    mu = ScalarField(-laplacian_neumann(phi).values + 4 * phi.values * (phi.values**2 - 1),
                     grid)
    return SimState(0.0, u, phi, mu, ScalarField.zeros(grid))


class TestEnergy:
    def test_pure_phase_zero_energy(self):
        grid = Grid(32, 32)
        rec = energy(plain_state(grid, ScalarField(np.ones((32, 32)), grid)))
        assert rec.total == pytest.approx(0.0, abs=1e-14)

    def test_unstable_origin_energy_is_bulk_only(self):
        grid = Grid(32, 32)
        rec = energy(plain_state(grid, ScalarField.zeros(grid)))
        assert rec.total == pytest.approx(1.0, abs=1e-14)
        assert rec.kinetic == 0.0 and rec.interfacial == 0.0

    def test_additivity_invariant(self, rng=np.random.default_rng(5)):
        grid = Grid(32, 32)
        phi = ScalarField(0.3 * rng.standard_normal((32, 32)), grid)
        rec = energy(plain_state(grid, phi, u=random_vector(grid, rng)))
        assert rec.total == rec.kinetic + rec.interfacial + rec.bulk

    def test_interface_profile_against_dense_quadrature(self):
        grid = Grid(8, 256, lx=0.25, ly=1.0)
        delta = 0.25
        prof = lambda y: np.tanh((y - 0.5) / delta)
        phi = ScalarField.from_function(grid, lambda x, y: prof(y))
        rec = energy(plain_state(grid, phi))

        dprof = lambda y: (1 - np.tanh((y - 0.5) / delta) ** 2) / delta
        exact_interf = 0.5 * grid.lx * quad(lambda y: dprof(y) ** 2, 0, 1, limit=200)[0]
        exact_bulk = grid.lx * quad(lambda y: eval_F(prof(y)), 0, 1, limit=200)[0]
        assert rec.interfacial == pytest.approx(exact_interf, rel=1e-3)
        assert rec.bulk == pytest.approx(exact_bulk, rel=1e-3)


class TestEnergyInequality:
    def test_static_state_at_minimum_all_zero(self):
        grid = Grid(16, 16)
        recs = [EnergyRecord(t=float(i), kinetic=0, interfacial=0, bulk=0, total=0,
                             diss_u=0, diss_mu=0, mass=1.0)
                for i in range(3)]
        rep = energy_inequality_report(recs, WallData.zero(grid), nu1=1.0)
        assert rep["max_step_increase"] == 0.0
        assert rep["sup_K"] == 0.0
        assert rep["dissipation_integral"] == 0.0

    def test_homogeneous_run_dissipates(self):
        grid = Grid(32, 32)
        rng = np.random.default_rng(11)
        vals = 1e-2 * rng.standard_normal((32, 32))
        phi0 = ScalarField(vals - vals.mean(), grid)
        cfg = SolverConfig(dt=1e-3, t_end=0.2, record_every=1e-3,
                           viscosity=ViscositySpec(nu1=1.0, nu2=1.05))
        records = Simulation(grid, cfg, WallData.zero(grid), phi0, VectorField.zeros(grid)).run()
        rep = energy_inequality_report(records, WallData.zero(grid), nu1=1.0)
        assert rep["max_step_increase"] <= 1e-10
        assert rep["dissipation_finite"]

    def test_gronwall_certificate_finite_for_ramp(self):
        grid = Grid(32, 32)
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0))
        sups = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(dt=dt, t_end=0.5, mode="lifted_elliptic",
                               record_every=1e-2,
                               viscosity=ViscositySpec(nu1=1.0, nu2=1.04))
            records = Simulation(grid, cfg, data, ScalarField(np.full((32, 32), 0.1), grid),
                                 VectorField.zeros(grid)).run()
            rep = energy_inequality_report(records, data, nu1=1.0)
            sups.append(rep["sup_K"])
        assert all(math.isfinite(s) and s >= 0 for s in sups)
        assert sups[1] <= 2.0 * sups[0] + 1e-12 and sups[0] <= 2.0 * sups[1] + 1e-12


    def test_single_record_report_is_complete(self):
        grid = Grid(16, 16)
        cfg = SolverConfig(dt=1e-3, t_end=0.0)
        phi0 = ScalarField(np.full((16, 16), 0.1), grid)
        records = Simulation(grid, cfg, WallData.zero(grid), phi0, VectorField.zeros(grid)).run()
        assert len(records) == 1
        rep = energy_inequality_report(records, WallData.zero(grid), cfg.viscosity.nu1)
        assert rep["dissipation_finite"] is True
        assert rep["sup_K"] == 0.0 and rep["homogeneous"]


class TestContextForRun:
    def cfg(self):
        return SolverConfig(dt=1e-3, t_end=0.1, mode="direct")

    def test_lift_failure_propagates(self, monkeypatch):
        grid = Grid(16, 16)

        class Broken:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("lift failed")

        monkeypatch.setattr("chns.diagnostics.EllipticLift", Broken)
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"),
                        Amplitude("custom_static", a0=1.0))
        with pytest.raises(RuntimeError, match="lift failed"):
            DiagnosticsContext.for_run(grid, self.cfg(), data)

    @staticmethod
    def lifted_elliptic_run(n):
        """A lifted_elliptic run on an n^2 grid with moving walls, two steps from its lift."""
        grid = Grid(n, n)
        data = WallData(grid, wall_profile(grid, "single_mode"), wall_profile(grid, "uniform", 0.5),
                        Amplitude("couette_ramp", a0=1.0, a_inf=0.5, rate=2.0))
        cfg = SolverConfig(dt=1e-3, t_end=0.01, mode="lifted_elliptic",
                           viscosity=ViscositySpec(nu1=0.5, nu2=1.5))
        phi0 = ScalarField.from_function(
            grid, lambda x, y: 0.3 * np.cos(2 * np.pi * x) * np.cos(np.pi * y) + 0.1)
        sim = Simulation(grid, cfg, data, phi0, EllipticLift(grid, 0.5, data).state_at(0.0))
        for _ in range(2):
            sim.step()
        return grid, cfg, data, sim

    def test_context_keeps_no_full_grid_field(self):
        """The context keeps the run's lift, not a limit field of its own."""
        grid, cfg, data, sim = self.lifted_elliptic_run(64)
        ctx = DiagnosticsContext.for_run(grid, cfg, data, lift=sim.ell)
        assert ctx.stationary is sim.ell and ctx.lift is sim.ell
        assert traced_peak_arrays(
            grid, lambda: DiagnosticsContext.for_run(grid, cfg, data, lift=sim.ell)) < 0.1

    def test_res_u_reads_the_limit_of_the_stationary_lift(self):
        grid, cfg, data, sim = self.lifted_elliptic_run(16)
        st = sim.state
        rec = energy(st, DiagnosticsContext.for_run(grid, cfg, data, lift=sim.ell))
        assert rec.res_u == v1_norm(st.u - sim.ell.limit_field())
        assert rec.res_u > 0.0

    @needs_argument_moves
    def test_record_drops_each_array_at_its_last_use(self):
        """The traced peak of one lifted_elliptic record above entry, in full-grid arrays.

        ubar dies once its norms are taken, the residual and its coefficients
        once res_phi is read, and res_u's limit field is formed only then:
        6.1 arrays, against 10.2 when ubar, the residual, the coefficients and
        u - u_inf were all held at once.
        """
        grid, cfg, data, sim = self.lifted_elliptic_run(64)
        ctx = DiagnosticsContext.for_run(grid, cfg, data, lift=sim.ell)
        assert traced_peak_arrays(grid, lambda: energy(sim.state, ctx)) <= 6.2


class TestHigherOrder:
    def ctx(self, grid):
        """A lifted_parabolic context of zero wall data, its lift at t = 0."""
        data = WallData.zero(grid)
        return DiagnosticsContext(
            data=data, potential=PotentialSpec(),
            viscosity=ViscositySpec(nu1=0.9, nu2=1.1, kind="constant", value=1.0),
            mode="lifted_parabolic", lift=ParabolicLift(EllipticLift(grid, 0.9, data)))

    def functionals(self, st, grid):
        rec = energy(st, self.ctx(grid))
        return rec.A, rec.B, rec.G

    def parabolic_state(self, grid, phi):
        """A state at t = 0 whose u is the context's lift u_p."""
        mu = ScalarField(-laplacian_neumann(phi).values
                         + 4 * phi.values * (phi.values**2 - 1), grid)
        return SimState(0.0, self.ctx(grid).u_p_at(0.0), phi, mu, ScalarField.zeros(grid))

    def test_pure_phase_all_zero(self):
        grid = Grid(32, 32)
        st = self.parabolic_state(grid, ScalarField(np.ones((32, 32)), grid))
        a, b, g = self.functionals(st, grid)
        assert a == pytest.approx(0.0, abs=1e-20)
        assert b == pytest.approx(0.0, abs=1e-18)

    def test_origin_state_zero_first_variation(self):
        grid = Grid(32, 32)
        st = self.parabolic_state(grid, ScalarField.zeros(grid))
        a, b, _ = self.functionals(st, grid)
        assert a == 0.0 and b == 0.0

    def test_single_mode_matches_eigenvalue_algebra(self):
        grid = Grid(32, 32)
        eps = 1e-5
        phi = ScalarField.from_function(grid, lambda x, y: eps * np.cos(2 * np.pi * x))
        st = self.parabolic_state(grid, phi)
        a, b, _ = self.functionals(st, grid)
        lam = (2.0 / grid.dx**2) * (1.0 - np.cos(2 * np.pi * grid.dx))
        nsq = eps**2 / 2  # exact midpoint quadrature of the squared mode
        expect_a = lam**2 * nsq + (lam - 4.0) ** 2 * nsq
        expect_b = lam**4 * nsq + lam**2 * (lam - 4.0) ** 2 * nsq
        assert a == pytest.approx(expect_a, rel=1e-8)
        assert b == pytest.approx(expect_b, rel=1e-8)

    def test_moving_ubar_against_projection(self):
        grid = Grid(32, 24, lx=2.0, ly=1.5)
        rng = np.random.default_rng(11)
        ubar = random_vector(grid, rng, amp=0.1)
        phi = ScalarField.from_function(
            grid, lambda x, y: 0.3 * np.cos(np.pi * x) * np.cos(2 * np.pi * y / 1.5))
        st = self.parabolic_state(grid, phi)
        st = SimState(0.0, ubar + st.u, phi, st.mu, st.p)
        a, b, _ = self.functionals(st, grid)
        lap_phi = laplacian_neumann(phi)
        stokes_u, _ = leray_project(-1.0 * vector_laplacian(ubar))
        assert l2(stokes_u) > 0.0
        assert a == pytest.approx(grad_norm_sq(ubar) + l2(lap_phi)**2 + l2(st.mu)**2, rel=1e-12)
        assert b == pytest.approx(l2(stokes_u)**2 + l2(laplacian_neumann(lap_phi))**2
                                  + l2(laplacian_neumann(st.mu))**2, rel=1e-12)

    def test_mode_mismatch(self):
        grid = Grid(16, 16)
        st = plain_state(grid, ScalarField.zeros(grid))
        with pytest.raises(ModeMismatch):
            higher_order(st, DiagnosticsContext(data=WallData.zero(grid)), {}, None, None)

    def test_g_term_table_transcription(self):
        # frozen copy of the exponent table; any edit must break this test
        frozen = {
            "lift_v1_fourth": {"up_v1": (0.0, 4.0)},
            "lift_v1_v2": {"up_v1": (0.0, 2.0), "up_v2": (0.0, 2.0)},
            "mu_phi_gradients": {"grad_mu": (0.0, 2.0), "grad_phi": (0.0, 1.0)},
            "ubar_phi_low": {"ubar_l2": (0.0, 8 / 3), "phi_l2": (0.0, 4 / 3)},
            "lift_shear_phi": {"up_l2": (0.0, 8 / 5), "grad_up": (0.0, 8 / 5),
                               "phi_l2": (0.0, 4 / 5)},
            "phi_sobolev_a": {"phi_h1": (4.0, -4.0), "phi_h2": (4.0, -8.0)},
            "phi_sobolev_b": {"phi_h1": (2.0, -2.0), "phi_h2": (2.0, -2.0)},
            "ubar_phi_high": {"ubar_l2": (0.0, 8 / 7), "phi_h1": (8 / 7, -4 / 7),
                              "phi_h2": (8 / 7, -8 / 7)},
            "lift_phi_high": {"phi_h2": (8 / 7, -4 / 7), "phi_h1": (8 / 7, -8 / 7),
                              "up_l2": (0.0, 16 / 9)},
        }
        assert len(G_TERMS) == len(frozen)
        for name, factors in G_TERMS:
            assert name in frozen
            assert {k: (qc, c) for k, qc, c in factors} == pytest.approx(frozen[name])

    def test_evaluate_g_matches_manual_product(self):
        rng = np.random.default_rng(2)
        norms = {k: float(v) for k, v in zip(
            ("up_v1", "up_v2", "up_l2", "grad_up", "ubar_l2", "phi_l2",
             "phi_h1", "phi_h2", "grad_mu", "grad_phi"),
            0.5 + rng.random(10))}
        q = 3.0
        manual = (norms["up_v1"]**4 + norms["up_v1"]**2 * norms["up_v2"]**2
                  + norms["grad_mu"]**2 * norms["grad_phi"]
                  + norms["ubar_l2"]**(8/3) * norms["phi_l2"]**(4/3)
                  + norms["up_l2"]**(8/5) * norms["grad_up"]**(8/5) * norms["phi_l2"]**(4/5)
                  + norms["phi_h1"]**8 * norms["phi_h2"]**4
                  + norms["phi_h1"]**4 * norms["phi_h2"]**4
                  + norms["ubar_l2"]**(8/7) * norms["phi_h1"]**(20/7) * norms["phi_h2"]**(16/7)
                  + norms["phi_h2"]**(20/7) * norms["phi_h1"]**(16/7) * norms["up_l2"]**(16/9))
        assert evaluate_g(norms, q) == pytest.approx(manual, rel=1e-12)


class TestSteadyResiduals:
    def test_pure_phase_and_matching_flow(self):
        grid = Grid(32, 32)
        st = plain_state(grid, ScalarField(np.ones((32, 32)), grid))
        res_phi = steady_state_residual_phi(st.phi)
        res_u = v1_norm(st.u - VectorField.zeros(grid))
        assert res_phi == pytest.approx(0.0, abs=1e-14)
        assert res_u == pytest.approx(0.0, abs=1e-14)

    def test_origin_is_critical_but_unstable(self):
        grid = Grid(32, 32)
        assert steady_state_residual_phi(ScalarField.zeros(grid)) == 0.0

    def test_constant_shift_of_mu_irrelevant(self):
        grid = Grid(32, 32)
        rng = np.random.default_rng(8)
        phi = ScalarField(0.2 * rng.standard_normal((32, 32)), grid)
        st1 = plain_state(grid, phi)
        st2 = SimState(0.0, st1.u, st1.phi,
                       ScalarField(st1.mu.values + 5.0, grid), st1.p)
        assert steady_state_residual_phi(st1.phi) == steady_state_residual_phi(st2.phi)


class TestContinuousDependence:
    def run_sample(self, grid, amp_scale, phi_shift=0.0, t_end=0.1):
        data = WallData(grid, wall_profile(grid, "zero"),
                        wall_profile(grid, "uniform", amp_scale),
                        Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=1.0))
        cfg = SolverConfig(dt=2e-3, t_end=t_end, record_every=0.01,
                           mode="lifted_elliptic",
                           viscosity=ViscositySpec(nu1=1.0, nu2=1.04))
        sample = TrajectorySample()
        phi0 = ScalarField(np.full((grid.nx, grid.ny), 0.1 + phi_shift), grid)
        Simulation(grid, cfg, data, phi0, VectorField.zeros(grid)).run(
            observers=[sample.append])
        return sample, data

    def test_identical_runs_give_zero(self):
        grid = Grid(32, 32)
        s1, d1 = self.run_sample(grid, 1.0)
        s2, d2 = self.run_sample(grid, 1.0)
        rep = continuous_dependence_metric(s1, s2, d1, d2)
        assert rep["lhs"] == 0.0

    def test_boundary_perturbation_scales_linearly(self):
        grid = Grid(32, 32)
        base, dbase = self.run_sample(grid, 1.0)
        eps_run, deps = self.run_sample(grid, 1.0 + 1e-2)
        half_run, dhalf = self.run_sample(grid, 1.0 + 5e-3)
        lhs_eps = continuous_dependence_metric(base, eps_run, dbase, deps)["lhs"]
        lhs_half = continuous_dependence_metric(base, half_run, dbase, dhalf)["lhs"]
        assert 1.6 <= lhs_eps / lhs_half <= 2.4

    def test_initial_perturbation_scales_linearly(self):
        grid = Grid(32, 32)
        base, dbase = self.run_sample(grid, 1.0)
        eps_run, _ = self.run_sample(grid, 1.0, phi_shift=1e-2)
        half_run, _ = self.run_sample(grid, 1.0, phi_shift=5e-3)
        lhs_eps = continuous_dependence_metric(base, eps_run, dbase, dbase)["lhs"]
        lhs_half = continuous_dependence_metric(base, half_run, dbase, dbase)["lhs"]
        assert 1.6 <= lhs_eps / lhs_half <= 2.4

    def test_misaligned_rejected(self):
        s1 = TrajectorySample(times=[0.0, 0.1], u=[None, None], phi=[None, None])
        s2 = TrajectorySample(times=[0.0, 0.2], u=[None, None], phi=[None, None])
        with pytest.raises(MisalignedSeries):
            continuous_dependence_metric(s1, s2)


class TestZlemTail:
    def test_exponential_flagged_decaying(self):
        t = np.linspace(0, 20, 400)
        rep = zlem_tail_check(t, np.exp(-t))
        assert rep["decaying"]
        assert rep["tail_ratio"] < math.exp(-3)

    def test_constant_flagged_nondecaying(self):
        t = np.linspace(0, 10, 100)
        rep = zlem_tail_check(t, np.ones_like(t))
        assert not rep["decaying"]

    @pytest.mark.parametrize("series", ["y", "g"])
    def test_misaligned_series_rejected(self, series):
        t = np.linspace(0, 1, 11)
        short = np.ones(10)
        args = (t, short) if series == "y" else (t, np.ones(11), short)
        with pytest.raises(MisalignedSeries, match=f"t and {series} disagree"):
            zlem_tail_check(*args)

    def test_spiky_but_integrable(self):
        t = np.linspace(0, 40, 4001)
        y = np.exp(-t)
        y[2000] = 5.0  # isolated mid-run spike outside both comparison windows
        rep = zlem_tail_check(t, y, g=np.exp(-2 * t))
        assert rep["integral_y_finite"] and rep["integral_g_finite"]
        assert rep["decaying"]


class TestRecordAgainstPublicNorms:
    """Each record column against its definition written out in public norms."""

    def expected(self, state, ctx, u_p):
        """The columns, with ubar = u - u_p in the certified mode and u otherwise."""
        phi, mu = state.phi, state.mu
        ub = state.u if u_p is None else state.u - u_p
        r = ScalarField(-laplacian_neumann(phi).values + eval_dF(phi.values), phi.grid)
        cols = {
            "kinetic": 0.5 * l2(ub) ** 2,
            "interfacial": 0.5 * l2(gradient(phi)) ** 2,
            "bulk": float(np.sum(eval_F(phi.values)) * phi.grid.cell_area),
            "diss_u": grad_norm_sq(ub),
            "diss_mu": l2(gradient(mu)) ** 2,
            "mass": phi.mean(),
            "res_phi": math.sqrt(inner(r, helmholtz_solve_neumann(r, 1.0, 1.0))),
            # u_inf = a_inf U, the limit of the stationary lift a(t) U
            "res_u": v1_norm(state.u - ctx.data.amplitude.limit()
                             * EllipticLift(phi.grid, ctx.viscosity.nu1, ctx.data).unit_u),
        }
        cols["total"] = cols["kinetic"] + cols["interfacial"] + cols["bulk"]
        if ctx.mode != "lifted_parabolic":
            return cols
        lap_phi = laplacian_neumann(phi)
        cols["A"] = grad_norm_sq(ub) + l2(lap_phi) ** 2 + l2(mu) ** 2
        stokes_u, _ = leray_project(-1.0 * vector_laplacian(ub))
        cols["B"] = (ctx.viscosity.value * l2(stokes_u) ** 2
                     + l2(laplacian_neumann(lap_phi)) ** 2
                     + l2(laplacian_neumann(mu)) ** 2)
        walls = ctx.data.eval_wall(state.t)
        norms = {
            "up_v1": v1_norm(u_p, walls),
            "up_v2": v2_norm(u_p, walls),
            "up_l2": l2(u_p),
            "grad_up": math.sqrt(grad_norm_sq(u_p, walls)),
            "ubar_l2": l2(ub),
            "phi_l2": l2(phi),
            "phi_h1": h1(phi),
            "phi_h2": math.sqrt(h2_norm_sq(phi)),
            "grad_mu": l2(gradient(mu)),
            "grad_phi": l2(gradient(phi)),
        }
        cols["G"] = evaluate_g(norms, ctx.potential.q)
        return cols

    def simulate(self, mode, viscosity):
        grid = Grid(32, 32)
        data = WallData(grid, wall_profile(grid, "single_mode"),
                        wall_profile(grid, "uniform", 0.5),
                        Amplitude("couette_ramp", a0=0.0, a_inf=1.0, rate=2.0))
        cfg = SolverConfig(dt=1e-3, t_end=3e-3, mode=mode, viscosity=viscosity)
        phi0 = ScalarField.from_function(
            grid, lambda x, y: 0.3 * np.cos(2 * np.pi * x) * np.cos(np.pi * y) + 0.1)
        sim = Simulation(grid, cfg, data, phi0, VectorField.zeros(grid))
        # the evolutionary lift, stepped with the run, against the record's lazy one
        par = ParabolicLift(sim.ell) if mode == "lifted_parabolic" else None
        for _ in range(3):
            sim.step()
            if par is not None:
                par.step(cfg.dt)
        return sim, DiagnosticsContext.for_run(grid, cfg, data, lift=sim.ell), par

    def check(self, rec, want):
        for key, value in want.items():
            assert getattr(rec, key) == pytest.approx(value, rel=1e-12, abs=1e-300), key

    def test_lifted_parabolic_record(self):
        sim, ctx, par = self.simulate(
            "lifted_parabolic", ViscositySpec(nu1=0.8, nu2=1.2, kind="constant", value=1.0))
        st = sim.state
        assert l2(st.u - par.u_p) > 0.0 and l2(par.w) > 0.0
        want = self.expected(st, ctx, par.u_p)
        rec = energy(st, ctx)
        self.check(rec, want)

    def test_lifted_parabolic_record_equals_one_transform_per_field(self):
        """The stacked-transform record against each transform taken on its own."""
        sim, ctx, par = self.simulate(
            "lifted_parabolic", ViscositySpec(nu1=0.8, nu2=1.2, kind="constant", value=1.0))
        st = sim.state
        phi, mu, ub, u_p = st.phi, st.mu, st.u - par.u_p, par.u_p
        g = phi.grid

        def parseval(power):
            wx = np.full(g.nx // 2 + 1, 2.0 / g.nx)
            wx[0] = wx[-1] = 1.0 / g.nx
            wy = np.full(g.ny, 1.0 / (2 * g.ny))
            wy[0] = 1.0 / (4 * g.ny)
            return g.cell_area * (wx @ power @ wy)

        def power(values):
            c = g.to_spectral(values)
            return c.real**2 + c.imag**2

        r = -laplacian_neumann(phi).values + eval_dF(phi.values)
        res_phi = float(np.sqrt(parseval(power(r) / (1.0 - g.lam_neumann))))
        p_phi, p_mu = power(phi.values), power(mu.values)
        lam2 = g.lam_neumann**2
        phi_sq, lap_phi_sq, lap2_phi_sq, mu_sq, lap_mu_sq = parseval(
            np.stack((p_phi, lam2 * p_phi, lam2**2 * p_phi, p_mu, lam2 * p_mu)))
        v = vector_laplacian(ub)
        grad_q_sq = parseval(-power(divergence(v).values) * g.inv_lam_neumann)
        stokes_sq = max(inner_vec(v, v) - float(grad_q_sq), 0.0)
        walls = ctx.data.eval_wall(st.t)
        up_l2, up_grad_sq = l2(u_p), grad_norm_sq(u_p, walls)
        up_lap_l2 = l2(vector_laplacian(u_p, walls))
        grad_phi, grad_mu = math.sqrt(grad_norm_sq(phi)), math.sqrt(grad_norm_sq(mu))
        norms = {"up_v1": math.sqrt(up_l2**2 + up_grad_sq),
                 "up_v2": math.sqrt(up_l2**2 + up_grad_sq + up_lap_l2**2),
                 "up_l2": up_l2, "grad_up": math.sqrt(up_grad_sq), "ubar_l2": l2(ub),
                 "phi_l2": math.sqrt(phi_sq), "phi_h1": math.sqrt(phi_sq + grad_phi**2),
                 "phi_h2": math.sqrt(phi_sq + grad_phi**2 + lap_phi_sq),
                 "grad_mu": grad_mu, "grad_phi": grad_phi}

        rec = energy(st, ctx)
        assert rec.res_phi == res_phi == steady_state_residual_phi(phi)
        assert rec.A == grad_norm_sq(ub) + lap_phi_sq + mu_sq
        assert rec.B == ctx.viscosity.value * stokes_sq + lap2_phi_sq + lap_mu_sq
        assert rec.G == evaluate_g(norms, ctx.potential.q)

    def test_direct_record(self):
        sim, ctx, _ = self.simulate("direct", ViscositySpec(nu1=0.5, nu2=1.5))
        rec = energy(sim.state, ctx)
        self.check(rec, self.expected(sim.state, ctx, None))
        assert math.isnan(rec.A) and math.isnan(rec.B) and math.isnan(rec.G)
