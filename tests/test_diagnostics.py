import math

import numpy as np
import pytest
from scipy.integrate import quad

from chns.boundary import Amplitude, WallData, wall_profile
from chns.diagnostics import (G_TERMS, DiagnosticsContext, EnergyRecord,
                              TrajectorySample, continuous_dependence_metric,
                              energy, energy_inequality_report, evaluate_g,
                              higher_order, steady_state_residual_phi,
                              steady_state_residuals, zlem_tail_check)
from chns.errors import MisalignedSeries, ModeMismatch
from chns.grid import Grid, ScalarField, VectorField
from chns.ops import l2, laplacian_neumann
from chns.potential import PotentialSpec, ViscositySpec, eval_F
from chns.solver import SimState, Simulation, SolverConfig, run

from conftest import random_vector


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
                             diss_u=0, diss_mu=0, mass=1.0, kinetic_total=0)
                for i in range(3)]
        rep = energy_inequality_report(recs, WallData.zero(grid))
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
        _, records = run(grid, cfg, WallData.zero(grid), phi0, VectorField.zeros(grid))
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
                               record_every=5e-3,
                               viscosity=ViscositySpec(nu1=1.0, nu2=1.04))
            _, records = run(grid, cfg, data,
                             ScalarField(np.full((32, 32), 0.1), grid),
                             VectorField.zeros(grid))
            rep = energy_inequality_report(records, data, nu1=1.0)
            sups.append(rep["sup_K"])
        assert all(math.isfinite(s) and s >= 0 for s in sups)
        assert sups[1] <= 2.0 * sups[0] + 1e-12 and sups[0] <= 2.0 * sups[1] + 1e-12


class TestContextForRun:
    def cfg(self):
        return SolverConfig(dt=1e-3, t_end=0.1, mode="direct")

    def test_custom_amplitude_has_no_limit_field(self):
        grid = Grid(16, 16)
        amp = Amplitude("custom", fn=lambda t: 1.0 / (1 + t),
                        fn_dt=lambda t: -1.0 / (1 + t) ** 2)
        data = WallData(grid, wall_profile(grid, "zero"), wall_profile(grid, "uniform"), amp)
        ctx = DiagnosticsContext.for_run(grid, self.cfg(), data)
        assert ctx.u_infinity is None

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


class TestHigherOrder:
    def ctx(self, grid, data=None):
        return DiagnosticsContext(
            data=data or WallData.zero(grid), potential=PotentialSpec(),
            viscosity=ViscositySpec(nu1=0.9, nu2=1.1, kind="constant", value=1.0),
            mode="lifted_parabolic")

    def parabolic_state(self, grid, phi, data=None):
        from chns.lifting import EllipticLift, ParabolicLift
        data = data or WallData.zero(grid)
        ell = EllipticLift(grid, 0.9, data)
        par = ParabolicLift(ell)
        mu = ScalarField(-laplacian_neumann(phi).values
                         + 4 * phi.values * (phi.values**2 - 1), grid)
        return SimState(0.0, par.u_p, phi, mu, ScalarField.zeros(grid),
                        ubar=VectorField.zeros(grid), lift=par.state())

    def test_pure_phase_all_zero(self):
        grid = Grid(32, 32)
        st = self.parabolic_state(grid, ScalarField(np.ones((32, 32)), grid))
        a, b, g = higher_order(st, self.ctx(grid))
        assert a == pytest.approx(0.0, abs=1e-20)
        assert b == pytest.approx(0.0, abs=1e-18)

    def test_origin_state_zero_first_variation(self):
        grid = Grid(32, 32)
        st = self.parabolic_state(grid, ScalarField.zeros(grid))
        a, b, _ = higher_order(st, self.ctx(grid))
        assert a == 0.0 and b == 0.0

    def test_single_mode_matches_eigenvalue_algebra(self):
        grid = Grid(32, 32)
        eps = 1e-5
        phi = ScalarField.from_function(grid, lambda x, y: eps * np.cos(2 * np.pi * x))
        st = self.parabolic_state(grid, phi)
        a, b, _ = higher_order(st, self.ctx(grid))
        lam = (2.0 / grid.dx**2) * (1.0 - np.cos(2 * np.pi * grid.dx))
        nsq = eps**2 / 2  # exact midpoint quadrature of the squared mode
        expect_a = lam**2 * nsq + (lam - 4.0) ** 2 * nsq
        expect_b = lam**4 * nsq + lam**2 * (lam - 4.0) ** 2 * nsq
        assert a == pytest.approx(expect_a, rel=1e-8)
        assert b == pytest.approx(expect_b, rel=1e-8)

    def test_mode_mismatch(self):
        grid = Grid(16, 16)
        st = plain_state(grid, ScalarField.zeros(grid))
        with pytest.raises(ModeMismatch):
            higher_order(st, DiagnosticsContext(data=WallData.zero(grid)))

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
        res_phi, res_u = steady_state_residuals(st, VectorField.zeros(grid),
                                                PotentialSpec())
        assert res_phi == pytest.approx(0.0, abs=1e-14)
        assert res_u == pytest.approx(0.0, abs=1e-14)

    def test_origin_is_critical_but_unstable(self):
        grid = Grid(32, 32)
        assert steady_state_residual_phi(ScalarField.zeros(grid),
                                         PotentialSpec()) == 0.0

    def test_constant_shift_of_mu_irrelevant(self):
        grid = Grid(32, 32)
        rng = np.random.default_rng(8)
        phi = ScalarField(0.2 * rng.standard_normal((32, 32)), grid)
        st1 = plain_state(grid, phi)
        st2 = SimState(0.0, st1.u, st1.phi,
                       ScalarField(st1.mu.values + 5.0, grid), st1.p)
        assert steady_state_residual_phi(st1.phi, PotentialSpec()) == \
            steady_state_residual_phi(st2.phi, PotentialSpec())


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
        run(grid, cfg, data, phi0, VectorField.zeros(grid),
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

    def test_spiky_but_integrable(self):
        t = np.linspace(0, 40, 4001)
        y = np.exp(-t)
        y[2000] = 5.0  # isolated mid-run spike outside both comparison windows
        rep = zlem_tail_check(t, y, g=np.exp(-2 * t))
        assert rep["integral_y_finite"] and rep["integral_g_finite"]
        assert rep["decaying"]
