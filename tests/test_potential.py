import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chns.errors import AssumptionViolated, InvariantViolation
from chns.potential import (PotentialSpec, ViscositySpec, eval_F, eval_d2F,
                            eval_d3F, eval_dF, verify_assumptions,
                            verify_viscosity)


class TestWell:
    def test_wells_are_zero(self):
        assert eval_F(1.0) == 0.0
        assert eval_F(-1.0) == 0.0

    def test_origin_values(self):
        assert eval_F(0.0) == 1.0
        assert eval_d2F(0.0) == -4.0

    def test_polynomial_points(self):
        assert eval_dF(2.0) == 24.0
        assert eval_d3F(2.0) == 48.0

    @given(st.floats(-5, 5), st.sampled_from([1e-3, 1e-4]))
    @settings(max_examples=60, deadline=None)
    def test_finite_difference_consistency(self, s, eps):
        fd1 = (eval_F(s + eps) - eval_F(s - eps)) / (2 * eps)
        fd2 = (eval_dF(s + eps) - eval_dF(s - eps)) / (2 * eps)
        fd3 = (eval_d2F(s + eps) - eval_d2F(s - eps)) / (2 * eps)
        scale = max(abs(s), 1.0)
        assert abs(fd1 - eval_dF(s)) <= 10 * eps**2 * scale + 1e-9
        assert abs(fd2 - eval_d2F(s)) <= 10 * eps**2 * scale + 1e-9
        assert abs(fd3 - eval_d3F(s)) <= 10 * eps**2 * scale + 1e-9

    def test_fd_observed_order(self):
        # central differences on the cubic F' are fourth-order exact, so use F
        s = 1.37
        errs = []
        for eps in (1e-2, 5e-3):
            errs.append(abs((eval_F(s + eps) - eval_F(s - eps)) / (2 * eps) - eval_dF(s)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9


class TestViscosity:
    def test_midpoint(self):
        nu = ViscositySpec(nu1=0.5, nu2=1.5)
        assert nu(0.0) == pytest.approx(1.0)

    def test_strictly_below_upper_bound(self):
        nu = ViscositySpec(nu1=0.5, nu2=1.5)
        assert nu(20.0) < 1.5

    def test_tanh_value(self):
        nu = ViscositySpec(nu1=0.5, nu2=1.5)
        assert nu(1.0) == pytest.approx(1.0 + 0.5 * np.tanh(1.0), abs=1e-12)
        assert nu(1.0) == pytest.approx(1.3807970779778824, abs=1e-12)

    def test_field_stays_strictly_inside(self):
        nu = ViscositySpec(nu1=0.5, nu2=1.5)
        s = np.linspace(-50, 50, 100001)
        vals = nu(s)
        assert vals.min() >= 0.5 + 1e-12
        assert vals.max() <= 1.5 - 1e-12

    def test_constant_kind(self):
        nu = ViscositySpec(nu1=0.9, nu2=1.1, kind="constant", value=1.0)
        assert nu.is_constant
        assert np.all(nu(np.linspace(-3, 3, 7)) == 1.0)
        with pytest.raises(InvariantViolation):
            ViscositySpec(nu1=0.9, nu2=1.1, kind="constant", value=1.2)

    def test_bad_bounds(self):
        with pytest.raises(InvariantViolation):
            ViscositySpec(nu1=1.5, nu2=0.5)

    def test_lipschitz_report(self):
        rep = verify_viscosity(ViscositySpec(nu1=0.5, nu2=1.5))
        assert rep["strict_bounds"]
        assert rep["max_slope"] <= rep["lipschitz_bound"] + 1e-9


class TestVerifyAssumptions:
    def test_default_constants_pass(self):
        rep = verify_assumptions(PotentialSpec())
        assert rep["pass"]
        assert all(v["pass"] for v in rep["items"].values())
        # curvature floor is attained exactly at s = 0
        assert rep["items"]["A_d2F_lower"]["tightest_constant"] == pytest.approx(4.0)

    def test_too_small_c3_fails(self):
        with pytest.raises(AssumptionViolated) as exc:
            verify_assumptions(PotentialSpec(c3=1.0))
        assert "A_d2F_lower" in exc.value.items
