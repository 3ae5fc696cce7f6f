"""Double-well bulk energy density and the bounded viscosity law.

The well is F(s) = (s^2 - 1)^2 with closed-form derivatives up to third
order.  Its growth exponent and bound constants are properties of F, stored
on PotentialSpec and certified numerically by verify_assumptions; they are
not run inputs.  The exponent attached to each bound is kept explicit
because the first-derivative bound uses the cubic growth of F' while the
curvature bounds use quadratic/linear growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolated, InvariantViolation


@dataclass(frozen=True)
class PotentialSpec:
    """Quartic double well plus certified bound constants.

    The bounds backed by ``verify_assumptions`` are, with q the growth
    exponent (3 for this well):

    * |F'(s)|  <= c1 |s|^q     + c2
    * F''(s)   >= -c3
    * |F''(s)| <= c4 |s|^(q-1) + c4p
    * |F'''(s)| <= c5 (1 + |s|^(q-2))
    """

    q: float = 3.0
    c1: float = 8.0
    c2: float = 4.0
    c3: float = 4.0
    c4: float = 12.0
    c4p: float = 4.0
    c5: float = 24.0

    def __post_init__(self):
        if min(self.c1, self.c3, self.c4, self.c5) <= 0 or min(self.c2, self.c4p) < 0:
            raise InvariantViolation("potential constants out of range")


def eval_F(s):
    s = np.asarray(s, dtype=float)
    return (s * s - 1.0) ** 2


def eval_dF(s):
    s = np.asarray(s, dtype=float)
    # (4 s)(s^2 - 1) with two temporaries; the product is the same either way round
    out = s * s
    out -= 1.0
    out *= 4.0 * s
    return out


def eval_d2F(s):
    s = np.asarray(s, dtype=float)
    return 12.0 * s * s - 4.0


def eval_d3F(s):
    s = np.asarray(s, dtype=float)
    return 24.0 * s


@dataclass(frozen=True)
class ViscositySpec:
    """Strictly bounded viscosity nu1 < nu(s) < nu2.

    kinds:
      tanh      smooth profile (nu1+nu2)/2 + (nu2-nu1)/2 * tanh(s); the
                default, strict bounds and a global Lipschitz constant
                (nu2-nu1)/2.
      constant  nu(s) = value everywhere (used by the long-time
                experiments); value must sit strictly inside (nu1, nu2).
    """

    nu1: float = 0.5
    nu2: float = 1.5
    kind: str = "tanh"
    value: float | None = None

    def __post_init__(self):
        if not (0 < self.nu1 < self.nu2 < math.inf):       # nan fails too
            raise InvariantViolation(f"need 0 < nu1 < nu2 < inf, got {self.nu1}, {self.nu2}")
        if self.kind not in ("tanh", "constant"):
            raise InvariantViolation(f"unknown viscosity kind {self.kind!r}")
        if self.kind == "constant":
            v = self.value if self.value is not None else 0.5 * (self.nu1 + self.nu2)
            if not (self.nu1 < v < self.nu2):
                raise InvariantViolation("constant viscosity must lie strictly in (nu1, nu2)")
            object.__setattr__(self, "value", float(v))

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            return np.full_like(s, self.value)
        mid = 0.5 * (self.nu1 + self.nu2)
        half = 0.5 * (self.nu2 - self.nu1)
        # Saturate the argument where 1 - tanh would underflow the strict
        # margin; keeps nu inside [nu1 + 1e-12, nu2 - 1e-12] for any input.
        s_max = 0.5 * np.log(max(0.4e12 * half, np.e**2))
        return mid + half * np.tanh(np.clip(s, -s_max, s_max))

    def lipschitz_bound(self) -> float:
        return 0.5 * (self.nu2 - self.nu1) if self.kind != "constant" else 0.0


def _tightest(observed, default):
    return float(observed) if np.isfinite(observed) else default


def verify_assumptions(spec: PotentialSpec) -> dict:
    """Check the stored bound constants on 20001 samples of [-3, 3].

    Returns a report with per-item pass/fail and the tightest constant the
    samples would allow.  Raises AssumptionViolated listing the failing
    items.  The bounds are polynomial, so violations show up at moderate |s|
    if they exist at all.
    """
    lo, hi, n_samples = -3.0, 3.0, 20001
    s = np.linspace(lo, hi, n_samples)
    absx = np.abs(s)
    eps = 1e-12
    report = {"q": spec.q, "range": (lo, hi), "n_samples": n_samples, "items": {}}

    def item(name, residual, tightest, note=""):
        passed = bool(residual <= eps)
        report["items"][name] = {
            "pass": passed, "max_violation": float(residual),
            "tightest_constant": tightest, "note": note,
        }

    # |F'| <= c1 |s|^q + c2
    excess = np.abs(eval_dF(s)) - spec.c1 * absx**spec.q - spec.c2
    tight_c2 = np.max(np.abs(eval_dF(s)) - spec.c1 * absx**spec.q)
    item("A_dF_growth", excess.max(), _tightest(tight_c2, spec.c2),
         note=f"exponent stored as q={spec.q} (cubic growth of the quartic well)")

    # F'' >= -c3
    lowest = eval_d2F(s).min()
    item("A_d2F_lower", (-spec.c3) - lowest, float(-lowest))

    # |F''| <= c4 |s|^(q-1) + c4p
    excess = np.abs(eval_d2F(s)) - spec.c4 * absx**(spec.q - 1.0) - spec.c4p
    tight = np.max(np.abs(eval_d2F(s)) - spec.c4 * absx**(spec.q - 1.0))
    item("A_d2F_growth", excess.max(), _tightest(tight, spec.c4p))

    # |F'''| <= c5 (1 + |s|^(q-2))
    excess = np.abs(eval_d3F(s)) - spec.c5 * (1.0 + absx**(spec.q - 2.0))
    tight = np.max(np.abs(eval_d3F(s)) / (1.0 + absx**(spec.q - 2.0)))
    item("A_d3F_growth", excess.max(), float(tight))

    failures = [k for k, v in report["items"].items() if not v["pass"]]
    report["pass"] = not failures
    if failures:
        raise AssumptionViolated(failures)
    return report


def verify_viscosity(spec: ViscositySpec) -> dict:
    """Confirm strict bounds and the Lipschitz constant of the viscosity law
    on 20001 samples of [-50, 50]."""
    s = np.linspace(-50.0, 50.0, 20001)
    vals = spec(s)
    slopes = np.diff(vals) / np.diff(s)
    return {
        "strict_bounds": bool(vals.min() > spec.nu1 and vals.max() < spec.nu2),
        "min": float(vals.min()), "max": float(vals.max()),
        "max_slope": float(np.abs(slopes).max()),
        "lipschitz_bound": spec.lipschitz_bound(),
    }
