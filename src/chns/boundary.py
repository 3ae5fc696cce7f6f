"""Time-dependent tangential wall data and its fractional trace norms.

Wall data is separable, h(x, t) = a(t) g(x) per wall, with a single
amplitude shared by both walls.  Separability keeps the time derivative and
every tail integral closed-form, which is what the decay certification and
the Gronwall bookkeeping consume.  The normal component is identically zero
by construction (tangential data only).

Trace norms are Fourier-multiplier norms on each periodic wall,
``|h|_s^2 = lx * sum_m (1 + k_m^2)^s |c_m|^2`` with k_m = 2 pi m / lx, and
the two walls combine in quadrature.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, MisalignedSeries
from .grid import Grid, VectorField

FAMILIES = ("couette_ramp", "decaying_oscillation", "custom_static", "power_decay")


@dataclass(frozen=True)
class Amplitude:
    """Closed-form amplitude a(t) with derivative and tail integrals.

    families:
      couette_ramp          a(t) = a_inf + (a0 - a_inf) exp(-rate t)
      decaying_oscillation  a(t) = a0 exp(-rate t) cos(omega t)
      custom_static         a(t) = a0
      power_decay           a(t) = a0 (1 + t)^(-p)
    """

    family: str
    a0: float = 0.0
    a_inf: float = 0.0
    rate: float = 1.0
    omega: float = 0.0
    p: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvariantViolation(f"unknown amplitude family {self.family!r}")
        for name in ("a0", "a_inf", "rate", "omega", "p"):
            if not math.isfinite(getattr(self, name)):
                raise InvariantViolation(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.family in ("couette_ramp", "decaying_oscillation") and self.rate <= 0:
            raise InvariantViolation("decay rate must be positive")
        if self.family == "power_decay" and self.p <= 0.5:
            raise InvariantViolation("power_decay needs p > 1/2 for square-integrable tails")

    def __call__(self, t: float) -> float:
        if self.family == "couette_ramp":
            return self.a_inf + (self.a0 - self.a_inf) * math.exp(-self.rate * t)
        if self.family == "decaying_oscillation":
            return self.a0 * math.exp(-self.rate * t) * math.cos(self.omega * t)
        if self.family == "custom_static":
            return self.a0
        return self.a0 * (1.0 + t) ** (-self.p)

    def dt(self, t: float) -> float:
        if self.family == "couette_ramp":
            return -self.rate * (self.a0 - self.a_inf) * math.exp(-self.rate * t)
        if self.family == "decaying_oscillation":
            e = math.exp(-self.rate * t)
            return -self.a0 * e * (self.rate * math.cos(self.omega * t)
                                   + self.omega * math.sin(self.omega * t))
        if self.family == "custom_static":
            return 0.0
        return -self.p * self.a0 * (1.0 + t) ** (-self.p - 1.0)

    def limit(self) -> float:
        """a(t) as t -> infinity (the stationary amplitude)."""
        if self.family == "couette_ramp":
            return self.a_inf
        if self.family == "custom_static":
            return self.a0
        return 0.0

    # -- closed-form integrals ----------------------------------------------

    def _exp_cos_tail(self, t: float, decay: float, c0: float, c1: float,
                      c2: float, w: float) -> float:
        """integral_t^inf e^(-decay s) (c0 + c1 cos(w s) + c2 sin(w s)) ds."""
        out = c0 * math.exp(-decay * t) / decay
        if c1 or c2:
            z = cmath.exp((-decay + 1j * w) * t) / (decay - 1j * w)
            out += c1 * z.real + c2 * z.imag
        return out

    def sq_tail(self, t: float) -> float:
        """integral_t^inf a(s)^2 ds; inf when the tail diverges."""
        if self.family == "couette_ramp":
            if self.a_inf != 0.0:
                return math.inf
            return self.a0 * self.a0 * math.exp(-2.0 * self.rate * t) / (2.0 * self.rate)
        if self.family == "decaying_oscillation":
            # a^2 = a0^2 e^(-2 r s) (1 + cos(2 w s)) / 2
            a2 = self.a0 * self.a0
            return self._exp_cos_tail(t, 2 * self.rate, 0.5 * a2, 0.5 * a2, 0.0,
                                      2 * self.omega)
        if self.family == "custom_static":
            return 0.0 if self.a0 == 0.0 else math.inf
        return self.a0**2 * (1.0 + t) ** (1.0 - 2 * self.p) / (2 * self.p - 1.0)

    def dt_sq_tail(self, t: float) -> float:
        """integral_t^inf a'(s)^2 ds."""
        if self.family == "couette_ramp":
            c = self.rate * (self.a0 - self.a_inf)
            return c * c * math.exp(-2.0 * self.rate * t) / (2.0 * self.rate)
        if self.family == "decaying_oscillation":
            # (r cos + w sin)^2 = (r^2+w^2)/2 + (r^2-w^2)/2 cos(2w s) + r w sin(2w s)
            r, w, a2 = self.rate, self.omega, self.a0 * self.a0
            return a2 * self._exp_cos_tail(t, 2 * r, 0.5 * (r * r + w * w),
                                           0.5 * (r * r - w * w), r * w, 2 * w)
        if self.family == "custom_static":
            return 0.0
        c = self.p * self.a0
        return c * c * (1.0 + t) ** (-1.0 - 2 * self.p) / (2 * self.p + 1.0)

    def sq_integral(self, t: float) -> float:
        """integral_0^t a(s)^2 ds (always finite)."""
        if self.family == "couette_ramp":
            c, r, ai = self.a0 - self.a_inf, self.rate, self.a_inf
            return (ai * ai * t + 2 * ai * c * (1 - math.exp(-r * t)) / r
                    + c * c * (1 - math.exp(-2 * r * t)) / (2 * r))
        if self.family == "custom_static":
            return self.a0 * self.a0 * t
        return self.sq_tail(0.0) - self.sq_tail(t)

    def dt_sq_integral(self, t: float) -> float:
        """integral_0^t a'(s)^2 ds."""
        return self.dt_sq_tail(0.0) - self.dt_sq_tail(t)


def profile_mode(kind: str, scale: float = 1.0) -> int:
    """The x-wavenumber m that a profile name asks for, 0 for ``zero`` and
    ``uniform``: the checks of ``wall_profile`` that need no grid."""
    if not math.isfinite(scale):
        raise InvariantViolation(f"scale must be finite, got {scale!r}")
    single = re.fullmatch(r"single_mode(?::([0-9]+))?", kind)
    if single is None and kind not in ("zero", "uniform"):
        raise InvariantViolation(f"unknown wall profile {kind!r}")
    return int(single.group(1) or 1) if single else 0


def wall_profile(grid: Grid, kind: str, scale: float = 1.0) -> np.ndarray:
    """Named tangential profiles sampled at the x-velocity face positions.

    kinds: ``zero``, ``uniform`` and ``single_mode:<m>`` for a whole number
    m, the profile cos(2 pi m x / lx); ``single_mode`` is mode 1.  The scale
    must be finite, whatever the profile, and m at most nx/2: a higher mode
    samples as the mode nx - m.
    """
    m = profile_mode(kind, scale)
    if 2 * m > grid.nx:
        raise InvariantViolation(f"{kind!r} aliases on nx = {grid.nx}: m must be at most "
                                 f"nx/2 = {grid.nx // 2}")
    if kind == "zero":
        return np.zeros(grid.nx)
    return scale * np.cos(2 * np.pi * m * grid.xf / grid.lx)


@dataclass(frozen=True, eq=False)
class WallData:
    """Tangential boundary velocity a(t) * (g_bottom, g_top); normal part is zero.

    The shapes are kept as read-only copies, so fields derived from them stay
    valid for the lifetime of the instance.  Instances compare and hash by
    identity.
    """

    grid: Grid
    g_bottom: np.ndarray
    g_top: np.ndarray
    amplitude: Amplitude

    def __post_init__(self):
        gb = np.array(self.g_bottom, dtype=float)
        gt = np.array(self.g_top, dtype=float)
        if gb.shape != (self.grid.nx,) or gt.shape != (self.grid.nx,):
            raise InvariantViolation("wall arrays must have length nx")
        if not (np.isfinite(gb).all() and np.isfinite(gt).all()):
            raise InvariantViolation("wall arrays must be finite")
        gb.flags.writeable = gt.flags.writeable = False
        object.__setattr__(self, "g_bottom", gb)
        object.__setattr__(self, "g_top", gt)

    @classmethod
    def zero(cls, grid: Grid) -> "WallData":
        z = np.zeros(grid.nx)
        return cls(grid, z, z.copy(), Amplitude("custom_static", a0=0.0))

    def eval_wall(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        _require_time(t)
        a = self.amplitude(t)
        return a * self.g_bottom, a * self.g_top

    def eval_wall_dt(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        _require_time(t)
        a = self.amplitude.dt(t)
        return a * self.g_bottom, a * self.g_top

    def is_zero(self) -> bool:
        return bool(np.all(self.g_bottom == 0.0) and np.all(self.g_top == 0.0)) \
            or (self.amplitude.family == "custom_static" and self.amplitude.a0 == 0.0)

    def shape_trace_norm_sq(self, s: float) -> float:
        """Both-wall squared trace norm of the unit shape (g_bottom, g_top)."""
        return trace_norm(self.g_bottom, s, self.grid.lx) ** 2 \
            + trace_norm(self.g_top, s, self.grid.lx) ** 2


def _require_time(t: float) -> None:
    # every comparison with nan is false, so nan fails the check
    if not 0 <= t < math.inf:
        raise InvariantViolation(f"time must be nonnegative and finite, got {t!r}")


def trace_norm(data: np.ndarray, s: float, lx: float = 1.0) -> float:
    """Fractional Sobolev norm of 1D periodic wall data via Fourier multipliers.

    At s = 0 this is the periodic L2 norm; it is monotone increasing in s for
    fixed data.
    """
    if not -2.0 <= s <= 3.0:
        raise InvariantViolation(f"trace norm order {s} outside [-2, 3]")
    data = np.asarray(data, dtype=float)
    n = data.size
    coeffs = np.fft.rfft(data) / n
    weights = np.full(coeffs.size, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    kappa = 2.0 * np.pi * np.arange(coeffs.size) / lx
    total = np.sum(weights * (1.0 + kappa**2) ** s * np.abs(coeffs) ** 2)
    return float(np.sqrt(lx * total))


def extrapolated_wall_trace(u: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Second-order extrapolation of the tangential component to the walls."""
    bottom = 1.5 * u.ux[:, 0] - 0.5 * u.ux[:, 1]
    top = 1.5 * u.ux[:, -1] - 0.5 * u.ux[:, -2]
    return bottom, top


def check_compatibility(u0: VectorField, data: WallData, tol: float = 1e-8) -> bool:
    """Does the initial velocity trace match the wall data at t = 0?"""
    bottom, top = extrapolated_wall_trace(u0)
    hb, ht = data.eval_wall(0.0)
    err = max(np.abs(bottom - hb).max(), np.abs(top - ht).max())
    return bool(err <= tol)


# ---------------------------------------------------------------------------
# decay certification
# ---------------------------------------------------------------------------

def _tail_exponent(amplitude: Amplitude, derivative: bool) -> float | None:
    """Polynomial decay exponent of the tail integral; None means exponential."""
    if amplitude.family != "power_decay":
        return None
    return 1.0 + 2 * amplitude.p if derivative else 2 * amplitude.p - 1.0


def certify_decay(data: WallData, gamma: float) -> dict:
    """Check the three tail-integral decay conditions at rate (1+t)^(-1-gamma).

    Conditions, each with its own trace-norm weight:
      1. tail of |da/dt|^2 * |g|_{-1/2}^2
      2. tail of |da/dt|^2 * |g|_{+1/2}^2
      3. tail of |a|^2    * |g|_{+3/2}^2
    The report carries pass/fail per condition plus the smallest admissible
    front constant over the probe grid t = 0, 0.25, ..., 50.
    """
    if not 0 < gamma < math.inf:        # nan fails too
        raise InvariantViolation(f"gamma must be positive and finite, got {gamma!r}")
    amp = data.amplitude

    conditions = []
    for name, weight, derivative in (
        ("dt_minus_half", data.shape_trace_norm_sq(-0.5), True),
        ("dt_plus_half", data.shape_trace_norm_sq(0.5), True),
        ("h_three_half", data.shape_trace_norm_sq(1.5), False),
    ):
        tail = amp.dt_sq_tail if derivative else amp.sq_tail
        tail0 = tail(0.0)
        if weight == 0.0 or tail0 == 0.0:
            conditions.append({"name": name, "pass": True, "constant": 0.0})
            continue
        if not math.isfinite(tail0):
            conditions.append({"name": name, "pass": False, "constant": math.inf})
            continue
        expo = _tail_exponent(amp, derivative)
        if expo is not None and expo < 1.0 + gamma:
            # polynomial tail too slow: sup over t of the ratio diverges
            conditions.append({"name": name, "pass": False, "constant": math.inf})
            continue
        ratios = [weight * tail(t) * (1.0 + t) ** (1.0 + gamma)
                  for t in np.linspace(0.0, 50.0, 201)]
        conditions.append({"name": name, "pass": True, "constant": float(max(ratios))})

    return {
        "gamma": gamma,
        "family": amp.family,
        "pass": all(c["pass"] for c in conditions),
        "conditions": {c["name"]: c for c in conditions},
    }


def require_aligned(t1, t2, what="series"):
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if t1.shape != t2.shape or not np.allclose(t1, t2, rtol=0, atol=1e-12):
        raise MisalignedSeries(f"{what}: time grids differ")
    return t1
