"""Energy bookkeeping, inequality certificates, and long-time monitors.

A record (``energy``) is one pass over a state, which forms the run's lift
once and has one stacked transform when it has a ``DiagnosticsContext``; for
the evolutionary lift with a constant viscosity it adds the higher-order
functionals (``higher_order``).

Every unknown constant from the analysis is replaced by its strongest
falsifiable surrogate: finite empirical ratios that must be stable under
time-step halving, or monotone tail behaviour of the tracked quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .boundary import WallData, require_aligned, trace_norm
from .errors import InvariantViolation, MisalignedSeries, ModeMismatch
from .grid import ScalarField, VectorField, require_same_grid
from .lifting import EllipticLift, ParabolicLift
from .ops import (_hminus1_of, _projected_norm_sq_of, divergence, grad_norm_sq, h1,
                  h2_norm_sq, hminus1, l2, laplacian_neumann, parseval_sum, v1_norm,
                  vector_laplacian)
from .potential import PotentialSpec, ViscositySpec, eval_F, eval_dF

@dataclass(frozen=True)
class EnergyRecord:
    """Per-time diagnostics row.

    ``kinetic`` belongs to the homogenized field: ubar = u - L(t) with the
    lift L of the record's context in the lifted modes (``energy``), the
    physical velocity otherwise.  total = kinetic + interfacial + bulk by
    construction.
    """

    t: float
    kinetic: float
    interfacial: float
    bulk: float
    total: float
    diss_u: float
    diss_mu: float
    mass: float
    A: float = math.nan
    B: float = math.nan
    G: float = math.nan
    res_phi: float = math.nan
    res_u: float = math.nan

    def as_row(self) -> tuple:
        return tuple(getattr(self, c) for c in CSV_COLUMNS)


# the records.csv header: the record's fields, in their order
CSV_COLUMNS = tuple(f.name for f in fields(EnergyRecord))


# the type of the run's lift in each mode: the L(t) of ubar = u - L(t), or None
_LIFT_OF_MODE = {"direct": type(None), "lifted_elliptic": EllipticLift,
                 "lifted_parabolic": ParabolicLift}


@dataclass(frozen=True)
class DiagnosticsContext:
    """What a record reads besides the state: the run's ``stationary`` lift,
    whose limit field res_u measures u against (None leaves res_u NaN), the
    run's ``mode`` and ``lift``, and, for a ``certified`` record, ``data``
    and ``potential`` for A, B and G.

    ``lift`` is the L(t) of ubar = u - L(t), and the mode decides it: None in
    the direct mode, when a record reads u, the stationary ``EllipticLift``
    in the lifted_elliptic mode and the evolutionary ``ParabolicLift`` in the
    lifted_parabolic mode.  A context is checked once, when it is made: an
    unknown mode, or a lift that is not its mode's, raises ModeMismatch, and
    its fields cannot be reassigned after.  Either lift is read by time
    alone, ``lift.state_at(t)``: the evolutionary one steps itself there by
    its own dt, the run's step from the run's clock, so its u_p is the one an
    every-step lift has, and it stores w once, as its rows.  The context
    steps nothing and stores no full-grid field of its own: a record
    (``energy``) forms L(t) once, in new arrays, overwrites it with ubar,
    forms the limit field, and drops each once read.
    """

    data: WallData | None = None
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    viscosity: ViscositySpec | None = None
    stationary: EllipticLift | None = None
    mode: str = "direct"
    lift: EllipticLift | ParabolicLift | None = None

    def __post_init__(self):
        kind = _LIFT_OF_MODE.get(self.mode)     # an unknown mode takes no lift of any type
        if kind is None or not isinstance(self.lift, kind):
            raise ModeMismatch(f"mode {self.mode!r} and lift type "
                               f"{type(self.lift).__name__} disagree")

    @property
    def certified(self) -> bool:
        """Whether a record takes A, B and G: the evolutionary lift with a
        constant viscosity."""
        return (self.mode == "lifted_parabolic" and self.viscosity is not None
                and self.viscosity.is_constant)

    @classmethod
    def for_run(cls, grid, cfg, data, lift: EllipticLift | None = None):
        """Build the record context of a run from its stationary lift.

        ``lift`` is the run's stationary lift (``Simulation.ell``), built here
        from ``data`` when not given, as in the direct mode: res_u needs its
        limit field.  The lifted_parabolic mode's evolutionary lift starts
        from it, with the run's nu1 and dt.  Nothing reads ``grid``: a lift is
        on its wall data's grid, and a record refuses a state on another.  It
        stays while the benchmark's ladder passes it positionally (ROADMAP
        item 1).
        """
        if lift is None:
            lift = EllipticLift(data)
        run_lift = None if cfg.mode == "direct" else lift
        if cfg.mode == "lifted_parabolic":
            run_lift = ParabolicLift(lift, cfg.viscosity.nu1, cfg.dt)
        return cls(data=data, potential=cfg.potential, viscosity=cfg.viscosity,
                   stationary=lift, mode=cfg.mode, lift=run_lift)


def _subtract_from(u: VectorField, fresh: VectorField) -> VectorField:
    """u - fresh, written over the arrays of ``fresh``, a field no one else holds."""
    np.subtract(u.ux, fresh.ux, out=fresh.ux)
    np.subtract(u.uy, fresh.uy, out=fresh.uy)
    return fresh


def _stationary_residual(phi: ScalarField) -> np.ndarray:
    """-Lap(phi) + F'(phi), formed in the Laplacian's array: the dual norm of it
    is ``steady_state_residual_phi``, and ``solver.initial_mu`` is it."""
    residual = laplacian_neumann(phi).values
    np.negative(residual, out=residual)
    residual += eval_dF(phi.values)
    return residual


def energy(state, context: DiagnosticsContext | None = None) -> EnergyRecord:
    """Quadrature evaluation of the energy split plus the optional monitors.

    The split reads ubar = u - L(t), with L the context's lift, and u
    without a context or lift.  A record is certified when its context is
    (``DiagnosticsContext.certified``: the evolutionary lift with a constant
    viscosity), and only a certified record takes A, B and G.  The record
    forms L(t) once, in new arrays; a certified one takes G's lift norms
    |u_p|, |grad u_p| and |Lap u_p|, the last two with the wall data at t,
    from L(t) = u_p before it overwrites L(t) with ubar.  With a context the
    record makes one stacked ``Grid.to_spectral`` call: it takes the
    stationary residual (res_phi) and, certified, phi, mu and div(Lap ubar),
    whose coefficients go to ``higher_order`` with the norms formed here.
    res_u = |u - u_inf|_V1 forms the stationary lift's limit field u_inf in
    new arrays and subtracts u in place.  Each array is dropped after its
    last use: ubar once its norms (and, certified, Lap ubar) are taken, the
    residual and the stack once transformed, the coefficients once read.  A
    state on another grid than a lift of the context raises
    InvariantViolation in every mode, before the lift is stepped.
    """
    if context is not None:
        # a lift's arrays would subtract from a state of their shape on any grid
        require_same_grid(state.u, *filter(None, (context.stationary, context.lift)))
    phi, grid = state.phi, state.phi.grid
    certified = context is not None and context.certified
    u_p = None if context is None or context.lift is None else context.lift.state_at(state.t)
    if certified:       # G's lift norms, with the wall data at t, before u_p becomes ubar
        walls = context.data.eval_wall(state.t)
        lift_norms = (l2(u_p), grad_norm_sq(u_p, walls), l2(vector_laplacian(u_p, walls)))
    ubar = state.u if u_p is None else _subtract_from(state.u, u_p)
    norms = {"ubar_l2": l2(ubar), "diss_u": grad_norm_sq(ubar),
             "grad_phi": math.sqrt(grad_norm_sq(phi)),
             "grad_mu": math.sqrt(grad_norm_sq(state.mu))}
    lap_ubar = vector_laplacian(ubar) if certified else None
    del ubar, u_p
    kinetic = 0.5 * norms["ubar_l2"] ** 2
    interfacial = 0.5 * norms["grad_phi"] ** 2
    bulk = float(np.sum(eval_F(phi.values)) * grid.cell_area)

    a = b = gq = res_phi = res_u = math.nan
    if context is not None:
        residual = _stationary_residual(phi)
        # a lone field is stacked as a view: np.stack would copy it
        stack = np.stack((residual, phi.values, state.mu.values, divergence(lap_ubar).values)) \
            if certified else residual[None]
        del residual
        coeffs = grid.to_spectral(stack)
        del stack
        res_phi = _hminus1_of(grid, coeffs[0])
        if certified:
            a, b, gq = higher_order(state, context, norms, lap_ubar, coeffs[1:], lift_norms)
        del coeffs, lap_ubar
        if context.stationary is not None:
            res_u = v1_norm(_subtract_from(state.u, context.stationary.limit_field()))
    return EnergyRecord(t=state.t, kinetic=kinetic, interfacial=interfacial,
                        bulk=bulk, total=kinetic + interfacial + bulk,
                        diss_u=norms["diss_u"], diss_mu=norms["grad_mu"] ** 2,
                        mass=phi.mean(), A=a, B=b, G=gq, res_phi=res_phi, res_u=res_u)


# ---------------------------------------------------------------------------
# energy inequality certificates
# ---------------------------------------------------------------------------

def energy_inequality_report(records, data: WallData, nu1: float) -> dict:
    """Per-step decay check (homogeneous data) and the growth certificate.

    For h = 0 the interesting number is the largest per-step energy
    increment.  For general data the certificate is
    K(t) = E(t) / [(E(0) + D(t)) exp(W(t))] with D the accumulated data
    integrals and W the exponential weight; finiteness and stability of
    sup K under dt-halving stand in for the unknowable front constant.
    The dissipation integral weights diss_u with the run's nu1.  Record
    times that do not increase strictly raise MisalignedSeries.
    """
    if len(records) < 2:
        return {"max_step_increase": 0.0, "sup_K": 0.0, "dissipation_integral": 0.0,
                "dissipation_finite": True, "homogeneous": data.is_zero()}
    t = np.array([r.t for r in records])
    e = np.array([r.total for r in records])
    dt_rec = np.diff(t)
    if not np.all(dt_rec > 0):
        raise MisalignedSeries("energy_inequality_report: record times must increase strictly")
    max_step_increase = float(np.max(np.diff(e) / dt_rec))

    amp = data.amplitude
    w_half = data.shape_trace_norm_sq(0.5)
    w_three = data.shape_trace_norm_sq(1.5)
    w_minus = data.shape_trace_norm_sq(-0.5)
    sup_k = 0.0
    for i in range(1, len(records)):
        ti = t[i]
        d = w_minus * amp.dt_sq_integral(ti) + w_three * amp.sq_integral(ti)
        wexp = math.exp(min(w_half * amp.sq_integral(ti), 700.0))
        denom = (e[0] + d) * wexp
        if denom > 0:
            sup_k = max(sup_k, e[i] / denom)

    diss = np.array([nu1 * r.diss_u + r.diss_mu for r in records])
    diss_integral = float(np.trapezoid(diss, t))
    return {
        "max_step_increase": max_step_increase,
        "sup_K": float(sup_k),
        "dissipation_integral": diss_integral,
        "dissipation_finite": bool(np.isfinite(diss_integral)),
        "homogeneous": data.is_zero(),
    }


# ---------------------------------------------------------------------------
# higher-order functionals
# ---------------------------------------------------------------------------

# Product terms of the auxiliary functional G.  Each factor is
# (norm key, exponent) with the exponent affine in the growth exponent q:
# exponent = q_coef * q + const.  The lone transcription fix: the shear term
# uses matching 8/5 powers on the lift and its gradient (the 5/8 variant in
# one listing is dimensionally inconsistent with its later use).
G_TERMS = (
    ("lift_v1_fourth", (("up_v1", 0.0, 4.0),)),
    ("lift_v1_v2", (("up_v1", 0.0, 2.0), ("up_v2", 0.0, 2.0))),
    ("mu_phi_gradients", (("grad_mu", 0.0, 2.0), ("grad_phi", 0.0, 1.0))),
    ("ubar_phi_low", (("ubar_l2", 0.0, 8.0 / 3.0), ("phi_l2", 0.0, 4.0 / 3.0))),
    ("lift_shear_phi", (("up_l2", 0.0, 8.0 / 5.0), ("grad_up", 0.0, 8.0 / 5.0),
                        ("phi_l2", 0.0, 4.0 / 5.0))),
    ("phi_sobolev_a", (("phi_h1", 4.0, -4.0), ("phi_h2", 4.0, -8.0))),
    ("phi_sobolev_b", (("phi_h1", 2.0, -2.0), ("phi_h2", 2.0, -2.0))),
    ("ubar_phi_high", (("ubar_l2", 0.0, 8.0 / 7.0), ("phi_h1", 8.0 / 7.0, -4.0 / 7.0),
                       ("phi_h2", 8.0 / 7.0, -8.0 / 7.0))),
    ("lift_phi_high", (("phi_h2", 8.0 / 7.0, -4.0 / 7.0), ("phi_h1", 8.0 / 7.0, -8.0 / 7.0),
                       ("up_l2", 0.0, 16.0 / 9.0))),
)


def evaluate_g(norms: dict, q: float) -> float:
    total = 0.0
    for _, factors in G_TERMS:
        term = 1.0
        for key, qc, const in factors:
            term *= norms[key] ** (qc * q + const)
        total += term
    return total


def higher_order(state, context: DiagnosticsContext, norms: dict, lap_ubar: VectorField,
                 coeffs: np.ndarray, lift_norms: tuple) -> tuple[float, float, float]:
    """Higher-order functionals A, B and G of the evolutionary-lift splitting.

    Defined for a certified context alone (``DiagnosticsContext.certified``:
    the evolutionary lift with a constant viscosity); any other context
    raises ModeMismatch.  ``energy`` calls it for certified records only,
    with what the record has formed: ``norms`` holds ubar_l2,
    diss_u = |grad ubar|^2, grad_phi and grad_mu; ``lap_ubar`` is
    vector_laplacian(ubar); ``coeffs`` stacks the ``Grid.to_spectral``
    coefficients of phi, mu and div(lap_ubar);
    ``lift_norms`` is (|u_p|, |grad u_p|^2, |Lap u_p|) of the context's lift
    at the state's time, the last two with its wall data there.  It forms no
    field of the lift: the record forms u_p once and reads these before it
    overwrites u_p with ubar.

    phi's and mu's norms are Parseval sums over those coefficients.  B's
    Stokes term is |P v|^2 = |v|^2 - |grad q|^2, v = -lap_ubar, clamped at 0
    against round-off (``ops.projected_norm_sq``).  G's factors are norms
    assembled from their squared parts, u_p's V1 and V2 norms from
    ``lift_norms``.
    """
    if not context.certified:
        raise ModeMismatch("higher-order functionals need a certified context")
    grid = state.phi.grid
    c_phi, c_mu, c_div = coeffs
    p_phi, p_mu = c_phi.real**2 + c_phi.imag**2, c_mu.real**2 + c_mu.imag**2
    lam2 = grid.lam_neumann**2
    phi_sq, lap_phi_sq, lap2_phi_sq, mu_sq, lap_mu_sq = parseval_sum(
        grid, np.stack((p_phi, lam2 * p_phi, lam2**2 * p_phi, p_mu, lam2 * p_mu)))

    a = norms["diss_u"] + lap_phi_sq + mu_sq
    # the sign of v drops out of every norm of it
    b = context.viscosity.value * _projected_norm_sq_of(lap_ubar, c_div) \
        + lap2_phi_sq + lap_mu_sq

    up_l2, up_grad_sq, up_lap = lift_norms
    up_v1_sq = up_l2**2 + up_grad_sq
    phi_h1_sq = phi_sq + norms["grad_phi"]**2
    g = evaluate_g({**norms, "up_v1": math.sqrt(up_v1_sq),
                    "up_v2": math.sqrt(up_v1_sq + up_lap**2),
                    "up_l2": up_l2, "grad_up": math.sqrt(up_grad_sq),
                    "phi_l2": math.sqrt(phi_sq), "phi_h1": math.sqrt(phi_h1_sq),
                    "phi_h2": math.sqrt(phi_h1_sq + lap_phi_sq)}, context.potential.q)
    return float(a), float(b), float(g)


# ---------------------------------------------------------------------------
# steady states and continuous dependence
# ---------------------------------------------------------------------------

def steady_state_residual_phi(phi: ScalarField) -> float:
    """Dual-norm residual of the stationary concentration problem.

    Depends on phi alone (adding a constant to the chemical potential does
    not change it); zero does not imply stability, merely criticality.
    """
    return hminus1(ScalarField._trusted(_stationary_residual(phi), phi.grid))


@dataclass
class TrajectorySample:
    """Field snapshots at record times, for pairwise comparisons."""

    times: list = field(default_factory=list)
    u: list = field(default_factory=list)
    phi: list = field(default_factory=list)

    def append(self, state, record=None):
        self.times.append(state.t)
        self.u.append(state.u)
        self.phi.append(state.phi)


def continuous_dependence_metric(run1: TrajectorySample, run2: TrajectorySample,
                                 data1: WallData | None = None,
                                 data2: WallData | None = None) -> dict:
    """Strength of the trajectory difference against the data difference.

    LHS combines the sup-in-time and integrated norms of the differences;
    RHS aggregates the boundary-data norms plus the initial-data distance.
    With identical inputs both sides are exactly zero.  The data terms need
    the wall data of both runs: that of one run alone raises
    InvariantViolation, and without either the RHS is the initial distance.
    Empty samples raise InvariantViolation.
    """
    if (data1 is None) != (data2 is None):
        raise InvariantViolation("continuous dependence: wall data of one run only")
    t = require_aligned(run1.times, run2.times, "trajectory samples")
    if t.size == 0:
        raise InvariantViolation("continuous dependence: the trajectory samples are empty")
    du_sup = 0.0
    dphi_sup = 0.0
    du_grad_sq = []
    dphi_h2_sq = []
    for u1, u2, p1, p2 in zip(run1.u, run2.u, run1.phi, run2.phi):
        du = u1 - u2
        dphi = p1 - p2
        du_sup = max(du_sup, l2(du))
        dphi_sup = max(dphi_sup, h1(dphi))
        du_grad_sq.append(grad_norm_sq(du))
        dphi_h2_sq.append(h2_norm_sq(dphi))
    lhs = du_sup + dphi_sup
    if len(t) > 1:
        lhs += math.sqrt(np.trapezoid(du_grad_sq, t)) + math.sqrt(np.trapezoid(dphi_h2_sq, t))

    rhs = l2(run1.u[0] - run2.u[0]) + h1(run1.phi[0] - run2.phi[0])
    if data1 is not None and data2 is not None:
        sup_h = 0.0
        h32_sq = []
        dth_sq = []
        for ti in t:
            b1, t1 = data1.eval_wall(ti)
            b2, t2 = data2.eval_wall(ti)
            db1, dt1 = data1.eval_wall_dt(ti)
            db2, dt2 = data2.eval_wall_dt(ti)
            lx = run1.u[0].grid.lx
            sup_h = max(sup_h, math.hypot(trace_norm(b1 - b2, 0.5, lx),
                                          trace_norm(t1 - t2, 0.5, lx)))
            h32_sq.append(trace_norm(b1 - b2, 1.5, lx) ** 2
                          + trace_norm(t1 - t2, 1.5, lx) ** 2)
            dth_sq.append(trace_norm(db1 - db2, -0.5, lx) ** 2
                          + trace_norm(dt1 - dt2, -0.5, lx) ** 2)
        rhs += sup_h
        if len(t) > 1:
            rhs += math.sqrt(np.trapezoid(h32_sq, t)) + math.sqrt(np.trapezoid(dth_sq, t))
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else math.inf)
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio}


# ---------------------------------------------------------------------------
# tail behaviour
# ---------------------------------------------------------------------------

def zlem_tail_check(t, y, g=None) -> dict:
    """Integrability plus tail decay of a monitored scalar series.

    The tail flag compares the last-quarter maximum with the second-quarter
    maximum, which tolerates isolated spikes in between.  An empty series
    raises InvariantViolation.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape:
        raise MisalignedSeries("zlem_tail_check: t and y disagree")
    if t.size == 0:
        raise InvariantViolation("zlem_tail_check: the series is empty")
    integral_y = float(np.trapezoid(y, t))
    out = {"integral_y": integral_y, "integral_y_finite": math.isfinite(integral_y)}
    if g is not None:
        g = np.asarray(g, dtype=float)
        if g.shape != t.shape:
            raise MisalignedSeries("zlem_tail_check: t and g disagree")
        out["integral_g"] = float(np.trapezoid(g, t))
        out["integral_g_finite"] = bool(np.isfinite(out["integral_g"]))
    span = t[-1] - t[0]
    q1 = t[0] + 0.25 * span
    q2 = t[0] + 0.5 * span
    q3 = t[0] + 0.75 * span
    early = y[(t >= q1) & (t <= q2)]
    late = y[t >= q3]
    early_max = float(early.max()) if early.size else float(y.max())
    late_max = float(late.max()) if late.size else float(y[-1])
    out["early_max"] = early_max
    out["late_max"] = late_max
    out["tail_ratio"] = late_max / early_max if early_max > 0 else 0.0
    out["decaying"] = bool(late_max < 0.5 * early_max + 1e-300)
    return out
