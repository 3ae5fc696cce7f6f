"""The benchmark's workloads, each an INI config for ``chns.config``.

Every time in a workload is a power of two: ``t_end``, the record and
snapshot cadences and every rung ``dt = t_end / 2**k`` of the step ladder.
``Simulation.run`` rounds ``t_end/dt`` and ``record_every/dt`` silently, so a
cadence like 0.1 gives a different number of records, at off-cadence times,
on different rungs; with powers of two every rung does the same physical
work and every record lands exactly on its cadence.

The rungs run from 16x the step the stability bound of the current scheme
allows (the top, room for a better bound to show) down to 4x below it.  The
reference is 8x finer than the rung the current scheme accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Relative L2 distance of the final phi and u to the converged (small-dt)
# solution that a run must reach.  It is a physical tolerance on the fields,
# the same for every workload, not the error of any particular scheme: today
# every workload meets it at the rung its stability bound allows, with room
# (about 1e-2 on direct_128 and elliptic_256, 4e-2 on parabolic_64_certify),
# so the accuracy target is not what limits dt on this code.
ACCURACY = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    template: str            # INI text; see ``ini`` for the fields filled in
    n: int                   # grid cells per direction
    t_end: float
    rungs: tuple             # ladder exponents k, coarse to fine: dt = t_end / 2**k
    reference_k: int         # exponent of the reference run
    record_every: float | None   # None: one record per step
    snapshot_every: float
    certify: bool = False    # also gate on the energy-inequality certificate

    def dt(self, k: int) -> float:
        return self.t_end / 2 ** k

    def ini(self, dt: float, seed: int, directory) -> str:
        """The config text of one rung; ``seed`` seeds the initial phi noise only."""
        record_every = dt if self.record_every is None else self.record_every
        return self.template.format(n=self.n, dt=repr(dt), t_end=repr(self.t_end),
                                    record_every=repr(record_every), seed=int(seed),
                                    directory=directory,
                                    snapshot_every=repr(self.snapshot_every))


_TIME_AND_OUTPUTS = """
[time]
dt = {dt}
t_end = {t_end}
record_every = {record_every}

[outputs]
directory = {directory}
snapshot_every = {snapshot_every}
"""

# Direct mode: the transforms and stencils of ch_substep and ns_substep_direct
# do the work.  No lift is built (u0 = 0 matches the ramp's zero start), the
# tanh viscosity keeps the explicit viscous excess and its stability bound in
# play, and sparse records each come with a full snapshot, so runio writes.
DIRECT_128 = Workload(
    name="direct_128",
    template="""
[grid]
nx = {n}
ny = {n}
lx = 8.0
ly = 8.0

[solver]
mode = direct

[viscosity]
kind = tanh
nu1 = 0.5
nu2 = 1.5

[boundary]
family = couette_ramp
a0 = 0.0
a_inf = 1.0
rate = 4.0
g_bottom = single_mode:2
g_top = uniform

[initial]
phi = noise
phi_amp = 0.1
seed = {seed}
u = zero
""" + _TIME_AND_OUTPUTS,
    n=128, t_end=2.0 ** -3, rungs=tuple(range(3, 10)), reference_k=10,
    record_every=2.0 ** -5, snapshot_every=2.0 ** -5)

# Parabolic lift with constant viscosity, so the higher-order functionals are
# defined: every step is recorded with the full DiagnosticsContext (energy and
# higher_order), as when the discrete energy inequality is certified step by
# step, and ParabolicLift.step runs every step.  The arrays are small, so
# per-call overhead such as field validation shows.
PARABOLIC_64_CERTIFY = Workload(
    name="parabolic_64_certify",
    template="""
[grid]
nx = {n}
ny = {n}
lx = 8.0
ly = 8.0

[solver]
mode = lifted_parabolic

[viscosity]
kind = constant
nu1 = 0.5
nu2 = 1.5

[boundary]
family = decaying_oscillation
a0 = 1.0
rate = 1.0
omega = 6.283185307179586
g_bottom = single_mode:1
g_top = single_mode:1

[initial]
phi = noise
phi_amp = 0.1
seed = {seed}
u = lift
""" + _TIME_AND_OUTPUTS,
    n=64, t_end=2.0 ** -2, rungs=tuple(range(2, 9)), reference_k=9,
    record_every=None, snapshot_every=2.0 ** -2, certify=True)

# Elliptic lift on the largest arrays: the transforms of ns_substep_lifted
# dominate the steps.  Set-up builds the lift twice (for u0 and in Simulation),
# after which the lifting layer is only rescaled (at, dt_at), unlike the
# stepped parabolic lift.  Sparse records.
ELLIPTIC_256 = Workload(
    name="elliptic_256",
    template="""
[grid]
nx = {n}
ny = {n}
lx = 8.0
ly = 8.0

[solver]
mode = lifted_elliptic

[viscosity]
kind = tanh
nu1 = 0.5
nu2 = 1.5

[boundary]
family = couette_ramp
a0 = 1.0
a_inf = 0.5
rate = 4.0
g_bottom = single_mode:1
g_top = single_mode:2

[initial]
phi = noise
phi_amp = 0.1
seed = {seed}
u = lift
""" + _TIME_AND_OUTPUTS,
    n=256, t_end=2.0 ** -6, rungs=tuple(range(2, 9)), reference_k=9,
    record_every=2.0 ** -8, snapshot_every=2.0 ** -6)

WORKLOADS = {w.name: w for w in (DIRECT_128, PARABOLIC_64_CERTIFY, ELLIPTIC_256)}

# The same three configs on a 16^2 grid, for the benchmark's smoke test.
SMOKE_WORKLOADS = {
    f"smoke_{name}": replace(w, name=f"smoke_{name}", n=16) for name, w in WORKLOADS.items()
}

DEFAULT_SEED = 1
