"""Run configuration: flat sectioned text files, valid by construction.

The format is INI-style (configparser) with one section per concern.  Each
key is declared once, on its ``RunConfig`` field: the field names its
section, and its key where that is not the field's name, and its default is
the key's default.  ``SCHEMA`` is derived from the fields, in their order,
with the type of each default as the key's converter.  Unknown keys or
sections are rejected, and ``serialize_config(parse_config(path))`` parses
back to an equal config so a run can always be archived next to its
outputs.

A ``RunConfig`` is valid however it is made: constructed, parsed or passed
through ``dataclasses.replace``, it runs ``validate_config`` once.  The
objects a config describes own their checks: ``validate_config`` builds the
grid, the viscosity, the solver settings, the amplitude and each wall
profile, and collects every one's ``InvariantViolation`` message, with those
of the initial data, into a single ``ValidationError``.  The defaults of
the keys that feed an object are that object's defaults.  The double well
and its bound constants are fixed (``potential.PotentialSpec``), so there is
no potential section.
"""

from __future__ import annotations

import configparser
import functools
import io
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .boundary import Amplitude, WallData, profile_mode, wall_profile
from .errors import InvariantViolation, ParseError, ValidationError
from .grid import Grid, ScalarField, VectorField
from .ops import leray_project
from .potential import ViscositySpec
from .solver import SolverConfig


def _key(section: str, default, key: str | None = None):
    """A RunConfig field read as ``[section] key``; the key is the field's name
    unless given."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class RunConfig:
    nx: int = _key("grid", 64)
    ny: int = _key("grid", 64)
    lx: float = _key("grid", 1.0)
    ly: float = _key("grid", 1.0)
    dt: float = _key("time", 1e-3)
    t_end: float = _key("time", 1.0)
    record_every: float = _key("time", SolverConfig.record_every)
    mode: str = _key("solver", SolverConfig.mode)
    stabilization: float = _key("solver", SolverConfig.stabilization)
    cfl_safety: float = _key("solver", SolverConfig.cfl_safety)
    viscosity_kind: str = _key("viscosity", ViscositySpec.kind, "kind")
    nu1: float = _key("viscosity", ViscositySpec.nu1)
    nu2: float = _key("viscosity", ViscositySpec.nu2)
    nu_value: float | None = _key("viscosity", ViscositySpec.value, "value")
    family: str = _key("boundary", "custom_static")
    a0: float = _key("boundary", Amplitude.a0)
    a_inf: float = _key("boundary", Amplitude.a_inf)
    rate: float = _key("boundary", Amplitude.rate)
    omega: float = _key("boundary", Amplitude.omega)
    p_exponent: float = _key("boundary", Amplitude.p, "p")
    g_bottom: str = _key("boundary", "zero")
    g_top: str = _key("boundary", "zero")
    g_bottom_scale: float = _key("boundary", 1.0)
    g_top_scale: float = _key("boundary", 1.0)
    phi_profile: str = _key("initial", "noise", "phi")
    phi_mean: float = _key("initial", 0.0)
    phi_amp: float = _key("initial", 0.01)
    phi_mode_x: int = _key("initial", 1)
    phi_mode_y: int = _key("initial", 1)
    seed: int = _key("initial", 1234)
    u_profile: str = _key("initial", "zero", "u")
    u_vortex_amp: float = _key("initial", 0.0)
    directory: str = _key("outputs", "out")
    snapshot_every: float = _key("outputs", 0.0)

    def __post_init__(self):
        validate_config(self)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _opt_float(raw: str):
    return None if raw.strip() == "" else float(raw)


# section -> key -> (config field, converter), in field order; the converter
# is the type of the field's default, and a None default is the optional float
SCHEMA: dict = {}
for _f in fields(RunConfig):
    SCHEMA.setdefault(_f.metadata["section"], {})[_f.metadata["key"] or _f.name] = (
        _f.name, _opt_float if _f.default is None else type(_f.default))
del _f


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ParseError(f"{source}: {exc}") from exc

    values = {}
    problems = []
    for section in cp.sections():
        if section not in SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for key, raw in cp.items(section):
            if key not in SCHEMA[section]:
                problems.append(f"unknown key [{section}] {key}")
                continue
            fname, conv = SCHEMA[section][key]
            try:
                values[fname] = conv(raw)
            except (TypeError, ValueError) as exc:
                problems.append(f"[{section}] {key} = {raw!r}: {exc}")
    if problems:
        raise ValidationError(problems)
    return RunConfig(**values)


def parse_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def serialize_config(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    data = asdict(cfg)
    for section, keys in SCHEMA.items():
        cp[section] = {key: _fmt(data[fname]) for key, (fname, _) in keys.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def validate_config(cfg: RunConfig) -> None:
    """Build every object the config describes; raise ValidationError listing
    the message of each one that refuses its fields.  ``RunConfig`` runs it
    on construction, so a config that exists has passed it."""
    bad = []

    def attempt(where, build, *args, **kw):
        try:
            return build(*args, **kw)
        except InvariantViolation as exc:
            bad.append(f"{where} {exc}")

    grid = attempt("[grid]", build_grid, cfg)
    attempt("[viscosity]", build_viscosity, cfg)
    attempt("[time]/[solver]", SolverConfig, **_solver_fields(cfg))
    attempt("[boundary]", _build_amplitude, cfg)
    for wall in ("g_bottom", "g_top"):
        # a refused grid still has the name and the scale checked, but not aliasing
        check = (wall_profile, grid) if grid is not None else (profile_mode,)
        attempt(f"[boundary] {wall}:", *check, getattr(cfg, wall), getattr(cfg, f"{wall}_scale"))
    if cfg.phi_profile not in ("noise", "constant", "mode"):
        bad.append(f"[initial] unknown phi profile {cfg.phi_profile!r}")
    if cfg.u_profile not in ("zero", "couette", "lift", "lift_vortex"):
        bad.append(f"[initial] unknown u profile {cfg.u_profile!r}")
    for name in ("phi_mean", "phi_amp", "u_vortex_amp"):
        if not math.isfinite(getattr(cfg, name)):
            bad.append(f"[initial] {name} must be finite, got {getattr(cfg, name)!r}")
    if cfg.seed < 0:
        bad.append(f"[initial] seed must be nonnegative, got {cfg.seed!r}")
    if not 0 <= cfg.snapshot_every < math.inf:
        bad.append(f"[outputs] snapshot_every must be nonnegative and finite, "
                   f"got {cfg.snapshot_every!r}")
    if bad:
        raise ValidationError(bad)


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _shared_grid(nx: int, ny: int, lx: float, ly: float) -> Grid:
    return Grid(nx, ny, lx, ly)


def build_grid(cfg: RunConfig) -> Grid:
    """The config's grid.  A Grid is immutable and shareable, so validation
    and every later caller get the one instance built per (nx, ny, lx, ly)."""
    return _shared_grid(cfg.nx, cfg.ny, cfg.lx, cfg.ly)


def build_viscosity(cfg: RunConfig) -> ViscositySpec:
    return ViscositySpec(nu1=cfg.nu1, nu2=cfg.nu2, kind=cfg.viscosity_kind,
                         value=cfg.nu_value)


def _build_amplitude(cfg: RunConfig) -> Amplitude:
    return Amplitude(cfg.family, a0=cfg.a0, a_inf=cfg.a_inf, rate=cfg.rate,
                     omega=cfg.omega, p=cfg.p_exponent)


def build_wall_data(cfg: RunConfig, grid: Grid) -> WallData:
    return WallData(grid,
                    wall_profile(grid, cfg.g_bottom, cfg.g_bottom_scale),
                    wall_profile(grid, cfg.g_top, cfg.g_top_scale),
                    _build_amplitude(cfg))


def build_initial_phi(cfg: RunConfig, grid: Grid) -> ScalarField:
    if cfg.phi_profile == "constant":
        return ScalarField(np.full((grid.nx, grid.ny), cfg.phi_mean), grid)
    if cfg.phi_profile == "mode":
        mx, my = cfg.phi_mode_x, cfg.phi_mode_y
        return ScalarField.from_function(
            grid, lambda x, y: cfg.phi_mean
            + cfg.phi_amp * np.cos(2 * np.pi * mx * x / grid.lx)
            * np.cos(np.pi * my * y / grid.ly))
    # amp * draw - mean + phi_mean, formed in the draw's array
    vals = np.random.default_rng(cfg.seed).standard_normal((grid.nx, grid.ny))
    vals *= cfg.phi_amp
    vals -= vals.mean()
    vals += cfg.phi_mean
    return ScalarField(vals, grid)


def _vortex(grid: Grid) -> VectorField:
    """Divergence-free interior roll with vanishing trace (stream function
    sin(2 pi x / lx) sin^2(pi y / ly))."""
    two_pi = 2 * np.pi / grid.lx
    pi_ly = np.pi / grid.ly

    def ux(x, y):  # d(psi)/dy
        return 2 * pi_ly * np.sin(two_pi * x) * np.sin(pi_ly * y) * np.cos(pi_ly * y)

    def uy(x, y):  # -d(psi)/dx
        return -two_pi * np.cos(two_pi * x) * np.sin(pi_ly * y) ** 2

    v, _ = leray_project(VectorField.from_components(grid, ux, uy))
    return v


def build_initial_u(cfg: RunConfig, grid: Grid, data: WallData) -> VectorField:
    if cfg.u_profile == "zero":
        return VectorField.zeros(grid)
    if cfg.u_profile == "couette":
        return VectorField(np.tile(grid.yc / grid.ly, (grid.nx, 1)),
                           np.zeros((grid.nx, grid.ny + 1)), grid)
    from .lifting import EllipticLift
    u0 = EllipticLift(data).state_at(0.0)
    if cfg.u_profile == "lift_vortex" and cfg.u_vortex_amp != 0.0:
        u0 = u0 + cfg.u_vortex_amp * _vortex(grid)
    return u0


def _solver_fields(cfg: RunConfig) -> dict:
    return dict(dt=cfg.dt, t_end=cfg.t_end, mode=cfg.mode,
                stabilization=cfg.stabilization, cfl_safety=cfg.cfl_safety,
                record_every=cfg.record_every)


def build_solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(**_solver_fields(cfg), viscosity=build_viscosity(cfg))
