import dataclasses
import warnings

import numpy as np
import pytest

from chns.boundary import Amplitude
from chns.config import (SCHEMA, RunConfig, build_grid, build_initial_phi,
                         build_initial_u, build_solver_config, build_viscosity,
                         build_wall_data, parse_config, parse_config_text,
                         serialize_config)
from chns.diagnostics import DiagnosticsContext
from chns.errors import CFLViolation, ParseError, ValidationError
from chns.potential import PotentialSpec, ViscositySpec
from chns.solver import Simulation, SolverConfig


@pytest.mark.parametrize("cfg", [
    RunConfig(),
    RunConfig(viscosity_kind="constant", nu1=0.8, nu2=1.2, nu_value=0.9,
              dt=0.1 / 3, t_end=0.1, record_every=0.1 / 3),
], ids=["defaults", "constant_viscosity"])
def test_serialize_parse_round_trip(cfg):
    text = serialize_config(cfg)
    back = parse_config_text(text)
    assert back == cfg
    assert serialize_config(back) == text


def test_file_parses_as_its_text(tmp_path):
    cfg = RunConfig(nx=32, ny=16, mode="lifted_elliptic", g_top="single_mode:3")
    text = serialize_config(cfg)
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    back = parse_config(path)
    assert back == parse_config_text(text) == cfg
    assert serialize_config(back) == text


def test_missing_file_raises_parse_error(tmp_path):
    path = tmp_path / "absent.ini"
    with pytest.raises(ParseError, match="absent.ini"):
        parse_config(path)


def test_schema_names_every_field_once():
    names = [fname for keys in SCHEMA.values() for fname, _ in keys.values()]
    assert len(names) == len(set(names))
    assert set(names) == {f.name for f in dataclasses.fields(RunConfig)}


def test_defaults_are_the_objects_defaults():
    cfg = RunConfig()
    assert build_viscosity(cfg) == ViscositySpec()
    assert build_solver_config(cfg) == SolverConfig(dt=cfg.dt, t_end=cfg.t_end)
    assert build_wall_data(cfg, build_grid(cfg)).amplitude == Amplitude("custom_static")


def test_the_double_well_is_not_a_solver_setting():
    assert SolverConfig(dt=1e-3, t_end=1.0).potential == PotentialSpec()
    with pytest.raises(TypeError, match="potential"):
        SolverConfig(dt=1e-3, t_end=1.0, potential=PotentialSpec(q=4.0))


@pytest.mark.parametrize("changes, where", [
    ({"phi_profile": "modes"}, "[initial] unknown phi profile 'modes'"),
    ({"u_profile": "vortex"}, "[initial] unknown u profile 'vortex'"),
], ids=["phi", "u"])
@pytest.mark.parametrize("made_by", ["constructor", "replace"])
def test_unknown_profile_refused_however_made(changes, where, made_by):
    with pytest.raises(ValidationError) as exc:
        if made_by == "constructor":
            RunConfig(**changes)
        else:
            dataclasses.replace(RunConfig(), **changes)
    assert exc.value.violations == (where,)


@pytest.mark.parametrize("text, where", [
    ("[boundary]\nfamily = couette_ramp\nrate = 0\n", "[boundary]"),
    ("[boundary]\nfamily = power_decay\np = 0.25\n", "[boundary]"),
    ("[boundary]\nfamily = custom\n", "[boundary] unknown amplitude family"),
    ("[boundary]\ng_top = single_mode:abc\n", "[boundary] g_top"),
    ("[boundary]\ng_top = single_modefoo\n", "[boundary] g_top"),
    ("[grid]\nnx = 16\n[boundary]\ng_top = single_mode:15\n", "[boundary] g_top"),
    ("[solver]\ncfl_safety = -1\n", "[time]/[solver]"),
    ("[solver]\ncfl_safety = nan\n", "[time]/[solver]"),
    ("[solver]\nstabilization = nan\n", "[time]/[solver]"),
    ("[time]\ndt = nan\n", "[time]/[solver]"),
    ("[time]\nt_end = nan\n", "[time]/[solver]"),
    ("[time]\nt_end = inf\n", "[time]/[solver]"),
    ("[time]\nrecord_every = nan\n", "[time]/[solver]"),
    ("[grid]\nlx = nan\n", "[grid]"),
    ("[grid]\nly = inf\n", "[grid]"),
    # the well and its constants are fixed, and the viscosity is strictly bounded
    ("[potential]\nc1 = 8.0\n", "unknown section [potential]"),
    ("[viscosity]\nnu_gap = 0.01\n", "unknown key [viscosity] nu_gap"),
    ("[viscosity]\nkind = clamped_linear\n", "[viscosity] unknown viscosity kind"),
    # non-finite numbers, whether or not the chosen family or profile reads them
    ("[boundary]\nomega = inf\n", "[boundary] omega"),
    ("[boundary]\nfamily = couette_ramp\nrate = inf\n", "[boundary] rate"),
    ("[boundary]\na_inf = nan\n", "[boundary] a_inf"),
    ("[boundary]\ng_top_scale = nan\n", "[boundary] g_top"),
    ("[boundary]\ng_bottom = uniform\ng_bottom_scale = inf\n", "[boundary] g_bottom"),
    ("[viscosity]\nnu2 = inf\n", "[viscosity]"),
    ("[initial]\nphi_amp = nan\n", "[initial] phi_amp"),
    ("[initial]\nphi_mean = nan\n", "[initial] phi_mean"),
    ("[initial]\nu_vortex_amp = inf\n", "[initial] u_vortex_amp"),
    ("[initial]\nseed = -1\n", "[initial] seed must be nonnegative"),
    ("[initial]\nu = vortex\n", "[initial] unknown u profile"),
    ("[outputs]\nsnapshot_every = -1\n", "[outputs] snapshot_every"),
    ("[outputs]\nsnapshot_every = nan\n", "[outputs] snapshot_every"),
], ids=["ramp_rate", "power_p", "custom_family", "mode_not_digits", "mode_no_colon",
        "mode_aliases", "cfl_safety",
        "cfl_safety_nan", "stabilization_nan", "dt_nan", "t_end_nan", "t_end_inf",
        "record_every_nan", "lx_nan", "ly_inf", "potential_section", "nu_gap",
        "clamped_linear", "omega_inf", "rate_inf", "a_inf_nan", "g_top_scale_nan",
        "g_bottom_scale_inf", "nu2_inf", "phi_amp_nan", "phi_mean_nan",
        "u_vortex_amp_inf", "seed_negative", "u_unknown", "snapshot_every_negative",
        "snapshot_every_nan"])
def test_bad_object_rejected_at_parse(text, where):
    with pytest.raises(ValidationError) as exc:
        parse_config_text(text)
    assert len(exc.value.violations) == 1
    assert exc.value.violations[0].startswith(where)


@pytest.mark.parametrize("text", ["nx = 4\n", "[grid]\nnx = 4\nnx = 8\n"],
                         ids=["no_section_header", "duplicate_key"])
def test_malformed_text_raises_parse_error(text):
    with pytest.raises(ParseError, match="<string>"):
        parse_config_text(text)


def test_every_bad_object_reported():
    text = """
[grid]
nx = 3
[viscosity]
nu1 = 2.0
nu2 = 1.0
[time]
record_every = 0
[boundary]
family = decaying_oscillation
rate = -1
"""
    with pytest.raises(ValidationError) as exc:
        parse_config_text(text)
    assert [v.split(" ")[0] for v in exc.value.violations] == [
        "[grid]", "[viscosity]", "[time]/[solver]", "[boundary]"]


def test_profile_names_checked_when_grid_refused():
    with pytest.raises(ValidationError) as exc:
        parse_config_text("[grid]\nnx = 5\n[initial]\nphi = ramp\n[boundary]\ng_top = x\n")
    assert len(exc.value.violations) == 3


def test_mode_aliasing_not_measured_against_a_refused_grid():
    # single_mode:20 is within nx/2 = 32, so only the grid (lx = nan) is refused
    with pytest.raises(ValidationError) as exc:
        parse_config_text("[grid]\nnx = 64\nlx = nan\n[boundary]\ng_top = single_mode:20\n")
    assert [v.split(" ")[0] for v in exc.value.violations] == ["[grid]"]


def test_nyquist_mode_accepted():
    cfg = parse_config_text("[grid]\nnx = 16\n[boundary]\ng_top = single_mode:8\n")
    assert cfg.g_top == "single_mode:8"


def test_experiment_section_rejected():
    with pytest.raises(ValidationError, match=r"unknown section \[experiment\]"):
        parse_config_text("[experiment]\nkind = pair\n")


def test_unknown_key_and_bad_literal_reported_together():
    with pytest.raises(ValidationError) as exc:
        parse_config_text("[grid]\nnx = many\nnz = 4\n")
    assert len(exc.value.violations) == 2


def test_grid_built_once_per_shape():
    cfg = parse_config_text("[grid]\nnx = 24\nny = 12\nlx = 2.0\n")
    assert build_grid(cfg) is build_grid(dataclasses.replace(cfg))
    assert build_grid(cfg) is not build_grid(dataclasses.replace(cfg, ny=16))


# ---------------------------------------------------------------------------
# every key is read
# ---------------------------------------------------------------------------

# A 16^2 run of two steps with a ramped wall speed, moving tangential data on
# both walls and a noisy interface: every key below changes what it computes.
BASE_RUN = {
    "grid": {"nx": "16", "ny": "16"},
    "time": {"dt": "0.001", "t_end": "0.002", "record_every": "0.001"},
    "boundary": {"family": "couette_ramp", "a0": "0.0", "a_inf": "1.0", "rate": "2.0",
                 "g_bottom": "single_mode", "g_top": "uniform"},
    "initial": {"phi_amp": "0.1"},
}

# (section, key) -> (changes to BASE_RUN that make the key apply, second value)
SECOND_VALUES = {
    ("grid", "nx"): ({}, "20"),
    ("grid", "ny"): ({}, "20"),
    ("grid", "lx"): ({}, "2.0"),
    ("grid", "ly"): ({}, "2.0"),
    ("time", "dt"): ({}, "0.0005"),
    ("time", "t_end"): ({}, "0.001"),
    ("time", "record_every"): ({}, "0.002"),
    ("solver", "mode"): ({}, "lifted_parabolic"),
    ("solver", "stabilization"): ({}, "1.0"),
    # the step bound at |u| ~ 1 is about cfl_safety * dx: above dt at the
    # default 0.4, below it at 0.01, so the second value refuses the first step
    ("solver", "cfl_safety"): ({("initial", "u"): "couette"}, "0.01"),
    ("viscosity", "kind"): ({}, "constant"),
    ("viscosity", "nu1"): ({}, "0.4"),
    ("viscosity", "nu2"): ({}, "2.0"),
    ("viscosity", "value"): ({("viscosity", "kind"): "constant",
                              ("viscosity", "value"): "1.0"}, "0.8"),
    ("boundary", "family"): ({}, "custom_static"),
    ("boundary", "a0"): ({}, "0.5"),
    ("boundary", "a_inf"): ({}, "0.5"),
    ("boundary", "rate"): ({}, "3.0"),
    ("boundary", "omega"): ({("boundary", "family"): "decaying_oscillation",
                             ("boundary", "a0"): "1.0"}, "20.0"),
    ("boundary", "p"): ({("boundary", "family"): "power_decay",
                         ("boundary", "a0"): "1.0"}, "2.0"),
    ("boundary", "g_bottom"): ({}, "uniform"),
    ("boundary", "g_top"): ({}, "single_mode:2"),
    ("boundary", "g_bottom_scale"): ({}, "0.5"),
    ("boundary", "g_top_scale"): ({}, "0.5"),
    ("initial", "phi"): ({}, "mode"),
    ("initial", "phi_mean"): ({}, "0.2"),
    ("initial", "phi_amp"): ({}, "0.05"),
    ("initial", "phi_mode_x"): ({("initial", "phi"): "mode"}, "2"),
    ("initial", "phi_mode_y"): ({("initial", "phi"): "mode"}, "2"),
    ("initial", "seed"): ({}, "7"),
    ("initial", "u"): ({}, "couette"),
    ("initial", "u_vortex_amp"): ({("initial", "u"): "lift_vortex"}, "0.5"),
}


def _ini(changes: dict) -> str:
    sections = {name: dict(keys) for name, keys in BASE_RUN.items()}
    for (section, key), value in changes.items():
        sections.setdefault(section, {})[key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def _outcome(text: str) -> list:
    """The records and final fields of the run a config describes, or its refusal."""
    cfg = parse_config_text(text)
    grid = build_grid(cfg)
    data = build_wall_data(cfg, grid)
    scfg = build_solver_config(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some second values make u0 incompatible
        sim = Simulation(grid, scfg, data, build_initial_phi(cfg, grid),
                         build_initial_u(cfg, grid, data))
    ctx = DiagnosticsContext.for_run(grid, scfg, data, lift=sim.ell)
    try:
        records = sim.run(diagnostics_context=ctx)
    except CFLViolation as exc:
        return [str(exc)]
    st = sim.state
    return [np.array([r.as_row() for r in records]),
            st.phi.values, st.mu.values, st.p.values, st.u.ux, st.u.uy]


def _same(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        x == y if isinstance(x, str) else
        not isinstance(y, str) and x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
        for x, y in zip(a, b))


def test_second_values_cover_every_run_key():
    run_keys = {(section, key) for section, keys in SCHEMA.items() if section != "outputs"
                for key in keys}
    assert set(SECOND_VALUES) == run_keys


@pytest.mark.parametrize("section, key", list(SECOND_VALUES),
                         ids=[f"{s}.{k}" for s, k in SECOND_VALUES])
def test_every_key_is_read(section, key):
    base, second = SECOND_VALUES[(section, key)]
    first = _outcome(_ini(base))
    assert len(first) > 1, f"base run of {section}.{key} refused: {first}"
    changed = _outcome(_ini({**base, (section, key): second}))
    assert not _same(first, changed), f"[{section}] {key} = {second} changes nothing"
