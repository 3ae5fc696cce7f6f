import dataclasses

import pytest

from chns.boundary import Amplitude
from chns.config import (SCHEMA, RunConfig, build_grid, build_potential,
                         build_solver_config, build_viscosity, build_wall_data,
                         parse_config_text, serialize_config)
from chns.errors import ValidationError
from chns.potential import PotentialSpec, ViscositySpec
from chns.solver import SolverConfig


@pytest.mark.parametrize("cfg", [
    RunConfig(),
    RunConfig(viscosity_kind="constant", nu1=0.8, nu2=1.2, nu_value=0.9, nu_gap=0.05,
              dt=0.1 / 3, t_end=0.1, record_every=0.1 / 3),
], ids=["defaults", "constant_viscosity"])
def test_serialize_parse_round_trip(cfg):
    text = serialize_config(cfg)
    back = parse_config_text(text)
    assert back == cfg
    assert serialize_config(back) == text


def test_schema_names_every_field_once():
    names = [fname for keys in SCHEMA.values() for fname, _ in keys.values()]
    assert len(names) == len(set(names))
    assert set(names) == {f.name for f in dataclasses.fields(RunConfig)}


def test_defaults_are_the_objects_defaults():
    cfg = RunConfig()
    assert build_potential(cfg) == PotentialSpec()
    assert build_viscosity(cfg) == ViscositySpec()
    assert build_solver_config(cfg) == SolverConfig(dt=cfg.dt, t_end=cfg.t_end)
    assert build_wall_data(cfg, build_grid(cfg)).amplitude == Amplitude("custom_static")


@pytest.mark.parametrize("text, where", [
    ("[potential]\nkind = cubic\n", "[potential]"),
    ("[potential]\nc1 = -1\n", "[potential]"),
    ("[boundary]\nfamily = couette_ramp\nrate = 0\n", "[boundary]"),
    ("[boundary]\nfamily = power_decay\np = 0.25\n", "[boundary]"),
    ("[boundary]\ng_top = single_mode:abc\n", "[boundary] g_top"),
    ("[boundary]\ng_top = single_modefoo\n", "[boundary] g_top"),
    ("[solver]\ncfl_safety = -1\n", "[time]/[solver]"),
], ids=["potential_kind", "potential_c1", "ramp_rate", "power_p", "mode_not_digits",
        "mode_no_colon", "cfl_safety"])
def test_bad_object_rejected_at_parse(text, where):
    with pytest.raises(ValidationError) as exc:
        parse_config_text(text)
    assert len(exc.value.violations) == 1
    assert exc.value.violations[0].startswith(where)


def test_every_bad_object_reported():
    text = """
[grid]
nx = 3
[potential]
c3 = 0
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
        "[grid]", "[potential]", "[viscosity]", "[time]/[solver]", "[boundary]"]


def test_profile_names_checked_when_grid_refused():
    with pytest.raises(ValidationError) as exc:
        parse_config_text("[grid]\nnx = 5\n[initial]\nphi = ramp\n[boundary]\ng_top = x\n")
    assert len(exc.value.violations) == 3


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
