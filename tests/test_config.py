"""Config parsing: typos and bad values are rejected with the section's
name, each section is the planner's own class, and the acceleration cap."""

import json
from dataclasses import replace

import numpy as np
import pytest

from swarmplan.cli import main
from swarmplan.config import RunConfig, config_from_dict
from swarmplan.dynamics import Limits, VehicleModel
from swarmplan.optimize import SolveOptions
from swarmplan.penalty import PenaltyConfig


@pytest.mark.parametrize("data, message", [
    ({"vehicles": {"m": 2.0}}, "unknown config sections"),
    ({"vehicle": {"mass": 2.0}}, "unknown keys in section 'vehicle'"),
    ({"vehicle": 2.0}, "section 'vehicle' must be an object"),
    ({"search": {"sched_budget": 4000}}, "unknown config sections"),
    ({"search": {"rrt_budget": 20000}}, "unknown config sections"),
    ({"search": {"a_max": 2.5}}, "unknown config sections"),
])
def test_rejects_typos(data, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict(data)


def test_a_max_defaults_to_accel_cap():
    # plan_mission schedules at Limits.accel_cap: the smaller of the spare
    # thrust over gravity, 28.5 / 1.9 - 9.81 = 5.19 m/s^2 for the default
    # vehicle, and the tilt limit's g tan(20 deg) = 3.57 m/s^2.
    model = VehicleModel()
    assert Limits().accel_cap(model) == pytest.approx(
        9.81 * np.tan(np.pi / 9))
    assert Limits(theta_max=np.pi / 3).accel_cap(model) == pytest.approx(
        28.5 / 1.9 - 9.81)


BAD_VALUES = [
    ("vehicle", "m", 0.0),
    ("vehicle", "eta", 0.0),
    ("vehicle", "d_h", -1.0),
    ("vehicle", "d_v", 5.0),             # drag guard
    ("vehicle", "c_p", 0.01),            # the key is C_p, as in VehicleModel
    ("limits", "v_max", 0.0),
    ("limits", "f_max", 9.0),
    ("limits", "theta_max", 3.2),
    ("limits", "f_max", 18.0),           # no acceleration margin
    ("margins", "M_r", 0.0),
    ("margins", "M_d", -1.0),
    ("margins", "w", 0.0),
    ("margins", "w", 2.0),
    ("penalty", "mu", 0.0),
    ("penalty", "w2", -1.0),
    ("penalty", "n_t", 5),
    ("solver", "gtol", 0.0),
    ("solver", "memory", 10),            # solver.minimize's default, fixed
    ("map", "epsilon", 0.0),
    ("map", "bounds_hi", [0.0, 0.0, 0.0]),
    ("map", "local_halfwidth", 0.0),
    ("map", "budget", 0),
    ("solver", "max_iter", 0),           # after bounds_hi, whose id is its
    ("solver", "mu_rounds", 0),          # index in this list
    ("seed", None, -1),
]


@pytest.mark.parametrize("section, key, value", BAD_VALUES)
def test_bad_value_fails_naming_its_section(section, key, value):
    data = {section: value if key is None else {key: value}}
    with pytest.raises(ValueError, match=f"'{section}'"):
        config_from_dict(data)


def test_cli_exits_1_on_bad_value(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"margins": {"w": 2.0}}))
    assert main(["profile", "--config", str(path), "--out", str(tmp_path),
                 "--traj", str(tmp_path / "absent.json")]) == 1
    assert "config section 'margins'" in capsys.readouterr().err


def test_one_definition_per_setting():
    cfg = RunConfig()
    assert cfg.vehicle == VehicleModel()
    assert cfg.limits == Limits()
    assert cfg.penalty == PenaltyConfig()
    assert cfg.solver == SolveOptions()
    assert (config_from_dict({"penalty": {"rho": 1.0}}).penalty
            == replace(PenaltyConfig(), rho=1.0))
