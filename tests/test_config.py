"""Config parsing: typos are rejected, and the acceleration cap."""

import numpy as np
import pytest

from swarmplan.config import config_from_dict
from swarmplan.dynamics import Limits, VehicleModel


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
