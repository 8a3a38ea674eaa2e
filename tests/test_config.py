"""Config parsing: typos are rejected, and the acceleration cap."""

import pytest

from swarmplan.config import RunConfig, config_from_dict
from swarmplan.dynamics import Limits, VehicleModel


@pytest.mark.parametrize("data, message", [
    ({"vehicles": {"m": 2.0}}, "unknown config sections"),
    ({"vehicle": {"mass": 2.0}}, "unknown keys in section 'vehicle'"),
    ({"vehicle": 2.0}, "section 'vehicle' must be an object"),
    ({"search": {"sched_budget": 4000}}, "unknown keys in section 'search'"),
    ({"search": {"rrt_budget": 20000}}, "unknown keys in section 'search'"),
])
def test_rejects_typos(data, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict(data)


def test_a_max_defaults_to_accel_cap():
    assert RunConfig().a_max() == Limits().accel_cap(VehicleModel())
    assert config_from_dict({"search": {"a_max": 2.5}}).a_max() == 2.5
