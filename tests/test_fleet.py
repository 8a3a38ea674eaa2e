"""Fleet store: audited, serialized commits."""

import numpy as np
import pytest

from swarmplan import fleet, minco
from swarmplan.errors import AuditFailure


def _transit_traj(p0, p1, t0, dur):
    return minco.construct(t0, [dur], np.zeros((0, 3)),
                           minco.BoundaryState.hover(np.asarray(p0, float)),
                           minco.BoundaryState.hover(np.asarray(p1, float)))


class TestCommit:
    def test_duplicate_id_rejected(self, box_map, margins):
        db = fleet.FleetDb(box_map, margins)
        db.commit("a", _transit_traj([10, 10, 15], [50, 10, 15], 0.0, 10.0))
        far = _transit_traj([10, 50, 15], [50, 50, 15], 0.0, 10.0)
        with pytest.raises(ValueError):
            db.commit("a", far)
        assert db.ids() == ["a"]

    def test_crossing_pair_fails_audit(self, box_map, margins):
        db = fleet.FleetDb(box_map, margins)
        db.commit("a", _transit_traj([10, 30, 15], [50, 30, 15], 0.0, 10.0))
        reverse = _transit_traj([50, 30, 15], [10, 30, 15], 0.0, 10.0)
        with pytest.raises(AuditFailure) as info:
            db.commit("b", reverse)
        assert info.value.pair == ("b", "a")
        assert info.value.margin < fleet.AUDIT_TOL
        assert db.ids() == ["a"]
