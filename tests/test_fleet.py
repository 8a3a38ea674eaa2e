"""Fleet store: audited, serialized commits; the robustness experiment."""

import csv
import json

import numpy as np
import pytest

from swarmplan import cli, fleet, io, minco, penalty
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

    def test_final_audit_returns_commit_rows(self, box_map, margins,
                                             monkeypatch):
        # "east" is committed before "north" but flies after it, so commits
        # audit some pairs earlier flight first and others later flight
        # first.  north crosses east's line, and north's parked goal lies
        # 14 m from beside's route.
        lanes = [
            ("east", _transit_traj([10, 30, 15], [50, 30, 15], 20.0, 10.0)),
            ("north", _transit_traj([30, 4, 15], [30, 56, 15], 0.0, 10.0)),
            ("beside", _transit_traj([10, 42, 15], [50, 42, 15], 20.0, 10.0)),
            ("west", _transit_traj([50, 18, 15], [10, 18, 15], 45.0, 10.0)),
        ]
        db = fleet.FleetDb(box_map, margins)
        for name, traj in lanes:
            db.commit(name, traj)
        real = penalty.check_equivalent_criterion
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(penalty, "check_equivalent_criterion", counted)
        rows = db.final_audit()
        assert calls == []
        expected = fleet.audit_rows(lanes, margins)
        assert len(calls) == 6
        assert rows == expected
        assert min(m for _, _, m in rows) < 2.0 * margins.M_r


class TestRobustness:
    def _fleet_dir(self, tmp_path, margins, lanes):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"margins": {
            "M_r": margins.M_r, "M_d": margins.M_d, "w": margins.w}}))
        fleet_dir = tmp_path / "fleet"
        fleet_dir.mkdir()
        for name, traj in lanes:
            io.save_trajectory(str(fleet_dir / f"traj_{name}.json"), traj)
        return str(config), str(fleet_dir)

    def _run(self, config, fleet_dir, out):
        # Two trials: a mean and std over two equal values are exact.
        return cli.main(["robustness", "--config", config, "--seed", "3",
                         "--out", str(out), "--fleet-dir", fleet_dir,
                         "--grid", "0,1.5", "--trials", "2"])

    def test_seeded_rows(self, margins, tmp_path):
        lanes = [
            ("east", _transit_traj([10, 30, 15], [50, 30, 15], 8.0, 10.0)),
            ("north", _transit_traj([30, 10, 15], [30, 50, 15], 0.0, 10.0)),
        ]
        config, fleet_dir = self._fleet_dir(tmp_path, margins, lanes)
        for out in ("one", "two"):
            assert self._run(config, fleet_dir, tmp_path / out) == cli.EXIT_OK
        text = (tmp_path / "one" / "robustness.csv").read_bytes()
        assert text == (tmp_path / "two" / "robustness.csv").read_bytes()

        rows = list(csv.DictReader(text.decode().splitlines()))
        assert [float(r["dt_max"]) for r in rows] == [0.0, 1.5]
        still = rows[0]
        assert float(still["std_min_dist"]) == 0.0
        trajs = [io.load_trajectory(str(tmp_path / "fleet" / f"traj_{n}.json"))
                 for n, _ in lanes]
        step = fleet.TRIAL_STEP_SHARE * margins.M_d
        unwarped = fleet.min_pairwise_distance(trajs, step, margins=margins)
        assert float(still["mean_min_dist"]) == unwarped

    def test_one_trajectory_is_usage_error(self, margins, tmp_path):
        lanes = [("east", _transit_traj([10, 30, 15], [50, 30, 15], 0.0,
                                        10.0))]
        config, fleet_dir = self._fleet_dir(tmp_path, margins, lanes)
        assert self._run(config, fleet_dir, tmp_path) == cli.EXIT_USAGE
        assert not (tmp_path / "robustness.csv").exists()


class TestMission:
    @pytest.mark.parametrize("field", ["t_o", "p_o", "p_f"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fields_rejected(self, field, bad):
        fields = {"p_o": [0.0, 0.0, 5.0], "p_f": [10.0, 0.0, 5.0],
                  "t_o": 0.0}
        fields[field] = bad if field == "t_o" else [0.0, bad, 5.0]
        with pytest.raises(ValueError, match=f"mission 'x': {field} "):
            fleet.Mission(id="x", **fields)
