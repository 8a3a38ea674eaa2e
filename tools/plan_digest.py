#!/usr/bin/env python3
"""Digest of the plans the program commits on fixed requests.

Run from anywhere; it imports the program from this checkout's src/ and
the scenes and requests from its fleetbench/:

    python3 tools/plan_digest.py > PLANS.json

Cases, each planned in order against the trajectories committed before it
in one FleetDb, with the program's default VehicleModel, Limits,
PenaltyConfig and SolveOptions:

- open-crossing and tunnel-detour: the benchmark workloads' requests and
  scenes, at their margins SafetyMargins(5, 2, 0.5);
- audit-fleet at seeds 1 and 2: the pre-built lanes of lane_fleet(seed),
  committed without planning;
- star: _star(0..7), eight crossings of the box scene, at
  SafetyMargins(5, 2, 0.5) and at (2, 1, 0.5).

Per mission it prints the verdict ("committed" or the error's class name),
the error's message, the attempt records, t0, t_end and a sha256 of the
float64 bytes of T followed by those of coeffs; per case it prints the
final audit rows.  Floats are printed by repr, so two outputs are equal
exactly when every digested value is equal bit for bit.  Plans do not
depend on the run seed, so one run of each planning workload covers every
seed.  The whole run takes about 18 s on a 2-core host.
"""

import hashlib
import json
import os
import sys

# One thread, as in fleetbench: keep numpy's BLAS to the calling thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "fleetbench"))

import workloads  # noqa: E402
from swarmplan import fleet, optimize  # noqa: E402
from swarmplan.dynamics import Limits, VehicleModel  # noqa: E402
from swarmplan.errors import PlanningError  # noqa: E402
from swarmplan.penalty import PenaltyConfig, SafetyMargins  # noqa: E402


def _sha(traj) -> str:
    h = hashlib.sha256(np.ascontiguousarray(traj.T, np.float64).tobytes())
    h.update(np.ascontiguousarray(traj.coeffs, np.float64).tobytes())
    return h.hexdigest()


def _planner(polymap, margins):
    def plan(db, mission):
        traj, report = optimize.plan_mission(
            polymap, mission, db.trajectories(), model=VehicleModel(),
            limits=Limits(), margins=margins, pconfig=PenaltyConfig(),
            rng=None)
        return traj, report.attempts
    return plan


def _run(name, margins, missions, make):
    """Commit make(db, mission) -> (trajectory, attempts) for each mission
    in order; a PlanningError, from planning or the commit, is the
    mission's verdict."""
    db = fleet.FleetDb(None, margins)
    rows = []
    for mission in missions:
        row = {"id": str(mission.id)}
        try:
            traj, attempts = make(db, mission)
            db.commit(mission.id, traj)
        except PlanningError as exc:
            row.update(verdict=type(exc).__name__, message=str(exc),
                       attempts=list(exc.attempts))
        else:
            row.update(verdict="committed", attempts=list(attempts),
                       t0=traj.t0, t_end=traj.t_end, sha256=_sha(traj))
        rows.append(row)
    return {"case": name, "missions": rows,
            "audit": [list(r) for r in db.final_audit()]}


def _render(cases) -> str:
    """One JSON document with each mission and audit row on a line of its
    own, so that a diff names the rows that moved."""
    def rows(items):
        return "[" + ",".join("\n   " + json.dumps(r) for r in items) + "]"
    return "{\"cases\": [" + ",".join(
        f"\n {{\"case\": {json.dumps(c['case'])},\n  \"missions\": "
        f"{rows(c['missions'])},\n  \"audit\": {rows(c['audit'])}}}"
        for c in cases) + "\n]}"


def main():
    bench = workloads.MARGINS
    box = workloads.box_scene()
    cases = [
        _run("open-crossing", bench, workloads.open_crossing_requests(),
             _planner(box, bench)),
        _run("tunnel-detour", bench, workloads.tunnel_requests(),
             _planner(workloads.tunnel_scene(), bench)),
    ]
    for seed in (1, 2):
        lanes = workloads.lane_fleet(seed)
        trajs = {m.id: traj for m, traj in lanes}
        cases.append(_run(f"audit-fleet seed {seed}", bench,
                          [m for m, _ in lanes],
                          lambda db, m: (trajs[m.id], [])))
    stars = [workloads._star(k) for k in range(8)]
    for margins in (bench, SafetyMargins(M_r=2.0, M_d=1.0, w=0.5)):
        cases.append(_run(f"star M_r={margins.M_r:g} M_d={margins.M_d:g}",
                          margins, stars, _planner(box, margins)))
    print(_render(cases))


if __name__ == "__main__":
    main()
