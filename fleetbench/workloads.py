"""Scenes, requests and fleets of the benchmark workloads.

Every workload uses SafetyMargins(M_r=5, M_d=2, w=0.5) and the program's
default VehicleModel, Limits, PenaltyConfig and SolveOptions.  The scene
covers use fixed seeds; the run seed drives the rng handed to plan_mission
(open-crossing, tunnel-detour) or the lane timing and commit order
(audit-fleet).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from swarmplan import fleet, geom, minco, optimize
from swarmplan.dynamics import Limits, VehicleModel
from swarmplan.errors import PlanningError
from swarmplan.penalty import PenaltyConfig, SafetyMargins

MARGINS = SafetyMargins(M_r=5.0, M_d=2.0, w=0.5)


def box_scene():
    """Obstacle-free 60 x 60 x 30 box, cover seed 5."""
    rng = np.random.default_rng(5)
    occ = np.zeros((12, 12, 6), dtype=bool)
    obstacles = geom.ObstacleMap.from_voxels(
        np.zeros(3), 5.0, occ, bounds=geom.Aabb([0, 0, 0], [60, 60, 30]))
    return geom.polyhedronize(obstacles, 1e-2, rng)


def pillar_scene():
    """Eight square pillars up to z=32 in a 100 x 100 x 40 scene, seed 7."""
    rng = np.random.default_rng(7)
    nx, ny, nz = 25, 25, 10
    occ = np.zeros((nx, ny, nz), dtype=bool)
    for _ in range(8):
        cx, cy = rng.integers(3, nx - 3), rng.integers(3, ny - 3)
        occ[cx:cx + 2, cy:cy + 2, :8] = True
    obstacles = geom.ObstacleMap.from_voxels(
        np.zeros(3), 4.0, occ, bounds=geom.Aabb([0, 0, 0], [100, 100, 40]))
    return geom.polyhedronize(obstacles, 1e-2, rng)


def tunnel_scene():
    """A 60 x 60 x 30 block of rock with a U-shaped tunnel, 15 m wide and
    z 5..25: along y < 15, up x > 45 and back along y > 45.  Cover seed 5."""
    rng = np.random.default_rng(5)
    occ = np.ones((12, 12, 6), dtype=bool)
    occ[:, :3, 1:5] = False
    occ[9:, :, 1:5] = False
    occ[:, 9:, 1:5] = False
    obstacles = geom.ObstacleMap.from_voxels(
        np.zeros(3), 5.0, occ, bounds=geom.Aabb([0, 0, 0], [60, 60, 30]))
    return geom.polyhedronize(obstacles, 1e-2, rng)


def tunnel_requests():
    # From the west end of the south arm to the west end of the north arm:
    # 30 m of rock lies on the straight line, so path search must detour
    # round the U, about 2.4 times the straight distance.
    return [fleet.Mission("d1", [5, 7.5, 15], [5, 52.5, 15], 0.0)]


def _star(k: int) -> fleet.Mission:
    """Straight crossing through (30, 30, 15), radius 22 m, heading k*45°."""
    c = np.array([30.0, 30.0, 15.0])
    th = np.deg2rad(45.0 * k)
    u = 22.0 * np.array([np.cos(th), np.sin(th), 0.0])
    return fleet.Mission(f"m{k + 1}", c + u, c - u, 0.0)


def open_crossing_requests():
    # m5 flies m1's line 5.3 m (weighted) aside and its goal sits that close
    # to m1's parked goal, so no schedule exists: the request must be
    # rejected, and how long that takes is the measured defect.
    return [_star(0), _star(1),
            fleet.Mission("m5", [52, 34, 10], [8, 34, 10], 0.0)]


@dataclass
class Outcome:
    """Verdict on one request: a committed trajectory or a planning error."""

    mission: fleet.Mission
    traj: object
    error: Exception | None
    seconds: float

    @property
    def committed(self) -> bool:
        return self.error is None


@dataclass
class Batch:
    """Verdicts, final-audit rows and wall time of one batch.  Batches with
    equal stream ran the same inputs with the same random numbers."""

    outcomes: list
    audit_rows: list
    seconds: float
    stream: tuple
    started: float   # time.perf_counter() at the start of the batch


def _run_batch(polymap, requests, make_traj, stream) -> Batch:
    """Commit make_traj(db, mission) for each request in order, then run the
    final audit.  A planning error or a rejected commit is the request's
    verdict; any other exception ends the run."""
    t_batch = time.perf_counter()
    db = fleet.FleetDb(polymap, MARGINS)
    outcomes = []
    for mission in requests:
        t0 = time.perf_counter()
        traj, error = None, None
        try:
            traj = make_traj(db, mission)
            db.commit(mission.id, traj)
        except PlanningError as exc:
            traj, error = None, exc
        outcomes.append(Outcome(mission, traj, error,
                                time.perf_counter() - t0))
    rows = db.final_audit()
    return Batch(outcomes, rows, time.perf_counter() - t_batch, stream,
                 t_batch)


def plan_batch(polymap, requests, seed) -> Batch:
    """Plan each request against the committed fleet, in order, with one
    generator seeded by seed for the whole batch."""
    rng = np.random.default_rng(seed)

    def plan(db, mission):
        traj, _ = optimize.plan_mission(
            polymap, mission, db.trajectories(), model=VehicleModel(),
            limits=Limits(), margins=MARGINS, pconfig=PenaltyConfig(),
            rng=rng)
        return traj

    return _run_batch(polymap, requests, plan, tuple(seed))


# audit-fleet: four time waves of three parallel 90 m lanes at z=36, above
# every pillar.  Lanes of one wave fly 12 m apart, so each such pair clears
# 2 M_r = 10 m by 2 m; waves alternate axes and quadrants so that no lane
# passes within 10 m of a vehicle parked at another lane's endpoint.
LANE_Z = 36.0
LANE_WAVES = (
    [((5, y), (95, y)) for y in (20, 32, 44)],
    [((x, 5), (x, 95)) for x in (20, 32, 44)],
    [((95, y), (5, y)) for y in (56, 68, 80)],
    [((x, 95), (x, 5)) for x in (56, 68, 80)],
)
LANE_DURATION = 15.0   # s, mean; peak speed about 10 m/s
LANE_PIECES = 3
WAVE_GAP = 6.0         # s between the last arrival of a wave and the next


def lane_fleet(seed: int):
    """(mission, trajectory) per lane, in a seeded commit order.

    The seed scales each lane's duration by U(0.95, 1.05) and shuffles the
    commit order; each wave departs WAVE_GAP after the previous one lands.
    """
    rng = np.random.default_rng(seed)
    lanes = []
    t0 = 0.0
    for w, wave in enumerate(LANE_WAVES):
        t_land = t0
        for i, (a, b) in enumerate(wave):
            p_o = np.array([a[0], a[1], LANE_Z], dtype=float)
            p_f = np.array([b[0], b[1], LANE_Z], dtype=float)
            T = LANE_DURATION * rng.uniform(0.95, 1.05)
            q = p_o + (p_f - p_o) * (np.arange(1, LANE_PIECES)[:, None]
                                     / LANE_PIECES)
            traj = minco.construct(t0, np.full(LANE_PIECES, T / LANE_PIECES),
                                   q, minco.BoundaryState.hover(p_o),
                                   minco.BoundaryState.hover(p_f))
            lanes.append((fleet.Mission(f"w{w + 1}l{i + 1}", p_o, p_f, t0),
                          traj))
            t_land = max(t_land, traj.t_end)
        t0 = t_land + WAVE_GAP
    order = rng.permutation(len(lanes))
    return [lanes[i] for i in order]


def commit_batch(polymap, lanes, seed) -> Batch:
    """Commit the pre-built lanes of lane_fleet(seed) through
    FleetDb.commit, in order."""
    trajs = {m.id: traj for m, traj in lanes}
    return _run_batch(polymap, [m for m, _ in lanes],
                      lambda db, mission: trajs[mission.id], (seed,))


def inflated_overlap_share(trajs, margins=MARGINS) -> float:
    """Share of pairs whose space-time boxes, inflated by 2 M_r and 2 M_d,
    overlap: the pairs a broad phase would still have to check."""
    boxes = []
    for tr in trajs:
        pos = tr.eval_many(np.linspace(tr.t0, tr.t_end, 256), 0)
        lo = np.concatenate([pos.min(axis=0) - 2 * margins.M_r,
                             [tr.t0 - 2 * margins.M_d]])
        hi = np.concatenate([pos.max(axis=0) + 2 * margins.M_r,
                             [tr.t_end + 2 * margins.M_d]])
        boxes.append((lo, hi))
    n = len(boxes)
    hits = sum(bool(np.all(boxes[i][0] <= boxes[j][1])
                    and np.all(boxes[j][0] <= boxes[i][1]))
               for i in range(n) for j in range(i + 1, n))
    return hits / max(n * (n - 1) // 2, 1)


@dataclass
class Workload:
    """A seeded set-up, a batch run against its result, whether every
    request of the batch must commit, and the kinds of host-speed probe
    work its time follows (probe.py).  batch(ctx, seed, k) is the k-th
    batch of a run."""

    setup: Callable
    batch: Callable
    all_commit: bool
    probe: tuple


WORKLOADS = {
    "open-crossing": Workload(
        setup=lambda seed: {"polymap": box_scene(),
                            "requests": open_crossing_requests()},
        batch=lambda ctx, seed, k: plan_batch(ctx["polymap"],
                                              ctx["requests"], [seed, k]),
        all_commit=False, probe=("interpreted",)),
    "tunnel-detour": Workload(
        setup=lambda seed: {"polymap": tunnel_scene(),
                            "requests": tunnel_requests()},
        batch=lambda ctx, seed, k: plan_batch(ctx["polymap"],
                                              ctx["requests"], [seed, k]),
        all_commit=True, probe=("interpreted",)),
    # Each batch builds the lanes again, outside its timing, so that the
    # same-seed check between batches covers their construction.
    "audit-fleet": Workload(
        setup=lambda seed: {"polymap": pillar_scene(),
                            "lanes": lane_fleet(seed)},
        batch=lambda ctx, seed, k: commit_batch(ctx["polymap"],
                                                lane_fleet(seed), seed),
        all_commit=True, probe=("interpreted", "streaming")),
}
