#!/usr/bin/env python3
"""Per-evaluation time of the three quadrature penalties and per-call time
of the pair kernel, the scheduler and the corridor march.

Run from anywhere; it imports the program from this checkout's src/:

    python3 tools/bench_penalty.py

For M = 2, 6 and 12 pieces it builds one seeded hover-to-hover spline, one
corridor box per piece drawn in so that nodes violate it, and one neighbour
flying through the same space at the same time.  It then times
corridor_penalty, capsule_penalty (SafetyMargins(5, 2, 0.5), as the
fleetbench workloads) and limits_penalty (default VehicleModel and Limits),
all at the default PenaltyConfig, and flat_batch, primal and grad=True, at
the nodes limits_penalty evaluates (16 per piece: 32, 96 and 192).  It also
times
check_equivalent_criterion at the audit's grid step on three fixed pairs
of 90 m, 15 s, three-piece lanes 36 m up, like audit-fleet's: two parallel
lanes 12 m apart ("lanes", which the coefficient boxes prune), two lanes
crossing at their midpoints 21 s apart, as consecutive audit-fleet waves
do ("waves"), and the same two lanes at the same time ("crossing").  It
times temporal_schedule at the benchmark margins, at plan_mission's step
M_d / 20 and its 0.95 v_max and Limits.accel_cap, on a 44 m line of the
open-crossing star (fleetbench/workloads.py _star(1)) against a 14 s lane
along _star(0)'s line ("crossing", which waits for the lane), and against
a 14 s lane from _star(0)'s start to the star's centre, where it parks on
the line ("static": the search runs until the blocked map is static and
the reachable set repeats, and ScheduleTimeout ends the call).  It times
corridor_from_path on the eight straight _star(0..7) segments in the box
cover that box_scene builds, as ms per segment.  Each
time is the median over ROUNDS rounds of the mean over CALLS calls (2 for
the scheduler), in ms, after WARMUP calls.  It prints one JSON object: ms
per evaluation by functional and M, ms per flat_batch call by node count,
ms per call by pair-kernel pair and by scheduler case, ms per corridor
segment, and the host's core count.
"""

import json
import os
import statistics
import sys
import time

# One thread, as in fleetbench: keep numpy's BLAS to the calling thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "fleetbench"))

import workloads  # noqa: E402
from swarmplan import fleet, minco, optimize, pathfind, penalty  # noqa: E402
from swarmplan.dynamics import Limits, VehicleModel, flat_batch  # noqa: E402
from swarmplan.errors import ScheduleTimeout  # noqa: E402
from swarmplan.geom import Aabb, HalfspacePolytope  # noqa: E402
from swarmplan.penalty import PenaltyConfig, SafetyMargins  # noqa: E402

SEED = 1
PIECES = (2, 6, 12)
WARMUP = 3
CALLS = 10
ROUNDS = 7
MARGINS = SafetyMargins(M_r=5.0, M_d=2.0, w=0.5)


def _spline(rng, M, t0):
    """Hover-to-hover spline through M + 1 points of a 30 m cube, 3-6 s per
    piece."""
    pts = rng.uniform(0.0, 30.0, size=(M + 1, 3))
    return minco.construct(t0, rng.uniform(3.0, 6.0, size=M), pts[1:-1],
                           minco.BoundaryState.hover(pts[0]),
                           minco.BoundaryState.hover(pts[-1]))


def _lane(p0, p1, t0=0.0):
    """A 90 m, 15 s, three-piece hover-to-hover lane at z = 36 m."""
    p0, p1 = np.array([*p0, 36.0]), np.array([*p1, 36.0])
    q = p0 + (p1 - p0) * (np.arange(1, 3)[:, None] / 3.0)
    return minco.construct(t0, np.full(3, 5.0), q,
                           minco.BoundaryState.hover(p0),
                           minco.BoundaryState.hover(p1))


# name -> (a's start, a's goal, b's start, b's goal, b's departure).
PAIRS = {
    "lanes": ((5, 20), (95, 20), (5, 32), (95, 32), 0.0),
    "waves": ((5, 50), (95, 50), (50, 5), (50, 95), 21.0),
    "crossing": ((5, 50), (95, 50), (50, 5), (50, 95), 0.0),
}


def _corridor(traj):
    """Per piece, the box of 12 samples drawn in by a tenth of its extent
    on every side."""
    polys = []
    for i in range(traj.n_pieces):
        pts = traj.eval_many(np.linspace(traj.knots[i], traj.knots[i + 1], 12))
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        polys.append(HalfspacePolytope.from_aabb(
            Aabb(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))))
    return polys


def _ms_per_call(fun, calls=CALLS):
    for _ in range(WARMUP):
        fun()
    rounds = []
    for _ in range(ROUNDS):
        t = time.perf_counter()
        for _ in range(calls):
            fun()
        rounds.append((time.perf_counter() - t) / calls * 1e3)
    return round(statistics.median(rounds), 3)


def _schedule(curve, lane, model, limits):
    """temporal_schedule with plan_mission's step and limits; a
    ScheduleTimeout is the call's end."""
    try:
        optimize.temporal_schedule(
            curve, [lane], MARGINS, optimize.SCHED_SPEED_SHARE * limits.v_max,
            limits.accel_cap(model), t_request=0.0,
            dt=optimize._check_step(MARGINS, limits.v_max))
    except ScheduleTimeout:
        pass


def main():
    config = PenaltyConfig()
    model, limits = VehicleModel(), Limits()
    out = {"corridor_penalty": {}, "capsule_penalty": {},
           "limits_penalty": {}, "flat_batch": {}, "flat_batch_grad": {}}
    for M in PIECES:
        rng = np.random.default_rng([SEED, M])
        traj = _spline(rng, M, 0.0)
        polys = _corridor(traj)
        nb = _spline(rng, M, 0.5)
        calls = {
            "corridor_penalty": lambda: penalty.corridor_penalty(
                traj, polys, config),
            "capsule_penalty": lambda: penalty.capsule_penalty(
                traj, [nb], MARGINS, config),
            "limits_penalty": lambda: penalty.limits_penalty(
                traj, model, limits, config),
        }
        for name, fun in calls.items():
            out[name][str(M)] = _ms_per_call(fun)
        nodes = penalty._stacked_nodes(traj, config.n_q, (1, 2, 3))
        vel, acc, jer = (nodes.deriv[k].reshape(-1, 3) for k in (1, 2, 3))
        out["flat_batch"][str(len(vel))] = _ms_per_call(
            lambda: flat_batch(model, vel, acc, jer))
        out["flat_batch_grad"][str(len(vel))] = _ms_per_call(
            lambda: flat_batch(model, vel, acc, jer, grad=True))
    res = fleet.AUDIT_SHARE * MARGINS.M_d
    out["check_equivalent_criterion"] = {}
    for name, (a0, a1, b0, b1, t_b) in PAIRS.items():
        a, b = _lane(a0, a1), _lane(b0, b1, t_b)
        out["check_equivalent_criterion"][name] = _ms_per_call(
            lambda: penalty.check_equivalent_criterion(a, b, MARGINS, res))
    m1, m2 = workloads._star(0), workloads._star(1)
    curve = pathfind.Path([m2.p_o, m2.p_f])
    out["temporal_schedule"] = {}
    centre = 0.5 * (m1.p_o + m1.p_f)
    for name, goal in (("crossing", m1.p_f), ("static", centre)):
        lane = minco.construct(0.0, [14.0], np.zeros((0, 3)),
                               minco.BoundaryState.hover(m1.p_o),
                               minco.BoundaryState.hover(goal))
        out["temporal_schedule"][name] = _ms_per_call(
            lambda: _schedule(curve, lane, model, limits), calls=2)
    box = workloads.box_scene()
    segments = [pathfind.Path([m.p_o, m.p_f])
                for m in map(workloads._star, range(8))]
    out["corridor_from_path"] = {"star": round(_ms_per_call(
        lambda: [pathfind.corridor_from_path(box, p) for p in segments])
        / len(segments), 3)}
    print(json.dumps({"unit": "ms per evaluation or call", "seed": SEED,
                      "cores": os.cpu_count(), "ms": out}))


if __name__ == "__main__":
    main()
