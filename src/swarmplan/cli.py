"""Command-line entry point.

Commands: polyhedronize, fleet, check, robustness, profile.  Common flags
--config/--seed/--out.  Exit codes: 0 success, 1 usage error, 2 planning
failure, 3 audit failure.  Outputs are deterministic for a fixed seed and
written atomically.

fleet's audit rows are the margins of its commits (fleet.FleetDb.commit).
check applies optimize.post_check to each trajectory, with the whole
polytope cover as its corridor and no neighbors, and recomputes the same
pair audit (fleet.audit_rows) for every pair.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import fleet as fleetmod
from . import geom, io, optimize, penalty
from .config import load_config
from .dynamics import flat_batch
from .errors import AuditFailure, PlanningError, PostCheckFailure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PLANNING = 2
EXIT_AUDIT = 3

PROFILE_HZ = 100.0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="swarmplan",
                     description="multi-drone trajectory planning toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="random seed override")
    common.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polyhedronize", parents=[common],
                       help="cover a map's free space with polytopes")
    p.add_argument("--map", required=True, help="obstacle map text file")

    p = sub.add_parser("fleet", parents=[common],
                       help="plan and commit a mission batch")
    p.add_argument("--polymap", required=True, help="polytope cover JSON")
    p.add_argument("--missions", required=True, help="mission CSV")

    p = sub.add_parser("check", parents=[common],
                       help="audit trajectories against map and limits")
    p.add_argument("--polymap", required=True, help="polytope cover JSON")
    p.add_argument("trajectories", nargs="+", help="trajectory JSON files")

    p = sub.add_parser("robustness", parents=[common],
                       help="time-warp robustness experiment")
    p.add_argument("--fleet-dir", required=True,
                   help="directory with traj_*.json files")
    p.add_argument("--grid", required=True,
                   help="comma-separated dt_max values")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--regime", choices=["all", "single"], default="all")

    p = sub.add_parser("profile", parents=[common],
                       help="dynamic profile CSV for a trajectory")
    p.add_argument("--traj", required=True, help="trajectory JSON file")
    return parser


def _setup(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    if seed < 0:
        raise _UsageError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    os.makedirs(args.out, exist_ok=True)
    return cfg, rng


def cmd_polyhedronize(args) -> int:
    cfg, rng = _setup(args)
    bounds = geom.Aabb(np.asarray(cfg.map.bounds_lo, dtype=float),
                       np.asarray(cfg.map.bounds_hi, dtype=float))
    obstacles = io.load_obstacle_map(args.map, bounds=bounds)
    polymap = geom.polyhedronize(obstacles, cfg.map.epsilon, rng,
                                 local_halfwidth=cfg.map.local_halfwidth,
                                 attempt_budget=cfg.map.budget)
    out_path = os.path.join(args.out, "polymap.json")
    io.save_polymap(out_path, polymap)
    print(f"polytopes: {len(polymap.polytopes)}")
    if polymap.fill_estimate is not None:
        print(f"fill_estimate: {polymap.fill_estimate:.6f}")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_fleet(args) -> int:
    cfg, rng = _setup(args)
    polymap = io.load_polymap(args.polymap)
    missions = io.load_missions(args.missions)
    model = cfg.vehicle_model()
    limits = cfg.limit_set()
    margins = cfg.safety_margins()
    pconfig = cfg.penalty_config()
    options = cfg.solve_options()
    db = fleetmod.FleetDb(polymap, margins)

    log = []
    for mission in missions:
        entry = {"id": mission.id, "t_o": mission.t_o}
        try:
            traj, report = optimize.plan_mission(
                polymap, mission, db.trajectories(), model=model,
                limits=limits, margins=margins, pconfig=pconfig, rng=rng,
                options=options)
            db.commit(mission.id, traj)
            fname = f"traj_{mission.id}.json"
            io.save_trajectory(os.path.join(args.out, fname), traj)
            mission.status = fleetmod.COMMITTED
            # Unchecked capsule margins are +inf; JSON has no spelling for
            # that, so they serialize as null.
            post = {k: (float(v) if np.isfinite(v) else None)
                    for k, v in report.post.items()}
            entry.update(status=fleetmod.COMMITTED, file=fname,
                         t_start=traj.t0, t_end=traj.t_end,
                         objective=report.objective,
                         scheduled=report.scheduled, post=post,
                         attempts=report.attempts)
            print(f"mission {mission.id}: committed "
                  f"[{traj.t0:.2f}, {traj.t_end:.2f}] s"
                  + (" (rescheduled)" if report.scheduled else ""))
        except PlanningError as exc:
            mission.status = fleetmod.FAILED
            entry.update(status=fleetmod.FAILED,
                         error=f"{type(exc).__name__}: {exc}",
                         attempts=list(exc.attempts))
            print(f"mission {mission.id}: failed ({type(exc).__name__})")
        log.append(entry)

    audit_rows = db.final_audit()
    worst = min((m for _, _, m in audit_rows), default=np.inf)
    io.write_json(os.path.join(args.out, "fleet.json"),
                  {"missions": log,
                   "audit": [{"a": a, "b": b, "margin": m}
                             for a, b, m in audit_rows]})
    lines = ["id_a,id_b,margin"]
    lines += [f"{a},{b},{io.FLOAT_FMT % m}" for a, b, m in audit_rows]
    io.atomic_write_text(os.path.join(args.out, "metrics.csv"),
                         "\n".join(lines) + "\n")
    committed = sum(1 for e in log if e.get("status") == fleetmod.COMMITTED)
    print(f"committed {committed}/{len(missions)} missions; "
          f"worst pair margin "
          + (f"{worst:.4f} m" if np.isfinite(worst) else "n/a"))
    return EXIT_OK


def cmd_check(args) -> int:
    cfg, _ = _setup(args)
    polymap = io.load_polymap(args.polymap)
    model = cfg.vehicle_model()
    limits = cfg.limit_set()
    margins = cfg.safety_margins()
    trajs = {os.path.basename(p): io.load_trajectory(p)
             for p in args.trajectories}
    failures = []

    worst_contain = np.inf
    worst_limits = -np.inf
    for name, traj in trajs.items():
        try:
            post = optimize.post_check(traj, polymap.polytopes, (), margins,
                                       model, limits)
        except PostCheckFailure as exc:
            post = exc.margins
            failures.append(f"{name}: {exc}")
        worst_contain = min(worst_contain,
                            post.get("corridor_margin", np.inf))
        worst_limits = max(worst_limits, post.get("limits_norm", -np.inf))

    rows = fleetmod.audit_rows(sorted(trajs.items()), margins)
    failures += [f"pair ({a}, {b}): margin {m:.4e}" for a, b, m in rows
                 if m < fleetmod.AUDIT_TOL]
    worst_pair = min((m for _, _, m in rows), default=np.inf)

    print(f"worst containment margin: {worst_contain:.6f} m")
    if np.isfinite(worst_pair):
        print(f"worst pairwise margin: {worst_pair:.6f} m")
    print(f"worst normalized limit residual: {worst_limits:.6e}")
    if failures:
        for line in failures:
            print(f"VIOLATION {line}")
        return EXIT_AUDIT
    print("all margins within tolerance")
    return EXIT_OK


def cmd_robustness(args) -> int:
    cfg, rng = _setup(args)
    margins = cfg.safety_margins()
    names = sorted(fn for fn in os.listdir(args.fleet_dir)
                   if fn.startswith("traj_") and fn.endswith(".json"))
    if len(names) < 2:
        raise _UsageError("robustness needs at least two trajectories")
    trajs = [io.load_trajectory(os.path.join(args.fleet_dir, fn))
             for fn in names]
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --grid value: {exc}") from exc
    if not grid:
        raise _UsageError("empty --grid")
    rows = fleetmod.robustness_experiment(trajs, margins, grid, rng,
                                          trials=args.trials,
                                          regime=args.regime)
    out_path = os.path.join(args.out, "robustness.csv")
    io.write_robustness_csv(out_path, rows)
    for dt_max, mean, std, trials in rows:
        print(f"dt_max {dt_max:g}: mean min distance {mean:.3f} m "
              f"(std {std:.3f}, {trials} trials)")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_profile(args) -> int:
    cfg, _ = _setup(args)
    model = cfg.vehicle_model()
    traj = io.load_trajectory(args.traj)
    n = int(np.floor(traj.total_duration * PROFILE_HZ)) + 1
    ts = traj.t0 + np.arange(n) / PROFILE_HZ
    if ts[-1] < traj.t_end - 1e-9:
        ts = np.append(ts, traj.t_end)
    vel = traj.eval_many(ts, 1)
    acc = traj.eval_many(ts, 2)
    jer = traj.eval_many(ts, 3)
    psi, dpsi, _ = penalty.ConstantYaw().eval(vel, acc)
    flat = flat_batch(model, vel, acc, jer, psi, dpsi, grad=False)
    speed = np.linalg.norm(vel, axis=1)
    tilt = np.degrees(np.arccos(np.clip(flat["z_b"][:, 2], -1.0, 1.0)))
    om = np.linalg.norm(flat["omega"], axis=1)
    thrust = flat["f"] / model.m
    drag = np.linalg.norm(flat["drag"], axis=1)
    rows = zip(ts, speed, tilt, om, thrust, drag)
    out_path = os.path.join(args.out, "profile.csv")
    io.write_profile_csv(out_path, rows)
    print(f"wrote {out_path} ({len(ts)} rows)")
    return EXIT_OK


_COMMANDS = {
    "polyhedronize": cmd_polyhedronize,
    "fleet": cmd_fleet,
    "check": cmd_check,
    "robustness": cmd_robustness,
    "profile": cmd_profile,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AuditFailure as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except PlanningError as exc:
        print(f"planning failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_PLANNING
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
