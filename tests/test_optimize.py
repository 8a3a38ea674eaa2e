"""Chart parameterization, penalized solve, scheduling, and the mission
pipeline."""

import json
import time

import numpy as np
import pytest

import oracles
from conftest import random_trajectory

from swarmplan import cli, fleet, io, minco, optimize, pathfind, penalty
from swarmplan.errors import (
    BlockedEndpoint,
    NotInPolytope,
    PostCheckFailure,
    ScheduleTimeout,
)
from swarmplan.geom import Aabb, HalfspacePolytope
from swarmplan.optimize import (
    SolveOptions,
    StampedProfile,
    chart_build,
    chart_invert,
    chart_objective,
    plan_mission,
    post_check,
    solve,
    temporal_schedule,
)
from swarmplan.penalty import PenaltyConfig, SafetyMargins


@pytest.fixture(scope="module")
def pillar_setup(pillar_map):
    rng = np.random.default_rng(30)
    path = pathfind.informed_rrt_star(pillar_map, [5, 5, 10], [95, 95, 10],
                                      rng, step=5.0, budget=2500,
                                      informed_budget=500)
    corridor = pathfind.corridor_from_path(pillar_map, path)
    chart = chart_build(corridor, pillar_map)
    return pillar_map, path, corridor, chart


class TestChart:
    def test_shapes(self, pillar_setup):
        _, _, corridor, chart = pillar_setup
        assert chart.n_junctions == len(corridor.ids) - 1
        assert chart.dim == sum(chart.sizes)
        assert all(s >= 1 for s in chart.sizes)

    def test_split_join_roundtrip(self, pillar_setup):
        _, _, _, chart = pillar_setup
        rng = np.random.default_rng(0)
        x = rng.normal(size=chart.dim)
        assert np.array_equal(chart.join(chart.split(x)), x)

    def test_map_into_junction(self, pillar_setup):
        _, _, _, chart = pillar_setup
        rng = np.random.default_rng(1)
        xis = [rng.normal(size=s) + 0.1 for s in chart.sizes]
        q = chart.map_points(xis)
        for i, poly in enumerate(chart.polys):
            assert poly.contains(q[i], slack=1e-6)

    def test_invert_roundtrip_on_interior_points(self, pillar_setup):
        _, _, _, chart = pillar_setup
        rng = np.random.default_rng(2)
        q = []
        for V in chart.vertices:
            w = rng.uniform(0.2, 1.0, size=len(V))
            q.append((w / w.sum()) @ V)
        q = np.asarray(q)
        xis = chart.invert_points(q)
        back = chart.map_points(xis)
        assert np.allclose(back, q, atol=1e-6)

    def test_invert_rejects_outside_point(self, pillar_setup):
        _, _, _, chart = pillar_setup
        q = np.array([c.interior for c in chart.polys])
        q[0] = np.array([1e4, 1e4, 1e4])
        with pytest.raises(NotInPolytope):
            chart.invert_points(q)

    def test_map_point_rejects_zero(self, pillar_setup):
        _, _, _, chart = pillar_setup
        with pytest.raises(ValueError):
            chart.map_point(0, np.zeros(chart.sizes[0]))

    def test_pullback_matches_fd(self, pillar_setup):
        _, _, _, chart = pillar_setup
        rng = np.random.default_rng(3)
        c = rng.normal(size=(chart.n_junctions, 3))
        x0 = rng.uniform(0.3, 1.5, size=chart.dim)

        def f(x):
            q = chart.map_points(chart.split(x))
            return float(np.sum(c * q))

        xis = chart.split(x0)
        q = chart.map_points(xis)
        grad = chart.pullback(xis, q, c)
        fd = oracles.central_diff(f, x0, h=1e-6)
        assert np.allclose(grad, fd, atol=1e-6 * max(1.0, np.abs(fd).max()))

    def test_chart_invert_requires_positive_durations(self, pillar_setup):
        _, _, corridor, chart = pillar_setup
        with pytest.raises(ValueError):
            chart_invert(chart, corridor.switch_points,
                         np.full(len(corridor.ids), -1.0))


def _solve_inputs(corridor, chart, limits):
    q0 = corridor.switch_points
    chain = np.vstack([corridor.p_start, q0, corridor.p_goal])
    T0 = pathfind.trapezoidal_allocation(chain, limits.v_max, 3.0)
    xi0, tau0 = chart_invert(chart, q0, T0)
    boundary = (minco.BoundaryState.hover(corridor.p_start),
                minco.BoundaryState.hover(corridor.p_goal))
    return xi0, tau0, boundary


class TestChartObjective:
    def test_gradient_matches_fd(self, pillar_setup, model, limits, margins):
        polymap, _, corridor, chart = pillar_setup
        cfg = PenaltyConfig(n_q=8, n_t=6, n_v=8)
        xi0, tau0, boundary = _solve_inputs(corridor, chart, limits)
        nb = random_trajectory(np.random.default_rng(4), n_pieces=3,
                               box=60.0, t0=0.0)
        polys = corridor.polytopes(polymap)
        kw = dict(pconfig=cfg, model=model, limits=limits, margins=margins,
                  corridor_polys=polys, neighbors=[nb])
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = np.concatenate([chart.join(xi0), tau0])
            x[:chart.dim] += rng.normal(scale=0.05, size=chart.dim)
            x[chart.dim:] += rng.normal(scale=0.05, size=len(tau0))
            f0, g = chart_objective(chart, 0.0, boundary, x, **kw)
            assert np.isfinite(f0)

            def fun(xv):
                return chart_objective(chart, 0.0, boundary, xv, **kw)[0]

            fd = oracles.central_diff(fun, x, h=1e-6)
            scale = max(np.linalg.norm(fd), 1e-9)
            assert np.linalg.norm(g - fd) <= 1e-5 * scale

    def test_degenerate_points_are_infinite(self, pillar_setup, model,
                                            limits, margins):
        polymap, _, corridor, chart = pillar_setup
        cfg = PenaltyConfig(n_q=8, n_t=6, n_v=8)
        xi0, tau0, boundary = _solve_inputs(corridor, chart, limits)
        kw = dict(pconfig=cfg, model=model, limits=limits, margins=margins,
                  corridor_polys=corridor.polytopes(polymap))
        x = np.concatenate([chart.join(xi0), tau0])
        hot = x.copy()
        hot[-1] = 13.0
        f, g = chart_objective(chart, 0.0, boundary, hot, **kw)
        assert np.isinf(f) and not g.any()
        dead = x.copy()
        dead[:chart.sizes[0]] = 0.0
        f, g = chart_objective(chart, 0.0, boundary, dead, **kw)
        assert np.isinf(f) and not g.any()


class TestSolve:
    def test_objective_decreases(self, pillar_setup, model, limits, margins):
        polymap, _, corridor, chart = pillar_setup
        cfg = PenaltyConfig(n_q=8, n_t=6, n_v=8)
        xi0, tau0, boundary = _solve_inputs(corridor, chart, limits)
        polys = corridor.polytopes(polymap)
        kw = dict(pconfig=cfg, model=model, limits=limits, margins=margins,
                  corridor_polys=polys)
        x0 = np.concatenate([chart.join(xi0), tau0])
        f0, _ = chart_objective(chart, 0.0, boundary, x0, **kw)
        trace = []
        rep = solve(chart, 0.0, boundary, xi0, tau0, yaw_plan=None,
                    options=SolveOptions(max_iter=120), trace=trace, **kw)
        assert rep.objective <= f0
        assert rep.traj.t0 == 0.0
        assert np.all(rep.traj.T > 0.0)
        assert {"I0", "I1", "I3"} <= set(rep.parts)
        assert len(trace) == rep.iterations
        # Endpoint interpolation survives the solve.
        assert np.allclose(rep.traj.eval_many(np.array([rep.traj.t0]), 0)[0],
                           corridor.p_start, atol=1e-8)
        assert np.allclose(
            rep.traj.eval_many(np.array([rep.traj.t_end]), 0)[0],
            corridor.p_goal, atol=1e-8)


def _hover_traj(p, t0, dur):
    p = np.asarray(p, dtype=float)
    return minco.construct(t0, [dur], np.zeros((0, 3)),
                           minco.BoundaryState.hover(p),
                           minco.BoundaryState.hover(p))


def _transit_traj(p0, p1, t0, dur):
    return minco.construct(t0, [dur], np.zeros((0, 3)),
                           minco.BoundaryState.hover(np.asarray(p0, float)),
                           minco.BoundaryState.hover(np.asarray(p1, float)))


class TestTemporalSchedule:
    def test_free_curve_is_time_optimal(self, margins):
        curve = pathfind.Path([[0, 0, 5], [40, 0, 5]])
        rng = np.random.default_rng(6)
        prof = temporal_schedule(curve, [], margins, 4.0, 2.0,
                                 t_request=3.0, rng=rng, budget=200)
        assert prof.departure == pytest.approx(3.0)
        assert prof.arrival == pytest.approx(
            3.0 + oracles.trapezoid_time(40.0, 4.0, 2.0), abs=1e-6)
        assert prof.time_at(0.0) == pytest.approx(3.0)
        assert prof.time_at(40.0) == pytest.approx(prof.arrival)
        assert np.all(np.diff(prof.s) >= -1e-9)

    def test_waits_for_crossing_neighbor(self, margins):
        # Neighbor crosses the corridor midpoint and leaves; the schedule
        # must keep weighted distance 2 M_r from it at all window offsets.
        curve = pathfind.Path([[0, 0, 5], [40, 0, 5]])
        nb = _transit_traj([20, 0, 5], [20, 120, 5], 0.0, 14.0)
        rng = np.random.default_rng(7)
        prof = temporal_schedule(curve, [nb], margins, 4.0, 2.0,
                                 t_request=0.0, rng=rng, budget=2500)
        free = oracles.trapezoid_time(40.0, 4.0, 2.0)
        assert prof.arrival > free + 1.0
        ts = np.arange(prof.t[0], prof.t[-1] + 0.05, 0.05)
        ss = np.interp(ts, prof.t, prof.s)
        pos = curve.at(ss)
        offs = np.linspace(-2 * margins.M_d, 2 * margins.M_d, 81)
        grid = (ts[:, None] + offs[None, :]).ravel()
        nbpos = nb.eval_many(grid, 0).reshape(len(ts), -1, 3)
        d = margins.wdist(pos[:, None, :] - nbpos)
        # The conflict grid is discrete; allow sub-resolution dips.
        assert float(d.min()) >= 2.0 * margins.M_r - 0.5

    def test_blocked_goal_times_out(self, margins):
        curve = pathfind.Path([[0, 0, 5], [40, 0, 5]])
        # Hovering at the goal: constant extension never clears it.
        nb = _hover_traj([40, 0, 5], 0.0, 5.0)
        rng = np.random.default_rng(8)
        with pytest.raises(ScheduleTimeout):
            temporal_schedule(curve, [nb], margins, 4.0, 2.0,
                              t_request=0.0, rng=rng, budget=400)

    def test_deterministic(self, margins):
        curve = pathfind.Path([[0, 0, 5], [30, 10, 5], [60, 0, 5]])
        nb = _transit_traj([30, 10, 5], [30, -90, 5], 0.0, 12.0)
        arrivals = []
        for _ in range(2):
            rng = np.random.default_rng(9)
            prof = temporal_schedule(curve, [nb], margins, 5.0, 2.0,
                                     t_request=0.0, rng=rng, budget=1500)
            arrivals.append(prof.arrival)
        assert arrivals[0] == arrivals[1]

    def test_profile_validation(self):
        curve = pathfind.Path([[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            StampedProfile(curve=curve, t=np.array([1.0, 0.5]),
                           s=np.array([0.0, 1.0]),
                           sdot=np.zeros(2), t_request=0.0)
        with pytest.raises(ValueError):
            StampedProfile(curve=curve, t=np.array([0.0, 1.0]),
                           s=np.array([1.0, 0.0]),
                           sdot=np.zeros(2), t_request=0.0)


BIG_BOX = [HalfspacePolytope.from_aabb(
    Aabb(np.full(3, -500.0), np.full(3, 500.0)))]


class TestPostCheck:
    def test_clean_pass(self, model, limits, margins):
        traj = _transit_traj([0, 0, 5], [20, 0, 5], 0.0, 8.0)
        report = post_check(traj, BIG_BOX, [], margins, model, limits)
        assert report["corridor_margin"] > 100.0
        assert report["capsule_margin"] == np.inf
        assert report["limits_norm"] < 0.0

    def test_corridor_violation(self, model, limits, margins):
        traj = _transit_traj([0, 0, 5], [20, 0, 5], 0.0, 8.0)
        tiny = [HalfspacePolytope.from_aabb(
            Aabb(np.array([0, -5, 0.0]), np.array([15, 5, 10.0])))]
        with pytest.raises(PostCheckFailure) as info:
            post_check(traj, tiny, [], margins, model, limits)
        assert "corridor" in info.value.problems
        assert info.value.margins["corridor_margin"] < -1e-3

    def test_limits_violation(self, model, limits, margins):
        traj = _transit_traj([0, 0, 5], [70, 0, 5], 0.0, 3.0)
        with pytest.raises(PostCheckFailure) as info:
            post_check(traj, BIG_BOX, [], margins, model, limits)
        assert "limits" in info.value.problems

    def test_capsule_violation(self, model, limits, margins):
        traj = _transit_traj([0, 0, 5], [20, 0, 5], 0.0, 8.0)
        nb = _transit_traj([20, 0, 5], [0, 0, 5], 0.0, 8.0)
        with pytest.raises(PostCheckFailure) as info:
            post_check(traj, BIG_BOX, [nb], margins, model, limits)
        assert "capsule" in info.value.problems


class TestBlockedEndpoint:
    def test_parked_neighbor_rejects_fast(self, box_map, model, limits,
                                          margins, pconfig):
        # A neighbor flies 44 m west along y = 30 at z = 15; the request flies
        # the same way 4 m north and 5 m lower, so its start and its goal
        # each lie 5.34 m (weighted) from the neighbor's, under 2 M_r = 10 m.
        nb = _transit_traj([52, 30, 15], [8, 30, 15], 0.0, 10.0)
        mission = fleet.Mission(id="m5", p_o=[52, 34, 10], p_f=[8, 34, 10],
                                t_o=0.0)
        t0 = time.perf_counter()
        with pytest.raises(BlockedEndpoint, match=r"5\.339 m .*neighbor 0"):
            plan_mission(box_map, mission, [nb], model=model, limits=limits,
                         margins=margins, pconfig=pconfig,
                         rng=np.random.default_rng(0))
        assert time.perf_counter() - t0 < 1.0


class TestPlanMission:
    @pytest.fixture(scope="class")
    def planned(self, box_map, model, limits, margins, pconfig):
        rng = np.random.default_rng(40)
        db = fleet.FleetDb(box_map, margins)
        m_a = fleet.Mission(id="a", p_o=[10, 30, 15], p_f=[50, 30, 15],
                            t_o=0.0)
        traj_a, rep_a = plan_mission(box_map, m_a, db.trajectories(),
                                     model=model, limits=limits,
                                     margins=margins, pconfig=pconfig,
                                     rng=rng, sched_budget=4000)
        db.commit(m_a.id, traj_a)
        # Transverse crossing at [30, 30, 15] and the same request time, so
        # the capsule check must fire and the scheduler must separate them.
        m_b = fleet.Mission(id="b", p_o=[30, 10, 15], p_f=[30, 50, 15],
                            t_o=0.0)
        traj_b, rep_b = plan_mission(box_map, m_b, db.trajectories(),
                                     model=model, limits=limits,
                                     margins=margins, pconfig=pconfig,
                                     rng=rng, sched_budget=4000)
        db.commit(m_b.id, traj_b)
        return db, (traj_a, rep_a), (traj_b, rep_b)

    def test_first_mission_unscheduled(self, planned):
        _, (traj_a, rep_a), _ = planned
        assert rep_a.status == "planned"
        assert not rep_a.capsule_checked
        assert rep_a.capsule_skipped
        assert not rep_a.scheduled
        assert rep_a.t_start == 0.0
        assert rep_a.post["corridor_margin"] > -1e-3
        assert rep_a.post["limits_norm"] <= 1e-3
        assert np.allclose(traj_a.eval_many(np.array([traj_a.t0]), 0)[0],
                           [10, 30, 15], atol=1e-8)
        assert np.allclose(traj_a.eval_many(np.array([traj_a.t_end]), 0)[0],
                           [50, 30, 15], atol=1e-8)

    def test_crossing_mission_schedules(self, planned, margins):
        _, (traj_a, _), (traj_b, rep_b) = planned
        assert rep_b.capsule_checked
        assert not rep_b.capsule_skipped
        assert rep_b.scheduled
        assert rep_b.post["capsule_margin"] >= -1e-3
        # The pair satisfies the reciprocal-safety audit at fine resolution.
        worst = oracles.brute_pair_margin(traj_a, traj_b, margins,
                                          0.02 * margins.M_d)
        assert worst >= -5e-2

    def test_fleet_audit_passes(self, planned):
        db, _, _ = planned
        rows = db.final_audit()
        assert len(rows) == 1
        assert rows[0][2] >= -1e-3

    def test_parallel_clear_mission_skips_schedule(self, box_map, model,
                                                   limits, margins, pconfig,
                                                   planned):
        db, _, _ = planned
        rng = np.random.default_rng(41)
        m_c = fleet.Mission(id="c", p_o=[10, 10, 25], p_f=[50, 10, 25],
                            t_o=200.0)
        traj_c, rep_c = plan_mission(box_map, m_c, db.trajectories(),
                                     model=model, limits=limits,
                                     margins=margins, pconfig=pconfig,
                                     rng=rng)
        assert rep_c.capsule_checked
        assert rep_c.capsule_skipped
        assert not rep_c.scheduled
        assert traj_c.t0 == 200.0

    def test_cli_check_exit_codes(self, planned, box_map, margins, tmp_path):
        _, (traj_a, _), (traj_b, _) = planned
        polymap = str(tmp_path / "polymap.json")
        io.save_polymap(polymap, box_map)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"margins": {
            "M_r": margins.M_r, "M_d": margins.M_d, "w": margins.w}}))
        # a's route flown backwards over the same interval.
        reverse = _transit_traj([50, 30, 15], [10, 30, 15], traj_a.t0, 10.0)
        paths = {}
        for name, traj in (("a", traj_a), ("b", traj_b), ("rev", reverse)):
            paths[name] = str(tmp_path / f"traj_{name}.json")
            io.save_trajectory(paths[name], traj)

        def check(*files):
            return cli.main(["check", "--config", str(config),
                             "--out", str(tmp_path), "--polymap", polymap,
                             *files])

        assert check(paths["a"], paths["b"]) == cli.EXIT_OK
        assert check(paths["a"], paths["rev"]) == cli.EXIT_AUDIT
        assert check(str(tmp_path / "missing.json")) == cli.EXIT_USAGE
