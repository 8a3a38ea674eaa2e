"""Chart parameterization, penalized solve, scheduling, and the mission
pipeline."""

import json
import time

import numpy as np
import pytest

import oracles
from conftest import random_trajectory

from swarmplan import (cli, fleet, io, minco, optimize, pathfind, penalty,
                       solver)
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
from swarmplan.penalty import PenaltyConfig


@pytest.fixture(scope="module")
def pillar_setup(pillar_map):
    path, corridor = pathfind.corridor_search(pillar_map, [5, 5, 10],
                                              [95, 95, 10])
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
        rep = solve(chart, 0.0, boundary, xi0, tau0,
                    options=SolveOptions(max_iter=120), **kw)
        assert rep.objective <= f0
        assert rep.traj.t0 == 0.0
        assert np.all(rep.traj.T > 0.0)
        assert {"I0", "I1", "I3"} <= set(rep.parts)
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
        prof = temporal_schedule(curve, [], margins, 4.0, 2.0, t_request=3.0)
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
        prof = temporal_schedule(curve, [nb], margins, 4.0, 2.0,
                                 t_request=0.0)
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
        with pytest.raises(ScheduleTimeout):
            temporal_schedule(curve, [nb], margins, 4.0, 2.0, t_request=0.0)

    def test_deterministic(self, margins):
        curve = pathfind.Path([[0, 0, 5], [30, 10, 5], [60, 0, 5]])
        nb = _transit_traj([30, 10, 5], [30, -90, 5], 0.0, 12.0)
        first, second = (temporal_schedule(curve, [nb], margins, 5.0, 2.0,
                                           t_request=0.0) for _ in range(2))
        assert first.counts["layers"] > 0
        for key in ("t", "s", "sdot"):
            assert np.array_equal(getattr(first, key), getattr(second, key))

    def test_neighbor_parked_on_curve_is_not_skipped(self, margins):
        # The neighbor ends its flight mid-way on the curve and stays there:
        # the mission can never pass, however late.
        curve = pathfind.Path([[0, 0, 5], [40, 0, 5]])
        nb = _transit_traj([20, -60, 5], [20, 0, 5], 0.0, 8.0)
        with pytest.raises(ScheduleTimeout, match=r"neighbor 0$") as info:
            temporal_schedule(curve, [nb], margins, 4.0, 2.0, t_request=0.0)
        counts = info.value.counts
        assert 0 < counts["layers"] and 0 < counts["blocked"]
        assert counts["cells"] >= counts["layers"]

    def test_neighbor_parked_on_curve_until_departure(self, margins):
        # The neighbor waits mid-way on the curve until t = 20, then leaves:
        # the schedule keeps 2 M_r from it while it is parked there.
        curve = pathfind.Path([[0, 0, 5], [40, 0, 5]])
        nb = _transit_traj([20, 0, 5], [20, -60, 5], 20.0, 8.0)
        prof = temporal_schedule(curve, [nb], margins, 4.0, 2.0,
                                 t_request=0.0)
        ts = np.arange(prof.t[0], prof.t[-1] + 0.05, 0.05)
        pos = curve.at(np.interp(ts, prof.t, prof.s))
        offs = np.linspace(-2 * margins.M_d, 2 * margins.M_d, 81)
        nbpos = nb.eval_many((ts[:, None] + offs[None, :]).ravel(),
                             0).reshape(len(ts), -1, 3)
        d = margins.wdist(pos[:, None, :] - nbpos)
        assert float(d.min()) >= 2.0 * margins.M_r - 0.5

    def test_reverse_flight_from_parked_goal_fails_fast(self, margins):
        # The mission flies neighbor 0's line backwards, from the goal where
        # the neighbor will park, as the five-request star's m5 does: it
        # meets the neighbor head-on or waits until the neighbor parks on it.
        nb = _transit_traj([52, 30, 15], [8, 30, 15], 0.0, 10.0)
        curve = pathfind.Path([[8, 30, 15], [52, 30, 15]])
        with pytest.raises(ScheduleTimeout, match=r"neighbor 0$") as info:
            temporal_schedule(curve, [nb], margins, 12.35, 3.57,
                              t_request=0.0)
        # From t_end + 2 M_d = 14 s, 140 layers of 0.1 s, every window sees
        # the neighbor parked on the start, and nothing got past it.
        assert info.value.counts["layers"] <= 140

    @pytest.mark.parametrize("seed", range(12))
    def test_random_crossings_give_feasible_profiles(self, margins, seed):
        # A 60-90 m curve of 1-3 segments that turn by up to 45 degrees, and
        # 1-2 neighbors that cross it square, mid-way, at random times and
        # park 60 m to the side: a schedule always exists.
        rng = np.random.default_rng(seed)
        n_seg = rng.integers(1, 4)
        heading = (np.cumsum(rng.uniform(-np.pi / 4, np.pi / 4, n_seg))
                   + rng.uniform(0.0, 2.0 * np.pi))
        legs = rng.uniform(60.0, 90.0) / n_seg * np.column_stack(
            [np.cos(heading), np.sin(heading), rng.uniform(-0.1, 0.1, n_seg)])
        curve = pathfind.Path(np.cumsum(np.vstack([[0.0, 0.0, 20.0], legs]),
                                        axis=0))
        neighbors = []
        for _ in range(rng.integers(1, 3)):
            s = rng.uniform(0.4, 0.6) * curve.length
            tangent = curve.at(s + 1e-3) - curve.at(s - 1e-3)
            side = (np.array([-tangent[1], tangent[0], 0.0])
                    / np.hypot(*tangent[:2]) * rng.choice([-1.0, 1.0]))
            neighbors.append(_transit_traj(
                curve.at(s) - 60.0 * side, curve.at(s) + 60.0 * side,
                rng.uniform(-5.0, 5.0), rng.uniform(8.0, 14.0)))
        v_max, a_max = rng.uniform(5.0, 12.0), rng.uniform(1.5, 3.5)
        prof = temporal_schedule(curve, neighbors, margins, v_max, a_max,
                                 t_request=1.0)
        assert (prof.t[0], prof.s[0], prof.sdot[0]) == (1.0, 0.0, 0.0)
        assert prof.s[-1] == pytest.approx(curve.length, abs=1e-9)
        assert prof.sdot[-1] == 0.0
        assert np.all(prof.sdot >= 0.0) and np.all(prof.sdot <= v_max)
        assert np.all(np.abs(np.diff(prof.sdot))
                      <= a_max * np.diff(prof.t) + 1e-9)
        assert np.all(np.diff(prof.s) >= 0.0)
        assert prof.arrival >= 1.0 + oracles.trapezoid_time(
            curve.length, v_max, a_max) - 1e-9
        offsets = penalty._closed_grid(-2 * margins.M_d, 2 * margins.M_d,
                                       0.05 * margins.M_d)
        for nb in neighbors:
            d2 = penalty._window_sq_dists(curve.at(prof.s), prof.t, nb,
                                          offsets, margins)
            assert float(d2.min()) >= (2.0 * margins.M_r) ** 2

    @pytest.mark.parametrize("N, J", [(6, 5), (10, 2), (40, 7)])
    def test_lattice_step_equals_row_loop(self, N, J):
        # Random reach sets of every density, the j = 0 and j = J rows
        # always set in some, and N = 6 < 2 J: rows whose shift passes N.
        rng = np.random.default_rng([N, J])
        for density in (0.05, 0.3, 0.9):
            for _ in range(10):
                prev = rng.random((J + 1, N + 1)) < density
                prev[[0, J], rng.integers(0, N + 1, 2)] = True
                assert np.array_equal(optimize._lattice_step(prev, N, J),
                                      oracles.lattice_step(prev, N, J))

    @pytest.mark.parametrize("seed", range(30))
    def test_schedule_equals_per_layer_oracle(self, margins, seed):
        # A 30-60 m curve of 1-2 segments and 1-3 neighbors crossing it at
        # random times, some ending on it or leaving from near it, at dt =
        # M_d / 20, as plan_mission schedules, or M_d / 10 or M_d / 8: where
        # 2 M_d / dt is a whole number the windowed map gives the per-layer
        # blocked test's profile and counts, or its ScheduleTimeout message
        # and counts.
        rng = np.random.default_rng([25, seed])
        n_seg = rng.integers(1, 3)
        heading = (np.cumsum(rng.uniform(-np.pi / 4, np.pi / 4, n_seg))
                   + rng.uniform(0.0, 2.0 * np.pi))
        legs = rng.uniform(30.0, 60.0) / n_seg * np.column_stack(
            [np.cos(heading), np.sin(heading), rng.uniform(-0.1, 0.1, n_seg)])
        curve = pathfind.Path(np.cumsum(np.vstack([[0.0, 0.0, 20.0], legs]),
                                        axis=0))
        neighbors = []
        for _ in range(rng.integers(1, 4)):
            p = curve.at(rng.uniform(0.2, 0.9) * curve.length)
            side = rng.normal(size=3) * [1.0, 1.0, 0.1]
            side *= rng.uniform(20.0, 40.0) / np.linalg.norm(side)
            # Crossing, ending on the curve, or leaving from near it.
            ends = [(p - side, p + side), (p - side, p),
                    (p + 0.1 * side, p + side)][rng.integers(0, 3)]
            neighbors.append(_transit_traj(*ends, rng.uniform(-3.0, 6.0),
                                           rng.uniform(5.0, 12.0)))
        v_max, a_max = rng.uniform(5.0, 12.0), rng.uniform(1.5, 3.5)
        dt = [None, 0.2, 0.25][seed % 3]
        args = (curve, neighbors, margins, v_max, a_max)
        try:
            want = oracles.temporal_schedule(*args, t_request=0.5, dt=dt)
        except ScheduleTimeout as exc:
            with pytest.raises(ScheduleTimeout) as info:
                temporal_schedule(*args, t_request=0.5, dt=dt)
            assert str(info.value) == str(exc)
            assert info.value.counts == exc.counts
            return
        got = temporal_schedule(*args, t_request=0.5, dt=dt)
        for key in ("t", "s", "sdot"):
            assert np.array_equal(getattr(got, key), getattr(want, key))
        assert got.counts == want.counts

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.inf, np.nan])
    def test_bad_step_rejected(self, margins, dt):
        curve = pathfind.Path([[0, 0, 5], [40, 0, 5]])
        with pytest.raises(ValueError, match="dt"):
            temporal_schedule(curve, [], margins, 4.0, 2.0, t_request=0.0,
                              dt=dt)

    def test_window_of_layer_samples_at_uneven_step(self, margins):
        # At dt = 0.07, 2 M_d / dt = 57.1 is not a whole number: the window
        # is the K = 58 layer samples on each side, 4.06 s, not 4 s.
        dt = 0.07
        K = int(np.ceil(2.0 * margins.M_d / dt))
        assert K == 58
        curve = pathfind.Path([[0, 0, 5], [40, 0, 5]])
        nb = _transit_traj([20, -40, 5], [20, 40, 5], 1.0, 10.0)
        prof = temporal_schedule(curve, [nb], margins, 4.0, 2.0,
                                 t_request=0.0, dt=dt)
        assert prof.counts["layers"] > 0
        d2 = penalty._window_sq_dists(curve.at(prof.s), prof.t, nb,
                                      dt * np.arange(-K, K + 1), margins)
        assert float(d2.min()) >= (2.0 * margins.M_r) ** 2

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


PASSED = {"corridor_margin": 1.0, "capsule_margin": 1.0, "limits_norm": -1.0}


def _force_post_failures(monkeypatch, problems, timeout_on=None):
    """Make optimize.post_check fail once per entry of problems, with that
    entry as the problem names and a 0.2 m capsule dip, then pass with
    PASSED.  solve and temporal_schedule still run, wrapped to log what
    plan_mission hands them; temporal_schedule raises ScheduleTimeout on its
    timeout_on-th call instead."""
    log = {"solve": [], "schedule": [], "raised": []}
    todo = list(problems)
    real_solve, real_schedule = optimize.solve, optimize.temporal_schedule

    def post_check(*args, **kwargs):
        if not todo:
            return dict(PASSED)
        exc = PostCheckFailure("forced", problems=todo.pop(0),
                               margins={"capsule_margin": -0.2})
        log["raised"].append(exc)
        raise exc

    def solve(chart, t0, boundary, xi0, tau0, **kw):
        rep = real_solve(chart, t0, boundary, xi0, tau0, **kw)
        log["solve"].append(dict(
            n_q=kw["pconfig"].n_q, max_iter=kw["options"].max_iter,
            mu_rounds=kw["options"].mu_rounds, M_r=kw["margins"].M_r,
            tau0=np.array(tau0), tau=np.array(rep.tau)))
        return rep

    def temporal_schedule(curve, neighbors, margins, v_max, a_max, *args,
                          **kw):
        log["schedule"].append((v_max, a_max))
        if len(log["schedule"]) == timeout_on:
            raise ScheduleTimeout("forced")
        return real_schedule(curve, neighbors, margins, v_max, a_max, *args,
                             **kw)

    monkeypatch.setattr(optimize, "post_check", post_check)
    monkeypatch.setattr(optimize, "solve", solve)
    monkeypatch.setattr(optimize, "temporal_schedule", temporal_schedule)
    return log


def _solve_budgets(log):
    return [(s["n_q"], s["max_iter"], s["mu_rounds"]) for s in log["solve"]]


def _rounds(report):
    return {a["round"] for a in report.attempts}


# (n_q, max_iter, mu_rounds) of a first solve and of the dense retry at the
# default PenaltyConfig and SolveOptions.
BASE, RUNG1 = (16, 500, 1), (32, 1000, 2)


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
                                     rng=rng)
        db.commit(m_a.id, traj_a)
        # Transverse crossing at [30, 30, 15] and the same request time, so
        # the capsule check must fire and the scheduler must separate them.
        m_b = fleet.Mission(id="b", p_o=[30, 10, 15], p_f=[30, 50, 15],
                            t_o=0.0)
        traj_b, rep_b = plan_mission(box_map, m_b, db.trajectories(),
                                     model=model, limits=limits,
                                     margins=margins, pconfig=pconfig,
                                     rng=rng)
        db.commit(m_b.id, traj_b)
        return db, (traj_a, rep_a), (traj_b, rep_b)

    def test_first_mission_unscheduled(self, planned):
        _, (traj_a, rep_a), _ = planned
        assert rep_a.status == "planned"
        assert not rep_a.scheduled
        assert _rounds(rep_a) == {None}
        assert rep_a.attempts[-1]["outcome"] == "passed"
        assert rep_a.t_start == 0.0
        assert rep_a.post["corridor_margin"] > -1e-3
        assert rep_a.post["limits_norm"] <= 1e-3
        assert np.allclose(traj_a.eval_many(np.array([traj_a.t0]), 0)[0],
                           [10, 30, 15], atol=1e-8)
        assert np.allclose(traj_a.eval_many(np.array([traj_a.t_end]), 0)[0],
                           [50, 30, 15], atol=1e-8)

    def test_crossing_mission_schedules(self, planned, margins):
        _, (traj_a, _), (traj_b, rep_b) = planned
        assert rep_b.scheduled
        assert rep_b.attempts[0]["round"] == 0
        assert rep_b.attempts[-1]["outcome"] == "passed"
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

    def test_obstructed_plan_ignores_rng(self, pillar_map, model, limits,
                                         margins, pconfig):
        # No line of sight: the corridor comes from the junction graph.
        mission = fleet.Mission(id="p", p_o=[15, 87, 16], p_f=[18, 29, 29],
                                t_o=0.0)
        trajs = [plan_mission(pillar_map, mission, [], model=model,
                              limits=limits, margins=margins,
                              pconfig=pconfig,
                              rng=np.random.default_rng(seed))[0]
                 for seed in (1, 2)]
        assert np.array_equal(trajs[0].T, trajs[1].T)
        assert np.array_equal(trajs[0].coeffs, trajs[1].coeffs)

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
        assert not rep_c.scheduled
        assert _rounds(rep_c) == {None}
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

    def test_cli_profile_hover_endpoints(self, model, tmp_path):
        transit = _transit_traj([10, 30, 15], [40, 30, 20], 0.0, 8.0)
        path = str(tmp_path / "traj_transit.json")
        io.save_trajectory(path, transit)
        assert cli.main(["profile", "--out", str(tmp_path), "--traj",
                         path]) == cli.EXIT_OK
        header, *rows = (tmp_path / "profile.csv").read_text().splitlines()
        assert header == "t,speed,tilt_deg,omega_norm,thrust_norm,drag_norm"
        assert len(rows) == 801
        for row in (rows[0], rows[-1]):
            _, speed, tilt, _, thrust, _ = map(float, row.split(","))
            assert speed < 1e-9
            assert tilt < 1e-6
            assert thrust == pytest.approx(model.g, abs=1e-9)

    def test_cli_planning_failure_exit_code(self, tmp_path):
        # A straight-down drop of 20 m in 2 s accelerates downward at up to
        # 2.9 g, which no thrust can produce: the flatness map inverts.
        drop = _transit_traj([30, 30, 25], [30, 30, 5], 0.0, 2.0)
        path = str(tmp_path / "traj_drop.json")
        io.save_trajectory(path, drop)
        assert cli.main(["profile", "--out", str(tmp_path), "--traj",
                         path]) == cli.EXIT_PLANNING
        assert not (tmp_path / "profile.csv").exists()

    def test_cli_fleet_records_attempts(self, box_map, margins, tmp_path):
        polymap = str(tmp_path / "polymap.json")
        io.save_polymap(polymap, box_map)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"margins": {
            "M_r": margins.M_r, "M_d": margins.M_d, "w": margins.w}}))
        # "twin" starts where "a" starts, so it is rejected before planning.
        missions = tmp_path / "missions.csv"
        missions.write_text("id,t_o,ox,oy,oz,fx,fy,fz\n"
                            "a,0,10,30,15,50,30,15\n"
                            "twin,0,10,30,15,30,50,15\n")
        assert cli.main(["fleet", "--config", str(config), "--out",
                         str(tmp_path), "--polymap", polymap, "--missions",
                         str(missions)]) == cli.EXIT_OK
        a, twin = json.loads((tmp_path / "fleet.json").read_text())[
            "missions"]
        assert a["status"] == fleet.COMMITTED
        assert {t["round"] for t in a["attempts"]} == {None}
        assert a["attempts"][-1]["outcome"] == "passed"
        assert twin["status"] == fleet.FAILED
        assert twin["error"].startswith("BlockedEndpoint")
        assert twin["attempts"] == []

    def test_cli_fleet_records_schedule_counts(self, box_map, margins,
                                               tmp_path):
        # Two 44 m crossings through [30, 30, 15] at 45 degrees, requested
        # together: the second waits in the scheduler for the first to pass.
        polymap = str(tmp_path / "polymap.json")
        io.save_polymap(polymap, box_map)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"margins": {
            "M_r": margins.M_r, "M_d": margins.M_d, "w": margins.w}}))
        missions = tmp_path / "missions.csv"
        missions.write_text("id,t_o,ox,oy,oz,fx,fy,fz\n"
                            "m1,0,52,30,15,8,30,15\n"
                            "m2,0,45.556,45.556,15,14.444,14.444,15\n")
        assert cli.main(["fleet", "--config", str(config), "--out",
                         str(tmp_path), "--polymap", polymap, "--missions",
                         str(missions)]) == cli.EXIT_OK
        m1, m2 = json.loads((tmp_path / "fleet.json").read_text())[
            "missions"]
        assert m2["status"] == fleet.COMMITTED and m2["scheduled"]
        first = m2["attempts"][0]
        assert first["round"] == 0
        assert first["layers"] > 0 and first["blocked"] > 0
        assert first["cells"] >= first["layers"]
        assert "layers" not in m1["attempts"][0]

    def test_attempt_records(self, box_map, model, limits, margins, pconfig,
                             monkeypatch):
        _force_post_failures(monkeypatch, [("capsule",)])
        m_a = fleet.Mission(id="a", p_o=[10, 30, 15], p_f=[50, 30, 15],
                            t_o=0.0)
        kw = dict(model=model, limits=limits, margins=margins,
                  pconfig=pconfig)
        _, rep = plan_mission(box_map, m_a, [], rng=np.random.default_rng(40),
                              **kw)
        assert rep.attempts == [
            {"round": None, "quadrature": 1, "outcome": ["capsule"]},
            {"round": None, "quadrature": 2, "outcome": "passed"}]
        _force_post_failures(monkeypatch, [("capsule", "limits")] * 2)
        with pytest.raises(PostCheckFailure) as info:
            plan_mission(box_map, m_a, [], rng=np.random.default_rng(40),
                         **kw)
        assert info.value.attempts == [
            {"round": None, "quadrature": q, "outcome": ["capsule", "limits"]}
            for q in (1, 2)]

    def test_schedule_timeout_in_round_0_propagates(
            self, box_map, planned, model, limits, margins, pconfig,
            monkeypatch):
        log = _force_post_failures(monkeypatch, [], timeout_on=1)
        with pytest.raises(ScheduleTimeout) as info:
            self._plan_b(box_map, planned, model, limits, margins, pconfig)
        assert log["raised"] == [] and len(log["solve"]) == 1
        assert info.value.attempts == [
            {"round": 0, "quadrature": 1, "outcome": "ScheduleTimeout"}]

    def test_spatial_retries(self, box_map, model, limits, margins, pconfig,
                             monkeypatch):
        # A capsule dip of 0.2 m thickens the penalized M_r (5.1) by
        # 0.5 * 0.2 + 0.05 for the dense retry, which starts from the
        # failed solve.
        log = _force_post_failures(monkeypatch, [("capsule",)])
        m_a = fleet.Mission(id="a", p_o=[10, 30, 15], p_f=[50, 30, 15],
                            t_o=0.0)
        _, rep = plan_mission(box_map, m_a, [], model=model, limits=limits,
                              margins=margins, pconfig=pconfig,
                              rng=np.random.default_rng(40))
        assert not rep.scheduled
        assert rep.post == PASSED
        assert log["schedule"] == []
        assert _solve_budgets(log) == [BASE, RUNG1]
        assert [s["M_r"] for s in log["solve"]] == pytest.approx([5.1, 5.25])
        first, rung1 = log["solve"]
        assert np.array_equal(rung1["tau0"], first["tau"])

    def _plan_b(self, box_map, planned, model, limits, margins, pconfig):
        _, (traj_a, _), _ = planned
        m_b = fleet.Mission(id="b", p_o=[30, 10, 15], p_f=[30, 50, 15],
                            t_o=0.0)
        return plan_mission(box_map, m_b, [traj_a], model=model,
                            limits=limits, margins=margins, pconfig=pconfig,
                            rng=np.random.default_rng(42))

    @pytest.mark.parametrize("problem", ["corridor", "limits"])
    def test_scheduled_corridor_failure_raises_after_round_0(
            self, box_map, planned, model, limits, margins, pconfig,
            monkeypatch, problem):
        log = _force_post_failures(monkeypatch, [(problem,)] * 2)
        with pytest.raises(PostCheckFailure) as info:
            self._plan_b(box_map, planned, model, limits, margins, pconfig)
        assert info.value is log["raised"][-1]
        assert len(log["raised"]) == 2
        assert len(log["schedule"]) == 1
        assert _solve_budgets(log) == [BASE, BASE, RUNG1]

    @pytest.mark.xfail(strict=True, reason=(
        "solve stops at 1e-5 of the first gradient's inf-norm, which the "
        "1e5-weighted penalties dominate, so where the joint solve stops "
        "along the jerk-versus-time valley depends on rounding"))
    def test_joint_solve_stable_under_rounding(
            self, box_map, planned, model, limits, margins, pconfig,
            monkeypatch):
        # Scale every solver start of mission b's plan by 1 + eps; a is
        # planned unscaled.  Each b must still commit, within 5% of the
        # unscaled arrival (38.6 s).
        _, _, (traj_b, _) = planned
        real_minimize = solver.minimize
        t_end = {}
        for eps in (-1e-13, -5e-13, 1e-12, 2e-12):
            monkeypatch.setattr(
                solver, "minimize",
                lambda fun, x0, eps=eps, **kw: real_minimize(
                    fun, x0 * (1.0 + eps), **kw))
            try:
                traj, _ = self._plan_b(box_map, planned, model, limits,
                                       margins, pconfig)
                t_end[eps] = traj.t_end
            except PostCheckFailure:
                t_end[eps] = None
        assert all(t is not None and abs(t - traj_b.t_end)
                   <= 0.05 * traj_b.t_end for t in t_end.values()), t_end
