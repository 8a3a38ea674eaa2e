"""Sampling planner, corridor extraction, refinement, and time allocation."""

import numpy as np
import pytest

import oracles

from swarmplan import geom, pathfind
from swarmplan.errors import CoverageGap, NoPath
from swarmplan.pathfind import (
    Path,
    corridor_from_path,
    informed_rrt_star,
    profile_total_time,
    shortest_path_refine,
    trapezoidal_allocation,
)


class TestPath:
    def test_dedupes_repeated_points(self):
        p = Path([[0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0]])
        assert len(p.waypoints) == 3
        assert p.length == pytest.approx(2.0)

    def test_at_interpolates_and_clamps(self):
        p = Path([[0, 0, 0], [4, 0, 0], [4, 3, 0]])
        assert p.length == pytest.approx(7.0)
        assert np.allclose(p.at(2.0), [2, 0, 0])
        assert np.allclose(p.at(5.0), [4, 1, 0])
        assert np.allclose(p.at(-3.0), [0, 0, 0])
        assert np.allclose(p.at(99.0), [4, 3, 0])
        pts = p.at(np.array([0.0, 4.0, 7.0]))
        assert pts.shape == (3, 3)
        assert np.allclose(pts[1], [4, 0, 0])

    def test_single_point(self):
        p = Path([[2, 2, 2]])
        assert p.length == 0.0
        assert np.allclose(p.at(0.5), [2, 2, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Path(np.zeros((0, 3)))


class TestTimeAllocation:
    def test_total_time_closed_forms(self):
        # Triangular profile: never reaches v_max.
        assert profile_total_time(16.0, 4.0, 1.0) == pytest.approx(8.0)
        # Trapezoidal: accelerate 4 s, cruise 21 s, brake 4 s.
        assert profile_total_time(100.0, 4.0, 1.0) == pytest.approx(29.0)
        assert profile_total_time(0.0, 4.0, 1.0) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            d = float(rng.uniform(0.1, 300.0))
            v = float(rng.uniform(0.5, 15.0))
            a = float(rng.uniform(0.2, 8.0))
            assert profile_total_time(d, v, a) == pytest.approx(
                oracles.trapezoid_time(d, v, a), rel=1e-12)

    def test_allocation_sums_to_profile(self):
        wp = np.array([[0, 0, 0], [30, 0, 0], [30, 40, 0], [60, 40, 10]],
                      dtype=float)
        T = trapezoidal_allocation(wp, 4.0, 1.0)
        assert T.shape == (3,)
        assert np.all(T > 0.0)
        total = np.sum(np.linalg.norm(np.diff(wp, axis=0), axis=1))
        assert T.sum() == pytest.approx(
            oracles.trapezoid_time(total, 4.0, 1.0), rel=1e-9)

    def test_allocation_floor(self):
        wp = np.array([[0, 0, 0], [1e-5, 0, 0], [50, 0, 0]])
        T = trapezoidal_allocation(wp, 10.0, 5.0)
        assert T[0] >= pathfind.MIN_LEG_DURATION

    def test_allocation_validation(self):
        with pytest.raises(ValueError):
            trapezoidal_allocation(np.zeros((1, 3)), 1.0, 1.0)
        with pytest.raises(ValueError):
            trapezoidal_allocation(np.zeros((2, 3)), 0.0, 1.0)


def _inside_union(polymap, pts):
    return bool(np.all(polymap.union_mask(np.asarray(pts))))


class TestInformedSample:
    def test_samples_lie_in_spheroid(self):
        rng = np.random.default_rng(12)
        # Random foci, plus foci along +e1 and -e1 (the rotation's special
        # cases).
        x0 = np.array([5.0, 2.0, -1.0])
        foci = [(x0, x0 + [20.0, 0.0, 0.0]), (x0, x0 - [20.0, 0.0, 0.0])]
        foci += [tuple(rng.uniform(-50, 50, size=(2, 3))) for _ in range(40)]
        for p_start, p_goal in foci:
            c_min = float(np.linalg.norm(p_goal - p_start))
            c_best = c_min * float(rng.choice([1.0, rng.uniform(1.0, 3.0)]))
            frame = pathfind._informed_frame(p_start, p_goal, c_min)
            for _ in range(50):
                x = pathfind._informed_sample(rng, frame, c_best, c_min)
                dist = np.linalg.norm(x - p_start) + np.linalg.norm(x - p_goal)
                assert dist <= c_best + 1e-9


class TestRrtStar:
    def test_trivial_straight_line(self, box_map):
        rng = np.random.default_rng(1)
        path = informed_rrt_star(box_map, [5, 5, 5], [55, 55, 25], rng)
        assert len(path.waypoints) == 2
        assert path.length == pytest.approx(np.linalg.norm(
            np.array([50.0, 50.0, 20.0])))

    def test_pillars_path_stays_inside(self, pillar_map):
        rng = np.random.default_rng(2)
        path = informed_rrt_star(pillar_map, [5, 5, 10], [95, 95, 10], rng,
                                 step=5.0, budget=2500, informed_budget=500)
        assert np.allclose(path.waypoints[0], [5, 5, 10])
        assert np.allclose(path.waypoints[-1], [95, 95, 10])
        assert path.length >= np.linalg.norm(np.array([90.0, 90.0, 0.0])) - 1e-9
        samples = path.at(np.linspace(0.0, path.length, 400))
        assert _inside_union(pillar_map, samples)

    def test_through_gap(self, gap_map):
        rng = np.random.default_rng(3)
        path = informed_rrt_star(gap_map, [20, 80, 15], [180, 80, 15], rng,
                                 step=5.0, budget=3500, informed_budget=800)
        samples = path.at(np.linspace(0.0, path.length, 600))
        assert _inside_union(gap_map, samples)
        # Every crossing of the wall slab must happen inside the window.
        in_wall = (samples[:, 0] > 96.0) & (samples[:, 0] < 104.0)
        assert np.all(samples[in_wall, 1] > 70.0)
        assert np.all(samples[in_wall, 1] < 90.0)

    def test_uncovered_endpoints_raise(self, gap_map):
        rng = np.random.default_rng(4)
        with pytest.raises(NoPath):
            informed_rrt_star(gap_map, [100, 20, 15], [180, 80, 15], rng)
        with pytest.raises(NoPath):
            informed_rrt_star(gap_map, [20, 80, 15], [100, 20, 15], rng)

    def test_deterministic_under_seed(self, pillar_map):
        paths = []
        for _ in range(2):
            rng = np.random.default_rng(6)
            paths.append(informed_rrt_star(
                pillar_map, [5, 5, 10], [60, 80, 10], rng,
                step=5.0, budget=1200, informed_budget=300))
        assert np.array_equal(paths[0].waypoints, paths[1].waypoints)

    def test_zero_length_query(self, box_map):
        rng = np.random.default_rng(7)
        path = informed_rrt_star(box_map, [10, 10, 10], [10, 10, 10], rng)
        assert path.length == 0.0


@pytest.fixture(scope="module")
def pillar_corridor(pillar_map):
    rng = np.random.default_rng(8)
    path = informed_rrt_star(pillar_map, [5, 5, 10], [95, 95, 10], rng,
                             step=5.0, budget=2500, informed_budget=500)
    return path, corridor_from_path(pillar_map, path)


class TestCorridor:
    def test_endpoints_covered(self, pillar_map, pillar_corridor):
        path, corr = pillar_corridor
        polys = corr.polytopes(pillar_map)
        assert polys[0].contains(corr.p_start, slack=1e-9)
        assert polys[-1].contains(corr.p_goal, slack=1e-9)

    def test_switch_points_in_both_neighbors(self, pillar_map, pillar_corridor):
        _, corr = pillar_corridor
        assert len(corr.switch_points) == len(corr.ids) - 1
        polys = corr.polytopes(pillar_map)
        for k, sp in enumerate(corr.switch_points):
            assert polys[k].contains(sp, slack=1e-6)
            assert polys[k + 1].contains(sp, slack=1e-6)

    def test_path_covered_in_order(self, pillar_map, pillar_corridor):
        path, corr = pillar_corridor
        polys = corr.polytopes(pillar_map)
        ls = np.linspace(0.0, path.length, 500)
        pts = path.at(ls)
        k = 0
        for p in pts:
            while k < len(polys) and not polys[k].contains(p, slack=1e-6):
                k += 1
            assert k < len(polys), "path point escapes the corridor sequence"

    def test_no_consecutive_duplicates(self, pillar_corridor):
        _, corr = pillar_corridor
        assert all(a != b for a, b in zip(corr.ids, corr.ids[1:]))

    def test_gap_in_cover_raises(self, gap_map):
        # A straight chord through the solid wall leaves every polytope.
        path = Path([[20.0, 20.0, 15.0], [180.0, 20.0, 15.0]])
        with pytest.raises(CoverageGap):
            corridor_from_path(gap_map, path)


class TestRefine:
    def test_never_longer_than_guide(self, pillar_map):
        rng = np.random.default_rng(9)
        done = 0
        while done < 10:
            a = rng.uniform([5, 5, 5], [95, 95, 35])
            b = rng.uniform([5, 5, 5], [95, 95, 35])
            if not (pillar_map.contains_union(a) and pillar_map.contains_union(b)):
                continue
            try:
                path = informed_rrt_star(pillar_map, a, b, rng, step=5.0,
                                         budget=1200, informed_budget=300)
                corr = corridor_from_path(pillar_map, path)
            except (NoPath, CoverageGap):
                continue
            q = shortest_path_refine(pillar_map, corr)

            def chain(pts):
                full = np.vstack([corr.p_start,
                                  pts.reshape(-1, 3), corr.p_goal])
                return float(np.sum(np.linalg.norm(np.diff(full, axis=0),
                                                   axis=1)))

            assert chain(q) <= chain(corr.switch_points) + 1e-9
            assert chain(q) <= path.length + 1e-9
            # Junctions must stay in both adjacent polytopes.
            polys = corr.polytopes(pillar_map)
            for k, pt in enumerate(np.asarray(q).reshape(-1, 3)):
                assert polys[k].contains(pt, slack=1e-6)
                assert polys[k + 1].contains(pt, slack=1e-6)
            done += 1

    def test_single_polytope_corridor(self, box_map):
        rng = np.random.default_rng(10)
        path = informed_rrt_star(box_map, [10, 10, 10], [20, 20, 20], rng)
        corr = corridor_from_path(box_map, path)
        if len(corr.ids) == 1:
            q = shortest_path_refine(box_map, corr)
            assert q.shape == (0, 3)
