"""Junction-graph search, corridor extraction, refinement, and time
allocation."""

import time

import numpy as np
import pytest

import oracles

from swarmplan import geom, pathfind
from swarmplan.errors import CoverageGap, NoPath
from swarmplan.geom import Aabb, HalfspacePolytope
from swarmplan.optimize import chart_build
from swarmplan.pathfind import (
    Path,
    corridor_from_path,
    corridor_search,
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


def _u_cover():
    """Three boxes in a U: along y < 4, up x > 6 and back along y > 16."""
    boxes = [Aabb([0, 0, 0], [10, 4, 4]), Aabb([6, 0, 0], [10, 20, 4]),
             Aabb([0, 16, 0], [10, 20, 4])]
    return geom.PolyMap([HalfspacePolytope.from_aabb(b) for b in boxes],
                        1e-2, Aabb([0, 0, 0], [10, 20, 4]))


class TestCorridorSearch:
    def test_trivial_straight_line(self, box_map):
        path, corr = corridor_search(box_map, [5, 5, 5], [55, 55, 25])
        assert len(path.waypoints) == 2
        assert path.length == pytest.approx(np.linalg.norm(
            np.array([50.0, 50.0, 20.0])))
        assert len(corr.switch_points) == len(corr.ids) - 1

    def test_pillars_path_stays_inside(self, pillar_map):
        path, _ = corridor_search(pillar_map, [5, 5, 10], [95, 95, 10])
        assert np.allclose(path.waypoints[0], [5, 5, 10])
        assert np.allclose(path.waypoints[-1], [95, 95, 10])
        assert path.length >= np.linalg.norm(np.array([90.0, 90.0, 0.0])) - 1e-9
        samples = path.at(np.linspace(0.0, path.length, 400))
        assert _inside_union(pillar_map, samples)

    def test_through_gap(self, gap_map):
        path, _ = corridor_search(gap_map, [20, 80, 15], [180, 80, 15])
        samples = path.at(np.linspace(0.0, path.length, 600))
        assert _inside_union(gap_map, samples)
        # Every crossing of the wall slab must happen inside the window.
        in_wall = (samples[:, 0] > 96.0) & (samples[:, 0] < 104.0)
        assert np.all(samples[in_wall, 1] > 70.0)
        assert np.all(samples[in_wall, 1] < 90.0)

    def test_shortest_on_junction_graph(self):
        cover = _u_cover()
        p_start, p_goal = np.array([1.0, 2.0, 2.0]), np.array([1.0, 18.0, 2.0])
        path, corr = corridor_search(cover, p_start, p_goal)
        assert corr.ids == [0, 1, 2]
        junction_pts, junction_owners = pathfind.junction_graph(cover)
        points = np.vstack([p_start, p_goal, junction_pts])
        owners = [geom.stab_all(cover, p_start),
                  geom.stab_all(cover, p_goal)] + list(junction_owners)
        assert path.length == pytest.approx(
            oracles.clique_graph_distance(points, owners, 0, 1), rel=1e-12)

    def test_uncovered_endpoints_raise(self, gap_map):
        with pytest.raises(NoPath, match="start"):
            corridor_search(gap_map, [100, 20, 15], [180, 80, 15])
        with pytest.raises(NoPath, match="goal"):
            corridor_search(gap_map, [20, 80, 15], [100, 20, 15])

    def test_disconnected_cover_raises_fast(self):
        cover = geom.PolyMap(
            [HalfspacePolytope.from_aabb(Aabb([0, 0, 0], [4, 4, 4])),
             HalfspacePolytope.from_aabb(Aabb([6, 0, 0], [10, 4, 4]))],
            1e-2, Aabb([0, 0, 0], [10, 4, 4]))
        t0 = time.perf_counter()
        with pytest.raises(NoPath, match=r"polytopes \[0\].*polytopes \[1\]"):
            corridor_search(cover, [2, 2, 2], [8, 2, 2])
        assert time.perf_counter() - t0 < 0.1

    def test_deterministic(self, pillar_map):
        # A second search on a fresh copy of the cover builds its own graph.
        fresh = geom.PolyMap(pillar_map.polytopes, pillar_map.epsilon,
                             pillar_map.bounds, pillar_map.boxes)
        runs = [corridor_search(m, [5, 5, 10], [60, 80, 10])
                for m in (pillar_map, fresh)]
        assert runs[0][1].ids == runs[1][1].ids
        assert np.array_equal(runs[0][0].waypoints, runs[1][0].waypoints)

    def test_zero_length_query(self, box_map):
        path, corr = corridor_search(box_map, [10, 10, 10], [10, 10, 10])
        assert path.length == 0.0
        assert len(corr.ids) == 1


@pytest.fixture(scope="module")
def pillar_corridor(pillar_map):
    return corridor_search(pillar_map, [5, 5, 10], [95, 95, 10])


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

    @pytest.mark.parametrize("scene", ["box_map", "pillar_map", "tunnel_map"])
    def test_batched_march_equals_scalar(self, scene, request, monkeypatch):
        # 50 straight segments inside the cover per scene and, where there
        # are any, 5 that leave it and the multi-leg chains corridor_search
        # finds for them: the batched march gives the scalar march's ids
        # and switch points bit for bit, or the same CoverageGap.
        polymap = request.getfixturevalue(scene)
        rng = np.random.default_rng(25)
        inside, outside, chains = [], [], []
        while len(inside) < 50:
            a, b = rng.uniform(polymap.bounds.lo, polymap.bounds.hi,
                               size=(2, 3))
            if not (polymap.contains_union(a)
                    and polymap.contains_union(b)):
                continue
            if geom.segment_inside(polymap, a, b):
                inside.append(Path([a, b]))
            elif len(outside) < 5:
                outside.append(Path([a, b]))
                try:
                    chains.append(corridor_search(polymap, a, b)[0])
                except NoPath:
                    pass
        paths = inside + outside + chains

        def extract(path):
            try:
                corr = corridor_from_path(polymap, path)
            except CoverageGap as exc:
                return str(exc)
            return corr.ids, corr.switch_points

        batched = [extract(path) for path in paths]
        monkeypatch.setattr(pathfind, "_advance_limit",
                            oracles.advance_limit)
        for got, want in zip(batched, map(extract, paths)):
            if isinstance(want, str):
                assert got == want
            else:
                assert got[0] == want[0]
                assert np.array_equal(got[1], want[1])
        assert sum(not isinstance(w, str) for w in batched) >= 50

    @pytest.mark.parametrize("gap", [0.0, 5e-10, 1e-9 - 1e-12, 1e-9,
                                     1e-9 + 1e-12, 2e-9])
    def test_batched_march_along_a_face(self, gap):
        # Segments gap outside the top face of a box, inside the march's
        # 1e-9 slack or just past it, that run along it or leave the box
        # through its end: the batched skip never passes a step that the
        # scalar test rejects, so both return the same arc length.
        poly = HalfspacePolytope.from_aabb(Aabb([0, 0, 0], [10, 10, 10]))
        for end in (9.0, 12.0):
            path = Path([[1.0, 10.0 + gap, 5.0], [end, 10.0 + gap, 5.0]])
            for l0 in (0.0, 0.35):
                assert pathfind._advance_limit(poly, path, l0, 0.1, 1e-6) \
                    == oracles.advance_limit(poly, path, l0, 0.1, 1e-6)


class TestRefine:
    def test_never_longer_than_guide(self, pillar_map):
        rng = np.random.default_rng(9)
        done = 0
        while done < 10:
            a = rng.uniform([5, 5, 5], [95, 95, 35])
            b = rng.uniform([5, 5, 5], [95, 95, 35])
            if not (pillar_map.contains_union(a) and pillar_map.contains_union(b)):
                continue
            path, corr = corridor_search(pillar_map, a, b)
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

    def test_vertex_seed_reaches_shortest_chain(self, pillar_map):
        # Junction vertices as the guide: each seed weight but one is 0, and
        # a 0 weight has no gradient under the chart.
        p_start, p_goal = np.array([15.0, 87, 16]), np.array([18.0, 29, 29])
        _, corr = corridor_search(pillar_map, p_start, p_goal)
        chart = chart_build(corr, pillar_map)
        assert chart.n_junctions >= 2
        corr.switch_points = np.array([V[0] for V in chart.vertices])
        q = shortest_path_refine(pillar_map, corr, chart=chart)
        length = float(np.sum(np.linalg.norm(
            np.diff(np.vstack([p_start, q, p_goal]), axis=0), axis=1)))
        best = oracles.shortest_chain_length(p_start, p_goal, chart.polys,
                                             corr.switch_points)
        assert length == pytest.approx(best, rel=1e-6)

    def test_single_polytope_corridor(self, box_map):
        _, corr = corridor_search(box_map, [10, 10, 10], [20, 20, 20])
        if len(corr.ids) == 1:
            q = shortest_path_refine(box_map, corr)
            assert q.shape == (0, 3)
