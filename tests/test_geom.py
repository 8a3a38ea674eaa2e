import numpy as np
import pytest

from swarmplan import geom
from swarmplan.errors import EmptyInterior, NoFreeSpace, SeedOccupied

import oracles


def random_bounded_polytope(rng, n_extra=8, scale=10.0):
    """Box faces plus random cuts that keep the origin strictly inside."""
    eye = np.eye(3)
    normals = [eye[0], eye[1], eye[2], -eye[0], -eye[1], -eye[2]]
    offsets = [scale] * 6
    for _ in range(n_extra):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        normals.append(n)
        offsets.append(rng.uniform(2.0, scale))
    return geom.HalfspacePolytope(np.array(normals), np.array(offsets))


class TestAabb:
    def test_contains_boundary(self):
        box = geom.Aabb([0, 0, 0], [1, 2, 3])
        assert box.contains([0, 0, 0])
        assert box.contains([1, 2, 3])
        assert not box.contains([1.0001, 2, 3])

    def test_sample_inside(self):
        rng = np.random.default_rng(0)
        box = geom.Aabb([-1, 2, 3], [0, 5, 9])
        pts = box.sample(rng, n=200)
        assert np.all(pts >= box.lo) and np.all(pts <= box.hi)


class TestHalfspacePolytope:
    def test_normalization(self):
        p = geom.HalfspacePolytope(
            [[2, 0, 0], [-2, 0, 0], [0, 3, 0], [0, -3, 0], [0, 0, 1],
             [0, 0, -1]],
            [2, 2, 3, 3, 1, 1])
        assert np.allclose(np.linalg.norm(p.normals, axis=1), 1.0)
        assert p.contains([1, 1, 1])
        assert not p.contains([1.01, 0, 0])

    def test_depth_matches_margins(self):
        rng = np.random.default_rng(1)
        p = random_bounded_polytope(rng)
        for _ in range(50):
            x = rng.uniform(-12, 12, size=3)
            assert p.depth(x) == pytest.approx(float(np.min(p.margins(x))))

    def test_contains_many_matches_scalar(self):
        rng = np.random.default_rng(2)
        p = random_bounded_polytope(rng)
        pts = rng.uniform(-12, 12, size=(300, 3))
        batch = p.contains_many(pts)
        for x, ok in zip(pts, batch):
            assert ok == p.contains(x)

    def test_too_few_faces_rejected(self):
        with pytest.raises(ValueError):
            geom.HalfspacePolytope(np.eye(3), np.ones(3))


class TestCenterAndVertices:
    def test_center_is_deep_inside(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_bounded_polytope(rng)
            c = geom.chebyshev_like_center(p)
            assert p.depth(c) > 1e-4

    def test_center_of_thin_polytope_raises(self):
        eye = np.eye(3)
        normals = np.vstack([eye, -eye])
        offsets = np.array([1, 1, 0.0, 1, 1, 0.0])  # z pinched flat
        p = geom.HalfspacePolytope(normals, offsets)
        with pytest.raises(EmptyInterior):
            geom.chebyshev_like_center(p)

    def test_cube_vertices(self):
        p = geom.HalfspacePolytope.from_aabb(geom.Aabb([0, 0, 0], [1, 1, 1]))
        V = geom.vertex_enumeration(p)
        assert len(V) == 8
        expected = {(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)}
        got = {tuple(np.round(v).astype(int)) for v in V}
        assert got == expected
        assert np.allclose(sorted(map(tuple, V)),
                           sorted(map(tuple, np.array(list(expected)))),
                           atol=1e-9)

    def test_vertices_satisfy_faces(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = random_bounded_polytope(rng)
            V = geom.vertex_enumeration(p)
            assert len(V) >= 4
            assert np.all(V @ p.normals.T <= p.offsets + 1e-7)

    def test_interior_samples_inside_vertex_hull(self):
        rng = np.random.default_rng(5)
        p = random_bounded_polytope(rng)
        V = geom.vertex_enumeration(p)
        samples = []
        while len(samples) < 200:
            x = rng.uniform(-10, 10, size=3)
            if p.contains(x):
                samples.append(x)
        inside = oracles.hull_contains(V, np.array(samples), tol=1e-6)
        assert np.all(inside)


class TestGeneratePolytope:
    def test_cuts_exclude_obstacles(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-8, 8, size=(60, 3))
        pts = pts[np.linalg.norm(pts, axis=1) > 1.0]
        obstacles = geom.ObstacleMap.from_points(
            pts, geom.Aabb([-10, -10, -10], [10, 10, 10]))
        box = geom.Aabb([-9, -9, -9], [9, 9, 9])
        poly = geom.generate_polytope(np.zeros(3), obstacles, box)
        assert poly.contains(np.zeros(3))
        assert not np.any(poly.contains_many(pts))

    def test_occupied_seed_rejected(self):
        pts = np.zeros((1, 3))
        obstacles = geom.ObstacleMap.from_points(
            pts, geom.Aabb([-1, -1, -1], [1, 1, 1]))
        with pytest.raises(SeedOccupied):
            geom.generate_polytope(np.zeros(3), obstacles,
                                   geom.Aabb([-1, -1, -1], [1, 1, 1]))


def box_polymap(los, his):
    """PolyMap whose polytopes are the given boxes."""
    boxes = [geom.Aabb(lo, hi) for lo, hi in zip(los, his)]
    polys = [geom.HalfspacePolytope.from_aabb(b) for b in boxes]
    return geom.PolyMap(polys, 1e-2, geom.Aabb([-10, -10, -10], [120, 120, 120]),
                        boxes)


class TestBoxFilter:
    def test_candidates_match_linear_scan(self):
        rng = np.random.default_rng(7)
        n = 150
        los = rng.uniform(0, 80, size=(n, 3))
        his = los + rng.uniform(0.5, 25, size=(n, 3))
        polymap = box_polymap(los, his)
        for _ in range(300):
            x = rng.uniform(-5, 110, size=3)
            got = polymap.candidates(x)
            want = oracles.linear_scan_boxes(los, his, x)
            assert np.array_equal(got, want)

    def test_candidates_include_boundaries(self):
        los = np.array([[0.0, 0.0, 0.0]])
        his = np.array([[1.0, 1.0, 1.0]])
        polymap = box_polymap(los, his)
        assert np.array_equal(polymap.candidates([1.0, 1.0, 1.0]), [0])
        assert np.array_equal(polymap.candidates([0.0, 0.5, 0.5]), [0])
        assert len(polymap.candidates([1.0000001, 0.5, 0.5])) == 0

    def test_empty_map(self):
        polymap = geom.PolyMap([], 1e-2, geom.Aabb([-1, -1, -1], [1, 1, 1]))
        assert len(polymap.candidates([0, 0, 0])) == 0
        assert not polymap.contains_union([0, 0, 0])


class TestPolyMapQueries:
    def test_stab_query_matches_linear_scan(self, pillar_map):
        rng = np.random.default_rng(8)
        pts = pillar_map.bounds.sample(rng, n=400)
        for x in pts:
            hits = geom.stab_all(pillar_map, x)
            got = hits[0] if hits else None
            want = oracles.linear_scan_deepest(pillar_map.polytopes, x)
            assert got == want

    def test_stab_all_sorted_by_depth(self, pillar_map):
        rng = np.random.default_rng(9)
        for x in pillar_map.bounds.sample(rng, n=100):
            ids = geom.stab_all(pillar_map, x)
            depths = [pillar_map.polytopes[i].depth(x) for i in ids]
            assert all(d >= 0.0 for d in depths)
            assert depths == sorted(depths, reverse=True)

    def test_union_mask_matches_scalar(self, pillar_map):
        rng = np.random.default_rng(10)
        pts = pillar_map.bounds.sample(rng, n=500)
        mask = pillar_map.union_mask(pts)
        for x, got in zip(pts, mask):
            assert got == pillar_map.contains_union(x)

    def test_segment_inside_detects_wall(self, gap_map):
        # straight through the solid part of the wall
        assert not geom.segment_inside(gap_map, [20, 20, 15], [180, 20, 15])
        # short segment fully in open space
        assert geom.segment_inside(gap_map, [10, 10, 10], [30, 30, 10])


class TestPolyhedronize:
    def test_fill_reaches_target(self, pillar_map):
        assert pillar_map.fill_estimate is not None
        assert pillar_map.fill_estimate >= 1.0 - pillar_map.epsilon - 0.02

    def test_polytopes_avoid_obstacles(self, pillar_map):
        rng = np.random.default_rng(11)
        nx, ny, nz = 25, 25, 10
        occ = np.zeros((nx, ny, nz), dtype=bool)
        rng2 = np.random.default_rng(7)
        for _ in range(8):
            cx, cy = rng2.integers(3, nx - 3), rng2.integers(3, ny - 3)
            occ[cx:cx + 2, cy:cy + 2, :8] = True
        centers = (np.argwhere(occ) + 0.5) * 4.0
        for poly in pillar_map.polytopes:
            assert not np.any(poly.contains_many(centers, slack=-1e-9))

    def test_fully_occupied_scene_raises(self):
        occ = np.ones((4, 4, 4), dtype=bool)
        obstacles = geom.ObstacleMap.from_voxels(np.zeros(3), 1.0, occ)
        with pytest.raises(NoFreeSpace):
            geom.polyhedronize(obstacles, 0.05, np.random.default_rng(0),
                               attempt_budget=2000, mc_samples=500)


class TestObstacleMap:
    def test_voxel_free_mask(self):
        occ = np.zeros((4, 4, 4), dtype=bool)
        occ[1, 1, 1] = True
        m = geom.ObstacleMap.from_voxels(np.zeros(3), 1.0, occ)
        assert not m.is_free([1.5, 1.5, 1.5])
        assert m.is_free([0.5, 0.5, 0.5])
        assert m.is_free([5.0, 5.0, 5.0])  # outside the grid counts as free

    def test_points_in_box(self):
        pts = np.array([[0, 0, 0], [5, 5, 5], [9, 9, 9]], dtype=float)
        m = geom.ObstacleMap.from_points(pts, geom.Aabb([0, 0, 0], [10, 10, 10]))
        sel = m.points_in_box(geom.Aabb([4, 4, 4], [6, 6, 6]))
        assert len(sel) == 1 and np.allclose(sel[0], [5, 5, 5])
