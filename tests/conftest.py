import numpy as np
import pytest

from swarmplan import geom, minco
from swarmplan.dynamics import Limits, VehicleModel
from swarmplan.penalty import PenaltyConfig, SafetyMargins


@pytest.fixture(scope="session")
def model():
    return VehicleModel()


@pytest.fixture(scope="session")
def limits():
    return Limits()


@pytest.fixture(scope="session")
def pconfig():
    return PenaltyConfig()


@pytest.fixture(scope="session")
def margins():
    return SafetyMargins(M_r=5.0, M_d=2.0, w=0.5)


@pytest.fixture(scope="session")
def box_map():
    """Obstacle-free box, covered by a handful of polytopes."""
    rng = np.random.default_rng(5)
    occ = np.zeros((12, 12, 6), dtype=bool)
    obstacles = geom.ObstacleMap.from_voxels(
        np.zeros(3), 5.0, occ, bounds=geom.Aabb([0, 0, 0], [60, 60, 30]))
    return geom.polyhedronize(obstacles, 1e-2, rng)


@pytest.fixture(scope="session")
def pillar_map():
    """Scattered square pillars in a 100 x 100 x 40 scene."""
    rng = np.random.default_rng(7)
    nx, ny, nz = 25, 25, 10
    occ = np.zeros((nx, ny, nz), dtype=bool)
    for _ in range(8):
        cx, cy = rng.integers(3, nx - 3), rng.integers(3, ny - 3)
        occ[cx:cx + 2, cy:cy + 2, :8] = True
    obstacles = geom.ObstacleMap.from_voxels(
        np.zeros(3), 4.0, occ, bounds=geom.Aabb([0, 0, 0], [100, 100, 40]))
    return geom.polyhedronize(obstacles, 1e-2, rng)


@pytest.fixture(scope="session")
def tunnel_map():
    """Rock block with a U-shaped tunnel along y < 15, x > 45 and y > 45."""
    rng = np.random.default_rng(5)
    occ = np.ones((12, 12, 6), dtype=bool)
    occ[:, :3, 1:5] = False
    occ[9:, :, 1:5] = False
    occ[:, 9:, 1:5] = False
    obstacles = geom.ObstacleMap.from_voxels(
        np.zeros(3), 5.0, occ, bounds=geom.Aabb([0, 0, 0], [60, 60, 30]))
    return geom.polyhedronize(obstacles, 1e-2, rng)


@pytest.fixture(scope="session")
def gap_map():
    """Solid wall across the scene pierced by one window."""
    rng = np.random.default_rng(11)
    nx, ny, nz = 100, 80, 15
    occ = np.zeros((nx, ny, nz), dtype=bool)
    occ[48:52, :, :] = True
    occ[48:52, 36:44, 3:12] = False
    obstacles = geom.ObstacleMap.from_voxels(
        np.zeros(3), 2.0, occ, bounds=geom.Aabb([0, 0, 0], [200, 160, 30]))
    return geom.polyhedronize(obstacles, 1e-2, rng, local_halfwidth=50.0)


def random_trajectory(rng, n_pieces=None, box=40.0, t0=None):
    """Hover-to-hover spline through random waypoints with random timing."""
    M = int(n_pieces if n_pieces is not None else rng.integers(2, 6))
    pts = rng.uniform(-box, box, size=(M + 1, 3))
    T = rng.uniform(1.0, 4.0, size=M)
    start = minco.BoundaryState.hover(pts[0])
    end = minco.BoundaryState.hover(pts[-1])
    t_start = float(rng.uniform(0.0, 10.0)) if t0 is None else float(t0)
    return minco.construct(t_start, T, pts[1:-1], start, end)
