"""Guiding paths through the free-space cover.

The cover is searched as a graph of convex sets (Marcucci et al., arXiv
2101.11565): the junctions, pairwise polytope intersections with an
interior, give the graph its points, and a straight hop inside one polytope
its edges.  Provides that deterministic shortest-chain search, corridor
extraction along a straight path, junction-waypoint refinement, and a
rest-to-rest duration seed for trajectory optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom
from .errors import CoverageGap, EmptyInterior, NoPath

MIN_LEG_DURATION = 1e-2


class Path:
    """Piecewise-linear path with arc-length parameterization."""

    def __init__(self, waypoints):
        pts = np.asarray(waypoints, dtype=float).reshape(-1, 3)
        if len(pts) == 0:
            raise ValueError("path needs at least one point")
        keep = [0]
        for i in range(1, len(pts)):
            if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-12:
                keep.append(i)
        self.waypoints = pts[keep]
        legs = np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1)
        self.cumlen = np.concatenate([[0.0], np.cumsum(legs)])

    @property
    def length(self) -> float:
        return float(self.cumlen[-1])

    def at(self, s):
        """Point(s) at arc length s, clamped to [0, length]."""
        scalar = np.ndim(s) == 0
        s = np.clip(np.atleast_1d(np.asarray(s, dtype=float)), 0.0, self.length)
        if len(self.waypoints) == 1:
            out = np.broadcast_to(self.waypoints[0], (len(s), 3)).copy()
        else:
            idx = np.clip(np.searchsorted(self.cumlen, s, side="right") - 1,
                          0, len(self.waypoints) - 2)
            seg = self.cumlen[idx + 1] - self.cumlen[idx]
            w = np.where(seg > 0.0, (s - self.cumlen[idx]) / np.maximum(seg, 1e-300), 0.0)
            out = (1.0 - w[:, None]) * self.waypoints[idx] + w[:, None] * self.waypoints[idx + 1]
        return out[0] if scalar else out

    def point(self, s: float) -> np.ndarray:
        return self.at(float(s))


@dataclass
class Corridor:
    """Ordered polytope ids along a path with the switch points between them."""

    ids: list
    switch_points: np.ndarray
    p_start: np.ndarray
    p_goal: np.ndarray

    def polytopes(self, polymap: geom.PolyMap) -> list:
        return [polymap.polytopes[i] for i in self.ids]


def junction_graph(polymap: geom.PolyMap):
    """Points and owners of the cover's junction graph, built on first use
    and kept on polymap.

    A junction is a pairwise polytope intersection with an interior; each
    gives its vertices and its analytic centre as points, and owners holds
    the two polytope ids of each point.  Two points are joined when they
    share an owner: the straight hop between them lies in that polytope.
    """
    if polymap.junctions is None:
        los, his = polymap.box_los, polymap.box_his
        overlap = np.all((los[:, None] <= his[None])
                         & (los[None] <= his[:, None]), axis=2)
        points, owners = [np.zeros((0, 3))], [np.zeros((0, 2), dtype=int)]
        for a, b in zip(*np.nonzero(np.triu(overlap, 1))):
            try:
                _, center, V = geom.intersection(polymap.polytopes[a],
                                                 polymap.polytopes[b])
            except EmptyInterior:
                continue
            points.append(np.vstack([V, center]))
            owners.append(np.tile([a, b], (len(V) + 1, 1)))
        polymap.junctions = (np.vstack(points), np.vstack(owners))
    return polymap.junctions


def corridor_search(polymap: geom.PolyMap, p_start, p_goal):
    """Shortest guiding chain and its corridor, as (Path, Corridor).

    With line of sight the chain is the straight segment, and its corridor
    comes from corridor_from_path.  Otherwise Dijkstra runs over the
    junction graph with the start and the goal added, each owned by the
    polytopes that contain it, and edges weighted by Euclidean length.  The
    polytope of each hop gives Corridor.ids and the junction points between
    hops its switch_points.  Raises NoPath when an endpoint lies outside the
    cover or no chain of overlapping polytopes joins them.
    """
    p_start = np.asarray(p_start, dtype=float).reshape(3)
    p_goal = np.asarray(p_goal, dtype=float).reshape(3)
    if not polymap.contains_union(p_start):
        raise NoPath("start point is outside the free-space cover")
    if not polymap.contains_union(p_goal):
        raise NoPath("goal point is outside the free-space cover")
    if geom.segment_inside(polymap, p_start, p_goal):
        path = Path([p_start, p_goal])
        return path, corridor_from_path(polymap, path)

    # Node 0 is the start, node 1 the goal, node k + 2 junction point k.
    junction_pts, junction_owners = junction_graph(polymap)
    ends = [geom.stab_all(polymap, p_start), geom.stab_all(polymap, p_goal)]
    points = np.vstack([p_start, p_goal, junction_pts])
    dist = np.full(len(points), np.inf)
    dist[0] = 0.0
    prev = np.full(len(points), -1)
    via = np.full(len(points), -1)
    done = np.zeros(len(points), dtype=bool)
    while True:
        open_dist = np.where(done, np.inf, dist)
        u = int(np.argmin(open_dist))
        if not np.isfinite(open_dist[u]):
            raise NoPath(f"no chain of overlapping polytopes joins the start "
                         f"(in polytopes {ends[0]}) to the goal (in "
                         f"polytopes {ends[1]})")
        if u == 1:
            break
        done[u] = True
        for pid in ends[u] if u < 2 else junction_owners[u - 2]:
            idx = np.concatenate([
                [k for k in (0, 1) if pid in ends[k]],
                2 + np.flatnonzero(np.any(junction_owners == pid, axis=1))
            ]).astype(int)
            cost = dist[u] + np.linalg.norm(points[idx] - points[u], axis=1)
            better = cost < dist[idx]
            dist[idx[better]] = cost[better]
            prev[idx[better]] = u
            via[idx[better]] = pid

    chain, hops = [1], []
    while chain[-1] != 0:
        hops.append(int(via[chain[-1]]))
        chain.append(int(prev[chain[-1]]))
    chain.reverse()
    hops.reverse()
    # A point between two hops in one polytope lies on their straight line.
    ids, switches = [hops[0]], []
    for k in range(1, len(hops)):
        if hops[k] != ids[-1]:
            ids.append(hops[k])
            switches.append(points[chain[k]])
    switch_points = np.asarray(switches, dtype=float).reshape(-1, 3)
    path = Path(np.vstack([p_start, switch_points, p_goal]))
    return path, Corridor(ids=ids, switch_points=switch_points,
                          p_start=p_start, p_goal=p_goal)


def _advance_limit(poly: geom.HalfspacePolytope, path: Path, l0: float,
                   march: float, tol: float) -> float:
    """Largest arc length reachable from l0 while staying inside poly."""
    length = path.length
    slack = 1e-9
    prev = l0
    cuts = path.cumlen
    while prev < length - 1e-15:
        nxt = min(prev + march, length)
        later = cuts[(cuts > prev + 1e-15) & (cuts < nxt - 1e-15)]
        if later.size:
            nxt = float(later[0])
        if poly.contains(path.point(nxt), slack=slack):
            prev = nxt
            continue
        lo_l, hi_l = prev, nxt
        while hi_l - lo_l > tol:
            mid = 0.5 * (lo_l + hi_l)
            if poly.contains(path.point(mid), slack=slack):
                lo_l = mid
            else:
                hi_l = mid
        return lo_l
    return length


def corridor_from_path(polymap: geom.PolyMap, path: Path, *,
                       march: float = 0.1, tol: float = 1e-6) -> Corridor:
    """March along the path, greedily extending each containing polytope.

    At each switch the deepest-stab polytope is tried first; when it cannot
    advance, the other containing polytopes are probed and the farthest
    reach wins.  Raises CoverageGap when no containing polytope can move
    the frontier forward.
    """
    length = path.length
    ids: list = []
    switch_ls: list = []
    l = 0.0
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise CoverageGap("corridor extraction did not terminate")
        x = path.point(l)
        cands = geom.stab_all(polymap, x)
        if len(cands) == 0:
            raise CoverageGap(f"path leaves the cover at arc length {l:.6f}")
        pid = int(cands[0])
        theta = _advance_limit(polymap.polytopes[pid], path, l, march, tol)
        if theta <= l + tol and len(cands) > 1:
            for alt in cands[1:]:
                t2 = _advance_limit(polymap.polytopes[int(alt)], path, l, march, tol)
                if t2 > theta:
                    theta, pid = t2, int(alt)
        if not ids or ids[-1] != pid:
            ids.append(pid)
            if len(ids) > 1:
                switch_ls.append(l)
        if theta >= length - 1e-12:
            break
        if theta <= l + tol:
            raise CoverageGap(f"no polytope advances past arc length {l:.6f}")
        l = theta
    switches = (path.at(np.asarray(switch_ls)) if switch_ls
                else np.zeros((0, 3)))
    return Corridor(ids=ids, switch_points=np.asarray(switches).reshape(-1, 3),
                    p_start=path.waypoints[0].copy(),
                    p_goal=path.waypoints[-1].copy())


def shortest_path_refine(polymap: geom.PolyMap, corridor: Corridor, *,
                         delta: float = 1e-2, gtol: float = 1e-6,
                         chart=None) -> np.ndarray:
    """Minimize smoothed chain length over the junction intersections.

    Each interior waypoint lives in the intersection of its two corridor
    polytopes, parameterized by convex vertex weights.  The objective is
    sum of sqrt(leg^2 + delta), smooth everywhere.  The search starts from
    each junction's vertex centroid (every xi = 1): a weight that starts at
    0 has zero gradient under the chart and would never move, so a guide of
    junction vertices cannot seed it.  Returns the junction waypoints; the
    result never exceeds the guiding chain length.
    """
    from . import optimize
    from . import solver as _solver

    if chart is None:
        chart = optimize.chart_build(corridor, polymap)
    m = len(corridor.ids)
    if m <= 1:
        return np.zeros((0, 3))
    p_start, p_goal = corridor.p_start, corridor.p_goal

    def chain_length(q):
        pts = np.vstack([p_start, q, p_goal])
        return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))

    def fg(x):
        xis = chart.split(x)
        q = chart.map_points(xis)
        pts = np.vstack([p_start, q, p_goal])
        diffs = np.diff(pts, axis=0)
        lens = np.sqrt(np.sum(diffs * diffs, axis=1) + delta)
        f = float(np.sum(lens))
        dq = diffs[:-1] / lens[:-1, None] - diffs[1:] / lens[1:, None]
        return f, chart.pullback(xis, q, dq)

    res = _solver.minimize(fg, np.ones(chart.dim), gtol=gtol,
                           gtol_is_relative=False, max_iter=400)
    q = chart.map_points(chart.split(res.x))
    if chain_length(q) > chain_length(corridor.switch_points) + 1e-12:
        return corridor.switch_points.copy()
    return q


def trapezoidal_allocation(waypoints, v_max: float, a_max: float,
                           floor: float = MIN_LEG_DURATION) -> np.ndarray:
    """Rest-to-rest leg durations from a trapezoidal speed profile.

    The profile is computed over the chained length of the waypoint
    polyline; each leg gets the profile time spent crossing it, floored
    at a small positive duration.
    """
    pts = np.asarray(waypoints, dtype=float).reshape(-1, 3)
    if len(pts) < 2:
        raise ValueError("need at least two waypoints")
    if v_max <= 0 or a_max <= 0:
        raise ValueError("speed and acceleration caps must be positive")
    legs = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(legs)])
    total = float(cum[-1])
    d_acc = v_max * v_max / (2.0 * a_max)

    def time_at(s):
        s = np.clip(s, 0.0, total)
        if total <= 0.0:
            return 0.0
        if 2.0 * d_acc >= total:
            t_peak = np.sqrt(total / a_max)
            if s <= total / 2.0:
                return np.sqrt(2.0 * s / a_max)
            return 2.0 * t_peak - np.sqrt(2.0 * (total - s) / a_max)
        t_acc = v_max / a_max
        t_all = 2.0 * t_acc + (total - 2.0 * d_acc) / v_max
        if s <= d_acc:
            return np.sqrt(2.0 * s / a_max)
        if s <= total - d_acc:
            return t_acc + (s - d_acc) / v_max
        return t_all - np.sqrt(2.0 * (total - s) / a_max)

    times = np.array([time_at(c) for c in cum])
    return np.maximum(np.diff(times), floor)


def profile_total_time(distance: float, v_max: float, a_max: float) -> float:
    """Rest-to-rest trapezoidal travel time over a straight distance."""
    if distance <= 0.0:
        return 0.0
    d_acc = v_max * v_max / (2.0 * a_max)
    if 2.0 * d_acc >= distance:
        return 2.0 * np.sqrt(distance / a_max)
    return 2.0 * v_max / a_max + (distance - 2.0 * d_acc) / v_max
