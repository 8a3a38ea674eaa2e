"""Guiding paths through the free-space cover.

Provides sampling-based shortest-path search over the polytope union,
corridor extraction along a path, junction-waypoint refinement, and a
rest-to-rest duration seed for trajectory optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geom
from .errors import CoverageGap, NoPath

DEFAULT_STEP = 5.0
DEFAULT_BUDGET = 20000
DEFAULT_INFORMED_BUDGET = 5000
GOAL_BIAS = 0.05
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


def _informed_frame(p_start, p_goal, c_min):
    """Centre and rotation (e1 to the start-goal axis) of the informed
    spheroid; fixed for one search."""
    center = 0.5 * (p_start + p_goal)
    a1 = (p_goal - p_start) / max(c_min, 1e-300)
    e1 = np.array([1.0, 0.0, 0.0])
    v = np.cross(e1, a1)
    s = np.linalg.norm(v)
    c = float(e1 @ a1)
    if s < 1e-12:
        rot = np.eye(3) if c > 0 else np.diag([-1.0, -1.0, 1.0])
    else:
        vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
        rot = np.eye(3) + vx + vx @ vx * ((1.0 - c) / (s * s))
    return center, rot


def _informed_sample(rng, frame, c_best, c_min):
    """Uniform sample from the prolate spheroid with foci at the endpoints,
    in the (center, rot) frame of _informed_frame."""
    center, rot = frame
    r1 = c_best / 2.0
    r23 = np.sqrt(max(c_best * c_best - c_min * c_min, 0.0)) / 2.0
    # Uniform point in the unit ball.
    u = rng.normal(size=3)
    u /= max(np.linalg.norm(u), 1e-300)
    u *= rng.uniform() ** (1.0 / 3.0)
    return center + rot @ (np.array([r1, r23, r23]) * u)


def _shortcut(polymap: geom.PolyMap, pts: np.ndarray) -> np.ndarray:
    out = [pts[0]]
    i = 0
    n = len(pts)
    while i < n - 1:
        j = n - 1
        while j > i + 1:
            if geom.segment_inside(polymap, pts[i], pts[j]):
                break
            j -= 1
        out.append(pts[j])
        i = j
    return np.asarray(out)


def informed_rrt_star(polymap: geom.PolyMap, p_start, p_goal, rng, *,
                      step: float = DEFAULT_STEP,
                      budget: int = DEFAULT_BUDGET,
                      informed_budget: int = DEFAULT_INFORMED_BUDGET,
                      goal_bias: float = GOAL_BIAS,
                      cost_trace=None) -> Path:
    """Shortest collision-free path over the polytope union.

    Tree growth uses uniform sampling until the first solution, then
    switches to the informed spheroid for the remaining budget.  The
    returned path is shortcut-smoothed.  Raises NoPath when the endpoints
    are not covered or the budget is exhausted without a connection.
    """
    p_start = np.asarray(p_start, dtype=float)
    p_goal = np.asarray(p_goal, dtype=float)
    if not polymap.contains_union(p_start):
        raise NoPath("start point is outside the free-space cover")
    if not polymap.contains_union(p_goal):
        raise NoPath("goal point is outside the free-space cover")
    c_min = float(np.linalg.norm(p_goal - p_start))
    if c_min <= 1e-12:
        return Path([p_start])
    if geom.segment_inside(polymap, p_start, p_goal):
        return Path([p_start, p_goal])

    cap = budget + informed_budget
    nodes = np.empty((cap + 2, 3))
    parent = np.full(cap + 2, -1, dtype=int)
    cost = np.full(cap + 2, np.inf)
    nodes[0] = p_start
    cost[0] = 0.0
    n = 1
    best_cost = np.inf
    best_parent = -1

    lo, hi = polymap.bounds.lo, polymap.bounds.hi
    vol = float(np.prod(hi - lo))
    gamma = 2.0 * (vol / (4.0 * np.pi / 3.0)) ** (1.0 / 3.0)
    frame = _informed_frame(p_start, p_goal, c_min)

    it = 0
    while it < cap:
        it += 1
        if np.isfinite(best_cost):
            if best_cost <= c_min * (1.0 + 1e-6):
                break
            sample = _informed_sample(rng, frame, best_cost, c_min)
            if not (np.all(sample >= lo) and np.all(sample <= hi)):
                continue
        elif rng.uniform() < goal_bias:
            sample = p_goal
        else:
            sample = rng.uniform(lo, hi)
        if not polymap.contains_union(sample):
            continue

        d2 = np.sum((nodes[:n] - sample) ** 2, axis=1)
        ni = int(np.argmin(d2))
        dist = float(np.sqrt(d2[ni]))
        if dist <= 1e-12:
            continue
        new = sample if dist <= step else nodes[ni] + (sample - nodes[ni]) * (step / dist)
        if not geom.segment_inside(polymap, nodes[ni], new):
            continue

        # Choose the cheapest valid parent in the neighborhood, then rewire.
        r = min(gamma * (np.log(n + 1.0) / (n + 1.0)) ** (1.0 / 3.0), 4.0 * step)
        d2new = np.sum((nodes[:n] - new) ** 2, axis=1)
        near = np.flatnonzero(d2new <= r * r)
        best_i, best_c = ni, cost[ni] + float(np.linalg.norm(new - nodes[ni]))
        for j in near:
            cj = cost[j] + float(np.sqrt(d2new[j]))
            if cj < best_c and geom.segment_inside(polymap, nodes[j], new):
                best_i, best_c = int(j), cj
        nodes[n] = new
        parent[n] = best_i
        cost[n] = best_c
        for j in near:
            cj = best_c + float(np.sqrt(d2new[j]))
            if cj + 1e-12 < cost[j] and geom.segment_inside(polymap, new, nodes[j]):
                parent[j] = n
                cost[j] = cj
        gd = float(np.linalg.norm(p_goal - new))
        if gd <= step and best_c + gd < best_cost and geom.segment_inside(polymap, new, p_goal):
            best_cost = best_c + gd
            best_parent = n
        n += 1
        if cost_trace is not None and np.isfinite(best_cost):
            cost_trace.append(best_cost)
        if n >= cap:
            break

    if not np.isfinite(best_cost):
        raise NoPath("no path found within the sampling budget")
    chain = [p_goal]
    k = best_parent
    while k >= 0:
        chain.append(nodes[k].copy())
        k = parent[k]
    chain.reverse()
    return Path(_shortcut(polymap, np.asarray(chain)))


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
    sum of sqrt(leg^2 + delta), smooth everywhere.  Returns the junction
    waypoints; the result never exceeds the guiding chain length.
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

    x0 = chart.join(chart.invert_points(corridor.switch_points))
    res = _solver.minimize(fg, x0, gtol=gtol, gtol_is_relative=False,
                           max_iter=400)
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
