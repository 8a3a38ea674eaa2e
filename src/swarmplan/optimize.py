"""Trajectory optimization over corridor charts and temporal scheduling.

The decision variables are unconstrained: each junction waypoint is the
convex combination of its intersection-polytope vertices with weights
xi^2 / sum(xi^2), and each piece duration is exp(tau).  The composite
penalized objective from the penalty module is minimized with the
quasi-Newton solver; a kinodynamic scheduler over (arc length, speed)
resolves conflicts that the spatial optimizer cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize

from . import geom, minco, pathfind, penalty, solver
from .dynamics import Limits, VehicleModel, flat_batch, limits_residual_batch
from .errors import (BlockedEndpoint, EmptyInterior, EmptyIntersection,
                     NotInPolytope, PostCheckFailure, ScheduleTimeout,
                     SingularAttitude)
from .fleet import AUDIT_TOL

ACTIVE_FACE_TOL = 1e-7
MEMBERSHIP_SLACK = 1e-9
PROJECTION_TOL = 1e-2
MIN_LEG_DURATION = 1e-2
PEN_BUFFER = 5e-3


class CoordinateChart:
    """Unconstrained coordinates for the junction waypoints of a corridor.

    Junction i must stay in the intersection of corridor polytopes i and
    i+1.  Points are parameterized by vertex weights xi_j^2 / sum(xi^2),
    so every real coordinate vector maps into the closed intersection.
    """

    def __init__(self, vertices, polys):
        self.vertices = [np.asarray(V, dtype=float).reshape(-1, 3)
                         for V in vertices]
        self.polys = list(polys)
        self.sizes = [len(V) for V in self.vertices]
        self._bounds = np.concatenate([[0], np.cumsum(self.sizes)]).astype(int)

    @property
    def n_junctions(self) -> int:
        return len(self.vertices)

    @property
    def dim(self) -> int:
        return int(self._bounds[-1])

    def split(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        return [x[self._bounds[i]:self._bounds[i + 1]]
                for i in range(self.n_junctions)]

    def join(self, xis):
        if not self.n_junctions:
            return np.zeros(0)
        return np.concatenate([np.asarray(xi, dtype=float).reshape(-1)
                               for xi in xis])

    def map_point(self, i: int, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        s = float(xi @ xi)
        if s <= 0.0:
            raise ValueError("all-zero chart coordinates")
        return (xi * xi / s) @ self.vertices[i]

    def map_points(self, xis) -> np.ndarray:
        if not self.n_junctions:
            return np.zeros((0, 3))
        return np.array([self.map_point(i, xi) for i, xi in enumerate(xis)])

    def pullback(self, xis, q, dq) -> np.ndarray:
        """Chain waypoint-space gradients back to chart coordinates."""
        out = []
        for i, xi in enumerate(xis):
            s = float(xi @ xi)
            g = (self.vertices[i] - q[i]) @ dq[i]
            out.append((2.0 / s) * xi * g)
        return np.concatenate(out) if out else np.zeros(0)

    def invert_points(self, q, slack: float = MEMBERSHIP_SLACK):
        """Vertex-weight coordinates of points inside the intersections.

        Points on the intersection boundary may fall a hair outside the
        enumerated-vertex hull; the weights then encode the closest hull
        point, which is all an initial guess needs.
        """
        q = np.asarray(q, dtype=float).reshape(-1, 3)
        if len(q) != self.n_junctions:
            raise ValueError("one point per junction expected")
        xis = []
        for i in range(self.n_junctions):
            if not self.polys[i].contains(q[i], slack=slack):
                raise NotInPolytope(
                    f"waypoint {i} is outside its junction intersection")
            w = _vertex_weights(self.vertices[i], q[i])
            err = float(np.linalg.norm(w @ self.vertices[i] - q[i]))
            # Enumeration noise near the intersection boundary grows with the
            # junction size; a seed only needs the nearest hull point.
            span = self.vertices[i].max(axis=0) - self.vertices[i].min(axis=0)
            cap = max(PROJECTION_TOL, 0.02 * float(np.linalg.norm(span)))
            if err > cap:
                raise ArithmeticError(
                    f"vertex-weight inversion stalled at residual {err:.3e}")
            xis.append(np.sqrt(w))
        return xis


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, len(v) + 1)
    rho = int(np.max(np.flatnonzero(u - css / k > 0.0)))
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


def _vertex_weights(V: np.ndarray, q: np.ndarray,
                    tol: float = 1e-12, max_iter: int = 5000) -> np.ndarray:
    """Simplex weights w with w @ V = q, by NNLS start and FISTA polish."""
    k = len(V)
    if k == 1:
        return np.ones(1)
    big = 100.0 * (1.0 + float(np.max(np.abs(q))))
    A = np.vstack([V.T, np.full((1, k), big)])
    b = np.concatenate([q, [big]])
    w, _ = scipy.optimize.nnls(A, b)
    s = float(np.sum(w))
    w = w / s if s > 0.0 else np.full(k, 1.0 / k)
    w = _project_simplex(w)
    lip = float(np.linalg.norm(V, 2)) ** 2 + 1e-12
    y, t_prev = w.copy(), 1.0
    best_w = w.copy()
    best_r = float(np.linalg.norm(w @ V - q))
    for _ in range(max_iter):
        if best_r <= tol:
            break
        r = y @ V - q
        w_new = _project_simplex(y - (V @ r) / lip)
        t_cur = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        y = w_new + ((t_prev - 1.0) / t_cur) * (w_new - w)
        w, t_prev = w_new, t_cur
        res = float(np.linalg.norm(w @ V - q))
        if res < best_r:
            best_w, best_r = w.copy(), res
    return best_w


def chart_build(corridor, polymap) -> CoordinateChart:
    """Chart over the pairwise intersections of consecutive corridor polytopes.

    Each junction's halfspace system is the concatenation of both polytopes'
    faces with redundant faces dropped (a face is kept iff some enumerated
    vertex is active on it), an interior witness from the analytic center,
    and the vertex list for the convex-weight parameterization.
    """
    ids = corridor.ids
    vertices, polys = [], []
    for i in range(len(ids) - 1):
        pa = polymap.polytopes[ids[i]]
        pb = polymap.polytopes[ids[i + 1]]
        N = np.vstack([pa.normals, pb.normals])
        o = np.concatenate([pa.offsets, pb.offsets])
        raw = geom.HalfspacePolytope(N, o)
        try:
            center = geom.chebyshev_like_center(raw)
        except EmptyInterior as exc:
            raise EmptyIntersection(
                f"corridor polytopes {ids[i]} and {ids[i + 1]} share no "
                f"interior") from exc
        V = np.asarray(geom.vertex_enumeration(raw, center))
        marg = raw.offsets[None, :] - V @ raw.normals.T
        keep = np.min(marg, axis=0) <= ACTIVE_FACE_TOL
        if int(np.sum(keep)) >= 4:
            poly = geom.HalfspacePolytope(raw.normals[keep],
                                          raw.offsets[keep], interior=center)
        else:
            poly = geom.HalfspacePolytope(raw.normals, raw.offsets,
                                          interior=center)
        vertices.append(V)
        polys.append(poly)
    return CoordinateChart(vertices, polys)


def chart_invert(chart: CoordinateChart, waypoints, durations):
    """(xi, tau) coordinates reproducing the given waypoints and durations."""
    T = np.asarray(durations, dtype=float).reshape(-1)
    if np.any(T <= 0.0):
        raise ValueError("durations must be positive")
    return chart.invert_points(waypoints), np.log(T)


@dataclass
class SolveOptions:
    gtol: float = 1e-5          # relative to the initial gradient inf-norm
    max_iter: int = 500
    memory: int = 10
    mu_rounds: int = 1          # continuation rounds over the penalty mu
    mu_shrink: float = 4.0
    tau_bound: float = 12.0     # |tau| beyond this rejects the step


@dataclass
class SolveReport:
    traj: minco.MincoTrajectory
    objective: float
    parts: dict
    grad_inf: float
    iterations: int
    evaluations: int
    status: str
    line_search_failed: bool
    xi: list
    tau: np.ndarray


def chart_objective(chart: CoordinateChart, t0: float, boundary, x, *,
                    pconfig, model=None, limits=None, margins=None,
                    corridor_polys=None, neighbors=(), yaw_plan=None,
                    tau_bound: float = 12.0, parts_out=None):
    """Composite objective and gradient at stacked coordinates [xi, tau].

    Degenerate points (vanishing chart block, tau outside its bound, or a
    singular attitude anywhere on the spline) evaluate to +inf with a zero
    gradient so a line search backs off instead of crashing.
    """
    n_xi = chart.dim
    tau = x[n_xi:]
    if np.any(np.abs(tau) > tau_bound):
        return np.inf, np.zeros_like(x)
    xis = chart.split(x[:n_xi])
    for xi in xis:
        if float(xi @ xi) < 1e-14:
            return np.inf, np.zeros_like(x)
    T = np.exp(tau)
    q = chart.map_points(xis)
    traj = minco.construct(t0, T, q, boundary[0], boundary[1])
    try:
        total, bundle, parts = penalty.composite(
            traj, pconfig, model=model, limits=limits, yaw_plan=yaw_plan,
            corridor=corridor_polys, neighbors=list(neighbors),
            margins=margins)
    except SingularAttitude:
        return np.inf, np.zeros_like(x)
    d_q, d_T = minco.propagate_gradient(traj, bundle, waypoints=q)
    g = np.empty_like(x)
    g[:n_xi] = chart.pullback(xis, q, d_q)
    g[n_xi:] = d_T * T
    if parts_out is not None:
        parts_out.append((float(total), dict(parts)))
    return float(total), g


def solve(chart: CoordinateChart, t0: float, boundary, xi0, tau0, *,
          pconfig, model=None, limits=None, margins=None,
          corridor_polys=None, neighbors=(), yaw_plan=None,
          options: SolveOptions | None = None, trace=None) -> SolveReport:
    """Minimize the composite penalized objective over (xi, tau).

    Points where the flatness map degenerates or tau leaves its bound are
    treated as infinitely bad and never stepped onto.  The best accepted
    iterate is returned; a stalled line search is reported, not raised.
    """
    opts = options or SolveOptions()
    n_xi = chart.dim
    tau0 = np.asarray(tau0, dtype=float).reshape(-1)
    x = np.concatenate([chart.join(xi0), tau0])
    neighbors = list(neighbors)
    eval_log = [] if trace is not None else None

    def make_fg(cfg):
        def fg(xv):
            return chart_objective(chart, t0, boundary, xv, pconfig=cfg,
                                   model=model, limits=limits,
                                   margins=margins,
                                   corridor_polys=corridor_polys,
                                   neighbors=neighbors, yaw_plan=yaw_plan,
                                   tau_bound=opts.tau_bound,
                                   parts_out=eval_log)
        return fg

    cfg = pconfig
    rounds = max(opts.mu_rounds, 1)
    res = None
    for r in range(rounds):
        res = solver.minimize(make_fg(cfg), x, memory=opts.memory,
                              gtol=opts.gtol, gtol_is_relative=True,
                              max_iter=opts.max_iter, trace=trace is not None)
        x = res.x
        if r + 1 < rounds:
            cfg = replace(cfg, mu=cfg.mu / opts.mu_shrink)

    if trace is not None and res.trace:
        by_value = {f: parts for f, parts in eval_log}
        for (it, f, ginf) in res.trace:
            parts = by_value.get(f, {})
            trace.append((it, f, ginf, parts))

    xis = chart.split(x[:n_xi])
    tau = x[n_xi:]
    T = np.exp(tau)
    q = chart.map_points(xis)
    traj = minco.construct(t0, T, q, boundary[0], boundary[1])
    total, _, parts = penalty.composite(
        traj, cfg, model=model, limits=limits, yaw_plan=yaw_plan,
        corridor=corridor_polys, neighbors=neighbors, margins=margins)
    return SolveReport(traj=traj, objective=float(total), parts=parts,
                       grad_inf=res.grad_inf, iterations=res.iterations,
                       evaluations=res.evaluations, status=res.status,
                       line_search_failed=(res.status
                                           == solver.LINE_SEARCH_FAILURE),
                       xi=xis, tau=tau)


@dataclass
class StampedProfile:
    """Monotone arc-length profile s(t) along a fixed geometric curve."""

    curve: pathfind.Path
    t: np.ndarray
    s: np.ndarray
    sdot: np.ndarray
    t_request: float

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        self.sdot = np.asarray(self.sdot, dtype=float)
        if np.any(np.diff(self.t) < -1e-12):
            raise ValueError("profile times must be non-decreasing")
        if np.any(np.diff(self.s) < -1e-9):
            raise ValueError("arc length must be non-decreasing")

    @property
    def arrival(self) -> float:
        return float(self.t[-1])

    @property
    def departure(self) -> float:
        """Last sample time before arc length first leaves zero."""
        moved = np.flatnonzero(self.s > self.s[0] + 1e-9)
        if len(moved) == 0:
            return float(self.t[0])
        return float(self.t[max(int(moved[0]) - 1, 0)])

    def time_at(self, s_query: float) -> float:
        """First time the profile reaches the given arc length."""
        s_query = min(max(float(s_query), float(self.s[0])), float(self.s[-1]))
        idx = int(np.searchsorted(self.s, s_query - 1e-12, side="left"))
        idx = min(max(idx, 1), len(self.s) - 1)
        s0, s1 = float(self.s[idx - 1]), float(self.s[idx])
        if s1 - s0 <= 1e-15:
            return float(self.t[idx - 1]) if s_query <= s0 else float(self.t[idx])
        w = min(max((s_query - s0) / (s1 - s0), 0.0), 1.0)
        return float(self.t[idx - 1] + w * (self.t[idx] - self.t[idx - 1]))


def _steer_1d(s0, v0, s1, v1, a_max, v_max):
    """Time-optimal forward connection of a 1D double integrator.

    Returns (duration, phases) with phases a list of (length, accel)
    segments, or None when no forward profile within the caps exists.
    """
    ds = s1 - s0
    if ds < -1e-12 or v0 < -1e-9 or v1 < -1e-9:
        return None
    if v0 > v_max + 1e-9 or v1 > v_max + 1e-9:
        return None
    v0 = min(max(v0, 0.0), v_max)
    v1 = min(max(v1, 0.0), v_max)
    a = a_max
    if ds <= 1e-12:
        if abs(v1 - v0) <= 1e-9 and v0 <= 1e-9:
            return 0.0, []
        return None
    vp2 = a * ds + 0.5 * (v0 * v0 + v1 * v1)
    vp = np.sqrt(max(vp2, 0.0))
    if vp + 1e-9 < max(v0, v1):
        return None
    if vp <= v_max:
        t1 = max((vp - v0) / a, 0.0)
        t2 = max((vp - v1) / a, 0.0)
        return t1 + t2, [(t1, a), (t2, -a)]
    t1 = (v_max - v0) / a
    t3 = (v_max - v1) / a
    d13 = (v_max * v_max - v0 * v0 + v_max * v_max - v1 * v1) / (2.0 * a)
    tc = (ds - d13) / v_max
    if tc < -1e-9:
        return None
    tc = max(tc, 0.0)
    return t1 + tc + t3, [(t1, a), (tc, 0.0), (t3, -a)]


def _phase_eval(s0, v0, phases, tq):
    """Arc length and speed at local times within a phase chain."""
    tq = np.asarray(tq, dtype=float)
    s = np.full(tq.shape, np.nan)
    v = np.full(tq.shape, np.nan)
    t_acc, s_acc, v_acc = 0.0, float(s0), float(v0)
    for dur, acc in phases:
        m = (tq >= t_acc - 1e-12) & (tq <= t_acc + dur + 1e-12)
        dt = np.clip(tq[m] - t_acc, 0.0, dur)
        s[m] = s_acc + v_acc * dt + 0.5 * acc * dt * dt
        v[m] = v_acc + acc * dt
        s_acc += v_acc * dur + 0.5 * acc * dur * dur
        v_acc += acc * dur
        t_acc += dur
    rest = ~np.isfinite(s)
    s[rest] = s_acc
    v[rest] = v_acc
    return s, v


def _grid_times(t_a, t_b, origin, dt):
    """Global-grid times inside [t_a, t_b] plus both endpoints."""
    if t_b <= t_a + 1e-12:
        return np.array([t_a, t_b]) if t_b > t_a else np.array([t_a])
    k0 = int(np.ceil((t_a - origin) / dt - 1e-9))
    k1 = int(np.floor((t_b - origin) / dt + 1e-9))
    ks = origin + dt * np.arange(k0, k1 + 1) if k1 >= k0 else np.zeros(0)
    return np.unique(np.concatenate([[t_a], np.clip(ks, t_a, t_b), [t_b]]))


def _check_step(margins, v_max, share):
    """Separation grid step: a share of M_d, or with no delay margin the
    time to cover a tenth of 2 M_r at v_max."""
    if margins.M_d > 0.0:
        return share * margins.M_d
    return 0.1 * (2.0 * margins.M_r) / max(v_max, 1e-9)


def temporal_schedule(curve: pathfind.Path, neighbors, margins, v_max,
                      a_max, t_request, rng, *, budget: int = 20000,
                      dt: float | None = None,
                      horizon_factor: float = 4.0) -> StampedProfile:
    """Passage times along a fixed curve avoiding all stamped neighbors.

    Kinodynamic tree search over (arc length, speed) states with
    time-optimal double-integrator steering; every candidate edge is
    validated against the neighbors' space-time capsules on a shared time
    grid.  A wait-until-clear fallback seeds the tree when valid, so a
    solution exists unless the goal region is permanently blocked.
    """
    L = curve.length
    if dt is None:
        dt = _check_step(margins, v_max, 0.05)
    offsets = penalty._closed_grid(-2.0 * margins.M_d, 2.0 * margins.M_d, dt)
    limit_sq = (2.0 * margins.M_r) ** 2
    trap = pathfind.profile_total_time(L, v_max, a_max)

    def edge_ok(s0, v0, t_a, phases, t_b):
        # Curve samples against each neighbor's whole delay window.
        times = _grid_times(t_a, t_b, t_request, dt)
        s_loc, _ = _phase_eval(s0, v0, phases, times - t_a)
        pos = curve.at(s_loc)
        return not any(float(np.min(penalty._window_sq_dists(
            pos, times, nb, offsets, margins))) < limit_sq
            for nb in neighbors)

    cap = budget + 8
    arr_s = np.zeros(cap)
    arr_v = np.zeros(cap)
    arr_t = np.zeros(cap)
    parent = np.full(cap, -1, dtype=int)
    children = np.zeros(cap, dtype=int)
    phases_of: list = [None] * cap
    arr_t[0] = t_request
    n = 1

    best_arrival = np.inf
    best_goal = None  # (parent node, phases, duration)

    def try_goal(i):
        nonlocal best_arrival, best_goal
        hit = _steer_1d(arr_s[i], arr_v[i], L, 0.0, a_max, v_max)
        if hit is None:
            return
        dur, ph = hit
        t_arr = arr_t[i] + dur
        if t_arr >= best_arrival - 1e-9:
            return
        if edge_ok(arr_s[i], arr_v[i], arr_t[i], ph, t_arr):
            best_arrival = t_arr
            best_goal = (i, ph, dur)

    def add_node(s, v, t, par, ph):
        nonlocal n
        arr_s[n], arr_v[n], arr_t[n] = s, v, t
        parent[n] = par
        children[par] += 1
        phases_of[n] = ph
        n += 1
        return n - 1

    # Direct attempt, then the wait-until-clear fallback.
    try_goal(0)
    t_clear = t_request
    for nb in neighbors:
        t_clear = max(t_clear, nb.t_end + 2.0 * margins.M_d + dt)
    if not np.isfinite(best_arrival) or t_clear > t_request:
        if t_clear > t_request:
            ph_wait = [(t_clear - t_request, 0.0)]
            if edge_ok(0.0, 0.0, t_request, ph_wait, t_clear) and n < cap:
                w = add_node(0.0, 0.0, t_clear, 0, ph_wait)
                try_goal(w)

    horizon = (t_clear - t_request) + horizon_factor * max(trap, 1.0)
    lower = t_request + trap

    it = 0
    while it < budget and n < cap - 2:
        it += 1
        if best_arrival <= lower + max(1e-3, 1e-3 * trap):
            break
        if rng.uniform() < 0.2:
            # Wait move: extend a stopped node to a later time.
            stopped = np.flatnonzero(arr_v[:n] <= 1e-9)
            i = int(stopped[rng.integers(len(stopped))])
            t_new = rng.uniform(arr_t[i], t_request + horizon)
            if t_new <= arr_t[i] + 1e-6:
                continue
            ph = [(t_new - arr_t[i], 0.0)]
            if edge_ok(arr_s[i], 0.0, arr_t[i], ph, t_new):
                k = add_node(arr_s[i], 0.0, t_new, i, ph)
                try_goal(k)
            continue
        s_t = rng.uniform(0.0, L)
        v_t = rng.uniform(0.0, v_max)
        t_t = rng.uniform(t_request, t_request + horizon)
        # Nearest by a normalized space-speed-time metric.
        d = (np.abs(arr_s[:n] - s_t) / max(L, 1e-9)
             + np.abs(arr_v[:n] - v_t) / max(v_max, 1e-9)
             + np.abs(arr_t[:n] - t_t) / max(horizon, 1e-9))
        if n > 8:
            order = np.argpartition(d, 8)[:8]
            order = order[np.argsort(d[order])]
        else:
            order = np.argsort(d)
        hit = None
        for i in order:
            res = _steer_1d(arr_s[i], arr_v[i], s_t, v_t, a_max, v_max)
            if res is None:
                continue
            dur, ph = res
            t_new = arr_t[i] + dur
            if t_new > t_request + horizon:
                continue
            if edge_ok(arr_s[i], arr_v[i], arr_t[i], ph, t_new):
                hit = (int(i), dur, ph, t_new)
                break
        if hit is None:
            continue
        i, dur, ph, t_new = hit
        k = add_node(s_t, v_t, t_new, i, ph)
        # Leaf rewiring: the new node may reach childless nodes sooner.
        near = np.flatnonzero((np.abs(arr_s[:k] - s_t) <= 0.1 * max(L, 1e-9))
                              & (children[:k] == 0) & (arr_t[:k] > t_new))
        for m in near[:4]:
            # Never retime the node anchoring the best goal edge; its
            # stored departure window was validated at the old arrival.
            if best_goal is not None and m == best_goal[0]:
                continue
            res = _steer_1d(s_t, v_t, arr_s[m], arr_v[m], a_max, v_max)
            if res is None:
                continue
            dm, phm = res
            if t_new + dm >= arr_t[m] - 1e-9:
                continue
            if edge_ok(s_t, v_t, t_new, phm, t_new + dm):
                children[parent[m]] -= 1
                parent[m] = k
                children[k] += 1
                phases_of[m] = phm
                arr_t[m] = t_new + dm
        try_goal(k)

    if not np.isfinite(best_arrival):
        raise ScheduleTimeout(
            "no conflict-free passage schedule found within the budget")

    # Reconstruct the edge chain and sample it on the shared grid.
    chain = []
    i, ph, dur = best_goal
    chain.append((arr_s[i], arr_v[i], arr_t[i], ph, arr_t[i] + dur))
    while parent[i] >= 0:
        p = parent[i]
        chain.append((arr_s[p], arr_v[p], arr_t[p], phases_of[i], arr_t[i]))
        i = p
    chain.reverse()
    ts, ss, vs = [t_request], [0.0], [0.0]
    for s0, v0, t_a, ph, t_b in chain:
        times = _grid_times(t_a, t_b, t_request, dt)
        s_loc, v_loc = _phase_eval(s0, v0, ph, times - t_a)
        for tt, sv, vv in zip(times, s_loc, v_loc):
            if tt > ts[-1] + 1e-12:
                ts.append(float(tt))
                ss.append(float(sv))
                vs.append(float(vv))
    s_arr = np.maximum.accumulate(np.asarray(ss))
    return StampedProfile(curve=curve, t=np.asarray(ts), s=s_arr,
                          sdot=np.maximum(np.asarray(vs), 0.0),
                          t_request=t_request)


def _arc_geometry(traj: minco.MincoTrajectory, samples_per_piece: int = 64):
    """Geometric curve of a trajectory plus junction arc lengths."""
    knots = traj.knots
    grids = [np.linspace(knots[i], knots[i + 1], samples_per_piece,
                         endpoint=False) for i in range(traj.n_pieces)]
    ts = np.concatenate(grids + [knots[-1:]])
    pts = traj.eval_many(ts, 0)
    legs = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(legs)])
    junction_s = cum[np.arange(1, traj.n_pieces) * samples_per_piece]
    return pathfind.Path(pts), junction_s, float(cum[-1])


@dataclass
class MissionReport:
    mission_id: str
    status: str
    path_length: float
    corridor_ids: list
    capsule_checked: bool
    capsule_skipped: bool
    scheduled: bool
    t_start: float
    t_end: float
    objective: float
    parts: dict
    solver_status: str
    post: dict = field(default_factory=dict)


def post_check(traj, corridor_polys, neighbors, margins, model, limits,
               yaw_plan=None, *, time_step: float = 0.01,
               corridor_tol: float = -1e-3, capsule_tol: float = -1e-3,
               limits_tol: float = 1e-3) -> dict:
    """Dense-grid audit of corridor containment, capsules, and limits.

    Returns the worst margins; raises PostCheckFailure when any of them
    exceeds its tolerance.
    """
    n = max(int(np.ceil(traj.total_duration / time_step)) + 1, 64)
    ts = np.unique(np.concatenate([np.linspace(traj.t0, traj.t_end, n),
                                   traj.knots]))
    pos = traj.eval_many(ts, 0)
    depth = np.full(len(ts), -np.inf)
    for poly in corridor_polys:
        depth = np.maximum(depth, poly.depth_many(pos))
    corr_margin = float(np.min(depth))

    res = _check_step(margins, limits.v_max, 0.02)
    capsule_margin = min(
        (penalty.check_equivalent_criterion(traj, nb, margins, res)[1]
         for nb in neighbors), default=np.inf)

    vel = traj.eval_many(ts, 1)
    acc = traj.eval_many(ts, 2)
    jer = traj.eval_many(ts, 3)
    plan = yaw_plan or penalty.ConstantYaw()
    psi, dpsi, _ = plan.eval(vel, acc)
    try:
        flat = flat_batch(model, vel, acc, jer, psi, dpsi, grad=False)
    except SingularAttitude as exc:
        raise PostCheckFailure(f"flatness map degenerates on the dense "
                               f"grid: {exc}") from exc
    G = limits_residual_batch(limits, flat)
    scale = np.array([limits.v_max ** 2, limits.omega_max ** 2, 1.0,
                      limits.f_r ** 2])
    limits_norm = float(np.max(G / scale))

    report = {"corridor_margin": corr_margin,
              "capsule_margin": capsule_margin,
              "limits_norm": limits_norm}
    problems = []
    if corr_margin < corridor_tol:
        problems.append(("corridor", corr_margin))
    if capsule_margin < capsule_tol:
        problems.append(("capsule", capsule_margin))
    if limits_norm > limits_tol:
        problems.append(("limits", limits_norm))
    if problems:
        detail = ", ".join(f"{k} {v:.4e}" for k, v in problems)
        raise PostCheckFailure("post-check failed: " + detail,
                               margins=report,
                               problems=[k for k, _ in problems])
    return report


def _check_endpoints(p_o, p_f, neighbors, margins):
    """Raise BlockedEndpoint when the start or goal lies within 2 M_r, less
    the audit slack, of a neighbor's: both stay parked there for ever."""
    for k, nb in enumerate(neighbors):
        ends = nb.eval_many(np.array([nb.t0, nb.t_end]), 0)
        for label, p, q in (("start", p_o, ends[0]), ("goal", p_f, ends[1])):
            d = float(margins.wdist(p - q))
            if d < 2.0 * margins.M_r + AUDIT_TOL:
                raise BlockedEndpoint(
                    f"{label} {p.tolist()} lies {d:.3f} m (weighted) from "
                    f"neighbor {k}'s {label}; 2 M_r is {2 * margins.M_r:g} m")


def plan_mission(polymap, mission, neighbors, *, model, limits, margins,
                 pconfig, rng, options: SolveOptions | None = None,
                 yaw_plan=None, a_max: float | None = None,
                 rrt_step: float = 5.0, rrt_budget: int = 20000,
                 informed_budget: int = 5000, sched_budget: int = 20000,
                 sched_dt: float | None = None, run_post_check: bool = True):
    """Full single-mission pipeline against a set of committed neighbors.

    Search, corridor, refined waypoints, trapezoidal durations, spatial
    solve, conflict check, optional temporal scheduling plus a joint solve
    with the capsule penalty, and a dense post-check.
    """
    p_o = np.asarray(mission.p_o, dtype=float)
    p_f = np.asarray(mission.p_f, dtype=float)
    # Schedules must be flyable by the full constraint set: horizontal
    # acceleration is capped by the tilt limit, not just by spare thrust.
    a_lim = a_max if a_max is not None else \
        min(limits.f_max / model.m - model.g,
            model.g * np.tan(limits.theta_max))
    if a_lim <= 0.0:
        raise ValueError("thrust limits leave no acceleration margin")
    neighbors = list(neighbors)
    _check_endpoints(p_o, p_f, neighbors, margins)

    path = pathfind.informed_rrt_star(polymap, p_o, p_f, rng, step=rrt_step,
                                      budget=rrt_budget,
                                      informed_budget=informed_budget)
    corridor = pathfind.corridor_from_path(polymap, path)
    chart = chart_build(corridor, polymap)
    q0 = pathfind.shortest_path_refine(polymap, corridor, chart=chart)
    chain = np.vstack([p_o, q0, p_f]) if len(q0) else np.vstack([p_o, p_f])
    T0 = pathfind.trapezoidal_allocation(chain, limits.v_max, a_lim)
    xi0, tau0 = chart_invert(chart, q0, T0)
    boundary = (minco.BoundaryState.hover(p_o), minco.BoundaryState.hover(p_f))
    corridor_polys = corridor.polytopes(polymap)

    # Soft penalties settle on the constraint surface, so the dense audit
    # would see hairline violations.  Optimize and schedule against bounds
    # pulled in by a small buffer; audit against the real ones.
    pen_polys = [geom.HalfspacePolytope(p.normals, p.offsets - PEN_BUFFER)
                 for p in corridor_polys]
    pen_limits = limits.tightened(5e-3)
    pen_margins = replace(margins, M_r=margins.M_r
                          + max(0.05, 0.02 * margins.M_r))
    # The joint solve deviates from the scheduled timing by a second or
    # two; schedule with extra clearance so that deviation cannot put the
    # vehicle back into a neighbor's window.
    sched_margins = replace(pen_margins, M_r=pen_margins.M_r + 0.5)
    if options is None:
        options = SolveOptions()

    rep = solve(chart, mission.t_o, boundary, xi0, tau0, pconfig=pconfig,
                model=model, limits=pen_limits, margins=pen_margins,
                corridor_polys=pen_polys, neighbors=(),
                yaw_plan=yaw_plan, options=options)
    traj = rep.traj
    first_xi = rep.xi

    def run_ladder(n_rungs=3):
        # Violation spikes can slip between quadrature nodes, especially on
        # long wait legs.  Retry with densified quadrature so the penalty
        # sees them, stretching durations too when limits are the problem.
        # A capsule slip also thickens the penalized bound by the observed
        # depth: the audit grid is much finer than the penalty's window
        # quadrature, so densification alone may never see the dip.
        nonlocal rep, traj
        ladder = ((1, 1.0), (2, 1.0), (4, 1.15))[:n_rungs]
        last_problems: set = set()
        bump = 0.0
        for k, (qf, stretch) in enumerate(ladder):
            if k:
                pc = replace(pconfig, n_q=pconfig.n_q * qf,
                             n_t=pconfig.n_t * qf, n_v=pconfig.n_v * qf)
                oc = replace(options, max_iter=2 * k * options.max_iter,
                             mu_rounds=2)
                tau = rep.tau
                if "limits" in last_problems and stretch > 1.0:
                    tau = tau + np.log(stretch)
                pm = replace(pen_margins, M_r=pen_margins.M_r + bump) \
                    if bump > 0.0 else pen_margins
                rep = solve(chart, traj.t0, boundary, rep.xi, tau,
                            pconfig=pc, model=model, limits=pen_limits,
                            margins=pm, corridor_polys=pen_polys,
                            neighbors=neighbors, yaw_plan=yaw_plan,
                            options=oc)
                traj = rep.traj
            try:
                return post_check(traj, corridor_polys, neighbors, margins,
                                  model, limits, yaw_plan)
            except PostCheckFailure as exc:
                last_problems = set(exc.problems)
                if "capsule" in last_problems:
                    v = -float(exc.margins.get("capsule_margin", 0.0))
                    bump = min(bump + 0.5 * max(v, 0.0) + 0.05,
                               0.5 * margins.M_r)
                if k == len(ladder) - 1:
                    raise

    def schedule_into(a_fac, v_fac):
        nonlocal rep, traj
        profile = temporal_schedule(curve, neighbors, sched_margins,
                                    v_fac * limits.v_max, a_fac * a_lim,
                                    t_request=mission.t_o, rng=rng,
                                    budget=sched_budget, dt=check_res)
        t_marks = [profile.departure]
        t_marks += [profile.time_at(sj) for sj in junction_s]
        t_marks.append(profile.arrival)
        T1 = np.maximum(np.diff(np.asarray(t_marks)), leg_floor)
        rep = solve(chart, t_marks[0], boundary, first_xi, np.log(T1),
                    pconfig=pconfig, model=model, limits=pen_limits,
                    margins=pen_margins, corridor_polys=pen_polys,
                    neighbors=neighbors, yaw_plan=yaw_plan,
                    options=options)
        traj = rep.traj

    post = None
    check_res = sched_dt if sched_dt is not None else \
        _check_step(margins, limits.v_max, 0.05)
    scheduled = any(
        not penalty.check_equivalent_criterion(traj, nb, pen_margins,
                                               check_res)[0]
        for nb in neighbors)
    if scheduled:
        curve, junction_s, _ = _arc_geometry(traj)
        # Junction passage times can nearly coincide; a leg still needs
        # at least the time its straight-line length demands.
        wp = traj.waypoints()
        legs = np.vstack([p_o, wp, p_f]) if len(wp) else \
            np.vstack([p_o, p_f])
        leg_floor = np.maximum(
            np.linalg.norm(np.diff(legs, axis=0), axis=1)
            / limits.v_max, MIN_LEG_DURATION)
        if not run_post_check:
            schedule_into(1.0, 0.95)
        else:
            # An aggressive schedule can demand more bank than the tilt
            # limit allows; gentler kinodynamics always have the
            # wait-until-clear fallback, so retry slower on limit debt.
            failure = None
            rounds = ((1.0, 0.95), (0.5, 0.8), (0.25, 0.7))
            for j, (a_fac, v_fac) in enumerate(rounds):
                try:
                    schedule_into(a_fac, v_fac)
                    # The densest rung is expensive; if a moderate one
                    # cannot repair the limits the schedule is too hot,
                    # so save the full ladder for the gentlest round.
                    post = run_ladder(3 if j == len(rounds) - 1 else 2)
                    failure = None
                    break
                except PostCheckFailure as exc:
                    failure = exc
                    if "limits" not in exc.problems:
                        raise
                except ScheduleTimeout:
                    if failure is None:
                        raise
                    break
            if failure is not None:
                raise failure

    if run_post_check and post is None:
        post = run_ladder()
    if post is None:
        post = {}

    report = MissionReport(mission_id=str(mission.id), status="planned",
                           path_length=path.length,
                           corridor_ids=list(corridor.ids),
                           capsule_checked=bool(neighbors),
                           capsule_skipped=not scheduled, scheduled=scheduled,
                           t_start=traj.t0, t_end=traj.t_end,
                           objective=rep.objective, parts=rep.parts,
                           solver_status=rep.status, post=post)
    return traj, report
