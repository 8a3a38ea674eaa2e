"""Trajectory optimization over corridor charts and temporal scheduling.

The decision variables are unconstrained: each junction waypoint is the
convex combination of its intersection-polytope vertices with weights
xi^2 / sum(xi^2), and each piece duration is exp(tau).  The composite
penalized objective from the penalty module is minimized with the
quasi-Newton solver; an earliest-arrival search over (arc length, time)
along the fixed curve resolves conflicts that the spatial optimizer
cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize

from . import geom, minco, pathfind, penalty, solver
from .dynamics import flat_batch, limits_residual_batch
from .errors import (BlockedEndpoint, EmptyInterior, EmptyIntersection,
                     NotInPolytope, PostCheckFailure, ScheduleTimeout,
                     SingularAttitude)
from .fleet import AUDIT_TOL, audit_margin

ACTIVE_FACE_TOL = 1e-7
MEMBERSHIP_SLACK = 1e-9
PROJECTION_TOL = 1e-2

# Soft penalties settle on the constraint surface, where the dense audit
# would see hairline violations: plan_mission optimizes and schedules
# against bounds pulled in a little and audits against the real ones.
PEN_BUFFER = 5e-3        # m each corridor face moves inward
PEN_LIMITS_FRAC = 5e-3   # share of each limit's residual scale given up
PEN_M_R_PAD = 0.05       # m added to M_r, or if more, this share of it,
PEN_M_R_SHARE = 0.02     # so that the padding grows with the margin
SCHED_CLEARANCE = 0.5    # m more M_r to schedule with: the joint solve
                         # strays a second or two from the schedule

SCHED_SPEED_SHARE = 0.95  # of v_max, for a conflicting mission's schedule

# post_check audits on a grid of POST_TIME_STEP and fails corridor depths
# below POST_CORRIDOR_TOL, capsule margins below fleet.AUDIT_TOL and
# normalized limits residuals above POST_LIMITS_TOL.
POST_TIME_STEP = 0.01      # s
POST_CORRIDOR_TOL = -1e-3  # m
POST_LIMITS_TOL = 1e-3

# plan_mission's one retry after a failed post_check solves again from the
# failed solve with quadrature and max_iter times RETRY_FACTOR and 2 mu
# rounds, to see violation spikes that slip between nodes; after a capsule
# failure it adds 0.5 depth + 0.05 m (at most 0.5 M_r) to the penalized
# M_r, as the audit grid is finer than the penalty's.
RETRY_FACTOR = 2

# solve divides the penalty mu by MU_SHRINK between continuation rounds and
# rejects a step whose log-duration tau leaves [-TAU_BOUND, TAU_BOUND].
MU_SHRINK = 4.0
TAU_BOUND = 12.0


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
        try:
            raw, center, V = geom.intersection(polymap.polytopes[ids[i]],
                                               polymap.polytopes[ids[i + 1]])
        except EmptyInterior as exc:
            raise EmptyIntersection(
                f"corridor polytopes {ids[i]} and {ids[i + 1]} share no "
                f"interior") from exc
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
    mu_rounds: int = 1          # continuation rounds over the penalty mu

    def __post_init__(self):
        if not self.gtol > 0.0:
            raise ValueError(f"gtol must be positive, got {self.gtol}")
        if self.max_iter < 1 or self.mu_rounds < 1:
            raise ValueError("max_iter and mu_rounds must be at least 1, got "
                             f"{self.max_iter} and {self.mu_rounds}")


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
                    corridor_polys=None, neighbors=()):
    """Composite objective and gradient at stacked coordinates [xi, tau].

    Degenerate points (vanishing chart block, tau outside its bound, or a
    singular attitude anywhere on the spline) evaluate to +inf with a zero
    gradient so a line search backs off instead of crashing.
    """
    n_xi = chart.dim
    tau = x[n_xi:]
    if np.any(np.abs(tau) > TAU_BOUND):
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
            traj, pconfig, model=model, limits=limits,
            corridor=corridor_polys, neighbors=list(neighbors),
            margins=margins)
    except SingularAttitude:
        return np.inf, np.zeros_like(x)
    d_q, d_T = minco.propagate_gradient(traj, bundle)
    g = np.empty_like(x)
    g[:n_xi] = chart.pullback(xis, q, d_q)
    g[n_xi:] = d_T * T
    return float(total), g


def solve(chart: CoordinateChart, t0: float, boundary, xi0, tau0, *,
          pconfig, model=None, limits=None, margins=None,
          corridor_polys=None, neighbors=(),
          options: SolveOptions | None = None) -> SolveReport:
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

    def make_fg(cfg):
        def fg(xv):
            return chart_objective(chart, t0, boundary, xv, pconfig=cfg,
                                   model=model, limits=limits,
                                   margins=margins,
                                   corridor_polys=corridor_polys,
                                   neighbors=neighbors)
        return fg

    cfg = pconfig
    res = None
    for r in range(opts.mu_rounds):
        res = solver.minimize(make_fg(cfg), x, gtol=opts.gtol,
                              gtol_is_relative=True, max_iter=opts.max_iter)
        x = res.x
        if r + 1 < opts.mu_rounds:
            cfg = replace(cfg, mu=cfg.mu / MU_SHRINK)

    xis = chart.split(x[:n_xi])
    tau = x[n_xi:]
    T = np.exp(tau)
    q = chart.map_points(xis)
    traj = minco.construct(t0, T, q, boundary[0], boundary[1])
    total, _, parts = penalty.composite(
        traj, cfg, model=model, limits=limits,
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
    # The search that produced the profile: time "layers" expanded, lattice
    # states reached ("cells", summed over the layers) and candidate states
    # dropped as "blocked"; all 0 when the unobstructed trapezoid was clear.
    counts: dict = field(default_factory=dict)

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


def _check_step(margins, v_max):
    """Plan-time screen and scheduler grid step: M_d / 20, or with no delay
    margin the time to cover a tenth of 2 M_r at v_max."""
    if margins.M_d > 0.0:
        return 0.05 * margins.M_d
    return 0.1 * (2.0 * margins.M_r) / max(v_max, 1e-9)


def _trapezoid(L, v_max, a_max, tau):
    """Arc length and speed of the rest-to-rest trapezoid over L at local
    times tau in [0, pathfind.profile_total_time(L, v_max, a_max)]."""
    T = pathfind.profile_total_time(L, v_max, a_max)
    vp = min(v_max, np.sqrt(a_max * L))
    t1 = vp / a_max
    s = np.where(tau < t1, 0.5 * a_max * tau ** 2,
                 np.where(tau > T - t1, L - 0.5 * a_max * (T - tau) ** 2,
                          vp * (tau - 0.5 * t1)))
    return s, np.clip(a_max * np.minimum(tau, T - tau), 0.0, vp)


def _blocked_message(hit, seen, s_grid, t, cause):
    """Name the run of blocked arc-length cells that is not behind the
    farthest cell reached, and the neighbors that block it."""
    far = np.flatnonzero(seen)[-1] if seen.any() else 0
    cut = np.concatenate(([False], hit.any(axis=0), [False]))
    runs = np.flatnonzero(np.diff(cut)).reshape(-1, 2)
    a, b = next((run for run in runs if run[1] > far), runs[-1])
    names = ", ".join(str(n) for n in np.flatnonzero(hit[:, a:b].any(axis=1)))
    return (f"no conflict-free passage schedule: the reachable set {cause} "
            f"at t = {t:.2f} s; arc length {s_grid[a]:.2f}-{s_grid[b - 1]:.2f}"
            f" m of {s_grid[-1]:.2f} m is blocked by neighbor {names}")


def _lattice_step(prev, N, J):
    """Lattice states one layer after the reached set prev[j, i]: (i, j)
    goes to (i + 2 j + u, j + u), u in {-1, 0, 1}, 0 <= j + u <= J and
    i + 2 j + u <= N.  Rows written at width W + 2, W = N + 2 J + 3, and
    read back at width W start 2 j later; each u is then one shifted OR."""
    W = N + 2 * J + 3
    flat = np.zeros((J + 1) * (W + 2), dtype=bool)
    flat.reshape(J + 1, W + 2)[:, :N + 1] = prev
    shifted = flat[:(J + 1) * W].reshape(J + 1, W)
    R = shifted[:, :N + 1].copy()
    R[1:, 1:] |= shifted[:-1, :N]
    R[:-1] |= shifted[1:, 1:N + 2]
    return R


def temporal_schedule(curve: pathfind.Path, neighbors, margins, v_max,
                      a_max, t_request, *,
                      dt: float | None = None) -> StampedProfile:
    """Earliest-arrival passage times along a fixed curve avoiding all
    stamped neighbors.

    The curve stays and only its timing is searched.  The unobstructed
    rest-to-rest trapezoid is tried first, so a free curve is flown in
    minimal time.  Otherwise an exact-kinematics lattice is searched layer
    by layer: times t_k = t_request + k dt, speeds j a' dt with j <= J, and
    arc lengths i h, h = a' dt^2 / 2 = L / N with N even and a' <= a_max.
    One layer accelerates by u a', u in {-1, 0, 1}, taking (i, j) to
    (i + 2 j + u, j + u); i + j keeps its parity, so (N, 0) is reachable.

    The delay window is made of layer samples: a cell (i, k) is blocked
    when curve.at(i h) comes within 2 M_r (weighted) of a neighbor at a
    sample t_request + m dt, |m - k| <= K = ceil(2 M_d / dt) (40 at
    plan_mission's dt = M_d / 20; K dt > 2 M_d when 2 M_d / dt is not a
    whole number); the trapezoid is tested over the same offsets m dt.
    Each (cell, sample) distance is computed once, when the sample enters
    the window, and per neighbor and cell the last sample within 2 M_r is
    kept: layer k's blocked cells are those whose last one is at least
    k - K (a sliding window, van Herk 1992).  Every sample of the returned
    profile is a lattice point that passed this test.

    Once every window sample lies after every neighbor's t_end, the
    neighbors are parked (the presence model of
    penalty.check_equivalent_criterion) and the blocked map no longer
    changes, so a reachable set that repeats from one layer to the next
    repeats for ever.  ScheduleTimeout is raised when the reachable set
    empties or repeats; its message names the blocked arc-length span
    ahead of the farthest cell reached and the neighbors that block it,
    from the blocked map masked to the cells entered in the last layer
    (all cells once the map is static).  The counts, on the profile or the
    error, hold the layers expanded, the lattice states reached ("cells")
    and the candidate states dropped as "blocked".
    """
    L = curve.length
    if dt is None:
        dt = _check_step(margins, v_max)
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"schedule step dt must be positive and finite, "
                         f"got {dt}")
    K = int(np.ceil(2.0 * margins.M_d / dt - 1e-9))
    window = dt * np.arange(-K, K + 1)
    limit_sq = (2.0 * margins.M_r) ** 2
    neighbors = list(neighbors)
    counts = {"layers": 0, "cells": 0, "blocked": 0}

    T = pathfind.profile_total_time(L, v_max, a_max)
    tau = np.append(dt * np.arange(int(np.ceil(T / dt - 1e-9))), T)
    s, v = _trapezoid(L, v_max, a_max, tau)
    if all(float(np.min(penalty._window_sq_dists(
            curve.at(s), t_request + tau, nb, window, margins))) >= limit_sq
           for nb in neighbors):
        return StampedProfile(curve=curve, t=t_request + tau, s=s, sdot=v,
                              t_request=t_request, counts=counts)

    N = 2 * max(int(np.ceil(L / (a_max * dt * dt))), 1)
    unit = 2.0 * (L / N) / dt            # speed step a' dt
    J = int(v_max / unit)
    s_grid = np.linspace(0.0, L, N + 1)
    pts = curve.at(s_grid)
    # Samples t_request + m dt, m = -K .. parked, the first sample after
    # every t_end: from there on, all neighbors sit at their goals.
    t_end = max(nb.t_end for nb in neighbors)
    m = np.arange(-K, max(int(np.ceil((t_end - t_request) / dt)) + 2, 1 - K))
    times = t_request + m * dt
    parked = int(m[np.argmax(times > t_end)])
    nb_pos = np.stack([nb.eval_many(times[:parked + K + 1], 0)
                       for nb in neighbors], axis=1)
    last = np.full((len(neighbors), N + 1), -K - 1)
    entered = -K                          # next sample to enter the window

    R = np.zeros((J + 1, N + 1), dtype=bool)    # R[j, i]: (i, j) reached
    R[0, 0] = True
    seen = np.zeros(N + 1, dtype=bool)
    layers, prev, static = [], None, False
    while True:
        k = counts["layers"]
        t = t_request + k * dt
        if not static:
            static = k - K >= parked
            while entered <= min(k + K, parked):
                d2 = margins.wdist_sq(pts - nb_pos[entered + K][:, None, :])
                last[d2 < limit_sq] = entered
                entered += 1
            # The message names the cells entered, or all of them once the
            # map is static.
            hit = (last >= k - K) & (static | R.any(axis=0))
        cut = hit.any(axis=0)
        counts["blocked"] += int(np.count_nonzero(R[:, cut]))
        R &= ~cut
        counts["cells"] += int(np.count_nonzero(R))
        layers.append(np.packbits(R))
        seen |= R.any(axis=0)
        if R[0, N]:
            break
        if not R.any() or static and np.array_equal(R, prev):
            cause = "repeats" if R.any() else "is empty"
            raise ScheduleTimeout(_blocked_message(hit, seen, s_grid, t,
                                                   cause), counts=counts)
        prev, R = R, _lattice_step(R, N, J)
        counts["layers"] += 1

    # Walk back from (N, 0) through the fastest predecessor reached.
    i, j = N, 0
    ij = [(i, j)]
    for bits in reversed(layers[:-1]):
        for u in (-1, 0, 1):
            pj = j - u
            pi = i - 2 * pj - u
            c = pj * (N + 1) + pi
            if 0 <= pj <= J and pi >= 0 and bits[c >> 3] >> (7 - c % 8) & 1:
                break
        i, j = pi, pj
        ij.append((i, j))
    ii, jj = np.array(ij[::-1]).T
    return StampedProfile(curve=curve,
                          t=t_request + dt * np.arange(len(layers)),
                          s=s_grid[ii], sdot=unit * jj, t_request=t_request,
                          counts=counts)


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
    return pathfind.Path(pts), junction_s


@dataclass
class MissionReport:
    mission_id: str
    status: str
    path_length: float
    corridor_ids: list
    scheduled: bool
    t_start: float
    t_end: float
    objective: float
    parts: dict
    solver_status: str
    post: dict
    attempts: list   # plan_mission's 1 or 2 attempt records, the last passed


def post_check(traj, corridor_polys, neighbors, margins, model,
               limits) -> dict:
    """Dense-grid audit of corridor containment, capsules, and limits.

    Its capsule audit is the commit's, fleet.audit_margin against each
    neighbor.  Returns the worst margins; raises PostCheckFailure when any
    of them exceeds its tolerance (POST_CORRIDOR_TOL, AUDIT_TOL,
    POST_LIMITS_TOL).
    """
    n = max(int(np.ceil(traj.total_duration / POST_TIME_STEP)) + 1, 64)
    ts = np.unique(np.concatenate([np.linspace(traj.t0, traj.t_end, n),
                                   traj.knots]))
    pos = traj.eval_many(ts, 0)
    depth = np.full(len(ts), -np.inf)
    for poly in corridor_polys:
        depth = np.maximum(depth, poly.depth_many(pos))
    corr_margin = float(np.min(depth))

    capsule_margin = min((audit_margin(traj, nb, margins) for nb in neighbors),
                         default=np.inf)

    vel = traj.eval_many(ts, 1)
    acc = traj.eval_many(ts, 2)
    jer = traj.eval_many(ts, 3)
    try:
        flat = flat_batch(model, vel, acc, jer)
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
    if corr_margin < POST_CORRIDOR_TOL:
        problems.append(("corridor", corr_margin))
    if capsule_margin < AUDIT_TOL:
        problems.append(("capsule", capsule_margin))
    if limits_norm > POST_LIMITS_TOL:
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
                 pconfig, rng, options: SolveOptions | None = None):
    """Full single-mission pipeline against a set of committed neighbors.

    Search, corridor, refined waypoints, trapezoidal durations, spatial
    solve and conflict check.  A conflicting mission is re-timed along its
    curve (temporal_schedule) and solved jointly with the capsule penalty.
    A failed dense post_check gets one retry (RETRY_FACTOR); a second
    failure, like a ScheduleTimeout, is raised.  The report's attempts,
    like the .attempts of those errors, hold one {"round", "quadrature",
    "outcome"} per attempt (round 0 if scheduled, else None), with outcome
    "passed", the sorted problem names or the exception's name; an attempt
    that ran temporal_schedule adds its search counts (layers, cells,
    blocked).  Planning draws no random numbers: rng is accepted and
    unused, because the benchmark's workloads still pass one, and a change
    to the benchmark can drop it.
    """
    p_o = np.asarray(mission.p_o, dtype=float)
    p_f = np.asarray(mission.p_f, dtype=float)
    a_lim = limits.accel_cap(model)
    if a_lim <= 0.0:
        raise ValueError("thrust limits leave no acceleration margin")
    neighbors = list(neighbors)
    _check_endpoints(p_o, p_f, neighbors, margins)

    path, corridor = pathfind.corridor_search(polymap, p_o, p_f)
    chart = chart_build(corridor, polymap)
    # A straight guide is already shortest; only a graph chain is refined.
    q0 = corridor.switch_points if len(path.waypoints) <= 2 else \
        pathfind.shortest_path_refine(polymap, corridor, chart=chart)
    chain = np.vstack([p_o, q0, p_f]) if len(q0) else np.vstack([p_o, p_f])
    T0 = pathfind.trapezoidal_allocation(chain, limits.v_max, a_lim)
    xi0, tau0 = chart_invert(chart, q0, T0)
    boundary = (minco.BoundaryState.hover(p_o), minco.BoundaryState.hover(p_f))
    corridor_polys = corridor.polytopes(polymap)
    pen_polys = [geom.HalfspacePolytope(p.normals, p.offsets - PEN_BUFFER)
                 for p in corridor_polys]
    pen_limits = limits.tightened(PEN_LIMITS_FRAC)
    pen_margins = replace(margins, M_r=margins.M_r
                          + max(PEN_M_R_PAD, PEN_M_R_SHARE * margins.M_r))
    sched_margins = replace(pen_margins, M_r=pen_margins.M_r + SCHED_CLEARANCE)
    options = options or SolveOptions()
    pen = dict(model=model, limits=pen_limits, corridor_polys=pen_polys)

    rep = solve(chart, mission.t_o, boundary, xi0, tau0, pconfig=pconfig,
                margins=pen_margins, neighbors=(), options=options, **pen)
    check_res = _check_step(margins, limits.v_max)
    scheduled = any(
        not penalty.check_equivalent_criterion(rep.traj, nb, pen_margins,
                                               check_res)[0]
        for nb in neighbors)

    attempts, bump = [], 0.0
    for qf in (1, RETRY_FACTOR):
        record = {"round": 0 if scheduled else None, "quadrature": qf}
        attempts.append(record)
        try:
            if qf > 1:
                rep = solve(chart, rep.traj.t0, boundary, rep.xi, rep.tau,
                            pconfig=replace(pconfig, n_q=pconfig.n_q * qf,
                                            n_t=pconfig.n_t * qf,
                                            n_v=pconfig.n_v * qf),
                            margins=replace(pen_margins,
                                            M_r=pen_margins.M_r + bump),
                            neighbors=neighbors,
                            options=replace(options,
                                            max_iter=qf * options.max_iter,
                                            mu_rounds=2), **pen)
            elif scheduled:
                curve, junction_s = _arc_geometry(rep.traj)
                # Junction passage times can nearly coincide; a leg still
                # needs at least the time its straight-line length demands.
                legs = np.vstack([p_o, rep.traj.waypoints(), p_f])
                leg_floor = np.maximum(
                    np.linalg.norm(np.diff(legs, axis=0), axis=1)
                    / limits.v_max, pathfind.MIN_LEG_DURATION)
                profile = temporal_schedule(
                    curve, neighbors, sched_margins,
                    SCHED_SPEED_SHARE * limits.v_max, a_lim,
                    t_request=mission.t_o, dt=check_res)
                record.update(profile.counts)
                t_marks = [profile.departure]
                t_marks += [profile.time_at(sj) for sj in junction_s]
                t_marks.append(profile.arrival)
                T1 = np.maximum(np.diff(np.asarray(t_marks)), leg_floor)
                rep = solve(chart, t_marks[0], boundary, rep.xi,
                            np.log(T1), pconfig=pconfig, margins=pen_margins,
                            neighbors=neighbors, options=options, **pen)
            post = post_check(rep.traj, corridor_polys, neighbors, margins,
                              model, limits)
        except ScheduleTimeout as exc:
            record.update(exc.counts)
            record["outcome"] = type(exc).__name__
            exc.attempts = attempts
            raise
        except PostCheckFailure as exc:
            record["outcome"] = sorted(exc.problems)
            exc.attempts = attempts
            if qf > 1:
                raise
            if "capsule" in exc.problems:
                depth = -float(exc.margins.get("capsule_margin", 0.0))
                bump = min(0.5 * max(depth, 0.0) + 0.05, 0.5 * margins.M_r)
            continue
        record["outcome"] = "passed"
        break

    report = MissionReport(mission_id=str(mission.id), status="planned",
                           path_length=path.length,
                           corridor_ids=list(corridor.ids),
                           scheduled=scheduled, t_start=rep.traj.t0,
                           t_end=rep.traj.t_end, objective=rep.objective,
                           parts=rep.parts, solver_status=rep.status,
                           post=post, attempts=attempts)
    return rep.traj, report
