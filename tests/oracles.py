"""Independent reference implementations the tests compare against.

Everything here is written the slow, obvious way on purpose: dense linear
algebra, exhaustive grids, closed forms.  None of it shares assembly or
solver code with the package, except the per-piece penalty loops at the
end: they are the package's earlier form of its quadrature functionals,
kept to pin the stacked pass bit for bit, so they call its kernels.
"""

import numpy as np

from swarmplan import minco
from swarmplan.dynamics import flat_batch, limits_residual_batch
from swarmplan.penalty import _piece_nodes, _prunable, phi_arr


# ---------------------------------------------------------------------------
# minimum-jerk spline via dense endpoint-state quadratic programming

def hermite_matrix(T):
    """Rows map quintic coefficients to (pos, vel, acc) at 0 and at T."""
    A = np.zeros((6, 6))
    A[0, 0] = 1.0
    A[1, 1] = 1.0
    A[2, 2] = 2.0
    for j in range(6):
        A[3, j] = T ** j
    for j in range(1, 6):
        A[4, j] = j * T ** (j - 1)
    for j in range(2, 6):
        A[5, j] = j * (j - 1) * T ** (j - 2)
    return A


def jerk_gram(T):
    """Integral of the outer product of third-derivative monomials on [0, T]."""
    Q = np.zeros((6, 6))
    d3 = [0.0, 0.0, 0.0, 6.0, 24.0, 60.0]
    for j in range(3, 6):
        for k in range(3, 6):
            p = (j - 3) + (k - 3) + 1
            Q[j, k] = d3[j] * d3[k] * T ** p / p
    return Q


def dense_min_jerk(durations, waypoints, start, end):
    """Minimum squared-jerk quintic spline through fixed junction positions.

    Junction (pos, vel, acc) states parameterize the curve; interior
    velocities and accelerations are free variables of one dense solve per
    axis.  start/end are (pos, vel, acc) triples.  Returns (energy, coeffs)
    with coeffs of shape (M, 6, 3) in monomial order.
    """
    T = np.asarray(durations, dtype=float).reshape(-1)
    M = len(T)
    wp = np.asarray(waypoints, dtype=float).reshape(-1, 3)
    if wp.shape[0] != M - 1:
        raise ValueError("expected M-1 interior waypoints")
    n = 3 * (M + 1)
    z = np.zeros((n, 3))
    z[0], z[1], z[2] = start
    z[n - 3], z[n - 2], z[n - 1] = end
    for k in range(1, M):
        z[3 * k] = wp[k - 1]
    free = np.array([3 * k + d for k in range(1, M) for d in (1, 2)],
                    dtype=int)
    fixed = np.setdiff1d(np.arange(n), free)

    G = np.zeros((n, n))
    invs = []
    for i in range(M):
        Ainv = np.linalg.inv(hermite_matrix(T[i]))
        invs.append(Ainv)
        Gi = Ainv.T @ jerk_gram(T[i]) @ Ainv
        sl = slice(3 * i, 3 * i + 6)
        G[sl, sl] += 0.5 * (Gi + Gi.T)
    if len(free):
        H = G[np.ix_(free, free)]
        rhs = -G[np.ix_(free, fixed)] @ z[fixed]
        z[free] = np.linalg.solve(H, rhs)

    energy = 0.0
    coeffs = np.zeros((M, 6, 3))
    for i in range(M):
        c = invs[i] @ z[3 * i:3 * i + 6]
        coeffs[i] = c
        energy += float(np.sum(c * (jerk_gram(T[i]) @ c)))
    return energy, coeffs


def poly_eval(coeffs, t, order=0):
    """Evaluate one (6, 3) monomial coefficient block at local time t."""
    out = np.zeros(3)
    for j in range(order, 6):
        fac = 1.0
        for k in range(order):
            fac *= j - k
        out += fac * t ** (j - order) * coeffs[j]
    return out


# ---------------------------------------------------------------------------
# finite differences

def central_diff(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# reciprocal safety by exhaustive search

def closed_grid(lo, hi, step):
    if hi <= lo:
        return np.array([lo])
    n = int(np.ceil((hi - lo) / step)) + 1
    return np.linspace(lo, hi, n)


def brute_pair_margin(traj_a, traj_b, margins, resolution):
    """Worst weighted distance between the two swept time windows.

    Sweeps absolute time over both stamped domains (padded by the window
    half-width) and both window offsets independently: the definitional
    double-window form, no reduction to a relative offset.
    """
    lo = min(traj_a.t0, traj_b.t0) - margins.M_d
    hi = max(traj_a.t_end, traj_b.t_end) + margins.M_d
    t_grid = closed_grid(lo, hi, resolution)
    if margins.M_d > 0.0:
        g_grid = closed_grid(-margins.M_d, margins.M_d, resolution)
    else:
        g_grid = np.zeros(1)
    best = np.inf
    n_chunk = max(1, int(np.ceil(len(t_grid) / 64.0)))
    for chunk in np.array_split(t_grid, n_chunk):
        tt = (chunk[:, None] + g_grid[None, :]).ravel()
        pa = traj_a.eval_many(tt, 0).reshape(len(chunk), len(g_grid), 3)
        pb = traj_b.eval_many(tt, 0).reshape(len(chunk), len(g_grid), 3)
        d = pa[:, :, None, :] - pb[:, None, :, :]
        d2 = d[..., 0] ** 2 + d[..., 1] ** 2 + margins.w * d[..., 2] ** 2
        best = min(best, float(d2.min()))
    return float(np.sqrt(best)) - 2.0 * margins.M_r


def dense_grid_argmin(traj_a, traj_b, t_grid, v_grid, margins):
    """(d2, flat index) of np.argmin over the whole one-sided grid: squared
    weighted distances of a(t_i) to b(t_i + v_j), index i * len(v_grid) + j,
    every sample evaluated in one batch."""
    times = (t_grid[:, None] + v_grid[None, :]).ravel()
    pb = traj_b.eval_many(times, 0).reshape(len(t_grid), len(v_grid), 3)
    d = traj_a.eval_many(t_grid, 0)[:, None, :] - pb
    d2 = d[..., 0] ** 2 + d[..., 1] ** 2 + margins.w * d[..., 2] ** 2
    k = int(np.argmin(d2))
    return float(d2.flat[k]), k


def golden_section(fun, lo, hi, iters=40):
    """Golden-section minimizer of a scalar function on [lo, hi]."""
    if hi <= lo:
        return lo
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def golden_pair_margin(traj_a, traj_b, margins, resolution):
    """The pair kernel's margin by its earlier polish: from the dense grid
    minimum of each orientation, three rounds of golden sections over
    +- resolution, first in t at a fixed offset v, then in v at that t.
    Minimum over both orientations, less 2 M_r."""
    def one_sided(a, b):
        t_grid = closed_grid(a.t0, a.t_end, resolution)
        v_grid = closed_grid(-2.0 * margins.M_d, 2.0 * margins.M_d,
                             resolution)
        d2, k = dense_grid_argmin(a, b, t_grid, v_grid, margins)
        t_best, v_best = t_grid[k // len(v_grid)], v_grid[k % len(v_grid)]

        def dist(t, v):
            return float(margins.wdist(a.eval(t, 0) - b.eval(t + v, 0)))

        lo_v, hi_v = -2.0 * margins.M_d, 2.0 * margins.M_d
        for _ in range(3):
            t_best = golden_section(lambda t: dist(t, v_best),
                                    max(a.t0, t_best - resolution),
                                    min(a.t_end, t_best + resolution))
            if margins.M_d > 0.0:
                v_best = golden_section(lambda v: dist(t_best, v),
                                        max(lo_v, v_best - resolution),
                                        min(hi_v, v_best + resolution))
        return min(dist(t_best, v_best), float(np.sqrt(d2)))

    worst = min(one_sided(traj_a, traj_b), one_sided(traj_b, traj_a))
    return worst - 2.0 * margins.M_r


# ---------------------------------------------------------------------------
# geometry

def linear_scan_deepest(polytopes, x):
    """Deepest polytope containing x by scanning every polytope."""
    best, best_depth = None, -np.inf
    for i, poly in enumerate(polytopes):
        d = poly.depth(x)
        if d >= 0.0 and d > best_depth:
            best, best_depth = i, d
    return best


def linear_scan_boxes(los, his, x):
    """Indices of all boxes containing x, boundaries included."""
    hit = np.all((los <= x) & (x <= his), axis=1)
    return np.flatnonzero(hit)


def hull_contains(vertices, pts, tol=1e-7):
    """True rows where pts lie inside the convex hull of the vertices."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.asarray(vertices, dtype=float))
    eq = hull.equations
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    val = pts @ eq[:, :3].T + eq[:, 3][None, :]
    return np.all(val <= tol, axis=1)


def clique_graph_distance(points, owners, src, dst):
    """Shortest distance from points[src] to points[dst] when every two
    points that share an owner are joined by a straight edge, by scipy's
    Dijkstra over the explicit edge list."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    points = np.asarray(points, dtype=float)
    pairs = set()
    for i in range(len(points)):
        for j in range(len(points)):
            if i != j and set(owners[i]) & set(owners[j]):
                pairs.add((i, j))
    rows, cols = np.array(sorted(pairs)).T
    w = np.linalg.norm(points[rows] - points[cols], axis=1)
    graph = coo_matrix((w, (rows, cols)), shape=(len(points),) * 2).tocsr()
    return float(dijkstra(graph, indices=src)[dst])


def shortest_chain_length(p_start, p_goal, polys, q0):
    """Length of the shortest chain p_start, q_1 .. q_m, p_goal with each
    q_i in polys[i], by SLSQP on the points themselves from q0."""
    from scipy.optimize import minimize

    p_start = np.asarray(p_start, dtype=float)
    p_goal = np.asarray(p_goal, dtype=float)
    m = len(polys)

    def length(x):
        pts = np.vstack([p_start, x.reshape(m, 3), p_goal])
        return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))

    def grad(x):
        pts = np.vstack([p_start, x.reshape(m, 3), p_goal])
        d = np.diff(pts, axis=0)
        u = d / np.maximum(np.linalg.norm(d, axis=1), 1e-300)[:, None]
        return (u[:-1] - u[1:]).ravel()

    cons = [{"type": "ineq",
             "fun": lambda x, i=i: (polys[i].offsets
                                    - polys[i].normals @ x[3 * i:3 * i + 3]),
             "jac": lambda x, i=i: np.hstack([
                 np.zeros((polys[i].nfaces, 3 * i)), -polys[i].normals,
                 np.zeros((polys[i].nfaces, 3 * (m - i - 1)))])}
            for i in range(m)]
    res = minimize(length, np.asarray(q0, dtype=float).ravel(), jac=grad,
                   method="SLSQP", constraints=cons,
                   options={"ftol": 1e-13, "maxiter": 2000})
    return length(res.x)


# ---------------------------------------------------------------------------
# rest-to-rest speed profile closed forms

def trapezoid_time(d, v_max, a_max):
    """Minimum time of a rest-to-rest ramp profile over distance d."""
    if d <= 0.0:
        return 0.0
    if d >= v_max * v_max / a_max:
        return d / v_max + v_max / a_max
    return 2.0 * np.sqrt(d / a_max)


# ---------------------------------------------------------------------------
# rigid-body rollout, quaternion attitude

def _quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def _quat_from_rotvec(v):
    th = np.linalg.norm(v)
    if th < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    axis = v / th
    return np.concatenate([[np.cos(th / 2.0)], np.sin(th / 2.0) * axis])


def _quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rollout_rk4(m, g, d_h, d_v, c_p, r0, v0, R0, times, thrusts, omegas):
    """Independent RK4 rollout of thrust-plus-drag point dynamics.

    Attitude integrates exactly per step from the zero-order-held body
    rates (quaternion update); translation uses classic RK4 with the
    attitude interpolated to the half step.
    """
    from scipy.spatial.transform import Rotation

    q = Rotation.from_matrix(np.asarray(R0, dtype=float)).as_quat()
    q = np.array([q[3], q[0], q[1], q[2]])
    r = np.asarray(r0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    D = np.diag([d_h, d_h, d_v])
    grav = np.array([0.0, 0.0, -g])
    out = [r.copy()]
    for k in range(len(times) - 1):
        dt = times[k + 1] - times[k]
        om = np.asarray(omegas[k], dtype=float)
        f = float(thrusts[k])
        R_0 = _quat_to_matrix(q)
        q_h = _quat_mul(q, _quat_from_rotvec(om * (0.5 * dt)))
        q_1 = _quat_mul(q, _quat_from_rotvec(om * dt))
        R_h = _quat_to_matrix(q_h / np.linalg.norm(q_h))
        R_1 = _quat_to_matrix(q_1 / np.linalg.norm(q_1))

        def acc(vel, R):
            drag = R @ D @ R.T @ vel * (1.0 + c_p * np.linalg.norm(vel))
            return grav + (f * R[:, 2] - drag) / m

        k1v = acc(v, R_0)
        k2v = acc(v + 0.5 * dt * k1v, R_h)
        k3v = acc(v + 0.5 * dt * k2v, R_h)
        k4v = acc(v + dt * k3v, R_1)
        k1r = v
        k2r = v + 0.5 * dt * k1v
        k3r = v + 0.5 * dt * k2v
        k4r = v + dt * k3v
        r = r + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        q = q_1 / np.linalg.norm(q_1)
        out.append(r.copy())
    return np.array(out)


# ---------------------------------------------------------------------------
# limit residuals at one state

def limits_residual(limits, v, omega, z_b, f):
    """Constraint vector G at one state; all entries <= 0 iff the speed,
    body-rate, tilt and thrust limits hold."""
    return np.array([
        float(v @ v) - limits.v_max ** 2,
        float(omega @ omega) - limits.omega_max ** 2,
        np.cos(limits.theta_max) - z_b[2],
        (f - limits.f_m) ** 2 - limits.f_r ** 2,
    ])


# ---------------------------------------------------------------------------
# per-piece quadrature functionals: one piece at a time, as the package
# computed them before its stacked pass

def per_piece_corridor_penalty(traj, polytopes, config):
    """I1: corridor containment enforced piecewise at quadrature nodes."""
    M = traj.n_pieces
    if len(polytopes) != M:
        raise ValueError("expected one corridor polytope per piece")
    alpha, coef = _piece_nodes(config.n_q)
    total = 0.0
    bundle = minco.GradientBundle.zeros(M)
    for i in range(M):
        Ti = traj.T[i]
        ts = alpha * Ti
        wt = coef * Ti
        B0 = minco.basis_many(ts, 0)
        B1 = minco.basis_many(ts, 1)
        ci = traj.coeffs[i]
        pos = B0 @ ci
        vel = B1 @ ci
        poly = polytopes[i]
        viol = pos @ poly.normals.T - poly.offsets
        val, der = phi_arr(config.mu, viol)
        h = np.sum(val, axis=1)
        total += float(wt @ h)
        S = der @ poly.normals
        bundle.d_coeffs[i] += B0.T @ (wt[:, None] * S)
        h_dot = np.sum(S * vel, axis=1)
        bundle.d_T[i] += float(np.sum(coef * h) + np.sum(wt * h_dot * alpha))
    return total, bundle


def per_piece_capsule_penalty(traj, neighbors, margins, config):
    """I2: space-time capsule separation from committed neighbors.

    For each quadrature node at absolute time t the neighbor is scanned over
    t + v, v in [-2 M_d, 2 M_d].  Durations move both the node inside its own
    piece and the absolute clock of every later node, so earlier pieces pick
    up gradient through the neighbor's local velocity.
    """
    M = traj.n_pieces
    bundle = minco.GradientBundle.zeros(M)
    total = 0.0
    if not neighbors:
        return total, bundle
    alpha, coef = _piece_nodes(config.n_t)
    if margins.M_d > 0.0:
        v_nodes = np.linspace(-2.0 * margins.M_d, 2.0 * margins.M_d, config.n_v)
        v_wt = np.full(config.n_v, 4.0 * margins.M_d / (config.n_v - 1))
        v_wt[0] *= 0.5
        v_wt[-1] *= 0.5
    else:
        # Degenerate capsule: pure same-instant distance penalty.
        v_nodes = np.array([0.0])
        v_wt = np.array([1.0])
    Wd = margins.W_diag
    thresh = 4.0 * margins.M_r ** 2

    offsets = traj.knots[:-1]
    for nb in neighbors:
        if _prunable(traj, nb, margins):
            continue
        s_per_piece = np.zeros(M)
        for i in range(M):
            Ti = traj.T[i]
            ts = alpha * Ti
            wt = coef * Ti
            B0 = minco.basis_many(ts, 0)
            B1 = minco.basis_many(ts, 1)
            ci = traj.coeffs[i]
            pos = B0 @ ci
            vel = B1 @ ci
            t_abs = offsets[i] + ts
            grid = t_abs[:, None] + v_nodes[None, :]
            nb_pos = nb.eval_many(grid.ravel(), 0).reshape(len(ts), -1, 3)
            nb_vel = nb.eval_many(grid.ravel(), 1).reshape(len(ts), -1, 3)
            d = pos[:, None, :] - nb_pos
            wd = d * Wd
            arg = thresh - np.sum(d * wd, axis=2)
            val, der = phi_arr(config.mu, arg)
            h = val @ v_wt
            total += float(wt @ h)
            g_pos = np.einsum("kl,l,klx->kx", der, v_wt, -2.0 * wd)
            s_t = np.einsum("kl,l,klx,klx->k", der, v_wt, 2.0 * wd, nb_vel)
            bundle.d_coeffs[i] += B0.T @ (wt[:, None] * g_pos)
            h_dot = np.sum(g_pos * vel, axis=1) + s_t
            bundle.d_T[i] += float(np.sum(coef * h) + np.sum(wt * h_dot * alpha))
            s_per_piece[i] = float(np.sum(wt * s_t))
        # A longer piece j delays every node of pieces j+1.. on the absolute
        # clock, shifting where the neighbor is sampled.
        later = np.concatenate([np.cumsum(s_per_piece[::-1])[::-1][1:], [0.0]])
        bundle.d_T += later
    return total, bundle


def per_piece_limits_penalty(traj, model, limits, config):
    """I3: physical limits through the flatness map at quadrature nodes,
    heading 0."""
    M = traj.n_pieces
    alpha, coef = _piece_nodes(config.n_q)
    total = 0.0
    bundle = minco.GradientBundle.zeros(M)
    for i in range(M):
        Ti = traj.T[i]
        ts = alpha * Ti
        wt = coef * Ti
        ci = traj.coeffs[i]
        B = [minco.basis_many(ts, k) for k in range(5)]
        vel = B[1] @ ci
        acc = B[2] @ ci
        jer = B[3] @ ci
        snp = B[4] @ ci
        flat = flat_batch(model, vel, acc, jer, grad=True)
        G = limits_residual_batch(limits, flat)
        val, der = phi_arr(config.mu, G)
        h = np.sum(val, axis=1)
        total += float(wt @ h)

        om = flat["omega"]
        om_w = 2.0 * der[:, 1:2] * om                      # (n,3)
        g_v = (2.0 * der[:, 0:1] * vel
               + np.einsum("nx,nxj->nj", om_w, flat["om_v"])
               - der[:, 2:3] * flat["zb_v"][:, 2, :]
               + (2.0 * der[:, 3] * (flat["f"] - limits.f_m))[:, None]
               * flat["f_v"])
        g_a = (np.einsum("nx,nxj->nj", om_w, flat["om_a"])
               - der[:, 2:3] * flat["zb_a"][:, 2, :]
               + (2.0 * der[:, 3] * (flat["f"] - limits.f_m))[:, None]
               * flat["f_a"])
        g_j = np.einsum("nx,nxj->nj", om_w, flat["om_j"])

        bundle.d_coeffs[i] += (B[1].T @ (wt[:, None] * g_v)
                               + B[2].T @ (wt[:, None] * g_a)
                               + B[3].T @ (wt[:, None] * g_j))
        h_dot = (np.sum(g_v * acc, axis=1) + np.sum(g_a * jer, axis=1)
                 + np.sum(g_j * snp, axis=1))
        bundle.d_T[i] += float(np.sum(coef * h) + np.sum(wt * h_dot * alpha))
    return total, bundle
