"""Smoothed exact penalty and the four planning functionals.

phi_mu clamps constraint violations through a C^2 cubic blend:

    phi_mu(x) = 0                       x <= 0
              = (mu - x/2) (x/mu)^3     0 < x < mu
              = x - mu/2                x >= mu

I0 penalizes control effort plus total time, I1 corridor violations, I2
space-time capsule violations against committed neighbors, I3 physical
limits through the flatness map.  Every functional returns its value and
exact gradients with respect to piece coefficients and durations; node
positions scale with the piece duration, so durations enter both the
quadrature weights and the node times.
"""

from dataclasses import dataclass

import numpy as np

from . import minco
from .dynamics import flat_batch, limits_residual_batch


@dataclass
class PenaltyConfig:
    mu: float = 1e-2
    w1: float = 1e5
    w2: float = 1e5
    w3: float = 1e5
    rho: float = 1e-3
    n_q: int = 16
    n_t: int = 8
    n_v: int = 16

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if min(self.w1, self.w2, self.w3) < 0 or self.rho < 0:
            raise ValueError("weights and rho must be nonnegative")
        for name in ("n_q", "n_t", "n_v"):
            v = getattr(self, name)
            if v < 4 or v % 2:
                raise ValueError(f"{name} must be even and at least 4")


@dataclass
class SafetyMargins:
    M_r: float
    M_d: float
    w: float = 1.0

    def __post_init__(self):
        if self.M_r <= 0 or self.M_d < 0:
            raise ValueError("M_r must be positive and M_d nonnegative")
        if not 0.0 < self.w <= 1.0:
            raise ValueError("vertical weight must be in (0, 1]")

    @property
    def W_diag(self):
        return np.array([1.0, 1.0, self.w])

    def wdist_sq(self, d):
        d = np.asarray(d, dtype=float)
        return (d[..., 0] ** 2 + d[..., 1] ** 2 + self.w * d[..., 2] ** 2)

    def wdist(self, d):
        return np.sqrt(self.wdist_sq(d))


def phi(mu, x):
    """Smoothed exact penalty value and derivative at a scalar."""
    v, d = phi_arr(mu, np.array([x], dtype=float))
    return float(v[0]), float(d[0])


def phi_arr(mu, x):
    """Vectorized phi_mu; returns (value, derivative) arrays."""
    x = np.asarray(x, dtype=float)
    val = np.zeros_like(x)
    der = np.zeros_like(x)
    mid = (x > 0.0) & (x < mu)
    hi = x >= mu
    xm = x[mid]
    val[mid] = (mu - 0.5 * xm) * (xm / mu) ** 3
    der[mid] = (3.0 * mu * xm ** 2 - 2.0 * xm ** 3) / mu ** 3
    val[hi] = x[hi] - 0.5 * mu
    der[hi] = 1.0
    return val, der


def _piece_nodes(n):
    """Equally spaced fractions and trapezoid coefficients on [0, 1]."""
    alpha = np.linspace(0.0, 1.0, n)
    coef = np.ones(n)
    coef[0] = coef[-1] = 0.5
    return alpha, coef / (n - 1)


def objective(traj, config):
    """I0: integrated squared jerk plus rho times total time."""
    val, bundle = minco.energy(traj)
    val += config.rho * traj.total_duration
    bundle.d_T += config.rho
    return val, bundle


def corridor_penalty(traj, polytopes, config):
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


def _coeff_bound_boxes(traj):
    """Per-piece interval bounds of the polynomial, conservative."""
    lo = np.empty((traj.n_pieces, 3))
    hi = np.empty((traj.n_pieces, 3))
    for i in range(traj.n_pieces):
        c = traj.coeffs[i]
        powers = traj.T[i] ** np.arange(6)
        dev = np.sum(np.abs(c[1:]) * powers[1:, None], axis=0)
        lo[i] = c[0] - dev
        hi[i] = c[0] + dev
    return lo.min(axis=0), hi.max(axis=0)


def _box_gap(traj, nb, margins):
    """Weighted gap between the coefficient boxes: a lower bound of the
    weighted distance at any two times, parked endpoints included."""
    lo_a, hi_a = _coeff_bound_boxes(traj)
    lo_b, hi_b = _coeff_bound_boxes(nb)
    scale = np.sqrt(margins.W_diag)
    gap = np.maximum(lo_b - hi_a, lo_a - hi_b)
    gap = np.maximum(gap, 0.0) * scale
    return float(np.linalg.norm(gap))


def _prunable(traj, nb, margins):
    """True when phi can be proven zero for the whole neighbor."""
    return _box_gap(traj, nb, margins) > 2.0 * margins.M_r


def capsule_penalty(traj, neighbors, margins, config):
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


def limits_penalty(traj, model, limits, yaw_plan, config):
    """I3: physical limits through the flatness map at quadrature nodes."""
    M = traj.n_pieces
    alpha, coef = _piece_nodes(config.n_v)
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
        psi, dpsi, pgrad = yaw_plan.eval(vel, acc)
        flat = flat_batch(model, vel, acc, jer, psi, dpsi, grad=True)
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
        if pgrad is not None:
            h_psi = np.sum(om_w * flat["om_psi"], axis=1)
            h_dpsi = np.sum(om_w * flat["om_dpsi"], axis=1)
            g_v += h_psi[:, None] * pgrad["psi_v"] + h_dpsi[:, None] * pgrad["dpsi_v"]
            g_a += h_psi[:, None] * pgrad["psi_a"] + h_dpsi[:, None] * pgrad["dpsi_a"]

        bundle.d_coeffs[i] += (B[1].T @ (wt[:, None] * g_v)
                               + B[2].T @ (wt[:, None] * g_a)
                               + B[3].T @ (wt[:, None] * g_j))
        h_dot = (np.sum(g_v * acc, axis=1) + np.sum(g_a * jer, axis=1)
                 + np.sum(g_j * snp, axis=1))
        bundle.d_T[i] += float(np.sum(coef * h) + np.sum(wt * h_dot * alpha))
    return total, bundle


class ConstantYaw:
    """Fixed heading; the default plan."""

    def __init__(self, psi0=0.0):
        self.psi0 = float(psi0)

    def eval(self, vel, acc):
        n = len(vel)
        return np.full(n, self.psi0), np.zeros(n), None


class TangentYaw:
    """Heading follows the horizontal velocity; regularized near hover."""

    def __init__(self, eps=1e-6):
        self.eps = float(eps)

    def eval(self, vel, acc):
        vx, vy = vel[:, 0], vel[:, 1]
        ax, ay = acc[:, 0], acc[:, 1]
        h = vx * vx + vy * vy + self.eps
        psi = np.arctan2(vy, vx)
        dpsi = (vx * ay - vy * ax) / h
        z = np.zeros_like(vx)
        psi_v = np.stack([-vy / h, vx / h, z], axis=1)
        dpsi_v = np.stack([
            (ay - 2.0 * vx * dpsi) / h,
            (-ax - 2.0 * vy * dpsi) / h,
            z,
        ], axis=1)
        dpsi_a = np.stack([-vy / h, vx / h, z], axis=1)
        grads = {"psi_v": psi_v, "psi_a": np.zeros_like(psi_v),
                 "dpsi_v": dpsi_v, "dpsi_a": dpsi_a}
        return psi, dpsi, grads


def composite(traj, config, model=None, limits=None, yaw_plan=None,
              corridor=None, neighbors=None, margins=None):
    """Weighted sum of the active functionals with a merged gradient."""
    total, bundle = objective(traj, config)
    parts = {"I0": total}
    if corridor is not None and config.w1 > 0.0:
        v, b = corridor_penalty(traj, corridor, config)
        parts["I1"] = v
        total += config.w1 * v
        bundle += b.scaled(config.w1)
    if neighbors and config.w2 > 0.0:
        v, b = capsule_penalty(traj, neighbors, margins, config)
        parts["I2"] = v
        total += config.w2 * v
        bundle += b.scaled(config.w2)
    if model is not None and config.w3 > 0.0:
        v, b = limits_penalty(traj, model, limits,
                              yaw_plan or ConstantYaw(), config)
        parts["I3"] = v
        total += config.w3 * v
        bundle += b.scaled(config.w3)
    return total, bundle, parts


def check_equivalent_criterion(traj_a, traj_b, margins, resolution):
    """Symmetric reciprocal-safety check of a pair on the shared clock.

    Presence model: a vehicle is parked at its start before its t0 and at
    its goal after its t_end, for ever.  The pair is safe when a(s) and b(u)
    stay 2 M_r apart, weighted, for all s, u with |s - u| <= 2 M_d.

    When the coefficient boxes are more than 2 M_r apart the box gap minus
    2 M_r is returned, a certified lower bound, with witness (nan, nan).
    Otherwise both orientations are swept, t over one domain and offsets
    v in [-2 M_d, 2 M_d] at the given resolution, and the worst cell is
    polished by alternating golden sections.  Returns (satisfied, worst
    margin, (t_a, t_b)); the witness times produce that margin.
    """
    if resolution <= 0.0:
        raise ValueError("grid resolution must be positive")
    gap = _box_gap(traj_a, traj_b, margins)
    if gap > 2.0 * margins.M_r:
        return True, gap - 2.0 * margins.M_r, (np.nan, np.nan)
    d_ab, (t_a, t_b) = _worst_one_sided(traj_a, traj_b, margins, resolution)
    d_ba, (u_b, u_a) = _worst_one_sided(traj_b, traj_a, margins, resolution)
    if d_ba < d_ab:
        d_ab, t_a, t_b = d_ba, u_a, u_b
    margin = d_ab - 2.0 * margins.M_r
    return margin >= 0.0, margin, (t_a, t_b)


def _window_sq_dists(pos, times, nb, offsets, margins):
    """Squared weighted distances from pos[k], held at times[k], to the
    neighbor at times[k] + offsets[j]; shape (len(times), len(offsets))."""
    grid = (np.asarray(times)[:, None] + offsets[None, :]).ravel()
    nb_pos = nb.eval_many(grid, 0).reshape(len(times), -1, 3)
    return margins.wdist_sq(pos[:, None, :] - nb_pos)


def _worst_one_sided(traj_a, traj_b, margins, resolution):
    """Worst weighted distance of a(t) to b(t + v), t in a's domain, and
    its witness (t, t + v)."""
    t_grid = _closed_grid(traj_a.t0, traj_a.t_end, resolution)
    # With M_d = 0 the window is the single offset 0.
    v_grid = _closed_grid(-2.0 * margins.M_d, 2.0 * margins.M_d, resolution)
    d2 = _window_sq_dists(traj_a.eval_many(t_grid, 0), t_grid, traj_b,
                          v_grid, margins)
    k = int(np.argmin(d2))
    ti, vi = divmod(k, len(v_grid))
    t_best, v_best = t_grid[ti], v_grid[vi]
    on_grid = (float(np.sqrt(d2.flat[k])), t_best, v_best)

    def dist(t, v):
        da = traj_a.eval_many(np.array([t]), 0)[0]
        db = traj_b.eval_many(np.array([t + v]), 0)[0]
        return float(np.sqrt(margins.wdist_sq(da - db)))

    lo_v, hi_v = (-2.0 * margins.M_d, 2.0 * margins.M_d)
    for _ in range(3):
        t_best = _golden(lambda t: dist(t, v_best),
                         max(traj_a.t0, t_best - resolution),
                         min(traj_a.t_end, t_best + resolution))
        if margins.M_d > 0.0:
            v_best = _golden(lambda v: dist(t_best, v),
                             max(lo_v, v_best - resolution),
                             min(hi_v, v_best + resolution))
    worst, t, v = min((dist(t_best, v_best), t_best, v_best), on_grid)
    return worst, (float(t), float(t + v))


def _closed_grid(lo, hi, step):
    if hi <= lo:
        return np.array([lo])
    n = int(np.ceil((hi - lo) / step)) + 1
    return np.linspace(lo, hi, n)


def _golden(fun, lo, hi, iters=40):
    """Golden-section minimizer on [lo, hi]."""
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
