"""Smoothed exact penalty and the four planning functionals.

phi_mu clamps constraint violations through a C^2 cubic blend:

    phi_mu(x) = 0                       x <= 0
              = (mu - x/2) (x/mu)^3     0 < x < mu
              = x - mu/2                x >= mu

I0 penalizes control effort plus total time, I1 corridor violations, I2
space-time capsule violations against committed neighbors, I3 physical
limits through the flatness map at heading 0, which constrains nothing
(see dynamics).  Every functional returns its value and exact gradients
with respect to piece coefficients and durations; node positions scale
with the piece duration, so durations enter both the quadrature weights
and the node times.

I1, I2 and I3 evaluate all pieces' nodes in one stacked pass
(_stacked_nodes): one batched basis product per derivative order, and for
I3 one flat_batch call.  Only the scalar sums run piece by piece, in piece
order, so values and gradients are bit-identical to evaluating one piece at
a time (tests/oracles.py keeps those per-piece loops as the reference).
"""

from dataclasses import dataclass
from math import comb

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
    n_q: int = 16    # quadrature nodes per piece: corridor and limits
    n_t: int = 8     # capsule nodes per piece on the mission's clock
    n_v: int = 16    # capsule delay offsets across [-2 M_d, 2 M_d]

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


@dataclass
class _Nodes:
    """n quadrature nodes on each of a trajectory's M pieces, stacked."""

    alpha: np.ndarray   # (n,) node fractions of the piece
    coef: np.ndarray    # (n,) trapezoid coefficients on [0, 1]
    ts: np.ndarray      # (M, n) local node times alpha T_i
    wt: np.ndarray      # (M, n) quadrature weights coef T_i
    basis: dict         # order -> (M, n, 6) basis at the nodes
    deriv: dict         # order -> (M, n, 3) derivative at the nodes


def _stacked_nodes(traj, n, orders):
    """Nodes, weights, basis and derivatives of the given orders on every
    piece at once; each derivative is one batched matmul of the basis with
    the (M, 6, 3) coefficients, which equals the per-piece products."""
    alpha, coef = _piece_nodes(n)
    T = traj.T[:, None]
    ts = alpha * T
    basis = {k: minco.basis_many(ts, k).reshape(traj.n_pieces, n, 6)
             for k in orders}
    deriv = {k: np.matmul(b, traj.coeffs) for k, b in basis.items()}
    return _Nodes(alpha, coef, ts, coef * T, basis, deriv)


def _integrate(nodes, h, h_dot, grads, bundle, total=0.0):
    """Add the quadrature of the integrand h (M, n) to total and its
    gradient to bundle; returns the total.

    h_dot is dh/dt along the piece and grads maps a derivative order k to
    dh/d(derivative k), (M, n, 3).  A duration moves both the weights and
    the node times.  The scalar sums stay per piece and in piece order: an
    einsum over all rows rounds differently from each piece's dot product.
    """
    for i in range(len(h)):
        wt = nodes.wt[i]
        total += float(wt @ h[i])
        bundle.d_T[i] += float(np.sum(nodes.coef * h[i])
                               + np.sum(wt * h_dot[i] * nodes.alpha))
    w = nodes.wt[:, :, None]
    d_coeffs = None
    for k, g in grads.items():
        term = np.matmul(nodes.basis[k].transpose(0, 2, 1), w * g)
        d_coeffs = term if d_coeffs is None else d_coeffs + term
    bundle.d_coeffs += d_coeffs
    return total


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
    n = config.n_q
    nodes = _stacked_nodes(traj, n, (0, 1))
    pos = nodes.deriv[0]
    # Face counts differ, so the violations are ragged: one phi_arr over
    # all of them, cut back to pieces.
    viol = [pos[i] @ poly.normals.T - poly.offsets
            for i, poly in enumerate(polytopes)]
    val, der = phi_arr(config.mu, np.concatenate([v.ravel() for v in viol]))
    cuts = np.cumsum([v.size for v in viol])[:-1]
    h = np.empty((M, n))
    S = np.empty((M, n, 3))
    for i, (poly, v_i, d_i) in enumerate(zip(polytopes, np.split(val, cuts),
                                             np.split(der, cuts))):
        h[i] = np.sum(v_i.reshape(n, -1), axis=1)
        S[i] = d_i.reshape(n, -1) @ poly.normals
    h_dot = np.sum(S * nodes.deriv[1], axis=2)
    bundle = minco.GradientBundle.zeros(M)
    total = _integrate(nodes, h, h_dot, {0: S}, bundle)
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


def _box_gap(box, nb, margins):
    """Weighted gap between a trajectory's coefficient box and the
    neighbor's: a lower bound of the weighted distance at any two times,
    parked endpoints included."""
    lo_a, hi_a = box
    lo_b, hi_b = _coeff_bound_boxes(nb)
    scale = np.sqrt(margins.W_diag)
    gap = np.maximum(lo_b - hi_a, lo_a - hi_b)
    gap = np.maximum(gap, 0.0) * scale
    return float(np.linalg.norm(gap))


def _prunable(traj, nb, margins, box=None):
    """True when phi can be proven zero for the whole neighbor; box is
    traj's coefficient box, for a caller that already has it."""
    if box is None:
        box = _coeff_bound_boxes(traj)
    return _box_gap(box, nb, margins) > 2.0 * margins.M_r


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
    n = config.n_t
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

    nodes = _stacked_nodes(traj, n, (0, 1))
    pos, vel = nodes.deriv[0], nodes.deriv[1]
    t_abs = traj.knots[:-1, None] + nodes.ts
    grid = (t_abs[:, :, None] + v_nodes).ravel()
    box = _coeff_bound_boxes(traj)
    for nb in neighbors:
        if _prunable(traj, nb, margins, box):
            continue
        nb_pos = nb.eval_many(grid, 0).reshape(M, n, -1, 3)
        nb_vel = nb.eval_many(grid, 1).reshape(M, n, -1, 3)
        d = pos[:, :, None, :] - nb_pos
        wd = d * Wd
        arg = thresh - np.sum(d * wd, axis=3)
        val, der = phi_arr(config.mu, arg)
        h = np.matmul(val, v_wt)
        g_pos = np.einsum("mkl,l,mklx->mkx", der, v_wt, -2.0 * wd)
        s_t = np.einsum("mkl,l,mklx,mklx->mk", der, v_wt, 2.0 * wd, nb_vel)
        h_dot = np.sum(g_pos * vel, axis=2) + s_t
        total = _integrate(nodes, h, h_dot, {0: g_pos}, bundle, total)
        s_per_piece = np.array([float(np.sum(nodes.wt[i] * s_t[i]))
                                for i in range(M)])
        # A longer piece j delays every node of pieces j+1.. on the absolute
        # clock, shifting where the neighbor is sampled.
        later = np.concatenate([np.cumsum(s_per_piece[::-1])[::-1][1:], [0.0]])
        bundle.d_T += later
    return total, bundle


def limits_penalty(traj, model, limits, config):
    """I3: physical limits through the flatness map at quadrature nodes."""
    M = traj.n_pieces
    n = config.n_q
    nodes = _stacked_nodes(traj, n, (1, 2, 3, 4))
    vel, acc, jer, snp = (nodes.deriv[k].reshape(-1, 3) for k in (1, 2, 3, 4))
    flat = flat_batch(model, vel, acc, jer, grad=True)
    G = limits_residual_batch(limits, flat)
    val, der = phi_arr(config.mu, G)
    h = np.sum(val, axis=1)

    om_w = 2.0 * der[:, 1:2] * flat["omega"]           # (M n, 3)
    f_w = (2.0 * der[:, 3] * (flat["f"] - limits.f_m))[:, None]
    g_v = (2.0 * der[:, 0:1] * vel
           + np.einsum("nx,nxj->nj", om_w, flat["om_v"])
           - der[:, 2:3] * flat["zb_v"][:, 2, :]
           + f_w * flat["f_v"])
    g_a = (np.einsum("nx,nxj->nj", om_w, flat["om_a"])
           - der[:, 2:3] * flat["zb_a"][:, 2, :]
           + f_w * flat["f_a"])
    g_j = np.einsum("nx,nxj->nj", om_w, flat["om_j"])

    h_dot = (np.sum(g_v * acc, axis=1) + np.sum(g_a * jer, axis=1)
             + np.sum(g_j * snp, axis=1))
    bundle = minco.GradientBundle.zeros(M)
    total = _integrate(nodes, h.reshape(M, n), h_dot.reshape(M, n),
                       {1: g_v.reshape(M, n, 3), 2: g_a.reshape(M, n, 3),
                        3: g_j.reshape(M, n, 3)}, bundle)
    return total, bundle


def composite(traj, config, model=None, limits=None, corridor=None,
              neighbors=None, margins=None):
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
        v, b = limits_penalty(traj, model, limits, config)
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
    v in [-2 M_d, 2 M_d] at the given resolution.  Each sweep finds the
    grid sample np.argmin over the whole grid would return, the first
    (t, v) in row-major order among the smallest, by Lipschitz branch and
    bound (_grid_argmin), then polishes it on a few sample grids zoomed in
    around it, each _ZOOM_K / 2 times finer than the last
    (_worst_one_sided), so the margin is never above the grid's.  Returns
    (satisfied, worst margin, (t_a, t_b)); the witness times produce that
    margin.
    """
    if resolution <= 0.0:
        raise ValueError("grid resolution must be positive")
    gap = _box_gap(_coeff_bound_boxes(traj_a), traj_b, margins)
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
    neighbor at times[k] + offsets[j]; shape (len(pos), len(offsets)).  A
    single time holds every row."""
    grid = (np.asarray(times)[:, None] + offsets[None, :]).ravel()
    nb_pos = nb.eval_many(grid, 0).reshape(len(times), -1, 3)
    return margins.wdist_sq(pos[:, None, :] - nb_pos)


def _worst_one_sided(traj_a, traj_b, margins, resolution):
    """Worst weighted distance of a(t) to b(t + v), t in a's domain, and
    its witness (t, t + v).

    The grid minimum (_grid_argmin) is polished by zooming: each level
    samples a (2 _ZOOM_K + 1)^2 grid of (t, v) offsets spanning +- step
    around the best sample so far, t clipped to a's domain and v to
    [-2 M_d, 2 M_d] (the single offset 0 when M_d = 0), keeps the smallest
    sample and divides the step by _ZOOM_K / 2.  The result is never above
    the grid sample.
    """
    t_grid = _closed_grid(traj_a.t0, traj_a.t_end, resolution)
    # With M_d = 0 the window is the single offset 0.
    v_grid = _closed_grid(-2.0 * margins.M_d, 2.0 * margins.M_d, resolution)
    d2, k = _grid_argmin(traj_a, traj_b, t_grid, v_grid, margins)
    ti, vi = divmod(k, len(v_grid))
    best = (float(np.sqrt(d2)), t_grid[ti], v_grid[vi])
    hi_v = 2.0 * margins.M_d
    step = resolution
    for _ in range(_ZOOM_LEVELS):
        _, t, v = best
        ts = np.clip(t + step * _ZOOM, traj_a.t0, traj_a.t_end)
        vs = np.clip(v + step * _ZOOM, -hi_v, hi_v) if hi_v > 0.0 else v_grid
        d2 = _window_sq_dists(traj_a.eval_many(ts, 0), ts, traj_b, vs, margins)
        i, j = divmod(int(np.argmin(d2)), len(vs))
        best = min((float(np.sqrt(d2[i, j])), ts[i], vs[j]), best)
        step /= _ZOOM_K / 2
    worst, t, v = best
    return worst, (float(t), float(t + v))


_BNB_SLACK = 1e-6   # m; covers rounding in the samples and at junctions
# The polish's zoom: _ZOOM_LEVELS levels of (2 _ZOOM_K + 1)^2 samples, two
# batched samplings each.  A 2-D grid per level follows valleys diagonal in
# (t, v), where alternating 1-D searches stall.  Each level spans +- two of
# the last level's sample spacings, as in a flat diagonal valley the best
# sample can sit more than one spacing from the minimum; the last spacing
# is resolution / 31250 (6.4e-7 s at the audit's 0.02 s).
_ZOOM_K = 10
_ZOOM_LEVELS = 6
_ZOOM = np.arange(-_ZOOM_K, _ZOOM_K + 1) / _ZOOM_K


def _grid_argmin(traj_a, traj_b, t_grid, v_grid, margins):
    """(d2, flat index) of np.argmin over the squared weighted distances
    of a(t_i) to b(t_i + v_j), index i * len(v_grid) + j, sampled exactly
    as _window_sq_dists samples them, but only where needed.

    Starting from the whole index grid, each cell is bounded below by its
    centre's distance less (S_a + S_b) h_t + S_b h_v, with h_t and h_v the
    centre's farthest reach in the cell and S_a, S_b weighted speed bounds
    over the times the cell spans (_span_speed).  A cell whose bound
    exceeds the best sample by more than _BNB_SLACK holds no minimum and
    is dropped; the others are quartered until they are single samples.
    Where b is parked over a whole cell only its first column is kept, as
    each row ties exactly.  So the first of the smallest samples is always
    evaluated, and np.argmin over the evaluated ones breaks ties as the
    dense grid does.
    """
    n_t, n_v = len(t_grid), len(v_grid)
    pos_a = traj_a.eval_many(t_grid, 0)
    speed_a = _speed_bounds(traj_a, margins)
    speed_b = _speed_bounds(traj_b, margins)
    d2 = np.full(n_t * n_v, np.inf)   # inf until sampled
    best = np.inf
    # Cells [i0, i1] x [j0, j1], inclusive; the first is the whole grid.
    i0, i1, j0, j1 = (np.array([n]) for n in (0, n_t - 1, 0, n_v - 1))
    while len(i0):
        ic, jc = (i0 + i1) // 2, (j0 + j1) // 2
        k = ic * n_v + jc
        # A level's cells are disjoint, so its centres are distinct.
        new = k[np.isinf(d2[k])]
        ti, vj = np.divmod(new, n_v)
        nb_pos = traj_b.eval_many(t_grid[ti] + v_grid[vj], 0)
        d2[new] = margins.wdist_sq(pos_a[ti] - nb_pos)
        best = min(best, float(np.min(d2[new], initial=np.inf)))
        h_t = np.maximum(t_grid[ic] - t_grid[i0], t_grid[i1] - t_grid[ic])
        h_v = np.maximum(v_grid[jc] - v_grid[j0], v_grid[j1] - v_grid[jc])
        s_a = _span_speed(traj_a, speed_a, t_grid[i0], t_grid[i1])
        lo_b, hi_b = t_grid[i0] + v_grid[j0], t_grid[i1] + v_grid[j1]
        s_b = _span_speed(traj_b, speed_b, lo_b, hi_b)
        lower = np.sqrt(d2[k]) - (s_a + s_b) * h_t - s_b * h_v
        live = ((i1 > i0) | (j1 > j0)) & (
            lower <= np.sqrt(best) + _BNB_SLACK)
        # b's position is the same float at every parked time.
        parked = (hi_b < traj_b.t0) | (lo_b > traj_b.t_end)
        j1 = np.where(parked, j0, j1)
        i0, i1, j0, j1 = _quarter(i0[live], i1[live], j0[live], j1[live])
    k = int(np.argmin(d2))
    return float(d2[k]), k


def _quarter(i0, i1, j0, j1):
    """Split cells [i0, i1] x [j0, j1] in half along each axis longer than
    one sample."""
    def halves(lo, hi):
        mid = (lo + hi) // 2
        split = hi > lo
        owner = np.concatenate([np.arange(len(lo)), np.flatnonzero(split)])
        return (owner, np.concatenate([lo, mid[split] + 1]),
                np.concatenate([mid, hi[split]]))

    own_t, a0, a1 = halves(i0, i1)
    own_v, b0, b1 = halves(j0[own_t], j1[own_t])
    return a0[own_v], a1[own_v], b0, b1


# Bernstein coefficients of a quartic on [0, 1] from its monomial ones.
_MONO_TO_BERN4 = np.array([[comb(k, m) / comb(4, m) if m <= k else 0.0
                            for m in range(5)] for k in range(5)])


def _speed_bounds(traj, margins):
    """Per piece, the largest weighted norm of the Bernstein control points
    of its velocity on [0, T_i]; the velocity lies in their convex hull, so
    this caps the weighted speed on the piece."""
    m = np.arange(5)
    mono = ((m + 1)[None, :, None] * traj.coeffs[:, 1:, :]
            * (traj.T[:, None] ** m)[:, :, None])
    bern = np.einsum("km,imd->ikd", _MONO_TO_BERN4, mono)
    return np.sqrt(np.max(margins.wdist_sq(bern), axis=1))


def _span_speed(traj, speed, lo, hi):
    """Per span [lo, hi], the largest speed bound over the pieces it meets,
    ends included; 0 where the vehicle is parked throughout."""
    meets = (traj.knots[:-1, None] <= hi) & (traj.knots[1:, None] >= lo)
    return np.max(np.where(meets, speed[:, None], 0.0), axis=0)


def _closed_grid(lo, hi, step):
    if hi <= lo:
        return np.array([lo])
    n = int(np.ceil((hi - lo) / step)) + 1
    return np.linspace(lo, hi, n)
