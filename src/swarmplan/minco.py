"""Piecewise quintic splines pinned by waypoints and durations.

Each piece i is r_i(t) = coeffs_i.T @ beta(t) on local time t in [0, T_i],
beta(t) = (1, t, t^2, t^3, t^4, t^5).  Fixing boundary position, velocity,
acceleration plus interior waypoints and requiring C^4 junctions yields the
unique minimizer of the integrated squared jerk; the defining linear system
is banded and solved in O(M).  Gradients of any functional K(coeffs, T) are
pulled back onto (waypoints, T) through the adjoint of that system.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded

from .errors import SingularSystem

_BAND_L = 7
_BAND_U = 7


def basis(t, order=0):
    """beta^(order)(t) as a length-6 vector."""
    b = np.zeros(6)
    for j in range(order, 6):
        fac = 1.0
        for k in range(order):
            fac *= j - k
        b[j] = fac * t ** (j - order)
    return b


def basis_many(ts, order=0):
    """beta^(order) stacked for a batch of times, shape (n, 6)."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    out = np.zeros((len(ts), 6))
    for j in range(order, 6):
        fac = 1.0
        for k in range(order):
            fac *= j - k
        out[:, j] = fac * ts ** (j - order)
    return out


@dataclass
class BoundaryState:
    """Position, velocity, acceleration pinned at one trajectory end."""

    pos: np.ndarray
    vel: np.ndarray
    acc: np.ndarray

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float).reshape(3)
        self.vel = np.asarray(self.vel, dtype=float).reshape(3)
        self.acc = np.asarray(self.acc, dtype=float).reshape(3)

    @staticmethod
    def hover(pos):
        z = np.zeros(3)
        return BoundaryState(pos, z, z)


@dataclass
class GradientBundle:
    """Partials of a scalar functional w.r.t. coefficients and durations."""

    d_coeffs: np.ndarray   # (M, 6, 3)
    d_T: np.ndarray        # (M,)

    def __iadd__(self, other):
        self.d_coeffs += other.d_coeffs
        self.d_T += other.d_T
        return self

    def scaled(self, w):
        return GradientBundle(w * self.d_coeffs, w * self.d_T)

    @staticmethod
    def zeros(n_pieces):
        return GradientBundle(np.zeros((n_pieces, 6, 3)), np.zeros(n_pieces))


class MincoTrajectory:
    """Stamped piecewise quintic with constant extension outside its domain."""

    def __init__(self, t0, durations, coeffs, boundary):
        self.t0 = float(t0)
        self.T = np.asarray(durations, dtype=float).reshape(-1)
        self.coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 6, 3)
        self.boundary = boundary  # (BoundaryState, BoundaryState)
        if len(self.T) != self.coeffs.shape[0]:
            raise ValueError("piece count mismatch")
        self.knots = self.t0 + np.concatenate([[0.0], np.cumsum(self.T)])

    @property
    def n_pieces(self):
        return len(self.T)

    @property
    def t_end(self):
        return float(self.knots[-1])

    @property
    def total_duration(self):
        return float(np.sum(self.T))

    def eval(self, t, order=0):
        return self.eval_many(np.array([t]), order)[0]

    def eval_many(self, ts, order=0):
        """Batch evaluation; positions extend constantly, derivatives vanish
        outside [t0, t_end]."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        out = np.zeros((len(ts), 3))
        idx = np.searchsorted(self.knots, ts, side="right") - 1
        idx = np.clip(idx, 0, self.n_pieces - 1)
        local = ts - self.knots[idx]
        before = ts < self.knots[0]
        after = ts > self.knots[-1]
        inside = ~(before | after)
        if order == 0:
            out[before] = self.coeffs[0, 0, :]
            if np.any(after):
                b_end = basis(self.T[-1], 0)
                out[after] = self.coeffs[-1].T @ b_end
        if np.any(inside):
            ii = idx[inside]
            bt = basis_many(local[inside], order)
            out[inside] = np.einsum("nj,njd->nd", bt, self.coeffs[ii])
        return out

    @cached_property
    def system(self):
        """(rows, cols, vals) of the defining system's matrix, which only
        the durations enter; construct stores the one it solved with, so
        propagate_gradient does not build it again."""
        return _system_matrix(self.T)

    def waypoints(self):
        """Interior junction positions, shape (M-1, 3)."""
        if self.n_pieces < 2:
            return np.zeros((0, 3))
        pts = [self.coeffs[i].T @ basis(self.T[i], 0)
               for i in range(self.n_pieces - 1)]
        return np.array(pts)


def _system_matrix(durations):
    """Rows, cols, vals triplets of the defining system; only the durations
    enter it."""
    T = durations
    M = len(T)
    rows, cols, vals = [], [], []

    def put(r, c0, vec):
        for j, v in enumerate(vec):
            if v != 0.0:
                rows.append(r)
                cols.append(c0 + j)
                vals.append(v)

    for k in range(3):
        put(k, 0, basis(0.0, k))
    for i in range(M - 1):
        r0 = 3 + 6 * i
        c_i = 6 * i
        c_n = 6 * (i + 1)
        put(r0, c_i, basis(T[i], 0))
        for k in range(1, 5):
            bi = basis(T[i], k)
            bn = -basis(0.0, k)
            put(r0 + k, c_i, bi)
            put(r0 + k, c_n, bn)
        put(r0 + 5, c_n, basis(0.0, 0))
    r_end = 6 * M - 3
    c_m = 6 * (M - 1)
    for k in range(3):
        put(r_end + k, c_m, basis(T[-1], k))
    return np.array(rows), np.array(cols), np.array(vals)


def _rhs(waypoints, start, end):
    """Right-hand side of the defining system: boundary states and each
    interior waypoint twice, at the end of one piece and the start of the
    next."""
    M = len(waypoints) + 1
    rhs = np.zeros((6 * M, 3))
    rhs[0:3] = (start.pos, start.vel, start.acc)
    rhs[3:6 * M - 3:6] = waypoints
    rhs[8:6 * M - 3:6] = waypoints
    rhs[6 * M - 3:] = (end.pos, end.vel, end.acc)
    return rhs


def _banded(rows, cols, vals, n, transpose=False):
    ab = np.zeros((_BAND_L + _BAND_U + 1, n))
    r, c = (cols, rows) if transpose else (rows, cols)
    np.add.at(ab, (_BAND_U + r - c, c), vals)
    return ab


def construct(t0, durations, waypoints, start, end):
    """Build the minimum-jerk spline through the given junction waypoints.

    durations: (M,) positive; waypoints: (M-1, 3); start/end: BoundaryState.
    """
    T = np.asarray(durations, dtype=float).reshape(-1)
    M = len(T)
    if np.any(T <= 0.0):
        raise ValueError("durations must be positive")
    waypoints = np.asarray(waypoints, dtype=float).reshape(-1, 3)
    if waypoints.shape[0] != M - 1:
        raise ValueError("expected M-1 interior waypoints")
    system = _system_matrix(T)
    ab = _banded(*system, 6 * M)
    try:
        sol = solve_banded((_BAND_L, _BAND_U), ab,
                           _rhs(waypoints, start, end))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("banded solve produced non-finite coefficients")
    traj = MincoTrajectory(t0, T, sol.reshape(M, 6, 3), (start, end))
    traj.system = system
    return traj


def propagate_gradient(traj, bundle):
    """Pull (dK/dcoeffs, dK/dT) back to (dK/dwaypoints, dK/dT).

    Solves the transposed banded system for the adjoint, then accounts for
    the duration dependence of every row evaluated at a piece's end time.
    Waypoints and boundary states fill only the right-hand side, which the
    adjoint does not need.
    """
    T = traj.T
    M = traj.n_pieces
    abT = _banded(*traj.system, 6 * M, transpose=True)
    rhs = bundle.d_coeffs.reshape(6 * M, 3)
    lam = solve_banded((_BAND_U, _BAND_L), abT, rhs)
    if not np.all(np.isfinite(lam)):
        raise SingularSystem("adjoint solve produced non-finite values")

    d_q = np.zeros((max(M - 1, 0), 3))
    for i in range(M - 1):
        r0 = 3 + 6 * i
        d_q[i] = lam[r0] + lam[r0 + 5]

    d_T = bundle.d_T.copy()
    for i in range(M - 1):
        r0 = 3 + 6 * i
        ci = traj.coeffs[i]
        for k in range(5):
            dn = ci.T @ basis(T[i], k + 1)
            d_T[i] -= float(lam[r0 + k] @ dn)
    r_end = 6 * M - 3
    cm = traj.coeffs[-1]
    for k in range(3):
        dn = cm.T @ basis(T[-1], k + 1)
        d_T[-1] -= float(lam[r_end + k] @ dn)
    return d_q, d_T


def energy(traj):
    """Integrated squared jerk with exact coefficient/duration gradients."""
    M = traj.n_pieces
    val = 0.0
    d_c = np.zeros((M, 6, 3))
    d_T = np.zeros(M)
    for i in range(M):
        Ti = traj.T[i]
        Q = _jerk_gram(Ti)
        ci = traj.coeffs[i]
        val += float(np.sum(ci * (Q @ ci)))
        d_c[i] = 2.0 * Q @ ci
        jerk_end = ci.T @ basis(Ti, 3)
        d_T[i] = float(jerk_end @ jerk_end)
    return val, GradientBundle(d_c, d_T)


def _jerk_gram(T):
    """Gram matrix of third-derivative basis products over [0, T]."""
    Q = np.zeros((6, 6))
    fac = [0.0, 0.0, 0.0, 6.0, 24.0, 60.0]
    for j in range(3, 6):
        for k in range(3, 6):
            p = j + k - 5
            Q[j, k] = fac[j] * fac[k] * T ** p / p
    return Q
