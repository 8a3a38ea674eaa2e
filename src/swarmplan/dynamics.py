"""Drag-aware differential flatness for a multicopter.

The map takes flat outputs (position derivatives up to jerk, yaw, yaw rate)
to attitude, thrust and body rates under a lumped drag model

    drag = R D R^T sigma(||v||) v,   D = diag(d_h, d_h, d_v),
    sigma(x) = 1 + C_p x.

Attitude comes from the Hopf fibration: q = q_z (x) q_psi where q_z is the
tilt-only rotation taking e_3 to z_b.  All gradients are analytic; the batch
entry point pushes 11 tangent directions (v, a, j, psi, psi_dot) through the
chain at once.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularAttitude

THRUST_EPS = 1e-6     # minimum ||zeta|| before free-fall singularity
ATTITUDE_EPS = 1e-6   # minimum 1 + z_b(3) before inverted-attitude singularity


@dataclass
class VehicleModel:
    m: float = 1.9
    g: float = 9.81
    d_h: float = 0.475
    d_v: float = 0.475
    C_p: float = 0.01
    eta: float = 1e-8

    def __post_init__(self):
        if self.m <= 0 or self.g <= 0 or self.eta <= 0:
            raise ValueError("m, g, eta must be positive")
        if self.d_h < 0 or self.d_v < 0 or self.C_p < 0:
            raise ValueError("drag coefficients must be nonnegative")

    def sigma(self, speed):
        return 1.0 + self.C_p * speed


@dataclass
class Limits:
    v_max: float = 13.0
    omega_max: float = 2.0 * np.pi / 3.0
    theta_max: float = np.pi / 9.0
    f_min: float = 9.5
    f_max: float = 28.5
    f_m: float = field(init=False)
    f_r: float = field(init=False)

    def __post_init__(self):
        if min(self.v_max, self.omega_max, self.theta_max,
               self.f_min, self.f_max) <= 0:
            raise ValueError("limits must be positive")
        if self.f_max <= self.f_min:
            raise ValueError("f_max must exceed f_min")
        if self.theta_max >= np.pi:
            raise ValueError("theta_max must stay below pi")
        self.f_m = 0.5 * (self.f_max + self.f_min)
        self.f_r = 0.5 * (self.f_max - self.f_min)

    def check_guard(self, model):
        """Thrust floor must dominate the worst-case drag imbalance."""
        bound = (model.d_v - model.d_h) * model.sigma(self.v_max) * self.v_max
        if self.f_min <= bound:
            raise ValueError("f_min violates the drag singularity guard")

    def accel_cap(self, model) -> float:
        """Acceleration a schedule may demand: spare thrust over gravity,
        and for horizontal flight the tilt limit, whichever is smaller."""
        return min(self.f_max / model.m - model.g,
                   model.g * np.tan(self.theta_max))

    def tightened(self, frac: float) -> "Limits":
        """Copy with every bound pulled in by `frac` of its residual scale.

        Soft penalties settle at the constraint surface; optimizing
        against bounds tightened by the audit tolerance keeps the true
        residuals strictly inside it.
        """
        s = np.sqrt(max(1.0 - frac, 0.0))
        f_r = self.f_r * s
        cos_t = min(np.cos(self.theta_max) + frac, 1.0 - 1e-12)
        return Limits(v_max=self.v_max * s, omega_max=self.omega_max * s,
                      theta_max=float(np.arccos(cos_t)),
                      f_min=self.f_m - f_r, f_max=self.f_m + f_r)


@dataclass
class FlatPoint:
    r: np.ndarray
    v: np.ndarray
    a: np.ndarray
    j: np.ndarray
    psi: float = 0.0
    dpsi: float = 0.0

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float).reshape(3)
        self.v = np.asarray(self.v, dtype=float).reshape(3)
        self.a = np.asarray(self.a, dtype=float).reshape(3)
        self.j = np.asarray(self.j, dtype=float).reshape(3)
        for arr in (self.r, self.v, self.a, self.j):
            if not np.all(np.isfinite(arr)):
                raise ValueError("flat outputs must be finite")


@dataclass
class StateInput:
    r: np.ndarray
    v: np.ndarray
    R: np.ndarray
    f: float
    omega: np.ndarray
    z_b: np.ndarray
    drag: np.ndarray


def _qmul(a, b):
    """Hamilton product on (..., 4) arrays, scalar part first."""
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


def _qconj(q):
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _qrot(q):
    """Rotation matrices from unit quaternions, shape (..., 3, 3)."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


# Tangent directions pushed through the batch chain: v, a, j basis vectors
# then psi and psi_dot.
_N_DIRS = 11
_DV = np.zeros((_N_DIRS, 3))
_DV[0:3] = np.eye(3)
_DA = np.zeros((_N_DIRS, 3))
_DA[3:6] = np.eye(3)
_DJ = np.zeros((_N_DIRS, 3))
_DJ[6:9] = np.eye(3)
_DPSI = np.zeros(_N_DIRS)
_DPSI[9] = 1.0
_DDPSI = np.zeros(_N_DIRS)
_DDPSI[10] = 1.0


def flat_batch(model, v, a, j, psi, dpsi, grad=False):
    """Evaluate the flatness chain on n points at once.

    Returns a dict with primal fields (f, omega, z_b, R, drag, speed_sq) and,
    when grad is set, Jacobians f_v, f_a (n,3); zb_v, zb_a, om_v, om_a, om_j
    (n,3,3); om_psi, om_dpsi (n,3).  Raises SingularAttitude if any point
    sits at the free-fall or inverted-attitude singularity.
    """
    v = np.asarray(v, dtype=float).reshape(-1, 3)
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    j = np.asarray(j, dtype=float).reshape(-1, 3)
    n = len(v)
    psi = np.broadcast_to(np.asarray(psi, dtype=float), (n,))
    dpsi = np.broadcast_to(np.asarray(dpsi, dtype=float), (n,))

    speed = np.linalg.norm(v, axis=1)
    s_eta = np.sqrt(speed * speed + model.eta)
    sig = 1.0 + model.C_p * speed
    khm = model.d_h / model.m

    zeta = a + khm * sig[:, None] * v
    zeta[:, 2] += model.g
    nrm = np.linalg.norm(zeta, axis=1)
    if np.any(nrm < THRUST_EPS):
        raise SingularAttitude("zeta vanished (free fall)")
    zb = zeta / nrm[:, None]
    if np.any(zb[:, 2] <= -1.0 + ATTITUDE_EPS):
        raise SingularAttitude("attitude fully inverted")

    Fv = model.m * a + model.d_v * sig[:, None] * v
    Fv[:, 2] += model.m * model.g
    f = np.sum(zb * Fv, axis=1)

    w_sig = model.C_p * np.sum(v * a, axis=1) / s_eta
    dzeta = j + khm * (w_sig[:, None] * v + sig[:, None] * a)
    zb_dot = (dzeta - zb * np.sum(zb * dzeta, axis=1)[:, None]) / nrm[:, None]

    Dq = np.sqrt(2.0 * (1.0 + zb[:, 2]))
    qz = np.stack([0.5 * Dq, -zb[:, 1] / Dq, zb[:, 0] / Dq, np.zeros(n)], axis=1)
    Dq3 = Dq ** 3
    qz_dot = np.stack([
        zb_dot[:, 2] / (2.0 * Dq),
        -zb_dot[:, 1] / Dq + zb[:, 1] * zb_dot[:, 2] / Dq3,
        zb_dot[:, 0] / Dq - zb[:, 0] * zb_dot[:, 2] / Dq3,
        np.zeros(n),
    ], axis=1)

    half = 0.5 * psi
    qpsi = np.stack([np.cos(half), np.zeros(n), np.zeros(n), np.sin(half)], axis=1)
    qpsi_dot = 0.5 * dpsi[:, None] * np.stack(
        [-np.sin(half), np.zeros(n), np.zeros(n), np.cos(half)], axis=1)

    q = _qmul(qz, qpsi)
    q_dot = _qmul(qz_dot, qpsi) + _qmul(qz, qpsi_dot)
    omega = 2.0 * _qmul(_qconj(q), q_dot)[:, 1:]

    out = {
        "f": f,
        "omega": omega,
        "z_b": zb,
        "q": q,
        "speed_sq": speed * speed,
        "zeta_norm": nrm,
    }
    out["R"] = _qrot(q)
    drag_coef = sig[:, None] * v
    out["drag"] = (model.d_h * drag_coef
                   + (model.d_v - model.d_h)
                   * np.sum(zb * drag_coef, axis=1)[:, None] * zb)
    if not grad:
        return out

    # Forward-mode sweep over the 11 canonical directions.  Shapes: primal
    # quantities broadcast as (n, 1, .) against direction stacks (1, D, .).
    vD = v[:, None, :]
    aD = a[:, None, :]
    sigD = sig[:, None]
    s_etaD = s_eta[:, None]
    nrmD = nrm[:, None]
    zbD = zb[:, None, :]
    zeta_dotD = dzeta[:, None, :]
    zb_dotD = zb_dot[:, None, :]

    dv = _DV[None, :, :]
    da = _DA[None, :, :]
    dj = _DJ[None, :, :]
    dpsi_dir = _DPSI[None, :]
    ddpsi_dir = _DDPSI[None, :]

    d_sig = model.C_p * np.sum(vD * dv, axis=2) / s_etaD
    d_zeta = da + khm * (d_sig[:, :, None] * vD + sigD[:, :, None] * dv)
    d_nrm = np.sum(zbD * d_zeta, axis=2)
    d_zb = (d_zeta - zbD * d_nrm[:, :, None]) / nrmD[:, :, None]

    d_F = model.m * da + model.d_v * (d_sig[:, :, None] * vD
                                      + sigD[:, :, None] * dv)
    d_f = np.sum(d_zb * Fv[:, None, :], axis=2) + np.sum(zbD * d_F, axis=2)

    va = np.sum(v * a, axis=1)[:, None]
    d_w = model.C_p * ((np.sum(dv * aD, axis=2) + np.sum(vD * da, axis=2))
                       / s_etaD
                       - va * np.sum(vD * dv, axis=2) / s_etaD ** 3)
    d_dzeta = dj + khm * (d_w[:, :, None] * vD
                          + w_sig[:, None, None] * dv
                          + d_sig[:, :, None] * aD
                          + sigD[:, :, None] * da)

    zb_dt = np.sum(zb * dzeta, axis=1)[:, None]
    d_num = (d_dzeta
             - d_zb * zb_dt[:, :, None]
             - zbD * np.sum(d_zb * zeta_dotD, axis=2)[:, :, None]
             - zbD * np.sum(zbD * d_dzeta, axis=2)[:, :, None])
    d_zb_dot = d_num / nrmD[:, :, None] - zb_dotD * (d_nrm / nrmD)[:, :, None]

    DqD = Dq[:, None]
    d_z3 = d_zb[:, :, 2]
    d_qz = np.stack([
        d_z3 / (2.0 * DqD),
        -d_zb[:, :, 1] / DqD + zb[:, None, 1] * d_z3 / Dq3[:, None],
        d_zb[:, :, 0] / DqD - zb[:, None, 0] * d_z3 / Dq3[:, None],
        np.zeros((n, _N_DIRS)),
    ], axis=2)
    Dq5 = Dq ** 5
    d_qz_dot = np.stack([
        d_zb_dot[:, :, 2] / (2.0 * DqD)
        - zb_dot[:, None, 2] * d_z3 / (2.0 * Dq3[:, None]),
        -d_zb_dot[:, :, 1] / DqD
        + zb_dot[:, None, 1] * d_z3 / Dq3[:, None]
        + d_zb[:, :, 1] * zb_dot[:, None, 2] / Dq3[:, None]
        + zb[:, None, 1] * d_zb_dot[:, :, 2] / Dq3[:, None]
        - 3.0 * zb[:, None, 1] * zb_dot[:, None, 2] * d_z3 / Dq5[:, None],
        d_zb_dot[:, :, 0] / DqD
        - zb_dot[:, None, 0] * d_z3 / Dq3[:, None]
        - d_zb[:, :, 0] * zb_dot[:, None, 2] / Dq3[:, None]
        - zb[:, None, 0] * d_zb_dot[:, :, 2] / Dq3[:, None]
        + 3.0 * zb[:, None, 0] * zb_dot[:, None, 2] * d_z3 / Dq5[:, None],
        np.zeros((n, _N_DIRS)),
    ], axis=2)

    sin_h = np.sin(half)[:, None]
    cos_h = np.cos(half)[:, None]
    zero = np.zeros((n, _N_DIRS))
    d_qpsi = 0.5 * dpsi_dir[:, :, None] * np.stack(
        [-sin_h * np.ones_like(zero), zero, zero,
         cos_h * np.ones_like(zero)], axis=2)
    d_qpsi_dot = (0.5 * ddpsi_dir[:, :, None] * np.stack(
        [-sin_h * np.ones_like(zero), zero, zero,
         cos_h * np.ones_like(zero)], axis=2)
        + 0.25 * dpsi[:, None, None] * dpsi_dir[:, :, None] * np.stack(
        [-cos_h * np.ones_like(zero), zero, zero,
         -sin_h * np.ones_like(zero)], axis=2))

    qzD = qz[:, None, :]
    qpsiD = qpsi[:, None, :]
    qz_dotD = qz_dot[:, None, :]
    qpsi_dotD = qpsi_dot[:, None, :]
    d_q = _qmul(d_qz, qpsiD) + _qmul(qzD, d_qpsi)
    d_q_dot = (_qmul(d_qz_dot, qpsiD) + _qmul(qz_dotD, d_qpsi)
               + _qmul(d_qz, qpsi_dotD) + _qmul(qzD, d_qpsi_dot))
    qD = q[:, None, :]
    q_dotD = q_dot[:, None, :]
    d_omega = 2.0 * (_qmul(_qconj(d_q), q_dotD)
                     + _qmul(_qconj(qD), d_q_dot))[:, :, 1:]

    out["f_v"] = d_f[:, 0:3]
    out["f_a"] = d_f[:, 3:6]
    out["zb_v"] = np.swapaxes(d_zb[:, 0:3, :], 1, 2)
    out["zb_a"] = np.swapaxes(d_zb[:, 3:6, :], 1, 2)
    out["om_v"] = np.swapaxes(d_omega[:, 0:3, :], 1, 2)
    out["om_a"] = np.swapaxes(d_omega[:, 3:6, :], 1, 2)
    out["om_j"] = np.swapaxes(d_omega[:, 6:9, :], 1, 2)
    out["om_psi"] = d_omega[:, 9, :]
    out["om_dpsi"] = d_omega[:, 10, :]
    return out


def flatness_map(model, p):
    """StateInput at a single flat point."""
    out = flat_batch(model, p.v, p.a, p.j, p.psi, p.dpsi)
    return StateInput(r=p.r.copy(), v=p.v.copy(), R=out["R"][0],
                      f=float(out["f"][0]), omega=out["omega"][0],
                      z_b=out["z_b"][0], drag=out["drag"][0])


@dataclass
class FlatnessJacobian:
    f_v: np.ndarray
    f_a: np.ndarray
    zb_v: np.ndarray
    zb_a: np.ndarray
    om_v: np.ndarray
    om_a: np.ndarray
    om_j: np.ndarray
    om_psi: np.ndarray
    om_dpsi: np.ndarray
    speed_sq_v: np.ndarray


def flatness_gradient(model, p):
    """Analytic Jacobians of (f, omega, z_b, speed^2) at a single flat point.

    Rows are outputs, columns inputs; absolute position never enters.
    """
    out = flat_batch(model, p.v, p.a, p.j, p.psi, p.dpsi, grad=True)
    return FlatnessJacobian(
        f_v=out["f_v"][0], f_a=out["f_a"][0],
        zb_v=out["zb_v"][0], zb_a=out["zb_a"][0],
        om_v=out["om_v"][0], om_a=out["om_a"][0], om_j=out["om_j"][0],
        om_psi=out["om_psi"][0], om_dpsi=out["om_dpsi"][0],
        speed_sq_v=2.0 * p.v.copy(),
    )


def limits_residual(model, limits, s):
    """Constraint vector G; all entries <= 0 iff the limits hold."""
    tilt = np.cos(limits.theta_max) - s.z_b[2]
    return np.array([
        float(s.v @ s.v) - limits.v_max ** 2,
        float(s.omega @ s.omega) - limits.omega_max ** 2,
        tilt,
        (s.f - limits.f_m) ** 2 - limits.f_r ** 2,
    ])


def limits_residual_batch(limits, flat):
    """G rows for every point of a flat_batch result, shape (n, 4)."""
    om = flat["omega"]
    return np.stack([
        flat["speed_sq"] - limits.v_max ** 2,
        np.sum(om * om, axis=1) - limits.omega_max ** 2,
        np.cos(limits.theta_max) - flat["z_b"][:, 2],
        (flat["f"] - limits.f_m) ** 2 - limits.f_r ** 2,
    ], axis=1)


def integrate_dynamics(model, r0, v0, R0, times, thrusts, omegas):
    """RK4 rollout of the rigid-body translation with lumped drag.

    times must be uniformly spaced (dt <= 1e-3 recommended); thrust and body
    rates are zero-order-held between samples.  R is re-orthonormalized each
    step.  Verification oracle only; planning never integrates.
    """
    times = np.asarray(times, dtype=float)
    dt = times[1] - times[0]
    D = np.diag([model.d_h, model.d_h, model.d_v])
    g_vec = np.array([0.0, 0.0, -model.g])

    def accel(v, R, f):
        speed = np.linalg.norm(v)
        drag = R @ D @ R.T @ v * model.sigma(speed)
        return g_vec + (R @ np.array([0.0, 0.0, f]) - drag) / model.m

    r = np.asarray(r0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    R = np.asarray(R0, dtype=float).copy()
    trace_r = [r.copy()]
    trace_v = [v.copy()]
    trace_R = [R.copy()]
    for k in range(len(times) - 1):
        f = thrusts[k]
        om = omegas[k]
        # translational RK4 with attitude frozen at the step's midpoint rotation
        Om = np.array([[0.0, -om[2], om[1]],
                       [om[2], 0.0, -om[0]],
                       [-om[1], om[0], 0.0]])
        R_mid = R @ _expm_so3(Om * (0.5 * dt))
        R_end = R @ _expm_so3(Om * dt)

        k1v = accel(v, R, f)
        k1r = v
        k2v = accel(v + 0.5 * dt * k1v, R_mid, f)
        k2r = v + 0.5 * dt * k1v
        k3v = accel(v + 0.5 * dt * k2v, R_mid, f)
        k3r = v + 0.5 * dt * k2v
        k4v = accel(v + dt * k3v, R_end, f)
        k4r = v + dt * k3v
        r = r + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        R = _orthonormalize(R_end)
        trace_r.append(r.copy())
        trace_v.append(v.copy())
        trace_R.append(R.copy())
    return np.array(trace_r), np.array(trace_v), np.array(trace_R)


def _expm_so3(Om):
    """Closed-form exponential of a skew matrix."""
    w = np.array([Om[2, 1], Om[0, 2], Om[1, 0]])
    th = np.linalg.norm(w)
    if th < 1e-12:
        return np.eye(3) + Om
    A = Om / th
    return np.eye(3) + np.sin(th) * A + (1.0 - np.cos(th)) * (A @ A)


def _orthonormalize(R):
    u, _, vt = np.linalg.svd(R)
    return u @ vt
