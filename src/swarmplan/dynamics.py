"""Drag-aware differential flatness for a multicopter.

The map takes flat outputs (position derivatives up to jerk) to attitude,
thrust and body rates under a lumped drag model

    drag = R D R^T sigma(||v||) v,   D = diag(d_h, d_h, d_v),
    sigma(x) = 1 + C_p x.

Attitude comes from the Hopf fibration at heading 0: q = q_z, the
tilt-only rotation taking e_3 to z_b, so q = (w, x, y, 0) and the body
rates need no quaternion product.  Gradients are analytic: flat_batch
pushes 9 tangent directions (v, a, j) through the chain at once.

Planning holds the heading at 0, and that constrains nothing: thrust, z_b
and drag do not depend on the heading psi, and at psi_dot = 0 the body
rates at any other heading are the heading-0 rates turned by -psi about
the body z axis, so every limit residual equals its heading-0 value (the
rate row up to rounding).
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


def _rates(q, q_dot):
    """Body rates 2 (q* (x) q_dot)[1:] of a tilt quaternion q = (w, x, y, 0)
    and its rate q_dot = (w', x', y', 0), read from the last axis.  Each
    term dropped from the full product has an exact zero factor, so the
    values are the full product's."""
    w, x, y = q[..., 0], q[..., 1], q[..., 2]
    dw, dx, dy = q_dot[..., 0], q_dot[..., 1], q_dot[..., 2]
    return 2.0 * np.stack([w * dx - x * dw, w * dy - y * dw, y * dx - x * dy],
                          axis=-1)


# Tangent directions pushed through the batch chain: v, a, j basis vectors.
_N_DIRS = 9
_DV = np.zeros((_N_DIRS, 3))
_DV[0:3] = np.eye(3)
_DA = np.zeros((_N_DIRS, 3))
_DA[3:6] = np.eye(3)
_DJ = np.zeros((_N_DIRS, 3))
_DJ[6:9] = np.eye(3)


def flat_batch(model, v, a, j, grad=False):
    """Evaluate the flatness chain on n points at once, at heading 0.

    Returns a dict with primal fields (f, omega, z_b, q, drag, speed_sq),
    where q = (w, x, y, 0) is the tilt quaternion, and, when grad is set,
    Jacobians f_v, f_a (n,3) and zb_v, zb_a, om_v, om_a, om_j (n,3,3) with
    respect to v, a and j.  Raises SingularAttitude if any point sits at
    the free-fall or inverted-attitude singularity.
    """
    v = np.asarray(v, dtype=float).reshape(-1, 3)
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    j = np.asarray(j, dtype=float).reshape(-1, 3)
    n = len(v)

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
    ], axis=1)

    out = {
        "f": f,
        "omega": _rates(qz, qz_dot),
        "z_b": zb,
        "q": qz,
        "speed_sq": speed * speed,
    }
    drag_coef = sig[:, None] * v
    out["drag"] = (model.d_h * drag_coef
                   + (model.d_v - model.d_h)
                   * np.sum(zb * drag_coef, axis=1)[:, None] * zb)
    if not grad:
        return out

    # Forward-mode sweep over the 9 canonical directions.  Shapes: primal
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
    ], axis=2)

    d_omega = (_rates(d_qz, qz_dot[:, None, :])
               + _rates(qz[:, None, :], d_qz_dot))

    out["f_v"] = d_f[:, 0:3]
    out["f_a"] = d_f[:, 3:6]
    out["zb_v"] = np.swapaxes(d_zb[:, 0:3, :], 1, 2)
    out["zb_a"] = np.swapaxes(d_zb[:, 3:6, :], 1, 2)
    out["om_v"] = np.swapaxes(d_omega[:, 0:3, :], 1, 2)
    out["om_a"] = np.swapaxes(d_omega[:, 3:6, :], 1, 2)
    out["om_j"] = np.swapaxes(d_omega[:, 6:9, :], 1, 2)
    return out


def limits_residual_batch(limits, flat):
    """G rows for every point of a flat_batch result, shape (n, 4)."""
    om = flat["omega"]
    return np.stack([
        flat["speed_sq"] - limits.v_max ** 2,
        np.sum(om * om, axis=1) - limits.omega_max ** 2,
        np.cos(limits.theta_max) - flat["z_b"][:, 2],
        (flat["f"] - limits.f_m) ** 2 - limits.f_r ** 2,
    ], axis=1)
