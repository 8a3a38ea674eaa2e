import numpy as np
import pytest

from swarmplan.dynamics import (Limits, VehicleModel, flat_batch,
                                limits_residual_batch)
from swarmplan.errors import SingularAttitude

import oracles


def analytic_state(t):
    """Smooth figure trajectory with analytic derivatives: r, v, a, j, each
    with a leading axis over the times t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))[:, None]
    r = np.hstack([3 * np.sin(0.7 * t), 2 * np.cos(0.9 * t),
                   10 + 0.8 * np.sin(0.5 * t)])
    v = np.hstack([2.1 * np.cos(0.7 * t), -1.8 * np.sin(0.9 * t),
                   0.4 * np.cos(0.5 * t)])
    a = np.hstack([-1.47 * np.sin(0.7 * t), -1.62 * np.cos(0.9 * t),
                   -0.2 * np.sin(0.5 * t)])
    j = np.hstack([-1.029 * np.cos(0.7 * t), 1.458 * np.sin(0.9 * t),
                   -0.1 * np.cos(0.5 * t)])
    return r, v, a, j


def attitudes(flat):
    """Rotation matrices of a flat_batch result, from its quaternions."""
    return np.array([oracles._quat_to_matrix(q) for q in flat["q"]])


def analytic_flat(model, t):
    _, v, a, j = analytic_state(t)
    return flat_batch(model, v, a, j)


class TestFlatnessMap:
    def test_hover_state(self, model):
        s = flat_batch(model, np.zeros(3), np.zeros(3), np.zeros(3))
        assert s["f"][0] == pytest.approx(model.m * model.g, rel=1e-12)
        assert np.allclose(attitudes(s)[0], np.eye(3), atol=1e-12)
        assert np.allclose(s["omega"], 0.0, atol=1e-12)

    def test_drag_free_closed_form(self):
        clean = VehicleModel(d_h=0.0, d_v=0.0, C_p=0.0)
        rng = np.random.default_rng(0)
        a = rng.uniform(-3, 3, (30, 3))
        s = flat_batch(clean, rng.uniform(-5, 5, (30, 3)), a,
                       rng.uniform(-2, 2, (30, 3)))
        lift = a + np.array([0.0, 0.0, clean.g])
        nrm = np.linalg.norm(lift, axis=1)
        assert np.allclose(s["f"], clean.m * nrm, rtol=0.0, atol=1e-12)
        assert np.allclose(s["z_b"], lift / nrm[:, None], atol=1e-12)
        assert np.allclose(s["drag"], 0.0, atol=1e-15)

    def test_attitude_third_column_is_thrust_axis(self, model):
        rng = np.random.default_rng(1)
        s = flat_batch(model, rng.uniform(-6, 6, (20, 3)),
                       rng.uniform(-3, 3, (20, 3)), rng.uniform(-2, 2, (20, 3)))
        for R, zb in zip(attitudes(s), s["z_b"]):
            assert np.allclose(R[:, 2], zb, atol=1e-12)
            assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_attitude_is_a_pure_tilt(self, model):
        # at rest the attitude is the identity; tilted, it is a rotation
        # about a horizontal axis (symmetric xy block)
        rest = flat_batch(model, np.zeros(3), np.zeros(3), np.zeros(3))
        assert np.allclose(attitudes(rest)[0], np.eye(3), atol=1e-12)
        rng = np.random.default_rng(5)
        tilted = flat_batch(model, rng.uniform(-6, 6, (20, 3)),
                            rng.uniform(-3, 3, (20, 3)), np.zeros((20, 3)))
        for R in attitudes(tilted):
            assert R[0, 1] == pytest.approx(R[1, 0], abs=1e-12)

    def test_free_fall_is_singular(self, model):
        with pytest.raises(SingularAttitude):
            flat_batch(model, np.zeros(3), [0, 0, -model.g], np.zeros(3))

    def test_rates_match_attitude_derivative(self, model):
        h = 1e-5
        ts = np.linspace(0.3, 4.7, 9)
        s = analytic_flat(model, ts)
        Rs = attitudes(s)
        Rp = attitudes(analytic_flat(model, ts + h))
        Rm = attitudes(analytic_flat(model, ts - h))
        for k in range(len(ts)):
            Om = Rs[k].T @ (Rp[k] - Rm[k]) / (2 * h)
            om_fd = np.array([Om[2, 1], Om[0, 2], Om[1, 0]])
            assert np.allclose(s["omega"][k], om_fd, atol=1e-4)


class TestFlatnessJacobians:
    def test_jacobians_match_fd(self, model):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(6):
            v = rng.uniform(-5, 5, 3)
            a = rng.uniform(-3, 3, 3)
            j = rng.uniform(-2, 2, 3)
            J = flat_batch(model, v, a, j, grad=True)

            def out(vv, aa, jj):
                o = flat_batch(model, vv, aa, jj)
                return (float(o["f"][0]), o["z_b"][0].copy(),
                        o["omega"][0].copy())

            for k in range(3):
                dv = np.zeros(3)
                dv[k] = h
                fp, zp, op = out(v + dv, a, j)
                fm, zm, om = out(v - dv, a, j)
                assert J["f_v"][0, k] == pytest.approx((fp - fm) / (2 * h),
                                                       abs=1e-5)
                assert np.allclose(J["zb_v"][0, :, k], (zp - zm) / (2 * h),
                                   atol=1e-5)
                assert np.allclose(J["om_v"][0, :, k], (op - om) / (2 * h),
                                   atol=1e-5)
                fp, zp, op = out(v, a + dv, j)
                fm, zm, om = out(v, a - dv, j)
                assert J["f_a"][0, k] == pytest.approx((fp - fm) / (2 * h),
                                                       abs=1e-5)
                assert np.allclose(J["zb_a"][0, :, k], (zp - zm) / (2 * h),
                                   atol=1e-5)
                assert np.allclose(J["om_a"][0, :, k], (op - om) / (2 * h),
                                   atol=1e-5)
                _, _, op = out(v, a, j + dv)
                _, _, om = out(v, a, j - dv)
                assert np.allclose(J["om_j"][0, :, k], (op - om) / (2 * h),
                                   atol=1e-5)


class TestLimits:
    def test_residual_batch_matches_scalar(self, model, limits):
        rng = np.random.default_rng(3)
        vs = rng.uniform(-6, 6, size=(20, 3))
        as_ = rng.uniform(-3, 3, size=(20, 3))
        js = rng.uniform(-1, 1, size=(20, 3))
        flat = flat_batch(model, vs, as_, js)
        rows = limits_residual_batch(limits, flat)
        for i in range(20):
            want = oracles.limits_residual(limits, vs[i], flat["omega"][i],
                                           flat["z_b"][i], flat["f"][i])
            assert np.allclose(rows[i], want, atol=1e-12)

    def test_hover_is_feasible(self, model, limits):
        s = flat_batch(model, np.zeros(3), np.zeros(3), np.zeros(3))
        assert np.all(limits_residual_batch(limits, s) <= 0.0)

    def test_tightened_is_strictly_inside(self, limits):
        tight = limits.tightened(5e-3)
        assert tight.v_max < limits.v_max
        assert tight.omega_max < limits.omega_max
        assert tight.theta_max < limits.theta_max
        assert tight.f_min > limits.f_min
        assert tight.f_max < limits.f_max
        # saturating every tightened bound leaves true residuals negative
        assert tight.v_max ** 2 - limits.v_max ** 2 < 0.0
        assert (np.cos(limits.theta_max) - np.cos(tight.theta_max)) < 0.0

    def test_guard_rejects_small_thrust_floor(self):
        lim = Limits(f_min=0.1, f_max=28.5)
        heavy_drag = VehicleModel(d_h=0.0, d_v=1.0)
        with pytest.raises(ValueError):
            lim.check_guard(heavy_drag)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            Limits(f_min=10.0, f_max=9.0)
        with pytest.raises(ValueError):
            Limits(v_max=-1.0)


def _rollout(model, r0, v0, R0, times, thrusts, omegas):
    return oracles.rollout_rk4(model.m, model.g, model.d_h, model.d_v,
                               model.C_p, r0, v0, R0, times, thrusts, omegas)


class TestIntegration:
    def test_ballistic_closed_form(self):
        clean = VehicleModel(d_h=0.0, d_v=0.0, C_p=0.0)
        f = clean.m * (clean.g + 1.0)  # 1 m/s^2 net climb
        times = np.arange(0.0, 2.0 + 1e-12, 1e-3)
        n = len(times)
        r0 = np.array([0.0, 0.0, 5.0])
        v0 = np.array([2.0, -1.0, 0.0])
        rs = _rollout(clean, r0, v0, np.eye(3), times, np.full(n, f),
                      np.zeros((n, 3)))
        t = times[:, None]
        expect = r0 + v0 * t + 0.5 * np.array([0, 0, 1.0]) * t * t
        assert np.allclose(rs, expect, atol=1e-8)

    def test_reintegration_recovers_position(self, model):
        dt = 1e-3
        times = np.arange(0.0, 5.0 + 1e-12, dt)
        r, v, _, _ = analytic_state(times)
        s0 = analytic_flat(model, 0.0)
        # inputs held per step; midpoint samples keep the hold second order
        s = analytic_flat(model, times + 0.5 * dt)
        rs = _rollout(model, r[0], v[0], attitudes(s0)[0], times, s["f"],
                      s["omega"])
        assert np.max(np.linalg.norm(rs - r, axis=1)) < 1e-3


class TestVehicleModel:
    def test_sigma_is_affine_in_speed(self, model):
        assert model.sigma(0.0) == pytest.approx(1.0)
        assert model.sigma(10.0) == pytest.approx(1.0 + 10.0 * model.C_p)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            VehicleModel(m=0.0)
        with pytest.raises(ValueError):
            VehicleModel(C_p=-0.1)
