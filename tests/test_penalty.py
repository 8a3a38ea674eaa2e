"""Penalty functionals: the smoothed hinge, the four integrands, and the
reciprocal-safety check."""

import numpy as np
import pytest

import oracles
from conftest import random_trajectory

from swarmplan import minco, penalty
from swarmplan.geom import Aabb, HalfspacePolytope
from swarmplan.penalty import (
    ConstantYaw,
    PenaltyConfig,
    SafetyMargins,
    TangentYaw,
    check_equivalent_criterion,
    phi,
    phi_arr,
)

MU = 1e-2


def _shifted(traj, offset):
    """The same spline with every position moved by offset."""
    b0, b1 = traj.boundary
    return minco.construct(
        traj.t0, traj.T, traj.waypoints() + offset,
        minco.BoundaryState(b0.pos + offset, b0.vel, b0.acc),
        minco.BoundaryState(b1.pos + offset, b1.vel, b1.acc))


class TestPhi:
    def test_piecewise_regions(self):
        assert phi(MU, -1.0) == (0.0, 0.0)
        assert phi(MU, 0.0) == (0.0, 0.0)
        x = 0.4 * MU
        v, d = phi(MU, x)
        assert v == pytest.approx((MU - 0.5 * x) * (x / MU) ** 3, rel=1e-14)
        v, d = phi(MU, 3.0)
        assert v == pytest.approx(3.0 - 0.5 * MU, rel=1e-14)
        assert d == 1.0

    def test_bounds_and_gap(self):
        x = np.concatenate([np.linspace(-2 * MU, 2 * MU, 2001),
                            np.array([-5.0, 1.0, 40.0])])
        val, _ = phi_arr(MU, x)
        relu = np.maximum(x, 0.0)
        assert np.all(val >= 0.0)
        assert np.all(val <= relu + 1e-12)
        gap = relu - val
        assert gap.max() <= 0.5 * MU + 1e-12
        assert gap.max() >= 0.5 * MU - 1e-9

    def test_derivative_matches_fd(self):
        # Stay an FD step away from the knots at 0 and mu.
        h = 1e-8
        x = np.concatenate([np.linspace(-MU, 2 * MU, 401)[1:-1], [0.7, 5.0]])
        x = x[(np.abs(x) > 10 * h) & (np.abs(x - MU) > 10 * h)]
        _, der = phi_arr(MU, x)
        vp, _ = phi_arr(MU, x + h)
        vm, _ = phi_arr(MU, x - h)
        assert np.allclose(der, (vp - vm) / (2 * h), atol=1e-6)

    def test_c1_c2_at_knots(self):
        for knot in (0.0, MU):
            for h in (1e-6, 1e-7):
                vl, dl = phi(MU, knot - h)
                vr, dr = phi(MU, knot + h)
                assert abs(vr - vl) < 3 * h                  # C^0
                assert abs(dr - dl) < 1e-4                   # C^1
            # One-sided second derivatives at the knot itself; h small
            # against the curvature slope 6/mu^2 inside the blend.
            h = 1e-8
            _, d0 = phi(MU, knot)
            _, dp = phi(MU, knot + h)
            _, dm = phi(MU, knot - h)
            assert abs((dp - d0) / h - (d0 - dm) / h) < 1e-3  # C^2

    def test_scalar_matches_array(self):
        xs = np.array([-0.3, 0.0, 0.002, 0.01, 0.5])
        va, da = phi_arr(MU, xs)
        for x, v, d in zip(xs, va, da):
            assert phi(MU, x) == (v, d)


class TestConfigValidation:
    def test_penalty_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PenaltyConfig(mu=0.0)
        with pytest.raises(ValueError):
            PenaltyConfig(w1=-1.0)
        with pytest.raises(ValueError):
            PenaltyConfig(n_q=7)
        with pytest.raises(ValueError):
            PenaltyConfig(n_t=2)

    def test_margins_validation(self):
        with pytest.raises(ValueError):
            SafetyMargins(M_r=0.0, M_d=1.0)
        with pytest.raises(ValueError):
            SafetyMargins(M_r=1.0, M_d=-0.1)
        with pytest.raises(ValueError):
            SafetyMargins(M_r=1.0, M_d=1.0, w=0.0)

    def test_weighted_distance(self):
        m = SafetyMargins(M_r=1.0, M_d=1.0, w=0.25)
        d = np.array([3.0, 0.0, 4.0])
        assert m.wdist(d) == pytest.approx(np.sqrt(9.0 + 0.25 * 16.0))
        batch = np.stack([d, -d])
        assert np.allclose(m.wdist_sq(batch), m.wdist(batch) ** 2)


def _fd_against_bundle(traj, q, fun, rel=3e-5, h=1e-6):
    """Compare propagate_gradient of fun's bundle with central differences
    over the stacked (waypoints, durations) vector."""
    val, bundle = fun(traj)
    d_q, d_T = minco.propagate_gradient(traj, bundle, waypoints=q)
    grad = np.concatenate([d_q.ravel(), d_T])

    t0, start, end = traj.t0, traj.boundary[0], traj.boundary[1]

    def f(theta):
        qq = theta[:q.size].reshape(q.shape)
        TT = theta[q.size:]
        return fun(minco.construct(t0, TT, qq, start, end))[0]

    theta0 = np.concatenate([q.ravel(), traj.T])
    fd = oracles.central_diff(f, theta0, h=h)
    scale = max(np.linalg.norm(fd), 1e-9)
    assert np.linalg.norm(grad - fd) <= rel * scale, (
        f"analytic {grad} vs fd {fd}")
    return val


class TestCorridorPenalty:
    def test_zero_inside_large_box(self, pconfig):
        rng = np.random.default_rng(0)
        traj = random_trajectory(rng, n_pieces=3, box=10.0)
        big = HalfspacePolytope.from_aabb(
            Aabb(np.full(3, -100.0), np.full(3, 200.0)))
        val, bundle = penalty.corridor_penalty(traj, [big] * 3, pconfig)
        assert val == 0.0
        assert not bundle.d_coeffs.any() and not bundle.d_T.any()

    def test_positive_outside(self, pconfig):
        rng = np.random.default_rng(1)
        traj = random_trajectory(rng, n_pieces=3, box=30.0)
        tiny = HalfspacePolytope.from_aabb(
            Aabb(np.full(3, 12.0), np.full(3, 14.0)))
        val, _ = penalty.corridor_penalty(traj, [tiny] * 3, pconfig)
        assert val > 0.0

    def test_piece_count_mismatch(self, pconfig):
        rng = np.random.default_rng(2)
        traj = random_trajectory(rng, n_pieces=3)
        big = HalfspacePolytope.from_aabb(Aabb(np.zeros(3), np.ones(3)))
        with pytest.raises(ValueError):
            penalty.corridor_penalty(traj, [big] * 2, pconfig)

    def test_gradient_matches_fd(self, pconfig):
        rng = np.random.default_rng(3)
        traj = random_trajectory(rng, n_pieces=3, box=24.0)
        q = traj.waypoints()
        # Boxes snug enough that several quadrature nodes violate.
        polys = []
        pts = np.vstack([traj.eval_many(
            np.linspace(traj.knots[i], traj.knots[i + 1], 8), 0)
            for i in range(3)])
        for i in range(3):
            seg = pts[8 * i:8 * (i + 1)]
            box = Aabb(seg.min(axis=0) + 0.8, seg.max(axis=0) - 0.8)
            polys.append(HalfspacePolytope.from_aabb(box))

        def fun(tr):
            return penalty.corridor_penalty(tr, polys, pconfig)

        val = _fd_against_bundle(traj, q, fun)
        assert val > 0.0


class TestCapsulePenalty:
    def test_empty_neighbors(self, pconfig, margins):
        rng = np.random.default_rng(4)
        traj = random_trajectory(rng, n_pieces=2)
        val, bundle = penalty.capsule_penalty(traj, [], margins, pconfig)
        assert val == 0.0 and not bundle.d_T.any()

    def test_far_neighbor_pruned(self, pconfig, margins):
        rng = np.random.default_rng(5)
        traj = random_trajectory(rng, n_pieces=2, box=10.0, t0=0.0)
        far = random_trajectory(rng, n_pieces=2, box=10.0, t0=0.0)
        shifted = _shifted(far, 500.0)
        assert penalty._prunable(traj, shifted, margins)
        val, bundle = penalty.capsule_penalty(traj, [shifted], margins, pconfig)
        assert val == 0.0 and not bundle.d_coeffs.any()

    def test_close_neighbor_penalized(self, pconfig, margins):
        rng = np.random.default_rng(6)
        traj = random_trajectory(rng, n_pieces=2, box=8.0, t0=0.0)
        nb = random_trajectory(rng, n_pieces=2, box=8.0, t0=0.0)
        assert not penalty._prunable(traj, nb, margins)
        val, _ = penalty.capsule_penalty(traj, [nb], margins, pconfig)
        assert val > 0.0

    def test_gradient_matches_fd(self, pconfig, margins):
        rng = np.random.default_rng(7)
        traj = random_trajectory(rng, n_pieces=3, box=14.0, t0=0.0)
        nb = random_trajectory(rng, n_pieces=3, box=14.0, t0=1.0)
        q = traj.waypoints()

        def fun(tr):
            return penalty.capsule_penalty(tr, [nb], margins, pconfig)

        val = _fd_against_bundle(traj, q, fun, rel=5e-5)
        assert val > 0.0

    def test_degenerate_window(self, pconfig):
        m0 = SafetyMargins(M_r=5.0, M_d=0.0, w=0.5)
        rng = np.random.default_rng(8)
        traj = random_trajectory(rng, n_pieces=2, box=6.0, t0=0.0)
        nb = random_trajectory(rng, n_pieces=2, box=6.0, t0=0.0)
        val, _ = penalty.capsule_penalty(traj, [nb], m0, pconfig)
        assert val > 0.0


class TestLimitsPenalty:
    def test_zero_for_gentle_motion(self, pconfig, model, limits):
        start = minco.BoundaryState(np.zeros(3), np.zeros(3), np.zeros(3))
        end = minco.BoundaryState(np.array([4.0, 0.0, 0.0]),
                                  np.zeros(3), np.zeros(3))
        traj = minco.construct(0.0, [4.0, 4.0], np.array([[2.0, 0.0, 0.0]]),
                               start, end)
        val, bundle = penalty.limits_penalty(traj, model, limits,
                                             ConstantYaw(), pconfig)
        assert val == 0.0
        assert not bundle.d_coeffs.any()

    def test_positive_for_aggressive_motion(self, pconfig, model, limits):
        start = minco.BoundaryState(np.zeros(3), np.zeros(3), np.zeros(3))
        end = minco.BoundaryState(np.array([60.0, 0.0, 0.0]),
                                  np.zeros(3), np.zeros(3))
        traj = minco.construct(0.0, [1.5, 1.5], np.array([[30.0, 0.0, 0.0]]),
                               start, end)
        val, _ = penalty.limits_penalty(traj, model, limits,
                                        ConstantYaw(), pconfig)
        assert val > 0.0

    @pytest.mark.parametrize("plan", [ConstantYaw(0.3), TangentYaw()])
    def test_gradient_matches_fd(self, pconfig, model, limits, plan):
        rng = np.random.default_rng(9)
        # Quick enough that speed and tilt residuals go active.
        start = minco.BoundaryState(np.zeros(3), np.zeros(3), np.zeros(3))
        end = minco.BoundaryState(np.array([26.0, 18.0, 6.0]),
                                  np.zeros(3), np.zeros(3))
        q = np.array([[10.0, 4.0, 2.0], [18.0, 12.0, 5.0]])
        q += rng.normal(scale=0.5, size=q.shape)
        traj = minco.construct(0.0, [1.4, 1.2, 1.4], q, start, end)

        def fun(tr):
            return penalty.limits_penalty(tr, model, limits, plan, pconfig)

        val = _fd_against_bundle(traj, q, fun, rel=5e-5)
        assert val > 0.0


class TestYawPlans:
    def test_constant_yaw(self):
        plan = ConstantYaw(0.7)
        v = np.random.default_rng(0).normal(size=(5, 3))
        psi, dpsi, grads = plan.eval(v, v)
        assert np.all(psi == 0.7) and np.all(dpsi == 0.0)
        assert grads is None

    def test_tangent_yaw_heading(self):
        plan = TangentYaw()
        v = np.array([[3.0, 4.0, 1.0]])
        a = np.zeros((1, 3))
        psi, dpsi, _ = plan.eval(v, a)
        assert psi[0] == pytest.approx(np.arctan2(4.0, 3.0), abs=1e-6)
        assert dpsi[0] == pytest.approx(0.0, abs=1e-7)

    def test_tangent_yaw_rate_is_heading_derivative(self):
        # Along a curving velocity profile, dpsi equals d/dt atan2(vy, vx).
        plan = TangentYaw()
        t = 0.8
        h = 1e-6

        def vel(s):
            return np.array([[2.0 * np.cos(s), 3.0 * np.sin(s), 0.4]])

        acc = (vel(t + h) - vel(t - h)) / (2 * h)
        psi_p = np.arctan2(vel(t + h)[0, 1], vel(t + h)[0, 0])
        psi_m = np.arctan2(vel(t - h)[0, 1], vel(t - h)[0, 0])
        _, dpsi, _ = plan.eval(vel(t), acc)
        assert dpsi[0] == pytest.approx((psi_p - psi_m) / (2 * h), abs=1e-5)

    def test_tangent_yaw_gradients(self):
        plan = TangentYaw()
        rng = np.random.default_rng(11)
        v = rng.normal(scale=3.0, size=(4, 3))
        a = rng.normal(scale=2.0, size=(4, 3))
        psi, dpsi, grads = plan.eval(v, a)
        h = 1e-6
        for k in range(3):
            dv = np.zeros(3)
            dv[k] = h
            pp, dp, _ = plan.eval(v + dv, a)
            pm, dm, _ = plan.eval(v - dv, a)
            assert np.allclose(grads["psi_v"][:, k], (pp - pm) / (2 * h),
                               atol=1e-4)
            assert np.allclose(grads["dpsi_v"][:, k], (dp - dm) / (2 * h),
                               atol=1e-4)
            pp, dp, _ = plan.eval(v, a + dv)
            pm, dm, _ = plan.eval(v, a - dv)
            assert np.allclose(grads["psi_a"][:, k], (pp - pm) / (2 * h),
                               atol=1e-4)
            assert np.allclose(grads["dpsi_a"][:, k], (dp - dm) / (2 * h),
                               atol=1e-4)

    def test_tangent_yaw_near_hover(self):
        plan = TangentYaw()
        psi, dpsi, grads = plan.eval(np.array([[1e-9, 0.0, 0.0]]),
                                     np.array([[1.0, 1.0, 0.0]]))
        assert np.isfinite(dpsi[0])
        assert all(np.isfinite(g).all() for g in grads.values())


class TestComposite:
    def test_parts_sum_to_total(self, pconfig, model, limits, margins):
        rng = np.random.default_rng(12)
        traj = random_trajectory(rng, n_pieces=2, box=12.0, t0=0.0)
        nb = random_trajectory(rng, n_pieces=2, box=12.0, t0=0.0)
        polys = [HalfspacePolytope.from_aabb(
            Aabb(np.full(3, 2.0), np.full(3, 9.0)))] * 2
        total, _, parts = penalty.composite(
            traj, pconfig, model=model, limits=limits,
            corridor=polys, neighbors=[nb], margins=margins)
        expect = (parts["I0"] + pconfig.w1 * parts["I1"]
                  + pconfig.w2 * parts["I2"] + pconfig.w3 * parts["I3"])
        assert total == pytest.approx(expect, rel=1e-12)

    def test_objective_only(self, pconfig):
        rng = np.random.default_rng(13)
        traj = random_trajectory(rng, n_pieces=2)
        total, bundle, parts = penalty.composite(traj, pconfig)
        assert set(parts) == {"I0"}
        energy, _ = minco.energy(traj)
        assert total == pytest.approx(
            energy + pconfig.rho * traj.total_duration, rel=1e-12)
        # rho enters the duration gradient of every piece.
        e_val, e_bundle = minco.energy(traj)
        assert np.allclose(bundle.d_T - e_bundle.d_T, pconfig.rho)

    def test_composite_gradient_matches_fd(self, model, limits, margins):
        cfg = PenaltyConfig(n_q=8, n_t=6, n_v=8)
        rng = np.random.default_rng(14)
        traj = random_trajectory(rng, n_pieces=2, box=14.0, t0=0.0)
        nb = random_trajectory(rng, n_pieces=2, box=14.0, t0=0.5)
        q = traj.waypoints()
        pts = traj.eval_many(np.linspace(traj.t0, traj.t_end, 24), 0)
        box = Aabb(pts.min(axis=0) + 0.5, pts.max(axis=0) - 0.5)
        polys = [HalfspacePolytope.from_aabb(box)] * 2

        def fun(tr):
            total, bundle, _ = penalty.composite(
                tr, cfg, model=model, limits=limits, corridor=polys,
                neighbors=[nb], margins=margins)
            return total, bundle

        _fd_against_bundle(traj, q, fun, rel=1e-4)


class TestEquivalentCriterion:
    def _line(self, y, t0=0.0, z=5.0, reverse=False):
        xs = np.array([0.0, 10.0, 20.0, 30.0])
        if reverse:
            xs = xs[::-1]
        wp = np.stack([xs[1:3], np.full(2, y), np.full(2, z)], axis=1)
        start = minco.BoundaryState(np.array([xs[0], y, z]),
                                    np.zeros(3), np.zeros(3))
        end = minco.BoundaryState(np.array([xs[3], y, z]),
                                  np.zeros(3), np.zeros(3))
        return minco.construct(t0, [2.0, 2.0, 2.0], wp, start, end)

    @staticmethod
    def _witness_margin(a, b, margins, witness):
        """Weighted distance minus 2 M_r at the witness times."""
        ta, tb = witness
        return float(margins.wdist(a.eval(ta, 0) - b.eval(tb, 0))
                     - 2.0 * margins.M_r)

    def test_separated_lines_pass(self, margins):
        a = self._line(0.0)
        b = self._line(20.0)
        ok, margin, _ = check_equivalent_criterion(a, b, margins, 0.1)
        assert ok and margin > 5.0

    def test_crossing_lines_fail(self, margins):
        a = self._line(0.0)
        b = self._line(0.0, reverse=True)
        ok, margin, (ta, tb) = check_equivalent_criterion(a, b, margins, 0.1)
        assert not ok and margin < -5.0
        assert a.t0 <= ta <= a.t_end
        assert self._witness_margin(a, b, margins, (ta, tb)) == \
            pytest.approx(margin, abs=1e-9)
        assert check_equivalent_criterion(b, a, margins, 0.1)[1] == margin

    def test_far_pair_pruned(self, margins):
        rng = np.random.default_rng(5)
        a = random_trajectory(rng, n_pieces=2, box=10.0, t0=0.0)
        b = _shifted(random_trajectory(rng, n_pieces=2, box=10.0, t0=0.0),
                     500.0)
        assert penalty._prunable(a, b, margins)
        ok, margin, _ = check_equivalent_criterion(a, b, margins, 0.1)
        assert ok and 0.0 < margin < np.inf
        assert margin <= oracles.brute_pair_margin(a, b, margins, 0.1)
        assert check_equivalent_criterion(b, a, margins, 0.1)[1] == margin

    def test_bad_resolution(self, margins):
        a = self._line(0.0)
        with pytest.raises(ValueError):
            check_equivalent_criterion(a, a, margins, 0.0)

    def test_matches_brute_force(self, margins):
        rng = np.random.default_rng(15)
        res = 0.05 * margins.M_d
        checked = 0
        attempts = 0
        while checked < 12 and attempts < 60:
            attempts += 1
            box = 20.0 if attempts % 2 else 45.0
            a = random_trajectory(rng, box=box)
            b = random_trajectory(rng, box=box)
            brute = oracles.brute_pair_margin(a, b, margins, res)
            if abs(brute) < 0.3:
                continue    # hairline case, grid-phase sensitive
            ok_ab, m_ab, w_ab = check_equivalent_criterion(a, b, margins, res)
            ok_ba, m_ba, _ = check_equivalent_criterion(b, a, margins, res)
            ok = ok_ab and ok_ba
            m = min(m_ab, m_ba)
            assert m_ab == m_ba
            if not penalty._prunable(a, b, margins):
                assert self._witness_margin(a, b, margins, w_ab) == \
                    pytest.approx(m_ab, abs=1e-9)
            assert ok == (brute >= 0.0), (
                f"verdict mismatch: package {m}, brute {brute}")
            # The polish step digs deeper than the polish-free sweep, so the
            # package margin may sit below the oracle but not much above it.
            assert brute - 1.5 < m < brute + 0.3
            checked += 1
        assert checked == 12
