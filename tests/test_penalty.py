"""Penalty functionals: the smoothed hinge, the four integrands, and the
reciprocal-safety check."""

import numpy as np
import pytest

import oracles
from conftest import random_trajectory

from swarmplan import fleet, minco, penalty
from swarmplan.errors import SingularAttitude
from swarmplan.geom import Aabb, HalfspacePolytope
from swarmplan.penalty import (
    PenaltyConfig,
    SafetyMargins,
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


def _starting_at(traj, t0):
    """The same spline flown from time t0."""
    return minco.MincoTrajectory(t0, traj.T, traj.coeffs, traj.boundary)


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
    d_q, d_T = minco.propagate_gradient(traj, bundle)
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
        val, bundle = penalty.limits_penalty(traj, model, limits, pconfig)
        assert val == 0.0
        assert not bundle.d_coeffs.any()

    def test_positive_for_aggressive_motion(self, pconfig, model, limits):
        start = minco.BoundaryState(np.zeros(3), np.zeros(3), np.zeros(3))
        end = minco.BoundaryState(np.array([60.0, 0.0, 0.0]),
                                  np.zeros(3), np.zeros(3))
        traj = minco.construct(0.0, [1.5, 1.5], np.array([[30.0, 0.0, 0.0]]),
                               start, end)
        val, _ = penalty.limits_penalty(traj, model, limits, pconfig)
        assert val > 0.0

    def test_nodes_follow_n_q_not_n_v(self, model, limits):
        # n_v counts the capsule's delay offsets; the limits quadrature
        # takes its node count from n_q alone.
        start = minco.BoundaryState(np.zeros(3), np.zeros(3), np.zeros(3))
        end = minco.BoundaryState(np.array([60.0, 0.0, 0.0]),
                                  np.zeros(3), np.zeros(3))
        traj = minco.construct(0.0, [1.5, 1.5], np.array([[30.0, 0.0, 0.0]]),
                               start, end)
        out = [penalty.limits_penalty(traj, model, limits,
                                      PenaltyConfig(n_q=16, n_v=n_v))
               for n_v in (8, 16)]
        (v8, b8), (v16, b16) = out
        assert v8 > 0.0 and v8 == v16
        assert np.array_equal(b8.d_coeffs, b16.d_coeffs)
        assert np.array_equal(b8.d_T, b16.d_T)

    def test_gradient_matches_fd(self, pconfig, model, limits):
        rng = np.random.default_rng(9)
        # Quick enough that speed and tilt residuals go active.
        start = minco.BoundaryState(np.zeros(3), np.zeros(3), np.zeros(3))
        end = minco.BoundaryState(np.array([26.0, 18.0, 6.0]),
                                  np.zeros(3), np.zeros(3))
        q = np.array([[10.0, 4.0, 2.0], [18.0, 12.0, 5.0]])
        q += rng.normal(scale=0.5, size=q.shape)
        traj = minco.construct(0.0, [1.4, 1.2, 1.4], q, start, end)

        def fun(tr):
            return penalty.limits_penalty(tr, model, limits, pconfig)

        val = _fd_against_bundle(traj, q, fun, rel=5e-5)
        assert val > 0.0


class TestStackedMatchesPerPiece:
    """Each functional's stacked pass over all pieces equals the per-piece
    loops bit for bit: the same value, d_coeffs and d_T."""

    NODES = [8, 16, 32]
    PIECES = [1, 2, 6, 12]
    MARGINS = [SafetyMargins(5.0, 2.0, 0.5), SafetyMargins(15.0, 4.0, 1.0),
               SafetyMargins(5.0, 0.0, 0.5)]

    @staticmethod
    def _assert_same(got, want):
        (val, bundle), (val_0, bundle_0) = got, want
        assert val == val_0
        assert np.array_equal(bundle.d_coeffs, bundle_0.d_coeffs)
        assert np.array_equal(bundle.d_T, bundle_0.d_T)
        return val

    @pytest.mark.parametrize("n", NODES)
    @pytest.mark.parametrize("M", PIECES)
    def test_corridor(self, M, n):
        rng = np.random.default_rng(1000 + 100 * M + n)
        config = PenaltyConfig(n_q=n)
        for _ in range(3):
            traj = random_trajectory(rng, n_pieces=M, box=20.0)
            polys = []
            for i in range(M):
                pts = traj.eval_many(
                    np.linspace(traj.knots[i], traj.knots[i + 1], 12), 0)
                # An axis box plus up to four oblique faces, each cutting
                # some of the piece off, so that face counts differ.
                k = int(rng.integers(0, 5))
                extra = rng.normal(size=(k, 3))
                extra /= np.linalg.norm(extra, axis=1)[:, None]
                normals = np.vstack([np.eye(3), -np.eye(3), extra])
                reach = np.max(pts @ normals.T, axis=0)
                polys.append(HalfspacePolytope(
                    normals, reach - rng.uniform(0.0, 1.5, size=6 + k)))
            val = self._assert_same(
                penalty.corridor_penalty(traj, polys, config),
                oracles.per_piece_corridor_penalty(traj, polys, config))
            assert val > 0.0

    @pytest.mark.parametrize("n", NODES)
    @pytest.mark.parametrize("M", PIECES)
    def test_capsule(self, M, n):
        rng = np.random.default_rng(2000 + 100 * M + n)
        config = PenaltyConfig(n_t=n)
        for margins in self.MARGINS:
            traj = random_trajectory(rng, n_pieces=M, box=10.0)
            window = 2.0 * margins.M_d
            near = random_trajectory(rng, box=10.0, t0=traj.t0 + 1.0)
            # Parked over every window: one departs after the mission
            # lands, one lands before it departs.
            late = random_trajectory(rng, box=10.0,
                                     t0=traj.t_end + window + 1.0)
            early = random_trajectory(rng, n_pieces=2, box=10.0, t0=0.0)
            early = _starting_at(early, traj.t0 - window - 1.0
                                 - early.t_end + early.t0)
            far = _shifted(random_trajectory(rng, box=10.0, t0=traj.t0),
                           1e4)
            assert late.t0 > traj.t_end + window
            assert early.t_end < traj.t0 - window
            assert penalty._prunable(traj, far, margins)
            neighbors = [near, late, far, early]
            val = self._assert_same(
                penalty.capsule_penalty(traj, neighbors, margins, config),
                oracles.per_piece_capsule_penalty(traj, neighbors, margins,
                                                  config))
            assert val > 0.0

    @pytest.mark.parametrize("n", NODES)
    @pytest.mark.parametrize("M", PIECES)
    def test_limits(self, model, limits, M, n):
        rng = np.random.default_rng(3000 + 100 * M + n)
        config = PenaltyConfig(n_q=n)
        for _ in range(2):
            traj = random_trajectory(rng, n_pieces=M, box=15.0)
            val = self._assert_same(
                penalty.limits_penalty(traj, model, limits, config),
                oracles.per_piece_limits_penalty(traj, model, limits, config))
            assert val > 0.0

    @pytest.mark.parametrize("M", PIECES)
    def test_singular_node_raises_on_both(self, pconfig, model, limits, M):
        # The goal is held at a downward acceleration of 3 g, so the last
        # node of the last piece has its thrust axis pointing straight down.
        rng = np.random.default_rng(4000 + M)
        pts = rng.uniform(-10.0, 10.0, size=(M + 1, 3))
        end = minco.BoundaryState(pts[-1], np.zeros(3),
                                  np.array([0.0, 0.0, -30.0]))
        traj = minco.construct(0.0, rng.uniform(1.0, 4.0, size=M), pts[1:-1],
                               minco.BoundaryState.hover(pts[0]), end)
        for fun in (penalty.limits_penalty, oracles.per_piece_limits_penalty):
            with pytest.raises(SingularAttitude):
                fun(traj, model, limits, pconfig)


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


def _free_ends_trajectory(rng, box=20.0):
    """A random spline that starts and ends moving and accelerating."""
    M = int(rng.integers(1, 4))
    pts = rng.uniform(-box, box, size=(M + 1, 3))
    start = minco.BoundaryState(pts[0], rng.uniform(-6, 6, 3),
                                rng.uniform(-3, 3, 3))
    end = minco.BoundaryState(pts[-1], rng.uniform(-6, 6, 3),
                              rng.uniform(-3, 3, 3))
    return minco.construct(float(rng.uniform(0.0, 4.0)),
                           rng.uniform(0.5, 2.5, size=M), pts[1:-1],
                           start, end)


def _lane(y):
    """A 90 m, 15 s, three-piece hover-to-hover lane along x at the given y,
    36 m up, like an audit-fleet lane."""
    p0, p1 = np.array([5.0, y, 36.0]), np.array([95.0, y, 36.0])
    q = p0 + (p1 - p0) * (np.arange(1, 3)[:, None] / 3.0)
    return minco.construct(0.0, np.full(3, 5.0), q,
                           minco.BoundaryState.hover(p0),
                           minco.BoundaryState.hover(p1))


class TestGridSearch:
    """The pair kernel's branch and bound against the dense grid."""

    def test_matches_dense_argmin(self):
        rng = np.random.default_rng(21)
        kinds = ["hover", "free", "parked", "one_row"]
        for n in range(216):
            M_d = (0.0, 0.5, 2.0)[n % 3]
            res = (0.02, 0.05, 0.1)[(n // 3) % 3]
            kind = kinds[(n // 9) % 4]
            margins = SafetyMargins(M_r=5.0, M_d=M_d, w=0.5)
            if kind == "hover":
                a = random_trajectory(rng, n_pieces=2, box=15.0)
                b = random_trajectory(rng, n_pieces=2, box=15.0)
            else:
                a = _free_ends_trajectory(rng)
                b = _free_ends_trajectory(rng)
            if kind == "parked":
                # b lands before a's window opens: every row ties.
                b = _starting_at(b, a.t0 - 2.0 * M_d - b.total_duration
                                 - 1.0)
            t_grid = penalty._closed_grid(a.t0, a.t_end, res)
            if kind == "one_row":
                t_grid = t_grid[rng.integers(len(t_grid)):][:1]
            v_grid = penalty._closed_grid(-2.0 * M_d, 2.0 * M_d, res)
            got = penalty._grid_argmin(a, b, t_grid, v_grid, margins)
            want = oracles.dense_grid_argmin(a, b, t_grid, v_grid, margins)
            assert got == want, (n, kind, got, want)
            if kind == "parked" and M_d > 0.0:
                assert got[1] % len(v_grid) == 0   # first of the tied row

    def test_speed_bound_covers_sampled_speed(self, margins):
        rng = np.random.default_rng(8)
        s = np.linspace(0.0, 1.0, 2001)
        for n in range(40):
            traj = (_free_ends_trajectory(rng) if n % 2
                    else random_trajectory(rng))
            bound = penalty._speed_bounds(traj, margins)
            for i in range(traj.n_pieces):
                vel = minco.basis_many(s * traj.T[i], 1) @ traj.coeffs[i]
                peak = float(np.max(margins.wdist(vel)))
                # Equal at a piece end up to rounding.
                assert bound[i] >= peak * (1.0 - 1e-12)

    def test_searches_a_quarter_of_the_grid(self, margins, monkeypatch):
        # Two audit-fleet lanes 12 m apart at the audit's grid step.
        a, b = _lane(20.0), _lane(32.0)
        res = fleet.AUDIT_SHARE * margins.M_d
        real_eval = minco.MincoTrajectory.eval_many
        real_argmin = penalty._grid_argmin
        points = {"grid": 0, "polish": 0}
        phase = ["polish"]

        def counted(self, ts, order=0):
            points[phase[0]] += np.size(ts)
            return real_eval(self, ts, order)

        def grid_phase(*args):
            phase[0] = "grid"
            try:
                return real_argmin(*args)
            finally:
                phase[0] = "polish"

        monkeypatch.setattr(minco.MincoTrajectory, "eval_many", counted)
        monkeypatch.setattr(penalty, "_grid_argmin", grid_phase)
        penalty._worst_one_sided(a, b, margins, res)
        n_t = len(penalty._closed_grid(a.t0, a.t_end, res))
        n_v = len(penalty._closed_grid(-2 * margins.M_d, 2 * margins.M_d, res))
        assert 0 < points["grid"] <= 0.25 * n_t * n_v
        side = 2 * penalty._ZOOM_K + 1
        bound = penalty._ZOOM_LEVELS * (side ** 2 + side)
        assert 0 < points["polish"] <= bound


def _grid_margin(a, b, margins, res):
    """The smaller grid minimum of the two one-sided sweeps, less 2 M_r:
    the kernel's margin before its polish."""
    d2 = []
    for x, y in ((a, b), (b, a)):
        t_grid = penalty._closed_grid(x.t0, x.t_end, res)
        v_grid = penalty._closed_grid(-2.0 * margins.M_d, 2.0 * margins.M_d,
                                      res)
        d2.append(oracles.dense_grid_argmin(x, y, t_grid, v_grid, margins)[0])
    return float(np.sqrt(min(d2))) - 2.0 * margins.M_r


class TestPolish:
    """The zoom polish against the earlier golden-section polish."""

    @staticmethod
    def _assert_not_above(a, b, margins, res):
        margin = check_equivalent_criterion(a, b, margins, res)[1]
        assert margin <= _grid_margin(a, b, margins, res)
        assert margin <= oracles.golden_pair_margin(a, b, margins, res) + 1e-6

    def test_lanes(self, margins):
        res = fleet.AUDIT_SHARE * margins.M_d
        for y, delay in ((32.0, 0.0), (26.0, 0.0), (21.0, 3.0), (20.0, 8.0)):
            a, b = _lane(20.0), _starting_at(_lane(y), delay)
            self._assert_not_above(a, b, margins, res)

    def test_random_pairs(self):
        rng = np.random.default_rng(33)
        for n in range(102):
            margins = SafetyMargins(M_r=5.0, M_d=(0.0, 0.5, 2.0)[n % 3], w=0.5)
            a = _free_ends_trajectory(rng)
            b = _free_ends_trajectory(rng)
            self._assert_not_above(a, b, margins, 0.1)

    def test_follows_a_diagonal_valley(self):
        # A pair where alternating golden sections in t and in v stall
        # above the minimum that a grid five times finer samples.
        rng = np.random.default_rng(83)
        a = _free_ends_trajectory(rng)
        b = _free_ends_trajectory(rng)
        margins = SafetyMargins(M_r=5.0, M_d=2.0, w=0.5)
        res = 0.1
        brute = oracles.brute_pair_margin(a, b, margins, res / 5)
        assert oracles.golden_pair_margin(a, b, margins, res) > brute
        assert check_equivalent_criterion(a, b, margins, res)[1] <= brute
