import numpy as np
import pytest

from swarmplan import minco

import oracles
from conftest import random_trajectory


def random_instance(rng, M=None):
    M = int(M if M is not None else rng.integers(1, 6))
    pts = rng.uniform(-30, 30, size=(M + 1, 3))
    T = rng.uniform(0.5, 5.0, size=M)
    start = minco.BoundaryState(pts[0], rng.uniform(-2, 2, 3),
                                rng.uniform(-1, 1, 3))
    end = minco.BoundaryState(pts[-1], rng.uniform(-2, 2, 3),
                              rng.uniform(-1, 1, 3))
    return T, pts[1:-1], start, end


class TestBasis:
    def test_value_row(self):
        b = minco.basis(2.0, 0)
        assert np.allclose(b, [1, 2, 4, 8, 16, 32])

    def test_derivative_rows_match_fd(self):
        h = 1e-6
        for order in range(1, 5):
            for t in (0.3, 1.7):
                fd = (minco.basis(t + h, order - 1)
                      - minco.basis(t - h, order - 1)) / (2 * h)
                assert np.allclose(minco.basis(t, order), fd, atol=1e-5)

    def test_basis_many_matches_scalar(self):
        ts = np.array([0.0, 0.5, 2.0])
        for order in range(4):
            stacked = minco.basis_many(ts, order)
            for t, row in zip(ts, stacked):
                assert np.allclose(row, minco.basis(t, order))


class TestConstruct:
    def test_interpolates_waypoints_and_boundary(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            T, wp, start, end = random_instance(rng)
            traj = minco.construct(0.0, T, wp, start, end)
            assert np.allclose(traj.eval(0.0), start.pos, atol=1e-9)
            assert np.allclose(traj.eval(0.0, 1), start.vel, atol=1e-9)
            assert np.allclose(traj.eval(0.0, 2), start.acc, atol=1e-9)
            knots = np.cumsum(T)
            for k, q in zip(knots[:-1], wp):
                assert np.allclose(traj.eval(k), q, atol=1e-9)
            assert np.allclose(traj.waypoints(), wp, atol=1e-9)
            # end point from the last piece polynomial, not the clamp
            b = minco.basis(T[-1], 0)
            assert np.allclose(traj.coeffs[-1].T @ b, end.pos, atol=1e-9)

    def test_joint_continuity_to_fourth_order(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            T, wp, start, end = random_instance(rng, M=int(rng.integers(2, 6)))
            traj = minco.construct(0.0, T, wp, start, end)
            for i in range(traj.n_pieces - 1):
                for order in range(5):
                    left = traj.coeffs[i].T @ minco.basis(T[i], order)
                    right = traj.coeffs[i + 1].T @ minco.basis(0.0, order)
                    assert np.allclose(left, right, atol=1e-8)

    def test_energy_matches_dense_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            T, wp, start, end = random_instance(rng)
            traj = minco.construct(0.0, T, wp, start, end)
            val, _ = minco.energy(traj)
            ref, ref_coeffs = oracles.dense_min_jerk(
                T, wp, (start.pos, start.vel, start.acc),
                (end.pos, end.vel, end.acc))
            assert val == pytest.approx(ref, rel=1e-9, abs=1e-12)
            assert np.allclose(traj.coeffs, ref_coeffs, atol=1e-6)

    def test_nonpositive_duration_rejected(self):
        start = minco.BoundaryState.hover([0, 0, 0])
        end = minco.BoundaryState.hover([1, 0, 0])
        with pytest.raises(ValueError):
            minco.construct(0.0, [1.0, 0.0], np.zeros((1, 3)), start, end)

    def test_waypoint_count_enforced(self):
        start = minco.BoundaryState.hover([0, 0, 0])
        end = minco.BoundaryState.hover([1, 0, 0])
        with pytest.raises(ValueError):
            minco.construct(0.0, [1.0], np.zeros((1, 3)), start, end)


class TestEval:
    def test_constant_extension(self):
        rng = np.random.default_rng(3)
        traj = random_trajectory(rng, t0=2.0)
        p0 = traj.eval(traj.t0)
        pf = traj.eval(traj.t_end)
        assert np.allclose(traj.eval(traj.t0 - 5.0), p0)
        assert np.allclose(traj.eval(traj.t_end + 5.0), pf)
        assert np.allclose(traj.eval(traj.t0 - 5.0, 1), 0.0)
        assert np.allclose(traj.eval(traj.t_end + 5.0, 2), 0.0)

    def test_eval_many_matches_scalar(self):
        rng = np.random.default_rng(4)
        traj = random_trajectory(rng)
        ts = rng.uniform(traj.t0 - 1, traj.t_end + 1, size=60)
        for order in range(3):
            batch = traj.eval_many(ts, order)
            for t, row in zip(ts, batch):
                assert np.allclose(row, traj.eval(t, order))

    def test_shifted_keeps_shape(self):
        rng = np.random.default_rng(5)
        traj = random_trajectory(rng, t0=0.0)
        moved = minco.MincoTrajectory(7.5, traj.T, traj.coeffs,
                                      traj.boundary)
        assert moved.t0 == pytest.approx(7.5)
        assert np.allclose(moved.eval(7.5 + 0.3), traj.eval(0.3))


class TestGradients:
    def test_energy_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            T, wp, start, end = random_instance(rng, M=int(rng.integers(2, 5)))
            M = len(T)

            def energy_of(x):
                q = x[:3 * (M - 1)].reshape(-1, 3)
                Tt = x[3 * (M - 1):]
                tr = minco.construct(0.0, Tt, q, start, end)
                return minco.energy(tr)[0]

            x0 = np.concatenate([wp.ravel(), T])
            traj = minco.construct(0.0, T, wp, start, end)
            _, bundle = minco.energy(traj)
            d_q, d_T = minco.propagate_gradient(traj, bundle)
            got = np.concatenate([d_q.ravel(), d_T])
            want = oracles.central_diff(energy_of, x0, h=1e-6)
            scale = max(1.0, float(np.linalg.norm(want)))
            assert np.linalg.norm(got - want) / scale < 1e-5

    def test_adjoint_reuses_the_constructed_matrix(self, monkeypatch):
        rng = np.random.default_rng(9)
        T, wp, start, end = random_instance(rng, M=4)
        real = minco._system_matrix
        calls = []

        def counted(durations):
            calls.append(1)
            return real(durations)

        monkeypatch.setattr(minco, "_system_matrix", counted)
        traj = minco.construct(0.0, T, wp, start, end)
        _, bundle = minco.energy(traj)
        got = minco.propagate_gradient(traj, bundle)
        assert len(calls) == 1
        # A trajectory built without construct builds the same matrix.
        bare = minco.MincoTrajectory(traj.t0, traj.T, traj.coeffs,
                                     traj.boundary)
        want = minco.propagate_gradient(bare, bundle)
        assert len(calls) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_gradient_bundle_algebra(self):
        a = minco.GradientBundle(np.ones((2, 6, 3)), np.ones(2))
        b = minco.GradientBundle(2 * np.ones((2, 6, 3)), 3 * np.ones(2))
        a += b.scaled(0.5)
        assert np.allclose(a.d_coeffs, 2.0)
        assert np.allclose(a.d_T, 2.5)
        z = minco.GradientBundle.zeros(4)
        assert z.d_coeffs.shape == (4, 6, 3)
        assert np.allclose(z.d_T, 0.0)
