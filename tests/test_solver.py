"""Quasi-Newton minimizer behavior on standard objectives."""

import numpy as np
import pytest

from swarmplan import solver


def quadratic(H, c):
    def fg(x):
        return 0.5 * float(x @ H @ x) + float(c @ x), H @ x + c
    return fg


def rosenbrock(x):
    f = float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                     + (1.0 - x[:-1]) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return f, g


class TestMinimize:
    def test_quadratic_exact(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(8, 8))
        H = A @ A.T + 0.5 * np.eye(8)
        c = rng.normal(size=8)
        res = solver.minimize(quadratic(H, c), np.zeros(8), gtol=1e-6,
                              gtol_is_relative=False)
        assert res.status == solver.CONVERGED
        assert np.allclose(res.x, np.linalg.solve(H, -c), atol=1e-5)

    def test_rosenbrock(self):
        x0 = np.full(6, -1.2)
        res = solver.minimize(rosenbrock, x0, gtol=1e-8,
                              gtol_is_relative=False, max_iter=2000)
        assert res.status == solver.CONVERGED
        assert np.allclose(res.x, np.ones(6), atol=1e-5)
        assert res.fun < 1e-10

    def test_monotone_best(self):
        # Returned objective never exceeds the starting value.
        def fg(x):
            return rosenbrock(x)
        x0 = np.array([3.0, -4.0])
        f0, _ = fg(x0)
        res = solver.minimize(fg, x0, max_iter=3)
        assert res.fun <= f0

    def test_relative_tolerance_scales(self):
        H = np.diag([1e6, 1e6])
        fg = quadratic(H, np.array([1e6, -2e6]))
        res = solver.minimize(fg, np.zeros(2), gtol=1e-6)
        assert res.status == solver.CONVERGED
        # Relative stop: gradient reduced by six orders from the start.
        assert res.grad_inf <= 1e-6 * 2e6 + 1e-12

    def test_iteration_cap(self):
        res = solver.minimize(rosenbrock, np.full(10, -1.2), max_iter=4,
                              gtol=1e-14, gtol_is_relative=False)
        assert res.status == solver.MAX_ITER
        assert res.iterations == 4

    def test_nonfinite_regions_avoided(self):
        # Objective is infinite outside the unit ball; minimum at 0.9 e1.
        target = np.array([0.9, 0.0, 0.0])

        def fg(x):
            if x @ x > 1.0:
                return np.inf, np.zeros_like(x)
            d = x - target
            return float(d @ d), 2.0 * d

        res = solver.minimize(fg, np.zeros(3), gtol=1e-10,
                              gtol_is_relative=False)
        assert np.allclose(res.x, target, atol=1e-6)
        assert res.fun < 1e-10

    def test_raises_on_infinite_start(self):
        def fg(x):
            return np.inf, np.zeros_like(x)
        with pytest.raises(ValueError):
            solver.minimize(fg, np.zeros(2))

    def test_zero_gradient_start(self):
        fg = quadratic(np.eye(2), np.zeros(2))
        res = solver.minimize(fg, np.zeros(2))
        assert res.status == solver.CONVERGED
        assert res.iterations == 0

    def test_memory_one_still_converges(self):
        res = solver.minimize(rosenbrock, np.full(4, -1.2), memory=1,
                              gtol=1e-7, gtol_is_relative=False, max_iter=5000)
        assert res.status == solver.CONVERGED
        assert np.allclose(res.x, np.ones(4), atol=1e-4)
