"""Limited-memory quasi-Newton minimizer with a strong Wolfe line search.

The objective callable returns (value, gradient) and may return a non-finite
value to mark a point as unacceptable; such points are never stepped onto.
The best accepted iterate is tracked and returned even when the line search
stalls, so callers always get the lowest objective seen.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

CONVERGED = "converged"
MAX_ITER = "max_iter"
LINE_SEARCH_FAILURE = "line_search_failure"


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    grad: np.ndarray
    iterations: int
    evaluations: int
    status: str

    @property
    def grad_inf(self) -> float:
        return float(np.max(np.abs(self.grad))) if self.grad.size else 0.0


def _finite(f: float) -> bool:
    return bool(np.isfinite(f))


class _WolfeSearch:
    """Bracketing strong Wolfe search (sufficient decrease + curvature)."""

    def __init__(self, fun, c1: float, c2: float, max_evals: int = 40):
        self.fun = fun
        self.c1 = c1
        self.c2 = c2
        self.max_evals = max_evals
        self.evals = 0

    def _phi(self, x, d, alpha):
        self.evals += 1
        f, g = self.fun(x + alpha * d)
        slope = float(g @ d) if _finite(f) else np.nan
        return f, g, slope

    def search(self, x, f0, g0, d, alpha0=1.0):
        """Return (alpha, f, g) satisfying strong Wolfe, or None."""
        phi0 = f0
        dphi0 = float(g0 @ d)
        if dphi0 >= 0.0:
            return None
        alpha_prev, phi_prev, dphi_prev = 0.0, phi0, dphi0
        g_prev = g0
        alpha = alpha0
        for it in range(12):
            if self.evals >= self.max_evals:
                return None
            f, g, slope = self._phi(x, d, alpha)
            if not _finite(f):
                # Stepped past the admissible region; shrink into the
                # bracket [alpha_prev, alpha] where the low end is finite.
                hit = self._zoom(x, phi0, dphi0, d,
                                 alpha_prev, phi_prev, dphi_prev, alpha)
                return hit
            if f > phi0 + self.c1 * alpha * dphi0 or (it > 0 and f >= phi_prev):
                return self._zoom(x, phi0, dphi0, d,
                                  alpha_prev, phi_prev, dphi_prev, alpha,
                                  f_hi=f)
            if abs(slope) <= -self.c2 * dphi0:
                return alpha, f, g
            if slope >= 0.0:
                return self._zoom(x, phi0, dphi0, d,
                                  alpha, f, slope, alpha_prev,
                                  f_hi=phi_prev)
            alpha_prev, phi_prev, dphi_prev, g_prev = alpha, f, slope, g
            alpha *= 2.5
        return None

    def _zoom(self, x, phi0, dphi0, d, lo, f_lo, dphi_lo, hi, f_hi=None):
        best = None
        for _ in range(30):
            if self.evals >= self.max_evals:
                break
            if abs(hi - lo) <= 1e-16 * max(1.0, abs(lo)):
                break
            # Quadratic interpolation using the low-end slope, guarded
            # to stay well inside the bracket.
            alpha = lo + 0.5 * (hi - lo)
            if f_hi is not None and _finite(f_hi) and dphi_lo != 0.0:
                denom = 2.0 * (f_hi - f_lo - dphi_lo * (hi - lo))
                if denom != 0.0:
                    cand = lo - dphi_lo * (hi - lo) ** 2 / denom
                    span = abs(hi - lo)
                    if min(lo, hi) + 0.1 * span <= cand <= max(lo, hi) - 0.1 * span:
                        alpha = cand
            f, g, slope = self._phi(x, d, alpha)
            if not _finite(f):
                hi, f_hi = alpha, np.inf
                continue
            if f > phi0 + self.c1 * alpha * dphi0 or f >= f_lo:
                hi, f_hi = alpha, f
                continue
            best = (alpha, f, g)
            if abs(slope) <= -self.c2 * dphi0:
                return best
            if slope * (hi - lo) >= 0.0:
                hi, f_hi = lo, f_lo
            lo, f_lo, dphi_lo = alpha, f, slope
        return best


def minimize(fun, x0, *, memory: int = 10, gtol: float = 1e-5,
             gtol_is_relative: bool = True, max_iter: int = 500,
             c1: float = 1e-4, c2: float = 0.9) -> MinimizeResult:
    """Minimize fun(x) -> (f, g) from x0.

    Accepted iterates have non-increasing objective.  Termination at
    gradient inf-norm below the tolerance (scaled by the initial gradient
    norm when gtol_is_relative), at the iteration cap, or when the line
    search cannot make progress even along steepest descent.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
    evals = 1
    if not _finite(f):
        raise ValueError("objective is not finite at the initial point")
    g = np.asarray(g, dtype=float)
    g0_inf = float(np.max(np.abs(g))) if g.size else 0.0
    stop = gtol * max(g0_inf, 1e-300) if gtol_is_relative else gtol
    stop = max(stop, 1e-16)

    hist: deque = deque(maxlen=memory)
    best_x, best_f, best_g = x.copy(), f, g.copy()
    status = MAX_ITER
    it = 0
    for it in range(1, max_iter + 1):
        if float(np.max(np.abs(g), initial=0.0)) <= stop:
            status = CONVERGED
            it -= 1
            break
        d = _two_loop(g, hist)
        if float(d @ g) >= -1e-14 * (np.linalg.norm(d) * np.linalg.norm(g) + 1e-300):
            hist.clear()
            d = -g
        alpha0 = 1.0 if hist else min(1.0, 1.0 / max(float(np.max(np.abs(g))), 1e-12))
        ls = _WolfeSearch(fun, c1, c2)
        hit = ls.search(x, f, g, d, alpha0=alpha0)
        evals += ls.evals
        if hit is None and hist:
            hist.clear()
            ls = _WolfeSearch(fun, c1, c2)
            hit = ls.search(x, f, g, -g, alpha0=alpha0)
            evals += ls.evals
            d = -g
        if hit is None:
            status = LINE_SEARCH_FAILURE
            break
        alpha, f_new, g_new = hit
        s = alpha * d
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            hist.append((s, y, 1.0 / sy))
        x = x + s
        f, g = f_new, np.asarray(g_new, dtype=float)
        if f <= best_f:
            best_x, best_f, best_g = x.copy(), f, g.copy()
    else:
        it = max_iter
    if status == MAX_ITER and float(np.max(np.abs(g), initial=0.0)) <= stop:
        status = CONVERGED
    return MinimizeResult(x=best_x, fun=best_f, grad=best_g,
                          iterations=it, evaluations=evals,
                          status=status)


def _two_loop(g, hist) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(hist):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if hist:
        s, y, _ = hist[-1]
        q *= float(s @ y) / max(float(y @ y), 1e-300)
    for (s, y, rho), a in zip(hist, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q
