"""Incremental fleet coordination, commit auditing, and robustness trials.

Committed trajectories are the reference set every new mission must stay
clear of.  Commits re-audit the candidate against the whole fleet with the
pair kernel penalty.check_equivalent_criterion, whose docstring states the
presence model; the robustness harness replays committed fleets under
bounded random time warps and reports minimum pairwise distances.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import penalty
from .errors import AuditFailure

COMMIT_RES_FACTOR = 0.02
FINAL_RES_FACTOR = 0.01
AUDIT_TOL = -1e-3
WARP_SLOPE_BOUND = 0.5

PENDING = "pending"
COMMITTED = "committed"
FAILED = "failed"


@dataclass
class Mission:
    id: str
    p_o: np.ndarray
    p_f: np.ndarray
    t_o: float
    status: str = PENDING

    def __post_init__(self):
        self.p_o = np.asarray(self.p_o, dtype=float).reshape(3)
        self.p_f = np.asarray(self.p_f, dtype=float).reshape(3)
        self.t_o = float(self.t_o)
        for name in ("t_o", "p_o", "p_f"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"mission {self.id!r}: {name} must be finite")


@dataclass
class FleetEntry:
    mission_id: str
    traj: object


def audit_resolution(margins, factor: float) -> float:
    """Kernel grid step: a share of M_d, or of 10 s when M_d is zero."""
    if margins.M_d > 0.0:
        return factor * margins.M_d
    return factor * 10.0


def audit_rows(named_trajs, margins, resolution: float) -> list:
    """(id_a, id_b, margin) for every pair of (id, trajectory) items, in
    order."""
    named = list(named_trajs)
    return [(ia, ib, penalty.check_equivalent_criterion(
                ta, tb, margins, resolution)[1])
            for k, (ia, ta) in enumerate(named) for ib, tb in named[k + 1:]]


class FleetDb:
    """Committed-trajectory store with serialized, audited insertion.

    Reads take a snapshot under the lock; commits re-audit the candidate
    against every committed neighbor before inserting, so the invariant
    that all committed pairs pass the reciprocal-safety audit holds after
    any commit sequence.  Presence outside a flight follows the model in
    penalty.check_equivalent_criterion.
    """

    def __init__(self, polymap, margins, audit_tol: float = AUDIT_TOL):
        self.polymap = polymap
        self.margins = margins
        self.audit_tol = float(audit_tol)
        self._entries: list = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> list:
        with self._lock:
            return list(self._entries)

    def trajectories(self) -> list:
        with self._lock:
            return [e.traj for e in self._entries]

    def ids(self) -> list:
        with self._lock:
            return [e.mission_id for e in self._entries]

    def commit(self, mission_id: str, traj) -> None:
        """Audit against every committed neighbor, then insert atomically."""
        res = audit_resolution(self.margins, COMMIT_RES_FACTOR)
        with self._lock:
            if any(e.mission_id == mission_id for e in self._entries):
                raise ValueError(f"mission id {mission_id!r} already committed")
            for e in self._entries:
                _, margin, _ = penalty.check_equivalent_criterion(
                    traj, e.traj, self.margins, res)
                if margin < self.audit_tol:
                    raise AuditFailure(
                        f"commit audit failed for ({mission_id}, "
                        f"{e.mission_id}): margin {margin:.4e} m",
                        pair=(mission_id, e.mission_id), margin=margin)
            self._entries.append(FleetEntry(mission_id, traj))

    def final_audit(self) -> list:
        """All-pairs audit at the fine resolution; returns margin rows."""
        return audit_rows(((e.mission_id, e.traj) for e in self.entries()),
                          self.margins,
                          audit_resolution(self.margins, FINAL_RES_FACTOR))


def min_pairwise_distance(trajs, step: float, warps=None,
                          margins=None) -> float:
    """Minimum pairwise distance over a shared absolute time grid.

    Each vehicle i is evaluated at t + warp_i(t); positions extend
    constantly outside a trajectory's domain.  Distances use the margins'
    vertical weighting when margins are given, plain Euclidean otherwise.
    Returns +inf for fewer than two vehicles.
    """
    if step <= 0.0:
        raise ValueError("sample step must be positive")
    trajs = list(trajs)
    if len(trajs) < 2:
        return np.inf
    t_lo = min(tr.t0 for tr in trajs)
    t_hi = max(tr.t_end for tr in trajs)
    n = max(int(np.ceil((t_hi - t_lo) / step)) + 1, 2)
    grid = np.linspace(t_lo, t_hi, n)
    positions = []
    for i, tr in enumerate(trajs):
        warp = warps[i] if warps is not None else None
        times = grid + warp(grid) if warp is not None else grid
        positions.append(tr.eval_many(times, 0))
    w = margins.W_diag if margins is not None else np.ones(3)
    best = np.inf
    for i in range(len(trajs)):
        for j in range(i + 1, len(trajs)):
            diff = positions[i] - positions[j]
            d2 = np.min(np.sum(diff * diff * w, axis=1))
            best = min(best, float(np.sqrt(d2)))
    return best


@dataclass
class DisturbanceSpec:
    """Bounded smooth time-warp disturbances for robustness trials.

    regime "all" warps every vehicle independently; regime "single" warps
    one randomly chosen vehicle per trial (the one-sided reading, where
    only one vehicle of any pair deviates).
    """

    dt_max: float
    trials: int = 20
    regime: str = "all"

    def __post_init__(self):
        if self.dt_max < 0.0:
            raise ValueError("dt_max must be non-negative")
        if self.trials < 1:
            raise ValueError("at least one trial required")
        if self.regime not in ("all", "single"):
            raise ValueError("regime must be 'all' or 'single'")


def random_warp(rng, dt_max: float):
    """Smooth warp t -> delta(t), |delta| <= dt_max, |d delta/dt| <= 0.5."""
    if dt_max <= 0.0:
        return lambda t: np.zeros_like(np.asarray(t, dtype=float))
    nu = rng.uniform(0.3, 1.0) * min(WARP_SLOPE_BOUND / dt_max, 1.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    amp = dt_max

    def warp(t):
        return amp * np.sin(nu * np.asarray(t, dtype=float) + phase)

    return warp


def _trial_warps(rng, n: int, spec: DisturbanceSpec):
    if spec.regime == "single":
        pick = int(rng.integers(n))
        return [random_warp(rng, spec.dt_max) if i == pick else None
                for i in range(n)]
    return [random_warp(rng, spec.dt_max) for _ in range(n)]


def robustness_experiment(trajs, margins, dt_grid, rng, *,
                          trials: int = 20, regime: str = "all",
                          step: float | None = None,
                          max_workers: int = 4) -> list:
    """Mean/std of the minimum pairwise distance under random warps.

    Returns rows (dt_max, mean_min_dist, std_min_dist, trials).  Warps are
    drawn sequentially from the caller's generator, so results are
    deterministic for a given seed; trials evaluate concurrently with a
    fixed aggregation order.
    """
    trajs = list(trajs)
    if step is None:
        step = (0.02 * margins.M_d if margins is not None
                and margins.M_d > 0.0 else 0.05)
    rows = []
    for dt_max in dt_grid:
        spec = DisturbanceSpec(dt_max=float(dt_max), trials=trials,
                               regime=regime)
        warp_sets = [_trial_warps(rng, len(trajs), spec)
                     for _ in range(trials)]
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            mins = list(pool.map(
                lambda ws: min_pairwise_distance(trajs, step, warps=ws,
                                                 margins=margins),
                warp_sets))
        mins = np.asarray(mins, dtype=float)
        rows.append((float(dt_max), float(np.mean(mins)),
                     float(np.std(mins)), trials))
    return rows
