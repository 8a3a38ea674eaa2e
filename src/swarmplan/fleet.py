"""Incremental fleet coordination, commit auditing, and robustness trials.

Committed trajectories are the reference set every new mission must stay
clear of.  Every pair audit is audit_margin: the pair kernel
penalty.check_equivalent_criterion, whose docstring states the presence
model, at a grid step of AUDIT_SHARE of M_d.  Commits audit the candidate
against the whole fleet and keep the margins for the final audit; the
robustness harness replays committed fleets under bounded random time
warps and reports minimum pairwise distances.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import penalty
from .errors import AuditFailure

AUDIT_SHARE = 0.01   # audit grid step, as a share of M_d (of 10 s if M_d = 0)
AUDIT_TOL = -1e-3    # m; a pair with a lower margin fails the audit
WARP_SLOPE_BOUND = 0.5
TRIAL_STEP_SHARE = 0.02  # robustness trials sample at this share of M_d,
TRIAL_STEP = 0.05        # or every TRIAL_STEP s when M_d is zero,
TRIAL_WORKERS = 4        # on this many threads

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
    audit: tuple   # audit margin against each earlier entry, in order


def audit_margin(traj_a, traj_b, margins) -> float:
    """The pair audit: the symmetric kernel's margin at a grid step of
    AUDIT_SHARE of M_d, or of 10 s when M_d is zero."""
    res = AUDIT_SHARE * (margins.M_d if margins.M_d > 0.0 else 10.0)
    return penalty.check_equivalent_criterion(traj_a, traj_b, margins, res)[1]


def audit_rows(named_trajs, margins) -> list:
    """(id_a, id_b, margin) for every pair of (id, trajectory) items, in
    order."""
    named = list(named_trajs)
    return [(ia, ib, audit_margin(ta, tb, margins))
            for k, (ia, ta) in enumerate(named) for ib, tb in named[k + 1:]]


class FleetDb:
    """Committed-trajectory store with serialized, audited insertion.

    Reads take a snapshot under the lock; commits audit the candidate
    against every committed neighbor before inserting it with the margins,
    so the invariant that all committed pairs pass the reciprocal-safety
    audit holds after any commit sequence and final_audit only reads.
    Presence outside a flight follows the model in
    penalty.check_equivalent_criterion.
    """

    def __init__(self, polymap, margins):
        self.polymap = polymap
        self.margins = margins
        self._entries: list = []
        self._lock = threading.Lock()

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
        with self._lock:
            if any(e.mission_id == mission_id for e in self._entries):
                raise ValueError(f"mission id {mission_id!r} already committed")
            audit = []
            for e in self._entries:
                margin = audit_margin(traj, e.traj, self.margins)
                if margin < AUDIT_TOL:
                    raise AuditFailure(
                        f"commit audit failed for ({mission_id}, "
                        f"{e.mission_id}): margin {margin:.4e} m",
                        pair=(mission_id, e.mission_id), margin=margin)
                audit.append(margin)
            self._entries.append(FleetEntry(mission_id, traj, tuple(audit)))

    def final_audit(self) -> list:
        """The commits' (id_a, id_b, margin) rows, in audit_rows order."""
        entries = self.entries()
        return [(a.mission_id, b.mission_id, b.audit[k])
                for k, a in enumerate(entries) for b in entries[k + 1:]]


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
                          trials: int = 20, regime: str = "all") -> list:
    """Mean/std of the minimum pairwise distance under random warps.

    Returns rows (dt_max, mean_min_dist, std_min_dist, trials).  Warps are
    drawn sequentially from the caller's generator, so results are
    deterministic for a given seed; trials evaluate concurrently with a
    fixed aggregation order.
    """
    trajs = list(trajs)
    step = (TRIAL_STEP_SHARE * margins.M_d if margins is not None
            and margins.M_d > 0.0 else TRIAL_STEP)
    rows = []
    for dt_max in dt_grid:
        spec = DisturbanceSpec(dt_max=float(dt_max), trials=trials,
                               regime=regime)
        warp_sets = [_trial_warps(rng, len(trajs), spec)
                     for _ in range(trials)]
        with ThreadPoolExecutor(max_workers=TRIAL_WORKERS) as pool:
            mins = list(pool.map(
                lambda ws: min_pairwise_distance(trajs, step, warps=ws,
                                                 margins=margins),
                warp_sets))
        mins = np.asarray(mins, dtype=float)
        rows.append((float(dt_max), float(np.mean(mins)),
                     float(np.std(mins)), trials))
    return rows
