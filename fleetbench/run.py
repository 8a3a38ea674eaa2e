#!/usr/bin/env python3
"""Fleet-planning benchmark: run one workload and print one JSON result line.

Run from the repository root:

    python3 fleetbench/run.py --workload open-crossing --seed 1 \
        --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, medians over at
least two batches, with times scaled by a host-speed probe sampled while
they ran (probe.py); --trace 1 prints its per-layer metrics from one
untraced and one traced batch.  Every run checks the committed trajectories and
fails (correct: false, exit code 1) when a check fails.  See
fleetbench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

# One process with no threads: keep numpy's BLAS to the calling thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Positions must match the mission endpoints to this, in metres.
ENDPOINT_TOL = 1e-6
# The independent pair check allows the same 1 mm as the commit audit.
PAIR_TOL = 1e-3
# Grid step of the independent pair check, in seconds, on both clocks; the
# worst PAIR_REFINE separate encounters are refined 20x finer.
PAIR_STEP = 0.02
PAIR_REFINE = 4
# Set-up is repeated for this long, and at least MIN_SETUPS times.
SETUP_SECONDS = 2.0
MIN_SETUPS = 5
MIN_BATCHES = 2
# A planning batch is run once more with stream 0, to check that the same
# seed plans the same, when it takes at most this share of --seconds.
REPEAT_SHARE = 0.25


def _load_program():
    if not os.path.isfile(os.path.join(SRC, "swarmplan", "__init__.py")):
        sys.exit(f"fleetbench: no program source at {SRC}/swarmplan")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import swarmplan
    if not os.path.abspath(swarmplan.__file__).startswith(SRC + os.sep):
        sys.exit(f"fleetbench: imported swarmplan from {swarmplan.__file__}")


# ---------------------------------------------------------------- checks

def _wdist(d, w):
    return (d[..., 0] ** 2 + d[..., 1] ** 2 + w * d[..., 2] ** 2) ** 0.5


def pair_margin(a, b, margins) -> float:
    """Worst weighted distance minus 2 M_r between a(s) and b(u) over every
    pair of clock times with |s - u| <= 2 M_d, each vehicle held at its
    start before its domain and at its goal after it.

    Both clocks are swept on one grid of step PAIR_STEP that spans both
    domains padded by 2 M_d, so one pass covers both orientations and the
    parked phases; stretches where neither vehicle moves within 2 M_d are
    skipped, as their positions repeat those at the stretch's ends.  The
    worst cells of PAIR_REFINE encounters more than 2 M_d apart are then
    searched again on a grid 20x finer in (s, u).  The program's audit is
    not used: this shares only the trajectories' position evaluation."""
    span = 2.0 * margins.M_d
    k = max(int(np.ceil(span / PAIR_STEP)), 1) if span > 0.0 else 0
    h = span / k if k else PAIR_STEP
    lo = min(a.t0, b.t0) - span
    n = int(np.ceil((max(a.t_end, b.t_end) + span - lo) / h)) + 1
    clock = lo + h * np.arange(-k, n + k)
    s = clock[k:k + n]
    rows = np.flatnonzero(((s >= a.t0 - span) & (s <= a.t_end + span))
                          | ((s >= b.t0 - span) & (s <= b.t_end + span)))
    pa = a.eval_many(s[rows], 0)
    pb = b.eval_many(clock, 0)
    # d2[r, j] is the squared weighted distance between a at s[r] and b at
    # s[r] + (j - k) h: one diagonal band of the (s, u) grid.
    d2 = np.zeros((len(rows), 2 * k + 1))
    for c, wc in enumerate((1.0, 1.0, margins.w)):
        win = np.lib.stride_tricks.sliding_window_view(pb[:, c], 2 * k + 1)
        d2 += wc * (pa[:, c, None] - win[rows]) ** 2
    best_j = np.argmin(d2, axis=1)
    best_d = np.sqrt(d2[np.arange(len(rows)), best_j])
    worst = float(best_d.min())

    picked = []
    for i in np.argsort(best_d):
        if len(picked) == PAIR_REFINE:
            break
        if all(abs(s[rows[i]] - s[rows[j]]) > span for j in picked):
            picked.append(i)
    fine = np.linspace(-h, h, 41)
    for i in picked:
        t_a = s[rows[i]] + fine
        t_b = s[rows[i]] + (best_j[i] - k) * h + fine
        gap = np.abs(t_a[:, None] - t_b[None, :])
        d = _wdist(a.eval_many(t_a, 0)[:, None, :]
                   - b.eval_many(t_b, 0)[None, :, :], margins.w)
        worst = min(worst, float(d[gap <= span + 1e-12].min()))
    return worst - 2.0 * margins.M_r


def _goal_blocked(mission, committed, margins) -> bool:
    """A vehicle stays parked at its goal for ever, so a request whose goal
    lies within 2 M_r of a committed goal can never arrive."""
    goal = np.asarray(mission.p_f)
    return any(_wdist(goal - o.traj.eval(o.traj.t_end, 0), margins.w)
               < 2.0 * margins.M_r for o in committed)


def check_batch(batch, all_commit, margins) -> tuple:
    """(problems, unexpected failures) of one batch.

    A rejected request is expected only where its goal is blocked for ever;
    any other rejection counts as a failed operation, and on a workload
    whose requests must all commit it is also a failed check."""
    problems, unexpected = [], 0
    committed = []
    for o in batch.outcomes:
        m = o.mission
        blocked = _goal_blocked(m, committed, margins)
        if not o.committed:
            if all_commit:
                problems.append(f"{m.id}: rejected: {o.error}")
            if not blocked:
                unexpected += 1
            continue
        if blocked:
            problems.append(f"{m.id}: committed a goal blocked for ever")
        tr = o.traj
        if tr.t0 < m.t_o - 1e-9:
            problems.append(f"{m.id}: departs at {tr.t0} before t_o {m.t_o}")
        for label, t, p in (("start", tr.t0, m.p_o), ("end", tr.t_end, m.p_f)):
            err = float(np.linalg.norm(tr.eval(t, 0) - np.asarray(p)))
            if err > ENDPOINT_TOL:
                problems.append(f"{m.id}: {label} off by {err:.3e} m")
        committed.append(o)
    for i, oa in enumerate(committed):
        for ob in committed[i + 1:]:
            worst = pair_margin(oa.traj, ob.traj, margins)
            if worst < -PAIR_TOL:
                problems.append(f"({oa.mission.id}, {ob.mission.id}): "
                                f"pair margin {worst:.4e} m")
    n = len(committed)
    if len(batch.audit_rows) != n * (n - 1) // 2:
        problems.append(f"final audit covered {len(batch.audit_rows)} of "
                        f"{n * (n - 1) // 2} pairs")
    return problems, unexpected


def _signature(batch):
    return [(o.mission.id, o.traj.t_end) for o in batch.outcomes
            if o.committed]


# --------------------------------------------------------------- metrics

def _arc_ratio(o) -> float:
    tr = o.traj
    pts = tr.eval_many(np.linspace(tr.t0, tr.t_end, 4001), 0)
    arc = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    return arc / float(np.linalg.norm(o.mission.p_f - o.mission.p_o))


def batch_metrics(batch) -> dict:
    """End-to-end metrics of one batch; the committed-request means read 0
    when nothing committed."""
    ok = [o for o in batch.outcomes if o.committed]
    return {
        "batch_s": batch.seconds,
        "missions_ok": len(ok) / len(batch.outcomes),
        "flight_s_mean": statistics.fmean(
            [o.traj.t_end - o.mission.t_o for o in ok] or [0.0]),
        "arc_len_ratio": statistics.fmean(
            [_arc_ratio(o) for o in ok] or [0.0]),
    }


def layer_metrics(tracer, untraced, traced) -> dict:
    s = tracer.summary()
    iters = s.get("solver.minimize.iterations", 0.0)
    checks = s.get("optimize.post_check.calls", 0.0)
    s["solver.minimize.evals_per_iter"] = (
        s.get("solver.minimize.evaluations", 0.0) / iters if iters else 0.0)
    s["optimize.post_check.pass_ratio"] = (
        (checks - s.get("optimize.post_check.fails", 0.0)) / checks
        if checks else 0.0)
    s["trace.batch_s"] = traced.seconds
    s["trace.overhead_s"] = traced.seconds - untraced.seconds
    return s


def _verdicts(batch):
    return [{"id": o.mission.id,
             "verdict": "committed" if o.committed
             else type(o.error).__name__,
             "message": "" if o.committed else str(o.error),
             "seconds": round(o.seconds, 4)} for o in batch.outcomes]


# ------------------------------------------------------------------ main

def _measure(wl, args, tracer):
    """Set up, then run the batches.  Returns the context of the last
    set-up, (perf_counter start, seconds) of each set-up, every batch run,
    and the batches the metrics are taken over.

    Untraced: set-ups for at least SETUP_SECONDS and MIN_SETUPS times, then
    batch k = 0, 1, ... on its own stream of the seed, at least MIN_BATCHES
    and more while the next one fits in --seconds, then, if batches are
    short, stream 0 again for the same-seed check only.  Traced: one
    set-up, then stream 0 once untraced and once traced."""
    setups = []
    while not setups or not tracer and (
            len(setups) < MIN_SETUPS
            or sum(dt for _, dt in setups) < SETUP_SECONDS):
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            ctx = wl.setup(args.seed)
        finally:
            if tracer:
                tracer.uninstall()
        setups.append((t0, time.perf_counter() - t0))

    batches = []
    t_start = time.perf_counter()
    while True:
        k = 0 if tracer else len(batches)
        batches.append(wl.batch(ctx, args.seed, k))
        if tracer:
            tracer.install()
            try:
                batches.append(wl.batch(ctx, args.seed, k))
            finally:
                tracer.uninstall()
            break
        elapsed = time.perf_counter() - t_start
        if (len(batches) >= MIN_BATCHES
                and elapsed + batches[-1].seconds > args.seconds):
            break
    measured = list(batches)
    if (not tracer and batches[0].stream != batches[1].stream
            and batches[0].seconds <= REPEAT_SHARE * args.seconds):
        batches.append(wl.batch(ctx, args.seed, 0))
    return ctx, setups, batches, measured


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    _load_program()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    from probe import Probe
    from tracer import Tracer
    import workloads as w

    if args.workload not in w.WORKLOADS:
        sys.exit(f"fleetbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(w.WORKLOADS)}")
    wl = w.WORKLOADS[args.workload]
    tracer = Tracer("swarmplan") if args.trace else None
    # The untraced run samples host speed while it is timed (probe.py).
    probe = None if tracer else Probe(wl.probe)
    if probe:
        probe.start()
    try:
        ctx, setups, batches, measured = _measure(wl, args, tracer)
    finally:
        if probe:
            probe.stop()

    problems, unexpected = [], 0
    for b in batches:
        found, n = check_batch(b, wl.all_commit, w.MARGINS)
        problems += found
        unexpected += n
    first = {}
    for b in batches:
        if _signature(first.setdefault(b.stream, b)) != _signature(b):
            problems.append("same seed gave different committed ids or t_end")

    detail = {"workload": args.workload, "seed": args.seed,
              "batch_s": [round(b.seconds, 4) for b in batches],
              "verdicts": [_verdicts(b) for b in batches],
              "problems": problems}
    if "lanes" in ctx:
        detail["inflated_box_overlap_share"] = round(
            w.inflated_overlap_share([t for _, t in ctx["lanes"]]), 4)

    if tracer:
        values = layer_metrics(tracer, batches[0], batches[1])
        names = spec["per_layer"]
        detail["absent"] = tracer.absent
        os.makedirs(os.path.join(ROOT, ".fleetbench"), exist_ok=True)
        tracer.write_spans(os.path.join(
            ROOT, ".fleetbench", f"spans-{args.workload}-{args.seed}.csv"))
    else:
        per_batch = [batch_metrics(b) for b in measured]
        windows = [probe.window(b.started, b.seconds) for b in measured]
        for m, (net, probes) in zip(per_batch, windows):
            m["batch_s"] = probe.normalized(net, probes)
        values = {k: statistics.median(m[k] for m in per_batch)
                  for k in per_batch[0]}
        windows = [probe.window(t0, dt) for t0, dt in setups]
        values["setup_s"] = probe.normalized(
            statistics.median(net for net, _ in windows),
            [d for _, probes in windows for d in probes])
        detail["wall_setup_s"] = statistics.median(dt for _, dt in setups)
        detail["wall_batch_s"] = statistics.median(b.seconds
                                                   for b in measured)
        detail["probe_mean_s"] = statistics.fmean(probe.durations)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        names = spec["end_to_end"]

    print(json.dumps(detail))
    result = {
        "correct": not problems,
        "attempted": sum(len(b.outcomes) for b in batches),
        "failed": unexpected,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
