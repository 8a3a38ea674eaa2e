"""In-memory span and counter recorder around the program's public functions.

Each traced function is wrapped and the wrapper is installed under every
name a caller looks the function up by: a module attribute such as
``geom.segment_inside``, a name imported into another module such as
``flat_batch`` in ``penalty`` and ``optimize``, or a class attribute such as
``FleetDb.commit``.  A span is (name, start, end, parent); self time is the
span's duration minus the durations of its direct children.  A function that
no longer exists is reported as absent and its metrics read zero.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict


def _minimize_stats(res):
    return {"iterations": getattr(res, "iterations", 0),
            "evaluations": getattr(res, "evaluations", 0),
            "line_search_failures":
                int(getattr(res, "status", "") == "line_search_failure")}


def _audit_stats(rows):
    return {"pairs": len(rows)}


# Traced functions, as module.attribute or module.Class.method, with an
# optional hook that reads counters from the returned value.
TARGETS = {
    "geom.polyhedronize": None,
    "geom.segment_inside": None,
    "geom.stab_all": None,
    "pathfind.informed_rrt_star": None,
    "pathfind.corridor_from_path": None,
    "pathfind.shortest_path_refine": None,
    "optimize.plan_mission": None,
    "optimize.chart_build": None,
    "optimize.solve": None,
    "optimize.temporal_schedule": None,
    "optimize.post_check": None,
    "solver.minimize": _minimize_stats,
    "penalty.composite": None,
    "penalty.corridor_penalty": None,
    "penalty.capsule_penalty": None,
    "penalty.limits_penalty": None,
    "penalty.check_equivalent_criterion": None,
    "dynamics.flat_batch": None,
    "minco.construct": None,
    "minco.propagate_gradient": None,
    "fleet.FleetDb.commit": None,
    "fleet.FleetDb.final_audit": _audit_stats,
}


class Tracer:
    """Wraps TARGETS inside one package while installed."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list = []          # [name, start, end, parent, outermost]
        self.counters: dict = defaultdict(int)
        self.absent: list = []
        self._stack: list = []
        self._active: dict = defaultdict(int)
        self._patches: list = []

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(prefix))]

    def _wrap(self, name, fn, hook):
        spans, stack, active = self.spans, self._stack, self._active
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    active[name] == 0]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[f"{name}.fails"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                active[name] -= 1
                stack.pop()
            if hook is not None:
                for key, val in hook(result).items():
                    counters[f"{name}.{key}"] += val
            return result

        return traced

    def install(self) -> None:
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        self.absent = []
        for target, hook in TARGETS.items():
            mod_name, *path = target.split(".")
            owner = by_name.get(f"{self.package}.{mod_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original, hook)
            if len(path) > 1:
                self._patch(owner, path[-1], original, wrapper)
                continue
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-function calls, total s, self s and failures."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for i, (name, t0, t1, _, outermost) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (t1 - t0) - child[i]
            if outermost:
                out[f"{name}.s"] += t1 - t0
        for key, n in self.counters.items():
            out[key] += n
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start", "end", "parent"])
            for name, t0, t1, parent, _ in self.spans:
                w.writerow([name, repr(t0), repr(t1), parent])
