"""File formats: maps, polytope covers, trajectories, missions, profiles.

All structured artifacts are JSON with floats printed to 17 significant
digits so that write/read round trips are bit-stable.  Time series are
CSV.  Every writer goes through an atomic temp-plus-rename so readers
never observe partial files.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile

import numpy as np

from . import geom, minco
from .fleet import Mission

FLOAT_FMT = "%.17g"


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("non-finite value in serialized output")
    # "%.17g" prints -0.0 as "-0", which reads back as the integer 0.
    return FLOAT_FMT % float(x) if x or not np.signbit(x) else "-0.0"


def _emit(obj, out) -> None:
    """Minimal JSON emitter with fixed float formatting and sorted keys."""
    if isinstance(obj, dict):
        out.write("{")
        for k, key in enumerate(sorted(obj)):
            if k:
                out.write(",")
            out.write(json.dumps(str(key)))
            out.write(":")
            _emit(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for k, item in enumerate(obj):
            if k:
                out.write(",")
            _emit(item, out)
        out.write("]")
    elif isinstance(obj, bool) or obj is None:
        out.write(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_fmt_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    buf = _io.StringIO()
    _emit(obj, buf)
    return buf.getvalue()


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write_text(path, dumps_json(obj) + "\n")


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def load_obstacle_map(path: str, bounds=None) -> geom.ObstacleMap:
    """Plain-text obstacle input.

    Voxel form: header `voxel nx ny nz resolution ox oy oz`, then one
    `i j k` occupied-cell triple per line.  Point form: one `x y z` float
    triple per line; bounds must come from the caller (config) or default
    to the padded point bounding box.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()
                 and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"empty map file: {path}")
    head = lines[0].split()
    if head[0] == "voxel":
        if len(head) != 8:
            raise ValueError("voxel header needs nx ny nz resolution ox oy oz")
        nx, ny, nz = (int(v) for v in head[1:4])
        res = float(head[4])
        origin = np.array([float(v) for v in head[5:8]])
        occ = np.zeros((nx, ny, nz), dtype=bool)
        for ln in lines[1:]:
            i, j, k = (int(v) for v in ln.split())
            if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
                raise ValueError(f"occupied voxel {i},{j},{k} out of grid")
            occ[i, j, k] = True
        if bounds is None:
            bounds = geom.Aabb(origin, origin + res * np.array([nx, ny, nz]))
        return geom.ObstacleMap.from_voxels(origin, res, occ, bounds=bounds)
    pts = np.array([[float(v) for v in ln.split()] for ln in lines])
    if pts.shape[1] != 3:
        raise ValueError("point cloud lines must hold x y z")
    if bounds is None:
        bounds = geom.Aabb.from_points(pts, pad=1.0)
    return geom.ObstacleMap.from_points(pts, bounds)


def polymap_to_dict(polymap: geom.PolyMap) -> dict:
    out = {
        "epsilon": polymap.epsilon,
        "bounds": {"lo": polymap.bounds.lo.tolist(),
                   "hi": polymap.bounds.hi.tolist()},
        "polytopes": [
            {"normals": p.normals.tolist(),
             "offsets": p.offsets.tolist(),
             "interior": p.interior.tolist()}
            for p in polymap.polytopes
        ],
    }
    if polymap.fill_estimate is not None:
        out["fill_estimate"] = float(polymap.fill_estimate)
    return out


def polymap_from_dict(data: dict) -> geom.PolyMap:
    bounds = geom.Aabb(np.asarray(data["bounds"]["lo"], dtype=float),
                       np.asarray(data["bounds"]["hi"], dtype=float))
    polys = [geom.HalfspacePolytope(np.asarray(p["normals"], dtype=float),
                                    np.asarray(p["offsets"], dtype=float),
                                    interior=np.asarray(p["interior"],
                                                        dtype=float))
             for p in data["polytopes"]]
    return geom.PolyMap(polys, data["epsilon"], bounds,
                        fill_estimate=data.get("fill_estimate"))


def save_polymap(path: str, polymap: geom.PolyMap) -> None:
    write_json(path, polymap_to_dict(polymap))


def load_polymap(path: str) -> geom.PolyMap:
    return polymap_from_dict(read_json(path))


def trajectory_to_dict(traj: minco.MincoTrajectory) -> dict:
    start, end = traj.boundary
    return {
        "t0": traj.t0,
        "boundary": {
            "start": {"pos": start.pos.tolist(), "vel": start.vel.tolist(),
                      "acc": start.acc.tolist()},
            "end": {"pos": end.pos.tolist(), "vel": end.vel.tolist(),
                    "acc": end.acc.tolist()},
        },
        "pieces": [
            {"duration": float(traj.T[i]),
             "coeffs": traj.coeffs[i].reshape(-1).tolist()}
            for i in range(traj.n_pieces)
        ],
    }


def trajectory_from_dict(data: dict) -> minco.MincoTrajectory:
    bs = data["boundary"]["start"]
    be = data["boundary"]["end"]
    start = minco.BoundaryState(np.asarray(bs["pos"], dtype=float),
                                np.asarray(bs["vel"], dtype=float),
                                np.asarray(bs["acc"], dtype=float))
    end = minco.BoundaryState(np.asarray(be["pos"], dtype=float),
                              np.asarray(be["vel"], dtype=float),
                              np.asarray(be["acc"], dtype=float))
    t0 = float(data["t0"])
    if not np.isfinite(t0):
        raise ValueError("trajectory t0 must be finite")
    T = np.array([p["duration"] for p in data["pieces"]], dtype=float)
    coeffs = [np.asarray(p["coeffs"], dtype=float) for p in data["pieces"]]
    for i, (dur, c) in enumerate(zip(T, coeffs)):
        if not (np.isfinite(dur) and dur > 0.0):
            raise ValueError(f"trajectory piece {i}: bad duration {dur}")
        if c.size != 18 or not np.isfinite(c).all():
            raise ValueError(f"trajectory piece {i}: coeffs not 6 x 3 finite")
    return minco.MincoTrajectory(
        t0, T, np.array([c.reshape(6, 3) for c in coeffs]), (start, end))


def save_trajectory(path: str, traj: minco.MincoTrajectory) -> None:
    write_json(path, trajectory_to_dict(traj))


def load_trajectory(path: str) -> minco.MincoTrajectory:
    return trajectory_from_dict(read_json(path))


def load_missions(path: str) -> list:
    """Mission CSV: id,t_o,ox,oy,oz,fx,fy,fz with a header row."""
    missions = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["id", "t_o", "ox", "oy", "oz", "fx", "fy", "fz"]
        if header is None or [h.strip() for h in header] != expected:
            raise ValueError(f"mission CSV header must be "
                             f"{','.join(expected)}")
        for row in reader:
            if not row or not "".join(row).strip():
                continue
            if len(row) != 8:
                raise ValueError(f"mission row needs 8 fields: {row}")
            mid = row[0].strip()
            if mid in seen:
                raise ValueError(f"duplicate mission id {mid!r}")
            seen.add(mid)
            vals = [float(v) for v in row[1:]]
            missions.append(Mission(id=mid, t_o=vals[0],
                                    p_o=np.array(vals[1:4]),
                                    p_f=np.array(vals[4:7])))
    return missions


def write_profile_csv(path: str, rows) -> None:
    """rows: iterable of (t, speed, tilt_deg, omega_norm, thrust_norm,
    drag_norm)."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "speed", "tilt_deg", "omega_norm", "thrust_norm",
                "drag_norm"])
    for row in rows:
        w.writerow([_fmt_float(v) for v in row])
    atomic_write_text(path, buf.getvalue())


def write_robustness_csv(path: str, rows) -> None:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["dt_max", "mean_min_dist", "std_min_dist", "trials"])
    for dt_max, mean, std, trials in rows:
        w.writerow([_fmt_float(dt_max), _fmt_float(mean), _fmt_float(std),
                    int(trials)])
    atomic_write_text(path, buf.getvalue())
