"""Free-space geometry.

Contents:
    Aabb                 axis-aligned box
    HalfspacePolytope    convex region {x : N x <= o} with unit row normals
    ObstacleMap          voxel grid or raw point cloud with scene bounds
    PolyMap              polytope union covering free space; owns the one
                         box filter (per-polytope bounding boxes) in front
                         of every point and segment query
    module operations    analytic centers, vertex enumeration, pairwise
                         intersections, tangent-plane polytope growth, map
                         polyhedronization, stab queries, segment containment
"""

from collections import deque

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import EmptyInterior, NoFreeSpace, SeedOccupied, Unbounded

# Strict-interior margin required of every stored witness point.
INTERIOR_MARGIN = 1e-6
# Tangent cuts are shifted past the obstacle point by this much so the point
# ends up strictly outside.
CUT_MARGIN = 1e-9
# Vertices closer than this are merged during enumeration.
VERTEX_MERGE_TOL = 1e-7
# Gaps up to this size are bridged when unioning coverage intervals.
INTERVAL_MERGE_TOL = 1e-9


class Aabb:
    """Closed axis-aligned box [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float).reshape(3)
        self.hi = np.asarray(hi, dtype=float).reshape(3)
        if np.any(self.hi < self.lo):
            raise ValueError("Aabb upper corner below lower corner")

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def sample(self, rng, n=1):
        pts = rng.uniform(self.lo, self.hi, size=(n, 3))
        return pts[0] if n == 1 else pts

    @staticmethod
    def from_points(pts, pad=0.0):
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        return Aabb(pts.min(axis=0) - pad, pts.max(axis=0) + pad)

    def __repr__(self):
        return f"Aabb({self.lo.tolist()}, {self.hi.tolist()})"


class HalfspacePolytope:
    """Convex polytope {x : normals @ x <= offsets}, one row per face.

    Rows are renormalized to unit length on construction.  An interior
    witness point is attached either by the producer (polytope growth keeps
    its seed) or lazily through the analytic center.
    """

    __slots__ = ("normals", "offsets", "_interior")

    def __init__(self, normals, offsets, interior=None):
        normals = np.array(normals, dtype=float).reshape(-1, 3)
        offsets = np.array(offsets, dtype=float).reshape(-1)
        if normals.shape[0] != offsets.shape[0]:
            raise ValueError("face count mismatch between normals and offsets")
        if normals.shape[0] < 4:
            raise ValueError("a bounded polytope needs at least 4 faces")
        scale = np.linalg.norm(normals, axis=1)
        if np.any(scale <= 0.0):
            raise ValueError("zero-length face normal")
        self.normals = normals / scale[:, None]
        self.offsets = offsets / scale
        self._interior = None
        if interior is not None:
            self._interior = np.asarray(interior, dtype=float).reshape(3)

    @property
    def nfaces(self):
        return self.normals.shape[0]

    @property
    def interior(self):
        if self._interior is None:
            self._interior = chebyshev_like_center(self)
        return self._interior

    def margins(self, x):
        """Per-face slack offsets - normals @ x (positive inside)."""
        return self.offsets - self.normals @ np.asarray(x, dtype=float)

    def depth(self, x):
        return float(np.min(self.margins(x)))

    def contains(self, x, slack=0.0):
        return bool(np.all(self.normals @ np.asarray(x, dtype=float)
                           <= self.offsets + slack))

    def contains_many(self, pts, slack=0.0):
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        return np.all(pts @ self.normals.T <= self.offsets + slack, axis=1)

    def depth_many(self, pts):
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        return np.min(self.offsets - pts @ self.normals.T, axis=1)

    @staticmethod
    def from_aabb(box, interior=None):
        eye = np.eye(3)
        normals = np.vstack([eye, -eye])
        offsets = np.concatenate([box.hi, -box.lo])
        if interior is None and np.all(box.hi > box.lo):
            interior = 0.5 * (box.lo + box.hi)
        return HalfspacePolytope(normals, offsets, interior)

    def __repr__(self):
        return f"HalfspacePolytope(nfaces={self.nfaces})"


def chebyshev_like_center(polytope, tol=1e-10, max_iter=80):
    """Strictly interior point of a bounded polytope.

    A Chebyshev phase-one LP produces a strictly feasible start, then damped
    Newton ascent on sum(log(offsets - normals @ x)) converges to the
    analytic center.  Raises EmptyInterior when no point clears
    INTERIOR_MARGIN on every face.
    """
    N, o = polytope.normals, polytope.offsets
    x = _phase_one_point(N, o)
    # Damped Newton on Phi(x) = -sum log d_k, d_k = o_k - N_k x.
    for _ in range(max_iter):
        d = o - N @ x
        w = 1.0 / d
        grad = N.T @ w
        hess = (N * (w * w)[:, None]).T @ N
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad / max(np.linalg.norm(grad), 1.0)
        # Backtrack to stay strictly feasible and decrease Phi.
        t = 1.0
        phi0 = -np.sum(np.log(d))
        decr = float(grad @ step)
        while t > 1e-14:
            xn = x + t * step
            dn = o - N @ xn
            if np.all(dn > 0.0) and -np.sum(np.log(dn)) <= phi0 + 1e-4 * t * decr:
                break
            t *= 0.5
        else:
            break
        x = x + t * step
        if np.linalg.norm(t * step) <= tol * max(1.0, np.linalg.norm(x)):
            break
    if np.min(o - N @ x) < INTERIOR_MARGIN:
        raise EmptyInterior("interior thinner than the required margin")
    return x


def _phase_one_point(N, o):
    """Chebyshev-center LP: maximize r subject to N x + r <= o."""
    m = N.shape[0]
    c = np.zeros(4)
    c[3] = -1.0
    A = np.hstack([N, np.ones((m, 1))])
    res = linprog(c, A_ub=A, b_ub=o, bounds=[(None, None)] * 3 + [(0.0, None)],
                  method="highs")
    if not res.success or res.x[3] <= INTERIOR_MARGIN:
        raise EmptyInterior("no strictly feasible point")
    return res.x[:3]


def vertex_enumeration(polytope, interior=None):
    """Vertices of a bounded polytope via point-hyperplane duality.

    Faces are mapped to dual points normals[k] / (offsets[k] - normals[k] @ x0)
    around an interior point x0; facets of the dual hull map back to primal
    vertices.  Duplicates within VERTEX_MERGE_TOL are merged.
    """
    if interior is None:
        interior = polytope.interior
    interior = np.asarray(interior, dtype=float).reshape(3)
    margin = polytope.offsets - polytope.normals @ interior
    if np.any(margin <= 0.0):
        raise Unbounded("interior point violates a face; dual map undefined")
    dual = polytope.normals / margin[:, None]
    try:
        hull = ConvexHull(dual)
    except QhullError as exc:
        raise Unbounded(f"dual hull degenerate: {exc}") from exc
    eq = hull.equations  # rows [a, b] with a @ y + b <= 0 inside
    if np.any(eq[:, 3] >= -1e-12):
        raise Unbounded("dual hull does not enclose the origin")
    verts = eq[:, :3] / (-eq[:, 3][:, None]) + interior
    return _merge_close(verts, VERTEX_MERGE_TOL)


def intersection(pa, pb):
    """pa and pb's intersection as one halfspace system, with its analytic
    center and its vertices.  Raises EmptyInterior when it has no interior."""
    raw = HalfspacePolytope(np.vstack([pa.normals, pb.normals]),
                            np.concatenate([pa.offsets, pb.offsets]))
    center = chebyshev_like_center(raw)
    return raw, center, np.asarray(vertex_enumeration(raw, center))


def _merge_close(pts, tol):
    kept = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= tol for q in kept):
            kept.append(p)
    return np.array(kept)


def generate_polytope(seed, obstacles, local_box, seed_clearance=1e-5):
    """Grow an obstacle-free polytope around seed by tangent-plane cuts.

    Starts from local_box and repeatedly adds the halfspace through the
    nearest obstacle point still contained, normal seed -> point, until no
    obstacle point remains.  The cut offset backs off by CUT_MARGIN so the
    point lands strictly outside.
    """
    seed = np.asarray(seed, dtype=float).reshape(3)
    if not local_box.contains(seed):
        raise ValueError("seed outside its local box")
    if not obstacles.is_free(seed):
        raise SeedOccupied("seed inside an occupied cell")
    pts = obstacles.points_in_box(local_box)
    eye = np.eye(3)
    normals = [eye[0], eye[1], eye[2], -eye[0], -eye[1], -eye[2]]
    offsets = [local_box.hi[0], local_box.hi[1], local_box.hi[2],
               -local_box.lo[0], -local_box.lo[1], -local_box.lo[2]]
    if len(pts):
        d_seed = np.linalg.norm(pts - seed, axis=1)
        if np.min(d_seed) <= max(seed_clearance, 2.0 * CUT_MARGIN):
            raise SeedOccupied("seed within clearance of an obstacle point")
        inside = np.all(pts @ np.array(normals).T <= np.array(offsets), axis=1)
        while np.any(inside):
            idx = np.flatnonzero(inside)
            hit = idx[np.argmin(d_seed[idx])]
            n = (pts[hit] - seed) / d_seed[hit]
            off = float(n @ pts[hit]) - CUT_MARGIN
            normals.append(n)
            offsets.append(off)
            inside &= pts @ n <= off
    poly = HalfspacePolytope(np.array(normals), np.array(offsets), interior=seed)
    if np.min(poly.margins(seed)) < INTERIOR_MARGIN:
        raise SeedOccupied("seed too close to a cut for a usable interior witness")
    return poly


def _polytope_aabb(poly):
    verts = vertex_enumeration(poly, poly.interior)
    return Aabb.from_points(verts, pad=1e-9)


class ObstacleMap:
    """Occupancy source: a voxel grid (obstacle = occupied cell center) or a
    raw point cloud, plus the scene bounds used for sampling."""

    def __init__(self, bounds, kind, voxel=None, cloud=None):
        self.bounds = bounds
        self.kind = kind
        self._voxel = voxel      # (origin, resolution, occ array)
        self._cloud = cloud      # (n, 3) float array
        if kind == "voxel":
            origin, res, occ = voxel
            centers = (np.argwhere(occ) + 0.5) * res + origin
            self._centers = centers.reshape(-1, 3)
        elif kind == "points":
            self._centers = np.asarray(cloud, dtype=float).reshape(-1, 3)
        else:
            raise ValueError(f"unknown map kind {kind!r}")
        if kind == "points":
            self._exact = {row.tobytes() for row in self._centers}
        else:
            self._exact = None

    @staticmethod
    def from_voxels(origin, resolution, occupancy, bounds=None):
        origin = np.asarray(origin, dtype=float).reshape(3)
        occupancy = np.asarray(occupancy, dtype=bool)
        if bounds is None:
            bounds = Aabb(origin, origin + resolution * np.array(occupancy.shape))
        return ObstacleMap(bounds, "voxel", voxel=(origin, float(resolution), occupancy))

    @staticmethod
    def from_points(points, bounds):
        return ObstacleMap(bounds, "points", cloud=np.asarray(points, dtype=float))

    def is_free(self, x):
        return bool(self.free_mask(np.asarray(x, dtype=float).reshape(1, 3))[0])

    def free_mask(self, pts):
        """Occupancy test for a batch of points.

        Voxel maps occupy the cell volume; point clouds are used raw, so a
        sample is occupied only when it coincides with a point.
        """
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        if self.kind == "voxel":
            origin, res, occ = self._voxel
            idx = np.floor((pts - origin) / res).astype(int)
            ok = np.ones(len(pts), dtype=bool)
            in_grid = np.all((idx >= 0) & (idx < occ.shape), axis=1)
            sub = idx[in_grid]
            ok[in_grid] = ~occ[sub[:, 0], sub[:, 1], sub[:, 2]]
            return ok
        free = np.ones(len(pts), dtype=bool)
        if self._exact:
            for i, p in enumerate(pts):
                if p.tobytes() in self._exact:
                    free[i] = False
        return free

    def points_in_box(self, box):
        c = self._centers
        if not len(c):
            return c
        mask = np.all((c >= box.lo) & (c <= box.hi), axis=1)
        return c[mask]


class PolyMap:
    """Union of obstacle-free polytopes covering the scene's free space."""

    def __init__(self, polytopes, epsilon, bounds, boxes=None, fill_estimate=None):
        self.polytopes = list(polytopes)
        self.epsilon = float(epsilon)
        if not isinstance(bounds, Aabb):
            bounds = Aabb(bounds[0], bounds[1])
        self.bounds = bounds
        if boxes is None:
            boxes = [_polytope_aabb(p) for p in self.polytopes]
        self.boxes = list(boxes)
        self.fill_estimate = fill_estimate
        self.box_los = np.array([b.lo for b in self.boxes]).reshape(-1, 3)
        self.box_his = np.array([b.hi for b in self.boxes]).reshape(-1, 3)
        self.junctions = None  # pathfind's junction graph, built on demand

    def candidates(self, x):
        """Ascending indices of the polytopes whose box holds x, boundaries
        included: the only ones that can contain x."""
        x = np.asarray(x, dtype=float).reshape(3)
        return np.flatnonzero(np.all((self.box_los <= x) & (x <= self.box_his),
                                     axis=1))

    def contains_union(self, x, slack=0.0):
        for i in self.candidates(x):
            if self.polytopes[i].contains(x, slack):
                return True
        return False

    def union_mask(self, pts, slack=0.0):
        """Vectorized union membership for large point batches."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        mask = np.zeros(len(pts), dtype=bool)
        for i, poly in enumerate(self.polytopes):
            todo = ~mask
            if not np.any(todo):
                break
            sub = pts[todo]
            in_box = np.all((sub >= self.box_los[i] - 1e-12)
                            & (sub <= self.box_his[i] + 1e-12), axis=1)
            if not np.any(in_box):
                continue
            hit = np.zeros(len(sub), dtype=bool)
            hit[in_box] = poly.contains_many(sub[in_box], slack)
            mask[np.flatnonzero(todo)[hit]] = True
        return mask


def stab_all(polymap, x):
    """All polytope indices containing x, deepest first, ties to the
    lowest index."""
    x = np.asarray(x, dtype=float).reshape(3)
    hits = [(polymap.polytopes[i].depth(x), int(i)) for i in polymap.candidates(x)]
    hits = [(d, i) for d, i in hits if d >= 0.0]
    hits.sort(key=lambda t: (-t[0], t[1]))
    return [i for _, i in hits]


def segment_inside(polymap, a, b, slack=0.0):
    """True iff the closed segment a-b is covered by the polytope union.

    Each overlapping polytope clips the segment to a parameter interval; the
    union of intervals is swept with INTERVAL_MERGE_TOL bridging.
    """
    a = np.asarray(a, dtype=float).reshape(3)
    b = np.asarray(b, dtype=float).reshape(3)
    if not len(polymap.polytopes):
        return False
    seg_lo = np.minimum(a, b)
    seg_hi = np.maximum(a, b)
    near = np.flatnonzero(np.all(polymap.box_los <= seg_hi + 1e-12, axis=1)
                          & np.all(polymap.box_his >= seg_lo - 1e-12, axis=1))
    d = b - a
    spans = []
    for i in near:
        poly = polymap.polytopes[i]
        den = poly.normals @ d
        num = (poly.offsets + slack) - poly.normals @ a
        lo, hi = 0.0, 1.0
        ok = True
        for k in range(len(den)):
            if abs(den[k]) <= 1e-14:
                if num[k] < 0.0:
                    ok = False
                    break
                continue
            t = num[k] / den[k]
            if den[k] > 0.0:
                hi = min(hi, t)
            else:
                lo = max(lo, t)
            if lo > hi + INTERVAL_MERGE_TOL:
                ok = False
                break
        if ok and lo <= hi + INTERVAL_MERGE_TOL:
            spans.append((lo, hi))
    if not spans:
        return False
    spans.sort()
    reach = 0.0
    for lo, hi in spans:
        if lo > reach + INTERVAL_MERGE_TOL:
            return False
        reach = max(reach, hi)
        if reach >= 1.0 - INTERVAL_MERGE_TOL:
            return True
    return reach >= 1.0 - INTERVAL_MERGE_TOL


def polyhedronize(obstacles, epsilon, rng, local_halfwidth=40.0,
                  seed_clearance=1e-5, attempt_budget=2_000_000,
                  mc_samples=100_000, max_rounds=8):
    """Cover free space with obstacle-free polytopes until the Monte-Carlo
    fill estimate reaches 1 - epsilon.

    Uniform rejection sampling proposes seeds; a seed that is free and not
    yet covered grows a new polytope.  Sampling stops once a trailing window
    of W = ceil(10 / epsilon) samples accepts fewer than ceil(epsilon * W)
    seeds, then an independent fill estimate confirms coverage (resuming the
    loop when it falls short).
    """
    bounds = obstacles.bounds
    window = int(np.ceil(10.0 / epsilon))
    accept_limit = int(np.ceil(epsilon * window))
    cover = PolyMap([], epsilon, bounds)
    attempts = 0
    free_seen = 0
    for _ in range(max_rounds):
        recent = deque(maxlen=window)
        accepted_recent = 0
        while True:
            if attempts >= attempt_budget:
                if free_seen == 0:
                    raise NoFreeSpace("no free sample within the attempt budget")
                break
            x = bounds.sample(rng)
            attempts += 1
            is_free = bool(obstacles.free_mask(x.reshape(1, 3))[0])
            free_seen += is_free
            accept = False
            if is_free and not cover.contains_union(x):
                box = Aabb(np.maximum(x - local_halfwidth, bounds.lo),
                           np.minimum(x + local_halfwidth, bounds.hi))
                try:
                    poly = generate_polytope(x, obstacles, box, seed_clearance)
                except SeedOccupied:
                    poly = None
                if poly is not None:
                    cover = PolyMap(cover.polytopes + [poly], epsilon, bounds,
                                    cover.boxes + [_polytope_aabb(poly)])
                    accept = True
            if len(recent) == window:
                accepted_recent -= recent[0]
            recent.append(accept)
            accepted_recent += accept
            if len(recent) == window and accepted_recent < accept_limit:
                break
        if free_seen == 0:
            raise NoFreeSpace("scene bounds contain no free space")
        cover.fill_estimate = _fill_estimate(obstacles, cover, rng, mc_samples)
        if cover.fill_estimate >= 1.0 - epsilon or attempts >= attempt_budget:
            break
    return cover


def _fill_estimate(obstacles, cover, rng, n_samples):
    """Fraction of n_samples uniform free-space samples inside the cover.

    Samples are drawn from the scene bounds in batches and the occupied
    ones dropped; raises NoFreeSpace when 200 batches yield none.
    """
    if not cover.polytopes:
        return 0.0
    bounds = obstacles.bounds
    got = 0
    hit = 0
    guard = 0
    while got < n_samples and guard < 200:
        guard += 1
        pts = bounds.sample(rng, n=max(n_samples - got, 1) * 2)
        pts = pts[obstacles.free_mask(pts)]
        if not len(pts):
            continue
        pts = pts[: n_samples - got]
        got += len(pts)
        hit += int(np.sum(cover.union_mask(pts)))
    if got == 0:
        raise NoFreeSpace("could not draw free samples for the fill estimate")
    return hit / got
