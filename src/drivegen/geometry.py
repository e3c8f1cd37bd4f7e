"""Planar geometry helpers: angles, polylines, polygons, oriented boxes.

The hot paths (projection, containment) run numpy-vectorized, cached per
polyline/polygon object.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

Point = tuple[float, float]


def wrap_angle(theta: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    r = math.remainder(theta, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def angle_diff(a: float, b: float) -> float:
    """Wrapped difference a - b in (-pi, pi]."""
    return wrap_angle(a - b)


def wrap_angle_many(theta: np.ndarray) -> np.ndarray:
    """`wrap_angle` per element, bit for bit.

    For |theta| <= 4 pi, `math.remainder` takes 0, 1 or 2 whole turns off
    theta (ties to the even count) and each such subtraction is exact
    (Sterbenz), so it runs in numpy; larger angles go through `wrap_angle`.
    """
    a = np.abs(theta)
    turns = np.where(a <= math.pi, 0.0, np.where(a - TWO_PI < math.pi, TWO_PI, 2.0 * TWO_PI))
    r = theta - np.copysign(turns, theta)
    r = np.where(r == 0.0, np.copysign(0.0, theta), r)  # a zero remainder keeps theta's sign
    r = np.where(r <= -math.pi, r + TWO_PI, r)
    far = ~(a <= 2.0 * TWO_PI)
    if far.any():
        r[far] = per_element(wrap_angle, theta[far])
    return r


def per_element(fn, *arrays: np.ndarray) -> np.ndarray:
    """`fn` applied with Python floats to each element of equal-shaped arrays.

    numpy's tan, arctan, arctan2, hypot and power can differ from `math` in
    the last bit, so batched kernels that must reproduce Python-float
    arithmetic bit for bit evaluate transcendental functions this way.
    """
    shape = np.shape(arrays[0])
    flat = [np.asarray(a, dtype=float).ravel().tolist() for a in arrays]
    return np.fromiter(map(fn, *flat), dtype=float, count=len(flat[0])).reshape(shape)


def rotate(x: float, y: float, theta: float) -> Point:
    c, s = math.cos(theta), math.sin(theta)
    return (c * x - s * y, s * x + c * y)


def global_to_local(px: float, py: float, ox: float, oy: float, otheta: float) -> Point:
    """Express global point (px, py) in the frame at (ox, oy, otheta)."""
    dx, dy = px - ox, py - oy
    return rotate(dx, dy, -otheta)


def local_to_global(px: float, py: float, ox: float, oy: float, otheta: float) -> Point:
    rx, ry = rotate(px, py, otheta)
    return (ox + rx, oy + ry)


# ---------------------------------------------------------------------------
# Segments


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """True if closed segments [p1,p2] and [q1,q2] intersect (incl. touching)."""

    def orient(a: Point, b: Point, c: Point) -> float:
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(a: Point, b: Point, c: Point) -> bool:
        return (
            min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12
            and min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12
        )

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def segments_intersect_many(
    p1x: np.ndarray, p1y: np.ndarray, p2x: np.ndarray, p2y: np.ndarray, q1: Point, q2: Point
) -> np.ndarray:
    """`segments_intersect` of many segments [p1, p2] against one [q1, q2]."""

    def orient(ax, ay, bx, by, cx, cy):
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    def on_segment(ax, ay, bx, by, cx, cy):
        return (
            (np.minimum(ax, bx) - 1e-12 <= cx)
            & (cx <= np.maximum(ax, bx) + 1e-12)
            & (np.minimum(ay, by) - 1e-12 <= cy)
            & (cy <= np.maximum(ay, by) + 1e-12)
        )

    (q1x, q1y), (q2x, q2y) = q1, q2
    d1 = orient(q1x, q1y, q2x, q2y, p1x, p1y)
    d2 = orient(q1x, q1y, q2x, q2y, p2x, p2y)
    d3 = orient(p1x, p1y, p2x, p2y, q1x, q1y)
    d4 = orient(p1x, p1y, p2x, p2y, q2x, q2y)
    proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    return (
        proper
        | ((d1 == 0) & on_segment(q1x, q1y, q2x, q2y, p1x, p1y))
        | ((d2 == 0) & on_segment(q1x, q1y, q2x, q2y, p2x, p2y))
        | ((d3 == 0) & on_segment(p1x, p1y, p2x, p2y, q1x, q1y))
        | ((d4 == 0) & on_segment(p1x, p1y, p2x, p2y, q2x, q2y))
    )


# ---------------------------------------------------------------------------
# Polygons


def point_in_polygon(x: float, y: float, polygon: Sequence[Point]) -> bool:
    """Ray-casting containment test; boundary points count as inside."""
    n = len(polygon)
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = polygon[i]
        xj, yj = polygon[j]
        # boundary tolerance: distance to edge below 1e-9 counts as inside
        ex, ey = xj - xi, yj - yi
        L2 = ex * ex + ey * ey
        if L2 > 0.0:
            t = ((x - xi) * ex + (y - yi) * ey) / L2
            t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
            dx, dy = x - (xi + t * ex), y - (yi + t * ey)
            if dx * dx + dy * dy < 1e-18:
                return True
        elif (x - xi) ** 2 + (y - yi) ** 2 < 1e-18:
            return True
        if (yi > y) != (yj > y):
            x_cross = xi + (y - yi) * (xj - xi) / (yj - yi)
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def polygon_is_simple(polygon: Sequence[Point]) -> bool:
    """True if no two non-adjacent edges intersect (O(n^2); fine at desk scale)."""
    n = len(polygon)
    if n < 3:
        return False
    for i in range(n):
        a1, a2 = polygon[i], polygon[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = polygon[j], polygon[(j + 1) % n]
            if segments_intersect(a1, a2, b1, b2):
                return False
    return True


# ---------------------------------------------------------------------------
# Polylines


def offset_polyline(points: Sequence[Point], offset: float) -> list[Point]:
    """Shift a polyline laterally (left-positive) using averaged vertex normals."""
    n = len(points)
    out: list[Point] = []
    for i in range(n):
        if i == 0:
            tx, ty = points[1][0] - points[0][0], points[1][1] - points[0][1]
        elif i == n - 1:
            tx, ty = points[-1][0] - points[-2][0], points[-1][1] - points[-2][1]
        else:
            t1x, t1y = points[i][0] - points[i - 1][0], points[i][1] - points[i - 1][1]
            t2x, t2y = points[i + 1][0] - points[i][0], points[i + 1][1] - points[i][1]
            L1, L2 = math.hypot(t1x, t1y), math.hypot(t2x, t2y)
            tx, ty = t1x / L1 + t2x / L2, t1y / L1 + t2y / L2
        L = math.hypot(tx, ty)
        nx, ny = -ty / L, tx / L  # left normal
        out.append((points[i][0] + offset * nx, points[i][1] + offset * ny))
    return out


def corridor_polygon(points: Sequence[Point], half_width: float) -> list[Point]:
    """Closed polygon covering a lateral corridor around a polyline."""
    left = offset_polyline(points, half_width)
    right = offset_polyline(points, -half_width)
    return left + right[::-1]


# ---------------------------------------------------------------------------
# Vectorized, cached twins of the hot-path operations. Keyed by object id
# with a keep-alive reference; callers pass the same immutable tuples that
# live on Scenario/MapModel objects, so hits are the common case.


class PolylineOps:
    """Precomputed segment arrays for fast projection and arclength lookup."""

    __slots__ = ("ax", "ay", "ex", "ey", "len2", "seg_len", "cum_s", "heading", "points")

    def __init__(self, points: Sequence[Point]):
        pts = np.asarray(points, dtype=float)
        self.points = points
        self.ax = pts[:-1, 0]
        self.ay = pts[:-1, 1]
        self.ex = pts[1:, 0] - pts[:-1, 0]
        self.ey = pts[1:, 1] - pts[:-1, 1]
        self.len2 = np.maximum(self.ex * self.ex + self.ey * self.ey, 1e-300)
        self.seg_len = np.sqrt(self.ex * self.ex + self.ey * self.ey)
        self.cum_s = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.heading = np.arctan2(self.ey, self.ex)

    def project(self, x: float, y: float) -> tuple[float, float, float]:
        """(arclength, signed lateral offset, tangent heading); left positive."""
        t = np.clip(((x - self.ax) * self.ex + (y - self.ay) * self.ey) / self.len2, 0.0, 1.0)
        dx = x - (self.ax + t * self.ex)
        dy = y - (self.ay + t * self.ey)
        d2 = dx * dx + dy * dy
        i = int(np.argmin(d2))
        lat = (self.ex[i] * dy[i] - self.ey[i] * dx[i]) / self.seg_len[i]
        return float(self.cum_s[i] + t[i] * self.seg_len[i]), float(lat), float(self.heading[i])

    def project_many(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized projection of many points: (s, lat, heading) arrays."""
        t = np.clip(
            ((xs[:, None] - self.ax) * self.ex + (ys[:, None] - self.ay) * self.ey) / self.len2,
            0.0,
            1.0,
        )
        dx = xs[:, None] - (self.ax + t * self.ex)
        dy = ys[:, None] - (self.ay + t * self.ey)
        d2 = dx * dx + dy * dy
        idx = np.argmin(d2, axis=1)
        rows = np.arange(len(xs))
        lat = (self.ex[idx] * dy[rows, idx] - self.ey[idx] * dx[rows, idx]) / self.seg_len[idx]
        s = self.cum_s[idx] + t[rows, idx] * self.seg_len[idx]
        return s, lat, self.heading[idx]

    def min_dist2(self, x: float, y: float) -> float:
        t = np.clip(((x - self.ax) * self.ex + (y - self.ay) * self.ey) / self.len2, 0.0, 1.0)
        dx = x - (self.ax + t * self.ex)
        dy = y - (self.ay + t * self.ey)
        return float(np.min(dx * dx + dy * dy))

    def point_at_many(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, heading) arrays at arclengths `s`, clamped to the ends."""
        i = np.minimum(np.searchsorted(self.cum_s, s, side="right") - 1, len(self.seg_len) - 1)
        t = np.minimum(1.0, (s - self.cum_s[i]) / np.maximum(self.seg_len[i], 1e-300))
        start = s <= 0.0
        return (
            np.where(start, self.ax[0], self.ax[i] + t * self.ex[i]),
            np.where(start, self.ay[0], self.ay[i] + t * self.ey[i]),
            np.where(start, self.heading[0], self.heading[i]),
        )


class PolylineSetOps:
    """Segments of several polylines side by side, for nearest-polyline queries."""

    __slots__ = ("ax", "ay", "ex", "ey", "len2", "starts")

    def __init__(self, polylines: Sequence[Sequence[Point]]):
        ops = [polyline_ops(p) for p in polylines]
        self.ax, self.ay, self.ex, self.ey, self.len2 = (
            np.concatenate([getattr(o, name) for o in ops])
            for name in ("ax", "ay", "ex", "ey", "len2")
        )
        self.starts = np.cumsum([0] + [len(o.ax) for o in ops[:-1]])

    def nearest_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Index of the polyline each point is closest to, the first on ties:
        `PolylineOps.min_dist2` compared in order, in one broadcast."""
        if len(self.starts) == 1:
            return np.zeros(len(xs), dtype=int)
        t = np.clip(
            ((xs[:, None] - self.ax) * self.ex + (ys[:, None] - self.ay) * self.ey) / self.len2,
            0.0,
            1.0,
        )
        dx = xs[:, None] - (self.ax + t * self.ex)
        dy = ys[:, None] - (self.ay + t * self.ey)
        return np.argmin(np.minimum.reduceat(dx * dx + dy * dy, self.starts, axis=1), axis=1)


class PolygonOps:
    """Precomputed edges for vectorized containment (boundary inclusive)."""

    __slots__ = ("xi", "yi", "xj", "yj", "edges", "polygon")

    def __init__(self, polygon: Sequence[Point]):
        pts = np.asarray(polygon, dtype=float)
        self.polygon = polygon
        self.xi = pts[:, 0]
        self.yi = pts[:, 1]
        self.xj = np.roll(pts[:, 0], -1)
        self.yj = np.roll(pts[:, 1], -1)
        ex = self.xj - self.xi
        ey = self.yj - self.yi
        self.edges = (ex, ey, np.maximum(ex * ex + ey * ey, 1e-300))

    def contains_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # ray casting over the (point, edge) pairs whose edge spans the point's y
        rows, e = np.nonzero((self.yi > ys[:, None]) != (self.yj > ys[:, None]))
        x_cross = self.xi[e] + (ys[rows] - self.yi[e]) * (self.xj[e] - self.xi[e]) / (
            self.yj[e] - self.yi[e]
        )
        inside = np.bincount(rows[xs[rows] < x_cross], minlength=len(xs)) % 2 == 1

        # boundary points count as inside; only points outside need the test
        out = np.flatnonzero(~inside)
        if out.size:
            px, py = xs[out, None], ys[out, None]
            ex, ey, len2 = self.edges
            t = np.clip(((px - self.xi) * ex + (py - self.yi) * ey) / len2, 0.0, 1.0)
            dx = px - (self.xi + t * ex)
            dy = py - (self.yi + t * ey)
            inside[out] = np.min(dx * dx + dy * dy, axis=1) < 1e-18
        return inside


_OPS_CACHE: dict[int, tuple[object, object]] = {}


def _cached_ops(obj, factory):
    key = id(obj)
    hit = _OPS_CACHE.get(key)
    if hit is not None and hit[0] is obj:
        return hit[1]
    ops = factory(obj)
    if len(_OPS_CACHE) > 256:
        _OPS_CACHE.clear()
    _OPS_CACHE[key] = (obj, ops)
    return ops


def polyline_ops(points: Sequence[Point]) -> PolylineOps:
    return _cached_ops(points, PolylineOps)


def polygon_ops(polygon: Sequence[Point]) -> PolygonOps:
    return _cached_ops(polygon, PolygonOps)


def points_in_any_polygon(
    xs: np.ndarray, ys: np.ndarray, polygons: Iterable[Sequence[Point]]
) -> np.ndarray:
    """Vectorized union containment over several polygons."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    result = np.zeros(len(xs), dtype=bool)
    for poly in polygons:
        pending = ~result
        if not np.any(pending):
            break
        result[pending] = polygon_ops(poly).contains_many(xs[pending], ys[pending])
    return result


# ---------------------------------------------------------------------------
# Oriented boxes


@dataclass(frozen=True, slots=True)
class OrientedBox:
    """Rectangle given by center, heading and full extents."""

    x: float
    y: float
    heading: float
    length: float
    width: float

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """FL, FR, RR, RL corners in global coordinates."""
        c, s = math.cos(self.heading), math.sin(self.heading)
        hl, hw = 0.5 * self.length, 0.5 * self.width
        return (
            (self.x + c * hl - s * hw, self.y + s * hl + c * hw),
            (self.x + c * hl + s * hw, self.y + s * hl - c * hw),
            (self.x - c * hl + s * hw, self.y - s * hl - c * hw),
            (self.x - c * hl - s * hw, self.y - s * hl + c * hw),
        )


def boxes_overlap(a: OrientedBox, b: OrientedBox) -> bool:
    """Separating-axis overlap test for two oriented rectangles.

    Touching boxes count as overlapping (non-strict interval comparison).
    """
    # cheap circle rejection first
    dx, dy = b.x - a.x, b.y - a.y
    ra = 0.5 * math.hypot(a.length, a.width)
    rb = 0.5 * math.hypot(b.length, b.width)
    if dx * dx + dy * dy > (ra + rb) * (ra + rb):
        return False

    ca = a.corners()
    cb = b.corners()
    for theta in (a.heading, a.heading + 0.5 * math.pi, b.heading, b.heading + 0.5 * math.pi):
        axx, axy = math.cos(theta), math.sin(theta)
        amin = amax = ca[0][0] * axx + ca[0][1] * axy
        for px, py in ca[1:]:
            p = px * axx + py * axy
            if p < amin:
                amin = p
            elif p > amax:
                amax = p
        bmin = bmax = cb[0][0] * axx + cb[0][1] * axy
        for px, py in cb[1:]:
            p = px * axx + py * axy
            if p < bmin:
                bmin = p
            elif p > bmax:
                bmax = p
        if amax < bmin or bmax < amin:
            return False
    return True


@dataclass(frozen=True, slots=True)
class BoxArrays:
    """Many rectangles of one extent: center arrays and the cos/sin of each
    heading and of heading + pi/2 (the SAT axes), broadcastable together."""

    x: np.ndarray
    y: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    cos90: np.ndarray
    sin90: np.ndarray
    length: float
    width: float

    @classmethod
    def of(
        cls, x: np.ndarray, y: np.ndarray, heading: np.ndarray, length: float, width: float
    ) -> "BoxArrays":
        normal = heading + 0.5 * math.pi
        return cls(
            x,
            y,
            per_element(math.cos, heading),
            per_element(math.sin, heading),
            per_element(math.cos, normal),
            per_element(math.sin, normal),
            length,
            width,
        )

    def corners(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return box_corners(self.x, self.y, self.cos, self.sin, self.length, self.width)


def box_corners(
    x: np.ndarray, y: np.ndarray, c: np.ndarray, s: np.ndarray, length: float, width: float
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """FL, FR, RR, RL corner arrays of boxes whose headings have cosine `c`
    and sine `s`, computed as `OrientedBox.corners`."""
    hl, hw = 0.5 * length, 0.5 * width
    return (
        (x + c * hl - s * hw, y + s * hl + c * hw),
        (x + c * hl + s * hw, y + s * hl - c * hw),
        (x - c * hl + s * hw, y - s * hl - c * hw),
        (x - c * hl - s * hw, y - s * hl + c * hw),
    )


def boxes_overlap_many(a: BoxArrays, b: BoxArrays) -> np.ndarray:
    """Elementwise `boxes_overlap` of two broadcastable box arrays."""
    dx, dy = b.x - a.x, b.y - a.y
    ra = 0.5 * math.hypot(a.length, a.width)
    rb = 0.5 * math.hypot(b.length, b.width)
    near = ~(dx * dx + dy * dy > (ra + rb) * (ra + rb))

    ca, cb = a.corners(), b.corners()
    apart = np.zeros(near.shape, dtype=bool)
    for axx, axy in ((a.cos, a.sin), (a.cos90, a.sin90), (b.cos, b.sin), (b.cos90, b.sin90)):
        pa = [px * axx + py * axy for px, py in ca]
        pb = [px * axx + py * axy for px, py in cb]
        amin, amax = functools.reduce(np.minimum, pa), functools.reduce(np.maximum, pa)
        bmin, bmax = functools.reduce(np.minimum, pb), functools.reduce(np.maximum, pb)
        apart |= (amax < bmin) | (bmax < amin)
    return near & ~apart
