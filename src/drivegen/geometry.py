"""Planar geometry helpers: angles, polylines, polygons, oriented boxes.

Simple scalar implementations double as the reference semantics; the hot
paths (projection, containment) have numpy-vectorized twins cached per
polyline/polygon object.
"""

from __future__ import annotations

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


def project_to_polyline(x: float, y: float, points: Sequence[Point]) -> tuple[float, float, float]:
    """Project a point onto a polyline.

    Returns (arclength s, signed lateral offset, tangent heading). Lateral is
    positive to the left of the direction of travel.
    """
    best = (math.inf, 0.0, 0.0, 0.0)  # (dist2, s, lat, heading)
    s_acc = 0.0
    for i in range(len(points) - 1):
        x1, y1 = points[i]
        x2, y2 = points[i + 1]
        ex, ey = x2 - x1, y2 - y1
        L = math.hypot(ex, ey)
        if L == 0.0:
            continue
        t = ((x - x1) * ex + (y - y1) * ey) / (L * L)
        t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
        px, py = x1 + t * ex, y1 + t * ey
        dx, dy = x - px, y - py
        d2 = dx * dx + dy * dy
        if d2 < best[0]:
            lat = (ex * dy - ey * dx) / L  # left-positive
            best = (d2, s_acc + t * L, lat, math.atan2(ey, ex))
        s_acc += L
    return best[1], best[2], best[3]


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

    def min_dist2_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        t = np.clip(
            ((xs[:, None] - self.ax) * self.ex + (ys[:, None] - self.ay) * self.ey) / self.len2,
            0.0,
            1.0,
        )
        dx = xs[:, None] - (self.ax + t * self.ex)
        dy = ys[:, None] - (self.ay + t * self.ey)
        return np.min(dx * dx + dy * dy, axis=1)

    def point_at(self, s: float) -> tuple[float, float, float]:
        if s <= 0.0:
            return float(self.ax[0]), float(self.ay[0]), float(self.heading[0])
        i = int(np.searchsorted(self.cum_s, s, side="right")) - 1
        if i >= len(self.seg_len):
            i = len(self.seg_len) - 1
        t = min(1.0, (s - self.cum_s[i]) / max(self.seg_len[i], 1e-300))
        return (
            float(self.ax[i] + t * self.ex[i]),
            float(self.ay[i] + t * self.ey[i]),
            float(self.heading[i]),
        )


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
        px = xs[:, None]
        py = ys[:, None]
        cond = (self.yi > py) != (self.yj > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = self.xi + (py - self.yi) * (self.xj - self.xi) / (self.yj - self.yi)
        crossing = np.where(cond, px < x_cross, False)
        inside = np.sum(crossing, axis=1) % 2 == 1

        ex, ey, len2 = self.edges
        t = np.clip(((px - self.xi) * ex + (py - self.yi) * ey) / len2, 0.0, 1.0)
        dx = px - (self.xi + t * ex)
        dy = py - (self.yi + t * ey)
        on_edge = np.min(dx * dx + dy * dy, axis=1) < 1e-18
        return inside | on_edge


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
