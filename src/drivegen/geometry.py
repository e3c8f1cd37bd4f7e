"""Planar geometry helpers: angles, polylines, polygons, oriented boxes.

The hot paths (projection, containment) run numpy-vectorized, cached per
polyline/polygon object. Containment looks each point up in two y-slab edge
tables of its polygon (`PolygonOps`): the ray cast meets only the edges
spanning the point's y, and the 1e-9 boundary test only the edges within a
margin of 1e-6 (1 + max |vertex coordinate|) of it.
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


def wrap_angle_many(theta: np.ndarray) -> np.ndarray:
    """`wrap_angle` per element, bit for bit.

    For |theta| <= 4 pi, `math.remainder` takes 0, 1 or 2 whole turns off
    theta (ties to the even count) and each such subtraction is exact
    (Sterbenz), so it runs in numpy; larger angles go through `wrap_angle`.
    """
    a = np.abs(theta)
    if a.max(initial=0.0) < math.pi:  # within (-pi, pi) every angle is its own wrap
        return theta.copy()
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


def local_to_global(px: float, py: float, ox: float, oy: float, otheta: float) -> Point:
    rx, ry = rotate(px, py, otheta)
    return (ox + rx, oy + ry)


# ---------------------------------------------------------------------------
# Segments


def segments_intersect_many(
    p1x: np.ndarray, p1y: np.ndarray, p2x: np.ndarray, p2y: np.ndarray,
    q1: Point | tuple[np.ndarray, np.ndarray], q2: Point | tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Whether each closed segment [p1, p2] meets [q1, q2], whose ends are
    points or (x, y) arrays broadcastable with p's: each one's ends lie
    strictly on opposite sides of the other's line, or an end of one is
    collinear with the other and within 1e-12 of its bounding box."""

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


def polygon_is_simple(polygon: Sequence[Point]) -> bool:
    """True if no two non-adjacent edges intersect, touching included; the
    edges are tested against all others 32 at a time (`segments_intersect_many`)."""
    n = len(polygon)
    if n < 3:
        return False
    a = np.asarray(polygon, dtype=float)
    b = np.roll(a, -1, axis=0)  # edge k runs from a[k] to b[k]
    j = np.arange(n)
    for lo in range(0, n, 32):
        i = np.arange(lo, min(lo + 32, n))[:, None]
        later = (j > i + 1) & ~((i == 0) & (j == n - 1))  # the last edge meets the first
        q1, q2 = (a[i, 0], a[i, 1]), (b[i, 0], b[i, 1])
        if (later & segments_intersect_many(a[:, 0], a[:, 1], b[:, 0], b[:, 1], q1, q2)).any():
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


# Points per broadcast of `project_many` and `nearest_many` against the
# segments, which bounds their (points, segments) temporaries. Each point's
# answer depends on its own row of the broadcast alone, so it is the same
# whatever the block.
_POINT_BLOCK = 1024


def index_blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices of at most `size` indices that cover range(n)."""
    return [slice(i, i + size) for i in range(0, n, size)]


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
        """Vectorized projection of many points: (s, lat, heading) arrays,
        broadcast against the segments `_POINT_BLOCK` points at a time."""
        s, lat, heading = np.empty(len(xs)), np.empty(len(xs)), np.empty(len(xs))
        for b in index_blocks(len(xs), _POINT_BLOCK):
            x, y = xs[b, None], ys[b, None]
            t = np.clip(((x - self.ax) * self.ex + (y - self.ay) * self.ey) / self.len2, 0.0, 1.0)
            dx = x - (self.ax + t * self.ex)
            dy = y - (self.ay + t * self.ey)
            idx = np.argmin(dx * dx + dy * dy, axis=1)
            rows = np.arange(len(idx))
            lat[b] = (self.ex[idx] * dy[rows, idx] - self.ey[idx] * dx[rows, idx]) / self.seg_len[idx]
            s[b] = self.cum_s[idx] + t[rows, idx] * self.seg_len[idx]
            heading[b] = self.heading[idx]
        return s, lat, heading

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
        `PolylineOps.min_dist2` compared in order, broadcast against the
        segments `_POINT_BLOCK` points at a time."""
        nearest = np.zeros(len(xs), dtype=np.intp)
        if len(self.starts) == 1:
            return nearest
        for b in index_blocks(len(xs), _POINT_BLOCK):
            x, y = xs[b, None], ys[b, None]
            t = np.clip(((x - self.ax) * self.ex + (y - self.ay) * self.ey) / self.len2, 0.0, 1.0)
            dx = x - (self.ax + t * self.ex)
            dy = y - (self.ay + t * self.ey)
            nearest[b] = np.argmin(np.minimum.reduceat(dx * dx + dy * dy, self.starts, axis=1), axis=1)
        return nearest


class PolygonOps:
    """Containment in one polygon, boundary inclusive, through two y-slab
    edge tables, so that each point meets only the edges near its y.

    A table cuts the y axis at sorted values c_1 < ... < c_m into the slabs
    [c_k, c_k+1), k = 0..m, with c_0 = -inf and c_m+1 = +inf; a point's slab
    is `searchsorted(c, y, side="right")`, the number of cuts <= y. Row k
    lists, in index order, the edges e whose range [a_e, b_e), two of the
    cuts, covers the slab: a_e <= c_k and c_k+1 <= b_e. Rows are stored
    column by column and padded with an edge of NaNs, whose crossing and
    distance are NaN and never count.

    *Ray-cast table.* The cuts are the distinct vertex y values, and [a_e,
    b_e) = [lo_e, hi_e), the lower and upper y of the edge. Row k equals the
    edge mask (yi > y) != (yj > y) of a scan over all edges, for every y of
    the slab. For finite y the mask holds iff exactly one end lies above y,
    iff lo_e <= y < hi_e; as lo_e and hi_e are cuts, c_k the largest cut
    <= y and c_k+1 the smallest > y, that is iff lo_e <= c_k and c_k+1 <=
    hi_e. For y = -inf both ends lie above and for +inf and NaN neither
    does, so no edge passes; `searchsorted` puts -inf in row 0 and +inf and
    NaN (sorted last) in row m, and both rows are empty.

    *Boundary table.* With the margin m = 1e-6 (1 + M), M the largest
    |vertex coordinate|, the cuts are the rounded lo_e - m and hi_e + m of
    every edge. An edge left out of a point's row cannot give d2 < 1e-18:
    the point's y lies at least m - u (M + m) from [lo_e, hi_e] (u = 2**-53,
    for the rounding of the cut); the projection yi + t ey with t in [0, 1]
    and ey = fl(yj - yi) lies within 6 u M of that range after rounding; so
    |dy| > 0.99e-6 (1 + M) and d2 >= fl(dy dy) > 9e-13, as rounding is
    monotone and dx dx >= 0. Points with an infinite or NaN coordinate get
    d2 = inf or NaN from every edge, as in a scan over all edges, or land
    in an empty row.

    With n vertices there are at most n + 1 ray-cast and 2n + 1 boundary
    slabs of at most n edges each, so neither table has more than
    (2n + 1) n entries. In slabs x width, the corpus's curved 46-gons have
    39 x 4 (ray cast) and 75 x 8 (boundary) tables, its straight ones 3 x 2
    and 5 x 24 (each side's 23 collinear edges share one thin slab); a call
    loops over only as many columns as its fullest slab fills. Each
    (point, edge) pair keeps the expressions and operation order of the
    scan over all edges, so every answer is the same.
    """

    __slots__ = ("polygon", "ray_cuts", "ray_count", "ray", "near_cuts", "near_count", "near")

    def __init__(self, polygon: Sequence[Point]):
        pts = np.asarray(polygon, dtype=float)
        self.polygon = polygon
        xi, yi = pts[:, 0], pts[:, 1]
        xj, yj = np.roll(xi, -1), np.roll(yi, -1)
        ex, ey = xj - xi, yj - yi
        lo, hi = np.minimum(yi, yj), np.maximum(yi, yj)
        edges = np.stack([xi, yi, ex, ey, np.maximum(ex * ex + ey * ey, 1e-300)])
        edges = np.concatenate([edges, np.full((5, 1), np.nan)], axis=1)  # edge n pads

        m = 1e-6 * (1.0 + np.abs(pts).max(initial=0.0))
        self.ray_cuts, self.ray_count, self.ray = _slab_table(edges[:4], lo, hi)
        self.near_cuts, self.near_count, self.near = _slab_table(edges, lo - m, hi + m)

    def contains_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # ray casting: flip at each crossing right of the point, column by column
        slab = np.searchsorted(self.ray_cuts, ys, side="right")
        inside = np.zeros(len(xs), dtype=bool)
        for xi, yi, ex, ey in self.ray[: self.ray_count[slab].max(initial=0)]:
            xi, yi, ex, ey = xi[slab], yi[slab], ex[slab], ey[slab]
            inside ^= xs < xi + (ys - yi) * ex / ey

        # boundary points count as inside; only points outside need the test
        out = np.flatnonzero(~inside)
        if out.size:
            px, py = xs[out], ys[out]
            slab = np.searchsorted(self.near_cuts, py, side="right")
            near = np.zeros(out.size, dtype=bool)
            for xi, yi, ex, ey, len2 in self.near[: self.near_count[slab].max()]:
                xi, yi, ex, ey, len2 = xi[slab], yi[slab], ex[slab], ey[slab], len2[slab]
                t = np.clip(((px - xi) * ex + (py - yi) * ey) / len2, 0.0, 1.0)
                dx = px - (xi + t * ex)
                dy = py - (yi + t * ey)
                near |= dx * dx + dy * dy < 1e-18
            inside[out] = near
        return inside


def distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a 1-D array without NaNs and, for each
    element, the index of its value among them: `np.unique(values,
    return_inverse=True)` without the import of numpy.ma (about 1.6 MB
    resident) that np.unique's first call makes. Of values that compare
    equal, such as -0.0 and 0.0, the first in `values` is kept."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _slab_table(edges: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(cuts, edges per slab, table) of the slabs cut at the values of `a`
    and `b`: the table is (width, field, slab), column w of a slab holding
    the `edges` fields of its w-th edge e with [a[e], b[e]) covering it, or
    of the pad edge, the last one."""
    cuts, _ = distinct(np.concatenate([a, b]))
    k = np.arange(len(cuts) + 1)[:, None]
    member = (np.searchsorted(cuts, a) < k) & (k <= np.searchsorted(cuts, b))
    count = member.sum(axis=1)
    order = np.argsort(~member, axis=1, kind="stable")[:, : count.max(initial=0)]
    rows = np.where(np.take_along_axis(member, order, axis=1), order, len(a))
    return cuts, count, np.ascontiguousarray(edges[:, rows.T].transpose(1, 0, 2))


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

    def at(self, index) -> "BoxArrays":
        """The boxes at `index` of center and axis arrays of one shape."""
        fields = (self.x, self.y, self.cos, self.sin, self.cos90, self.sin90)
        return BoxArrays(*(f[index] for f in fields), self.length, self.width)


def box_corners(
    x: np.ndarray, y: np.ndarray, c: np.ndarray, s: np.ndarray, length: float, width: float
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """FL, FR, RR, RL corner arrays of boxes whose headings have cosine `c`
    and sine `s`."""
    hl, hw = 0.5 * length, 0.5 * width
    return (
        (x + c * hl - s * hw, y + s * hl + c * hw),
        (x + c * hl + s * hw, y + s * hl - c * hw),
        (x - c * hl + s * hw, y - s * hl - c * hw),
        (x - c * hl - s * hw, y - s * hl + c * hw),
    )


def stack_corners(corners: tuple[tuple[np.ndarray, np.ndarray], ...]) -> tuple[np.ndarray, ...]:
    """The x and the y of `box_corners`' four corners, on a new last axis."""
    return np.stack([x for x, _ in corners], axis=-1), np.stack([y for _, y in corners], axis=-1)


def boxes_overlap_many(a: BoxArrays, b: BoxArrays) -> np.ndarray:
    """Separating-axis overlap of two broadcastable box arrays, elementwise.

    Touching boxes count as overlapping (non-strict interval comparison).
    Pairs whose centers lie farther apart than the sum of their circumradii
    are rejected without the axis tests.
    """
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
