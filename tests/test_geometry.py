import math
import random

import numpy as np
import pytest

from drivegen.geometry import (
    TWO_PI,
    BoxArrays,
    OrientedBox,
    PolygonOps,
    PolylineOps,
    PolylineSetOps,
    boxes_overlap_many,
    corridor_polygon,
    points_in_any_polygon,
    polygon_is_simple,
    polyline_ops,
    segments_intersect_many,
    wrap_angle,
    wrap_angle_many,
)

from oracle import (
    boxes_overlap,
    corners,
    oracle_polygon_is_simple,
    point_at,
    point_in_polygon,
    project_to_polyline,
    segments_intersect,
)


# --- brute-force polygon overlap oracle: vertex containment + edge crossing


def _oracle_polygons_overlap(pa, pb):
    for p in pa:
        if point_in_polygon(p[0], p[1], pb):
            return True
    for p in pb:
        if point_in_polygon(p[0], p[1], pa):
            return True
    na, nb = len(pa), len(pb)
    for i in range(na):
        for j in range(nb):
            if segments_intersect(pa[i], pa[(i + 1) % na], pb[j], pb[(j + 1) % nb]):
                return True
    return False


def oracle_boxes_overlap(a: OrientedBox, b: OrientedBox) -> bool:
    return _oracle_polygons_overlap(corners(a), corners(b))


def test_wrap_angle_range():
    for t in [-10.0, -math.pi, 0.0, math.pi, 3 * math.pi, 7.123]:
        w = wrap_angle(t)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(t), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(t), abs_tol=1e-12)


def test_boxes_overlap_unit_squares():
    a = OrientedBox(0.0, 0.0, 0.0, 1.0, 1.0)
    assert boxes_overlap(a, OrientedBox(0.5, 0.0, 0.0, 1.0, 1.0))
    assert not boxes_overlap(a, OrientedBox(2.0, 0.0, 0.0, 1.0, 1.0))


def test_boxes_overlap_rotated_case_matches_oracle():
    a = OrientedBox(0.0, 0.0, 0.0, 1.0, 1.0)
    b = OrientedBox(1.2, 0.0, math.pi / 4, 1.0, 1.0)
    assert boxes_overlap(a, b) == oracle_boxes_overlap(a, b)
    # rotated square reaches sqrt(2)/2 from center: 1.2 < 0.5 + 0.707
    assert boxes_overlap(a, b) is True


def test_boxes_overlap_random_oracle_agreement():
    rng = random.Random(1234)
    mismatches = 0
    for _ in range(1000):
        a = OrientedBox(
            rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi),
            rng.uniform(0.3, 4.0), rng.uniform(0.3, 2.5),
        )
        b = OrientedBox(
            rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi),
            rng.uniform(0.3, 4.0), rng.uniform(0.3, 2.5),
        )
        if boxes_overlap(a, b) != oracle_boxes_overlap(a, b):
            mismatches += 1
    assert mismatches == 0


def test_point_in_polygon_square():
    square = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    assert point_in_polygon(1.0, 1.0, square)
    assert point_in_polygon(0.0, 1.0, square)  # boundary counts as inside
    assert not point_in_polygon(3.0, 1.0, square)


def test_points_in_any_polygon_matches_scalar():
    rng = random.Random(5)
    polys = [
        [(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (0.0, 2.0)],
        [(3.0, 1.0), (6.0, 1.0), (6.0, 5.0), (3.0, 5.0)],
    ]
    xs = np.array([rng.uniform(-1, 7) for _ in range(300)])
    ys = np.array([rng.uniform(-1, 6) for _ in range(300)])
    batch = points_in_any_polygon(xs, ys, polys)
    for i in range(len(xs)):
        scalar = any(point_in_polygon(xs[i], ys[i], p) for p in polys)
        assert batch[i] == scalar


def _containment_queries(polygon, rng):
    """Points at every place where containment is decided: the vertices and
    edge midpoints; at each vertex's y, 1 ulp and 1e-6 (1 + |x|) either side
    of each vertex and of every edge's crossing of that y (edges that end
    there included); 5e-10 m (inside the 1e-9 boundary) and 2e-9 m (outside
    it) off each edge's ends and midpoint along its normal; 1 ulp either side
    of each edge's boundary-table cuts; random points around the polygon and
    far ones."""
    n = len(polygon)
    pts = list(polygon)
    for k in range(n):
        (xi, yi), (xj, yj) = polygon[k], polygon[(k + 1) % n]
        pts.append((0.5 * (xi + xj), 0.5 * (yi + yj)))
    for v in sorted({y for _, y in polygon}):
        xs = [x for x, y in polygon if y == v]
        for k in range(n):
            (xi, yi), (xj, yj) = polygon[k], polygon[(k + 1) % n]
            if min(yi, yj) <= v <= max(yi, yj) and yi != yj:
                xs.append(xi + (v - yi) * (xj - xi) / (yj - yi))
        for x in xs:
            d = 1e-6 * (1.0 + abs(x))
            pts += [(math.nextafter(x, -math.inf), v), (math.nextafter(x, math.inf), v),
                    (x - d, v), (x + d, v)]
    margin = 1e-6 * (1.0 + max(abs(c) for p in polygon for c in p))
    for k in range(n):
        (xi, yi), (xj, yj) = polygon[k], polygon[(k + 1) % n]
        length = math.hypot(xj - xi, yj - yi)
        if length > 0.0:
            nx, ny = (yi - yj) / length, (xj - xi) / length
            for t in (0.0, 0.5, 1.0):
                px, py = xi + t * (xj - xi), yi + t * (yj - yi)
                pts += [(px + d * nx, py + d * ny) for d in (5e-10, -5e-10, 2e-9, -2e-9)]
        for x, cut in ((xi if yi <= yj else xj, min(yi, yj) - margin),
                       (xi if yi >= yj else xj, max(yi, yj) + margin)):
            pts += [(x, math.nextafter(cut, -math.inf)), (x, cut), (x, math.nextafter(cut, math.inf))]
    (x0, y0), (x1, y1) = (min(c) for c in zip(*polygon)), (max(c) for c in zip(*polygon))
    pts += [(rng.uniform(x0 - 5, x1 + 5), rng.uniform(y0 - 5, y1 + 5)) for _ in range(100)]
    pts += [(x0 - 1e3, y0), (x1 + 1e3, y1), (0.5 * (x0 + x1), y1 + 1e3), (1e150, y0), (-1e150, 1e150)]
    return pts


def test_containment_matches_the_scalar_oracle_at_every_decision(corpus_100):
    """`points_in_any_polygon` against `point_in_polygon`, point by point, on
    every drivable polygon of the corpus, on hand-built polygons (horizontal
    edges and collinear runs, a concave zigzag whose middle slab holds 21
    edges, a repeated vertex, a corpus polygon shifted by 1e6 m) and on
    seeded triangles to hexagons with coordinates up to 1e7-1e10 m, where
    the last bit of a crossing decides points 1 ulp from a vertex. The oracle walks each edge
    from its second vertex to its first; given the vertices in reverse it
    walks them as `PolygonOps` does, so the two round alike to the last bit."""
    polygons = [poly for s in corpus_100 for poly in s.map.drivable_area]
    polygons += [
        [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (4.0, 1.0), (4.0, 3.0), (2.0, 3.0), (2.0, 2.0), (0.0, 2.0)],
        [(0.0, 0.0), (20.0, 0.0)] + [(20.0 - k, 1.0 if k % 2 else 10.0) for k in range(21)],
        [(0.0, 0.0), (3.0, 0.0), (3.0, 0.0), (3.0, 2.0), (0.0, 2.0)],
        [(x + 1e6, y + 1e6) for x, y in max(polygons, key=len)],
    ]
    rng = random.Random(3)
    for k in range(40):
        scale = 10.0 ** (7 + k % 4)
        polygons.append([(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(3 + k % 4)])
    rng = random.Random(7)
    for poly in polygons:
        pts = _containment_queries(list(poly), rng)
        xs, ys = np.array(pts).T
        expected = [point_in_polygon(x, y, poly[::-1]) for x, y in pts]
        assert points_in_any_polygon(xs, ys, [poly]).tolist() == expected, poly
    assert points_in_any_polygon(np.empty(0), np.empty(0), polygons[:2]).shape == (0,)


def test_polygon_slab_tables_stay_within_their_bound(corpus_100):
    """At most (2n + 1) n table entries for n vertices. The corpus's curved
    46-gons have 39 slabs x 4 edges (ray cast) and 75 x 8 (boundary); its
    straight ones 3 x 2 and 5 x 24, each side's 23 collinear edges sharing
    one thin boundary slab."""
    shapes = set()
    for poly in (poly for s in corpus_100 for poly in s.map.drivable_area):
        ops, n = PolygonOps(poly), len(poly)
        for width, _, slabs in (ops.ray.shape, ops.near.shape):
            assert width * slabs <= (2 * n + 1) * n
        if n == 46:
            shapes.add((ops.ray.shape[2], ops.ray.shape[0], ops.near.shape[2], ops.near.shape[0]))
    assert shapes == {(39, 4, 75, 8), (3, 2, 5, 24)}


def test_polygon_is_simple():
    assert polygon_is_simple([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert not polygon_is_simple([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie


def test_polygon_is_simple_matches_scalar(corpus_100):
    """The batched pair test gives the scalar pair loop's answer: on the
    corpus's drivable areas, on seeded random polygons (grid vertices make
    collinear and touching edges common), on a bowtie, on edges that touch or
    overlap end to end along one line, and on an 80-gon with one crossing at
    either side of a 32-edge block boundary."""
    polygons = [poly for s in corpus_100 for poly in s.map.drivable_area]
    rng = random.Random(21)
    for _ in range(1500):
        n = rng.randint(1, 9)
        if rng.random() < 0.5:
            polygons.append([(rng.randint(0, 3) * 1.0, rng.randint(0, 3) * 1.0) for _ in range(n)])
        else:
            polygons.append([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)])
    polygons += [
        [(0, 0), (1, 1), (1, 0), (0, 1)],  # bowtie
        [(0, 0), (4, 0), (4, 1), (2, 0), (0, 1)],  # a vertex on a non-adjacent edge
        [(0, 0), (3, 0), (3, 1), (2, 1), (2, 0), (1, 0), (1, 1), (0, 1)],  # collinear overlap
        [(0, 0), (2, 0), (2, 1), (3, 1), (3, 0), (5, 0), (5, 2), (0, 2)],  # collinear, apart
        [(0, 0), (2, 0), (2, 1), (3, 1), (2, 0), (4, 0), (4, 2), (0, 2)],  # ends meet on a line
    ]
    circle = [(math.cos(k * TWO_PI / 80), math.sin(k * TWO_PI / 80)) for k in range(80)]
    polygons.append(circle)
    for k in (31, 32, 63):  # edges k and k + 2 cross
        bent = list(circle)
        bent[k + 1], bent[k + 2] = bent[k + 2], bent[k + 1]
        polygons.append(bent)
    results = [polygon_is_simple(p) for p in polygons]
    assert results == [oracle_polygon_is_simple(p) for p in polygons]
    assert results[-9:] == [False, False, False, True, False, True, False, False, False]
    assert 0 < sum(results) < len(results)


def test_project_to_polyline_basics():
    line = [(0.0, 0.0), (10.0, 0.0)]
    s, lat, heading = project_to_polyline(3.0, 2.0, line)
    assert s == pytest.approx(3.0)
    assert lat == pytest.approx(2.0)  # left of travel is positive
    assert heading == pytest.approx(0.0)
    s, lat, _ = project_to_polyline(3.0, -2.0, line)
    assert lat == pytest.approx(-2.0)


def test_polyline_ops_matches_scalar_reference():
    rng = random.Random(99)
    pts = [(0.0, 0.0)]
    heading = 0.0
    for _ in range(12):
        heading += rng.uniform(-0.4, 0.4)
        pts.append((pts[-1][0] + 5 * math.cos(heading), pts[-1][1] + 5 * math.sin(heading)))
    ops = PolylineOps(pts)
    for _ in range(200):
        x, y = rng.uniform(-5, 60), rng.uniform(-15, 15)
        s1, lat1, h1 = project_to_polyline(x, y, pts)
        s2, lat2, h2 = ops.project(x, y)
        assert s1 == pytest.approx(s2, abs=1e-9)
        assert lat1 == pytest.approx(lat2, abs=1e-9)
        assert h1 == pytest.approx(h2, abs=1e-12)


def test_polyline_ops_point_at_roundtrip():
    pts = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)]
    ops = polyline_ops(tuple(pts))
    (x, x_end), (y, y_end), (h, _) = ops.point_at_many(np.array([15.0, 100.0]))
    assert (x, y) == pytest.approx((10.0, 5.0))
    assert h == pytest.approx(math.pi / 2)
    # clamped past the end
    assert (x_end, y_end) == pytest.approx((10.0, 10.0))


def test_corridor_polygon_contains_centerline():
    pts = [(0.0, 0.0), (20.0, 0.0), (40.0, 5.0)]
    poly = corridor_polygon(pts, 2.0)
    assert polygon_is_simple(poly)
    for x, y in pts:
        assert point_in_polygon(x, y, poly)


# --- batched twins: bit for bit against the scalar functions


def _same_bits(a, b):
    bits = lambda v: np.asarray(v, dtype=float).view(np.int64).tolist()
    return bits(a) == bits(b)


def test_wrap_angle_many_is_bit_identical():
    rng = np.random.default_rng(3)
    edges = np.array([
        0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI, 1.5 * TWO_PI, -1.5 * TWO_PI,
        2 * TWO_PI, -2 * TWO_PI, 3 * math.pi, -3 * math.pi, 1e300, -1e-300, 7 * TWO_PI,
    ])
    theta = np.concatenate([
        rng.uniform(-15.0, 15.0, 200_000),
        rng.uniform(-math.pi, math.pi, 50_000) - rng.uniform(-math.pi, math.pi, 50_000),
        edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
    ])
    assert _same_bits(wrap_angle_many(theta), [wrap_angle(v) for v in theta.tolist()])
    # an array wholly inside (-pi, pi), which returns without the turn arithmetic
    inside = np.concatenate([
        rng.uniform(-math.pi, math.pi, 1000), [0.0, -0.0, -1e-300],
        np.nextafter([math.pi, -math.pi], 0.0),
    ])
    assert _same_bits(wrap_angle_many(inside), [wrap_angle(v) for v in inside.tolist()])
    assert wrap_angle_many(inside) is not inside


def _random_boxes(rng, n, spread):
    return [
        (rng.uniform(-spread, spread), rng.uniform(-spread, spread), rng.uniform(-4.0, 4.0))
        for _ in range(n)
    ]


def test_boxes_overlap_many_matches_scalar():
    rng = random.Random(8)
    a = _random_boxes(rng, 3000, 4.0)
    b = _random_boxes(rng, 3000, 4.0)
    b[:50] = a[:50]  # identical poses
    a[50:100] = [(x, y, 0.0) for x, y, _ in a[50:100]]
    b[50:100] = [(x + 4.55, y, 0.0) for x, y, _ in a[50:100]]  # bumpers touch, up to rounding
    arr = lambda boxes, L, W: BoxArrays.of(*(np.array(c) for c in zip(*boxes)), L, W)
    got = boxes_overlap_many(arr(a, 4.6, 1.9), arr(b, 4.5, 2.1))
    expected = [
        boxes_overlap(OrientedBox(*p, 4.6, 1.9), OrientedBox(*q, 4.5, 2.1)) for p, q in zip(a, b)
    ]
    assert got.tolist() == expected
    assert 0 < sum(expected) < len(expected)


def test_segments_intersect_many_matches_scalar():
    rng = random.Random(4)
    q1, q2 = (0.0, -2.0), (0.0, 2.0)
    segs = [((rng.uniform(-3, 3), rng.uniform(-3, 3)), (rng.uniform(-3, 3), rng.uniform(-3, 3)))
            for _ in range(2000)]
    segs += [((-1.0, 0.0), (0.0, 0.0)), ((0.0, 2.0), (1.0, 3.0)), ((0.0, -3.0), (0.0, -2.5)),
             ((-1.0, 1.0), (1.0, 1.0)), ((0.0, 3.0), (0.0, 1.0))]  # touching and collinear cases
    p1x, p1y, p2x, p2y = (np.array(c) for c in zip(*[(*p, *q) for p, q in segs]))
    got = segments_intersect_many(p1x, p1y, p2x, p2y, q1, q2)
    assert got.tolist() == [segments_intersect(p, q, q1, q2) for p, q in segs]


def test_point_at_many_and_nearest_polyline_match_scalar():
    rng = random.Random(12)
    pts = [(0.0, 0.0)]
    heading = 0.0
    for _ in range(12):
        heading += rng.uniform(-0.4, 0.4)
        pts.append((pts[-1][0] + 5 * math.cos(heading), pts[-1][1] + 5 * math.sin(heading)))
    ops = PolylineOps(pts)
    s = np.array([-1.0, 0.0, 1e-9, float(ops.cum_s[3]), float(ops.cum_s[-1]), 1e3]
                 + [rng.uniform(-5, 70) for _ in range(500)])
    x, y, h = ops.point_at_many(s)
    expected = [point_at(ops, v) for v in s.tolist()]
    assert _same_bits(x, [e[0] for e in expected])
    assert _same_bits(y, [e[1] for e in expected])
    assert _same_bits(h, [e[2] for e in expected])

    other = tuple((px, py + 3.5) for px, py in pts)
    lines = (tuple(pts), other, tuple(pts))  # the repeated line never wins a tie
    xs = np.array([rng.uniform(-5, 60) for _ in range(500)] + [pts[4][0]])
    ys = np.array([rng.uniform(-5, 10) for _ in range(500)] + [pts[4][1] + 1.75])
    got = PolylineSetOps(lines).nearest_many(xs, ys)
    for i, (px, py) in enumerate(zip(xs.tolist(), ys.tolist())):
        d = [polyline_ops(line).min_dist2(px, py) for line in lines]
        assert got[i] == d.index(min(d))
