import math
import random

import numpy as np
import pytest

from drivegen.geometry import (
    TWO_PI,
    BoxArrays,
    OrientedBox,
    PolylineOps,
    PolylineSetOps,
    boxes_overlap,
    boxes_overlap_many,
    corridor_polygon,
    point_in_polygon,
    points_in_any_polygon,
    polygon_is_simple,
    polyline_ops,
    segments_intersect,
    segments_intersect_many,
    wrap_angle,
    wrap_angle_many,
)

from oracle import point_at, project_to_polyline


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
    return _oracle_polygons_overlap(a.corners(), b.corners())


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


def test_polygon_is_simple():
    assert polygon_is_simple([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert not polygon_is_simple([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie


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
