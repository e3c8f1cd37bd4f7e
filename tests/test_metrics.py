import math
import random

import numpy as np
import pytest

import drivegen.pipeline
import drivegen.vocab
from drivegen.batch import rollout_batch
from drivegen.config import PipelineConfig
from drivegen.errors import ValidationError
from drivegen.geometry import BoxArrays, OrientedBox
from drivegen.metrics import (
    ALL_METRICS,
    MetricThresholds,
    MetricWeights,
    RewardRecord,
    SimContext,
    SubMetricVector,
    _contact_lon,
    _epdms_rows,
    aggregate_epdms,
    check_collision,
    compute_submetrics,
    submetrics_batch,
    time_to_collision,
)
from drivegen.pipeline import run_generation
from drivegen.reactive import SceneBatch, StateBatch, rollout
from drivegen.scenario import (
    DEFAULT_EGO_LENGTH,
    DEFAULT_EGO_WIDTH,
    AgentTrack,
    Lane,
    MapModel,
    Scenario,
    Trajectory,
)

from conftest import make_state, scene_states, shifted_plan
from oracle import (
    SceneStates, comfort_profile, contact_point, global_to_local, oracle_aggregate_epdms,
    oracle_submetrics, oracle_time_to_collision,
)
from test_geometry import oracle_boxes_overlap


def ones(**overrides):
    base = dict(nc=1.0, dac=1.0, ddc=1.0, tlc=1.0, ep=1.0, ttc=1.0, lk=1.0, hc=1.0, ec=1.0)
    base.update(overrides)
    return SubMetricVector(**base)


# --- aggregate


def test_aggregate_all_ones_is_one():
    assert aggregate_epdms(ones(), MetricWeights()) == 1.0


def test_aggregate_penalty_annihilates():
    assert aggregate_epdms(ones(dac=0.0), MetricWeights()) == 0.0


def test_aggregate_weighted_mean_hand_computed():
    # oracle: (5*0.8 + 5*1 + 2*1 + 2*1 + 2*0.5) / 16 = 14/16
    s = ones(ep=0.8, ec=0.5)
    w = MetricWeights(w_ep=5, w_ttc=5, w_lk=2, w_hc=2, w_ec=2)
    assert aggregate_epdms(s, w) == pytest.approx(0.875, abs=1e-12)


def test_aggregate_monotone_in_each_submetric():
    rng = random.Random(0)
    w = MetricWeights()
    for _ in range(200):
        vals = {
            name: (rng.choice([0.0, 1.0]) if name in ("nc", "dac", "ddc", "tlc") else rng.random())
            for name in ("nc", "dac", "ddc", "tlc", "ep", "ttc", "lk", "hc", "ec")
        }
        s = SubMetricVector(**vals)
        base = aggregate_epdms(s, w)
        for name in vals:
            hi = dict(vals)
            hi[name] = 1.0
            assert aggregate_epdms(SubMetricVector(**hi), w) >= base - 1e-12


def test_aggregate_weight_scale_invariance():
    s = ones(ep=0.3, ttc=0.7, lk=0.2, hc=0.9, ec=0.5)
    w1 = MetricWeights(1.0, 2.0, 3.0, 4.0, 5.0)
    w2 = MetricWeights(7.0, 14.0, 21.0, 28.0, 35.0)
    assert abs(aggregate_epdms(s, w1) - aggregate_epdms(s, w2)) < 1e-12


@pytest.mark.parametrize(
    "weights", [MetricWeights(), MetricWeights(1.3, 0.7, 2.9, 0.1, 4.4)], ids=["default", "other"]
)
def test_epdms_rows_round_as_the_scalar_aggregate(weights):
    """The aggregate over (..., 9) rows, which the screen, the planner and
    the samples use, equals the scalar formula (`oracle_aggregate_epdms`)
    row by row as `float.hex`, on random valid rows; `aggregate_epdms`
    reads its one row."""
    rng = np.random.default_rng(17)
    rows = rng.random((20000, 9))
    rows[:, :4] = rng.random((20000, 4)) < 0.9  # binary penalties
    rows[:, 4:][rng.random((20000, 5)) < 0.2] = 1.0  # graded terms often at 1
    want = [oracle_aggregate_epdms(SubMetricVector(*r), weights).hex() for r in rows.tolist()]
    got = _epdms_rows(rows.reshape(100, 200, 9), weights)
    assert got.shape == (100, 200)
    assert [v.hex() for v in got.ravel().tolist()] == want
    assert [aggregate_epdms(SubMetricVector(*r), weights).hex() for r in rows[:500].tolist()] == (
        want[:500]
    )


def test_aggregate_zero_weights_error():
    with pytest.raises(ValidationError, match="weight sum must be positive"):
        aggregate_epdms(ones(), MetricWeights(0, 0, 0, 0, 0))


def test_submetric_vector_validation():
    with pytest.raises(ValidationError):
        ones(nc=0.5)  # penalty members must be binary
    with pytest.raises(ValidationError):
        ones(ep=1.5)


def test_check_collision_overlapping_squares():
    a = [OrientedBox(0.0, 0.0, 0.0, 1.0, 1.0)]
    b = {"x": [OrientedBox(0.5, 0.0, 0.0, 1.0, 1.0)]}
    event = check_collision(a, b)
    assert event is not None and event.frame == 0 and event.agent_id == "x"


def test_check_collision_separated_squares():
    a = [OrientedBox(0.0, 0.0, 0.0, 1.0, 1.0)]
    b = {"x": [OrientedBox(2.0, 0.0, 0.0, 1.0, 1.0)]}
    assert check_collision(a, b) is None


def test_check_collision_rotated_against_oracle():
    a = OrientedBox(0.0, 0.0, 0.0, 1.0, 1.0)
    b = OrientedBox(1.2, 0.0, math.pi / 4, 1.0, 1.0)
    expected = oracle_boxes_overlap(a, b)
    event = check_collision([a], {"x": [b]})
    assert (event is not None) == expected


def test_check_collision_random_oracle_agreement():
    rng = random.Random(77)
    for _ in range(1000):
        a = OrientedBox(
            rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi),
            rng.uniform(0.5, 5.0), rng.uniform(0.5, 2.5),
        )
        b = OrientedBox(
            rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi),
            rng.uniform(0.5, 5.0), rng.uniform(0.5, 2.5),
        )
        assert (check_collision([a], {"x": [b]}) is not None) == oracle_boxes_overlap(a, b)


def test_check_collision_at_fault_rules():
    ego = [OrientedBox(0.0, 0.0, 0.0, 4.0, 2.0)]
    front = {"x": [OrientedBox(2.0, 0.0, 0.0, 4.0, 2.0)]}
    rear = {"x": [OrientedBox(-2.0, 0.0, 0.0, 4.0, 2.0)]}
    # moving ego, frontal contact: at fault
    assert check_collision(ego, front, ego_speeds=[5.0]).at_fault
    # struck from behind while moving: not at fault
    assert not check_collision(ego, rear, ego_speeds=[5.0]).at_fault
    # stationary ego: not at fault unless the other entity is static
    assert not check_collision(ego, front, ego_speeds=[0.0]).at_fault
    assert check_collision(ego, front, ego_speeds=[0.0], static_ids={"x"}).at_fault


def test_check_collision_frame_count_mismatch():
    with pytest.raises(ValueError, match="frame count mismatch"):
        check_collision(
            [OrientedBox(0, 0, 0, 1, 1)], {"x": [OrientedBox(0, 0, 0, 1, 1)] * 2}
        )
    two = [OrientedBox(0, 0, 0, 1, 1)] * 2
    with pytest.raises(ValueError, match="ego_speeds has 1 entries for 2 ego frames"):
        check_collision(two, {"x": two}, ego_speeds=[1.0])
    mixed = [OrientedBox(0, 0, 0, 1, 1), OrientedBox(0, 0, 0, 2, 1)]
    with pytest.raises(ValueError, match="agent x: boxes of mixed extents"):
        check_collision(two, {"x": mixed})
    with pytest.raises(ValueError, match="ego: boxes of mixed extents"):
        check_collision(mixed, {"x": two})


def test_contact_point_matches_the_scalar_oracle():
    """How far ahead of box a its contact point with box b lies equals the
    oracle's contact point in a's frame, bit for bit: random pairs, boxes
    crossing with no corner inside the other (the midpoint counts), and
    corners exactly on the other box's edge, on both sides."""
    rng = random.Random(5)
    for (la, wa), (lb, wb) in (((4.6, 1.9), (4.5, 2.1)), ((4.0, 2.0), (1.0, 6.0))):
        pairs = [
            (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-4, 4),
             rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-4, 4))
            for _ in range(500)
        ]
        pairs += [(0.0, 0.0, 0.0, dx, 0.0, 0.0) for dx in (-2.5, 2.5, -4.25, 4.25, 0.0)]
        ax, ay, ah, bx, by, bh = (np.array(c) for c in zip(*pairs))
        got = _contact_lon(BoxArrays.of(ax, ay, ah, la, wa), ah, BoxArrays.of(bx, by, bh, lb, wb))
        for (x, y, h, *b), lon in zip(pairs, got.tolist()):
            a = OrientedBox(x, y, h, la, wa)
            want, _ = global_to_local(*contact_point(a, OrientedBox(*b, lb, wb)), x, y, h)
            assert lon.hex() == want.hex(), (x, y, h, b)


def _contact_rows():
    """Rows of 5 frames for the fault ruling: the ego (4 m x 2 m) drives along
    its heading at its speed; each listed agent sits at an offset from it in
    the given frames, or 100 m to the side. Returns (ego speed, ego heading,
    {agent: (dx, dy, heading, frames)}, expected NC or None) per row."""
    rows = [
        (5.0, 0.0, {"a": (4.0, 0.0, 0.0, range(5))}, 0.0),  # front contact, moving
        (5.0, 0.0, {"a": (-4.0, 0.0, 0.0, range(5))}, 1.0),  # rear contact
        (0.0, 0.0, {"a": (4.0, 0.0, 0.0, range(5))}, 1.0),  # the ego stands still
        (0.0, 0.0, {"s": (-3.9, 0.0, 0.0, range(5))}, 0.0),  # a static agent
        # the first contact decides: not at fault, then at fault
        (5.0, 0.0, {"a": (-4.0, 0.0, 0.0, range(2)), "b": (4.0, 0.0, 0.0, range(3, 5))}, 1.0),
        # both touch in the first frame, listed b before a: the lower id decides
        (5.0, 0.0, {"a": (-4.0, 0.0, 0.0, range(5)), "b": (4.0, 0.0, 0.0, range(5))}, 1.0),
        (5.0, 0.0, {"a": (4.0, 0.0, 0.0, range(5)), "b": (-4.0, 0.0, 0.0, range(5))}, 0.0),
        # the bumpers touch exactly: a corner of each box lies on the other's edge
        (5.0, 0.0, {"a": (-4.25, 0.5, 0.0, range(5))}, 1.0),
        (5.0, 0.0, {"a": (4.25, 0.5, 0.0, range(5))}, 0.0),
        (5.0, 0.7, {"a": (0.0, 0.0, 2.0, range(5))}, None),  # crossing, same center
    ]
    rng = random.Random(31)
    for _ in range(30):
        offset = (rng.uniform(-5, 5), rng.uniform(-2.5, 2.5), rng.uniform(-math.pi, math.pi))
        first = rng.randrange(5)
        rows.append((rng.choice([0.0, 0.05, 5.0]), rng.uniform(-math.pi, math.pi),
                     {rng.choice("abs"): (*offset, range(first, 5))}, None))
    return rows


def test_fault_ruling_matches_the_scalar_oracle_row_by_row():
    """NC of hand-built rows through `submetrics_batch` equals the scalar
    oracle's bit for bit, as do the other sub-metrics, and reaches both
    values; the hand-made rows also get the NC their comment says."""
    dt, n = 0.1, 5
    ctx = SimContext(ego_length=4.0, ego_width=2.0)
    far = tuple(make_state(y=100.0) for _ in range(n))
    extents = {"a": (4.5, 1.9, "vehicle"), "b": (4.5, 1.9, "vehicle"), "s": (4.0, 2.0, "static")}
    lane = ((-100.0, 0.0), (100.0, 0.0))
    scenario = Scenario(
        id="contacts",
        map=MapModel(
            lanes=(Lane(polyline=lane, width=3.5, direction=1),),
            drivable_area=(((-100.0, -50.0), (100.0, -50.0), (100.0, 150.0), (-100.0, 150.0)),),
            route=lane,
            traffic_lights=(),
        ),
        ego_log=Trajectory(dt=dt, states=tuple(make_state(x=k, v=10.0) for k in range(n))),
        agents=tuple(AgentTrack(aid, l, w, kind, far) for aid, (l, w, kind) in extents.items()),
        t_history=1,
        t_horizon=2,
    )
    rows = _contact_rows()
    egos, tracks = [], {aid: [] for aid in ("b", "a", "s")}  # out of id order
    for v, theta, placed, _ in rows:
        c, s = math.cos(theta), math.sin(theta)
        ego = [make_state(x=v * k * dt * c, y=v * k * dt * s, theta=theta, v=v) for k in range(n)]
        egos.append(ego)
        for aid, track in tracks.items():
            dx, dy, heading, frames = placed.get(aid, (0.0, 0.0, 0.0, ()))
            track.append([
                make_state(x=e.pose.x + dx, y=e.pose.y + dy, theta=heading)
                if k in frames else far[k]
                for k, e in enumerate(ego)
            ])
    agents = {aid: StateBatch.tracks(t) for aid, t in tracks.items()}
    scene = SceneBatch(dt, 0, n - 1, StateBatch.tracks(egos), agents)
    got = submetrics_batch(scene, scenario, ctx)
    for p, (*_, expected) in enumerate(rows):
        states = SceneStates.of(scene, p)
        want = oracle_submetrics(states, scenario, Trajectory(dt=dt, states=states.ego), ctx)
        assert [v.hex() for v in got[p].tolist()] == [
            getattr(want, m).hex() for m in ALL_METRICS
        ], p
        assert expected is None or got[p, 0] == expected, p
    assert set(got[:, 0].tolist()) == {0.0, 1.0}


# --- time to collision


def _ttc_scene(ego_v, leader_gap, leader_v, n=5, dt=0.1):
    ego_len, agent_len = 4.6, 4.5
    ego = tuple(make_state(x=ego_v * k * dt, v=ego_v) for k in range(n))
    lead_x0 = 0.5 * ego_len + leader_gap + 0.5 * agent_len
    lead = tuple(make_state(x=lead_x0 + leader_v * k * dt, v=leader_v) for k in range(n))
    return scene_states(ego, {"lead": lead}, dt)


def _ttc(
    states,
    ego_extent=(DEFAULT_EGO_LENGTH, DEFAULT_EGO_WIDTH),
    agent_extents=None,
    horizon=3.0,
    min_ego_speed=0.0,
):
    """`time_to_collision` of the one-row scene of `states`, as a float."""
    scene = states.batch()
    ego = scene.ego
    agent_boxes = {
        aid: BoxArrays.of(t.x, t.y, t.theta, *agent_extents[aid]) for aid, t in scene.agents.items()
    }
    ego_boxes = BoxArrays.of(ego.x, ego.y, ego.theta, *ego_extent)
    (ttc,) = time_to_collision(scene, ego_boxes, agent_boxes, horizon, min_ego_speed).tolist()
    return ttc


def test_ttc_stopped_leader_derived():
    # oracle: gap / closing speed = 20 / 10 = 2.0 s
    states = _ttc_scene(ego_v=10.0, leader_gap=20.0, leader_v=0.0, n=1)
    ttc = _ttc(states, (4.6, 1.9), {"lead": (4.5, 1.9)}, horizon=3.0)
    assert ttc == pytest.approx(2.0, abs=1e-9)
    # with the scene itself advancing toward the parked leader, the min
    # over frames comes from the latest frame
    states = _ttc_scene(ego_v=10.0, leader_gap=20.0, leader_v=0.0, n=2)
    ttc = _ttc(states, (4.6, 1.9), {"lead": (4.5, 1.9)}, horizon=3.0)
    assert ttc == pytest.approx(1.9, abs=1e-9)


def test_ttc_no_agents_infinite():
    ego = tuple(make_state(x=k, v=10.0) for k in range(3))
    states = scene_states(ego)
    assert _ttc(states) == math.inf


def test_ttc_diverging_infinite():
    states = _ttc_scene(ego_v=5.0, leader_gap=10.0, leader_v=9.0, n=4)
    assert _ttc(states, (4.6, 1.9), {"lead": (4.5, 1.9)}) == math.inf


def test_ttc_late_approach_after_an_early_running_minimum():
    """An agent parked 12 m ahead sets the running minimum (1.0 s by frame
    2), then pulls 25 m ahead: within reach at the full 3 s horizon, out of
    reach under the minimum. A second agent is out of reach until it cuts in
    6 m ahead at frame 6 and comes to 3 m by frame 9."""
    dt, n = 0.1, 10
    ego = tuple(make_state(x=10.0 * k * dt, v=10.0) for k in range(n))
    front = 0.5 * 4.6 + 0.5 * 4.5  # center offset of bumpers that touch
    early = tuple(
        make_state(x=front + 12.0 if k < 3 else ego[k].pose.x + front + 25.0) for k in range(n)
    )
    late = tuple(make_state(x=front + 12.0, y=-40.0 if k < 6 else 0.0) for k in range(n))
    extents = {"early": (4.5, 1.9), "late": (4.5, 1.9)}
    states = scene_states(ego, {"early": early, "late": late}, dt)
    ttc = _ttc(states, (4.6, 1.9), extents)
    assert ttc == oracle_time_to_collision(states, (4.6, 1.9), extents, 3.0)
    assert ttc == pytest.approx(0.3, abs=1e-9)
    # without the late agent the early minimum stands
    alone = scene_states(ego, {"early": early}, dt)
    assert _ttc(alone, (4.6, 1.9), extents) == oracle_time_to_collision(
        alone, (4.6, 1.9), extents, 3.0
    )
    assert _ttc(alone, (4.6, 1.9), extents) == pytest.approx(1.0, abs=1e-9)


# --- full sub-metric computation


def _window(scenario):
    anchor = scenario.anchor_frame
    plan = scenario.ego_log.segment(anchor, anchor + scenario.t_horizon)
    scene = rollout(scenario, plan, anchor, scenario.t_horizon, mode="nonreactive")
    history = scenario.ego_log.segment(0, anchor)
    combined = Trajectory(
        dt=scenario.dt, states=history.states + scene.ego.states(0)[1:], frame="global"
    )
    return scene, combined


def oracle_benign_checks(scenario, states):
    """Independent per-frame geometric oracle for the binary penalties."""
    from test_geometry import oracle_boxes_overlap as overlap
    from oracle import corners, point_in_polygon

    extents = {a.id: (a.length, a.width) for a in scenario.agents}
    for k in range(states.frame_count):
        e = states.ego[k]
        ebox = OrientedBox(e.pose.x, e.pose.y, e.pose.theta, 4.6, 1.9)
        for aid, track in states.agents.items():
            o = track[k]
            obox = OrientedBox(o.pose.x, o.pose.y, o.pose.theta, *extents[aid])
            assert not overlap(ebox, obox), f"collision at {k}"
        for cx, cy in corners(ebox):
            assert any(
                point_in_polygon(cx, cy, poly) for poly in scenario.map.drivable_area
            ), f"off-road at {k}"


def test_benign_log_penalties_all_one(small_corpus):
    for scenario in small_corpus:
        states, combined = _window(scenario)
        oracle_benign_checks(scenario, SceneStates.of(states))  # oracle first
        sub = compute_submetrics(states, scenario, combined)
        assert sub.nc == 1.0
        assert sub.dac == 1.0
        assert sub.ddc == 1.0
        assert sub.tlc == 1.0
        assert sub.ep == 1.0  # the log is its own progress reference


def test_authored_head_on_collision_nc_zero(benign_scenario):
    from drivegen.scenario import AgentTrack, Scenario

    s = benign_scenario
    anchor = s.anchor_frame
    # park an agent right on the ego path, some way past the anchor
    hit_x = s.ego_log[anchor + 10].pose.x
    blocker = AgentTrack(
        id="wall",
        length=4.5,
        width=1.9,
        kind="static",
        states=tuple(make_state(x=hit_x, v=0.0) for _ in range(s.frame_count)),
    )
    s2 = Scenario(
        id="crash", map=s.map, ego_log=s.ego_log, agents=(blocker,),
        t_history=s.t_history, t_horizon=s.t_horizon,
    )
    states, combined = _window(s2)
    sub = compute_submetrics(states, s2, combined)
    assert sub.nc == 0.0


def test_stationary_ego_zero_progress(benign_scenario):
    s = benign_scenario
    anchor = s.anchor_frame
    n = s.t_horizon + 1
    pose0 = s.ego_log[anchor].pose
    frozen = tuple(
        make_state(x=pose0.x, y=pose0.y, theta=pose0.theta, v=0.0) for _ in range(n)
    )
    states = scene_states(frozen, dt=s.dt, t_start=anchor)
    traj = Trajectory(dt=s.dt, states=frozen)
    sub = compute_submetrics(states.batch(), s, traj)
    assert sub.ep == 0.0  # log advances ~40 m; the ego does not


def test_traffic_light_red_crossing_zero():
    from drivegen.scenario import Lane, MapModel, Scenario, TrafficLight

    dt, v = 0.1, 5.0
    n = 10 + 2 * 20
    lane = ((-50.0, 0.0), (400.0, 0.0))
    scenario = Scenario(
        id="redlight",
        map=MapModel(
            lanes=(Lane(polyline=lane, width=3.5, direction=1),),
            drivable_area=(((-50.0, -2.0), (400.0, -2.0), (400.0, 2.0), (-50.0, 2.0)),),
            route=lane,
            traffic_lights=(
                TrafficLight(
                    stop_line=((15.0, -2.0), (15.0, 2.0)),
                    phases=((0.0, 1.0, "green"), (1.0, 99.0, "red")),
                ),
            ),
        ),
        ego_log=Trajectory(
            dt=dt, states=tuple(make_state(x=v * k * dt, v=v) for k in range(n))
        ),
        agents=(),
        t_history=10,
        t_horizon=20,
    )
    # the log itself crosses x=15 at t=3 s, during the red phase
    states = rollout(
        scenario,
        scenario.ego_log.segment(0, scenario.t_horizon),
        0,
        scenario.t_horizon,
        mode="log-replay-ego",
    )
    sub = compute_submetrics(
        states, scenario, scenario.ego_log.segment(0, scenario.t_horizon)
    )
    assert sub.tlc == 1.0  # stop line not reached yet in this window
    states2 = rollout(
        scenario,
        scenario.ego_log.segment(20, 40),
        20,
        20,
        mode="log-replay-ego",
    )
    sub2 = compute_submetrics(states2, scenario, scenario.ego_log.segment(20, 40))
    assert sub2.tlc == 0.0  # crossing at t = 3 s happens on red


def _braking_window(decel):
    """21 frames of straight driving from 15 m/s, braking at `decel` m/s^2."""
    dt = 0.1
    states = [make_state(v=15.0)]
    x, v = 0.0, 15.0
    for _ in range(20):
        x += dt * v
        v = max(0.0, v - dt * decel)
        states.append(make_state(x=x, v=v))
    traj = Trajectory(dt=dt, states=tuple(states))
    return scene_states(states, dt=dt).batch(), traj


def test_hc_flags_harsh_braking(benign_scenario):
    # accel -5 m/s^2 exceeds the 4.0 m/s^2 comfort bound; jerk and yaw stay 0
    assert MetricThresholds().hc_accel_max == 4.0
    scene, traj = _braking_window(5.0)
    accel, _, _, _ = comfort_profile(traj)
    assert max(map(abs, accel)) == pytest.approx(5.0)
    assert compute_submetrics(scene, benign_scenario, traj).hc == 0.0


def test_hc_passes_gentle_braking(benign_scenario):
    # accel -2 m/s^2 is within the 4.0 m/s^2 bound; jerk and yaw stay 0
    assert MetricThresholds().hc_accel_max == 4.0
    scene, traj = _braking_window(2.0)
    accel, _, _, _ = comfort_profile(traj)
    assert max(map(abs, accel)) == pytest.approx(2.0)
    assert compute_submetrics(scene, benign_scenario, traj).hc == 1.0


def test_compute_submetrics_pure(benign_scenario):
    states, combined = _window(benign_scenario)
    a = compute_submetrics(states, benign_scenario, combined)
    b = compute_submetrics(states, benign_scenario, combined)
    assert a == b


def test_compute_submetrics_scores_a_one_row_scene(benign_scenario):
    scene, combined = _window(benign_scenario)
    for rows in ([], [0, 0]):
        with pytest.raises(ValueError, match="one-row scene"):
            compute_submetrics(scene.take(rows), benign_scenario, combined)


def test_reward_record_dict_roundtrip():
    sub = ones(ep=0.7)
    r = RewardRecord(submetrics=sub, epdms=aggregate_epdms(sub, MetricWeights()), stage_scores=(0.9, 0.8))
    d = r.as_dict()
    assert d["stage_scores"] == [0.9, 0.8]
    assert SubMetricVector.from_dict(d["submetrics"]) == sub


# --- the scoring kernel against the scalar oracle


def test_scoring_kernel_matches_the_scalar_oracle_on_a_generated_corpus(
    corpus_100, small_vocab, monkeypatch
):
    """Every row that the screen (both modes) and stage 2 score, in a
    recovery and a planner generation over 100 scenarios, equals the scalar
    oracle field by field and bit for bit, and so does the kernel's minimum
    TTC, +inf included. The planner's stage 2 is its winning proposal's row."""
    calls = {"vocab": 0, "pipeline": 0}
    seen = {"finite_ttc": 0, "ttc": set(), "hc": set(), "ep_graded": 0}

    def check(got, states, scenario, ego_traj, ctx, caller):
        want = oracle_submetrics(states, scenario, ego_traj, ctx)
        assert {k: v.hex() for k, v in got.as_dict().items()} == {
            k: v.hex() for k, v in want.as_dict().items()
        }, (scenario.id, states.t_start)
        world = ctx or SimContext()
        th = world.thresholds
        extents = {a.id: (a.length, a.width) for a in scenario.agents}
        args = (world.ego_extent, extents, th.ttc_horizon, th.ttc_min_ego_speed)
        ttc = _ttc(states, *args)
        assert ttc.hex() == oracle_time_to_collision(states, *args).hex(), scenario.id
        calls[caller] += 1
        seen["finite_ttc"] += ttc < math.inf
        seen["ep_graded"] += 0.0 < got.ep < 1.0
        for name in ("ttc", "hc"):
            seen[name].add(getattr(got, name))

    def checked(module):
        real = module.submetrics_batch
        caller = module.__name__.split(".")[-1]

        def scorer(scene, scenario, ctx, comfort=None):
            got = real(scene, scenario, ctx, comfort)
            judged = comfort if comfort is not None else scene.ego
            for row, values in enumerate(got.tolist()):
                check(SubMetricVector(*values), SceneStates.of(scene, row), scenario,
                      judged.trajectory(row, scene.dt), ctx, caller)
            return got

        monkeypatch.setattr(module, "submetrics_batch", scorer)

    checked(drivegen.vocab)
    checked(drivegen.pipeline)
    real_plans = drivegen.pipeline.privileged_plans

    def checked_plans(scenario, t, ego_start, agent_init, p=None, ctx=None):
        result = real_plans(scenario, t, ego_start, agent_init, p, ctx)
        _, scene, sub = result
        for row, values in enumerate(sub.tolist()):
            states = SceneStates.of(scene, row)
            executed = Trajectory(dt=scenario.dt, states=states.ego)
            check(SubMetricVector(*values), states, scenario, executed, ctx, "pipeline")
        return result

    monkeypatch.setattr(drivegen.pipeline, "privileged_plans", checked_plans)
    for expert in ("recovery", "planner"):
        config = PipelineConfig(
            vocab_size=256, vocab_source_count=2048, master_seed=11, expert_kind=expert,
            rounds=1, per_round=1,
        )
        samples, _ = run_generation(corpus_100, config, vocab=small_vocab, workers=1)
        assert samples
    assert calls["vocab"] >= 1000 and calls["pipeline"] >= 100, calls
    # the corpus reaches both sides of the TTC and comfort decisions (the
    # screen rejects any contact before scoring, so NC stays 1 here; the
    # hand-built scenes of test_planner_batch.py reach NC and TLC)
    assert seen["ttc"] == seen["hc"] == {0.0, 1.0}, seen
    assert seen["finite_ttc"] and seen["ep_graded"], seen


def test_scoring_kernel_matches_the_scalar_oracle_with_several_agents(multi_agent_corpus):
    """On scenes with a slower lead, a follower, a parked car and a close
    neighbour, every reactive row of fifteen plans (shifted up to 1.6 m
    either way, at 0.8x to 1.15x speed) from the anchor and from the second
    stage's start scores as the scalar oracle does, bit for bit, with its
    minimum TTC. Sideways plans hit the parked car or the neighbour, so the
    contact ruling picks among several agents; plans in lane clear them."""
    ctx = SimContext()
    th = ctx.thresholds
    seen = {name: set() for name in ("nc", "ttc", "dac")}
    cleared = 0
    for s in multi_agent_corpus:
        extents = {a.id: (a.length, a.width) for a in s.agents}
        for t in (s.anchor_frame, s.anchor_frame + s.t_horizon):
            logged = s.ego_log.segment(t, t + s.t_horizon)
            plans = StateBatch.tracks([
                shifted_plan(logged, lateral, speed).states
                for lateral in (-1.6, -0.8, 0.0, 0.8, 1.6) for speed in (0.8, 1.0, 1.15)
            ])
            scene = rollout_batch(s, plans, t, s.t_horizon, ctx)
            for row, values in enumerate(submetrics_batch(scene, s, ctx).tolist()):
                states = SceneStates.of(scene, row)
                want = oracle_submetrics(states, s, Trajectory(s.dt, states.ego), ctx)
                assert [v.hex() for v in values] == [
                    getattr(want, name).hex() for name in ALL_METRICS
                ], (s.id, t, row)
                args = (ctx.ego_extent, extents, th.ttc_horizon, th.ttc_min_ego_speed)
                assert _ttc(states, *args).hex() == oracle_time_to_collision(states, *args).hex()
                for name in seen:
                    seen[name].add(getattr(want, name))
                cleared += want.nc == want.ttc == want.dac == 1.0
    assert all(values == {0.0, 1.0} for values in seen.values()), seen
    assert cleared >= 30, cleared
