import json
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from drivegen import vocab as vocab_module
from drivegen.errors import SchemaError, ValidationError
from drivegen.geometry import wrap_angle
from drivegen.reactive import StateBatch
from drivegen.scenario import AgentTrack, Pose2D, Scenario, Trajectory
from drivegen.seeding import mix64
from drivegen.synth import corpus_config_for_count, generate_synthetic_corpus
from drivegen.vocab import (
    STATUS_GRID_DROPPED,
    STATUS_PENDING,
    STATUS_THRESHOLD_REJECTED,
    GridSpec,
    PerturbThresholds,
    PerturbationCandidate,
    Vocabulary,
    build_vocabulary,
    enumerate_perturbations,
    feasibility_filter,
    grid_sparsify,
    load_vocabulary,
    place_tracks,
    save_vocabulary,
    synthesize_maneuvers,
)

from conftest import make_state, plan_entry, straight_trajectory, sub_bits
from oracle import (
    oracle_build_vocabulary,
    oracle_cell,
    oracle_feasibility_filter,
    oracle_flatten,
    oracle_lloyd_pass,
    oracle_place_at_state,
    oracle_synthesize_maneuvers,
    oracle_threshold_and_grid,
)


# --- clustering


def _shifted_trajectory(base_y, v=10.0, n=11):
    states = tuple(make_state(x=v * 0.1 * k, y=base_y, v=v) for k in range(n))
    return Trajectory(dt=0.1, states=states, frame="ego-local-at-start")


def test_build_vocabulary_degenerate_k_equals_n():
    samples = [_shifted_trajectory(y) for y in (0.0, 5.0, 10.0, 20.0)]
    vocab = build_vocabulary(samples, k=len(samples), seed=0)
    assert vocab.size == 4
    assert sorted(e.states[0].pose.y for e in vocab.entries) == [0.0, 5.0, 10.0, 20.0]


def test_build_vocabulary_two_separated_groups():
    group_a = [_shifted_trajectory(y) for y in (0.0, 0.2, 0.4)]
    group_b = [_shifted_trajectory(y) for y in (100.0, 100.2, 100.4)]
    vocab = build_vocabulary(group_a + group_b, k=2, seed=1)

    # oracle: brute-force nearest-center check on the authored groups
    ys = sorted(e.states[0].pose.y for e in vocab.entries)
    assert ys[0] < 1.0 and ys[1] > 99.0
    for sample in group_a + group_b:
        d = [
            sum(
                (a.pose.x - b.pose.x) ** 2 + (a.pose.y - b.pose.y) ** 2
                for a, b in zip(sample.states, e.states)
            )
            for e in vocab.entries
        ]
        nearest = vocab.entries[d.index(min(d))]
        same_group = (sample.states[0].pose.y < 1.0) == (nearest.states[0].pose.y < 1.0)
        assert same_group


def test_build_vocabulary_deterministic():
    samples = synthesize_maneuvers(64, horizon=10, dt=0.1, seed=5)
    a = build_vocabulary(samples, k=8, seed=9)
    b = build_vocabulary(samples, k=8, seed=9)
    assert (a.dt, a.tracks.data.tobytes()) == (b.dt, b.tracks.data.tobytes())
    assert list(a.entries) == list(b.entries)


def test_build_vocabulary_errors():
    with pytest.raises(ValidationError):
        build_vocabulary([], k=1, seed=0)
    samples = [_shifted_trajectory(0.0)]
    with pytest.raises(ValidationError):
        build_vocabulary(samples, k=0, seed=0)
    with pytest.raises(ValidationError):
        build_vocabulary(samples, k=2, seed=0)


def test_synthesize_maneuvers_realizable():
    entries = synthesize_maneuvers(32, horizon=40, dt=0.1, seed=2)
    assert len(entries) == 32
    for e in entries:
        assert len(e) == 41
        assert e.states[0].pose.x == 0.0 and e.states[0].pose.y == 0.0
        for k in range(len(e) - 1):
            a, b = e.states[k], e.states[k + 1]
            d = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
            assert abs(d / e.dt - a.vel_lon) <= 0.05


@pytest.mark.parametrize(
    "count, k, seed, block_rows",
    [(2048, 256, 3, 300), (512, 64, 0, 100), (512, 64, 5, 64), (512, 64, 11, 4096)],
    ids=["2048-256-3", "512-64-0", "512-64-5", "512-64-11"],
)
def test_vocabulary_build_matches_scalar_oracle(count, k, seed, block_rows, monkeypatch):
    """The batched bicycle, the array flatten, the blocked k-means and the
    pruned snap reproduce the one-maneuver-at-a-time, full-matrix build bit
    for bit, and the k chosen rows are taken from the bank without building
    a trajectory. The row blocks are near-equal (2048 rows in 7 blocks of
    292-293, 512 in 6 of 85-86 or 8 of 64) or one block of all rows."""
    monkeypatch.setattr(vocab_module, "_BLOCK_ROWS", block_rows)
    bank = synthesize_maneuvers(count, horizon=40, dt=0.1, seed=seed)
    scalar = oracle_synthesize_maneuvers(count, 40, 0.1, seed)
    assert bank.tracks.data.tobytes() == StateBatch.tracks([t.states for t in scalar]).data.tobytes()

    X = vocab_module._flatten(bank.tracks)
    assert X.tobytes() == np.stack([oracle_flatten(t) for t in scalar]).tobytes()

    nearest, centers, _ = oracle_build_vocabulary(scalar, k, seed)
    batched_centers = vocab_module._lloyd(X, k, seed)
    assert batched_centers.tobytes() == centers.tobytes()
    assert vocab_module._snap(X, batched_centers) == nearest

    reads = []
    row = Vocabulary.__getitem__
    monkeypatch.setattr(Vocabulary, "__getitem__", lambda self, i: reads.append(i) or row(self, i))
    vocab = build_vocabulary(bank, k, seed)
    assert reads == []
    assert vocab.tracks.data.tobytes() == bank.tracks.data[:, nearest].tobytes()
    assert list(vocab.entries) == [scalar[i] for i in nearest]


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_empty_cluster_revive_matches_oracle(seed, monkeypatch):
    """Six maneuvers twice over plus six others, clustered into 16: duplicate
    centers leave clusters empty. Each revive takes the farthest row under
    the assignment as it stands; the row leaves a later cluster, while an
    earlier cluster's mean keeps it. The 18 rows run in blocks of 4-5, of 6
    or in one block; with several blocks, the farthest row's distance comes
    from a block that is not the first."""
    samples = list(synthesize_maneuvers(6, horizon=10, dt=0.1, seed=seed)) * 2
    samples += synthesize_maneuvers(6, horizon=10, dt=0.1, seed=seed + 100)
    nearest, centers, revives = oracle_build_vocabulary(samples, 16, seed)
    assert revives > 0

    revived = []
    update = vocab_module._update_centers

    def spy(X, assign, dist, centers):
        before = assign.copy()
        update(X, assign, dist, centers)
        revived.extend(np.flatnonzero(assign != before).tolist())

    monkeypatch.setattr(vocab_module, "_update_centers", spy)
    X = vocab_module._flatten(StateBatch.tracks([t.states for t in samples]))
    for block_rows in (5, 8, 64):
        monkeypatch.setattr(vocab_module, "_BLOCK_ROWS", block_rows)
        revived.clear()
        batched_centers = vocab_module._lloyd(X, 16, seed)
        assert batched_centers.tobytes() == centers.tobytes()
        assert vocab_module._snap(X, batched_centers) == nearest
        blocks = vocab_module._row_blocks(len(X))
        assert len(blocks) == 1 or max(revived) >= blocks[0][1]


def test_kmeans_never_holds_the_distance_matrix():
    """Lloyd and the snap at N = 4096, k = 512 peak well under one (N, k)
    float64 distance matrix (16 MiB): the distances live in one block-sized
    buffer."""
    X = vocab_module._flatten(synthesize_maneuvers(4096, horizon=40, dt=0.1, seed=1).tracks)
    matrix_bytes = 4096 * 512 * 8
    runs = (lambda: vocab_module._lloyd(X, 512, 1), lambda: vocab_module._snap(X, X[:512] + 0.01))
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix_bytes / 4


@pytest.mark.parametrize("count, k", [(4096, 16), (4096, 64), (1024, 1024), (200, 16)],
                         ids=["k16", "k64", "k1024", "one-block"])
def test_same_shape_products_agree_on_the_same_rows(count, k):
    """The rule the k-means relies on: a product with a block's row count,
    gathered from any rows in any order, duplicates included, gives each row
    the bits its own block gives it. The 256-row blocks at k = 16, and the
    one 200-row block, take OpenBLAS's small-matrix kernel."""
    X = vocab_module._flatten(synthesize_maneuvers(count, horizon=40, dt=0.1, seed=k).tracks)
    rng = np.random.default_rng(k)
    centers = X[rng.choice(count, size=k, replace=False)] + 0.01
    xx, cc = vocab_module._sq_norms(X), vocab_module._sq_norms(centers)
    reference = np.empty((count, k))
    for r0, r1, d2 in vocab_module._distance_blocks(X, xx, centers):
        reference[r0:r1] = d2
    sizes = {r1 - r0 for r0, r1 in vocab_module._row_blocks(count)}
    assert len(sizes) == 1
    buf = np.empty((sizes.pop(), k))
    for _ in range(10):
        rows = rng.integers(count, size=len(buf))
        gathered = vocab_module._sq_dist(X[rows], xx[rows], centers, cc, buf)
        assert gathered.tobytes() == reference[rows].tobytes()


# 1-D rows on which a row's center (index 3) stays put in the fourth pass
# while center 1 moves to exactly its distance: the row goes to center 1
_TIE_ROWS = [2.0, 1.0, 0.0, 0.0, 3.0, 4.0, 0.0, 7.0, 5.0, 3.0, 6.0, 10.0]


@pytest.mark.parametrize(
    "count, k, seed, block_rows",
    [(2048, 256, 3, 300), (512, 16, 1, 64), (200, 8, 4, 256), (None, 6, 158, 256)],
    ids=["2048-256-3", "512-16-1", "200-8-4", "tie"],
)
def test_each_lloyd_pass_matches_a_full_pass(count, k, seed, block_rows, monkeypatch):
    """After every pass, each row's center and squared distance equal a
    plain pass's over all rows and centers, and some passes screen against
    the moved centers only. 2048 rows run in blocks of 292 and 293, 512 rows
    in 64-row blocks of OpenBLAS's small-matrix kernel, 200 rows in one
    block. In the tie case a row whose center stayed is exactly as far from
    a moved center of lower index, and takes it as the full pass does."""
    monkeypatch.setattr(vocab_module, "_BLOCK_ROWS", block_rows)
    if count is None:
        X = np.array(_TIE_ROWS)[:, None]
    else:
        X = vocab_module._flatten(synthesize_maneuvers(count, horizon=40, dt=0.1, seed=seed).tracks)
    blocks = vocab_module._row_blocks(len(X))
    run = vocab_module._lloyd_pass
    screened, ties = [], []

    def checked(X, xx, centers, assign, dist, moved, buf):
        before = assign.copy()
        run(X, xx, centers, assign, dist, moved, buf)
        nearest, nearest_d2, d2 = oracle_lloyd_pass(X, centers, blocks)
        assert assign.tolist() == nearest.tolist()
        assert dist.tobytes() == nearest_d2.tobytes()
        if moved is not None and 2 * len(moved) <= len(centers):
            screened.append(len(moved))
            ties.extend(
                r for r in np.flatnonzero(assign < before).tolist()
                if assign[r] in moved and before[r] not in moved
                and d2[r, assign[r]] == d2[r, before[r]]
            )

    monkeypatch.setattr(vocab_module, "_lloyd_pass", checked)
    vocab_module._lloyd(X, k, seed)
    assert screened
    if count is None:
        assert ties == [7]


@pytest.mark.parametrize("seed", [1, 2])
def test_kmeans_scores_under_60_percent_of_the_products(seed, monkeypatch):
    """At N = 4096 and k = 256, the k-means computes under 60% of the
    row-center products that passes x N x k full passes would."""
    X = vocab_module._flatten(synthesize_maneuvers(4096, horizon=40, dt=0.1, seed=seed).tracks)
    sq_dist, run = vocab_module._sq_dist, vocab_module._lloyd_pass
    products, passes = [], []

    def counted_products(X, xx, centers, cc, buf):
        products.append(len(X) * len(centers))
        return sq_dist(X, xx, centers, cc, buf)

    def counted_pass(*args):
        passes.append(1)
        run(*args)

    monkeypatch.setattr(vocab_module, "_sq_dist", counted_products)
    monkeypatch.setattr(vocab_module, "_lloyd_pass", counted_pass)
    vocab_module._lloyd(X, 256, seed)
    assert sum(products) < 0.6 * len(passes) * 4096 * 256


@pytest.mark.parametrize("ys, winner", [((5.0, 1.0, -1.0, -5.0), 1), ((1.0, -1.0), 0), ((-1.0, 1.0), 0)])
def test_snap_tie_goes_to_lowest_index(ys, winner):
    """Rows at exactly equal distance from the one center: the lowest index
    wins, as `np.argmin` over all rows picks it."""
    samples = [_shifted_trajectory(y) for y in ys]
    vocab = build_vocabulary(samples, k=1, seed=0)
    assert vocab.size == 1 and vocab.entries[0] == samples[winner]
    assert oracle_build_vocabulary(samples, 1, 0)[0] == [winner]


def test_vocabulary_uniformity_enforced():
    with pytest.raises(ValidationError):
        Vocabulary.of([_shifted_trajectory(0.0, n=11), _shifted_trajectory(0.0, n=12)])


def test_vocabulary_save_load_roundtrip(tmp_path, small_vocab):
    path = tmp_path / "vocab.json"
    save_vocabulary(small_vocab, path)
    loaded = load_vocabulary(path)
    assert loaded.size == small_vocab.size
    assert loaded.dt == small_vocab.dt
    assert loaded.tracks.data.tobytes() == small_vocab.tracks.data.tobytes()
    assert list(loaded.entries) == list(small_vocab.entries)


@pytest.mark.parametrize(
    "item, named",
    [({"dt": "0.1", "states": []}, "vocabulary[0].dt"),
     ({"dt": 0.1, "states": {}}, "vocabulary[0].states"),
     ([0.1], "vocabulary[0]")],
)
def test_load_vocabulary_names_a_bad_field(tmp_path, item, named):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps([item]))
    with pytest.raises(SchemaError, match=re.escape(named) + ":"):
        load_vocabulary(path)


def test_load_vocabulary_takes_integer_numbers(tmp_path, small_vocab):
    """States written with JSON integers go through the state-by-state parse
    and load as the same floats."""
    path = tmp_path / "vocab.json"
    save_vocabulary(small_vocab, path)
    data = json.loads(path.read_text())
    for key in ("x", "y", "theta"):
        assert data[1]["states"][0][key] == 0.0
        data[1]["states"][0][key] = 0
    path.write_text(json.dumps(data))
    assert load_vocabulary(path).tracks.data.tobytes() == small_vocab.tracks.data.tobytes()


# --- enumeration and thresholds


def test_enumerate_identity_perturbation_zero_offsets(benign_scenario, small_vocab):
    s = benign_scenario
    anchor_state = s.ego_log[s.anchor_frame]
    # vocabulary whose first entry reproduces the logged future exactly
    logged = s.ego_log.segment(s.anchor_frame, s.anchor_frame + s.t_horizon)
    from oracle import angle_diff, global_to_local
    from drivegen.scenario import Pose2D, VehicleState

    local_states = []
    for st in logged.states:
        lx, ly = global_to_local(
            st.pose.x, st.pose.y, anchor_state.pose.x, anchor_state.pose.y, anchor_state.pose.theta
        )
        local_states.append(
            VehicleState(
                pose=Pose2D(lx, ly, angle_diff(st.pose.theta, anchor_state.pose.theta)),
                vel_lon=st.vel_lon, vel_lat=st.vel_lat, accel=st.accel, steering=st.steering,
            )
        )
    identity = Trajectory(dt=s.dt, states=tuple(local_states), frame="ego-local-at-start")
    vocab = Vocabulary.of([identity] + [small_vocab.entries[i] for i in range(3)])

    cands = enumerate_perturbations(s, vocab, PerturbThresholds())
    lon, lat, dtheta = cands[0].offsets
    assert abs(lon) < 1e-9 and abs(lat) < 1e-9 and abs(dtheta) < 1e-9
    assert cands[0].status == STATUS_PENDING


def test_enumerate_heading_rejection(benign_scenario):
    # entry ending 25 degrees off the log heading: rejected with reason "heading"
    s = benign_scenario
    v = s.ego_log[s.anchor_frame].vel_lon
    n = s.t_horizon + 1
    theta_end = math.radians(25.0)
    states = []
    for k in range(n):
        u = k / (n - 1)
        states.append(make_state(x=v * 0.1 * k, y=0.0, theta=theta_end * u, v=v))
    # fix positions so the consistency is irrelevant here; only endpoints matter
    entry = Trajectory(dt=s.dt, states=tuple(states), frame="ego-local-at-start")
    cands = enumerate_perturbations(s, Vocabulary.of([entry]), PerturbThresholds())
    assert cands[0].status == STATUS_THRESHOLD_REJECTED
    assert cands[0].reason == "heading"


def test_enumerate_in_range_offsets_pending(benign_scenario):
    s = benign_scenario
    v = s.ego_log[s.anchor_frame].vel_lon
    n = s.t_horizon + 1
    horizon_s = s.t_horizon * s.dt
    # entry ending (lon +10 m, lat +1.5 m, 5 degrees): inside all ranges
    extra_v = 10.0 / horizon_s
    states = [
        make_state(
            x=(v + extra_v) * s.dt * k,
            y=1.5 * (k / (n - 1)) ** 2,
            theta=math.radians(5.0) * k / (n - 1),
            v=v + extra_v,
        )
        for k in range(n)
    ]
    entry = Trajectory(dt=s.dt, states=tuple(states), frame="ego-local-at-start")
    cands = enumerate_perturbations(s, Vocabulary.of([entry]), PerturbThresholds())
    assert cands[0].status == STATUS_PENDING
    lon, lat, dtheta = cands[0].offsets
    assert lon == pytest.approx(10.0, abs=0.5)
    assert lat == pytest.approx(1.5, abs=0.2)
    assert dtheta == pytest.approx(math.radians(5.0), abs=1e-6)


def test_enumerate_horizon_mismatch(benign_scenario):
    entry = straight_trajectory(10.0, benign_scenario.t_horizon + 5)
    vocab = Vocabulary.of([replace(entry, frame="ego-local-at-start")])
    with pytest.raises(ValidationError):
        enumerate_perturbations(benign_scenario, vocab, PerturbThresholds())


def test_threshold_soundness_property(benign_scenario, small_vocab):
    th = PerturbThresholds()
    cands = enumerate_perturbations(benign_scenario, small_vocab, th)
    for c in cands:
        if c.status == STATUS_PENDING:
            lon, lat, dtheta = c.offsets
            assert abs(lon) <= th.r_lon
            assert abs(lat) <= th.r_lat
            assert abs(dtheta) <= th.dtheta_max


def test_threshold_monotonicity(benign_scenario, small_vocab):
    loose = enumerate_perturbations(benign_scenario, small_vocab, PerturbThresholds())
    tight = enumerate_perturbations(
        benign_scenario, small_vocab,
        PerturbThresholds(r_lon=10.0, r_lat=1.0, dtheta_max=math.radians(10.0)),
    )
    loose_ok = {c.vocab_index for c in loose if c.status == STATUS_PENDING}
    tight_ok = {c.vocab_index for c in tight if c.status == STATUS_PENDING}
    assert tight_ok <= loose_ok


@pytest.fixture(scope="module")
def corpora(corpus_100):
    """The 100-scenario corpus at seeds 2026 and 7."""
    return {2026: corpus_100, 7: generate_synthetic_corpus(corpus_config_for_count(100), seed=7)}


def _hex(values):
    return [float(v).hex() for v in values]


def _turned(s, angle):
    """The scenario with its logged ego turned by `angle` about the origin."""
    c, sn = math.cos(angle), math.sin(angle)
    states = tuple(
        replace(st, pose=Pose2D(c * st.pose.x - sn * st.pose.y, sn * st.pose.x + c * st.pose.y,
                                wrap_angle(st.pose.theta + angle)))
        for st in s.ego_log.states
    )
    return replace(s, ego_log=replace(s.ego_log, states=states))


def test_endpoint_enumeration_matches_placed_oracle(corpora, small_vocab, small_config):
    """The whole-array offsets, threshold statuses and reasons, grid cells
    and kept entries are bit-identical to the one-entry-at-a-time oracle at
    both corpus seeds, also with the log turned to head near +-pi, where
    headings wrap."""
    th, g = small_config.perturb, small_config.grid
    ends = [e.states[-1] for e in small_vocab.entries]
    seen = Counter()
    for corpus in corpora.values():
        for s in list(corpus) + [_turned(s, math.pi - 0.05) for s in corpus[:20]]:
            seed = mix64(small_config.master_seed, s.id)
            got = grid_sparsify(enumerate_perturbations(s, small_vocab, th), g, seed)
            want = oracle_threshold_and_grid(s, ends, th, g, seed)
            assert len(got) == len(want) == small_vocab.size
            for i, (c, (offsets, status, reason, cell)) in enumerate(zip(got, want)):
                assert c.vocab_index == i
                assert _hex(c.offsets) == _hex(offsets), (s.id, i)
                assert (c.status, c.reason, c.endpoint_cell) == (status, reason, cell), (s.id, i)
                seen[c.status, c.reason] += 1
    for outcome in [(STATUS_PENDING, ""), (STATUS_GRID_DROPPED, "grid")] + [
        (STATUS_THRESHOLD_REJECTED, r) for r in ("lon", "lat", "heading")
    ]:
        assert seen[outcome] > 0, seen


def test_placement_matches_the_scalar_oracle(corpora, small_vocab, small_config):
    """Bank rows placed by `place_tracks`, at the anchor as the screen places
    its grid survivors and at per-row starts as stage 2 places retrieved
    rows, equal `oracle_place_at_state` bit for bit."""
    entries = list(small_vocab.entries)
    placed = 0
    for corpus in corpora.values():
        for s in corpus:
            cands = grid_sparsify(
                enumerate_perturbations(s, small_vocab, small_config.perturb),
                small_config.grid, mix64(small_config.master_seed, s.id),
            )
            rows = [c.vocab_index for c in cands if c.status == STATUS_PENDING]
            anchor = s.ego_log[s.anchor_frame]
            # stage-2 starts: logged states after the anchor, every other one
            # turned to a heading round the circle
            starts = []
            for k in range(len(rows)):
                st = s.ego_log[s.anchor_frame + k % (s.t_horizon + 1)]
                if k % 2:
                    st = replace(st, pose=replace(st.pose, theta=(math.pi, -3.0, 2.5, -1.5)[k % 4]))
                starts.append(st)
            for batch, at in ((StateBatch.full(anchor, len(rows)), [anchor] * len(rows)),
                              (StateBatch.frame(starts), starts)):
                got = place_tracks(small_vocab.tracks.data[:, rows], batch).data
                for j, row in enumerate(rows):
                    want = StateBatch.track(oracle_place_at_state(entries[row], at[j]).states)
                    assert got[:, j:j + 1].tobytes() == want.data.tobytes(), (s.id, row)
                    placed += 1
    assert placed > 1000


# --- grid sparsification


def _cand(lon, lat, idx, status=STATUS_PENDING):
    return PerturbationCandidate(offsets=(lon, lat, 0.0), status=status, vocab_index=idx)


def test_grid_empty_input():
    assert grid_sparsify([], GridSpec(), seed=0) == []


def test_grid_hand_binned_example():
    # oracle: floor(lon/5) puts {0,1,2} in cell 0 and {6} in cell 1
    cands = [_cand(lon, 0.0, i) for i, lon in enumerate((0.0, 1.0, 2.0, 6.0))]
    out = grid_sparsify(cands, GridSpec(step_lon=5.0, step_lat=0.5, interleave=False), seed=1)
    kept = [c for c in out if c.status == STATUS_PENDING]
    dropped = [c for c in out if c.status == STATUS_GRID_DROPPED]
    assert len(kept) == 2 and len(dropped) == 2
    cells = {c.endpoint_cell for c in kept}
    assert cells == {(0, 0), (1, 0)}
    assert any(c.vocab_index == 3 for c in kept)  # lone occupant always kept


def test_grid_idempotent_when_one_per_cell():
    cands = [_cand(5.0 * i + 1.0, 0.0, i) for i in range(4)]
    out = grid_sparsify(cands, GridSpec(interleave=False), seed=3)
    assert all(c.status == STATUS_PENDING for c in out)


def test_grid_interleave_shifts_odd_rows():
    g = GridSpec(step_lon=5.0, step_lat=0.5, interleave=True)
    lon = np.array([1.0, 6.0, 6.0, -4.0, -4.0])
    lat = np.array([0.1, 0.1, 0.3, 0.1, 0.3])
    # even lon row: no shift; odd lon rows (1 and -1): lat bins shift by half a step
    assert g.cells(lon, lat) == [(0, 0), (1, -1), (1, 0), (-1, -1), (-1, 0)]
    assert g.cells(lon, lat) == [oracle_cell(g, a, b) for a, b in zip(lon.tolist(), lat.tolist())]


def test_grid_exclusivity_property(benign_scenario, small_vocab):
    cands = enumerate_perturbations(benign_scenario, small_vocab, PerturbThresholds())
    out = grid_sparsify(cands, GridSpec(), seed=11)
    kept_cells = [c.endpoint_cell for c in out if c.status == STATUS_PENDING]
    assert len(kept_cells) == len(set(kept_cells))


def test_grid_choice_deterministic():
    cands = [_cand(1.0 + 0.1 * i, 0.0, i) for i in range(10)]
    a = grid_sparsify(cands, GridSpec(), seed=5)
    b = grid_sparsify(cands, GridSpec(), seed=5)
    assert a == b


# --- feasibility


def _identity_entry(scenario):
    logged = scenario.ego_log.segment(
        scenario.anchor_frame, scenario.anchor_frame + scenario.t_horizon
    )
    return plan_entry(scenario, logged)


def test_feasibility_identity_clears_both_passes(benign_scenario):
    entry = _identity_entry(benign_scenario)
    for mode in ("nonreactive", "reactive"):
        assert feasibility_filter(entry, benign_scenario, mode, 0.8) == "", mode


def test_feasibility_collision_detected(benign_scenario):
    s = benign_scenario
    anchor = s.anchor_frame
    hit_x = s.ego_log[anchor + 20].pose.x
    blocker = AgentTrack(
        id="parked",
        length=4.5,
        width=1.9,
        kind="static",
        states=tuple(make_state(x=hit_x, v=0.0) for _ in range(s.frame_count)),
    )
    s2 = Scenario(
        id="blocked", map=s.map, ego_log=s.ego_log, agents=(blocker,),
        t_history=s.t_history, t_horizon=s.t_horizon,
    )
    assert feasibility_filter(_identity_entry(s2), s2, "nonreactive", 0.8) == "collision"


def test_feasibility_offroad_detected(benign_scenario):
    s = benign_scenario
    anchor = s.anchor_frame
    v = s.ego_log[anchor].vel_lon
    n = s.t_horizon + 1
    start = s.ego_log[anchor]
    # veer steadily off the road: ends ~8 m laterally off a 2 m corridor
    states = []
    theta = math.radians(12.0)
    for k in range(n):
        states.append(
            make_state(
                x=start.pose.x + v * math.cos(theta) * s.dt * k,
                y=start.pose.y + v * math.sin(theta) * s.dt * k,
                theta=theta if k else start.pose.theta,
                v=v,
            )
        )
    entry = plan_entry(s, Trajectory(dt=s.dt, states=tuple(states)))
    assert feasibility_filter(entry, s, "nonreactive", 0.8) == "off-road"


@pytest.mark.parametrize("entry, got", [
    (None, "NoneType"), (np.zeros((7, 3)), r"\(7, 3\)"), (np.zeros(7), r"\(7,\)"),
    (np.zeros((6, 41)), r"\(6, 41\)"), ([[0.0] * 41] * 7, "list"),
])
def test_feasibility_rejects_a_candidate_without_a_full_entry(benign_scenario, entry, got):
    """An entry that is not a (7, >= H + 1) bank row is refused at the
    screen's boundary with a ValidationError that names it, in either mode."""
    H = benign_scenario.t_horizon
    want = rf"entry must be a \(7, >= {H + 1}\) array, got {got}"
    for mode in ("nonreactive", "reactive"):
        with pytest.raises(ValidationError, match=want):
            feasibility_filter(entry, benign_scenario, mode, 0.8)


@pytest.mark.parametrize("mode", ["log-replay-ego", "Reactive", None])
def test_feasibility_rejects_an_unknown_mode(benign_scenario, mode):
    with pytest.raises(ValidationError, match="unknown feasibility mode"):
        feasibility_filter(_identity_entry(benign_scenario), benign_scenario, mode, 0.8)


def test_feasibility_reward_threshold_monotone(benign_scenario, small_vocab):
    cands = enumerate_perturbations(benign_scenario, small_vocab, PerturbThresholds())
    pending = [c.vocab_index for c in cands if c.status == STATUS_PENDING]

    def cleared(epdms_min):
        return {
            i for i in pending if not feasibility_filter(
                small_vocab.tracks.data[:, i], benign_scenario, "nonreactive", epdms_min
            )
        }

    assert cleared(0.9) <= cleared(0.5)


def test_screen_decides_off_road_before_the_other_metrics(
    benign_scenario, multi_agent_corpus, small_vocab, small_config, monkeypatch
):
    """Every bank row of the vocabulary, on an agent-free scene and on a
    crowded one, in both modes: `feasibility_filter`'s reason equals the
    scalar screen's (`oracle_feasibility_filter`), and a row rejected for
    contact or off-road is not scored, so only rows the oracle scores reach
    the sub-metric kernel, with the oracle's sub-metrics."""
    import drivegen.vocab

    scored = []  # the sub-metrics of each of the screen's kernel calls
    original = drivegen.vocab.submetrics_batch

    def recorded(*args, **kwargs):
        scored.append(original(*args, **kwargs))
        return scored[-1]

    monkeypatch.setattr(drivegen.vocab, "submetrics_batch", recorded)
    ctx = small_config.sim_context
    epdms_min = small_config.perturb.epdms_min
    reasons = Counter()
    scenes = (benign_scenario, multi_agent_corpus[0])
    for s in scenes:
        for entry in small_vocab.tracks.data.transpose(1, 0, 2):
            for mode in ("nonreactive", "reactive"):
                scored.clear()
                want, _, sub = oracle_feasibility_filter(entry, s, mode, epdms_min, ctx)
                reason = feasibility_filter(entry, s, mode, epdms_min, ctx)
                assert reason == want, (s.id, mode)
                rows = [sub_bits(row) for call in scored for row in call]
                assert rows == ([] if sub is None else [sub_bits(sub)]), (s.id, mode)
                reasons[s.id, reason] += 1
    for s in scenes:
        assert reasons[s.id, "off-road"] and reasons[s.id, ""] and reasons[s.id, "reward"], reasons
    assert reasons[multi_agent_corpus[0].id, "collision"], reasons
