"""The screen and stage 2 against their scalar oracles.

The screen's oracle judges one vocabulary row at a time
(`oracle.oracle_feasibility_filter`: `oracle_rollout`, a frame-by-frame
any-contact search and `compute_submetrics` per row). Each stage-2 row is
checked against `oracle_rollout` of its plan from the same perturbed ego and
agent states, scored by `oracle_submetrics` on its window. Every float is
compared through `float.hex`, so -0.0 and 0.0 differ. Each corpus is
screened once per session and per `reactive` setting (`screened`), through
`pipeline.prepare_candidates`, with the verdict of each of its checks.
"""

from collections import Counter
from dataclasses import replace

import pytest

import drivegen.pipeline
import numpy as np

from drivegen.expert import privileged_plan, privileged_plans, recovery_retrieve
from drivegen.pipeline import expert_stage, prepare_candidates
from drivegen.scenario import Trajectory
from drivegen.seeding import mix64
from drivegen.vocab import STATUS_PENDING, enumerate_perturbations, grid_sparsify

from conftest import plan_bits, scene_bits, start_frames, sub_bits, winning_plans
from oracle import (
    SceneStates, oracle_feasibility_filter, oracle_matching_vector, oracle_place_at_state,
    oracle_rollout, oracle_submetrics,
)


def _grid_survivors(scenario, vocab, config):
    cands = grid_sparsify(
        enumerate_perturbations(scenario, vocab, config.perturb),
        config.grid, mix64(config.master_seed, scenario.id),
    )
    return [c for c in cands if c.status == STATUS_PENDING]


@pytest.fixture(scope="session")
def screened(request, small_vocab, small_config):
    """`screened(reactive, corpus)`: for each scenario of the named corpus
    fixture, (scenario, grid survivors, the `screen_verdicts` result of each
    check, the `prepare_candidates` result)."""
    cache = {}
    real = drivegen.pipeline.screen_verdicts

    def get(reactive, corpus="corpus_100"):
        if (reactive, corpus) not in cache:
            config = replace(small_config, reactive=reactive)
            rows = []
            with pytest.MonkeyPatch.context() as mp:
                for s in request.getfixturevalue(corpus):
                    checks = []

                    def recorded(*args, _checks=checks):
                        _checks.append(real(*args))
                        return _checks[-1]

                    mp.setattr(drivegen.pipeline, "screen_verdicts", recorded)
                    rows.append((
                        s, _grid_survivors(s, small_vocab, config), checks,
                        prepare_candidates(s, small_vocab, config),
                    ))
            cache[reactive, corpus] = rows
        return cache[reactive, corpus]

    return get


def _check_screen(screened, config, vocab):
    """Assert that each scenario's grid survivors, judged in one
    non-reactive and (in reactive runs) one reactive check, get the reason
    and sub-metrics of the one-row-at-a-time screen (NaN where it rejects
    before scoring), and that the rows that clear come out in index order
    with the oracle's window and sub-metrics; returns the count of each
    (check, reason)."""
    ctx, epdms_min = config.sim_context, config.perturb.epdms_min
    outcomes = Counter()
    for s, survivors, checks, (index, scene, sub) in screened:
        assert len(checks) == 1 + config.reactive, s.id
        cleared = [(c, None, None) for c in survivors]
        for mode, (reasons, got) in zip(("nonreactive", "reactive"), checks):
            taken, cleared = cleared, []
            for (c, _, _), reason, row in zip(taken, reasons.tolist(), got, strict=True):
                entry = vocab.tracks.data[:, c.vocab_index]
                want, states, want_sub = oracle_feasibility_filter(entry, s, mode, epdms_min, ctx)
                assert reason == want, (s.id, c.vocab_index, mode)
                if want_sub is None:
                    assert np.isnan(row).all(), (s.id, c.vocab_index, mode)
                else:
                    assert sub_bits(row) == sub_bits(want_sub), (s.id, c.vocab_index, mode)
                if not reason:
                    cleared.append((c, states, want_sub))
                outcomes[mode, reason] += 1
        assert index.tolist() == [c.vocab_index for c, _, _ in cleared], s.id
        for j, (c, states, want_sub) in enumerate(cleared):
            assert scene_bits(scene.take([j])) == scene_bits(states), (s.id, c.vocab_index)
            assert sub_bits(sub[j]) == sub_bits(want_sub), (s.id, c.vocab_index)
    return outcomes


@pytest.mark.parametrize("reactive", [True, False], ids=["reactive", "non-reactive"])
def test_batched_screen_matches_the_scalar_oracle(small_config, small_vocab, screened, reactive):
    """The screen of every corpus scenario equals the scalar screen
    (`_check_screen`), and the corpus reaches every outcome of the
    non-reactive check."""
    config = replace(small_config, reactive=reactive)
    outcomes = _check_screen(screened(reactive), config, small_vocab)
    assert outcomes["reactive" if reactive else "nonreactive", ""] >= 100, outcomes
    for reason in ("collision", "off-road", "reward"):
        assert outcomes["nonreactive", reason] > 0, outcomes


@pytest.mark.parametrize("reactive", [True, False], ids=["reactive", "non-reactive"])
def test_batched_screen_matches_the_scalar_oracle_with_several_agents(
    small_config, small_vocab, screened, reactive
):
    """The same on scenes with a slower lead, a follower, a parked car and a
    close neighbour: rows collide, and some clear every agent."""
    config = replace(small_config, reactive=reactive)
    outcomes = _check_screen(screened(reactive, "multi_agent_corpus"), config, small_vocab)
    assert outcomes["reactive" if reactive else "nonreactive", ""] >= 10, outcomes
    for reason in ("collision", "off-road", "reward"):
        assert outcomes["nonreactive", reason] > 0, outcomes


def _plan_starts(scene):
    """The planner's start of each row of a stage-1 scene: its perturbed ego and agent states."""
    rows = [SceneStates.of(scene, j) for j in range(scene.ego.data.shape[1])]
    return [(r.ego[-1], {aid: track[-1] for aid, track in r.agents.items()}) for r in rows]


@pytest.mark.parametrize(
    "expert,reactive",
    [("recovery", True), ("planner", False), ("planner", True)],
    ids=["recovery-reactive", "planner-non-reactive", "planner-reactive-winner-row"],
)
def test_stage2_rows_match_the_scalar_rollout(
    small_vocab, small_config, screened, monkeypatch, expert, reactive
):
    """Every row of a scenario's stage-2 call equals `oracle_rollout` of its
    plan from the same perturbed ego and agent states, scored by
    `oracle_submetrics`. In reactive planner runs the row is the planner's
    winning proposal, kept from its batched scoring."""
    config = replace(small_config, expert_kind=expert, reactive=reactive)
    ctx = config.sim_context
    mode = "reactive" if reactive else "nonreactive"
    plans = []  # the planner's references, one per planned sample, in call order
    real_plans = drivegen.pipeline.privileged_plans

    def recorded(*args, **kwargs):
        chosen = real_plans(*args, **kwargs)
        refs, dt = chosen[0], args[0].dt
        plans.extend(refs.trajectory(j, dt) for j in range(refs.x.shape[0]))
        return chosen

    monkeypatch.setattr(drivegen.pipeline, "privileged_plans", recorded)
    # the planner plans every row: three per scenario keep the test short
    stage1_rows = slice(None if expert == "recovery" else 3)
    rows = 0
    for s, _, _, (index, scene, _) in screened(reactive):
        stage1 = scene.take(stage1_rows)
        plans.clear()
        scene2, sub2 = expert_stage(s, stage1, config, small_vocab)
        anchor2 = s.anchor_frame + s.t_horizon
        starts = _plan_starts(stage1)
        assert scene2.ego.data.shape[1] == sub2.shape[0] == len(starts)
        for j, (perturbed, finals) in enumerate(starts):
            if expert == "recovery":
                logged_end = s.ego_log[anchor2 + s.t_horizon]
                target = oracle_matching_vector(Trajectory(s.dt, (perturbed, logged_end)))
                entry = small_vocab.entries[recovery_retrieve(np.array(target), small_vocab)]
                plan = oracle_place_at_state(entry, perturbed)
            else:
                plan = plans[j]
            want = oracle_rollout(s, plan, anchor2, s.t_horizon, mode, ctx,
                                  ego_start=perturbed, agent_init=finals)
            want_sub = oracle_submetrics(want, s, Trajectory(dt=s.dt, states=want.ego), ctx)
            assert scene_bits(scene2.take([j])) == scene_bits(want), (s.id, index[j])
            assert sub_bits(sub2[j]) == sub_bits(want_sub), (s.id, index[j])
            rows += 1
    assert rows >= 150


def _row_bits(index, scene, sub):
    """{vocabulary index: (window, sub-metrics)} of a screen's or stage 2's rows, as hex."""
    return {
        i: (scene_bits(scene.take([j])), sub_bits(sub[j])) for j, i in enumerate(index)
    }


def test_rows_do_not_depend_on_the_candidates_sharing_their_call(
    small_vocab, small_config, screened, monkeypatch
):
    """Screening and stage 2 of a subset of a scenario's grid survivors, in
    reverse order, or of one survivor alone, give each row the result it
    gets in the full call: the screen takes the survivors in the order the
    grid hands them over."""
    config = small_config
    handed = []
    monkeypatch.setattr(drivegen.pipeline, "grid_sparsify", lambda *args: handed)
    compared = 0
    for s, survivors, _, (index, scene, sub) in screened(config.reactive):
        full = _row_bits(index.tolist(), scene, sub)
        for subset in (survivors[1::2][::-1], survivors[:1], survivors[1:2]):
            handed[:] = subset
            part = prepare_candidates(s, small_vocab, config)
            want = [c.vocab_index for c in subset if c.vocab_index in full]
            assert part[0].tolist() == want, s.id
            assert _row_bits(want, *part[1:]) == {i: full[i] for i in want}, s.id
            compared += len(subset)

        rows = list(range(len(index)))
        subset = rows[1::2][::-1]
        full2 = _row_bits(rows, *expert_stage(s, scene, config, small_vocab))
        part2 = _row_bits(subset, *expert_stage(s, scene.take(subset), config, small_vocab))
        assert part2 == {j: full2[j] for j in subset}, s.id
        compared += len(subset)
    assert compared >= 500


def test_planned_samples_do_not_depend_on_the_samples_sharing_their_call(
    small_config, screened
):
    """Each sample's plan from one batched planner call equals
    `privileged_plan` from that sample alone, bit for bit (reference,
    simulated window and sub-metrics): for a scenario's first four cleared
    rows in order, for every other one of them in reverse, and for one
    alone."""
    config = replace(small_config, expert_kind="planner")
    ctx = config.sim_context
    planned = agentless = 0
    for s, _, _, (_, scene, _) in screened(config.reactive):
        starts = _plan_starts(scene.take(slice(4)))
        if not starts:
            continue
        t = s.anchor_frame + s.t_horizon
        alone = [
            plan_bits(privileged_plan(s, t, config.planner, ego, init, ctx)) for ego, init in starts
        ]
        for rows in (range(len(starts)), range(len(starts))[1::2][::-1], [len(starts) - 1]):
            frames = start_frames([starts[i] for i in rows])
            got = winning_plans(privileged_plans(s, t, *frames, config.planner, ctx), s.dt)
            assert [plan_bits(p) for p in got] == [alone[i] for i in rows], s.id
        planned += len(starts)
        agentless += not s.agents
    assert planned >= 300 and agentless, (planned, agentless)
