"""The batched screen and stage 2 against their scalar oracles.

The screen's oracle checks one candidate at a time
(`oracle.oracle_feasibility_filter`: `oracle_rollout`, a frame-by-frame
any-contact search and `compute_submetrics` per candidate). Each stage-2 row
is checked against `oracle_rollout` of its plan from the same perturbed ego
and agent states, scored by `oracle_submetrics` on its window. Every float
is compared through `float.hex`, so -0.0 and 0.0 differ. The corpus is
screened once per session and per `reactive` setting (`screened`).
"""

from collections import Counter
from dataclasses import replace

import pytest

import drivegen.pipeline
import numpy as np

from drivegen.expert import privileged_plan, privileged_plans, recovery_retrieve
from drivegen.pipeline import cleared_status, expert_stage, screen_batch
from drivegen.scenario import Trajectory
from drivegen.seeding import mix64
from drivegen.vocab import STATUS_PENDING, enumerate_perturbations, grid_sparsify

from conftest import plan_bits, scene_bits, start_frames, sub_bits, winning_plans
from oracle import (
    SceneStates, oracle_feasibility_filter, oracle_matching_vector, oracle_place_at_state,
    oracle_rollout, oracle_submetrics,
)


def _cand_bits(c):
    return (c.status, c.reason, scene_bits(c.screen_states), sub_bits(c.screen_submetrics))


def _grid_survivors(scenario, vocab, config):
    cands = grid_sparsify(
        enumerate_perturbations(scenario, vocab, config.perturb),
        config.grid, mix64(config.master_seed, scenario.id),
    )
    return [c for c in cands if c.status == STATUS_PENDING]


@pytest.fixture(scope="session")
def screened(corpus_100, small_vocab, small_config):
    """`screened(reactive)`: (scenario, grid survivors, their screened
    candidates) for each scenario of the corpus, each of the scenario's
    screens being one `screen_batch` call of all its grid survivors."""
    cache = {}

    def get(reactive):
        if reactive not in cache:
            config = replace(small_config, reactive=reactive)
            cache[reactive] = [
                (s, survivors, screen_batch(survivors, s, config))
                for s in corpus_100
                for survivors in [_grid_survivors(s, small_vocab, config)]
            ]
        return cache[reactive]

    return get


@pytest.mark.parametrize("reactive", [True, False], ids=["reactive", "non-reactive"])
def test_batched_screen_matches_the_scalar_oracle(small_config, screened, reactive):
    """Each scenario's grid survivors, screened in one non-reactive and (in
    reactive runs) one reactive batched call, get the status, reason, screen
    states and screen sub-metrics of the one-at-a-time screen."""
    config = replace(small_config, reactive=reactive)
    ctx, epdms_min = config.sim_context, config.perturb.epdms_min
    outcomes = Counter()
    for s, survivors, checked in screened(reactive):
        for cand, got in zip(survivors, checked, strict=True):
            want = oracle_feasibility_filter(cand, s, "nonreactive", epdms_min, ctx)
            if reactive and want.status == "cleared-nonreactive":
                want = oracle_feasibility_filter(want, s, "reactive", epdms_min, ctx)
            assert _cand_bits(got) == _cand_bits(want), (s.id, cand.vocab_index)
            outcomes[got.status, got.reason] += 1
    # the corpus reaches every outcome of the non-reactive check
    cleared = "cleared-reactive" if reactive else "cleared-nonreactive"
    assert outcomes[cleared, ""] >= 100, outcomes
    for reason in ("collision", "off-road", "reward"):
        assert outcomes["infeasible-nonreactive", reason] > 0, outcomes


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
    # the planner plans every candidate: three per scenario keep the test short
    per_scenario = None if expert == "recovery" else 3
    rows = 0
    for s, _, checked in screened(reactive):
        cands = [c for c in checked if c.status == cleared_status(config)][:per_scenario]
        plans.clear()
        got = expert_stage(s, cands, config, small_vocab)
        anchor2 = s.anchor_frame + s.t_horizon
        for i, (cand, (states2, sub2)) in enumerate(zip(cands, got, strict=True)):
            (perturbed, finals), = _plan_starts([cand])
            if expert == "recovery":
                logged_end = s.ego_log[anchor2 + s.t_horizon]
                target = oracle_matching_vector(Trajectory(s.dt, (perturbed, logged_end)))
                entry = small_vocab.entries[recovery_retrieve(np.array(target), small_vocab)]
                plan = oracle_place_at_state(entry, perturbed)
            else:
                plan = plans[i]
            want = oracle_rollout(s, plan, anchor2, s.t_horizon, mode, ctx,
                                  ego_start=perturbed, agent_init=finals)
            want_sub = oracle_submetrics(want, s, Trajectory(dt=s.dt, states=want.ego), ctx)
            assert scene_bits(states2) == scene_bits(want), (s.id, cand.vocab_index)
            assert sub_bits(sub2) == sub_bits(want_sub), (s.id, cand.vocab_index)
            rows += 1
    assert rows >= 150


def test_rows_do_not_depend_on_the_candidates_sharing_their_call(
    small_vocab, small_config, screened
):
    """Screening and stage 2 of a subset of a scenario's candidates, in
    reverse order, or of one candidate alone, give each candidate the result
    it gets in the full call."""
    config = small_config
    compared = 0
    for s, survivors, full in screened(config.reactive):
        part = screen_batch(survivors[1::2][::-1], s, config)
        assert [_cand_bits(c) for c in part] == [_cand_bits(c) for c in full[1::2][::-1]], s.id
        for cand, got in zip(survivors[:2], full):
            assert _cand_bits(screen_batch([cand], s, config)[0]) == _cand_bits(got), s.id

        cleared = [c for c in full if c.status == cleared_status(config)]
        full2 = expert_stage(s, cleared, config, small_vocab)
        part2 = expert_stage(s, cleared[1::2][::-1], config, small_vocab)
        assert [(scene_bits(a), sub_bits(b)) for a, b in part2] == [
            (scene_bits(a), sub_bits(b)) for a, b in full2[1::2][::-1]
        ], s.id
        compared += len(part) + len(part2)
    assert compared >= 500


def _plan_starts(cands):
    """The planner's start of each screened candidate: its perturbed ego and agent states."""
    rows = [SceneStates.of(c.screen_states) for c in cands]
    return [(r.ego[-1], {aid: track[-1] for aid, track in r.agents.items()}) for r in rows]


def test_planned_samples_do_not_depend_on_the_samples_sharing_their_call(
    small_config, screened
):
    """Each sample's plan from one batched planner call equals
    `privileged_plan` from that sample alone, bit for bit (reference,
    simulated window and sub-metrics): for a scenario's first four cleared
    candidates in order, for every other one of them in reverse, and for one
    alone."""
    config = replace(small_config, expert_kind="planner")
    ctx = config.sim_context
    planned = agentless = 0
    for s, _, checked in screened(config.reactive):
        starts = _plan_starts([c for c in checked if c.status == cleared_status(config)][:4])
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
