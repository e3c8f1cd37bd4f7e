"""Seeded mutation fuzzing of the scenario, vocabulary, trajectory and
config boundaries.

Each scenario case changes one or two fields of a scenario file of the
bundled corpus (100 scenarios, seed 2026), one file per seed: a straight
road, an intersection with a traffic light, a lead vehicle and a cut-in. It
deletes a field, swaps its type, sets an edge value (0, -0.0, 1e308,
1e-320), or empties or shortens an array. Vocabulary and trajectory cases
make the same edits to a 16-entry vocabulary file and to a trajectory file
of the lead-vehicle scene's logged plan. Each config case edits one or two
numeric leaves of the default config file: it deletes the leaf, swaps its
type or sets an edge value (those four, 1e9 or 1e-300). A mutated scenario,
vocabulary or config file goes through `drivegen generate` in-process with
a 16-entry vocabulary; a mutated trajectory goes through `drivegen eval` in
each of its three modes. The CLI contract must hold: exit 1 with exactly
one `error:` line, or exit 0 with finite outputs and nothing on stderr (a
`RuntimeWarning` fails the test too). Mutations come from stdlib `random`
at fixed seeds, so a failure names a case that replays.
"""

import copy
import json
import math
import random

import pytest

from drivegen.cli import main
from drivegen.config import PipelineConfig, config_to_dict
from drivegen.reactive import MODES
from drivegen.vocab import default_vocabulary, save_vocabulary

# seed -> bundled scenario it mutates
BASES = {1: "straight-0000", 2: "intersection-0040", 3: "lead-vehicle-0060", 4: "cut-in-0080"}
CASES_PER_SEED = 200
EDGE_VALUES = (0, -0.0, 1e308, 1e-320)
CONFIG_EDGE_VALUES = (*EDGE_VALUES, 1e9, 1e-300)
SWAPPED_TYPES = ("x", None, True, [], {})


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """(bundled scenarios as parsed JSON by id, 16-entry vocabulary path)."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-corpus", "--count", "100", "--seed", "2026", "--out", str(root / "c")]) == 0
    scenarios = {
        name: json.loads((root / "c" / f"{name}.json").read_text()) for name in BASES.values()
    }
    vocab = root / "vocab.json"
    save_vocabulary(default_vocabulary(seed=5, horizon=40, dt=0.1, size=16, source_count=64), vocab)
    return scenarios, vocab


def _pick(rng, data):
    """A random (container, key) on a walk from the root that stops at each
    container with probability 0.3, so map and top-level fields come up as
    often as the many states of the logs."""
    parent, key = None, None
    node = data
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() > 0.3):
        parent = node
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        node = node[key]
    return parent, key


def _mutate(rng, data) -> str:
    """Apply one mutation in place; returns what it did."""
    parent, key = _pick(rng, data)
    if parent is None:
        return "nothing"
    value = parent[key]
    kind = rng.choice(("delete", "swap", "edge", "array"))
    if kind == "array" and isinstance(value, list) and value:
        parent[key] = [] if rng.random() < 0.5 else value[: rng.randrange(len(value))]
        return f"shorten {key!r} to {len(parent[key])}"
    if kind == "delete":
        del parent[key]
        return f"delete {key!r}"
    if kind == "swap":
        parent[key] = copy.copy(rng.choice(SWAPPED_TYPES))
        return f"swap {key!r} to {parent[key]!r}"
    parent[key] = rng.choice(EDGE_VALUES)
    return f"set {key!r} to {parent[key]!r}"


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return True


def _assert_cli_contract(argv, out, capsys, where):
    """`generate` exits 1 with one `error:` line, or exits 0 with nothing on
    stderr and finite numbers in every output file."""
    rc = main([*argv, "--out", str(out), "--rounds", "1"])
    err = capsys.readouterr().err.splitlines()
    if rc == 1:
        assert len(err) == 1 and err[0].startswith("error:"), (where, err)
        return
    assert rc == 0 and not err, (where, rc, err)
    for path in out.iterdir():
        if path.suffix == ".csv":
            continue
        lines = path.read_text().splitlines()
        assert all(_finite(json.loads(line)) for line in lines), (where, path.name)


def _one_scenario_corpus(tmp_path, scenarios):
    """A corpus directory holding the lead-vehicle scene alone."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "s.json").write_text(json.dumps(scenarios[BASES[3]]))
    return corpus


@pytest.mark.parametrize("seed", sorted(BASES))
def test_mutated_scenarios_keep_the_cli_contract(tmp_path, capsys, fuzz_inputs, seed):
    """Every mutated file exits 1 with one `error:` line, or exits 0 with
    finite numbers in every output file."""
    scenarios, vocab = fuzz_inputs
    scenario = scenarios[BASES[seed]]
    rng = random.Random(seed)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for case in range(CASES_PER_SEED):
        data = copy.deepcopy(scenario)
        did = [_mutate(rng, data) for _ in range(rng.choice((1, 2)))]
        (corpus / "s.json").write_text(json.dumps(data))
        argv = ["generate", "--corpus", str(corpus), "--vocab", str(vocab)]
        where = f"seed {seed} case {case}: {'; '.join(did)}"
        _assert_cli_contract(argv, tmp_path / f"ds{case}", capsys, where)


CONFIG_SEEDS = (1, 2)
CONFIG_CASES_PER_SEED = 100


def _numeric_leaves(node, path=()):
    """Paths of the int and float leaves of parsed JSON."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _numeric_leaves(v, (*path, k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _numeric_leaves(v, (*path, i))
    elif type(node) in (int, float):
        yield path


def _mutate_leaf(rng, data, path) -> str:
    """Delete, swap or set the leaf at `path` in place; returns what it did."""
    parent = data
    for k in path[:-1]:
        parent = parent[k]
    kind = rng.choice(("delete", "swap", "edge"))
    if kind == "delete":
        del parent[path[-1]]
        return f"delete {path}"
    parent[path[-1]] = copy.copy(rng.choice(SWAPPED_TYPES if kind == "swap" else CONFIG_EDGE_VALUES))
    return f"set {path} to {parent[path[-1]]!r}"


@pytest.mark.parametrize("seed", CONFIG_SEEDS)
def test_mutated_configs_keep_the_cli_contract(tmp_path, capsys, fuzz_inputs, seed):
    """Every config file with one or two numeric leaves edited exits 1 with
    one `error:` line, or exits 0 with finite outputs and no warning; the
    corpus is one scenario with a lead vehicle, so time to collision is
    swept."""
    scenarios, vocab = fuzz_inputs
    corpus = _one_scenario_corpus(tmp_path, scenarios)
    base = config_to_dict(PipelineConfig())
    rng = random.Random(seed)
    for case in range(CONFIG_CASES_PER_SEED):
        data = copy.deepcopy(base)
        paths = rng.sample(list(_numeric_leaves(base)), rng.choice((1, 2)))
        # the later path first, so deleting a list element shifts no other edit
        did = [_mutate_leaf(rng, data, path) for path in sorted(paths, reverse=True)]
        config = tmp_path / f"config{case}.json"
        config.write_text(json.dumps(data))
        argv = ["generate", "--corpus", str(corpus), "--vocab", str(vocab), "--config", str(config)]
        where = f"seed {seed} case {case}: {'; '.join(did)}"
        _assert_cli_contract(argv, tmp_path / f"ds{case}", capsys, where)


FILE_SEEDS = (1, 2)
FILE_CASES_PER_SEED = 100


@pytest.mark.parametrize("seed", FILE_SEEDS)
def test_mutated_vocabularies_keep_the_cli_contract(tmp_path, capsys, fuzz_inputs, seed):
    """Every vocabulary file with one or two fields mutated exits 1 with one
    `error:` line, or exits 0 with finite numbers in every output file."""
    scenarios, vocab = fuzz_inputs
    corpus = _one_scenario_corpus(tmp_path, scenarios)
    base = json.loads(vocab.read_text())
    rng = random.Random(seed)
    for case in range(FILE_CASES_PER_SEED):
        data = copy.deepcopy(base)
        did = [_mutate(rng, data) for _ in range(rng.choice((1, 2)))]
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(data))
        argv = ["generate", "--corpus", str(corpus), "--vocab", str(path)]
        where = f"seed {seed} case {case}: {'; '.join(did)}"
        _assert_cli_contract(argv, tmp_path / f"ds{case}", capsys, where)


@pytest.mark.parametrize("seed", FILE_SEEDS)
def test_mutated_trajectories_keep_the_cli_contract(tmp_path, capsys, fuzz_inputs, seed):
    """Every trajectory file with one or two fields mutated makes `eval`, in
    each mode, exit 1 with one `error:` line, or exit 0 with a finite report
    and nothing on stderr."""
    scenarios, _ = fuzz_inputs
    scenario = scenarios[BASES[3]]
    scenario_path = _one_scenario_corpus(tmp_path, scenarios) / "s.json"
    anchor = scenario["t_history"] - 1
    base = {
        "dt": scenario["dt"], "frame": "global",
        "states": scenario["ego_log"][anchor : anchor + scenario["t_horizon"] + 1],
    }
    rng = random.Random(seed)
    for case in range(FILE_CASES_PER_SEED):
        data = copy.deepcopy(base)
        did = [_mutate(rng, data) for _ in range(rng.choice((1, 2)))]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        for mode in MODES:
            rc = main([
                "eval", "--scenario", str(scenario_path), "--trajectory", str(path),
                "--mode", mode,
            ])
            out, err = capsys.readouterr()
            where = (f"seed {seed} case {case} {mode}: {'; '.join(did)}", err)
            if rc == 1:
                assert err.startswith("error:") and err.count("\n") == 1, where
            else:
                assert rc == 0 and not err and _finite(json.loads(out)), where


def _set_on_states(value, key, states):
    def breaks(data):
        for entry in data:
            for state in states(entry["states"]):
                state[key] = value
    return breaks


@pytest.mark.parametrize(
    "breaks, message",
    [
        (_set_on_states(1e300, "x", lambda s: s[5:6]),
         "vocabulary[0].states[5].x: magnitude above 1e+09: 1e+300"),
        (_set_on_states(1e308, "v_lon", lambda s: s[-1:]),
         "vocabulary[0].states[40].v_lon: magnitude above 1e+09: 1e+308"),
    ],
    ids=["x-1e300", "last-v_lon-1e308"],
)
def test_a_huge_vocabulary_number_is_refused_as_in_any_file(
    tmp_path, capsys, fuzz_inputs, breaks, message
):
    """A vocabulary number beyond 1e9 is refused, as it is in a scenario or
    trajectory file, whether or not the entry also holds a JSON integer,
    and before any rollout could overflow on it."""
    scenarios, vocab = fuzz_inputs
    corpus = _one_scenario_corpus(tmp_path, scenarios)
    for integer in (False, True):
        data = json.loads(vocab.read_text())
        breaks(data)
        if integer:
            data[0]["states"][0]["y"] = 0
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(data))
        argv = ["generate", "--corpus", str(corpus), "--vocab", str(path), "--out", str(tmp_path / "ds")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "ds").exists()
