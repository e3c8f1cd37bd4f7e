"""Seeded mutation fuzzing of the scenario boundary.

Each case changes one or two fields of a scenario file of the bundled corpus
(100 scenarios, seed 2026), one file per seed: a straight road, an
intersection with a traffic light, a lead vehicle and a cut-in. It deletes a
field, swaps its type, sets an edge value (0, -0.0, 1e308, 1e-320), or
empties or shortens an array. The mutated file goes through
`drivegen generate` in-process with a 16-entry vocabulary. The CLI contract
must hold: exit 1 with exactly one `error:` line, or exit 0 with finite
outputs. Mutations come from stdlib `random` at fixed seeds, so a failure
names a case that replays.
"""

import copy
import json
import math
import random

import pytest

from drivegen.cli import main
from drivegen.vocab import default_vocabulary, save_vocabulary

# seed -> bundled scenario it mutates
BASES = {1: "straight-0000", 2: "intersection-0040", 3: "lead-vehicle-0060", 4: "cut-in-0080"}
CASES_PER_SEED = 200
EDGE_VALUES = (0, -0.0, 1e308, 1e-320)
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
        out = tmp_path / f"ds{case}"
        where = f"seed {seed} case {case}: {'; '.join(did)}"
        rc = main([
            "generate", "--corpus", str(corpus), "--out", str(out), "--vocab", str(vocab),
            "--rounds", "1",
        ])
        err = capsys.readouterr().err.splitlines()
        if rc == 1:
            assert len(err) == 1 and err[0].startswith("error:"), (where, err)
            continue
        assert rc == 0 and not err, (where, rc, err)
        for path in out.iterdir():
            if path.suffix == ".csv":
                continue
            lines = path.read_text().splitlines()
            assert all(_finite(json.loads(line)) for line in lines), (where, path.name)
