"""The benchmark's tracer (perfbench/tracer.py) wraps drivegen functions by
the module attribute each caller binds, and counts the candidate funnel from
their return values. Renaming or moving one, or changing what it returns,
breaks the benchmark, whose own tests are not part of this suite, so every
binding is resolved here, and the funnel hooks are run once with every
binding restored afterwards."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from drivegen.control import _tracking_gain, lqr_track
from drivegen.pipeline import run_generation
from drivegen.seeding import mix64
from drivegen.vocab import STATUS_PENDING, enumerate_perturbations, grid_sparsify

from conftest import make_state, straight_trajectory

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(path):
    """The object that holds a tracer binding's function, and its attribute name."""
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"drivegen.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1]


def test_every_tracer_binding_resolves_in_drivegen():
    tracer = _tracer_module()
    assert tracer._BINDINGS
    for path, _, hook in tracer._BINDINGS:
        owner, attr = _binding(path)
        assert callable(getattr(owner, attr, None)), path
        assert hook is None or hasattr(tracer.Tracer, f"_observe_{hook}"), path


def test_gain_table_counts_hits_and_misses_for_the_tracer():
    """The tracer reads `control._tracking_gain.cache_info()` around every
    scenario for its `control.gain_cache.*` metrics: the table counts a
    first solve of a key as a miss and a later lookup of it as a hit."""
    info = _tracking_gain.cache_info()
    assert hasattr(info, "hits") and hasattr(info, "misses")
    _tracking_gain.cache_clear()
    ref = straight_trajectory(v=7.0, n_states=5)
    start = make_state(y=0.4, v=6.5)
    lqr_track(ref, start)
    first = _tracking_gain.cache_info()
    assert first.misses > 0 and first.hits == 0
    lqr_track(ref, start)
    again = _tracking_gain.cache_info()
    assert again.misses == first.misses and again.hits > first.hits


def test_tracer_funnel_counts_equal_the_run(small_corpus, small_vocab, small_config, monkeypatch):
    """Installed over an in-process run of 3 scenarios, the tracer counts
    the vocabulary entries, threshold and grid passes of each scenario's
    enumeration and grid, and the attempted and accepted rows of the run's
    `stats`. Every binding it swaps is restored when the test ends."""
    tracer_module = _tracer_module()
    for path, _, _ in tracer_module._BINDINGS:
        owner, attr = _binding(path)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = tracer_module.Tracer().install()
    corpus = small_corpus[:3]
    _, stats = run_generation(corpus, small_config, vocab=small_vocab)

    want = Counter()
    for s in corpus:
        cands = enumerate_perturbations(s, small_vocab, small_config.perturb)
        want["funnel.vocab_entries"] += len(cands)
        for c in cands:
            want["funnel.threshold_pass" if c.status == STATUS_PENDING else
                 f"threshold.reject.{c.reason}"] += 1
        kept = grid_sparsify(cands, small_config.grid, mix64(small_config.master_seed, s.id))
        want["funnel.grid_keep"] += sum(c.status == STATUS_PENDING for c in kept)
    want["funnel.attempted"] = sum(r.attempted for r in stats)
    want["funnel.accepted"] = sum(r.accepted for r in stats)
    assert want["funnel.accepted"] > 0, want
    assert {k: tracer.counters[k] for k in want} == want
