"""The benchmark's tracer (perfbench/tracer.py) wraps drivegen functions by
the module attribute each caller binds. Renaming or moving one breaks the
benchmark, whose own tests are not part of this suite, so every binding is
resolved here without installing anything."""

import importlib
import importlib.util
from pathlib import Path

from drivegen.control import _tracking_gain, lqr_track

from conftest import make_state, straight_trajectory

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_binding_resolves_in_drivegen():
    tracer = _tracer_module()
    assert tracer._BINDINGS
    for path, _, hook in tracer._BINDINGS:
        module, *attrs = path.split(".")
        owner = importlib.import_module(f"drivegen.{module}")
        for attr in attrs:
            assert hasattr(owner, attr), f"{path}: drivegen.{module} has no {attr}"
            owner = getattr(owner, attr)
        assert callable(owner), path
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
