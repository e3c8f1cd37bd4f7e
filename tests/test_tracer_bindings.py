"""The benchmark's tracer (perfbench/tracer.py) wraps drivegen functions by
the module attribute each caller binds. Renaming or moving one breaks the
benchmark, whose own tests are not part of this suite, so every binding is
resolved here without installing anything."""

import importlib
import importlib.util
from pathlib import Path

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
