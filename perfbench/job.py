"""One step of a benchmark run, in a fresh interpreter: set-up or generate.

Usage: python3 perfbench/job.py SPEC_JSON_PATH

The spec names the phase, the CLI arguments and where to write the result.
Every step goes through the public CLI entry ``drivegen.cli.main``, as a user
of the README pipeline would. ``drivegen`` is imported from ``src/`` of the
current directory, so run this from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

T_START = time.perf_counter()  # set-up time counts the import of drivegen

sys.path.insert(0, os.path.join(os.getcwd(), "src"))  # the script's own directory stays on the path too


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment():
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _call(main, argv):
    rc = main(argv)
    if rc != 0:
        raise SystemExit(f"drivegen {argv[0]} exited with {rc}")


def run(spec):
    from drivegen.cli import main

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()

    result = {}
    if spec["phase"] == "setup":
        for argv in spec["argv"]:
            _call(main, argv)
        result["setup_s"] = time.perf_counter() - T_START
        result["cpu_s"] = _cpu_s()
        result["env"] = environment()
    else:
        span = tracer.open_span("cli.main", "generate") if tracer else None
        cpu0, t0 = _cpu_s(), time.perf_counter()
        _call(main, spec["argv"][0])
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        if tracer:
            tracer.close_span(span)
        from drivegen.config import PipelineConfig

        result.update(generate_s=wall, cpu_s=cpu, ep_min=PipelineConfig().expert_filter.ep_min)
    if tracer:
        result["trace"] = tracer.write(spec["spans"])
    return result


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
