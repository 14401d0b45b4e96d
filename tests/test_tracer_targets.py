"""The traced benchmark wraps bfc functions by name; keep those names alive.

``benchmarks/tracer.py`` uses only the standard library, so it is loaded
from its file here without running any benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_traced_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bfc_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, qualname in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module_name}.{qualname} is gone"
        assert callable(owner), f"{module_name}.{qualname} is not callable"
