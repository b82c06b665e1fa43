import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_benchmark_target_resolves():
    # the traced benchmark run binds these names; a deleted or renamed
    # function would break that run without failing any other test
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, function, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"relbound.{module}"), function, None)), (
            f"relbound.{module}.{function}"
        )
