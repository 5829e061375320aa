"""Checks on the benchmark tooling that changes to the package can break."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_wraps_only_existing_functions():
    # Tracer.install looks each name up in its layer module, so a deleted
    # function would end a traced benchmark run with an AttributeError
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"mkdvlab.{layer}"), name, None))
    ]
    assert missing == []
