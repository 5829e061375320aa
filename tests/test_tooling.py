"""Checks on the package surface and on the benchmark tooling that changes to it can break."""

import importlib
import importlib.util
import types
from pathlib import Path

import mkdvlab

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


def test_public_names_are_the_module_lists():
    # the package re-exports each layer module's __all__ and adds only these
    layers = ("errors", "gauge", "nonlinearity", "norms", "picard", "probes", "reference", "spectral")
    listed = set().union(*(importlib.import_module(f"mkdvlab.{m}").__all__ for m in layers))
    public = {
        name
        for name, value in vars(mkdvlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == listed | {"VERSION", "solve_z", "reconstruct_u", "solve_Q"}
    assert mkdvlab.__version__ == mkdvlab.VERSION
