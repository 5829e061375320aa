"""Checks on the package surface and on the benchmark tooling that changes to it can break."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import mkdvlab
from mkdvlab import (
    EnsembleSpec,
    ETDConfig,
    GridSpec,
    NormProxyConfig,
    PicardConfig,
    SobolevIndex,
    cli,
    picard,
    probes,
    random_real_field,
    reference,
    spectral,
)

from test_cli import MODULE_CACHES

TESTS = Path(__file__).resolve().parent
SRC = Path(mkdvlab.__file__).resolve().parent
README = TESTS.parent / "README.md"
TRACER = TESTS.parent / "bench" / "tracer.py"
WORKLOADS = TESTS.parent / "bench" / "workloads.json"
BENCHMARK = TESTS.parent / "BENCHMARK.json"
PYPROJECT = TESTS.parent / "pyproject.toml"


LAYERS = ("errors", "gauge", "nonlinearity", "norms", "picard", "probes", "reference", "spectral")


def load_tracer() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_only_existing_functions():
    # Tracer.install looks each name up in its layer module, so a deleted
    # function would end a traced benchmark run with an AttributeError
    tracer = load_tracer()
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"mkdvlab.{layer}"), name, None))
    ]
    assert missing == []


def test_benchmark_declares_the_defined_workloads():
    # BENCHMARK.json repeats each workload of bench/workloads.json with its
    # one-line reason; the two must name the same workloads in the same words
    declared = json.loads(BENCHMARK.read_text())["workloads"]
    defined = json.loads(WORKLOADS.read_text())["workloads"]
    assert [(w["name"], w["why"]) for w in declared] == [
        (name, w["why"]) for name, w in defined.items()
    ]


def test_public_names_are_the_module_lists():
    # the package re-exports each layer module's __all__ and adds only these
    listed = set().union(*(importlib.import_module(f"mkdvlab.{m}").__all__ for m in LAYERS))
    public = {
        name
        for name, value in vars(mkdvlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == listed | {"VERSION", "solve_z", "reconstruct_u", "solve_Q"}
    assert mkdvlab.__version__ == mkdvlab.VERSION


def loaded_names(node: ast.AST) -> set[str]:
    """Names a piece of code reads, bare or as an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
    return names


def defined_names(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def test_every_public_name_is_used():
    # a public name no run, benchmark wrapper or README reaches is surface
    # kept only for the tests; such a function belongs in the tests
    used = set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            # a definition does not count as a use of itself; __all__ holds strings
            used |= loaded_names(stmt) - defined_names(stmt)
    used |= {name for names in load_tracer().WRAPPED.values() for name in names}
    readme = README.read_text()
    unused = [
        f"{layer}.{name}"
        for layer in LAYERS
        for name in importlib.import_module(f"mkdvlab.{layer}").__all__
        if name not in used and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []


def test_every_private_helper_is_read():
    # a module-level _name that no code in the package reads is a dead
    # helper, left behind when its last caller went; the tests do not count
    defined, read = set(), set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            names = defined_names(stmt)
            defined |= {
                f"{path.stem}.{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
            }
            read |= loaded_names(stmt) - names
    assert sorted(name for name in defined if name.split(".")[1] not in read) == []


# parameters a function must take to fit a contract it does not otherwise
# need: probe_quotient_form's evaluator has _run_probe's evaluator signature
UNREAD_BY_CONTRACT = {"probes.evaluate.bumps"}


def test_every_parameter_is_read():
    # a parameter its function never reads is a knob with no effect, left
    # behind when the code that read it went; self, cls and _names are exempt
    unread = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread |= {
                f"{path.stem}.{name}.{p.arg}"
                for p in params
                if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")
            }
    assert sorted(unread) == sorted(UNREAD_BY_CONTRACT)


def marks_without_check(node: ast.AST) -> bool:
    """Whether node is a call object.__setattr__(..., "real_symmetric", ...)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "real_symmetric"
    )


def test_one_rule_decides_the_real_symmetric_mark():
    # the mark that lets the kernels read only the k >= 0 half of a field is
    # set unchecked at one site, spectral._mark, and REAL_SYMMETRY_TOL is
    # compared at one site, the verdict spectral._is_real; the asymmetry it
    # measures is read only in spectral, so no other module tests for exactness
    setters, compared, measured = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if marks_without_check(node):
                setters.append(path.name)
            if isinstance(node, ast.Compare) and "REAL_SYMMETRY_TOL" in loaded_names(node):
                compared.append(path.name)
        if "check_real_symmetry" in loaded_names(tree):
            measured.append(path.name)
    assert setters == ["spectral.py"]
    assert compared == ["spectral.py"]
    assert measured == ["spectral.py"]


def test_module_caches_are_the_cached_stores():
    # the CLI tests clear MODULE_CACHES between runs; it must list every
    # store passed to spectral._cached, and no other
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_cached":
                module = importlib.import_module(f"mkdvlab.{path.stem}")
                found[f"{path.stem}.{node.args[0].id}"] = getattr(module, node.args[0].id)
    listed = [
        next((name for name, store in found.items() if store is cache), "a store no _cached call takes")
        for cache in MODULE_CACHES
    ]
    assert sorted(listed) == sorted(found)


def unused_imports(path: Path) -> list[str]:
    """Imported names a module never reads; __all__ entries and # noqa: F401 lines are exempt."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    exported = set()
    for stmt in tree.body:
        if "__all__" in defined_names(stmt):
            exported = set(ast.literal_eval(stmt.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            if bound not in read:
                unused.append(f"{path.name}:{alias.lineno} {bound}")
    return unused


@pytest.mark.parametrize("folder", [SRC, TESTS, TESTS / "golden"], ids=["src", "tests", "golden"])
def test_no_unused_imports(folder):
    assert [u for path in sorted(folder.glob("*.py")) for u in unused_imports(path)] == []


# every dataclass that cli._resolve builds from a config section
CONFIG_CLASSES = (
    GridSpec, SobolevIndex, NormProxyConfig, ETDConfig, PicardConfig, EnsembleSpec,
    *cli._INITIAL_KINDS.values(),
)


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_config_fields_are_keys_or_sections(cls):
    # each setting has one home: an init field is either a key of its own
    # section or a whole nested section, and no key repeats a key of a nested
    # section, so a field that copies another section's value (as
    # PicardConfig.T once copied grid.T) cannot come back
    hints = typing.get_type_hints(cls)
    keys = cli._keys(cls)
    fields = dataclasses.fields(cls)
    sections = [hints[f.name] for f in fields if dataclasses.is_dataclass(hints[f.name])]
    loose = [
        f.name
        for f in fields
        if f.init and f.name not in keys and hints[f.name] not in sections
    ]
    assert loose == []
    for section in sections:
        assert set(keys).isdisjoint(cli._keys(section)), section.__name__


def counting(monkeypatch, module, name):
    """Rebind module.name to a wrapper that records each call's arguments.

    The tracer counts the same calls.
    """
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# bench/run.py --trace 1 fails a run unless these counts hold, so a kernel
# change that breaks one of them fails here first


def test_picard_makes_one_nr_call_per_frame(monkeypatch):
    f = random_real_field(8, 3, 1.0)
    cfg = PicardConfig(grid=GridSpec(8, 9, 0.01))
    nr = counting(monkeypatch, picard, "nr_trilinear")
    z, phase, report = picard.picard_solve(f, cfg)
    assert len(nr) == len(report.iters) * cfg.grid.M
    # each frame is one marked field passed three times, which the NR
    # kernel evaluates by real transforms
    assert all(w is x is y and w.real_symmetric for w, x, y in nr)
    nr.clear()
    picard.picard_rhs(z, phase, f)
    assert len(nr) == cfg.grid.M


@pytest.mark.parametrize("dt, substeps", [(1e-3, 4 * 3), (2.5e-3, 4), (0.02, 4)])
def test_etdrk4_makes_four_direct_calls_per_substep(monkeypatch, dt, substeps):
    # T = 0.01 over M = 5 frames: gaps of 2.5e-3, each covered by ceil(gap / dt) substeps
    direct = counting(monkeypatch, reference, "direct_nonlinearity")
    cfg = ETDConfig(dt=dt)
    reference.solve_reference(random_real_field(8, 3, 1.0), 0.01, cfg, M=5)
    assert len(direct) == 4 * substeps


@pytest.mark.parametrize(
    "probe, ratio, cases",
    [
        ("probe_trilinear_bourgain", "trilinear_bourgain_ratio", 1),
        ("probe_duhamel_smoothing", "duhamel_smoothing_ratio", 1),
        ("probe_quotient_form", "quotient_form_ratio", 2),
    ],
)
def test_probes_make_one_ratio_call_per_sample_cutoff_and_case(monkeypatch, probe, ratio, cases):
    spec = EnsembleSpec(seed=1, count=3, K=16, decay_exponent=1.0)
    calls = counting(monkeypatch, probes, ratio)
    report = getattr(probes, probe)(random_real_field(16, 2, 1.0), spec)
    assert report.valid_samples == spec.count
    assert len(calls) == spec.count * len(spec.cutoffs()) * cases


@pytest.mark.parametrize(
    "probe, proxies", [("probe_trilinear_bourgain", 4), ("probe_duhamel_smoothing", 3)]
)
def test_trajectory_probes_measure_only_the_ratio_proxies(monkeypatch, probe, proxies):
    # the slot scales are the closed form of the free trajectories' proxy, so
    # an evaluation makes only its ratio's proxy calls: three inputs, and the
    # output of probe12; its NR call gets three trajectories marked by
    # construction
    spec = EnsembleSpec(seed=1, count=3, K=16, decay_exponent=1.0)
    ysb = counting(monkeypatch, probes, "ysb_norm_proxy")
    nr = counting(monkeypatch, probes, "nr_framewise")
    getattr(probes, probe)(random_real_field(16, 2, 1.0), spec)
    evaluations = spec.count * len(spec.cutoffs())
    assert len(ysb) == proxies * evaluations
    assert len(nr) == evaluations
    assert all(len(args) == 3 and all(t.real_symmetric for t in args) for args in nr)


def test_probe_symmetry_checks_do_not_grow_with_count(monkeypatch):
    # the sample loop works on mode arrays; only the profile's truncations
    # are checked fields
    checks = counting(monkeypatch, spectral, "check_real_symmetry")
    f = random_real_field(16, 2, 1.0)
    made = []
    for count in (2, 6):
        checks.clear()
        for probe in (probes.probe_trilinear_bourgain, probes.probe_quotient_form):
            probe(f, EnsembleSpec(seed=1, count=count, K=16, decay_exponent=1.0))
        made.append(len(checks))
    assert made[0] == made[1]


FAILING_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # a failing example makes hypothesis import libcst, whose DeprecationWarning
    # pyproject.toml turns into an error; conftest.py must keep that from
    # ending the session before the next test runs
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    package_root = Path(mkdvlab.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS), str(package_root), env.get("PYTHONPATH")])
    )
    r = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert "INTERNALERROR" not in r.stdout + r.stderr
    assert "1 failed, 1 passed" in r.stdout, r.stdout[-2000:]
