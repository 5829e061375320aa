"""Config-driven experiment runner.

Every experiment is one JSON config plus a mode name; outputs are JSON and
CSV files in the output directory. Every successful run includes
resolved_config.json, with every default made explicit so runs are
diffable artifacts; a failed run writes neither it nor report.json. Exit
code 2 means the config failed validation (field-level messages on stderr
as JSON), 3 means a numerical failure (non-contraction, instability,
vanishing denominator), 0 means all artifacts were written.

The Picard modes all run picard_solve; q_solve stops it after one iterate
and reports the phase solve that certifies its table.

The only environment variable consulted is OUTPUT_DIR, which overrides the
config's output_dir but loses to the --output-dir flag.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DenominatorError,
    FieldError,
    GridMismatchError,
    InstabilityError,
    TimeHorizonWarning,
)
from .nonlinearity import MAX_TRIPLES, direct_nonlinearity, nr_trilinear, resonant_term
from .norms import NormProxyConfig
from .picard import PicardConfig, picard_solve, reconstruct_solution
from .probes import (
    SMOOTHING_COLUMNS,
    EnsembleSpec,
    probe_duhamel_smoothing,
    probe_quotient_form,
    probe_trilinear_bourgain,
    smoothing_report,
)
from .reference import (
    CONSERVED_COLUMNS,
    CONTOUR_POINTS,
    ETDConfig,
    compare_trajectories,
    conserved_series,
    solve_reference,
)
from .spectral import (
    FourierField,
    GridSpec,
    SobolevIndex,
    Trajectory,
    _check_decay,
    _check_seed,
    cosine_field,
    field_from_modes,
    random_real_field,
    write_frames_json,
)
from .version import VERSION

__all__ = ["main", "run", "MODES"]

MODES = (
    "simulate",
    "gauge_solve",
    "compare",
    "decompose_check",
    "probe16",
    "probe12",
    "probe700",
    "smoothing",
    "q_solve",
)

_PROBE_MODES = ("probe16", "probe12", "probe700")
_PICARD_MODES = ("gauge_solve", "compare", "q_solve")
_ETD_MODES = ("simulate", "compare", "smoothing")

# Size ceilings, checked before anything is allocated. A frame table of
# M * (2K + 1) complex128 values above 2^26 takes more than 1 GiB; padded
# norm proxies and ETD contour weights are held to the same count, and so is
# the work that the ETD stepper repeats T / dt times, a phase solve up to
# phase_max_sweeps times and the probes count times, which bounds their run
# time (a phase_tol that no sweep meets would otherwise never end). The
# O(K^3) triple table that probe700 builds is held to MAX_TRIPLES.
MAX_FRAME_VALUES = 2**26


class _Problems:
    def __init__(self) -> None:
        self.rows: list[dict[str, str]] = []

    def add(self, field: str, message: str) -> None:
        self.rows.append({"field": field, "message": message})

    def __bool__(self) -> bool:
        return bool(self.rows)


def _section(doc: dict, name: str, known: tuple[str, ...], problems: _Problems) -> dict:
    raw = doc.get(name, {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        problems.add(name, "must be an object")
        return {}
    for key in raw:
        if key not in known:
            problems.add(f"{name}.{key}", "unknown key")
    return raw


# Stands for a config value that is missing or failed its type check; _build
# then skips the constructor, so one bad value gives one problem, not a cascade.
_INVALID = object()


def _as_int(v: Any) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or (
        isinstance(v, float) and not v.is_integer()
    ):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _as_seed(v: Any) -> int:
    n = _as_int(v)
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {v!r}")
    return n


def _as_float(v: Any) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _as_int_tuple(v: Any) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise ValueError(f"expected a list of integers, got {v!r}")
    return tuple(_as_int(x) for x in v)


def _as_mode_rows(v: Any) -> tuple[tuple[int, float, float], ...]:
    """[k, re, im] rows that some real field reproduces: one value per k, conjugate at -k."""
    if not isinstance(v, list) or not v:
        raise ValueError("must be a non-empty list of [k, re, im]")
    if not all(isinstance(row, list) and len(row) == 3 for row in v):
        raise ValueError("rows must be [k, re, im] triples")
    rows = tuple((_as_int(k), _as_float(re), _as_float(im)) for k, re, im in v)
    values: dict[int, complex] = {}
    for k, re, im in rows:
        for key, val in ((k, complex(re, im)), (-k, complex(re, -im))):
            if values.setdefault(key, val) != val:
                raise ValueError("rows must be conjugate at k and -k, real at 0")
    return rows


# The checks of a config value, by the annotation of the dataclass field it
# fills; a str field is passed through for the dataclass to check. Fields of
# any other type (the nested grid, params and proxy) are not config keys.
_CASTS = {
    "int": _as_int,
    "float": _as_float,
    "float | None": _as_float,
    "tuple[int, ...] | None": _as_int_tuple,
    "tuple[tuple[int, float, float], ...]": _as_mode_rows,
    "str": lambda v: v,
}


def _keys(cls) -> tuple[str, ...]:
    """The config keys of a dataclass section, in declaration order."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.init and f.type in _CASTS)


def _echo(obj) -> dict | None:
    """A built section as its config keys, each with the value the run uses."""
    if obj is None:
        return None
    values = obj.to_obj() if isinstance(obj, EnsembleSpec) else dataclasses.asdict(obj)
    return {key: values[key] for key in _keys(type(obj))}


# The kinds of initial_data, each read like a section with its fields as the
# keys next to "kind"; field(K) builds the profile at the cutoff of the run.
@dataclass(frozen=True)
class _Cosine:
    amplitude: float = 1.0
    harmonic: int = 1

    def field(self, K: int) -> FourierField:
        return cosine_field(K, self.amplitude, self.harmonic)


@dataclass(frozen=True)
class _ModesList:
    modes: tuple[tuple[int, float, float], ...]

    def field(self, K: int) -> FourierField:
        # each row's conjugate goes to -k, which _as_mode_rows made consistent
        values = {k: complex(re, im) for k, re, im in self.modes}
        return field_from_modes(K, values, symmetrize=True)


@dataclass(frozen=True)
class _SeededRandom:
    seed: int
    decay_exponent: float = 1.0

    def __post_init__(self) -> None:
        _check_seed(self.seed)

    def field(self, K: int) -> FourierField:
        _check_decay(K, self.decay_exponent)
        return random_real_field(K, self.seed, self.decay_exponent)


_INITIAL_KINDS = {"cosine": _Cosine, "modes-list": _ModesList, "seeded-random": _SeededRandom}


def _build(problems: _Problems, field: str, ctor, **kwargs):
    if any(v is _INVALID for v in kwargs.values()):
        return None
    try:
        return ctor(**kwargs)
    except (ConfigError, FieldError, TypeError, ValueError) as exc:
        problems.add(field, str(exc))
        return None


def _load(problems: _Problems, name: str, section: dict, cls, defaults: dict, **given):
    """Build cls from a config section, or record its problems and return None.

    given fields are passed as they are. Every other config key is read from
    section and checked by its field's annotation (seed by _as_seed). A
    missing key takes defaults[key], else the dataclass default; a key with
    neither is required, and a missing or null one is a problem. A null
    stands for the default only where the default itself is null. Each
    problem is recorded as field name.key, and cls is then not called.
    """
    kwargs = dict(given)
    keys = _keys(cls)
    for f in dataclasses.fields(cls):
        if f.name not in keys or f.name in given:
            continue
        default = defaults.get(f.name, f.default)
        val = section.get(f.name, default)
        kwargs[f.name] = _INVALID
        if default is dataclasses.MISSING and section.get(f.name) is None:
            problems.add(f"{name}.{f.name}", "missing")
        elif val is None and default is None:
            kwargs[f.name] = None
        else:
            try:
                kwargs[f.name] = (_as_seed if f.name == "seed" else _CASTS[f.type])(val)
            except (TypeError, ValueError, OverflowError) as exc:
                problems.add(f"{name}.{f.name}", str(exc))
    return _build(problems, name, cls, **kwargs)


def _too_large(
    problems: _Problems, field: str, K: int, factors: dict[str, float], triples: bool = False
) -> bool:
    """Record a problem when (2K + 1) * prod(factors) or the triple table passes a ceiling."""
    n = 2 * K + 1
    values = math.prod(factors.values()) * n
    if values > MAX_FRAME_VALUES:
        what = " * ".join([*factors, "(2K + 1)"])
        problems.add(field, f"{what} = {values} exceeds the ceiling {MAX_FRAME_VALUES}")
        return True
    if triples and n**3 > MAX_TRIPLES:
        problems.add(field, f"(2K + 1)^3 = {n**3} exceeds the ceiling {MAX_TRIPLES}")
        return True
    return False


def _resolve(doc: dict, args: argparse.Namespace) -> tuple[dict | None, _Problems]:
    """Validate the config document and build the working objects.

    Returns (resolved, problems); resolved is None when problems is truthy.
    The resolved dict carries both the dataclass instances (under keys
    starting with an underscore) and the JSON echo of every section.
    """
    problems = _Problems()
    if not isinstance(doc, dict):
        problems.add("", "config must be a JSON object")
        return None, problems

    mode = args.mode or doc.get("mode")
    if mode is None:
        problems.add("mode", "missing (set in the config or with --mode)")
    elif mode not in MODES:
        problems.add("mode", f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")

    grid_sec = _section(doc, "grid", _keys(GridSpec), problems)
    grid = _load(problems, "grid", grid_sec, GridSpec, {"K": 16, "M": 64, "T": 0.01})
    if grid is not None and _too_large(problems, "grid", grid.K, {"M": grid.M}):
        grid = None

    params_sec = _section(doc, "params", _keys(SobolevIndex), problems)
    params = _load(problems, "params", params_sec, SobolevIndex, {})

    proxy_sec = _section(doc, "proxy", _keys(NormProxyConfig), problems)
    proxy = _load(problems, "proxy", proxy_sec, NormProxyConfig, {})

    etd_sec = _section(doc, "etd", _keys(ETDConfig), problems)
    etd = None
    if mode in _ETD_MODES:
        etd = _load(problems, "etd", etd_sec, ETDConfig, {"dt": 1e-3})
    if etd is not None and grid is not None and (
        _too_large(problems, "etd", grid.K, {str(CONTOUR_POINTS): CONTOUR_POINTS})
        or _too_large(problems, "etd", grid.K, {"T / dt": grid.T / etd.dt})
    ):
        etd = None

    picard_sec = _section(doc, "picard", _keys(PicardConfig), problems)
    picard = None
    if mode in _PICARD_MODES and params is not None and proxy is not None and grid is not None:
        picard = _load(
            problems, "picard", picard_sec, PicardConfig, {}, params=params, grid=grid, proxy=proxy
        )
    if picard is not None:
        sizes = {"pad_factor": proxy.pad_factor, "M": grid.M}
        sweeps = {"phase_max_sweeps": picard.phase_max_sweeps, "M": grid.M}
        if _too_large(problems, "picard", grid.K, sizes) or _too_large(
            problems, "picard", grid.K, sweeps
        ):
            picard = None

    ensemble_sec = _section(doc, "ensemble", _keys(EnsembleSpec), problems)
    ensemble = None
    if mode in _PROBE_MODES:
        if "ensemble" not in doc:
            problems.add("ensemble", f"required for mode {mode}")
        elif params is not None and proxy is not None and grid is not None:
            # --seed replaces ensemble.seed, which is then neither required, read nor checked
            given = {"params": params, "proxy": proxy}
            if args.seed is not None:
                given["seed"] = args.seed
            ensemble = _load(
                problems, "ensemble", ensemble_sec, EnsembleSpec, {"K": grid.K}, **given
            )
            if ensemble is not None and _too_large(
                problems,
                "ensemble",
                ensemble.K,
                {"count": ensemble.count, "pad_factor": proxy.pad_factor, "M": ensemble.M},
                mode == "probe700",
            ):
                ensemble = None

    raw = doc.get("initial_data")
    kind = raw.get("kind", "cosine") if isinstance(raw, dict) else "cosine"
    kind_cls = _INITIAL_KINDS.get(kind) if isinstance(kind, str) else None
    known = ("kind", *(_keys(kind_cls) if kind_cls else ()))
    initial_sec = _section(doc, "initial_data", known, problems)
    data = initial = None
    if kind_cls is None:
        problems.add("initial_data.kind", f"unknown kind {kind!r}")
    else:
        data = _load(problems, "initial_data", initial_sec, kind_cls, {})
    field_K = ensemble.K if ensemble is not None else (grid.K if grid is not None else None)
    if data is not None and field_K is not None:
        initial = _build(problems, "initial_data", data.field, K=field_K)

    output_dir = (
        args.output_dir
        or os.environ.get("OUTPUT_DIR")
        or doc.get("output_dir")
        or "./runs"
    )

    if problems:
        return None, problems

    resolved = {
        "version": VERSION,
        "mode": mode,
        "initial_data": {"kind": kind, **_echo(data)},
        "grid": _echo(grid),
        "params": _echo(params),
        "proxy": _echo(proxy),
        "etd": _echo(etd),
        "picard": _echo(picard),
        "ensemble": _echo(ensemble),
        "output_dir": str(output_dir),
        "_grid": grid,
        "_params": params,
        "_proxy": proxy,
        "_etd": etd,
        "_picard": picard,
        "_ensemble": ensemble,
        "_initial": initial,
    }
    return resolved, problems


def _write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_trajectory(path: str, tr: Trajectory) -> None:
    """The file json.dump would write for trajectory_to_obj(tr), one frame at a time."""
    write_frames_json(path, tr.grid, (tr.coeffs.real, tr.coeffs.imag))


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _run_mode(resolved: dict, out: str) -> tuple[dict, list[str]]:
    mode = resolved["mode"]
    grid: GridSpec = resolved["_grid"]
    params: SobolevIndex = resolved["_params"]
    etd: ETDConfig = resolved["_etd"]
    picard: PicardConfig = resolved["_picard"]
    ensemble: EnsembleSpec | None = resolved["_ensemble"]
    f: FourierField = resolved["_initial"]
    artifacts: list[str] = []

    def path(name: str) -> str:
        artifacts.append(name)
        return os.path.join(out, name)

    if mode == "simulate":
        u = solve_reference(f, grid.T, etd, grid.M)
        _write_trajectory(path("trajectory.json"), u)
        series = conserved_series(u)
        _write_csv(path("conserved.csv"), CONSERVED_COLUMNS, series.tolist())
        drifts = np.max(np.abs(series[:, 1:] - series[0, 1:]), axis=0)
        return {
            "frames": grid.M,
            "mass_drift": float(drifts[0]),
            "l2_drift": float(drifts[1]),
            "energy_drift": float(drifts[2]),
        }, artifacts

    if mode == "gauge_solve":
        z, table, report = picard_solve(f, picard)
        u = reconstruct_solution(z, table, f)
        _write_json(
            path("picard_report.json"),
            {"version": VERSION, **report.to_obj()},
        )
        _write_trajectory(path("z_trajectory.json"), z)
        _write_trajectory(path("u_trajectory.json"), u)
        write_frames_json(path("phase.json"), table.grid, (table.values,))
        return report.to_obj(), artifacts

    if mode == "compare":
        z, table, report = picard_solve(f, picard)
        u_gauge = reconstruct_solution(z, table, f)
        u_ref = solve_reference(f, grid.T, etd, grid.M)
        max_dist, per_frame = compare_trajectories(u_gauge, u_ref, 0.0)
        times = u_ref.grid.times
        _write_csv(
            path("comparison.csv"),
            ("frame", "t", "hs_distance"),
            [(n, float(times[n]), float(per_frame[n])) for n in range(len(per_frame))],
        )
        max_dist_s0, _ = compare_trajectories(u_gauge, u_ref, params.s0)
        return {
            "s": 0.0,
            "max_hs_distance": max_dist,
            "s0": params.s0,
            "max_hs_distance_s0": max_dist_s0,
            "picard_converged": report.converged,
        }, artifacts

    if mode == "decompose_check":
        lhs = direct_nonlinearity(f)
        rhs = nr_trilinear(f, f, f) + resonant_term(f)
        err = float(np.max(np.abs(lhs.coeffs - rhs.coeffs)))
        if not np.isfinite(err):
            raise InstabilityError("the decomposition error is not finite")
        return {"decomposition_max_err": err}, artifacts

    if mode in _PROBE_MODES:
        runner = {
            "probe16": probe_duhamel_smoothing,
            "probe12": probe_trilinear_bourgain,
            "probe700": probe_quotient_form,
        }[mode]
        report = runner(f, ensemble)
        if report.argmax_sample is not None:
            _write_json(path("argmax_sample.json"), report.argmax_sample)
            report = dataclasses.replace(report, argmax_sample_file="argmax_sample.json")
        _write_json(path("probe_report.json"), report.to_obj())
        return report.to_obj(), artifacts

    if mode == "smoothing":
        u = solve_reference(f, grid.T, etd, grid.M)
        rep = smoothing_report(u, f, params)
        rows = np.column_stack([rep.times, *(getattr(rep, c) for c in SMOOTHING_COLUMNS)]).tolist()
        _write_csv(path("smoothing.csv"), ("t", *SMOOTHING_COLUMNS), rows)
        return {"upgraded_exponent": rep.upgraded_exponent, "sups": rep.sups}, artifacts

    # q_solve: one Picard iterate from rest and the phase solve that certifies it
    with warnings.catch_warnings():  # the copy would repeat picard's TimeHorizonWarning
        warnings.simplefilter("ignore", TimeHorizonWarning)
        one = dataclasses.replace(picard, max_iters=1)
    _, table, report = picard_solve(f, one)
    write_frames_json(path("phase.json"), table.grid, (table.values,))
    return dataclasses.asdict(report.phase_solve), artifacts


def run(resolved: dict) -> dict:
    """Execute a resolved config: write artifacts, return the report object."""
    out = resolved["output_dir"]
    os.makedirs(out, exist_ok=True)
    # every mode checks its numbers for finite values and fails with exit 3,
    # so numpy's overflow and invalid-value warnings would only precede the
    # error JSON on stderr
    with np.errstate(all="ignore"):
        results, artifacts = _run_mode(resolved, out)
    echo = {k: v for k, v in resolved.items() if not k.startswith("_")}
    _write_json(os.path.join(out, "resolved_config.json"), echo)
    report = {
        "version": VERSION,
        "mode": resolved["mode"],
        "resolved_config": echo,
        "results": results,
        "artifacts": artifacts + ["resolved_config.json", "report.json"],
    }
    _write_json(os.path.join(out, "report.json"), report)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mkdvlab",
        description="Spectral experiments for the gauged periodic mKdV system.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--output-dir", default=None, help="artifact directory")
    parser.add_argument("--mode", default=None, choices=MODES, help="override the config mode")
    parser.add_argument("--seed", default=None, type=int, help="override ensemble.seed")
    parser.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        return _fail(2, "config-unreadable", str(exc))
    except json.JSONDecodeError as exc:
        return _fail(2, "config-parse-error", str(exc))

    resolved, problems = _resolve(doc, args)
    if problems or resolved is None:
        print(
            json.dumps(
                {"error": "invalid-config", "problems": problems.rows}, indent=2
            ),
            file=sys.stderr,
        )
        return 2

    try:
        report = run(resolved)
    except (ConvergenceError, InstabilityError, DenominatorError) as exc:
        detail = {}
        if isinstance(exc, ConvergenceError) and exc.residual is not None:
            detail["residual"] = exc.residual
        if isinstance(exc, InstabilityError) and exc.step is not None:
            detail["step"] = exc.step
        if isinstance(exc, DenominatorError) and exc.triple is not None:
            detail["triple"] = list(exc.triple)
        return _fail(3, type(exc).__name__, str(exc), **detail)
    except (ConfigError, FieldError, GridMismatchError) as exc:
        return _fail(2, type(exc).__name__, str(exc))

    if not args.quiet:
        print(f"mode {report['mode']}: wrote {len(report['artifacts'])} artifacts "
              f"to {resolved['output_dir']}")
        for key, val in report["results"].items():
            if isinstance(val, (int, float, str, bool)) or val is None:
                print(f"  {key} = {val}")
    return 0


def _fail(code: int, kind: str, message: str, **detail) -> int:
    """Print the error JSON on stderr; returns code, the exit code of the failure."""
    print(
        json.dumps({"error": kind, "message": message, **detail}, indent=2),
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
