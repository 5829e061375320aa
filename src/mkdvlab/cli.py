"""Config-driven experiment runner.

Every experiment is one JSON config plus a mode name; outputs are JSON and
CSV files in the output directory, always including resolved_config.json
with every default made explicit so runs are diffable artifacts. Exit code
2 means the config failed validation (field-level messages on stderr as
JSON), 3 means a numerical failure (non-contraction, instability, vanishing
denominator), 0 means all artifacts were written.

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
from typing import Any

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DenominatorError,
    FieldError,
    GridMismatchError,
    InstabilityError,
)
from .gauge import solve_phase
from .nonlinearity import direct_nonlinearity, nr_trilinear, resonant_term
from .norms import NormProxyConfig
from .picard import PicardConfig, picard_solve, picard_step, reconstruct_solution
from .probes import (
    EnsembleSpec,
    probe_duhamel_smoothing,
    probe_quotient_form,
    probe_trilinear_bourgain,
    smoothing_report,
)
from .reference import (
    CONSERVED_COLUMNS,
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
_PICARD_MODES = ("gauge_solve", "compare", "decompose_check", "q_solve")
_ETD_MODES = ("simulate", "compare", "smoothing")

# Size ceilings, checked before anything is allocated. A frame table of
# M * (2K + 1) complex128 values above 2^26 takes more than 1 GiB; padded
# norm proxies and ETD contour weights are held to the same count, and so is
# the work that the ETD stepper repeats T / dt times and the probes count
# times, which bounds their run time. The O(K^3) triple table (probe700,
# nr_method "naive") takes about 15 bytes per (2K + 1)^3 entry (32 MB at
# K = 64, 246 MB at K = 127, build peaks), and a naive NR call adds about 21
# more, so under 600 MB at 2^24 entries (K = 127).
MAX_FRAME_VALUES = 2**26
MAX_TRIPLES = 2**24


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


# Stands for a config value that failed its type check; _build then skips
# the constructor, so one bad value gives one problem, not a cascade.
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


def _as_bool(v: Any) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"expected true or false, got {v!r}")
    return v


def _as_int_tuple(v: Any) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise ValueError(f"expected a list of integers, got {v!r}")
    return tuple(_as_int(x) for x in v)


def _value(problems: _Problems, name: str, section: dict, key: str, default, cast):
    """section[key], or default when absent, checked and converted by cast.

    A null stands for the default only where the default itself is null.
    A value that fails the check is recorded as a problem of field
    name.key and comes back as _INVALID.
    """
    val = section.get(key, default)
    if val is None and default is None:
        return None
    try:
        return cast(val)
    except (TypeError, ValueError, OverflowError) as exc:
        problems.add(f"{name}.{key}", str(exc))
        return _INVALID


def _build(problems: _Problems, field: str, ctor, **kwargs):
    if any(v is _INVALID for v in kwargs.values()):
        return None
    try:
        return ctor(**kwargs)
    except (ConfigError, FieldError, TypeError, ValueError) as exc:
        problems.add(field, str(exc))
        return None


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


def _build_initial(section: dict, K: int, problems: _Problems) -> FourierField | None:
    kind = section.get("kind", "cosine")
    if kind == "cosine":
        return _build(
            problems,
            "initial_data",
            cosine_field,
            K=K,
            amplitude=_value(problems, "initial_data", section, "amplitude", 1.0, _as_float),
            harmonic=_value(problems, "initial_data", section, "harmonic", 1, _as_int),
        )
    if kind == "modes-list":
        rows = section.get("modes")
        if not isinstance(rows, list) or not rows:
            problems.add("initial_data.modes", "must be a non-empty list of [k, re, im]")
            return None
        try:
            ks, values = zip(*[(_as_int(k), complex(re, im)) for k, re, im in rows])
        except (TypeError, ValueError):
            problems.add("initial_data.modes", "rows must be [k, re, im] triples")
            return None
        modes = dict(zip(ks, values))
        f = _build(
            problems, "initial_data", field_from_modes, K=K, modes=modes, symmetrize=True
        )
        # the real field built from the rows must reproduce every one of them
        if f is not None and not np.array_equal(
            f.coeffs[K + np.array(ks)], values, equal_nan=True
        ):
            problems.add("initial_data.modes", "rows must be conjugate at k and -k, real at 0")
            return None
        return f
    if kind == "seeded-random":
        if section.get("seed") is None:
            problems.add("initial_data.seed", "required for kind seeded-random")
            return None
        return _build(
            problems,
            "initial_data",
            random_real_field,
            K=K,
            seed=_value(problems, "initial_data", section, "seed", None, _as_seed),
            decay=_value(problems, "initial_data", section, "decay_exponent", 1.0, _as_float),
        )
    problems.add("initial_data.kind", f"unknown kind {kind!r}")
    return None


def _echo_initial(section: dict) -> dict:
    kind = section.get("kind", "cosine")
    if kind == "cosine":
        return {
            "kind": "cosine",
            "amplitude": float(section.get("amplitude", 1.0)),
            "harmonic": int(section.get("harmonic", 1)),
        }
    if kind == "modes-list":
        return {"kind": "modes-list", "modes": section.get("modes")}
    return {
        "kind": kind,
        "seed": section.get("seed"),
        "decay_exponent": float(section.get("decay_exponent", 1.0)),
    }


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

    grid_sec = _section(doc, "grid", ("K", "M", "T"), problems)
    grid = _build(
        problems,
        "grid",
        GridSpec,
        K=_value(problems, "grid", grid_sec, "K", 16, _as_int),
        M=_value(problems, "grid", grid_sec, "M", 64, _as_int),
        T=_value(problems, "grid", grid_sec, "T", 0.01, _as_float),
    )
    if grid is not None and _too_large(problems, "grid", grid.K, {"M": grid.M}):
        grid = None

    params_sec = _section(doc, "params", ("s0", "s1", "b", "delta"), problems)
    params = _build(
        problems,
        "params",
        SobolevIndex,
        s0=_value(problems, "params", params_sec, "s0", 0.3, _as_float),
        s1=_value(problems, "params", params_sec, "s1", None, _as_float),
        b=_value(problems, "params", params_sec, "b", None, _as_float),
        delta=_value(problems, "params", params_sec, "delta", None, _as_float),
    )
    if params is not None:
        try:
            params.validate()
        except ConfigError as exc:
            problems.add("params", str(exc))
            params = None

    proxy_sec = _section(
        doc, "proxy", ("s", "b", "window", "pad_factor", "phase"), problems
    )
    proxy = None
    if params is not None:
        proxy = _build(
            problems,
            "proxy",
            NormProxyConfig,
            s=_value(problems, "proxy", proxy_sec, "s", params.s0, _as_float),
            b=_value(problems, "proxy", proxy_sec, "b", params.b, _as_float),
            window=proxy_sec.get("window", "hann"),
            pad_factor=_value(problems, "proxy", proxy_sec, "pad_factor", 4, _as_int),
            phase=proxy_sec.get("phase", "modified"),
        )

    etd_sec = _section(
        doc,
        "etd",
        ("dt", "scheme", "linear_phase", "contour_points", "nonlinearity_enabled"),
        problems,
    )
    etd = None
    if mode in _ETD_MODES:
        etd = _build(
            problems,
            "etd",
            ETDConfig,
            dt=_value(problems, "etd", etd_sec, "dt", 1e-3, _as_float),
            scheme=etd_sec.get("scheme", "etdrk4"),
            linear_phase=etd_sec.get("linear_phase", "airy"),
            contour_points=_value(problems, "etd", etd_sec, "contour_points", 32, _as_int),
            nonlinearity_enabled=_value(
                problems, "etd", etd_sec, "nonlinearity_enabled", True, _as_bool
            ),
        )
    if etd is not None and grid is not None and _too_large(
        problems, "etd", grid.K, {"contour_points": etd.contour_points}
    ):
        etd = None

    picard_sec = _section(
        doc,
        "picard",
        (
            "T",
            "M",
            "tol",
            "max_iters",
            "phase_tol",
            "phase_max_sweeps",
            "nr_method",
            "window",
            "pad_factor",
        ),
        problems,
    )
    picard = None
    if mode in _PICARD_MODES and params is not None and proxy is not None and grid is not None:
        picard = _build(
            problems,
            "picard",
            PicardConfig,
            params=params,
            T=_value(problems, "picard", picard_sec, "T", grid.T, _as_float),
            M=_value(problems, "picard", picard_sec, "M", grid.M, _as_int),
            tol=_value(problems, "picard", picard_sec, "tol", 1e-10, _as_float),
            max_iters=_value(problems, "picard", picard_sec, "max_iters", 25, _as_int),
            phase_tol=_value(problems, "picard", picard_sec, "phase_tol", 1e-12, _as_float),
            phase_max_sweeps=_value(
                problems, "picard", picard_sec, "phase_max_sweeps", 50, _as_int
            ),
            nr_method=picard_sec.get("nr_method", "fast"),
            window=picard_sec.get("window", proxy.window),
            pad_factor=_value(
                problems, "picard", picard_sec, "pad_factor", proxy.pad_factor, _as_int
            ),
        )
    if picard is not None:
        sizes = {"pad_factor": picard.pad_factor, "M": picard.M}
        if _too_large(problems, "picard", grid.K, sizes, picard.nr_method == "naive"):
            picard = None
    if etd is not None and grid is not None:
        # compare steps the reference over picard's horizon, the other modes over the grid's
        horizon = picard.T if mode == "compare" and picard is not None else grid.T
        if _too_large(problems, "etd", grid.K, {"T / dt": horizon / etd.dt}):
            etd = None

    ensemble_sec = _section(
        doc,
        "ensemble",
        (
            "seed",
            "count",
            "K",
            "decay_exponent",
            "M",
            "T",
            "k_values",
            "modulation_bumps",
        ),
        problems,
    )
    ensemble = None
    if mode in _PROBE_MODES:
        if not ensemble_sec and "ensemble" not in doc:
            problems.add("ensemble", f"required for mode {mode}")
        else:
            for key in ("seed", "count", "decay_exponent"):
                if ensemble_sec.get(key) is None:
                    problems.add(f"ensemble.{key}", "missing")
            if params is not None and proxy is not None and grid is not None and not problems:
                def get(key, default, cast):
                    return _value(problems, "ensemble", ensemble_sec, key, default, cast)

                ensemble = _build(
                    problems,
                    "ensemble",
                    EnsembleSpec,
                    seed=args.seed if args.seed is not None else get("seed", None, _as_seed),
                    count=get("count", None, _as_int),
                    K=get("K", grid.K, _as_int),
                    decay_exponent=get("decay_exponent", None, _as_float),
                    params=params,
                    proxy=proxy,
                    M=get("M", 16, _as_int),
                    T=get("T", 0.5, _as_float),
                    k_values=get("k_values", None, _as_int_tuple),
                    modulation_bumps=get("modulation_bumps", 0.0, _as_float),
                )
                if ensemble is not None and _too_large(
                    problems,
                    "ensemble",
                    ensemble.K,
                    {"count": ensemble.count, "pad_factor": proxy.pad_factor, "M": ensemble.M},
                    mode == "probe700",
                ):
                    ensemble = None

    initial_sec = _section(
        doc,
        "initial_data",
        ("kind", "amplitude", "harmonic", "modes", "seed", "decay_exponent"),
        problems,
    )
    field_K = ensemble.K if ensemble is not None else (grid.K if grid is not None else None)
    initial = (
        _build_initial(initial_sec, field_K, problems) if field_K is not None else None
    )

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
        "initial_data": _echo_initial(initial_sec),
        "grid": {"K": grid.K, "M": grid.M, "T": grid.T},
        "params": {"s0": params.s0, "s1": params.s1, "b": params.b, "delta": params.delta},
        "proxy": dataclasses.asdict(proxy),
        "etd": None if etd is None else dataclasses.asdict(etd),
        "picard": None if picard is None else {
            k: v for k, v in dataclasses.asdict(picard).items() if k != "params"
        },
        "ensemble": ensemble.to_obj() if ensemble is not None else None,
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


def _cell(v: Any) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


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
        u_ref = solve_reference(f, picard.T, etd, picard.M)
        max_dist, per_frame = compare_trajectories(u_gauge, u_ref, 0.0)
        times = u_ref.grid.times
        _write_csv(
            path("comparison.csv"),
            ("frame", "t", "hs_distance"),
            [(n, float(times[n]), float(per_frame[n])) for n in range(len(per_frame))],
        )
        return {
            "s": 0.0,
            "max_hs_distance": max_dist,
            "picard_converged": report.converged,
        }, artifacts

    if mode == "decompose_check":
        lhs = direct_nonlinearity(f)
        rhs = nr_trilinear(f, f, f, picard.nr_method) + resonant_term(f)
        err = float(np.max(np.abs(lhs.coeffs - rhs.coeffs)))
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
        _write_csv(
            path("smoothing.csv"),
            (
                "t",
                "remainder_hs1",
                "gap_sum_weight1",
                "gap_sum_upgraded",
                "gap_sup_weight1",
            ),
            [
                (
                    float(rep.times[n]),
                    float(rep.remainder_hs1[n]),
                    float(rep.gap_sum_weight1[n]),
                    float(rep.gap_sum_upgraded[n]),
                    float(rep.gap_sup_weight1[n]),
                )
                for n in range(rep.times.size)
            ],
        )
        return {"upgraded_exponent": rep.upgraded_exponent, "sups": rep.sups}, artifacts

    # q_solve: one iteration from rest, then the phase fixed point for it
    z0 = Trajectory.zeros(picard.grid_for(f.K))
    z1, _ = picard_step(z0, f, picard)
    table, rep = solve_phase(
        f, z1, tol=picard.phase_tol, max_sweeps=picard.phase_max_sweeps, s0=params.s0
    )
    write_frames_json(path("phase.json"), table.grid, (table.values,))
    return {
        "sweeps": rep.sweeps,
        "residual": rep.residual,
        "update_norms": list(rep.update_norms),
        "ratios": list(rep.ratios),
        "c0": rep.c0,
        "certified_T0": rep.certified_T0,
        "contraction_T0": rep.contraction_T0,
    }, artifacts


def run(resolved: dict) -> dict:
    """Execute a resolved config: write artifacts, return the report object."""
    out = resolved["output_dir"]
    os.makedirs(out, exist_ok=True)
    echo = {k: v for k, v in resolved.items() if not k.startswith("_")}
    _write_json(os.path.join(out, "resolved_config.json"), echo)
    results, artifacts = _run_mode(resolved, out)
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
        _fail(2, "config-unreadable", str(exc))
        return 2
    except json.JSONDecodeError as exc:
        _fail(2, "config-parse-error", str(exc))
        return 2

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
        _fail(3, type(exc).__name__, str(exc), **detail)
        return 3
    except (ConfigError, FieldError, GridMismatchError) as exc:
        _fail(2, type(exc).__name__, str(exc))
        return 2

    if not args.quiet:
        print(f"mode {report['mode']}: wrote {len(report['artifacts'])} artifacts "
              f"to {resolved['output_dir']}")
        for key, val in report["results"].items():
            if isinstance(val, (int, float, str, bool)) or val is None:
                print(f"  {key} = {val}")
    return 0


def _fail(code: int, kind: str, message: str, **detail) -> None:
    print(
        json.dumps({"error": kind, "message": message, **detail}, indent=2),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
