"""Regenerate the pinned config surface used by the resolved-config test.

Run from the repository root after an intentional change to how configs are
read, defaulted or rejected:

    PYTHONPATH=src python3 tests/golden/generate_resolved_configs.py

The file has two parts. "echo" holds, per mode, the resolved config that
_resolve echoes for a minimal document. "cases" holds one document per bad
value at each key (and per unknown key, missing ensemble keys and --seed
override), each with the problem rows _resolve reports or, when it accepts
the document, its echo.
"""

import argparse
import json
import pathlib
import warnings

from mkdvlab.cli import MODES, _resolve

OUT = pathlib.Path(__file__).parent / "resolved_configs.json"

ENSEMBLE = {"seed": 1, "count": 2, "decay_exponent": 1.0}
BAD_VALUES = ("x", -1, 1e300, None, True)

# Keys per section, each with the smallest document in which it is read.
SECTIONS = {
    "grid": ({"mode": "gauge_solve"}, ("K", "M", "T")),
    "params": ({"mode": "gauge_solve"}, ("s0", "s1", "b", "delta")),
    "proxy": ({"mode": "gauge_solve"}, ("s", "b", "window", "pad_factor", "phase")),
    "etd": (
        {"mode": "simulate"},
        ("dt", "scheme", "linear_phase", "contour_points", "nonlinearity_enabled"),
    ),
    "picard": (
        {"mode": "gauge_solve"},
        (
            "T", "M", "tol", "max_iters", "phase_tol", "phase_max_sweeps", "nr_method",
            "window", "pad_factor",
        ),
    ),
    "ensemble": (
        {"mode": "probe12", "ensemble": ENSEMBLE},
        ("seed", "count", "K", "decay_exponent", "M", "T", "k_values", "modulation_bumps"),
    ),
}
INITIAL_DATA = {
    "kind": {},
    "amplitude": {"kind": "cosine"},
    "harmonic": {"kind": "cosine"},
    "modes": {"kind": "modes-list"},
    "seed": {"kind": "seeded-random", "seed": 3},
    "decay_exponent": {"kind": "seeded-random", "seed": 3},
}


def minimal(mode: str) -> dict:
    doc = {"mode": mode}
    if mode.startswith("probe"):
        doc["ensemble"] = dict(ENSEMBLE)
    return doc


def outcome(doc: dict, seed: int | None) -> dict:
    args = argparse.Namespace(mode=None, seed=seed, output_dir="out")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        resolved, problems = _resolve(doc, args)
    echo = None
    if resolved is not None:
        echo = {k: v for k, v in resolved.items() if not k.startswith("_") and k != "version"}
    return {"doc": doc, "seed": seed, "problems": problems.rows, "echo": echo}


def with_value(base: dict, section: str, key: str, value) -> dict:
    doc = json.loads(json.dumps(base))
    doc.setdefault(section, {})[key] = value
    return doc


def cases() -> list[dict]:
    out = []
    for section, (base, keys) in SECTIONS.items():
        for key in keys:
            for value in BAD_VALUES:
                out.append(outcome(with_value(base, section, key, value), None))
        out.append(outcome(with_value(base, section, "bogus", 1), None))
    for key, extra in INITIAL_DATA.items():
        base = {"mode": "decompose_check", "initial_data": extra}
        for value in BAD_VALUES:
            out.append(outcome(with_value(base, "initial_data", key, value), None))
    # --seed replaces ensemble.seed, which is then neither required, read nor checked
    for seed in (5, -3):
        for value in BAD_VALUES:
            out.append(outcome(with_value(minimal("probe12"), "ensemble", "seed", value), seed))
    # at the default K = 16 the top mode's weight overflows below decay -255.8
    for value in (-250, -400):
        out.append(outcome(with_value(minimal("probe12"), "ensemble", "decay_exponent", value), None))
    # the same bound holds for seeded-random initial data at the cutoff of the run
    seeded = {"mode": "decompose_check", "initial_data": INITIAL_DATA["decay_exponent"]}
    for value in (-250, -400):
        out.append(outcome(with_value(seeded, "initial_data", "decay_exponent", value), None))
    for key in ENSEMBLE:
        doc = minimal("probe12")
        del doc["ensemble"][key]
        out.append(outcome(doc, None))
    return out


def main() -> None:
    payload = {
        "echo": {mode: outcome(minimal(mode), None)["echo"] for mode in MODES},
        "cases": cases(),
    }
    OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {OUT} ({len(payload['cases'])} cases)")


if __name__ == "__main__":
    main()
