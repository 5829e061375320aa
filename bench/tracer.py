"""Span tracer for the mkdvlab layers, installed from outside the package.

Run as a script, it traces one CLI invocation inside its own process and,
when the invocation ends, writes the spans and the layer metrics computed
from them to two JSON files:

    python bench/tracer.py --spans SPANS.json --metrics LAYERS.json --src SRC \
        -- --config CFG --output-dir DIR --quiet

The package imports names with ``from .x import y``, so every layer module
holds its own binding of the functions it calls. ``install`` replaces each
wrapped function in every ``mkdvlab`` module that binds it, the defining
module included. A binding it missed shows up as a broken count identity,
which ``run.py`` checks after each traced invocation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

# Public functions wrapped per layer. Small helpers called once per field
# (sobolev_norm, resize_field, check_real_symmetry) stay unwrapped: tracing
# them would cost more than the work, and their time counts toward the
# caller's self time.
WRAPPED = {
    "spectral": ("trajectory_to_obj", "field_to_obj"),
    "nonlinearity": (
        "nr_framewise",
        "nr_trilinear",
        "nr_trilinear_fast",
        "nr_trilinear_naive",
        "direct_nonlinearity",
        "trilinear_quotient_form",
        "select_frequency_cutoff",
    ),
    "gauge": ("solve_phase", "gauge_compose", "phase_to_obj"),
    "norms": ("ysb_norm_proxy", "x_space_norm", "xinfty_hs_norm"),
    "picard": (
        "picard_solve",
        "picard_step",
        "picard_rhs",
        "duhamel_integrate",
        "reconstruct_solution",
    ),
    "reference": ("solve_reference", "compare_trajectories"),
    "probes": (
        "probe_duhamel_smoothing",
        "probe_trilinear_bourgain",
        "probe_quotient_form",
        "duhamel_smoothing_ratio",
        "trilinear_bourgain_ratio",
        "quotient_form_ratio",
        "free_modulated_trajectory",
    ),
    "cli": ("run",),
}


def _probe_note(args, result):
    return [result.valid_samples + result.skipped, len(result.spec.cutoffs())]


# Facts taken from a call's arguments or result, stored with its span.
NOTES = {
    "gauge.solve_phase": lambda args, result: result[1].sweeps,
    "picard.picard_solve": lambda args, result: len(result[2].iters),
    "nonlinearity.trilinear_quotient_form": lambda args, result: args[0].K,
    "probes.probe_duhamel_smoothing": _probe_note,
    "probes.probe_trilinear_bourgain": _probe_note,
    "probes.probe_quotient_form": _probe_note,
}

NR_NAMES = (
    "nonlinearity.nr_framewise",
    "nonlinearity.nr_trilinear",
    "nonlinearity.nr_trilinear_fast",
    "nonlinearity.nr_trilinear_naive",
)
RATIO_NAMES = (
    "probes.duhamel_smoothing_ratio",
    "probes.trilinear_bourgain_ratio",
    "probes.quotient_form_ratio",
)


class Tracer:
    """Keeps spans as [name, start, end, parent index, note] lists in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.field_objects = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED and count FourierField constructions."""
        import mkdvlab.cli  # noqa: F401  (imports every layer module)

        modules = [
            m for n, m in sys.modules.items() if n == "mkdvlab" or n.startswith("mkdvlab.")
        ]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"mkdvlab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                traced = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)

        field_cls = sys.modules["mkdvlab.spectral"].FourierField
        post_init = field_cls.__post_init__

        def counted(obj) -> None:
            self.field_objects += 1
            post_init(obj)

        field_cls.__post_init__ = counted


def _outside(spans: list[list], index: int, names: set[str]) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return False
        parent = spans[parent][3]
    return True


def probe_runs(spans: list[list]) -> list[list[int]]:
    """[samples, cutoffs] of each probe run, as its returned report states them."""
    return [s[4] for s in spans if s[0].startswith("probes.probe_")]


def layer_metrics(spans: list[list], field_objects: int) -> dict[str, float]:
    """Per-layer counts and times of one traced invocation.

    A time over several names adds only the outermost spans among them, so
    nested calls (nr_framewise -> nr_trilinear -> nr_trilinear_fast) count
    once. A self time is a span's duration minus its direct child spans.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def calls(*names: str) -> int:
        return sum(1 for s in spans if s[0] in names)

    def total(*names: str) -> float:
        group = set(names)
        return sum(
            dur[i] for i, s in enumerate(spans) if s[0] in group and _outside(spans, i, group)
        )

    def self_time(*names: str) -> float:
        return sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0] in names)

    def notes(name: str) -> list:
        return [s[4] for s in spans if s[0] == name]

    def layer(prefix: str) -> tuple[str, ...]:
        return tuple(f"{prefix}.{f}" for f in WRAPPED[prefix])

    first_quotient: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s[0] == "nonlinearity.trilinear_quotient_form":
            first_quotient.setdefault(s[4], dur[i])
    return {
        "nonlinearity.nr_calls": calls("nonlinearity.nr_trilinear"),
        "nonlinearity.nr_s": total(*NR_NAMES),
        "nonlinearity.direct_calls": calls("nonlinearity.direct_nonlinearity"),
        "nonlinearity.direct_s": total("nonlinearity.direct_nonlinearity"),
        "reference.solve_s": total("reference.solve_reference"),
        "reference.self_s": self_time("reference.solve_reference"),
        "reference.nonlinear_evals": sum(
            1
            for s in spans
            if s[0] == "nonlinearity.direct_nonlinearity"
            and s[3] >= 0
            and spans[s[3]][0] == "reference.solve_reference"
        ),
        "nonlinearity.quotient_calls": calls("nonlinearity.trilinear_quotient_form"),
        "nonlinearity.quotient_s": total("nonlinearity.trilinear_quotient_form"),
        "nonlinearity.quotient_first_call_s": sum(first_quotient.values()),
        "gauge.solve_phase_calls": calls("gauge.solve_phase"),
        "gauge.solve_phase_s": total("gauge.solve_phase"),
        "gauge.sweeps": sum(notes("gauge.solve_phase")),
        "norms.ysb_calls": calls("norms.ysb_norm_proxy"),
        "norms.ysb_s": total("norms.ysb_norm_proxy"),
        "picard.solve_s": total("picard.picard_solve"),
        "picard.iterates": sum(notes("picard.picard_solve")),
        "picard.rhs_self_s": self_time("picard.picard_rhs"),
        "picard.duhamel_s": total("picard.duhamel_integrate"),
        "picard.self_s": self_time(*layer("picard")),
        "probes.samples": sum(samples for samples, _ in probe_runs(spans)),
        "probes.ratio_calls": calls(*RATIO_NAMES),
        "probes.self_s": self_time(*layer("probes")),
        "spectral.field_objects": field_objects,
        "spectral.serialize_s": total(*layer("spectral")),
        "cli.self_s": self_time("cli.run"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("--metrics", required=True, help="file the layer metrics are written to")
    parser.add_argument("--src", required=True, help="directory mkdvlab must be imported from")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="arguments after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    tracer.install()
    import mkdvlab.cli  # already imported by install

    src = Path(args.src).resolve()
    if src not in Path(mkdvlab.cli.__file__).resolve().parents:
        print(f"mkdvlab was imported from {mkdvlab.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    code = mkdvlab.cli.main(cli_args)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "field_objects": tracer.field_objects}, fh)
    with open(args.metrics, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "layers": layer_metrics(tracer.spans, tracer.field_objects),
                "probe_runs": probe_runs(tracer.spans),
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
