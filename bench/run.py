"""mkdvlab benchmark: whole CLI runs of fixed workloads, one fresh process each.

Users run one ``mkdvlab --config`` experiment per process, so every timed
invocation here is a new ``python -m mkdvlab.cli`` subprocess, started only
after the previous one has ended (a closed loop with one client). Workloads
are defined in bench/workloads.json.

    python3 bench/run.py --workload gauge_k128 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all
    python3 bench/run.py --compare before.jsonl after.jsonl

With --trace 0 the run reports the end-to-end metrics. Each invocation's
wall time is divided by that of a fixed reference job timed right after it;
the median of these ratios, run_rel, is the timing BENCHMARK.json bounds,
because the raw median wall time, run_s, follows the host's speed too.
setup_s is scaled the same way (setup_wall_s is the raw import time).
With --trace 1 it alternates untraced invocations with traced ones
(bench/tracer.py) on the same input and reports the per-layer metrics plus
the tracing overhead. Every output is checked; the last line of stdout is
one JSON object {correct, attempted, failed, metrics}, and a full record
with the machine's provenance is appended to --out. Exit code 1 means a
check failed, 2 a usage error or a checkout without src/mkdvlab.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# Timed after every invocation. Like the workloads it pays for interpreter
# start-up, the numpy import and per-call overhead, but it runs no mkdvlab
# code: a change to the program leaves it alone, while the host's speed,
# which swings by up to half for minutes at a time on a shared machine,
# moves it and the invocation together. run_rel and setup_s divide by it.
REFERENCE_JOB = (
    "import numpy as np\n"
    "a = np.arange(130, dtype=complex)\n"
    "for _ in range(5000):\n"
    "    b = np.fft.ifft(np.fft.fft(a) * a)\n"
)
# The reference job's wall time on a quiet host (2-vCPU Xeon VM, Python
# 3.11, numpy 2.4). setup_s is each import time over the reference job
# timed next to it, times this constant: set-up time at that host speed.
NOMINAL_REFERENCE_S = 0.18


# numpy and BLAS versions, read in a child: importing numpy here would make
# this process larger than some children, and wait4 reports the larger size
# (the RSS high-water mark of a vforked child starts at its parent's).
NUMPY_FACTS = (
    "import json, numpy\n"
    "try:\n"
    "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
    "except (TypeError, KeyError):\n"
    "    blas = None\n"
    "print(json.dumps({'numpy': numpy.__version__, 'blas': blas}))\n"
)


class CheckoutError(RuntimeError):
    """The checkout lacks what the benchmark needs to run."""


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict[str, str]:
    """The caller's environment with src/ first on the path and one BLAS thread.

    mkdvlab makes no BLAS calls; a BLAS thread pool would only add its
    start-up to every import and its scheduling noise to every timing.
    """
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _timed_child(argv: list[str], cwd: Path) -> tuple[int, float, float]:
    """Run one child to its end: (exit code, wall seconds, its own max RSS in MB).

    The RSS comes from wait4 on that child alone, so earlier children and
    the benchmark process itself do not count.
    """
    with open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _stderr_tail(work: Path) -> str:
    text = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    return " | ".join(text.strip().splitlines()[-3:])


def check_import(work: Path) -> None:
    """Untimed first import: checks where mkdvlab comes from and writes its bytecode,
    as an installed package would already have it."""
    probe = subprocess.run(
        [sys.executable, "-c", "import mkdvlab.cli; print(mkdvlab.cli.__file__)"],
        cwd=work,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    origin = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or SRC.resolve() not in origin.parents:
        raise CheckoutError(f"cannot import mkdvlab.cli from {SRC}: {probe.stderr.strip()}")


def time_job(work: Path, source: str) -> float:
    """Wall time of `python -c source` in a fresh interpreter, start to exit."""
    code, wall, _ = _timed_child([sys.executable, "-c", source], work)
    if code != 0:
        raise CheckoutError(f"{source.splitlines()[0]!r} failed: {_stderr_tail(work)}")
    return wall


def etd_substeps(T: float, M: int, dt: float) -> int:
    """ETDRK4 substeps solve_reference takes to cover M equispaced frames on [0, T]."""
    return (M - 1) * max(1, math.ceil(T / (M - 1) / dt - 1e-9))


def _with_seed(config: dict, key: str, seed: int) -> dict:
    doc = copy.deepcopy(config)
    *parents, leaf = key.split(".")
    node = doc
    for name in parents:
        node = node.setdefault(name, {})
    node[leaf] = seed
    return doc


def _check_report(config: dict, out: Path, state: dict) -> tuple[list[str], float | None]:
    """Output checks of one successful invocation; returns (problems, gap_h0)."""
    results = _load(out / "report.json")["results"]
    mode = config["mode"]
    if mode == "gauge_solve":
        problems = [
            f"{key} is {results.get(key)!r}"
            for key in ("converged", "within_first_iterate_bound")
            if results.get(key) is not True
        ]
        return problems, None
    if mode == "compare":
        gap = results.get("max_hs_distance")
        problems = []
        if results.get("picard_converged") is not True:
            problems.append("picard_converged is not true")
        if not isinstance(gap, float) or not math.isfinite(gap):
            problems.append(f"max_hs_distance is {gap!r}")
            gap = None
        return problems, gap
    problems = []
    count = config["ensemble"]["count"]
    if results.get("valid_samples") != count:
        problems.append(f"valid_samples {results.get('valid_samples')} != count {count}")
    report = (out / "probe_report.json").read_bytes()
    first = state.setdefault("probe_report", report)
    if report != first:
        problems.append("probe_report.json differs from the run's first invocation")
    return problems, None


def _check_identities(spec: dict, layers: dict, runs: list[list[int]]) -> list[str]:
    """Count identities that a binding the tracer missed would break."""
    config = spec["config"]
    mode = config["mode"]
    problems = []
    if mode in ("gauge_solve", "compare"):
        M = config["grid"]["M"]
        if layers["nonlinearity.nr_calls"] != layers["picard.iterates"] * M:
            problems.append(
                f"nr_calls {layers['nonlinearity.nr_calls']} != "
                f"iterates {layers['picard.iterates']} x M {M}"
            )
    if mode == "compare":
        grid = config["grid"]
        substeps = etd_substeps(grid["T"], grid["M"], config["etd"]["dt"])
        if layers["reference.nonlinear_evals"] != 4 * substeps:
            problems.append(
                f"nonlinear_evals {layers['reference.nonlinear_evals']} != 4 x {substeps} substeps"
            )
    if mode.startswith("probe"):
        expected = sum(samples * cutoffs for samples, cutoffs in runs) * spec["ratio_cases"]
        if layers["probes.ratio_calls"] != expected:
            problems.append(
                f"ratio_calls {layers['probes.ratio_calls']} != (samples, cutoffs) {runs} "
                f"x cases {spec['ratio_cases']}"
            )
    return problems


def invoke(spec: dict, data_seed: int, traced: bool, work: Path, state: dict) -> dict:
    """One CLI invocation in a fresh process, checked; traced ones add layer metrics."""
    config = _with_seed(spec["config"], spec["seed_key"], data_seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    layers_path = work / "layers.json"
    cli_args = ["--config", str(cfg_path), "--output-dir", str(out), "--quiet"]
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(work / "spans.json"),
                "--metrics", str(layers_path), "--src", str(SRC), "--", *cli_args]
    else:
        argv = [sys.executable, "-m", "mkdvlab.cli", *cli_args]
    code, wall, rss = _timed_child(argv, work)
    record = {"data_seed": data_seed, "traced": traced, "exit": code, "wall_s": wall,
              "rss_mb": rss, "gap_h0": None, "problems": []}
    if code != 0:
        record["problems"].append(f"exit code {code}: {_stderr_tail(work)}")
        return record
    try:
        record["problems"], record["gap_h0"] = _check_report(config, out, state)
        if traced:
            # the traced child reduces its spans itself: loading them here would
            # grow this process, whose size wait4 reports for its later children
            dump = _load(layers_path)
            layers = dump["layers"]
            layers["cli.artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir())
            record["layers"] = layers
            record["problems"] += _check_identities(spec, layers, dump["probe_runs"])
    except (OSError, ValueError, KeyError) as exc:
        record["problems"].append(f"missing or malformed output: {exc!r}")
    return record


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least 10 samples above it, and its percentile.

    With 10 samples or fewer no value has 10 above it; the minimum is
    reported then, labelled with its own percentile.
    """
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Invocations, each followed by the reference job and one fresh import of
    mkdvlab.cli (the set-up sample), until `seconds` have passed; returns the
    run record."""
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_start = os.getloadavg()
    state: dict = {}
    invocations: list[dict] = []
    overheads: list[float] = []
    try:
        check_import(work)
        setup: list[float] = []
        references: list[float] = []
        start = time.perf_counter()
        index = 0
        while not invocations or time.perf_counter() - start < seconds:
            data_seed = 1000 * seed + index if spec["seed_per_invocation"] else seed
            # traced and untraced share an input; alternate which runs first
            order = ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,)
            done = {t: invoke(spec, data_seed, t, work, state) for t in order}
            invocations.extend(done.values())
            references.append(time_job(work, REFERENCE_JOB))
            done[False]["rel"] = done[False]["wall_s"] / references[-1]
            if trace:
                overheads.append(done[True]["wall_s"] - done[False]["wall_s"])
            setup.append(time_job(work, "import mkdvlab.cli"))
            index += 1
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [inv for inv in invocations if not inv["traced"]]
    walls = [inv["wall_s"] for inv in plain]
    rels = [inv["rel"] for inv in plain]
    tail_s, tail_pct = tail(walls)
    failed = sum(1 for inv in invocations if inv["problems"])
    metrics = {
        "run_rel": statistics.median(rels),
        "run_s": statistics.median(walls),
        "run_s_tail": tail_s,
        "peak_rss_mb": statistics.median(inv["rss_mb"] for inv in plain),
        "setup_s": NOMINAL_REFERENCE_S
        * statistics.median(t / r for t, r in zip(setup, references)),
        "setup_wall_s": statistics.median(setup),
        "reference_s": statistics.median(references),
        "fail_ratio": failed / len(invocations),
    }
    gaps = [inv["gap_h0"] for inv in plain if inv["gap_h0"] is not None]
    if gaps:
        metrics["gap_h0"] = statistics.median(gaps)
    notes = {
        "run_rel": f"median of {len(walls)} invocations, each over the reference job after it",
        "run_s": f"median of {len(walls)} invocations",
        "run_s_tail": f"p{tail_pct:.0f} of {len(walls)} invocations",
        "peak_rss_mb": f"median of {len(walls)} children's own max RSS",
        "setup_s": f"median of {len(setup)} fresh imports over the reference job, "
        f"times {NOMINAL_REFERENCE_S} s",
        "setup_wall_s": f"median of {len(setup)} fresh imports",
        "reference_s": f"median of {len(references)} reference jobs",
        "fail_ratio": f"{failed} of {len(invocations)} invocations",
    }
    if trace:
        traced = [inv for inv in invocations if inv["traced"] and "layers" in inv]
        if traced:
            for key in traced[0]["layers"]:
                metrics[key] = statistics.median(inv["layers"][key] for inv in traced)
        metrics["trace.overhead_s"] = statistics.median(overheads)
        notes["trace.overhead_s"] = f"median over {len(overheads)} traced/untraced pairs"
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "elapsed_s": elapsed,
        "attempted": len(invocations),
        "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
        "notes": notes,
        "samples": {"run_s": walls, "setup_s": setup, "reference_s": references},
        "problems": sorted({p for inv in invocations for p in inv["problems"]}),
        "provenance": {**provenance(), "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
    }


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def provenance() -> dict:
    """Machine and code facts that tell noisy or foreign runs apart."""
    sha = _git("rev-parse", "--short", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    numpy = subprocess.run([sys.executable, "-c", NUMPY_FACTS], env=_child_env(),
                           capture_output=True, text=True, timeout=120)
    numpy = json.loads(numpy.stdout) if numpy.returncode == 0 else {"numpy": None, "blas": None}
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "python": platform.python_version(),
        **numpy,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "child_thread_env": {k: _child_env()[k] for k in THREAD_VARS},
        "platform": platform.platform(),
    }


def _print_run(record: dict, units: dict[str, str]) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['attempted']} invocations in {record['elapsed_s']:.1f} s")
    for key, value in record["metrics"].items():
        note = record["notes"].get(key, "")
        print(f"  {key:38s} {value:<22.10g} {units.get(key, ''):8s} {note}")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")


def _result_line(record: dict, names: list[str], units: dict[str, str]) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            n: {"value": record["metrics"][n], "unit": units[n]}
            for n in names
            if n in record["metrics"]
        },
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    before: list[float], after: list[float], better: str, bound: float | None
) -> tuple[str, float]:
    """Verdict on B (after) against A (before), and the share of pairs B won.

    Improved: B wins at least 9 in 10 pairs, ties counting for neither,
    and the medians differ by more than A's interquartile range. Worse: B's
    median is worse than A's by more than the bound. Unresolved: either
    side's spread (interquartile range over median) exceeds the bound,
    unless every run of B beats every run of A.
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(before, after))
    won = sum(1 for b, a in pairs if sign * (b - a) > 0) / len(pairs)
    qa, qb = quartiles(before), quartiles(after)
    if won >= 0.9 and sign * (qa[1] - qb[1]) > qa[2] - qa[0]:
        return "improved", won
    if bound is None:
        return "no bound", won
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else math.inf for q in (qa, qb))
    if spread > bound and not all(sign * (b - a) > 0 for b in before for a in after):
        return "unresolved", won
    if sign * (qb[1] - qa[1]) > bound * abs(qa[1]):
        return "worse", won
    return "no worse within bound", won


def compare(path_a: Path, path_b: Path, bench: dict, spec: dict) -> int:
    """Per workload and end-to-end metric: medians, quartiles, pairs won, verdict."""
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    for name, extra in spec["reported_metrics"].items():
        metrics.setdefault(name, {**extra, "name": name, "bound": None})

    def records(path: Path) -> dict[str, list[dict]]:
        out: dict[str, list[dict]] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    out.setdefault(rec["workload"], []).append(rec)
        return out

    a, b = records(path_a), records(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    for workload in sorted(set(a) & set(b)):
        print(f"workload {workload}: {len(a[workload])} runs in A, {len(b[workload])} in B")
        for name, m in metrics.items():
            va = [r["metrics"][name] for r in a[workload] if name in r["metrics"]]
            vb = [r["metrics"][name] for r in b[workload] if name in r["metrics"]]
            if not va or not vb:
                continue
            word, won = verdict(va, vb, m["better"], m["bound"])
            qa, qb = quartiles(va), quartiles(vb)
            print(f"  {name:12s} {m['unit']:6s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  B won {won:.0%} of pairs  "
                  f"bound {m['bound']}: {word}")
    return 0


def main(argv: list[str] | None = None) -> int:
    # turn SIGTERM into SystemExit, so _timed_child stops its child first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = _load(BENCH / "workloads.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*spec["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed, >= 0 (default: the workload's default_seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=WORK / "results.jsonl",
                        help="JSON-lines file each run record is appended to")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    try:
        bench = _load(ROOT / "BENCHMARK.json")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare, bench, spec)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "mkdvlab" / "cli.py").is_file():
        print(f"error: no mkdvlab sources under {SRC}", file=sys.stderr)
        return 2

    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for table in (spec["reported_metrics"], spec["layer_map"]):
        units.update({k: v["unit"] for k, v in table.items()})
    names = [m["name"] for m in bench[section]]
    chosen = list(spec["workloads"]) if args.workload == "all" else [args.workload]

    records = []
    for name in chosen:
        wl = spec["workloads"][name]
        seed = args.seed if args.seed is not None else wl["default_seed"]
        try:
            record = run_workload(name, wl, seed, seconds, bool(args.trace))
        except CheckoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _print_run(record, units)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        records.append(record)

    lines = [_result_line(r, names, units) for r in records]
    line = {
        "correct": all(r["correct"] for r in lines),
        "attempted": sum(r["attempted"] for r in lines),
        "failed": sum(r["failed"] for r in lines),
        "metrics": lines[0]["metrics"] if len(lines) == 1 else {
            f"{r['workload']}.{n}": m
            for r, one in zip(records, lines)
            for n, m in one["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
