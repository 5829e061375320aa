"""End-to-end runs of the experiment CLI in subprocesses."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mkdvlab
import mkdvlab.cli
from mkdvlab import (
    cosine_field,
    phase_from_obj,
    phase_to_obj,
    solve_reference,
    trajectory_from_obj,
    trajectory_to_obj,
)
from mkdvlab.cli import MODES, _resolve
from mkdvlab.reference import ETDConfig

from golden.generate_resolved_configs import (
    INITIAL_DATA,
    OUT as RESOLVED_CONFIGS,
    SECTIONS,
    minimal,
    outcome,
)


# Directory holding the imported package; children run with cwd=tmp_path,
# where a relative PYTHONPATH entry such as "src" no longer resolves.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(mkdvlab.__file__)))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def clean_env():
    env = dict(os.environ)
    env.pop("OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return env


def run_cli(tmp_path, doc, *extra, env=None, executable=None):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    cmd = executable or [sys.executable, "-m", "mkdvlab.cli"]
    return subprocess.run(
        [*cmd, "--config", str(cfg), *extra],
        capture_output=True,
        text=True,
        env=env or clean_env(),
        cwd=tmp_path,
    )


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestHappyPaths:
    def test_decompose_check(self, tmp_path):
        out = tmp_path / "out"
        r = run_cli(tmp_path, {"mode": "decompose_check"}, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        report = load(out / "report.json")
        assert report["mode"] == "decompose_check"
        assert report["version"] == mkdvlab.__version__
        assert report["results"]["decomposition_max_err"] < 1e-12
        assert set(report["artifacts"]) == {"resolved_config.json", "report.json"}
        assert "decomposition_max_err" in r.stdout

    def test_simulate_artifacts(self, tmp_path):
        out = tmp_path / "out"
        doc = {"mode": "simulate", "grid": {"K": 16, "M": 8, "T": 0.01}}
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        with open(out / "conserved.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "mass", "l2", "energy"]
        assert rows[1] == ["0.0", "0.0", "0.5", "0.21874999999999994"]
        assert len(rows) == 9
        # the stored trajectory reproduces an in-process rerun exactly
        u = trajectory_from_obj(load(out / "trajectory.json"))
        v = solve_reference(cosine_field(16), 0.01, ETDConfig(dt=1e-3), 8)
        assert np.max(np.abs(u.coeffs - v.coeffs)) == 0.0
        assert load(out / "report.json")["results"]["mass_drift"] == 0.0

    def test_gauge_solve_artifacts(self, tmp_path):
        out = tmp_path / "out"
        doc = {"mode": "gauge_solve", "grid": {"K": 8, "M": 16, "T": 0.01}}
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        names = set(os.listdir(out))
        assert {
            "picard_report.json",
            "z_trajectory.json",
            "u_trajectory.json",
            "phase.json",
            "resolved_config.json",
            "report.json",
        } <= names
        picard = load(out / "picard_report.json")
        assert picard["converged"] is True
        assert picard["version"] == mkdvlab.__version__
        u = trajectory_from_obj(load(out / "u_trajectory.json"))
        assert np.max(np.abs(u.frame(0).coeffs - cosine_field(8).coeffs)) == 0.0

    def test_gauge_solve_frame_tables_reserialize(self, tmp_path):
        # the streamed tables are the bytes json.dump(..., indent=2) writes
        out = tmp_path / "out"
        doc = {
            "mode": "gauge_solve",
            "grid": {"K": 8, "M": 16, "T": 0.01},
            "initial_data": {"kind": "seeded-random", "seed": 3},
        }
        assert run_cli(tmp_path, doc, "--output-dir", str(out)).returncode == 0
        for name, parse, dump in (
            ("z_trajectory.json", trajectory_from_obj, trajectory_to_obj),
            ("u_trajectory.json", trajectory_from_obj, trajectory_to_obj),
            ("phase.json", phase_from_obj, phase_to_obj),
        ):
            text = (out / name).read_text(encoding="utf-8")
            assert json.dumps(dump(parse(json.loads(text))), indent=2) + "\n" == text

    def test_simulate_trajectory_reserializes(self, tmp_path):
        # a cosine run's frame 0 has +0.0 imaginary parts at k and -k, later
        # frames conjugate pairs: the writer copies the one, flips the other
        out = tmp_path / "out"
        doc = {"mode": "simulate", "grid": {"K": 8, "M": 8, "T": 0.01}}
        assert run_cli(tmp_path, doc, "--output-dir", str(out)).returncode == 0
        text = (out / "trajectory.json").read_text(encoding="utf-8")
        tr = trajectory_from_obj(json.loads(text))
        assert not np.signbit(tr.coeffs[0].imag).any()
        assert json.dumps(trajectory_to_obj(tr), indent=2) + "\n" == text

    def test_compare_mode(self, tmp_path):
        out = tmp_path / "out"
        doc = {"mode": "compare", "grid": {"K": 8, "M": 16, "T": 0.01}}
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        with open(out / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["frame", "t", "hs_distance"]
        assert len(rows) == 17
        results = load(out / "report.json")["results"]
        assert results["picard_converged"] is True
        # max_hs_distance is the H^0 distance, and says so
        assert results["s"] == 0.0
        assert results["max_hs_distance"] < 1e-6
        assert max(float(row[2]) for row in rows[1:]) == results["max_hs_distance"]
        # the gap in the paper's norm H^{s0}, s0 > 0, bounds the H^0 gap mode by mode
        assert results["s0"] == 0.3
        assert results["max_hs_distance_s0"] >= results["max_hs_distance"] > 0.0

    def test_q_solve(self, tmp_path):
        out = tmp_path / "out"
        doc = {"mode": "q_solve", "grid": {"K": 8, "M": 16, "T": 0.01}}
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        results = load(out / "report.json")["results"]
        assert results["sweeps"] == 2
        assert results["residual"] == 0.0
        assert set(results) == {"sweeps", "residual", "update_norms", "ratios"}
        phase = load(out / "phase.json")
        assert [val for _, val in phase["frames"][0]] == [0.0] * 17

    def test_q_solve_is_one_gauge_solve_iterate(self, tmp_path):
        # q_solve runs picard_solve with max_iters = 1: its table is the one
        # gauge_solve writes after one iterate, and its results the
        # certificate gauge_solve keeps in its reports
        base = {
            "grid": {"K": 16, "M": 32, "T": 0.01},
            "initial_data": {"kind": "seeded-random", "seed": 3},
        }
        one = {"picard": {"max_iters": 1}}
        q, g = tmp_path / "q", tmp_path / "g"
        r = run_cli(tmp_path, {**base, "mode": "q_solve"}, "--output-dir", str(q))
        assert r.returncode == 0, r.stderr
        r = run_cli(tmp_path, {**base, **one, "mode": "gauge_solve"}, "--output-dir", str(g))
        assert r.returncode == 0, r.stderr
        assert (q / "phase.json").read_bytes() == (g / "phase.json").read_bytes()
        certificate = load(q / "report.json")["results"]
        assert certificate["sweeps"] >= 2
        assert load(g / "picard_report.json")["phase_solve"] == certificate
        assert load(g / "report.json")["results"]["phase_solve"] == certificate

    def test_smoothing_csv(self, tmp_path):
        out = tmp_path / "out"
        doc = {"mode": "smoothing", "grid": {"K": 8, "M": 8, "T": 0.01}}
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        with open(out / "smoothing.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "t",
            "remainder_hs1",
            "gap_sum_weight1",
            "gap_sum_upgraded",
            "gap_sup_weight1",
        ]
        assert rows[1] == ["0.0", "0.0", "0.0", "0.0", "0.0"]
        results = load(out / "report.json")["results"]
        assert set(results["sups"]) == {
            "remainder_hs1",
            "gap_sum_weight1",
            "gap_sum_upgraded",
            "gap_sup_weight1",
        }

    def test_probe700_runs(self, tmp_path):
        out = tmp_path / "out"
        doc = {
            "mode": "probe700",
            "grid": {"K": 8, "M": 16, "T": 0.01},
            "ensemble": {"seed": 2, "count": 3, "decay_exponent": 1.0},
        }
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        rep = load(out / "probe_report.json")
        assert rep["kind"] == "probe700"
        assert rep["argmax_sample_file"] == "argmax_sample.json"
        sample = load(out / "argmax_sample.json")
        assert sample["ratio"] == rep["ratios_summary"]["max"]

    def test_console_script(self, tmp_path):
        # Run the declared entry point through the wrapper an installer
        # would generate, so no install is needed.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "mkdvlab" in scripts
        module, func = scripts["mkdvlab"].split(":")
        exe = tmp_path / "mkdvlab"
        exe.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            'sys.argv[0] = "mkdvlab"\n'
            f"sys.exit({func}())\n"
        )
        exe.chmod(0o755)
        out = tmp_path / "out"
        r = run_cli(
            tmp_path, {"mode": "decompose_check"}, "--output-dir", str(out),
            executable=[str(exe)],
        )
        assert r.returncode == 0, r.stderr
        assert (out / "report.json").exists()


class TestDeterminism:
    def test_probe16_reruns_byte_identical(self, tmp_path):
        doc = {
            "mode": "probe16",
            "grid": {"K": 8, "M": 16, "T": 0.01},
            "ensemble": {"seed": 11, "count": 4, "decay_exponent": 1.0},
        }
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = run_cli(tmp_path, doc, "--output-dir", str(out), "--quiet")
            assert r.returncode == 0, r.stderr
            blobs.append((out / "probe_report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_flag_overrides_ensemble(self, tmp_path):
        doc = {
            "mode": "probe16",
            "grid": {"K": 8, "M": 16, "T": 0.01},
            "ensemble": {"seed": 11, "count": 4, "decay_exponent": 1.0},
        }
        out = tmp_path / "out"
        r = run_cli(tmp_path, doc, "--output-dir", str(out), "--seed", "12")
        assert r.returncode == 0, r.stderr
        resolved = load(out / "resolved_config.json")
        assert resolved["ensemble"]["seed"] == 12
        rep = load(out / "probe_report.json")
        assert rep["spec"]["seed"] == 12

    def test_seed_flag_supplies_missing_seed(self, tmp_path):
        doc = {"mode": "probe12", "ensemble": {"count": 2, "decay_exponent": 1.0, "K": 8}}
        out = tmp_path / "out"
        r = run_cli(tmp_path, doc, "--output-dir", str(out), "--seed", "5", "--quiet")
        assert r.returncode == 0, r.stderr
        assert load(out / "probe_report.json")["spec"]["seed"] == 5


class TestFlags:
    def test_mode_flag_overrides_config(self, tmp_path):
        out = tmp_path / "out"
        r = run_cli(
            tmp_path, {"mode": "simulate"}, "--output-dir", str(out),
            "--mode", "decompose_check",
        )
        assert r.returncode == 0, r.stderr
        assert load(out / "report.json")["mode"] == "decompose_check"

    def test_quiet_silences_stdout(self, tmp_path):
        out = tmp_path / "out"
        r = run_cli(tmp_path, {"mode": "decompose_check"}, "--output-dir", str(out), "--quiet")
        assert r.returncode == 0
        assert r.stdout == ""

    def test_output_dir_precedence(self, tmp_path):
        cfg_dir = tmp_path / "from_config"
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        doc = {"mode": "decompose_check", "output_dir": str(cfg_dir)}
        env = clean_env()
        env["OUTPUT_DIR"] = str(env_dir)

        r = run_cli(tmp_path, doc, "--output-dir", str(flag_dir), env=env)
        assert r.returncode == 0
        assert (flag_dir / "report.json").exists()
        assert not env_dir.exists() and not cfg_dir.exists()

        r = run_cli(tmp_path, doc, env=env)
        assert r.returncode == 0
        assert (env_dir / "report.json").exists()
        assert not cfg_dir.exists()

        r = run_cli(tmp_path, doc)
        assert r.returncode == 0
        assert (cfg_dir / "report.json").exists()

    def test_default_output_dir_is_runs(self, tmp_path):
        r = run_cli(tmp_path, {"mode": "decompose_check"})
        assert r.returncode == 0
        assert (tmp_path / "runs" / "report.json").exists()


class TestResolvedConfig:
    def test_defaults_made_explicit(self, tmp_path):
        out = tmp_path / "out"
        r = run_cli(tmp_path, {"mode": "decompose_check"}, "--output-dir", str(out))
        assert r.returncode == 0
        resolved = load(out / "resolved_config.json")
        assert resolved["version"] == mkdvlab.__version__
        assert resolved["grid"] == {"K": 16, "M": 64, "T": 0.01}
        assert resolved["params"]["s0"] == 0.3
        assert resolved["params"]["s1"] == pytest.approx(0.8)
        assert resolved["proxy"]["window"] == "hann"
        assert resolved["proxy"]["pad_factor"] == 4
        assert resolved["etd"] is None
        assert resolved["picard"] is None
        assert resolved["initial_data"] == {
            "kind": "cosine",
            "amplitude": 1.0,
            "harmonic": 1,
        }
        assert resolved["ensemble"] is None
        assert not any(key.startswith("_") for key in resolved)
        # the etd defaults are echoed by a mode that runs the ETD solver
        out = tmp_path / "simulate"
        r = run_cli(tmp_path, {"mode": "simulate"}, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        resolved = load(out / "resolved_config.json")
        assert resolved["etd"] == {"dt": 1e-3}
        # and the picard defaults by a mode that runs a Picard step
        out = tmp_path / "q_solve"
        r = run_cli(tmp_path, {"mode": "q_solve"}, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        resolved = load(out / "resolved_config.json")
        assert resolved["picard"]["tol"] == 1e-10
        assert resolved["picard"]["max_iters"] == 25

    def test_config_surface_matches_golden(self):
        # every echoed default, and the problem rows of a bad value at each key;
        # regenerate with tests/golden/generate_resolved_configs.py on purpose only
        golden = load(RESOLVED_CONFIGS)
        for mode in MODES:
            echo = json.loads(json.dumps(outcome(minimal(mode), None)["echo"]))
            assert echo == golden["echo"][mode], mode
        for case in golden["cases"]:
            got = json.loads(json.dumps(outcome(case["doc"], case["seed"])))
            assert got == case, case["doc"]

    def test_initial_data_kinds(self, tmp_path):
        doc = {
            "mode": "decompose_check",
            "initial_data": {"kind": "modes-list", "modes": [[1, 0.0, -0.5], [-1, 0.0, 0.5]]},
        }
        out = tmp_path / "a"
        assert run_cli(tmp_path, doc, "--output-dir", str(out)).returncode == 0
        assert load(out / "report.json")["results"]["decomposition_max_err"] < 1e-12

        doc = {
            "mode": "decompose_check",
            "initial_data": {"kind": "seeded-random", "seed": 5, "decay_exponent": 2.0},
        }
        out = tmp_path / "b"
        assert run_cli(tmp_path, doc, "--output-dir", str(out)).returncode == 0
        resolved = load(out / "resolved_config.json")
        assert resolved["initial_data"]["seed"] == 5

    def test_modes_list_is_conjugate_symmetrized(self, tmp_path):
        out = tmp_path / "out"
        doc = {
            "mode": "simulate",
            "grid": {"K": 8, "M": 8, "T": 0.01},
            "initial_data": {"kind": "modes-list", "modes": [[1, 0.5, 0.25]]},
        }
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        u0 = trajectory_from_obj(load(out / "trajectory.json")).frame(0)
        assert u0.mode(1) == 0.5 + 0.25j
        assert u0.mode(-1) == 0.5 - 0.25j

    def test_modes_list_accepts_integral_float_wavenumber(self, tmp_path):
        out = tmp_path / "out"
        doc = {
            "mode": "simulate",
            "grid": {"K": 8, "M": 8, "T": 0.01},
            "initial_data": {"kind": "modes-list", "modes": [[2.0, 0.5, 0.0]]},
        }
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        assert trajectory_from_obj(load(out / "trajectory.json")).frame(0).mode(2) == 0.5

    @pytest.mark.parametrize("mode", ["gauge_solve", "decompose_check"])
    def test_etd_checked_only_where_it_runs(self, tmp_path, mode):
        out = tmp_path / "out"
        doc = {"mode": mode, "grid": {"K": 8, "M": 16}, "etd": {"dt": -1.0}}
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        assert load(out / "resolved_config.json")["etd"] is None
        assert load(out / "report.json")["resolved_config"]["etd"] is None
        # the section's keys are still checked
        r = run_cli(tmp_path, {**doc, "etd": {"bogus": 1}})
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert [row["field"] for row in err["problems"]] == ["etd.bogus"]

    @pytest.mark.parametrize("mode", ["simulate", "smoothing", "decompose_check"])
    def test_picard_checked_only_where_it_runs(self, tmp_path, mode):
        out = tmp_path / "out"
        doc = {"mode": mode, "grid": {"K": 8, "M": 4, "T": 0.01}}
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == 0, r.stderr
        assert load(out / "resolved_config.json")["picard"] is None
        assert load(out / "report.json")["resolved_config"]["picard"] is None
        # the section's keys are still checked
        r = run_cli(tmp_path, {**doc, "picard": {"bogus": 1}})
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert [row["field"] for row in err["problems"]] == ["picard.bogus"]


class TestFailurePaths:
    def test_empty_config_rejected(self, tmp_path):
        r = run_cli(tmp_path, {})
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert err["error"] == "invalid-config"
        fields = {row["field"]: row["message"] for row in err["problems"]}
        assert "missing" in fields["mode"]

    def test_unknown_section_key(self, tmp_path):
        r = run_cli(tmp_path, {"mode": "simulate", "grid": {"K": 8, "bogus": 1}})
        assert r.returncode == 2
        err = json.loads(r.stderr)
        fields = [row["field"] for row in err["problems"]]
        assert "grid.bogus" in fields

    def test_unknown_mode(self, tmp_path):
        r = run_cli(tmp_path, {"mode": "explode"})
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert any(row["field"] == "mode" for row in err["problems"])

    def test_probe_needs_ensemble(self, tmp_path):
        r = run_cli(tmp_path, {"mode": "probe16"})
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert any(row["field"] == "ensemble" for row in err["problems"])
        # a section that is present but empty names each required key instead
        rows = outcome({"mode": "probe16", "ensemble": {}}, None)["problems"]
        assert [row["field"] for row in rows] == [
            "ensemble.seed", "ensemble.count", "ensemble.decay_exponent"
        ]

    @pytest.mark.parametrize(
        "section, key",
        [
            ("params", "b"),
            ("proxy", "s"),
            ("proxy", "b"),
            ("picard", "T"),
            ("picard", "M"),
            ("picard", "window"),
            ("picard", "pad_factor"),
            ("proxy", "phase"),
        ],
    )
    def test_removed_key_is_unknown(self, tmp_path, section, key):
        # b is always 1/2 + 2 delta; the proxy exponents come from params and
        # its phase from the profile, and picard takes its horizon and frames
        # from grid and its window from proxy
        r = run_cli(tmp_path, {"mode": "gauge_solve", section: {key: 0.51}})
        assert r.returncode == 2, r.stderr
        err = json.loads(r.stderr)
        assert err["problems"] == [{"field": f"{section}.{key}", "message": "unknown key"}]

    @pytest.mark.parametrize("mode", ["simulate", "gauge_solve"])
    @pytest.mark.parametrize(
        "key", ["linear_phase", "contour_points", "nonlinearity_enabled", "scheme"]
    )
    def test_removed_etd_key_is_unknown(self, tmp_path, key, mode):
        # the oracle's linear part is always Airy, its contour has a fixed 32
        # points, its nonlinearity is always on and its scheme is ETDRK4; etd
        # keys are checked in every mode, also where the oracle does not run
        r = run_cli(tmp_path, {"mode": mode, "etd": {key: 32}})
        assert r.returncode == 2, r.stderr
        err = json.loads(r.stderr)
        assert err["problems"] == [{"field": f"etd.{key}", "message": "unknown key"}]

    @pytest.mark.parametrize("mode", ["gauge_solve", "compare", "q_solve"])
    def test_picard_needs_eight_frames(self, tmp_path, mode):
        # grid accepts M = 7, the Picard modes' norm proxy does not
        r = run_cli(tmp_path, {"mode": mode, "grid": {"M": 7}})
        assert r.returncode == 2, r.stderr
        assert json.loads(r.stderr)["problems"] == [
            {"field": "picard", "message": "M must be an integer >= 8, got 7"}
        ]

    def test_seeded_random_needs_seed(self, tmp_path):
        doc = {"mode": "decompose_check", "initial_data": {"kind": "seeded-random"}}
        r = run_cli(tmp_path, doc)
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert any(row["field"] == "initial_data.seed" for row in err["problems"])

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"grid": {"K": "x"}}, "grid.K"),
            ({"grid": {"K": None}}, "grid.K"),
            ({"grid": {"K": 8.7}}, "grid.K"),
            ({"initial_data": {"kind": "seeded-random", "seed": -1}}, "initial_data.seed"),
            ({"mode": "simulate", "grid": {"T": float("inf")}}, "grid.T"),
            ({"initial_data": {"amplitude": float("nan")}}, "initial_data.amplitude"),
            ({"mode": "gauge_solve", "picard": {"phase_max_sweeps": 0}}, "picard"),
            ({"mode": "q_solve", "picard": {"phase_max_sweeps": -1}}, "picard"),
            ({"mode": "gauge_solve", "picard": {"phase_tol": -1}}, "picard"),
            ({"mode": "q_solve", "proxy": {"window": "x"}}, "proxy"),
            ({"mode": "gauge_solve", "proxy": {"pad_factor": -1}}, "proxy"),
            (
                {"initial_data": {"kind": "modes-list", "modes": [[1, float("nan"), 0]]}},
                "initial_data.modes",
            ),
            (
                {"initial_data": {"kind": "modes-list", "modes": [[1, float("inf"), 0]]}},
                "initial_data.modes",
            ),
            (
                {"initial_data": {"kind": "modes-list", "modes": [[1, True, 0]]}},
                "initial_data.modes",
            ),
            ({"initial_data": {"kind": "cosine", "seed": 3}}, "initial_data.seed"),
            ({"initial_data": {"kind": "seeded-random", "seed": 1e300}}, "initial_data"),
            # below decay -255.8 at K = 16 the top mode's weight overflows
            (
                {"initial_data": {"kind": "seeded-random", "seed": 3, "decay_exponent": -400}},
                "initial_data",
            ),
        ],
        ids=[
            "K-string", "K-null", "K-fraction", "negative-seed",
            "T-infinite", "amplitude-nan", "no-phase-sweeps", "negative-phase-sweeps",
            "negative-phase-tol", "proxy-window-string", "proxy-negative-pad",
            "mode-row-nan", "mode-row-infinite", "mode-row-bool",
            "cosine-seed", "seed-past-64-bits", "seeded-random-overflow",
        ],
    )
    def test_bad_value_is_a_field_problem(self, tmp_path, doc, field):
        r = run_cli(tmp_path, {"mode": "decompose_check", **doc})
        assert r.returncode == 2, r.stderr
        err = json.loads(r.stderr)
        assert err["error"] == "invalid-config"
        assert [row["field"] for row in err["problems"]] == [field]

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"grid": {"K": 1_000_000_000_000}}, "grid"),
            ({"mode": "gauge_solve", "proxy": {"pad_factor": 10**12}}, "picard"),
            (
                {
                    "mode": "probe16",
                    "proxy": {"pad_factor": 10**12},
                    "ensemble": {"seed": 1, "count": 2, "decay_exponent": 1.0},
                },
                "ensemble",
            ),
            # (2K + 1) * 32 contour points is 2^26 + 32 at K = 2^20
            ({"mode": "simulate", "grid": {"K": 2**20, "M": 2}}, "etd"),
            ({"mode": "smoothing", "grid": {"T": 1e300}}, "etd"),
            ({"mode": "compare", "grid": {"T": 0.9}, "etd": {"dt": 1e-7}}, "etd"),
            (
                {"mode": "probe12", "ensemble": {"seed": 1, "count": 10**12, "decay_exponent": 1.0}},
                "ensemble",
            ),
            ({"mode": "gauge_solve", "picard": {"phase_max_sweeps": 1e300}}, "picard"),
            (
                {
                    "mode": "probe700",
                    "ensemble": {"seed": 1, "count": 1, "K": 128, "decay_exponent": 1.0},
                },
                "ensemble",
            ),
        ],
        ids=[
            "frame-table", "padded-proxy", "padded-ensemble", "etd-contour",
            "etd-substeps", "etd-substeps-compare", "ensemble-count", "phase-sweeps",
            "probe700-triples",
        ],
    )
    def test_size_ceiling_is_a_field_problem(self, tmp_path, doc, field):
        r = run_cli(tmp_path, {"mode": "decompose_check", **doc})
        assert r.returncode == 2, r.stderr
        err = json.loads(r.stderr)
        assert err["error"] == "invalid-config"
        assert [row["field"] for row in err["problems"]] == [field]
        assert "exceeds the ceiling" in err["problems"][0]["message"]

    def test_ceilings_admit_their_edge(self):
        # (T / dt) * (2K + 1) = (1/48) * 2^30 * 3 is exactly 2^26, which is allowed
        doc = {"mode": "simulate", "grid": {"K": 1, "T": 1 / 48}, "etd": {"dt": 2.0**-30}}
        assert outcome(doc, None)["problems"] == []
        doc["grid"]["T"] = 0.021
        assert [row["field"] for row in outcome(doc, None)["problems"]] == ["etd"]

    @pytest.mark.parametrize(
        "rows",
        [[[1, 0.5, 0.0], [-1, 0.3, 0.0]], [[0, 0.5, 0.1]], [[1.7, 0.5, 0.0]]],
        ids=["not-conjugate", "imaginary-mean", "fractional-k"],
    )
    def test_modes_list_must_describe_a_real_field(self, tmp_path, rows):
        doc = {"mode": "simulate", "initial_data": {"kind": "modes-list", "modes": rows}}
        r = run_cli(tmp_path, doc)
        assert r.returncode == 2, r.stderr
        err = json.loads(r.stderr)
        assert [row["field"] for row in err["problems"]] == ["initial_data.modes"]

    def test_missing_config_file(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "mkdvlab.cli", "--config", str(tmp_path / "missing.json")],
            capture_output=True,
            text=True,
            env=clean_env(),
            cwd=tmp_path,
        )
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == "config-unreadable"

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        r = subprocess.run(
            [sys.executable, "-m", "mkdvlab.cli", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env=clean_env(),
            cwd=tmp_path,
        )
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == "config-parse-error"

    def test_probe700_rejects_modulation_bumps(self, tmp_path):
        doc = {
            "mode": "probe700",
            "grid": {"K": 8, "M": 16, "T": 0.01},
            "ensemble": {"seed": 2, "count": 1, "decay_exponent": 1.0, "modulation_bumps": 0.5},
        }
        r = run_cli(tmp_path, doc, "--output-dir", str(tmp_path / "out"))
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert err["error"] == "ConfigError"
        assert "modulation_bumps" in err["message"]

    @pytest.mark.parametrize(
        "doc, code, error",
        [
            (
                {
                    "mode": "probe700",
                    "grid": {"K": 8, "M": 16, "T": 0.01},
                    "ensemble": {"seed": 2, "count": 1, "decay_exponent": 1.0,
                                 "modulation_bumps": 0.5},
                },
                2,
                "ConfigError",
            ),
            (
                {
                    "mode": "simulate",
                    "grid": {"K": 8, "M": 8},
                    "initial_data": {"kind": "seeded-random", "seed": 3, "decay_exponent": -250},
                },
                3,
                "InstabilityError",
            ),
        ],
        ids=["library-config-error", "instability"],
    )
    def test_failed_run_leaves_a_fresh_directory_empty(self, tmp_path, doc, code, error):
        # resolved_config.json is written with report.json, after the mode
        # ran; the simulate run warns of its step size before the error JSON
        out = tmp_path / "out"
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == code
        assert json.loads(r.stderr[r.stderr.index("{\n") :])["error"] == error
        assert out.is_dir() and list(out.iterdir()) == []

    def test_numerical_failure_exits_3(self, tmp_path):
        doc = {
            "mode": "gauge_solve",
            "grid": {"K": 8, "M": 16, "T": 0.5},
            "picard": {"phase_max_sweeps": 1},
        }
        r = run_cli(tmp_path, doc, "--output-dir", str(tmp_path / "out"))
        assert r.returncode == 3
        err = json.loads(r.stderr)
        assert err["error"] == "ConvergenceError"
        assert err["residual"] > 0.0

    def test_non_finite_decomposition_exits_3(self, tmp_path):
        # the cube of an amplitude-1e200 cosine overflows, so NR + R is NaN
        doc = {
            "mode": "decompose_check",
            "grid": {"K": 4, "M": 8},
            "initial_data": {"kind": "cosine", "amplitude": 1e200},
        }
        out = tmp_path / "out"
        r = run_cli(tmp_path, doc, "--output-dir", str(out))
        assert r.returncode == 3
        assert json.loads(r.stderr)["error"] == "InstabilityError"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"mode": "decompose_check"},
            {"mode": "gauge_solve", "grid": {"K": 8}},
        ],
        ids=["decompose_check", "gauge_solve"],
    )
    def test_overflow_leaves_only_the_error_json(self, tmp_path, doc):
        # a finite draw whose top weight is about 1e301 overflows the run's
        # arithmetic; numpy's warnings used to precede the error JSON
        doc = {**doc, "initial_data": {"kind": "seeded-random", "seed": 3, "decay_exponent": -250}}
        r = run_cli(tmp_path, doc, "--output-dir", str(tmp_path / "out"))
        assert r.returncode == 3
        assert json.loads(r.stderr)["error"] == "InstabilityError"

    @pytest.mark.parametrize(
        "doc, warning, code",
        [
            ({"mode": "q_solve", "grid": {"K": 8, "M": 16, "T": 1.5}}, "TimeHorizonWarning", 0),
            (
                {
                    "mode": "simulate",
                    "grid": {"K": 8, "M": 16, "T": 0.01},
                    "etd": {"dt": 0.005},
                    "initial_data": {"amplitude": 100.0},
                },
                "StepSizeWarning",
                3,
            ),
        ],
    )
    def test_package_warnings_still_print(self, tmp_path, doc, warning, code):
        r = run_cli(tmp_path, doc, "--output-dir", str(tmp_path / "out"), "--quiet")
        assert r.returncode == code
        assert warning in r.stderr

    def test_q_solve_warns_once(self, tmp_path):
        # under -W always each issue prints: the one-iterate copy of the
        # picard config must not issue the horizon warning a second time
        doc = {"mode": "q_solve", "grid": {"K": 8, "M": 16, "T": 1.0}}
        always = [sys.executable, "-W", "always", "-m", "mkdvlab.cli"]
        r = run_cli(tmp_path, doc, "--output-dir", str(tmp_path / "out"), executable=always)
        assert r.returncode == 0, r.stderr
        assert r.stderr.count("TimeHorizonWarning") == 1


# Every key _resolve reads, per section, with a few values of each JSON type.
CONFIG_KEYS = {name: keys for name, (_, keys) in SECTIONS.items()}
CONFIG_KEYS["initial_data"] = tuple(INITIAL_DATA)
json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=40),
    st.floats(min_value=-1.0, max_value=40.0),
    st.sampled_from((float("nan"), float("inf"), 1e300, 2**70)),
    st.sampled_from(("", "x", "8", "hann", "airy", "cosine", "seeded-random", "modes-list")),
    st.lists(st.integers(min_value=-2, max_value=9), max_size=3),
    st.lists(st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=1)), max_size=4), max_size=3),
)


@st.composite
def config_docs(draw):
    doc = {"mode": draw(st.sampled_from(MODES + ("bogus",)))}
    for name in draw(st.sets(st.sampled_from(sorted(CONFIG_KEYS)))):
        keys = draw(st.sets(st.sampled_from(CONFIG_KEYS[name])))
        doc[name] = {key: draw(json_values) for key in keys}
    return doc


class TestConfigFuzz:
    @settings(max_examples=300)
    @given(config_docs())
    def test_resolve_reports_problems_instead_of_raising(self, doc):
        args = argparse.Namespace(mode=None, seed=None, output_dir="unused")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resolved, problems = _resolve(doc, args)
        assert (resolved is None) == bool(problems)


# Whole-CLI fuzz: valid values on small grids, each replaced now and then by
# one that must be rejected.
BAD_VALUES = (None, True, "x", -1, 0, 1e300, float("nan"), float("inf"), [1], {})


def maybe_bad(good):
    return st.one_of(good, good, good, st.sampled_from(BAD_VALUES))


def small_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


FUZZ_KEYS = {
    "grid": {
        "K": st.integers(1, 8),
        "M": st.integers(2, 16),
        "T": small_floats(0.002, 0.05),
    },
    "initial_data": {
        "kind": st.sampled_from(("cosine", "seeded-random", "modes-list")),
        "amplitude": small_floats(-2.0, 2.0),
        "harmonic": st.integers(1, 8),
        "seed": st.integers(0, 1000),
        "decay_exponent": small_floats(0.5, 3.0),
        "modes": st.lists(
            st.tuples(st.integers(-8, 8), small_floats(-1.0, 1.0), small_floats(-1.0, 1.0)).map(
                list
            ),
            min_size=1,
            max_size=3,
        ),
    },
    "params": {"s0": small_floats(0.26, 0.49)},
    "proxy": {
        "window": st.sampled_from(("hann", "rect")),
        "pad_factor": st.integers(1, 4),
    },
    "etd": {"dt": small_floats(1e-3, 1e-2)},
    "picard": {
        "tol": small_floats(1e-12, 1e-6),
        "max_iters": st.integers(1, 8),
        "phase_tol": small_floats(1e-14, 1e-8),
        "phase_max_sweeps": st.integers(1, 60),
    },
    "ensemble": {
        "seed": st.integers(0, 100),
        "count": st.integers(1, 3),
        "K": st.integers(1, 8),
        "decay_exponent": small_floats(0.5, 2.0),
        "M": st.integers(8, 16),
        "T": small_floats(0.1, 0.5),
        "k_values": st.lists(st.integers(1, 8), min_size=1, max_size=2),
        "modulation_bumps": small_floats(0.0, 1.0),
    },
}


@st.composite
def cli_docs(draw):
    doc = {"mode": draw(st.sampled_from(MODES))}
    for name in draw(st.sets(st.sampled_from(sorted(FUZZ_KEYS)))):
        keys = draw(st.sets(st.sampled_from(sorted(FUZZ_KEYS[name]))))
        doc[name] = {key: draw(maybe_bad(FUZZ_KEYS[name][key])) for key in keys}
    if doc["mode"].startswith("probe"):
        # the required ensemble keys, so that most probe draws get to run
        ensemble = doc.setdefault("ensemble", {})
        for key in ("seed", "count", "decay_exponent"):
            if key not in ensemble:
                ensemble[key] = draw(FUZZ_KEYS["ensemble"][key])
    return doc


def main_in_process(config, out):
    """(exit code, stderr) of mkdvlab.cli.main, with warnings shown as a fresh process would."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        try:
            code = mkdvlab.cli.main(["--config", str(config), "--output-dir", str(out), "--quiet"])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def artifacts(out):
    """Artifact bytes by name, with the output directory masked."""
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes().replace(str(out).encode(), b"<out>") for p in out.iterdir()}


def test_fuzz_keys_are_config_keys():
    # a key the config no longer has would only ever draw "unknown key"
    for name, keys in FUZZ_KEYS.items():
        assert set(keys) <= set(CONFIG_KEYS[name]), name


def round_trip(doc):
    """The echo of doc and the echo of that echo read back as a config, or None."""
    echo = outcome(doc, None)["echo"]
    if echo is None:
        return None
    echo = json.loads(json.dumps(echo))
    return echo, outcome(echo, None)["echo"]


class TestEchoRoundTrip:
    @pytest.mark.parametrize("mode", MODES)
    def test_minimal_document(self, mode):
        echo, again = round_trip(minimal(mode))
        assert again == echo

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(config_docs(), cli_docs()))
    def test_fuzz_document(self, doc):
        pair = round_trip(doc)
        if pair is not None:
            assert pair[1] == pair[0]


class TestWholeCliFuzz:
    @settings(max_examples=25, deadline=None)
    @given(cli_docs())
    def test_exit_codes_and_reruns(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(doc))
            first = main_in_process(config, Path(tmp) / "a")
            second = main_in_process(config, Path(tmp) / "b")
            assert first[0] in (0, 2, 3), first[1]
            assert "Traceback" not in first[1]
            assert second[0] == first[0]
            assert artifacts(Path(tmp) / "b") == artifacts(Path(tmp) / "a")


class TestCacheIsolation:
    def test_results_do_not_depend_on_earlier_runs(self, tmp_path):
        # the probe runs share their grids but not their profiles, so the warm
        # runs meet entries another profile left behind
        ensemble = {"seed": 5, "count": 3, "K": 16, "decay_exponent": 1.0}
        docs = {
            "probe12": {
                "mode": "probe12",
                "initial_data": {"kind": "seeded-random", "seed": 3},
                "ensemble": ensemble,
            },
            "probe16": {
                "mode": "probe16",
                "initial_data": {"kind": "seeded-random", "seed": 4},
                "ensemble": ensemble,
            },
            "gauge_solve": {"mode": "gauge_solve", "grid": {"K": 8, "M": 16, "T": 0.01}},
        }
        configs = {}
        for name, doc in docs.items():
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(doc))
            cold = main_in_process(config, tmp_path / f"{name}-cold")
            assert cold[0] == 0, cold[1]
            configs[name] = config
        for name in reversed(list(docs)):
            warm = main_in_process(configs[name], tmp_path / f"{name}-warm")
            assert warm[0] == 0, warm[1]
        for name in docs:
            cold = artifacts(tmp_path / f"{name}-cold")
            assert cold and artifacts(tmp_path / f"{name}-warm") == cold

    def test_probe_run_releases_its_tables(self, tmp_path):
        # a run keeps no derived table once it returns: after a warm-up run,
        # a K = 32 probe700 run leaves the traced size where it found it (the
        # module-level stores once kept 2.74 MB of its tables)
        ensemble = {"count": 3, "decay_exponent": 1.0}
        configs = []
        for seed, K in ((1, 8), (2, 32)):
            config = tmp_path / f"probe700-{K}.json"
            doc = {"mode": "probe700", "ensemble": {**ensemble, "seed": seed, "K": K}}
            config.write_text(json.dumps(doc))
            configs.append(config)
        tracemalloc.start()
        try:
            assert main_in_process(configs[0], tmp_path / "warm")[0] == 0
            before = tracemalloc.get_traced_memory()[0]
            code, err = main_in_process(configs[1], tmp_path / "run")
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert abs(after - before) < 0.5e6
