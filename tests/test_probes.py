"""Randomized estimate probes and smoothing diagnostics."""

import hashlib
import json
import math

import numpy as np
import pytest

from conftest import (
    airy_exact,
    gauged_remainder_residual,
    modulus_gap_metric,
    strong_form_residual,
)
from mkdvlab import (
    ConfigError,
    EnsembleSpec,
    FieldError,
    FourierField,
    GridMismatchError,
    GridSpec,
    NormProxyConfig,
    SobolevIndex,
    Trajectory,
    cosine_field,
    duhamel_smoothing_ratio,
    field_from_modes,
    free_modulated_trajectory,
    nr_trilinear_naive,
    phase_rates,
    picard_solve,
    PicardConfig,
    probe_duhamel_smoothing,
    probe_quotient_form,
    probe_trilinear_bourgain,
    quotient_form_ratio,
    random_real_field,
    reconstruct_solution,
    smoothing_report,
    trilinear_bourgain_ratio,
    xinfty_hs_norm,
    ysb_norm_proxy,
)


class TestEnsembleSpec:
    def test_cutoff_defaults(self):
        assert EnsembleSpec(1, 4, 32, 1.0).cutoffs() == (8, 16, 32)
        assert EnsembleSpec(1, 4, 10, 1.0).cutoffs() == (8, 10)
        assert EnsembleSpec(1, 4, 8, 1.0).cutoffs() == (8,)
        assert EnsembleSpec(1, 4, 4, 1.0).cutoffs() == (4,)

    def test_explicit_k_values(self):
        spec = EnsembleSpec(1, 4, 16, 1.0, k_values=(4, 10))
        assert spec.cutoffs() == (4, 10, 16)
        assert EnsembleSpec(1, 4, 16, 1.0, k_values=(8, 16)).cutoffs() == (8, 16)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=-1),
            dict(seed=2**64),
            dict(count=0),
            dict(K=0),
            dict(M=4),
            dict(T=0.0),
            dict(modulation_bumps=-0.1),
            dict(k_values=()),
            dict(k_values=(3, 2)),
            dict(k_values=(2, 2)),
            dict(k_values=(0, 4)),
            dict(k_values=(4, 40)),
        ],
    )
    def test_rejects(self, kwargs):
        base = dict(seed=1, count=4, K=16, decay_exponent=1.0)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            EnsembleSpec(**base)

    def test_rejects_overflowing_decay(self):
        # the top mode's weight (1 + K^2)^(-decay/2) overflows below
        # decay = -1419.6 / ln(1 + K^2), about -340 at K = 8
        EnsembleSpec(seed=1, count=2, K=8, decay_exponent=-250)
        with pytest.raises(ConfigError, match="decay_exponent"):
            EnsembleSpec(seed=1, count=2, K=8, decay_exponent=-400)

    def test_to_obj_echoes_everything(self):
        spec = EnsembleSpec(7, 3, 16, 2.0, M=32, T=0.25)
        obj = spec.to_obj()
        assert obj["seed"] == 7
        assert obj["k_values"] == [8, 16]
        assert obj["params"]["s1"] == pytest.approx(0.8)
        assert obj["proxy"]["phase"] == "modified"


class TestFreeTrajectories:
    def test_formula(self):
        f = cosine_field(4)
        g = field_from_modes(4, {2: 0.3 - 0.1j}, symmetrize=True)
        grid = GridSpec(K=4, M=12, T=0.3)
        bumps = np.zeros(9)
        bumps[6] = 0.5
        bumps[2] = -0.5
        tr = free_modulated_trajectory(g, f, grid, bumps)
        phi = phase_rates(4, "modified", f) + bumps
        expected = g.coeffs[None, :] * np.exp(1j * np.outer(grid.times, phi))
        assert np.max(np.abs(tr.coeffs - expected)) == 0.0

    def test_modulus_is_conserved(self):
        f = cosine_field(3)
        g = cosine_field(3, amplitude=0.4)
        tr = free_modulated_trajectory(g, f, GridSpec(K=3, M=10, T=1.0))
        assert np.max(np.abs(np.abs(tr.coeffs) - np.abs(g.coeffs)[None, :])) < 1e-15

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            free_modulated_trajectory(
                cosine_field(3), cosine_field(4), GridSpec(K=4, M=8, T=1.0)
            )


def duhamel_oracle(forcing: Trajectory, f: FourierField) -> Trajectory:
    """Trapezoid Duhamel integral written as an explicit time loop."""
    K = forcing.K
    ks = np.arange(-K, K + 1)
    phi = ks.astype(float) ** 3 + ks * np.abs(f.coeffs) ** 2
    t = forcing.grid.times
    dt = forcing.grid.dt
    out = np.zeros_like(forcing.coeffs)
    for n in range(1, forcing.grid.M):
        acc = np.zeros(forcing.coeffs.shape[1], dtype=complex)
        for m in range(n):
            a = np.exp(-1j * phi * t[m]) * forcing.coeffs[m]
            b = np.exp(-1j * phi * t[m + 1]) * forcing.coeffs[m + 1]
            acc = acc + 0.5 * dt * (a + b)
        out[n] = np.exp(1j * phi * t[n]) * acc
    return Trajectory(forcing.grid, out)


class TestRatioFunctions:
    def test_smoothing_ratio_against_chained_ops(self):
        params = SobolevIndex()
        proxy = NormProxyConfig(params.s0, params.b, phase="modified")
        f = cosine_field(4)
        grid = GridSpec(K=4, M=16, T=0.5)
        gs = [
            field_from_modes(4, {1: 0.5, 3: 0.2j}, symmetrize=True),
            field_from_modes(4, {2: 0.4}, symmetrize=True),
            cosine_field(4, amplitude=0.7),
        ]
        us = [free_modulated_trajectory(g, f, grid) for g in gs]
        got = duhamel_smoothing_ratio(us[0], us[1], us[2], f, params, proxy)

        forcing = np.stack(
            [
                nr_trilinear_naive(us[0].frame(n), us[1].frame(n), us[2].frame(n)).coeffs
                for n in range(grid.M)
            ]
        )
        U = duhamel_oracle(Trajectory(grid, forcing), f)
        num = xinfty_hs_norm(U, params.s1)
        denom = math.prod(ysb_norm_proxy(u, proxy, f) for u in us)
        expected = num / (grid.T**params.delta * denom)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_ratios_are_scale_invariant(self):
        params = SobolevIndex()
        proxy = NormProxyConfig(params.s0, params.b, phase="modified")
        f = cosine_field(4)
        grid = GridSpec(K=4, M=16, T=0.5)
        g = cosine_field(4, amplitude=0.3)
        u = free_modulated_trajectory(g, f, grid)
        scaled = Trajectory(grid, 4.0 * u.coeffs)
        for fn in (duhamel_smoothing_ratio, trilinear_bourgain_ratio):
            base = fn(u, u, u, f, params, proxy)
            assert fn(scaled, scaled, u, f, params, proxy) == pytest.approx(
                base, rel=1e-12
            )

    def test_quotient_ratio_single_interaction(self):
        params = SobolevIndex()
        v1 = field_from_modes(4, {1: 1.0})
        v3 = field_from_modes(4, {2: 1.0})
        f = FourierField.zeros(4)
        got = quotient_form_ratio(v1, v1, v3, f, params, cutoff=0)
        # only (1,1,2): H(4) = 4 / (-3 * 2*3*3) = -2/27
        num = (2.0 / 27.0) * (1.0 + 16.0) ** (params.s1 / 2.0)
        denom = (2.0**0.15) ** 2 * (5.0**0.15)
        assert got == pytest.approx(num / denom, rel=1e-12)
        # (1,1,2) is comparable (kmax = 2 <= 2 kmin); nothing is separated
        assert quotient_form_ratio(v1, v1, v3, f, params, 0, "separated") == 0.0
        assert quotient_form_ratio(v1, v1, v3, f, params, 0, "comparable") == got


class TestProbeRuns:
    def test_deterministic_and_seed_sensitive(self):
        f = cosine_field(16)
        spec = EnsembleSpec(seed=5, count=6, K=16, decay_exponent=1.0)
        a = probe_duhamel_smoothing(f, spec)
        b = probe_duhamel_smoothing(f, spec)
        assert json.dumps(a.to_obj()) == json.dumps(b.to_obj())
        other = probe_duhamel_smoothing(
            f, EnsembleSpec(seed=6, count=6, K=16, decay_exponent=1.0)
        )
        assert json.dumps(a.to_obj()) != json.dumps(other.to_obj())

    def test_report_reductions(self):
        f = cosine_field(16)
        spec = EnsembleSpec(seed=3, count=8, K=16, decay_exponent=1.0)
        report = probe_duhamel_smoothing(f, spec)
        assert report.valid_samples == 8
        assert report.skipped == 0
        assert len(report.ratios) == 8
        summary = report.ratios_summary
        assert summary["max"] == max(report.ratios)
        assert summary["mean"] == pytest.approx(np.mean(report.ratios))
        # cumulative per-K rows never decrease and end at the headline max
        values = [r for _, r in report.per_K]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == summary["max"]
        assert report.argmax_sample["ratio"] == summary["max"]
        assert report.argmax_index == report.argmax_sample["sample"]

    def test_degenerate_ensemble_skips(self):
        f = cosine_field(8)
        spec = EnsembleSpec(seed=1, count=3, K=8, decay_exponent=1e6)
        report = probe_duhamel_smoothing(f, spec)
        assert report.valid_samples == 0
        assert report.skipped == 3
        assert report.ratios_summary == {"max": None, "mean": None, "p99": None}
        assert all(r is None for _, r in report.per_K)
        assert report.argmax_sample is None

    def test_bourgain_probe_runs(self):
        f = cosine_field(8)
        spec = EnsembleSpec(seed=2, count=4, K=8, decay_exponent=1.0)
        report = probe_trilinear_bourgain(f, spec)
        assert report.kind == "probe12"
        assert report.valid_samples == 4
        assert report.ratios_summary["max"] > 0.0

    def test_quotient_probe_case_bins(self):
        f = cosine_field(8)
        spec = EnsembleSpec(seed=4, count=5, K=8, decay_exponent=1.0)
        report = probe_quotient_form(f, spec)
        per_case = report.extras["per_case_max"]
        assert set(per_case) == {"comparable", "separated"}
        assert report.ratios_summary["max"] == pytest.approx(
            max(per_case.values()), rel=1e-15
        )
        assert report.argmax_sample["frequency_cutoff"] == 0
        assert "fields" in report.argmax_sample

    @pytest.mark.parametrize(
        "probe, ratios, argmax_digest",
        [
            (probe_trilinear_bourgain,
             ("0x1.d93e73a8a0f41p-7", "0x1.da47939eb3ab4p-7", "0x1.e788e159d8ae3p-7"),
             "c3c67f6b296672be"),
            (probe_duhamel_smoothing,
             ("0x1.52e71df690654p-6", "0x1.af4f130f7ed7ep-6", "0x1.1bf75a5dab3d5p-6"),
             "6e675b2dca77261a"),
            # the ratios, then per_case_max of comparable and separated
            (probe_quotient_form,
             ("0x1.4a54babdc18eep-5", "0x1.842643a06eefdp-5", "0x1.36834ad7661a2p-4",
              "0x1.842643a06eefdp-5", "0x1.36834ad7661a2p-4"),
             "646d29bb966e06d2"),
        ],
        # the ids name the NR route of each row as they did when it was a parameter
        ids=[
            "probe_trilinear_bourgain-fast-ratios0-c3c67f6b296672be",
            "probe_duhamel_smoothing-fast-ratios2-6e675b2dca77261a",
            "probe_quotient_form-None-ratios4-646d29bb966e06d2",
        ],
    )
    def test_pinned_ratios(self, probe, ratios, argmax_digest):
        # exact values: a change of rounding in the FFT route or of the
        # summation order shows up here, and so does a change of the bytes
        # of the argmax payload
        spec = EnsembleSpec(seed=3, count=3, K=8, decay_exponent=1.0, k_values=(4, 8))
        f = random_real_field(8, 11)
        report = probe(f, spec)
        pinned = (*report.ratios, *report.extras.get("per_case_max", {}).values())
        assert tuple(r.hex() for r in pinned) == ratios
        blob = json.dumps(report.argmax_sample).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == argmax_digest

    def test_pinned_quotient_ratios_at_k32(self):
        # the test_pinned_ratios row of probe700 where the plans are large:
        # the ratios, then per_case_max of comparable and separated
        spec = EnsembleSpec(seed=3, count=3, K=32, decay_exponent=1.0, k_values=(8, 16, 32))
        report = probe_quotient_form(random_real_field(32, 11), spec)
        pinned = (*report.ratios, *report.extras["per_case_max"].values())
        assert tuple(r.hex() for r in pinned) == (
            "0x1.9dd89ead4dcc8p-5", "0x1.443c4af1f4416p-5", "0x1.53dc519234655p-5",
            "0x1.53dc519234655p-5", "0x1.9dd89ead4dcc8p-5",
        )
        blob = json.dumps(report.argmax_sample).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == "2c2034ff023bfdf9"

    def test_pinned_ratios_with_bumps(self):
        # the same ensemble with modulation bumps: pins _draw_bumps and the
        # bumps part of the free phase factor's cache stamp
        spec = EnsembleSpec(
            seed=3, count=3, K=8, decay_exponent=1.0, k_values=(4, 8), modulation_bumps=0.5
        )
        report = probe_duhamel_smoothing(random_real_field(8, 11), spec)
        assert tuple(r.hex() for r in report.ratios) == (
            "0x1.5a85d1f0d6869p-6", "0x1.a55d06158e981p-6", "0x1.18510bfb2e71dp-6"
        )
        blob = json.dumps(report.argmax_sample).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == "35790b5a5bf83fc0"

    @pytest.mark.parametrize(
        "probe", [probe_trilinear_bourgain, probe_quotient_form], ids=["probe12", "probe700"]
    )
    def test_overflowed_draws_are_skipped(self, probe):
        # at decay -250 the draws are finite but their norms overflow: every
        # scale is non-finite, so both kinds skip every sample instead of
        # reporting NaN ratios
        spec = EnsembleSpec(seed=1, count=2, K=8, decay_exponent=-250)
        with np.errstate(all="ignore"):
            report = probe(cosine_field(8), spec)
        assert (report.valid_samples, report.skipped) == (0, 2)
        assert report.ratios_summary == {"max": None, "mean": None, "p99": None}
        assert all(r is None for _, r in report.per_K)
        assert report.argmax_sample is None and report.extras == {}
        json.dumps(report.to_obj(), allow_nan=False)

    def test_profile_cutoff_must_match(self):
        with pytest.raises(GridMismatchError):
            probe_duhamel_smoothing(
                cosine_field(8), EnsembleSpec(seed=1, count=1, K=16, decay_exponent=1.0)
            )

    def test_report_obj_shape(self):
        f = cosine_field(8)
        report = probe_quotient_form(f, EnsembleSpec(seed=1, count=2, K=8, decay_exponent=1.0))
        obj = report.to_obj()
        assert obj["kind"] == "probe700"
        assert "version" in obj
        assert obj["per_K"][0].keys() == {"K", "max_ratio"}
        assert obj["argmax_sample_file"] is None


class TestSmoothingReport:
    def test_free_profile_vanishes(self):
        f = cosine_field(6)
        grid = GridSpec(K=6, M=16, T=0.2)
        u = free_modulated_trajectory(f, f, grid)
        report = smoothing_report(u, f, SobolevIndex())
        assert set(report.sups) == {
            "remainder_hs1",
            "gap_sum_weight1",
            "gap_sum_upgraded",
            "gap_sup_weight1",
        }
        for value in report.sups.values():
            assert value < 1e-12

    def test_growing_mode_closed_form(self):
        # u_hat(t, +-2) = t on top of a cosine profile: every metric is a
        # polynomial in t
        params = SobolevIndex()
        f = cosine_field(4)
        grid = GridSpec(K=4, M=16, T=0.3)
        coeffs = np.tile(f.coeffs, (grid.M, 1)).astype(complex)
        coeffs[:, 6] = grid.times
        coeffs[:, 2] = grid.times
        u = Trajectory(grid, coeffs)
        report = smoothing_report(u, f, params)
        t = grid.times
        assert report.upgraded_exponent == pytest.approx(min(4 * 0.3, 1.3))
        assert np.max(np.abs(report.gap_sup_weight1 - 2.0 * t**2)) < 1e-15
        assert np.max(np.abs(report.gap_sum_weight1 - 4.0 * t**2)) < 1e-14
        expected_upgraded = 2.0 * 2.0**1.2 * t**2
        assert np.max(np.abs(report.gap_sum_upgraded - expected_upgraded)) < 1e-14
        assert report.remainder_hs1[0] == 0.0

    def test_initial_frame_rows_are_zero(self):
        f = cosine_field(8)
        z, phase, _ = picard_solve(f, PicardConfig(T=0.01, M=16))
        u = reconstruct_solution(z, phase, f)
        report = smoothing_report(u, f, SobolevIndex())
        assert report.remainder_hs1[0] == 0.0
        assert report.gap_sum_weight1[0] == 0.0
        assert report.gap_sup_weight1[0] == 0.0

    def test_rejects_wrong_start(self):
        f = cosine_field(4)
        grid = GridSpec(K=4, M=8, T=0.1)
        with pytest.raises(FieldError):
            smoothing_report(Trajectory.zeros(grid), f, SobolevIndex())


class TestGaugedResidual:
    def test_solver_output_is_certified(self):
        f = cosine_field(8)
        cfg = PicardConfig(T=0.01, M=32)
        z, phase, _ = picard_solve(f, cfg)
        u = reconstruct_solution(z, phase, f)
        direct = strong_form_residual(z, f, phase)
        replayed = gauged_remainder_residual(u, f)
        assert replayed <= 10.0 * cfg.tol
        # the phase rebuilt from u matches the solved one on this grid
        assert abs(replayed - direct) < 1e-13

    def test_free_flow_is_not_a_solution(self):
        f = cosine_field(8)
        grid = GridSpec(K=8, M=32, T=0.5)
        coeffs = np.stack([airy_exact(f, float(t)).coeffs for t in grid.times])
        residual = gauged_remainder_residual(Trajectory(grid, coeffs), f)
        assert residual > 1e-6

    def test_zero_everything(self):
        grid = GridSpec(K=4, M=8, T=0.1)
        assert gauged_remainder_residual(Trajectory.zeros(grid), FourierField.zeros(4)) == 0.0


class TestModulusGapMetric:
    def test_identical(self):
        grid = GridSpec(K=4, M=8, T=0.1)
        u = free_modulated_trajectory(cosine_field(4), cosine_field(4), grid)
        per_k, sup = modulus_gap_metric(u, u)
        assert np.max(per_k) == 0.0
        assert sup == 0.0

    def test_matches_literal_scan(self):
        grid = GridSpec(K=3, M=6, T=0.4)
        rng = np.random.default_rng(13)
        a = Trajectory(grid, rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7)))
        b = Trajectory(grid, rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7)))
        per_k, sup = modulus_gap_metric(a, b)
        for k in range(-3, 4):
            worst = max(
                abs(k) * abs(abs(a.coeffs[n, k + 3]) ** 2 - abs(b.coeffs[n, k + 3]) ** 2)
                for n in range(6)
            )
            assert per_k[k + 3] == pytest.approx(worst, rel=1e-13)
        assert sup == np.max(per_k)

    def test_symmetric_in_arguments(self):
        grid = GridSpec(K=3, M=6, T=0.4)
        rng = np.random.default_rng(14)
        a = Trajectory(grid, rng.standard_normal((6, 7)) + 0j)
        b = Trajectory(grid, rng.standard_normal((6, 7)) + 0j)
        pa, sa = modulus_gap_metric(a, b)
        pb, sb = modulus_gap_metric(b, a)
        assert np.array_equal(pa, pb)
        assert sa == sb
