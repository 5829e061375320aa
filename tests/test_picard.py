"""Duhamel integration and the gauged fixed-point iteration."""

import cmath
import hashlib
import json
import pathlib

import numpy as np
import pytest

from conftest import random_real_field, strong_form_residual
from mkdvlab import (
    ConfigError,
    ConvergenceError,
    FieldError,
    FourierField,
    GridMismatchError,
    GridSpec,
    InstabilityError,
    NormProxyConfig,
    PhaseTable,
    PicardConfig,
    TimeHorizonWarning,
    Trajectory,
    check_real_symmetry,
    cosine_field,
    duhamel_integrate,
    hs_norms,
    mirrored,
    nr_trilinear_naive,
    picard_rhs,
    picard_solve,
    picard_step,
    reconstruct_solution,
    resonant_term,
    solve_phase,
    x_space_norm,
)
from mkdvlab import picard

GOLDEN = pathlib.Path(__file__).parent / "golden" / "picard_cosine_K16.json"


def nested_solve(f: FourierField, cfg: PicardConfig) -> tuple[Trajectory, int]:
    """The nested scheme: a phase solve to phase_tol before every remainder update.

    picard_solve ran this loop before z and Q were iterated together; it
    gives that solver's bits. Returns u and the iterate count.
    """
    z = Trajectory.zeros(cfg.grid)
    for m in range(1, cfg.max_iters + 1):
        z_next, _ = picard_step(z, f, cfg)
        diff = x_space_norm(z_next - z, cfg.params, f, cfg.proxy)
        z = z_next
        if diff <= cfg.tol:
            break
    phase, _ = solve_phase(f, z, tol=cfg.phase_tol, max_sweeps=cfg.phase_max_sweeps)
    return reconstruct_solution(z, phase, f), m


def mode_forcing(grid: GridSpec, k0: int, values: np.ndarray) -> Trajectory:
    coeffs = np.zeros((grid.M, grid.n_modes), dtype=complex)
    coeffs[:, k0 + grid.K] = values
    return Trajectory(grid, coeffs)


class TestPicardConfig:
    def test_defaults(self):
        cfg = PicardConfig()
        assert cfg.grid == GridSpec(16, 64, 0.01)
        assert cfg.proxy == NormProxyConfig("hann", 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(T=0.0),
            dict(T=-1.0),
            dict(M=4),
            dict(max_iters=0),
            dict(tol=0.0),
            dict(phase_max_sweeps=0),
            dict(phase_tol=0),
            dict(phase_tol=-1),
        ],
    )
    def test_rejects(self, kwargs):
        # T and M are grid values: the grid rejects T <= 0, the solver M < 8
        grid = {"K": 16, "M": 64, "T": 0.01}
        grid.update((k, v) for k, v in kwargs.items() if k in ("T", "M"))
        rest = {k: v for k, v in kwargs.items() if k not in grid}
        with pytest.raises(ConfigError):
            PicardConfig(grid=GridSpec(**grid), **rest)

    def test_long_horizon_warns(self):
        with pytest.warns(TimeHorizonWarning, match="horizon T = 1.5 is outside"):
            PicardConfig(grid=GridSpec(16, 64, 1.5))

    def test_smallest_counts_accepted(self):
        cfg = PicardConfig(grid=GridSpec(16, 8, 0.01), max_iters=1, phase_max_sweeps=1)
        assert (cfg.grid.M, cfg.max_iters, cfg.phase_max_sweeps) == (8, 1, 1)


class TestDuhamelIntegrate:
    def test_zero_forcing_is_free_flow(self):
        grid = GridSpec(K=3, M=16, T=0.4)
        z0 = cosine_field(3)
        out = duhamel_integrate(Trajectory.zeros(grid), initial=z0)
        ks = np.arange(-3, 4).astype(float)
        expected = z0.coeffs[None, :] * np.exp(1j * np.outer(grid.times, ks**3))
        assert np.max(np.abs(out.coeffs - expected)) < 1e-14
        assert np.array_equal(out.coeffs[0], z0.coeffs)

    def test_profile_shifts_the_rates(self):
        grid = GridSpec(K=3, M=16, T=0.4)
        f = cosine_field(3)
        z0 = cosine_field(3)
        out = duhamel_integrate(Trajectory.zeros(grid), f=f, initial=z0)
        rate = 1.0 + 0.25  # k = 1: k^3 + k |f_hat(1)|^2
        expected = 0.5 * np.exp(1j * rate * grid.times)
        assert np.max(np.abs(out.coeffs[:, 4] - expected)) < 1e-14

    def test_constant_forcing_closed_form(self):
        grid = GridSpec(K=2, M=64, T=0.01)
        out = duhamel_integrate(mode_forcing(grid, 2, np.ones(64)))
        t = grid.times
        exact = np.exp(8j * t) * (1.0 - np.exp(-8j * t)) / 8j
        err = np.max(np.abs(out.coeffs[:, 4] - exact))
        assert err < 1e-8

    def test_quadrature_is_second_order(self):
        T = 0.01
        errs = []
        for M in (64, 631):  # the fine grid contains the coarse endpoints
            grid = GridSpec(K=2, M=M, T=T)
            out = duhamel_integrate(mode_forcing(grid, 2, np.ones(M)))
            exact = cmath.exp(8j * T) * (1.0 - cmath.exp(-8j * T)) / 8j
            errs.append(abs(out.coeffs[-1, 4] - exact))
        ratio = errs[0] / errs[1]
        assert 25.0 < ratio < 400.0

    def test_cutoff_mismatch(self):
        grid = GridSpec(K=2, M=16, T=0.1)
        with pytest.raises(ConfigError):
            duhamel_integrate(Trajectory.zeros(grid), f=cosine_field(3))
        with pytest.raises(ConfigError):
            duhamel_integrate(Trajectory.zeros(grid), initial=cosine_field(3))


class TestPicardRhs:
    def test_zero_remainder_reduces_to_profile_term(self):
        f = cosine_field(8)
        grid = GridSpec(K=8, M=16, T=0.01)
        z = Trajectory.zeros(grid)
        phase, _ = solve_phase(f, z)
        out = picard_rhs(z, phase, f)
        # only the (1,1,1) interaction survives; Q(t,1) = 1.25 t
        expected = -0.125j * np.exp(3j * phase.values[:, 9])
        assert np.max(np.abs(out.coeffs[:, 11 + 0] - expected)) < 1e-13
        # the convolution route leaves rounding noise where the sum cancels;
        # the triple table gives the zero exactly
        assert np.max(np.abs(out.coeffs[:, 9])) < 1e-14
        w = reconstruct_solution(z, phase, f)
        for n in range(grid.M):
            assert nr_trilinear_naive(*[w.frame(n)] * 3).mode(1) == 0.0

    def test_zero_profile_hand_assembly(self):
        grid = GridSpec(K=6, M=8, T=0.02)
        # real frames with a nonzero mean: NR is defined for real fields
        rng = np.random.default_rng(42)
        positive = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        z = Trajectory(grid, mirrored(rng.standard_normal(8), positive))
        f = FourierField.zeros(6)
        out = picard_rhs(z, PhaseTable.zeros(grid), f)
        for n in range(8):
            frame = z.frame(n)
            ref = resonant_term(frame).coeffs + nr_trilinear_naive(
                frame, frame, frame
            ).coeffs
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(out.coeffs[n] - ref)) < 1e-12 * scale

    def test_mirror_columns_are_not_read(self):
        # the right side is formed on the columns k = 0..K and mirrored, so
        # moving the k < 0 columns of z or f within the realness tolerance
        # leaves it bit-identical
        f = random_real_field(6, seed=4)
        grid = GridSpec(K=6, M=8, T=0.01)
        z, phase = picard_step(Trajectory.zeros(grid), f, PicardConfig(grid=grid))
        expected = picard_rhs(z, phase, f)
        rng = np.random.default_rng(5)
        noise = 5e-9 * np.exp(2j * np.pi * rng.random((grid.M, 6)))
        zc, fc = z.coeffs.copy(), f.coeffs.copy()
        zc[:, :6] += noise
        fc[:6] += noise[1]
        out = picard_rhs(Trajectory(grid, zc), phase, FourierField(fc))
        assert np.array_equal(out.coeffs, expected.coeffs)
        assert out.real_symmetric and expected.real_symmetric

    @pytest.mark.parametrize("which", ["z", "f"])
    def test_non_real_input_is_rejected_before_any_nr_call(self, monkeypatch, which):
        f = random_real_field(6, seed=4)
        grid = GridSpec(K=6, M=8, T=0.01)
        z, phase = picard_step(Trajectory.zeros(grid), f, PicardConfig(grid=grid))
        calls = []
        monkeypatch.setattr(picard, "nr_trilinear", lambda *args: calls.append(args))
        if which == "z":
            c = z.coeffs.copy()
            c[3, 2] += 1e-3
            z = Trajectory(grid, c)
        else:
            c = f.coeffs.copy()
            c[2] += 1e-3
            f = FourierField(c)
        with pytest.raises(FieldError):
            picard_rhs(z, phase, f)
        assert calls == []


class TestPicardStep:
    def test_first_iterate_closed_form(self):
        f = cosine_field(8)
        cfg = PicardConfig(grid=GridSpec(8, 64, 0.01))
        grid = cfg.grid
        z1, phase = picard_step(Trajectory.zeros(grid), f, cfg)
        t = grid.times
        exact = -0.125j * np.exp(27j * t) * (1.0 - np.exp(-23.25j * t)) / 23.25j
        assert np.max(np.abs(z1.coeffs[:, 11] - exact)) < 1e-8
        # no other mode is forced beyond convolution rounding noise
        mask = np.ones(17, dtype=bool)
        mask[[5, 11]] = False
        assert np.max(np.abs(z1.coeffs[:, mask])) < 1e-14
        assert np.array_equal(phase.values[:, 9], 1.25 * t)

    def test_first_iterate_is_conjugate_symmetric(self):
        f = cosine_field(8)
        cfg = PicardConfig(grid=GridSpec(8, 16, 0.01))
        z1, _ = picard_step(Trajectory.zeros(cfg.grid), f, cfg)
        worst = max(check_real_symmetry(z1.frame(n)) for n in range(16))
        assert worst < 1e-14


class TestPicardSolve:
    def test_zero_profile_stays_zero(self):
        z, phase, report = picard_solve(FourierField.zeros(4), PicardConfig(grid=GridSpec(4, 16, 0.01)))
        assert np.max(np.abs(z.coeffs)) == 0.0
        assert report.converged
        assert len(report.iters) == 1
        assert report.first_iterate_norm == 0.0
        assert report.within_first_iterate_bound

    def test_unconverged_run_is_not_within_the_bound(self):
        cfg = PicardConfig(grid=GridSpec(4, 16, 0.01), max_iters=1)
        _, _, report = picard_solve(cosine_field(4), cfg)
        assert not report.converged
        assert not report.within_first_iterate_bound

    def test_stop_tests_include_equality(self):
        # a difference equal to tol, with the phase settled, stops the loop;
        # so does a phase update equal to phase_tol, with z settled
        grid = GridSpec(4, 16, 0.01)
        _, _, ref = picard_solve(cosine_field(4), PicardConfig(grid=grid))
        second = ref.iters[1]
        for tols in (
            dict(tol=second.diff_norm, phase_tol=1.0),
            dict(tol=1e3, phase_tol=second.phase_update),
        ):
            _, _, report = picard_solve(cosine_field(4), PicardConfig(grid=grid, **tols))
            assert report.converged
            assert report.iters == ref.iters[:2]

    def test_cosine_converges_and_contracts(self):
        f = cosine_field(8)
        cfg = PicardConfig(grid=GridSpec(8, 32, 0.01))
        z, phase, report = picard_solve(f, cfg)
        assert report.converged
        assert all(r.ratio < 1.0 for r in report.iters if r.ratio is not None)
        assert report.within_first_iterate_bound
        assert report.richardson_delta < 1e-6
        res = strong_form_residual(z, f, phase)
        assert res <= 10.0 * cfg.tol

    def test_reconstruction_starts_at_profile(self):
        f = cosine_field(8)
        z, phase, _ = picard_solve(f, PicardConfig(grid=GridSpec(8, 16, 0.01)))
        u = reconstruct_solution(z, phase, f)
        assert np.array_equal(u.coeffs[0], f.coeffs)
        worst = max(check_real_symmetry(u.frame(n)) for n in range(16))
        assert worst < 1e-10

    def test_diff_norms_match_composite_norm(self):
        f = cosine_field(8)
        cfg = PicardConfig(grid=GridSpec(8, 32, 0.01))
        z1, _ = picard_step(Trajectory.zeros(cfg.grid), f, cfg)
        _, _, report = picard_solve(f, cfg)
        expected = x_space_norm(z1, cfg.params, f, cfg.proxy)
        assert abs(report.iters[0].diff_norm - expected) < 1e-12
        assert abs(report.first_iterate_norm - expected) < 1e-12

    def test_blow_up_raises_instability(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(InstabilityError) as info:
                picard_solve(
                    cosine_field(8, amplitude=1e40),
                    PicardConfig(grid=GridSpec(8, 16, 0.01), max_iters=6),
                )
        assert info.value.step == 2

    def test_non_finite_phase_sweep_raises(self):
        # z_1 is finite but |z_1|^2 overflows in the sweep that follows it
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(InstabilityError) as info:
                picard_solve(
                    cosine_field(8, amplitude=1e54),
                    PicardConfig(grid=GridSpec(8, 16, 0.01), max_iters=6),
                )
        assert info.value.step == 1
        assert "phase sweep" in str(info.value)

    def test_starved_phase_sweeps_raise(self):
        f = cosine_field(4)
        cfg = PicardConfig(grid=GridSpec(4, 16, 0.5), phase_max_sweeps=1)
        with pytest.raises(ConvergenceError) as info:
            picard_solve(f, cfg)
        assert "reduce the time horizon" in str(info.value)
        assert info.value.residual > 0.0

    def test_long_horizon_fails_to_contract(self):
        with pytest.warns(TimeHorizonWarning):
            cfg = PicardConfig(grid=GridSpec(8, 64, 10.0), max_iters=8)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, _, report = picard_solve(cosine_field(8), cfg)
        assert not report.converged
        assert len(report.iters) == cfg.max_iters
        assert max(r.ratio for r in report.iters if r.ratio is not None) > 1.0

    @staticmethod
    def measured_diffs(monkeypatch, diffs):
        """Make the solver measure the given successive differences, norms of 1."""
        values = iter([v for d in diffs for v in (d, 1.0)])
        monkeypatch.setattr("mkdvlab.picard.x_space_norm", lambda *args: next(values))

    def test_two_stalled_ratios_do_not_abort(self, monkeypatch):
        self.measured_diffs(monkeypatch, [1.0, 2.0, 2.0])
        cfg = PicardConfig(grid=GridSpec(4, 8, 0.01), max_iters=3)
        _, _, report = picard_solve(cosine_field(4), cfg)
        assert not report.converged
        assert [r.ratio for r in report.iters] == [None, 2.0, 1.0]

    def test_third_stalled_ratio_aborts(self, monkeypatch):
        # a ratio of exactly 1 counts as failing to contract
        self.measured_diffs(monkeypatch, [1.0, 2.0, 2.0, 2.0])
        with pytest.raises(ConvergenceError) as info:
            picard_solve(cosine_field(4), PicardConfig(grid=GridSpec(4, 8, 0.01), max_iters=4))
        assert info.value.residual == 2.0

    def test_stall_needs_a_difference_above_tol(self, monkeypatch):
        # rising differences already below tol are no stall while the phase
        # still moves: the solve runs to max_iters, unconverged
        self.measured_diffs(monkeypatch, [1e-11, 2e-11, 4e-11, 8e-11])
        cfg = PicardConfig(grid=GridSpec(4, 8, 0.05), max_iters=4)
        _, _, report = picard_solve(cosine_field(4), cfg)
        assert not report.converged
        assert [r.ratio for r in report.iters] == [None, 2.0, 2.0, 2.0]
        assert min(r.phase_update for r in report.iters) > cfg.phase_tol

    def test_difference_at_tol_is_no_stall(self, monkeypatch):
        # ratios of 1 count against contraction only above tol
        cfg = PicardConfig(grid=GridSpec(4, 8, 0.05), max_iters=4)
        self.measured_diffs(monkeypatch, [cfg.tol] * 4)
        _, _, report = picard_solve(cosine_field(4), cfg)
        assert not report.converged
        assert [r.ratio for r in report.iters] == [None, 1.0, 1.0, 1.0]

    def test_no_ratio_after_a_zero_difference(self, monkeypatch):
        self.measured_diffs(monkeypatch, [1.0, 0.0, 1e-11])
        cfg = PicardConfig(grid=GridSpec(4, 8, 0.05), max_iters=3)
        _, _, report = picard_solve(cosine_field(4), cfg)
        assert [r.ratio for r in report.iters] == [None, 0.0, None]

    def test_report_serialization_shape(self):
        _, _, report = picard_solve(cosine_field(4), PicardConfig(grid=GridSpec(4, 16, 0.01)))
        obj = report.to_obj()
        assert set(obj) == {
            "iters",
            "first_iterate_norm",
            "converged",
            "within_first_iterate_bound",
            "richardson_delta",
        }
        assert {"norm_x", "diff_norm", "ratio", "phase_update"} == set(obj["iters"][0])

    def test_report_names_first_iterate_norm(self):
        _, _, report = picard_solve(cosine_field(4), PicardConfig(grid=GridSpec(4, 16, 0.01)))
        obj = json.loads(json.dumps(report.to_obj()))
        assert report.first_iterate_norm > 0.0
        assert obj["first_iterate_norm"] == report.first_iterate_norm

    def test_profile_must_match_the_grid(self):
        cfg = PicardConfig(grid=GridSpec(8, 16, 0.01))
        with pytest.raises(GridMismatchError, match="profile cutoff 4 does not match grid K 8"):
            picard_solve(cosine_field(4), cfg)

    def test_profile_must_be_real(self):
        # the loop holds the columns k >= 0 only, which carry a real profile
        c = cosine_field(4).coeffs.copy()
        c[5] += 0.1j
        with pytest.raises(FieldError, match="real profile"):
            picard_solve(FourierField(c), PicardConfig(grid=GridSpec(4, 16, 0.01)))

    def test_step_remainder_must_match_the_grid(self):
        cfg = PicardConfig(grid=GridSpec(8, 16, 0.01))
        for grid in (GridSpec(8, 17, 0.01), GridSpec(8, 16, 0.02), GridSpec(4, 16, 0.01)):
            with pytest.raises(GridMismatchError, match="does not match the config grid"):
                picard_step(Trajectory.zeros(grid), cosine_field(8), cfg)

    def test_returns_a_marked_remainder(self):
        z, _, _ = picard_solve(random_real_field(8, 5), PicardConfig(grid=GridSpec(8, 16, 0.01)))
        assert z.real_symmetric
        assert check_real_symmetry(z.frame(15)) == 0.0


class TestNestedOracle:
    @pytest.mark.parametrize(
        "f",
        [cosine_field(16), random_real_field(32, 1), random_real_field(32, 2)],
        ids=["cosine16", "random32-1", "random32-2"],
    )
    def test_joint_iteration_matches_nested_scheme(self, f):
        cfg = PicardConfig(grid=GridSpec(f.K, 64, 0.01))
        u_ref, iters_ref = nested_solve(f, cfg)
        z, phase, report = picard_solve(f, cfg)
        u = reconstruct_solution(z, phase, f)
        gap = np.max(hs_norms((u - u_ref).coeffs, 0.0))
        assert gap <= 1e-14 * np.max(hs_norms(u_ref.coeffs, 0.0))
        assert report.converged
        assert len(report.iters) <= iters_ref
        assert report.iters[-1].phase_update <= cfg.phase_tol


class TestGoldenRegression:
    def test_cosine_K16_run(self):
        golden = json.loads(GOLDEN.read_text())
        f = cosine_field(16)
        cfg = PicardConfig(grid=GridSpec(16, golden["M"], golden["T"]))
        z, phase, report = picard_solve(f, cfg)
        assert report.converged == golden["converged"]
        assert len(report.iters) == len(golden["iters"])
        for row, ref in zip(report.iters, golden["iters"]):
            assert row.norm_x == pytest.approx(ref["norm_x"], rel=1e-9, abs=1e-12)
            assert row.diff_norm == pytest.approx(ref["diff_norm"], rel=1e-9, abs=1e-12)
        assert report.first_iterate_norm == pytest.approx(
            golden["first_iterate_norm"], rel=1e-9
        )
        for key, (re_part, im_part) in golden["final_modes"].items():
            got = z.coeffs[-1, int(key) + 16]
            assert got.real == pytest.approx(re_part, rel=1e-8, abs=1e-13)
            assert got.imag == pytest.approx(im_part, rel=1e-8, abs=1e-13)
        res = strong_form_residual(z, f, phase)
        assert res <= golden["strong_residual_bound"]

    def test_cosine_K16_bytes(self):
        # the exact bits of the golden run: a change that moves any last bit fails
        # here even where the tolerances above still hold (recorded with numpy 2.4
        # on x86-64; another FFT build may round differently)
        golden = json.loads(GOLDEN.read_text())
        cfg = PicardConfig(grid=GridSpec(16, golden["M"], golden["T"]))
        z, phase, _ = picard_solve(cosine_field(16), cfg)
        assert hashlib.sha256(z.coeffs.tobytes()).hexdigest() == (
            "828166680a97458a870033c4a14347e2c3536b0595468f31ad261321dfa02661"
        )
        assert hashlib.sha256(phase.values.tobytes()).hexdigest() == (
            "c15c7f9f2f18f9586c53ff14769a897676b63aa66fce25655d9bbb95d7339c20"
        )
