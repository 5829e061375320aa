"""Exponential integrator oracle: exactness, order, conservation, reversibility."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import airy_exact, random_real_field
from mkdvlab import (
    CONSERVED_COLUMNS,
    ConfigError,
    ETDConfig,
    FieldError,
    FourierField,
    GridMismatchError,
    GridSpec,
    InstabilityError,
    StepSizeWarning,
    Trajectory,
    check_real_symmetry,
    compare_trajectories,
    conserved_functionals,
    conserved_series,
    cosine_field,
    direct_nonlinearity,
    sobolev_norm,
    solve_reference,
)
from mkdvlab import reference, spectral


def reflect_field(u: FourierField) -> FourierField:
    """Spatial reflection x -> -x, i.e. u_hat(k) -> u_hat(-k)."""
    return FourierField(u.coeffs[::-1].copy(), real_symmetric=u.real_symmetric)


class TestETDConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0),
            dict(dt=-1e-3),
            dict(dt=1e-3, scheme="rk4"),
            dict(dt=float("nan")),
            dict(dt=1e-3, scheme="ETDRK4"),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ETDConfig(**kwargs)


class TestAiryExact:
    def test_identity_at_zero(self):
        u = random_real_field(6, seed=3)
        out = airy_exact(u, 0.0)
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_cosine_rotation(self):
        u = cosine_field(4)
        t = 0.37
        out = airy_exact(u, t)
        assert abs(out.mode(1) - 0.5 * cmath.exp(1j * t)) < 1e-15
        assert out.real_symmetric

    def test_modified_rate(self):
        u = cosine_field(4)
        out = airy_exact(u, 0.37, f=u)
        assert abs(out.mode(1) - 0.5 * cmath.exp(1.25j * 0.37)) < 1e-15

    def test_l2_is_isometric(self):
        u = random_real_field(8, seed=5)
        out = airy_exact(u, 1.7)
        assert abs(sobolev_norm(out, 0.0) - sobolev_norm(u, 0.0)) < 1e-15


class TestLinearExactness:
    @pytest.mark.parametrize("scheme", ["etdrk4", "ifrk4"])
    @pytest.mark.parametrize("dt", [0.26, 0.07])
    def test_matches_closed_form(self, monkeypatch, scheme, dt):
        # with the nonlinearity off a single step of any size must be exact
        monkeypatch.setattr(
            reference, "direct_nonlinearity", lambda u: FourierField.zeros(u.K)
        )
        u0 = random_real_field(8, seed=1)
        cfg = ETDConfig(dt=dt, scheme=scheme)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            tr = solve_reference(u0, 1.0, cfg, M=5)
        for n, t in enumerate(tr.grid.times):
            exact = airy_exact(u0, float(t))
            assert np.max(np.abs(tr.coeffs[n] - exact.coeffs)) < 1e-13


class TestAccuracy:
    def test_fourth_order(self):
        f = cosine_field(16)
        ref = solve_reference(f, 0.25, ETDConfig(dt=1.25e-4), M=2)
        errs = []
        for dt in (4e-3, 2e-3):
            tr = solve_reference(f, 0.25, ETDConfig(dt=dt), M=2)
            errs.append(compare_trajectories(tr, ref, 0.0)[0])
        order = math.log2(errs[0] / errs[1])
        assert 3.7 < order < 4.3

    def test_schemes_agree(self):
        f = cosine_field(8)
        a = solve_reference(f, 0.1, ETDConfig(dt=1e-3), M=3)
        b = solve_reference(f, 0.1, ETDConfig(dt=1e-3, scheme="ifrk4"), M=3)
        assert compare_trajectories(a, b, 0.0)[0] < 1e-9


class TestConservation:
    def test_invariants_along_the_flow(self):
        f = cosine_field(16)
        tr = solve_reference(f, 0.5, ETDConfig(dt=1e-3), M=11)
        series = conserved_series(tr)
        assert series.shape == (11, 4)
        assert CONSERVED_COLUMNS == ("t", "mass", "l2", "energy")
        assert np.array_equal(series[:, 0], tr.grid.times)
        mass0, l20, energy0 = conserved_functionals(f)
        assert np.max(np.abs(series[:, 1] - mass0)) == 0.0
        assert np.max(np.abs(series[:, 2] - l20)) < 1e-11
        assert np.max(np.abs(series[:, 3] - energy0)) < 1e-9

    def test_each_frame_is_checked_once(self, monkeypatch):
        # Trajectory.frame marks a marked trajectory's frames without a check,
        # since the trajectory's own verdict covers them, so only the frames
        # of an unmarked trajectory are checked, once each by
        # conserved_functionals; every check runs in spectral
        tr = solve_reference(cosine_field(8), 0.02, ETDConfig(dt=1e-3), M=5)
        unmarked = Trajectory(tr.grid, tr.coeffs)
        expected = conserved_series(tr)
        seen = []
        monkeypatch.setattr(
            spectral, "check_real_symmetry", lambda u: seen.append(u) or check_real_symmetry(u)
        )
        assert np.array_equal(conserved_series(tr), expected)
        assert seen == []
        assert np.array_equal(conserved_series(unmarked), expected)
        assert len(seen) == 5 and not any(u.real_symmetric for u in seen)
        assert all(isinstance(u, FourierField) for u in seen)

    def test_trajectory_stays_real(self):
        tr = solve_reference(cosine_field(8), 0.2, ETDConfig(dt=1e-3), M=3)
        assert tr.real_symmetric
        assert np.max(np.abs(tr.coeffs[:, ::-1] - np.conj(tr.coeffs))) == 0.0


class TestReversibility:
    def test_reflect_field(self):
        u = random_real_field(5, seed=9)
        r = reflect_field(u)
        for k in range(-5, 6):
            assert r.mode(k) == u.mode(-k)
        assert np.array_equal(reflect_field(r).coeffs, u.coeffs)

    def test_round_trip(self):
        # x -> -x conjugates the flow: reflect, evolve, reflect inverts a run
        f = cosine_field(16)
        cfg = ETDConfig(dt=5e-4)
        fwd = solve_reference(f, 0.25, cfg, M=2)
        back = solve_reference(reflect_field(fwd.frame(1)), 0.25, cfg, M=2)
        final = reflect_field(back.frame(1))
        assert np.max(np.abs(final.coeffs - f.coeffs)) < 1e-6


class TestFailureModes:
    def test_instability_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(InstabilityError) as info:
                solve_reference(
                    cosine_field(8, amplitude=1e6), 0.3, ETDConfig(dt=0.1), M=2
                )
        assert info.value.step >= 1

    def test_step_size_warning(self):
        with pytest.warns(StepSizeWarning):
            solve_reference(cosine_field(32), 0.04, ETDConfig(dt=0.02), M=2)

    def test_step_size_warning_threshold(self):
        # warns iff max|f_hat| K^2 dt > 2 pi: here 0.5 * 32^2 * dt against
        # 2 pi, so dt = pi / 256 sits exactly on the threshold
        f = cosine_field(32)
        for dt, warns in ((0.012, False), (math.pi / 256, False), (0.0125, True)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", StepSizeWarning)
                solve_reference(f, 0.04, ETDConfig(dt=dt), M=2)
            assert any(w.category is StepSizeWarning for w in caught) == warns, dt

    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigError):
            solve_reference(cosine_field(4), 0.0, ETDConfig(dt=1e-3))


class TestCompareTrajectories:
    def test_identical_is_zero(self):
        tr = solve_reference(cosine_field(6), 0.1, ETDConfig(dt=1e-3), M=4)
        sup, per_frame = compare_trajectories(tr, tr, 0.5)
        assert sup == 0.0
        assert np.max(per_frame) == 0.0

    def test_against_zero_gives_norms(self):
        grid = GridSpec(K=4, M=3, T=0.1)
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
        tr = Trajectory(grid, coeffs)
        sup, per_frame = compare_trajectories(tr, Trajectory.zeros(grid), 0.7)
        for n in range(3):
            ref = sobolev_norm(tr.frame(n), 0.7)
            assert abs(per_frame[n] - ref) < 1e-13
        assert abs(sup - max(per_frame)) < 1e-15

    def test_grid_mismatch(self):
        a = Trajectory.zeros(GridSpec(K=4, M=3, T=0.1))
        b = Trajectory.zeros(GridSpec(K=4, M=4, T=0.1))
        with pytest.raises(GridMismatchError):
            compare_trajectories(a, b, 0.0)


def spy_on_stages(monkeypatch, seen):
    """Record each field the stepper hands to direct_nonlinearity."""

    def spy(u):
        seen.append(u)
        return direct_nonlinearity(u)

    monkeypatch.setattr(reference, "direct_nonlinearity", spy)


class TestStageSymmetry:
    """The stepper trusts its stages only where they are symmetric by construction."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 16),
        st.integers(0, 2**16),
        st.sampled_from([1e-4, 1e-3, 7e-3]),
        st.sampled_from(["etdrk4", "ifrk4"]),
    )
    def test_stages_stay_exactly_symmetric(self, K, seed, dt, scheme):
        f = random_real_field(K, seed=seed)
        seen = []
        cfg = ETDConfig(dt=dt, scheme=scheme)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            spy_on_stages(mp, seen)
            solve_reference(f, 0.02, cfg, M=3)
        assert len(seen) % 4 == 0 and seen
        assert all(u.real_symmetric and check_real_symmetry(u) == 0.0 for u in seen)

    def test_symmetric_data_is_checked_once(self, monkeypatch):
        # spectral's binding counts the realness verdicts, which the stages
        # would take if they were unmarked; the one made is the verdict that
        # marks the returned trajectory
        calls = {"reference": 0, "spectral": 0}
        for module in (reference, spectral):

            def counting(u, name=module.__name__.split(".")[-1]):
                calls[name] += 1
                return check_real_symmetry(u)

            monkeypatch.setattr(module, "check_real_symmetry", counting)
        tr = solve_reference(random_real_field(8, seed=5), 0.01, ETDConfig(dt=1e-3), M=3)
        assert calls == {"reference": 1, "spectral": 1}
        assert tr.real_symmetric

    def test_inexact_data_is_checked_per_stage(self, monkeypatch):
        # asymmetric by less than the tolerance: every stage is wrapped
        # unmarked and checked, four per substep, and the values are those
        # of the trusted route on the exact data up to that perturbation
        f = random_real_field(8, seed=5)
        c = f.coeffs.copy()
        c[8 + 3] += 1e-12
        seen = []
        spy_on_stages(monkeypatch, seen)
        tr = solve_reference(FourierField(c), 0.01, ETDConfig(dt=1e-3), M=3)
        assert len(seen) == 4 * 10
        assert not any(u.real_symmetric for u in seen)
        exact = solve_reference(f, 0.01, ETDConfig(dt=1e-3), M=3)
        assert np.max(np.abs(tr.coeffs - exact.coeffs)) < 1e-10

    def test_asymmetric_data_is_rejected(self):
        c = random_real_field(8, seed=5).coeffs.copy()
        c[8 + 3] += 1e-3
        with pytest.raises(FieldError):
            solve_reference(FourierField(c), 0.01, ETDConfig(dt=1e-3), M=3)

    def test_direct_nonlinearity_trusts_marked_fields(self, monkeypatch):
        # the require-real check lives in spectral and skips marked fields
        calls = []
        monkeypatch.setattr(spectral, "check_real_symmetry", lambda u: calls.append(u) or 0.0)
        u = random_real_field(6, seed=2)
        marked = direct_nonlinearity(u)
        unmarked = direct_nonlinearity(FourierField(u.coeffs))
        assert len(calls) == 1 and not calls[0].real_symmetric
        assert np.array_equal(marked.coeffs, unmarked.coeffs)
