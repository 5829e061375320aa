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
    REAL_SYMMETRY_TOL,
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
            dict(dt=-0.0),
            dict(dt=float("nan")),
            dict(dt=-math.inf),
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
    @pytest.mark.parametrize("dt", [0.26, 0.07], ids=["0.26-etdrk4", "0.07-etdrk4"])
    def test_matches_closed_form(self, monkeypatch, dt):
        # with the nonlinearity off a single step of any size must be exact
        monkeypatch.setattr(
            reference, "direct_nonlinearity", lambda u: FourierField.zeros(u.K)
        )
        u0 = random_real_field(8, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            tr = solve_reference(u0, 1.0, ETDConfig(dt=dt), M=5)
        for n, t in enumerate(tr.grid.times):
            exact = airy_exact(u0, float(t))
            assert np.max(np.abs(tr.coeffs[n] - exact.coeffs)) < 1e-13


class TestSteps:
    @pytest.mark.parametrize("excess, substeps", [(0.5e-9, 1), (1.5e-9, 2)])
    def test_dt_caps_the_substep_up_to_rounding(self, monkeypatch, excess, substeps):
        # a gap of dt (1 + excess) takes one substep while the excess is
        # below 1e-9, the allowance for rounding in gap / dt
        seen = []
        spy_on_stages(monkeypatch, seen)
        solve_reference(cosine_field(4), 1e-3 * (1.0 + excess), ETDConfig(dt=1e-3), M=2)
        assert len(seen) == 4 * substeps

    def test_contour_means_match_the_closed_forms(self):
        # where |i h k^3| >= 5 the phi-functions are evaluated in closed form
        # without cancellation, and the 32-point contour means match them to
        # rounding; 16 points would miss by some 1e-13
        h = 1e-2
        phi = np.arange(-16, 17).astype(float) ** 3
        far = h * np.abs(phi) >= 5
        lam = 1j * h * phi[far]
        e = np.exp(lam)
        closed = {
            "q": h * (np.exp(lam / 2) - 1.0) / lam,
            "f1": h * (-4.0 - lam + e * (4.0 - 3.0 * lam + lam**2)) / lam**3,
            "f2": h * (2.0 + lam + e * (lam - 2.0)) / lam**3,
            "f3": h * (-4.0 - 3.0 * lam - lam**2 + e * (4.0 - lam)) / lam**3,
        }
        weights = reference._phi_weights(phi, h)
        for name, exact in closed.items():
            rel = np.abs(weights[name][far] - exact) / np.abs(exact)
            assert np.max(rel) < 1e-14, name


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
            solve_reference(cosine_field(4), 0.0, ETDConfig(dt=1e-3), M=2)

    def test_instability_names_the_first_bad_substep(self):
        # substeps count from 1; a NaN mode passes the realness verdict and
        # spoils the first one
        c = cosine_field(4).coeffs.copy()
        c[4 + 2] = math.nan
        with pytest.raises(InstabilityError, match="after step 1 ") as info:
            solve_reference(FourierField(c), 0.01, ETDConfig(dt=1e-3), M=3)
        assert info.value.step == 1


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
    """The stepper takes one realness verdict, on f, and marks every stage it makes."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 2**16), st.sampled_from([1e-4, 1e-3, 7e-3]))
    def test_stages_stay_exactly_symmetric(self, K, seed, dt):
        f = random_real_field(K, seed=seed)
        seen = []
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            spy_on_stages(mp, seen)
            solve_reference(f, 0.02, ETDConfig(dt=dt), M=3)
        assert len(seen) % 4 == 0 and seen
        assert all(u.real_symmetric and check_real_symmetry(u) == 0.0 for u in seen)

    def test_symmetric_data_is_checked_once(self, monkeypatch):
        # spectral's binding counts the realness verdicts: marked data takes
        # none, and unmarked data one, on entry; the stages and the returned
        # trajectory are marked without one
        calls = []
        monkeypatch.setattr(
            spectral, "check_real_symmetry", lambda u: calls.append(u) or check_real_symmetry(u)
        )
        f = random_real_field(8, seed=5)
        tr = solve_reference(f, 0.01, ETDConfig(dt=1e-3), M=3)
        assert calls == [] and tr.real_symmetric
        unmarked = solve_reference(FourierField(f.coeffs), 0.01, ETDConfig(dt=1e-3), M=3)
        assert len(calls) == 1 and not calls[0].real_symmetric
        assert unmarked.real_symmetric and np.array_equal(unmarked.coeffs, tr.coeffs)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(0, 2**16),
        st.integers(1, 12),
        st.sampled_from([-1, 1]),
        st.floats(1e-6, 1.0),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_inexact_data_keeps_its_asymmetry(self, K, seed, k, sign, size, angle):
        # data asymmetric by less than the tolerance: every stage is marked,
        # and each keeps f's asymmetry up to rounding, since the weights are
        # conjugate-symmetric and the cubic term is mirrored; the values are
        # those of the exact data up to about the size of the perturbation
        f = random_real_field(K, seed=seed)
        c = f.coeffs.copy()
        c[K + sign * min(k, K)] += 0.9 * REAL_SYMMETRY_TOL * size * cmath.exp(1j * angle)
        g = FourierField(c)
        asymmetry = check_real_symmetry(g)
        assert 0.0 < asymmetry <= REAL_SYMMETRY_TOL
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            spy_on_stages(mp, seen)
            tr = solve_reference(g, 0.01, ETDConfig(dt=1e-3), M=3)
        assert len(seen) == 4 * 10
        assert all(u.real_symmetric for u in seen)
        # modes below 1 in size, so rounding moves the asymmetry by some 1e-16 a stage
        assert max(abs(check_real_symmetry(u) - asymmetry) for u in seen) <= 1e-14
        assert tr.real_symmetric
        exact = solve_reference(f, 0.01, ETDConfig(dt=1e-3), M=3)
        assert np.max(np.abs(tr.coeffs - exact.coeffs)) <= 1.1 * asymmetry + 1e-15

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
