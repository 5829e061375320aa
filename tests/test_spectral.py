"""Grids, fields, Sobolev norms, serialization."""

import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_real_field, to_real_samples
from mkdvlab import (
    REAL_SYMMETRY_TOL,
    ConfigError,
    ETDConfig,
    EnsembleSpec,
    NormProxyConfig,
    PicardConfig,
    FieldError,
    FourierField,
    GridMismatchError,
    GridSpec,
    PhaseTable,
    SobolevIndex,
    Trajectory,
    check_real_symmetry,
    cosine_field,
    cumulative_trapezoid,
    direct_nonlinearity,
    field_from_modes,
    field_from_obj,
    field_to_obj,
    half_spectrum,
    mirrored,
    phase_from_obj,
    random_real_field as library_random_real_field,
    resize_field,
    sobolev_norm,
    solve_phase,
    solve_reference,
    trajectory_from_obj,
    trajectory_to_obj,
    write_frames_json,
)
from mkdvlab.spectral import _check_decay, _check_seed, _require_real


def dft_oracle(samples: np.ndarray, k: int) -> complex:
    """Literal forward DFT sum, the definition written out."""
    n = samples.size
    x = 2.0 * np.pi * np.arange(n) / n
    return complex(np.sum(samples * np.exp(-1j * k * x)) / n)


def field_from_samples(samples: np.ndarray, K: int) -> FourierField:
    """DFT of real point samples on a uniform grid of [0, 2*pi), truncated to |k| <= K.

    Needs at least 2K + 2 samples. The half-spectrum transform is mirrored,
    so the output is exactly conjugate-symmetric.
    """
    half = np.fft.rfft(samples) / samples.size
    return FourierField(mirrored(half[0].real, half[1 : K + 1]), real_symmetric=True)


class TestGridSpec:
    def test_derived_quantities(self):
        g = GridSpec(K=4, M=5, T=2.0)
        assert g.n_modes == 9
        assert g.dt == 0.5
        assert np.array_equal(g.times, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
        assert np.array_equal(g.wavenumbers, np.arange(-4, 5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(K=0, M=4, T=1.0),
            dict(K=2.5, M=4, T=1.0),
            dict(K=4, M=1, T=1.0),
            dict(K=4, M=4, T=0.0),
            dict(K=4, M=4, T=-1.0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigError):
            GridSpec(**kwargs)


# Every integer the library reads from its caller, as (value -> the value it
# stores or runs with). Each must come back as an int, or fail with ConfigError.
INTEGER_FIELDS = {
    "GridSpec.K": lambda v: GridSpec(v, 8, 0.1).K,
    "GridSpec.M": lambda v: GridSpec(4, v, 0.1).M,
    "cosine_field.K": lambda v: cosine_field(v).K,
    "cosine_field.harmonic": lambda v: int(np.flatnonzero(cosine_field(8, 1.0, v).coeffs)[-1]) - 8,
    "EnsembleSpec.seed": lambda v: EnsembleSpec(v, 2, 8, 1.0).to_obj()["seed"],
    "EnsembleSpec.count": lambda v: EnsembleSpec(1, v, 8, 1.0).count,
    "EnsembleSpec.K": lambda v: EnsembleSpec(1, 2, v, 1.0).K,
    "EnsembleSpec.M": lambda v: EnsembleSpec(1, 2, 8, 1.0, M=v).M,
    "EnsembleSpec.k_values": lambda v: EnsembleSpec(1, 2, 8, 1.0, k_values=(v,)).cutoffs()[0],
    "NormProxyConfig.pad_factor": lambda v: NormProxyConfig("hann", v).pad_factor,
    "PicardConfig.max_iters": lambda v: PicardConfig(max_iters=v).max_iters,
    "PicardConfig.phase_max_sweeps": lambda v: PicardConfig(phase_max_sweeps=v).phase_max_sweeps,
    "solve_reference.M": lambda v: solve_reference(
        cosine_field(2), 0.01, ETDConfig(0.005), v
    ).grid.M,
    "solve_phase.max_sweeps": lambda v: solve_phase(
        cosine_field(2), Trajectory.zeros(GridSpec(2, 8, 0.01)), max_sweeps=v
    )[1].sweeps,
}


class TestIntegerRule:
    @pytest.mark.parametrize("name", INTEGER_FIELDS)
    @pytest.mark.parametrize(
        "value", [8.0, np.int64(8), np.float64(8.0)], ids=["float", "int64", "float64"]
    )
    def test_integral_values_are_stored_as_int(self, name, value):
        stored = INTEGER_FIELDS[name](value)
        assert type(stored) is int
        # a phase solve for z = 0 settles in its first sweep
        assert stored == (1 if name == "solve_phase.max_sweeps" else 8)

    @pytest.mark.parametrize("name", INTEGER_FIELDS)
    @pytest.mark.parametrize(
        "value", [True, 8.5, "8", float("nan"), float("inf"), None],
        ids=["bool", "fraction", "string", "nan", "inf", "none"],
    )
    def test_non_integers_are_config_errors(self, name, value):
        with pytest.raises(ConfigError, match="got"):
            INTEGER_FIELDS[name](value)

    @pytest.mark.parametrize("value", [True, "0.1", float("nan"), None])
    def test_horizons_are_positive_numbers(self, value):
        for build in (lambda: GridSpec(4, 8, value), lambda: EnsembleSpec(1, 2, 8, 1.0, T=value)):
            with pytest.raises(ConfigError, match="T must be positive"):
                build()

    def test_bumps_reject_nan(self):
        with pytest.raises(ConfigError, match="modulation_bumps must be >= 0"):
            EnsembleSpec(1, 2, 8, 1.0, modulation_bumps=float("nan"))


class TestFourierField:
    def test_mode_indexing(self):
        u = FourierField(np.array([1.0, 2.0, 3.0, 4.0, 5.0], dtype=complex))
        assert u.K == 2
        assert u.mode(-2) == 1.0
        assert u.mode(0) == 3.0
        assert u.mode(2) == 5.0
        with pytest.raises(FieldError):
            u.mode(3)

    def test_rejects_even_length(self):
        with pytest.raises(FieldError):
            FourierField(np.zeros(4, dtype=complex))

    def test_rejects_false_symmetry_claim(self):
        c = np.zeros(5, dtype=complex)
        c[3] = 1.0  # u_hat(1) = 1 with no mirror at k = -1
        with pytest.raises(FieldError):
            FourierField(c, real_symmetric=True)

    def test_arithmetic_and_grid_check(self):
        u = cosine_field(3)
        v = cosine_field(3, amplitude=2.0)
        assert np.allclose((u + v).coeffs, 3.0 * u.coeffs)
        assert np.allclose((v - u).coeffs, u.coeffs)
        assert (2.0 * u).real_symmetric
        with pytest.raises(GridMismatchError):
            u + cosine_field(4)

    def test_arithmetic_marks_only_when_every_input_is_marked(self):
        # a real but unmarked operand, or a scalar of complex type, leaves the
        # result unmarked even though it would pass the verdict
        u = cosine_field(3)
        v = FourierField(u.coeffs)
        for out in (u + v, v + u, u - v, v - u, 2.0 * v, (2 + 0j) * u):
            assert not out.real_symmetric
        assert (u + u).real_symmetric and (u - u).real_symmetric
        grid = GridSpec(3, 2, 0.1)
        a = Trajectory(grid, np.stack([u.coeffs, u.coeffs]), real_symmetric=True)
        b = Trajectory(grid, a.coeffs)
        assert not (a - b).real_symmetric and not (b - a).real_symmetric

    def test_cosine_field_values(self):
        u = cosine_field(8)
        assert u.mode(1) == 0.5
        assert u.mode(-1) == 0.5
        assert u.mode(0) == 0.0
        assert u.real_symmetric
        assert cosine_field(4, harmonic=4).mode(-4) == 0.5
        with pytest.raises(FieldError):
            cosine_field(4, harmonic=5)
        with pytest.raises(FieldError):
            cosine_field(4, harmonic=0)

    def test_cosine_field_takes_the_integer_rule(self):
        # not numpy's bare IndexError and TypeError
        with pytest.raises(ConfigError, match="harmonic must be an integer, got 1.5"):
            cosine_field(8, 1.0, 1.5)
        assert type(cosine_field(8.0).K) is int
        assert np.array_equal(cosine_field(8.0).coeffs, cosine_field(8).coeffs)


class TestSampling:
    def test_known_signal_against_dft_oracle(self):
        # u(x) = cos(x) + 0.3 sin(2x) sampled on 64 points
        n = 64
        x = 2.0 * np.pi * np.arange(n) / n
        samples = np.cos(x) + 0.3 * np.sin(2.0 * x)
        u = field_from_samples(samples, K=8)
        assert abs(u.mode(1) - 0.5) < 1e-14
        assert abs(u.mode(2) - (-0.15j)) < 1e-14
        assert abs(u.mode(-2) - 0.15j) < 1e-14
        assert u.real_symmetric
        for k in range(-8, 9):
            assert abs(u.mode(k) - dft_oracle(samples, k)) < 1e-12

    def test_round_trip(self):
        u = random_real_field(6, seed=11)
        v = field_from_samples(to_real_samples(u, 64), K=6)
        assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-13

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10_000))
    def test_half_spectrum_and_mirrored_invert(self, K, seed):
        rng = np.random.default_rng(seed)
        zero = float(rng.standard_normal())
        positive = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        c = mirrored(zero, positive)
        for k in range(1, K + 1):
            assert c[K + k] == positive[k - 1]
            assert c[K - k] == np.conj(positive[k - 1])
        assert c[K] == zero
        n = 2 * K + 5
        half = half_spectrum(c, n)
        assert half.shape == (n // 2 + 1,)
        assert np.array_equal(half[: K + 1], np.concatenate([[zero], positive]))
        assert not half[K + 1 :].any()
        # the literal sum u(x) = sum_k c_k e^{ikx} on the n-point grid
        x = 2.0 * np.pi * np.arange(n) / n
        values = np.exp(1j * np.outer(x, np.arange(-K, K + 1))) @ c
        assert np.max(np.abs(np.fft.irfft(half, n) * n - values)) < 1e-12


class TestSobolevNorm:
    def test_cosine_frozen_values(self):
        u = cosine_field(8)
        assert abs(sobolev_norm(u, 0.0) - math.sqrt(0.5)) < 1e-15
        assert abs(sobolev_norm(u, 1.0) - 1.0) < 1e-15

    def test_matches_literal_sum(self):
        u = random_real_field(12, seed=7)
        for s in (0.0, 0.3, 1.0, 2.5):
            acc = 0.0
            for k in range(-12, 13):
                acc += (1.0 + k * k) ** s * abs(u.mode(k)) ** 2
            assert abs(sobolev_norm(u, s) - math.sqrt(acc)) < 1e-13

    def test_parseval_against_quadrature(self):
        u = random_real_field(10, seed=19)
        n = 128  # enough samples that the mean of u^2 is alias-free
        samples = to_real_samples(u, n)
        assert abs(np.mean(samples**2) - sobolev_norm(u, 0.0) ** 2) < 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    def test_monotone_in_s(self, seed):
        u = random_real_field(6, seed=seed)
        assert sobolev_norm(u, 0.3) <= sobolev_norm(u, 0.8) + 1e-15

    @given(st.floats(min_value=0.0, max_value=8.0))
    def test_homogeneous(self, lam):
        u = random_real_field(6, seed=23)
        assert abs(sobolev_norm(lam * u, 0.5) - lam * sobolev_norm(u, 0.5)) < 1e-12

    def test_truncation_shrinks(self):
        u = random_real_field(10, seed=5)
        v = resize_field(u, 4)
        assert v.K == 4
        assert sobolev_norm(v, 0.3) <= sobolev_norm(u, 0.3)
        w = resize_field(u, 16)
        assert w.K == 16
        assert abs(sobolev_norm(w, 0.3) - sobolev_norm(u, 0.3)) < 1e-15


class TestFieldConstructors:
    def test_field_from_modes(self):
        u = field_from_modes(4, {1: 0.5, -1: 0.5})
        assert np.allclose(u.coeffs, cosine_field(4).coeffs)
        assert u.real_symmetric

    def test_field_from_modes_symmetrize(self):
        u = field_from_modes(4, {2: 1.0 + 1.0j}, symmetrize=True)
        assert u.mode(-2) == np.conj(u.mode(2))
        assert u.real_symmetric

    def test_field_from_modes_out_of_range(self):
        with pytest.raises(FieldError):
            field_from_modes(2, {3: 1.0})
        assert field_from_modes(2, {-2: 1.0}).mode(-2) == 1.0

    def test_symmetry_gauge(self):
        u = random_real_field(8, seed=1)
        assert check_real_symmetry(u) == 0.0
        c = u.coeffs.copy()
        c[0] += 1e-3
        assert check_real_symmetry(FourierField(c)) > 1e-4


class TestSobolevIndex:
    def test_default_derivation(self):
        p = SobolevIndex()
        assert p.s0 == 0.3
        assert abs(p.delta - 0.005) < 1e-15
        assert abs(p.b - 0.51) < 1e-15
        assert abs(p.s1 - 0.8) < 1e-15
        p.validate()

    def test_explicit_values_kept(self):
        p = SobolevIndex(s0=0.3, s1=0.75, delta=0.01)
        assert p.s1 == 0.75
        assert p.b == 0.5 + 2.0 * 0.01
        p.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s0=0.2),
            dict(s0=0.6),
            dict(s0=0.3, s1=0.95),
            dict(s0=0.3, delta=0.2),
        ],
    )
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            SobolevIndex(**kwargs).validate()

    def test_default_s1_is_the_middle_of_its_window(self):
        # at s0 = 0.4 the window is (max(1/2, 0.6), min(1, 1.2)) = (0.6, 1)
        assert abs(SobolevIndex(s0=0.4).s1 - 0.8) < 1e-15

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            (dict(s0=0.25, delta=0.01), ["s0", "s1", "delta"]),
            (dict(s0=0.5), ["s0", "s1"]),
            (dict(s0=0.6), ["s0", "s1"]),
            (dict(s0=0.3, s1=0.7), ["s1"]),
            (dict(s0=0.4, s1=1.0), ["s1"]),
            (dict(s0=0.3, delta=0.0), ["delta"]),
            (dict(s0=0.3, delta=0.3 - 0.25), ["delta"]),
        ],
    )
    def test_each_violated_bound_is_named(self, kwargs, named):
        # every window is open: an exponent on its boundary is named too
        with pytest.raises(ConfigError) as err:
            SobolevIndex(**kwargs)
        assert [p.split(" = ")[0] for p in str(err.value).split("; ")] == named


class TestCumulativeTrapezoid:
    def test_anchored_at_zero(self):
        out = cumulative_trapezoid(np.array([1.0, 3.0, 5.0]), dt=0.5)
        assert out[0] == 0.0
        assert np.allclose(out, [0.0, 1.0, 3.0])

    def test_matches_library_rule(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((16, 3))
        dt = 0.17
        ours = cumulative_trapezoid(y, dt)
        for j in range(3):
            ref = np.concatenate(
                [[0.0], np.cumsum((y[1:, j] + y[:-1, j]) * 0.5 * dt)]
            )
            assert np.max(np.abs(ours[:, j] - ref)) < 1e-14


class TestSerialization:
    def test_field_round_trip_through_json(self):
        u = random_real_field(6, seed=31)
        blob = json.dumps(field_to_obj(u))
        v = field_from_obj(json.loads(blob))
        assert np.max(np.abs(v.coeffs - u.coeffs)) == 0.0
        assert v.real_symmetric

    def test_field_from_obj_requires_full_range(self):
        u = random_real_field(3, seed=1)
        obj = field_to_obj(u)
        with pytest.raises(FieldError):
            field_from_obj(obj[:-1])

    def test_field_from_obj_requires_ascending_rows(self):
        obj = field_to_obj(random_real_field(3, seed=1))
        with pytest.raises(FieldError, match="ascending"):
            field_from_obj(obj[::-1])
        with pytest.raises(FieldError, match="ascending"):
            trajectory_from_obj({"grid": {"K": 3, "M": 2, "T": 0.1}, "frames": [obj, obj[::-1]]})

    @pytest.mark.parametrize(
        "bad",
        [[-1.5, 1.0, 0.0], [-1, 1.0], [-1, 1.0, 0.0, 0.0], [-1, "1.0", 0.0], [-1, None, 0.0],
         [-1, [1.0], 0.0], "abc", 7],
        ids=["fractional-k", "short", "long", "string", "null", "nested", "text", "number"],
    )
    def test_malformed_rows_raise_field_error(self, bad):
        # the k = -1 row of a K = 1 field replaced by bad
        rows = [bad, [0, 0.0, 0.0], [1, 1.0, 0.0]]
        message = "exactly once" if bad == [-1.5, 1.0, 0.0] else "lists of 3 numbers"
        with pytest.raises(FieldError, match=message):
            field_from_obj(rows)
        with pytest.raises(FieldError, match=message):
            trajectory_from_obj({"grid": {"K": 1, "M": 2, "T": 0.1}, "frames": [rows, rows]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"grid": {"K": 1.5, "M": 2.9, "T": 0.1}},
            {"grid": {"K": "1", "M": 2, "T": 0.1}},
            {"grid": {"K": 1, "M": 2, "T": "0.1"}},
            {"grid": {"K": True, "M": 2, "T": 0.1}},
            {"grid": {"K": 1, "M": 2}},
            {"grid": [1, 2, 0.1]},
            {},
        ],
        ids=["fractional", "string-K", "string-T", "bool-K", "no-T", "list", "no-grid"],
    )
    def test_bad_headers_raise_field_error(self, obj):
        rows = field_to_obj(cosine_field(1))
        obj = {**obj, "frames": [rows, rows]}
        with pytest.raises(FieldError, match="a frame table needs a valid grid"):
            trajectory_from_obj(obj)
        with pytest.raises(FieldError, match="a frame table needs a valid grid"):
            phase_from_obj({**obj, "frames": [[[k, 0.0] for k, _, _ in rows]] * 2})

    def test_missing_frames_raise_field_error(self):
        with pytest.raises(FieldError, match="a frame table needs a valid grid and frames"):
            trajectory_from_obj({"grid": {"K": 1, "M": 2, "T": 0.1}})

    def test_integral_header_reads_as_ints(self):
        rows = field_to_obj(cosine_field(1))
        tr = trajectory_from_obj({"grid": {"K": 1.0, "M": 2.0, "T": 0.1}, "frames": [rows, rows]})
        assert tr.grid == GridSpec(1, 2, 0.1)
        assert (type(tr.grid.K), type(tr.grid.M)) == (int, int)

    def test_trajectory_round_trip(self):
        grid = GridSpec(K=3, M=4, T=0.5)
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        tr = Trajectory(grid, coeffs)
        back = trajectory_from_obj(json.loads(json.dumps(trajectory_to_obj(tr))))
        assert back.grid == grid
        assert np.max(np.abs(back.coeffs - tr.coeffs)) == 0.0

    def test_trajectory_shape_check(self):
        grid = GridSpec(K=3, M=4, T=0.5)
        with pytest.raises(FieldError):
            Trajectory(grid, np.zeros((4, 6), dtype=complex))

    def test_trajectory_rejects_false_symmetry_claim(self):
        grid = GridSpec(K=3, M=4, T=0.5)
        c = np.stack([library_random_real_field(3, seed).coeffs for seed in range(4)])
        assert Trajectory(grid, c, real_symmetric=True).real_symmetric
        c[2, 5] += 1e-6  # u_hat(t_2, 2) moved with no mirror at k = -2
        with pytest.raises(FieldError):
            Trajectory(grid, c, real_symmetric=True)
        assert not Trajectory(grid, c).real_symmetric


# offsets of one mode off its mirror, at most 0.99 REAL_SYMMETRY_TOL in modulus
OFFSETS = st.floats(-0.7 * REAL_SYMMETRY_TOL, 0.7 * REAL_SYMMETRY_TOL)


@st.composite
def nearly_real_coeffs(draw, K: int) -> np.ndarray:
    """A real field's modes with one mode moved off its mirror, within the tolerance."""
    c = library_random_real_field(K, draw(st.integers(0, 2**16))).coeffs.copy()
    c[K + draw(st.integers(-K, K))] += complex(draw(OFFSETS), draw(OFFSETS))
    assume(check_real_symmetry(FourierField(c)) <= REAL_SYMMETRY_TOL)
    return c


def drifted(delta: complex) -> np.ndarray:
    """Modes of a K = 4 real field with u_hat(1) moved by delta off its mirror."""
    c = library_random_real_field(4, 1).coeffs.copy()
    c[5] += delta
    return c


class TestRealnessVerdict:
    """One verdict decides the real_symmetric mark: within REAL_SYMMETRY_TOL of the mirror."""

    # modes of modulus 1e5, one of them 5e-8 off its mirror
    LOUD = [[-1, 1e5, 0.0], [0, 0.0, 0.0], [1, 1e5, 5e-8]]

    def test_readers_leave_a_field_beyond_the_tolerance_unmarked(self):
        u = field_from_obj(self.LOUD)
        assert not u.real_symmetric and check_real_symmetry(u) == 5e-8
        obj = {"grid": {"K": 1, "M": 2, "T": 0.1}, "frames": [self.LOUD, self.LOUD]}
        assert not trajectory_from_obj(obj).real_symmetric

    def test_readers_mark_a_field_within_the_tolerance(self):
        obj = field_to_obj(FourierField(drifted(0.5 * REAL_SYMMETRY_TOL)))
        assert field_from_obj(obj).real_symmetric
        tr = trajectory_from_obj({"grid": {"K": 4, "M": 2, "T": 0.1}, "frames": [obj, obj]})
        assert tr.real_symmetric
        assert not field_from_modes(4, {1: 1.0, -1: 1.0 + 2 * REAL_SYMMETRY_TOL}).real_symmetric

    def test_arithmetic_unmarks_a_result_beyond_the_tolerance(self):
        u = FourierField(drifted(0.9e-8j), real_symmetric=True)
        v = FourierField(drifted(-0.9e-8j), real_symmetric=True)
        for out in (u + u, u - v, 3.0 * u):
            assert not out.real_symmetric
            assert check_real_symmetry(out) > REAL_SYMMETRY_TOL
        assert (u + v).real_symmetric
        grid = GridSpec(4, 2, 0.1)
        a = Trajectory(grid, np.stack([u.coeffs, u.coeffs]), real_symmetric=True)
        b = Trajectory(grid, np.stack([v.coeffs, v.coeffs]), real_symmetric=True)
        assert not (a - b).real_symmetric
        assert (a - a).real_symmetric

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.integers(1, 6), st.floats(-4.0, 4.0))
    def test_arithmetic_marks_exactly_by_the_verdict(self, data, K, scalar):
        u, v = (FourierField(data.draw(nearly_real_coeffs(K)), real_symmetric=True) for _ in "uv")
        grid = GridSpec(K, 2, 0.1)
        a, b = (
            Trajectory(grid, np.stack([data.draw(nearly_real_coeffs(K)) for _ in "01"]), True)
            for _ in "ab"
        )
        for out in (u + v, u - v, scalar * u, a - b):
            assert out.real_symmetric == (check_real_symmetry(out) <= REAL_SYMMETRY_TOL)

    def test_non_finite_results_are_left_unmarked(self):
        nan_modes = [[-1, 1.0, 0.0], [0, float("nan"), 0.0], [1, 1.0, 0.0]]
        u = field_from_obj(nan_modes)
        assert not u.real_symmetric and not (u + u).real_symmetric
        obj = {"grid": {"K": 1, "M": 2, "T": 0.1}, "frames": [nan_modes, nan_modes]}
        assert not trajectory_from_obj(obj).real_symmetric
        # the verdict itself passes NaN, so a claimed mark stands and a
        # blown-up solve still reaches its own non-finite check
        v = FourierField(u.coeffs, real_symmetric=True)
        _require_real(u, "not real")
        for out in (v + v, v - v, 2.0 * v):
            assert not out.real_symmetric
        w = FourierField(np.array([np.inf, 0.0, np.inf], dtype=complex), real_symmetric=True)
        assert not (w + w).real_symmetric

    def test_asymmetry_past_the_float_range_is_infinite(self):
        # the difference of 1e308 and its mirror's -1e308 overflows; numpy's
        # RuntimeWarning would be an error under pytest
        u = field_from_obj([[-1, 1e308, 0.0], [0, 0.0, 0.0], [1, -1e308, 0.0]])
        assert check_real_symmetry(u) == np.inf and not u.real_symmetric

    def test_zeros_are_marked(self):
        assert FourierField.zeros(3).real_symmetric
        assert Trajectory.zeros(GridSpec(3, 2, 0.1)).real_symmetric


class TestRandomRealField:
    def test_pinned_draws(self):
        # values drawn before the generator moved into the library
        u = library_random_real_field(3, [7, 1, 2], 1.5)
        assert u.real_symmetric
        assert u.coeffs[3:].tolist() == [
            0j,
            -0.4821822249275462 - 0.2621274913928213j,
            -0.201249130340648 + 0.07688873243860914j,
            0.03918660873809747 + 0.026615689593217137j,
        ]
        v = library_random_real_field(2, 11)
        assert v.coeffs[2:].tolist() == [
            0j,
            -0.07304371588636013 - 0.054127295236038306j,
            0.21966607061563903 + 0.04003116541944742j,
        ]
        assert np.array_equal(v.coeffs[:2], np.conj(v.coeffs[3:])[::-1])

    @pytest.mark.parametrize("K", [1, 2, 4, 16, 128, 1000])
    def test_decay_bound_is_exclusive(self, K):
        # at the bound the top weight is DBL_MAX before rounding, which
        # overflows for some K; one ulp above it every weight is finite, and
        # an overflow warning would be an error under pytest
        lowest = -2.0 * math.log(np.finfo(float).max) / math.log(1 + K**2)
        above = np.nextafter(lowest, np.inf)
        _check_decay(K, above)
        assert np.isfinite(library_random_real_field(K, 0, above).coeffs).all()
        for decay in (lowest, np.nextafter(lowest, -np.inf)):
            with pytest.raises(ConfigError, match=f"must be > {lowest!r} at K = {K},"):
                _check_decay(K, decay)

    def test_config_seeds_are_the_64_bit_unsigned_integers(self):
        for seed in (0, 1000, 2**64 - 1):
            _check_seed(seed)
        for seed in (-1, 2**64, 2.5):
            with pytest.raises(ConfigError):
                _check_seed(seed)


class TestMirroredOutputs:
    @given(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_exactly_symmetric(self, K, seed, exponent):
        # these outputs skip the construction-time check, so they must be
        # exactly symmetric, not merely within REAL_SYMMETRY_TOL
        u = library_random_real_field(K, seed, 1.0)
        samples = 10.0**exponent * np.random.default_rng(seed).standard_normal(2 * K + 2 + seed % 5)
        for out in (u, field_from_samples(samples, K), direct_nonlinearity(10.0**exponent * u)):
            assert out.real_symmetric
            assert check_real_symmetry(out) == 0.0


# Values whose shortest repr is easy to get wrong: a signed zero, the
# smallest subnormal, the switch to exponent form at 1e16, an integer past
# 2**53 and a small negative exponent.
AWKWARD = (-0.0, 5e-324, 1e16, 1e22, 1e-7)
finite_floats = st.one_of(
    st.sampled_from(AWKWARD), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def frame_tables(draw, columns, values=finite_floats):
    """(grid, array of shape (M, 2K+1, columns)) over small K and M."""
    K = draw(st.integers(min_value=1, max_value=3))
    M = draw(st.integers(min_value=2, max_value=4))
    T = draw(st.sampled_from((0.01, 1.0, 2.5e-3, 3)))
    shape = (M, 2 * K + 1, columns)
    n = int(np.prod(shape))
    vals = draw(st.lists(values, min_size=n, max_size=n))
    return GridSpec(K, M, T), np.array(vals, dtype=float).reshape(shape)


# How a k < 0 value relates to its mirror at -k; "ulp" moves the copy or the
# negation one ulp toward zero, "own" is a value of its own.
RELATIONS = ("copy", "negate", "ulp copy", "ulp negate", "own")


def related(relation, mirror, own):
    if relation.startswith("ulp"):
        mirror = np.nextafter(mirror, 0.0) if mirror != 0.0 else 5e-324
    if relation == "own":
        return own
    return -mirror if relation.endswith("negate") else mirror


@st.composite
def mirrored_tables(draw, columns):
    """(grid, (M, 2K+1, columns) table) whose k < 0 rows mirror the k > 0 rows.

    Each frame and column is drawn as all copies, all negations, or mixed,
    where every value is related to its mirror by one of RELATIONS.
    """
    K = draw(st.integers(min_value=1, max_value=3))
    M = draw(st.integers(min_value=2, max_value=4))
    values = st.one_of(st.sampled_from((0.0, -0.0)), finite_floats)
    table = np.empty((M, 2 * K + 1, columns))
    table[:, K:] = np.reshape(
        draw(st.lists(values, min_size=M * (K + 1) * columns, max_size=M * (K + 1) * columns)),
        (M, K + 1, columns),
    )
    for n in range(M):
        for c in range(columns):
            kind = draw(st.sampled_from(("copy", "negate", "mixed")))
            for j in range(K):
                relation = draw(st.sampled_from(RELATIONS)) if kind == "mixed" else kind
                own = draw(values) if relation == "own" else 0.0
                table[n, j, c] = related(relation, table[n, 2 * K - j, c], own)
    return GridSpec(K, M, 0.5), table


def frames_obj(grid, table):
    """The object write_frames_json serializes: [k, *values] rows per frame."""
    ks = grid.wavenumbers.tolist()
    return {
        "grid": {"K": grid.K, "M": grid.M, "T": grid.T},
        "frames": [[[k, *row] for k, row in zip(ks, frame)] for frame in table.tolist()],
    }


def make_trajectory(grid, table):
    c = np.empty(table.shape[:2], dtype=complex)
    c.real = table[..., 0]
    c.imag = table[..., 1]
    return Trajectory(grid, c)


def assert_same_floats(got, want):
    """got equals want bit for bit, up to the payload and sign of a NaN, which json drops."""
    assert np.array_equal(got, want, equal_nan=True)
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


def written(grid, columns) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "frames.json")
        write_frames_json(path, grid, columns)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


class TestFrameWriter:
    """write_frames_json writes the bytes json.dump(obj, indent=2) + newline would.

    The expected object is the tests' own frames_obj: the package's
    trajectory_to_obj and phase_to_obj share their row builder with the
    writer's non-finite fallback, so they could not stand in for it.
    """

    @given(frame_tables(2))
    def test_trajectory_bytes(self, drawn):
        tr = make_trajectory(*drawn)
        expected = json.dumps(frames_obj(*drawn), indent=2) + "\n"
        assert written(tr.grid, (tr.coeffs.real, tr.coeffs.imag)) == expected

    @given(frame_tables(1))
    def test_phase_bytes(self, drawn):
        grid, table = drawn
        values = table[..., 0].copy()
        values[0] = 0.0
        ph = PhaseTable(grid, values)
        expected = json.dumps(frames_obj(grid, values[..., None]), indent=2) + "\n"
        assert written(grid, (ph.values,)) == expected

    def test_awkward_values_in_every_column(self):
        grid = GridSpec(K=2, M=2, T=0.5)
        table = np.resize(np.array(AWKWARD + (-1e22, 0.1)), (2, 5, 2))
        tr = make_trajectory(grid, table)
        text = written(grid, (tr.coeffs.real, tr.coeffs.imag))
        assert text == json.dumps(frames_obj(grid, table), indent=2) + "\n"
        for v in AWKWARD:
            assert f" {v!r}" in text

    @given(frame_tables(2, values=st.one_of(finite_floats, st.floats())))
    def test_non_finite_values_fall_back_to_json(self, drawn):
        tr = make_trajectory(*drawn)
        expected = json.dumps(frames_obj(*drawn), indent=2) + "\n"
        assert written(tr.grid, (tr.coeffs.real, tr.coeffs.imag)) == expected

    @given(frame_tables(2, values=st.one_of(finite_floats, st.floats())))
    def test_trajectories_read_back_exactly(self, drawn):
        # an infinite imaginary part must not turn the real part into NaN
        grid, table = drawn
        back = trajectory_from_obj(json.loads(written(grid, (table[..., 0], table[..., 1]))))
        assert back.grid == grid
        assert_same_floats(np.stack((back.coeffs.real, back.coeffs.imag), axis=-1), table)

    @given(frame_tables(1, values=st.one_of(finite_floats, st.floats())))
    def test_phase_tables_read_back_exactly(self, drawn):
        grid, table = drawn
        values = table[..., 0].copy()
        values[0] = 0.0
        back = phase_from_obj(json.loads(written(grid, (values,))))
        assert back.grid == grid
        assert_same_floats(back.values, values)

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=2).flatmap(mirrored_tables))
    def test_mirrored_bytes(self, drawn):
        # the k < 0 strings are derived from their mirrors: copied, sign
        # flipped (0.0 against -0.0 too) or, one ulp off, formatted anew
        grid, table = drawn
        expected = json.dumps(frames_obj(grid, table), indent=2) + "\n"
        assert written(grid, tuple(np.moveaxis(table, -1, 0))) == expected

    def test_memory_is_per_frame(self):
        # formatting the whole table (131,584 doubles) at once peaks near 12 MiB
        grid = GridSpec(128, 256, 0.01)
        rng = np.random.default_rng(0)
        half = rng.standard_normal((256, 129)) + 1j * rng.standard_normal((256, 129))
        c = mirrored(half[:, 0].real, half[:, 1:])
        with tempfile.TemporaryDirectory() as tmp:
            tracemalloc.start()
            try:
                write_frames_json(os.path.join(tmp, "frames.json"), grid, (c.real, c.imag))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_non_finite_tokens(self):
        grid = GridSpec(K=1, M=2, T=0.5)
        c = np.zeros((2, 3), dtype=complex)
        c[1] = [complex(np.nan, 1.0), complex(np.inf, -np.inf), complex(0.5, -0.0)]
        tr = Trajectory(grid, c)
        text = written(grid, (tr.coeffs.real, tr.coeffs.imag))
        table = np.stack((c.real, c.imag), axis=-1)
        assert text == json.dumps(frames_obj(grid, table), indent=2) + "\n"
        assert "NaN" in text and "-Infinity" in text and "nan" not in text
        back = trajectory_from_obj(json.loads(text))
        assert np.array_equal(back.coeffs, tr.coeffs, equal_nan=True)
