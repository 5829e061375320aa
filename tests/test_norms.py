"""Windowed space-time norm proxies."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_real_field
from mkdvlab import (
    ConfigError,
    FourierField,
    GridMismatchError,
    GridSpec,
    NormProxyConfig,
    SobolevIndex,
    Trajectory,
    cosine_field,
    field_from_modes,
    hs_norms,
    phase_rates,
    sobolev_norm,
    window_weights,
    x_space_norm,
    xinfty_hs_norm,
    ysb_norm_proxy,
)


def ysb_oracle(z: Trajectory, cfg: NormProxyConfig, f=None) -> float:
    """The proxy written out as literal sums, window and DFT included."""
    M, dt, K = z.grid.M, z.grid.dt, z.K
    n = np.arange(M)
    if cfg.window == "hann":
        w = 0.5 * (1.0 - np.cos(2.0 * np.pi * n / (M - 1)))
    else:
        w = np.ones(M)
    w = w / math.sqrt(np.sum(w**2) * dt)
    Mp = cfg.pad_factor * M
    total = 0.0
    for k in range(-K, K + 1):
        phi = float(k) ** 3
        if cfg.phase == "modified":
            phi += k * abs(f.mode(k)) ** 2
        g = w * z.coeffs[:, k + K] * np.exp(-1j * phi * z.grid.times)
        for m in range(Mp):
            G = dt * np.sum(g * np.exp(-2j * np.pi * m * n / Mp))
            freq = (m if m < (Mp + 1) // 2 else m - Mp) / (Mp * dt)
            tau = 2.0 * np.pi * freq
            total += (1.0 + k * k) ** cfg.s * (1.0 + tau * tau) ** cfg.b * abs(G) ** 2
    return math.sqrt(total / (Mp * dt))


def free_mode(grid: GridSpec, k0: int, c: complex, shift: float = 0.0) -> Trajectory:
    coeffs = np.zeros((grid.M, grid.n_modes), dtype=complex)
    coeffs[:, k0 + grid.K] = c * np.exp(1j * (k0**3 + shift) * grid.times)
    return Trajectory(grid, coeffs)


class TestWindowWeights:
    @pytest.mark.parametrize("kind", ["hann", "rect"])
    def test_normalization(self, kind):
        w = window_weights(32, 0.013, kind)
        assert abs(np.sum(w**2) * 0.013 - 1.0) < 1e-12

    def test_rect_is_flat(self):
        w = window_weights(16, 0.1, "rect")
        assert np.max(np.abs(w - w[0])) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            window_weights(16, 0.1, "kaiser")


class TestPhaseRates:
    def test_airy(self):
        rates = phase_rates(3, "airy", None)
        assert np.array_equal(rates, np.arange(-3, 4).astype(float) ** 3)

    def test_modified_shift(self):
        f = cosine_field(3)
        rates = phase_rates(3, "modified", f)
        assert abs(rates[4] - 1.25) < 1e-15
        assert abs(rates[2] + 1.25) < 1e-15

    def test_modified_requires_profile(self):
        with pytest.raises(ConfigError):
            phase_rates(3, "modified", None)
        with pytest.raises(GridMismatchError):
            phase_rates(3, "modified", cosine_field(4))


class TestYsbProxy:
    @pytest.mark.parametrize("window", ["hann", "rect"])
    def test_free_mode_at_b_zero_is_exact(self, window):
        # with b = 0 the tau sum telescopes to the window normalization
        grid = GridSpec(K=4, M=32, T=0.01)
        z = free_mode(grid, 3, 0.7)
        cfg = NormProxyConfig(s=0.3, b=0.0, window=window)
        got = ysb_norm_proxy(z, cfg)
        assert abs(got - 0.7 * (1.0 + 9.0) ** 0.15) < 1e-12

    def test_matches_literal_sums(self):
        grid = GridSpec(K=2, M=8, T=0.05)
        rng = np.random.default_rng(17)
        z = Trajectory(
            grid, rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        )
        f = cosine_field(2)
        for cfg in (
            NormProxyConfig(s=0.3, b=0.51, window="hann", pad_factor=2),
            NormProxyConfig(s=0.0, b=1.0, window="rect", pad_factor=2),
            NormProxyConfig(s=0.3, b=0.51, window="hann", pad_factor=2, phase="modified"),
        ):
            got = ysb_norm_proxy(z, cfg, f)
            ref = ysb_oracle(z, cfg, f)
            assert abs(got - ref) < 1e-12 * max(1.0, ref)

    def test_demodulation_phase_matters(self):
        # a free modified mode measured in the wrong frame spreads in tau
        f = field_from_modes(8, {1: 3.0, -1: 3.0})
        grid = GridSpec(K=8, M=64, T=1.0)
        z = free_mode(grid, 1, 0.5, shift=9.0)
        right = ysb_norm_proxy(z, NormProxyConfig(s=0.3, b=0.51, phase="modified"), f)
        wrong = ysb_norm_proxy(z, NormProxyConfig(s=0.3, b=0.51, phase="airy"))
        assert right < wrong

    def test_exactly_homogeneous(self):
        grid = GridSpec(K=3, M=16, T=0.1)
        rng = np.random.default_rng(4)
        z = Trajectory(
            grid, rng.standard_normal((16, 7)) + 1j * rng.standard_normal((16, 7))
        )
        cfg = NormProxyConfig(s=0.3, b=0.51)
        doubled = Trajectory(grid, 2.0 * z.coeffs)
        assert ysb_norm_proxy(doubled, cfg) == 2.0 * ysb_norm_proxy(z, cfg)

    def test_monotone_in_exponents(self):
        grid = GridSpec(K=4, M=16, T=0.1)
        rng = np.random.default_rng(9)
        z = Trajectory(
            grid, rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9))
        )
        low = ysb_norm_proxy(z, NormProxyConfig(s=0.3, b=0.0))
        mid = ysb_norm_proxy(z, NormProxyConfig(s=0.3, b=0.51))
        high = ysb_norm_proxy(z, NormProxyConfig(s=0.8, b=0.51))
        assert low <= mid <= high

    def test_needs_enough_frames(self):
        grid = GridSpec(K=2, M=4, T=0.1)
        with pytest.raises(ConfigError):
            ysb_norm_proxy(Trajectory.zeros(grid), NormProxyConfig(s=0.3, b=0.51))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            NormProxyConfig(s=0.3, b=0.5, window="welch")
        with pytest.raises(ConfigError):
            NormProxyConfig(s=0.3, b=0.5, pad_factor=0)
        with pytest.raises(ConfigError):
            NormProxyConfig(s=0.3, b=0.5, phase="galilean")


class TestSupNorm:
    def test_matches_per_frame_maximum(self):
        grid = GridSpec(K=5, M=12, T=0.4)
        rng = np.random.default_rng(12)
        z = Trajectory(
            grid, rng.standard_normal((12, 11)) + 1j * rng.standard_normal((12, 11))
        )
        s = 0.8
        per_frame = []
        for m in range(12):
            acc = 0.0
            for k in range(-5, 6):
                acc += (1.0 + k * k) ** s * abs(z.coeffs[m, k + 5]) ** 2
            per_frame.append(math.sqrt(acc))
        assert abs(xinfty_hs_norm(z, s) - max(per_frame)) < 1e-13

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-1.0, max_value=2.0),
    )
    def test_rows_are_the_frame_norms(self, K, M, seed, s):
        rng = np.random.default_rng(seed)
        shape = (M, 2 * K + 1)
        tr = Trajectory(
            GridSpec(K, M, 0.1), rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        rows = hs_norms(tr.coeffs, s)
        assert rows.shape == (M,)
        for n in range(M):
            assert rows[n] == sobolev_norm(tr.frame(n), s)
        assert xinfty_hs_norm(tr, s) == max(rows)

    def test_growing_mode(self):
        grid = GridSpec(K=2, M=8, T=1.0)
        coeffs = np.zeros((8, 5), dtype=complex)
        coeffs[:, 3] = grid.times
        z = Trajectory(grid, coeffs)
        assert abs(xinfty_hs_norm(z, 0.0) - 1.0) < 1e-15


class TestCompositeNorm:
    def test_is_the_sum_of_its_parts(self):
        grid = GridSpec(K=4, M=16, T=0.1)
        rng = np.random.default_rng(6)
        z = Trajectory(
            grid, rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9))
        )
        f = random_real_field(4, seed=2)
        params = SobolevIndex()
        cfg = NormProxyConfig(s=params.s0, b=params.b, phase="modified")
        expected = ysb_norm_proxy(z, cfg, f) + xinfty_hs_norm(z, params.s1)
        assert abs(x_space_norm(z, params, f) - expected) < 1e-14

    def test_rejects_inadmissible_exponents(self):
        grid = GridSpec(K=2, M=8, T=0.1)
        with pytest.raises(ConfigError):
            x_space_norm(
                Trajectory.zeros(grid), SobolevIndex(s0=0.6), cosine_field(2)
            )
