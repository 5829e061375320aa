"""Windowed space-time norm proxies."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_real_field, tau_power_oracle
from mkdvlab import (
    ConfigError,
    FourierField,
    GridMismatchError,
    GridSpec,
    NormProxyConfig,
    SobolevIndex,
    Trajectory,
    cosine_field,
    duhamel_integrate,
    field_from_modes,
    free_modulated_trajectory,
    hs_norms,
    phase_rates,
    sobolev_norm,
    window_weights,
    x_space_norm,
    xinfty_hs_norm,
    ysb_norm_proxy,
)
from mkdvlab import norms
from mkdvlab.norms import _free_phase_factor, _proxy_tables
from mkdvlab.spectral import bracket_sq


def ysb_oracle(z: Trajectory, s: float, b: float, cfg: NormProxyConfig, f=None) -> float:
    """The proxy written out as literal sums, window and DFT included.

    The phase is the modified one when a profile f is given, else the Airy one.
    """
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
        if f is not None:
            phi += k * abs(f.mode(k)) ** 2
        g = w * z.coeffs[:, k + K] * np.exp(-1j * phi * z.grid.times)
        for m in range(Mp):
            G = dt * np.sum(g * np.exp(-2j * np.pi * m * n / Mp))
            freq = (m if m < (Mp + 1) // 2 else m - Mp) / (Mp * dt)
            tau = 2.0 * np.pi * freq
            total += (1.0 + k * k) ** s * (1.0 + tau * tau) ** b * abs(G) ** 2
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
        rates = phase_rates(3)
        assert np.array_equal(rates, np.arange(-3, 4).astype(float) ** 3)
        assert np.array_equal(phase_rates(3, None), rates)

    def test_modified_shift(self):
        f = cosine_field(3)
        rates = phase_rates(3, f)
        assert abs(rates[4] - 1.25) < 1e-15
        assert abs(rates[2] + 1.25) < 1e-15

    def test_modified_requires_profile(self):
        # the modified rate is taken from a profile on the same cutoff
        with pytest.raises(GridMismatchError):
            phase_rates(3, cosine_field(4))


class TestYsbProxy:
    @pytest.mark.parametrize("window", ["hann", "rect"])
    def test_free_mode_at_b_zero_is_exact(self, window):
        # with b = 0 the tau sum telescopes to the window normalization
        grid = GridSpec(K=4, M=32, T=0.01)
        z = free_mode(grid, 3, 0.7)
        got = ysb_norm_proxy(z, 0.3, 0.0, proxy=NormProxyConfig(window=window))
        assert abs(got - 0.7 * (1.0 + 9.0) ** 0.15) < 1e-12

    def test_matches_literal_sums(self):
        grid = GridSpec(K=2, M=8, T=0.05)
        rng = np.random.default_rng(17)
        z = Trajectory(
            grid, rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        )
        f = cosine_field(2)
        # the Airy phase without a profile, the modified phase with one
        for s, b, cfg, profile in (
            (0.3, 0.51, NormProxyConfig("hann", 2), None),
            (0.0, 1.0, NormProxyConfig("rect", 2), None),
            (0.0, 1.0, NormProxyConfig("rect", 2), f),
            (0.3, 0.51, NormProxyConfig("hann", 2), f),
        ):
            got = ysb_norm_proxy(z, s, b, profile, cfg)
            ref = ysb_oracle(z, s, b, cfg, profile)
            assert abs(got - ref) < 1e-12 * max(1.0, ref)

    def test_demodulation_phase_matters(self):
        # a free modified mode measured in the wrong frame spreads in tau
        f = field_from_modes(8, {1: 3.0, -1: 3.0})
        grid = GridSpec(K=8, M=64, T=1.0)
        z = free_mode(grid, 1, 0.5, shift=9.0)
        right = ysb_norm_proxy(z, 0.3, 0.51, f)
        wrong = ysb_norm_proxy(z, 0.3, 0.51)
        assert right < wrong

    @pytest.mark.parametrize(
        "K, M, window, pad", [(3, 16, "hann", 4), (16, 33, "rect", 2), (64, 8, "hann", 1)]
    )
    def test_marked_trajectory_reads_half_columns(self, K, M, window, pad):
        # the proxy of a real trajectory from its columns k >= 0 equals the
        # full-column value to rounding, with and without a profile
        grid = GridSpec(K=K, M=M, T=0.02)
        f = random_real_field(K, seed=K)
        c = np.stack([random_real_field(K, seed=[K, n]).coeffs for n in range(M)])
        marked, plain = Trajectory(grid, c, real_symmetric=True), Trajectory(grid, c)
        proxy = NormProxyConfig(window, pad)
        for s, b, profile in ((0.3, 0.51, f), (0.0, 1.0, None), (0.5, -0.4, f)):
            half = ysb_norm_proxy(marked, s, b, profile, proxy)
            full = ysb_norm_proxy(plain, s, b, profile, proxy)
            assert abs(half - full) <= 1e-14 * full

    def test_exactly_homogeneous(self):
        grid = GridSpec(K=3, M=16, T=0.1)
        rng = np.random.default_rng(4)
        z = Trajectory(
            grid, rng.standard_normal((16, 7)) + 1j * rng.standard_normal((16, 7))
        )
        doubled = Trajectory(grid, 2.0 * z.coeffs)
        assert ysb_norm_proxy(doubled, 0.3, 0.51) == 2.0 * ysb_norm_proxy(z, 0.3, 0.51)

    def test_monotone_in_exponents(self):
        grid = GridSpec(K=4, M=16, T=0.1)
        rng = np.random.default_rng(9)
        z = Trajectory(
            grid, rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9))
        )
        low = ysb_norm_proxy(z, 0.3, 0.0)
        mid = ysb_norm_proxy(z, 0.3, 0.51)
        high = ysb_norm_proxy(z, 0.8, 0.51)
        assert low <= mid <= high

    def test_needs_enough_frames(self):
        grid = GridSpec(K=2, M=4, T=0.1)
        with pytest.raises(ConfigError):
            ysb_norm_proxy(Trajectory.zeros(grid), 0.3, 0.51)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            NormProxyConfig(window="welch")
        with pytest.raises(ConfigError):
            NormProxyConfig(pad_factor=0)


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
        proxy = NormProxyConfig("rect", 2)
        expected = ysb_norm_proxy(z, params.s0, params.b, f, proxy) + xinfty_hs_norm(z, params.s1)
        assert abs(x_space_norm(z, params, f, proxy) - expected) < 1e-14

    def test_rejects_inadmissible_exponents(self):
        grid = GridSpec(K=2, M=8, T=0.1)
        with pytest.raises(ConfigError):
            x_space_norm(
                Trajectory.zeros(grid), SobolevIndex(s0=0.6), cosine_field(2)
            )

    def test_memory_ceiling(self):
        # the proxy squares and weighs its padded spectrum in place: one
        # K = 128, M = 256 call peaks at 6.0 MiB traced (9.1 MiB with the
        # out-of-place products), and the Picard loop makes two per iterate
        # with the tables it builds once per solve
        grid = GridSpec(K=128, M=256, T=0.01)
        rng = np.random.default_rng(11)
        z = Trajectory(
            grid, rng.standard_normal((256, 257)) + 1j * rng.standard_normal((256, 257))
        )
        f = random_real_field(128, seed=3)
        params = SobolevIndex()
        tables = _proxy_tables(grid, f, NormProxyConfig(), ((params.s0, params.b),))
        tracemalloc.start()
        try:
            x_space_norm(z, params, f, tables=tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def inline_factor(grid, sign, f, bumps=None):
    """The free phase factor written out at its call site."""
    phi = phase_rates(grid.K, f)
    if bumps is not None:
        phi = phi + bumps
    if sign < 0:
        return np.exp(-1j * phi[None, :] * grid.times[:, None])
    return np.exp(1j * phi[None, :] * grid.times[:, None])


def inline_ysb(z, s, b, cfg, f=None):
    """ysb_norm_proxy written out with no table built ahead."""
    M, dt, K = z.grid.M, z.grid.dt, z.K
    w = window_weights(M, dt, cfg.window)
    phi = phase_rates(K, f)
    demod = z.coeffs * np.exp(-1j * phi[None, :] * z.grid.times[:, None])
    Mp = int(cfg.pad_factor) * M
    spectrum = np.fft.fft(w[:, None] * demod, n=Mp, axis=0) * dt
    taus = 2.0 * np.pi * np.fft.fftfreq(Mp, d=dt)
    tau_weight = (1.0 + taus**2) ** b
    mode_power = np.sum(tau_weight[:, None] * np.abs(spectrum) ** 2, axis=0)
    total = float(np.sum(bracket_sq(K) ** s * mode_power)) / (Mp * dt)
    return math.sqrt(total)


def same_bits(a, b):
    """Equal values and equal sign bits, so -0.0 and 0.0 count as different."""
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def random_bumps(K, seed, scale):
    half = scale * (2.0 * np.random.default_rng(seed).random(K) - 1.0)
    return np.concatenate([-half[::-1], [0.0], half])


@st.composite
def cache_cases(draw):
    K = draw(st.integers(1, 16))
    grid = GridSpec(K, draw(st.integers(8, 32)), draw(st.sampled_from([0.01, 0.5, 2.0])))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=2, max_size=4))
    bump_scale = draw(st.sampled_from([0.0, 0.3, 40.0]))
    return grid, seeds, bump_scale


class TestFreePhaseCache:
    """The free phase factor and the proxy tables against the formulas they replace."""

    @settings(max_examples=40, deadline=None)
    @given(cache_cases(), st.sampled_from([-1, 1]), st.booleans())
    def test_factor_tracks_profile_and_bumps(self, case, sign, with_profile):
        # without a profile the factor is the Airy one
        grid, seeds, bump_scale = case
        for seed in seeds:
            f = random_real_field(grid.K, seed=seed) if with_profile else None
            for bumps in (None, random_bumps(grid.K, seed, bump_scale)):
                got = _free_phase_factor(grid, sign, f, bumps)
                assert same_bits(got, inline_factor(grid, sign, f, bumps))

    @settings(max_examples=30, deadline=None)
    @given(cache_cases(), st.booleans())
    def test_proxy_tracks_profile_and_config(self, case, with_profile):
        grid, seeds, _ = case
        rng = np.random.default_rng(seeds[0])
        shape = (grid.M, grid.n_modes)
        z = Trajectory(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for seed in seeds:
            f = random_real_field(grid.K, seed=seed) if with_profile else None
            for window in ("hann", "rect"):
                for s, b in ((0.3, 0.51), (0.3, -0.39), (0.0, 0.51)):
                    for pad_factor in (1, 2):
                        cfg = NormProxyConfig(window, pad_factor)
                        expected = inline_ysb(z, s, b, cfg, f)
                        assert ysb_norm_proxy(z, s, b, f, cfg) == expected
                        held = _proxy_tables(grid, f, cfg, ((s, b), (0.1, 0.2)))
                        assert ysb_norm_proxy(z, s, b, f, cfg, tables=held) == expected

    def test_checks_run_on_every_call(self):
        # a table of the right cutoff does not let a wrong profile through
        grid = GridSpec(4, 16, 0.5)
        z = Trajectory.zeros(grid)
        for _ in range(3):
            ysb_norm_proxy(z, 0.3, 0.51, random_real_field(4, seed=1))
            with pytest.raises(GridMismatchError):
                ysb_norm_proxy(z, 0.3, 0.51, random_real_field(5, seed=1))
            with pytest.raises(GridMismatchError):
                _free_phase_factor(grid, 1, random_real_field(3, seed=1))

    def test_one_factor_per_grid_and_sign(self, monkeypatch):
        # a run's tables hold one damping factor, and one growth factor only
        # when asked for; every build is fresh and writable
        grid = GridSpec(6, 16, 0.5)
        f = random_real_field(6, seed=4)
        signs = []

        def counting(grid, sign, *args):
            signs.append(sign)
            return _free_phase_factor(grid, sign, *args)

        monkeypatch.setattr(norms, "_free_phase_factor", counting)
        exponents = ((0.3, 0.51), (0.3, -0.39))
        first = _proxy_tables(grid, f, NormProxyConfig(), exponents)
        assert signs == [-1] and first.growth is None and set(first.weights) == set(exponents)
        second = _proxy_tables(grid, f, NormProxyConfig(), exponents, growth=True)
        assert signs == [-1, 1, -1]
        assert same_bits(second.growth, inline_factor(grid, 1, f))
        assert second.damping is not first.damping and second.damping.flags.writeable
        assert same_bits(second.damping, first.damping)

    def test_held_tables_must_match(self):
        # tables of another grid, profile (by identity, so an equal copy
        # fails too) or proxy, or without the call's exponents, raise
        grid = GridSpec(4, 16, 0.5)
        z = Trajectory(grid, np.random.default_rng(2).standard_normal((16, 9)) + 0j)
        f = random_real_field(4, seed=1)
        proxy = NormProxyConfig()
        tables = _proxy_tables(grid, f, proxy, ((0.3, 0.51),), growth=True)
        assert ysb_norm_proxy(z, 0.3, 0.51, f, tables=tables) == ysb_norm_proxy(z, 0.3, 0.51, f)
        other = Trajectory(GridSpec(4, 16, 0.25), z.coeffs)
        copy = FourierField(f.coeffs.copy(), real_symmetric=True)
        for call in (
            lambda: ysb_norm_proxy(other, 0.3, 0.51, f, tables=tables),
            lambda: ysb_norm_proxy(z, 0.3, 0.51, copy, tables=tables),
            lambda: ysb_norm_proxy(z, 0.3, 0.51, None, tables=tables),
            lambda: ysb_norm_proxy(z, 0.3, 0.51, f, NormProxyConfig("rect"), tables=tables),
            lambda: ysb_norm_proxy(z, 0.3, 0.52, f, tables=tables),
            lambda: x_space_norm(z, SobolevIndex(), copy, tables=tables),
            lambda: duhamel_integrate(z, copy, tables=tables),
            lambda: free_modulated_trajectory(f, copy, grid, tables=tables),
        ):
            with pytest.raises(GridMismatchError):
                call()

    def test_phase_table_built_once(self, monkeypatch):
        # pins the gain: repeated proxies of one (trajectory, profile, config)
        # with one held carrier build the phase table once, not once per call
        calls = []

        def counting(*args):
            calls.append(args)
            return phase_rates(*args)

        monkeypatch.setattr(norms, "phase_rates", counting)
        grid = GridSpec(5, 16, 0.5)
        rng = np.random.default_rng(8)
        z = Trajectory(grid, rng.standard_normal((16, 11)) + 0j)
        f = random_real_field(5, seed=12345)
        tables = _proxy_tables(grid, f, NormProxyConfig(), ((0.3, 0.51),))
        values = {ysb_norm_proxy(z, 0.3, 0.51, f, tables=tables) for _ in range(10)}
        assert len(values) == 1
        assert len(calls) == 1 and calls[0][0] == 5 and calls[0][1] is f


class TestTauPowerBlocks:
    """_tau_power's column blocks against one whole-table transform."""

    @pytest.mark.parametrize("K, M, pad", [(128, 256, 4), (8, 16, 4)])
    def test_blocks_match_one_whole_table_transform(self, K, M, pad):
        # at K = 128 the 129 and 257 columns end in a block of 17, not in a
        # lone column, which numpy would sum pairwise rather than row by row
        grid = GridSpec(K, M, 0.01)
        proxy = NormProxyConfig(pad_factor=pad)
        w, Mp, tau_weight, *_ = norms._proxy_weights(grid, proxy, 0.3, 0.51)
        rng = np.random.default_rng(K)
        for n in (K + 1, 2 * K + 1):
            windowed = w * (rng.standard_normal((M, n)) + 1j * rng.standard_normal((M, n)))
            got = norms._tau_power(windowed, Mp, grid.dt, tau_weight)
            assert np.array_equal(got, tau_power_oracle(windowed, Mp, grid.dt, tau_weight))
        assert (Mp * (K + 1) > norms._COLUMN_BLOCK) == (K == 128)

    def test_one_column_call(self):
        # the free power of _proxy_weights transforms the window alone
        grid = GridSpec(128, 256, 0.01)
        w, Mp, tau_weight, _, _, free = norms._proxy_weights(grid, NormProxyConfig(), 0.3, 0.51)
        expected = tau_power_oracle(w, Mp, grid.dt, tau_weight) / (Mp * grid.dt)
        assert np.array_equal(free, expected)

    def test_proxy_memory_ceiling(self):
        # a marked trajectory on K = 128, M = 256 with the call's own tables:
        # 2.2 MiB with column blocks, 4.0 MiB with the whole padded table
        grid = GridSpec(128, 256, 0.01)
        f = random_real_field(128, seed=1000)
        g = random_real_field(128, seed=1001)
        z = Trajectory(grid, np.tile(g.coeffs, (grid.M, 1)), real_symmetric=True)
        params = SobolevIndex()
        tracemalloc.start()
        try:
            ysb_norm_proxy(z, params.s0, params.b, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20
