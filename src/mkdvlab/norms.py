"""Windowed space-time norm proxies for dispersive modulation weights.

The continuum norm weights the space-time Fourier transform by
<k>^{2s} <tau - phi_k>^{2b}, where phi_k is either the cubic dispersion
k^3 or its profile-shifted variant k^3 + k |f_hat(k)|^2. On a finite time
window only a proxy is computable: each mode's series is multiplied by a
unit-L^2 window, demodulated by exp(-i phi_k t), zero-padded, and DFT'd in
time; the weight is then applied on the centered tau grid. Demodulating
before the transform is an exact continuum identity (it translates tau by
phi_k) and is what makes the discretization usable: phi_k grows like K^3
and would otherwise sit far outside the representable tau range, aliasing
the weight. The restriction-norm infimum over extensions is NOT computed;
every result speaks about this windowed proxy, and reports must echo the
window and padding so numbers are comparable.

NormProxyConfig holds only that discretization, the window and the padding.
The exponents (s, b) are arguments of each call, since one run measures
inputs and outputs at different b, and the phase follows from the profile:
phi_k is the profile-shifted rate when f is given and k^3 when it is not.

Quadrature in tau is the rectangle rule on the padded DFT grid. With the
window normalization sum w(t_n)^2 dt = 1 the proxy of a free mode
exp(i phi_{k0} t) at b = 0 is exactly <k0>^s, which pins the constants.

A trajectory marked real_symmetric is read on its columns k >= 0 only,
with weight 2 on k >= 1: phi is odd, so the demodulated -k series is the
conjugate of the +k series, and the tau weight is even, so the two columns
carry equal power. Unmarked trajectories are read on all 2K+1 columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError
from .spectral import (
    FourierField, GridSpec, SobolevIndex, Trajectory, _cached, bracket_sq, hs_norms
)

__all__ = [
    "NormProxyConfig",
    "window_weights",
    "phase_rates",
    "ysb_norm_proxy",
    "xinfty_hs_norm",
    "x_space_norm",
]

_WINDOWS = ("hann", "rect")
_PHASES = ("airy", "modified")

# Per (grid, sign) the free phase factor of the latest (profile, bumps), and
# per (grid, window, pad_factor, s, b, half) the weights of ysb_norm_proxy.
_FACTORS: dict[tuple[GridSpec, int], tuple[tuple, np.ndarray]] = {}
_PROXY_WEIGHTS: dict[tuple, tuple[None, tuple]] = {}


@dataclass(frozen=True)
class NormProxyConfig:
    """Discretization of the norm proxy: the time window and its zero padding."""

    window: str = "hann"
    pad_factor: int = 4

    def __post_init__(self) -> None:
        if self.window not in _WINDOWS:
            raise ConfigError(f"window must be one of {_WINDOWS}, got {self.window!r}")
        if int(self.pad_factor) != self.pad_factor or self.pad_factor < 1:
            raise ConfigError(f"pad_factor must be an integer >= 1, got {self.pad_factor!r}")


def window_weights(M: int, dt: float, kind: str) -> np.ndarray:
    """Window samples normalized to sum w^2 dt = 1."""
    if kind == "hann":
        w = np.hanning(M)
    elif kind == "rect":
        w = np.ones(M)
    else:
        raise ConfigError(f"window must be one of {_WINDOWS}, got {kind!r}")
    return w / math.sqrt(float(np.sum(w**2)) * dt)


def phase_rates(K: int, phase: str, f: FourierField | None) -> np.ndarray:
    """phi_k = k^3, optionally shifted by k |f_hat(k)|^2."""
    ks = np.arange(-K, K + 1)
    rates = ks.astype(float) ** 3
    if phase == "modified":
        if f is None:
            raise ConfigError("the modified phase symbol requires a profile f")
        if f.K != K:
            raise GridMismatchError(f"mode cutoffs differ: {f.K} vs {K}")
        rates = rates + ks * np.abs(f.coeffs) ** 2
    elif phase != "airy":
        raise ConfigError(f"phase must be one of {_PHASES}, got {phase!r}")
    return rates


def _free_phase_factor(
    grid: GridSpec, sign: int, f: FourierField | None, bumps: np.ndarray | None = None
) -> np.ndarray:
    """exp(sign i t (phi_k + bumps_k)) on the (t, k) table of grid, read-only.

    phi_k is the modified rate with a profile f and the Airy rate without.
    phase_rates runs, with its checks, whenever the entry is built; a new
    profile or bumps replaces the entry of (grid, sign).
    """
    nu = None if bumps is None else np.asarray(bumps)
    stamp = (
        None if f is None else f.coeffs.tobytes(),
        None if nu is None else (nu.dtype.str, nu.shape, nu.tobytes()),
    )

    def build() -> np.ndarray:
        phi = phase_rates(grid.K, "airy" if f is None else "modified", f)
        if nu is not None:
            phi = phi + nu
        return np.exp(sign * 1j * phi[None, :] * grid.times[:, None])

    return _cached(_FACTORS, (grid, sign), stamp, build)


def _proxy_weights(
    grid: GridSpec, proxy: NormProxyConfig, s: float, b: float, half: bool = False
) -> tuple:
    """(window column, Mp, tau-weight column, mode weights) of ysb_norm_proxy, read-only.

    The mode weights are <k>^{2s} on k = -K..K, or on k = 0..K doubled for
    k >= 1 when half is set.
    """

    def build() -> tuple:
        w = window_weights(grid.M, grid.dt, proxy.window)
        Mp = int(proxy.pad_factor) * grid.M
        taus = 2.0 * np.pi * np.fft.fftfreq(Mp, d=grid.dt)
        tau_weight = (1.0 + taus**2) ** b
        mode_weight = bracket_sq(grid.K) ** s
        if half:
            mode_weight = mode_weight[grid.K :].copy()
            mode_weight[1:] *= 2.0
        return w[:, None], Mp, tau_weight[:, None], mode_weight

    key = (grid, proxy.window, proxy.pad_factor, s, b, half)
    return _cached(_PROXY_WEIGHTS, key, None, build)


def ysb_norm_proxy(
    z: Trajectory,
    s: float,
    b: float,
    f: FourierField | None = None,
    proxy: NormProxyConfig = NormProxyConfig(),
) -> float:
    """Windowed, demodulated proxy of the <tau - phi_k>^b weighted norm.

    norm^2 = sum_k <k>^{2s} * (1 / (Mp dt)) * sum_m <tau_m>^{2b} |G(m, k)|^2
    with G the time-DFT (times dt) of w(t) z_hat(t,k) exp(-i phi_k t) padded
    to Mp = pad_factor * M samples; phi_k is the modified rate of f when f
    is given and k^3 otherwise. A trajectory marked real_symmetric is read
    on its columns k >= 0, the terms of k >= 1 counted twice. The phase
    factor and the weights are built once per grid and profile and reused
    while they stay the same.
    """
    M = z.grid.M
    if M < 8:
        raise ConfigError(f"time-DFT proxy needs M >= 8 frames, got {M}")
    dt = z.grid.dt
    half = z.real_symmetric
    w, Mp, tau_weight, mode_weight = _proxy_weights(z.grid, proxy, s, b, half)
    cols = slice(z.K, None) if half else slice(None)
    demod = z.coeffs[:, cols] * _free_phase_factor(z.grid, -1, f)[:, cols]
    spectrum = np.fft.fft(w * demod, n=Mp, axis=0)
    del demod
    # in place on the (Mp, n) tables of the n columns read, bit-identical to
    # the out-of-place products, so at most one padded complex table and one
    # real one are live
    spectrum *= dt
    power = np.abs(spectrum)
    del spectrum
    power *= power
    power *= tau_weight
    mode_power = np.sum(power, axis=0)
    total = float(np.sum(mode_weight * mode_power)) / (Mp * dt)
    return math.sqrt(total)


def xinfty_hs_norm(z: Trajectory, s: float) -> float:
    """max over frames of the H^s sequence norm."""
    return float(np.max(hs_norms(z.coeffs, s)))


def x_space_norm(
    z: Trajectory,
    params: SobolevIndex,
    f: FourierField,
    proxy: NormProxyConfig = NormProxyConfig(),
) -> float:
    """Solution-space norm: modified-phase proxy at (s0, b) plus sup-in-time H^{s1}."""
    return ysb_norm_proxy(z, params.s0, params.b, f, proxy) + xinfty_hs_norm(z, params.s1)
