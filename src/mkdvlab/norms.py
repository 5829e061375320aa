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

Quadrature in tau is the rectangle rule on the padded DFT grid. With the
window normalization sum w(t_n)^2 dt = 1 the proxy of a free mode
exp(i phi_{k0} t) at b = 0 is exactly <k0>^s, which pins the constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError
from .spectral import FourierField, SobolevIndex, Trajectory, bracket_sq, hs_norms

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


@dataclass(frozen=True)
class NormProxyConfig:
    """Exponents and discretization knobs of one norm proxy."""

    s: float
    b: float
    window: str = "hann"
    pad_factor: int = 4
    phase: str = "airy"

    def __post_init__(self) -> None:
        if self.window not in _WINDOWS:
            raise ConfigError(f"window must be one of {_WINDOWS}, got {self.window!r}")
        if self.phase not in _PHASES:
            raise ConfigError(f"phase must be one of {_PHASES}, got {self.phase!r}")
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


def ysb_norm_proxy(
    z: Trajectory, cfg: NormProxyConfig, f: FourierField | None = None
) -> float:
    """Windowed, demodulated proxy of the <tau - phi_k>^b weighted norm.

    norm^2 = sum_k <k>^{2s} * (1 / (Mp dt)) * sum_m <tau_m>^{2b} |G(m, k)|^2
    with G the time-DFT (times dt) of w(t) z_hat(t,k) exp(-i phi_k t) padded
    to Mp = pad_factor * M samples.
    """
    M = z.grid.M
    if M < 8:
        raise ConfigError(f"time-DFT proxy needs M >= 8 frames, got {M}")
    dt = z.grid.dt
    K = z.K
    w = window_weights(M, dt, cfg.window)
    phi = phase_rates(K, cfg.phase, f)
    demod = z.coeffs * np.exp(-1j * phi[None, :] * z.grid.times[:, None])
    Mp = int(cfg.pad_factor) * M
    spectrum = np.fft.fft(w[:, None] * demod, n=Mp, axis=0) * dt
    taus = 2.0 * np.pi * np.fft.fftfreq(Mp, d=dt)
    tau_weight = (1.0 + taus**2) ** cfg.b
    mode_power = np.sum(tau_weight[:, None] * np.abs(spectrum) ** 2, axis=0)
    total = float(np.sum(bracket_sq(K) ** cfg.s * mode_power)) / (Mp * dt)
    return math.sqrt(total)


def xinfty_hs_norm(z: Trajectory, s: float) -> float:
    """max over frames of the H^s sequence norm."""
    return float(np.max(hs_norms(z.coeffs, s)))


def x_space_norm(
    z: Trajectory,
    params: SobolevIndex,
    f: FourierField,
    window: str = "hann",
    pad_factor: int = 4,
) -> float:
    """Solution-space norm: modified-phase proxy at (s0, b) plus sup-in-time H^{s1}."""
    params.validate()
    cfg = NormProxyConfig(
        s=params.s0, b=params.b, window=window, pad_factor=pad_factor, phase="modified"
    )
    return ysb_norm_proxy(z, cfg, f) + xinfty_hs_norm(z, params.s1)
