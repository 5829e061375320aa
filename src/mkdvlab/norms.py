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
phase_rates(K, f), the one home of both rates, gives the profile-shifted
rate when f is given and k^3 when it is not.

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
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, GridMismatchError
from .spectral import (
    FourierField, GridSpec, SobolevIndex, Trajectory, _integer, bracket_sq,
    hs_norms,
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
# complex values of the padded time table that _tau_power transforms at once
_COLUMN_BLOCK = 1 << 14


@dataclass(frozen=True)
class NormProxyConfig:
    """Discretization of the norm proxy: the time window and its zero padding."""

    window: str = "hann"
    pad_factor: int = 4

    def __post_init__(self) -> None:
        if self.window not in _WINDOWS:
            raise ConfigError(f"window must be one of {_WINDOWS}, got {self.window!r}")
        rule = "pad_factor must be an integer >= 1"
        object.__setattr__(self, "pad_factor", _integer(self.pad_factor, rule, 1))


def window_weights(M: int, dt: float, kind: str) -> np.ndarray:
    """Window samples normalized to sum w^2 dt = 1."""
    if kind == "hann":
        w = np.hanning(M)
    elif kind == "rect":
        w = np.ones(M)
    else:
        raise ConfigError(f"window must be one of {_WINDOWS}, got {kind!r}")
    return w / math.sqrt(float(np.sum(w**2)) * dt)


def phase_rates(K: int, f: FourierField | None = None) -> np.ndarray:
    """phi_k on k = -K..K: k^3, shifted by k |f_hat(k)|^2 when a profile f is given.

    The Airy rate k^3 needs no profile; the shifted, modified rate needs f
    on the cutoff K.
    """
    ks = np.arange(-K, K + 1)
    rates = ks.astype(float) ** 3
    if f is not None:
        if f.K != K:
            raise GridMismatchError(f"mode cutoffs differ: {f.K} vs {K}")
        rates = rates + ks * np.abs(f.coeffs) ** 2
    return rates


def _free_phase_factor(
    grid: GridSpec, sign: int, f: FourierField | None, bumps: np.ndarray | None = None
) -> np.ndarray:
    """exp(sign i t (phi_k + bumps_k)) on the (t, k) table of grid.

    phi_k is the modified rate with a profile f and the Airy rate without.
    """
    phi = phase_rates(grid.K, f)
    if bumps is not None:
        phi = phi + bumps
    return np.exp(sign * 1j * phi[None, :] * grid.times[:, None])


def _proxy_weights(grid: GridSpec, proxy: NormProxyConfig, s: float, b: float) -> tuple:
    """(window column, Mp, tau-weight column, mode weights, half mode weights, free power).

    The mode weights are <k>^{2s} on k = -K..K, the half ones on k = 0..K
    doubled for k >= 1. The free power is P(0) of _free_proxy_norms.
    """
    w = window_weights(grid.M, grid.dt, proxy.window)
    Mp = proxy.pad_factor * grid.M
    taus = 2.0 * np.pi * np.fft.fftfreq(Mp, d=grid.dt)
    tau_weight = (1.0 + taus**2) ** b
    mode_weight = bracket_sq(grid.K) ** s
    half = mode_weight[grid.K :].copy()
    half[1:] *= 2.0
    free = _tau_power(w[:, None], Mp, grid.dt, tau_weight[:, None]) / (Mp * grid.dt)
    return w[:, None], Mp, tau_weight[:, None], mode_weight, half, free


class _ProxyTables(NamedTuple):
    """The tables of one (grid, profile, proxy), which a run builds once by _proxy_tables.

    damping is exp(-i t phi_k) on the (t, k) table, growth exp(i t phi_k) or
    None, and weights maps each (s, b) built for to its _proxy_weights.
    """

    grid: GridSpec
    profile: FourierField | None
    proxy: NormProxyConfig
    damping: np.ndarray
    growth: np.ndarray | None
    weights: dict[tuple[float, float], tuple]

    def check(self, grid: GridSpec, f: FourierField | None, proxy=None) -> _ProxyTables:
        """self, unless another grid, profile (by identity) or proxy owns it: GridMismatchError."""
        if self.grid != grid or self.profile is not f or proxy not in (None, self.proxy):
            raise GridMismatchError("the held tables belong to another grid, profile or proxy")
        return self


def _proxy_tables(
    grid: GridSpec, f: FourierField | None, proxy: NormProxyConfig, exponents, growth=False
) -> _ProxyTables:
    """Fresh tables of (grid, f, proxy) at each (s, b) of exponents, growth if asked for."""
    weights = {(s, b): _proxy_weights(grid, proxy, s, b) for s, b in exponents}
    grow = _free_phase_factor(grid, 1, f) if growth else None
    return _ProxyTables(grid, f, proxy, _free_phase_factor(grid, -1, f), grow, weights)


def _tau_power(windowed: np.ndarray, Mp: int, dt: float, tau_weight: np.ndarray) -> np.ndarray:
    """sum_m <tau_m>^{2b} |G(m)|^2 per column, G the time-DFT (times dt) of windowed padded to Mp.

    Transformed in blocks of about _COLUMN_BLOCK padded values: one padded
    complex and one padded real block are live, and the bits are those of one
    whole-table transform. The last block takes a lone leftover column along,
    since numpy sums a lone column pairwise and the rows of a wider one in order.
    """
    n = windowed.shape[1]
    step = max(2, _COLUMN_BLOCK // Mp)
    sums = []
    for lo in range(0, max(n - 1, 1), step):
        hi = lo + step if n - lo > step + 1 else n
        spectrum = np.fft.fft(windowed[:, lo:hi], n=Mp, axis=0)
        spectrum *= dt
        power = np.abs(spectrum)
        del spectrum
        power *= power
        power *= tau_weight
        sums.append(power.sum(axis=0))
    return np.concatenate(sums)


def _free_proxy_norms(
    coeffs: np.ndarray, tables: _ProxyTables, s: float, b: float, bumps=None
) -> np.ndarray:
    """ysb_norm_proxy of the free trajectory g e^{i t (phi_k + bumps_k)} per row g of coeffs.

    In closed form, for the proxy with phi's profile: demodulated, column k
    is g_k e^{i t nu_k}, so norm^2 = sum_k <k>^{2s} P(nu_k) |g_k|^2 with
    P(nu) = (1 / (Mp dt)) sum_m <tau_m>^{2b} |dt FFT_Mp(w e^{i t nu})_m|^2;
    P(0) is held with the weights of tables at (s, b), bumps take one transform.
    """
    w, Mp, tau_weight, _, _, free = tables.weights[(s, b)]
    if bumps is not None:
        grid = tables.grid
        series = w * np.exp(1j * grid.times[:, None] * bumps.ravel())
        free = _tau_power(series, Mp, grid.dt, tau_weight).reshape(bumps.shape) / (Mp * grid.dt)
    return hs_norms(np.sqrt(free) * coeffs, s)


def ysb_norm_proxy(
    z: Trajectory,
    s: float,
    b: float,
    f: FourierField | None = None,
    proxy: NormProxyConfig = NormProxyConfig(),
    *,
    tables: _ProxyTables | None = None,
) -> float:
    """Windowed, demodulated proxy of the <tau - phi_k>^b weighted norm.

    norm^2 = sum_k <k>^{2s} * (1 / (Mp dt)) * sum_m <tau_m>^{2b} |G(m, k)|^2
    with G the time-DFT (times dt) of w(t) z_hat(t,k) exp(-i phi_k t) padded
    to Mp = pad_factor * M samples; phi_k is the modified rate of f when f
    is given and k^3 otherwise. A trajectory marked real_symmetric is read
    on its columns k >= 0, the terms of k >= 1 counted twice. The phase
    factor and the weights come from tables, which a caller of many proxies
    on one (grid, f, proxy) builds once by _proxy_tables, else from tables
    of the call's own; GridMismatchError if tables are another grid's,
    profile's or proxy's, or lack (s, b).
    """
    M = z.grid.M
    if M < 8:
        raise ConfigError(f"time-DFT proxy needs M >= 8 frames, got {M}")
    if tables is None:
        tables = _proxy_tables(z.grid, f, proxy, ((s, b),))
    weights = tables.check(z.grid, f, proxy).weights.get((s, b))
    if weights is None:
        raise GridMismatchError(f"the held tables have no weights at (s, b) = ({s}, {b})")
    w, Mp, tau_weight, full, half, _ = weights
    dt = z.grid.dt
    cols = slice(z.K, None) if z.real_symmetric else slice(None)
    mode_weight = half if z.real_symmetric else full
    mode_power = _tau_power(w * (z.coeffs[:, cols] * tables.damping[:, cols]), Mp, dt, tau_weight)
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
    *,
    tables: _ProxyTables | None = None,
) -> float:
    """Solution-space norm: modified-phase proxy at (s0, b) plus sup-in-time H^{s1}."""
    proxy_norm = ysb_norm_proxy(z, params.s0, params.b, f, proxy, tables=tables)
    return proxy_norm + xinfty_hs_norm(z, params.s1)
