"""Exponential time-differencing reference integrator.

Independent of the gauge pipeline: it advances u_hat directly, with the
diagonal semigroup exp(i t phi_k) handled exactly (Cox-Matthews ETDRK4, or
the integrating-factor IFRK4). The cubic term comes from
direct_nonlinearity, one call per stage and so four per substep in either
scheme; each call evaluates -(u^2 - c) u_x in conservative form with two
real transforms on the smallest 5-smooth N >= 4K + 1 points, alias-free for
the cubic term's modes |k| <= K. The phi-function weights are contour averages
on unit circles around each i*phi_k*h, the standard stable evaluation
(Kassam-Trefethen). Weights are conjugate-symmetrized once per step size
so a real initial field yields a bitwise conjugate-symmetric trajectory,
and the k = 0 column is driven only by the (pinned zero) nonlinearity,
which keeps the mass exactly constant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError, InstabilityError, StepSizeWarning
from .nonlinearity import conserved_functionals, direct_nonlinearity
from .norms import phase_rates
from .spectral import (
    FourierField,
    GridSpec,
    Trajectory,
    _symmetric_field,
    check_real_symmetry,
    hs_norms,
)

__all__ = [
    "ETDConfig",
    "solve_reference",
    "compare_trajectories",
    "conserved_series",
    "CONSERVED_COLUMNS",
]

CONSERVED_COLUMNS = ("t", "mass", "l2", "energy")


@dataclass(frozen=True)
class ETDConfig:
    """Stepper parameters. dt caps the substep; frames are always hit exactly."""

    dt: float
    scheme: str = "etdrk4"
    linear_phase: str = "airy"
    contour_points: int = 32
    nonlinearity_enabled: bool = True

    def __post_init__(self) -> None:
        if not (self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if self.scheme not in ("etdrk4", "ifrk4"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.linear_phase not in ("airy", "modified"):
            raise ConfigError(f"unknown linear_phase {self.linear_phase!r}")
        if int(self.contour_points) != self.contour_points or self.contour_points < 16:
            raise ConfigError(
                f"contour_points must be an integer >= 16, got {self.contour_points!r}"
            )


def _symmetrize(w: np.ndarray) -> np.ndarray:
    # valid only when phi is exactly odd; the true weights then satisfy
    # w(-k) = conj(w(k)) and averaging just pins the rounding
    return 0.5 * (w + np.conj(w[::-1]))


def _phi_weights(phi: np.ndarray, h: float, points: int, odd: bool) -> dict[str, np.ndarray]:
    lam = 1j * h * phi
    theta = 2.0 * np.pi * (np.arange(points) + 0.5) / points
    r = np.exp(1j * theta)
    LR = lam[:, None] + r[None, :]
    eLR = np.exp(LR)
    q = h * np.mean((np.exp(LR / 2) - 1.0) / LR, axis=1)
    f1 = h * np.mean((-4.0 - LR + eLR * (4.0 - 3.0 * LR + LR**2)) / LR**3, axis=1)
    f2 = h * np.mean((2.0 + LR + eLR * (LR - 2.0)) / LR**3, axis=1)
    f3 = h * np.mean((-4.0 - 3.0 * LR - LR**2 + eLR * (4.0 - LR)) / LR**3, axis=1)
    if odd:
        q, f1, f2, f3 = map(_symmetrize, (q, f1, f2, f3))
    return {
        "E": np.exp(lam),
        "E2": np.exp(lam / 2),
        "E2inv": np.exp(-lam / 2),
        "Einv": np.exp(-lam),
        "q": q,
        "f1": f1,
        "f2": f2,
        "f3": f3,
    }


def solve_reference(
    f: FourierField, T: float, cfg: ETDConfig, M: int = 2
) -> Trajectory:
    """March u_hat from f to time T, recording M equispaced frames.

    Each frame gap is covered by ceil(gap/dt) equal substeps so the frame
    times are hit exactly rather than interpolated.
    """
    if not (T > 0):
        raise ConfigError(f"T must be positive, got {T!r}")
    grid = GridSpec(f.K, M, T)
    K = f.K
    ks = np.arange(-K, K + 1)
    phi = phase_rates(K, cfg.linear_phase, f)
    odd = bool(np.array_equal(phi, -phi[::-1]))

    scale = float(np.max(np.abs(f.coeffs))) if f.coeffs.size else 0.0
    if cfg.nonlinearity_enabled and scale * K * K * cfg.dt > 2.0 * np.pi:
        warnings.warn(
            f"dt = {cfg.dt:g} is coarse for amplitude {scale:g} at K = {K}; "
            "the cubic term may be underresolved",
            StepSizeWarning,
        )

    shift = ks * np.abs(f.coeffs) ** 2 if cfg.linear_phase == "modified" else None
    zero = np.zeros(grid.n_modes, dtype=complex)
    # under an odd phi, exactly symmetric data keeps every stage exactly
    # symmetric (each operation acts alike on k and -k), so no stage is re-checked
    wrap = _symmetric_field if odd and check_real_symmetry(f) == 0.0 else FourierField

    def nonlinear(v: np.ndarray) -> np.ndarray:
        if not cfg.nonlinearity_enabled:
            return zero
        out = direct_nonlinearity(wrap(v)).coeffs
        if shift is not None:
            out = out - 1j * shift * v
        return out

    frames = np.empty((M, grid.n_modes), dtype=complex)
    v = f.coeffs.astype(complex)
    frames[0] = v
    times = grid.times
    weights_cache: dict[float, dict[str, np.ndarray]] = {}
    step_index = 0
    for n in range(1, M):
        gap = float(times[n] - times[n - 1])
        n_sub = max(1, math.ceil(gap / cfg.dt - 1e-9))
        h = gap / n_sub
        w = weights_cache.get(h)
        if w is None:
            w = _phi_weights(phi, h, cfg.contour_points, odd)
            weights_cache[h] = w
        for _ in range(n_sub):
            step_index += 1
            if cfg.scheme == "etdrk4":
                Nv = nonlinear(v)
                E2v = w["E2"] * v
                a = E2v + w["q"] * Nv
                Na = nonlinear(a)
                b = E2v + w["q"] * Na
                Nb = nonlinear(b)
                c = w["E2"] * a + w["q"] * (2.0 * Nb - Nv)
                Nc = nonlinear(c)
                v = w["E"] * v + w["f1"] * Nv + 2.0 * w["f2"] * (Na + Nb) + w["f3"] * Nc
            else:
                k1 = h * nonlinear(v)
                k2 = h * w["E2inv"] * nonlinear(w["E2"] * (v + 0.5 * k1))
                k3 = h * w["E2inv"] * nonlinear(w["E2"] * (v + 0.5 * k2))
                k4 = h * w["Einv"] * nonlinear(w["E"] * (v + k3))
                v = w["E"] * (v + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)
            if not np.all(np.isfinite(v)):
                raise InstabilityError(
                    f"non-finite modes after step {step_index} (h = {h:.3g})",
                    step=step_index,
                )
        frames[n] = v
    return Trajectory(grid, frames, real_symmetric=f.real_symmetric and odd)


def compare_trajectories(
    a: Trajectory, b: Trajectory, s: float
) -> tuple[float, np.ndarray]:
    """Max-over-frames H^s distance plus the per-frame profile."""
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    per_frame = hs_norms(a.coeffs - b.coeffs, s)
    return float(np.max(per_frame)), per_frame


def conserved_series(tr: Trajectory) -> np.ndarray:
    """Rows (t, mass, l2, energy) per frame; columns named in CONSERVED_COLUMNS."""
    out = np.empty((tr.grid.M, 4))
    out[:, 0] = tr.grid.times
    for n in range(tr.grid.M):
        out[n, 1:] = conserved_functionals(tr.frame(n))
    return out
