"""Exponential time-differencing reference integrator.

Independent of the gauge pipeline: it advances u_hat directly by
Cox-Matthews ETDRK4, with the diagonal semigroup exp(i t k^3) of the Airy
part handled exactly. The cubic term comes from direct_nonlinearity, one
call per stage and so four per substep; each call evaluates -(u^2 - c) u_x
in conservative form with two real transforms on the smallest 5-smooth
N >= 4K + 1 points, alias-free for the cubic term's modes |k| <= K. The
phi-function weights are averages over CONTOUR_POINTS = 32 points on unit
circles around each i k^3 h, the standard stable evaluation
(Kassam-Trefethen). Since k^3 is exactly odd, the true weights satisfy
w(-k) = conj(w(k)); they are conjugate-symmetrized once per step size to
pin the rounding, and the cubic term is mirrored from its modes k >= 0, so
every stage keeps the asymmetry of the initial field, changed only by
rounding: exactly conjugate-symmetric data gives a bitwise real trajectory.
The initial field therefore takes spectral's realness verdict once, and
the stages and the trajectory are marked without another. The k = 0 column
is driven only by the (pinned zero) nonlinearity, which keeps the mass
exactly constant.
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
    _mark,
    _require_real,
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

# Points on each contour of _phi_weights.
CONTOUR_POINTS = 32


@dataclass(frozen=True)
class ETDConfig:
    """Stepper parameters. dt caps the substep; frames are always hit exactly."""

    dt: float

    def __post_init__(self) -> None:
        if not (self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")


def _symmetrize(w: np.ndarray) -> np.ndarray:
    # phi is exactly odd, so the true weights satisfy w(-k) = conj(w(k))
    # and averaging just pins the rounding
    return 0.5 * (w + np.conj(w[::-1]))


def _phi_weights(phi: np.ndarray, h: float) -> dict[str, np.ndarray]:
    lam = 1j * h * phi
    theta = 2.0 * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS
    r = np.exp(1j * theta)
    LR = lam[:, None] + r[None, :]
    eLR = np.exp(LR)
    q = h * np.mean((np.exp(LR / 2) - 1.0) / LR, axis=1)
    f1 = h * np.mean((-4.0 - LR + eLR * (4.0 - 3.0 * LR + LR**2)) / LR**3, axis=1)
    f2 = h * np.mean((2.0 + LR + eLR * (LR - 2.0)) / LR**3, axis=1)
    f3 = h * np.mean((-4.0 - 3.0 * LR - LR**2 + eLR * (4.0 - LR)) / LR**3, axis=1)
    q, f1, f2, f3 = map(_symmetrize, (q, f1, f2, f3))
    return {
        "E": np.exp(lam),
        "E2": np.exp(lam / 2),
        "q": q,
        "f1": f1,
        "f2": f2,
        "f3": f3,
    }


def solve_reference(f: FourierField, T: float, cfg: ETDConfig, M: int) -> Trajectory:
    """March u_hat from f to time T, recording M equispaced frames.

    Each frame gap is covered by ceil(gap/dt) equal substeps so the frame
    times are hit exactly rather than interpolated; gap/dt is lowered by
    1e-9 first, so that its rounding adds no substep. Raises ConfigError
    for a grid GridSpec rejects, FieldError unless f passes spectral's
    realness verdict, and InstabilityError naming the first substep,
    counted from 1, that leaves a non-finite mode. The returned trajectory
    is marked real_symmetric.
    """
    grid = GridSpec(f.K, M, T)
    _require_real(f, "the reference integrator is defined for a real initial field")
    K = f.K
    phi = phase_rates(K)

    scale = float(np.max(np.abs(f.coeffs)))
    if scale * K * K * cfg.dt > 2.0 * np.pi:
        warnings.warn(
            f"dt = {cfg.dt:g} is coarse for amplitude {scale:g} at K = {K}; "
            "the cubic term may be underresolved",
            StepSizeWarning,
        )

    def nonlinear(v: np.ndarray) -> np.ndarray:
        # a stage keeps f's asymmetry up to rounding, so f's verdict covers it
        return direct_nonlinearity(_mark(FourierField(v))).coeffs

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
            w = _phi_weights(phi, h)
            weights_cache[h] = w
        for _ in range(n_sub):
            step_index += 1
            Nv = nonlinear(v)
            E2v = w["E2"] * v
            a = E2v + w["q"] * Nv
            Na = nonlinear(a)
            b = E2v + w["q"] * Na
            Nb = nonlinear(b)
            c = w["E2"] * a + w["q"] * (2.0 * Nb - Nv)
            Nc = nonlinear(c)
            v = w["E"] * v + w["f1"] * Nv + 2.0 * w["f2"] * (Na + Nb) + w["f3"] * Nc
            if not np.all(np.isfinite(v)):
                raise InstabilityError(
                    f"non-finite modes after step {step_index} (h = {h:.3g})",
                    step=step_index,
                )
        frames[n] = v
    return _mark(Trajectory(grid, frames))


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
