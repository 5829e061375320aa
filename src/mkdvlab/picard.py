"""Successive-approximation solver for the gauged evolution.

The iteration works on the remainder z with u_hat = z_hat + f_hat e^{iQ}.
Each step re-solves the phase table for the current iterate, assembles the
right side

    i k |z_hat|^2 z_hat + 2 i k Re(f_hat e^{iQ} conj(z_hat)) z_hat
    + NR(w, w, w),   w = f_hat e^{iQ} + z_hat,

and integrates it against the shifted semigroup exp(i t (k^3 + k |f_hat|^2))
by trapezoid quadrature with the exact unimodular integrating factor. The
single NR call on the summed field equals the 8-term multilinear expansion,
which the test suite checks as a property of the NR kernel.

Contraction is observed, not assumed: the report carries per-iterate norms,
successive differences, and their ratios, and the solver aborts once the
ratios sit at or above one for three consecutive iterates.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceError, InstabilityError, TimeHorizonWarning
from .gauge import PhaseTable, gauge_compose, modulated_profile, solve_phase
from .nonlinearity import nr_trilinear
from .norms import NormProxyConfig, _free_phase_factor, phase_rates, x_space_norm
from .spectral import FourierField, GridSpec, SobolevIndex, Trajectory, cumulative_trapezoid

__all__ = [
    "PicardConfig",
    "PicardIterate",
    "PicardReport",
    "duhamel_integrate",
    "picard_rhs",
    "picard_step",
    "picard_solve",
    "reconstruct_solution",
]


@dataclass(frozen=True)
class PicardConfig:
    """Run parameters of one iteration solve."""

    params: SobolevIndex = SobolevIndex()
    T: float = 0.01
    M: int = 64
    tol: float = 1e-10
    max_iters: int = 25
    phase_tol: float = 1e-12
    phase_max_sweeps: int = 50
    window: str = "hann"
    pad_factor: int = 4

    def __post_init__(self) -> None:
        if not (self.T > 0):
            raise ConfigError(f"T must be positive, got {self.T!r}")
        if self.T >= 1:
            warnings.warn(
                f"horizon T = {self.T:g} is outside the T < 1 regime the scheme "
                "is designed for; expect the iteration to reject it",
                TimeHorizonWarning,
            )
        if int(self.M) != self.M or self.M < 8:
            raise ConfigError(f"M must be an integer >= 8, got {self.M!r}")
        if int(self.max_iters) != self.max_iters or self.max_iters < 1:
            raise ConfigError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if int(self.phase_max_sweeps) != self.phase_max_sweeps or self.phase_max_sweeps < 1:
            raise ConfigError(
                f"phase_max_sweeps must be an integer >= 1, got {self.phase_max_sweeps!r}"
            )
        if not (self.tol > 0):
            raise ConfigError(f"tol must be positive, got {self.tol!r}")
        if not (self.phase_tol > 0):
            raise ConfigError(f"phase_tol must be positive, got {self.phase_tol!r}")
        # window and pad_factor are checked by the proxy that x_space_norm builds from them
        NormProxyConfig(self.params.s0, self.params.b, self.window, self.pad_factor, "modified")

    def grid_for(self, K: int) -> GridSpec:
        return GridSpec(K, self.M, self.T)


@dataclass(frozen=True)
class PicardIterate:
    """One row of the iteration record."""

    norm_x: float
    diff_norm: float
    ratio: float | None


@dataclass(frozen=True)
class PicardReport:
    """Iteration record: norms, differences, measured contraction ratios.

    first_iterate_norm is the benchmark size ||z_1||; on convergence the
    final norm is checked against twice that value, which is the size the
    contraction argument predicts for the limit. certified_T0 and
    contraction_T0 are copied from the last phase solve: heuristic windows
    with fixed constants that nothing in the code derives (see
    PhaseSolveReport), not certificates.
    """

    iters: list[PicardIterate] = field(default_factory=list)
    first_iterate_norm: float = 0.0
    converged: bool = False
    certified_T0: float = 0.0
    contraction_T0: float = 0.0
    within_first_iterate_bound: bool = False
    richardson_delta: float = 0.0

    def to_obj(self) -> dict:
        obj = asdict(self)
        # "K" is the older name of first_iterate_norm, kept for existing readers
        return {"iters": obj.pop("iters"), "K": self.first_iterate_norm, **obj}


def duhamel_integrate(
    forcing: Trajectory,
    f: FourierField | None = None,
    initial: FourierField | None = None,
) -> Trajectory:
    """z(t) = e^{i t phi_k} (z(0) + int_0^t e^{-i s phi_k} F(s) ds), trapezoid in s.

    phi_k = k^3, shifted by k |f_hat(k)|^2 when a profile is given. The
    integrating factor is exact and unimodular, so the quadrature error is
    the plain trapezoid one of the premultiplied integrand.
    """
    K = forcing.K
    if f is not None and f.K != K:
        raise ConfigError(f"profile cutoff {f.K} does not match forcing cutoff {K}")
    phase = "airy" if f is None else "modified"
    damped = _free_phase_factor(forcing.grid, -1, phase, f) * forcing.coeffs
    integral = cumulative_trapezoid(damped, forcing.grid.dt)
    z0 = np.zeros(forcing.grid.n_modes, dtype=complex)
    if initial is not None:
        if initial.K != K:
            raise ConfigError(f"initial data cutoff {initial.K} does not match {K}")
        z0 = initial.coeffs
    # inline, not cached: a second (M, 2K+1) table would stay resident beside the damping one
    phi = phase_rates(K, phase, f)
    t = forcing.grid.times
    coeffs = np.exp(1j * phi[None, :] * t[:, None]) * (z0[None, :] + integral)
    return Trajectory(forcing.grid, coeffs)


def picard_rhs(z: Trajectory, phase: PhaseTable, f: FourierField) -> Trajectory:
    """Full right side of the gauged evolution, one NR call per frame.

    Each call is the cube NR(w, w, w), which the NR kernel evaluates with
    one transform. The frames stay separate calls because the benchmark's
    traced runs check nr_calls == iterates x M.
    """
    if z.grid != phase.grid:
        raise ConfigError("trajectory and phase table live on different grids")
    if f.K != z.K:
        raise ConfigError(f"mode cutoffs differ: {f.K} vs {z.K}")
    ks = np.arange(-z.K, z.K + 1)
    profile = modulated_profile(f, phase).coeffs
    absz_sq = np.abs(z.coeffs) ** 2
    diagonal = 1j * ks * (absz_sq + 2.0 * np.real(profile * np.conj(z.coeffs))) * z.coeffs

    out = np.array(diagonal, dtype=complex)
    summed = profile + z.coeffs
    for n in range(z.grid.M):
        w = FourierField(summed[n])
        out[n] += nr_trilinear(w, w, w).coeffs
    return Trajectory(z.grid, out)


def picard_step(
    z: Trajectory, f: FourierField, cfg: PicardConfig
) -> tuple[Trajectory, PhaseTable]:
    """One iteration: solve the phase for z, then Duhamel-integrate the right side."""
    phase, _ = solve_phase(
        f, z, tol=cfg.phase_tol, max_sweeps=cfg.phase_max_sweeps, s0=cfg.params.s0
    )
    z_next = duhamel_integrate(picard_rhs(z, phase, f), f)
    return z_next, phase


def _richardson_delta(
    forcing: Trajectory, f: FourierField, fine: Trajectory
) -> float:
    """Quadrature-error estimate: redo the Duhamel integral on every other node."""
    M = forcing.grid.M
    idx = np.arange(0, M, 2)
    if idx.size < 2:
        return 0.0
    sub_grid = GridSpec(forcing.grid.K, idx.size, float(forcing.grid.times[idx[-1]]))
    coarse = duhamel_integrate(Trajectory(sub_grid, forcing.coeffs[idx]), f)
    return float(np.max(np.abs(fine.coeffs[idx] - coarse.coeffs)))


def picard_solve(
    f: FourierField, cfg: PicardConfig
) -> tuple[Trajectory, PhaseTable, PicardReport]:
    """Iterate from z = 0 until successive differences fall below cfg.tol.

    Returns the converged remainder, the phase table re-solved for it, and
    the iteration report. Raises ConvergenceError when the differences fail
    to contract for three consecutive iterates (the advisory is to shrink
    T), and InstabilityError if an iterate stops being finite.
    """
    grid = cfg.grid_for(f.K)
    z = Trajectory.zeros(grid)
    rows: list[PicardIterate] = []
    prev_diff: float | None = None
    stalled = 0
    converged = False
    for m in range(1, cfg.max_iters + 1):
        phase, _ = solve_phase(
            f, z, tol=cfg.phase_tol, max_sweeps=cfg.phase_max_sweeps, s0=cfg.params.s0
        )
        forcing = picard_rhs(z, phase, f)
        z_next = duhamel_integrate(forcing, f)
        if not np.all(np.isfinite(z_next.coeffs)):
            raise InstabilityError(f"iterate {m} produced non-finite modes", step=m)
        diff = x_space_norm(z_next - z, cfg.params, f, cfg.window, cfg.pad_factor)
        norm_x = x_space_norm(z_next, cfg.params, f, cfg.window, cfg.pad_factor)
        ratio = diff / prev_diff if prev_diff is not None and prev_diff > 0 else None
        rows.append(PicardIterate(norm_x=norm_x, diff_norm=diff, ratio=ratio))
        if ratio is not None and ratio >= 1.0:
            stalled += 1
            if stalled >= 3:
                raise ConvergenceError(
                    "successive differences failed to contract for three "
                    f"consecutive iterates (last ratio {ratio:.3g}); "
                    "reduce the time horizon T",
                    residual=diff,
                )
        else:
            stalled = 0
        z = z_next
        prev_diff = diff
        if diff <= cfg.tol:
            converged = True
            break

    phase, phase_report = solve_phase(
        f, z, tol=cfg.phase_tol, max_sweeps=cfg.phase_max_sweeps, s0=cfg.params.s0
    )
    report = PicardReport(
        iters=rows,
        first_iterate_norm=rows[0].norm_x,
        converged=converged,
        certified_T0=phase_report.certified_T0,
        contraction_T0=phase_report.contraction_T0,
        within_first_iterate_bound=bool(converged and rows[-1].norm_x <= 2.0 * rows[0].norm_x),
        richardson_delta=_richardson_delta(forcing, f, z),
    )
    return z, phase, report


def reconstruct_solution(
    z: Trajectory, phase: PhaseTable, f: FourierField
) -> Trajectory:
    """u_hat = z_hat + f_hat e^{iQ}; equals f at t = 0 since both z and Q vanish there."""
    return gauge_compose(z, phase, f)
