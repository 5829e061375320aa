"""Solution-dependent gauge phases and the modulated-profile change of variables.

The central object is the per-mode phase table Q(t, k) solving

    Q(t,k) = t (k^3 + k |f_hat(k)|^2)
             + k * int_0^t ( 2 Re(f_hat(k) e^{i Q(s,k)} conj(z_hat(s,k)))
                             + |z_hat(s,k)|^2 ) ds,

the integral form of Q' = k^3 + k |f_hat(k) e^{iQ} + z_hat|^2, Q(0,k) = 0.
The gauge writes u_hat = z_hat + f_hat e^{iQ}; composing and decomposing are
mode-wise algebra. A companion table P(t,k) = t k^3 + k int_0^t |u_hat|^2 ds
is read off any trajectory directly.

Q is the seed t (k^3 + k |f_hat|^2), up to 2e4 at K = 128, plus a small
correction q, the integral term. The phase map has one array-level home,
_phase_sweep on raw arrays of any set of mode columns, and it returns q:
seed + q is the swept Q. Both solvers stop on the update of q, which the
doubles resolve, not on that of Q, whose last bit is coarser than the
default tolerance. solve_phase iterates the map to a fixed point for a given
z on all 2K+1 columns; picard_solve applies it once per iterate on the
columns k = 0..K (Q is odd in k for a real solution), reusing the e^{iQ}
table of the iterate's right side, so z and Q settle together.

All time integrals use the trapezoid rule on the trajectory's own grid, so
the phase solver, the iteration solver, and the diagnostics all see the same
discrete data. Refinement is the caller's job via M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    FieldError,
    GridMismatchError,
    InstabilityError,
)
from .norms import phase_rates
from .spectral import (
    FourierField,
    GridSpec,
    Trajectory,
    _marked_if_real,
    cumulative_trapezoid,
)

__all__ = [
    "PhaseTable",
    "PhaseSolveReport",
    "solve_phase",
    "gauge_compose",
    "phase_from_trajectory",
    "modulated_profile",
    "phase_to_obj",
    "phase_from_obj",
]


@dataclass(frozen=True)
class PhaseTable:
    """Real phase values Q(t_n, k) on a space-time grid; Q(0, k) = 0 always."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.M, self.grid.n_modes):
            raise FieldError(
                f"phase table shape {v.shape} does not match grid "
                f"({self.grid.M}, {self.grid.n_modes})"
            )
        if v.size and float(np.max(np.abs(v[0]))) != 0.0:
            raise FieldError("phase table must vanish identically at t = 0")
        object.__setattr__(self, "values", v)

    @property
    def K(self) -> int:
        return self.grid.K

    @staticmethod
    def zeros(grid: GridSpec) -> "PhaseTable":
        return PhaseTable(grid, np.zeros((grid.M, grid.n_modes)))


@dataclass(frozen=True)
class PhaseSolveReport:
    """Convergence record of one fixed-point phase solve.

    update_norms holds max |q_new - q| per sweep, with q the correction to
    the seed, and ratios the quotients of successive updates: the measured
    contraction. residual is the update one further sweep would make.
    """

    sweeps: int
    residual: float
    update_norms: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)


def _phase_seed(f: FourierField, grid: GridSpec) -> np.ndarray:
    """t (k^3 + k |f_hat|^2) on grid: the phase of z = 0, and every sweep's free term."""
    seed = grid.times[:, None] * phase_rates(f.K, f)[None, :]
    if not np.all(np.isfinite(seed)):
        # PhaseTable rejects the non-finite t = 0 row this leaves, so report
        # it as the first sweep would
        raise InstabilityError("phase sweep 1 produced non-finite values", step=1)
    return seed


def _modulate(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """f_hat(k) exp(i Q(t, k)) on a raw (M, n) phase array, coeffs the n modes of f."""
    return coeffs[None, :] * np.exp(1j * values)


def _phase_sweep(profile: np.ndarray, z: np.ndarray, dt: float, ks: np.ndarray) -> np.ndarray:
    """The correction q of one application of the phase map, on (M, n) arrays of the columns ks.

    q = k int_0^t (2 Re(profile conj(z)) + |z|^2) ds, with profile the
    modulated profile f_hat e^{iQ} of the phase Q being swept; the map's
    value is seed + q.
    """
    g = 2.0 * np.real(profile * np.conj(z)) + np.abs(z) ** 2
    return ks * cumulative_trapezoid(g, dt)


def solve_phase(
    f: FourierField,
    z: Trajectory,
    tol: float = 1e-12,
    max_sweeps: int = 50,
) -> tuple[PhaseTable, PhaseSolveReport]:
    """Fixed point of the phase integral equation by direct sweeps.

    Seeds with the z = 0 solution t (k^3 + k |f_hat|^2) and re-applies the
    right side until the sup update of the correction q = Q - seed is at
    most tol, so tol bounds the correction, not a last bit of Q. The
    returned residual is measured on q by one further application of the
    map, so it certifies the fixed-point equation itself, not just
    stagnation. Fails with the last update size when the sweeps do not
    settle, which usually means T is too large for this data. Raises
    ConfigError when max_sweeps < 1 or tol is not >= 0, which no sweep
    could meet.
    """
    if f.K != z.K:
        raise GridMismatchError(f"mode cutoffs differ: {f.K} vs {z.K}")
    if max_sweeps < 1:
        raise ConfigError(f"max_sweeps must be >= 1, got {max_sweeps!r}")
    if not tol >= 0:
        raise ConfigError(f"tol must be >= 0, got {tol!r}")
    seed = _phase_seed(f, z.grid)
    dt = z.grid.dt
    ks = z.grid.wavenumbers
    q = np.zeros_like(seed)
    values = seed
    updates: list[float] = []
    converged = False
    for sweep in range(1, max_sweeps + 1):
        new = _phase_sweep(_modulate(f.coeffs, values), z.coeffs, dt, ks)
        values = seed + new
        if not np.all(np.isfinite(values)):
            raise InstabilityError(
                f"phase sweep {sweep} produced non-finite values", step=sweep
            )
        delta = float(np.max(np.abs(new - q)))
        updates.append(delta)
        q = new
        if delta <= tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"phase sweeps did not settle below {tol:g} in {max_sweeps} sweeps "
            f"(last update {updates[-1]:.3e}); reduce the time horizon T",
            residual=updates[-1],
        )
    again = _phase_sweep(_modulate(f.coeffs, values), z.coeffs, dt, ks)
    residual = float(np.max(np.abs(again - q)))
    # every update but the last exceeds tol >= 0, so no ratio divides by zero
    ratios = [updates[i + 1] / updates[i] for i in range(len(updates) - 1)]
    report = PhaseSolveReport(
        sweeps=sweep,
        residual=residual,
        update_norms=updates,
        ratios=ratios,
    )
    return PhaseTable(z.grid, values), report


def gauge_compose(z: Trajectory, table: PhaseTable, f: FourierField) -> Trajectory:
    """u_hat(t,k) = z_hat(t,k) + f_hat(k) exp(i Q(t,k))."""
    if table.grid != z.grid:
        raise GridMismatchError("phase table and trajectory live on different grids")
    coeffs = z.coeffs + modulated_profile(f, table).coeffs
    return _marked_if_real(Trajectory(z.grid, coeffs), z.real_symmetric and f.real_symmetric)


def phase_from_trajectory(u: Trajectory) -> PhaseTable:
    """P(t,k) = t k^3 + k int_0^t |u_hat(s,k)|^2 ds, trapezoid in s."""
    ks = np.arange(-u.K, u.K + 1)
    seed = u.grid.times[:, None] * phase_rates(u.K)[None, :]
    values = seed + ks * cumulative_trapezoid(np.abs(u.coeffs) ** 2, u.grid.dt)
    return PhaseTable(u.grid, values)


def modulated_profile(f: FourierField, table: PhaseTable) -> Trajectory:
    """Trajectory with frames f_hat(k) exp(i Q(t_n, k))."""
    if f.K != table.K:
        raise GridMismatchError(f"mode cutoffs differ: {f.K} vs {table.K}")
    return Trajectory(table.grid, _modulate(f.coeffs, table.values))


def phase_to_obj(table: PhaseTable) -> dict:
    """JSON form mirroring trajectories, with real-valued [k, value] rows."""
    K = table.K
    ks = list(range(-K, K + 1))
    return {
        "grid": {"K": table.grid.K, "M": table.grid.M, "T": table.grid.T},
        "frames": [
            [[k, float(val)] for k, val in zip(ks, row)] for row in table.values
        ],
    }


def phase_from_obj(obj: dict) -> PhaseTable:
    g = obj["grid"]
    grid = GridSpec(int(g["K"]), int(g["M"]), float(g["T"]))
    values = np.zeros((grid.M, grid.n_modes))
    frames = obj["frames"]
    if len(frames) != grid.M:
        raise FieldError("frame list inconsistent with grid header")
    for n, row in enumerate(frames):
        if [int(k) for k, _ in row] != list(range(-grid.K, grid.K + 1)):
            raise FieldError("mode list must cover -K..K exactly once, ascending")
        for k, val in row:
            values[n, int(k) + grid.K] = float(val)
    return PhaseTable(grid, values)
