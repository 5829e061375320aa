"""Solution-dependent gauge phases and the modulated-profile change of variables.

The central object is the per-mode phase table Q(t, k) solving

    Q(t,k) = t (k^3 + k |f_hat(k)|^2)
             + k * int_0^t ( 2 Re(f_hat(k) e^{i Q(s,k)} conj(z_hat(s,k)))
                             + |z_hat(s,k)|^2 ) ds,

the integral form of Q' = k^3 + k |f_hat(k) e^{iQ} + z_hat|^2, Q(0,k) = 0.
The gauge writes u_hat = z_hat + f_hat e^{iQ}; composing and decomposing are
mode-wise algebra. A companion table P(t,k) = t k^3 + k int_0^t |u_hat|^2 ds
is read off any trajectory directly.

All time integrals use the trapezoid rule on the trajectory's own grid, so
the phase solver, the iteration solver, and the diagnostics all see the same
discrete data. Refinement is the caller's job via M.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    FieldError,
    GridMismatchError,
    InstabilityError,
    PhaseWindowWarning,
)
from .norms import phase_rates
from .spectral import (
    FourierField,
    GridSpec,
    Trajectory,
    bracket_sq,
    cumulative_trapezoid,
    hs_norms,
    sobolev_norm,
)

__all__ = [
    "PhaseTable",
    "PhaseSolveReport",
    "solve_phase",
    "gauge_compose",
    "gauge_decompose",
    "phase_from_trajectory",
    "modulated_profile",
    "modulation_rate_report",
    "check_phase_oddness",
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

    certified_T0 is min(T, 1/(100 c0 ||f||_{H^{s0}})) and contraction_T0 the
    analogous window with constant 20; the sweep map is provably contractive
    below the latter, while the former is the existence window the solver
    certifies. Both are reported because the two constants differ.
    """

    sweeps: int
    residual: float
    update_norms: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    c0: float = 0.0
    certified_T0: float = 0.0
    contraction_T0: float = 0.0


def _phase_rhs(
    f: FourierField, z: Trajectory, seed: np.ndarray, values: np.ndarray
) -> np.ndarray:
    ks = np.arange(-f.K, f.K + 1)
    profile = modulated_profile(f, PhaseTable(z.grid, values)).coeffs
    g = 2.0 * np.real(profile * np.conj(z.coeffs)) + np.abs(z.coeffs) ** 2
    return seed + ks * cumulative_trapezoid(g, z.grid.dt)


def solve_phase(
    f: FourierField,
    z: Trajectory,
    tol: float = 1e-12,
    max_sweeps: int = 50,
    s0: float = 0.3,
) -> tuple[PhaseTable, PhaseSolveReport]:
    """Fixed point of the phase integral equation by direct sweeps.

    Seeds with the z = 0 solution t (k^3 + k |f_hat|^2) and re-applies the
    right side until the sup update falls below tol. The returned residual
    is measured by one further application of the map, so it certifies the
    fixed-point equation itself, not just stagnation. Warns when the run
    horizon exceeds the certified existence window; fails with the last
    update size when the sweeps do not settle, which usually means T is too
    large for this data.
    """
    if f.K != z.K:
        raise GridMismatchError(f"mode cutoffs differ: {f.K} vs {z.K}")
    c0 = float(np.max(np.sqrt(bracket_sq(f.K)) ** (1.0 - s0) * np.abs(z.coeffs)))
    norm_f = sobolev_norm(f, s0)
    T = z.grid.T
    scale = c0 * norm_f
    exist_window = 1.0 / (100.0 * scale) if scale > 0 else math.inf
    contraction_window = 1.0 / (20.0 * scale) if scale > 0 else math.inf
    if T > exist_window:
        warnings.warn(
            f"horizon T = {T:g} exceeds the certified phase window {exist_window:g}; "
            "the fixed point may still converge",
            PhaseWindowWarning,
        )

    seed = z.grid.times[:, None] * phase_rates(f.K, "modified", f)[None, :]
    if not np.all(np.isfinite(seed)):
        # PhaseTable rejects the non-finite t = 0 row this leaves, so report
        # it as the first sweep would
        raise InstabilityError("phase sweep 1 produced non-finite values", step=1)
    values = seed.copy()
    updates: list[float] = []
    converged = False
    for sweep in range(1, max_sweeps + 1):
        new = _phase_rhs(f, z, seed, values)
        if not np.all(np.isfinite(new)):
            raise InstabilityError(
                f"phase sweep {sweep} produced non-finite values", step=sweep
            )
        delta = float(np.max(np.abs(new - values)))
        updates.append(delta)
        values = new
        if delta <= tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"phase sweeps did not settle below {tol:g} in {max_sweeps} sweeps "
            f"(last update {updates[-1]:.3e}); reduce the time horizon T",
            residual=updates[-1],
        )
    residual = float(np.max(np.abs(_phase_rhs(f, z, seed, values) - values)))
    ratios = [
        updates[i + 1] / updates[i]
        for i in range(len(updates) - 1)
        if updates[i] > 0
    ]
    report = PhaseSolveReport(
        sweeps=sweep,
        residual=residual,
        update_norms=updates,
        ratios=ratios,
        c0=c0,
        certified_T0=min(T, exist_window),
        contraction_T0=min(T, contraction_window),
    )
    return PhaseTable(z.grid, values), report


def _profile_on(grid: GridSpec, table: PhaseTable, f: FourierField) -> np.ndarray:
    """f_hat e^{iQ} on the grid of a trajectory the table must share."""
    if table.grid != grid:
        raise GridMismatchError("phase table and trajectory live on different grids")
    return modulated_profile(f, table).coeffs


def gauge_compose(z: Trajectory, table: PhaseTable, f: FourierField) -> Trajectory:
    """u_hat(t,k) = z_hat(t,k) + f_hat(k) exp(i Q(t,k))."""
    coeffs = z.coeffs + _profile_on(z.grid, table, f)
    return Trajectory(z.grid, coeffs, z.real_symmetric and f.real_symmetric)


def gauge_decompose(u: Trajectory, table: PhaseTable, f: FourierField) -> Trajectory:
    """z_hat(t,k) = u_hat(t,k) - f_hat(k) exp(i Q(t,k))."""
    coeffs = u.coeffs - _profile_on(u.grid, table, f)
    return Trajectory(u.grid, coeffs, u.real_symmetric and f.real_symmetric)


def phase_from_trajectory(u: Trajectory) -> PhaseTable:
    """P(t,k) = t k^3 + k int_0^t |u_hat(s,k)|^2 ds, trapezoid in s."""
    ks = np.arange(-u.K, u.K + 1)
    seed = u.grid.times[:, None] * phase_rates(u.K, "airy", None)[None, :]
    values = seed + ks * cumulative_trapezoid(np.abs(u.coeffs) ** 2, u.grid.dt)
    return PhaseTable(u.grid, values)


def modulated_profile(f: FourierField, table: PhaseTable) -> Trajectory:
    """Trajectory with frames f_hat(k) exp(i Q(t_n, k))."""
    if f.K != table.K:
        raise GridMismatchError(f"mode cutoffs differ: {f.K} vs {table.K}")
    coeffs = f.coeffs[None, :] * np.exp(1j * table.values)
    return Trajectory(table.grid, coeffs)


def modulation_rate_report(
    f: FourierField, z: Trajectory, params
) -> tuple[float, float]:
    """Measured sup of |k| |z_hat| (|f_hat| + |z_hat|) and its product bound.

    The bound splits the two factors as
    sup <k>^{1-s0} |z_hat| * ||f||_{H^{s0}} + sup <k>^{1-s1} |z_hat| * sup_t ||z(t)||_{H^{s1}},
    which dominates the value term by term since |k| <= <k>.
    """
    if f.K != z.K:
        raise GridMismatchError(f"mode cutoffs differ: {f.K} vs {z.K}")
    ks = np.arange(-f.K, f.K + 1)
    absz = np.abs(z.coeffs)
    value = float(
        np.max(np.abs(ks)[None, :] * absz * (np.abs(f.coeffs)[None, :] + absz))
    )
    bracket = np.sqrt(bracket_sq(f.K))
    c0 = float(np.max(bracket ** (1.0 - params.s0) * absz))
    c1 = float(np.max(bracket ** (1.0 - params.s1) * absz))
    sup_hs1 = float(np.max(hs_norms(z.coeffs, params.s1)))
    bound = c0 * sobolev_norm(f, params.s0) + c1 * sup_hs1
    return value, bound


def check_phase_oddness(table: PhaseTable) -> float:
    """max over (t, k) of |Q(t,k) + Q(t,-k)|; zero for exactly odd tables."""
    v = table.values
    return float(np.max(np.abs(v + v[:, ::-1])))


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
        for k, val in row:
            if abs(int(k)) > grid.K:
                raise FieldError(f"mode {k} outside |k| <= {grid.K}")
            values[n, int(k) + grid.K] = float(val)
    return PhaseTable(grid, values)
