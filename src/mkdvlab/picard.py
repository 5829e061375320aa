"""Successive-approximation solver for the gauged evolution.

The iteration works on the remainder z with u_hat = z_hat + f_hat e^{iQ}.
The phase Q depends on the solution, so (z, Q) is one fixed point. Each
iterate m of picard_solve forms the modulated profile f_hat e^{iQ_m} once
and uses it twice: it assembles the right side

    i k |z_hat|^2 z_hat + 2 i k Re(f_hat e^{iQ} conj(z_hat)) z_hat
    + NR(w, w, w),   w = f_hat e^{iQ} + z_hat,

from the previous remainder, integrates it against the shifted semigroup
exp(i t (k^3 + k |f_hat|^2)) by trapezoid quadrature with the exact
unimodular integrating factor, and then drives one sweep of the phase map
with the new remainder, which gives Q_{m+1}. The iteration stops once both
the remainder difference and the phase update, the change of the
correction q = Q - t (k^3 + k |f_hat|^2), are below their tolerances;
a final phase solve from the cold seed certifies the returned table, and
the report keeps its record. picard_step, the nested scheme that solves the
phase before each update, is the tests' oracle. The single NR call on the
summed field equals the 8-term multilinear expansion, which the test suite
checks as a property of the NR kernel.

The profile must pass spectral's realness verdict, and only its modes
k = 0..K are read, so every array of the loop is conjugate-symmetric in k:
the remainder z, the modulated profile, w and the forcing; Q is odd.
picard_solve therefore holds only their columns k = 0..K, as (M, K+1)
arrays, from the first iterate to the last. Each frame of w is mirrored
into a field marked by spectral's trusted path for its NR call, which
takes the real-transform route; the calls stay one per frame, because the
benchmark's traced runs check nr_calls == iterates x M. The iterates are
mirrored into marked trajectories for the X norms, and z once more at the
end, which a marked profile's certifying solve then reads on k = 0..K.
picard_rhs checks its z and f against the verdict and runs the same _rhs on
their columns k = 0..K, mirroring the result; duhamel_integrate applies
_duhamel to full columns. Each formula has one home.

PicardConfig holds the run's exponents, grid and norm proxy as whole
objects, so each setting has one home: the profile must have the grid's
cutoff K, and the iterates are measured by x_space_norm, the proxy at
(s0, b) with the config's window and padding plus the sup-in-time H^{s1}
norm.

Contraction is observed, not assumed: the report carries per-iterate norms,
successive differences, their ratios and the phase updates, and the solver
aborts once the ratios sit at or above one for three consecutive iterates
whose differences are still above the tolerance.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    GridMismatchError,
    InstabilityError,
    TimeHorizonWarning,
)
from .gauge import (
    PhaseSolveReport,
    PhaseTable,
    _modulate,
    _phase_seed,
    _phase_sweep,
    gauge_compose,
    solve_phase,
)
from .nonlinearity import _require_same_K, nr_trilinear
from .norms import NormProxyConfig, _free_phase_factor, _proxy_tables, _ProxyTables, x_space_norm
from .spectral import (
    FourierField,
    GridSpec,
    SobolevIndex,
    Trajectory,
    _integer,
    _mirrored_field,
    _positive,
    _require_real,
    _symmetric_trajectory,
    cumulative_trapezoid,
)

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
    """Run parameters of one iteration solve: exponents, grid, norm proxy, stopping rules.

    phase_tol bounds the update of the phase correction q = Q - t (k^3 +
    k |f_hat|^2), in picard_solve's loop and in each phase solve; Q itself
    reaches 2e4 at K = 128, where its last bit is coarser than 1e-12.
    """

    params: SobolevIndex = SobolevIndex()
    grid: GridSpec = GridSpec(16, 64, 0.01)
    proxy: NormProxyConfig = NormProxyConfig()
    tol: float = 1e-10
    max_iters: int = 25
    phase_tol: float = 1e-12
    phase_max_sweeps: int = 50

    def __post_init__(self) -> None:
        if self.grid.T >= 1:
            warnings.warn(
                f"horizon T = {self.grid.T:g} is outside the T < 1 regime the scheme "
                "is designed for; expect the iteration to reject it",
                TimeHorizonWarning,
            )
        if self.grid.M < 8:
            raise ConfigError(f"M must be an integer >= 8, got {self.grid.M!r}")
        for name in ("max_iters", "phase_max_sweeps"):
            rule = f"{name} must be an integer >= 1"
            object.__setattr__(self, name, _integer(getattr(self, name), rule, 1))
        for name in ("tol", "phase_tol"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))


@dataclass(frozen=True)
class PicardIterate:
    """One row of the iteration record.

    ratio is diff_norm over the previous row's, None for the first row and
    after a zero difference. phase_update is max |q_{m+1} - q_m|, the change of the phase correction
    q = Q - t (k^3 + k |f_hat|^2) made by the sweep that follows this
    iterate's remainder update.
    """

    norm_x: float
    diff_norm: float
    ratio: float | None
    phase_update: float


@dataclass(frozen=True)
class PicardReport:
    """Iteration record: norms, differences, measured contraction ratios.

    first_iterate_norm is the benchmark size ||z_1||; on convergence the
    final norm is checked against twice that value, which is the size the
    contraction argument predicts for the limit. phase_solve is the record
    of the cold phase solve that certifies the returned table.
    """

    iters: list[PicardIterate]
    first_iterate_norm: float
    converged: bool
    within_first_iterate_bound: bool
    richardson_delta: float
    phase_solve: PhaseSolveReport

    def to_obj(self) -> dict:
        return asdict(self)


def duhamel_integrate(
    forcing: Trajectory,
    f: FourierField | None = None,
    initial: FourierField | None = None,
    *,
    tables: _ProxyTables | None = None,
) -> Trajectory:
    """z(t) = e^{i t phi_k} (z(0) + int_0^t e^{-i s phi_k} F(s) ds), trapezoid in s.

    phi_k = k^3, shifted by k |f_hat(k)|^2 when a profile is given. The
    integrating factor is exact and unimodular, so the quadrature error is
    the plain trapezoid one of the premultiplied integrand. Raises
    GridMismatchError when f or initial has another cutoff than the
    forcing, or held tables another grid or profile.
    """
    if f is not None:
        _require_same_K(forcing, f)
    z0 = np.zeros(forcing.grid.n_modes, dtype=complex)
    if initial is not None:
        _require_same_K(forcing, initial)
        z0 = initial.coeffs
    grid = forcing.grid
    damping = _free_phase_factor(grid, -1, f) if tables is None else tables.check(grid, f).damping
    return Trajectory(grid, _duhamel(forcing.coeffs, damping, grid.dt, z0))


def _duhamel(forcing: np.ndarray, damping: np.ndarray, dt: float, z0: np.ndarray) -> np.ndarray:
    """The Duhamel integral on (M, n) arrays of one set of n mode columns.

    damping holds exp(-i t phi_k) and z0 the modes at t = 0 on those columns.
    """
    integral = cumulative_trapezoid(damping * forcing, dt)
    # the conjugate of the damping table: exp(i t phi_k) in value,
    # though zeros of its t = 0 row may carry the other sign
    return np.conj(damping) * (z0 + integral)


def picard_rhs(z: Trajectory, phase: PhaseTable, f: FourierField) -> Trajectory:
    """Full right side of the gauged evolution, one NR call per frame, marked real_symmetric.

    GridMismatchError unless z and the phase table share a grid and f its
    cutoff, FieldError unless f and z pass spectral's realness verdict. The
    right side is formed on the columns k = 0..K, as in picard_solve, and
    mirrored, so only those columns of z and of the phase table are read.
    """
    if z.grid != phase.grid:
        raise GridMismatchError("trajectory and phase table live on different grids")
    _require_same_K(f, z)
    _require_real(f, "the gauged right side is defined for a real profile")
    _require_real(z, "the gauged right side is defined for a real remainder")
    K = z.K
    profile = _modulate(f.coeffs[K:], phase.values[:, K:])
    return _symmetric_trajectory(z.grid, _rhs(z.coeffs[:, K:], profile))


def _rhs(z: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """The right side on (M, K+1) arrays of the remainder and f_hat e^{iQ}, columns k = 0..K.

    Each frame of w is mirrored into a marked field for its one NR call,
    which the benchmark's traced runs count: nr_calls == iterates x M.
    """
    K = z.shape[-1] - 1
    ks = np.arange(K + 1)
    absz_sq = np.abs(z) ** 2
    out = 1j * ks * (absz_sq + 2.0 * np.real(profile * np.conj(z))) * z
    summed = profile + z
    for m in range(z.shape[0]):
        w = _mirrored_field(summed[m, 0].real, summed[m, 1:])
        out[m] += nr_trilinear(w, w, w).coeffs[K:]
    return out


def picard_step(
    z: Trajectory, f: FourierField, cfg: PicardConfig
) -> tuple[Trajectory, PhaseTable]:
    """One iteration of the nested scheme: solve the phase for z, then Duhamel-integrate.

    Public for the acceptance test, the tests' oracle and the benchmark's
    tracer; runs use picard_solve. GridMismatchError unless z is on cfg.grid.
    """
    if z.grid != cfg.grid:
        raise GridMismatchError(
            f"remainder grid {z.grid} does not match the config grid {cfg.grid}"
        )
    phase, _ = solve_phase(f, z, tol=cfg.phase_tol, max_sweeps=cfg.phase_max_sweeps)
    z_next = duhamel_integrate(picard_rhs(z, phase, f), f)
    return z_next, phase


def _richardson_delta(
    forcing: np.ndarray, damping: np.ndarray, dt: float, z0: np.ndarray, fine: np.ndarray
) -> float:
    """Quadrature-error estimate: redo the Duhamel integral on every other node, step 2 dt.

    On the loop's columns k = 0..K; the -k columns hold no larger difference.
    """
    coarse = _duhamel(forcing[::2], damping[::2], 2.0 * dt, z0)
    return float(np.max(np.abs(fine[::2] - coarse)))


def picard_solve(
    f: FourierField, cfg: PicardConfig
) -> tuple[Trajectory, PhaseTable, PicardReport]:
    """Iterate (z, Q) from z = 0, Q = t phi_k until both settle.

    Iterate m forms the profile f_hat e^{iQ_m} once: it drives the update
    z_m from z_{m-1}, and then one phase sweep with z_m, which gives Q_{m+1}.
    The iteration stops when the remainder difference is at most cfg.tol
    and the update of the phase correction at most cfg.phase_tol. Returns
    the remainder, the phase table solved for it from the cold seed (within
    cfg.phase_max_sweeps sweeps, which certifies it), and the iteration
    report with that solve's record. The loop holds the columns k = 0..K
    only; the returned remainder is mirrored from them and marked
    real_symmetric. The proxy tables are built once per solve. Raises
    GridMismatchError unless f has the cutoff of cfg.grid, FieldError unless
    f is real, ConvergenceError when the differences fail to contract for
    three consecutive iterates (the advisory is to shrink T), and
    InstabilityError if an iterate or its phase sweep stops being finite.
    """
    grid = cfg.grid
    if f.K != grid.K:
        raise GridMismatchError(f"profile cutoff {f.K} does not match grid K {grid.K}")
    _require_real(f, "the Picard iteration is defined for a real profile")
    K = grid.K
    ks = np.arange(K + 1)
    modes = f.coeffs[K:]
    seed = _phase_seed(f, grid, slice(K, None))
    tables = _proxy_tables(grid, f, cfg.proxy, ((cfg.params.s0, cfg.params.b),))
    damping = tables.damping[:, K:]
    z0 = np.zeros(K + 1, dtype=complex)
    z = np.zeros((grid.M, K + 1), dtype=complex)
    q = np.zeros_like(seed)
    values = seed  # the phase of z = 0
    rows: list[PicardIterate] = []
    prev_diff: float | None = None
    stalled = 0
    converged = False
    for m in range(1, cfg.max_iters + 1):
        profile = _modulate(modes, values)
        forcing = _rhs(z, profile)
        z_next = _duhamel(forcing, damping, grid.dt, z0)
        if not np.all(np.isfinite(z_next)):
            raise InstabilityError(f"iterate {m} produced non-finite modes", step=m)
        new = _phase_sweep(profile, z_next, grid.dt, ks)
        del profile  # an (M, K+1) table the proxies need not sit beside
        values = seed + new
        if not np.all(np.isfinite(values)):
            raise InstabilityError(
                f"the phase sweep of iterate {m} produced non-finite values", step=m
            )
        # q is odd in k, so the k >= 0 columns hold the largest update
        phase_update = float(np.max(np.abs(new - q)))
        q = new
        diff = x_space_norm(
            _symmetric_trajectory(grid, z_next - z), cfg.params, f, cfg.proxy, tables=tables
        )
        norm_x = x_space_norm(
            _symmetric_trajectory(grid, z_next), cfg.params, f, cfg.proxy, tables=tables
        )
        ratio = diff / prev_diff if prev_diff is not None and prev_diff > 0 else None
        rows.append(PicardIterate(norm_x, diff, ratio, phase_update))
        # differences already below tol may wobble while the phase settles
        if ratio is not None and ratio >= 1.0 and diff > cfg.tol:
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
        if diff <= cfg.tol and phase_update <= cfg.phase_tol:
            converged = True
            break

    richardson_delta = _richardson_delta(forcing, damping, grid.dt, z0, z)
    z = _symmetric_trajectory(grid, z)
    phase, phase_report = solve_phase(f, z, tol=cfg.phase_tol, max_sweeps=cfg.phase_max_sweeps)
    report = PicardReport(
        iters=rows,
        first_iterate_norm=rows[0].norm_x,
        converged=converged,
        within_first_iterate_bound=bool(converged and rows[-1].norm_x <= 2.0 * rows[0].norm_x),
        richardson_delta=richardson_delta,
        phase_solve=phase_report,
    )
    return z, phase, report


def reconstruct_solution(
    z: Trajectory, phase: PhaseTable, f: FourierField
) -> Trajectory:
    """u_hat = z_hat + f_hat e^{iQ}; equals f at t = 0 since both z and Q vanish there."""
    return gauge_compose(z, phase, f)
