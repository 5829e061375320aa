"""Phase fixed point, gauge composition, modulation diagnostics."""

import json

import numpy as np
import pytest

from conftest import gauge_decompose, random_real_field
from mkdvlab import (
    ConfigError,
    ConvergenceError,
    FieldError,
    FourierField,
    GridMismatchError,
    GridSpec,
    PhaseTable,
    PicardConfig,
    SobolevIndex,
    Trajectory,
    bracket_sq,
    cosine_field,
    field_from_modes,
    gauge_compose,
    hs_norms,
    modulated_profile,
    phase_from_obj,
    phase_from_trajectory,
    phase_to_obj,
    picard_solve,
    sobolev_norm,
    solve_phase,
)


def check_phase_oddness(table: PhaseTable) -> float:
    """max over (t, k) of |Q(t,k) + Q(t,-k)|; zero for exactly odd tables."""
    v = table.values
    return float(np.max(np.abs(v + v[:, ::-1])))


def modulation_rate_report(
    f: FourierField, z: Trajectory, params: SobolevIndex
) -> tuple[float, float]:
    """Measured sup of |k| |z_hat| (|f_hat| + |z_hat|) and its product bound.

    The bound splits the two factors as
    sup <k>^{1-s0} |z_hat| * ||f||_{H^{s0}} + sup <k>^{1-s1} |z_hat| * sup_t ||z(t)||_{H^{s1}},
    which dominates the value term by term since |k| <= <k>.
    """
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


def constant_trajectory(z: FourierField, grid: GridSpec) -> Trajectory:
    return Trajectory(grid, np.tile(z.coeffs, (grid.M, 1)), z.real_symmetric)


def smooth_remainder(g: FourierField, grid: GridSpec) -> Trajectory:
    """0.1 t g_hat(k) e^{i t k^3}, marked: exactly conjugate-symmetric for a mirrored g."""
    t = grid.times[:, None]
    airy = np.exp(1j * t * grid.wavenumbers.astype(float) ** 3)
    return Trajectory(grid, 0.1 * t * g.coeffs * airy, real_symmetric=True)


def rk4_phase_oracle(
    f: FourierField, z: FourierField, grid: GridSpec, substeps: int = 100
) -> np.ndarray:
    """Integrate the phase rate equation mode by mode with classical RK4.

    Valid for time-constant z, where the rate depends on t only through Q.
    """
    ks = np.arange(-f.K, f.K + 1).astype(float)
    base = ks**3 + ks * np.abs(f.coeffs) ** 2
    zc = z.coeffs

    def rate(q: np.ndarray) -> np.ndarray:
        cross = 2.0 * np.real(f.coeffs * np.exp(1j * q) * np.conj(zc))
        return base + ks * (cross + np.abs(zc) ** 2)

    values = np.zeros((grid.M, grid.n_modes))
    q = np.zeros(grid.n_modes)
    h = grid.dt / substeps
    for n in range(1, grid.M):
        for _ in range(substeps):
            r1 = rate(q)
            r2 = rate(q + 0.5 * h * r1)
            r3 = rate(q + 0.5 * h * r2)
            r4 = rate(q + h * r3)
            q = q + (h / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        values[n] = q
    return values


class TestPhaseTable:
    def test_first_row_must_vanish(self):
        grid = GridSpec(K=2, M=3, T=1.0)
        bad = np.ones((3, 5))
        with pytest.raises(FieldError):
            PhaseTable(grid, bad)

    def test_shape_check(self):
        grid = GridSpec(K=2, M=3, T=1.0)
        with pytest.raises(FieldError):
            PhaseTable(grid, np.zeros((3, 4)))


class TestSolvePhase:
    def test_zero_remainder_returns_seed_exactly(self):
        f = cosine_field(8)
        grid = GridSpec(K=8, M=16, T=0.01)
        table, report = solve_phase(f, Trajectory.zeros(grid))
        ks = np.arange(-8, 9).astype(float)
        seed = grid.times[:, None] * (ks**3 + ks * np.abs(f.coeffs) ** 2)[None, :]
        assert np.array_equal(table.values, seed)
        assert report.sweeps == 1
        assert report.residual == 0.0

    def test_zero_profile_closed_form(self):
        # f = 0 decouples the sweep: Q(t,k) = t k^3 + t k |z_hat(k)|^2
        grid = GridSpec(K=4, M=32, T=0.02)
        z = field_from_modes(4, {1: 0.3 + 0.1j}, symmetrize=True)
        table, report = solve_phase(FourierField.zeros(4), constant_trajectory(z, grid))
        ks = np.arange(-4, 5).astype(float)
        expected = grid.times[:, None] * (ks**3 + ks * np.abs(z.coeffs) ** 2)[None, :]
        assert np.max(np.abs(table.values - expected)) < 1e-12
        assert report.sweeps == 2
        assert report.residual == 0.0

    def test_against_rk4_oracle(self):
        f = cosine_field(8)
        grid = GridSpec(K=8, M=33, T=0.01)
        z = field_from_modes(8, {1: 0.05 + 0.02j, 3: -0.01j}, symmetrize=True)
        table, report = solve_phase(f, constant_trajectory(z, grid))
        oracle = rk4_phase_oracle(f, z, grid)
        assert np.max(np.abs(table.values - oracle)) < 1e-8
        assert report.residual <= 1e-12
        assert all(r < 0.5 for r in report.ratios)
        updates = report.update_norms
        assert len(updates) == report.sweeps > 2
        assert report.ratios == [updates[i + 1] / updates[i] for i in range(len(updates) - 1)]

    def test_odd_in_k_for_real_data(self):
        f = cosine_field(8)
        grid = GridSpec(K=8, M=16, T=0.01)
        z = field_from_modes(8, {2: 0.1 + 0.3j}, symmetrize=True)
        table, _ = solve_phase(f, constant_trajectory(z, grid))
        # marked inputs are swept on k >= 0 and the table is their odd extension
        assert check_phase_oddness(table) == 0.0

    def test_oddness_gauge_detects_skew(self):
        grid = GridSpec(K=2, M=2, T=1.0)
        v = np.zeros((2, 5))
        v[1] = [0.0, 1.0, 0.0, 1.0, 0.0]  # even in k: doubles under the check
        assert check_phase_oddness(PhaseTable(grid, v)) == 2.0

    def test_tol_bounds_the_correction(self):
        # at K = 128 max|Q| is about 2.1e4, where one ulp exceeds the default
        # tol of 1e-12; the correction q = Q - t (k^3 + k |f_hat|^2) is about
        # 5e-6, resolved far below tol, so both solvers stop on its update
        grid = GridSpec(128, 256, 0.01)
        f = random_real_field(128, 1004, 1.0)
        z, phase, report = picard_solve(f, PicardConfig(grid=grid))
        ulp = float(np.spacing(np.max(np.abs(phase.values))))
        assert ulp > 1e-12
        updates = [r.phase_update for r in report.iters]
        assert 0.0 < updates[-1] < ulp
        assert updates == sorted(updates, reverse=True)
        _, rep = solve_phase(f, z, tol=1e-12, max_sweeps=2)
        assert rep.sweeps == 2
        assert rep.update_norms[-1] < 1e-12
        assert rep.residual < 1e-15

    def test_an_exact_fixed_point_meets_tol_zero(self):
        # the stop test is update <= tol: with f = 0 the second sweep repeats
        # the first bit for bit
        grid = GridSpec(K=4, M=32, T=0.02)
        z = field_from_modes(4, {1: 0.3 + 0.1j}, symmetrize=True)
        _, report = solve_phase(FourierField.zeros(4), constant_trajectory(z, grid), tol=0.0)
        assert report.sweeps == 2
        assert report.update_norms[-1] == 0.0

    def test_sweep_exhaustion_raises(self):
        f = cosine_field(4)
        grid = GridSpec(K=4, M=8, T=0.01)
        z = field_from_modes(4, {1: 0.2}, symmetrize=True)
        with pytest.raises(ConvergenceError) as info:
            solve_phase(f, constant_trajectory(z, grid), max_sweeps=1)
        assert info.value.residual is not None
        assert info.value.residual > 0.0

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_no_sweeps_is_a_config_error(self, max_sweeps):
        grid = GridSpec(K=4, M=8, T=0.01)
        with pytest.raises(ConfigError, match="max_sweeps"):
            solve_phase(cosine_field(4), Trajectory.zeros(grid), max_sweeps=max_sweeps)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_unmeetable_tol_is_a_config_error(self, tol):
        grid = GridSpec(K=4, M=8, T=0.01)
        with pytest.raises(ConfigError, match="tol must be >= 0"):
            solve_phase(cosine_field(4), Trajectory.zeros(grid), tol=tol)

    def test_grid_mismatch(self):
        grid = GridSpec(K=8, M=4, T=0.01)
        with pytest.raises(GridMismatchError):
            solve_phase(cosine_field(4), Trajectory.zeros(grid))


class TestGaugeMaps:
    def test_compose_marks_only_when_both_inputs_are_marked(self):
        # arithmetic marks a real result only when every input was marked
        grid = GridSpec(K=4, M=3, T=1.0)
        table = PhaseTable(grid, np.outer(grid.times, np.arange(-4, 5).astype(float)))
        f = cosine_field(4)
        z = Trajectory(grid, np.zeros((3, 9), dtype=complex), real_symmetric=True)
        assert gauge_compose(z, table, f).real_symmetric
        assert not gauge_compose(z, table, FourierField(f.coeffs)).real_symmetric
        assert not gauge_compose(Trajectory(grid, z.coeffs), table, f).real_symmetric

    def test_compose_values(self):
        f = cosine_field(2)
        grid = GridSpec(K=2, M=3, T=1.0)
        table = PhaseTable(
            grid, np.outer(grid.times, np.arange(-2, 3).astype(float))
        )
        u = gauge_compose(Trajectory.zeros(grid), table, f)
        expected = f.coeffs[None, :] * np.exp(1j * table.values)
        assert np.max(np.abs(u.coeffs - expected)) == 0.0

    def test_compose_reads_every_column_of_a_table_that_is_not_odd(self):
        # the marks bound z and f, not Q: with Q = t k^2 the -k columns of u
        # are z + f e^{iQ} as written, not the conjugates of the k columns
        grid = GridSpec(K=2, M=8, T=1.0)
        f = cosine_field(2)
        z = smooth_remainder(random_real_field(2, seed=9), grid)
        table = PhaseTable(grid, np.outer(grid.times, np.arange(-2, 3).astype(float) ** 2))
        assert f.real_symmetric and z.real_symmetric
        u = gauge_compose(z, table, f)
        assert np.array_equal(u.coeffs, z.coeffs + f.coeffs * np.exp(1j * table.values))
        assert not u.real_symmetric

    def test_round_trip_exact(self):
        grid = GridSpec(K=6, M=5, T=0.3)
        f = random_real_field(6, seed=8)
        rng = np.random.default_rng(3)
        z = Trajectory(
            grid, rng.standard_normal((5, 13)) + 1j * rng.standard_normal((5, 13))
        )
        z = Trajectory(grid, z.coeffs - z.coeffs[0:1])  # z(0) free of constraint here
        table = phase_from_trajectory(gauge_compose(z, PhaseTable.zeros(grid), f))
        back = gauge_decompose(gauge_compose(z, table, f), table, f)
        # one rounding in the sum, one in the difference
        scale = max(1.0, float(np.max(np.abs(z.coeffs))))
        assert np.max(np.abs(back.coeffs - z.coeffs)) < 1e-13 * scale

    def test_grid_checks(self):
        grid = GridSpec(K=4, M=3, T=1.0)
        other = GridSpec(K=4, M=4, T=1.0)
        with pytest.raises(GridMismatchError):
            gauge_compose(Trajectory.zeros(grid), PhaseTable.zeros(other), cosine_field(4))
        with pytest.raises(GridMismatchError):
            gauge_compose(Trajectory.zeros(grid), PhaseTable.zeros(grid), cosine_field(5))


class TestHalfSpectrumRoutes:
    """solve_phase reads marked inputs by their columns k >= 0, unmarked copies by all 2K+1."""

    @pytest.mark.parametrize("K", [1, 16, 128])
    @pytest.mark.parametrize("kind", ["random", "cosine"])
    def test_bits_match_the_full_route(self, K, kind):
        # for exactly conjugate-symmetric data the -k columns of the full
        # route are the odd mirror of the k columns, bit for bit
        grid = GridSpec(K=K, M=32, T=0.01)
        if kind == "random":
            f, g = random_real_field(K, seed=400 + K), random_real_field(K, seed=401 + K)
        else:
            f, g = cosine_field(K), cosine_field(K, 0.5, harmonic=K)
        z = smooth_remainder(g, grid)
        z_full, f_full = Trajectory(grid, z.coeffs), FourierField(f.coeffs)
        table, report = solve_phase(f, z)
        full, full_report = solve_phase(f_full, z_full)
        assert np.array_equal(table.values, full.values)
        assert report == full_report and report.sweeps > 1

    def test_inexact_mark_is_read_by_the_nonnegative_columns(self):
        # the -1 mode of f sits 1e-10 off its mirror, inside the realness
        # verdict: the marked route never reads it, the full route does
        K = 16
        grid = GridSpec(K=K, M=32, T=0.01)
        exact = random_real_field(K, seed=420)
        c = exact.coeffs.copy()
        c[K - 1] += 1e-10
        f = FourierField(c, real_symmetric=True)
        z = smooth_remainder(random_real_field(K, seed=421), grid)
        table, _ = solve_phase(f, z)
        assert check_phase_oddness(table) == 0.0
        assert np.array_equal(table.values, solve_phase(exact, z)[0].values)
        full, _ = solve_phase(FourierField(c), Trajectory(grid, z.coeffs))
        assert check_phase_oddness(full) > 0.0


class TestPhaseFromTrajectory:
    def test_free_evolution_recovers_rates(self):
        f = cosine_field(6)
        grid = GridSpec(K=6, M=24, T=0.05)
        ks = np.arange(-6, 7).astype(float)
        rates = ks**3 + ks * np.abs(f.coeffs) ** 2
        u = Trajectory(
            grid, f.coeffs[None, :] * np.exp(1j * np.outer(grid.times, rates))
        )
        table = phase_from_trajectory(u)
        expected = grid.times[:, None] * rates[None, :]
        assert np.max(np.abs(table.values - expected)) < 1e-12

    def test_time_varying_modulus_against_closed_form(self):
        # u_hat(t, 1) = (1 + t) / 2: the integral of |u_hat|^2 is cubic in t
        grid = GridSpec(K=2, M=64, T=0.5)
        coeffs = np.zeros((64, 5), dtype=complex)
        coeffs[:, 3] = 0.5 * (1.0 + grid.times)
        table = phase_from_trajectory(Trajectory(grid, coeffs))
        t = grid.times
        exact = t + 0.25 * ((1.0 + t) ** 3 - 1.0) / 3.0
        # trapezoid on a smooth integrand: second order in dt
        assert np.max(np.abs(table.values[:, 3] - exact)) < 1e-5
        assert np.max(np.abs(table.values[:, 3] - exact)) > 0.0


class TestModulation:
    def test_profile_values(self):
        f = cosine_field(3)
        grid = GridSpec(K=3, M=4, T=0.1)
        rates = np.arange(-3, 4).astype(float) ** 3
        table = PhaseTable(grid, np.outer(grid.times, rates))
        tr = modulated_profile(f, table)
        assert np.max(np.abs(tr.coeffs - f.coeffs[None, :] * np.exp(1j * table.values))) == 0.0

    def test_rate_report_zero_remainder(self):
        grid = GridSpec(K=4, M=4, T=0.1)
        value, bound = modulation_rate_report(
            cosine_field(4), Trajectory.zeros(grid), SobolevIndex()
        )
        assert value == 0.0
        assert bound == 0.0

    def test_rate_report_zero_profile_value(self):
        grid = GridSpec(K=4, M=4, T=0.1)
        c = 0.25
        z = field_from_modes(4, {1: c}, symmetrize=True)
        value, bound = modulation_rate_report(
            FourierField.zeros(4), constant_trajectory(z, grid), SobolevIndex()
        )
        assert abs(value - c * c) < 1e-15
        assert bound >= value

    def test_rate_report_bound_dominates(self):
        grid = GridSpec(K=8, M=6, T=0.1)
        f = random_real_field(8, seed=21)
        for seed in range(5):
            z = constant_trajectory(random_real_field(8, seed=1000 + seed), grid)
            value, bound = modulation_rate_report(f, z, SobolevIndex())
            assert value <= bound + 1e-13


class TestPhaseSerialization:
    def test_round_trip(self):
        f = cosine_field(4)
        grid = GridSpec(K=4, M=8, T=0.01)
        z = field_from_modes(4, {1: 0.1j}, symmetrize=True)
        table, _ = solve_phase(f, constant_trajectory(z, grid))
        back = phase_from_obj(json.loads(json.dumps(phase_to_obj(table))))
        assert back.grid == table.grid
        assert np.max(np.abs(back.values - table.values)) == 0.0

    @pytest.mark.parametrize(
        "drop, extra",
        [(0, []), (None, [[2, 99.0]])],
        ids=["missing-row", "duplicate-row"],
    )
    def test_rows_cover_each_mode_once(self, drop, extra):
        # the rule trajectory_from_obj applies: one row per k in -K..K
        grid = GridSpec(K=2, M=2, T=0.01)
        obj = phase_to_obj(PhaseTable(grid, np.zeros((2, 5))))
        row = obj["frames"][1]
        obj["frames"][1] = [r for j, r in enumerate(row) if j != drop] + extra
        with pytest.raises(FieldError, match="exactly once"):
            phase_from_obj(obj)

    def test_rows_must_ascend(self):
        grid = GridSpec(K=2, M=2, T=0.01)
        obj = phase_to_obj(PhaseTable(grid, np.zeros((2, 5))))
        obj["frames"][1] = obj["frames"][1][::-1]
        with pytest.raises(FieldError, match="ascending"):
            phase_from_obj(obj)

    @pytest.mark.parametrize(
        "bad",
        [[-1.5, 0.0], [-1], [-1, 0.0, 0.0], ["-1", 0.0], [-1, "x"], [-1, None], None],
        ids=["fractional-k", "short", "long", "string-k", "string", "null", "no-row"],
    )
    def test_malformed_rows_raise_field_error(self, bad):
        grid = GridSpec(K=1, M=2, T=0.01)
        obj = phase_to_obj(PhaseTable(grid, np.zeros((2, 3))))
        obj["frames"][1][0] = bad
        message = "exactly once" if bad == [-1.5, 0.0] else "lists of 2 numbers"
        with pytest.raises(FieldError, match=message):
            phase_from_obj(obj)

    def test_mode_range_check(self):
        obj = {
            "grid": {"K": 1, "M": 2, "T": 1.0},
            "frames": [[[0, 0.0]], [[2, 1.0]]],
        }
        with pytest.raises(FieldError):
            phase_from_obj(obj)
