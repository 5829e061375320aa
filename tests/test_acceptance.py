"""Acceptance gate: ten numbered criteria, each printing one PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and runtime budget is asserted, not just logged.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    gauged_remainder_residual,
    modulus_gap_metric,
    random_real_field,
    resonance_identity_residual,
)
from test_gauge import rk4_phase_oracle

from mkdvlab import (
    EnsembleSpec,
    ETDConfig,
    GridSpec,
    PicardConfig,
    SobolevIndex,
    Trajectory,
    compare_trajectories,
    conserved_series,
    cosine_field,
    direct_nonlinearity,
    field_from_modes,
    nr_trilinear_fast,
    nr_trilinear_naive,
    picard_step,
    probe_duhamel_smoothing,
    reconstruct_u,
    resonant_term,
    smoothing_report,
    solve_Q,
    solve_reference,
    solve_z,
    xinfty_hs_norm,
)


def passed(num: int, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS - {detail}")


@pytest.fixture(scope="module")
def solution6():
    """The converged gauge run shared by criteria 6, 8 and 10."""
    f = cosine_field(16)
    cfg = PicardConfig(params=SobolevIndex(s0=0.3), grid=GridSpec(16, 64, 0.01))
    z, phase, report = solve_z(f, cfg)
    u = reconstruct_u(z, phase, f)
    ref = solve_reference(f, cfg.grid.T, ETDConfig(dt=1e-4), cfg.grid.M)
    return {"f": f, "cfg": cfg, "z": z, "phase": phase, "report": report,
            "u": u, "ref": ref}


def test_criterion_01_decomposition_identity():
    start = time.monotonic()
    worst = 0.0
    for K in (8, 16, 32, 64):
        for seed in range(50):
            f = random_real_field(K, seed=1000 * K + seed)
            lhs = direct_nonlinearity(f)
            rhs = nr_trilinear_fast(f, f, f) + resonant_term(f)
            worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    elapsed = time.monotonic() - start
    assert worst < 1e-12
    assert elapsed < 30.0
    passed(1, f"max decomposition error {worst:.3e} over 200 fields in {elapsed:.2f}s")


def test_criterion_02_fast_naive_equivalence():
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        fields = [random_real_field(32, seed=3 * seed + j) for j in range(3)]
        a = nr_trilinear_fast(*fields)
        b = nr_trilinear_naive(*fields)
        worst = max(worst, float(np.max(np.abs(a.coeffs - b.coeffs))))
    elapsed = time.monotonic() - start
    assert worst < 1e-12
    assert elapsed < 60.0
    passed(2, f"max fast/naive deviation {worst:.3e} over 100 triples in {elapsed:.2f}s")


def test_criterion_03_resonance_identity_exact():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    ks = rng.integers(-1000, 1001, size=(10_000, 3))
    worst = 0.0
    for k1, k2, k3 in ks.tolist():
        taus = (k1**3, k2**3, k3**3)
        worst = max(worst, abs(resonance_identity_residual(taus, (k1, k2, k3))))
    elapsed = time.monotonic() - start
    assert worst == 0.0
    assert elapsed < 5.0
    passed(3, f"identity residual exactly 0 on 10^4 integer triples in {elapsed:.2f}s")


def test_criterion_04_phase_fixed_point():
    start = time.monotonic()
    f = cosine_field(8)
    grid = GridSpec(K=8, M=33, T=0.01)
    g = field_from_modes(8, {1: 0.05 + 0.02j, 3: -0.01j}, symmetrize=True)
    z = Trajectory(grid, np.tile(g.coeffs, (grid.M, 1)))
    table, report = solve_Q(f, z)
    assert report.residual < 1e-12
    assert all(r < 0.5 for r in report.ratios)
    oracle = rk4_phase_oracle(f, g, grid, substeps=100)
    gap = float(np.max(np.abs(table.values - oracle)))
    assert gap < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    passed(
        4,
        f"residual {report.residual:.3e}, worst ratio "
        f"{max(report.ratios):.3f}, fine-ODE gap {gap:.3e} in {elapsed:.2f}s",
    )


def test_criterion_05_reference_order_and_conservation():
    start = time.monotonic()
    f = cosine_field(32)
    runs = {
        dt: solve_reference(f, 0.5, ETDConfig(dt=dt), 2).frame(1).coeffs
        for dt in (4e-3, 2e-3, 1e-3)
    }
    coarse = float(np.max(np.abs(runs[4e-3] - runs[2e-3])))
    fine = float(np.max(np.abs(runs[2e-3] - runs[1e-3])))
    order = float(np.log2(coarse / fine))
    assert abs(order - 4.0) < 0.3

    series = conserved_series(solve_reference(f, 0.5, ETDConfig(dt=1e-3), 11))
    drifts = np.max(np.abs(series[:, 1:] - series[0, 1:]), axis=0)
    assert drifts[0] == 0.0
    assert drifts[1] < 1e-10
    assert drifts[2] < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    passed(
        5,
        f"order {order:.3f}, drifts mass {drifts[0]:.1e} l2 {drifts[1]:.1e} "
        f"energy {drifts[2]:.1e} in {elapsed:.2f}s",
    )


def test_criterion_06_gauge_vs_reference(solution6):
    start = time.monotonic()
    report = solution6["report"]
    assert report.converged
    ratios = [row.ratio for row in report.iters if row.ratio is not None]
    assert all(r < 1.0 for r in ratios)
    max_dist, _ = compare_trajectories(solution6["u"], solution6["ref"], 0.0)
    assert max_dist < 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    passed(
        6,
        f"converged in {len(report.iters)} iterates, H^0 gap to the "
        f"independent integrator {max_dist:.3e}",
    )


def test_criterion_07_first_iterate_cubic_scaling():
    start = time.monotonic()
    norms = {}
    for amplitude in (1.0, 2.0):
        f = cosine_field(16, amplitude=amplitude)
        cfg = PicardConfig(grid=GridSpec(16, 32, 1e-3))
        z0 = Trajectory.zeros(cfg.grid)
        z1, _ = picard_step(z0, f, cfg)
        norms[amplitude] = xinfty_hs_norm(z1, cfg.params.s1)
    ratio = norms[2.0] / norms[1.0]
    assert abs(ratio - 8.0) <= 0.05 * 8.0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    passed(7, f"amplitude-doubling ratio {ratio:.6f} (target 8 +- 5%) in {elapsed:.2f}s")


def test_criterion_08_smoothing_metrics(solution6):
    report = smoothing_report(solution6["u"], solution6["f"], solution6["cfg"].params)
    series = (
        report.remainder_hs1,
        report.gap_sum_weight1,
        report.gap_sum_upgraded,
        report.gap_sup_weight1,
    )
    for values in series:
        assert np.all(np.isfinite(values))
        assert values[0] == 0.0
    x_norm = solution6["report"].iters[-1].norm_x
    assert float(np.max(report.remainder_hs1)) <= x_norm * (1.0 + 1e-12)
    passed(
        8,
        f"metrics finite, zero at t=0, sup remainder "
        f"{float(np.max(report.remainder_hs1)):.3e} <= X norm {x_norm:.3e}",
    )


def test_criterion_09_probe_determinism_and_table():
    start = time.monotonic()
    f = cosine_field(32)
    spec = EnsembleSpec(seed=1, count=100, K=32, decay_exponent=1.0,
                        params=SobolevIndex(s0=0.3))
    first = probe_duhamel_smoothing(f, spec)
    second = probe_duhamel_smoothing(f, spec)
    assert json.dumps(first.to_obj()) == json.dumps(second.to_obj())
    assert [K for K, _ in first.per_K] == [8, 16, 32]
    assert all(ratio is not None and ratio > 0.0 for _, ratio in first.per_K)
    summary = first.ratios_summary
    assert set(summary) == {"max", "mean", "p99"}
    assert all(np.isfinite(v) for v in summary.values())
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    passed(
        9,
        f"bit-identical reruns, per-K table "
        f"{[(K, round(r, 4)) for K, r in first.per_K]} in {elapsed:.2f}s",
    )


def test_criterion_10_self_consistency_and_uniqueness(solution6):
    start = time.monotonic()
    residual = gauged_remainder_residual(solution6["u"], solution6["f"])
    assert residual <= 10.0 * solution6["cfg"].tol

    f2 = cosine_field(16)
    cfg2 = PicardConfig(params=SobolevIndex(s0=0.3), grid=GridSpec(16, 64, 0.01))
    z2, phase2, _ = solve_z(f2, cfg2)
    u2 = reconstruct_u(z2, phase2, f2)
    _, sup = modulus_gap_metric(solution6["u"], u2)
    assert sup <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    passed(
        10,
        f"strong-form residual {residual:.3e} <= 10x tol, independent-run "
        f"modulus gap {sup:.3e} in {elapsed:.2f}s",
    )
