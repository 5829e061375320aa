"""Shared test helpers: seeded fields, the oracles that the tests check the
package against, and the hypothesis profile."""

import warnings

import numpy as np
from hypothesis import HealthCheck, settings

from mkdvlab import random_real_field  # noqa: F401  (re-exported to the tests)
from mkdvlab import (
    DenominatorError,
    FieldError,
    FourierField,
    GridMismatchError,
    PhaseTable,
    Trajectory,
    duhamel_integrate,
    half_spectrum,
    modulated_profile,
    phase_from_trajectory,
    phase_rates,
    picard_rhs,
)
from mkdvlab import nonlinearity
from mkdvlab.nonlinearity import MAX_TRIPLES, _QuotientPlan, _Triples

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")

# On a failing example hypothesis imports its patch writer, which imports
# libcst, and libcst's use of mypy_extensions.TypedDict raises a
# DeprecationWarning. pyproject.toml turns that warning into an error, which
# inside pytest's reporting hook ends the whole session with INTERNALERROR.
# Importing the module once here, with the warning ignored, leaves the later
# import a cache hit.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def random_complex_field(K: int, seed) -> FourierField:
    """General complex mode vector without reality symmetry."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    return FourierField(c)


def _nr_array(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray) -> np.ndarray:
    """NR of the rows of three (..., 2K+1) mode arrays of one shape, complex ones too.

    The oracle of the real kernel beside nr_trilinear_naive: every row at
    once, the full convolution of the zero-mode-stripped inputs by complex
    transforms on a grid of 4K + 4 points, alias-free for outputs |k| <= K,
    minus the kj = k boundary terms in closed form (each carries a paired
    sum over opposite modes; the three pairwise overlaps are added back
    once).
    """
    if not c1.shape == c2.shape == c3.shape:
        raise GridMismatchError(f"mode arrays differ in shape: {c1.shape}, {c2.shape}, {c3.shape}")
    K = c1.shape[-1] // 2
    a1, a2, a3 = (np.array(c, dtype=complex) for c in (c1, c2, c3))
    for a in (a1, a2, a3):
        a[..., K] = 0.0
    N = 4 * K + 4

    # mode k sits at grid index k mod N: 0..K at the front, -K..-1 at the back
    def grid_values(c: np.ndarray) -> np.ndarray:
        buf = np.zeros((*c.shape[:-1], N), dtype=complex)
        buf[..., : K + 1] = c[..., K:]
        buf[..., N - K :] = c[..., :K]
        return np.fft.ifft(buf) * N

    g1, g2, g3 = (grid_values(a) for a in (a1, a2, a3))
    full_hat = np.fft.fft(g1 * g2 * g3) / N
    conv = np.concatenate((full_hat[..., N - K :], full_hat[..., : K + 1]), axis=-1)

    r1, r2, r3 = a1[..., ::-1], a2[..., ::-1], a3[..., ::-1]
    p23 = np.sum(a2 * r3, axis=-1, keepdims=True)
    p13 = np.sum(a1 * r3, axis=-1, keepdims=True)
    p12 = np.sum(a1 * r2, axis=-1, keepdims=True)
    boundary = (
        p23 * a1
        + p13 * a2
        + p12 * a3
        - (a1 * a2 * r3 + a1 * r2 * a3 + r1 * a2 * a3)
    )

    out = (-1j / 3.0) * np.arange(-K, K + 1) * (conv - boundary)
    out[..., K] = 0.0
    return out


def triple_table_oracle(K: int) -> _Triples:
    """The whole triple table, as one block, by two passes of the (k2, k3) admissibility mask per k1 slice.

    The oracle of nonlinearity._triple_blocks, which yields the same rows
    from closed-form bounds: a counting pass sizes each column, then each
    k1 slice fills its rows in np.nonzero order, ascending (k2, k3).
    """
    if (2 * K + 1) ** 3 > MAX_TRIPLES:
        raise FieldError(f"the triple table needs K <= 127, got {K}")
    ks = np.arange(-K, K + 1)
    k2, k3 = ks[:, None], ks[None, :]

    def admissible(k1):
        k = k1 + k2 + k3
        prod = (k1 + k2) * (k2 + k3) * (k3 + k1)
        return k, prod, (k >= 1) & (k <= K) & (prod != 0)

    ends = np.cumsum([np.count_nonzero(admissible(k1)[2]) for k1 in ks])
    dtypes = [np.int32 if c == "base" else np.int16 for c in _Triples._fields]
    columns = [np.empty(ends[-1], d) for d in dtypes]
    for i1, k1 in enumerate(ks):
        k, prod, valid = admissible(k1)
        j2, j3 = np.nonzero(valid)
        absk = np.abs(np.stack([np.full(j2.size, k1), ks[j2], ks[j3]]))
        piece = (i1, j2, j3, k[valid] + K, -3 * prod[valid])
        rows = slice(ends[i1] - j2.size, ends[i1])
        for col, values in zip(columns, (*piece, absk.max(axis=0), absk.min(axis=0))):
            col[rows] = values
    return _Triples(*columns)


def _denominators(kp: np.ndarray, b: _Triples) -> np.ndarray:
    """The corrected denominators of the rows of b, as the package forms them, from intp indices."""
    i1, i2, i3, out = (col.astype(np.intp) for col in b[:4])
    return kp[i1] + kp[i2] + kp[i3] - kp[out] + b.base


def held_cutoff(f: FourierField, t: _Triples) -> int:
    """select_frequency_cutoff by a block walk of the held table t, the route before the rows were streamed."""
    kp, flagged = f.wavenumbers * np.abs(f.coeffs) ** 2, 0
    for start in range(0, t.out.size, nonlinearity._TABLE_BLOCK):
        block = _Triples(*(col[start : start + nonlinearity._TABLE_BLOCK] for col in t))
        bad = np.abs(_denominators(kp, block)) < 0.5 * block.kmax
        flagged = max(flagged, int(block.kmax[bad].max(initial=0)))
    return flagged


def held_plans(f: FourierField, cutoff: int, cases: tuple, t: _Triples) -> list[_QuotientPlan]:
    """The plans of (f, cutoff, case) for cases, filled by block walks of the held table t.

    The route before the rows were streamed: a counting walk sizes each
    plan at the cutoff, then one walk computes each row's denominator and
    fills the kept rows; a denominator below DENOMINATOR_FLOOR in size
    raises DenominatorError at the first row in table order that one of
    the cases keeps.
    """
    K, step = f.K, nonlinearity._TABLE_BLOCK
    blocks = [_Triples(*(col[s : s + step] for col in t)) for s in range(0, t.out.size, step)]

    def kept(b: _Triples) -> list[np.ndarray]:
        live, comparable = b.kmax > cutoff, b.kmax <= 2 * b.kmin
        bins = {None: live, "comparable": live & comparable, "separated": live & ~comparable}
        return [bins[case] for case in cases]

    sizes = sum((np.count_nonzero(kept(b), axis=1) for b in blocks), np.zeros(len(cases), int))
    plans = [_QuotientPlan(f, cutoff, case, np.empty(n, np.int32), *np.empty((3, n), np.int16),
                           np.empty(n)) for case, n in zip(cases, sizes)]
    kp, filled = f.wavenumbers * np.abs(f.coeffs) ** 2, [0] * len(cases)
    for b in blocks:
        masks, denom = kept(b), _denominators(kp, b)
        bad = np.flatnonzero((np.abs(denom) < nonlinearity.DENOMINATOR_FLOOR)
                             & np.logical_or.reduce(masks))
        if bad.size:
            triple = tuple(int(col[bad[0]]) - K for col in b[:3])
            message = f"corrected denominator {denom[bad[0]]:.3e} below floor at triple {triple}"
            raise DenominatorError(message, triple=triple)
        for j, (plan, mask) in enumerate(zip(plans, masks)):
            at = slice(filled[j], filled[j] + np.count_nonzero(mask))
            filled[j] = at.stop
            i1, plan.i2[at], plan.i3[at], plan.out[at] = (col[mask] for col in b[:4])
            plan.pair[at] = plan.out[at] * np.int32(2 * K + 1) + i1
            plan.scale[at] = 1.0 / denom[mask]
    return plans


def to_real_samples(u: FourierField, n: int) -> np.ndarray:
    """Real point values of a conjugate-symmetric field on the uniform n-point grid of [0, 2*pi)."""
    return np.fft.irfft(half_spectrum(u.coeffs, n), n) * n


def resonance_identity_residual(
    taus: tuple[float, float, float], ks: tuple[int, int, int]
) -> float:
    """Residual of the modulation identity; zero in exact arithmetic.

    Checks (tau1 + tau2 + tau3) - (k1 + k2 + k3)^3 against
    sum_j (tau_j - kj^3) - 3 (k1+k2)(k2+k3)(k3+k1). Python integers keep
    the arithmetic exact.
    """
    (t1, t2, t3), (k1, k2, k3) = taus, ks
    lhs = (t1 + t2 + t3) - (k1 + k2 + k3) ** 3
    rhs = (
        (t1 - k1**3)
        + (t2 - k2**3)
        + (t3 - k3**3)
        - 3 * (k1 + k2) * (k2 + k3) * (k3 + k1)
    )
    return abs(lhs - rhs)


def strong_form_residual(z: Trajectory, f: FourierField, phase: PhaseTable) -> float:
    """Sup-over-(t,k) defect of the discrete Duhamel identity for (z, Q) on z's grid."""
    replay = duhamel_integrate(picard_rhs(z, phase, f), f)
    return float(np.max(np.abs(z.coeffs - replay.coeffs)))


def airy_exact(u0: FourierField, t: float, f: FourierField | None = None) -> FourierField:
    """Free evolution: multiply mode k by exp(i t (k^3 + k|f_hat(k)|^2 if f given))."""
    phi = phase_rates(u0.K, f)
    factor = np.exp(1j * t * phi)
    odd = bool(np.array_equal(phi, -phi[::-1]))
    return FourierField(factor * u0.coeffs, real_symmetric=u0.real_symmetric and odd)


def tau_power_oracle(
    windowed: np.ndarray, Mp: int, dt: float, tau_weight: np.ndarray
) -> np.ndarray:
    """sum_m <tau_m>^{2b} |G(m)|^2 per column from one whole-table transform padded to Mp."""
    spectrum = np.fft.fft(windowed, n=Mp, axis=0) * dt
    return np.sum(np.abs(spectrum) ** 2 * tau_weight, axis=0)


def gauge_decompose(u: Trajectory, table: PhaseTable, f: FourierField) -> Trajectory:
    """z_hat(t,k) = u_hat(t,k) - f_hat(k) exp(i Q(t,k)), the inverse of gauge_compose."""
    coeffs = u.coeffs - modulated_profile(f, table).coeffs
    return Trajectory(u.grid, coeffs, u.real_symmetric and f.real_symmetric)


def gauged_remainder_residual(u: Trajectory, f: FourierField) -> float:
    """Duhamel defect of the gauged remainder v = u - profile on u's own grid.

    The phase is rebuilt from u alone, so this checks u against the gauged
    integral equation without reference to how u was produced. Small iff u
    solves the evolution on this grid.
    """
    table = phase_from_trajectory(u)
    v = gauge_decompose(u, table, f)
    replay = duhamel_integrate(picard_rhs(v, table, f), f, initial=v.frame(0))
    return float(np.max(np.abs(v.coeffs - replay.coeffs)))


def modulus_gap_metric(u1: Trajectory, u2: Trajectory) -> tuple[np.ndarray, float]:
    """Per-k table sup_t |k| * ||u1_hat|^2 - |u2_hat|^2| and its sup over k."""
    ks = np.abs(np.arange(-u1.K, u1.K + 1).astype(float))
    gap = np.abs(np.abs(u1.coeffs) ** 2 - np.abs(u2.coeffs) ** 2)
    per_k = np.max(ks[None, :] * gap, axis=0)
    return per_k, float(np.max(per_k))
