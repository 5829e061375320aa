"""Cubic mode interactions for the renormalized dispersive flow.

The evolution splits, mode by mode, into a resonant diagonal part
i k |u_hat(k)|^2 u_hat(k) and a nonresonant triple sum

    NR(v1, v2, v3)(k) = -(i k / 3) * sum v1_hat(k1) v2_hat(k2) v3_hat(k3),

taken over k1 + k2 + k3 = k with k != 0, every kj != 0, and
(k1+k2)(k2+k3)(k3+k1) != 0. Under the convolution constraint the last
condition is equivalent to kj != k for all j, which is how the code tests
it. Two independent evaluation routes are kept: an index-table sum
(`naive`) and a padded-FFT evaluation with boundary corrections (`fast`);
they agree to rounding and are cross-checked in the test suite.

Everything here treats fields as plain mode vectors; no physical-space
state is retained between calls.
"""

from __future__ import annotations

import numpy as np

from .errors import DenominatorError, FieldError, GridMismatchError
from .spectral import (
    REAL_SYMMETRY_TOL,
    FourierField,
    Trajectory,
    check_real_symmetry,
    half_spectrum,
    mirrored,
)

__all__ = [
    "galilean_speed",
    "nr_trilinear",
    "nr_trilinear_naive",
    "nr_trilinear_fast",
    "nr_framewise",
    "nr_split_by_frequency",
    "resonant_term",
    "direct_nonlinearity",
    "denominator_correction",
    "trilinear_quotient_form",
    "select_frequency_cutoff",
    "conserved_functionals",
    "resonance_identity_residual",
    "kernel_product_minimum",
    "DENOMINATOR_FLOOR",
]

# Guard below which a corrected denominator counts as a genuine division by
# zero rather than a small divisor.
DENOMINATOR_FLOOR = 1e-9


def galilean_speed(f: FourierField) -> float:
    """Mean of the squared field, sum_k |f_hat(k)|^2."""
    return float(np.sum(np.abs(f.coeffs) ** 2))


def _require_same_K(*fields: FourierField) -> int:
    K = fields[0].K
    for g in fields[1:]:
        if g.K != K:
            raise GridMismatchError(f"mode cutoffs differ: {K} vs {g.K}")
    return K


# ---------------------------------------------------------------------------
# Index-table route. For each cutoff K we enumerate the admissible triples
# once and keep flat gather indices; evaluation is then two gathers and a
# bincount. Cached tables are immutable.

_TRIPLE_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _nr_triples(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cached = _TRIPLE_CACHE.get(K)
    if cached is not None:
        return cached
    n = 2 * K + 1
    ks = np.arange(-K, K + 1)
    k1 = ks[:, None, None]
    k2 = ks[None, :, None]
    k = ks[None, None, :]
    k3 = k - k1 - k2
    valid = (
        (np.abs(k3) <= K)
        & (k != 0)
        & (k1 != 0)
        & (k2 != 0)
        & (k3 != 0)
        & (k1 != k)
        & (k2 != k)
        & (k3 != k)
    )
    i1, i2, ik = np.nonzero(valid)
    idx3 = (ks[ik] - ks[i1] - ks[i2] + K).astype(np.intp)
    pair_idx = (i1 * n + i2).astype(np.intp)
    table = (pair_idx, idx3, ik.astype(np.intp))
    _TRIPLE_CACHE[K] = table
    return table


def nr_trilinear_naive(
    v1: FourierField, v2: FourierField, v3: FourierField
) -> FourierField:
    """Nonresonant trilinear term by direct summation over the triple table."""
    K = _require_same_K(v1, v2, v3)
    n = 2 * K + 1
    pair_idx, idx3, out_idx = _nr_triples(K)
    pair = (v1.coeffs[:, None] * v2.coeffs[None, :]).ravel()
    prods = pair[pair_idx] * v3.coeffs[idx3]
    sums = np.bincount(out_idx, weights=prods.real, minlength=n) + 1j * np.bincount(
        out_idx, weights=prods.imag, minlength=n
    )
    ks = np.arange(-K, K + 1)
    return FourierField((-1j / 3.0) * ks * sums)


def nr_trilinear_fast(
    v1: FourierField, v2: FourierField, v3: FourierField
) -> FourierField:
    """Nonresonant trilinear term via a padded cyclic convolution.

    The full convolution of the zero-mode-stripped inputs is computed on a
    grid of 4K + 4 points, which is alias-free for outputs |k| <= K. The
    kj = k boundary terms are then removed in closed form: each carries a
    paired sum over opposite modes, and the three pairwise overlaps are
    added back once.
    """
    K = _require_same_K(v1, v2, v3)
    ks = np.arange(-K, K + 1)
    N = 4 * K + 4

    a1 = v1.coeffs.copy()
    a2 = v2.coeffs.copy()
    a3 = v3.coeffs.copy()
    a1[K] = a2[K] = a3[K] = 0.0

    def grid_values(c: np.ndarray) -> np.ndarray:
        buf = np.zeros(N, dtype=complex)
        buf[ks % N] = c
        return np.fft.ifft(buf) * N

    full_hat = np.fft.fft(grid_values(a1) * grid_values(a2) * grid_values(a3)) / N
    conv = full_hat[ks % N]

    r1, r2, r3 = a1[::-1], a2[::-1], a3[::-1]
    p23 = np.sum(a2 * r3)
    p13 = np.sum(a1 * r3)
    p12 = np.sum(a1 * r2)
    boundary = (
        p23 * a1
        + p13 * a2
        + p12 * a3
        - (a1 * a2 * r3 + a1 * r2 * a3 + r1 * a2 * a3)
    )

    out = (-1j / 3.0) * ks * (conv - boundary)
    out[K] = 0.0
    return FourierField(out)


def nr_trilinear(
    v1: FourierField,
    v2: FourierField,
    v3: FourierField,
    method: str = "fast",
) -> FourierField:
    """Dispatch between the two evaluation routes."""
    if method == "fast":
        return nr_trilinear_fast(v1, v2, v3)
    if method == "naive":
        return nr_trilinear_naive(v1, v2, v3)
    raise FieldError(f"unknown nr method {method!r}")


def nr_framewise(
    t1: Trajectory,
    t2: Trajectory | None = None,
    t3: Trajectory | None = None,
    method: str = "fast",
) -> Trajectory:
    """Apply the nonresonant term frame by frame along trajectories."""
    t2 = t1 if t2 is None else t2
    t3 = t1 if t3 is None else t3
    if t1.grid != t2.grid or t1.grid != t3.grid:
        raise GridMismatchError("trajectories live on different grids")
    out = np.empty_like(t1.coeffs)
    for m in range(t1.grid.M):
        out[m] = nr_trilinear(t1.frame(m), t2.frame(m), t3.frame(m), method).coeffs
    return Trajectory(t1.grid, out)


def nr_split_by_frequency(
    v1: FourierField,
    v2: FourierField,
    v3: FourierField,
    cutoff: int,
) -> tuple[FourierField, FourierField]:
    """Split NR into triples with max |kj| <= cutoff and the remainder.

    The low piece is the trilinear term of the inputs truncated to
    |kj| <= cutoff, which restricts the sum to exactly those triples; the
    high piece is the arithmetic complement, so low + high recovers the
    full term to rounding.
    """
    K = _require_same_K(v1, v2, v3)
    if cutoff < 0:
        raise FieldError(f"cutoff must be nonnegative, got {cutoff}")
    full = nr_trilinear_naive(v1, v2, v3)

    def truncated(v: FourierField) -> FourierField:
        c = v.coeffs.copy()
        ks = np.arange(-K, K + 1)
        c[np.abs(ks) > cutoff] = 0.0
        return FourierField(c)

    low = nr_trilinear_naive(truncated(v1), truncated(v2), truncated(v3))
    return low, full - low


def resonant_term(v: FourierField) -> FourierField:
    """Diagonal cubic term i k |v_hat(k)|^2 v_hat(k)."""
    ks = v.wavenumbers
    return FourierField(1j * ks * np.abs(v.coeffs) ** 2 * v.coeffs)


def direct_nonlinearity(u: FourierField) -> FourierField:
    """Mode vector of -(u^2 - mean(u^2)) u_x for a real field.

    Evaluated pseudospectrally on 4K + 4 points, enough to make the cubic
    product alias-free for |k| <= K; the transform pair is the half-spectrum
    one so the output is conjugate-symmetric to the last bit. The zero mode
    vanishes identically (the integrand is a total derivative) and is pinned
    to exactly zero.
    """
    if check_real_symmetry(u) > REAL_SYMMETRY_TOL:
        raise FieldError("direct nonlinearity is defined for real fields")
    K = u.K
    N = 4 * K + 4
    half = half_spectrum(u.coeffs, N)
    samples = np.fft.irfft(half, N) * N
    deriv_half = half * 1j * np.arange(N // 2 + 1)
    slope = np.fft.irfft(deriv_half, N) * N
    c = galilean_speed(u)
    w = (samples**2 - c) * slope
    w_half = np.fft.rfft(w) / N
    return FourierField(mirrored(0.0, -w_half[1 : K + 1]), real_symmetric=True)


def denominator_correction(
    f: FourierField, k1: int, k2: int, k3: int
) -> float:
    """Mode-weighted profile shift k1 |f(k1)|^2 + k2 |f(k2)|^2 + k3 |f(k3)|^2 - k |f(k)|^2."""
    k = k1 + k2 + k3
    p = np.abs(f.coeffs) ** 2

    def at(j: int) -> float:
        return float(p[j + f.K]) if abs(j) <= f.K else 0.0

    return k1 * at(k1) + k2 * at(k2) + k3 * at(k3) - k * at(k)


# ---------------------------------------------------------------------------
# Weighted quotient form. Enumeration differs from the NR table: zero input
# modes are allowed, only k != 0 and a nonzero kernel product are required.

_QUOTIENT_CACHE: dict[int, tuple[np.ndarray, ...]] = {}


def _quotient_triples(K: int) -> tuple[np.ndarray, ...]:
    cached = _QUOTIENT_CACHE.get(K)
    if cached is not None:
        return cached
    ks = np.arange(-K, K + 1)
    k1 = ks[:, None, None]
    k2 = ks[None, :, None]
    k3 = ks[None, None, :]
    k = k1 + k2 + k3
    prod = (k1 + k2) * (k2 + k3) * (k3 + k1)
    valid = (np.abs(k) <= K) & (k != 0) & (prod != 0)
    i1, i2, i3 = np.nonzero(valid)
    t1 = ks[i1].astype(np.int64)
    t2 = ks[i2].astype(np.int64)
    t3 = ks[i3].astype(np.int64)
    tk = t1 + t2 + t3
    base = -3.0 * ((t1 + t2) * (t2 + t3) * (t3 + t1)).astype(float)
    absk = np.abs(np.stack([t1, t2, t3]))
    kmax = absk.max(axis=0)
    kmin = absk.min(axis=0)
    table = (
        i1.astype(np.intp),
        i2.astype(np.intp),
        i3.astype(np.intp),
        (tk + K).astype(np.intp),
        tk,
        base,
        kmax,
        kmin,
    )
    _QUOTIENT_CACHE[K] = table
    return table


def _case_mask(kmax: np.ndarray, kmin: np.ndarray, case: str | None) -> np.ndarray:
    if case is None:
        return np.ones(kmax.shape, dtype=bool)
    if case == "comparable":
        return kmax <= 2 * kmin
    if case == "separated":
        return kmax > 2 * kmin
    raise FieldError(f"unknown case {case!r}; expected 'comparable' or 'separated'")


def _corrected_denominators(f: FourierField) -> np.ndarray:
    """-3 (k1+k2)(k2+k3)(k3+k1) plus the profile correction of f, per quotient triple."""
    i1, i2, i3, out_idx, tk, base, _, _ = _quotient_triples(f.K)
    p = np.abs(f.coeffs) ** 2
    kp = f.wavenumbers.astype(float) * p
    return base + (kp[i1] + kp[i2] + kp[i3] - tk * p[out_idx])


def trilinear_quotient_form(
    v1: FourierField,
    v2: FourierField,
    v3: FourierField,
    f: FourierField,
    cutoff: int = 0,
    case: str | None = None,
) -> FourierField:
    """Kernel-weighted trilinear sum with profile-corrected denominators.

    For each admissible triple the summand is

        k * v1_hat(k1) v2_hat(k2) v3_hat(k3) / (-3 (k1+k2)(k2+k3)(k3+k1) + E)

    with E the denominator correction of the profile f. Triples whose
    largest input frequency is <= cutoff are dropped, as are those outside
    the requested case bin. A corrected denominator smaller than
    DENOMINATOR_FLOOR raises DenominatorError naming the triple.
    """
    K = _require_same_K(v1, v2, v3, f)
    n = 2 * K + 1
    i1, i2, i3, out_idx, tk, _, kmax, kmin = _quotient_triples(K)
    keep = (kmax > cutoff) & _case_mask(kmax, kmin, case)
    denom = _corrected_denominators(f)

    bad = keep & (np.abs(denom) < DENOMINATOR_FLOOR)
    if np.any(bad):
        j = int(np.nonzero(bad)[0][0])
        triple = (int(i1[j]) - K, int(i2[j]) - K, int(i3[j]) - K)
        raise DenominatorError(
            f"corrected denominator {denom[j]:.3e} below floor at triple {triple}",
            triple=triple,
        )

    terms = np.zeros(denom.shape, dtype=complex)
    terms[keep] = (
        tk[keep]
        * v1.coeffs[i1[keep]]
        * v2.coeffs[i2[keep]]
        * v3.coeffs[i3[keep]]
        / denom[keep]
    )
    out = np.bincount(out_idx, weights=terms.real, minlength=n) + 1j * np.bincount(
        out_idx, weights=terms.imag, minlength=n
    )
    return FourierField(out)


def select_frequency_cutoff(f: FourierField) -> int:
    """Smallest safe truncation level for the quotient form around f.

    Scans every admissible triple and flags those where the corrected
    denominator fails |D| >= kmax / 2; returns the largest kmax among the
    flagged triples (0 when the bound holds everywhere), so that dropping
    max |kj| <= cutoff removes every flagged interaction.
    """
    kmax = _quotient_triples(f.K)[6]
    bad = np.abs(_corrected_denominators(f)) < 0.5 * kmax
    if not np.any(bad):
        return 0
    return int(kmax[bad].max())


def conserved_functionals(u: FourierField) -> tuple[float, float, float]:
    """(mean, squared l2 mass, energy) of a real field.

    The energy mean(u_x^2 / 2 - u^4 / 12) is evaluated on 8 (K + 1) points,
    alias-free for the quartic term.
    """
    if check_real_symmetry(u) > REAL_SYMMETRY_TOL:
        raise FieldError("conserved functionals are defined for real fields")
    K = u.K
    mass = float(u.coeffs[K].real)
    l2 = galilean_speed(u)
    N = 8 * (K + 1)
    half = half_spectrum(u.coeffs, N)
    slope = np.fft.irfft(half * 1j * np.arange(N // 2 + 1), N) * N
    samples = np.fft.irfft(half, N) * N
    energy = float(np.mean(0.5 * slope**2 - samples**4 / 12.0))
    return mass, l2, energy


def resonance_identity_residual(
    taus: tuple[float, float, float], ks: tuple[int, int, int]
) -> float:
    """Residual of the modulation identity; zero in exact arithmetic.

    Checks (tau1 + tau2 + tau3) - (k1 + k2 + k3)^3 against
    sum_j (tau_j - kj^3) - 3 (k1+k2)(k2+k3)(k3+k1). Integer inputs are kept
    in exact integer arithmetic.
    """
    k1, k2, k3 = (int(k) for k in ks)
    exact = all(float(t) == int(t) for t in taus)
    if exact:
        t1, t2, t3 = (int(t) for t in taus)
    else:
        t1, t2, t3 = (float(t) for t in taus)
    lhs = (t1 + t2 + t3) - (k1 + k2 + k3) ** 3
    rhs = (
        (t1 - k1**3)
        + (t2 - k2**3)
        + (t3 - k3**3)
        - 3 * (k1 + k2) * (k2 + k3) * (k3 + k1)
    )
    return abs(lhs - rhs)


def kernel_product_minimum(
    limit: int, k1_values: list[int] | None = None
) -> tuple[float, tuple[int, int, int]]:
    """Minimum of |(k1+k2)(k2+k3)(k3+k1)| / max |kj| over nonzero triples.

    Enumerates k1, k2, k3 with 0 < |kj| <= limit and nonzero kernel product
    (slice by slice in k1 to bound memory) and returns the minimum ratio
    with a witness triple. Restricting k1_values narrows the scan to those
    slices, which keeps spot checks at large limits affordable.
    """
    if limit < 1:
        raise FieldError(f"limit must be >= 1, got {limit}")
    ks = np.concatenate([np.arange(-limit, 0), np.arange(1, limit + 1)])
    if k1_values is None:
        k1_iter = [int(k) for k in ks]
    else:
        k1_iter = [int(k) for k in k1_values]
        if any(k == 0 or abs(k) > limit for k in k1_iter):
            raise FieldError("k1_values must be nonzero and within the limit")
    k2 = ks[:, None]
    k3 = ks[None, :]
    best = np.inf
    witness = (0, 0, 0)
    for k1 in k1_iter:
        prod = (k1 + k2) * (k2 + k3) * (k3 + k1)
        kmax = np.maximum(abs(k1), np.maximum(np.abs(k2), np.abs(k3)))
        ratio = np.where(prod != 0, np.abs(prod) / kmax, np.inf)
        j = np.unravel_index(np.argmin(ratio), ratio.shape)
        if ratio[j] < best:
            best = float(ratio[j])
            witness = (k1, int(k2[j[0], 0]), int(k3[0, j[1]]))
    return best, witness
