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

from typing import NamedTuple

import numpy as np

from .errors import DenominatorError, FieldError, GridMismatchError
from .spectral import (
    REAL_SYMMETRY_TOL,
    FourierField,
    Trajectory,
    _mirrored_field,
    check_real_symmetry,
    half_spectrum,
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
# One triple table serves the naive NR sum and the quotient form: every
# (k1, k2, k3) with |kj| <= K, k = k1 + k2 + k3 != 0, |k| <= K and a nonzero
# kernel product (k1+k2)(k2+k3)(k3+k1), zero input modes included, in
# ascending order. The NR sum zeroes the k = 0 entry of its inputs, so the
# triples with a zero input add exact zeros to it. Built one k1 slice at a
# time, so no (2K+1)^3 array exists, and cached per K; never modified. The
# integer columns are int16, enough for K <= 127, where (2K+1)^3 <= 2^24.


class _Triples(NamedTuple):
    i1: np.ndarray  # indices of k1, k2, k3 and k in -K..K
    i2: np.ndarray
    i3: np.ndarray
    out: np.ndarray
    k: np.ndarray
    base: np.ndarray  # -3 (k1+k2)(k2+k3)(k3+k1), as float
    kmax: np.ndarray  # max |kj|
    kmin: np.ndarray  # min |kj|


_TRIPLES: dict[int, _Triples] = {}


def _triples(K: int) -> _Triples:
    if K in _TRIPLES:
        return _TRIPLES[K]
    if K > 127:
        raise FieldError(f"the triple table needs K <= 127, got {K}")
    ks = np.arange(-K, K + 1)
    k2, k3 = ks[:, None], ks[None, :]

    def admissible(k1):
        k = k1 + k2 + k3
        prod = (k1 + k2) * (k2 + k3) * (k3 + k1)
        return k, prod, (np.abs(k) <= K) & (k != 0) & (prod != 0)

    # a counting pass first, so each column is allocated once at full size
    ends = np.cumsum([np.count_nonzero(admissible(k1)[2]) for k1 in ks])
    dtypes = [float if c == "base" else np.int16 for c in _Triples._fields]
    table = _Triples(*(np.empty(ends[-1], d) for d in dtypes))
    for i1, k1 in enumerate(ks):
        k, prod, valid = admissible(k1)
        j2, j3 = np.nonzero(valid)
        absk = np.abs(np.stack([np.full(j2.size, k1), ks[j2], ks[j3]]))
        piece = (i1, j2, j3, k[valid] + K, k[valid], -3.0 * prod[valid])
        rows = slice(ends[i1] - j2.size, ends[i1])
        for col, values in zip(table, (*piece, absk.max(axis=0), absk.min(axis=0))):
            col[rows] = values
    _TRIPLES[K] = table
    return table


def _nr_array(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray, method: str) -> np.ndarray:
    """NR of the rows of three (..., 2K+1) mode arrays of one shape.

    method "fast" evaluates every row at once: the full convolution of the
    zero-mode-stripped inputs on a grid of 4K + 4 points, alias-free for
    outputs |k| <= K, minus the kj = k boundary terms in closed form (each
    carries a paired sum over opposite modes; the three pairwise overlaps
    are added back once). method "naive" sums each row over the triple
    table, the independent cross-check.
    """
    if not c1.shape == c2.shape == c3.shape:
        raise GridMismatchError(f"mode arrays differ in shape: {c1.shape}, {c2.shape}, {c3.shape}")
    n = c1.shape[-1]
    K = n // 2
    ks = np.arange(-K, K + 1)
    a1, a2, a3 = (np.array(c, dtype=complex) for c in (c1, c2, c3))
    for a in (a1, a2, a3):
        a[..., K] = 0.0
    if method == "naive":
        t = _triples(K)
        pair_index = t.i1.astype(np.intp) * n + t.i2
        sums = np.empty(a1.shape, dtype=complex)
        for row in np.ndindex(a1.shape[:-1]):
            pair = (a1[row][:, None] * a2[row][None, :]).ravel()
            prods = pair[pair_index] * a3[row][t.i3]
            sums[row] = np.bincount(t.out, weights=prods.real, minlength=n) + 1j * np.bincount(
                t.out, weights=prods.imag, minlength=n
            )
        return (-1j / 3.0) * ks * sums
    if method != "fast":
        raise FieldError(f"unknown nr method {method!r}")
    N = 4 * K + 4

    # mode k sits at grid index k mod N: 0..K at the front, -K..-1 at the back
    def grid_values(c: np.ndarray) -> np.ndarray:
        buf = np.zeros((*c.shape[:-1], N), dtype=complex)
        buf[..., : K + 1] = c[..., K:]
        buf[..., N - K :] = c[..., :K]
        return np.fft.ifft(buf) * N

    full_hat = np.fft.fft(grid_values(a1) * grid_values(a2) * grid_values(a3)) / N
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

    out = (-1j / 3.0) * ks * (conv - boundary)
    out[..., K] = 0.0
    return out


def nr_trilinear_naive(
    v1: FourierField, v2: FourierField, v3: FourierField
) -> FourierField:
    """Nonresonant trilinear term by direct summation over the triple table."""
    return FourierField(_nr_array(v1.coeffs, v2.coeffs, v3.coeffs, "naive"))


def nr_trilinear_fast(
    v1: FourierField, v2: FourierField, v3: FourierField
) -> FourierField:
    """Nonresonant trilinear term via a padded cyclic convolution with boundary corrections."""
    return FourierField(_nr_array(v1.coeffs, v2.coeffs, v3.coeffs, "fast"))


def nr_trilinear(
    v1: FourierField,
    v2: FourierField,
    v3: FourierField,
    method: str = "fast",
) -> FourierField:
    """Nonresonant trilinear term by the "fast" or the "naive" route."""
    return FourierField(_nr_array(v1.coeffs, v2.coeffs, v3.coeffs, method))


def nr_framewise(
    t1: Trajectory,
    t2: Trajectory | None = None,
    t3: Trajectory | None = None,
    method: str = "fast",
) -> Trajectory:
    """Apply the nonresonant term frame by frame along trajectories, in one array call."""
    t2 = t1 if t2 is None else t2
    t3 = t1 if t3 is None else t3
    if t1.grid != t2.grid or t1.grid != t3.grid:
        raise GridMismatchError("trajectories live on different grids")
    return Trajectory(t1.grid, _nr_array(t1.coeffs, t2.coeffs, t3.coeffs, method))


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
    inside = np.abs(np.arange(-K, K + 1)) <= cutoff
    low = nr_trilinear_naive(
        *(FourierField(np.where(inside, v.coeffs, 0)) for v in (v1, v2, v3))
    )
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
    return _mirrored_field(0.0, -w_half[1 : K + 1])


def denominator_correction(
    f: FourierField, k1: int, k2: int, k3: int
) -> float:
    """Mode-weighted profile shift k1 |f(k1)|^2 + k2 |f(k2)|^2 + k3 |f(k3)|^2 - k |f(k)|^2."""
    k = k1 + k2 + k3
    p = np.abs(f.coeffs) ** 2

    def at(j: int) -> float:
        return float(p[j + f.K]) if abs(j) <= f.K else 0.0

    return k1 * at(k1) + k2 * at(k2) + k3 * at(k3) - k * at(k)


def _case_mask(kmax: np.ndarray, kmin: np.ndarray, case: str | None) -> np.ndarray:
    if case is None:
        return np.ones(kmax.shape, dtype=bool)
    if case == "comparable":
        return kmax <= 2 * kmin
    if case == "separated":
        return kmax > 2 * kmin
    raise FieldError(f"unknown case {case!r}; expected 'comparable' or 'separated'")


# The latest profile's denominators per K, and per (K, case) the quotient
# form's kept rows for the latest (profile, cutoff). A new profile or cutoff
# replaces the entry, so neither dict grows beyond one entry per K or (K, case).
_DENOMINATORS: dict[int, tuple[bytes, np.ndarray]] = {}
_PLANS: dict[tuple[int, str | None], tuple[tuple[bytes, int], tuple]] = {}


def _corrected_denominators(f: FourierField) -> np.ndarray:
    """-3 (k1+k2)(k2+k3)(k3+k1) plus the profile correction of f, per triple."""
    key = f.coeffs.tobytes()
    hit = _DENOMINATORS.pop(f.K, None)
    if hit is None or hit[0] != key:
        t = _triples(f.K)
        p = np.abs(f.coeffs) ** 2
        kp = f.wavenumbers.astype(float) * p
        d = kp[t.i1]
        d += kp[t.i2]
        d += kp[t.i3]
        d -= t.k * p[t.out]
        hit = (key, t.base + d)
        hit[1].flags.writeable = False
    _DENOMINATORS[f.K] = hit
    return hit[1]


def _quotient_plan(f: FourierField, cutoff: int, case: str | None) -> tuple:
    """(i1, i2, i3, out, k, denom) of the kept triples; cached only once checked."""
    K = f.K
    key = (f.coeffs.tobytes(), cutoff)
    hit = _PLANS.pop((K, case), None)
    if hit is None or hit[0] != key:
        t = _triples(K)
        rows = np.flatnonzero((t.kmax > cutoff) & _case_mask(t.kmax, t.kmin, case))
        denom = _corrected_denominators(f)[rows]
        bad = np.flatnonzero(np.abs(denom) < DENOMINATOR_FLOOR)
        if bad.size:
            j = rows[bad[0]]
            triple = (int(t.i1[j]) - K, int(t.i2[j]) - K, int(t.i3[j]) - K)
            raise DenominatorError(
                f"corrected denominator {denom[bad[0]]:.3e} below floor at triple {triple}",
                triple=triple,
            )
        index = (col[rows].astype(np.intp) for col in (t.i1, t.i2, t.i3, t.out))
        hit = (key, (*index, t.k[rows], denom))
    _PLANS[K, case] = hit
    return hit[1]


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
    DENOMINATOR_FLOOR raises DenominatorError naming the triple. The kept
    triples and their denominators are prepared once per (f, cutoff, case).
    """
    K = _require_same_K(v1, v2, v3, f)
    n = 2 * K + 1
    i1, i2, i3, out_idx, tk, denom = _quotient_plan(f, cutoff, case)
    terms = tk * v1.coeffs[i1] * v2.coeffs[i2] * v3.coeffs[i3] / denom
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
    kmax = _triples(f.K).kmax
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
