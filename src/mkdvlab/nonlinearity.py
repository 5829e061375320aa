"""Cubic mode interactions for the renormalized dispersive flow.

The evolution splits, mode by mode, into a resonant diagonal part
i k |u_hat(k)|^2 u_hat(k) and a nonresonant triple sum

    NR(v1, v2, v3)(k) = -(i k / 3) * sum v1_hat(k1) v2_hat(k2) v3_hat(k3),

taken over k1 + k2 + k3 = k with k != 0, every kj != 0, and
(k1+k2)(k2+k3)(k3+k1) != 0. Under the convolution constraint the last
condition is equivalent to kj != k for all j, which is how the code tests
it. Every run evaluates it as a padded-FFT convolution with boundary
corrections, by one of two routes: the cube NR(u, u, u) of one field marked
real_symmetric by real transforms of its half spectrum, every other call by
complex transforms of the full mode vectors. `nr_trilinear_naive`, a direct
sum over the triple table, is kept only as the independent oracle the test
suite checks both routes against, to rounding.

One private kernel, _cube_modes, gives the modes of u^3 for a real field u
from its half spectrum; the real NR route and direct_nonlinearity, the
stage of the ETD oracle, both go through it.

Everything here treats fields as plain mode vectors; no physical-space
state is retained between calls.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import DenominatorError, FieldError, GridMismatchError
from .spectral import (
    REAL_SYMMETRY_TOL,
    FourierField,
    Trajectory,
    _cached,
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
    "resonant_term",
    "direct_nonlinearity",
    "trilinear_quotient_form",
    "select_frequency_cutoff",
    "conserved_functionals",
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
# time, so no (2K+1)^3 array exists, and cached for the latest K only; never
# modified. The index and size columns are int16, enough for K <= 127, where
# (2K+1)^3 <= 2^24; base is int32, exact since |base| <= 3 (2K)^3 < 2^31
# there. k is not stored: it is out - K. That is 16 bytes per row.


class _Triples(NamedTuple):
    i1: np.ndarray  # indices of k1, k2, k3 and k in -K..K
    i2: np.ndarray
    i3: np.ndarray
    out: np.ndarray
    base: np.ndarray  # -3 (k1+k2)(k2+k3)(k3+k1)
    kmax: np.ndarray  # max |kj|
    kmin: np.ndarray  # min |kj|


# The derived tables of the quotient form hold one cutoff each: the slot of
# _TRIPLES and _DENOMINATORS is None and their stamp names K, so a table of
# a new K replaces the last one instead of joining it.
_TRIPLES: dict[None, tuple[int, _Triples]] = {}

# Ceiling on (2K + 1)^3, that is K <= 127. The table takes about 10 bytes per
# (2K + 1)^3 entry (22 MB at K = 64, 173 MB at K = 127), and a naive NR call
# adds only one block of temporaries and the (2K + 1)^2 pair table.
MAX_TRIPLES = 2**24


def _triples(K: int) -> _Triples:
    if (2 * K + 1) ** 3 > MAX_TRIPLES:
        raise FieldError(f"the triple table needs K <= 127, got {K}")
    return _cached(_TRIPLES, None, K, lambda: _triple_table(K))


def _triple_table(K: int) -> _Triples:
    ks = np.arange(-K, K + 1)
    k2, k3 = ks[:, None], ks[None, :]

    def admissible(k1):
        k = k1 + k2 + k3
        prod = (k1 + k2) * (k2 + k3) * (k3 + k1)
        return k, prod, (np.abs(k) <= K) & (k != 0) & (prod != 0)

    # a counting pass first, so each column is allocated once at full size
    ends = np.cumsum([np.count_nonzero(admissible(k1)[2]) for k1 in ks])
    dtypes = [np.int32 if c == "base" else np.int16 for c in _Triples._fields]
    table = _Triples(*(np.empty(ends[-1], d) for d in dtypes))
    for i1, k1 in enumerate(ks):
        k, prod, valid = admissible(k1)
        j2, j3 = np.nonzero(valid)
        absk = np.abs(np.stack([np.full(j2.size, k1), ks[j2], ks[j3]]))
        piece = (i1, j2, j3, k[valid] + K, -3 * prod[valid])
        rows = slice(ends[i1] - j2.size, ends[i1])
        for col, values in zip(table, (*piece, absk.max(axis=0), absk.min(axis=0))):
            col[rows] = values
    return table


# The table routes walk their rows in blocks of this many, so that their
# temporaries, a few arrays of one block each, stay in cache.
_TABLE_BLOCK = 2**14


def _block_sums(n: int, size: int, block) -> np.ndarray:
    """Sum of the terms of rows 0..size-1 into n output modes, one block at a time.

    block(rows) returns (output index, real part, imaginary part) of the
    terms of a slice of rows. np.add.at adds in row order from +0.0, as
    bincount does, so the blocks leave every sum as one pass over all rows
    would.
    """
    re, im = np.zeros(n), np.zeros(n)
    for start in range(0, size, _TABLE_BLOCK):
        out, terms_re, terms_im = block(slice(start, start + _TABLE_BLOCK))
        np.add.at(re, out, terms_re)
        np.add.at(im, out, terms_im)
    return re + 1j * im


def _nr_array(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray) -> np.ndarray:
    """NR of the rows of three (..., 2K+1) mode arrays of one shape.

    Every row at once: the full convolution of the zero-mode-stripped
    inputs on a grid of 4K + 4 points, alias-free for outputs |k| <= K,
    minus the kj = k boundary terms in closed form (each carries a paired
    sum over opposite modes; the three pairwise overlaps are added back
    once).

    When one array is passed three times, as the cube NR(w, w, w) of the
    Picard right side is, it is copied, transformed and its paired sum
    formed once, and each is reused for all three inputs. Every product is
    still taken in the order of the three-input expression, so the result
    is bit-identical to passing three equal copies.
    """
    if not c1.shape == c2.shape == c3.shape:
        raise GridMismatchError(f"mode arrays differ in shape: {c1.shape}, {c2.shape}, {c3.shape}")
    K = c1.shape[-1] // 2
    cube = c1 is c2 is c3
    a1, a2, a3 = [_stripped(c1)] * 3 if cube else (_stripped(c) for c in (c1, c2, c3))
    N = 4 * K + 4

    # mode k sits at grid index k mod N: 0..K at the front, -K..-1 at the back
    def grid_values(c: np.ndarray) -> np.ndarray:
        buf = np.zeros((*c.shape[:-1], N), dtype=complex)
        buf[..., : K + 1] = c[..., K:]
        buf[..., N - K :] = c[..., :K]
        return np.fft.ifft(buf) * N

    g1, g2, g3 = [grid_values(a1)] * 3 if cube else (grid_values(a) for a in (a1, a2, a3))
    full_hat = np.fft.fft(g1 * g2 * g3) / N
    conv = np.concatenate((full_hat[..., N - K :], full_hat[..., : K + 1]), axis=-1)

    r1, r2, r3 = a1[..., ::-1], a2[..., ::-1], a3[..., ::-1]
    p23 = np.sum(a2 * r3, axis=-1, keepdims=True)
    if cube:
        p13 = p12 = p23
    else:
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


def _stripped(c: np.ndarray) -> np.ndarray:
    """A complex copy of a mode array with its k = 0 entries zeroed."""
    a = np.array(c, dtype=complex)
    a[..., a.shape[-1] // 2] = 0.0
    return a


def nr_trilinear_naive(
    v1: FourierField, v2: FourierField, v3: FourierField
) -> FourierField:
    """Nonresonant trilinear term by direct summation over the triple table.

    The independent oracle of the fast route, used only by the tests.
    """
    K = _require_same_K(v1, v2, v3)
    n = 2 * K + 1
    t = _triples(K)
    pair = (_stripped(v1.coeffs)[:, None] * _stripped(v2.coeffs)[None, :]).ravel()
    b3 = _stripped(v3.coeffs)

    def block(rows: slice) -> tuple:
        pair_index = t.i1[rows].astype(np.intp) * n + t.i2[rows]
        prods = pair[pair_index] * b3[t.i3[rows]]
        return t.out[rows], prods.real, prods.imag

    sums = _block_sums(n, t.out.size, block)
    return FourierField((-1j / 3.0) * np.arange(-K, K + 1) * sums)


@cache
def _alias_free_length(K: int) -> int:
    """Smallest 5-smooth N >= 4K + 1, the transform length of _cube_modes.

    u^3 has modes |m| <= 3K, so an alias m = k + jN (j != 0) of an output
    mode |k| <= K needs N <= 4K; N = 4K + 1 is the first alias-free length.
    Lengths whose only prime factors are 2, 3 and 5 are the fast ones; N is
    such a length iff it divides 30^e, e its bit length, which bounds every
    exponent of N.
    """
    N = 4 * K + 1
    while pow(30, N.bit_length(), N):
        N += 1
    return N


def _cube_modes(half: np.ndarray) -> np.ndarray:
    """Modes k = 1..K of u^3 for the real field u with modes 0..K `half`.

    One irfft of half on _alias_free_length(K) points, the cube of the
    samples, one rfft; both transforms take norm="forward", so no separate
    scaling pass is made. The imaginary part of half[0] is ignored, as the
    real field has a real mean.
    """
    K = half.size - 1
    n = _alias_free_length(K)
    samples = np.fft.irfft(half, n, norm="forward")
    return np.fft.rfft(samples * samples * samples, norm="forward")[1 : K + 1]


def _nr_real_cube(c: np.ndarray) -> np.ndarray:
    """Modes 1..K of NR(u, u, u) for the real field u with mode vector c.

    a is u with a_0 stripped. The convolution is (a^3)^ by _cube_modes, and
    for one real input the boundary terms of _nr_array reduce to
    3 (p - |a_k|^2) a_k: each paired sum is p = sum_j a_j a_{-j}
    = 2 sum_{k>=1} |a_k|^2, and each triple product is a_k |a_k|^2.
    """
    K = c.size // 2
    a = c[K:].copy()
    a[0] = 0.0
    positive = a[1:]
    power = positive.real**2 + positive.imag**2
    p = 2.0 * np.sum(power)
    conv = _cube_modes(a)
    return (-1j / 3.0) * np.arange(1, K + 1) * (conv - 3.0 * (p - power) * positive)


def _nr_field(v1: FourierField, v2: FourierField, v3: FourierField) -> FourierField:
    """NR(v1, v2, v3): by real transforms for one real field passed three times.

    The field counts as real when it is marked real_symmetric or, unmarked,
    is exactly conjugate-symmetric, so the route never depends on the mark
    alone. Every other call takes the complex route of _nr_array, bit for
    bit.
    """
    if v1 is v2 is v3 and (v1.real_symmetric or check_real_symmetry(v1) == 0.0):
        return _mirrored_field(0.0, _nr_real_cube(v1.coeffs))
    return FourierField(_nr_array(v1.coeffs, v2.coeffs, v3.coeffs))


def nr_trilinear_fast(
    v1: FourierField, v2: FourierField, v3: FourierField
) -> FourierField:
    """Nonresonant trilinear term; the same as nr_trilinear.

    Kept as a separate public name only because bench/tracer.py wraps it
    by name, until the benchmark's instruments move into the package.
    """
    return _nr_field(v1, v2, v3)


def nr_trilinear(v1: FourierField, v2: FourierField, v3: FourierField) -> FourierField:
    """Nonresonant trilinear term via a padded cyclic convolution with boundary corrections."""
    return _nr_field(v1, v2, v3)


def nr_framewise(
    t1: Trajectory,
    t2: Trajectory | None = None,
    t3: Trajectory | None = None,
) -> Trajectory:
    """Apply the nonresonant term frame by frame along trajectories, in one array call."""
    t2 = t1 if t2 is None else t2
    t3 = t1 if t3 is None else t3
    if t1.grid != t2.grid or t1.grid != t3.grid:
        raise GridMismatchError("trajectories live on different grids")
    return Trajectory(t1.grid, _nr_array(t1.coeffs, t2.coeffs, t3.coeffs))


def resonant_term(v: FourierField) -> FourierField:
    """Diagonal cubic term i k |v_hat(k)|^2 v_hat(k)."""
    ks = v.wavenumbers
    return FourierField(1j * ks * np.abs(v.coeffs) ** 2 * v.coeffs)


def _samples_and_slope(coeffs: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """u and u_x on N points, from the half spectrum of a real field's mode vector."""
    half = half_spectrum(coeffs, N)
    samples = np.fft.irfft(half, N) * N
    slope = np.fft.irfft(half * 1j * np.arange(N // 2 + 1), N) * N
    return samples, slope


def direct_nonlinearity(u: FourierField) -> FourierField:
    """Mode vector of -(u^2 - c) u_x, c = mean(u^2), for a real field.

    Evaluated in conservative form, -(u^2 - c) u_x = -(u^3)_x / 3 + c u_x,
    so that two transforms suffice: _cube_modes takes u from its half
    spectrum on the smallest 5-smooth N >= 4K + 1 points, where u^3, of
    modes |m| <= 3K, is alias-free for |k| <= K. Mode k is then
    i k (c u_hat(k) - (u^3)_hat(k) / 3), and by Parseval
    c = |u_hat(0)|^2 + 2 sum_{k>=1} |u_hat(k)|^2, one dot product. The
    output is mirrored from modes 1..K, so it is conjugate-symmetric to the
    last bit, and its zero mode (the integrand is a total derivative) is
    exactly zero. A field marked real_symmetric passed the same check when
    it was built, so only unmarked fields are checked here.
    """
    if not u.real_symmetric and check_real_symmetry(u) > REAL_SYMMETRY_TOL:
        raise FieldError("direct nonlinearity is defined for real fields")
    K = u.K
    half = u.coeffs[K:]
    positive = half[1:]
    c = abs(half[0]) ** 2 + 2.0 * np.vdot(positive, positive).real
    out = c * positive - _cube_modes(half) / 3.0
    return _mirrored_field(0.0, 1j * np.arange(1, K + 1) * out)


def _case_mask(kmax: np.ndarray, kmin: np.ndarray, case: str | None) -> np.ndarray:
    if case is None:
        return np.ones(kmax.shape, dtype=bool)
    if case == "comparable":
        return kmax <= 2 * kmin
    if case == "separated":
        return kmax > 2 * kmin
    raise FieldError(f"unknown case {case!r}; expected 'comparable' or 'separated'")


# The latest (K, profile)'s denominators, and per case the quotient form's
# kept rows for the latest (K, profile, cutoff).
_DENOMINATORS: dict[None, tuple[tuple[int, bytes], np.ndarray]] = {}
_PLANS: dict[str | None, tuple[tuple[int, bytes, int], tuple]] = {}


def _corrected_denominators(f: FourierField) -> np.ndarray:
    """-3 (k1+k2)(k2+k3)(k3+k1) plus the profile correction of f, per triple."""

    def build() -> np.ndarray:
        t = _triples(f.K)
        p = np.abs(f.coeffs) ** 2
        kp = f.wavenumbers.astype(float) * p
        d = kp[t.i1]
        d += kp[t.i2]
        d += kp[t.i3]
        d -= kp[t.out]  # k p(k), with k = out - K
        return t.base + d

    return _cached(_DENOMINATORS, None, (f.K, f.coeffs.tobytes()), build)


def _quotient_plan(f: FourierField, cutoff: int, case: str | None) -> tuple:
    """(pair, i2, i3, out, scale) of the kept triples; cached only once checked.

    pair = out * (2K+1) + i1 indexes the (k, k1) table of k * v1_hat(k1)
    that trilinear_quotient_form builds per call, and scale = 1 / denom is
    the reciprocal of the corrected denominator, taken after the floor check.
    """
    K = f.K

    def build() -> tuple:
        t = _triples(K)
        kept = (t.kmax > cutoff) & _case_mask(t.kmax, t.kmin, case)
        denom = _corrected_denominators(f)[kept]
        bad = np.flatnonzero(np.abs(denom) < DENOMINATOR_FLOOR)
        if bad.size:
            j = np.flatnonzero(kept)[bad[0]]
            triple = (int(t.i1[j]) - K, int(t.i2[j]) - K, int(t.i3[j]) - K)
            raise DenominatorError(
                f"corrected denominator {denom[bad[0]]:.3e} below floor at triple {triple}",
                triple=triple,
            )
        i2, i3, out = (col[kept].astype(np.intp) for col in (t.i2, t.i3, t.out))
        pair = out * (2 * K + 1)
        pair += t.i1[kept]
        return pair, i2, i3, out, np.divide(1.0, denom, out=denom)

    return _cached(_PLANS, case, (K, f.coeffs.tobytes(), cutoff), build)


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
    triples and the reciprocals of their denominators are prepared once per
    (f, cutoff, case) and kept until another K, profile or cutoff asks for
    that case.

    Each call builds the (2K+1)^2 table of k * v1_hat(k1) over (k, k1) and
    walks the kept triples by _block_sums: per block, one gather of that
    table and of each other input, their product, and its real and
    imaginary parts times the reciprocal denominator. For finite inputs
    the result is bit-identical to dividing each product by its
    denominator: numpy divides by (d, 0) as
    ((re + im (0/d)) (1/d), (im - re (0/d)) (1/d)), which differs from
    re (1/d), im (1/d) only in the sign of an exact-zero term, and a sum
    that starts at +0.0 absorbs that sign.
    """
    K = _require_same_K(v1, v2, v3, f)
    n = 2 * K + 1
    pair, i2, i3, out_idx, scale = _quotient_plan(f, cutoff, case)
    kv1 = (np.arange(-K, K + 1)[:, None] * v1.coeffs[None, :]).ravel()

    def block(rows: slice) -> tuple:
        terms = kv1[pair[rows]] * v2.coeffs[i2[rows]] * v3.coeffs[i3[rows]]
        return out_idx[rows], terms.real * scale[rows], terms.imag * scale[rows]

    return FourierField(_block_sums(n, pair.size, block))


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
    samples, slope = _samples_and_slope(u.coeffs, N)
    quartic = (samples * samples) * (samples * samples)
    energy = float(np.mean(0.5 * (slope * slope) - quartic / 12.0))
    return mass, l2, energy
