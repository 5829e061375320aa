"""Cubic mode interactions for the renormalized dispersive flow.

The evolution splits, mode by mode, into a resonant diagonal part
i k |u_hat(k)|^2 u_hat(k) and a nonresonant triple sum

    NR(v1, v2, v3)(k) = -(i k / 3) * sum v1_hat(k1) v2_hat(k2) v3_hat(k3),

taken over k1 + k2 + k3 = k with k != 0, every kj != 0, and
(k1+k2)(k2+k3)(k3+k1) != 0. Under the convolution constraint the last
condition is equivalent to kj != k for all j, which is how the code tests
it. NR is taken of real fields only, by one kernel on their k >= 0 half
spectra, _nr_modes: real transforms and closed-form boundary corrections.
`nr_trilinear_naive`, a direct sum over the triple table, is kept only as
the independent oracle the test suite checks it against, to rounding; the
tests keep a complex-transform route on full mode vectors as the oracle
for complex input.

_cube_modes gives the modes of u^3 for a real field u from its half
spectrum; the NR cube and direct_nonlinearity, the stage of the ETD oracle,
both go through it. Every public function here but nr_trilinear_naive and
resonant_term raises FieldError for input that fails spectral's realness
verdict; a marked field is not checked again.

Everything here treats fields as plain mode vectors; no physical-space
state is retained between calls.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import DenominatorError, FieldError, GridMismatchError
from .spectral import (
    FourierField,
    Trajectory,
    _mark,
    _mirrored_field,
    _require_real,
    half_spectrum,
    mirrored,
)

__all__ = [
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

def _require_same_K(*fields: FourierField | Trajectory) -> int:
    K = fields[0].K
    for g in fields[1:]:
        if g.K != K:
            raise GridMismatchError(f"mode cutoffs differ: {K} vs {g.K}")
    return K


# ---------------------------------------------------------------------------
# One triple table serves the naive NR sum and the quotient form: every
# (k1, k2, k3) with |kj| <= K, k = k1 + k2 + k3 in 1..K and a nonzero kernel
# product (k1+k2)(k2+k3)(k3+k1), zero input modes included, in ascending
# order; the triples of k <= -1 are their negations, at indices 2K - i. The
# NR sum zeroes the k = 0 entry of its inputs, so the triples with a zero
# input add exact zeros to it. For k1 + k2 != 0, k3 runs over the bounds
# max(-K, 1 - k1 - k2)..min(K, K - k1 - k2) less the kernel's roots -k2 and
# -k1; the bounds size each column, filled one k1 slice at a time by each run
# that needs it (once, and passed down). The index and size columns are
# int16, enough for K <= 127, where (2K+1)^3 <= 2^24; base is int32, exact
# since |base| <= 3 (2K)^3 < 2^31 there. k = out - K. 16 bytes per row.


class _Triples(NamedTuple):
    K: int  # the cutoff the table was built for
    i1: np.ndarray  # indices of k1, k2, k3 and k in -K..K
    i2: np.ndarray
    i3: np.ndarray
    out: np.ndarray
    base: np.ndarray  # -3 (k1+k2)(k2+k3)(k3+k1)
    kmax: np.ndarray  # max |kj|
    kmin: np.ndarray  # min |kj|


# Ceiling on (2K + 1)^3, that is K <= 127. The table takes about 5 bytes per
# (2K + 1)^3 entry (11 MB at K = 64, 86 MB at K = 127); its build adds one k1
# slice of temporaries, a plan build or a naive NR call one block of rows.
MAX_TRIPLES = 2**24


def _triple_table(K: int) -> _Triples:
    if (2 * K + 1) ** 3 > MAX_TRIPLES:
        raise FieldError(f"the triple table needs K <= 127, got {K}")
    ks = np.arange(-K, K + 1)
    k1, k2 = ks[:, None], ks[None, :]
    s = k1 + k2
    lo, hi = np.maximum(-K, 1 - s), np.minimum(K, K - s)
    span = np.where(s != 0, np.maximum(hi - lo + 1, 0), 0)  # k3 = lo..hi per (k1, k2)
    roots = ((lo <= -k2) & (-k2 <= hi)).astype(int) + ((lo <= -k1) & (-k1 <= hi) & (k1 != k2))
    ends = np.cumsum(np.sum(span - roots * (s != 0), axis=1))
    dtypes = [np.int32 if c == "base" else np.int16 for c in _Triples._fields[1:]]
    columns = [np.empty(ends[-1], d) for d in dtypes]
    for i1, k1 in enumerate(ks):
        n = span[i1]  # the (k1, k2) pairs' ranges of k3 laid end to end, lo first
        k2, k3 = np.repeat(ks, n), np.arange(n.sum()) + np.repeat(lo[i1] - np.cumsum(n) + n, n)
        kept = (k3 != -k2) & (k3 != -k1)
        k2, k3 = k2[kept], k3[kept]
        absk = np.abs([np.full(k2.size, k1), k2, k3])
        base = -3 * (k1 + k2) * (k2 + k3) * (k3 + k1)
        piece = (i1, k2 + K, k3 + K, k1 + k2 + k3 + K, base, absk.max(axis=0), absk.min(axis=0))
        for col, values in zip(columns, piece):
            col[ends[i1] - k2.size : ends[i1]] = values
    return _Triples(K, *columns)


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


def nr_trilinear_naive(
    v1: FourierField, v2: FourierField, v3: FourierField
) -> FourierField:
    """Nonresonant trilinear term by direct summation over the triple table.

    The independent oracle of the real kernel, used only by the tests; it
    takes complex fields as well. The table's rows give the modes k >= 1,
    and the same walk over the reversed inputs, reversed, the modes k <= -1.
    """
    K = _require_same_K(v1, v2, v3)
    n = 2 * K + 1
    t = _triple_table(K)
    stripped = np.array([v1.coeffs, v2.coeffs, v3.coeffs])
    stripped[:, K] = 0.0

    def table_sums(b1, b2, b3) -> np.ndarray:
        pair = (b1[:, None] * b2[None, :]).ravel()
        # intp copies of the narrow table columns, as in trilinear_quotient_form
        def block(rows: slice) -> tuple:
            pair_index = t.i1[rows].astype(np.intp) * n + t.i2[rows]
            prods = pair[pair_index] * b3[t.i3[rows].astype(np.intp)]
            return t.out[rows].astype(np.intp), prods.real, prods.imag
        return _block_sums(n, t.out.size, block)

    sums = table_sums(*stripped) + table_sums(*stripped[:, ::-1])[::-1]
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
    """Modes k = 1..K of u^3 for each real field u with modes 0..K in a row of half.

    One irfft of half on _alias_free_length(K) points, the cube of the
    samples, one rfft; both transforms take norm="forward", so no separate
    scaling pass is made. The imaginary part of each half[..., 0] is
    ignored, as a real field has a real mean.
    """
    K = half.shape[-1] - 1
    n = _alias_free_length(K)
    samples = np.fft.irfft(half, n, norm="forward")
    return np.fft.rfft(samples * samples * samples, norm="forward")[..., 1 : K + 1]


def _nr_modes(u1, u2, u3) -> np.ndarray:
    """Modes 1..K of NR for three real fields, or trajectories, of one shape.

    FieldError unless each passes the realness verdict (a marked one is not
    checked again). Only columns k >= 0 are read: the halves a_i, stripped
    of a_i(0), are convolved by their irffts on _alias_free_length(K) points
    and one rfft; the kj = k triples are subtracted as each a_i times
    p_jl = 2 Re sum_{k>=1} a_j conj(a_l) of the other two, less the pairwise
    overlaps. Equal halves are the cube, by _cube_modes and its own boundary
    order 3 (p - |a_k|^2) a_k, so the result depends on the values only.
    """
    for u in (u1,) if u1 is u2 is u3 else (u1, u2, u3):
        _require_real(u, "the nonresonant term is defined for real fields")
    K = u1.coeffs.shape[-1] // 2
    half = u1.coeffs[..., K:]
    if u1 is u2 is u3 or all(np.array_equal(u.coeffs[..., K:], half) for u in (u2, u3)):
        a = half.copy()
        a[..., 0] = 0.0
        positive = a[..., 1:]
        power = positive.real**2 + positive.imag**2
        p = 2.0 * power.sum(axis=-1, keepdims=True)
        conv, boundary = _cube_modes(a), 3.0 * (p - power) * positive
    else:
        a = np.stack([half, u2.coeffs[..., K:], u3.coeffs[..., K:]])
        a[..., 0] = 0.0
        s1, s2, s3 = np.fft.irfft(a, _alias_free_length(K), norm="forward")
        conv = np.fft.rfft(s1 * s2 * s3, norm="forward")[..., 1 : K + 1]
        (a1, a2, a3), (r1, r2, r3) = a[..., 1:], np.conj(a[..., 1:])
        pairs = (np.stack([a2, a1, a1]) * np.stack([r3, r3, r2])).real
        p23, p13, p12 = 2.0 * pairs.sum(axis=-1, keepdims=True)
        triples = a1 * a2 * r3 + a1 * r2 * a3 + r1 * a2 * a3
        boundary = p23 * a1 + p13 * a2 + p12 * a3 - triples
    return (-1j / 3.0) * np.arange(1, K + 1) * (conv - boundary)


def nr_trilinear_fast(
    v1: FourierField, v2: FourierField, v3: FourierField
) -> FourierField:
    """Nonresonant trilinear term; the same as nr_trilinear.

    Kept as a separate public name only because bench/tracer.py wraps it
    by name, until the benchmark's instruments move into the package.
    """
    return nr_trilinear(v1, v2, v3)


def nr_trilinear(v1: FourierField, v2: FourierField, v3: FourierField) -> FourierField:
    """Nonresonant trilinear term of three real fields, marked real_symmetric.

    Raises FieldError for a field that fails spectral's realness verdict.
    """
    _require_same_K(v1, v2, v3)
    return _mirrored_field(0.0, _nr_modes(v1, v2, v3))


def nr_framewise(
    t1: Trajectory,
    t2: Trajectory | None = None,
    t3: Trajectory | None = None,
) -> Trajectory:
    """The nonresonant term frame by frame along real trajectories, in one array call.

    t2 and t3 default to t1. Raises FieldError for a trajectory that fails
    spectral's realness verdict; a marked one is not checked again.
    """
    t2 = t1 if t2 is None else t2
    t3 = t1 if t3 is None else t3
    if t1.grid != t2.grid or t1.grid != t3.grid:
        raise GridMismatchError("trajectories live on different grids")
    return _mark(Trajectory(t1.grid, mirrored(0.0, _nr_modes(t1, t2, t3))))


def resonant_term(v: FourierField) -> FourierField:
    """Diagonal cubic term i k |v_hat(k)|^2 v_hat(k)."""
    ks = v.wavenumbers
    return FourierField(1j * ks * np.abs(v.coeffs) ** 2 * v.coeffs)


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
    exactly zero. The field must pass spectral's realness verdict, which
    only an unmarked field is checked against again.
    """
    _require_real(u, "direct nonlinearity is defined for real fields")
    K = u.K
    half = u.coeffs[K:]
    positive = half[1:]
    c = abs(half[0]) ** 2 + 2.0 * np.vdot(positive, positive).real
    out = c * positive - _cube_modes(half) / 3.0
    return _mirrored_field(0.0, 1j * np.arange(1, K + 1) * out)


def _corrected_denominators(kp: np.ndarray, t: _Triples, rows: slice) -> np.ndarray:
    """-3 (k1+k2)(k2+k3)(k3+k1) + kp(k1) + kp(k2) + kp(k3) - kp(k), kp = k |f_hat(k)|^2, per row."""
    # kp is gathered by intp copies of the int16 columns, which numpy takes twice as fast
    i1, i2, i3, out = (col[rows].astype(np.intp) for col in (t.i1, t.i2, t.i3, t.out))
    return kp[i1] + kp[i2] + kp[i3] - kp[out] + t.base[rows]


class _QuotientPlan(NamedTuple):
    """The kept triples of the quotient form for one (profile, cutoff, case); see _quotient_plan."""

    profile: FourierField
    cutoff: int
    case: str | None
    pair: np.ndarray
    i2: np.ndarray
    i3: np.ndarray
    out: np.ndarray
    scale: np.ndarray


def _quotient_plan(
    f: FourierField, cutoff: int, cases: tuple, table: _Triples | None = None
) -> list[_QuotientPlan]:
    """The plans of (f, cutoff, case) for the given cases, from table or a table of its own.

    A plan keeps the rows of kmax > cutoff in its case bin (all for case
    None): the table's int16 i2, i3 and out there; pair = out * (2K+1) + i1,
    int32 from K = 91 on, into the (k, k1) table of k * v1_hat(k1) that
    trilinear_quotient_form builds per call; and scale = 1 / denom, float64:
    18 bytes per kept triple. A counting pass sizes the plans, and one walk
    of the table by blocks computes each row's denominator once and fills
    them all. A denominator below DENOMINATOR_FLOOR in size raises
    DenominatorError at the first row in table order that one of them keeps.
    """
    K = f.K
    t = _triple_table(K) if table is None else table
    blocks = [slice(start, start + _TABLE_BLOCK) for start in range(0, t.out.size, _TABLE_BLOCK)]

    def kept(rows: slice) -> list[np.ndarray]:
        live, comparable = t.kmax[rows] > cutoff, t.kmax[rows] <= 2 * t.kmin[rows]
        bins = {None: live, "comparable": live & comparable, "separated": live & ~comparable}
        return [bins[case] for case in cases]

    sizes = sum((np.count_nonzero(kept(r), axis=1) for r in blocks), np.zeros(len(cases), int))
    plans = [_QuotientPlan(f, cutoff, case, np.empty(n, np.int32), *np.empty((3, n), np.int16),
                           np.empty(n)) for case, n in zip(cases, sizes)]
    kp, filled = f.wavenumbers * np.abs(f.coeffs) ** 2, [0] * len(cases)
    for rows in blocks:
        masks, denom = kept(rows), _corrected_denominators(kp, t, rows)
        bad = np.flatnonzero((np.abs(denom) < DENOMINATOR_FLOOR) & np.logical_or.reduce(masks))
        if bad.size:
            triple = tuple(int(col[rows.start + bad[0]]) - K for col in (t.i1, t.i2, t.i3))
            message = f"corrected denominator {denom[bad[0]]:.3e} below floor at triple {triple}"
            raise DenominatorError(message, triple=triple)
        for j, (plan, mask) in enumerate(zip(plans, masks)):
            at = slice(filled[j], filled[j] + np.count_nonzero(mask))
            filled[j] = at.stop
            i1, plan.i2[at], plan.i3[at], plan.out[at] = (col[rows][mask] for col in t[1:5])
            plan.pair[at] = plan.out[at] * np.int32(2 * K + 1) + i1
            plan.scale[at] = 1.0 / denom[mask]
    return plans


def trilinear_quotient_form(
    v1: FourierField,
    v2: FourierField,
    v3: FourierField,
    f: FourierField,
    cutoff: int = 0,
    case: str | None = None,
    *,
    plan: _QuotientPlan | None = None,
) -> FourierField:
    """Kernel-weighted trilinear sum of real fields with profile-corrected denominators.

    For each admissible triple the summand is

        k * v1_hat(k1) v2_hat(k2) v3_hat(k3) / (-3 (k1+k2)(k2+k3)(k3+k1) + E)

    with E the denominator correction of the profile f. Triples whose
    largest input frequency is <= cutoff are dropped, as are those outside
    the case bin (another case than None, "comparable" and "separated" raises
    FieldError). A corrected denominator smaller than DENOMINATOR_FLOOR
    raises DenominatorError naming the first such triple. The kept
    triples and the reciprocals of their denominators are the plan, which a
    caller of many forms on one (f, cutoff, case) builds once by
    _quotient_plan, else the call's own; a plan of another profile (by
    identity), cutoff or case raises GridMismatchError. k / D is even
    under negating the triple, so for real fields only the modes k >= 1 are
    summed; the result is their marked mirror.

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
    for u in (v1, v2, v3, f):
        _require_real(u, "the quotient form is defined for real fields")
    if plan is None:
        if case not in (None, "comparable", "separated"):
            raise FieldError(f"unknown case {case!r}; expected 'comparable' or 'separated'")
        (plan,) = _quotient_plan(f, cutoff, (case,))
    elif plan.profile is not f or plan.cutoff != cutoff or plan.case != case:
        raise GridMismatchError("the held plan belongs to another profile, cutoff or case")
    pair, i2, i3, out_idx, scale = plan[3:]
    kv1 = (np.arange(-K, K + 1)[:, None] * v1.coeffs[None, :]).ravel()

    # intp copies of each block's indices: numpy gathers and scatters by
    # narrower index arrays on a path about twice as slow
    def block(rows: slice) -> tuple:
        j, j2, j3, out = (col[rows].astype(np.intp) for col in (pair, i2, i3, out_idx))
        terms = kv1[j] * v2.coeffs[j2] * v3.coeffs[j3]
        return out, terms.real * scale[rows], terms.imag * scale[rows]

    return _mirrored_field(0.0, _block_sums(2 * K + 1, pair.size, block)[K + 1 :])


def select_frequency_cutoff(f: FourierField, *, table: _Triples | None = None) -> int:
    """Smallest safe truncation level for the quotient form around a real profile f.

    Scans the triple table of f's cutoff, the given one (GridMismatchError
    if it is another cutoff's) or one of its own, a block of rows at a
    time, and flags the triples where the corrected denominator fails
    |D| >= kmax / 2; returns the largest kmax among the flagged triples (0
    when the bound holds everywhere), so that dropping max |kj| <= cutoff
    removes every flagged interaction. The negated triples, of k <= -1,
    have the same |D|, bit for bit when f is exactly conjugate-symmetric.
    """
    _require_real(f, "the frequency cutoff is defined for real profiles")
    if table is None:
        table = _triple_table(f.K)
    elif table.K != f.K:
        raise GridMismatchError(f"mode cutoffs differ: {table.K} vs {f.K}")
    kmax, kp = table.kmax, f.wavenumbers * np.abs(f.coeffs) ** 2
    flagged = 0
    for start in range(0, kmax.size, _TABLE_BLOCK):
        rows = slice(start, start + _TABLE_BLOCK)
        bad = np.abs(_corrected_denominators(kp, table, rows)) < 0.5 * kmax[rows]
        flagged = max(flagged, int(kmax[rows][bad].max(initial=0)))
    return flagged


def _conserved(u: FourierField | Trajectory) -> np.ndarray:
    """(mean u_hat(0), squared l2 mass, energy) of each real frame of u, as (..., 3) rows.

    The energy mean(u_x^2 / 2 - u^4 / 12) is evaluated on 8 (K + 1) points,
    alias-free for the quartic term, by one transform pair for all frames.
    u must pass spectral's realness verdict; only an unmarked u is checked.
    """
    _require_real(u, "conserved functionals are defined for real fields")
    c, K = u.coeffs, u.K
    N = 8 * (K + 1)
    half = half_spectrum(c, N)
    samples = np.fft.irfft(half, N) * N
    slope = np.fft.irfft(half * 1j * np.arange(N // 2 + 1), N) * N
    quartic = (samples * samples) * (samples * samples)
    energy = np.mean(0.5 * (slope * slope) - quartic / 12.0, axis=-1)
    return np.stack((c[..., K].real, np.sum(np.abs(c) ** 2, axis=-1), energy), axis=-1)


def conserved_functionals(u: FourierField) -> tuple[float, float, float]:
    """(mean, squared l2 mass, energy) of a real field; see _conserved."""
    return tuple(_conserved(u).tolist())
