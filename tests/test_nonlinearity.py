"""Trilinear terms, quotient form, conserved functionals, kernel arithmetic."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    _nr_array,
    held_cutoff,
    held_plans,
    random_complex_field,
    random_real_field,
    resonance_identity_residual,
    to_real_samples,
    triple_table_oracle,
)
from mkdvlab import (
    REAL_SYMMETRY_TOL,
    DenominatorError,
    EnsembleSpec,
    FieldError,
    FourierField,
    GridMismatchError,
    GridSpec,
    Trajectory,
    check_real_symmetry,
    conserved_functionals,
    cosine_field,
    direct_nonlinearity,
    field_from_modes,
    half_spectrum,
    mirrored,
    nr_framewise,
    nr_trilinear,
    nr_trilinear_fast,
    nr_trilinear_naive,
    probe_quotient_form,
    resonant_term,
    select_frequency_cutoff,
    trilinear_quotient_form,
)
from mkdvlab import nonlinearity
from mkdvlab.nonlinearity import (
    _alias_free_length,
    _cube_modes,
    _nr_modes,
    _quotient_plans,
    _triple_blocks,
    _Triples,
)


def streamed_table(K: int) -> _Triples:
    """The blocks of _triple_blocks(K) laid end to end, as one block."""
    blocks = list(_triple_blocks(K))
    return _Triples(*(np.concatenate(cols) for cols in zip(*blocks)))


def complex_oracle(v1: FourierField, v2: FourierField, v3: FourierField) -> FourierField:
    """NR of three fields, complex ones too, by the complex-transform oracle of conftest."""
    return FourierField(_nr_array(v1.coeffs, v2.coeffs, v3.coeffs))


def nr_oracle(v1: FourierField, v2: FourierField, v3: FourierField) -> np.ndarray:
    """Nonresonant term written as four literal loops over the definition."""
    K = v1.K
    out = np.zeros(2 * K + 1, dtype=complex)
    for k in range(-K, K + 1):
        if k == 0:
            continue
        acc = 0.0 + 0.0j
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                k3 = k - k1 - k2
                if abs(k3) > K or 0 in (k1, k2, k3):
                    continue
                if (k1 + k2) * (k2 + k3) * (k3 + k1) == 0:
                    continue
                acc += v1.mode(k1) * v2.mode(k2) * v3.mode(k3)
        out[k + K] = (-1j * k / 3.0) * acc
    return out


def galilean_speed(f: FourierField) -> float:
    """Mean of the squared field, sum_k |f_hat(k)|^2: the c of -(u^2 - c) u_x."""
    return float(np.sum(np.abs(f.coeffs) ** 2))


def direct_oracle(u: FourierField) -> np.ndarray:
    """-(u^2 - c) u_x in non-conservative form, from u and u_x on 4K + 4 points.

    Three half-spectrum transforms (u, u_x and the product) with explicit
    scaling passes: an evaluation independent of the conservative form
    -(u^3)_x / 3 + c u_x that direct_nonlinearity uses.
    """
    K = u.K
    N = 4 * K + 4
    half = half_spectrum(u.coeffs, N)
    samples = np.fft.irfft(half, N) * N
    slope = np.fft.irfft(half * 1j * np.arange(N // 2 + 1), N) * N
    w = (samples**2 - galilean_speed(u)) * slope
    return mirrored(0.0, -np.fft.rfft(w)[1 : K + 1] / N)


def denominator_correction(f: FourierField, k1: int, k2: int, k3: int) -> float:
    """Mode-weighted profile shift k1 |f(k1)|^2 + k2 |f(k2)|^2 + k3 |f(k3)|^2 - k |f(k)|^2."""
    k = k1 + k2 + k3
    p = np.abs(f.coeffs) ** 2

    def at(j: int) -> float:
        return float(p[j + f.K]) if abs(j) <= f.K else 0.0

    return k1 * at(k1) + k2 * at(k2) + k3 * at(k3) - k * at(k)


def kernel_product_minimum(
    limit: int, k1_values: list[int] | None = None
) -> tuple[float, tuple[int, int, int]]:
    """Minimum of |(k1+k2)(k2+k3)(k3+k1)| / max |kj| over nonzero triples.

    Enumerates k1, k2, k3 with 0 < |kj| <= limit and nonzero kernel product
    (slice by slice in k1 to bound memory) and returns the minimum ratio
    with a witness triple. Restricting k1_values to nonzero values within
    the limit narrows the scan to those slices, which keeps spot checks at
    large limits affordable.
    """
    ks = np.concatenate([np.arange(-limit, 0), np.arange(1, limit + 1)])
    k1_iter = [int(k) for k in (ks if k1_values is None else k1_values)]
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


def quotient_oracle(
    v1: FourierField,
    v2: FourierField,
    v3: FourierField,
    f: FourierField,
    cutoff: int = 0,
    case: str | None = None,
) -> np.ndarray:
    """Weighted quotient form by literal loops; zero input modes allowed."""
    K = v1.K
    out = np.zeros(2 * K + 1, dtype=complex)
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            for k3 in range(-K, K + 1):
                k = k1 + k2 + k3
                if abs(k) > K or k == 0:
                    continue
                prod = (k1 + k2) * (k2 + k3) * (k3 + k1)
                if prod == 0:
                    continue
                kmax = max(abs(k1), abs(k2), abs(k3))
                kmin = min(abs(k1), abs(k2), abs(k3))
                if kmax <= cutoff:
                    continue
                if case == "comparable" and kmax > 2 * kmin:
                    continue
                if case == "separated" and kmax <= 2 * kmin:
                    continue
                corr = (
                    k1 * abs(f.mode(k1)) ** 2
                    + k2 * abs(f.mode(k2)) ** 2
                    + k3 * abs(f.mode(k3)) ** 2
                    - k * abs(f.mode(k)) ** 2
                )
                out[k + K] += (
                    k * v1.mode(k1) * v2.mode(k2) * v3.mode(k3) / (-3.0 * prod + corr)
                )
    return out


class TestNonresonantTerm:
    def test_cosine_frozen_values(self):
        out = nr_trilinear_naive(*[cosine_field(8)] * 3)
        # only (1,1,1) survives for k = 3; every triple for k = 1 hits a
        # vanishing kernel factor
        assert abs(out.mode(3) - (-0.125j)) < 1e-15
        assert abs(out.mode(-3) - 0.125j) < 1e-15
        assert out.mode(1) == 0.0
        assert out.mode(-1) == 0.0
        assert out.mode(0) == 0.0

    @pytest.mark.parametrize("K", [3, 5, 8])
    def test_naive_matches_loop_oracle(self, K):
        v1 = random_complex_field(K, seed=100 + K)
        v2 = random_complex_field(K, seed=200 + K)
        v3 = random_complex_field(K, seed=300 + K)
        out = nr_trilinear_naive(v1, v2, v3)
        assert np.max(np.abs(out.coeffs - nr_oracle(v1, v2, v3))) < 1e-12

    @pytest.mark.parametrize("K", [4, 8, 16])
    def test_fast_matches_naive(self, K):
        for seed in range(5):
            v1 = random_real_field(K, seed=3 * seed)
            v2 = random_real_field(K, seed=3 * seed + 1)
            v3 = random_real_field(K, seed=3 * seed + 2)
            a = nr_trilinear_fast(v1, v2, v3)
            b = nr_trilinear_naive(v1, v2, v3)
            scale = max(1.0, np.max(np.abs(b.coeffs)))
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * scale

    def test_dispatch(self):
        u = cosine_field(4)
        a = nr_trilinear(u, u, u)
        assert same_bits(a.coeffs, nr_trilinear_fast(u, u, u).coeffs)
        assert np.max(np.abs(a.coeffs - nr_trilinear_naive(u, u, u).coeffs)) < 1e-14

    def test_output_real_symmetric_data(self):
        u = random_real_field(8, seed=4)
        out = nr_trilinear_fast(u, u, u)
        assert check_real_symmetry(out) < 1e-13

    def test_mean_mode_pinned_to_zero(self):
        c = random_real_field(6, seed=9).coeffs.copy()
        c[6] = 0.7
        v = FourierField(c)
        assert nr_trilinear_fast(v, v, v).mode(0) == 0.0
        assert nr_trilinear_naive(v, v, v).mode(0) == 0.0
        assert _nr_array(c, c, c)[6] == 0.0

    def test_insensitive_to_mean_mode(self):
        u = random_real_field(6, seed=14)
        shifted = u.coeffs.copy()
        shifted[6] = 0.7  # k = 0 entry never enters the triple sum
        for nr in (nr_trilinear, nr_trilinear_naive):
            out_a = nr(u, u, u)
            out_b = nr(*[FourierField(shifted)] * 3)
            assert np.array_equal(out_a.coeffs, out_b.coeffs), nr.__name__

    def test_insensitive_to_mean_mode_on_both_routes(self):
        # the kernel's cube route and its route for distinct inputs, and the
        # complex oracle on an asymmetric field; the k = 0 entry enters none
        u = random_real_field(6, seed=14)
        w = random_real_field(6, seed=15)
        v = random_complex_field(6, seed=14)

        def moved(field):
            shifted = field.coeffs.copy()
            shifted[6] = 0.7
            return FourierField(shifted, real_symmetric=field.real_symmetric)

        for nr in (nr_trilinear, nr_trilinear_naive):
            for route, fields in (("cube", (u, u, u)), ("distinct", (u, w, u))):
                out_a = nr(*fields)
                out_b = nr(*(moved(x) for x in fields))
                assert np.array_equal(out_a.coeffs, out_b.coeffs), (nr.__name__, route)
        assert np.array_equal(_nr_array(*[v.coeffs] * 3), _nr_array(*[moved(v).coeffs] * 3))
        assert same_bits(nr_trilinear(u, u, u).coeffs, mirrored(0.0, _nr_modes(u, u, u)))
        assert same_bits(nr_trilinear(u, w, u).coeffs, mirrored(0.0, _nr_modes(u, w, u)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    @example(128, 7, 0.0)
    def test_real_route_matches_naive(self, K, seed, exponent):
        u = 10.0**exponent * random_real_field(K, seed)
        assert u.real_symmetric
        out = nr_trilinear(u, u, u).coeffs
        # the triple table stops at K = 127; at K = 128 the reference is the
        # complex route, which the tests above check against the naive sum
        if K <= 127:
            ref = nr_trilinear_naive(u, u, u).coeffs
        else:
            ref = _nr_array(u.coeffs, u.coeffs, u.coeffs)
        # every output mode is a sum of products of three inputs
        scale = np.sum(np.abs(u.coeffs)) ** 3
        assert np.max(np.abs(out - ref)) <= 1e-13 * scale
        assert check_real_symmetry(FourierField(out)) == 0.0
        assert out[K] == 0.0

    @pytest.mark.parametrize("K", [1, 2, 3, 7, 16, 43, 128, 1000])
    def test_alias_free_length_is_the_smallest_5_smooth_one(self, K):
        def smooth(n: int) -> bool:
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        N = _alias_free_length(K)
        assert N >= 4 * K + 1 and smooth(N)
        assert not any(smooth(n) for n in range(4 * K + 1, N))

    @pytest.mark.parametrize("K", [4, 16, 33])
    def test_cube_aliases_on_4K_points_only(self, K):
        # u^3 has modes |m| <= 3K: on N = 4K points mode -3K, the one triple
        # (-K, -K, -K), folds onto K, and nothing else folds onto |k| <= K
        def cube_on(n: int) -> np.ndarray:
            samples = np.fft.irfft(half, n) * n
            return np.fft.rfft(samples**3)[1 : K + 1] / n

        half = random_real_field(K, K, 0.0).coeffs[K:].copy()
        half[K] = 0.6 - 0.3j  # a top mode whose alias stands out of the rounding
        exact = cube_on(8 * K)
        size = np.max(np.abs(exact))
        assert np.max(np.abs(_cube_modes(half) - exact)) <= 1e-14 * size
        assert np.max(np.abs(cube_on(4 * K + 1) - exact)) <= 1e-14 * size
        error = cube_on(4 * K) - exact
        assert np.max(np.abs(error[:-1])) <= 1e-14 * size
        alias = np.conj(half[K]) ** 3
        assert abs(error[-1] - alias) <= 1e-14 * size

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(
            [
                (complex_oracle, random_complex_field),
                (nr_trilinear_naive, random_complex_field),
                (nr_trilinear, random_real_field),
            ]
        ),
    )
    def test_call_on_sum_equals_multilinear_expansion(self, K, seed, route):
        # the complex oracles on complex fields, the real kernel on real ones
        nr, draw = route
        a = draw(K, seed=[seed, 0])
        b = draw(K, seed=[seed, 1])
        w = FourierField(a.coeffs + b.coeffs)
        one = nr(w, w, w).coeffs
        eight = sum(
            nr(x, y, z).coeffs
            for x in (a, b)
            for y in (a, b)
            for z in (a, b)
        )
        # rounding is relative to the size of the summands, not of the sum
        l1 = np.sum(np.abs(a.coeffs)) + np.sum(np.abs(b.coeffs))
        assert np.max(np.abs(one - eight)) < 1e-14 * K * l1**3

    def test_framewise(self):
        grid = GridSpec(K=4, M=3, T=1.0)
        tr = Trajectory(grid, real_modes(4, 3, 5, 1.0))
        out = nr_framewise(tr)
        assert out.real_symmetric
        for m in range(3):
            ref = nr_trilinear_fast(tr.frame(m), tr.frame(m), tr.frame(m))
            assert np.max(np.abs(out.coeffs[m] - ref.coeffs)) == 0.0

    def test_complex_input_is_rejected(self):
        # the kernel reads only the columns k >= 0 of real fields
        u, v = random_real_field(4, 1), random_complex_field(4, 2)
        for fields in ((v, v, v), (u, v, u), (u, u, v)):
            with pytest.raises(FieldError):
                nr_trilinear(*fields)
            with pytest.raises(FieldError):
                nr_trilinear_fast(*fields)
        grid = GridSpec(K=4, M=3, T=1.0)
        complex_traj = Trajectory(grid, stacked_modes(4, 3, 6, 1.0))
        with pytest.raises(FieldError):
            nr_framewise(complex_traj)
        with pytest.raises(FieldError):
            nr_framewise(Trajectory(grid, real_modes(4, 3, 7, 1.0)), complex_traj)


def stacked_modes(K: int, M: int, seed: int, scale: float) -> np.ndarray:
    """(M, 2K+1) complex modes with a nonzero zero mode in every row."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((M, 2 * K + 1)) + 1j * rng.standard_normal((M, 2 * K + 1))
    c[:, K] = 1.0 + 2.0 * rng.random(M) + 1j
    return scale * c


def real_modes(K: int, M: int, seed, scale: float) -> np.ndarray:
    """(M, 2K+1) real modes, each row mirrored from the k >= 0 half of stacked_modes."""
    c = stacked_modes(K, M, seed, scale)
    return mirrored(c[:, K].real, c[:, K + 1 :])


def real_kernel(*cs: np.ndarray) -> np.ndarray:
    """_nr_modes of real (..., 2K+1) mode arrays, mirrored; they stand in for marked fields."""
    return mirrored(0.0, _nr_modes(*(SimpleNamespace(coeffs=c, real_symmetric=True) for c in cs)))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values and equal sign bits, so -0.0 and 0.0 count as different."""
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


class TestNRKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
        st.tuples(*[st.floats(min_value=-8.0, max_value=8.0)] * 3),
    )
    def test_stacked_equals_per_frame(self, K, M, seed, exponents):
        # on complex modes for the oracle, on real ones for the kernel
        for modes, nr in ((stacked_modes, _nr_array), (real_modes, real_kernel)):
            cs = [modes(K, M, [seed, j], 10.0**e) for j, e in enumerate(exponents)]
            copies = [c.copy() for c in cs]
            out = nr(*cs)
            for m in range(M):
                assert same_bits(out[m], nr(*(c[m] for c in cs))), (nr.__name__, m)
            # the zero modes are stripped from copies, never from the inputs
            assert all(np.array_equal(c, d) for c, d in zip(cs, copies))

    @staticmethod
    def check_cube(c: np.ndarray) -> None:
        """One array passed three times gives the bits of three equal copies.

        For the oracle on the complex modes c, and for the public functions
        on the real modes mirrored from the k >= 0 half of c.
        """
        kept = c.copy()
        cube = _nr_array(c, c, c)
        assert same_bits(cube, _nr_array(c, c.copy(), c.copy()))
        K = c.shape[-1] // 2
        r = mirrored(c[..., K].real, c[..., K + 1 :])
        cube = real_kernel(r, r, r)
        if c.ndim == 1:
            w = FourierField(r)
            copies = (FourierField(r.copy()), FourierField(r.copy()))
            wrapped, distinct = nr_trilinear(w, w, w), nr_trilinear(w, *copies)
        else:
            t = Trajectory(GridSpec(K, c.shape[0], 1.0), r)
            copies = (Trajectory(t.grid, r.copy()), Trajectory(t.grid, r.copy()))
            wrapped, distinct = nr_framewise(t), nr_framewise(t, *copies)
        assert same_bits(wrapped.coeffs, cube)
        assert same_bits(distinct.coeffs, cube)
        # the zero mode is stripped from the one copy, never from the input
        assert same_bits(c, kept)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.sampled_from([None, 2, 3, 8]),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_cube_equals_distinct_copies(self, K, M, seed, exponent):
        c = stacked_modes(K, M or 1, seed, 10.0**exponent)
        self.check_cube(c[0] if M is None else c)

    @pytest.mark.parametrize("K", [64, 128])
    @pytest.mark.parametrize("M, scale", [(None, 1e-8), (None, 1.0), (4, 1e8)])
    def test_cube_equals_distinct_copies_large_K(self, K, M, scale):
        c = stacked_modes(K, M or 1, K, scale)
        self.check_cube(c[0] if M is None else c)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=33),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=10_000),
        st.tuples(*[st.floats(min_value=-8.0, max_value=8.0)] * 3),
    )
    def test_distinct_real_inputs_match_naive(self, K, M, seed, exponents):
        # the kernel's route for three distinct real inputs, on stacked
        # frames with nonzero means, against the direct sum frame by frame
        grid = GridSpec(K=K, M=M, T=1.0)
        ts = [
            Trajectory(grid, real_modes(K, M, [seed, j], 10.0**e)) for j, e in enumerate(exponents)
        ]
        out = nr_framewise(*ts)
        assert out.real_symmetric and check_real_symmetry(out) == 0.0
        for m in range(M):
            frames = [t.frame(m) for t in ts]
            ref = nr_trilinear_naive(*frames).coeffs
            # every output mode is a sum of products of three inputs
            scale = math.prod(np.sum(np.abs(v.coeffs)) for v in frames)
            assert np.max(np.abs(out.coeffs[m] - ref)) <= 1e-13 * scale
            assert same_bits(out.coeffs[m], nr_trilinear(*frames).coeffs)

    @pytest.mark.parametrize("K", [4, 8, 16])
    def test_cube_matches_naive(self, K):
        c = stacked_modes(K, 3, K, 1.0)
        fast = _nr_array(c, c, c)
        naive = np.stack([nr_trilinear_naive(*[FourierField(row)] * 3).coeffs for row in c])
        assert np.max(np.abs(fast - naive)) < 1e-12 * max(1.0, np.max(np.abs(naive)))

    @pytest.mark.parametrize("K, M", [(4, 3), (8, 5), (16, 2)])
    def test_framewise_naive_matches_fast(self, K, M):
        grid = GridSpec(K=K, M=M, T=1.0)
        t1, t2, t3 = (Trajectory(grid, real_modes(K, M, 40 + j, 1.0)) for j in range(3))
        a = nr_framewise(t1, t2, t3).coeffs
        frames = [(t1.frame(m), t2.frame(m), t3.frame(m)) for m in range(M)]
        b = np.stack([nr_trilinear_naive(*frame).coeffs for frame in frames])
        scale = max(1.0, np.max(np.abs(b)))
        assert np.max(np.abs(a - b)) < 1e-12 * scale
        for m in range(M):
            assert same_bits(a[m], nr_trilinear(*frames[m]).coeffs)

    def test_mismatch_raises(self):
        a, b = stacked_modes(4, 3, 1, 1.0), stacked_modes(5, 3, 2, 1.0)
        with pytest.raises(GridMismatchError):
            _nr_array(a, a, b)
        with pytest.raises(GridMismatchError):
            _nr_array(a, a[:2], a)
        u, v = FourierField(a[0]), FourierField(b[0])
        with pytest.raises(GridMismatchError):
            nr_trilinear(u, v, u)
        with pytest.raises(GridMismatchError):
            nr_trilinear_fast(u, u, v)
        with pytest.raises(GridMismatchError):
            nr_trilinear_naive(v, u, u)
        tr = Trajectory(GridSpec(4, 3, 1.0), a)
        for other in (
            Trajectory(GridSpec(5, 3, 1.0), b),
            Trajectory(GridSpec(4, 2, 1.0), a[:2]),
            Trajectory(GridSpec(4, 3, 2.0), a),
        ):
            with pytest.raises(GridMismatchError):
                nr_framewise(tr, other)


class TestTripleTable:
    @pytest.mark.parametrize("K", range(1, 7))
    def test_matches_loop_enumeration(self, K):
        # the rows of the output modes k >= 1; those of k <= -1 are their negations
        rows = []
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                for k3 in range(-K, K + 1):
                    k = k1 + k2 + k3
                    prod = (k1 + k2) * (k2 + k3) * (k3 + k1)
                    if not 1 <= k <= K or prod == 0:
                        continue
                    a = (abs(k1), abs(k2), abs(k3))
                    rows.append((k1 + K, k2 + K, k3 + K, k + K, -3 * prod, max(a), min(a)))
        table = streamed_table(K)
        for j, name in enumerate(table._fields):
            assert getattr(table, name).tolist() == [row[j] for row in rows], name

    @pytest.mark.parametrize("K", [*range(7), 8, 16, 33, 64, 91, 127])
    def test_matches_mask_oracle(self, K):
        # the closed-form bounds give, block after block, the rows, their
        # order and dtypes of two mask passes per k1 slice, up to the K <= 127
        # ceiling
        table, oracle = streamed_table(K), triple_table_oracle(K)
        for name, col, ref in zip(table._fields, table, oracle):
            assert col.dtype == ref.dtype and np.array_equal(col, ref), name

    def test_build_memory_ceiling(self):
        # a walk of the K = 64 rows holds one block and its temporaries at a
        # time (1.4 MiB); the held table took 10.4 MiB, and a dense (2K+1)^3
        # enumeration peaks near 234 MB
        tracemalloc.start()
        try:
            rows = [block.out.size for block in _triple_blocks(64)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # blocks group whole k1 slices into about _TABLE_BLOCK rows each
        assert 1 < len(rows) <= sum(rows) // nonlinearity._TABLE_BLOCK + 1
        assert max(rows) < 2 * nonlinearity._TABLE_BLOCK
        assert peak <= 2 * 2**20

    def test_compact_columns(self):
        for block in _triple_blocks(64):
            assert sum(col.nbytes for col in block) <= 16 * block.out.size

    def test_naive_index_does_not_overflow(self):
        # i1 * (2K + 1) passes the int16 range from K = 91 on
        K = 91
        v1, v2, v3 = (random_real_field(K, seed=910 + j) for j in range(3))
        a = nr_trilinear_fast(v1, v2, v3)
        b = nr_trilinear_naive(v1, v2, v3)
        scale = max(1.0, np.max(np.abs(b.coeffs)))
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * scale

    def test_naive_walks_the_table_in_blocks(self):
        # bit-identical to two bincount passes over the whole table, its rows
        # for k >= 1 and its negated rows, at indices 2K - i, for k <= -1; and
        # one K = 64 call holds no table-length array (52.6 MiB with
        # table-length temporaries, 12.1 MiB with the held table; 2.4 MiB
        # walking the streamed rows)
        K = 16
        v1, v2, v3 = (random_complex_field(K, seed=160 + j) for j in range(3))
        t = triple_table_oracle(K)
        a1, a2, a3 = (np.where(np.arange(-K, K + 1) == 0, 0, v.coeffs) for v in (v1, v2, v3))
        n = 2 * K + 1
        sums = np.zeros(n, dtype=complex)
        rows = np.array([t.i1, t.i2, t.i3, t.out], dtype=np.intp)
        for i1, i2, i3, out in (rows, 2 * K - rows):
            prods = a1[i1] * a2[i2] * a3[i3]
            sums += np.bincount(out, prods.real, n) + 1j * np.bincount(out, prods.imag, n)
        expected = (-1j / 3.0) * np.arange(-K, K + 1) * sums
        assert np.array_equal(nr_trilinear_naive(v1, v2, v3).coeffs, expected)

        u = random_real_field(64, seed=640)
        tracemalloc.start()
        try:
            nr_trilinear_naive(u, u, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_size_guard(self):
        with pytest.raises(FieldError):
            next(_triple_blocks(128))
        u = cosine_field(128)
        with pytest.raises(FieldError):
            nr_trilinear_naive(u, u, u)
        with pytest.raises(FieldError, match="K <= 127"):
            select_frequency_cutoff(u)


class TestResonantAndDirect:
    def test_resonant_frozen_values(self):
        out = resonant_term(cosine_field(4))
        assert abs(out.mode(1) - 0.125j) < 1e-16
        v = field_from_modes(4, {2: 1j, -2: 1j})
        assert abs(resonant_term(v).mode(2) - (-2.0)) < 1e-15

    def test_direct_cosine_frozen_values(self):
        out = direct_nonlinearity(cosine_field(8))
        assert abs(out.mode(1) - 0.125j) < 1e-15
        assert abs(out.mode(3) - (-0.125j)) < 1e-15
        assert out.mode(0) == 0.0
        assert out.real_symmetric

    def test_direct_requires_real_field(self):
        c = np.zeros(5, dtype=complex)
        c[3] = 1.0
        with pytest.raises(FieldError):
            direct_nonlinearity(FourierField(c))

    def test_direct_accepts_asymmetry_up_to_the_tolerance(self):
        # |u_hat(-2) - conj(u_hat(2))| is exactly REAL_SYMMETRY_TOL, which passes
        c = np.zeros(5, dtype=complex)
        c[0] = REAL_SYMMETRY_TOL
        u = FourierField(c)
        assert check_real_symmetry(u) == REAL_SYMMETRY_TOL
        assert direct_nonlinearity(u).real_symmetric
        c[0] = 2 * REAL_SYMMETRY_TOL
        with pytest.raises(FieldError):
            direct_nonlinearity(FourierField(c))

    def test_direct_against_pointwise_product(self):
        # -(u^2 - mean u^2) u_x evaluated on a dense grid, then transformed
        u = random_real_field(6, seed=77)
        n = 128
        x = 2.0 * np.pi * np.arange(n) / n
        samples = to_real_samples(u, n)
        slope = np.zeros(n)
        for k in range(-6, 7):
            slope += np.real(1j * k * u.mode(k) * np.exp(1j * k * x))
        w = -(samples**2 - np.mean(samples**2)) * slope
        out = direct_nonlinearity(u)
        for k in range(-6, 7):
            ref = np.sum(w * np.exp(-1j * k * x)) / n
            assert abs(out.mode(k) - ref) < 1e-12

    @pytest.mark.parametrize("K", [8, 16])
    def test_decomposition_identity_mean_zero(self, K):
        for seed in range(10):
            u = random_real_field(K, seed=seed)
            direct = direct_nonlinearity(u)
            nr = nr_trilinear_fast(u, u, u)
            res = resonant_term(u)
            err = np.max(np.abs(direct.coeffs - nr.coeffs - res.coeffs))
            assert err < 1e-13

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    @example(128, 7, 0.0)
    def test_direct_matches_nonconservative_oracle(self, K, seed, exponent):
        u = 10.0**exponent * random_real_field(K, seed)
        out = direct_nonlinearity(u)
        ref = direct_oracle(u)
        assert np.max(np.abs(out.coeffs - ref)) <= 1e-13 * np.max(np.abs(out.coeffs))
        assert check_real_symmetry(out) == 0.0
        assert out.coeffs[K] == 0.0
        plain = FourierField(u.coeffs)
        assert u.real_symmetric and not plain.real_symmetric
        assert np.array_equal(out.coeffs, direct_nonlinearity(plain).coeffs)

    @pytest.mark.parametrize("K", [4, 16])
    def test_direct_counts_the_mean_in_c(self, K):
        # c = mean(u^2) includes |u_hat(0)|^2: a field of mean 0.7 against the oracle
        u = real_draw(K, seed=K)
        out = direct_nonlinearity(u)
        assert np.max(np.abs(out.coeffs - direct_oracle(u))) <= 1e-13 * np.max(np.abs(out.coeffs))

    def test_decomposition_fails_with_mean(self):
        # the identity needs a mean-zero field; a nonzero k = 0 mode breaks it
        u = random_real_field(8, seed=2)
        c = u.coeffs.copy()
        c[8] = 0.5
        shifted = FourierField(c, real_symmetric=True)
        direct = direct_nonlinearity(shifted)
        nr = nr_trilinear_fast(shifted, shifted, shifted)
        res = resonant_term(shifted)
        assert np.max(np.abs(direct.coeffs - nr.coeffs - res.coeffs)) > 1e-6

    def test_galilean_speed(self):
        # the squared l2 mass of the conserved functionals is the oracle's c
        assert abs(galilean_speed(cosine_field(4)) - 0.5) < 1e-15
        for u in (cosine_field(4), *(random_real_field(9, seed) for seed in range(5))):
            assert conserved_functionals(u)[1] == galilean_speed(u)


class TestDenominatorCorrection:
    def test_cosine_frozen_value(self):
        f = cosine_field(16)
        assert abs(denominator_correction(f, 1, 1, 1) - 0.75) < 1e-15
        assert abs(denominator_correction(f, 1, 2, 3) - 0.25) < 1e-15
        assert denominator_correction(f, 2, 3, 4) == 0.0

    def test_zero_profile(self):
        f = FourierField.zeros(8)
        assert denominator_correction(f, 3, -5, 11) == 0.0

    @given(
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=0, max_value=1000),
    )
    def test_antisymmetric_for_real_profiles(self, k1, k2, k3, seed):
        f = random_real_field(24, seed=seed)
        plus = denominator_correction(f, k1, k2, k3)
        minus = denominator_correction(f, -k1, -k2, -k3)
        assert abs(plus + minus) < 1e-13


QUOTIENT_CASES = (None, "comparable", "separated")


def masked_quotient_formula(
    vs: list[FourierField], f: FourierField, cutoff: int, case: str | None
) -> np.ndarray:
    """Modes 1..K of the quotient form: the straight formula over the table's columns, per call."""
    K = f.K
    t = triple_table_oracle(K)
    k = t.out - K
    masks = {
        None: np.ones(k.size, dtype=bool),
        "comparable": t.kmax <= 2 * t.kmin,
        "separated": t.kmax > 2 * t.kmin,
    }
    p = np.abs(f.coeffs) ** 2
    kp = np.arange(-K, K + 1) * p
    d = kp[t.i1]
    d += kp[t.i2]
    d += kp[t.i3]
    d -= k * p[t.out]
    denom = t.base + d
    keep = (t.kmax > cutoff) & masks[case]
    c1, c2, c3 = (v.coeffs for v in vs)
    terms = k[keep] * c1[t.i1[keep]] * c2[t.i2[keep]] * c3[t.i3[keep]]
    terms = terms / denom[keep]
    n = 2 * K + 1
    out = t.out[keep]
    sums = np.bincount(out, terms.real, n) + 1j * np.bincount(out, terms.imag, n)
    return sums[K + 1 :]


def plan_oracle(f: FourierField, cutoff: int, case: str | None, t) -> tuple:
    """(pair, i2, i3, out, scale) of one case by the per-case rule, on full-length masks of table t.

    Raises DenominatorError at the first kept row whose corrected
    denominator is smaller than DENOMINATOR_FLOOR in size.
    """
    K = f.K
    bins = {None: t.kmax >= 0, "comparable": t.kmax <= 2 * t.kmin, "separated": t.kmax > 2 * t.kmin}
    kept = (t.kmax > cutoff) & bins[case]
    kp = np.arange(-K, K + 1) * np.abs(f.coeffs) ** 2
    denom = kp[t.i1[kept]] + kp[t.i2[kept]] + kp[t.i3[kept]] - kp[t.out[kept]] + t.base[kept]
    bad = np.flatnonzero(np.abs(denom) < nonlinearity.DENOMINATOR_FLOOR)
    if bad.size:
        j = np.flatnonzero(kept)[bad[0]]
        triple = (int(t.i1[j]) - K, int(t.i2[j]) - K, int(t.i3[j]) - K)
        raise DenominatorError(
            f"corrected denominator {denom[bad[0]]:.3e} below floor at triple {triple}",
            triple=triple,
        )
    out = t.out[kept]
    pair = out.astype(np.int32) * np.int32(2 * K + 1) + t.i1[kept]
    return pair, t.i2[kept], t.i3[kept], out, 1.0 / denom


def build_outcome(build) -> tuple:
    """The bytes and dtypes of the (pair, i2, i3, out, scale) columns build() returns, or its DenominatorError."""
    try:
        columns = build()
    except DenominatorError as error:
        return error.triple, str(error)
    return tuple((col.dtype, col.tobytes()) for col in columns)


def assert_mirrors(out: FourierField, half: np.ndarray) -> None:
    """out is marked, its modes k >= 1 equal half and its modes k <= -1 are their conjugates."""
    K = out.K
    assert out.real_symmetric and out.mode(0) == 0.0
    assert np.array_equal(out.coeffs[K + 1 :], half)
    assert np.array_equal(out.coeffs[:K], np.conj(half[::-1]))


def real_draw(K: int, seed) -> FourierField:
    """A random real field with mean 0.7, so that the triples with a zero input mode count."""
    return random_real_field(K, seed) + field_from_modes(K, {0: 0.7})


def cutoff_oracle(f: FourierField) -> int:
    """select_frequency_cutoff by literal loops over every admissible triple, k <= -1 included."""
    K = f.K
    flagged = 0
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            for k3 in range(-K, K + 1):
                k = k1 + k2 + k3
                prod = (k1 + k2) * (k2 + k3) * (k3 + k1)
                if abs(k) > K or k == 0 or prod == 0:
                    continue
                kmax = max(abs(k1), abs(k2), abs(k3))
                if abs(-3.0 * prod + denominator_correction(f, k1, k2, k3)) < 0.5 * kmax:
                    flagged = max(flagged, kmax)
    return flagged


class TestQuotientForm:
    def test_single_mode_frozen_weight(self):
        v = field_from_modes(4, {1: 1.0}, symmetrize=True)
        f = FourierField.zeros(4)
        out = trilinear_quotient_form(v, v, v, f)
        # only (1,1,1) contributes: 3 / (-3 * 2 * 2 * 2) = -1/8, and (-1,-1,-1) its mirror
        assert abs(out.mode(3) - (-0.125)) < 1e-15
        assert out.mode(-3) == out.mode(3)
        assert trilinear_quotient_form(v, v, v, f, cutoff=1).mode(3) == 0.0

    @pytest.mark.parametrize("profile", ["zero", "cosine"])
    def test_matches_loop_oracle(self, profile):
        K = 5
        v1 = real_draw(K, seed=61)
        v2 = real_draw(K, seed=62)
        v3 = real_draw(K, seed=63)
        f = FourierField.zeros(K) if profile == "zero" else cosine_field(K)
        for cutoff in (0, 2):
            for case in (None, "comparable", "separated"):
                out = trilinear_quotient_form(v1, v2, v3, f, cutoff, case)
                ref = quotient_oracle(v1, v2, v3, f, cutoff, case)
                assert np.max(np.abs(out.coeffs - ref)) < 1e-12

    def test_zero_input_modes_contribute(self):
        # (0, 1, 1) is admissible here, unlike in the nonresonant sum
        v = field_from_modes(3, {0: 1.0, 1: 1.0}, symmetrize=True)
        f = FourierField.zeros(3)
        out = trilinear_quotient_form(v, v, v, f)
        assert np.max(np.abs(out.coeffs - quotient_oracle(v, v, v, f))) < 1e-13
        assert abs(out.mode(2)) > 0.1

    def test_case_bins_partition(self):
        K = 5
        v1 = real_draw(K, seed=71)
        v2 = real_draw(K, seed=72)
        v3 = real_draw(K, seed=73)
        f = cosine_field(K)
        both = trilinear_quotient_form(v1, v2, v3, f)
        comp = trilinear_quotient_form(v1, v2, v3, f, case="comparable")
        sep = trilinear_quotient_form(v1, v2, v3, f, case="separated")
        assert np.max(np.abs(comp.coeffs + sep.coeffs - both.coeffs)) < 1e-13
        with pytest.raises(FieldError):
            trilinear_quotient_form(v1, v2, v3, f, case="resonant")

    def test_denominator_error(self):
        # |f_hat(1)|^2 = 8 makes the corrected denominator vanish at (1,1,1)
        amp = math.sqrt(8.0)
        f = field_from_modes(4, {1: amp, -1: amp})
        v = cosine_field(4)
        with pytest.raises(DenominatorError) as info:
            trilinear_quotient_form(v, v, v, f)
        k1, k2, k3 = info.value.triple
        assert 1 <= k1 + k2 + k3 <= 4
        base = -3.0 * (k1 + k2) * (k2 + k3) * (k3 + k1)
        assert abs(base + denominator_correction(f, k1, k2, k3)) < 1e-9
        # every call checks: the bad profile raises every time, also after a
        # good profile at the same K
        for good in (None, cosine_field(4)):
            if good is not None:
                trilinear_quotient_form(v, v, v, good)
            with pytest.raises(DenominatorError) as again:
                trilinear_quotient_form(v, v, v, f)
            assert str(again.value) == str(info.value)
            assert again.value.triple == info.value.triple

    def test_floor_is_exclusive(self, monkeypatch):
        # only a corrected denominator smaller than the floor in size raises:
        # with a zero profile at K = 2 every kept denominator is +6 or -6
        f, v = FourierField.zeros(2), cosine_field(2)
        assert set(triple_table_oracle(2).base.tolist()) == {-6, 6}
        monkeypatch.setattr(nonlinearity, "DENOMINATOR_FLOOR", 6.0)
        trilinear_quotient_form(v, v, v, f)
        monkeypatch.setattr(nonlinearity, "DENOMINATOR_FLOOR", np.nextafter(6.0, 7.0))
        with pytest.raises(DenominatorError):
            trilinear_quotient_form(v, v, v, f)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_matches_masked_formula(self, K, seed):
        vs = [real_draw(K, seed=[seed, j]) for j in range(3)]
        # small profiles keep every corrected denominator away from zero
        profiles = [0.05 * random_real_field(K, [seed, j]) for j in (3, 4)]
        # alternate profiles and cutoffs, so a stale plan gives wrong values
        for _ in range(2):
            for cutoff in range(K + 1):
                for f in profiles:
                    for case in QUOTIENT_CASES:
                        out = trilinear_quotient_form(*vs, f, cutoff, case)
                        assert_mirrors(out, masked_quotient_formula(vs, f, cutoff, case))

    def test_matches_masked_formula_at_k64(self):
        # real draws at the probe700_k64 cutoff, where the separated plan
        # keeps about 0.5M triples, and at larger cutoffs up to K
        K = 64
        vs = [real_draw(K, [5, j]) for j in range(3)]
        f = random_real_field(K, 11)
        k0 = select_frequency_cutoff(f)
        for cutoff in (k0, 40, K):
            for case in QUOTIENT_CASES:
                out = trilinear_quotient_form(*vs, f, cutoff, case)
                assert_mirrors(out, masked_quotient_formula(vs, f, cutoff, case))

    def test_requires_real_fields(self):
        K = 4
        v, f = real_draw(K, 1), 0.05 * random_real_field(K, 2)
        bad = random_complex_field(K, seed=3)
        for args in ((bad, v, v, f), (v, bad, v, f), (v, v, bad, f), (v, v, v, bad)):
            with pytest.raises(FieldError, match="real fields"):
                trilinear_quotient_form(*args)
        with pytest.raises(FieldError, match="real profiles"):
            select_frequency_cutoff(bad)
        # a field that passes the verdict unmarked is accepted, with the marked field's result
        unmarked = [FourierField(u.coeffs) for u in (v, f)]
        out = trilinear_quotient_form(unmarked[0], v, v, unmarked[1])
        assert np.array_equal(out.coeffs, trilinear_quotient_form(v, v, v, f).coeffs)

    def test_probe_memory_ceiling(self):
        # one probe700 sample at K = 64 peaks at 14.8 MiB with the streamed
        # rows, at 23.9 MiB with the held table of the output modes k >= 1
        # only, and at 48.4 MiB with both halves;
        # with every cutoff's tables resident, and a plan's old arrays held
        # through its rebuild, the peak was 114.7 MiB, and with cached
        # full-table denominators and intp plan columns 87.6 MiB
        spec = EnsembleSpec(seed=1, count=1, K=64, decay_exponent=1.0)
        tracemalloc.start()
        try:
            probe_quotient_form(cosine_field(64), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_store_sizes(self):
        # the two case plans of a K = 64 profile, which keep disjoint rows,
        # hold 18 bytes per kept triple; their only float64 arrays are the
        # reciprocal denominators
        f = cosine_field(64)
        k0, plans = _quotient_plans(f, ("comparable", "separated"))
        kept = int(np.count_nonzero(triple_table_oracle(64).kmax > k0))
        held = [a for plan in plans for a in plan[3:]]
        assert kept and sum(a.nbytes for a in held) <= 18 * kept
        floats = [a for a in held if a.dtype == np.float64]
        assert [id(a) for a in floats] == [id(plan.scale) for plan in plans]

    @pytest.mark.parametrize(
        "K, amplitude, k0",
        [(64, None, 0), (16, 30.0, 11), (32, 30.0, 11), (91, 1.0, 0)],
    )
    def test_joint_plans_match_the_per_case_rule(self, K, amplitude, k0):
        # one walk for both cases gives each case's plan byte for byte, as
        # does a one-case build at the given cutoff, the library call's route
        f = cosine_field(K) if amplitude is None else amplitude * random_real_field(K, 11)
        table = triple_table_oracle(K)
        cases = ("comparable", "separated")
        cutoff, plans = _quotient_plans(f, cases)
        assert cutoff == select_frequency_cutoff(f) == k0
        for plan, case in zip(plans, cases):
            assert plan.profile is f and (plan.cutoff, plan.case) == (k0, case)
            assert build_outcome(lambda: plan[3:]) == build_outcome(
                lambda: plan_oracle(f, k0, case, table)
            )
        for case in QUOTIENT_CASES if K <= 32 else ():
            assert build_outcome(lambda: _quotient_plans(f, (case,), k0)[1][0][3:]) == (
                build_outcome(lambda: plan_oracle(f, k0, case, table))
            )

    @pytest.mark.parametrize(
        "K, amplitude, seed, k0",
        [(64, None, None, 0), (16, 30.0, 11, 11), (32, 30.0, 11, 11), (64, 30.0, 11, 11),
         (32, 30.0, 3, 6)],
    )
    def test_plans_match_the_held_table_route(self, K, amplitude, seed, k0):
        # the streamed build, which fills both plans at cutoff 0 and compacts
        # them to the cutoff it finds, gives the cutoff and the plans, dtypes
        # included, of a cutoff scan and a plan walk over the held table
        f = cosine_field(K) if amplitude is None else amplitude * random_real_field(K, seed)
        table, cases = triple_table_oracle(K), ("comparable", "separated")
        assert held_cutoff(f, table) == k0
        held = held_plans(f, k0, cases, table)
        for cutoff in (None, k0):
            found, plans = _quotient_plans(f, cases, cutoff)
            assert found == k0
            for plan, ref in zip(plans, held):
                assert plan[:3] == ref[:3] == (f, k0, ref.case)
                for col, expected in zip(plan[3:], ref[3:]):
                    assert col.dtype == expected.dtype and np.array_equal(col, expected)

    def test_denominator_error_names_the_first_kept_row(self):
        # |f_hat(1)|^2 = 8 zeroes the corrected denominator at the comparable
        # (1, 1, 1) and at the separated (-1, -1, 3), its permutations after
        # it; a one-case build at a given cutoff names its own first kept
        # row, as the per-case rule does, and a joint build the first kept
        # row of either case in table order, whatever the order of the
        # cases, as the held-table walk does
        amp = math.sqrt(8.0)
        f = field_from_modes(4, {1: amp, -1: amp})
        table = triple_table_oracle(4)
        for cutoff in (0, 1, 3):
            for case in QUOTIENT_CASES:
                assert build_outcome(lambda: _quotient_plans(f, (case,), cutoff)[1][0][3:]) == (
                    build_outcome(lambda: plan_oracle(f, cutoff, case, table))
                )
        joint = []
        for cases in (("comparable", "separated"), ("separated", "comparable")):
            for cutoff in (0, 1):
                joint.append(build_outcome(lambda: _quotient_plans(f, cases, cutoff)[1][0][3:]))
                assert joint[-1] == build_outcome(lambda: held_plans(f, cutoff, cases, table)[0][3:])
        assert [outcome[0] for outcome in joint] == [(-1, -1, 3)] * 4
        assert build_outcome(lambda: plan_oracle(f, 0, "comparable", table))[0] == (1, 1, 1)
        # an unknown case raises also where the table has no rows
        z = FourierField.zeros(0)
        with pytest.raises(FieldError, match="unknown case 'resonant'"):
            trilinear_quotient_form(z, z, z, z, case="resonant")

    def test_plan_walk_memory_ceiling(self):
        # the whole build of both K = 64 plans, the row walk and the cutoff
        # scan included, adds block-sized temporaries to the plans it fills
        f = cosine_field(64)
        tracemalloc.start()
        try:
            _, plans = _quotient_plans(f, ("comparable", "separated"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(a.nbytes for plan in plans for a in plan[3:]) + 4 * 2**20

    def test_held_plan_and_table_must_match(self):
        # a plan gives the per-call result; one of another profile (by
        # identity, so an equal copy fails too), cutoff or case raises; no
        # triple table is held, so the cutoff scan takes none
        K = 8
        f = 0.5 * random_real_field(K, seed=4)
        vs = [real_draw(K, [8, j]) for j in range(3)]
        cutoff, (plan,) = _quotient_plans(f, ("separated",))
        assert cutoff == select_frequency_cutoff(f)
        held = trilinear_quotient_form(*vs, f, cutoff, "separated", plan=plan)
        own = trilinear_quotient_form(*vs, f, cutoff, "separated")
        assert np.array_equal(held.coeffs, own.coeffs) and held.real_symmetric
        copy = FourierField(f.coeffs.copy(), real_symmetric=True)
        for args in ((*vs, copy, cutoff, "separated"), (*vs, f, cutoff + 1, "separated"),
                     (*vs, f, cutoff, "comparable"), (*vs, f, cutoff, None)):
            with pytest.raises(GridMismatchError):
                trilinear_quotient_form(*args, plan=plan)
        with pytest.raises(TypeError):
            select_frequency_cutoff(f, table=None)

    def test_pair_index_beyond_int16(self):
        # K = 91 is the first cutoff where out * (2K+1) + i1 exceeds the
        # int16 range of the table's columns
        K = 91
        assert (2 * K) * (2 * K + 1) + 2 * K > np.iinfo(np.int16).max >= 180 * 181 + 180
        f = random_real_field(K, 11)
        cutoff = select_frequency_cutoff(f)
        t = triple_table_oracle(K)
        masks = {"comparable": t.kmax <= 2 * t.kmin, "separated": t.kmax > 2 * t.kmin}
        for case, mask in masks.items():
            kept = (t.kmax > cutoff) & mask
            pair, i2, i3, out, _ = _quotient_plans(f, (case,), cutoff)[1][0][3:]
            assert np.array_equal(pair, t.out[kept].astype(np.int64) * (2 * K + 1) + t.i1[kept])
            assert pair.max() > np.iinfo(np.int16).max
            for col, column in ((i2, t.i2), (i3, t.i3), (out, t.out)):
                assert np.array_equal(col, column[kept])
        vs = [real_draw(K, [7, j]) for j in range(3)]
        for case in QUOTIENT_CASES:
            out = trilinear_quotient_form(*vs, f, cutoff, case)
            assert_mirrors(out, masked_quotient_formula(vs, f, cutoff, case))

    @pytest.mark.parametrize(
        "profile",
        [
            FourierField.zeros(8),
            cosine_field(8),
            # the corrected denominator vanishes at (1, 1, 1)
            field_from_modes(4, {1: math.sqrt(8.0), -1: math.sqrt(8.0)}),
            # |D| = kmax / 2 exactly at a triple of kmax 4, which is not flagged
            field_from_modes(4, {2: 4.0}, symmetrize=True),
            # strong profiles whose cutoffs are 2, 5, 4 and 2
            *(
                a * random_real_field(K, seed)
                for a, K, seed in ((4, 3, 0), (7.5, 6, 1), (11, 8, 0), (13, 8, 2))
            ),
        ],
    )
    def test_cutoff_matches_full_enumeration(self, profile):
        assert select_frequency_cutoff(profile) == cutoff_oracle(profile)

    def test_select_frequency_cutoff(self):
        assert select_frequency_cutoff(FourierField.zeros(8)) == 0
        assert select_frequency_cutoff(cosine_field(8)) == 0
        amp = math.sqrt(8.0)
        f = field_from_modes(4, {1: amp, -1: amp})
        cutoff = select_frequency_cutoff(f)
        assert cutoff >= 1
        # dropping max |kj| <= cutoff removes every flagged triple
        v = cosine_field(4)
        trilinear_quotient_form(v, v, v, f, cutoff=cutoff)


class TestConservedFunctionals:
    def test_cosine_frozen_values(self):
        mass, l2, energy = conserved_functionals(cosine_field(8))
        assert mass == 0.0
        assert abs(l2 - 0.5) < 1e-15
        assert abs(energy - 0.21875) < 1e-14

    def test_constant_field(self):
        c = 1.2
        mass, l2, energy = conserved_functionals(field_from_modes(2, {0: c}))
        assert abs(mass - c) < 1e-15
        assert abs(l2 - c * c) < 1e-15
        assert abs(energy - (-(c**4) / 12.0)) < 1e-14

    def test_against_quadrature(self):
        u = random_real_field(10, seed=55)
        n = 8192
        x = 2.0 * np.pi * np.arange(n) / n
        samples = to_real_samples(u, n)
        slope = np.zeros(n)
        for k in range(-10, 11):
            slope += np.real(1j * k * u.mode(k) * np.exp(1j * k * x))
        mass, l2, energy = conserved_functionals(u)
        assert abs(mass - np.mean(samples)) < 1e-13
        assert abs(l2 - np.mean(samples**2)) < 1e-13
        assert abs(energy - np.mean(0.5 * slope**2 - samples**4 / 12.0)) < 1e-12

    def test_requires_real_field(self):
        c = np.zeros(5, dtype=complex)
        c[3] = 1.0
        with pytest.raises(FieldError):
            conserved_functionals(FourierField(c))


class TestResonanceIdentity:
    def test_frozen_examples(self):
        assert resonance_identity_residual((1, 8, 27), (1, 2, 3)) == 0.0
        assert resonance_identity_residual((0, 0, 0), (5, -7, 2)) == 0.0
        assert resonance_identity_residual((0.5, -1.25, 3.0), (1, 1, -2)) == 0.0

    @given(
        st.tuples(*[st.integers(min_value=-(10**6), max_value=10**6)] * 3),
        st.tuples(*[st.integers(min_value=-1000, max_value=1000)] * 3),
    )
    def test_exact_for_integers(self, taus, ks):
        assert resonance_identity_residual(taus, ks) == 0.0

    @settings(max_examples=50)
    @given(
        st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 3),
        st.tuples(*[st.integers(min_value=-100, max_value=100)] * 3),
    )
    def test_small_for_floats(self, taus, ks):
        assert resonance_identity_residual(taus, ks) < 1e-6


class TestKernelProductMinimum:
    def test_frozen_minimum(self):
        best, witness = kernel_product_minimum(128)
        assert best == 1.0
        assert witness == (-2, 1, 1)
        k1, k2, k3 = witness
        prod = (k1 + k2) * (k2 + k3) * (k3 + k1)
        assert abs(prod) == max(abs(k1), abs(k2), abs(k3))

    def test_sliced_large_limit(self):
        best, witness = kernel_product_minimum(1000, k1_values=[1, -2, 537, -1000])
        assert best == 1.0
        assert witness == (1, -2, 1)

    @given(st.tuples(*[st.integers(min_value=-200, max_value=200)] * 3))
    def test_lower_bound_holds_pointwise(self, ks):
        k1, k2, k3 = ks
        if 0 in ks:
            return
        prod = (k1 + k2) * (k2 + k3) * (k3 + k1)
        if prod == 0:
            return
        assert abs(prod) >= max(abs(k1), abs(k2), abs(k3))
