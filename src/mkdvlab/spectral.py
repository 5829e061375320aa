"""Fourier-side representation of 2*pi-periodic fields.

A field is the truncated mode vector u_hat(k), |k| <= K, of
u(x) = sum_k u_hat(k) exp(i k x) on [0, 2*pi). Real-valued functions carry
conjugate-symmetric coefficients, u_hat(-k) = conj(u_hat(k)), with a real
zero mode. Sobolev norms are pure sequence-space sums with the bracket
weight <k> = (1 + k^2)^(1/2); no 2*pi factors appear anywhere.

Arrays index modes as j = k + K. Coefficient arrays are treated as
immutable; operations return new objects.

The real_symmetric mark follows one verdict, _is_real: no mode lies further
than REAL_SYMMETRY_TOL from its mirror. Constructors reject a false claim,
readers and arithmetic mark finite results by it and never raise, and _mark
is the one unchecked path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FieldError, GridMismatchError

__all__ = [
    "REAL_SYMMETRY_TOL",
    "GridSpec",
    "FourierField",
    "Trajectory",
    "SobolevIndex",
    "bracket_sq",
    "hs_norms",
    "half_spectrum",
    "mirrored",
    "sobolev_norm",
    "check_real_symmetry",
    "cosine_field",
    "field_from_modes",
    "random_real_field",
    "resize_field",
    "cumulative_trapezoid",
    "field_to_obj",
    "field_from_obj",
    "trajectory_to_obj",
    "trajectory_from_obj",
    "write_frames_json",
]

# Verified reality tolerance for operations that require real-valued input.
REAL_SYMMETRY_TOL = 1e-8

# Slots kept by each cache of derived tables; see _cached.
_CACHE_ENTRIES = 32


def _cached(store: dict, slot, stamp, build):
    """The value held for slot if its stamp equals stamp, else build()'s, stored.

    Every cache of tables derived from a grid or a profile is a dict of
    slot -> (stamp, value) kept here: a built value's arrays are made
    read-only, the slot becomes the most recent, the oldest slot is evicted
    once store holds more than _CACHE_ENTRIES, and a build that raises
    leaves the slot empty. A stale value is dropped before build() runs, so
    it and its successor are never held together.
    """
    entry = store.pop(slot, None)
    if entry is None or entry[0] != stamp:
        entry = None
        value = build()
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        entry = (stamp, value)
    store[slot] = entry
    if len(store) > _CACHE_ENTRIES:
        del store[next(iter(store))]
    return entry[1]


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time sampling: modes |k| <= K, frames t_n = n T / (M - 1)."""

    K: int
    M: int
    T: float

    def __post_init__(self) -> None:
        if int(self.K) != self.K or self.K < 1:
            raise ConfigError(f"K must be an integer >= 1, got {self.K!r}")
        if int(self.M) != self.M or self.M < 2:
            raise ConfigError(f"M must be an integer >= 2, got {self.M!r}")
        if not (self.T > 0):
            raise ConfigError(f"T must be positive, got {self.T!r}")

    @property
    def n_modes(self) -> int:
        return 2 * self.K + 1

    @property
    def dt(self) -> float:
        return self.T / (self.M - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M)

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)


@dataclass(frozen=True)
class FourierField:
    """Mode vector u_hat(k) for |k| <= K, stored at index k + K.

    real_symmetric marks fields that represent real-valued functions; a
    claim made at construction must pass the verdict of _is_real.
    """

    coeffs: np.ndarray
    real_symmetric: bool = False

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise FieldError(
                f"coefficients must be a 1d array of odd length, got shape {c.shape}"
            )
        object.__setattr__(self, "coeffs", c)
        if self.real_symmetric and not _is_real(self):
            raise FieldError(
                "field marked real_symmetric but max |u_hat(-k) - conj(u_hat(k))| = "
                f"{check_real_symmetry(self):.3e}"
            )

    @property
    def K(self) -> int:
        return (self.coeffs.size - 1) // 2

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def mode(self, k: int) -> complex:
        if abs(k) > self.K:
            raise FieldError(f"mode {k} outside |k| <= {self.K}")
        return complex(self.coeffs[k + self.K])

    @staticmethod
    def zeros(K: int) -> "FourierField":
        return _mark(FourierField(np.zeros(2 * K + 1, dtype=complex)))

    def __add__(self, other: "FourierField") -> "FourierField":
        self._check_same_K(other)
        both = self.real_symmetric and other.real_symmetric
        return _marked_if_real(FourierField(self.coeffs + other.coeffs), both)

    def __sub__(self, other: "FourierField") -> "FourierField":
        self._check_same_K(other)
        both = self.real_symmetric and other.real_symmetric
        return _marked_if_real(FourierField(self.coeffs - other.coeffs), both)

    def __rmul__(self, scalar: float) -> "FourierField":
        keep = self.real_symmetric and isinstance(scalar, (int, float))
        return _marked_if_real(FourierField(scalar * self.coeffs), keep)

    def _check_same_K(self, other: "FourierField") -> None:
        if self.K != other.K:
            raise GridMismatchError(f"mode cutoffs differ: {self.K} vs {other.K}")


@dataclass(frozen=True)
class Trajectory:
    """M field frames on a shared grid, stored as an (M, 2K+1) complex array.

    real_symmetric marks trajectories whose every frame is a real field; as
    for FourierField, a claim made at construction must pass the verdict.
    """

    grid: GridSpec
    coeffs: np.ndarray
    real_symmetric: bool = False

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.grid.M, self.grid.n_modes):
            raise FieldError(
                f"trajectory array shape {c.shape} does not match grid "
                f"({self.grid.M}, {self.grid.n_modes})"
            )
        object.__setattr__(self, "coeffs", c)
        if self.real_symmetric and not _is_real(self):
            raise FieldError(
                "trajectory marked real_symmetric but max |u_hat(t, -k) - "
                f"conj(u_hat(t, k))| = {check_real_symmetry(self):.3e}"
            )

    @property
    def K(self) -> int:
        return self.grid.K

    def frame(self, n: int) -> FourierField:
        return _mark(FourierField(self.coeffs[n].copy()), self.real_symmetric)

    @staticmethod
    def zeros(grid: GridSpec) -> "Trajectory":
        return _mark(Trajectory(grid, np.zeros((grid.M, grid.n_modes), dtype=complex)))

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        if self.grid != other.grid:
            raise GridMismatchError("trajectories live on different grids")
        both = self.real_symmetric and other.real_symmetric
        return _marked_if_real(Trajectory(self.grid, self.coeffs - other.coeffs), both)


@dataclass(frozen=True)
class SobolevIndex:
    """Exponent set (s0, s1, b, delta) for the solution-space norms.

    Defaults derive the companion exponents from s0: s1 sits at the middle
    of its admissible window and delta is a tenth of the available slack
    above 1/4. b is always 1/2 + 2 delta, so it is derived, never given.
    Exponents outside the admissible regime raise ConfigError.
    """

    s0: float = 0.3
    s1: float | None = None
    b: float = field(init=False)
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.delta is None:
            object.__setattr__(self, "delta", (self.s0 - 0.25) / 10.0)
        object.__setattr__(self, "b", 0.5 + 2.0 * self.delta)
        if self.s1 is None:
            lo = max(0.5, 1.0 - self.s0)
            hi = min(1.0, 3.0 * self.s0)
            object.__setattr__(self, "s1", 0.5 * (lo + hi))
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError unless the exponents sit in the admissible regime."""
        problems = []
        if not (0.25 < self.s0 < 0.5):
            problems.append(f"s0 = {self.s0} outside (1/4, 1/2)")
        if not (0.5 < 1.0 - self.s0 < self.s1 < min(1.0, 3.0 * self.s0)):
            problems.append(
                f"s1 = {self.s1} outside (max(1/2, 1 - s0), min(1, 3 s0))"
            )
        if not (0.0 < self.delta < self.s0 - 0.25):
            problems.append(f"delta = {self.delta} outside (0, s0 - 1/4)")
        if problems:
            raise ConfigError("; ".join(problems))


def bracket_sq(K: int) -> np.ndarray:
    """<k>^2 = 1 + k^2 for k = -K..K, the weight base of every H^s norm."""
    return 1.0 + np.arange(-K, K + 1).astype(float) ** 2


def hs_norms(coeffs: np.ndarray, s: float) -> np.ndarray:
    """Sequence-space H^s norms sqrt(sum_k <k>^{2s} |u_hat(k)|^2), one per row of (..., 2K+1)."""
    K = (coeffs.shape[-1] - 1) // 2
    return np.sqrt(np.sum(bracket_sq(K) ** s * np.abs(coeffs) ** 2, axis=-1))


def half_spectrum(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Modes 0..K of a conjugate-symmetric mode vector, zero-padded for an n-point irfft."""
    K = (coeffs.size - 1) // 2
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[0] = coeffs[K].real
    half[1 : K + 1] = coeffs[K + 1 :]
    return half


def mirrored(zero, positive: np.ndarray) -> np.ndarray:
    """Conjugate-symmetric mode vector with zero mode `zero` and modes 1..K `positive`.

    Stacked rows work alike: positive of shape (..., K) and zero a scalar or
    of shape (...) give a (..., 2K+1) array.
    """
    K = positive.shape[-1]
    c = np.empty((*positive.shape[:-1], 2 * K + 1), dtype=complex)
    c[..., K] = zero
    c[..., K + 1 :] = positive
    c[..., :K] = np.conj(positive[..., ::-1])
    return c


def _mark(u, trusted: bool = True):
    """u, a field or trajectory, marked real_symmetric without a check when trusted.

    The one trusted path: only for arrays real by construction (mirrored
    half spectra and their positive multiples, zeros) or covered by verdicts
    already passed (the frames and truncations of a marked object, the
    stack of marked frames, and the ETD stages and trajectory grown from a
    checked initial field by conjugate-symmetric weights and mirrored cubic
    terms, which keep its asymmetry up to rounding).
    """
    if trusted:
        object.__setattr__(u, "real_symmetric", True)
    return u


def _mirrored_field(zero: float, positive: np.ndarray) -> FourierField:
    """mirrored(zero, positive) as a real_symmetric field, unchecked: exact by construction."""
    return _mark(FourierField(mirrored(zero, positive)))


def _symmetric_trajectory(grid: GridSpec, half: np.ndarray) -> Trajectory:
    """The trajectory mirrored from the (M, K+1) columns k = 0..K of half, marked: exact."""
    return _mark(Trajectory(grid, mirrored(half[:, 0].real, half[:, 1:])))


def sobolev_norm(u: FourierField, s: float) -> float:
    """Sequence-space H^s norm: sqrt(sum_k <k>^{2s} |u_hat(k)|^2)."""
    return float(hs_norms(u.coeffs, s))


def check_real_symmetry(u: FourierField | Trajectory) -> float:
    """max_k |u_hat(-k) - conj(u_hat(k))| over every frame, zero for exactly real fields.

    A NaN or infinite mode makes the result NaN or infinite, without a warning.
    """
    c = u.coeffs
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(c[..., ::-1] - np.conj(c))))


def _is_real(u: FourierField | Trajectory) -> bool:
    """The realness verdict: only an asymmetry above REAL_SYMMETRY_TOL fails it, NaN passes."""
    return not check_real_symmetry(u) > REAL_SYMMETRY_TOL


def _marked_if_real(u, claim: bool = True):
    """u marked when claim (for arithmetic: every input was marked) holds and u is real.

    Only finite results are marked: the verdict passes a NaN mode, and the
    half-spectrum routes a mark opens read only k >= 0.
    """
    return _mark(u, claim and _is_real(u) and bool(np.isfinite(u.coeffs).all()))


def _require_real(u: FourierField | Trajectory, message: str) -> None:
    """Raise FieldError(message) unless u is marked real_symmetric or passes the verdict."""
    if not (u.real_symmetric or _is_real(u)):
        raise FieldError(message)


def cosine_field(K: int, amplitude: float = 1.0, harmonic: int = 1) -> FourierField:
    """amplitude * cos(harmonic * x) as a mode vector."""
    if not (1 <= harmonic <= K):
        raise FieldError(f"harmonic {harmonic} outside 1..{K}")
    c = np.zeros(2 * K + 1, dtype=complex)
    c[K + harmonic] = amplitude / 2.0
    c[K - harmonic] = amplitude / 2.0
    return FourierField(c, real_symmetric=True)


def field_from_modes(
    K: int, modes: dict[int, complex], symmetrize: bool = False
) -> FourierField:
    """Place explicit mode values; optionally mirror conjugates onto -k."""
    c = np.zeros(2 * K + 1, dtype=complex)
    for k, val in modes.items():
        if abs(k) > K:
            raise FieldError(f"mode {k} outside |k| <= {K}")
        c[K + k] = val
        if symmetrize and k != 0:
            c[K - k] = np.conj(val)
    if symmetrize:
        c[K] = c[K].real
    return _marked_if_real(FourierField(c))


def _check_seed(seed) -> None:
    """Raise ConfigError unless seed is an integer in [0, 2^64), as a config seed must be."""
    if int(seed) != seed or not (0 <= seed < 2**64):
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def _check_decay(K: int, decay: float) -> None:
    """Raise ConfigError unless random_real_field(K, seed, decay) has finite weights.

    Below -2 ln(DBL_MAX) / ln(1 + K^2) the top mode's weight
    (1 + K^2)^(-decay/2) overflows.
    """
    lowest = -2.0 * math.log(np.finfo(float).max) / math.log(1 + K**2)
    if not decay >= lowest:
        raise ConfigError(f"decay_exponent must be >= {lowest!r} at K = {K}, got {decay!r}")


def random_real_field(K: int, seed, decay: float = 1.0) -> FourierField:
    """Mean-zero real random field: |u_hat(k)| = U(0,1) <k>^-decay, uniform phase.

    seed is anything np.random.default_rng accepts (an int or a sequence of
    ints); equal seeds give bit-identical fields. The decay is not checked
    here; config values pass _check_decay first.
    """
    rng = np.random.default_rng(seed)
    moduli = rng.random(K) * bracket_sq(K)[K + 1 :] ** (-0.5 * decay)
    phases = rng.random(K) * (2.0 * np.pi)
    return _mirrored_field(0.0, moduli * np.exp(1j * phases))


def resize_field(u: FourierField, K: int) -> FourierField:
    """Truncate or zero-pad the mode vector to the cutoff K."""
    if K == u.K:
        return u
    c = np.zeros(2 * K + 1, dtype=complex)
    m = min(K, u.K)
    c[K - m : K + m + 1] = u.coeffs[u.K - m : u.K + m + 1]
    return _mark(FourierField(c), u.real_symmetric)


def cumulative_trapezoid(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid rule along axis 0, anchored at zero."""
    y = np.asarray(y)
    out = np.zeros_like(y)
    np.cumsum((y[1:] + y[:-1]) * (0.5 * dt), axis=0, out=out[1:])
    return out


# ---------------------------------------------------------------------------
# JSON-facing serialization. Fields become [k, re, im] triples in ascending k;
# trajectories carry their grid header. Floats survive round trips exactly
# because json emits shortest round-trip decimals.

def field_to_obj(u: FourierField) -> list[list[float]]:
    return [
        [int(k), float(c.real), float(c.imag)]
        for k, c in zip(u.wavenumbers, u.coeffs)
    ]


def field_from_obj(obj: list[list[float]]) -> FourierField:
    if not obj:
        raise FieldError("empty mode list")
    ks = [int(row[0]) for row in obj]
    K = max(abs(k) for k in ks)
    if ks != list(range(-K, K + 1)):
        raise FieldError("mode list must cover -K..K exactly once, ascending")
    c = np.zeros(2 * K + 1, dtype=complex)
    for k, re, im in obj:
        c[int(k) + K] = complex(re, im)
    return _marked_if_real(FourierField(c))


def trajectory_to_obj(tr: Trajectory) -> dict:
    return {
        "grid": {"K": tr.grid.K, "M": tr.grid.M, "T": tr.grid.T},
        "frames": [field_to_obj(tr.frame(n)) for n in range(tr.grid.M)],
    }


def trajectory_from_obj(obj: dict) -> Trajectory:
    g = obj["grid"]
    grid = GridSpec(int(g["K"]), int(g["M"]), float(g["T"]))
    frames = [field_from_obj(f) for f in obj["frames"]]
    if len(frames) != grid.M or any(f.K != grid.K for f in frames):
        raise FieldError("frame list inconsistent with grid header")
    coeffs = np.stack([f.coeffs for f in frames])
    return _mark(Trajectory(grid, coeffs), all(f.real_symmetric for f in frames))


# The sign bit of a float64 read as an int64: x ^ _SIGN_BIT is the bits of -x.
_SIGN_BIT = np.int64(np.iinfo(np.int64).min)


def _negated(s: str) -> str:
    """The repr of -x from the repr s of a finite float x."""
    return s[1:] if s[0] == "-" else "-" + s


def write_frames_json(path: str, grid: GridSpec, columns: tuple[np.ndarray, ...]) -> None:
    """Write a frame table as json.dump(obj, fh, indent=2) plus a newline would.

    obj is {"grid": {K, M, T}, "frames": [...]}, where row j of frame n is
    [k_j, columns[0][n, j], columns[1][n, j], ...] for the real (M, 2K+1)
    arrays in columns; trajectory_to_obj and phase_to_obj build this shape.
    Frames are formatted one at a time into a template prebuilt once. The
    k >= 0 rows of a frame are formatted by one repr of their list, which for
    finite floats is exactly the json tokens joined by ", ". Each k < 0 value
    takes the string of its mirror at -k when the two are bitwise equal, that
    string with its leading "-" flipped when they are bitwise negations (as
    in the real and imaginary parts of a real field, and in the odd phase),
    and its own repr otherwise; the bytes are the same either way. json
    writes NaN and Infinity where repr gives nan and inf, so a table with
    any non-finite value is built as an object and dumped by json instead.
    """
    ks = grid.wavenumbers.tolist()
    header = {"K": grid.K, "M": grid.M, "T": grid.T}
    table = np.stack([np.asarray(c, dtype=float) for c in columns], axis=-1)
    with open(path, "w", encoding="utf-8") as fh:
        if not np.isfinite(table).all():
            frames = [[[k, *vals] for k, vals in zip(ks, frame)] for frame in table.tolist()]
            json.dump({"grid": header, "frames": frames}, fh, indent=2)
            fh.write("\n")
            return
        K, C = grid.K, table.shape[-1]
        cells = ",\n".join(["        %s"] * C)
        rows = ",\n".join(f"      [\n        {k},\n{cells}\n      ]" for k in ks)
        frame = f"    [\n{rows}\n    ]"
        # json.dumps ends the header object with "\n}"; the frame list goes there.
        fh.write(json.dumps({"grid": header}, indent=2)[:-2] + ',\n  "frames": [\n')
        bits = table.view(np.int64)
        low = [""] * (K * C)
        for n in range(table.shape[0]):
            high = repr(table[n, K:].ravel().tolist())[1:-1].split(", ")
            for c in range(C):
                # the strings of k = K..1, the mirrors of rows k = -K..-1
                mirror = high[C + c :: C][::-1]
                lo, hi = bits[n, :K, c], bits[n, : K : -1, c]
                same, negated = lo == hi, lo == hi ^ _SIGN_BIT
                if same.all():
                    low[c::C] = mirror
                elif negated.all():
                    low[c::C] = [_negated(s) for s in mirror]
                else:
                    low[c::C] = [
                        s if eq else _negated(s) if neg else repr(v)
                        for s, eq, neg, v in zip(
                            mirror, same.tolist(), negated.tolist(), table[n, :K, c].tolist()
                        )
                    ]
            fh.write((",\n" if n else "") + frame % tuple(low + high))
        fh.write("\n  ]\n}\n")
