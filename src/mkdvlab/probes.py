"""Randomized ratio probes, smoothing diagnostics, and uniqueness metrics.

The three probe families each measure how large a trilinear output norm can
get relative to the product of input norms over a seeded random ensemble:

  * probe_duhamel_smoothing: sup-in-time H^{s1} size of the Duhamel
    integral of NR against the product of modified-Y proxies, divided by
    T^delta. This is the quantity whose uniform boundedness the whole
    contraction scheme needs; the per-K table exists to expose growth.
  * probe_trilinear_bourgain: modified-Y proxy of the NR trajectory at
    exponent b-1+delta against the product of inputs at exponent b.
  * probe_quotient_form: static kernel-weighted quotient form, binned by
    whether the input frequencies are comparable or separated.

Ensembles are deterministic in the ensemble seed. Fields are drawn once at
the headline cutoff and truncated to each smaller cutoff, so the per-K ensembles
are nested and the emitted table reports the running maximum: row K is the
best ratio seen at any cutoff <= K, which makes the growth signal monotone
by construction rather than sampling luck.

Ratios are scale-invariant (numerator and denominator are both cubic in
the inputs), so the unit-denominator normalization applied before
evaluation only conditions the arithmetic; it does not bias the ratio.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, FieldError, GridMismatchError
from .gauge import gauge_decompose, modulated_profile, phase_from_trajectory
from .nonlinearity import (
    nr_framewise,
    select_frequency_cutoff,
    trilinear_quotient_form,
)
from .norms import NormProxyConfig, phase_rates, xinfty_hs_norm, ysb_norm_proxy
from .picard import duhamel_integrate, picard_rhs
from .spectral import (
    FourierField,
    GridSpec,
    SobolevIndex,
    Trajectory,
    field_to_obj,
    hs_norms,
    random_real_field,
    resize_field,
    sobolev_norm,
)
from .version import VERSION

__all__ = [
    "DEGENERATE_FLOOR",
    "EnsembleSpec",
    "ProbeReport",
    "free_modulated_trajectory",
    "duhamel_smoothing_ratio",
    "trilinear_bourgain_ratio",
    "quotient_form_ratio",
    "probe_duhamel_smoothing",
    "probe_trilinear_bourgain",
    "probe_quotient_form",
    "SmoothingReport",
    "smoothing_report",
    "gauged_remainder_residual",
    "modulus_gap_metric",
]

# below this, a proxy denominator is treated as identically zero and the
# sample is skipped instead of divided
DEGENERATE_FLOOR = 1e-250

_DYADIC = (8, 16, 32, 64)


@dataclass(frozen=True)
class EnsembleSpec:
    """Deterministic random-ensemble description.

    Coefficients are drawn with |u_hat(k)| = uniform(0,1) * (1+k^2)^(-decay/2)
    for 1 <= k <= K, uniform phase, zero mean, conjugate-mirrored. Slot i of
    sample j uses the generator seeded by [seed, j, i], so any prefix of the
    ensemble is reproducible independently of count, and truncating K keeps
    the draws nested. modulation_bumps scales an odd-in-k random frequency
    shift added to the free phase of each trajectory slot.
    """

    seed: int
    count: int
    K: int
    decay_exponent: float
    params: SobolevIndex = SobolevIndex()
    proxy: NormProxyConfig = field(
        default_factory=lambda: NormProxyConfig(0.3, 0.51, phase="modified")
    )
    M: int = 16
    T: float = 0.5
    k_values: tuple[int, ...] | None = None
    modulation_bumps: float = 0.0

    def __post_init__(self) -> None:
        if int(self.seed) != self.seed or not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if int(self.count) != self.count or self.count < 1:
            raise ConfigError(f"count must be a positive integer, got {self.count!r}")
        if int(self.K) != self.K or self.K < 1:
            raise ConfigError(f"K must be a positive integer, got {self.K!r}")
        if int(self.M) != self.M or self.M < 8:
            raise ConfigError(f"M must be an integer >= 8, got {self.M!r}")
        if not (self.T > 0):
            raise ConfigError(f"T must be positive, got {self.T!r}")
        if self.modulation_bumps < 0:
            raise ConfigError(f"modulation_bumps must be >= 0, got {self.modulation_bumps!r}")
        if self.k_values is not None:
            vals = tuple(int(v) for v in self.k_values)
            if not vals or vals != tuple(sorted(set(vals))) or any(v < 1 for v in vals):
                raise ConfigError("k_values must be strictly increasing positive integers")
            if vals[-1] > self.K:
                raise ConfigError(f"k_values exceed the ensemble cutoff {self.K}")
            object.__setattr__(self, "k_values", vals)
        self.params.validate()

    def cutoffs(self) -> tuple[int, ...]:
        """Evaluation cutoffs, always ending at the headline K."""
        vals = self.k_values if self.k_values is not None else tuple(
            c for c in _DYADIC if c <= self.K
        )
        if not vals or vals[-1] != self.K:
            vals = tuple(vals) + (self.K,)
        return vals

    def to_obj(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "K": self.K,
            "decay_exponent": self.decay_exponent,
            "M": self.M,
            "T": self.T,
            "k_values": list(self.cutoffs()),
            "modulation_bumps": self.modulation_bumps,
            "params": {
                "s0": self.params.s0,
                "s1": self.params.s1,
                "b": self.params.b,
                "delta": self.params.delta,
            },
            "proxy": asdict(self.proxy),
        }


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one probe run; max over per-sample ratios by construction."""

    kind: str
    spec: EnsembleSpec
    valid_samples: int
    skipped: int
    ratios: tuple[float, ...]
    per_K: tuple[tuple[int, float | None], ...]
    argmax_index: int | None = None
    argmax_sample: dict | None = None
    argmax_sample_file: str | None = None
    extras: dict = field(default_factory=dict)

    @property
    def ratios_summary(self) -> dict:
        if not self.ratios:
            return {"max": None, "mean": None, "p99": None}
        arr = np.asarray(self.ratios)
        return {
            "max": float(arr.max()),
            "mean": float(arr.mean()),
            "p99": float(np.percentile(arr, 99.0)),
        }

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "version": VERSION,
            "spec": self.spec.to_obj(),
            "valid_samples": self.valid_samples,
            "skipped": self.skipped,
            "ratios_summary": self.ratios_summary,
            "per_K": [{"K": k, "max_ratio": r} for k, r in self.per_K],
            "argmax_sample_file": self.argmax_sample_file,
            **({"extras": self.extras} if self.extras else {}),
        }


def _draw_field(spec: EnsembleSpec, sample: int, slot: int) -> FourierField:
    """Mean-zero real random field at the headline cutoff, one RNG per (sample, slot)."""
    return random_real_field(spec.K, [spec.seed, sample, slot], spec.decay_exponent)


def _draw_bumps(spec: EnsembleSpec, sample: int, slot: int) -> np.ndarray:
    """Odd-in-k frequency perturbation, zero when modulation_bumps is 0."""
    K = spec.K
    nu = np.zeros(2 * K + 1)
    if spec.modulation_bumps > 0:
        rng = np.random.default_rng([spec.seed, sample, slot, 7])
        half = spec.modulation_bumps * (2.0 * rng.random(K) - 1.0)
        nu[K + 1 :] = half
        nu[:K] = -half[::-1]
    return nu


def _truncate_bumps(nu: np.ndarray, K_from: int, K_to: int) -> np.ndarray:
    return nu[K_from - K_to : K_from + K_to + 1]


def free_modulated_trajectory(
    g: FourierField, f: FourierField, grid: GridSpec, bumps: np.ndarray | None = None
) -> Trajectory:
    """u_hat(t,k) = g_hat(k) exp(i t (k^3 + k|f_hat(k)|^2 + bump_k))."""
    if g.K != grid.K or f.K != grid.K:
        raise GridMismatchError("field cutoffs do not match the grid")
    phi = phase_rates(grid.K, "modified", f)
    if bumps is not None:
        phi = phi + bumps
    coeffs = g.coeffs[None, :] * np.exp(1j * phi[None, :] * grid.times[:, None])
    return Trajectory(grid, coeffs)


def _input_proxy_product(
    inputs: tuple[Trajectory, ...],
    f: FourierField,
    params: SobolevIndex,
    proxy: NormProxyConfig,
) -> float:
    """Product of the inputs' Y-proxies at (s0, b), with proxy's window, padding and phase."""
    cfg = replace(proxy, s=params.s0, b=params.b)
    denom = 1.0
    for u in inputs:
        denom *= ysb_norm_proxy(u, cfg, f)
    return denom


def duhamel_smoothing_ratio(
    u1: Trajectory,
    u2: Trajectory,
    u3: Trajectory,
    f: FourierField,
    params: SobolevIndex,
    proxy: NormProxyConfig,
    method: str = "fast",
) -> float:
    """sup_t H^{s1} of duhamel(NR(u1,u2,u3)) over T^delta times the Y-proxy product.

    Exponents come from params; proxy contributes window, padding, and
    phase so the denominator matches the solver's working norm.
    """
    denom = _input_proxy_product((u1, u2, u3), f, params, proxy)
    U = duhamel_integrate(nr_framewise(u1, u2, u3, method), f)
    return xinfty_hs_norm(U, params.s1) / (u1.grid.T**params.delta * denom)


def trilinear_bourgain_ratio(
    u1: Trajectory,
    u2: Trajectory,
    u3: Trajectory,
    f: FourierField,
    params: SobolevIndex,
    proxy: NormProxyConfig,
    method: str = "fast",
) -> float:
    """Y-proxy of NR(u1,u2,u3) at exponent b-1+delta over the product at b."""
    denom = _input_proxy_product((u1, u2, u3), f, params, proxy)
    out_cfg = replace(proxy, s=params.s0, b=params.b - 1.0 + params.delta)
    return ysb_norm_proxy(nr_framewise(u1, u2, u3, method), out_cfg, f) / denom


def quotient_form_ratio(
    v1: FourierField,
    v2: FourierField,
    v3: FourierField,
    f: FourierField,
    params: SobolevIndex,
    cutoff: int,
    case: str | None = None,
) -> float:
    """H^{s1} of the kernel-weighted quotient form over the product of H^{s0} norms."""
    denom = 1.0
    for v in (v1, v2, v3):
        denom *= sobolev_norm(v, params.s0)
    out = trilinear_quotient_form(v1, v2, v3, f, cutoff=cutoff, case=case)
    return sobolev_norm(out, params.s1) / denom


def _cumulative_per_k(
    cutoffs: tuple[int, ...], raw: dict[int, float | None]
) -> tuple[tuple[int, float | None], ...]:
    rows = []
    best: float | None = None
    for c in cutoffs:
        r = raw[c]
        if r is not None and (best is None or r > best):
            best = r
        rows.append((c, best))
    return tuple(rows)


def _run_probe(
    kind: str,
    f: FourierField,
    spec: EnsembleSpec,
    evaluate: Callable[[list[FourierField], list[np.ndarray], int], tuple[float, dict] | None],
) -> ProbeReport:
    """Shared sample loop: draw, truncate per cutoff, evaluate, reduce.

    An evaluation returns (ratio, payload) with the normalized fields under
    payload["fields"]; they are serialized only for a new best sample.
    """
    if f.K != spec.K:
        raise GridMismatchError(f"profile cutoff {f.K} does not match ensemble K {spec.K}")
    cutoffs = spec.cutoffs()
    raw_max: dict[int, float | None] = {c: None for c in cutoffs}
    ratios: list[float] = []
    skipped = 0
    best = -np.inf
    argmax_index: int | None = None
    argmax_sample: dict | None = None
    extras_acc: dict = {}
    for j in range(spec.count):
        fields = [_draw_field(spec, j, i) for i in range(3)]
        bumps = [_draw_bumps(spec, j, i) for i in range(3)]
        for c in cutoffs:
            result = evaluate(fields, bumps, c)
            if result is None:
                if c == spec.K:
                    skipped += 1
                continue
            ratio, payload = result
            if raw_max[c] is None or ratio > raw_max[c]:
                raw_max[c] = ratio
            if c == spec.K:
                ratios.append(ratio)
                for key, val in payload.pop("_case_ratios", {}).items():
                    acc = extras_acc.setdefault(key, [])
                    acc.append(val)
                if ratio > best:
                    best = ratio
                    argmax_index = j
                    argmax_sample = {"sample": j, "K": c, "ratio": ratio, **payload}
                    argmax_sample["fields"] = [field_to_obj(g) for g in payload["fields"]]
    extras = {
        "per_case_max": {k: (max(v) if v else None) for k, v in extras_acc.items()}
    } if extras_acc else {}
    return ProbeReport(
        kind=kind,
        spec=spec,
        valid_samples=len(ratios),
        skipped=skipped,
        ratios=tuple(ratios),
        per_K=_cumulative_per_k(cutoffs, raw_max),
        argmax_index=argmax_index,
        argmax_sample=argmax_sample,
        extras=extras,
    )


def _trajectory_evaluator(
    f: FourierField, spec: EnsembleSpec, ratio: Callable[..., float], method: str
) -> Callable[[list[FourierField], list[np.ndarray], int], tuple[float, dict] | None]:
    """Sample evaluator of the trajectory probes.

    Truncates the sample to cutoff c, builds the free trajectories, scales
    each to unit proxy norm and returns ratio of the three with the scaled
    fields as payload; None when a proxy norm is degenerate.
    """
    cfg = replace(spec.proxy, s=spec.params.s0, b=spec.params.b)

    def evaluate(fields, bumps, c):
        fc = resize_field(f, c)
        grid = GridSpec(c, spec.M, spec.T)
        trajs: list[Trajectory] = []
        normalized: list[FourierField] = []
        for g, nu in zip(fields, bumps):
            gc = resize_field(g, c)
            u = free_modulated_trajectory(gc, fc, grid, _truncate_bumps(nu, spec.K, c))
            d = ysb_norm_proxy(u, cfg, fc)
            if not (d > DEGENERATE_FLOOR):
                return None
            trajs.append(Trajectory(grid, u.coeffs / d))
            normalized.append(FourierField(gc.coeffs / d, real_symmetric=gc.real_symmetric))
        value = ratio(*trajs, fc, spec.params, spec.proxy, method)
        return value, {"fields": normalized}

    return evaluate


def probe_duhamel_smoothing(
    f: FourierField, spec: EnsembleSpec, method: str = "fast"
) -> ProbeReport:
    """Ensemble search for the largest Duhamel-smoothing ratio."""
    evaluate = _trajectory_evaluator(f, spec, duhamel_smoothing_ratio, method)
    return _run_probe("probe16", f, spec, evaluate)


def probe_trilinear_bourgain(
    f: FourierField, spec: EnsembleSpec, method: str = "fast"
) -> ProbeReport:
    """Ensemble search for the largest trilinear Y-proxy ratio."""
    evaluate = _trajectory_evaluator(f, spec, trilinear_bourgain_ratio, method)
    return _run_probe("probe12", f, spec, evaluate)


def probe_quotient_form(f: FourierField, spec: EnsembleSpec) -> ProbeReport:
    """Ensemble search over the static quotient form, binned by frequency case.

    The per-sample ratio is the larger of the two case ratios; both are
    kept in the report extras. The truncation level protecting the
    denominators is recomputed per cutoff from the truncated profile.
    """
    cutoff_for: dict[int, int] = {}

    def evaluate(fields, bumps, c):
        fc = resize_field(f, c)
        if c not in cutoff_for:
            cutoff_for[c] = select_frequency_cutoff(fc)
        k0 = cutoff_for[c]
        normalized = []
        for g in fields:
            gc = resize_field(g, c)
            d = sobolev_norm(gc, spec.params.s0)
            if not (d > DEGENERATE_FLOOR):
                return None
            normalized.append(FourierField(gc.coeffs / d, real_symmetric=gc.real_symmetric))
        case_ratios = {
            case: quotient_form_ratio(
                normalized[0], normalized[1], normalized[2], fc, spec.params, k0, case
            )
            for case in ("comparable", "separated")
        }
        ratio = max(case_ratios.values())
        return ratio, {
            "fields": normalized,
            "frequency_cutoff": k0,
            "_case_ratios": case_ratios,
        }

    return _run_probe("probe700", f, spec, evaluate)


@dataclass(frozen=True)
class SmoothingReport:
    """Per-frame smoothing diagnostics of a trajectory around its profile.

    remainder_hs1: H^{s1} norm of u minus the modulated profile built from
    the trajectory's own phase. gap_sum_weight1: sum_k |k| * ||u_hat|^2 -
    |f_hat|^2|. gap_sum_upgraded: the same sum with exponent
    min(4 s0, 1 + s0). gap_sup_weight1: sup_k of the |k|-weighted gap.
    """

    times: np.ndarray
    remainder_hs1: np.ndarray
    gap_sum_weight1: np.ndarray
    gap_sum_upgraded: np.ndarray
    gap_sup_weight1: np.ndarray
    upgraded_exponent: float

    @property
    def sups(self) -> dict[str, float]:
        return {
            "remainder_hs1": float(np.max(self.remainder_hs1)),
            "gap_sum_weight1": float(np.max(self.gap_sum_weight1)),
            "gap_sum_upgraded": float(np.max(self.gap_sum_upgraded)),
            "gap_sup_weight1": float(np.max(self.gap_sup_weight1)),
        }

    def to_obj(self) -> dict:
        return {
            "upgraded_exponent": self.upgraded_exponent,
            "sups": self.sups,
            "frames": [
                {
                    "t": float(self.times[n]),
                    "remainder_hs1": float(self.remainder_hs1[n]),
                    "gap_sum_weight1": float(self.gap_sum_weight1[n]),
                    "gap_sum_upgraded": float(self.gap_sum_upgraded[n]),
                    "gap_sup_weight1": float(self.gap_sup_weight1[n]),
                }
                for n in range(self.times.size)
            ],
        }


def smoothing_report(
    u: Trajectory, f: FourierField, params: SobolevIndex
) -> SmoothingReport:
    """Smoothing metrics of u relative to its initial profile f.

    All four metrics vanish identically when u is exactly the modulated
    profile, and vanish at t = 0 for any trajectory starting at f.
    """
    if f.K != u.K:
        raise GridMismatchError(f"mode cutoffs differ: {f.K} vs {u.K}")
    mismatch = float(np.max(np.abs(u.coeffs[0] - f.coeffs)))
    if mismatch > 1e-12:
        raise FieldError(
            f"trajectory does not start at the profile (max gap {mismatch:.3e})"
        )
    table = phase_from_trajectory(u)
    z = u - modulated_profile(f, table)
    ks = np.arange(-u.K, u.K + 1).astype(float)
    hs1 = hs_norms(z.coeffs, params.s1)
    gap = np.abs(np.abs(u.coeffs) ** 2 - (np.abs(f.coeffs) ** 2)[None, :])
    absk = np.abs(ks)
    q = min(4.0 * params.s0, 1.0 + params.s0)
    with np.errstate(divide="ignore"):
        upgraded_weight = np.where(absk > 0, absk**q, 0.0)
    return SmoothingReport(
        times=u.grid.times.copy(),
        remainder_hs1=hs1,
        gap_sum_weight1=np.sum(absk[None, :] * gap, axis=1),
        gap_sum_upgraded=np.sum(upgraded_weight[None, :] * gap, axis=1),
        gap_sup_weight1=np.max(absk[None, :] * gap, axis=1),
        upgraded_exponent=q,
    )


def gauged_remainder_residual(
    u: Trajectory, f: FourierField, method: str = "fast"
) -> float:
    """Duhamel defect of the gauged remainder v = u - profile on u's own grid.

    The phase is rebuilt from u alone, so this certifies u against the
    gauged integral equation without reference to how u was produced.
    Small iff u solves the evolution on this grid.
    """
    if f.K != u.K:
        raise GridMismatchError(f"mode cutoffs differ: {f.K} vs {u.K}")
    table = phase_from_trajectory(u)
    v = gauge_decompose(u, table, f)
    forcing = picard_rhs(v, table, f, method)
    replay = duhamel_integrate(forcing, f, initial=v.frame(0))
    return float(np.max(np.abs(v.coeffs - replay.coeffs)))


def modulus_gap_metric(u1: Trajectory, u2: Trajectory) -> tuple[np.ndarray, float]:
    """Per-k table sup_t |k| * ||u1_hat|^2 - |u2_hat|^2| and its sup over k."""
    if u1.grid != u2.grid:
        raise GridMismatchError(f"grids differ: {u1.grid} vs {u2.grid}")
    ks = np.abs(np.arange(-u1.K, u1.K + 1).astype(float))
    gap = np.abs(np.abs(u1.coeffs) ** 2 - np.abs(u2.coeffs) ** 2)
    per_k = np.max(ks[None, :] * gap, axis=0)
    return per_k, float(np.max(per_k))
