"""Randomized ratio probes and smoothing diagnostics.

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

Ensembles are deterministic in the ensemble seed. Every sample's three
fields are drawn once at the headline cutoff, into one (count, 3, 2K+1)
mode array, and so are the frequency bumps when there are any; cutoff c
evaluates the centre 2c+1 columns, so the per-K ensembles are nested and
the emitted table reports the running maximum: row K is the best ratio
seen at any cutoff <= K, which makes the growth signal monotone by
construction rather than sampling luck. The loop is cutoff-major, all
samples at one cutoff before the next, so the tables a cutoff derives are
built once before its samples and dropped after them.

A probe's prepare maps (fc, c), fc the profile truncated to c, to the
evaluate of cutoff c, which holds that cutoff's tables and maps (fields,
bumps), bumps None without modulation bumps, to (ratio, scales, (cases,
extra)): scales holds one normalizing norm per slot, cases the per-case
ratios of a probe with case bins (else empty) and extra the entries the
argmax sample carries after its fields. It returns None, and the sample
is skipped at c, when a scale is degenerate: a scale counts only if it
is finite and above DEGENERATE_FLOOR. A trajectory probe's scale is the
Y-proxy of the slot's free trajectory in closed form (_free_proxy_norms);
the draws over their scales are mirrored half spectra, marked unchecked,
so with a marked profile their free trajectories, which ratio gets, are
marked by construction and the only proxy calls are the ratio's. The loop
builds FourierField and Trajectory wrappers only for the public functions
that take them.

Ratios are scale-invariant (numerator and denominator are both cubic in
the inputs), so the unit-denominator normalization applied before
evaluation only conditions the arithmetic; it does not bias the ratio.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, FieldError, GridMismatchError
from .gauge import modulated_profile, phase_from_trajectory
from .nonlinearity import (
    _quotient_plan,
    _QuotientPlan,
    _triple_table,
    nr_framewise,
    select_frequency_cutoff,
    trilinear_quotient_form,
)
from .norms import (
    NormProxyConfig,
    _free_phase_factor,
    _free_proxy_norms,
    _proxy_tables,
    _ProxyTables,
    xinfty_hs_norm,
    ysb_norm_proxy,
)
from .picard import duhamel_integrate
from .spectral import (
    FourierField,
    GridSpec,
    SobolevIndex,
    Trajectory,
    _check_decay,
    _check_seed,
    _frame_rows,
    _integer,
    _mark,
    _pairs,
    _positive,
    _symmetric_trajectory,
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
    "SMOOTHING_COLUMNS",
    "SmoothingReport",
    "smoothing_report",
]

# a sample's scale counts only if it is finite and above this; a sample with
# any other scale is skipped instead of divided
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
    M: int = 16
    T: float = 0.5
    k_values: tuple[int, ...] | None = None
    modulation_bumps: float = 0.0
    params: SobolevIndex = SobolevIndex()
    proxy: NormProxyConfig = NormProxyConfig()

    def __post_init__(self) -> None:
        put = object.__setattr__
        put(self, "seed", _check_seed(self.seed))
        put(self, "count", _integer(self.count, "count must be a positive integer", 1))
        put(self, "K", _integer(self.K, "K must be a positive integer", 1))
        put(self, "M", _integer(self.M, "M must be an integer >= 8", 8))
        put(self, "T", _positive(self.T, "T"))
        if not self.modulation_bumps >= 0:
            raise ConfigError(f"modulation_bumps must be >= 0, got {self.modulation_bumps!r}")
        _check_decay(self.K, self.decay_exponent)
        if self.k_values is not None:
            rule = "k_values must be strictly increasing positive integers"
            vals = tuple(_integer(v, rule, 1) for v in self.k_values)
            if not vals or vals != tuple(sorted(set(vals))):
                raise ConfigError(rule)
            if vals[-1] > self.K:
                raise ConfigError(f"k_values exceed the ensemble cutoff {self.K}")
            put(self, "k_values", vals)

    def cutoffs(self) -> tuple[int, ...]:
        """Evaluation cutoffs, always ending at the headline K."""
        vals = self.k_values if self.k_values is not None else tuple(
            c for c in _DYADIC if c <= self.K
        )
        if not vals or vals[-1] != self.K:
            vals = tuple(vals) + (self.K,)
        return vals

    def to_obj(self) -> dict:
        return {**asdict(self), "k_values": list(self.cutoffs())}


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one probe run; max over per-sample ratios by construction."""

    kind: str
    spec: EnsembleSpec
    valid_samples: int
    skipped: int
    ratios: tuple[float, ...]
    per_K: tuple[tuple[int, float | None], ...]
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
    """Odd-in-k frequency perturbation of size modulation_bumps."""
    K = spec.K
    nu = np.zeros(2 * K + 1)
    rng = np.random.default_rng([spec.seed, sample, slot, 7])
    half = spec.modulation_bumps * (2.0 * rng.random(K) - 1.0)
    nu[K + 1 :] = half
    nu[:K] = -half[::-1]
    return nu


def _draw_ensemble(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """(fields, bumps) of every sample, indexed [sample, slot, mode]; bumps is None if unused."""
    shape = (spec.count, 3, 2 * spec.K + 1)
    fields = np.empty(shape, dtype=complex)
    bumps = np.empty(shape) if spec.modulation_bumps > 0 else None
    for j in range(spec.count):
        for i in range(3):
            fields[j, i] = _draw_field(spec, j, i).coeffs
            if bumps is not None:
                bumps[j, i] = _draw_bumps(spec, j, i)
    return fields, bumps


def free_modulated_trajectory(
    g: FourierField,
    f: FourierField,
    grid: GridSpec,
    bumps: np.ndarray | None = None,
    *,
    tables: _ProxyTables | None = None,
) -> Trajectory:
    """u_hat(t,k) = g_hat(k) exp(i t (k^3 + k|f_hat(k)|^2 + bump_k)).

    With g and f marked real_symmetric and the bumps absent or exactly odd
    in k, u is real: it is built on its columns k >= 0 and mirrored, so its
    mark is exact by construction. Otherwise it is left unmarked. Without
    bumps the factor is the growth table of tables if they hold one
    (GridMismatchError unless they are (grid, f)'s); else it is built here.
    """
    if g.K != grid.K or f.K != grid.K:
        raise GridMismatchError("field cutoffs do not match the grid")
    held = None if tables is None else tables.check(grid, f).growth
    factor = held if bumps is None and held is not None else _free_phase_factor(grid, 1, f, bumps)
    odd = bumps is None or np.array_equal(bumps, -np.asarray(bumps)[::-1])
    if g.real_symmetric and f.real_symmetric and odd:
        return _symmetric_trajectory(grid, g.coeffs[grid.K :] * factor[:, grid.K :])
    return Trajectory(grid, g.coeffs[None, :] * factor)


def _input_proxy_product(
    inputs: tuple[Trajectory, ...],
    f: FourierField,
    params: SobolevIndex,
    proxy: NormProxyConfig,
    tables: _ProxyTables | None,
) -> float:
    """Product of the inputs' Y-proxies at (s0, b), with proxy's window and padding."""
    denom = 1.0
    for u in inputs:
        denom *= ysb_norm_proxy(u, params.s0, params.b, f, proxy, tables=tables)
    return denom


def duhamel_smoothing_ratio(
    u1: Trajectory,
    u2: Trajectory,
    u3: Trajectory,
    f: FourierField,
    params: SobolevIndex,
    proxy: NormProxyConfig,
    *,
    tables: _ProxyTables | None = None,
) -> float:
    """sup_t H^{s1} of duhamel(NR(u1,u2,u3)) over T^delta times the Y-proxy product.

    Exponents come from params and proxy contributes window and padding, so
    the denominator matches the solver's working norm.
    """
    denom = _input_proxy_product((u1, u2, u3), f, params, proxy, tables)
    U = duhamel_integrate(nr_framewise(u1, u2, u3), f, tables=tables)
    return xinfty_hs_norm(U, params.s1) / (u1.grid.T**params.delta * denom)


def trilinear_bourgain_ratio(
    u1: Trajectory,
    u2: Trajectory,
    u3: Trajectory,
    f: FourierField,
    params: SobolevIndex,
    proxy: NormProxyConfig,
    *,
    tables: _ProxyTables | None = None,
) -> float:
    """Y-proxy of NR(u1,u2,u3) at exponent b-1+delta over the product at b."""
    denom = _input_proxy_product((u1, u2, u3), f, params, proxy, tables)
    out_b = params.b - 1.0 + params.delta
    out = nr_framewise(u1, u2, u3)
    return ysb_norm_proxy(out, params.s0, out_b, f, proxy, tables=tables) / denom


def quotient_form_ratio(
    v1: FourierField,
    v2: FourierField,
    v3: FourierField,
    f: FourierField,
    params: SobolevIndex,
    cutoff: int,
    case: str | None = None,
    *,
    plan: _QuotientPlan | None = None,
) -> float:
    """H^{s1} of the kernel-weighted quotient form over the product of H^{s0} norms."""
    denom = 1.0
    for v in (v1, v2, v3):
        denom *= sobolev_norm(v, params.s0)
    out = trilinear_quotient_form(v1, v2, v3, f, cutoff=cutoff, case=case, plan=plan)
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


def _degenerate(scales) -> bool:
    """True unless every scale is finite and above DEGENERATE_FLOOR."""
    return not np.all(np.isfinite(scales) & (scales > DEGENERATE_FLOOR))


def _run_probe(
    kind: str, f: FourierField, spec: EnsembleSpec, prepare: Callable[..., Callable]
) -> ProbeReport:
    """Shared sample loop: draw, then per cutoff prepare, evaluate each sample's centre, reduce.

    The contract of prepare is in the module docstring; a cutoff's evaluate
    is dropped before the next cutoff is prepared. Only the headline cutoff
    adds to ratios, skipped and the argmax, in sample order; the normalized
    fields, fields / scales, are formed and serialized only for a new best
    sample.
    """
    if f.K != spec.K:
        raise GridMismatchError(f"profile cutoff {f.K} does not match ensemble K {spec.K}")
    K = spec.K
    cutoffs = spec.cutoffs()
    fields, bumps = _draw_ensemble(spec)
    raw_max: dict[int, float | None] = {c: None for c in cutoffs}
    ratios: list[float] = []
    per_case: dict[str, float] = {}
    skipped = 0
    best = -np.inf
    argmax_sample: dict | None = None
    for c in cutoffs:
        centre = slice(K - c, K + c + 1)
        evaluate = prepare(resize_field(f, c), c)
        for j in range(spec.count):
            nu = None if bumps is None else bumps[j, :, centre]
            result = evaluate(fields[j, :, centre], nu)
            if result is None:
                if c == K:
                    skipped += 1
                continue
            ratio, scales, (cases, extra) = result
            if raw_max[c] is None or ratio > raw_max[c]:
                raw_max[c] = ratio
            if c != K:
                continue
            ratios.append(ratio)
            for case, r in cases.items():
                per_case[case] = max(per_case.get(case, r), r)
            if ratio > best:
                best = ratio
                rows = _frame_rows(_pairs(fields[j] / scales[:, None]))
                argmax_sample = {"sample": j, "K": c, "ratio": ratio, "fields": rows, **extra}
        del evaluate
    return ProbeReport(
        kind=kind,
        spec=spec,
        valid_samples=len(ratios),
        skipped=skipped,
        ratios=tuple(ratios),
        per_K=_cumulative_per_k(cutoffs, raw_max),
        argmax_sample=argmax_sample,
        extras={"per_case_max": per_case} if per_case else {},
    )


def _trajectory_preparer(spec: EnsembleSpec, ratio: Callable[..., float]) -> Callable:
    """The prepare of the trajectory probes; its contract is in the module docstring.

    A cutoff's tables hold the weights of the inputs and of probe12's
    output and, without bumps, the growth factor.
    """
    params, proxy = spec.params, spec.proxy
    exponents = ((params.s0, params.b), (params.s0, params.b - 1.0 + params.delta))

    def prepare(fc, c):
        grid = GridSpec(c, spec.M, spec.T)
        tables = _proxy_tables(grid, fc, proxy, exponents, growth=not spec.modulation_bumps)

        def evaluate(fields, bumps):
            scales = _free_proxy_norms(fields, tables, params.s0, params.b, bumps)
            if _degenerate(scales):
                return None
            trajs = [
                free_modulated_trajectory(_mark(FourierField(g / d)), fc, grid, nu, tables=tables)
                for g, d, nu in zip(fields, scales, (None,) * 3 if bumps is None else bumps)
            ]
            return ratio(*trajs, fc, params, proxy, tables=tables), scales, ({}, {})

        return evaluate

    return prepare


def probe_duhamel_smoothing(f: FourierField, spec: EnsembleSpec) -> ProbeReport:
    """Ensemble search for the largest Duhamel-smoothing ratio."""
    prepare = _trajectory_preparer(spec, duhamel_smoothing_ratio)
    return _run_probe("probe16", f, spec, prepare)


def probe_trilinear_bourgain(f: FourierField, spec: EnsembleSpec) -> ProbeReport:
    """Ensemble search for the largest trilinear Y-proxy ratio."""
    prepare = _trajectory_preparer(spec, trilinear_bourgain_ratio)
    return _run_probe("probe12", f, spec, prepare)


def probe_quotient_form(f: FourierField, spec: EnsembleSpec) -> ProbeReport:
    """Ensemble search over the static quotient form, binned by frequency case.

    The per-sample ratio is the larger of the two case ratios; both are
    kept in the report extras. Each cutoff builds its triple table, the
    truncation level protecting the denominators of its truncated profile
    and, in one walk of the table, both case plans; only the plans outlive
    prepare. The static form takes no modulation_bumps: a nonzero value
    raises ConfigError.
    """
    if spec.modulation_bumps:
        bumps = spec.modulation_bumps
        raise ConfigError(f"modulation_bumps applies to probe16 and probe12, got {bumps!r}")
    params = spec.params

    def prepare(fc, c):
        table = _triple_table(c)
        k0 = select_frequency_cutoff(fc, table=table)
        plans = {p.case: p for p in _quotient_plan(fc, k0, ("comparable", "separated"), table)}

        def evaluate(fields, bumps):
            scales = hs_norms(fields, params.s0)
            if _degenerate(scales):
                return None
            v1, v2, v3 = (_mark(FourierField(g)) for g in fields / scales[:, None])
            cases = {
                case: quotient_form_ratio(v1, v2, v3, fc, params, k0, case, plan=plan)
                for case, plan in plans.items()
            }
            return max(cases.values()), scales, (cases, {"frequency_cutoff": k0})

        return evaluate

    return _run_probe("probe700", f, spec, prepare)


SMOOTHING_COLUMNS = ("remainder_hs1", "gap_sum_weight1", "gap_sum_upgraded", "gap_sup_weight1")


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
        return {c: float(np.max(getattr(self, c))) for c in SMOOTHING_COLUMNS}


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
