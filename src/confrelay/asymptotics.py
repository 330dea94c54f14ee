"""Large-network diagnostics: concentration, scaling fits, convergence traces.

The closed-form rates concentrate around their moment-based limits as the
network grows.  This module certifies that behavior at desk scale: gaps
between sampled rates and their limits are averaged over seeded trials across
an increasing grid of network sizes, and log-linear scaling laws are fitted
by ordinary least squares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .model import (
    ConfigurationError,
    DistributionSpec,
    MomentSet,
    Neighbors,
    NetworkConfig,
    ChannelRealization,
    PreconditionError,
    UndefinedRatioError,
    _integer,
    moments,
)
from .montecarlo import _rate_table, _reduce_rows
from . import rates


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of rate against log2(N)."""

    slope: float
    intercept: float
    residual_rms: float
    points: tuple


@dataclass(frozen=True)
class ConvergenceTrace:
    """Trial-averaged |rate - limit| per network size."""

    n_values: tuple
    gaps: tuple


@dataclass(frozen=True)
class TracePoint:
    """Per-size summary backing a convergence trace."""

    n_relays: int
    mean_rate: float
    mean_abs_gap: float


class ConferencingNoiseRatio(NamedTuple):
    """Realized q3/q2 plus its moment-based companion E(q3)/E(q2)."""

    realized: float
    expected: float


def lemma1_gap(dist: DistributionSpec, n: int, trials: int, seed: int) -> float:
    """Mean |log2(1 + sum X_i) - log2(1 + sum E X_i)| with X_i = |h_i|^2.

    At p_s = n_0 this is twice the gap between the cut-set rate and its
    moment form, so it is twice the ``upper`` trace of a network of ``n``
    relays with first-hop law ``dist`` (:func:`trace_points`): trial ``t``
    reads the first-hop gains of ``sample_realization`` at
    ``derive_seed(seed, t)``, through the Monte Carlo engine.
    """
    if n < 1 or trials < 1:
        raise ConfigurationError("n and trials must both be >= 1")
    cfg = NetworkConfig(n, Neighbors(0), h_dist=dist)
    return 2.0 * trace_points("upper", cfg, (n,), trials, seed)[0].mean_abs_gap


def scaling_fit(points: Sequence[tuple[int, float]]) -> ScalingFit:
    """Ordinary least squares of rate against log2(N).

    Requires at least three points with distinct network sizes; the points
    are sorted by increasing N in the returned fit.
    """
    pts = sorted((int(n), float(r)) for n, r in points)
    ns = np.array([p[0] for p in pts], dtype=float)
    if len(np.unique(ns)) != len(ns) or len(ns) < 3:
        raise ConfigurationError("scaling fit needs at least 3 points with distinct "
                                 f"network sizes, got sizes {[p[0] for p in pts]}")
    x = np.log2(ns)
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid * resid))),
        points=tuple(pts),
    )


ConfigSource = Union[NetworkConfig, Callable[[int], NetworkConfig]]


def _config_for(template: ConfigSource, n: int) -> NetworkConfig:
    if callable(template):
        return template(n)
    return replace(template, n_relays=n)


def _fixed_limit(scheme: str, cfg: NetworkConfig, mom: MomentSet):
    """Moment-form limit of the scheme's rate, or None when the limit is the
    per-realization cut-set bound."""
    if scheme == "df":
        return float(np.min(rates.df_rates_asymptotic(cfg, mom)))
    if scheme == "af" and cfg.m_conf == cfg.n_relays - 1:
        return None  # complete conferencing tracks the realized bound
    return rates.capacity_upper_asymptotic(cfg, mom)


def trace_points(scheme: str, template: ConfigSource, n_values: Sequence[int],
                 trials: int, seed: int) -> list[TracePoint]:
    """Mean rate and mean |rate - limit| per network size for one scheme.

    Limits per scheme: ``upper`` and (under i.i.d. fading) ``af`` converge to
    the moment form of the cut-set bound; with complete conferencing the AF
    limit is the per-realization cut-set bound itself; ``df`` converges to
    the smallest per-relay moment-form rate.

    Every size runs the same trials from ``seed`` in one walk of the Monte
    Carlo engine: trial ``t`` is drawn once, at the widest size's count of
    normals, and each size reads a prefix of that row, which is exactly its
    own draw.  Each size's rates are kept until the walk ends, at most
    2 * trials float64 per size.
    """
    rates.scheme_names((scheme,))
    ns = list(n_values)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigurationError("network sizes must be strictly increasing")
    trials = _integer(trials, "trials")
    points, targets = [], []
    for n in ns:
        cfg = _config_for(template, n)
        mom = moments(cfg)
        target = _fixed_limit(scheme, cfg, mom)
        points.append((cfg, mom, (scheme,) if target is not None else (scheme, "upper")))
        targets.append(target)
    out = []
    for (cfg, _, _), target, (_, v) in zip(points, targets, _rate_table(points, trials, seed)):
        # Row 0 holds the scheme's rates and, when the limit is the realized
        # cut-set bound, row 1 holds it: once the rates are summed,
        # |rate - limit| is written over the last row and summed in turn.
        rate_sum = _reduce_rows(v, spread=False)[0][0]
        gap = v[-1:]
        np.subtract(v[0], v[1] if target is None else target, out=gap[0])
        np.abs(gap, out=gap)
        gap_sum = _reduce_rows(gap, spread=False)[0][0]
        out.append(TracePoint(n_relays=cfg.n_relays, mean_rate=float(rate_sum) / trials,
                              mean_abs_gap=float(gap_sum) / trials))
    return out


def convergence_trace(scheme: str, template: ConfigSource,
                      n_values: Sequence[int], trials: int,
                      seed: int) -> ConvergenceTrace:
    """Trial-averaged gap to the scheme's limit across increasing sizes."""
    pts = trace_points(scheme, template, n_values, trials, seed)
    return ConvergenceTrace(
        n_values=tuple(p.n_relays for p in pts),
        gaps=tuple(p.mean_abs_gap for p in pts),
    )


def conferencing_noise_ratio(real: ChannelRealization, cfg: NetworkConfig,
                             mom: MomentSet) -> ConferencingNoiseRatio:
    """Share q3/q2 of conferencing noise relative to forwarded receiver noise,
    with the conferencing gains of ``cfg``.

    Decays as the network grows, which is why low-power conferencing links
    suffice in large networks.
    """
    if cfg.m_conf < 1:
        raise PreconditionError("noise ratio requires at least one conferencing neighbor")
    _, q2, q3 = rates.af_q_terms(real, cfg, mom)
    if q2 == 0.0:
        raise UndefinedRatioError("q2 is zero; the noise ratio is undefined")
    _, eq2, eq3 = rates.af_expected_q_terms(cfg, mom)
    return ConferencingNoiseRatio(realized=q3 / q2, expected=eq3 / eq2)
