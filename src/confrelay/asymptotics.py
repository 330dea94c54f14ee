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
    Neighbors,
    NetworkConfig,
    ChannelRealization,
    PreconditionError,
    UndefinedRatioError,
    _integer,
    _number,
)
from .montecarlo import _rate_table
from . import rates


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of rate against log2(N)."""

    slope: float
    intercept: float
    residual_rms: float
    points: tuple


@dataclass(frozen=True)
class TracePoint:
    """Mean rate and trial-averaged |rate - limit| at one network size."""

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
    cfg = NetworkConfig(n, Neighbors(0), h_dist=dist)
    return 2.0 * trace_points("upper", cfg, (n,), trials, seed)[0].mean_abs_gap


def scaling_fit(points: Sequence[tuple[int, float]]) -> ScalingFit:
    """Ordinary least squares of rate against log2(N).

    Requires at least three points with distinct network sizes; the points
    are sorted by increasing N in the returned fit.
    """
    pts = sorted((_integer(n, "network size"), float(_number(r, "rate")))
                 for n, r in points)
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


def _trace_configs(template: ConfigSource, n_values: Sequence[int]) -> list[NetworkConfig]:
    """The config of each size of a trace; the sizes must strictly increase."""
    configs = [template(n) if callable(template) else replace(template, n_relays=n)
               for n in n_values]
    if any(b.n_relays <= a.n_relays for a, b in zip(configs, configs[1:])):
        raise ConfigurationError("network sizes must be strictly increasing")
    return configs


def _fixed_limit(scheme: str, cfg: NetworkConfig):
    """Moment-form limit of the scheme's rate, or None when the limit is the
    per-realization cut-set bound."""
    if scheme == "df":
        return float(np.min(rates.df_rates_asymptotic(cfg)))
    if scheme == "af" and cfg.m_conf == cfg.n_relays - 1:
        return None  # complete conferencing tracks the realized bound
    return rates.capacity_upper_asymptotic(cfg)


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
    trials = _integer(trials, "trials")
    configs = _trace_configs(template, n_values)
    targets = [_fixed_limit(scheme, cfg) for cfg in configs]
    points = [(cfg, (scheme,) if target is not None else (scheme, "upper"))
              for cfg, target in zip(configs, targets)]
    out = []
    for cfg, target, (_, v) in zip(configs, targets, _rate_table(points, trials, seed)):
        # Row 0 holds the scheme's rates and, when the limit is the realized
        # cut-set bound, row 1 holds it: once the rates are summed,
        # |rate - limit| is written over the last row and summed in turn.
        rate_sum = np.add.reduce(v[0])
        gap = v[-1]
        np.subtract(v[0], v[1] if target is None else target, out=gap)
        np.abs(gap, out=gap)
        out.append(TracePoint(n_relays=cfg.n_relays, mean_rate=float(rate_sum) / trials,
                              mean_abs_gap=float(np.add.reduce(gap)) / trials))
    return out


def conferencing_noise_ratio(real: ChannelRealization,
                             cfg: NetworkConfig) -> ConferencingNoiseRatio:
    """Share q3/q2 of conferencing noise relative to forwarded receiver noise,
    with the conferencing gains of ``cfg``.

    Decays as the network grows, which is why low-power conferencing links
    suffice in large networks.
    """
    if cfg.m_conf < 1:
        raise PreconditionError("noise ratio requires at least one conferencing neighbor")
    _, q2, q3 = rates.af_q_terms(real, cfg)
    if q2 == 0.0:
        raise UndefinedRatioError("q2 is zero; the noise ratio is undefined")
    _, eq2, eq3 = rates.af_expected_q_terms(cfg)
    return ConferencingNoiseRatio(realized=q3 / q2, expected=eq3 / eq2)
