"""Reproducible trial runner, sweep engine, and signal-level oracles.

Determinism contract
--------------------
Every result is a pure function of its arguments.  The realization used for
trial ``t`` is seeded with ``derive_seed(base_seed, t)``, a SplitMix64-style
mixer, so which realization a trial sees never depends on how trials are
grouped: per-trial rates land in one index-addressed (scheme, trial) array,
and the aggregation reduces all of its rows at once, each in index order, to
the bits ``np.mean`` and ``np.std`` give row by row.  Trials are evaluated in
one thread, in blocks whose size follows from the network size alone.

A realization carries only the fading gains ``h`` and ``g``; every rate and
oracle reads the conferencing gains from the configuration it is given.

The signal-level oracles validate the closed-form SINR expressions without
using them: they push unit-power symbols and freshly drawn receiver,
conferencing, and destination noise through the literal relaying chain, peel
off the (noise-free) symbol coefficient, and compare measured signal and
noise powers.  Symbols are drawn with constant modulus so the only
statistical error left is in the noise-power estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .model import (
    MASK64,
    _GOLDEN,
    _MIX1,
    _MIX2,
    ChannelRealization,
    ConfigurationError,
    MomentSet,
    NetworkConfig,
    Portion,
    _TrialSeeds,
    _abs_squared,
    _sampled_squares,
    moments,
)
from . import rates

SCHEMES = rates.SCHEMES
AXES = ("n_relays", "portion", "conf_snr_db")

_ORACLE_CHUNK = 16384

# Realizations times relays evaluated at once by the trial engine; bounds its
# working memory independently of the network size.
_BLOCK_ELEMENTS = 2 ** 14


def derive_seed(base_seed: int, trial: int) -> int:
    """Mix (base_seed, trial) into a 64-bit realization seed.

    SplitMix64 finalizer over base_seed + GOLDEN*(trial+1); fixed here so
    parallel scheduling can never change which realization a trial sees.
    """
    z = (int(base_seed) + _GOLDEN * (int(trial) + 1)) & MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return z


# ---------------------------------------------------------------------------
# Point and sweep execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeStats:
    """Mean rate and standard error (sample std / sqrt(trials)) of one scheme."""

    mean_rate: float
    std_error: float
    trials: int


@dataclass(frozen=True, eq=False)
class PointResult:
    """Per-scheme statistics plus per-scheme precondition failures."""

    stats: dict
    errors: dict


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """One swept axis over a base configuration.

    ``axis`` is ``n_relays``, ``portion``, or ``conf_snr_db``; the last sets
    p_c = n_0 * 10^(dB/10) per point.
    """

    base: NetworkConfig
    axis: str
    values: tuple
    trials: int
    base_seed: int
    schemes: tuple = SCHEMES

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigurationError(f"unknown sweep axis {self.axis!r}")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ConfigurationError("sweep needs at least one axis value")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigurationError("axis values must be strictly increasing")
        object.__setattr__(self, "values", vals)
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        schemes = tuple(sorted(set(self.schemes)))
        unknown = [s for s in schemes if s not in SCHEMES]
        if unknown or not schemes:
            raise ConfigurationError(f"schemes must be a nonempty subset of {SCHEMES}")
        object.__setattr__(self, "schemes", schemes)
        object.__setattr__(self, "base_seed", int(self.base_seed) & MASK64)


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """Resolved parameters and results of one sweep point."""

    axis_value: float
    n_relays: int
    m_conf: int
    p_effective: float
    pc_over_n0_db: float
    result: PointResult


@dataclass(frozen=True, eq=False)
class SweepResult:
    """All sweep points, replayable from (axis, base_seed, trials)."""

    axis: str
    points: tuple
    trials: int
    base_seed: int


def _rate_table(cfg: NetworkConfig, mom: MomentSet, trials: int,
                base_seed: int, schemes: Sequence[str]) -> tuple[tuple, np.ndarray]:
    """The distinct schemes in order, and one float64 array of shape
    (schemes, trials) whose row ``i`` holds the rates of scheme ``i``; see
    :func:`trial_rates`."""
    kernels = rates.scheme_kernels(cfg, mom, schemes)
    second_hop = rates.reads_second_hop(kernels)
    values = np.empty((len(kernels), trials))
    block = max(1, _BLOCK_ELEMENTS // cfg.n_relays)
    for lo in range(0, trials, block):
        hi = min(lo + block, trials)
        h2, g2 = _sampled_squares(cfg, _TrialSeeds(base_seed, lo, hi, trials),
                                  second_hop)
        for row, kernel in zip(values, kernels.values()):
            row[lo:hi] = kernel(h2, g2)
    return tuple(kernels), values


def trial_rates(cfg: NetworkConfig, mom: MomentSet, trials: int, base_seed: int,
                schemes: Sequence[str]) -> dict:
    """Rate of each scheme in every trial, as a float64[trials] row per scheme.

    The rows are those of one (schemes, trials) array.  Entry ``t`` is
    the rate on ``sample_realization(cfg, derive_seed(base_seed, t))``.  The
    per-configuration invariants are computed once; realizations are drawn
    and evaluated in blocks of ``max(1, _BLOCK_ELEMENTS // N)`` trials, and
    each trial's rate does not depend on the block it falls in.
    """
    names, values = _rate_table(cfg, mom, trials, base_seed, schemes)
    return dict(zip(names, values))


def run_point(cfg: NetworkConfig, trials: int, base_seed: int,
              schemes: Sequence[str] = SCHEMES) -> PointResult:
    """Monte Carlo statistics of the requested schemes at one configuration.

    All schemes are reduced in one stacked pass over the trial rates, in place
    on their array; each mean and standard error equals ``np.mean`` and
    ``np.std(ddof=1) / sqrt(trials)`` of the scheme's own rates, bit for bit.
    Scheme precondition failures (:func:`rates.scheme_precondition_error`)
    are reported in ``errors`` and do not stop the remaining schemes.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    reasons = {s: rates.scheme_precondition_error(cfg, s) for s in sorted(set(schemes))}
    errors = {s: msg for s, msg in reasons.items() if msg is not None}
    runnable = [s for s, msg in reasons.items() if msg is None]
    if not runnable:
        return PointResult(stats={}, errors=errors)
    names, v = _rate_table(cfg, moments(cfg), trials, base_seed, runnable)
    first = v[:, 0].tolist()
    constant = (v == v[:, :1]).all(axis=1).tolist()
    mean = np.add.reduce(v, axis=1) / trials
    if trials > 1 and not all(constant):
        # np.std's steps, in place: squared deviations from the mean, their
        # sum over trials - 1 degrees of freedom, the square root.
        v -= mean[:, None]
        np.square(v, out=v)
        se = (np.sqrt(np.add.reduce(v, axis=1) / (trials - 1))
              / math.sqrt(trials)).tolist()
    else:
        se = [0.0] * len(names)
    stats = {}
    for s, f, c, m, e in zip(names, first, constant, mean.tolist(), se):
        # Deterministic configurations reproduce the single-shot rate
        # exactly, without summation round-off.
        stats[s] = SchemeStats(mean_rate=f if c else m,
                               std_error=0.0 if c else e, trials=trials)
    return PointResult(stats=stats, errors=errors)


def apply_axis(base: NetworkConfig, axis: str, value: float) -> NetworkConfig:
    """Configuration at one sweep point."""
    if axis == "n_relays":
        n = int(value)
        if n != value or n < 1:
            raise ConfigurationError(f"n_relays axis values must be positive integers, got {value}")
        return replace(base, n_relays=n)
    if axis == "portion":
        return replace(base, conferencing=Portion(float(value)))
    if axis == "conf_snr_db":
        return replace(base, p_c=base.n_0 * 10.0 ** (float(value) / 10.0))
    raise ConfigurationError(f"unknown sweep axis {axis!r}")


def sweep_point(cfg: NetworkConfig, axis_value: float, trials: int,
                base_seed: int, schemes: Sequence[str]) -> SweepPoint:
    """Run one point and record its resolved parameters."""
    pc_db = 10.0 * math.log10(cfg.p_c / cfg.n_0) if cfg.p_c > 0 else -math.inf
    return SweepPoint(axis_value=axis_value, n_relays=cfg.n_relays,
                      m_conf=cfg.m_conf, p_effective=cfg.p_effective,
                      pc_over_n0_db=pc_db,
                      result=run_point(cfg, trials, base_seed, schemes))


def sweep(spec: SweepSpec) -> SweepResult:
    """Run one point per axis value; all points share the same base seed."""
    points = tuple(sweep_point(apply_axis(spec.base, spec.axis, v), v,
                               spec.trials, spec.base_seed, spec.schemes)
                   for v in spec.values)
    return SweepResult(axis=spec.axis, points=points,
                       trials=spec.trials, base_seed=spec.base_seed)


# ---------------------------------------------------------------------------
# Signal-level oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    """Empirical SINR, its standard error, and the symbol-draw count."""

    sinr: float
    std_error: float
    draws: int


def _oracle(chain, noise_shapes: Sequence[tuple], symbol_trials: int,
            seed: int, level: float) -> OracleResult:
    """Empirical SINR at the output of the linear relaying ``chain(x, *noises)``.

    ``noise_shapes`` lists the per-symbol shape of each noise block the chain
    adds.  The symbol coefficient is the chain's output for x = 1 without
    noise.  Each chunk draws its unit-modulus symbols, then each noise block in
    turn as circularly symmetric complex Gaussian noise of power ``level``
    (real parts, then imaginary parts); what is left of the output after the
    symbol's share is the noise at the destination.
    """
    coef = complex(chain(np.ones(1, dtype=complex),
                         *(np.zeros((1,) + s, dtype=complex) for s in noise_shapes))[0])
    signal_power = _abs_squared(coef)
    scale = math.sqrt(level / 2.0)
    rng = np.random.default_rng(int(seed) & MASK64)
    w_sum = 0.0
    w_sq_sum = 0.0
    for lo in range(0, symbol_trials, _ORACLE_CHUNK):
        c = min(_ORACLE_CHUNK, symbol_trials - lo)
        x = np.exp(2j * np.pi * rng.random(c))
        noises = [rng.normal(0.0, scale, (c,) + s)
                  + 1j * rng.normal(0.0, scale, (c,) + s) for s in noise_shapes]
        w = np.abs(chain(x, *noises) - coef * x) ** 2
        w_sum += float(np.sum(w))
        w_sq_sum += float(np.sum(w * w))
    noise_power = w_sum / symbol_trials
    # Residue far below the double-precision floor of the signal is the
    # chain's own round-off, not simulated noise.
    if noise_power <= signal_power * 1e-25:
        return OracleResult(sinr=math.inf, std_error=0.0, draws=symbol_trials)
    sinr = signal_power / noise_power
    var_w = max(w_sq_sum / symbol_trials - noise_power * noise_power, 0.0)
    se = sinr * math.sqrt(var_w) / (math.sqrt(symbol_trials) * noise_power)
    return OracleResult(sinr=sinr, std_error=se, draws=symbol_trials)


def _af_destination(real: ChannelRealization, cfg: NetworkConfig,
                    mom: MomentSet, factors: np.ndarray, x: np.ndarray,
                    relay_noise: np.ndarray, conf_noise: np.ndarray,
                    dest_noise: np.ndarray) -> np.ndarray:
    """Literal AF chain: first hop, conference, combine, scale, second hop."""
    m = cfg.m_conf
    first_hop = math.sqrt(cfg.p_s) * real.h[None, :] * x[:, None] + relay_noise
    combined = np.conj(real.h)[None, :] * first_hop
    for k in range(1, m + 1):
        m2_sender = np.roll(mom.m2_h, k)
        f_link = (cfg.conf_gain if np.isscalar(cfg.conf_gain)
                  else np.roll(cfg.conf_gain[:, k - 1], k))
        tx_scale = np.sqrt(cfg.p_c / (cfg.p_s * m2_sender + cfg.n_0))
        conf_rx = tx_scale * f_link * np.roll(first_hop, k, axis=1) + conf_noise[:, :, k - 1]
        undo = np.sqrt((cfg.p_s * m2_sender + cfg.n_0) / cfg.p_c) / f_link
        combined = combined + undo * np.conj(np.roll(real.h, k))[None, :] * conf_rx
    relay_tx = factors[None, :] * math.sqrt(cfg.p_r) * np.conj(real.g)[None, :] * combined
    return relay_tx @ real.g + dest_noise


def signal_oracle_af(real: ChannelRealization, cfg: NetworkConfig,
                     mom: MomentSet, symbol_trials: int, seed: int,
                     noise_n0: Optional[float] = None) -> OracleResult:
    """Empirical AF destination SINR from a full signal-path simulation.

    ``noise_n0`` overrides the power of the drawn noise only (the chain's
    normalization constants keep using the configured level); passing 0
    exercises the infinite-SINR guard.  Without conferencing power the AF
    power factors raise :class:`PreconditionError`.
    """
    if symbol_trials < 1:
        raise ConfigurationError("symbol_trials must be >= 1")
    rates._squared_gains(real, cfg)
    chain = functools.partial(_af_destination, real, cfg, mom,
                              rates.af_power_factors(cfg, mom))
    return _oracle(chain, ((cfg.n_relays,), (cfg.n_relays, cfg.m_conf), ()),
                   symbol_trials, seed, cfg.n_0 if noise_n0 is None else float(noise_n0))


def signal_oracle_df_mac(real: ChannelRealization, cfg: NetworkConfig,
                         mom: MomentSet, symbol_trials: int, seed: int,
                         noise_n0: Optional[float] = None) -> OracleResult:
    """Empirical received SNR of the coherent second hop."""
    if symbol_trials < 1:
        raise ConfigurationError("symbol_trials must be >= 1")
    rates._squared_gains(real, cfg)
    weights = rates._mac_weights(cfg, mom) * np.conj(real.g)

    def chain(x, dest_noise):
        return (weights[None, :] * x[:, None]) @ real.g + dest_noise

    return _oracle(chain, ((),), symbol_trials, seed,
                   cfg.n_0 if noise_n0 is None else float(noise_n0))


def analytic_af_sinr(real: ChannelRealization, cfg: NetworkConfig,
                     mom: MomentSet) -> float:
    """Closed-form AF SINR the oracle is compared against."""
    return rates.af_sinr(real, cfg, mom)


def analytic_df_mac_snr(real: ChannelRealization, cfg: NetworkConfig,
                        mom: MomentSet) -> float:
    """Closed-form second-hop SNR the oracle is compared against."""
    q0 = rates.df_mac_gain(real, cfg, mom)
    return q0 * q0 / cfg.n_0
