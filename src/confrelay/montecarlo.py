"""Reproducible trial runner, sweep engine, and signal-level oracles.

Determinism contract
--------------------
Every result is a pure function of its arguments.  The realization used for
trial ``t`` is seeded with ``model.derive_seed(base_seed, t)``, a SplitMix64
mixer, so which realization a trial sees never depends on how trials are
grouped: per-trial rates land in one index-addressed (scheme, trial) array,
and the aggregation reduces all of its rows at once, each in index order, to
the bits ``np.mean`` and ``np.std`` give row by row.  Trials are drawn by
``model._trial_squares``, in the blocks its docstring describes, and
evaluated in the calling thread.  Rows of at least 800 normals are drawn in
slabs by the calling thread and by at most one daemon helper thread per
other usable CPU, each with its own generator (``model._Fill``); the caller
never waits on a row that no thread is drawing, and the output is
bit-identical on any number of CPUs and at any ``--workers`` value.  Walks
of the same run share the squared rows each thread keeps of its first
trials (``model._first_rows``), and the first walk computes each block of
them as soon as its rows are drawn; :func:`sweep` starts drawing them at
its widest point before its first point.

A realization carries only the fading gains ``h`` and ``g``; every rate and
oracle reads the conferencing gains and the channel moments
(``model.moments(cfg)``, built with the configuration) from the configuration
it is given.

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
from typing import Sequence

import numpy as np

from .model import (
    ChannelRealization,
    ConfigurationError,
    NetworkConfig,
    Portion,
    _abs_squared,
    _draw_ahead,
    _integer,
    _number,
    _seed,
    _trial_squares,
    moments,
)
from . import rates

AXES = ("n_relays", "portion", "conf_snr_db")

_ORACLE_CHUNK = 16384


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
    schemes: tuple = rates.SCHEMES

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigurationError(f"unknown sweep axis {self.axis!r}")
        vals = tuple(float(_number(v, "sweep axis value")) for v in self.values)
        if not vals:
            raise ConfigurationError("sweep needs at least one axis value")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigurationError("axis values must be strictly increasing")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "trials", _integer(self.trials, "trials"))
        object.__setattr__(self, "schemes", rates.scheme_names(self.schemes))
        object.__setattr__(self, "base_seed", _seed(self.base_seed, "base_seed"))


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


def _rate_table(points: Sequence[tuple[NetworkConfig, Sequence[str]]],
                trials: int, base_seed: int) -> list[tuple[tuple, np.ndarray]]:
    """Per ``(cfg, schemes)`` point, its distinct schemes in order and one
    float64 array of shape (schemes, trials) whose row ``i`` holds the rates
    of scheme ``i``: entry ``t`` is the rate on
    ``sample_realization(cfg, derive_seed(base_seed, t))``.

    The points share one walk of ``model._trial_squares``: each block's
    normals are drawn once for all of them, and each point's kernels run on
    its squares before the next point's are built.  A trial's rate does not
    depend on the block it falls in or on the other points of the walk.
    """
    kernels = [rates.scheme_kernels(cfg, schemes) for cfg, schemes in points]
    tables = [np.empty((len(k), trials)) for k in kernels]
    second_hop = any(rates.reads_second_hop(k) for k in kernels)
    for i, lo, hi, h2, g2 in _trial_squares([cfg for cfg, _ in points],
                                            base_seed, trials, second_hop):
        for row, kernel in zip(tables[i], kernels[i].values()):
            row[lo:hi] = kernel(h2, g2)
    return [(tuple(k), v) for k, v in zip(kernels, tables)]


def _reduce_rows(v: np.ndarray) -> tuple:
    """Per row of a (rows, trials) rate table, reduced all at once, each in
    index order with the steps of ``np.mean`` and ``np.std`` row by row:
    ``(total, m2, first, constant)``, the sums, the sums of squared
    deviations from the row means, the first values, and whether every value
    of a row equals its first.

    The squared deviations are taken in place on ``v``; when every row is
    constant or holds one value, ``m2`` is zero and ``v`` is left as it is.
    """
    n = v.shape[1]
    total = np.add.reduce(v, axis=1)
    first = v[:, 0].copy()
    constant = (v == first[:, None]).all(axis=1)
    m2 = np.zeros(len(v))
    if n > 1 and not constant.all():
        v -= (total / n)[:, None]
        np.square(v, out=v)
        m2 = np.add.reduce(v, axis=1)
    return total, m2, first, constant


def run_point(cfg: NetworkConfig, trials: int, base_seed: int,
              schemes: Sequence[str] = rates.SCHEMES) -> PointResult:
    """Monte Carlo statistics of the requested schemes at one configuration.

    All schemes are reduced in one stacked pass over the trial rates, in place
    on their array (:func:`_reduce_rows`); each mean and standard error equals
    ``np.mean`` and ``np.std(ddof=1) / sqrt(trials)`` of the scheme's own
    rates, bit for bit.
    Scheme precondition failures (AF and DF need p_c > 0 when M >= 1) are
    reported in ``errors`` and do not stop the remaining schemes; an
    unknown scheme name raises :class:`ConfigurationError`.
    """
    trials = _integer(trials, "trials")
    base_seed = _seed(base_seed, "base_seed")
    names = rates.scheme_names(schemes)
    errors = rates._scheme_errors(cfg, names)
    runnable = [s for s in names if s not in errors]
    if not runnable:
        return PointResult(stats={}, errors=errors)
    [(names, v)] = _rate_table([(cfg, runnable)], trials, base_seed)
    total, m2, first, constant = _reduce_rows(v)
    # np.std's last steps: the sum over trials - 1 degrees of freedom, the
    # square root (m2 is zero when a single trial or constant rows leave
    # nothing to spread).
    se = np.sqrt(m2 / max(trials - 1, 1)) / math.sqrt(trials)
    stats = {}
    for s, f, c, m, e in zip(names, first.tolist(), constant.tolist(),
                             (total / trials).tolist(), se.tolist()):
        # Deterministic configurations reproduce the single-shot rate
        # exactly, without summation round-off.
        stats[s] = SchemeStats(mean_rate=f if c else m,
                               std_error=0.0 if c else e, trials=trials)
    return PointResult(stats=stats, errors=errors)


def apply_axis(base: NetworkConfig, axis: str, value: float) -> NetworkConfig:
    """Configuration at one sweep point."""
    value = _number(value, "sweep axis value")
    if axis == "n_relays":
        return replace(base, n_relays=value)
    if axis == "portion":
        return replace(base, conferencing=Portion(float(value)))
    if axis == "conf_snr_db":
        db = float(value)
        try:
            p_c = base.n_0 * 10.0 ** (db / 10.0)
        except OverflowError:
            p_c = math.inf
        # -inf dB is Pc = 0; any other dB must give a positive, finite Pc.
        if db != -math.inf and not 0.0 < p_c < math.inf:
            raise ConfigurationError(
                f"conf_snr_db axis value {value} dB puts p_c = n_0 * 10^(dB/10) "
                "out of floating-point range")
        return replace(base, p_c=p_c)
    raise ConfigurationError(f"unknown sweep axis {axis!r}")


def sweep_point(cfg: NetworkConfig, axis_value: float, trials: int,
                base_seed: int, schemes: Sequence[str]) -> SweepPoint:
    """Run one point and record its resolved parameters."""
    ratio = cfg.p_c / cfg.n_0
    if cfg.p_c == 0:
        pc_db = -math.inf
    elif 0 < ratio < math.inf:
        pc_db = 10.0 * math.log10(ratio)
    else:  # a ratio out of floating-point range is still a finite dB value
        pc_db = 10.0 * (math.log10(cfg.p_c) - math.log10(cfg.n_0))
    return SweepPoint(axis_value=axis_value, n_relays=cfg.n_relays,
                      m_conf=cfg.m_conf, p_effective=cfg.p_effective,
                      pc_over_n0_db=pc_db,
                      result=run_point(cfg, trials, base_seed, schemes))


def sweep(spec: SweepSpec) -> SweepResult:
    """Run one point per axis value; all points share the same base seed.

    Every point's configuration is built before any trial is drawn.  The
    run's first rows are then drawn once, at the widest point's count of
    normals (``model._draw_ahead``), and each point's walk reads its prefix
    of them.
    """
    configs = [apply_axis(spec.base, spec.axis, v) for v in spec.values]
    _draw_ahead(configs, spec.base_seed, spec.trials,
                rates.reads_second_hop(spec.schemes))
    points = tuple(sweep_point(cfg, v, spec.trials, spec.base_seed, spec.schemes)
                   for cfg, v in zip(configs, spec.values))
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
    rng = np.random.default_rng(_seed(seed, "seed"))

    def normals(shape):
        # rng.normal(0.0, scale, shape) bit for bit, without its loc + scale * z
        # per element: standard normals, scaled in place.
        z = rng.standard_normal(shape)
        z *= scale
        return z

    w_sum = 0.0
    w_sq_sum = 0.0
    for lo in range(0, symbol_trials, _ORACLE_CHUNK):
        c = min(_ORACLE_CHUNK, symbol_trials - lo)
        x = np.exp(2j * np.pi * rng.random(c))
        noises = [normals((c,) + s) + 1j * normals((c,) + s) for s in noise_shapes]
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
                    factors: np.ndarray, x: np.ndarray,
                    relay_noise: np.ndarray, conf_noise: np.ndarray,
                    dest_noise: np.ndarray) -> np.ndarray:
    """Literal AF chain: first hop, conference, combine, scale, second hop."""
    n, m = cfg.n_relays, cfg.m_conf
    first_hop = math.sqrt(cfg.p_s) * real.h[None, :] * x[:, None] + relay_noise
    combined = np.conj(real.h)[None, :] * first_hop
    # Lag k of the first hop, np.roll(first_hop, k, axis=1), is the slice of
    # columns n - k to 2n - k of the block doubled along the relays.
    doubled = np.concatenate((first_hop, first_hop), axis=1)
    m2_h = moments(cfg).m2_h
    for k in range(1, m + 1):
        m2_sender = np.roll(m2_h, k)
        f_link = (cfg.conf_gain if np.isscalar(cfg.conf_gain)
                  else np.roll(cfg.conf_gain[:, k - 1], k))
        tx_scale = np.sqrt(cfg.p_c / (cfg.p_s * m2_sender + cfg.n_0))
        conf_rx = tx_scale * f_link * doubled[:, n - k:2 * n - k] + conf_noise[:, :, k - 1]
        undo = np.sqrt((cfg.p_s * m2_sender + cfg.n_0) / cfg.p_c) / f_link
        combined = combined + undo * np.conj(np.roll(real.h, k))[None, :] * conf_rx
    relay_tx = factors[None, :] * math.sqrt(cfg.p_r) * np.conj(real.g)[None, :] * combined
    return relay_tx @ real.g + dest_noise


def signal_oracle_af(real: ChannelRealization, cfg: NetworkConfig,
                     symbol_trials: int, seed: int) -> OracleResult:
    """Empirical AF destination SINR from a full signal-path simulation.

    Without conferencing power the AF power factors raise
    :class:`PreconditionError`.
    """
    symbol_trials = _integer(symbol_trials, "symbol_trials")
    rates._squared_gains(real, cfg)
    chain = functools.partial(_af_destination, real, cfg, rates.af_power_factors(cfg))
    return _oracle(chain, ((cfg.n_relays,), (cfg.n_relays, cfg.m_conf), ()),
                   symbol_trials, seed, cfg.n_0)


def signal_oracle_df_mac(real: ChannelRealization, cfg: NetworkConfig,
                         symbol_trials: int, seed: int) -> OracleResult:
    """Empirical received SNR of the coherent second hop."""
    symbol_trials = _integer(symbol_trials, "symbol_trials")
    rates._squared_gains(real, cfg)
    weights = rates._mac_weights(cfg) * np.conj(real.g)

    def chain(x, dest_noise):
        return (weights[None, :] * x[:, None]) @ real.g + dest_noise

    return _oracle(chain, ((),), symbol_trials, seed, cfg.n_0)


def analytic_df_mac_snr(real: ChannelRealization, cfg: NetworkConfig) -> float:
    """Closed-form second-hop SNR the oracle is compared against."""
    return float(rates._mac_snr(rates._squared_gains(real, cfg)[1], cfg,
                                rates._mac_weights(cfg)))
