"""Closed-form per-realization rates for the conferencing relay network.

All rates are in bits per channel use: logarithms are base 2 and every rate
carries the half-duplex prefactor 1/2.  Three quantities are evaluated per
channel realization:

* the broadcast cut-set upper bound,
* the decode-and-forward (DF) rate, where each relay combines its direct
  observation with the conferenced copies (ratio combining across independent
  noisy observations) and all relays retransmit coherently,
* the amplify-and-forward (AF) rate, where each relay linearly combines its
  own and the conferenced observations, scales to its power budget, and
  forwards.

The AF destination SINR decomposes into a signal coefficient ``q1`` and two
aggregate noise coefficients: ``q2`` collects the forwarded first-hop receiver
noise and ``q3`` the forwarded conferencing-link noise.  Asymptotic (moment
based) companions of each rate are provided for the large-network limits.

Index convention: relay ``i`` receives conferenced signals from the M relays
``i-1, ..., i-M`` (mod N).  The conferencing transmit normalization always
uses the second moment of the *sending* relay's source link, which is what
makes the forwarded signal respect the conferencing power budget.

Every formula is written once, as a kernel over the last axis of arrays of
squared gains ``|h|^2`` and ``|g|^2``: leading axes index realizations.
:func:`scheme_kernels` binds the per-configuration invariants once for the
batched Monte Carlo engine.  Each per-realization rate is its scheme's kernel
at one realization, through the one helper ``_realized``, with no second
formula; the moment forms call the formulas on the second moments.  Every
function reads the moments of the configuration it is given,
``model.moments(cfg)``, which the configuration built; none takes a moment set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import (
    ChannelRealization,
    ConfigurationError,
    NetworkConfig,
    PreconditionError,
    moments,
)

LOG2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class RateReport:
    """Every per-realization rate and AF coefficient in one record."""

    c_upper: float
    df_relay_rates: np.ndarray
    df_mac_rate: float
    df_rate: float
    af_q1: float
    af_q2: float
    af_q3: float
    af_rate: float


# ---------------------------------------------------------------------------
# Cyclic window sums (along the last axis)
# ---------------------------------------------------------------------------

# Keep the doubled array in _cumsum2: the bench reference (relative 1e-12)
# pins this summation order, and one prefix sum of length n + 1 plus the total
# moved the DF gap of ``diagnose`` at N=2000 by 1.61e-12 relative.
def _cumsum2(v: np.ndarray, count: int) -> np.ndarray:
    """Leading 0, then the running sums of the first ``count`` entries of v
    repeated twice along the last axis (n <= count <= 2n)."""
    n = v.shape[-1]
    cs = np.empty(v.shape[:-1] + (count + 1,))
    cs[..., 0] = 0.0
    # Running sums straight into place, then on from entry n over the
    # repeated entries: the additions of one pass over the doubled array, in
    # its order (0 + v[0] is v[0], since no entry is -0.0).
    np.add.accumulate(v, axis=-1, out=cs[..., 1:n + 1])
    cs[..., n + 1:] = v[..., :count - n]
    np.add.accumulate(cs[..., n:], axis=-1, out=cs[..., n:])
    return cs


def _win_back(v: np.ndarray, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """out[..., i] = sum_{k=lo..hi} v[..., (i - k) mod n], for 0 <= lo <= hi <= n."""
    n = v.shape[-1]
    cs = _cumsum2(v, 2 * n - lo)
    return np.subtract(cs[..., n - lo + 1:2 * n - lo + 1], cs[..., n - hi:2 * n - hi], out=out)


def _win_fwd(v: np.ndarray, hi: int) -> np.ndarray:
    """out[..., i] = sum_{k=0..hi} v[..., (i + k) mod n], for 0 <= hi <= n."""
    n = v.shape[-1]
    cs = _cumsum2(v, n + hi)
    return cs[..., hi + 1:n + hi + 1] - cs[..., :n]


# ---------------------------------------------------------------------------
# Lagged conferencing sums
# ---------------------------------------------------------------------------

def _lag_view(v: np.ndarray, m: int) -> np.ndarray:
    """Read-only (..., M, N) view whose [..., k-1, i] entry is v[..., (i - k) mod n]:
    from entry n - 1 of v repeated twice, back one entry per lag and forward
    one per receiver."""
    # Not as_strided: this form checks the strides against the buffer, and
    # as_strided's array-interface route keeps about 1 MB allocated across calls.
    n = v.shape[-1]
    vv = np.concatenate((v, v), axis=-1)
    step = vv.strides[-1]
    view = np.ndarray(v.shape[:-1] + (m, n), vv.dtype, vv, (n - 1) * step,
                      vv.strides[:-1] + (-step, step))
    view.flags.writeable = False
    return view


def _lag_weights(term: Callable, m2_sender: np.ndarray, f, m: int):
    """Weights ``term(E|h_j|^2, f_{j,j+k}^2)`` of the conferencing links j -> j+k.

    With a uniform gain the weight depends on the sender only and is returned
    as one sender-indexed vector.  With an (N, M) gain matrix it is returned
    as an (M, N) stack whose row k-1 is aligned to the receiver of lag k.
    ``None`` without conferencing.
    """
    if m == 0:
        return None
    if np.isscalar(f):
        return term(m2_sender, f ** 2)
    # Row k-1 of the gains by receiver is lag k of column k-1 of f.
    gains = np.einsum("kki->ki", _lag_view(f.T, m))
    return term(_lag_view(m2_sender, m), gains ** 2)


def _lagged(w, v: np.ndarray, m: int) -> np.ndarray:
    """out[..., i] = sum_{k=1..m} w(link i-k -> i) * v[..., (i - k) mod n].

    Sender-indexed weights go through one backward window; an (M, N) stack is
    contracted with :func:`_lag_view` of v, summing the lags in order k = 1..m.
    """
    if m == 0:
        return np.zeros(v.shape)
    if w.ndim == 1:
        wv = w * v
        return _win_back(wv, 1, m, out=wv)
    return np.einsum("...ki,ki->...i", _lag_view(v, m), w)


def _rate(snr):
    """Half-duplex Gaussian rate 0.5*log2(1 + snr), elementwise."""
    return 0.5 * np.log1p(snr) / LOG2


def _squared_gains(real: ChannelRealization, cfg: NetworkConfig):
    """|h|^2 and |g|^2 of a realization of ``cfg``'s network."""
    if len(real.h) != cfg.n_relays:
        raise ConfigurationError(
            f"realization has {len(real.h)} relays, the configuration "
            f"{cfg.n_relays}")
    return np.abs(real.h) ** 2, np.abs(real.g) ** 2


def _realized(real: ChannelRealization, cfg: NetworkConfig, scheme: str) -> float:
    """``scheme``'s rate kernel, as :func:`scheme_kernels` binds it, at one
    realization; a realization of another size is rejected first."""
    h2, g2 = _squared_gains(real, cfg)
    return float(scheme_kernels(cfg, (scheme,))[scheme](h2, g2))


# ---------------------------------------------------------------------------
# Cut-set upper bound
# ---------------------------------------------------------------------------

def _upper_rates(h2: np.ndarray, cfg: NetworkConfig) -> np.ndarray:
    return _rate(cfg.p_s / cfg.n_0 * np.sum(h2, axis=-1))


def capacity_upper_bound(real: ChannelRealization, cfg: NetworkConfig) -> float:
    """Broadcast cut-set bound 0.5*log2(1 + (p_s/n_0) * sum_i |h_i|^2)."""
    return _realized(real, cfg, "upper")


def capacity_upper_asymptotic(cfg: NetworkConfig) -> float:
    """Moment form of the cut-set bound, the large-N concentration target."""
    return float(_upper_rates(moments(cfg).m2_h, cfg))


# ---------------------------------------------------------------------------
# Decode-and-forward
# ---------------------------------------------------------------------------

def _df_fractions(cfg: NetworkConfig):
    """SNR fraction g_j*f^2 / (g_j*f^2 + 1) a conferenced copy keeps.

    The copy of the source symbol relayed from j = i-k arrives at relay i
    with SNR gain g_j*f^2*|h_j|^2 / (g_j*f^2 + 1) where
    g_j = p_c / (p_s*E|h_j|^2 + n_0) is the conferencing transmit
    normalization of the sending relay.
    """
    _require_scheme(cfg, "df")

    def fraction(m2, f2):
        gf2 = cfg.p_c / (cfg.p_s * m2 + cfg.n_0) * f2
        return gf2 / (gf2 + 1.0)
    return _lag_weights(fraction, moments(cfg).m2_h, cfg.conf_gain, cfg.m_conf)


def _df_relay_snr(h2: np.ndarray, cfg: NetworkConfig, frac) -> np.ndarray:
    """Per-relay first-hop SNR: the direct plus the conferenced observations."""
    snr = _lagged(frac, h2, cfg.m_conf)
    return np.multiply(np.add(snr, h2, out=snr), cfg.p_s / cfg.n_0, out=snr)


def _mac_weights(cfg: NetworkConfig) -> np.ndarray:
    return np.sqrt(cfg.p_r / moments(cfg).m2_g)


def _mac_gain(g2: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.sum(w * g2, axis=-1)


def _mac_snr(g2: np.ndarray, cfg: NetworkConfig, w: np.ndarray) -> np.ndarray:
    """Received SNR q0^2/n_0 of the coherent second hop."""
    q0 = _mac_gain(g2, w)
    return q0 * q0 / cfg.n_0


def _mac_rates(g2: np.ndarray, cfg: NetworkConfig, w: np.ndarray) -> np.ndarray:
    return _rate(_mac_snr(g2, cfg, w))


def _df_rates(h2: np.ndarray, g2: np.ndarray, cfg: NetworkConfig, frac,
              w: np.ndarray) -> np.ndarray:
    """Every relay must decode, so the slowest relay and the second hop both
    bound the DF rate."""
    # _rate is monotone, so the slowest relay's rate is the rate of the least
    # SNR, bit for bit: one log per realization, not N.
    slowest = _rate(np.min(_df_relay_snr(h2, cfg, frac), axis=-1))
    return np.minimum(slowest, _mac_rates(g2, cfg, w))


def df_relay_rates(real: ChannelRealization, cfg: NetworkConfig) -> np.ndarray:
    """First-hop decoding rate supported at every relay."""
    return _rate(_df_relay_snr(_squared_gains(real, cfg)[0], cfg, _df_fractions(cfg)))


def df_mac_gain(real: ChannelRealization, cfg: NetworkConfig) -> float:
    """Coherent second-hop amplitude q0 = sum_i sqrt(p_r/E|g_i|^2)*|g_i|^2."""
    return float(_mac_gain(_squared_gains(real, cfg)[1], _mac_weights(cfg)))


def df_mac_rate(real: ChannelRealization, cfg: NetworkConfig) -> float:
    """Second-hop rate 0.5*log2(1 + q0^2/n_0) of the coherent relay sum."""
    return float(_mac_rates(_squared_gains(real, cfg)[1], cfg, _mac_weights(cfg)))


def df_rate(real: ChannelRealization, cfg: NetworkConfig) -> float:
    """DF rate: every relay must decode, so the minimum relay rate and the
    second-hop rate both bound it."""
    return _realized(real, cfg, "df")


def df_rates_asymptotic(cfg: NetworkConfig) -> np.ndarray:
    """Moment form of every relay's first-hop rate (concentration target).

    Entry i equals 0.5*log2(1 + (M+1)*(p_s/n_0)*mu_i) where mu_i averages the
    direct second moment and the conferencing SNR fractions over relay i's
    neighborhood.
    """
    return _rate(_df_relay_snr(moments(cfg).m2_h, cfg, _df_fractions(cfg)))


# ---------------------------------------------------------------------------
# Amplify-and-forward
# ---------------------------------------------------------------------------

def af_power_factors(cfg: NetworkConfig) -> np.ndarray:
    """Per-relay power control factor a_i of the AF combining scheme.

    a_i^2 normalizes the combined signal to the relay power budget:

        a_i^2 = 1 / ( E|g_i|^2 * [ p_s * E(sum_k |h_{i-k}|^2)^2
                                   + sum_k E|h_{i-k}|^2
                                   + sum_{k>=1} (p_s E|h_{i-k}|^2 + n_0)
                                     / (p_c f_{i-k,i}^2) * E|h_{i-k}|^2 ] )

    with k ranging over the conferencing window 0..M and the squared-sum
    expectation expanded through independence of the per-index draws.
    """
    return _af_invariants(cfg)[0]


def _af_q_terms(h2: np.ndarray, g2: np.ndarray, m: int, a: np.ndarray, q3w):
    # q1, grouped by first-hop index, shares q2's forward window, which then
    # holds (fwd*fwd)*h2; ag2 is squared in place for q3.
    ag2 = a * g2
    fwd = _win_fwd(ag2, m)
    q1 = np.add.reduce(fwd * h2, axis=-1)
    fwd *= fwd
    fwd *= h2
    q2 = np.add.reduce(fwd, axis=-1)
    ag2 *= ag2
    ag2 *= _lagged(q3w, h2, m)
    return q1, q2, np.add.reduce(ag2, axis=-1)


def _af_sinr(q1, q2, q3, cfg: NetworkConfig):
    return cfg.p_s * cfg.p_r * q1 * q1 / ((cfg.p_r * (q2 + q3) + 1.0) * cfg.n_0)


def _af_rates(h2: np.ndarray, g2: np.ndarray, cfg: NetworkConfig,
              a: np.ndarray, q3w) -> np.ndarray:
    return _rate(_af_sinr(*_af_q_terms(h2, g2, cfg.m_conf, a, q3w), cfg))


def _af_invariants(cfg: NetworkConfig):
    """AF power factors and the q3 weights (p_s*E|h_j|^2 + n_0) / (p_c*f^2):
    conferencing noise power forwarded per unit |h_j|^2 over the link from j."""
    _require_scheme(cfg, "af")
    mom = moments(cfg)
    m = cfg.m_conf
    q3w = _lag_weights(lambda m2, f2: (cfg.p_s * m2 + cfg.n_0) / (cfg.p_c * f2),
                       mom.m2_h, cfg.conf_gain, m)
    win2 = _win_back(mom.m2_h, 0, m)
    mean_square = win2 * win2 + _win_back(mom.m4_h - mom.m2_h ** 2, 0, m)
    bracket = cfg.p_s * mean_square + win2 + _lagged(q3w, mom.m2_h, m)
    return 1.0 / np.sqrt(mom.m2_g * bracket), q3w


def af_q_terms(real: ChannelRealization, cfg: NetworkConfig) -> tuple[float, float, float]:
    """AF destination coefficients (q1, q2, q3) for one realization.

    q1 scales the source symbol, q2 the aggregated first-hop noise power, and
    q3 the aggregated conferencing noise power; q3 is zero without
    conferencing.
    """
    q = _af_q_terms(*_squared_gains(real, cfg), cfg.m_conf, *_af_invariants(cfg))
    return tuple(float(x) for x in q)


def af_sinr(real: ChannelRealization, cfg: NetworkConfig) -> float:
    """Destination SINR p_s*p_r*q1^2 / ((p_r*(q2 + q3) + 1) * n_0)."""
    return float(_af_sinr(*af_q_terms(real, cfg), cfg))


def af_rate(real: ChannelRealization, cfg: NetworkConfig) -> float:
    """AF rate 0.5*log2(1 + SINR) for one realization."""
    return _realized(real, cfg, "af")


def af_expected_q_terms(cfg: NetworkConfig) -> tuple[float, float, float]:
    """Expectations (E q1, E q2, E q3) over the fading laws.

    E q1 and E q2 are grouped by the first-hop index, over the forward
    window of a*E|g|^2.  Through independence of the second-hop draws, the squared
    window in E q2 is that window squared plus a window of the variances
    a^2*(E|g|^4 - (E|g|^2)^2).
    """
    mom = moments(cfg)
    a, q3w = _af_invariants(cfg)
    m = cfg.m_conf
    lin = _win_fwd(a * mom.m2_g, m)
    quad = _win_fwd(a * a * (mom.m4_g - mom.m2_g ** 2), m)
    eq1 = float(np.sum(lin * mom.m2_h))
    eq2 = float(np.sum((lin * lin + quad) * mom.m2_h))
    eq3 = float(np.sum(a * a * mom.m4_g * _lagged(q3w, mom.m2_h, m)))
    return eq1, eq2, eq3


def af_mu_terms(cfg: NetworkConfig) -> tuple[float, float, float]:
    """Bounded per-network averages (mu1, mu2, mu3) of the expected q-terms.

    E q1 = N(M+1)*mu1, E q2 = N(M+1)^2*mu2, E q3 = N*M*mu3; mu3 is reported
    as 0 when conferencing is disabled.
    """
    eq1, eq2, eq3 = af_expected_q_terms(cfg)
    n = cfg.n_relays
    m = cfg.m_conf
    mu1 = eq1 / (n * (m + 1))
    mu2 = eq2 / (n * (m + 1) ** 2)
    mu3 = eq3 / (n * m) if m >= 1 else 0.0
    return mu1, mu2, mu3


def af_rate_expected_q(cfg: NetworkConfig) -> float:
    """AF rate with every q-term replaced by its expectation."""
    return float(_rate(_af_sinr(*af_expected_q_terms(cfg), cfg)))


def af_rate_asymptotic(cfg: NetworkConfig) -> float:
    """Large-N limit 0.5*log2(1 + N*(mu1^2/mu2)*(p_s/n_0)) of the AF rate.

    The conferencing noise term grows on a smaller order than the forwarded
    receiver noise, so it is dropped here together with the order-one
    destination noise.
    """
    mu1, mu2, _ = af_mu_terms(cfg)
    return float(_rate(cfg.n_relays * (mu1 * mu1 / mu2) * cfg.p_s / cfg.n_0))


# ---------------------------------------------------------------------------
# All schemes
# ---------------------------------------------------------------------------

SCHEMES = ("af", "df", "upper")


def scheme_names(names: Iterable[str]) -> tuple:
    """The distinct names of ``names`` in sorted order; raises
    :class:`ConfigurationError` for an unknown name or for none at all."""
    out = tuple(sorted(set(names)))
    unknown = [s for s in out if s not in SCHEMES]
    if unknown or not out:
        raise ConfigurationError(
            f"schemes must be a nonempty subset of {','.join(SCHEMES)}"
            + (f"; unknown scheme {unknown[0]!r}" if unknown else ""))
    return out


def reads_second_hop(schemes: Sequence[str]) -> bool:
    """Whether any kernel of ``schemes`` reads |g|^2; the cut-set bound alone
    does not."""
    return any(s != "upper" for s in schemes)


def _scheme_errors(cfg: NetworkConfig, schemes: Sequence[str]) -> dict:
    """The reason of each of ``schemes`` that cannot run under ``cfg``, by
    scheme.  AF and DF combine the conferenced copies, so they need p_c > 0
    whenever M >= 1."""
    if cfg.m_conf >= 1 and cfg.p_c == 0:
        return {s: f"scheme {s!r} needs p_c > 0 when conferencing is enabled "
                   f"(M = {cfg.m_conf})" for s in schemes if s != "upper"}
    return {}


def _require_scheme(cfg: NetworkConfig, scheme: str) -> None:
    errors = _scheme_errors(cfg, (scheme,))
    if errors:
        raise PreconditionError(errors[scheme])


def scheme_kernels(cfg: NetworkConfig, schemes: Sequence[str]) -> dict:
    """Rate kernel of each distinct scheme, in sorted order, with its
    per-configuration invariants (AF power factors, DF conferencing
    fractions, q3 and second-hop weights) computed once.

    Each kernel maps |h|^2 and |g|^2 arrays of shape (..., N), one
    realization per leading index, to the rates of shape (...).  When
    :func:`reads_second_hop` is false for ``schemes``, |g|^2 may be None.
    """
    kernels = {}
    for s in scheme_names(schemes):
        if s == "upper":
            kernels[s] = lambda h2, g2: _upper_rates(h2, cfg)
        elif s == "df":
            frac, w = _df_fractions(cfg), _mac_weights(cfg)
            kernels[s] = lambda h2, g2: _df_rates(h2, g2, cfg, frac, w)
        else:
            a, q3w = _af_invariants(cfg)
            kernels[s] = lambda h2, g2: _af_rates(h2, g2, cfg, a, q3w)
    return kernels


def rate_report(real: ChannelRealization, cfg: NetworkConfig) -> RateReport:
    """Evaluate every scheme on one realization.  The fields are, in order,
    the values of :func:`capacity_upper_bound`, :func:`df_relay_rates`,
    :func:`df_mac_rate`, :func:`df_rate`, :func:`af_q_terms` and :func:`af_rate`."""
    return RateReport(capacity_upper_bound(real, cfg), df_relay_rates(real, cfg),
                      df_mac_rate(real, cfg), df_rate(real, cfg), *af_q_terms(real, cfg),
                      af_rate(real, cfg))
