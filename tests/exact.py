"""Exact-arithmetic arbiter for the rates of one realization.

Every quantity here is evaluated with mpmath at ``DIGITS`` significant digits
from the float64 inputs taken as exact reals: the gains of the realization,
the configuration's powers and conferencing gains, and its moments
(``model.moments``).  The formulas are written from the definitions stated in
the ``rates`` docstrings and from the AF signal path, one relay and one lag at
a time, with no use of ``rates`` or of ``tests/reference.py``.  When the
engine and the loop reference disagree, each can be measured against this
evaluation, whose own rounding error is far below either.

Index convention, as in ``rates``: relay ``i`` hears the M relays
``i-1, ..., i-M`` (mod N) over its conferencing links, and the link from
``j`` to ``j+k`` has gain ``f_{j,k}`` (``conf_gain`` itself, or entry
``[j, k-1]`` of an (N, M) matrix).

Only networks of at most ``MAX_RELAYS`` relays are evaluated: the power
factors cost O(N M^2) multiprecision operations.
"""

import mpmath
import numpy as np

from confrelay import moments

DIGITS = 50
MAX_RELAYS = 16


def _mp(x):
    return mpmath.mpf(float(x))


def _squares(values):
    """|z|^2 of each complex float64 entry, exactly."""
    return [_mp(z.real) ** 2 + _mp(z.imag) ** 2 for z in np.asarray(values, dtype=complex)]


def _setup(cfg):
    """(n, m, p_s, p_r, p_c, n_0, link gain, moments), the numbers as mpf."""
    if cfg.n_relays > MAX_RELAYS:
        raise ValueError(f"the arbiter evaluates at most {MAX_RELAYS} relays")
    mom = moments(cfg)
    f = cfg.conf_gain

    def link(j, k):
        """Gain of the conferencing link j -> j + k."""
        return _mp(f) if np.isscalar(f) else _mp(f[j, k - 1])

    mom = {name: [_mp(v) for v in getattr(mom, name)]
           for name in ("m2_h", "m4_h", "m2_g", "m4_g")}
    return (cfg.n_relays, cfg.m_conf, _mp(cfg.p_s), _mp(cfg.p_r), _mp(cfg.p_c),
            _mp(cfg.n_0), link, mom)


def rate(snr):
    """Half-duplex Gaussian rate 0.5*log2(1 + snr)."""
    return mpmath.log1p(snr) / (2 * mpmath.log(2))


def capacity_upper_bound(real, cfg):
    """Broadcast cut-set bound 0.5*log2(1 + (p_s/n_0) * sum_i |h_i|^2)."""
    with mpmath.workdps(DIGITS):
        _, _, p_s, _, _, n_0, _, _ = _setup(cfg)
        return rate(p_s / n_0 * mpmath.fsum(_squares(real.h)))


def df_relay_snrs(real, cfg):
    """First-hop SNR of each relay: (p_s/n_0) * (|h_i|^2 plus, for each lag
    k = 1..M, the fraction gf^2 / (gf^2 + 1) of |h_{i-k}|^2 the copy keeps),
    where g = p_c / (p_s*E|h_{i-k}|^2 + n_0) is the sending relay's
    conferencing normalization and f the gain of the link i-k -> i."""
    with mpmath.workdps(DIGITS):
        return _relay_snrs(_squares(real.h), cfg)


def _relay_snrs(h2, cfg):
    """:func:`df_relay_snrs` with the first-hop squares ``h2`` (mpf)."""
    with mpmath.workdps(DIGITS):
        n, m, p_s, _, p_c, n_0, link, mom = _setup(cfg)
        snrs = []
        for i in range(n):
            total = h2[i]
            for k in range(1, m + 1):
                j = (i - k) % n
                gf2 = p_c / (p_s * mom["m2_h"][j] + n_0) * link(j, k) ** 2
                total += gf2 / (gf2 + 1) * h2[j]
            snrs.append(p_s / n_0 * total)
        return snrs


def df_relay_rates(real, cfg):
    """First-hop decoding rate of every relay."""
    with mpmath.workdps(DIGITS):
        return [rate(snr) for snr in df_relay_snrs(real, cfg)]


def df_rates_asymptotic(cfg):
    """Moment form of every relay's first-hop rate: the rate of the relay
    SNR of :func:`df_relay_snrs` with each |h_j|^2 replaced by E|h_j|^2."""
    with mpmath.workdps(DIGITS):
        m2_h = _setup(cfg)[-1]["m2_h"]
        return [rate(snr) for snr in _relay_snrs(m2_h, cfg)]


def df_mac_snr(real, cfg):
    """Second-hop SNR q0^2/n_0 with q0 = sum_i sqrt(p_r/E|g_i|^2)*|g_i|^2."""
    with mpmath.workdps(DIGITS):
        n, _, _, p_r, _, n_0, _, mom = _setup(cfg)
        g2 = _squares(real.g)
        q0 = mpmath.fsum(mpmath.sqrt(p_r / mom["m2_g"][i]) * g2[i] for i in range(n))
        return q0 * q0 / n_0


def df_mac_rate(real, cfg):
    with mpmath.workdps(DIGITS):
        return rate(df_mac_snr(real, cfg))


def df_rate(real, cfg):
    """Every relay must decode: the least relay rate, capped by the second hop."""
    with mpmath.workdps(DIGITS):
        return min(min(df_relay_rates(real, cfg)), df_mac_rate(real, cfg))


def af_power_factors(cfg):
    """a_i = 1 / sqrt(E|g_i|^2 * [p_s * E(sum_k |h_{i-k}|^2)^2 + sum_k E|h_{i-k}|^2
    + sum_{k>=1} (p_s*E|h_{i-k}|^2 + n_0) / (p_c*f^2) * E|h_{i-k}|^2]), k over
    0..M, where E(sum_k X_k)^2 takes E|h_j|^4 on the diagonal and the product
    of second moments off it (independent draws per index)."""
    with mpmath.workdps(DIGITS):
        n, m, p_s, _, p_c, n_0, link, mom = _setup(cfg)
        m2, m4 = mom["m2_h"], mom["m4_h"]
        factors = []
        for i in range(n):
            window = [(i - k) % n for k in range(m + 1)]
            mean_square = mpmath.fsum(m4[u] if u == v else m2[u] * m2[v]
                                      for u in window for v in window)
            conf = mpmath.fsum(
                (p_s * m2[(i - k) % n] + n_0) / (p_c * link((i - k) % n, k) ** 2)
                * m2[(i - k) % n] for k in range(1, m + 1))
            bracket = p_s * mean_square + mpmath.fsum(m2[j] for j in window) + conf
            factors.append(1 / mpmath.sqrt(mom["m2_g"][i] * bracket))
        return factors


def af_q_terms(real, cfg):
    """(q1, q2, q3) along the AF signal path.

    Relay i forwards a_i*conj(g_i) times its combination of the observations
    of relays i-k, k = 0..M, each matched by conj(h_{i-k}), so the destination
    sees the relay's combination weighted by a_i*|g_i|^2.  q1 is the symbol's
    coefficient, sum_i a_i|g_i|^2 * sum_k |h_{i-k}|^2; q2 the power of the
    first-hop noise, each relay j's reaching every relay i = j+k:
    sum_j |h_j|^2 * (sum_k a_{j+k}|g_{j+k}|^2)^2; q3 the power of the
    conferencing noise of each link j = i-k -> i, k >= 1, whose receiver
    scales it back by (p_s*E|h_j|^2 + n_0) / (p_c*f^2):
    sum_i a_i^2|g_i|^4 * sum_k that factor * |h_j|^2.  Powers are per unit
    noise power and relay power.
    """
    with mpmath.workdps(DIGITS):
        n, m, p_s, _, p_c, n_0, link, mom = _setup(cfg)
        a = af_power_factors(cfg)
        h2, g2 = _squares(real.h), _squares(real.g)
        q1 = mpmath.fsum(a[i] * g2[i] * h2[(i - k) % n]
                         for i in range(n) for k in range(m + 1))
        q2 = mpmath.fsum(h2[j] * mpmath.fsum(a[(j + k) % n] * g2[(j + k) % n]
                                             for k in range(m + 1)) ** 2
                         for j in range(n))
        q3 = mpmath.fsum(
            a[i] ** 2 * g2[i] ** 2 * (p_s * mom["m2_h"][(i - k) % n] + n_0)
            / (p_c * link((i - k) % n, k) ** 2) * h2[(i - k) % n]
            for i in range(n) for k in range(1, m + 1))
        return q1, q2, q3


def af_expected_q_terms(cfg):
    """(E q1, E q2, E q3) of :func:`af_q_terms` over the fading laws, every
    gain drawn independently.  E q1 = sum_i a_i E|g_i|^2 * sum_k E|h_{i-k}|^2;
    E q2 = sum_j E|h_j|^2 * E(sum_k a_{j+k}|g_{j+k}|^2)^2, whose square takes
    a_u^2 E|g_u|^4 on the diagonal and a_u E|g_u|^2 * a_v E|g_v|^2 off it, so
    it holds the window's variance term sum_k a^2 (E|g|^4 - (E|g|^2)^2);
    E q3 = sum_i a_i^2 E|g_i|^4 * sum_{k>=1} (p_s*E|h_j|^2 + n_0) / (p_c*f^2)
    * E|h_j|^2 with j = i-k."""
    with mpmath.workdps(DIGITS):
        n, m, p_s, _, p_c, n_0, link, mom = _setup(cfg)
        a = af_power_factors(cfg)
        m2_h, m2_g, m4_g = mom["m2_h"], mom["m2_g"], mom["m4_g"]
        eq1 = mpmath.fsum(a[i] * m2_g[i] * m2_h[(i - k) % n]
                          for i in range(n) for k in range(m + 1))
        eq2 = mpmath.fsum(
            m2_h[j] * mpmath.fsum(a[u] ** 2 * m4_g[u] if u == v else
                                  a[u] * m2_g[u] * a[v] * m2_g[v]
                                  for u in window for v in window)
            for j in range(n) for window in [[(j + k) % n for k in range(m + 1)]])
        eq3 = mpmath.fsum(
            a[i] ** 2 * m4_g[i] * (p_s * m2_h[(i - k) % n] + n_0)
            / (p_c * link((i - k) % n, k) ** 2) * m2_h[(i - k) % n]
            for i in range(n) for k in range(1, m + 1))
        return eq1, eq2, eq3


def af_sinr(real, cfg):
    """Destination SINR p_s*p_r*q1^2 / ((p_r*(q2 + q3) + 1) * n_0)."""
    with mpmath.workdps(DIGITS):
        _, _, p_s, p_r, _, n_0, _, _ = _setup(cfg)
        q1, q2, q3 = af_q_terms(real, cfg)
        return p_s * p_r * q1 * q1 / ((p_r * (q2 + q3) + 1) * n_0)


def af_rate(real, cfg):
    with mpmath.workdps(DIGITS):
        return rate(af_sinr(real, cfg))


def relative_error(got, exact):
    """|got - exact| / |exact| in exact arithmetic; 0 when both are 0, inf
    when only ``exact`` is."""
    with mpmath.workdps(DIGITS):
        gap = abs(_mp(got) - exact)
        if exact == 0:
            return mpmath.mpf(0) if gap == 0 else mpmath.inf
        return gap / abs(exact)
