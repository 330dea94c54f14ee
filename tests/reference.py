"""Naive loop-based reference implementations used as test oracles.

Everything here is written with explicit per-index loops and modular
arithmetic, straight from the rate definitions, so the vectorized library
code can be checked against an independently structured evaluation.
"""

import math

import numpy as np

from confrelay import Cscg, PointMass, derive_seed
from confrelay.model import spec_moments


def sample_channel(spec, n, rng):
    """Per-entry sampler: one pair of generator calls per Gaussian law.

    Fixes the draw order every sampler must reproduce: real parts before
    imaginary parts, relay by relay for per-index laws, and no randomness
    consumed by point masses.
    """
    if isinstance(spec, Cscg):
        scale = math.sqrt(spec.variance / 2.0)
        return rng.normal(0.0, scale, n) + 1j * rng.normal(0.0, scale, n)
    if isinstance(spec, PointMass):
        return np.full(n, spec.value, dtype=complex)
    out = np.empty(n, dtype=complex)
    for i, s in enumerate(spec.specs):
        out[i] = sample_channel(s, 1, rng)[0]
    return out


def sample_realizations(cfg, seeds):
    """One generator per seed: ``default_rng(seed mod 2**64)`` draws the
    first-hop gains, then the second-hop gains."""
    n = cfg.n_relays
    h = np.empty((len(seeds), n), dtype=complex)
    g = np.empty((len(seeds), n), dtype=complex)
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
        h[r] = sample_channel(cfg.h_dist, n, rng)
        g[r] = sample_channel(cfg.g_dist, n, rng)
    return h, g


def lemma1_gap(dist, n, trials, seed) -> float:
    """Per-trial generator loop: trial t draws from default_rng(derive_seed(seed, t))."""
    m2, _ = spec_moments(dist, n)
    expected = math.log1p(float(np.sum(m2))) / math.log(2.0)
    total = 0.0
    for t in range(trials):
        rng = np.random.default_rng(derive_seed(seed, t))
        x = np.abs(sample_channel(dist, n, rng)) ** 2
        total += abs(math.log1p(float(np.sum(x))) / math.log(2.0) - expected)
    return total / trials


def pair_gain(f, sender: int, k: int) -> float:
    """Gain of the conferencing link sender -> sender + k."""
    return float(f) if np.isscalar(f) else float(f[sender, k - 1])


def lagged(w, v, m):
    """Per-lag loop: out[..., i] = sum_{k=1..m} w[k-1, i] * v[..., (i - k) mod n],
    one rolled copy of v per lag, added in order k = 1..m."""
    out = w[0] * np.roll(v, 1, axis=-1)
    for k in range(2, m + 1):
        out = out + w[k - 1] * np.roll(v, k, axis=-1)
    return out


def lag_weights(term, m2_sender, f, m):
    """Per-link loop: entry [k-1, i] is the weight of link (i - k) mod n -> i."""
    n = len(m2_sender)
    w = np.empty((m, n))
    for k in range(1, m + 1):
        for i in range(n):
            j = (i - k) % n
            gain = pair_gain(f, j, k)
            w[k - 1, i] = term(m2_sender[j], gain * gain)
    return w


def rate(snr):
    """Half-duplex Gaussian rate 0.5 * log2(1 + snr), taken through log1p,
    which keeps the digits of a small snr that 1.0 + snr would round away."""
    return np.log1p(snr) / (2.0 * math.log(2.0))


def capacity_upper_bound(real, cfg) -> float:
    snr = cfg.p_s / cfg.n_0 * sum(abs(x) ** 2 for x in real.h)
    return rate(snr)


def df_rate(real, cfg, mom) -> float:
    n = cfg.n_relays
    q0 = sum(np.sqrt(cfg.p_r / mom.m2_g[i]) * abs(real.g[i]) ** 2 for i in range(n))
    mac = rate(q0 * q0 / cfg.n_0)
    return min(min(df_relay_rate(i, real, cfg, mom) for i in range(n)), mac)


def af_rate(real, cfg, mom) -> float:
    q1, q2, q3 = af_q_terms(real, cfg, mom)
    sinr = cfg.p_s * cfg.p_r * q1 * q1 / ((cfg.p_r * (q2 + q3) + 1.0) * cfg.n_0)
    return rate(sinr)


def df_relay_rate(i, real, cfg, mom) -> float:
    n, m = cfg.n_relays, cfg.m_conf
    h2 = np.abs(real.h) ** 2
    snr = h2[i] * cfg.p_s / cfg.n_0
    for k in range(1, m + 1):
        j = (i - k) % n
        gamma = cfg.p_c / (cfg.p_s * mom.m2_h[j] + cfg.n_0)
        gf2 = gamma * pair_gain(cfg.conf_gain, j, k) ** 2
        snr += cfg.p_s / cfg.n_0 * gf2 * h2[j] / (gf2 + 1.0)
    return rate(snr)


def af_power_factor(i, cfg, mom) -> float:
    n, m = cfg.n_relays, cfg.m_conf
    window = [(i - k) % n for k in range(m + 1)]
    mean_square = 0.0
    for a in window:
        for b in window:
            mean_square += mom.m4_h[a] if a == b else mom.m2_h[a] * mom.m2_h[b]
    bracket = cfg.p_s * mean_square + sum(mom.m2_h[j] for j in window)
    for k in range(1, m + 1):
        j = (i - k) % n
        f = pair_gain(cfg.conf_gain, j, k)
        bracket += (cfg.p_s * mom.m2_h[j] + cfg.n_0) / (cfg.p_c * f ** 2) * mom.m2_h[j]
    return 1.0 / np.sqrt(mom.m2_g[i] * bracket)


def af_q_terms(real, cfg, mom):
    n, m = cfg.n_relays, cfg.m_conf
    a = [af_power_factor(i, cfg, mom) for i in range(n)]
    h2 = np.abs(real.h) ** 2
    g2 = np.abs(real.g) ** 2
    q1 = sum(a[i] * g2[i] * sum(h2[(i - k) % n] for k in range(m + 1))
             for i in range(n))
    q2 = sum(sum(a[(i + k) % n] * g2[(i + k) % n]
                 for k in range(m + 1)) ** 2 * h2[i]
             for i in range(n))
    q3 = 0.0
    for i in range(n):
        for k in range(1, m + 1):
            j = (i - k) % n
            q3 += (a[i] ** 2 * (cfg.p_s * mom.m2_h[j] + cfg.n_0)
                   / (cfg.p_c * pair_gain(cfg.conf_gain, j, k) ** 2) * g2[i] ** 2 * h2[j])
    return q1, q2, q3


def af_q1_reindexed(real, cfg, mom) -> float:
    """Signal coefficient grouped by first-hop index instead of relay index."""
    n, m = cfg.n_relays, cfg.m_conf
    a = [af_power_factor(i, cfg, mom) for i in range(n)]
    h2 = np.abs(real.h) ** 2
    g2 = np.abs(real.g) ** 2
    return sum(sum(a[(j + k) % n] * g2[(j + k) % n]
                   for k in range(m + 1)) * h2[j]
               for j in range(n))


def af_expected_q_terms(cfg, mom):
    """Expected AF coefficients from independence of the per-index draws: a
    repeated index contributes its fourth moment, distinct indices the
    product of their second moments."""
    n, m = cfg.n_relays, cfg.m_conf
    a = [af_power_factor(i, cfg, mom) for i in range(n)]
    eq1 = sum(a[i] * mom.m2_g[i] * mom.m2_h[(i - k) % n]
              for i in range(n) for k in range(m + 1))
    eq2 = 0.0
    for j in range(n):
        window = [(j + k) % n for k in range(m + 1)]
        square = 0.0
        for u in window:
            for v in window:
                square += a[u] * a[v] * (mom.m4_g[u] if u == v
                                         else mom.m2_g[u] * mom.m2_g[v])
        eq2 += square * mom.m2_h[j]
    eq3 = 0.0
    for i in range(n):
        for k in range(1, m + 1):
            j = (i - k) % n
            eq3 += (a[i] ** 2 * mom.m4_g[i] * (cfg.p_s * mom.m2_h[j] + cfg.n_0)
                    / (cfg.p_c * pair_gain(cfg.conf_gain, j, k) ** 2) * mom.m2_h[j])
    return eq1, eq2, eq3
