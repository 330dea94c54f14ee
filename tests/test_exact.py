"""The per-realization rates, ``rate_report``, the batched engine's rate
tables and the loop reference against the exact-arithmetic arbiter
(``tests/exact.py``).

Relative budgets per scheme, each about ten times the largest error measured
over 1,500 derandomized ``random_networks()`` examples with no power below
1e-100:

* the engine, per realization and per trial of a rate table: 4e-15 for
  ``upper`` (measured 4.8e-16), 1e-13 for DF and AF (measured 1.5e-14 and
  1.2e-14).  Its DF and AF windows are differences of
  running sums (``rates._cumsum2``), which lose digits to cancellation when
  the entries of a window differ in size;
* the loop reference: 1e-14 for every scheme (measured 1.4e-15).

The seed-free moment forms have budgets of their own, about ten times the
largest error measured over 300 ``random_networks()`` examples: 4e-15 for
``df_rates_asymptotic`` (measured 8.1e-16) and 6e-14 for each of
``af_expected_q_terms`` (measured 8.9e-16, 5.0e-15 and 7.1e-16 for E q1,
E q2 and E q3).

A power below 1e-100 takes products such as p_s*p_r out of the normal range
of a double, where no relative budget holds; such examples are left out.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings

import exact
import reference
from confrelay import (
    Cscg,
    Neighbors,
    NetworkConfig,
    PerIndex,
    PointMass,
    af_expected_q_terms,
    af_power_factors,
    af_q_terms,
    af_rate,
    af_sinr,
    capacity_upper_bound,
    derive_seed,
    df_mac_rate,
    df_rate,
    df_rates_asymptotic,
    df_relay_rates,
    moments,
    rate_report,
    sample_realization,
)
from confrelay import model, montecarlo, rates
from confrelay.montecarlo import analytic_df_mac_snr
from test_rates import random_networks

ENGINE = {"upper": 4e-15, "df": 1e-13, "af": 1e-13}
LOOP = 1e-14
MOMENT_FORMS = {"df": 4e-15, "af": 6e-14}
# The arbiter's own values at 50 digits against the hand-derived ones.
HAND = 1e-45


def within(got, want, budget):
    return exact.relative_error(got, want) <= budget


class TestArbiterByHand:
    """The arbiter on the point-mass fixtures, against values derived by
    hand from the formulas."""

    def test_two_unit_relays(self, two_relay_point_mass):
        # g = p_c/(p_s + n_0) = 1/2 keeps 1/3 of a conferenced copy: relay
        # SNR 4/3.  q0 = 2, so the second hop's SNR is 4.  a_i^2 =
        # 1/(2^2 + 2 + 2) = 1/8, so q1 = 2*a*2 = sqrt(2), q2 = 2*(2a)^2 = 1,
        # q3 = 2*a^2*2 = 1/2 and the SINR is 2/2.5 = 0.8.
        cfg, real = two_relay_point_mass
        with mpmath.workdps(exact.DIGITS):
            half_log2 = lambda x: mpmath.log(x, 2) / 2  # noqa: E731
            expected = {
                "upper": (exact.capacity_upper_bound(real, cfg), half_log2(3)),
                "relay_snr": (exact.df_relay_snrs(real, cfg),
                              [mpmath.mpf(4) / 3] * 2),
                "relay": (exact.df_relay_rates(real, cfg),
                          [half_log2(mpmath.mpf(7) / 3)] * 2),
                "mac_snr": (exact.df_mac_snr(real, cfg), 4),
                "mac": (exact.df_mac_rate(real, cfg), half_log2(5)),
                "df": (exact.df_rate(real, cfg), half_log2(mpmath.mpf(7) / 3)),
                "a": (exact.af_power_factors(cfg), [1 / mpmath.sqrt(8)] * 2),
                "q": (exact.af_q_terms(real, cfg),
                      (mpmath.sqrt(2), 1, mpmath.mpf(1) / 2)),
                # Point masses: the moment forms are the realization's values.
                "relay_limit": (exact.df_rates_asymptotic(cfg),
                                [half_log2(mpmath.mpf(7) / 3)] * 2),
                "expected_q": (exact.af_expected_q_terms(cfg),
                               (mpmath.sqrt(2), 1, mpmath.mpf(1) / 2)),
                "sinr": (exact.af_sinr(real, cfg), mpmath.mpf(4) / 5),
                "af": (exact.af_rate(real, cfg), half_log2(mpmath.mpf(9) / 5)),
            }
            for name, (got, want) in expected.items():
                pairs = zip(got, want) if isinstance(want, (list, tuple)) else [(got, want)]
                for g, w in pairs:
                    assert abs(g - w) <= HAND * abs(w), name

    def test_one_unit_relay(self):
        # No conferencing: every SNR of the chain is 1 except AF's, where
        # a^2 = 1/2, q1 = 1/sqrt(2), q2 = 1/2, q3 = 0 and the SINR is 1/3.
        cfg = NetworkConfig(n_relays=1, conferencing=Neighbors(0),
                            h_dist=PointMass(1), g_dist=PointMass(1))
        real = sample_realization(cfg, 0)
        with mpmath.workdps(exact.DIGITS):
            half = mpmath.mpf(1) / 2
            for got, want in ((exact.capacity_upper_bound(real, cfg), half),
                              (exact.df_rate(real, cfg), half),
                              (exact.af_power_factors(cfg)[0], mpmath.sqrt(half)),
                              (exact.af_q_terms(real, cfg)[0], mpmath.sqrt(half)),
                              (exact.af_q_terms(real, cfg)[1], half),
                              (exact.af_sinr(real, cfg), mpmath.mpf(1) / 3),
                              (exact.af_rate(real, cfg),
                               mpmath.log(mpmath.mpf(4) / 3, 2) / 2)):
                assert abs(got - want) <= HAND * want
            assert exact.af_q_terms(real, cfg)[2] == 0

    def test_refuses_more_than_sixteen_relays(self):
        cfg = NetworkConfig(n_relays=17, conferencing=Neighbors(1))
        with pytest.raises(ValueError, match="at most 16 relays"):
            exact.af_power_factors(cfg)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(random_networks())
def test_single_realization_rates_meet_their_budgets(case):
    cfg, seed = case
    assume(not any(0 < p < 1e-100 for p in (cfg.p_s, cfg.p_r)))
    real = sample_realization(cfg, seed)
    mom = moments(cfg)
    want = {"upper": exact.capacity_upper_bound(real, cfg), "df": exact.df_rate(real, cfg),
            "af": exact.af_rate(real, cfg)}
    rep = rate_report(real, cfg)
    got = {
        "upper": (capacity_upper_bound(real, cfg), rep.c_upper),
        "df": (df_rate(real, cfg), rep.df_rate),
        "af": (af_rate(real, cfg), rep.af_rate),
    }
    for scheme, values in got.items():
        for value in values:
            assert within(value, want[scheme], ENGINE[scheme]), scheme
    assert within(reference.capacity_upper_bound(real, cfg), want["upper"], LOOP)
    assert within(reference.df_rate(real, cfg, mom), want["df"], LOOP)
    assert within(reference.af_rate(real, cfg, mom), want["af"], LOOP)

    # The parts of each rate: DF's hops and AF's factors, q-terms and SINR.
    parts = [
        ("df", df_relay_rates(real, cfg), exact.df_relay_rates(real, cfg)),
        ("df", rep.df_relay_rates, exact.df_relay_rates(real, cfg)),
        ("df", [df_mac_rate(real, cfg), rep.df_mac_rate], [exact.df_mac_rate(real, cfg)] * 2),
        ("df", [analytic_df_mac_snr(real, cfg)], [exact.df_mac_snr(real, cfg)]),
        ("af", af_power_factors(cfg), exact.af_power_factors(cfg)),
        ("af", af_q_terms(real, cfg), exact.af_q_terms(real, cfg)),
        ("af", (rep.af_q1, rep.af_q2, rep.af_q3), exact.af_q_terms(real, cfg)),
        ("af", [af_sinr(real, cfg)], [exact.af_sinr(real, cfg)]),
    ]
    for scheme, values, exact_values in parts:
        assert len(values) == len(exact_values)
        for value, w in zip(values, exact_values):
            assert within(value, w, ENGINE[scheme]), scheme
    loop_q = reference.af_q_terms(real, cfg, mom)
    for value, w in zip(loop_q, exact.af_q_terms(real, cfg)):
        assert within(value, w, LOOP)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(random_networks())
def test_moment_forms_meet_their_budgets(case):
    # Seed-free: every relay's moment-form DF rate and the expected AF
    # q-terms against the arbiter's, from the same moments.
    cfg, _ = case
    assume(not any(0 < p < 1e-100 for p in (cfg.p_s, cfg.p_r)))
    for got, want in zip(df_rates_asymptotic(cfg), exact.df_rates_asymptotic(cfg),
                         strict=True):
        assert within(got, want, MOMENT_FORMS["df"])
    for got, want in zip(af_expected_q_terms(cfg), exact.af_expected_q_terms(cfg),
                         strict=True):
        assert within(got, want, MOMENT_FORMS["af"])


# Trials per batched table: the first 4 kept, the other 5 drawn after them.
TRIALS, KEPT = 9, 4


def _batched_table(cfg, seed, block):
    """``montecarlo._rate_table``'s rows of every scheme at ``cfg``, read in
    blocks of ``block`` trials (the default blocks when None), with the
    first ``KEPT`` rows kept and every fill of more than one row posted to
    the thread pool; and the number of fills posted."""
    posted = []

    class Posted(model._Fill):
        def __init__(self, z, states, square=False):
            super().__init__(z, states, square)
            if self.jobs:
                posted.append(self)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(model, "_HELPED_ROW_NORMALS", 1)
        m.setattr(model, "_SLAB_NORMALS", 1)
        m.setattr(model, "_CPUS", max(model._CPUS, 2))
        m.setattr(model, "_KEPT_ELEMENTS", KEPT * model._row_width([cfg], True))
        m.setattr(model, "_Fill", Posted)
        if block is not None:
            m.setattr(model, "_BLOCK_ELEMENTS", block * cfg.n_relays)
        model._THREAD.first_rows = None
        [(names, table)] = montecarlo._rate_table([(cfg, rates.SCHEMES)], TRIALS, seed)
        model._THREAD.first_rows = None
    return dict(zip(names, table)), len(posted)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(random_networks())
def test_batched_rate_tables_meet_their_budgets(case):
    # Each trial's rate in the batched engine's table, in blocks of 1 and 7
    # trials and the default, against the arbiter on that trial's
    # realization.  The pool draws the kept rows and every drawn block of
    # more than one row.
    cfg, seed = case
    assume(not any(0 < p < 1e-100 for p in (cfg.p_s, cfg.p_r)))
    want = {"upper": [], "df": [], "af": []}
    for t in range(TRIALS):
        real = sample_realization(cfg, derive_seed(seed, t))
        want["upper"].append(exact.capacity_upper_bound(real, cfg))
        want["df"].append(exact.df_rate(real, cfg))
        want["af"].append(exact.af_rate(real, cfg))
    for block in (1, 7, None):
        table, posted = _batched_table(cfg, seed, block)
        # The kept rows, and with blocks of 7 or more the 5 rows after them,
        # unless point masses leave the rows empty.
        assert posted == (0 if not model._row_width([cfg], True) else
                          1 if block == 1 else 2)
        for scheme, rows in table.items():
            for got, w in zip(rows.tolist(), want[scheme]):
                assert within(got, w, ENGINE[scheme]), (scheme, block)


def test_batched_rate_tables_meet_their_budgets_at_sixteen_relays():
    # The arbiter's largest size, with an (N, M) gain matrix and mixed laws.
    n, m = 16, 5
    cfg = NetworkConfig(
        n_relays=n, conferencing=Neighbors(m), p_s=1.7, p_r=0.6, p_c=2.5, n_0=0.8,
        conf_gain=np.linspace(0.3, 2.9, n * m).reshape(n, m),
        h_dist=PerIndex(tuple(PointMass(0.5 + 0.25j) if i % 5 == 0 else Cscg(0.3 + 0.2 * i)
                              for i in range(n))),
        g_dist=Cscg(1.4))
    for block in (1, 7, None):
        table, _ = _batched_table(cfg, 97, block)
        for t in range(TRIALS):
            real = sample_realization(cfg, derive_seed(97, t))
            for scheme, value in (("upper", exact.capacity_upper_bound(real, cfg)),
                                  ("df", exact.df_rate(real, cfg)),
                                  ("af", exact.af_rate(real, cfg))):
                assert within(table[scheme][t], value, ENGINE[scheme]), (scheme, block, t)


def test_loop_reference_meets_its_budget_across_eight_decades():
    # The case of the strict xfail in test_rates: the loop reference, not the
    # engine, agrees with the exact evaluation.
    cfg = NetworkConfig(n_relays=8, conferencing=Neighbors(0), h_dist=PerIndex(
        tuple(Cscg(1e-4 if i % 2 == 0 else 1e4) for i in range(8))))
    mom = moments(cfg)
    worst = 0.0
    for t in range(20):
        real = sample_realization(cfg, derive_seed(3, t))
        err = exact.relative_error(reference.af_rate(real, cfg, mom), exact.af_rate(real, cfg))
        worst = max(worst, float(err))
    assert worst <= LOOP


def test_relative_error_of_zero():
    assert exact.relative_error(0.0, mpmath.mpf(0)) == 0
    assert exact.relative_error(1e-300, mpmath.mpf(0)) == mpmath.inf
    assert math.isclose(exact.relative_error(1.5, mpmath.mpf(1)), 0.5)
