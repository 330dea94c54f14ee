"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Monte Carlo criteria use
the simulation default of 1000 fading realizations unless the criterion
states another count; every tolerance is written into the assertion.
"""

import math

import numpy as np
import pytest

from confrelay import (
    Cscg,
    NetworkConfig,
    PerIndex,
    PointMass,
    Portion,
    SweepSpec,
    af_rate,
    af_rate_expected_q,
    af_sinr,
    capacity_upper_bound,
    conferencing_noise_ratio,
    derive_seed,
    df_rate,
    df_rates_asymptotic,
    lemma1_gap,
    rate_report,
    sample_realization,
    scaling_fit,
    signal_oracle_af,
    sweep,
    trace_points,
)
from confrelay.cli import main


def passed(n, detail):
    print(f"PASS criterion {n}: {detail}")


def test_criterion_01_fixture_exactness(two_relay_point_mass):
    cfg, real = two_relay_point_mass
    rep = rate_report(real, cfg)
    expected = {
        "c_upper": 0.5 * math.log2(3),
        "df_rate": 0.5 * math.log2(7 / 3),
        "af_rate": 0.5 * math.log2(1.8),
        "af_q1": math.sqrt(2),
        "af_q2": 1.0,
        "af_q3": 0.5,
    }
    for name, want in expected.items():
        got = getattr(rep, name)
        assert math.isclose(got, want, rel_tol=1e-9), (name, got, want)
    passed(1, "two-relay deterministic fixture matches all closed forms to 1e-9")


def test_criterion_02_oracle_equivalence():
    grid = [(n, p) for n in (2, 5, 10) for p in (0.5, 1.0)]
    checked = 0
    for r in range(20):
        n, p = grid[r % len(grid)]
        cfg = NetworkConfig(n_relays=n, conferencing=Portion(p))
        real = sample_realization(cfg, derive_seed(20250810, r))
        analytic = af_sinr(real, cfg)
        emp = signal_oracle_af(real, cfg, 100_000, derive_seed(555, r))
        tol = max(0.02 * analytic, 3 * emp.std_error)
        assert abs(emp.sinr - analytic) <= tol, (n, p, emp.sinr, analytic, tol)
        checked += 1
    assert checked == 20
    passed(2, "20 signal-level simulations match the closed-form SINR "
              "within max(2%, 3 SE) at 1e5 draws")


def test_criterion_03_dominance_invariants():
    cfg = NetworkConfig(n_relays=100, conferencing=Portion(0.1))
    for t in range(1000):
        real = sample_realization(cfg, derive_seed(33, t))
        upper = capacity_upper_bound(real, cfg)
        slack = upper * (1 + 1e-9)
        assert af_rate(real, cfg) <= slack, t
        assert df_rate(real, cfg) <= slack, t
    passed(3, "AF and DF never exceed the cut-set bound over 1000 trials")


def test_criterion_04_growth_with_network_size():
    spec = SweepSpec(base=NetworkConfig(n_relays=25, conferencing=Portion(0.2)),
                     axis="n_relays", values=(25, 50, 100, 200, 400),
                     trials=1000, base_seed=2024)
    res = sweep(spec)
    for scheme in ("upper", "df", "af"):
        means = [p.result.stats[scheme].mean_rate for p in res.points]
        assert all(b >= a for a, b in zip(means, means[1:])), (scheme, means)
    ratio = [p.result.stats["af"].mean_rate / p.result.stats["upper"].mean_rate
             for p in res.points]
    assert ratio[-1] > ratio[0], ratio
    passed(4, f"all schemes grow with N and AF/upper ratio rises "
              f"{ratio[0]:.3f} -> {ratio[-1]:.3f}")


def test_criterion_05_df_scaling_law():
    spec = SweepSpec(base=NetworkConfig(n_relays=32, conferencing=Portion(0.2)),
                     axis="n_relays", values=(32, 64, 128, 256, 512),
                     trials=1000, base_seed=11, schemes=("df", "upper"))
    res = sweep(spec)
    df_points = [(p.n_relays, p.result.stats["df"].mean_rate) for p in res.points]
    up_points = [(p.n_relays, p.result.stats["upper"].mean_rate) for p in res.points]
    df_fit = scaling_fit(df_points)
    up_fit = scaling_fit(up_points)
    df_range = max(r for _, r in df_points) - min(r for _, r in df_points)
    assert df_fit.slope > 0, df_fit
    assert df_fit.residual_rms < 0.1 * df_range, (df_fit.residual_rms, df_range)
    assert 0.4 <= up_fit.slope <= 0.6, up_fit
    passed(5, f"DF rate is log-linear in N (slope {df_fit.slope:.3f}), "
              f"bound slope {up_fit.slope:.3f} in [0.4, 0.6]")


def test_criterion_06_conferencing_portion_trends():
    spec = SweepSpec(base=NetworkConfig(n_relays=100, conferencing=Portion(0.05)),
                     axis="portion", values=(0.05, 0.1, 0.2, 0.3, 0.5, 1.0),
                     trials=1000, base_seed=5)
    res = sweep(spec)
    df_means = [p.result.stats["df"].mean_rate for p in res.points]
    assert all(b >= a for a, b in zip(df_means, df_means[1:])), df_means
    af = {p.axis_value: p.result.stats["af"] for p in res.points}
    margin = 3 * math.hypot(af[0.3].std_error, af[1.0].std_error)
    # Known shortfall, kept at the stated threshold: the exact formulas put
    # the p=0.3 vs p=1.0 gap near 0.073 bits (~98% of the complete-
    # conferencing rate), far outside 3 standard errors at 1000 trials.
    ok = af[0.3].mean_rate >= af[1.0].mean_rate - margin
    detail = (f"DF grows with the portion; AF mean {af[0.3].mean_rate:.5f} at "
              f"p=0.3 vs {af[1.0].mean_rate:.5f} at p=1.0, allowance {margin:.5f}")
    print(("PASS" if ok else "FAIL") + f" criterion 6: {detail}")
    assert ok, detail


def test_criterion_07_conferencing_snr_trends():
    spec = SweepSpec(base=NetworkConfig(n_relays=100, conferencing=Portion(0.1)),
                     axis="conf_snr_db", values=(-10, -5, 0, 5, 10, 20),
                     trials=1000, base_seed=6, schemes=("af", "df"))
    res = sweep(spec)
    shares = {}
    for scheme in ("df", "af"):
        means = {p.axis_value: p.result.stats[scheme].mean_rate for p in res.points}
        ordered = [means[v] for v in (-10, -5, 0, 5, 10, 20)]
        assert all(b >= a for a, b in zip(ordered, ordered[1:])), (scheme, ordered)
        shares[scheme] = means[5] / means[20]
    # Known shortfall, kept at the stated threshold: the DF combining
    # fraction Pc*f^2/(Pc*f^2 + Ps*E|h|^2 + N0) caps the 5 dB vs 20 dB share
    # near 0.85 per relay (0.80 after the min over relays), for any seed or
    # trial count.  AF clears the threshold at ~0.98.
    ok = all(s >= 0.9 for s in shares.values())
    detail = ("both schemes grow with conferencing SNR; 5 dB / 20 dB shares "
              + ", ".join(f"{k}={v:.4f}" for k, v in sorted(shares.items())))
    print(("PASS" if ok else "FAIL") + f" criterion 7: {detail}")
    assert ok, detail


def test_known_shortfall_af_portion_gap():
    # Pins criterion 6's shortfall without sampling, so that a regression in
    # the AF formulas shows here even while criterion 6 stays red.
    def rate(p):
        cfg = NetworkConfig(n_relays=100, conferencing=Portion(p))
        return af_rate_expected_q(cfg)

    assert rate(0.3) == pytest.approx(3.21491, abs=1e-4)
    assert rate(1.0) == pytest.approx(3.28750, abs=1e-4)
    assert rate(1.0) - rate(0.3) == pytest.approx(0.0726, abs=1e-4)


def test_known_shortfall_df_snr_share():
    # Pins criterion 7's shortfall without sampling: the per-relay DF share
    # of the 5 dB rate in the 20 dB rate is set by the combining fraction.
    def rates(db):
        cfg = NetworkConfig(n_relays=100, conferencing=Portion(0.1),
                            p_c=10.0 ** (db / 10.0))
        return df_rates_asymptotic(cfg)

    share = rates(5) / rates(20)
    assert share == pytest.approx(np.full(100, 0.84672), abs=1e-4)


def test_criterion_08_complete_conferencing_convergence():
    def make(n):
        h = PerIndex(tuple(PointMass(complex(math.sqrt(0.6 + 0.8 * i / (n - 1))))
                           for i in range(n)))
        g = PerIndex(tuple(Cscg(0.6 + 0.8 * i / (n - 1)) for i in range(n)))
        return NetworkConfig(n_relays=n, conferencing=Portion(1.0),
                             h_dist=h, g_dist=g)

    gaps = [p.mean_abs_gap for p in trace_points("af", make, (8, 32, 128), 1000, 31)]
    assert gaps[0] > gaps[1] > gaps[2], gaps
    passed(8, "complete-conferencing AF gap to the realized bound shrinks: "
              + " -> ".join(f"{g:.4f}" for g in gaps))


def test_criterion_09_log_sum_concentration():
    gap_small = lemma1_gap(Cscg(1.0), 10, 200, 17)
    gap_large = lemma1_gap(Cscg(1.0), 1000, 200, 17)
    assert gap_large < gap_small, (gap_small, gap_large)
    assert lemma1_gap(PointMass(1), 10, 200, 17) == 0.0
    passed(9, f"log-sum gap shrinks {gap_small:.4f} -> {gap_large:.4f} "
              f"and is exactly 0 for deterministic channels")


def test_criterion_10_conferencing_noise_fades_with_size():
    means = {}
    for n in (50, 400):
        cfg = NetworkConfig(n_relays=n, conferencing=Portion(0.2))
        vals = [conferencing_noise_ratio(
            sample_realization(cfg, derive_seed(4, t)), cfg).realized
            for t in range(200)]
        means[n] = float(np.mean(vals))
    assert means[400] < means[50], means
    passed(10, f"mean conferencing-noise share drops {means[50]:.4f} -> "
               f"{means[400]:.4f} from N=50 to N=400")


def test_criterion_11_reproducibility(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("N=8\np=0.5\ntrials=40\nseed=77\n")
    outputs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        out = tmp_path / name
        assert main(["sweep-n", "--config", str(cfg_path), "--axis", "4,8,16",
                     "--out", str(out), "--workers", workers]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    oracle_outputs = []
    for name in ("d.csv", "e.csv"):
        out = tmp_path / name
        assert main(["oracle", "--config", str(cfg_path), "--draws", "20000",
                     "--out", str(out)]) == 0
        oracle_outputs.append(out.read_bytes())
    assert oracle_outputs[0] == oracle_outputs[1]
    passed(11, "sweep and oracle CSVs replay byte-identically, serial and parallel")
