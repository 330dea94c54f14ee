import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import rate_rows
from confrelay import (
    ConfigurationError,
    Cscg,
    Neighbors,
    NetworkConfig,
    PerIndex,
    PointMass,
    Portion,
    PreconditionError,
    SweepSpec,
    af_rate,
    af_sinr,
    analytic_df_mac_snr,
    capacity_upper_bound,
    derive_seed,
    df_rate,
    run_point,
    sample_realization,
    signal_oracle_af,
    signal_oracle_df_mac,
    sweep,
)
from confrelay import model, montecarlo, rates
from confrelay.model import _STATE_CHUNK
from confrelay.montecarlo import _rate_table, sweep_point
from confrelay.rates import SCHEMES


def _engine_cases():
    rng = np.random.default_rng(12)
    mixed = PerIndex(tuple(PointMass(1.2) if i % 4 == 1 else Cscg(float(v))
                           for i, v in enumerate(rng.uniform(0.5, 2.0, 9))))
    return {
        "uniform": NetworkConfig(n_relays=20, conferencing=Portion(0.3),
                                 p_s=1.5, p_c=0.8, n_0=0.9, conf_gain=0.7),
        "gain_matrix": NetworkConfig(n_relays=9, conferencing=Neighbors(3),
                                     conf_gain=rng.uniform(0.5, 1.5, (9, 3))),
        "per_index": NetworkConfig(n_relays=9, conferencing=Neighbors(2),
                                   p_c=2.0, h_dist=mixed, g_dist=Cscg(0.6)),
        "no_conferencing": NetworkConfig(n_relays=7, conferencing=Neighbors(0),
                                         g_dist=Cscg(1.7)),
        "complete": NetworkConfig(n_relays=8, conferencing=Neighbors(7),
                                  conf_gain=rng.uniform(0.5, 1.5, (8, 7)),
                                  g_dist=PerIndex(tuple(Cscg(0.5 + 0.2 * i)
                                                        for i in range(8)))),
    }


ENGINE_CASES = _engine_cases()


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_spreads_trials(self):
        seeds = {derive_seed(0, t) for t in range(1000)}
        assert len(seeds) == 1000

    def test_spreads_bases(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_64_bit_range(self):
        for t in range(50):
            s = derive_seed(123456789, t)
            assert 0 <= s < 2 ** 64


    @pytest.mark.parametrize("base", [0, 1, 12345, 2 ** 63, 2 ** 64 - 1])
    def test_block_derivation_matches_scalar(self, base):
        for lo, hi in ((0, 60), (1000, 1013), (7, 8)):
            assert (model._derive_seeds(base, lo, hi).tolist()
                    == [derive_seed(base, t) for t in range(lo, hi)])

    # derive_seed(base, t) for t = 0, 1, 7 and 1012, recorded from a
    # Python-int SplitMix64 mixer; a base is read modulo 2**64.
    PINNED = {
        0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0xC584133AC916AB3C, 0xAF273E82D37541BC),
        1: (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0x85E7BB0F12278575, 0x8EE64FF144808A90),
        12345: (0x22118258A9D111A0, 0x346EDCE5F713F8ED, 0x6E7411B06820371C,
                0xD6A86D9033D44597),
        2 ** 63: (0x481EC0A212A9F3DB, 0xC46FA638A6309012, 0x6250485B3CDEFBBD,
                  0x4785E8B639738A96),
        2 ** 64 - 1: (0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x405DA438A39E8064,
                      0xDAE86727ECECC67B),
        -7: (0x6C1E186443822970, 0x7A87F4DABCF192AA, 0x01B4B0D3E2ABD63B, 0x852E66AF35DD3AB5),
        2 ** 64 + 12345: (0x22118258A9D111A0, 0x346EDCE5F713F8ED, 0x6E7411B06820371C,
                          0xD6A86D9033D44597),
    }

    @pytest.mark.parametrize("base", sorted(PINNED))
    def test_pinned_values(self, base):
        want = list(self.PINNED[base])
        assert [derive_seed(base, t) for t in (0, 1, 7, 1012)] == want
        assert model._derive_seeds(base, 0, 1013)[[0, 1, 7, 1012]].tolist() == want

    def test_trial_is_read_modulo_2_64(self):
        # Trial t mixes base + GOLDEN * (t + 1) mod 2**64, for any int t.
        assert derive_seed(12345, -1) == derive_seed(12345, 2 ** 64 - 1) == 0xF36CF1164265DD51
        assert derive_seed(12345, 2 ** 64 + 7) == self.PINNED[12345][2]
        assert model._derive_seeds(12345, -2, 2).tolist() == [
            0x161DD8CDEA9AC2D8, 0xF36CF1164265DD51, *self.PINNED[12345][:2]]


class TestRunPoint:
    def test_point_mass_mean_equals_single_shot(self, two_relay_point_mass):
        cfg, real = two_relay_point_mass
        res = run_point(cfg, trials=7, base_seed=3, schemes=("af", "df", "upper"))
        assert res.errors == {}
        assert res.stats["af"].mean_rate == af_rate(real, cfg)
        assert res.stats["df"].mean_rate == df_rate(real, cfg)
        assert res.stats["upper"].mean_rate == capacity_upper_bound(real, cfg)
        for st in res.stats.values():
            assert st.std_error == 0.0
            assert st.trials == 7

    def test_scheme_errors_do_not_block_others(self):
        cfg = NetworkConfig(n_relays=6, conferencing=Portion(0.5), p_c=0.0)
        res = run_point(cfg, 4, 0, ("af", "df", "upper"))
        assert set(res.errors) == {"af", "df"}
        assert set(res.stats) == {"upper"}

    def test_no_runnable_scheme_returns_only_errors(self, drawn):
        cfg = NetworkConfig(n_relays=6, conferencing=Neighbors(2), p_c=0.0)
        res = run_point(cfg, 4, 0, ("af", "df"))
        assert res.stats == {}
        assert res.errors == {
            s: f"scheme {s!r} needs p_c > 0 when conferencing is enabled (M = 2)"
            for s in ("af", "df")}
        assert drawn == []

    def test_dominance_over_trials(self):
        cfg = NetworkConfig(n_relays=30, conferencing=Portion(0.1))
        for t in range(100):
            real = sample_realization(cfg, derive_seed(9, t))
            upper = capacity_upper_bound(real, cfg)
            assert af_rate(real, cfg) <= upper * (1 + 1e-9)
            assert df_rate(real, cfg) <= upper * (1 + 1e-9)

    def test_std_error_scales_with_trials(self):
        # Quadrupling the trial count roughly halves the standard error.
        cfg = NetworkConfig(n_relays=10, conferencing=Portion(0.4))
        small = run_point(cfg, 400, 21, ("upper",)).stats["upper"].std_error
        large = run_point(cfg, 1600, 21, ("upper",)).stats["upper"].std_error
        assert 0.5 * 0.7 < large / small < 0.5 * 1.3

    def test_rejects_bad_trials(self):
        cfg = NetworkConfig(n_relays=2, conferencing=Neighbors(0))
        with pytest.raises(ConfigurationError):
            run_point(cfg, 0, 0, ("upper",))

    # The cut-set bound reads only the first hop, so under a point-mass h it
    # is constant while AF and DF vary: the stacked reduction mixes both.
    @pytest.mark.parametrize("name", sorted(ENGINE_CASES) + ["point_mass_h"])
    @pytest.mark.parametrize("trials", [1, 2, 127, 128, 129, 8193])
    def test_stacked_reduction_equals_per_scheme_numpy(self, name, trials):
        cfg = ENGINE_CASES.get(name) or NetworkConfig(
            n_relays=6, conferencing=Neighbors(2), h_dist=PointMass(0.8 + 0.3j),
            g_dist=Cscg(1.1))
        [(names, table)] = _rate_table([(cfg, SCHEMES)], trials, 5)
        assert names == SCHEMES and table.shape == (len(SCHEMES), trials)
        point = run_point(cfg, trials, 5, SCHEMES)
        for s, row in zip(names, table):
            st = point.stats[s]
            assert st.trials == trials
            if np.all(row == row[0]):
                assert st.mean_rate == float(row[0]) and st.std_error == 0.0
                continue
            assert st.mean_rate == float(np.mean(row))
            assert st.std_error == float(np.std(row, ddof=1) / math.sqrt(trials))
        # One trial is constant in every scheme.
        constant = name == "point_mass_h" or trials == 1
        assert constant == (point.stats["upper"].std_error == 0.0)


class TestReduceRows:
    """``montecarlo._reduce_rows``, the one reduction of a rate table."""

    @staticmethod
    def _table():
        rng = np.random.default_rng(4)
        v = rng.exponential(size=(3, 1001))
        v[1] = 0.75  # a constant row among varying ones
        return v

    def test_steps_of_numpy_row_by_row(self):
        v = self._table()
        want = [(np.add.reduce(row), np.add.reduce(np.square(row - np.mean(row))))
                for row in v]
        total, m2, first, constant = montecarlo._reduce_rows(v.copy())
        assert first.tolist() == v[:, 0].tolist()
        assert constant.tolist() == [False, True, False]
        assert total.tolist() == [t for t, _ in want]
        assert m2.tolist() == [m for _, m in want]

    @pytest.mark.parametrize("rows", [slice(1, 2), slice(0, 3)], ids=["constant", "one_trial"])
    def test_nothing_to_spread_leaves_the_table_as_it_is(self, rows):
        # A constant row alone, or every row cut to its first trial.
        v = self._table()[rows]
        if rows.stop == 3:
            v = v[:, :1]
        v = v.copy()
        kept = v.copy()
        total, m2, first, constant = montecarlo._reduce_rows(v)
        assert np.array_equal(v, kept)
        assert m2.tolist() == [0.0] * len(v)
        assert constant.all()
        assert total.tolist() == np.add.reduce(kept, axis=1).tolist()
        assert first.tolist() == kept[:, 0].tolist()


class TestTrialEngine:
    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_matches_per_realization_functions(self, name):
        cfg = ENGINE_CASES[name]
        got = rate_rows(cfg, 11, 77, SCHEMES)
        for t in range(11):
            real = sample_realization(cfg, derive_seed(77, t))
            want = {"upper": capacity_upper_bound(real, cfg),
                    "df": df_rate(real, cfg),
                    "af": af_rate(real, cfg)}
            for s in SCHEMES:
                assert math.isclose(got[s][t], want[s], rel_tol=1e-12), (s, t)

    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_kernels_never_write_their_inputs(self, name):
        # A point's kernels all read the same |h|^2 and |g|^2: on read-only
        # squares each runs and gives the bits it gives on writable copies.
        cfg = ENGINE_CASES[name]
        rng = np.random.default_rng(8)
        for shape in ((cfg.n_relays,), (5, cfg.n_relays)):
            h2, g2 = rng.exponential(size=shape), rng.exponential(size=shape)
            h2.flags.writeable = g2.flags.writeable = False
            for scheme, kernel in rates.scheme_kernels(cfg, SCHEMES).items():
                got = np.asarray(kernel(h2, g2))
                want = np.asarray(kernel(h2.copy(), g2.copy()))
                assert got.tobytes() == want.tobytes(), scheme

    @pytest.mark.parametrize("name", ["uniform", "gain_matrix", "per_index"])
    def test_block_size_does_not_change_results(self, monkeypatch, name):
        cfg = ENGINE_CASES[name]
        default = model._BLOCK_ELEMENTS
        assert default // cfg.n_relays > 23
        outcomes = []
        # State chunks of 5 trials: blocks cross chunk boundaries.
        for chunk in (model._STATE_CHUNK, 5):
            monkeypatch.setattr(model, "_STATE_CHUNK", chunk)
            for block in (1, 7, None):
                budget = default if block is None else block * cfg.n_relays
                monkeypatch.setattr(model, "_BLOCK_ELEMENTS", budget)
                outcomes.append((rate_rows(cfg, 23, 4, SCHEMES),
                                 run_point(cfg, 23, 4, SCHEMES)))
        (want, point), rest = outcomes[0], outcomes[1:]
        for got, other in rest:
            for s in SCHEMES:
                assert np.array_equal(got[s], want[s])
                assert other.stats[s] == point.stats[s]


    @pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "default"])
    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_upper_alone_equals_all_schemes_column(self, monkeypatch, name, block):
        # Alone, the cut-set bound draws only each trial's first-hop normals.
        cfg = ENGINE_CASES[name]
        if block is not None:
            monkeypatch.setattr(model, "_BLOCK_ELEMENTS", block * cfg.n_relays)
        [(names, alone)] = _rate_table([(cfg, ("upper",))], 23, 4)
        assert names == ("upper",)
        [(names, table)] = _rate_table([(cfg, SCHEMES)], 23, 4)
        assert np.array_equal(alone[0], table[names.index("upper")])


class TestSweep:
    def test_single_value_axis_equals_run_point(self):
        base = NetworkConfig(n_relays=6, conferencing=Portion(0.5))
        spec = SweepSpec(base=base, axis="n_relays", values=(6,), trials=10,
                         base_seed=2, schemes=("upper", "df"))
        res = sweep(spec)
        assert len(res.points) == 1
        direct = run_point(base, 10, 2, ("upper", "df"))
        assert res.points[0].result.stats == direct.stats

    def test_upper_and_af_grow_with_network_size(self):
        base = NetworkConfig(n_relays=10, conferencing=Portion(0.2))
        spec = SweepSpec(base=base, axis="n_relays", values=(10, 50, 100),
                         trials=200, base_seed=14)
        res = sweep(spec)
        for scheme in ("upper", "af"):
            means = [p.result.stats[scheme].mean_rate for p in res.points]
            assert means[0] < means[1] < means[2]

    def test_df_mean_nondecreasing_in_portion(self):
        base = NetworkConfig(n_relays=40, conferencing=Portion(0.1))
        spec = SweepSpec(base=base, axis="portion", values=(0.1, 0.3, 0.6, 1.0),
                         trials=100, base_seed=14, schemes=("df",))
        res = sweep(spec)
        means = [p.result.stats["df"].mean_rate for p in res.points]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_snr_axis_sets_conferencing_power(self):
        base = NetworkConfig(n_relays=8, conferencing=Portion(0.5), n_0=2.0)
        spec = SweepSpec(base=base, axis="conf_snr_db", values=(-10.0, 0.0, 10.0),
                         trials=5, base_seed=0, schemes=("df",))
        res = sweep(spec)
        assert [p.pc_over_n0_db for p in res.points] == [-10.0, 0.0, 10.0]

    def test_snr_axis_minus_inf_is_zero_power(self):
        base = NetworkConfig(n_relays=4, conferencing=Neighbors(1))
        assert montecarlo.apply_axis(base, "conf_snr_db", -math.inf).p_c == 0.0
        assert montecarlo.apply_axis(base, "conf_snr_db", -3000.0).p_c > 0.0

    @pytest.mark.parametrize("p_c, n_0, db", [(0.0, 1.0, -math.inf),
                                              (1e-300, 1e300, -6000.0),
                                              (1e300, 1e-300, 6000.0)])
    def test_conferencing_snr_in_db(self, p_c, n_0, db):
        # -inf only at Pc = 0; a ratio that under- or overflows a double is
        # still a finite number of dB.
        cfg = NetworkConfig(n_relays=4, conferencing=Neighbors(1), p_c=p_c, n_0=n_0)
        assert sweep_point(cfg, 0.0, 2, 0, ("upper",)).pc_over_n0_db == db

    def test_portion_axis_recomputes_neighbors(self):
        base = NetworkConfig(n_relays=100, conferencing=Portion(0.5))
        spec = SweepSpec(base=base, axis="portion", values=(0.05, 0.2, 1.0),
                         trials=2, base_seed=0, schemes=("upper",))
        res = sweep(spec)
        assert [p.m_conf for p in res.points] == [4, 19, 99]
        assert [p.p_effective for p in res.points] == [0.05, 0.2, 1.0]

    def test_rejects_unsorted_axis(self):
        base = NetworkConfig(n_relays=4, conferencing=Portion(0.5))
        with pytest.raises(ConfigurationError):
            SweepSpec(base=base, axis="n_relays", values=(8, 4), trials=1,
                      base_seed=0)

    def test_rejects_unknown_axis(self):
        base = NetworkConfig(n_relays=4, conferencing=Portion(0.5))
        with pytest.raises(ConfigurationError):
            SweepSpec(base=base, axis="powers", values=(1, 2), trials=1,
                      base_seed=0)


class TestSweepDrawAhead:
    """A sweep draws its first trials once, at its widest point, before its
    first point; every point's walk reads its prefix of those rows, and its
    statistics are those of the point run alone."""

    @staticmethod
    def _one_by_one(spec):
        """Each point's statistics from its own ``run_point``, with no kept rows."""
        stats = []
        for v in spec.values:
            model._THREAD.first_rows = None
            cfg = montecarlo.apply_axis(spec.base, spec.axis, v)
            stats.append(run_point(cfg, spec.trials, spec.base_seed, spec.schemes).stats)
        return stats

    @pytest.mark.parametrize("schemes,width", [(SCHEMES, 400), (("upper",), 200)],
                             ids=["all_schemes", "first_hop_only"])
    def test_sweep_n_draws_each_row_once_at_the_widest_point(self, drawn,
                                                             schemes, width):
        # N = 100 under the default laws: 200 first-hop normals, 400 in all.
        base = NetworkConfig(n_relays=25, conferencing=Portion(0.2))
        spec = SweepSpec(base=base, axis="n_relays", values=(25, 50, 100),
                         trials=100, base_seed=11, schemes=schemes)
        res = sweep(spec)
        assert drawn == [(100, width)]
        assert [p.result.stats for p in res.points] == self._one_by_one(spec)

    def test_second_sweep_of_the_same_run_draws_nothing(self, drawn):
        base = NetworkConfig(n_relays=5, conferencing=Portion(0.4))
        spec = SweepSpec(base=base, axis="n_relays", values=(5, 10), trials=30,
                         base_seed=3)
        first = sweep(spec)
        drawn.clear()
        again = sweep(spec)
        assert drawn == []
        assert [p.result.stats for p in again.points] == [
            p.result.stats for p in first.points]

    @pytest.mark.parametrize("axis,n,values,trials,rows,normals", [
        ("portion", 100, (0.1, 0.2, 0.5, 1.0), 100, 100, 100 * 400),
        ("portion", 100, (0.1, 0.2, 0.5, 1.0), 3000, 2621 + 4 * 379, 4137 * 400),
        ("n_relays", 8, (8, 12, 20), _STATE_CHUNK + 50, 13107 + 3 * (3277 + 50),
         13107 * 80 + 3327 * (32 + 48 + 80)),
        ("n_relays", 4, (4, 9, 30), 17000, 8738 + 3 * (7646 + 616),
         8738 * 120 + 8262 * (16 + 36 + 120)),
    ], ids=["portion", "portion_above_kept", "n_two_chunks", "n_three_sizes_two_chunks"])
    def test_draws_no_more_than_its_points_walked_alone(self, monkeypatch, drawn, axis, n,
                                                        values, trials, rows, normals):
        # N = 100: room for 2**20 // 400 = 2621 first rows; past them each of
        # the 4 points draws its last 379 trials.  Over two chunks, each
        # point draws the trials of the first chunk past the first rows and
        # every trial of the second: at N = 20, past 2**20 // 80 = 13107
        # rows, 3277 and 50; at N = 30, past 2**20 // 120 = 8738 rows, 7646
        # and 616.
        base = NetworkConfig(n_relays=n, conferencing=Portion(0.1))
        spec = SweepSpec(base=base, axis=axis, values=values, trials=trials,
                         base_seed=12)
        res = sweep(spec)
        shared = (sum(r for r, _ in drawn), sum(r * c for r, c in drawn))
        model._THREAD.first_rows = None
        del drawn[:]
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "_draw_ahead", lambda *args: None)
            alone = sweep(spec)
        alone_drawn = (sum(r for r, _ in drawn), sum(r * c for r, c in drawn))
        assert shared[0] <= alone_drawn[0] and shared[1] <= alone_drawn[1]
        assert shared == (rows, normals)
        assert [p.result.stats for p in res.points] == [
            p.result.stats for p in alone.points]

    @pytest.mark.parametrize("axis,n,values,trials", [
        ("n_relays", 100, (100, 200, 400), 700),
        ("portion", 60, (0.2, 0.5), 4500),
        ("n_relays", 2, (2, 3, 5), _STATE_CHUNK + 50),
        ("conf_snr_db", 4, (-5.0, 0.0, 5.0), _STATE_CHUNK + 50),
    ], ids=["n_above_kept", "portion_above_kept", "n_two_chunks", "snr_two_chunks"])
    def test_points_equal_the_points_run_one_by_one(self, axis, n, values, trials):
        # Past the kept rows (room for 655 rows of 1600 and 4369 of 240
        # normals), and over two chunks of states.
        base = NetworkConfig(n_relays=n, conferencing=Portion(0.5))
        spec = SweepSpec(base=base, axis=axis, values=values, trials=trials,
                         base_seed=2 ** 64 - 9)
        res = sweep(spec)
        assert [p.result.stats for p in res.points] == self._one_by_one(spec)

    def test_bad_axis_value_raises_before_any_draw(self, drawn):
        base = NetworkConfig(n_relays=4, conferencing=Neighbors(1))
        spec = SweepSpec(base=base, axis="conf_snr_db", values=(0.0, 4000.0, 5000.0),
                         trials=5, base_seed=0)
        with pytest.raises(ConfigurationError, match="axis value 4000.0 dB"):
            sweep(spec)
        assert drawn == []


class TestSignalOracles:
    def test_af_fixture_sinr(self, two_relay_point_mass):
        cfg, real = two_relay_point_mass
        res = signal_oracle_af(real, cfg, 100_000, 7)
        assert math.isclose(res.sinr, 0.8, rel_tol=0.02)
        assert res.draws == 100_000

    def test_af_random_realization_within_tolerance(self):
        cfg = NetworkConfig(n_relays=5, conferencing=Portion(1.0))
        real = sample_realization(cfg, 42)
        ana = af_sinr(real, cfg)
        res = signal_oracle_af(real, cfg, 100_000, 9)
        assert abs(res.sinr - ana) <= max(0.02 * ana, 3 * res.std_error)

    def test_df_mac_fixture_snr(self, two_relay_point_mass):
        cfg, real = two_relay_point_mass
        res = signal_oracle_df_mac(real, cfg, 100_000, 7)
        assert math.isclose(res.sinr, 4.0, rel_tol=0.02)
        assert analytic_df_mac_snr(real, cfg) == 4.0

    def test_df_mac_single_relay(self):
        cfg = NetworkConfig(n_relays=1, conferencing=Neighbors(0),
                            h_dist=PointMass(1), g_dist=PointMass(1))
        real = sample_realization(cfg, 0)
        res = signal_oracle_df_mac(real, cfg, 50_000, 3)
        assert math.isclose(res.sinr, 1.0, rel_tol=0.02)

    def test_df_mac_zero_relay_power(self, two_relay_point_mass):
        cfg, real = two_relay_point_mass
        res = signal_oracle_df_mac(real, replace(cfg, p_r=0.0), 1000, 3)
        assert res.sinr == 0.0

    def test_zero_noise_guard(self, two_relay_point_mass):
        cfg, real = two_relay_point_mass
        # Noise 1e-30 below a unit signal is under the chain's round-off.
        res = signal_oracle_af(real, replace(cfg, n_0=1e-30), 1000, 3)
        assert res.sinr == math.inf and res.std_error == 0.0

    def test_deterministic_given_seed(self, two_relay_point_mass):
        cfg, real = two_relay_point_mass
        a = signal_oracle_af(real, cfg, 20_000, 5)
        b = signal_oracle_af(real, cfg, 20_000, 5)
        assert a == b

    def test_af_oracle_needs_conferencing_power(self):
        cfg = NetworkConfig(n_relays=4, conferencing=Neighbors(2), p_c=0.0)
        mom_cfg = replace(cfg, p_c=1.0)
        real = sample_realization(cfg, 0)
        with pytest.raises(PreconditionError):
            signal_oracle_af(real, cfg, 100, 0)

    def test_af_oracle_with_pair_gain_matrix(self):
        rng = np.random.default_rng(31)
        cfg = NetworkConfig(n_relays=4, conferencing=Neighbors(2),
                            conf_gain=rng.uniform(0.5, 1.5, (4, 2)),
                            h_dist=Cscg(1.0), g_dist=Cscg(1.0))
        real = sample_realization(cfg, 13)
        ana = af_sinr(real, cfg)
        res = signal_oracle_af(real, cfg, 100_000, 2)
        assert abs(res.sinr - ana) <= max(0.02 * ana, 3 * res.std_error)
