import math

import numpy as np
import pytest

import reference
from conftest import rate_rows

from confrelay import (
    ConferencingNoiseRatio,
    Cscg,
    Neighbors,
    NetworkConfig,
    PerIndex,
    PointMass,
    Portion,
    PreconditionError,
    UndefinedRatioError,
    capacity_upper_asymptotic,
    conferencing_noise_ratio,
    derive_seed,
    lemma1_gap,
    sample_realization,
    scaling_fit,
)
from confrelay import asymptotics, model
from confrelay.asymptotics import trace_points
from confrelay.model import ChannelRealization


class TestLemma1Gap:
    def test_point_mass_is_exactly_zero(self):
        assert lemma1_gap(PointMass(2 + 1j), 20, 30, 5) == 0.0

    def test_concentration_with_network_size(self):
        big = lemma1_gap(Cscg(1.0), 1000, 200, 17)
        small = lemma1_gap(Cscg(1.0), 10, 200, 17)
        assert big < small

    def test_single_trial_finite(self):
        gap = lemma1_gap(Cscg(0.5), 3, 1, 0)
        assert gap >= 0.0 and math.isfinite(gap)

    @pytest.mark.parametrize("dist,n,trials,seed", [
        (Cscg(1.0), 10, 40, 17),
        (Cscg(0.5), 3, 1, 0),
        (PerIndex((Cscg(1.0), PointMass(2), Cscg(3.0))), 3, 25, 2 ** 64 - 1),
    ])
    @pytest.mark.parametrize("block", [1, 7, None])
    def test_equals_per_trial_generator_loop(self, monkeypatch, dist, n, trials,
                                             seed, block):
        if block is not None:
            monkeypatch.setattr(model, "_BLOCK_ELEMENTS", block * n)
        # State chunks of 5 trials: blocks cross chunk boundaries.
        for chunk in (model._STATE_CHUNK, 5):
            monkeypatch.setattr(model, "_STATE_CHUNK", chunk)
            # The engine's rate arithmetic rounds apart from the loop's.
            assert math.isclose(lemma1_gap(dist, n, trials, seed),
                                reference.lemma1_gap(dist, n, trials, seed),
                                rel_tol=1e-12)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            lemma1_gap(Cscg(1.0), 0, 10, 0)
        with pytest.raises(ValueError):
            lemma1_gap(Cscg(1.0), 10, 0, 0)


class TestScalingFit:
    def test_exact_log_linear_recovery(self):
        points = [(n, 0.5 * math.log2(n)) for n in (8, 16, 32, 64)]
        fit = scaling_fit(points)
        assert abs(fit.slope - 0.5) < 1e-9
        assert abs(fit.intercept) < 1e-9
        assert fit.residual_rms < 1e-9

    def test_recovers_arbitrary_line(self):
        points = [(n, 1.7 * math.log2(n) - 0.3) for n in (4, 9, 33, 120, 500)]
        fit = scaling_fit(points)
        assert abs(fit.slope - 1.7) < 1e-9
        assert abs(fit.intercept + 0.3) < 1e-9

    def test_constant_points_have_zero_slope(self):
        fit = scaling_fit([(4, 1.0), (8, 1.0), (16, 1.0)])
        assert abs(fit.slope) < 1e-12

    def test_cut_set_bound_slope_approaches_half(self):
        points = []
        for n in (64, 128, 256, 512, 1024):
            cfg = NetworkConfig(n_relays=n, conferencing=Portion(0.5))
            points.append((n, capacity_upper_asymptotic(cfg)))
        fit = scaling_fit(points)
        assert abs(fit.slope - 0.5) < 0.05
        assert fit.residual_rms < 5e-3

    def test_needs_three_distinct_points(self):
        with pytest.raises(ValueError):
            scaling_fit([(4, 1.0), (8, 2.0)])
        with pytest.raises(ValueError):
            scaling_fit([(4, 1.0), (4, 2.0), (8, 3.0)])

    def test_points_sorted_in_result(self):
        fit = scaling_fit([(16, 2.0), (4, 1.0), (8, 1.5)])
        assert [p[0] for p in fit.points] == [4, 8, 16]


def _gaps(pts):
    return tuple(p.mean_abs_gap for p in pts)


class TestConvergenceTrace:
    def test_point_mass_upper_gap_is_zero_everywhere(self):
        def make(n):
            return NetworkConfig(n_relays=n, conferencing=Portion(0.5),
                                 h_dist=PointMass(1), g_dist=PointMass(1))
        gaps = _gaps(trace_points("upper", make, (4, 8, 16), 10, 3))
        assert gaps == (0.0, 0.0, 0.0)

    def test_complete_conferencing_af_gap_shrinks(self):
        def make(n):
            h = PerIndex(tuple(PointMass(complex(math.sqrt(0.6 + 0.8 * i / (n - 1))))
                               for i in range(n)))
            g = PerIndex(tuple(Cscg(0.6 + 0.8 * i / (n - 1)) for i in range(n)))
            return NetworkConfig(n_relays=n, conferencing=Portion(1.0),
                                 h_dist=h, g_dist=g)
        gaps = _gaps(trace_points("af", make, (8, 32, 128), 200, 31))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_iid_af_relative_gap_shrinks(self):
        cfg = NetworkConfig(n_relays=50, conferencing=Portion(0.2))
        rel = []
        for p in trace_points("af", cfg, (50, 400), 500, 12):
            c = NetworkConfig(n_relays=p.n_relays, conferencing=Portion(0.2))
            rel.append(p.mean_abs_gap / capacity_upper_asymptotic(c))
        assert rel[1] < rel[0]

    def test_df_gap_shrinks_for_iid(self):
        cfg = NetworkConfig(n_relays=25, conferencing=Portion(0.2))
        gaps = _gaps(trace_points("df", cfg, (25, 100, 400), 200, 9))
        assert gaps[2] < gaps[0]

    def test_rejects_unordered_sizes(self):
        cfg = NetworkConfig(n_relays=4, conferencing=Portion(0.5))
        with pytest.raises(ValueError):
            trace_points("upper", cfg, (8, 4), 5, 0)

    def test_rejects_unknown_scheme(self):
        cfg = NetworkConfig(n_relays=4, conferencing=Portion(0.5))
        with pytest.raises(ValueError):
            trace_points("cf", cfg, (4, 8), 5, 0)


def _uneven_draw(n):
    """A network whose count of normals per trial is not monotone in N:
    16 at N = 4, 4 at N = 6 and 10 at N = 9."""
    gauss = {4: (range(4), range(4)), 6: ((2,), (5,)), 9: (range(0, 9, 2), ())}[n]
    h = PerIndex(tuple(Cscg(0.5 + i / n) if i in gauss[0] else PointMass(1 - 0.5j)
                       for i in range(n)))
    g = PerIndex(tuple(Cscg(1.5 - i / n) if i in gauss[1] else PointMass(0.8)
                       for i in range(n)))
    return NetworkConfig(n_relays=n, conferencing=Portion(0.5), h_dist=h, g_dist=g)


SHARED_DRAW_CASES = {
    # name: (template, sizes, trials, block elements or None, state chunk or None)
    "cscg": (NetworkConfig(n_relays=5, conferencing=Portion(0.2)), (5, 10, 20, 40),
             30, None, None),
    "per_index_uneven": (_uneven_draw, (4, 6, 9), 30, None, None),
    "point_mass_first_hop": (NetworkConfig(n_relays=3, conferencing=Portion(0.5),
                                           h_dist=PointMass(1 + 1j), g_dist=Cscg(0.7)),
                             (3, 7, 12), 20, None, None),
    "complete_conferencing": (NetworkConfig(n_relays=3, conferencing=Portion(1.0)),
                              (3, 6, 11), 25, None, None),
    # Blocks of 3 trials at N = 16, 6 at N = 8 and 12 at N = 4.
    "blocks": (NetworkConfig(n_relays=4, conferencing=Portion(0.25)), (4, 8, 16),
               29, 3 * 16, None),
    # State chunks of 4 trials: 4 kept trials, then 4 chunks past them.
    "chunks": (NetworkConfig(n_relays=4, conferencing=Portion(0.25)), (4, 8, 16),
               19, None, 4),
}


class TestSharedDraw:
    """A trace draws each trial once, at its widest size, and every size reads
    a prefix of that row: each size's point is what a trace of that size
    alone gives, bit for bit."""

    @staticmethod
    def _patch(monkeypatch, block, chunk):
        if block is not None:
            monkeypatch.setattr(model, "_BLOCK_ELEMENTS", block)
        if chunk is not None:
            monkeypatch.setattr(model, "_STATE_CHUNK", chunk)

    @pytest.mark.parametrize("scheme", ["af", "df", "upper"])
    @pytest.mark.parametrize("case", sorted(SHARED_DRAW_CASES))
    def test_each_size_equals_its_own_trace(self, monkeypatch, case, scheme):
        template, sizes, trials, block, chunk = SHARED_DRAW_CASES[case]
        self._patch(monkeypatch, block, chunk)
        shared = trace_points(scheme, template, sizes, trials, 2 ** 64 - 7)
        assert [p.n_relays for p in shared] == list(sizes)
        for n, point in zip(sizes, shared):
            assert point == trace_points(scheme, template, (n,), trials, 2 ** 64 - 7)[0]

    @pytest.mark.parametrize("scheme", ["af", "df", "upper"])
    @pytest.mark.parametrize("case", sorted(SHARED_DRAW_CASES))
    def test_each_trial_row_is_drawn_once_at_the_widest_count(self, monkeypatch,
                                                              case, scheme):
        template, sizes, trials, block, chunk = SHARED_DRAW_CASES[case]
        self._patch(monkeypatch, block, chunk)
        draws = []
        seeded_normals = model._seeded_normals

        def counted(states, count, out=None):
            draws.append((states.copy(), count))
            return seeded_normals(states, count, out)

        monkeypatch.setattr(model, "_seeded_normals", counted)
        trace_points(scheme, template, sizes, trials, 5)
        widest = 0
        for n in sizes:
            cfg = asymptotics._trace_configs(template, (n,))[0]
            count = model._law(cfg.h_dist, n).count
            if scheme != "upper":
                count += model._law(cfg.g_dist, n).count
            widest = max(widest, count)
        # One row per trial, in trial order, each at the widest count.
        assert {count for _, count in draws} == {widest}
        order = model._thread_generator()[2]
        want = model._pcg64_states(model._derive_seeds(5, 0, trials), order)
        assert np.array_equal(np.concatenate([s for s, _ in draws]), want)

    @pytest.mark.parametrize("one_trial", [False, True])
    @pytest.mark.parametrize("scheme", ["af", "df", "upper"])
    @pytest.mark.parametrize("case", sorted(SHARED_DRAW_CASES))
    def test_means_equal_numpy_on_the_same_rates(self, monkeypatch, case, scheme,
                                                 one_trial):
        template, sizes, trials, block, chunk = SHARED_DRAW_CASES[case]
        self._patch(monkeypatch, block, chunk)
        trials = 1 if one_trial else trials
        for n, point in zip(sizes, trace_points(scheme, template, sizes, trials, 13)):
            cfg = asymptotics._trace_configs(template, (n,))[0]
            rows = rate_rows(cfg, trials, 13, (scheme, "upper"))
            limit = asymptotics._fixed_limit(scheme, cfg)
            # Complete conferencing: AF's limit is the realized cut-set bound.
            assert (limit is None) == (case == "complete_conferencing" and scheme == "af")
            rate = rows[scheme]
            gap = np.abs(rate - (rows["upper"] if limit is None else limit))
            assert (point.mean_rate, point.mean_abs_gap) == (float(np.mean(rate)),
                                                             float(np.mean(gap)))


class TestConferencingNoiseRatio:
    def test_fixture_value(self, two_relay_point_mass):
        cfg, real = two_relay_point_mass
        ratio = conferencing_noise_ratio(real, cfg)
        assert isinstance(ratio, ConferencingNoiseRatio)
        assert math.isclose(ratio.realized, 0.5, rel_tol=1e-9)
        assert math.isclose(ratio.expected, 0.5, rel_tol=1e-9)

    def test_trial_average_decays_with_network_size(self):
        means = []
        for n in (50, 400):
            cfg = NetworkConfig(n_relays=n, conferencing=Portion(0.2))
            vals = [conferencing_noise_ratio(
                sample_realization(cfg, derive_seed(4, t)), cfg).realized
                for t in range(100)]
            means.append(np.mean(vals))
        assert means[1] < means[0]

    def test_nonincreasing_in_conferencing_power(self):
        from dataclasses import replace
        cfg = NetworkConfig(n_relays=20, conferencing=Portion(0.3), p_c=0.2)
        real = sample_realization(cfg, 44)
        low = conferencing_noise_ratio(real, cfg).realized
        high_cfg = replace(cfg, p_c=20.0)
        high = conferencing_noise_ratio(real, high_cfg).realized
        assert high <= low
        huge_cfg = replace(cfg, p_c=1e12)
        assert conferencing_noise_ratio(real, huge_cfg).realized < 1e-10

    def test_requires_conferencing(self):
        cfg = NetworkConfig(n_relays=4, conferencing=Neighbors(0))
        real = sample_realization(cfg, 0)
        with pytest.raises(PreconditionError):
            conferencing_noise_ratio(real, cfg)

    def test_undefined_for_silent_network(self):
        cfg = NetworkConfig(n_relays=3, conferencing=Neighbors(1))
        real = ChannelRealization(h=np.zeros(3, dtype=complex),
                                  g=np.ones(3, dtype=complex))
        with pytest.raises(UndefinedRatioError):
            conferencing_noise_ratio(real, cfg)
