import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from confrelay import (
    ChannelRealization,
    ConfigurationError,
    Cscg,
    Neighbors,
    NetworkConfig,
    PerIndex,
    PointMass,
    Portion,
    conferencing_size,
    moments,
    sample_channel,
    sample_realization,
)
from confrelay.model import (
    MASK64,
    _from_normals,
    _normal_count,
    _sampled_squares,
    _seeded_normals,
    _squares_from_normals,
    spec_moments,
)

LAWS = {
    "cscg": Cscg(1.3),
    "point_mass": PointMass(-7.77 + 1e-5j),
    "per_index_mixed": PerIndex((Cscg(1.0), PointMass(2), Cscg(0.5), PointMass(1j),
                                 PointMass(-7.77 + 1e-5j), Cscg(3.0), Cscg(0.7))),
    "per_index_point_masses": PerIndex(tuple(PointMass(0.3 * k + 0.1j)
                                             for k in range(1, 8))),
}


def stacked_realizations(cfg, seeds):
    """``sample_realization`` per seed, stacked into (len(seeds), N) h and g."""
    reals = [sample_realization(cfg, s) for s in seeds]
    return np.array([r.h for r in reals]), np.array([r.g for r in reals])


class TestConferencingSize:
    def test_complete_conferencing(self):
        assert conferencing_size(1.0, 8) == 7

    def test_tenth_portion_of_hundred(self):
        m = conferencing_size(0.1, 100)
        assert m == 9
        assert (m + 1) / 100 == 0.1

    def test_clamps_to_zero(self):
        assert conferencing_size(0.2, 5) == 0

    def test_rejects_out_of_range_portion(self):
        with pytest.raises(ConfigurationError):
            conferencing_size(0.0, 10)
        with pytest.raises(ConfigurationError):
            conferencing_size(1.5, 10)

    @settings(derandomize=True, max_examples=60)
    @given(st.integers(1, 200), st.floats(0.001, 1.0), st.floats(0.001, 1.0))
    def test_nondecreasing_in_portion(self, n, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        assert conferencing_size(lo, n) <= conferencing_size(hi, n)
        assert 0 <= conferencing_size(lo, n) <= n - 1

    def test_portion_one_always_complete(self):
        for n in range(1, 30):
            assert conferencing_size(1.0, n) == n - 1


class TestMoments:
    def test_unit_gaussian(self):
        cfg = NetworkConfig(n_relays=3, conferencing=Neighbors(0),
                            h_dist=Cscg(1.0), g_dist=Cscg(1.0))
        mom = moments(cfg)
        assert np.allclose(mom.m2_h, 1.0)
        assert np.allclose(mom.m4_h, 2.0)

    def test_gaussian_fourth_moment_scaling(self):
        cfg = NetworkConfig(n_relays=2, conferencing=Neighbors(0),
                            h_dist=Cscg(2.0), g_dist=Cscg(1.0))
        mom = moments(cfg)
        assert np.allclose(mom.m2_h, 2.0)
        assert np.allclose(mom.m4_h, 8.0)

    def test_gaussian_moments_match_sampled_law(self):
        # Monte Carlo oracle for the analytic magnitude moments.
        rng = np.random.default_rng(123)
        for variance in (1.0, 2.0):
            draws = np.abs(sample_channel(Cscg(variance), 10 ** 6, rng)) ** 2
            for moment, analytic in ((draws, variance), (draws ** 2, 2 * variance ** 2)):
                se = np.std(moment) / math.sqrt(len(moment))
                assert abs(np.mean(moment) - analytic) < 3 * se

    def test_point_mass_is_deterministic(self):
        cfg = NetworkConfig(n_relays=1, conferencing=Neighbors(0),
                            h_dist=PointMass(1), g_dist=PointMass(1))
        mom = moments(cfg)
        assert mom.m2_h[0] == 1.0 and mom.m4_h[0] == 1.0
        assert mom.m4_h[0] == mom.m2_h[0] ** 2

    def test_per_index_composite(self):
        spec = PerIndex((Cscg(1.0), PointMass(2), Cscg(0.5)))
        cfg = NetworkConfig(n_relays=3, conferencing=Neighbors(0),
                            h_dist=spec, g_dist=Cscg(1.0))
        mom = moments(cfg)
        assert np.array_equal(mom.m2_h, [1.0, 4.0, 0.5])
        assert np.array_equal(mom.m4_h, [2.0, 16.0, 0.5])

    def test_per_index_equals_per_entry_moments(self):
        # Python's abs(complex) and np.abs round |v| differently for many of
        # these point masses; every entry keeps the rounding of its own law.
        rng = np.random.default_rng(11)
        specs = []
        for _ in range(3000):
            if rng.random() < 0.2:
                specs.append(Cscg(float(10.0 ** rng.uniform(-3, 3))))
            else:
                re, im = 10.0 ** rng.uniform(-3, 3, 2) * rng.choice([-1.0, 1.0], 2)
                specs.append(PointMass(complex(re, im)))
        m2, m4 = spec_moments(PerIndex(tuple(specs)), len(specs))
        single = [spec_moments(s, 1) for s in specs]
        assert np.array_equal(m2, [p[0][0] for p in single])
        assert np.array_equal(m4, [p[1][0] for p in single])
        values = np.array([s.value for s in specs if isinstance(s, PointMass)])
        assert np.any(np.abs(values) ** 2 != [abs(v) ** 2 for v in values])

    def test_rejects_zero_point_mass(self):
        with pytest.raises(ConfigurationError):
            PointMass(0)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ConfigurationError):
            Cscg(0.0)

    def test_rejects_mismatched_per_index_length(self):
        spec = PerIndex((Cscg(1.0), Cscg(1.0)))
        with pytest.raises(ConfigurationError):
            NetworkConfig(n_relays=3, conferencing=Neighbors(0), h_dist=spec)


class TestSampling:
    def test_bit_identical_for_same_seed(self):
        cfg = NetworkConfig(n_relays=16, conferencing=Portion(0.5))
        a = sample_realization(cfg, 987654321)
        b = sample_realization(cfg, 987654321)
        assert np.array_equal(a.h, b.h) and np.array_equal(a.g, b.g)

    def test_different_seeds_differ(self):
        cfg = NetworkConfig(n_relays=16, conferencing=Portion(0.5))
        a = sample_realization(cfg, 1)
        b = sample_realization(cfg, 2)
        assert not np.array_equal(a.h, b.h)

    def test_point_mass_gives_constant_channels(self):
        cfg = NetworkConfig(n_relays=5, conferencing=Neighbors(0),
                            h_dist=PointMass(1), g_dist=PointMass(1))
        real = sample_realization(cfg, 3)
        assert np.array_equal(real.h, np.ones(5))
        assert np.array_equal(real.g, np.ones(5))

    def test_sampled_power_matches_variance(self):
        # 1e5 draws of |h0|^2 land within 3 standard errors of the variance.
        rng = np.random.default_rng(77)
        draws = np.abs(sample_channel(Cscg(1.0), 10 ** 5, rng)) ** 2
        se = np.std(draws) / math.sqrt(len(draws))
        assert abs(np.mean(draws) - 1.0) < 3 * se

    def test_realizations_are_read_only(self):
        cfg = NetworkConfig(n_relays=4, conferencing=Neighbors(0))
        real = sample_realization(cfg, 0)
        with pytest.raises(ValueError):
            real.h[0] = 0

    def test_realization_holds_fading_gains_only(self):
        # The conferencing gains live on the configuration alone.
        assert [f.name for f in fields(ChannelRealization)] == ["h", "g"]
        with pytest.raises(ConfigurationError):
            ChannelRealization(h=np.ones(2), g=np.ones(3))

    @pytest.mark.parametrize("spec", [
        Cscg(1.3),
        PointMass(0.6 + 0.8j),
        PerIndex(tuple(Cscg(0.4 + 0.2 * i) for i in range(7))),
        PerIndex((Cscg(1.0), PointMass(2), Cscg(0.5), PointMass(1j),
                  PointMass(-1), Cscg(3.0), Cscg(0.7))),
    ], ids=["cscg", "point_mass", "per_index_cscg", "per_index_mixed"])
    def test_draws_equal_per_entry_reference(self, spec):
        for seed in range(6):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(sample_channel(spec, 7, fast),
                                  reference.sample_channel(spec, 7, slow))
            # Both consumed the same amount of the stream.
            assert fast.random() == slow.random()

    def test_realization_draws_h_before_g(self):
        h_dist = PerIndex((Cscg(1.0), PointMass(2), Cscg(0.5)))
        cfg = NetworkConfig(n_relays=3, conferencing=Neighbors(1),
                            h_dist=h_dist, g_dist=Cscg(2.0))
        for seed in (0, 5, 2 ** 64 - 1):
            real = sample_realization(cfg, seed)
            rng = np.random.default_rng(seed)
            assert np.array_equal(real.h, reference.sample_channel(h_dist, 3, rng))
            assert np.array_equal(real.g, reference.sample_channel(Cscg(2.0), 3, rng))


class TestSeededNormals:
    EDGE_SEEDS = [0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1,
                  -1, -(2 ** 40) - 3, 2 ** 64, 2 ** 70 + 5, 3 * 2 ** 96 + 17]

    @staticmethod
    def _want(seeds, count):
        return np.array([np.random.default_rng(int(s) & MASK64).standard_normal(count)
                         for s in seeds]).reshape(len(seeds), count)

    def test_rows_equal_one_generator_per_seed(self):
        rng = np.random.default_rng(2024)
        seeds = (self.EDGE_SEEDS
                 + [int(s) for s in rng.integers(0, 2 ** 32, 150)]
                 + [int(s) for s in rng.integers(0, 2 ** 64, 250, dtype=np.uint64)])
        assert np.array_equal(_seeded_normals(seeds, 5), self._want(seeds, 5))

    def test_uint64_array_seeds(self):
        seeds = np.array([s & MASK64 for s in self.EDGE_SEEDS], dtype=np.uint64)
        assert np.array_equal(_seeded_normals(seeds, 3), self._want(self.EDGE_SEEDS, 3))

    def test_single_seed_and_empty_shapes(self):
        assert np.array_equal(_seeded_normals([2 ** 64 - 1], 9),
                              self._want([2 ** 64 - 1], 9))
        assert _seeded_normals([1, 2], 0).shape == (2, 0)
        assert _seeded_normals([], 4).shape == (0, 4)

    @pytest.mark.parametrize("h_dist,g_dist", [
        (Cscg(1.3), Cscg(0.4)),
        (PointMass(0.6 + 0.8j), Cscg(2.0)),
        (PerIndex((Cscg(1.0), PointMass(2), Cscg(0.5), PointMass(1j), Cscg(3.0))),
         PerIndex((PointMass(-1), Cscg(0.7), Cscg(1.1), Cscg(0.2), PointMass(1)))),
        (PointMass(1), PointMass(2j)),
    ], ids=["cscg", "point_mass_h", "per_index_mixed", "point_mass_both"])
    @pytest.mark.parametrize("seeds", [[12345], [0, 2 ** 64 - 1, 7, 2 ** 32, -1]],
                             ids=["one", "block"])
    def test_realizations_equal_per_seed_reference(self, h_dist, g_dist, seeds):
        cfg = NetworkConfig(n_relays=5, conferencing=Neighbors(1),
                            h_dist=h_dist, g_dist=g_dist)
        got = stacked_realizations(cfg, seeds)
        want = reference.sample_realizations(cfg, seeds)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestSquaresFromNormals:
    """The trial engine squares the normals; the complex API builds gains."""

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_equal_abs_squared_of_built_gains(self, name):
        spec = LAWS[name]
        z = np.random.default_rng(8).standard_normal((40, _normal_count(spec, 7)))
        want = np.abs(_from_normals(spec, 7, z)) ** 2
        got = _squares_from_normals(spec, 7, z.copy())
        assert got.shape == want.shape == (40, 7)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("name", ["point_mass", "per_index_mixed"])
    def test_point_masses_are_exact(self, name):
        spec = LAWS[name]
        mass = [i for i in range(7)
                if isinstance(spec, PointMass) or isinstance(spec.specs[i], PointMass)]
        z = np.random.default_rng(9).standard_normal((3, _normal_count(spec, 7)))
        want = np.abs(_from_normals(spec, 7, z)) ** 2
        assert np.array_equal(_squares_from_normals(spec, 7, z)[:, mass],
                              want[:, mass])

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_sampled_squares_match_sampled_gains(self, name):
        cfg = NetworkConfig(n_relays=7, conferencing=Neighbors(2),
                            h_dist=LAWS[name], g_dist=Cscg(0.4))
        seeds = [0, 2 ** 64 - 1, 7, 2 ** 32, 31337]
        for got, gains in zip(_sampled_squares(cfg, seeds),
                              stacked_realizations(cfg, seeds)):
            np.testing.assert_allclose(got, np.abs(gains) ** 2, rtol=1e-15, atol=0.0)

    def test_first_hop_prefix_matches_full_draw(self):
        # A generator draws normals in sequence, so a shorter request returns a
        # prefix of a longer one; the engine draws only the first hop when no
        # scheme reads the second.
        seeds = [0, 1, 2 ** 63, 2 ** 64 - 1, 99]
        assert np.array_equal(_seeded_normals(seeds, 7),
                              _seeded_normals(seeds, 20)[:, :7])
        for name in sorted(LAWS):
            cfg = NetworkConfig(n_relays=7, conferencing=Neighbors(1),
                                h_dist=LAWS[name], g_dist=Cscg(2.0))
            h2, g2 = _sampled_squares(cfg, seeds, second_hop=False)
            assert g2 is None
            assert np.array_equal(h2, _sampled_squares(cfg, seeds)[0])


class TestConfigValidation:
    def test_rejects_zero_noise(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(n_relays=2, conferencing=Neighbors(0), n_0=0.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(n_relays=2, conferencing=Neighbors(0), p_s=-1.0)

    def test_rejects_excess_neighbors(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(n_relays=3, conferencing=Neighbors(3))

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(n_relays=2, conferencing=Neighbors(0), conf_gain=0.0)

    def test_gain_matrix_shape_checked(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(n_relays=3, conferencing=Neighbors(2),
                          conf_gain=np.ones((3, 1)))
        cfg = NetworkConfig(n_relays=3, conferencing=Neighbors(2),
                            conf_gain=np.full((3, 2), 0.5))
        assert cfg.conf_gain.shape == (3, 2)

    def test_effective_portion(self):
        cfg = NetworkConfig(n_relays=100, conferencing=Portion(0.1))
        assert cfg.m_conf == 9
        assert cfg.p_effective == 0.1

    @pytest.mark.parametrize("field", ["p_s", "p_r", "p_c", "n_0", "conf_gain"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(ConfigurationError):
            NetworkConfig(n_relays=3, conferencing=Neighbors(1), **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_gain_entries(self, value):
        gains = np.ones((3, 1))
        gains[1, 0] = value
        with pytest.raises(ConfigurationError):
            NetworkConfig(n_relays=3, conferencing=Neighbors(1), conf_gain=gains)

    @pytest.mark.parametrize("make", [
        lambda: Cscg(math.inf),
        lambda: Cscg(math.nan),
        lambda: PointMass(math.nan),
        lambda: PointMass(complex(1.0, math.inf)),
    ], ids=["cscg_inf", "cscg_nan", "point_mass_nan", "point_mass_inf"])
    def test_rejects_non_finite_laws(self, make):
        with pytest.raises(ConfigurationError):
            make()
