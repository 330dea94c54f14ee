import math
import sys
import threading
from dataclasses import fields, replace
from functools import cached_property

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
from confrelay import derive_seed, model, montecarlo
from confrelay.asymptotics import trace_points
from confrelay.model import (
    MASK64,
    _PROBE_WORDS,
    _STATE_CHUNK,
    _TrialSeeds,
    _chunk_states,
    _from_normals,
    _normal_count,
    _pcg64_states,
    _sampled_squares,
    _seeded_normals,
    _squares_from_normals,
    _word_order,
    spec_moments,
)

LAWS = {
    "cscg": Cscg(1.3),
    "point_mass": PointMass(-7.77 + 1e-5j),
    "per_index_mixed": PerIndex((Cscg(1.0), PointMass(2), Cscg(0.5), PointMass(1j),
                                 PointMass(-7.77 + 1e-5j), Cscg(3.0), Cscg(0.7))),
    "per_index_point_masses": PerIndex(tuple(PointMass(0.3 * k + 0.1j)
                                             for k in range(1, 8))),
    "per_index_mass_first": PerIndex((PointMass(-0.4 + 1.3j),)
                                     + tuple(Cscg(0.2 + 0.3 * k) for k in range(6))),
    "per_index_mass_last": PerIndex(tuple(Cscg(1.9 - 0.25 * k) for k in range(6))
                                    + (PointMass(2.2 - 0.7j),)),
    "per_index_cscg": PerIndex(tuple(Cscg(0.4 + 0.2 * k) for k in range(7))),
}

# Where a PerIndex law of n entries holds its point masses.
MASS_LAYOUTS = {
    "first": lambda i, n: i == 0,
    "last": lambda i, n: i == n - 1,
    "every": lambda i, n: True,
    "none": lambda i, n: False,
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

        def random_law(is_mass, n):
            specs = []
            for i in range(n):
                if not is_mass(i, n):
                    specs.append(Cscg(float(10.0 ** rng.uniform(-3, 3))))
                else:
                    re, im = 10.0 ** rng.uniform(-3, 3, 2) * rng.choice([-1.0, 1.0], 2)
                    specs.append(PointMass(complex(re, im)))
            return specs

        mixed = random_law(lambda i, n: rng.random() >= 0.2, 3000)
        values = np.array([s.value for s in mixed if isinstance(s, PointMass)])
        assert np.any(np.abs(values) ** 2 != [abs(v) ** 2 for v in values])
        for specs in [mixed] + [random_law(at, 300) for at in MASS_LAYOUTS.values()]:
            m2, m4 = spec_moments(PerIndex(tuple(specs)), len(specs))
            single = [spec_moments(s, 1) for s in specs]
            assert np.array_equal(m2, [p[0][0] for p in single])
            assert np.array_equal(m4, [p[1][0] for p in single])

    def test_second_moments_call_reuses_the_law_table(self, monkeypatch):
        builds = []
        build = PerIndex._table.func
        counted = cached_property(lambda law: builds.append(law) or build(law))
        counted.__set_name__(PerIndex, "_table")
        monkeypatch.setattr(PerIndex, "_table", counted)
        law = PerIndex(LAWS["per_index_mixed"].specs)
        cfg = NetworkConfig(n_relays=7, conferencing=Neighbors(2), h_dist=law,
                            g_dist=PerIndex(law.specs[::-1]))
        first = moments(cfg)
        assert len(builds) == 2
        second = moments(cfg)
        assert len(builds) == 2
        for name in ("m2_h", "m4_h", "m2_g", "m4_g"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

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
        LAWS["per_index_mass_first"],
        LAWS["per_index_mass_last"],
        LAWS["per_index_point_masses"],
    ], ids=["cscg", "point_mass", "per_index_cscg", "per_index_mixed",
            "per_index_mass_first", "per_index_mass_last", "per_index_point_masses"])
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

    @pytest.mark.parametrize("count", [1, 100, 16000])
    @pytest.mark.parametrize("block", [1, 163, 655])
    def test_rows_at_engine_block_sizes(self, block, count):
        # The engine draws blocks of 655 and 163 rows at N = 25 and N = 100;
        # 100 and 16000 normals are one draw at N = 25 and N = 4000.
        seeds = np.random.default_rng(block * 100003 + count).integers(
            0, 2 ** 64, block, dtype=np.uint64)
        got = _seeded_normals(seeds, count)
        assert got.shape == (block, count)
        for row, seed in zip(got, seeds.tolist()):
            assert np.array_equal(row, np.random.default_rng(seed).standard_normal(count))

    def test_sample_realization_between_blocks_changes_no_row(self):
        seeds = [3, 2 ** 64 - 1, 12345, 0]
        first = _seeded_normals(seeds, 50)
        sample_realization(NetworkConfig(n_relays=5, conferencing=Neighbors(1)), 99)
        again = _seeded_normals(seeds, 50)
        assert np.array_equal(first, self._want(seeds, 50))
        assert np.array_equal(again, first)

    def test_threads_drawing_at_once_get_their_own_rows(self):
        seeds = {k: [k * 7919 + t for t in range(30)] for k in range(2)}
        start = threading.Barrier(2)
        got, errors = {}, []

        def draw(k):
            try:
                start.wait(timeout=10)
                got[k] = [_seeded_normals(seeds[k], 3000) for _ in range(4)]
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(k,)) for k in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for k in seeds:
            want = self._want(seeds[k], 3000)
            assert all(np.array_equal(z, want) for z in got[k])

    def test_word_order_native_128_bit(self):
        hi_s, lo_s, hi_inc, lo_inc = _PROBE_WORDS
        assert _word_order([lo_s, hi_s, lo_inc, hi_inc]) == (1, 0, 3, 2)

    def test_word_order_high_word_first(self):
        assert _word_order(list(_PROBE_WORDS)) == (0, 1, 2, 3)

    @pytest.mark.parametrize("read_back", [
        [_PROBE_WORDS[1], _PROBE_WORDS[0], _PROBE_WORDS[3], 0],
        [_PROBE_WORDS[1], _PROBE_WORDS[1], _PROBE_WORDS[3], _PROBE_WORDS[2]],
        [0, 0, 0, 0],
    ], ids=["foreign_word", "repeated_word", "zeros"])
    def test_word_order_rejects_a_non_permutation(self, read_back):
        with pytest.raises(RuntimeError, match="PCG64 state memory"):
            _word_order(read_back)

    @pytest.mark.parametrize("order", [(1, 0, 3, 2), (0, 1, 2, 3)],
                             ids=["native_128_bit", "high_word_first"])
    def test_states_equal_pcg64_seeding(self, order):
        seeds = np.concatenate((
            np.array([s & MASK64 for s in self.EDGE_SEEDS], dtype=np.uint64),
            np.random.default_rng(4096).integers(0, 2 ** 64, 4096, dtype=np.uint64)))
        got = _pcg64_states(seeds, order)
        assert got.shape == (len(seeds), 4) and got.dtype == np.uint64
        assert not got.flags.writeable
        want = []
        for seed in seeds.tolist():
            st = np.random.PCG64(seed).state["state"]
            words = (st["state"] >> 64, st["state"] & MASK64,
                     st["inc"] >> 64, st["inc"] & MASK64)
            want.append([words[i] for i in order])
        assert got.tolist() == want

    @pytest.mark.parametrize("lo,hi,trials", [
        (0, 7, 7), (3, 9, 40), (_STATE_CHUNK - 3, _STATE_CHUNK + 4, _STATE_CHUNK + 10)],
        ids=["whole_run", "inside_a_chunk", "across_two_chunks"])
    def test_trial_seeds_miss_and_hit_give_the_same_rows(self, lo, hi, trials):
        base = 2 ** 64 - 5
        seeds = _TrialSeeds(base, lo, hi, trials)
        want = self._want([derive_seed(base, t) for t in range(lo, hi)], 6)
        chunks = len(range(lo // _STATE_CHUNK, (hi - 1) // _STATE_CHUNK + 1))
        _chunk_states.cache_clear()
        first = _seeded_normals(seeds, 6)
        assert _chunk_states.cache_info()[:2] == (0, chunks)  # (hits, misses)
        again = _seeded_normals(seeds, 6)
        # The cache keeps one chunk, so a block across two derives both again.
        hits = 1 if chunks == 1 else 0
        assert _chunk_states.cache_info()[:2] == (hits, 2 * chunks - hits)
        assert np.array_equal(first, want)
        assert np.array_equal(again, first)

    def test_cache_bound(self):
        # A chunk holds at most _STATE_CHUNK trials and the cache keeps one,
        # so it holds at most _STATE_CHUNK * 32 B = 512 KiB of states,
        # whatever the network size.
        assert _chunk_states.cache_info().maxsize == 1
        assert _STATE_CHUNK * 32 == 512 * 2 ** 10
        _chunk_states.cache_clear()
        cfg = NetworkConfig(n_relays=3, conferencing=Neighbors(0))
        trials = 2 * _STATE_CHUNK + 5
        montecarlo.trial_rates(cfg, moments(cfg), trials, 3, ("upper",))
        # Blocks of 5461 trials at N = 3 cross both chunk boundaries, and
        # each of the three chunks is derived once; the last one stays.
        info = _chunk_states.cache_info()
        assert info[1:] == (3, 1, 1)  # (misses, maxsize, currsize)
        last = _chunk_states(3, 2 * _STATE_CHUNK, trials, model._MEMORY_ORDER)
        assert _chunk_states.cache_info().hits == info.hits + 1
        assert last.shape == (5, 4)
        first = _chunk_states(3, 0, _STATE_CHUNK, model._MEMORY_ORDER)
        assert first.nbytes == _STATE_CHUNK * 32

    @pytest.mark.parametrize("calls,lookups", [
        # diagnose over N = 500..4000 with 40 trials: blocks of 32, 16, 8
        # and 4 trials, 20 per scheme.
        ([(scheme, Portion(0.2), (500, 1000, 2000, 4000), 40)
          for scheme in ("af", "df", "upper")], 60),
        # sweep-n over N = 25, 50, 100 with more trials than a block at
        # N = 100 (163).
        ([("upper", Portion(0.2), (25, 50, 100), 300)], 4),
    ], ids=["diagnose", "sweep_n"])
    def test_cache_is_shared_across_sizes_and_schemes(self, calls, lookups):
        # Chunks follow the trials, not the block sizes, so every size and
        # scheme of a run draws from the one chunk its first block derived.
        _chunk_states.cache_clear()
        for scheme, conferencing, sizes, trials in calls:
            cfg = NetworkConfig(n_relays=sizes[0], conferencing=conferencing)
            trace_points(scheme, cfg, sizes, trials, 11)
        assert _chunk_states.cache_info()[:2] == (lookups - 1, 1)

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

    @pytest.mark.parametrize("name", ["point_mass", "per_index_mixed",
                                      "per_index_mass_first", "per_index_mass_last",
                                      "per_index_point_masses"])
    def test_point_masses_are_exact(self, name):
        spec = LAWS[name]
        mass = [i for i in range(7)
                if isinstance(spec, PointMass) or isinstance(spec.specs[i], PointMass)]
        z = np.random.default_rng(9).standard_normal((3, _normal_count(spec, 7)))
        want = np.abs(_from_normals(spec, 7, z)) ** 2
        assert np.array_equal(_squares_from_normals(spec, 7, z)[:, mass],
                              want[:, mass])

    @pytest.mark.parametrize("name", sorted(n for n in LAWS if n.startswith("per_index")))
    def test_per_index_equals_per_entry_laws(self, name):
        # Column i of a PerIndex law's gains and squares is what entry i's own
        # law gives from the same normals, bit for bit.
        law = LAWS[name]
        z = np.random.default_rng(10).standard_normal((30, _normal_count(law, 7)))
        gains = _from_normals(law, 7, z)
        squares = _squares_from_normals(law, 7, z.copy())
        k = 0
        for i, spec in enumerate(law.specs):
            count = _normal_count(spec, 1)
            part = z[:, k:k + count]
            k += count
            assert np.array_equal(gains[:, i], _from_normals(spec, 1, part)[:, 0])
            assert np.array_equal(squares[:, i],
                                  _squares_from_normals(spec, 1, part.copy())[:, 0])
        assert k == z.shape[1]

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

    @pytest.mark.parametrize("base", [Portion(0.1), Neighbors(3)], ids=["portion", "neighbors"])
    def test_neighbor_count_follows_replaced_fields(self, base):
        # M is computed once per config; a replaced config computes its own.
        cfg = NetworkConfig(n_relays=100, conferencing=base)
        before = cfg.m_conf
        for changes in ({"n_relays": 37}, {"n_relays": 5},
                        {"conferencing": Portion(0.55)}, {"conferencing": Neighbors(4)}):
            other = replace(cfg, **changes)
            topo = other.conferencing
            want = (topo.m if isinstance(topo, Neighbors)
                    else conferencing_size(topo.p, other.n_relays))
            assert other.m_conf == want
            assert other.p_effective == (want + 1) / other.n_relays
        assert cfg.m_conf == before

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
