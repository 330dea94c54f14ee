import math
import os
import subprocess
import sys
import threading
import weakref
from dataclasses import fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import record_fills
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
from confrelay import cli, derive_seed, model, montecarlo, rates
from confrelay.asymptotics import conferencing_noise_ratio, trace_points
from confrelay.model import (
    MASK64,
    _PROBE_WORDS,
    _KEPT_ELEMENTS,
    _KEPT_FLOOR,
    _STATE_CHUNK,
    _law,
    _pcg64_states,
    _seeded_normals,
    _squares_from_normals,
    _states,
    _trial_squares,
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


def block_size(n):
    """Trials per block of a config of ``n`` relays."""
    return max(1, model._BLOCK_ELEMENTS // n)


def block_ranges(trials, n, kept=0, widest=None):
    """(lo, hi) of each block a config of ``n`` relays reads in a walk whose
    largest config has ``widest`` relays (default ``n``), of a run whose
    first ``kept`` trials are kept rows: those trials in blocks of
    :func:`block_size` ``(n)``, then every chunk of ``_STATE_CHUNK`` trials
    after them in the drawn blocks of :func:`block_size` ``(widest)``."""
    size, drawn = block_size(n), block_size(widest or n)
    ranges = [(lo, min(lo + size, kept)) for lo in range(0, kept, size)]
    for start in range(kept, trials, model._STATE_CHUNK):
        end = min(start + model._STATE_CHUNK, trials)
        ranges += [(lo, min(lo + drawn, end)) for lo in range(start, end, drawn)]
    return ranges


def kept_rows():
    """How many first rows this thread keeps."""
    return len(model._THREAD.first_rows[1])


def block_normals(base, trials, n, count):
    """``(lo, hi, z)`` per block of :func:`block_ranges` of a run with no kept
    rows, with ``z`` the block's ``count`` normals per trial, drawn afresh by
    ``_seeded_normals`` from a slice of the states ``_states`` derives for
    the block's chunk."""
    chunk = model._STATE_CHUNK
    for lo, hi in block_ranges(trials, n):
        start = lo - lo % chunk
        states = _states(base, start, min(start + chunk, trials))
        yield lo, hi, _seeded_normals(states[lo - start:hi - start], count)


def stacked_normals(base, trials, n, count):
    """The blocks :func:`block_normals` yields for a run, stacked into one
    (trials, count) array, after checking their shapes."""
    blocks = list(block_normals(base, trials, n, count))
    assert all(z.shape == (hi - lo, count) for lo, hi, z in blocks)
    return np.concatenate([z for _, _, z in blocks]).reshape(trials, count)


def stacked_squares(cfg, base, trials, second_hop=True):
    """The blocks ``_trial_squares`` yields for a run, stacked into (trials, N)
    h2 and g2 (None without ``second_hop``), after checking that the blocks
    are the run's consecutive trials in the blocks of :func:`block_ranges`
    with the rows the thread keeps, none larger than
    ``max(_BLOCK_ELEMENTS, N)``."""
    blocks = list(_trial_squares([cfg], base, trials, second_hop))
    assert [(i, lo, hi) for i, lo, hi, _, _ in blocks] == [
        (0, lo, hi) for lo, hi in block_ranges(trials, cfg.n_relays, kept_rows())]
    assert all(b[3].size <= max(model._BLOCK_ELEMENTS, cfg.n_relays) for b in blocks)
    assert all((b[4] is None) == (not second_hop) for b in blocks)
    h2 = np.concatenate([b[3] for b in blocks])
    return h2, np.concatenate([b[4] for b in blocks]) if second_hop else None


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

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_config_keeps_one_read_only_moment_set(self, name):
        cfg = NetworkConfig(n_relays=7, conferencing=Neighbors(2), h_dist=LAWS[name],
                            g_dist=Cscg(0.8))
        mom = moments(cfg)
        assert moments(cfg) is mom
        for field in ("m2_h", "m4_h", "m2_g", "m4_g"):
            values = getattr(mom, field)
            assert not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0

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
    """The normals ``_seeded_normals`` draws from the states ``_states``
    derives for a run, chunk by chunk and block by block, against one
    generator per trial seed."""

    # Edge cases of the lane arithmetic: the base seeds of the runs below
    # and the seeds test_states_equal_pcg64_seeding seeds PCG64 with.
    EDGE_SEEDS = [0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1,
                  -1, -(2 ** 40) - 3, 2 ** 64, 2 ** 70 + 5, 3 * 2 ** 96 + 17]

    @staticmethod
    def _want(base, lo, hi, count):
        """Row per trial ``lo <= t < hi``: one generator per trial seed."""
        return np.array([np.random.default_rng(derive_seed(base, t)).standard_normal(count)
                         for t in range(lo, hi)]).reshape(hi - lo, count)

    def test_rows_equal_one_generator_per_seed(self, monkeypatch):
        # Blocks of 16 trials: 16, 16 and 8 rows; then in chunks of 5 trials,
        # so every block stops at a chunk's end.
        for chunk in (_STATE_CHUNK, 5):
            monkeypatch.setattr(model, "_STATE_CHUNK", chunk)
            for base in self.EDGE_SEEDS:
                assert np.array_equal(
                    stacked_normals(base, 40, model._BLOCK_ELEMENTS // 16, 5),
                    self._want(base, 0, 40, 5))

    def test_single_seed_and_empty_shapes(self):
        assert np.array_equal(stacked_normals(2 ** 64 - 1, 1, 3, 9),
                              self._want(2 ** 64 - 1, 0, 1, 9))
        assert stacked_normals(1, 2, 3, 0).shape == (2, 0)
        # A walk of no trials yields nothing and keeps no rows.
        cfg = NetworkConfig(n_relays=3, conferencing=Neighbors(1))
        assert list(_trial_squares([cfg], 1, 0)) == []
        assert model._THREAD.first_rows is None

    @pytest.mark.parametrize("count", [1, 100, 16000])
    @pytest.mark.parametrize("block", [1, 163, 655])
    def test_rows_at_engine_block_sizes(self, block, count):
        # The engine draws blocks of 655, 163 and 1 rows at N = 25, 100 and
        # 2**14; 100 and 16000 normals are one draw at N = 25 and N = 4000.
        # A run of a full block, then a block of at most 3 rows.
        n = {1: 2 ** 14, 163: 100, 655: 25}[block]
        end = block + min(block, 3)
        base = int(np.random.default_rng(block * 100003 + count).integers(
            0, 2 ** 64, dtype=np.uint64))
        blocks = block_normals(base, end, n, count)
        lo, hi, got = next(blocks)
        assert (lo, hi) == (0, block) and got.shape == (block, count)
        assert np.array_equal(got, self._want(base, 0, block, count))
        del got
        lo, hi, got = next(blocks)
        assert (lo, hi) == (block, end) and got.shape == (end - block, count)
        assert np.array_equal(got, self._want(base, block, end, count))
        assert next(blocks, None) is None

    def test_sample_realization_between_blocks_changes_no_row(self):
        # Blocks of 2 trials, with a realization drawn after each.
        rows = []
        for _, _, z in block_normals(12345, 6, model._BLOCK_ELEMENTS // 2, 50):
            rows.append(z)
            sample_realization(NetworkConfig(n_relays=5, conferencing=Neighbors(1)), 99)
        first = np.concatenate(rows)
        again = stacked_normals(12345, 6, model._BLOCK_ELEMENTS // 2, 50)
        assert np.array_equal(first, self._want(12345, 0, 6, 50))
        assert np.array_equal(again, first)

    def test_threads_drawing_at_once_get_their_own_rows(self):
        bases = {k: k * 7919 for k in range(2)}
        start = threading.Barrier(2)
        got, errors = {}, []

        def draw(k):
            try:
                start.wait(timeout=10)
                # Blocks of 5 trials.
                got[k] = [stacked_normals(bases[k], 30, 3000, 3000) for _ in range(4)]
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(k,)) for k in bases]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for k in bases:
            want = self._want(bases[k], 0, 30, 3000)
            assert all(np.array_equal(z, want) for z in got[k])

    @staticmethod
    def _thread_starts(monkeypatch):
        """The threads started from now on, through a counting
        ``threading.Thread``."""
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        return started

    @staticmethod
    def _drawers(monkeypatch):
        """The thread of each ``_draw_rows`` call from now on."""
        drawers = []
        draw_rows = model._draw_rows

        def recorded(z, states, square=False):
            drawers.append(threading.current_thread())
            draw_rows(z, states, square)

        monkeypatch.setattr(model, "_draw_rows", recorded)
        return drawers

    @pytest.mark.parametrize("cpus,rows,count,helped", [
        (4, 3, (2 ** 16 - 1) // 3, True),  # one row per slab
        (4, 2, 2 ** 15, True),
        (4, 4, 2 ** 14, True),
        (2, 3, 2 ** 15, True),             # an odd row count
        (3, 7, 2 ** 14, True),             # up to two helpers
        (2, 21, 800, True),                # two slabs, of 20 rows and of 1
        (2, 20, 800, False),               # one slab of 20 rows
        (2, 41, 799, False),               # rows below the helper threshold
        (4, 1, 2 ** 17, False),            # one row is one slab
        (1, 4, 2 ** 15, False),            # one CPU
    ], ids=["wide_rows", "two_rows", "four_rows", "odd_rows", "three_cpus", "two_slabs", "one_slab",
            "narrow_rows", "one_row", "one_cpu"])
    def test_split_rows_equal_one_generator_per_seed(self, monkeypatch, cpus, rows,
                                                     count, helped):
        monkeypatch.setattr(model, "_CPUS", cpus)
        base = 977 * rows + cpus
        states = _states(base, 0, rows)
        want = self._want(base, 0, rows, count)
        alive = [t for t in model._HELPERS if t.is_alive()]
        started = self._thread_starts(monkeypatch)
        drawers = self._drawers(monkeypatch)
        before = threading.active_count()
        assert np.array_equal(_seeded_normals(states, count), want)
        first_call, first_drawers = list(started), drawers[:]
        # Into a view of a larger array, as the kept first rows are drawn.
        out = np.empty(rows * count + 5)[:rows * count].reshape(rows, count)
        del drawers[:]
        assert _seeded_normals(states, count, out) is out
        assert np.array_equal(out, want)
        # Only a helped first call starts threads: the daemon helpers that
        # bring those alive to _CPUS - 1.  No call after it starts one.
        assert started == first_call
        assert len(started) == (max(0, cpus - 1 - len(alive)) if helped else 0)
        assert all(t.daemon and t in model._HELPERS for t in started)
        assert threading.active_count() == before + len(started)
        assert sum(t.is_alive() for t in model._HELPERS) <= max(cpus - 1, len(alive))
        # At most _CPUS - 1 daemon helpers draw beside the caller; an unhelped
        # block is one _draw_rows call in the caller.
        for call in (first_drawers, drawers):
            helpers = set(call) - {threading.current_thread()}
            assert len(helpers) <= cpus - 1
            assert all(t.daemon and t in model._HELPERS for t in helpers)
            if not helped:
                assert call == [threading.current_thread()]

    @pytest.mark.parametrize("error", [RuntimeError, MemoryError])
    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "caller"])
    def test_a_failed_slice_raises_in_the_caller(self, monkeypatch, error, helper):
        monkeypatch.setattr(model, "_CPUS", 2)
        states = _states(31, 0, 2)
        _seeded_normals(states, 2 ** 15)  # the helper is alive from here on
        caller, draw_rows = threading.current_thread(), model._draw_rows
        failed = threading.Event()

        def draw(z, states, square=False):
            # The failing side fails at once; the other draws once it has.
            if (threading.current_thread() is not caller) == helper:
                failed.set()
                raise error("no rows")
            assert failed.wait(timeout=10)
            draw_rows(z, states, square)

        monkeypatch.setattr(model, "_draw_rows", draw)
        before = threading.active_count()
        with pytest.raises(error, match="no rows"):
            _seeded_normals(states, 2 ** 15)
        # A failed fill of first rows is raised by the walk's wait, once no
        # helper draws for it, and is no longer kept.
        failed.clear()
        rows, fill = model._first_rows(31, 2, 2 ** 15)
        assert model._THREAD.first_rows[2] is fill
        with pytest.raises(error, match="no rows"):
            fill.wait(len(rows))
        assert fill.helping == 0 and model._THREAD.first_rows is None
        assert threading.active_count() == before

    def test_a_fill_completes_when_no_helper_runs_its_slabs(self, monkeypatch):
        # As in a forked child, whose helpers are gone: the fills are posted,
        # no helper takes a slab, and the caller draws them all, bit for bit.
        monkeypatch.setattr(model, "_CPUS", 2)
        posted = []
        monkeypatch.setattr(model, "_post", lambda fill, helpers: posted.append(fill))
        drawers = self._drawers(monkeypatch)
        want = self._want(41, 0, 6, 2 ** 14)
        assert np.array_equal(_seeded_normals(_states(41, 0, 6), 2 ** 14), want)
        rows, fill = model._first_rows(41, 6, 2 ** 14)
        fill.wait(len(rows))
        assert np.array_equal(rows, want ** 2)
        assert len(posted) == 2 and posted[1] is fill
        # One slab per row of 2**14 normals, each drawn by the caller.
        assert drawers == [threading.current_thread()] * 12

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_process_keeps_cpus_minus_one_helpers_and_a_forked_child_draws(self):
        code = (
            "import os, threading\n"
            "import numpy as np\n"
            "from confrelay import model\n"
            "model._CPUS = 3\n"
            "for base in range(3):\n"
            "    model._seeded_normals(model._states(base, 0, 8), 2 ** 14)\n"
            "helpers = [t for t in threading.enumerate() if t is not threading.main_thread()]\n"
            "assert helpers == model._HELPERS and len(helpers) == 2, helpers\n"
            "assert all(t.daemon for t in helpers)\n"
            "want = model._seeded_normals(model._states(7, 0, 8), 2 ** 14)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    got = model._seeded_normals(model._states(7, 0, 8), 2 ** 14)\n"
            "    os._exit(0 if np.array_equal(got, want) else 1)\n"
            "assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0\n"
            "assert threading.active_count() == 3\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(model.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_callers_splitting_at_once_get_their_own_rows(self, monkeypatch):
        # Two callers each split blocks of 6 rows of 2**14 normals in two:
        # up to four threads draw at once, each into its own generator.
        monkeypatch.setattr(model, "_CPUS", 2)
        bases = {k: 104729 * (k + 1) for k in range(2)}
        start = threading.Barrier(2)
        got, errors = {}, []

        def draw(k):
            try:
                start.wait(timeout=10)
                states = _states(bases[k], 0, 6)
                got[k] = [_seeded_normals(states, 2 ** 14) for _ in range(4)]
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(k,)) for k in bases]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for k in bases:
            want = self._want(bases[k], 0, 6, 2 ** 14)
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


class _Normals:
    """Stands in for a generator: ``standard_normal`` hands out ``z``."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, count):
        assert count == len(self.z)
        return self.z


def built_gains(spec, n, z):
    """The gains ``sample_channel`` builds from each row of normals ``z``."""
    return np.array([sample_channel(spec, n, _Normals(row)) for row in z]).reshape(len(z), n)


class TestSquaresFromNormals:
    """The trial engine squares the normals; the complex API builds gains."""

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_equal_abs_squared_of_built_gains(self, name):
        spec = LAWS[name]
        z = np.random.default_rng(8).standard_normal((40, _law(spec, 7).count))
        want = np.abs(built_gains(spec, 7, z)) ** 2
        got = _squares_from_normals(_law(spec, 7), np.square(z))
        assert got.shape == want.shape == (40, 7)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("name", ["point_mass", "per_index_mixed",
                                      "per_index_mass_first", "per_index_mass_last",
                                      "per_index_point_masses"])
    def test_point_masses_are_exact(self, name):
        spec = LAWS[name]
        mass = [i for i in range(7)
                if isinstance(spec, PointMass) or isinstance(spec.specs[i], PointMass)]
        z = np.random.default_rng(9).standard_normal((3, _law(spec, 7).count))
        want = np.abs(built_gains(spec, 7, z)) ** 2
        assert np.array_equal(_squares_from_normals(_law(spec, 7), np.square(z))[:, mass],
                              want[:, mass])

    @pytest.mark.parametrize("name", sorted(n for n in LAWS if n.startswith("per_index")))
    def test_per_index_equals_per_entry_laws(self, name):
        # Column i of a PerIndex law's gains and squares is what entry i's own
        # law gives from the same normals, bit for bit.
        law = LAWS[name]
        z = np.random.default_rng(10).standard_normal((30, _law(law, 7).count))
        gains = built_gains(law, 7, z)
        squares = _squares_from_normals(_law(law, 7), np.square(z))
        k = 0
        for i, spec in enumerate(law.specs):
            count = _law(spec, 1).count
            part = z[:, k:k + count]
            k += count
            assert np.array_equal(gains[:, i], built_gains(spec, 1, part)[:, 0])
            assert np.array_equal(squares[:, i],
                                  _squares_from_normals(_law(spec, 1), np.square(part))[:, 0])
        assert k == z.shape[1]

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_sampled_squares_match_sampled_gains(self, name):
        cfg = NetworkConfig(n_relays=7, conferencing=Neighbors(2),
                            h_dist=LAWS[name], g_dist=Cscg(0.4))
        for base in (31337, 2 ** 64 - 1):
            seeds = [derive_seed(base, t) for t in range(5)]
            for got, gains in zip(stacked_squares(cfg, base, 5),
                                  stacked_realizations(cfg, seeds)):
                np.testing.assert_allclose(got, np.abs(gains) ** 2, rtol=1e-15, atol=0.0)

    def test_first_hop_prefix_matches_full_draw(self, monkeypatch):
        # A generator draws normals in sequence, so a shorter request returns a
        # prefix of a longer one; the engine draws only the first hop when no
        # scheme reads the second.
        assert np.array_equal(stacked_normals(99, 8, 3, 7),
                              stacked_normals(99, 8, 3, 20)[:, :7])
        # Blocks of 2 trials: the last block of the run holds one.
        monkeypatch.setattr(model, "_BLOCK_ELEMENTS", 14)
        for name in sorted(LAWS):
            cfg = NetworkConfig(n_relays=7, conferencing=Neighbors(1),
                                h_dist=LAWS[name], g_dist=Cscg(2.0))
            h2, g2 = stacked_squares(cfg, 99, 5, second_hop=False)
            assert g2 is None
            assert np.array_equal(h2, stacked_squares(cfg, 99, 5)[0])


class TestKeptRows:
    """Each thread keeps the squared normals of a run's first rows
    (``_first_rows``); a later walk of the run with rows no wider reads a
    prefix of each instead of drawing them again."""

    # N = 4 under the default laws: 8 first-hop normals, 16 in all.
    CFG = NetworkConfig(n_relays=4, conferencing=Neighbors(1))

    @staticmethod
    def _want(base, trials, width):
        """Squared normals per trial: one generator per trial seed."""
        return np.array([np.random.default_rng(derive_seed(base, t)).standard_normal(width) ** 2
                         for t in range(trials)]).reshape(trials, width)

    @classmethod
    def _walk(cls, drawn, base, trials, second_hop=True, cfgs=(CFG,)):
        """The rows drawn by one ``_trial_squares`` walk, after checking its
        squares against one generator per trial seed, each config's blocks
        against :func:`block_ranges` with the rows the thread keeps, and
        their sizes against ``max(_BLOCK_ELEMENTS, N_i)``."""
        del drawn[:]
        blocks = [(i, lo, hi, h2.copy(), None if g2 is None else g2.copy())
                  for i, lo, hi, h2, g2 in _trial_squares(list(cfgs), base, trials,
                                                          second_hop)]
        widest = max(c.n_relays for c in cfgs)
        for i, cfg in enumerate(cfgs):
            assert [b[1:3] for b in blocks if b[0] == i] == block_ranges(
                trials, cfg.n_relays, kept_rows(), widest)
            assert all(b[3].size <= max(model._BLOCK_ELEMENTS, cfg.n_relays)
                       for b in blocks if b[0] == i)
        blocks = [(i, h2, g2) for i, _, _, h2, g2 in blocks]
        z = cls._want(base, trials, model._row_width(cfgs, second_hop))
        for i, (h, g) in enumerate(c._laws for c in cfgs):
            h2 = np.concatenate([b[1] for b in blocks if b[0] == i])
            assert np.array_equal(h2, _squares_from_normals(h, z[:, :h.count]))
            if second_hop:
                g2 = np.concatenate([b[2] for b in blocks if b[0] == i])
                assert np.array_equal(
                    g2, _squares_from_normals(g, z[:, h.count:h.count + g.count]))
        return sum(rows for rows, _ in drawn)

    @pytest.mark.parametrize("kept", [80, _KEPT_ELEMENTS], ids=["some", "all"])
    def test_rows_equal_one_generator_per_seed(self, monkeypatch, kept):
        # Room for 5 rows of 16 normals, or for all 10.
        monkeypatch.setattr(model, "_KEPT_ELEMENTS", kept)
        rows, fill = model._first_rows(5, 10, 16)
        fill.wait(len(rows))
        assert np.array_equal(rows, self._want(5, min(10, kept // 16), 16))
        assert not rows.flags.writeable

    def test_second_walk_of_the_same_width_draws_nothing(self, drawn):
        assert self._walk(drawn, 5, 10) == 10
        assert self._walk(drawn, 5, 10) == 0

    def test_narrower_walk_reads_a_prefix_of_each_row(self, drawn):
        self._walk(drawn, 6, 10)
        assert self._walk(drawn, 6, 10, second_hop=False) == 0
        assert self._walk(drawn, 6, 10) == 0

    def test_wider_walk_draws_again(self, drawn):
        assert self._walk(drawn, 7, 10, second_hop=False) == 10
        assert self._walk(drawn, 7, 10) == 10
        assert self._walk(drawn, 7, 10, second_hop=False) == 0

    @pytest.mark.parametrize("second_hop", [True, False], ids=["same_width", "narrower"])
    def test_block_across_the_last_kept_trial(self, monkeypatch, drawn, second_hop):
        # Blocks of 3 trials at N = 4 and room for 5 rows of 16: the blocks
        # stop at the last kept trial (0-2, 3-4) and restart after it, so
        # the walk draws trials 5-7 and 8-10.
        monkeypatch.setattr(model, "_BLOCK_ELEMENTS", 12)
        monkeypatch.setattr(model, "_KEPT_ELEMENTS", 80)
        assert self._walk(drawn, 8, 11) == 11
        assert self._walk(drawn, 8, 11, second_hop) == 6

    @pytest.mark.parametrize("kept", [48, _KEPT_ELEMENTS], ids=["some", "all"])
    def test_each_size_reads_the_kept_rows_in_its_own_blocks(self, monkeypatch, drawn, kept):
        # Blocks of 6 trials at N = 2 and of 3 at N = 4, and room for 3 rows
        # of 16 normals or for all 14: the narrower config reads the kept
        # rows in blocks twice as large as the wider one, and both read the
        # drawn rows in blocks of 3.
        monkeypatch.setattr(model, "_BLOCK_ELEMENTS", 12)
        monkeypatch.setattr(model, "_KEPT_ELEMENTS", kept)
        narrow = NetworkConfig(n_relays=2, conferencing=Neighbors(1))
        assert self._walk(drawn, 14, 14, cfgs=(narrow, self.CFG)) == 14
        assert block_ranges(14, 2, kept_rows(), 4) == (
            [(0, 6), (6, 12), (12, 14)] if kept_rows() == 14 else
            [(0, 3), (3, 6), (6, 9), (9, 12), (12, 14)])
        assert self._walk(drawn, 14, 14, cfgs=(narrow, self.CFG)) == 14 - kept_rows()

    def test_drawn_block_is_let_go_before_the_last_configs_kernels(self, monkeypatch):
        # No kept rows: every block is drawn.  At each block of the last
        # config the walk yields, the block its squares came from is gone,
        # so at most one drawn block and one config's squares are alive.
        monkeypatch.setattr(model, "_KEPT_ELEMENTS", 0)
        refs = []
        seeded_normals = model._seeded_normals

        def draw(states, count, out=None):
            z = seeded_normals(states, count, out)
            refs.append(weakref.ref(z))
            return z

        monkeypatch.setattr(model, "_seeded_normals", draw)
        cfgs = [NetworkConfig(n_relays=n, conferencing=Neighbors(1)) for n in (50, 200)]
        last = 0
        for i, lo, hi, h2, g2 in _trial_squares(cfgs, 15, 300):
            if i == 1:
                assert refs[-1]() is None
                last += 1
        assert kept_rows() == 0 and last == len(refs) == len(block_ranges(300, 200))

    def test_run_across_two_chunks_keeps_the_first_chunk(self, monkeypatch, drawn):
        # Chunks of 5 trials in blocks of 3: at most a chunk's trials are
        # kept, so later walks read those 5 rows and draw only the 7 trials
        # past them, in chunks of 5 and 2.
        monkeypatch.setattr(model, "_BLOCK_ELEMENTS", 12)
        monkeypatch.setattr(model, "_STATE_CHUNK", 5)
        assert self._walk(drawn, 9, 12) == 12
        assert self._walk(drawn, 9, 12) == 7
        assert self._walk(drawn, 9, 12, second_hop=False) == 7

    @pytest.mark.parametrize("n,trials,second_hop,rows_kept", [
        (1, 1, True, 1), (3, _STATE_CHUNK + 3, True, _STATE_CHUNK),
        (4000, 40, True, 40), (4000, 40, False, 40), (4000, 70, True, 65),
        (2 ** 15, 9, True, 8), (2 ** 18 + 1, 2, True, 0)])
    def test_kept_rows_stay_within_their_bound(self, drawn, n, trials, second_hop,
                                               rows_kept):
        # 2**20 float64 is 8 MiB, whatever the trial count and N; the rows
        # are allocated at their own size, never below 2**18 float64 (2 MiB).
        assert _KEPT_ELEMENTS * 8 == 8 * 2 ** 20 and _KEPT_FLOOR * 8 == 2 * 2 ** 20
        cfg = NetworkConfig(n_relays=n, conferencing=Neighbors(0))
        width = 4 * n if second_hop else 2 * n
        list(_trial_squares([cfg], 3, trials, second_hop))
        drawn.clear()
        rows, _ = model._first_rows(3, trials, width)
        assert drawn == []
        assert rows_kept == min(trials, _STATE_CHUNK, 2 ** 20 // width)
        assert rows.shape == (rows_kept, width) and rows.size <= _KEPT_ELEMENTS
        assert rows.base.size == max(rows.size, 2 ** 18)

    def test_point_masses_keep_empty_rows(self):
        cfg = NetworkConfig(n_relays=3, conferencing=Neighbors(1),
                            h_dist=PointMass(1), g_dist=PointMass(2j))
        for _ in range(2):
            blocks = list(_trial_squares([cfg], 4, 6))
            assert np.array_equal(np.concatenate([b[3] for b in blocks]), np.ones((6, 3)))
        assert model._first_rows(4, 6, 0)[0].shape == (6, 0)

    def test_suspended_walk_reads_its_rows_after_another_run_replaces_them(
            self, drawn):
        # A walk suspended with a kept block in hand, and a walk of another
        # run started meanwhile, which replaces the thread's first rows.
        wide = NetworkConfig(n_relays=8, conferencing=Neighbors(1))
        want = [b[3:] for b in _trial_squares([self.CFG, wide], 12, 6)]
        suspended = _trial_squares([self.CFG, wide], 12, 6)
        first = next(suspended)
        assert self._walk(drawn, 13, 6) == 6
        got = [first[3:]] + [b[3:] for b in suspended]
        assert all(np.array_equal(a, b) for x, y in zip(got, want) for a, b in zip(x, y))
        assert self._walk(drawn, 13, 6) == 0
        assert self._walk(drawn, 12, 6, cfgs=(self.CFG, wide)) == 6

    def test_another_threads_walk_neither_reads_nor_replaces_them(self, monkeypatch, drawn):
        self._walk(drawn, 10, 10)
        per_thread, errors = {}, []

        def other():
            try:
                for base in (10, 10, 11):
                    list(_trial_squares([self.CFG], base, 10))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        record_fills(monkeypatch, lambda z, states: per_thread.setdefault(
            threading.get_ident(), []).append(len(states)))
        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and errors == []
        # The other thread draws its first walk of the run in full, reads its
        # own rows on the second and replaces them with another run's.
        assert sum(per_thread.pop(thread.ident)) == 20 and per_thread == {}
        list(_trial_squares([self.CFG], 10, 10))
        assert per_thread == {}

    def test_draw_ahead_draws_the_rows_each_walk_reads(self, monkeypatch, drawn):
        # Blocks of 3 trials at N = 4 and room for 5 rows of 16.
        monkeypatch.setattr(model, "_BLOCK_ELEMENTS", 12)
        monkeypatch.setattr(model, "_KEPT_ELEMENTS", 80)
        model._draw_ahead([self.CFG], 8, 11)
        assert drawn == [(5, 16)]
        # The thread holds them, at this width or wider: nothing more is drawn.
        model._draw_ahead([self.CFG], 8, 11)
        model._draw_ahead([self.CFG], 8, 11, second_hop=False)
        assert drawn == [(5, 16)]
        # A walk of the run reads them and draws only the trials after them.
        assert self._walk(drawn, 8, 11) == 6

    @pytest.mark.parametrize("trials,rows,normals", [
        (40, 40, 40 * 16000), (70, 70 + 2 * 5, (70 + 5) * 16000 + 5 * 8000)],
        ids=["all_kept", "straddles"])
    def test_diagnose_pass_draws_only_rows_past_the_kept_ones(self, monkeypatch, drawn, trials,
                                                              rows, normals):
        # The bench's diagnose pass: AF keeps min(trials, 2**20 // 16000 = 65)
        # rows of 16000 normals at N = 4000; DF reads them at the same width
        # and the bound a prefix of them, so each draws only the trials past
        # them (none of 40, the last 5 of 70).  Its tables are those of each
        # scheme's trace run with no kept rows.
        cfg = NetworkConfig(n_relays=500, conferencing=Portion(0.2))
        params, sizes = cli.RunParams(trials=trials, seed=11), (500, 1000, 2000, 4000)
        shared = cli._diagnose_tables(cfg, params, sizes)
        assert sum(r for r, _ in drawn) == rows
        assert sum(r * c for r, c in drawn) == normals

        def unshared(*args):
            model._THREAD.first_rows = None
            return trace_points(*args)

        monkeypatch.setattr(cli, "trace_points", unshared)
        # repr tells every float apart bit for bit.
        assert repr(shared) == repr(cli._diagnose_tables(cfg, params, sizes))


def test_diagnose_pass_makes_one_kernel_call_per_block(monkeypatch):
    # The bench's diagnose pass keeps all 40 trials, and each size reads
    # them in its own blocks of 32, 16, 8 and 4 trials: 2 + 3 + 5 + 10
    # calls per scheme.  The limits add a moment-form cut-set bound per size
    # for ``upper`` and for ``af``.
    calls = {"_af_rates": 0, "_df_rates": 0, "_upper_rates": 0}
    kernels = {name: getattr(rates, name) for name in calls}

    def counted(name):
        def kernel(*args):
            calls[name] += 1
            return kernels[name](*args)
        return kernel

    for name in calls:
        monkeypatch.setattr(rates, name, counted(name))
    cfg = NetworkConfig(n_relays=500, conferencing=Portion(0.2))
    cli._diagnose_tables(cfg, cli.RunParams(trials=40, seed=11), (500, 1000, 2000, 4000))
    assert calls == {"_af_rates": 20, "_df_rates": 20, "_upper_rates": 20 + 8}


def test_diagnose_pass_reads_the_kept_rows_by_their_last_row(monkeypatch, drawn, tmp_path,
                                                             capsys):
    # The bench's diagnose pass on one CPU and on two: its 40 rows of 16000
    # normals are one fill, and each of its three walks yields the kept
    # blocks of 32, 16, 8 and 4 trials (N = 500 .. 4000) in the order of
    # their last row, sizes in order where two end together.  The blocks,
    # and so the 20 kernel calls per scheme, are those of a walk in size
    # order, and stdout is the same bytes.
    sizes = {500: 32, 1000: 16, 2000: 8, 4000: 4}
    order = [(i, lo, top) for top, i, lo in sorted(
        (min(lo + size, 40), i, lo) for i, size in enumerate(sizes.values())
        for lo in range(0, 40, size))]
    assert sorted(order) == [(i, lo, min(lo + size, 40))
                             for i, size in enumerate(sizes.values())
                             for lo in range(0, 40, size)]
    walks, calls = [], {"_af_rates": 0, "_df_rates": 0, "_upper_rates": 0}
    trial_squares = montecarlo._trial_squares

    def recorded(*args):
        walks.append([])
        for block in trial_squares(*args):
            walks[-1].append(block[:3])
            yield block

    def counted(name, kernel):
        def call(h2, *args):
            # Trial blocks only, not the limits' moment-form bound.
            calls[name] += np.ndim(h2) == 2
            return kernel(h2, *args)
        return call

    monkeypatch.setattr(montecarlo, "_trial_squares", recorded)
    for name in calls:
        monkeypatch.setattr(rates, name, counted(name, getattr(rates, name)))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TestStateDerivations.CONFIG.format(n=500, trials=40))
    out = {}
    for cpus in (1, 2):
        monkeypatch.setattr(model, "_CPUS", cpus)
        model._THREAD.first_rows = None
        del walks[:], drawn[:]
        calls.update(dict.fromkeys(calls, 0))
        assert cli.main(["diagnose", "--config", str(cfg), "--axis",
                         ",".join(map(str, sizes))]) == 0
        out[cpus] = capsys.readouterr()
        assert out[cpus].err == ""
        assert walks == [order] * 3
        assert calls == {"_af_rates": 20, "_df_rates": 20, "_upper_rates": 20}
        assert drawn == [(40, 16000)]
    assert out[1].out == out[2].out


class TestStateDerivations:
    """The PCG64 states each command derives, as the number of trial seeds
    of each ``_pcg64_states`` call: the first rows' K trials once, then per
    walk each chunk of the trials past them, once."""

    CONFIG = ("N={n}\np=0.2\nPs=1\nPr=1\nPc=1\nN0=1\nh_dist=cscg:1\ng_dist=cscg:1\n"
              "trials={trials}\nschemes=af,df,upper\nseed=11\n")

    @pytest.mark.parametrize("command,sizes,trials,calls", [
        # K = 2**20 // 16000 = 65 rows at N = 4000: the AF walk keeps all
        # 40 trials, or 65 of 70 and each scheme's walk derives the last 5.
        ("diagnose", (500, 1000, 2000, 4000), 40, [40]),
        ("diagnose", (500, 1000, 2000, 4000), 70, [65, 5, 5, 5]),
        # The sweep draws its first rows at N = 100 (K = 2**20 // 400 = 2621)
        # before its three points walk.
        ("sweep-n", (25, 50, 100), 100, [100]),
        ("sweep-n", (25, 50, 100), 3000, [2621, 379, 379, 379]),
        # K = 2**20 // 256000 = 4 at N = 64000.
        ("diagnose", (16000, 32000, 64000), 20, [4, 16, 16, 16]),
    ], ids=["diagnose_40", "diagnose_70", "sweep_n_100", "sweep_n_3000",
            "diagnose_large_n"])
    def test_each_command_derives_its_pinned_states(self, derived, tmp_path, capsys,
                                                    command, sizes, trials, calls):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.CONFIG.format(n=sizes[0], trials=trials))
        axis = ",".join(str(n) for n in sizes)
        assert cli.main([command, "--config", str(cfg), "--axis", axis]) == 0
        assert capsys.readouterr().err == ""
        assert derived == calls

    def test_each_walk_derives_each_chunk_past_the_kept_rows_once(self, monkeypatch, derived):
        # Chunks of 5 trials: the first walk derives the 5 kept trials'
        # states, then each walk those of 5, 5 and 2 trials past them.  No
        # call derives more than a chunk: 2**14 states of 32 B, 512 KiB.
        assert _STATE_CHUNK * 32 == 512 * 2 ** 10
        monkeypatch.setattr(model, "_STATE_CHUNK", 5)
        cfg = NetworkConfig(n_relays=4, conferencing=Neighbors(1))
        for _ in range(2):
            assert len(stacked_squares(cfg, 3, 17)[0]) == 17
        assert derived == [5, 5, 5, 2, 5, 5, 2]


class TestLawResolution:
    """A config resolves its two laws once, when it is built; the moments,
    the sampler and the trial engine read what it resolved."""

    def test_laws_are_resolved_only_when_a_config_is_built(self, monkeypatch):
        calls = []

        def counting_law(spec, n):
            calls.append(spec)
            return _law(spec, n)

        monkeypatch.setattr(model, "_law", counting_law)
        configs = [NetworkConfig(n_relays=7, conferencing=Neighbors(2), h_dist=law,
                                 g_dist=LAWS["per_index_mixed"])
                   for law in LAWS.values()]
        configs.append(replace(configs[0], n_relays=14, g_dist=Cscg(0.8)))
        assert len(calls) == 2 * len(configs)
        calls.clear()
        for cfg in configs:
            moments(cfg)
            sample_realization(cfg, 3)
            montecarlo.run_point(cfg, 5, 1)
        by_size = {cfg.n_relays: cfg for cfg in (configs[0], configs[-1])}
        for scheme in rates.SCHEMES:
            trace_points(scheme, by_size.__getitem__, (7, 14), 3, 2)
        assert calls == []


class TestMomentSetBuilds:
    """A config builds its one moment set when it is built; nothing that
    reads a config that is already built builds another."""

    def test_one_moment_set_per_config(self, monkeypatch):
        builds = []
        init = model.MomentSet.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(model.MomentSet, "__init__", counting_init)
        configs = [NetworkConfig(n_relays=7, conferencing=Neighbors(2), h_dist=law,
                                 g_dist=LAWS["per_index_mixed"])
                   for law in LAWS.values()]
        configs.append(replace(configs[0], n_relays=14, g_dist=Cscg(0.8),
                               conf_gain=np.full((14, 2), 0.6)))
        assert len(builds) == len(configs)
        builds.clear()
        for cfg in configs:
            real = sample_realization(cfg, 3)
            moments(cfg)
            montecarlo.run_point(cfg, 5, 1)
            montecarlo._rate_table([(cfg, rates.SCHEMES)], 5, 1)
            rates.rate_report(real, cfg)
            rates.af_sinr(real, cfg)
            rates.capacity_upper_asymptotic(cfg)
            rates.df_rates_asymptotic(cfg)
            rates.af_rate_asymptotic(cfg)
            rates.af_rate_expected_q(cfg)
            montecarlo.analytic_df_mac_snr(real, cfg)
            montecarlo.signal_oracle_af(real, cfg, 10, 0)
            montecarlo.signal_oracle_df_mac(real, cfg, 10, 0)
            conferencing_noise_ratio(real, cfg)
        by_size = {cfg.n_relays: cfg for cfg in (configs[0], configs[-1])}
        for scheme in rates.SCHEMES:
            trace_points(scheme, by_size.__getitem__, (7, 14), 3, 2)
        assert builds == []


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
