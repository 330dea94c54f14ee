"""Invalid input fails at the configuration boundary.

One table of library calls, each of which raises ``ConfigurationError``, and
one of command lines, each of which exits with code 2, reports a configuration
error on stderr and leaves an existing ``--out`` file alone.  A scheme that
cannot run under a valid configuration exits with code 3 instead, and every
command reports it in the same one line; so does an ``oracle`` scheme whose
closed-form SINR is 0.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from confrelay import (
    ConfigurationError,
    Cscg,
    Neighbors,
    NetworkConfig,
    PerIndex,
    PointMass,
    Portion,
    SweepSpec,
    conferencing_size,
    derive_seed,
    run_point,
    sample_realization,
    signal_oracle_af,
    signal_oracle_df_mac,
)
from confrelay import montecarlo, rates
from confrelay.asymptotics import lemma1_gap, scaling_fit, trace_points
from confrelay.cli import _parser, dispatch, main
from confrelay.montecarlo import apply_axis

BASE = NetworkConfig(n_relays=4, conferencing=Neighbors(1))


def _oracle_with_seed(oracle, seed):
    real = sample_realization(BASE, 0)
    oracle(real, BASE, 100, seed)


def _oracle_without_draws(oracle, draws=0):
    # A realization of the wrong length and, for AF, no conferencing power:
    # the draw count is still the first thing rejected.
    cfg = NetworkConfig(n_relays=4, conferencing=Neighbors(1), p_c=0.0)
    real = sample_realization(NetworkConfig(n_relays=3, conferencing=Neighbors(0)), 0)
    oracle(real, cfg, draws, 0)


LIBRARY_CASES = {
    "n_relays_fractional": (lambda: NetworkConfig(n_relays=2.5, conferencing=Neighbors(0)),
                            "n_relays"),
    "n_relays_zero": (lambda: NetworkConfig(n_relays=0, conferencing=Neighbors(0)),
                      "n_relays"),
    "conferencing_not_topology": (lambda: NetworkConfig(n_relays=3, conferencing=0.5),
                                  "conferencing"),
    "h_dist_not_law": (lambda: NetworkConfig(n_relays=3, conferencing=Neighbors(0),
                                             h_dist="cscg:1"),
                       "h_dist"),
    "per_index_empty": (lambda: PerIndex(()), "per_index"),
    "per_index_entry_not_law": (lambda: PerIndex((Cscg(1.0), 1.0)), "per_index"),
    "portion_zero": (lambda: Portion(0), "portion"),
    "portion_above_one": (lambda: Portion(1.5), "portion"),
    "neighbors_negative": (lambda: Neighbors(-1), "neighbor"),
    "conferencing_size_no_relays": (lambda: conferencing_size(0.5, 0), "relays"),
    # Counts are whole numbers: a fractional or nonpositive one is rejected
    # where it enters, not truncated or left to fail in NumPy.
    "neighbors_fractional": (lambda: Neighbors(1.5), "neighbor count"),
    "conferencing_size_fractional_relays": (lambda: conferencing_size(0.5, 2.5),
                                            "number of relays"),
    "run_point_fractional_trials": (lambda: run_point(BASE, 2.5, 0), "trials"),
    "sweep_fractional_trials": (lambda: SweepSpec(base=BASE, axis="portion", values=(0.5,),
                                                  trials=2.5, base_seed=0),
                                "trials"),
    "trace_points_zero_trials": (lambda: trace_points("upper", BASE, (4, 8), 0, 0),
                                 "trials"),
    "trace_points_negative_trials": (lambda: trace_points("upper", BASE, (4, 8), -2, 0),
                                     "trials"),
    "trace_points_fractional_size": (lambda: trace_points("upper", BASE, (4.5, 8), 1, 0),
                                     "n_relays"),
    "sweep_no_values": (lambda: SweepSpec(base=BASE, axis="portion", values=(),
                                          trials=1, base_seed=0),
                        "at least one"),
    "sweep_zero_trials": (lambda: SweepSpec(base=BASE, axis="portion", values=(0.5,),
                                            trials=0, base_seed=0),
                          "trials"),
    "sweep_unknown_scheme": (lambda: SweepSpec(base=BASE, axis="portion", values=(0.5,),
                                               trials=1, base_seed=0,
                                               schemes=("af", "cf")),
                             "schemes"),
    "sweep_fractional_n_relays": (lambda: apply_axis(BASE, "n_relays", 2.5), "n_relays"),
    "sweep_infinite_n_relays": (lambda: apply_axis(BASE, "n_relays", float("inf")),
                                "n_relays"),
    "sweep_nan_n_relays": (lambda: apply_axis(BASE, "n_relays", float("nan")), "n_relays"),
    "sweep_point_unknown_axis": (lambda: apply_axis(BASE, "p_c", 1.0),
                                 "unknown sweep axis 'p_c'"),
    "portion_axis_text_value": (lambda: apply_axis(BASE, "portion", "0.5"),
                                "sweep axis value must be a real number"),
    "snr_axis_no_value": (lambda: apply_axis(BASE, "conf_snr_db", None),
                          "sweep axis value must be a real number"),
    "snr_axis_power_overflows": (lambda: apply_axis(BASE, "conf_snr_db", 4000.0),
                                 "axis value 4000.0 dB"),
    "snr_axis_power_underflows": (lambda: apply_axis(BASE, "conf_snr_db", -4000.0),
                                  "axis value -4000.0 dB"),
    "snr_axis_power_overflows_with_noise": (
        lambda: apply_axis(replace(BASE, n_0=1e300), "conf_snr_db", 100.0),
        "axis value 100.0 dB"),
    # Only -inf dB (Pc = 0) is exempt from the range check.
    "snr_axis_infinite": (lambda: apply_axis(BASE, "conf_snr_db", float("inf")),
                          "conf_snr_db axis value inf dB puts p_c"),
    "snr_axis_nan": (lambda: apply_axis(BASE, "conf_snr_db", float("nan")),
                     "conf_snr_db axis value nan dB puts p_c"),
    "snr_axis_beyond_double": (lambda: apply_axis(BASE, "conf_snr_db", float("1e400")),
                               "conf_snr_db axis value inf dB puts p_c"),
    "af_oracle_no_draws": (lambda: _oracle_without_draws(signal_oracle_af),
                           "symbol_trials"),
    "df_oracle_no_draws": (lambda: _oracle_without_draws(signal_oracle_df_mac),
                           "symbol_trials"),
    "af_oracle_fractional_draws": (lambda: _oracle_without_draws(signal_oracle_af, 2.5),
                                   "symbol_trials"),
    "df_oracle_fractional_draws": (lambda: _oracle_without_draws(signal_oracle_df_mac, 2.5),
                                   "symbol_trials"),
    "run_point_unknown_scheme": (lambda: run_point(BASE, 1, 0, ("af", "cf")),
                                 "unknown scheme 'cf'"),
    "trace_points_unknown_scheme": (lambda: trace_points("cf", BASE, (4, 8), 1, 0),
                                    "unknown scheme"),
    "lemma1_gap_no_relays": (lambda: lemma1_gap(Cscg(1.0), 0, 1, 0), "n_relays"),
    "lemma1_gap_no_trials": (lambda: lemma1_gap(Cscg(1.0), 4, 0, 0), "trials"),
    "scaling_fit_two_points": (lambda: scaling_fit([(4, 1.0), (8, 2.0)]),
                               "at least 3 points"),
    "scaling_fit_repeated_sizes": (lambda: scaling_fit([(4, 1.0), (4, 2.0), (8, 3.0)]),
                                   "distinct network sizes"),
    # Rates are real numbers: text, even numeric text, and None are rejected.
    "scaling_fit_word_rate": (lambda: scaling_fit([(4, "x"), (8, 1.0), (16, 2.0)]),
                              "rate must be a real number"),
    "scaling_fit_text_rate": (lambda: scaling_fit([(4, "0.5"), (8, 1.0), (16, 2.0)]),
                              "rate must be a real number"),
    "scaling_fit_no_rate": (lambda: scaling_fit([(4, None), (8, 1.0), (16, 2.0)]),
                            "rate must be a real number"),
    "scheme_kernels_unknown_scheme": (lambda: rates.scheme_kernels(BASE, ("cf",)),
                                      "unknown scheme"),
    "conf_gain_square_underflows": (lambda: NetworkConfig(n_relays=4, conferencing=Neighbors(1),
                                                          conf_gain=1e-200),
                                    "conf_gain squared"),
    "conf_gain_square_overflows": (lambda: NetworkConfig(n_relays=4, conferencing=Neighbors(1),
                                                         conf_gain=1e200),
                                   "conf_gain squared"),
    "conf_gain_entry_square_underflows": (
        lambda: NetworkConfig(n_relays=4, conferencing=Neighbors(1),
                              conf_gain=np.array([[1.0], [1e-200], [1.0], [1.0]])),
        "conf_gain entries squared"),
    "point_mass_square_underflows": (lambda: PointMass(1e-200),
                                     "point_mass value squared"),
    "point_mass_square_overflows": (lambda: PointMass(1e200), "point_mass value squared"),
    "point_mass_modulus_overflows": (lambda: PointMass(complex(1.5e308, 1.5e308)),
                                     "point_mass value squared"),
    "conf_gain_entry_square_overflows": (
        lambda: NetworkConfig(n_relays=4, conferencing=Neighbors(1),
                              conf_gain=np.array([[1.0], [1.0], [1.0], [1e200]])),
        "conf_gain entries squared"),
    # The moments read E|h|^4 too: 2 * variance^2 for a Cscg law, |v|^4 for a
    # point mass.
    "cscg_fourth_moment_underflows": (lambda: Cscg(1e-200), "cscg fourth moment"),
    "cscg_fourth_moment_overflows": (lambda: Cscg(1e200), "cscg fourth moment"),
    "point_mass_fourth_power_underflows": (lambda: PointMass(1e-160),
                                           "point_mass value to the fourth power"),
    "point_mass_fourth_power_overflows": (lambda: PointMass(1e100j),
                                          "point_mass value to the fourth power"),
    # A seed is a whole number of any sign and size, read modulo 2**64;
    # anything else is rejected where it enters, not truncated or left to
    # fail in int().
    "run_point_fractional_seed": (lambda: run_point(BASE, 3, 1.5), "seed"),
    "run_point_nan_seed": (lambda: run_point(BASE, 3, float("nan")), "seed"),
    "run_point_infinite_seed": (lambda: run_point(BASE, 3, float("inf")), "seed"),
    "run_point_no_seed": (lambda: run_point(BASE, 3, None), "seed"),
    "run_point_text_seed": (lambda: run_point(BASE, 3, "7"), "seed"),
    "run_point_nan_seed_no_runnable_scheme": (
        lambda: run_point(replace(BASE, p_c=0.0), 3, float("nan"), ("af",)), "seed"),
    "trace_points_nan_seed": (lambda: trace_points("af", BASE, (4, 8), 2, float("nan")),
                              "seed"),
    "sweep_nan_seed": (lambda: SweepSpec(base=BASE, axis="portion", values=(0.5,),
                                         trials=1, base_seed=float("nan")),
                       "base_seed"),
    "sample_realization_nan_seed": (lambda: sample_realization(BASE, float("nan")), "seed"),
    "sample_realization_text_seed": (lambda: sample_realization(BASE, "7"), "seed"),
    "derive_seed_nan_base": (lambda: derive_seed(float("nan"), 0), "base_seed"),
    "derive_seed_fractional_trial": (lambda: derive_seed(0, 1.5), "trial"),
    "lemma1_gap_nan_seed": (lambda: lemma1_gap(Cscg(1.0), 4, 2, float("nan")), "seed"),
    "af_oracle_nan_seed": (lambda: _oracle_with_seed(signal_oracle_af, float("nan")),
                           "seed"),
    "df_oracle_nan_seed": (lambda: _oracle_with_seed(signal_oracle_df_mac, float("nan")),
                           "seed"),
    # Real parameters are numbers before their ranges are checked.
    "cscg_variance_none": (lambda: Cscg(None), "cscg variance must be a real number"),
    "cscg_variance_complex": (lambda: Cscg(1 + 0j), "cscg variance must be a real number"),
    "point_mass_value_text": (lambda: PointMass("x"), "point_mass value must be a complex"),
    "portion_text": (lambda: Portion("0.5"), "conferencing portion must be a real number"),
    "portion_none": (lambda: Portion(None), "conferencing portion must be a real number"),
    "source_power_text": (lambda: NetworkConfig(n_relays=4, conferencing=Neighbors(1),
                                                p_s="1"),
                          "p_s must be a real number"),
    "noise_level_none": (lambda: NetworkConfig(n_relays=4, conferencing=Neighbors(1),
                                               n_0=None),
                         "n_0 must be a real number"),
    "conf_gain_text": (lambda: NetworkConfig(n_relays=4, conferencing=Neighbors(1),
                                             conf_gain="2"),
                       "conf_gain must be a real number"),
    "conf_gain_complex": (lambda: NetworkConfig(n_relays=4, conferencing=Neighbors(1),
                                                conf_gain=1 + 1j),
                          "conf_gain must be a real number"),
    # Each value is checked by the type that owns it: a size by NetworkConfig
    # or _integer, a portion by Portion, an axis value as a real number.
    "lemma1_gap_no_size": (lambda: lemma1_gap(Cscg(1.0), None, 1, 0), "n_relays"),
    "lemma1_gap_text_trials": (lambda: lemma1_gap(Cscg(1.0), 4, "2", 0), "trials"),
    "trace_points_no_size": (lambda: trace_points("upper", BASE, (None, 4), 1, 0),
                             "n_relays"),
    "scaling_fit_fractional_size": (lambda: scaling_fit([(2.5, 1.0), (4, 2.0), (8, 3.0)]),
                                    "network size"),
    "conferencing_size_text_portion": (lambda: conferencing_size("0.5", 4),
                                       "conferencing portion must be a real number"),
    "sweep_no_axis_value": (lambda: SweepSpec(base=BASE, axis="portion", values=(None,),
                                              trials=1, base_seed=0),
                            "sweep axis value must be a real number"),
    "sweep_word_axis_value": (lambda: SweepSpec(base=BASE, axis="portion", values=("x",),
                                                trials=1, base_seed=0),
                              "sweep axis value must be a real number"),
    "sweep_text_axis_value": (lambda: SweepSpec(base=BASE, axis="portion", values=("0.5",),
                                                trials=1, base_seed=0),
                              "sweep axis value must be a real number"),
    "conf_gain_entries_text": (lambda: NetworkConfig(n_relays=2, conferencing=Neighbors(1),
                                                     conf_gain=[["2"], ["3"]]),
                               "conf_gain array entries must be real numbers"),
    "conf_gain_entries_bool": (lambda: NetworkConfig(n_relays=2, conferencing=Neighbors(1),
                                                     conf_gain=np.ones((2, 1), dtype=bool)),
                               "conf_gain array entries must be real numbers"),
    "g_dist_per_index_length": (lambda: NetworkConfig(n_relays=4, conferencing=Neighbors(1),
                                                      g_dist=PerIndex((Cscg(1.0),) * 3)),
                                "g_dist: per_index length 3 does not match 4 relays"),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_rejects(name):
    call, message = LIBRARY_CASES[name]
    with pytest.raises(ConfigurationError, match=message):
        call()


# (seed, the seed in [0, 2**64) it stands for)
WHOLE_SEEDS = [(2 ** 64 + 5, 5), (-3, 2 ** 64 - 3), (-(2 ** 70) - 1, 2 ** 64 - 1),
               (np.uint64(2 ** 64 - 1), 2 ** 64 - 1), (2.0, 2), (np.float64(7.0), 7)]


@pytest.mark.parametrize("seed, reduced", WHOLE_SEEDS)
def test_whole_seeds_draw_what_their_value_modulo_2_64_draws(seed, reduced):
    real, want = sample_realization(BASE, seed), sample_realization(BASE, reduced)
    assert np.array_equal(real.h, want.h) and np.array_equal(real.g, want.g)
    assert run_point(BASE, 5, seed).stats == run_point(BASE, 5, reduced).stats
    assert (trace_points("af", BASE, (4, 8), 3, seed)
            == trace_points("af", BASE, (4, 8), 3, reduced))
    assert derive_seed(seed, 3.0) == derive_seed(reduced, 3)
    assert SweepSpec(base=BASE, axis="portion", values=(0.5,), trials=1,
                     base_seed=seed).base_seed == reduced
    assert (signal_oracle_df_mac(real, BASE, 100, seed)
            == signal_oracle_df_mac(real, BASE, 100, reduced))


CONFIG = "N=4\np=0.5\ntrials=2\n"


def _snr_out_of_range(db):
    """The whole stderr of a sweep-snr dB value whose Pc leaves the range of
    a double."""
    return (f"confrelay: configuration error: conf_snr_db axis value {db} dB puts "
            "p_c = n_0 * 10^(dB/10) out of floating-point range\n")


CLI_CASES = {
    "zero_trials": (CONFIG, ["single", "--set", "trials=0"], "trials"),
    "bad_point_mass": (CONFIG, ["single", "--set", "h_dist=point_mass:abc"],
                       "point_mass"),
    "line_without_equals": ("N=4\np=0.5\nbogus\n", ["single"], "key=value"),
    "axis_not_a_number": (CONFIG, ["sweep-n", "--axis", "1,x"], "--axis"),
    "axis_empty": (CONFIG, ["sweep-n", "--axis", ","], "--axis"),
    "oracle_no_draws": (CONFIG, ["oracle", "--draws", "0"],
                        "--draws must be a positive integer, got 0"),
    "oracle_negative_draws": (CONFIG, ["oracle", "--draws", "-5"],
                              "--draws must be a positive integer, got -5"),
    "oracle_upper_only": (CONFIG, ["oracle", "--set", "schemes=upper"], "oracle"),
    "diagnose_unordered_sizes": (CONFIG, ["diagnose", "--axis", "100,50,200"],
                                 "strictly increasing"),
    "diagnose_repeated_sizes": (CONFIG, ["diagnose", "--axis", "100,100,200"],
                                "strictly increasing"),
    # Rates out of floating-point range: no nan or inf row exits 0.
    "source_power_overflows": (CONFIG, ["single", "--set", "Ps=1e308"], "not finite"),
    "noise_level_underflows": (CONFIG, ["single", "--set", "N0=1e-320"], "not finite"),
    "conf_gain_square_underflows": (CONFIG, ["single", "--set", "f=1e-200"],
                                    "conf_gain squared"),
    "conf_gain_square_overflows": (CONFIG, ["single", "--set", "f=1e200"],
                                   "conf_gain squared"),
    "point_mass_square_underflows": (CONFIG, ["single", "--set", "h_dist=point_mass:1e-200"],
                                     "point_mass value squared"),
    "point_mass_square_overflows": (CONFIG, ["single", "--set", "g_dist=point_mass:1e200"],
                                    "point_mass value squared"),
    # A law's own message, not only "bad ... value", reaches stderr.
    "cscg_variance_negative": (CONFIG, ["single", "--set", "h_dist=cscg:-1"],
                               "cscg variance must be finite and positive"),
    "cscg_fourth_moment_underflows": (CONFIG, ["single", "--set", "h_dist=cscg:1e-200"],
                                      "cscg fourth moment"),
    "cscg_fourth_moment_overflows": (CONFIG, ["single", "--set", "g_dist=cscg:1e200"],
                                     "cscg fourth moment"),
    "point_mass_fourth_power_underflows": (CONFIG, ["single", "--set",
                                                    "h_dist=point_mass:1e-160"],
                                           "point_mass value to the fourth power"),
    "oracle_source_power_overflows": (CONFIG, ["oracle", "--draws", "2000",
                                               "--set", "Ps=1e308"], "not finite"),
    "oracle_noise_level_underflows": (CONFIG, ["oracle", "--draws", "2000",
                                               "--set", "N0=1e-320"], "not finite"),
    "oracle_relay_power_overflows": (CONFIG, ["oracle", "--draws", "2000",
                                              "--set", "Pr=1e308"], "not finite"),
    # The oracle's round-off guard reports an infinite SINR, which is not a row.
    "oracle_noise_below_round_off": (CONFIG, ["oracle", "--draws", "2000",
                                              "--set", "N0=1e-30"], "not finite"),
    # Pc/N0 underflows a double (it used to crash math.log10); the AF rate
    # has no finite value there.
    "conf_snr_ratio_underflows": (CONFIG, ["single", "--set", "Pc=1e-300",
                                           "--set", "N0=1e300"], "not finite"),
    # A finite dB whose Pc = N0 * 10^(dB/10) leaves the range of a double.
    "snr_axis_power_overflows": (CONFIG, ["sweep-snr", "--axis=4000"],
                                 "axis value 4000.0 dB"),
    "snr_axis_power_underflows": (CONFIG, ["sweep-snr", "--axis=-4000"],
                                  "axis value -4000.0 dB"),
    # Only -inf dB (Pc = 0) is exempt; 1e400 parses as inf.
    "snr_axis_infinite": (CONFIG, ["sweep-snr", "--axis=inf"], _snr_out_of_range("inf")),
    "snr_axis_nan": (CONFIG, ["sweep-snr", "--axis=nan"], _snr_out_of_range("nan")),
    "snr_axis_beyond_double": (CONFIG, ["sweep-snr", "--axis=1e400"],
                               _snr_out_of_range("inf")),
    "snr_axis_nan_after_zero": (CONFIG, ["sweep-snr", "--axis=0,nan"],
                                _snr_out_of_range("nan")),
    "sweep_rate_overflows": (CONFIG, ["sweep-n", "--axis", "4,8", "--set", "N0=1e-320"],
                             "not finite"),
    "diagnose_trace_overflows": (CONFIG, ["diagnose", "--axis", "4,8,16",
                                          "--set", "Ps=1e308"], "not finite"),
}


# The overflow cases drive NumPy past its float range on purpose; the CLI
# reports that in its one error line, with no NumPy warning before it (the
# suite turns a RuntimeWarning into an error).
@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_rejects(name, tmp_path, capsys):
    text, argv, message = CLI_CASES[name]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "existing.csv"
    out.write_text("earlier output\n")
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("confrelay: configuration error:")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert message in captured.err
    assert out.read_text() == "earlier output\n"


@pytest.mark.parametrize("law", ["h_dist=point_mass:1e200", "h_dist=cscg:-1",
                                 "g_dist=cscg:1e200"])
def test_cli_law_errors_keep_their_message_and_location(law, tmp_path, capsys):
    # The law's ConfigurationError is not rewrapped as a parse error but
    # names the override it came from, and a law rejected at parse time
    # leaves no arithmetic to overflow.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["single", "--config", str(cfg), "--set", law]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert f"override 1 ({law}): " in err
    assert "bad " not in err


def test_cli_law_error_in_a_config_line_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG + "h_dist=point_mass:1e-160\n")
    assert main(["single", "--config", str(cfg)]) == 2
    line = len(CONFIG.splitlines()) + 1
    assert (f"line {line}: point_mass value to the fourth power"
            in capsys.readouterr().err)


# (key, field, config): a power given as -0.0 is stored as +0.0, so its
# rates, and every byte the CLI prints, are those of a power of 0.  Pc is
# set at M = 0, where AF and DF run without it.
NEGATIVE_ZERO_POWERS = [("Ps", "p_s", CONFIG), ("Pr", "p_r", CONFIG),
                        ("Pc", "p_c", "N=4\nM=0\ntrials=2\n")]


@pytest.mark.parametrize("key, field, text", NEGATIVE_ZERO_POWERS,
                         ids=[key for key, _, _ in NEGATIVE_ZERO_POWERS])
def test_a_power_of_negative_zero_reads_as_zero(key, field, text, tmp_path, capsys):
    cfg = NetworkConfig(n_relays=4, conferencing=Neighbors(0), **{field: -0.0})
    assert math.copysign(1.0, getattr(cfg, field)) == 1.0
    path = tmp_path / "c.cfg"
    path.write_text(text)
    printed = []
    for value in ("0", "-0.0"):
        assert main(["single", "--config", str(path), "--set", f"{key}={value}"]) == 0
        printed.append(capsys.readouterr())
    assert printed[0].err == "" and printed[1] == printed[0]


def test_dispatch_rejects_an_unknown_command(tmp_path, capsys):
    # The argument parser never gives this command; only a direct call does.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG)
    args = _parser().parse_args(["single", "--config", str(cfg)])
    args.command = "sweep-q"
    assert dispatch(args) == 2
    assert capsys.readouterr() == (
        "", "confrelay: configuration error: unknown command 'sweep-q'\n")


def _needs_pc(scheme, m):
    return f"{scheme}: scheme {scheme!r} needs p_c > 0 when conferencing is enabled (M = {m})"


# Pc = 0 with conferencing: AF and DF cannot run.  Under p = 0.5, N = 2 and
# p = 0.25 at N = 4 have M = 0, so each axis fails from its second point on.
BOTH = f"{_needs_pc('af', 1)}; {_needs_pc('df', 1)}"
PRECONDITION_CASES = {
    "single": (["single"], BOTH),
    "sweep_n": (["sweep-n", "--axis", "2,4,8"], BOTH),
    "sweep_p": (["sweep-p", "--axis", "0.25,0.5"], BOTH),
    "sweep_snr": (["sweep-snr", "--axis=-inf,0"], BOTH),
    "oracle": (["oracle", "--draws", "100"], BOTH),
    "diagnose": (["diagnose", "--axis", "2,4,8"], BOTH),
    "diagnose_large_m_first": (["diagnose", "--axis", "8,16,32"],
                               f"{_needs_pc('af', 3)}; {_needs_pc('df', 3)}"),
    "diagnose_df_upper": (["diagnose", "--axis", "2,4,8", "--set", "schemes=upper,df"],
                          _needs_pc("df", 1)),
    "oracle_df": (["oracle", "--draws", "100", "--set", "schemes=df"], _needs_pc("df", 1)),
}


@pytest.mark.parametrize("name", sorted(PRECONDITION_CASES))
def test_cli_reports_every_failing_scheme_in_one_line(name, tmp_path, capsys, derived):
    argv, reasons = PRECONDITION_CASES[name]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG)
    assert main(argv + ["--config", str(cfg), "--set", "Pc=0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"confrelay: precondition error: {reasons}\n"
    if argv[0] == "diagnose":
        # Checked at every size before any trial is drawn.
        assert derived == []


ZERO_SINR = "the closed-form SINR is 0, so the relative gap is undefined"
# The DF second-hop SNR does not read Ps, so only AF's closed form is 0 there.
ZERO_SINR_CASES = {
    "oracle_source_power_zero": ("Ps=0", f"af: {ZERO_SINR}"),
    "oracle_relay_power_zero": ("Pr=0", f"af: {ZERO_SINR}; df: {ZERO_SINR}"),
}


@pytest.mark.parametrize("name", sorted(ZERO_SINR_CASES))
def test_oracle_zero_closed_form_exits_3_before_any_symbol_draw(name, tmp_path, capsys,
                                                                monkeypatch):
    override, reasons = ZERO_SINR_CASES[name]
    symbol_draws = []
    monkeypatch.setattr(montecarlo, "_oracle", lambda *args: symbol_draws.append(args))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG)
    assert main(["oracle", "--draws", "2000", "--config", str(cfg), "--set", override]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"confrelay: precondition error: {reasons}\n"
    assert symbol_draws == []


def test_oracle_df_alone_runs_without_source_power(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG)
    assert main(["oracle", "--draws", "2000", "--config", str(cfg),
                 "--set", "Ps=0", "--set", "schemes=df"]) == 0
    [header, row] = capsys.readouterr().out.splitlines()
    assert row.startswith("df,")
    assert all(math.isfinite(float(v)) for v in row.split(",")[1:])


def test_cli_configuration_error_comes_before_precondition_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG)
    assert main(["diagnose", "--axis", "8,4,16", "--config", str(cfg), "--set", "Pc=0"]) == 2
    assert capsys.readouterr().err == (
        "confrelay: configuration error: network sizes must be strictly increasing\n")
