"""Invalid input fails at the configuration boundary.

One table of library calls, each of which raises ``ConfigurationError``, and
one of command lines, each of which exits with code 2, reports a configuration
error on stderr and leaves an existing ``--out`` file alone.
"""

import warnings

import numpy as np
import pytest

from confrelay import (
    ConfigurationError,
    Cscg,
    MomentSet,
    Neighbors,
    NetworkConfig,
    PerIndex,
    PointMass,
    Portion,
    SweepSpec,
    conferencing_size,
    moments,
    sample_realization,
    signal_oracle_af,
    signal_oracle_df_mac,
)
from confrelay import rates
from confrelay.asymptotics import lemma1_gap, scaling_fit, trace_points
from confrelay.cli import main
from confrelay.montecarlo import apply_axis

BASE = NetworkConfig(n_relays=4, conferencing=Neighbors(1))


def _oracle_without_draws(oracle):
    # A realization of the wrong length and, for AF, no conferencing power:
    # the draw count is still the first thing rejected.
    cfg = NetworkConfig(n_relays=4, conferencing=Neighbors(1), p_c=0.0)
    real = sample_realization(NetworkConfig(n_relays=3, conferencing=Neighbors(0)), 0)
    oracle(real, cfg, moments(BASE), 0, 0)


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
    "moments_unequal_lengths": (lambda: MomentSet(np.ones(2), np.ones(3) * 2,
                                                  np.ones(2), np.ones(2) * 2),
                                "length"),
    "moments_not_positive": (lambda: MomentSet(np.array([1.0, 0.0]), np.full(2, 2.0),
                                               np.ones(2), np.full(2, 2.0)),
                             "positive"),
    "moments_m4_below_m2_squared": (lambda: MomentSet(np.full(2, 2.0), np.full(2, 3.0),
                                                      np.ones(2), np.full(2, 2.0)),
                                    "fourth moments"),
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
    "af_oracle_no_draws": (lambda: _oracle_without_draws(signal_oracle_af),
                           "symbol_trials"),
    "df_oracle_no_draws": (lambda: _oracle_without_draws(signal_oracle_df_mac),
                           "symbol_trials"),
    "trace_points_unknown_scheme": (lambda: trace_points("cf", BASE, (4, 8), 1, 0),
                                    "unknown scheme"),
    "lemma1_gap_no_relays": (lambda: lemma1_gap(Cscg(1.0), 0, 1, 0), "n and trials"),
    "lemma1_gap_no_trials": (lambda: lemma1_gap(Cscg(1.0), 4, 0, 0), "n and trials"),
    "scaling_fit_two_points": (lambda: scaling_fit([(4, 1.0), (8, 2.0)]),
                               "at least 3 points"),
    "scaling_fit_repeated_sizes": (lambda: scaling_fit([(4, 1.0), (4, 2.0), (8, 3.0)]),
                                   "distinct network sizes"),
    "scheme_kernels_unknown_scheme": (lambda: rates.scheme_kernels(BASE, moments(BASE),
                                                                   ("cf",)),
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
}


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_rejects(name):
    call, message = LIBRARY_CASES[name]
    with pytest.raises(ConfigurationError, match=message):
        call()


CONFIG = "N=4\np=0.5\ntrials=2\n"

CLI_CASES = {
    "zero_trials": (CONFIG, ["single", "--set", "trials=0"], "trials"),
    "bad_point_mass": (CONFIG, ["single", "--set", "h_dist=point_mass:abc"],
                       "point_mass"),
    "line_without_equals": ("N=4\np=0.5\nbogus\n", ["single"], "key=value"),
    "axis_not_a_number": (CONFIG, ["sweep-n", "--axis", "1,x"], "--axis"),
    "axis_empty": (CONFIG, ["sweep-n", "--axis", ","], "--axis"),
    "oracle_no_draws": (CONFIG, ["oracle", "--draws", "0"], "symbol_trials"),
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
    "sweep_rate_overflows": (CONFIG, ["sweep-n", "--axis", "4,8", "--set", "N0=1e-320"],
                             "not finite"),
    "diagnose_trace_overflows": (CONFIG, ["diagnose", "--axis", "4,8,16",
                                          "--set", "Ps=1e308"], "not finite"),
}


# The overflow cases drive NumPy past its float range on purpose.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
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
