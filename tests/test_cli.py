import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confrelay
from confrelay import Cscg, ConfigurationError, Neighbors, NetworkConfig, PointMass, Portion
from confrelay.cli import (
    CSV_HEADER,
    RunParams,
    _parser,
    dispatch,
    main,
    parse_config,
    parse_distribution,
)

FIXTURE_CFG = "N=2\nM=1\nh_dist=point_mass:1\ng_dist=point_mass:1\ntrials=3\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseConfig:
    def test_figure_style_parameters(self):
        cfg, params = parse_config("N=100\np=0.1\ntrials=1000\n")
        assert cfg.m_conf == 9
        assert cfg.p_s == cfg.p_r == cfg.p_c == cfg.n_0 == cfg.conf_gain == 1.0
        assert cfg.h_dist == Cscg(1.0) and cfg.g_dist == Cscg(1.0)
        assert params.schemes == ("af", "df", "upper")
        # Every default is the library's: NetworkConfig's fields and RunParams().
        want = NetworkConfig(100, Portion(0.1))
        assert ({f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
                == {f.name: getattr(want, f.name) for f in dataclasses.fields(want)})
        assert params == RunParams(trials=1000)

    def test_empty_file_requires_n(self):
        with pytest.raises(ConfigurationError, match="N"):
            parse_config("")

    def test_portion_and_neighbors_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="both p and M"):
            parse_config("N=10\np=0.5\nM=3\n")

    def test_one_topology_key_required(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            parse_config("N=10\n")

    def test_neighbors_key(self):
        cfg, _ = parse_config("N=10\nM=3\n")
        assert cfg.conferencing == Neighbors(3)

    def test_comments_and_blank_lines(self):
        cfg, _ = parse_config("# fixture\nN=4   # relays\n\np=0.5\n")
        assert cfg.n_relays == 4

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 3: duplicate key 'N'"):
            parse_config("N=4\np=0.5\nN=5\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 2: unknown key 'power'"):
            parse_config("N=4\npower=3\n")

    def test_malformed_value_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 2: bad value for Ps"):
            parse_config("N=4\nPs=lots\np=1\n")

    def test_distributions(self):
        cfg, _ = parse_config(
            "N=2\nM=0\nh_dist=point_mass:0.6+0.8j\ng_dist=cscg:2.5\n")
        assert cfg.h_dist == PointMass(0.6 + 0.8j)
        assert cfg.g_dist == Cscg(2.5)

    def test_bad_distribution(self):
        with pytest.raises(ConfigurationError):
            parse_distribution("rayleigh:1.0", "line 1")
        with pytest.raises(ConfigurationError):
            parse_distribution("cscg", "line 1")

    def test_schemes_subset(self):
        _, params = parse_config("N=2\nM=0\nschemes=upper,af\n")
        assert params.schemes == ("af", "upper")
        with pytest.raises(ConfigurationError):
            parse_config("N=2\nM=0\nschemes=upper,cf\n")

    def test_overrides_replace_file_values(self):
        cfg, params = parse_config("N=4\np=0.5\ntrials=7\n",
                                   overrides=("trials=9", "Pc=2.0"))
        assert params.trials == 9
        assert cfg.p_c == 2.0

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="override 1"):
            parse_config("N=4\np=0.5\n", overrides=("bogus=1",))

    def test_override_conflicting_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="both p and M"):
            parse_config("N=4\np=0.5\n", overrides=("M=1",))


class TestCsvOutput:
    def test_single_point_upper_only(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg",
                    "N=2\nM=1\nh_dist=point_mass:1\ng_dist=point_mass:1\n"
                    "trials=5\nschemes=upper\n")
        assert main(["single", "--config", cfg]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "single"
        assert fields[6] == "upper"
        assert float(fields[7]) == pytest.approx(0.5 * math.log2(3), rel=1e-12)
        assert float(fields[8]) == 0.0

    def test_sweep_row_count(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "N=4\np=0.5\ntrials=4\n")
        assert main(["sweep-n", "--config", cfg, "--axis", "4,6,8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 3 * 3
        schemes = [ln.split(",")[6] for ln in lines[1:]]
        assert schemes == ["af", "df", "upper"] * 3

    def test_rows_ordered_by_axis_then_scheme(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "N=100\np=0.1\ntrials=2\nschemes=df,af\n")
        assert main(["sweep-snr", "--config", cfg, "--axis=-5,0,5"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        keys = [(float(ln.split(",")[1]), ln.split(",")[6]) for ln in lines]
        assert keys == sorted(keys)

    def test_byte_identical_replay(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "N=6\np=0.5\ntrials=16\nseed=9\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["sweep-n", "--config", cfg, "--axis", "4,8",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "N=6\np=0.5\ntrials=32\nseed=9\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep-n", "--config", cfg, "--axis", "4,8",
                     "--out", str(out1), "--workers", "1"]) == 0
        assert main(["sweep-n", "--config", cfg, "--axis", "4,8",
                     "--out", str(out2), "--workers", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_repeated_calls_see_only_their_own_overrides(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", FIXTURE_CFG)
        assert main(["single", "--config", cfg, "--set", "trials=7"]) == 0
        first = capsys.readouterr().out.splitlines()[1].split(",")
        assert main(["single", "--config", cfg, "--set", "seed=5"]) == 0
        second = capsys.readouterr().out.splitlines()[1].split(",")
        assert (first[9], first[10]) == ("7", "0")
        assert (second[9], second[10]) == ("3", "5")

    def test_sweep_points_keep_bound_on_top(self, tmp_path, capsys):
        # Achievable schemes never beat the bound at any sweep point.
        cfg = write(tmp_path, "c.cfg", "N=10\np=0.2\ntrials=50\n")
        assert main(["sweep-n", "--config", cfg,
                     "--axis", "10,20,40,80,160,320"]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        by_point = {}
        for r in rows:
            by_point.setdefault(r[1], {})[r[6]] = float(r[7])
        assert len(by_point) == 6
        for schemes in by_point.values():
            assert schemes["upper"] >= schemes["af"]
            assert schemes["upper"] >= schemes["df"]

    def test_zero_conferencing_power_formats(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "N=4\nM=0\nPc=0\nschemes=upper\ntrials=2\n")
        assert main(["single", "--config", cfg]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[5] == "-inf"

    @pytest.mark.parametrize("text", ["N=4\nM=0\ntrials=2\n",
                                      "N=4\np=0.5\nschemes=upper\ntrials=2\n"],
                             ids=["no_conferencing", "bound_only"])
    def test_snr_sweep_at_minus_inf_db(self, tmp_path, capsys, text):
        # -inf dB sets Pc = 0, which none of these schemes needs: both dB
        # columns read -inf on those rows, and the run succeeds.
        cfg = write(tmp_path, "c.cfg", text)
        assert main(["sweep-snr", "--config", cfg, "--axis=-inf,0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [ln.split(",") for ln in captured.out.splitlines()[1:]]
        assert [(r[1], r[5]) for r in rows] == (
            [("-inf", "-inf")] * (len(rows) // 2)
            + [("0.000000000000e+00", "0.000000000000e+00")] * (len(rows) // 2))

    def test_significant_digits(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", FIXTURE_CFG)
        assert main(["single", "--config", cfg]) == 0
        for line in capsys.readouterr().out.splitlines()[1:]:
            mean_field = line.split(",")[7]
            mantissa = mean_field.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) >= 9


class TestOracleCommand:
    def test_fixture_gap_small(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", FIXTURE_CFG)
        assert main(["oracle", "--config", cfg, "--draws", "100000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("scheme,analytic_sinr")
        by_scheme = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert set(by_scheme) == {"af", "df"}
        assert float(by_scheme["af"][1]) == pytest.approx(0.8, rel=1e-12)
        assert float(by_scheme["af"][3]) <= 0.02
        assert float(by_scheme["df"][1]) == pytest.approx(4.0, rel=1e-12)
        assert float(by_scheme["df"][3]) <= 0.02

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "N=3\np=1.0\nseed=4\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["oracle", "--config", cfg, "--draws", "5000",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestDiagnoseCommand:
    def test_tables_present(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "N=8\np=0.5\ntrials=8\nschemes=upper,af\n")
        assert main(["diagnose", "--config", cfg, "--axis", "8,16,32"]) == 0
        out = capsys.readouterr().out
        blocks = out.split("\n\n")
        assert len(blocks) == 2
        trace_lines = blocks[0].splitlines()
        fit_lines = blocks[1].splitlines()
        assert trace_lines[0] == "scheme,n_relays,mean_rate_bits,mean_abs_gap,trials"
        assert len(trace_lines) == 1 + 2 * 3
        assert fit_lines[0] == "scheme,slope,intercept,residual_rms,n_points"
        assert len(fit_lines) == 1 + 2

    def test_needs_enough_sizes(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "N=8\np=0.5\ntrials=4\n")
        assert main(["diagnose", "--config", cfg, "--axis", "8,16"]) == 2


class TestExitCodes:
    def test_unknown_command_exits_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_config_file(self):
        assert main(["single", "--config", "/nonexistent/path.cfg"]) == 2

    def test_config_error(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "N=4\np=0.5\nM=2\n")
        assert main(["single", "--config", cfg]) == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_config_error(self, tmp_path, capsys, workers):
        cfg = write(tmp_path, "c.cfg", "N=4\np=0.5\ntrials=3\n")
        out = tmp_path / "out.csv"
        assert main(["single", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"configuration error: --workers must be a positive integer, got {workers}" \
            in captured.err

    @pytest.mark.parametrize("override", ["Ps=nan", "Pc=inf", "f=inf",
                                          "h_dist=cscg:inf"])
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, override):
        cfg = write(tmp_path, "c.cfg", "N=4\np=0.5\ntrials=3\n")
        assert main(["single", "--config", cfg, "--set", override]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err

    def test_precondition_error(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "N=4\np=0.5\nPc=0\n")
        assert main(["single", "--config", cfg]) == 3

    def test_failed_run_leaves_existing_output(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "N=4\np=0.5\nPc=0\n")
        out = tmp_path / "existing.csv"
        out.write_text("earlier output\n")
        assert main(["single", "--config", cfg, "--out", str(out)]) == 3
        assert out.read_text() == "earlier output\n"

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", FIXTURE_CFG)
        out = tmp_path / "missing_dir" / "x.csv"
        assert main(["single", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write output" in captured.err

    def test_dispatch_parsed_args_directly(self, tmp_path):
        path = write(tmp_path, "c.cfg", FIXTURE_CFG)
        out = tmp_path / "out.csv"
        args = _parser().parse_args(["single", "--config", path, "--out", str(out)])
        assert dispatch(args) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER


class TestModuleEntryPoint:
    """``python -m confrelay`` and ``python -m confrelay.cli`` run
    ``cli.main`` and exit with its code."""

    @staticmethod
    def _run_module(module, args):
        env = dict(os.environ)
        src = str(Path(confrelay.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", module, *args],
                              capture_output=True, env=env, timeout=120)

    @pytest.mark.parametrize("module", ["confrelay", "confrelay.cli"])
    @pytest.mark.parametrize("text,code", [(FIXTURE_CFG, 0), ("N=4\np=0.5\nM=2\n", 2)],
                             ids=["fixture", "bad_config"])
    def test_matches_main(self, tmp_path, capfd, module, text, code):
        cfg = write(tmp_path, "c.cfg", text)
        assert main(["single", "--config", cfg]) == code
        want = capfd.readouterr()
        got = self._run_module(module, ["single", "--config", cfg])
        assert got.returncode == code
        assert got.stdout == want.out.encode()
        assert got.stderr == want.err.encode()
        if code == 0:
            assert got.stdout.startswith(CSV_HEADER.encode())
        else:
            assert b"configuration error" in got.stderr
