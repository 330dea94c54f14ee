"""Command-line front end.

Commands
--------
single     one Monte Carlo point at the configured parameters
sweep-n    sweep the number of relays (``--axis 10,20,40``)
sweep-p    sweep the conferencing portion
sweep-snr  sweep the conferencing link SNR in dB (sets p_c = n_0*10^(dB/10))
oracle     signal-level SINR simulation vs. the closed forms
diagnose   convergence-gap and log2(N) scaling-fit tables

Configuration files are line-based ``key=value`` text; ``#`` starts a
comment.  Recognized keys: N, p, M, Ps, Pr, Pc, N0, f, trials, seed, h_dist,
g_dist, schemes.  Exactly one of ``p`` or ``M`` must be given, and ``N`` is
required; everything else defaults to Ps=Pr=Pc=N0=f=1, trials=1000, seed=0,
h_dist=g_dist=cscg:1.0, schemes=af,df,upper.  Distributions are written
``cscg:<variance>`` or ``point_mass:<complex>`` (Python complex literal,
e.g. ``1`` or ``0.6+0.8j``).

All output is CSV and byte-stable: rerunning the same command with the same
inputs reproduces it exactly.  Exit codes: 0 success, 2 configuration error,
3 runtime precondition error.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import (
    MASK64,
    Cscg,
    ConfigurationError,
    DistributionSpec,
    Neighbors,
    NetworkConfig,
    PointMass,
    Portion,
    PreconditionError,
    moments,
    sample_realization,
)
from .montecarlo import (
    SCHEMES,
    SweepResult,
    SweepSpec,
    analytic_af_sinr,
    analytic_df_mac_snr,
    derive_seed,
    signal_oracle_af,
    signal_oracle_df_mac,
    sweep,
    sweep_point,
)
from .asymptotics import scaling_fit, trace_points

CONFIG_KEYS = ("N", "p", "M", "Ps", "Pr", "Pc", "N0", "f", "trials", "seed",
               "h_dist", "g_dist", "schemes")

CSV_HEADER = ("axis,axis_value,N,M,p_effective,Pc_over_N0_db,scheme,"
              "mean_rate_bits,std_error,trials,base_seed")
ORACLE_HEADER = ("scheme,analytic_sinr,empirical_sinr,rel_gap,std_error,"
                 "symbol_draws,seed")
TRACE_HEADER = "scheme,n_relays,mean_rate_bits,mean_abs_gap,trials"
FIT_HEADER = "scheme,slope,intercept,residual_rms,n_points"


@dataclass(frozen=True)
class RunParams:
    """Run-level parameters parsed alongside the network configuration."""

    trials: int = 1000
    seed: int = 0
    schemes: tuple = SCHEMES


@dataclass(frozen=True)
class RunManifest:
    """One fully parsed invocation."""

    command: str
    config_path: str
    overrides: tuple = ()
    output_path: Optional[str] = None
    axis: Optional[tuple] = None
    draws: int = 100_000


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

def parse_distribution(text: str, where: str) -> DistributionSpec:
    kind, sep, arg = text.partition(":")
    kind = kind.strip()
    arg = arg.strip()
    if not sep or not arg:
        raise ConfigurationError(
            f"{where}: distribution must be 'cscg:<variance>' or "
            f"'point_mass:<complex>', got {text!r}")
    if kind == "cscg":
        try:
            return Cscg(float(arg))
        except ValueError as exc:
            raise ConfigurationError(f"{where}: bad cscg variance {arg!r}") from exc
    if kind == "point_mass":
        try:
            return PointMass(complex(arg))
        except ValueError as exc:
            raise ConfigurationError(f"{where}: bad point_mass value {arg!r}") from exc
    raise ConfigurationError(f"{where}: unknown distribution kind {kind!r}")


def _parse_entry(raw: str, where: str, entries: dict, origins: dict,
                 allow_replace: bool):
    line = raw.split("#", 1)[0].strip()
    if not line:
        return
    key, sep, value = line.partition("=")
    key = key.strip()
    value = value.strip()
    if not sep or not key or not value:
        raise ConfigurationError(f"{where}: expected key=value, got {raw.strip()!r}")
    if key not in CONFIG_KEYS:
        raise ConfigurationError(f"{where}: unknown key {key!r}")
    if key in entries and not allow_replace:
        raise ConfigurationError(
            f"{where}: duplicate key {key!r} (first set at {origins[key]})")
    entries[key] = value
    origins[key] = where


def parse_config(text: str, overrides: Sequence[str] = ()) -> tuple[NetworkConfig, RunParams]:
    """Parse a configuration file body plus key=value override strings."""
    entries: dict = {}
    origins: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        _parse_entry(raw, f"line {ln}", entries, origins, allow_replace=False)
    for pos, raw in enumerate(overrides, start=1):
        _parse_entry(raw, f"override {pos} ({raw})", entries, origins,
                     allow_replace=True)

    def take(key, conv, default=None):
        if key not in entries:
            return default
        where = origins[key]
        try:
            return conv(entries[key])
        except ConfigurationError:
            raise
        except ValueError as exc:
            raise ConfigurationError(
                f"{where}: bad value for {key}: {entries[key]!r}") from exc

    n = take("N", int)
    if n is None:
        raise ConfigurationError("config: missing required key 'N'")
    if "p" in entries and "M" in entries:
        raise ConfigurationError(
            f"{origins['M']}: both p and M specified; exactly one is allowed")
    if "p" in entries:
        conferencing = Portion(take("p", float))
    elif "M" in entries:
        conferencing = Neighbors(take("M", int))
    else:
        raise ConfigurationError(
            "config: exactly one of p or M must specify the conferencing size")

    cfg = NetworkConfig(
        n_relays=n,
        conferencing=conferencing,
        p_s=take("Ps", float, 1.0),
        p_r=take("Pr", float, 1.0),
        p_c=take("Pc", float, 1.0),
        n_0=take("N0", float, 1.0),
        conf_gain=take("f", float, 1.0),
        h_dist=take("h_dist", lambda v: parse_distribution(v, origins["h_dist"]),
                    Cscg(1.0)),
        g_dist=take("g_dist", lambda v: parse_distribution(v, origins["g_dist"]),
                    Cscg(1.0)),
    )

    def parse_schemes(value):
        names = tuple(sorted({s.strip() for s in value.split(",") if s.strip()}))
        unknown = [s for s in names if s not in SCHEMES]
        if unknown or not names:
            raise ConfigurationError(
                f"{origins['schemes']}: schemes must be a nonempty subset of "
                f"{','.join(SCHEMES)}")
        return names

    trials = take("trials", int, 1000)
    if trials < 1:
        raise ConfigurationError(f"{origins.get('trials', 'config')}: trials must be >= 1")
    params = RunParams(
        trials=trials,
        seed=take("seed", int, 0) & MASK64,
        schemes=take("schemes", parse_schemes, SCHEMES),
    )
    return cfg, params


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    """Fixed 13-significant-digit scientific form, byte-stable."""
    return f"{float(x):.12e}"


def emit_csv(result: SweepResult, sink) -> None:
    """Serialize a sweep (or single-point) result.

    One row per (point, scheme), ordered by axis value then scheme name;
    schemes that failed their preconditions have no rows.
    """
    sink.write(CSV_HEADER + "\n")
    for pt in result.points:
        for scheme in sorted(pt.result.stats):
            st = pt.result.stats[scheme]
            sink.write(",".join((
                result.axis,
                _fmt(pt.axis_value),
                str(pt.n_relays),
                str(pt.m_conf),
                _fmt(pt.p_effective),
                _fmt(pt.pc_over_n0_db),
                scheme,
                _fmt(st.mean_rate),
                _fmt(st.std_error),
                str(st.trials),
                str(result.base_seed),
            )) + "\n")


def _single_result(cfg: NetworkConfig, params: RunParams) -> SweepResult:
    """Wrap one run_point as a one-entry sweep for uniform CSV emission."""
    point = sweep_point(cfg, 0.0, params.trials, params.seed, params.schemes)
    return SweepResult(axis="single", points=(point,), trials=params.trials,
                       base_seed=params.seed)


def _emit_oracle(cfg: NetworkConfig, params: RunParams, draws: int, sink) -> None:
    mom = moments(cfg)
    real = sample_realization(cfg, derive_seed(params.seed, 0))
    symbol_seed = derive_seed(params.seed, 1)
    rows = []
    if "af" in params.schemes:
        ana = analytic_af_sinr(real, cfg, mom)
        emp = signal_oracle_af(real, cfg, mom, draws, symbol_seed)
        rows.append(("af", ana, emp))
    if "df" in params.schemes:
        ana = analytic_df_mac_snr(real, cfg, mom)
        emp = signal_oracle_df_mac(real, cfg, mom, draws, symbol_seed)
        rows.append(("df", ana, emp))
    if not rows:
        raise ConfigurationError("oracle needs 'af' or 'df' among the schemes")
    sink.write(ORACLE_HEADER + "\n")
    for scheme, ana, emp in rows:
        gap = abs(emp.sinr - ana) / ana if ana > 0 else math.nan
        sink.write(",".join((
            scheme, _fmt(ana), _fmt(emp.sinr), _fmt(gap), _fmt(emp.std_error),
            str(emp.draws), str(params.seed),
        )) + "\n")


def _emit_diagnose(cfg: NetworkConfig, params: RunParams, axis: tuple,
                   sink) -> None:
    ns = [int(v) for v in axis]
    if any(float(v) != int(v) for v in axis):
        raise ConfigurationError("diagnose axis values must be integers")
    if len(ns) < 3:
        raise ConfigurationError("diagnose needs at least 3 network sizes")
    traces = {s: trace_points(s, cfg, ns, params.trials, params.seed)
              for s in params.schemes}
    sink.write(TRACE_HEADER + "\n")
    for scheme in params.schemes:
        for tp in traces[scheme]:
            sink.write(",".join((
                scheme, str(tp.n_relays), _fmt(tp.mean_rate),
                _fmt(tp.mean_abs_gap), str(params.trials),
            )) + "\n")
    sink.write("\n" + FIT_HEADER + "\n")
    for scheme in params.schemes:
        fit = scaling_fit([(tp.n_relays, tp.mean_rate) for tp in traces[scheme]])
        sink.write(",".join((
            scheme, _fmt(fit.slope), _fmt(fit.intercept),
            _fmt(fit.residual_rms), str(len(fit.points)),
        )) + "\n")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_SWEEP_AXES = {"sweep-n": "n_relays", "sweep-p": "portion",
               "sweep-snr": "conf_snr_db"}


def _fail_on_scheme_errors(result: SweepResult):
    for pt in result.points:
        if pt.result.errors:
            detail = "; ".join(f"{s}: {msg}" for s, msg in
                               sorted(pt.result.errors.items()))
            raise PreconditionError(detail)


def dispatch(manifest: RunManifest) -> int:
    """Execute one manifest; returns the process exit code."""
    try:
        try:
            with open(manifest.config_path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config: {exc}") from exc
        cfg, params = parse_config(text, manifest.overrides)
        # Built in full before --out is opened: a failed run leaves it alone.
        sink = io.StringIO()
        if manifest.command == "single":
            result = _single_result(cfg, params)
            _fail_on_scheme_errors(result)
            emit_csv(result, sink)
        elif manifest.command in _SWEEP_AXES:
            if not manifest.axis:
                raise ConfigurationError("sweep commands need --axis")
            spec = SweepSpec(base=cfg, axis=_SWEEP_AXES[manifest.command],
                             values=manifest.axis, trials=params.trials,
                             base_seed=params.seed, schemes=params.schemes)
            result = sweep(spec)
            _fail_on_scheme_errors(result)
            emit_csv(result, sink)
        elif manifest.command == "oracle":
            _emit_oracle(cfg, params, manifest.draws, sink)
        elif manifest.command == "diagnose":
            if not manifest.axis:
                raise ConfigurationError("diagnose needs --axis")
            _emit_diagnose(cfg, params, manifest.axis, sink)
        else:
            raise ConfigurationError(f"unknown command {manifest.command!r}")
        if manifest.output_path is None:
            sys.stdout.write(sink.getvalue())
            return 0
        try:
            with open(manifest.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(sink.getvalue())
        except OSError as exc:
            raise ConfigurationError(f"cannot write output: {exc}") from exc
        return 0
    except ConfigurationError as exc:
        print(f"confrelay: configuration error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"confrelay: precondition error: {exc}", file=sys.stderr)
        return 3


def _parse_axis(text: str, integral: bool) -> tuple:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            v = int(part) if integral else float(part)
        except ValueError as exc:
            raise ConfigurationError(f"--axis: bad value {part!r}") from exc
        values.append(float(v))
    if not values:
        raise ConfigurationError("--axis: no values given")
    return tuple(values)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call
    of :func:`main` (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="confrelay",
        description="Rate simulator for two-hop relay networks with "
                    "inter-relay conferencing links.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("single", "one Monte Carlo point"),
        ("sweep-n", "sweep the number of relays"),
        ("sweep-p", "sweep the conferencing portion"),
        ("sweep-snr", "sweep the conferencing link SNR (dB)"),
        ("oracle", "signal-level SINR check against the closed forms"),
        ("diagnose", "convergence and scaling diagnostics"),
    ):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", required=True, help="configuration file")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
        sp.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility and ignored; trials "
                             "run in one thread")
        if name in _SWEEP_AXES or name == "diagnose":
            sp.add_argument("--axis", required=True,
                            help="comma-separated axis values")
        if name == "oracle":
            sp.add_argument("--draws", type=int, default=100_000,
                            help="symbol draws for the oracle")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        axis = None
        if getattr(args, "axis", None) is not None:
            integral = args.command in ("sweep-n", "diagnose")
            axis = _parse_axis(args.axis, integral)
    except ConfigurationError as exc:
        print(f"confrelay: configuration error: {exc}", file=sys.stderr)
        return 2
    manifest = RunManifest(
        command=args.command,
        config_path=args.config,
        overrides=tuple(args.overrides),
        output_path=args.out,
        axis=axis,
        draws=getattr(args, "draws", 100_000),
    )
    return dispatch(manifest)


if __name__ == "__main__":
    sys.exit(main())
