"""Command-line front end.

``_COMMANDS`` lists the commands, each with its help line and the sweep axis
its ``--axis`` sets (``--axis 10,20,40``); ``sweep-snr`` sets
p_c = n_0*10^(dB/10) from its dB values, and ``diagnose`` prints
convergence-gap and log2(N) scaling-fit tables over its network sizes.

Configuration files are line-based ``key=value`` text; ``#`` starts a
comment.  Recognized keys: N, p, M, Ps, Pr, Pc, N0, f, trials, seed, h_dist,
g_dist, schemes.  Exactly one of ``p`` or ``M`` must be given, and ``N`` is
required; everything else defaults to Ps=Pr=Pc=N0=f=1, trials=1000, seed=0,
h_dist=g_dist=cscg:1.0, schemes=af,df,upper.  Distributions are written
``cscg:<variance>`` or ``point_mass:<complex>`` (Python complex literal,
e.g. ``1`` or ``0.6+0.8j``).

All output is CSV and byte-stable: rerunning the same command with the same
inputs reproduces it exactly.  Every command builds its rows as typed values,
and one check runs over all of them before anything is written: every float
field must be finite, except ``Pc_over_N0_db`` and the ``axis_value`` of a
``sweep-snr`` row, which are ``-inf`` exactly when Pc = 0.  Exit codes: 0
success, 2 configuration error (a non-finite result included), 3 runtime
precondition error.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    Cscg,
    ConfigurationError,
    DistributionSpec,
    Neighbors,
    NetworkConfig,
    PointMass,
    Portion,
    PreconditionError,
    UndefinedRatioError,
    _integer,
    _seed,
    derive_seed,
    sample_realization,
)
from .montecarlo import (
    SweepSpec,
    analytic_df_mac_snr,
    signal_oracle_af,
    signal_oracle_df_mac,
    sweep,
    sweep_point,
)
from .asymptotics import _trace_configs, scaling_fit, trace_points
from .rates import SCHEMES, _scheme_errors, af_sinr, scheme_names

CONFIG_KEYS = ("N", "p", "M", "Ps", "Pr", "Pc", "N0", "f", "trials", "seed",
               "h_dist", "g_dist", "schemes")

CSV_HEADER = ("axis,axis_value,N,M,p_effective,Pc_over_N0_db,scheme,"
              "mean_rate_bits,std_error,trials,base_seed")
ORACLE_HEADER = ("scheme,analytic_sinr,empirical_sinr,rel_gap,std_error,"
                 "symbol_draws,seed")
TRACE_HEADER = "scheme,n_relays,mean_rate_bits,mean_abs_gap,trials"
FIT_HEADER = "scheme,slope,intercept,residual_rms,n_points"

# Symbol draws per oracle row unless --draws says otherwise.
ORACLE_DRAWS = 100_000


@dataclass(frozen=True)
class RunParams:
    """Run-level parameters parsed alongside the network configuration."""

    trials: int = 1000
    seed: int = 0
    schemes: tuple = SCHEMES


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
    laws = {"cscg": (float, Cscg, "cscg variance"),
            "point_mass": (complex, PointMass, "point_mass value")}
    if kind not in laws:
        raise ConfigurationError(f"{where}: unknown distribution kind {kind!r}")
    parse, law, what = laws[kind]
    try:
        value = parse(arg)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: bad {what} {arg!r}") from exc
    # A law that rejects its parameter keeps its own message, after the
    # location it came from.
    try:
        return law(value)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


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

    def take(key, conv):
        try:
            return conv(entries[key])
        except ConfigurationError:
            raise
        except ValueError as exc:
            raise ConfigurationError(
                f"{origins[key]}: bad value for {key}: {entries[key]!r}") from exc

    def given(fields):
        """By name, the value of each ``(key, name, conv)`` the config sets:
        what it leaves out keeps the default of the class it is passed to."""
        return {name: take(key, conv) for key, name, conv in fields if key in entries}

    if "N" not in entries:
        raise ConfigurationError("config: missing required key 'N'")
    n = take("N", int)
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

    def law(key):
        return lambda value: parse_distribution(value, origins[key])

    cfg = NetworkConfig(n, conferencing, **given((
        ("Ps", "p_s", float), ("Pr", "p_r", float), ("Pc", "p_c", float),
        ("N0", "n_0", float), ("f", "conf_gain", float),
        ("h_dist", "h_dist", law("h_dist")), ("g_dist", "g_dist", law("g_dist")))))

    def parse_schemes(value):
        try:
            return scheme_names(s.strip() for s in value.split(",") if s.strip())
        except ConfigurationError as exc:
            raise ConfigurationError(f"{origins['schemes']}: {exc}") from exc

    params = RunParams(**given((
        ("trials", "trials", lambda v: _integer(int(v), f"{origins['trials']}: trials")),
        ("seed", "seed", lambda v: _seed(int(v), "seed")),
        ("schemes", "schemes", parse_schemes))))
    return cfg, params


# ---------------------------------------------------------------------------
# Output tables
# ---------------------------------------------------------------------------
# A table is a header line and its rows; a row is a tuple of str, int and
# float values in the header's column order.

def _require_runnable(errors: Sequence[dict], error: type = PreconditionError) -> None:
    """Raise ``error`` naming, in one line sorted by scheme, each scheme that
    failed at any point of ``errors`` (a scheme -> reason map per point, in
    point order) as ``scheme: reason``, with the reason of the first point it
    failed at."""
    # Walked backwards, the first point's reason is the one left.
    failed = {s: msg for point in reversed(errors) for s, msg in point.items()}
    if failed:
        raise error("; ".join(f"{s}: {m}" for s, m in sorted(failed.items())))


def _sweep_tables(axis: str, points: Sequence, base_seed: int) -> list:
    """One row per (point, scheme), ordered by axis value then scheme name.

    Raises :class:`PreconditionError` when a scheme failed its preconditions
    at any point.
    """
    _require_runnable([pt.result.errors for pt in points])
    return [(CSV_HEADER, [
        (axis, pt.axis_value, pt.n_relays, pt.m_conf, pt.p_effective,
         pt.pc_over_n0_db, scheme, st.mean_rate, st.std_error, st.trials, base_seed)
        for pt in points for scheme, st in sorted(pt.result.stats.items())])]


def _oracle_tables(cfg: NetworkConfig, params: RunParams, draws: int) -> list:
    """Closed-form against empirical SINR of the AF chain and of the DF
    second hop, on realization 0 of the run's seed.

    Raises :class:`UndefinedRatioError` before any symbol draw when a
    closed-form SINR is 0, since the relative gap divides by it.
    """
    oracles = {"af": (af_sinr, signal_oracle_af),
               "df": (analytic_df_mac_snr, signal_oracle_df_mac)}
    schemes = [s for s in params.schemes if s in oracles]
    if not schemes:
        raise ConfigurationError("oracle needs 'af' or 'df' among the schemes")
    _require_runnable([_scheme_errors(cfg, schemes)])
    real = sample_realization(cfg, derive_seed(params.seed, 0))
    closed = {s: oracles[s][0](real, cfg) for s in schemes}
    _require_runnable([{s: "the closed-form SINR is 0, so the relative gap is undefined"
                        for s, ana in closed.items() if ana == 0}], UndefinedRatioError)
    symbol_seed = derive_seed(params.seed, 1)
    rows = []
    for scheme, ana in closed.items():
        emp = oracles[scheme][1](real, cfg, draws, symbol_seed)
        rows.append((scheme, ana, emp.sinr, abs(emp.sinr - ana) / ana, emp.std_error,
                     emp.draws, params.seed))
    return [(ORACLE_HEADER, rows)]


def _diagnose_tables(cfg: NetworkConfig, params: RunParams, axis: tuple) -> list:
    """Per-size trace rows of every scheme, then one log2(N) fit per scheme."""
    if len(axis) < 3:
        raise ConfigurationError("diagnose needs at least 3 network sizes")
    # Every size's config is built once, and its preconditions checked
    # before any trial is drawn.
    configs = {c.n_relays: c for c in _trace_configs(cfg, axis)}
    _require_runnable([_scheme_errors(c, params.schemes) for c in configs.values()])
    traces = {s: trace_points(s, configs.__getitem__, axis, params.trials, params.seed)
              for s in params.schemes}
    fits = {s: scaling_fit([(tp.n_relays, tp.mean_rate) for tp in pts])
            for s, pts in traces.items()}
    return [(TRACE_HEADER, [(s, tp.n_relays, tp.mean_rate, tp.mean_abs_gap,
                             params.trials)
                            for s, pts in traces.items() for tp in pts]),
            (FIT_HEADER, [(s, fit.slope, fit.intercept, fit.residual_rms,
                           len(fit.points)) for s, fit in fits.items()])]


# Columns that name a row in an error message.
_KEY_COLUMNS = ("axis", "axis_value", "scheme", "n_relays")


def _require_finite(tables: list) -> None:
    """The one output rule: every float field is finite, except the dB
    values of Pc / N0, ``Pc_over_N0_db`` and ``axis_value``, which are
    ``-inf`` exactly when Pc = 0 (only a ``conf_snr_db`` row's axis value
    is in dB; other axes are counts or validated portions).

    A row that breaks it comes from a configuration that drove the arithmetic
    out of floating-point range; the error names the row by its key fields
    and each bad field by its column.
    """
    for header, rows in tables:
        columns = header.split(",")
        for row in rows:
            bad = [f"{name}={value}" for name, value in zip(columns, row)
                   if isinstance(value, float) and not math.isfinite(value)
                   and not (name in ("Pc_over_N0_db", "axis_value")
                            and value == -math.inf)]
            if bad:
                key = ", ".join(f"{name}={value}" for name, value in zip(columns, row)
                                if name in _KEY_COLUMNS)
                raise ConfigurationError(
                    f"{key}: not finite ({', '.join(bad)}); the configuration "
                    f"takes the results out of floating-point range")


def emit_csv(tables: list, sink) -> None:
    """Write each table as its header and one line per row, with a blank line
    between tables.  Floats are printed as ``%.12e`` (13 significant digits,
    byte-stable); ints and text as ``str``."""
    for i, (header, rows) in enumerate(tables):
        sink.write(("\n" if i else "") + header + "\n")
        for row in rows:
            sink.write(",".join([f"{v:.12e}" if isinstance(v, float) else str(v)
                                 for v in row]) + "\n")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# Each command's help line, and the sweep axis its --axis sets (None for a
# command without --axis); an axis of network sizes is read as integers.
_COMMANDS = {
    "single": ("one Monte Carlo point", None),
    "sweep-n": ("sweep the number of relays", "n_relays"),
    "sweep-p": ("sweep the conferencing portion", "portion"),
    "sweep-snr": ("sweep the conferencing link SNR (dB)", "conf_snr_db"),
    "oracle": ("signal-level SINR check against the closed forms", None),
    "diagnose": ("convergence and scaling diagnostics", "n_relays"),
}


def dispatch(args: argparse.Namespace) -> int:
    """Execute one command line as :func:`_parser` parses it; returns the
    process exit code.  The flags are checked before the config is read."""
    try:
        _integer(args.workers, "--workers")
        draws = _integer(args.draws, "--draws")
        if args.command not in _COMMANDS:
            raise ConfigurationError(f"unknown command {args.command!r}")
        sweep_axis = _COMMANDS[args.command][1]
        axis = (None if args.axis is None else
                _parse_axis(args.axis, integral=sweep_axis == "n_relays"))
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config: {exc}") from exc
        cfg, params = parse_config(text, args.overrides)
        if args.command == "single":
            point = sweep_point(cfg, 0.0, params.trials, params.seed, params.schemes)
            tables = _sweep_tables("single", (point,), params.seed)
        elif args.command == "oracle":
            tables = _oracle_tables(cfg, params, draws)
        elif args.command == "diagnose":
            tables = _diagnose_tables(cfg, params, axis)
        else:
            result = sweep(SweepSpec(
                base=cfg, axis=sweep_axis, values=axis, trials=params.trials,
                base_seed=params.seed, schemes=params.schemes))
            tables = _sweep_tables(result.axis, result.points, result.base_seed)
        _require_finite(tables)
        # Written in full before --out is opened: a failed run leaves it alone.
        sink = io.StringIO()
        emit_csv(tables, sink)
        if args.out is None:
            sys.stdout.write(sink.getvalue())
            return 0
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
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
    for name, (doc, sweep_axis) in _COMMANDS.items():
        sp = sub.add_parser(name, help=doc)
        sp.set_defaults(axis=None, draws=ORACLE_DRAWS)
        sp.add_argument("--config", required=True, help="configuration file")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
        sp.add_argument("--workers", type=int, default=1,
                        help="a positive integer, accepted for compatibility and "
                             "ignored; rows of at least 800 normals are drawn in "
                             "slabs by a pool of at most one thread per other "
                             "usable CPU and by the waiting caller, each thread "
                             "with its own generator, and output is bit-identical "
                             "on any number of CPUs and at any value")
        if sweep_axis is not None:
            sp.add_argument("--axis", required=True,
                            help="comma-separated axis values")
        if name == "oracle":
            sp.add_argument("--draws", type=int, help="symbol draws for the oracle")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # A configuration that drives the arithmetic out of floating-point
    # range is reported once, by _require_finite, without NumPy's warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
