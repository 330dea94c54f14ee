"""The benchmark's workloads: inputs from a seed, one timed pass, and checks.

A *pass* is one execution of a workload's fixed list of unit calls; a run
repeats passes for its measuring time.  Pass ``k`` of a run with seed ``s``
draws every input from ``pass_seed(name, s, k)``, so the same seed gives the
same inputs, and the traced phase replays the untraced phase's passes.

Unit calls (the latency unit) are one ``run_point`` point on
``sweep_small_n`` and ``hetero_point``, and one ``trace_points`` call (one
scheme over every size) on ``diagnose_large_n``.  Each workload serializes a
pass's output as CSV text: the CLI workloads use the program's own CSV
bytes, the API workload prints every float with ``repr`` so that the text
carries all its digits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from confrelay import asymptotics, cli, model, montecarlo

SCHEMES = ("af", "df", "upper")
REFERENCE_SEED = 0
REL_TOL = 1e-12


def pass_seed(name: str, seed: int, k: int) -> int:
    """63-bit seed of pass ``k``, independent of the library's own mixer."""
    digest = hashlib.sha256(f"{name}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _tokens(text: str):
    return [line.split(",") for line in text.split("\n")]


def _value(tok: str):
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def compare_text(want: str, got: str) -> list[str]:
    """Field-wise comparison of two CSV texts.

    Integer fields and text fields must match exactly; float fields within a
    relative tolerance of 1e-12, so a last-ulp change passes and a wrong
    formula fails.
    """
    a, b = _tokens(want), _tokens(got)
    if len(a) != len(b):
        return [f"line count {len(b)} != reference {len(a)}"]
    diffs = []
    for ln, (ra, rb) in enumerate(zip(a, b), start=1):
        if len(ra) != len(rb):
            diffs.append(f"line {ln}: field count differs")
            continue
        for ta, tb in zip(ra, rb):
            va, vb = _value(ta), _value(tb)
            if isinstance(va, float) and isinstance(vb, float):
                ok = math.isclose(va, vb, rel_tol=REL_TOL, abs_tol=0.0)
            else:
                ok = type(va) is type(vb) and va == vb
            if not ok:
                diffs.append(f"line {ln}: {tb!r} != reference {ta!r}")
    return diffs


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class Workload:
    """Common interface; see the module docstring for the terms."""

    name = ""
    units_per_pass = 0
    # (module, attribute) of the functions whose calls are the unit calls.
    unit_functions: tuple = ()

    def describe(self) -> dict:
        return {"workload": self.name, **asdict(self)}

    def config_digest(self) -> str:
        text = repr(sorted(self.describe().items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def prepare(self, workdir: str) -> None:
        """Write whatever files the passes read."""

    def cleanup(self) -> None:
        """Remove what ``prepare`` wrote."""

    def inputs(self, seed: int, k: int):
        raise NotImplementedError

    def execute(self, inp):
        """The timed pass; returns its output."""
        raise NotImplementedError

    def serialize(self, out) -> str:
        raise NotImplementedError

    def check(self, inp, out) -> tuple[int, list[str]]:
        """Number of failed unit calls in the pass, and why."""
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        """Config parse or construction, moments, and one warm-up unit call."""
        raise NotImplementedError

    def counts(self) -> dict:
        """Work done per pass: channel realizations and AF points."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# CLI-driven workloads
# ---------------------------------------------------------------------------

@dataclass
class _CliWorkload(Workload):
    axis: tuple
    trials: int
    p: float = 0.2

    command = ""

    def __post_init__(self):
        self.config_path = None

    def config_text(self) -> str:
        return (f"N={self.axis[0]}\np={self.p}\nPs=1\nPr=1\nPc=1\nN0=1\nf=1\n"
                f"h_dist=cscg:1\ng_dist=cscg:1\ntrials={self.trials}\n"
                "schemes=af,df,upper\n")

    def prepare(self, workdir):
        self.config_path = os.path.join(workdir, f"{self.name}-{os.getpid()}.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.config_text())

    def cleanup(self):
        os.remove(self.config_path)

    def inputs(self, seed, k):
        s = pass_seed(self.name, seed, k)
        argv = [self.command, "--config", self.config_path,
                "--axis", ",".join(str(n) for n in self.axis),
                "--set", f"seed={s}"]
        return {"seed": s, "argv": argv}

    def execute(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(inp["argv"])
        return code, buf.getvalue()

    def serialize(self, out):
        code, text = out
        return f"exit={code}\n{text}"

    def setup(self, seed):
        cfg, params = cli.parse_config(self.config_text(),
                                       [f"seed={pass_seed(self.name, seed, 0)}"])
        model.moments(cfg)
        self.warm_up(cfg, params)

    def counts(self):
        return {"realizations": len(self.axis) * self.trials,
                "af_points": len(self.axis)}


@dataclass
class SweepSmallN(_CliWorkload):
    """``confrelay sweep-n`` in-process; the unit call is one point."""

    name = "sweep_small_n"
    command = "sweep-n"
    unit_functions = (("montecarlo", "run_point"),)

    def __post_init__(self):
        super().__post_init__()
        self.units_per_pass = len(self.axis)

    def warm_up(self, cfg, params):
        montecarlo.run_point(cfg, params.trials, params.seed, params.schemes)

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return self.units_per_pass, [f"exit code {code}"]
        lines = text.rstrip("\n").split("\n")
        if lines[0] != cli.CSV_HEADER:
            return self.units_per_pass, ["unexpected CSV header"]
        rows = {}
        for line in lines[1:]:
            f = line.split(",")
            n = int(f[2])
            rows.setdefault(n, {})[f[6]] = f
        bad, why = 0, []
        for n in self.axis:
            point = rows.get(n, {})
            ok = sorted(point) == list(SCHEMES)
            if ok:
                mean = {s: float(point[s][7]) for s in SCHEMES}
                se = [float(point[s][8]) for s in SCHEMES]
                ok = (_finite(*mean.values(), *se)
                      and mean["df"] <= mean["upper"]
                      and mean["af"] <= mean["upper"]
                      and all(int(point[s][9]) == self.trials for s in SCHEMES)
                      and all(int(point[s][10]) == inp["seed"] for s in SCHEMES))
            if not ok:
                bad += 1
                why.append(f"point N={n} failed its check")
        return bad, why


@dataclass
class DiagnoseLargeN(_CliWorkload):
    """``confrelay diagnose`` in-process; the unit call is one
    ``trace_points`` call, which covers every size for one scheme."""

    name = "diagnose_large_n"
    command = "diagnose"
    unit_functions = (("asymptotics", "trace_points"),)

    def __post_init__(self):
        super().__post_init__()
        self.units_per_pass = len(SCHEMES)

    def warm_up(self, cfg, params):
        asymptotics.trace_points(params.schemes[0], cfg, self.axis,
                                 params.trials, params.seed)

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return self.units_per_pass, [f"exit code {code}"]
        trace, _, fit = text.partition("\n\n")
        trace_lines = trace.rstrip("\n").split("\n")
        fit_lines = fit.rstrip("\n").split("\n")
        if trace_lines[0] != cli.TRACE_HEADER or fit_lines[0] != cli.FIT_HEADER:
            return self.units_per_pass, ["unexpected CSV headers"]
        means = {}
        bad_schemes = set()
        for line in trace_lines[1:]:
            scheme, n, mean, gap, trials = line.split(",")
            means[(scheme, int(n))] = float(mean)
            if not _finite(float(mean), float(gap)) or int(trials) != self.trials:
                bad_schemes.add(scheme)
        for line in fit_lines[1:]:
            scheme, slope, intercept, rms, npts = line.split(",")
            if (not _finite(float(slope), float(intercept), float(rms))
                    or int(npts) != len(self.axis)):
                bad_schemes.add(scheme)
        for n in self.axis:
            if any((s, n) not in means for s in SCHEMES):
                return self.units_per_pass, [f"size {n} missing"]
            for s in ("af", "df"):
                if not means[(s, n)] <= means[("upper", n)]:
                    bad_schemes.add(s)
        return len(bad_schemes), [f"scheme {s} failed its check"
                                  for s in sorted(bad_schemes)]


# ---------------------------------------------------------------------------
# Python-API workloads
# ---------------------------------------------------------------------------

@dataclass
class HeteroPoint(Workload):
    """``run_point`` at N relays with an (N, M) gain matrix and per-relay
    first-hop variances; the unit call is one point."""

    n: int
    portions: tuple
    trials: int

    name = "hetero_point"
    unit_functions = (("montecarlo", "run_point"),)

    def __post_init__(self):
        self.units_per_pass = len(self.portions)

    def _configs(self, s: int):
        rng = np.random.default_rng(s)
        variances = rng.uniform(0.5, 2.0, self.n)
        h_dist = model.PerIndex(tuple(model.Cscg(float(v)) for v in variances))
        cfgs = []
        for p in self.portions:
            m = model.conferencing_size(p, self.n)
            cfgs.append(model.NetworkConfig(
                n_relays=self.n, conferencing=model.Portion(p),
                conf_gain=rng.uniform(0.5, 1.5, (self.n, m)), h_dist=h_dist))
        return cfgs

    def inputs(self, seed, k):
        s = pass_seed(self.name, seed, k)
        return {"seed": s, "configs": self._configs(s)}

    def execute(self, inp):
        return [montecarlo.run_point(cfg, self.trials, inp["seed"], SCHEMES)
                for cfg in inp["configs"]]

    def serialize(self, out):
        lines = ["p,scheme,mean_rate_bits,std_error,trials,errors"]
        for p, res in zip(self.portions, out):
            for s in sorted(res.stats):
                st = res.stats[s]
                lines.append(f"{p!r},{s},{float(st.mean_rate)!r},"
                             f"{float(st.std_error)!r},{st.trials},{len(res.errors)}")
        return "\n".join(lines) + "\n"

    def check(self, inp, out):
        bad, why = 0, []
        for p, res in zip(self.portions, out):
            st = res.stats
            ok = not res.errors and sorted(st) == list(SCHEMES)
            if ok:
                ok = (_finite(*(st[s].mean_rate for s in SCHEMES),
                              *(st[s].std_error for s in SCHEMES))
                      and st["df"].mean_rate <= st["upper"].mean_rate
                      and st["af"].mean_rate <= st["upper"].mean_rate
                      and all(st[s].trials == self.trials for s in SCHEMES))
            if not ok:
                bad += 1
                why.append(f"point p={p} failed its check")
        return bad, why

    def setup(self, seed):
        s = pass_seed(self.name, seed, 0)
        cfgs = self._configs(s)
        for cfg in cfgs:
            model.moments(cfg)
        montecarlo.run_point(cfgs[0], self.trials, s, SCHEMES)

    def counts(self):
        return {"realizations": len(self.portions) * self.trials,
                "af_points": len(self.portions)}


WORKLOADS = {
    "sweep_small_n": lambda: SweepSmallN(axis=(25, 50, 100), trials=100),
    "diagnose_large_n": lambda: DiagnoseLargeN(axis=(500, 1000, 2000, 4000),
                                               trials=40),
    "hetero_point": lambda: HeteroPoint(n=100, portions=(0.1, 0.3), trials=10),
}

# The same workloads at the smallest sizes that still run every code path,
# for the harness self-test.
TINY = {
    "sweep_small_n": lambda: SweepSmallN(axis=(4, 8, 16), trials=3),
    "diagnose_large_n": lambda: DiagnoseLargeN(axis=(8, 16, 32), trials=3),
    "hetero_point": lambda: HeteroPoint(n=8, portions=(0.25, 0.5), trials=3),
}


def make(name: str, tiny: bool = False) -> Workload:
    table = TINY if tiny else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]()
