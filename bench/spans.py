"""Timing wrappers installed around the library's public functions.

A wrapper replaces a function on every module attribute that refers to it
(the defining module and each module that imported the name), because each
caller looks the function up in its own module.  Two kinds exist: the
latency probe of the untraced phase, which times only the unit calls, and
the tracer of the traced phase, which records a span per call.

Spans are kept in memory as parallel lists (name, start, end, parent) and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; calls nest strictly in one thread, so
that is exactly the part of the interval the children cover.
"""

from __future__ import annotations

import gzip
import math
import time
from collections import defaultdict

import numpy as np

import confrelay
from confrelay import asymptotics, cli, model, montecarlo, rates

MODULES = {"model": model, "rates": rates, "montecarlo": montecarlo,
           "asymptotics": asymptotics, "cli": cli}
LAYERS = tuple(MODULES)

# Every public function a span is recorded for, by defining module.
TRACED = (
    ("model", "sample_realization"),
    ("model", "moments"),
    ("rates", "capacity_upper_bound"),
    ("rates", "df_rate"),
    ("rates", "df_relay_rates"),
    ("rates", "df_mac_rate"),
    ("rates", "af_rate"),
    ("rates", "af_q_terms"),
    ("rates", "af_power_factors"),
    ("montecarlo", "run_point"),
    ("montecarlo", "sweep"),
    ("asymptotics", "trace_points"),
    ("asymptotics", "scaling_fit"),
    ("cli", "main"),
    ("cli", "dispatch"),
    ("cli", "parse_config"),
    ("cli", "emit_csv"),
)

# Functions whose return value is a rate; non-finite returns are counted.
RATE_SCHEME = {"rates.af_rate": "af", "rates.df_rate": "df",
               "rates.capacity_upper_bound": "upper"}

TAIL_PERCENTILES = (50, 90, 99, 99.9)


class Patcher:
    """Installs wrappers on every module attribute bound to a function."""

    def __init__(self):
        self._saved = []

    def install(self, targets, make_wrapper) -> None:
        holders = (confrelay, *MODULES.values())
        for mod_name, attr in targets:
            fn = getattr(MODULES[mod_name], attr)
            wrapper = make_wrapper(f"{mod_name}.{attr}", fn)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._saved.append((holder, key, fn))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._saved):
            setattr(holder, key, fn)
        self._saved.clear()


class LatencyProbe:
    """Latency of each unit call, keyed by the call's position in its pass.

    A pass runs a fixed list of unit calls, so the position identifies the
    kind of call (which point or scheme).
    """

    def __init__(self, targets):
        self.targets = targets
        self.samples = defaultdict(list)  # position -> [(pass, seconds)]
        self._pass = 0
        self._position = 0
        self._patcher = Patcher()

    def start_pass(self, k: int) -> None:
        self._pass = k
        self._position = 0

    def _wrap(self, name, fn):
        samples, clock = self.samples, time.perf_counter

        def probe(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                samples[self._position].append((self._pass, clock() - t0))
                self._position += 1
        return probe

    def __enter__(self):
        self._patcher.install(self.targets, self._wrap)
        return self

    def __exit__(self, *exc):
        self._patcher.uninstall()

    def summary(self, scales) -> dict:
        """Median and tail call latency in ms, each call's time multiplied
        by the scale of its pass.

        The median is taken per kind of unit call and then as the median
        over kinds, so that it does not fall into the gap between two kinds
        of unequal cost.  The tail is the highest of the percentiles
        ``TAIL_PERCENTILES`` of all calls that has at least ten calls beyond
        it.
        """
        kinds = [sorted(dt * scales[k] for k, dt in v)
                 for _, v in sorted(self.samples.items())]
        pooled = np.array(sorted(x for v in kinds for x in v))
        n = len(pooled)
        if n == 0:
            raise RuntimeError("no unit call was observed")
        q = max(p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10 or p == 50)
        return {"call_ms_p50": 1e3 * float(np.median([np.median(v) for v in kinds])),
                "call_ms_tail": 1e3 * float(np.percentile(pooled, q)),
                "tail_percentile": q,
                "call_samples": n,
                "call_kinds": len(kinds)}


class Tracer:
    """Span recorder; the harness opens one root span per pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.nonfinite = {"af": 0, "df": 0, "upper": 0}
        self._patcher = Patcher()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        open_, close = self.open, self.close
        scheme = RATE_SCHEME.get(name)
        nonfinite = self.nonfinite

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if scheme is not None and not math.isfinite(out):
                nonfinite[scheme] += 1
            return out
        return traced

    def __enter__(self):
        self._patcher.install(TRACED, self._wrap)
        return self

    def __exit__(self, *exc):
        self._patcher.uninstall()

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        name_id = np.asarray(self.name_id, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=self_time, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Spans as gzipped CSV; times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, (nid, s, e, p) in enumerate(zip(self.name_id, self.start,
                                                   self.end, self.parent)):
                fh.write(f"{i},{self.names[nid]},{s - t0:.9f},{e - t0:.9f},{p}\n")
