"""Network model: configuration, fading laws, analytic moments, sampling.

A single source talks to a single destination through ``n_relays`` half-duplex
relays; there is no direct source-destination link.  Relays are indexed
``0 .. n_relays - 1`` and all neighbor arithmetic wraps cyclically: relay
``i`` forwards its first-hop observation to relays ``i+1, ..., i+M`` (mod N)
over out-of-band conferencing links with fixed positive gains.  These do not
fade: they are stored only in the configuration (``NetworkConfig.conf_gain``).

Receivers on the first hop, the conferencing links, and the second hop all see
additive circularly symmetric complex Gaussian noise at the same spectral
level ``n_0``.  Channel moments are analytic properties of the configured
distributions (the relaying schemes use them as known system constants), never
sample estimates.  A config builds its one :class:`MomentSet` when it is built,
and every rate, oracle and engine function reads it through :func:`moments`;
none takes a moment set as an argument.

Everything here is immutable after construction and
:func:`sample_realization` is a pure function of ``(config, seed)``, so all
objects can be shared freely across threads.

The realization for ``seed`` is the one ``np.random.default_rng(seed mod 2**64)``
draws, first-hop gains before second-hop gains, and :func:`sample_realization`
draws it with that generator.  Trial ``t`` of a run seeded with ``base_seed``
draws the realization for :func:`derive_seed` ``(base_seed, t)``, a SplitMix64
mixer.  This module owns the one path from a run's base seed and trial count
to its normals: :func:`_trial_squares` walks a run block by block,
:func:`_seeded_normals` draws a block's normals from their PCG64 states
(:func:`_states`), and the trial engine reads each block's ``|h|^2`` and
``|g|^2`` under each of the configs that share the walk.  Those configs (the
network sizes of a trace) draw each trial's row once, at the widest config's
count of normals, and each reads a prefix of the row: the kept first rows
(below) in blocks sized by its own N, and the rows drawn after them in
blocks sized by their largest N.  The PCG64 states of many trials are derived at once,
without building a generator per trial: NumPy's SeedSequence hash and PCG64
seeding run over all seeds together, in uint64 lanes (a 128-bit number is a
high and a low 64-bit word; products are built from 32-bit halves and
carries from bit operations).

The one thing walks share is each thread's squared normals of a run's first
rows (:func:`_first_rows`): those of its first
``K = min(trials, 2**14, 2**20 // width)`` trials, at most 8 MiB per thread.
A walk of the run with rows no wider reads a prefix of each kept row, then
derives the states of each chunk of 2**14 of the trials after them once and
draws that chunk's blocks from them.  So the three schemes of a ``diagnose``
pass at N <= 4000 and 40 trials (65 rows of 16000 normals fit) draw each
trial once.

Each thread that draws keeps one PCG64 generator (:func:`_thread_generator`),
and before each row the row's 128-bit state and increment are written as
four 64-bit words straight into that generator's state memory
(:func:`_draw_rows`).  Every row goes through one fill (:class:`_Fill`).
Rows of at least 800 normals, more than one slab of them, are drawn on up
to the usable CPUs: the fill's slabs are claimed in row order by the caller
and by at most ``_CPUS - 1`` daemon helper threads, which start once per
process and keep their own generators for its life.  Whenever the caller
would wait for a row, it draws the next unclaimed slab below it instead,
so it waits only on rows that a helper is drawing, and a fill completes
even when no helper takes a slab of it.  Narrower rows are drawn by
the caller alone.  The kept first rows are handed back before they are
drawn, and a walk reads each of their blocks as soon as its last row is
drawn, so the first walk's kernels run while the helpers draw.  Every row
is seeded on its own, so which thread draws it never changes it: the output
is bit-identical on any number of CPUs and at any ``--workers`` value.

The state words' memory order depends on how NumPy was built (a native
128-bit integer or an emulated one, high word first); each thread's first
draw reads it back from a probe state set through the public ``state``
setter and raises ``RuntimeError`` if the words read back are not the ones
written.  This relies on NumPy's fixed SeedSequence/PCG64 seeding algorithm
and its PCG64 state layout; ``TestSeededNormals`` checks the states against
``PCG64`` and the rows against ``default_rng(derive_seed(base_seed, t))``
trial by trial, and ``test_sampled_squares_match_sampled_gains`` checks the
engine's squares against ``sample_realization``.

How a fading law lays out its normals is written in one place, :func:`_law`:
a ``Cscg`` draw is its N real parts, then its N imaginary parts, a
``PerIndex`` draw one (real, imaginary) pair per Gaussian entry in relay
order, and a point mass draws nothing.  A :class:`NetworkConfig` resolves
its two laws through it once, when it is built, and takes its moment set from
them; :func:`sample_realization` and the trial engine read those two
:class:`_Law` records, and :func:`spec_moments` and :func:`sample_channel`
resolve the law they are given.  None of them reads the law's kind.  A seed
is any whole number, read modulo 2**64 (:func:`_seed`).

The trial engine reads ``|h|^2`` and ``|g|^2`` straight from the same normals
and never builds the complex gains; each block's normals are squared once,
in place.  When no rate it evaluates reads ``g`` (the cut-set bound alone),
it draws only each row's first-hop normals.  A generator draws normals in
sequence, so those are a prefix of the full draw, as is a smaller network's
draw of a wider row; ``test_first_hop_prefix_matches_full_draw`` and
``TestSharedDraw`` in ``tests/test_asymptotics.py`` check it.
"""

from __future__ import annotations

import cmath
import math
import numbers
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF


class ConfigurationError(ValueError):
    """Invalid network or run configuration."""


class PreconditionError(RuntimeError):
    """A scheme precondition is violated for an otherwise valid configuration."""


class UndefinedRatioError(PreconditionError):
    """A diagnostic ratio has a zero denominator."""


def _whole(value) -> int | None:
    """``value`` as an int if it is a whole number, else None."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value else None


def _integer(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int; :class:`ConfigurationError` unless it is a whole
    number of at least ``minimum`` (1 or 0)."""
    whole = _whole(value)
    if whole is None or whole < minimum:
        kind = "positive" if minimum == 1 else "nonnegative"
        raise ConfigurationError(f"{name} must be a {kind} integer, got {value}")
    return whole


def _seed(value, name: str) -> int:
    """``value`` modulo 2**64; :class:`ConfigurationError` unless it is a
    whole number, of any sign and size."""
    whole = _whole(value)
    if whole is None:
        raise ConfigurationError(f"{name} must be a whole number, got {value!r}")
    return whole & MASK64


def _number(value, name: str, kind: type = numbers.Real):
    """``value``; :class:`ConfigurationError` unless it is a ``kind`` number."""
    if not isinstance(value, kind):
        what = "real" if kind is numbers.Real else "complex"
        raise ConfigurationError(f"{name} must be a {what} number, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Fading distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cscg:
    """Circularly symmetric complex Gaussian with E|h|^2 = variance.

    Real and imaginary parts are independent N(0, variance/2).  The magnitude
    moments are E|h|^2 = variance and E|h|^4 = 2 * variance^2; a variance
    whose fourth moment underflows to 0 or overflows is rejected.
    """

    variance: float

    def __post_init__(self):
        if not 0.0 < _number(self.variance, "cscg variance") < math.inf:
            raise ConfigurationError(
                f"cscg variance must be finite and positive, got {self.variance}"
            )
        variance = float(self.variance)
        if not 0.0 < 2.0 * variance * variance < math.inf:
            raise ConfigurationError(
                "cscg fourth moment 2 * variance^2 must be finite and positive, "
                f"got variance {self.variance}")


@dataclass(frozen=True)
class PointMass:
    """Deterministic channel equal to ``value`` (used for exact fixtures)."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value",
                           complex(_number(self.value, "point_mass value", numbers.Complex)))
        if not cmath.isfinite(self.value):
            raise ConfigurationError(
                f"point_mass value must be finite, got {self.value}")
        if self.value == 0:
            raise ConfigurationError("point_mass value must be nonzero")
        # The moments read |value|^2 and |value|^4, so a value whose square or
        # fourth power underflows to 0 or overflows is rejected too.
        power = _abs_squared(self.value)
        if not 0.0 < power < math.inf:
            raise ConfigurationError(
                f"point_mass value squared must be finite and nonzero, got {self.value}")
        if not 0.0 < power * power < math.inf:
            raise ConfigurationError(
                "point_mass value to the fourth power must be finite and nonzero, "
                f"got {self.value}")


class _Law(NamedTuple):
    """A fading law over ``n`` relays, as the moments and both samplers read
    it.  One draw takes ``count`` standard normals ``z``; the Gaussian entry
    ``gauss[j]`` (relay ``j`` when ``gauss`` is None) is
    ``sqrt(half[j]) * (z[re][j] + 1j * z[im][j])`` and the point mass ``mass[k]``
    is ``values[k]``."""

    count: int                 # standard normals one draw consumes
    re: slice                  # the draw's real parts of the Gaussian entries
    im: slice                  # and their imaginary parts
    half: np.ndarray | float   # variance / 2 of the Gaussian entries
    gauss: np.ndarray | None   # relay indices of the Gaussian entries
    mass: np.ndarray           # relay indices of the point masses
    values: np.ndarray         # their values
    power: np.ndarray          # their |value|^2, rounded as NumPy rounds it
    m2: np.ndarray             # E|h|^2 per relay
    m4: np.ndarray             # E|h|^4 per relay


@dataclass(frozen=True)
class PerIndex:
    """Independent, non-identical law per relay index.

    Everything the moments and the samplers read of the law is one table,
    built in one pass over ``specs`` (and one over the point masses' values)
    when the first :class:`NetworkConfig` using the law is constructed, and
    cached; the moment arrays it hands out are read-only.
    """

    specs: tuple

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        if not self.specs:
            raise ConfigurationError("per_index requires at least one entry")
        for s in self.specs:
            if not isinstance(s, (Cscg, PointMass)):
                raise ConfigurationError(
                    "per_index entries must be cscg or point_mass laws"
                )

    @cached_property
    def _table(self) -> _Law:
        # One pass over the specs gives each entry's E|h|^2 with the rounding
        # of its own law in _law: the variance, or Python's abs(value) ** 2
        # negated for a point mass.  Both laws reject a power that is not
        # positive, so the sign tells the kinds apart.
        signed = np.array([s.variance if isinstance(s, Cscg) else -(abs(s.value) ** 2)
                           for s in self.specs])
        is_gauss = signed > 0
        m2 = np.abs(signed)
        gauss, mass = is_gauss.nonzero()[0], (~is_gauss).nonzero()[0]
        half = m2[gauss] / 2.0
        values = np.array([self.specs[i].value for i in mass.tolist()], dtype=complex)
        # (2 * m2) * m2 for a Gaussian entry, (1 * m2) * m2 = m2 * m2 for a
        # point mass, as _law rounds them.
        m4 = np.where(is_gauss, 2.0, 1.0) * m2 * m2
        m2.flags.writeable = m4.flags.writeable = False
        # One (real, imaginary) pair of normals per Gaussian entry.
        return _Law(2 * len(gauss), slice(0, None, 2), slice(1, None, 2), half,
                    gauss if len(mass) else None, mass, values, _abs2(values), m2, m4)


DistributionSpec = Union[Cscg, PointMass, PerIndex]


# No entries: an empty index, value or moment array.
_NONE = np.empty(0, dtype=np.intp)
_NONE.flags.writeable = False


def _law(spec: DistributionSpec, n: int) -> _Law:
    """The :class:`_Law` of ``spec`` over ``n`` relays, the one place that
    reads a law's kind.

    A ``Cscg`` draw is its ``n`` real parts, then its ``n`` imaginary parts;
    a ``PerIndex`` draw is one (real, imaginary) pair per Gaussian entry, in
    relay order, and its law is its cached table; a point mass draws nothing.
    """
    if isinstance(spec, PerIndex):
        if len(spec.specs) != n:
            raise ConfigurationError(
                f"per_index length {len(spec.specs)} does not match {n} relays")
        return spec._table
    if isinstance(spec, Cscg):
        # E|h|^4 is (2 * variance) * variance, rounded as PerIndex._table rounds it.
        v = float(spec.variance)
        return _Law(2 * n, slice(0, n), slice(n, 2 * n), v / 2.0, None, _NONE, _NONE,
                    _NONE, np.full(n, v), np.full(n, 2.0 * v * v))
    if isinstance(spec, PointMass):
        values = np.full(n, spec.value)
        m2 = np.full(n, abs(spec.value) ** 2)
        return _Law(0, slice(0, 0), slice(0, 0), _NONE, _NONE, np.arange(n), values,
                    _abs2(values), m2, m2 * m2)
    raise ConfigurationError(f"unsupported distribution spec: {spec!r}")


def spec_moments(spec: DistributionSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (E|h|^2, E|h|^4) per index for a channel of length ``n``.

    For a ``PerIndex`` law these are the read-only arrays of its table.
    """
    law = _law(spec, n)
    return law.m2, law.m4


def _abs_squared(value: complex) -> float:
    """Python's ``abs(value) ** 2``, or inf where that overflows."""
    try:
        return abs(value) ** 2
    except OverflowError:
        return math.inf


def _abs2(values: np.ndarray) -> np.ndarray:
    """|v|^2 of complex ``values``, rounded as ``np.abs(array) ** 2`` rounds it."""
    return np.abs(np.asarray(values, dtype=complex)) ** 2


def _squares_from_normals(law: _Law, z2: np.ndarray) -> np.ndarray:
    """|x|^2 of the gains :func:`sample_channel` builds from normals ``z``
    under ``law``, read from their squares ``z2 = z**2`` of shape
    (..., count), without building the gains; ``z2`` is only read.

    A Gaussian entry gives variance/2 * (re^2 + im^2), a point mass |v|^2;
    only a law with point masses scatters its entries into place.
    """
    s = z2[..., law.re] + z2[..., law.im]
    s *= law.half
    if law.gauss is None:
        return s
    out = np.empty(z2.shape[:-1] + law.m2.shape)
    out[..., law.gauss] = s
    out[..., law.mass] = law.power
    return out


def sample_channel(spec: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` independent complex gains from ``spec``.

    One call of ``rng.standard_normal`` draws every normal the law needs, laid
    out as :func:`_law` says.  Each part is N(0, variance/2); point masses
    consume no randomness.
    """
    return _draw(_law(spec, n), rng)


def _draw(law: _Law, rng: np.random.Generator) -> np.ndarray:
    """The gains :func:`sample_channel` draws under ``law`` from ``rng``."""
    z = rng.standard_normal(law.count)
    out = np.empty(len(law.m2), dtype=complex)
    gauss = slice(None) if law.gauss is None else law.gauss
    scale = np.sqrt(law.half)
    out.real[gauss] = scale * z[law.re]
    out.imag[gauss] = scale * z[law.im]
    out[law.mass] = law.values
    return out


# ---------------------------------------------------------------------------
# Conferencing topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Portion:
    """Conferencing portion p in (0, 1]; the neighbor count follows from N."""

    p: float

    def __post_init__(self):
        if not 0.0 < _number(self.p, "conferencing portion") <= 1.0:
            raise ConfigurationError(
                f"conferencing portion must be in (0, 1], got {self.p}"
            )


@dataclass(frozen=True)
class Neighbors:
    """Explicit conferencing neighbor count M (0 disables conferencing)."""

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "neighbor count", 0))


def conferencing_size(p: float, n: int) -> int:
    """Neighbor count M for portion ``p`` of ``n`` relays.

    Rounds p*n half-up and clamps to [0, n-1], so (M+1)/n equals p exactly
    whenever p*n is an integer, and p == 1 always gives complete conferencing
    (M = n - 1).
    """
    p = Portion(p).p
    n = _integer(n, "number of relays")
    m = int(math.floor(p * n + 0.5)) - 1
    return max(0, min(m, n - 1))


# ---------------------------------------------------------------------------
# Configuration and derived objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NetworkConfig:
    """All scalar system parameters of one network instance.

    ``conf_gain`` is either a single positive float (uniform link gain, the
    default) or an (N, M) array whose ``[i, k-1]`` entry is the gain of the
    ordered conferencing link from relay ``i`` to relay ``i+k``.

    ``h_dist`` and ``g_dist`` are resolved (:func:`_law`) once, here; both
    samplers read the two :class:`_Law` records kept in ``_laws``, and
    :func:`moments` the :class:`MomentSet` built from them and kept in
    ``_moments``.  Neither is a field.
    """

    n_relays: int
    conferencing: Union[Portion, Neighbors]
    p_s: float = 1.0
    p_r: float = 1.0
    p_c: float = 1.0
    n_0: float = 1.0
    conf_gain: Union[float, np.ndarray] = 1.0
    h_dist: DistributionSpec = Cscg(1.0)
    g_dist: DistributionSpec = Cscg(1.0)

    def __post_init__(self):
        object.__setattr__(self, "n_relays", _integer(self.n_relays, "n_relays"))
        if isinstance(self.conferencing, Neighbors):
            if self.conferencing.m > self.n_relays - 1:
                raise ConfigurationError(
                    f"neighbor count {self.conferencing.m} exceeds "
                    f"n_relays - 1 = {self.n_relays - 1}"
                )
        elif not isinstance(self.conferencing, Portion):
            raise ConfigurationError(
                "conferencing must be a Portion or Neighbors value"
            )
        for name in ("p_s", "p_r", "p_c"):
            value = _number(getattr(self, name), name)
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and nonnegative, got {value}")
            # A power of -0.0 is stored as +0.0, so no rate reads -0.0.
            object.__setattr__(self, name, abs(value))
        if not 0.0 < _number(self.n_0, "n_0") < math.inf:
            raise ConfigurationError(f"n_0 must be finite and positive, got {self.n_0}")
        # The rates read the squared gains, so a gain whose square underflows
        # to 0 or overflows to inf is rejected too.
        if np.isscalar(self.conf_gain):
            if not 0.0 < _number(self.conf_gain, "conf_gain") < math.inf:
                raise ConfigurationError(
                    f"conf_gain must be finite and positive, got {self.conf_gain}")
            gain = float(self.conf_gain)
            if not 0.0 < gain * gain < math.inf:
                raise ConfigurationError(
                    f"conf_gain squared must be finite and nonzero, got {self.conf_gain}")
            object.__setattr__(self, "conf_gain", gain)
        else:
            gains = np.asarray(self.conf_gain)
            if gains.dtype.kind not in "iuf":
                raise ConfigurationError(
                    f"conf_gain array entries must be real numbers, got dtype {gains.dtype}")
            gains = np.asarray(gains, dtype=float)
            if gains.shape != (self.n_relays, self.m_conf):
                raise ConfigurationError(
                    f"conf_gain array must have shape "
                    f"({self.n_relays}, {self.m_conf}), got {gains.shape}"
                )
            if not np.all((gains > 0) & np.isfinite(gains)):
                raise ConfigurationError(
                    "conf_gain entries must all be finite and positive")
            with np.errstate(over="ignore"):
                squares = gains * gains
            if not np.all((squares > 0) & np.isfinite(squares)):
                raise ConfigurationError(
                    "conf_gain entries squared must all be finite and nonzero")
            gains.flags.writeable = False
            object.__setattr__(self, "conf_gain", gains)
        laws = []
        for label in ("h_dist", "g_dist"):
            try:
                laws.append(_law(getattr(self, label), self.n_relays))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{label}: {exc}") from exc
        object.__setattr__(self, "_laws", tuple(laws))
        h, g = laws
        for a in (h.m2, h.m4, g.m2, g.m4):
            a.flags.writeable = False
        object.__setattr__(self, "_moments", MomentSet(h.m2, h.m4, g.m2, g.m4))

    @cached_property
    def m_conf(self) -> int:
        """Derived conferencing neighbor count M, computed once per config."""
        if isinstance(self.conferencing, Neighbors):
            return self.conferencing.m
        return conferencing_size(self.conferencing.p, self.n_relays)

    @property
    def p_effective(self) -> float:
        """Realized conferencing portion (M + 1) / N."""
        return (self.m_conf + 1) / self.n_relays


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Analytic second and fourth magnitude moments per relay index, as
    read-only arrays; each :class:`NetworkConfig` builds its own."""

    m2_h: np.ndarray
    m4_h: np.ndarray
    m2_g: np.ndarray
    m4_g: np.ndarray


def moments(config: NetworkConfig) -> MomentSet:
    """Analytic moment set of the configured fading laws, built with the
    config."""
    return config._moments


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the fading coefficients.

    ``h[i]`` is the source-to-relay gain and ``g[i]`` the relay-to-destination
    gain.  The conferencing links do not fade: their gains are read from
    :attr:`NetworkConfig.conf_gain` of the configuration a realization is
    evaluated under.
    """

    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        g = np.asarray(self.g, dtype=complex)
        if h.shape != g.shape or h.ndim != 1:
            raise ConfigurationError("h and g must be 1-D arrays of equal length")
        h.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)


# ---------------------------------------------------------------------------
# Seeded standard normals
# ---------------------------------------------------------------------------

def _hash_steps(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(xor, multiplier) pairs of ``count`` successive SeedSequence hash steps;
    the running hash constant starts at ``init`` and is multiplied by ``mult``
    between the xor and the multiply of each step."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return list(zip(consts[:-1], consts[1:]))


def _columns(steps: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Xors and multipliers of ``steps`` as (len(steps), 1) uint32 columns."""
    xor, mul = zip(*steps)
    return np.array(xor, np.uint32)[:, None], np.array(mul, np.uint32)[:, None]


# NumPy's SeedSequence over its pool of 4 words.  Hash steps 0-3 fill the pool
# and steps 4-15 mix each source word s into the other words in index order;
# _MIX_HASH[s] lists the steps for words s+1, s+2, s+3 (mod 4), the order in
# which a pool rotated to put word s first holds them.  8 steps of a second
# hash draw the output words.
_POOL_HASH = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_FILL_HASH = _columns(_POOL_HASH[:4])
_MIX_HASH = tuple(
    _columns([_POOL_HASH[4 + 3 * s + d - (d > s)]
              for d in ((s + 1) % 4, (s + 2) % 4, (s + 3) % 4)])
    for s in range(4))
_OUT_HASH = _columns(_hash_steps(0x8B51F9DD, 0x58F38DED, 8))
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
# PCG64's LCG multiplier M as its high and low 64-bit words, with a column of
# the low words of M and M + 1 (M is odd, so adding 1 does not carry) and the
# 32-bit halves of that column, built from Python ints.
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LOWS = (4865540595714422341, 4865540595714422342)
_PCG_MULT_LO = np.array([[w] for w in _PCG_MULT_LOWS], np.uint64)
_PCG_MULT_LO_HALVES = (np.array([[w & 0xFFFFFFFF] for w in _PCG_MULT_LOWS], np.uint64),
                       np.array([[w >> 32] for w in _PCG_MULT_LOWS], np.uint64))
_ONE = np.uint64(1)
_U63 = np.uint64(63)
_ALL = np.uint64(MASK64)


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> _SHIFT)


def _mul_hi(a: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of the uint64 arrays ``a`` and
    ``b1:b0``, given as 32-bit halves, from the four 32 x 32-bit products of
    the halves; no sum overflows 64 bits."""
    a0, a1 = a & _LO32, a >> _U32
    mid = a0 * b1 + (a0 * b0 >> _U32)
    low_carry = a1 * b0 + (mid & _LO32)
    return a1 * b1 + (mid >> _U32) + (low_carry >> _U32)


def _pcg64_states(seeds: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """The four 64-bit words of the (state, inc) that ``np.random.PCG64(seed)``
    starts from, per uint64 seed, as a read-only (len(seeds), 4) uint64 array
    whose columns are in the memory ``order`` of :func:`_word_order`."""
    # The entropy is the seed's low and high 32-bit words; the rest of the
    # pool hashes zeros.
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[0] = seeds & _LO32
    pool[1] = seeds >> _U32
    pool = _hashmix(pool, *_FILL_HASH)
    for xor, mul in _MIX_HASH:
        # Mix the first word into the other three, then rotate the next source
        # word to the front; four steps restore index order.
        x = _MIX_L * pool[1:] - _MIX_R * _hashmix(pool[0], xor, mul)
        pool = np.concatenate((x ^ (x >> _SHIFT), pool[:1]))
    out = _hashmix(np.concatenate((pool, pool)), *_OUT_HASH).astype(np.uint64)
    # Little-endian pairs of output words give PCG64's four 64-bit seed words:
    # the initial state w0:w1 and the stream w2:w3.  The increment is
    # inc = (w2:w3 << 1) | 1, and two LCG steps from state 0 give the state
    # (w0:w1 + inc) * M + inc = w0:w1 * M + inc * (M + 1) mod 2**128.  Rows
    # (w0, w1, w2, w3) become (init high, init low, inc high, inc low).
    words = out[0::2] | out[1::2] << _U32
    top = words[3] >> _U63
    words[2:] <<= _ONE
    words[2] |= top
    words[3] |= _ONE
    high, low = words[0::2], words[1::2]
    # The low words of init * M and inc * (M + 1) and of their sum; the high
    # word sums both products' high words, the cross terms and the carry out
    # of the low sum (the top bit of both addends, or of one where the sum's
    # top bit is clear).  Bit operations rather than a compare: the seed
    # mixer already runs every uint64 loop used here, and the first uint64
    # compare in a process maps about 0.15 MB more of NumPy's code.
    prod = low * _PCG_MULT_LO
    state_lo = prod[0] + prod[1]
    carry = (prod[0] & prod[1] | (prod[0] | prod[1]) & (state_lo ^ _ALL)) >> _U63
    high_sum = (_mul_hi(low, *_PCG_MULT_LO_HALVES) + low * _PCG_MULT_HI
                + high * _PCG_MULT_LO)
    state_hi = high_sum[0] + high_sum[1] + carry
    columns = (state_hi, state_lo, words[2], words[3])
    states = np.stack([columns[i] for i in order], axis=1)
    states.flags.writeable = False
    return states


# A (state, inc) pair as its words (state high, state low, inc high, inc low).
# The bit patterns differ in every byte, so no two words read back alike.
_PROBE_WORDS = (0x243F6A8885A308D3, 0x13198A2E03707344,
                0xA4093822299F31D0, 0x082EFA98EC4E6C89)
_THREAD = threading.local()


def _word_order(read_back: Sequence[int]) -> tuple[int, ...]:
    """Memory order of PCG64's four state words, from the words ``read_back``
    from its state memory after the public setter stored ``_PROBE_WORDS``.

    Entry ``j`` is the index in (state high, state low, inc high, inc low) of
    the word at memory slot ``j``: (1, 0, 3, 2) where the build has a native
    128-bit integer on a little-endian machine, (0, 1, 2, 3) where it emulates
    one high word first.
    """
    read_back = tuple(read_back)
    if sorted(read_back) != sorted(_PROBE_WORDS):
        raise RuntimeError(
            "PCG64 state memory does not hold the state and increment words "
            f"the generator was given: read {[hex(w) for w in read_back]}")
    return tuple(_PROBE_WORDS.index(w) for w in read_back)


# SplitMix64 constants of the trial seed mixer.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _derive_seeds(base_seed: int, lo: int, hi: int) -> np.ndarray:
    """``derive_seed(base_seed, t)`` for every trial ``lo <= t < hi``, as a
    uint64 array.  The base seed (:func:`_seed`) and ``lo + 1`` are masked to
    64 bits and the array arithmetic wraps modulo 2**64, so any whole base
    seed or int trial index works."""
    z = np.arange(hi - lo, dtype=np.uint64) + np.uint64((lo + 1) & MASK64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(_seed(base_seed, "base_seed"))
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def derive_seed(base_seed: int, trial: int) -> int:
    """Mix (base_seed, trial) into a 64-bit realization seed.

    SplitMix64 finalizer over base_seed + GOLDEN*(trial+1) mod 2**64, the
    seed :func:`_derive_seeds` gives trial ``trial``; fixed here so the
    grouping of trials can never change which realization a trial sees.
    """
    trial = _seed(trial, "trial")
    return int(_derive_seeds(base_seed, trial, trial + 1)[0])


# Trials a walk derives PCG64 states for at once, past its kept rows; the
# first rows are kept of at most this many trials.
_STATE_CHUNK = 2 ** 14

# Realizations times relays drawn at once by the trial engine; bounds its
# working memory independently of the network size.
_BLOCK_ELEMENTS = 2 ** 14

# Normals a row holds at least for helper threads to draw rows of its fill
# (:class:`_Fill`).  Each row costs one GIL handoff between the threads that
# draw it: measured on a 2-CPU host, two threads drew rows of 400 normals
# 1.5-1.8x slower than the caller alone, rows of 600 about as fast, and rows
# of 800 or more normals in 0.5-0.85 of its time.
_HELPED_ROW_NORMALS = 800

# Normals of one slab, the rows a thread claims of a fill at once: one row of
# 2**14 normals or more, so the first rows a walk needs are drawn by two
# threads at once, and 2**14 // width narrower rows, which share one claim.
_SLAB_NORMALS = 2 ** 14

# CPUs this process may run on, read once: a fill is drawn by the caller and
# at most _CPUS - 1 helper threads.
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def _thread_generator():
    """This thread's PCG64 generator, a ctypes view of the four 64-bit words
    of its (state, inc) pair, and their memory order (:func:`_word_order`).

    Made on the thread's first call, which sets a probe state through the
    public ``state`` setter and reads its words back through the view.
    """
    try:
        return _THREAD.draw
    except AttributeError:
        pass
    import ctypes
    bitgen = np.random.PCG64(0)
    # bitgen.ctypes.state_address points at NumPy's pcg64_state, whose first
    # field points at the (state, inc) pair.
    pcg_state = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    memory = (ctypes.c_uint64 * 4).from_address(pcg_state)
    probe = bitgen.state
    hi_s, lo_s, hi_inc, lo_inc = _PROBE_WORDS
    probe["state"] = {"state": hi_s << 64 | lo_s, "inc": hi_inc << 64 | lo_inc}
    bitgen.state = probe
    # The generator holds bitgen, which owns the memory the view writes to.
    _THREAD.draw = np.random.Generator(bitgen), memory, _word_order(memory)
    return _THREAD.draw


def _states(base_seed: int, lo: int, hi: int) -> np.ndarray:
    """:func:`_pcg64_states` of the seeds of trials ``lo <= t < hi``, in this
    thread's memory order."""
    return _pcg64_states(_derive_seeds(base_seed, lo, hi), _thread_generator()[2])


def _draw_rows(z: np.ndarray, states: np.ndarray, square: bool = False) -> None:
    """Draw each row of ``z`` from its state in ``states`` with this thread's
    generator, the state's words written straight into it first; square the
    rows in place after with ``square``."""
    gen, memory, _ = _thread_generator()
    for row, state in zip(z, states.tolist()):
        memory[:] = state
        gen.standard_normal(out=row)
    if square:
        np.square(z, out=z)


# One ticket per helper that may draw slabs of a posted fill, the helpers
# started, and the one condition under which every fill's slabs are claimed
# and counted.
_POSTED: list = []
_HELPERS: list = []
_BOARD = threading.Condition()


class _Fill:
    """The rows of ``z`` drawn from their ``states`` (:func:`_draw_rows`),
    squared in place with ``square``: the one way the trial engine draws.

    A fill of rows narrower than ``_HELPED_ROW_NORMALS``, of one slab, or on
    one CPU is drawn here, in one :func:`_draw_rows` call.  Any other is
    posted to at most ``_CPUS - 1`` helper threads (:func:`_post`), and its
    slabs of ``max(1, _SLAB_NORMALS // width)`` rows are claimed in row
    order by those helpers and by the caller of :meth:`wait`, each drawing
    its slab with its own thread's generator.  Every row is seeded on its
    own, so which thread draws it never changes a bit.
    """

    def __init__(self, z: np.ndarray, states: np.ndarray, square: bool = False):
        self.rows = len(z)
        slab = max(1, _SLAB_NORMALS // max(z.shape[1], 1))
        if z.shape[1] < _HELPED_ROW_NORMALS or self.rows <= slab or _CPUS < 2:
            _draw_rows(z, states, square)
            self.ready = self.rows
            return
        self.z, self.states, self.square, self.slab = z, states, square, slab
        # Rows claimed, rows of the drawn prefix, which slabs are drawn, the
        # helpers' slabs in flight and the first error raised drawing one.
        self.claimed = self.ready = self.helping = 0
        self.drawn = [False] * -(-self.rows // slab)
        self.error = None
        _post(self, _CPUS - 1)

    def _claim(self, helper: bool) -> tuple[int, int] | None:
        """The rows of the next slab, or None when every slab is claimed."""
        with _BOARD:
            lo = self.claimed
            if lo == self.rows:
                return None
            self.claimed = hi = min(lo + self.slab, self.rows)
            self.helping += helper
            return lo, hi

    def _draw(self, lo: int, hi: int, helper: bool) -> None:
        """Draw the claimed rows ``lo:hi``; an error is kept for the caller
        and ends the claims."""
        try:
            _draw_rows(self.z[lo:hi], self.states[lo:hi], self.square)
            error = None
        except BaseException as exc:  # raised again by the caller's wait
            error = exc
        with _BOARD:
            self.helping -= helper
            if error is None:
                self.drawn[lo // self.slab] = True
                while self.ready < self.rows and self.drawn[self.ready // self.slab]:
                    self.ready = min(self.ready + self.slab, self.rows)
            elif self.error is None:
                self.error, self.claimed = error, self.rows
            if self.ready == self.rows or self.error is not None and not self.helping:
                # Nothing is left to draw: let go of the rows.
                self.z = self.states = None
            _BOARD.notify_all()

    def wait(self, end: int) -> None:
        """Return once rows ``0:end`` are drawn.  Until then the caller draws
        the next unclaimed slab below ``end`` whenever there is one, so it
        waits only on slabs that a helper is drawing, and a fill completes
        without any helper.  An error raised drawing a slab is raised here
        once no helper draws for the fill, which is then no longer kept as
        this thread's first rows (:func:`_first_rows`)."""
        while self.ready < end:
            with _BOARD:
                while self.error is None and self.ready < end <= self.claimed:
                    _BOARD.wait()
                if self.error is not None:
                    while self.helping:
                        _BOARD.wait()
                    kept = getattr(_THREAD, "first_rows", None)
                    if kept is not None and kept[2] is self:
                        _THREAD.first_rows = None
                    raise self.error
                slab = self._claim(False) if self.ready < end else None
            if slab is not None:
                self._draw(*slab, False)


def _post(fill: _Fill, helpers: int) -> None:
    """Let ``helpers`` helper threads draw slabs of ``fill``, first starting
    helpers until that many are alive: daemon threads that live as long as
    the process, each drawing with its own generator."""
    with _BOARD:
        _HELPERS[:] = [t for t in _HELPERS if t.is_alive()]
        while len(_HELPERS) < helpers:
            helper = threading.Thread(target=_help, name="confrelay-draw", daemon=True)
            helper.start()
            _HELPERS.append(helper)
        _POSTED.extend([fill] * helpers)
        _BOARD.notify_all()


def _help() -> None:
    """A helper thread's life: take a posted fill's ticket and draw the
    fill's slabs while any is unclaimed, again and again."""
    while True:
        with _BOARD:
            while not _POSTED:
                _BOARD.wait()
            fill = _POSTED.pop(0)
        while (slab := fill._claim(True)) is not None:
            fill._draw(*slab, True)
        del fill


def _seeded_normals(states: np.ndarray, count: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """(len(states), count) standard normals whose row ``r`` is what PCG64
    started from ``states[r]`` draws, the state's words in this thread's
    memory order, written into ``out`` when it is given, and drawn through
    one :class:`_Fill` before this returns."""
    z = np.empty((len(states), count)) if out is None else out
    _Fill(z, states).wait(len(z))
    return z


# Squared normals each thread keeps of a run's first rows (8 MiB of float64
# at most), and the fewest it allocates for them (2 MiB).
_KEPT_ELEMENTS = 2 ** 20
_KEPT_FLOOR = 2 ** 18


def _first_rows(base_seed: int, trials: int, width: int) -> tuple[np.ndarray, _Fill]:
    """Read-only squared normals, at least ``width`` per row, of the first
    ``K = min(trials, _STATE_CHUNK, _KEPT_ELEMENTS // width)`` trials of the
    run of ``trials`` trials seeded with ``base_seed`` (a :func:`_seed`
    value), and the :class:`_Fill` that draws them, whose ``wait`` tells
    when a prefix of them is drawn; the one cache that the walks of a run
    share.  The rows may be handed back before they are drawn.

    Each thread keeps the last rows it built, keyed by the base seed and
    ``min(trials, _STATE_CHUNK)``, and hands them back to a caller whose
    rows are no wider; that caller reads a prefix of each row, which is bit
    for bit its own draw, and draws only the trials after them.  Any other
    caller gets new rows: the states of their K trials are derived, and the
    rows drawn through one fill, each squared in place.  The old rows are
    let go first and the new ones are a view of a fresh array of
    ``max(K * width, _KEPT_FLOOR)`` float64.  Sized to the rows, it reaches
    the 8 MiB cap only when they fill it: NumPy asks for huge pages for
    arrays of 4 MiB or more, so a fixed 8 MiB array raises the peak memory
    of every run.  The 2 MiB floor keeps small rows (a ``sweep-n`` at
    N <= 100) from faulting in fresh pages on each pass, as they do when
    sized exactly.
    """
    key = (base_seed, min(trials, _STATE_CHUNK))
    kept = getattr(_THREAD, "first_rows", None)
    if kept is not None and kept[0] == key and kept[1].shape[1] >= width:
        return kept[1:]
    _THREAD.first_rows = kept = None
    rows = min(key[1], _KEPT_ELEMENTS // max(width, 1))
    z = np.empty(max(rows * width, _KEPT_FLOOR))[:rows * width].reshape(rows, width)
    fill = _Fill(z, _states(base_seed, 0, rows), square=True)
    z = z.view()
    z.flags.writeable = False
    _THREAD.first_rows = key, z, fill
    return z, fill


def _row_width(configs: Sequence[NetworkConfig], second_hop: bool) -> int:
    """Normals per trial row of a walk shared by ``configs``: the widest
    config's count, of the first hop only without ``second_hop``."""
    return max(h.count + (g.count if second_hop else 0)
               for h, g in (c._laws for c in configs))


def _draw_ahead(configs: Sequence[NetworkConfig], base_seed: int, trials: int,
                second_hop: bool = True) -> None:
    """Start this thread's first rows (:func:`_first_rows`) of a run whose
    ``configs`` will each walk it, one after another, at the widest
    config's width (:func:`_row_width`), so that each config's walk reads
    its prefix of them."""
    _first_rows(_seed(base_seed, "seed"), trials, _row_width(configs, second_hop))


def _trial_squares(configs: Sequence[NetworkConfig], base_seed: int, trials: int,
                   second_hop: bool = True):
    """Yield ``(i, lo, hi, h2, g2)`` over the blocks of one walk of a run
    shared by ``configs``: |h|^2 and |g|^2 of the realizations
    :func:`sample_realization` draws under ``configs[i]`` for trials
    ``lo <= t < hi``, as (hi - lo, N_i) arrays squared straight from the
    normals.

    Each trial's row is drawn once, at the widest config's count of normals,
    and every config reads a prefix of it: a generator draws normals in
    sequence, so that prefix is what the config's own draw gives.  The walk
    reads the rows of the run's first K trials from :func:`_first_rows` as
    one piece, then derives the states of each ``_STATE_CHUNK`` trials after
    them once and draws that chunk's rows in blocks of
    ``max(1, _BLOCK_ELEMENTS // N)`` trials for the largest N of
    ``configs``.  Within each piece or drawn block, config ``i`` reads its
    squares in blocks of ``max(1, _BLOCK_ELEMENTS // N_i)`` trials, so no
    yielded block holds more than ``max(_BLOCK_ELEMENTS, N_i)`` squares, a
    drawn block is one block of every config, and a smaller config reads
    the kept rows in fewer, larger blocks.

    The kept piece's blocks come in the order of their last row (configs in
    order where two end together), each as soon as the fill has drawn that
    row, so the caller's kernels run on the first rows while the rest are
    drawn.  A drawn block's normals are squared once, in place; each
    config's squares are built from them just before they are yielded, and
    the walk lets go of the block before the last config's last squares of
    it are yielded, so the caller's kernels for config ``i`` run before
    config ``i + 1``'s squares exist.

    Without ``second_hop``, g is not drawn (``g2`` is None) and each row
    draws only its first-hop normals, a prefix of the full draw.
    """
    if not configs or not trials:
        return
    base_seed = _seed(base_seed, "seed")
    laws = [c._laws for c in configs]
    width = _row_width(configs, second_hop)
    sizes = [max(1, _BLOCK_ELEMENTS // c.n_relays) for c in configs]
    last = len(configs) - 1

    def squares(i: int, z: np.ndarray) -> tuple:
        h, g = laws[i]
        return (_squares_from_normals(h, z[:, :h.count]),
                _squares_from_normals(g, z[:, h.count:h.count + g.count])
                if second_hop else None)

    first, kept = _first_rows(base_seed, trials, width)
    for top, i, lo in sorted((min(lo + size, len(first)), i, lo)
                             for i, size in enumerate(sizes)
                             for lo in range(0, len(first), size)):
        kept.wait(top)
        yield i, lo, top, *squares(i, first[lo:top])
    step = min(sizes)
    for start in range(len(first), trials, _STATE_CHUNK):
        end = min(start + _STATE_CHUNK, trials)
        states = _states(base_seed, start, end)
        for lo in range(start, end, step):
            hi = min(lo + step, end)
            z = _seeded_normals(states[lo - start:hi - start], width)
            np.square(z, out=z)
            for i, size in enumerate(sizes):
                for sub in range(lo, hi, size):
                    top = min(sub + size, hi)
                    h2, g2 = squares(i, z[sub - lo:top - lo])
                    if i == last and top == hi:
                        # Let go of the block before the last config's kernels.
                        del z
                    yield i, sub, top, h2, g2


def sample_realization(config: NetworkConfig, seed: int) -> ChannelRealization:
    """Deterministically draw one channel realization.

    The generator is ``np.random.default_rng`` seeded with the 64-bit value of
    ``seed``; the first-hop gains are drawn before the second-hop gains.
    """
    rng = np.random.default_rng(_seed(seed, "seed"))
    h, g = config._laws
    return ChannelRealization(h=_draw(h, rng), g=_draw(g, rng))
