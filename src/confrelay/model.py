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
sample estimates.

Everything here is immutable after construction and
:func:`sample_realization` is a pure function of ``(config, seed)``, so all
objects can be shared freely across threads.

The realization for ``seed`` is the one ``np.random.default_rng(seed mod 2**64)``
draws, first-hop gains before second-hop gains, and :func:`sample_realization`
draws it with that generator.  The trial engine reproduces those draws for a
block of seeds without building a generator per seed (:func:`_seeded_normals`):
it runs NumPy's SeedSequence hash and PCG64 seeding over all seeds at once, in
uint64 lanes (a 128-bit number is a high and a low 64-bit word; products are
built from 32-bit halves and carries from bit operations).  The engine's
blocks are trial ranges of a run (:class:`_TrialSeeds`), whose states are
derived per chunk of 2**14 trials, and the last chunk is cached
(:func:`_trial_states`, at most 512 KiB of states), so the points, sizes and
schemes of a run of up to 2**14 trials share them whatever their block
sizes.  Each thread keeps one PCG64 generator, and before each row the row's
128-bit state and increment are written as four 64-bit words straight into
that generator's state memory.  The words' memory order depends on how NumPy
was built (a native 128-bit integer or an emulated one, high word first); the
first call in a process reads it back from a probe state set through the
public ``state`` setter and raises ``RuntimeError`` if the words read back
are not the ones written.  This relies on NumPy's fixed
SeedSequence/PCG64 seeding algorithm and its PCG64 state layout;
``TestSeededNormals`` checks the states against ``PCG64`` and the rows against
``default_rng`` seed by seed, and ``test_sampled_squares_match_sampled_gains``
checks the engine's squares against ``sample_realization``.

The trial engine reads ``|h|^2`` and ``|g|^2`` straight from the same normals
(:func:`_sampled_squares`) and never builds the complex gains.  When no rate
it evaluates reads ``g`` (the cut-set bound alone), it draws only each row's
first-hop normals.  A generator draws normals in sequence, so those are a
prefix of the full draw; ``test_first_hop_prefix_matches_full_draw`` checks
it.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence, Union

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF


class ConfigurationError(ValueError):
    """Invalid network or run configuration."""


class PreconditionError(RuntimeError):
    """A scheme precondition is violated for an otherwise valid configuration."""


class UndefinedRatioError(PreconditionError):
    """A diagnostic ratio has a zero denominator."""


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
        if not 0.0 < self.variance < math.inf:
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
        object.__setattr__(self, "value", complex(self.value))
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


class _PerIndexTable(NamedTuple):
    """What the moments and the samplers read of a :class:`PerIndex` law."""

    gauss: np.ndarray       # relay indices of the Gaussian entries
    half: np.ndarray        # their variance / 2
    scale: np.ndarray       # their sqrt(variance / 2)
    mass: np.ndarray        # relay indices of the point masses
    values: np.ndarray      # their values
    power: np.ndarray       # their |value|^2, rounded as NumPy rounds it
    m2: np.ndarray          # E|h|^2 per relay
    m4: np.ndarray          # E|h|^4 per relay


@dataclass(frozen=True)
class PerIndex:
    """Independent, non-identical law per relay index.

    Everything the moments and the samplers read of the law is one table,
    built on first use in one pass over ``specs`` (and one over the point
    masses' values) and cached; the moment arrays it hands out are read-only.
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
    def _table(self) -> _PerIndexTable:
        # One pass over the specs gives each entry's E|h|^2 with the rounding
        # of its own law in spec_moments: the variance, or Python's
        # abs(value) ** 2 negated for a point mass.  Both laws reject a power
        # that is not positive, so the sign tells the kinds apart.
        signed = np.array([s.variance if isinstance(s, Cscg) else -(abs(s.value) ** 2)
                           for s in self.specs])
        is_gauss = signed > 0
        m2 = np.abs(signed)
        gauss, mass = is_gauss.nonzero()[0], (~is_gauss).nonzero()[0]
        half = m2[gauss] / 2.0
        values = np.array([self.specs[i].value for i in mass.tolist()], dtype=complex)
        # (2 * m2) * m2 for a Gaussian entry, (1 * m2) * m2 = m2 * m2 for a
        # point mass, as spec_moments rounds them.
        m4 = np.where(is_gauss, 2.0, 1.0) * m2 * m2
        m2.flags.writeable = m4.flags.writeable = False
        return _PerIndexTable(gauss=gauss, half=half, scale=np.sqrt(half), mass=mass,
                              values=values, power=_abs2(values), m2=m2, m4=m4)


DistributionSpec = Union[Cscg, PointMass, PerIndex]


def spec_moments(spec: DistributionSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (E|h|^2, E|h|^4) per index for a channel of length ``n``.

    For a ``PerIndex`` law these are the read-only arrays of its table.
    """
    if isinstance(spec, Cscg):
        m2 = np.full(n, spec.variance, dtype=float)
        return m2, 2.0 * m2 * m2
    if isinstance(spec, PointMass):
        m2 = np.full(n, abs(spec.value) ** 2, dtype=float)
        return m2, m2 * m2
    if isinstance(spec, PerIndex):
        _check_length(spec, n)
        return spec._table.m2, spec._table.m4
    raise ConfigurationError(f"unsupported distribution spec: {spec!r}")


def _check_length(spec: DistributionSpec, n: int) -> None:
    if isinstance(spec, PerIndex) and len(spec.specs) != n:
        raise ConfigurationError(
            f"per_index length {len(spec.specs)} does not match {n} relays"
        )


def _normal_count(spec: DistributionSpec, n: int) -> int:
    """Standard normals one draw of ``n`` gains from ``spec`` consumes."""
    if isinstance(spec, Cscg):
        return 2 * n
    if isinstance(spec, PointMass):
        return 0
    if isinstance(spec, PerIndex):
        return 2 * len(spec._table.gauss)
    raise ConfigurationError(f"unsupported distribution spec: {spec!r}")


def _from_normals(spec: DistributionSpec, n: int, z: np.ndarray) -> np.ndarray:
    """Gains of ``spec`` from standard normals ``z`` of shape (..., count).

    A ``Cscg`` law takes its ``n`` real parts first, then its ``n`` imaginary
    parts; a ``PerIndex`` law takes one (real, imaginary) pair per Gaussian
    entry, in relay order.  Each part is N(0, variance/2).
    """
    out = np.empty(z.shape[:-1] + (n,), dtype=complex)
    if isinstance(spec, Cscg):
        scale = math.sqrt(spec.variance / 2.0)
        np.multiply(scale, z[..., :n], out=out.real)
        np.multiply(scale, z[..., n:], out=out.imag)
    elif isinstance(spec, PointMass):
        out[...] = spec.value
    else:
        t = spec._table
        out.real[..., t.gauss] = t.scale * z[..., 0::2]
        out.imag[..., t.gauss] = t.scale * z[..., 1::2]
        out[..., t.mass] = t.values
    return out


def _abs_squared(value: complex) -> float:
    """Python's ``abs(value) ** 2``, or inf where that overflows."""
    try:
        return abs(value) ** 2
    except OverflowError:
        return math.inf


def _abs2(values: np.ndarray) -> np.ndarray:
    """|v|^2 of complex ``values``, rounded as ``np.abs(array) ** 2`` rounds it."""
    return np.abs(np.asarray(values, dtype=complex)) ** 2


def _squares_from_normals(spec: DistributionSpec, n: int,
                          z: np.ndarray) -> np.ndarray:
    """|x|^2 of the gains ``_from_normals(spec, n, z)`` builds, from the same
    normals without building them; squares ``z`` in place.

    A Gaussian entry gives variance/2 * (re^2 + im^2), a point mass |v|^2.
    """
    if isinstance(spec, PointMass):
        return np.full(z.shape[:-1] + (n,), _abs2([spec.value])[0])
    np.square(z, out=z)
    if isinstance(spec, Cscg):
        out = z[..., :n] + z[..., n:]
        out *= spec.variance / 2.0
        return out
    t = spec._table
    out = np.empty(z.shape[:-1] + (n,))
    out[..., t.gauss] = t.half * (z[..., 0::2] + z[..., 1::2])
    out[..., t.mass] = t.power
    return out


def sample_channel(spec: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` independent complex gains from ``spec``.

    Gaussian entries consume the real components first, then the imaginary
    components, each N(0, variance/2); a ``PerIndex`` law draws one (real,
    imaginary) pair per Gaussian entry in relay order; point masses consume
    no randomness.
    """
    _check_length(spec, n)
    return _from_normals(spec, n, rng.standard_normal(_normal_count(spec, n)))


# ---------------------------------------------------------------------------
# Conferencing topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Portion:
    """Conferencing portion p in (0, 1]; the neighbor count follows from N."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ConfigurationError(
                f"conferencing portion must be in (0, 1], got {self.p}"
            )


@dataclass(frozen=True)
class Neighbors:
    """Explicit conferencing neighbor count M (0 disables conferencing)."""

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ConfigurationError(f"neighbor count must be >= 0, got {self.m}")


def conferencing_size(p: float, n: int) -> int:
    """Neighbor count M for portion ``p`` of ``n`` relays.

    Rounds p*n half-up and clamps to [0, n-1], so (M+1)/n equals p exactly
    whenever p*n is an integer, and p == 1 always gives complete conferencing
    (M = n - 1).
    """
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"conferencing portion must be in (0, 1], got {p}")
    if n < 1:
        raise ConfigurationError(f"number of relays must be >= 1, got {n}")
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
        if int(self.n_relays) != self.n_relays or self.n_relays < 1:
            raise ConfigurationError(
                f"n_relays must be a positive integer, got {self.n_relays}"
            )
        object.__setattr__(self, "n_relays", int(self.n_relays))
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
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and nonnegative, got {value}")
        if not 0.0 < self.n_0 < math.inf:
            raise ConfigurationError(f"n_0 must be finite and positive, got {self.n_0}")
        # The rates read the squared gains, so a gain whose square underflows
        # to 0 or overflows to inf is rejected too.
        if np.isscalar(self.conf_gain):
            if not 0.0 < self.conf_gain < math.inf:
                raise ConfigurationError(
                    f"conf_gain must be finite and positive, got {self.conf_gain}")
            gain = float(self.conf_gain)
            if not 0.0 < gain * gain < math.inf:
                raise ConfigurationError(
                    f"conf_gain squared must be finite and nonzero, got {self.conf_gain}")
            object.__setattr__(self, "conf_gain", gain)
        else:
            gains = np.asarray(self.conf_gain, dtype=float)
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
        for label, dist in (("h_dist", self.h_dist), ("g_dist", self.g_dist)):
            if isinstance(dist, PerIndex) and len(dist.specs) != self.n_relays:
                raise ConfigurationError(
                    f"{label} per_index length {len(dist.specs)} does not "
                    f"match {self.n_relays} relays"
                )
            elif not isinstance(dist, (Cscg, PointMass, PerIndex)):
                raise ConfigurationError(f"{label} is not a distribution spec")

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
    """Analytic second and fourth magnitude moments per relay index."""

    m2_h: np.ndarray
    m4_h: np.ndarray
    m2_g: np.ndarray
    m4_g: np.ndarray

    def __post_init__(self):
        names = ("m2_h", "m4_h", "m2_g", "m4_g")
        arrays = [np.asarray(getattr(self, name), dtype=float) for name in names]
        n = len(arrays[0])
        if any(len(a) != n for a in arrays):
            raise ConfigurationError("moment arrays must share one length")
        for name, a in zip(names, arrays):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        # One pass over the four arrays stacked as rows m2_h, m4_h, m2_g, m4_g.
        stacked = np.array(arrays)
        if not (stacked > 0).all():
            first = next(name for name, a in zip(names, arrays) if not (a > 0).all())
            raise ConfigurationError(f"{first} entries must be strictly positive")
        m2, m4 = stacked[0::2], stacked[1::2]
        if not (m4 >= m2 * m2 * (1.0 - 1e-12)).all():
            raise ConfigurationError("fourth moments must dominate squared second moments")


def moments(config: NetworkConfig) -> MomentSet:
    """Analytic moment set of the configured fading laws."""
    m2_h, m4_h = spec_moments(config.h_dist, config.n_relays)
    m2_g, m4_g = spec_moments(config.g_dist, config.n_relays)
    return MomentSet(m2_h=m2_h, m4_h=m4_h, m2_g=m2_g, m4_g=m4_g)


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
_MEMORY_ORDER = None
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


# SplitMix64 constants of the trial seed mixer (``montecarlo.derive_seed``).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _derive_seeds(base_seed: int, lo: int, hi: int) -> np.ndarray:
    """``derive_seed(base_seed, t)`` for every trial ``lo <= t < hi``, as a
    uint64 array; the array arithmetic wraps modulo 2**64 like the masks."""
    z = (np.arange(lo + 1, hi + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
         + np.uint64(int(base_seed) & MASK64))
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


@dataclass(frozen=True)
class _TrialSeeds:
    """The seeds ``derive_seed(base_seed, t)`` of the trials ``lo <= t < hi``
    of a run of ``trials`` trials, for :func:`_seeded_normals` to take their
    states from the run's cached trial chunks (:func:`_trial_states`)."""

    base_seed: int
    lo: int
    hi: int
    trials: int

    def __len__(self) -> int:
        return self.hi - self.lo


# Trials per chunk of PCG64 states; the cache keeps the last chunk.
_STATE_CHUNK = 2 ** 14


@lru_cache(maxsize=1)
def _chunk_states(base_seed: int, lo: int, hi: int, order: tuple[int, ...]) -> np.ndarray:
    """:func:`_pcg64_states` of the seeds of trials ``lo <= t < hi``."""
    return _pcg64_states(_derive_seeds(base_seed, lo, hi), order)


def _trial_states(seeds: _TrialSeeds, order: tuple[int, ...]) -> list[np.ndarray]:
    """The states of ``seeds``, as consecutive slices of its run's chunks.

    Chunk ``k`` of a run holds the trials ``k * _STATE_CHUNK`` up to the
    next multiple or the run's end, whichever comes first, so the chunks
    depend on the base seed and the trial count only, not on the block
    sizes that draw from them.  Every point of a sweep, every network size
    and scheme of a ``diagnose`` call and both portions of a heterogeneous
    point run the same trials from the same base seed, one after another,
    so a run of at most 2**14 trials derives its one chunk once.  The cache
    keeps only the last chunk, at most 2**14 rows * 32 B = 512 KiB of
    states.  A longer run derives each chunk once per point, since a point's
    blocks go through the chunks in order, but the next point starts again
    from chunk 0.
    """
    base_seed = int(seeds.base_seed) & MASK64
    pieces = []
    lo = seeds.lo
    while lo < seeds.hi:
        start = lo - lo % _STATE_CHUNK
        end = min(start + _STATE_CHUNK, seeds.trials)
        stop = min(end, seeds.hi)
        chunk = _chunk_states(base_seed, start, end, order)
        pieces.append(chunk[lo - start:stop - start])
        lo = stop
    return pieces


def _seeded_normals(seeds: Union[Sequence[int], _TrialSeeds],
                    count: int) -> np.ndarray:
    """(len(seeds), count) standard normals whose row ``r`` equals
    ``np.random.default_rng(s & MASK64).standard_normal(count)`` for the
    ``r``-th seed ``s``.

    The SeedSequence hash and the PCG64 seeding run over all seeds at once,
    in uint64 lanes; the states of :class:`_TrialSeeds` come from the cache
    of their run's trial chunks (:func:`_trial_states`).  Each thread keeps
    one generator; before each row its 128-bit state and increment are
    written straight into the generator's state memory, in the word order
    that the first call in the process read back from a probe state set
    through the public ``state`` setter.
    """
    global _MEMORY_ORDER
    z = np.empty((len(seeds), count))
    if not z.size:
        return z
    try:
        gen, memory = _THREAD.draw
    except AttributeError:
        import ctypes
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        # bitgen.ctypes.state_address points at NumPy's pcg64_state, whose
        # first field points at the (state, inc) pair.
        pcg_state = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
        memory = (ctypes.c_uint64 * 4).from_address(pcg_state)
        if _MEMORY_ORDER is None:
            probe = bitgen.state
            hi_s, lo_s, hi_inc, lo_inc = _PROBE_WORDS
            probe["state"] = {"state": hi_s << 64 | lo_s, "inc": hi_inc << 64 | lo_inc}
            bitgen.state = probe
            _MEMORY_ORDER = _word_order(memory)
        # gen holds bitgen, which owns the memory the view writes to.
        _THREAD.draw = gen, memory
    if isinstance(seeds, _TrialSeeds):
        pieces = _trial_states(seeds, _MEMORY_ORDER)
    else:
        if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
            seeds = np.array([int(s) & MASK64 for s in seeds], dtype=np.uint64)
        pieces = [_pcg64_states(seeds, _MEMORY_ORDER)]
    states = (state for piece in pieces for state in piece.tolist())
    for row, state in zip(z, states):
        memory[:] = state
        gen.standard_normal(out=row)
    return z


def _sampled_squares(config: NetworkConfig,
                     seeds: Union[Sequence[int], _TrialSeeds],
                     second_hop: bool = True):
    """|h|^2 and |g|^2 of the realizations :func:`sample_realization` draws
    for ``seeds``, as (len(seeds), N) arrays squared straight from the normals.

    Without ``second_hop``, g is not drawn (None is returned in its place) and
    each row draws only its first-hop normals, a prefix of the full draw.
    """
    n = config.n_relays
    count_h = _normal_count(config.h_dist, n)
    count_g = _normal_count(config.g_dist, n) if second_hop else 0
    z = _seeded_normals(seeds, count_h + count_g)
    h2 = _squares_from_normals(config.h_dist, n, z[:, :count_h])
    if not second_hop:
        return h2, None
    return h2, _squares_from_normals(config.g_dist, n, z[:, count_h:])


def sample_realization(config: NetworkConfig, seed: int) -> ChannelRealization:
    """Deterministically draw one channel realization.

    The generator is ``np.random.default_rng`` seeded with the 64-bit value of
    ``seed``; the first-hop gains are drawn before the second-hop gains.
    """
    rng = np.random.default_rng(int(seed) & MASK64)
    n = config.n_relays
    return ChannelRealization(h=sample_channel(config.h_dist, n, rng),
                              g=sample_channel(config.g_dist, n, rng))
