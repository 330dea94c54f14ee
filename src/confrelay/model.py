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
it runs NumPy's SeedSequence hash and PCG64 seeding over all seeds at once and
reseeds one generator per row.  This relies on NumPy's fixed SeedSequence/PCG64
seeding algorithm; ``TestSeededNormals`` checks the rows against ``default_rng``
seed by seed, and ``test_sampled_squares_match_sampled_gains`` checks the
engine's squares against ``sample_realization``.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

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
    moments are E|h|^2 = variance and E|h|^4 = 2 * variance^2.
    """

    variance: float

    def __post_init__(self):
        if not 0.0 < self.variance < math.inf:
            raise ConfigurationError(
                f"cscg variance must be finite and positive, got {self.variance}"
            )


@dataclass(frozen=True)
class PointMass:
    """Deterministic channel equal to ``value`` (used for exact fixtures)."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        if not cmath.isfinite(self.value):
            raise ConfigurationError(
                f"point_mass value must be finite, got {self.value}")
        if abs(self.value) == 0:
            raise ConfigurationError("point_mass value must be nonzero")


@dataclass(frozen=True)
class PerIndex:
    """Independent, non-identical law per relay index."""

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
    def _layout(self):
        """Relay indices and scales of the Gaussian entries, and the rest."""
        gauss = [i for i, s in enumerate(self.specs) if isinstance(s, Cscg)]
        mass = [i for i, s in enumerate(self.specs) if isinstance(s, PointMass)]
        scale = np.array([math.sqrt(self.specs[i].variance / 2.0) for i in gauss])
        values = np.array([self.specs[i].value for i in mass], dtype=complex)
        return np.array(gauss, dtype=np.intp), scale, np.array(mass, dtype=np.intp), values

    @cached_property
    def _powers(self):
        """Half variances of the Gaussian entries and |value|^2 of the point
        masses, in the order of :attr:`_layout`."""
        gauss, _, _, values = self._layout
        half = np.array([self.specs[i].variance / 2.0 for i in gauss])
        return half, _abs2(values)


DistributionSpec = Union[Cscg, PointMass, PerIndex]


def spec_moments(spec: DistributionSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (E|h|^2, E|h|^4) per index for a channel of length ``n``."""
    if isinstance(spec, Cscg):
        m2 = np.full(n, spec.variance, dtype=float)
        return m2, 2.0 * m2 * m2
    if isinstance(spec, PointMass):
        m2 = np.full(n, abs(spec.value) ** 2, dtype=float)
        return m2, m2 * m2
    if isinstance(spec, PerIndex):
        _check_length(spec, n)
        gauss = np.array([isinstance(s, Cscg) for s in spec.specs])
        m2 = np.array([s.variance if isinstance(s, Cscg) else abs(s.value) ** 2
                       for s in spec.specs], dtype=float)
        return m2, np.where(gauss, 2.0 * m2 * m2, m2 * m2)
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
        return 2 * len(spec._layout[0])
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
        gauss, scale, mass, values = spec._layout
        out.real[..., gauss] = scale * z[..., 0::2]
        out.imag[..., gauss] = scale * z[..., 1::2]
        out[..., mass] = values
    return out


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
    gauss, _, mass, _ = spec._layout
    half, mass_power = spec._powers
    out = np.empty(z.shape[:-1] + (n,))
    out[..., gauss] = half * (z[..., 0::2] + z[..., 1::2])
    out[..., mass] = mass_power
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
        if np.isscalar(self.conf_gain):
            if not 0.0 < self.conf_gain < math.inf:
                raise ConfigurationError(
                    f"conf_gain must be finite and positive, got {self.conf_gain}")
            object.__setattr__(self, "conf_gain", float(self.conf_gain))
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

    @property
    def m_conf(self) -> int:
        """Derived conferencing neighbor count M."""
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
        arrays = {}
        for name in ("m2_h", "m4_h", "m2_g", "m4_g"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            arrays[name] = a
            object.__setattr__(self, name, a)
        n = len(arrays["m2_h"])
        if any(len(a) != n for a in arrays.values()):
            raise ConfigurationError("moment arrays must share one length")
        for name, a in arrays.items():
            if not np.all(a > 0):
                raise ConfigurationError(f"{name} entries must be strictly positive")
        for m2, m4 in ((arrays["m2_h"], arrays["m4_h"]),
                       (arrays["m2_g"], arrays["m4_g"])):
            if not np.all(m4 >= m2 * m2 * (1.0 - 1e-12)):
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
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> _SHIFT)


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) that ``np.random.PCG64(seed)`` starts from, per uint64 seed."""
    # The entropy is the seed's low and high 32-bit words; the rest of the
    # pool hashes zeros.
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, *_FILL_HASH)
    for xor, mul in _MIX_HASH:
        # Mix the first word into the other three, then rotate the next source
        # word to the front; four steps restore index order.
        x = _MIX_L * pool[1:] - _MIX_R * _hashmix(pool[0], xor, mul)
        pool = np.concatenate((x ^ (x >> _SHIFT), pool[:1]))
    out = _hashmix(np.concatenate((pool, pool)), *_OUT_HASH).astype(np.uint64)
    # Little-endian pairs of output words give PCG64's four 64-bit seed words:
    # the initial state w0:w1 and the stream w2:w3, applied by two LCG steps
    # from state 0.
    states = []
    for w0, w1, w2, w3 in (out[0::2] | out[1::2] << np.uint64(32)).T.tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        states.append(((((w0 << 64 | w1) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _seeded_normals(seeds: Sequence[int], count: int) -> np.ndarray:
    """(len(seeds), count) standard normals whose row ``r`` equals
    ``np.random.default_rng(int(seeds[r]) & MASK64).standard_normal(count)``.

    The SeedSequence hash and the PCG64 seeding run over all seeds at once,
    and one generator draws every row from its reseeded state.
    """
    z = np.empty((len(seeds), count))
    if not z.size:
        return z
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        words = seeds
    else:
        words = np.array([int(s) & MASK64 for s in seeds], dtype=np.uint64)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for row, (s, inc) in zip(z, _pcg64_states(words)):
        state["state"] = {"state": s, "inc": inc}
        bitgen.state = state
        gen.standard_normal(out=row)
    return z


def _sampled_squares(config: NetworkConfig, seeds: Sequence[int],
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
