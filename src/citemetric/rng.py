"""Portable deterministic sampling for synthetic corpora.

Everything here is built on SplitMix64 (Sebastiano Vigna's public-domain
reference, https://prng.di.unimi.it/splitmix64.c): a 64-bit counter stepped by
the golden-ratio gamma and passed through a fixed mixing function. It is
reproducible from a seed across platforms and languages, unlike the stdlib
``random`` module, whose distribution sampling is not a stable contract.

Distribution samplers deliberately avoid platform library code:

- normal: Box-Muller transform, one variate per pair of uniforms (the sine
  partner is discarded so no state is cached between calls).
- gamma: Marsaglia & Tsang (2000) squeeze/rejection, with the standard
  u^(1/shape) boost for shape < 1.
- beta: ratio of two gamma variates, redrawn while both underflow to 0.0;
  shapes with alpha + beta below 1e-8, whose redraws would take over 1.3e5
  tries, raise instead.
- binomial: single-uniform inversion by sequential search over the pmf,
  started at the distribution mode and walking outward alternately; the
  mode start keeps the search O(sqrt(n p q)) and avoids the underflow of
  (1-p)^n that kills a walk from zero at large n.

Exact uniform-consumption order is part of the output contract; see the
per-function notes.
"""

from __future__ import annotations

import math

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: The least ``alpha + beta`` a Beta draw accepts. At a tiny shape a, a gamma
#: variate is nonzero only when its boost uniform exceeds about exp(-744 * a)
#: (exp(-745) is below the least subnormal), odds of about 744 * a. So a Beta
#: try succeeds with odds of about 744 * (alpha + beta), and below this sum a
#: draw expects over 1.3e5 tries.
_MIN_BETA_SHAPE_SUM = 1e-8


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream; ``seed`` is reduced mod 2**64."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _M64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _M64
        return _mix(self._state)

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def random_open(self) -> float:
        """Uniform in (0, 1]; safe as a log() argument."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53


def stream_seed(master_seed: int, index: int) -> int:
    """Seed for independent sub-stream ``index`` (0-based).

    Defined as output ``index`` of a SplitMix64 seeded with ``master_seed``,
    computed by random access, so sub-streams can be derived in any order or
    in parallel with identical results.
    """
    return _mix((master_seed + (index + 1) * _GOLDEN) & _M64)


def normal(rng: SplitMix64) -> float:
    """Standard normal variate. Consumes exactly 2 uniforms."""
    u1 = rng.random_open()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def lognormal(rng: SplitMix64, mu: float, sigma: float) -> float:
    """exp(mu + sigma * Z). Consumes exactly 2 uniforms."""
    return math.exp(mu + sigma * normal(rng))


def gamma_variate(rng: SplitMix64, shape: float) -> float:
    """Gamma(shape, 1) variate; rejection loops consume a variable but
    seed-determined number of uniforms."""
    if shape <= 0.0:
        raise ValueError(f"shape must be positive, got {shape}")
    if shape < 1.0:
        # Boost: Gamma(a) = Gamma(a + 1) * U^(1/a)
        return gamma_variate(rng, shape + 1.0) * rng.random_open() ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = normal(rng)
        t = 1.0 + c * x
        if t <= 0.0:
            continue
        v = t * t * t
        u = rng.random_open()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def beta_variate(rng: SplitMix64, alpha: float, beta: float) -> float:
    """Beta(alpha, beta) variate as Ga/(Ga+Gb), drawn again while both
    gamma variates underflow to 0.0.

    Raises:
        FloatingPointError: ``alpha + beta`` below ``_MIN_BETA_SHAPE_SUM``
            (1e-8), where that redraw would take over 1.3e5 tries.
    """
    if alpha + beta < _MIN_BETA_SHAPE_SUM:
        raise FloatingPointError(f"Beta({alpha}, {beta}) draws underflow to 0/0: alpha + beta is below {_MIN_BETA_SHAPE_SUM}")
    while True:
        x = gamma_variate(rng, alpha)
        y = gamma_variate(rng, beta)
        if x + y > 0.0:  # guard against double underflow at tiny shapes
            return x / (x + y)


def binomial(rng: SplitMix64, n: int, p: float) -> int:
    """Binomial(n, p) variate by mode-started inversion. Consumes exactly
    1 uniform (0 for the degenerate p=0/p=1/n=0 cases)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    mode = min(n, int((n + 1) * p))
    q = 1.0 - p
    log_pm = (
        math.lgamma(n + 1)
        - math.lgamma(mode + 1)
        - math.lgamma(n - mode + 1)
        + mode * math.log(p)
        + (n - mode) * math.log1p(-p)
    )
    pm = math.exp(log_pm)
    u = rng.random()
    acc = pm
    if u < acc:
        return mode
    lo_k, lo_p = mode, pm  # lower wing: pmf at lo_k
    hi_k, hi_p = mode, pm  # upper wing: pmf at hi_k
    while lo_k > 0 or hi_k < n:
        if lo_k > 0:
            lo_p *= lo_k * q / ((n - lo_k + 1) * p)
            lo_k -= 1
            acc += lo_p
            if u < acc:
                return lo_k
        if hi_k < n:
            hi_p *= (n - hi_k) * p / ((hi_k + 1) * q)
            hi_k += 1
            acc += hi_p
            if u < acc:
                return hi_k
    # Rounding can leave acc a hair below 1; assign the residual to the far
    # upper tail deterministically.
    return n
