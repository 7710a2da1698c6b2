import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetric.rng import (
    SplitMix64,
    beta_variate,
    binomial,
    gamma_variate,
    lognormal,
    normal,
    stream_seed,
)

# Reference outputs of the published SplitMix64 algorithm for two seeds.
# Any transcription error in the mixing constants breaks these.
VECTORS = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
        1961750202426094747,
    ],
    1234567: [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ],
}


class TestSplitMix64:
    @pytest.mark.parametrize("seed", sorted(VECTORS))
    def test_reference_vectors(self, seed):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in VECTORS[seed]] == VECTORS[seed]

    def test_seed_reduced_mod_2_64(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()

    def test_determinism(self):
        a = SplitMix64(987)
        b = SplitMix64(987)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_random_ranges(self):
        rng = SplitMix64(3)
        for _ in range(2000):
            u = rng.random()
            assert 0.0 <= u < 1.0
        for _ in range(2000):
            v = rng.random_open()
            assert 0.0 < v <= 1.0

    def test_random_has_53_bit_granularity(self):
        rng = SplitMix64(3)
        u = rng.random()
        assert u == Fraction(int(u * 2**53), 2**53)


class TestStreamSeed:
    def test_matches_sequential_outputs(self):
        rng = SplitMix64(42)
        assert [stream_seed(42, i) for i in range(8)] == [rng.next_u64() for _ in range(8)]

    def test_random_access_order_independent(self):
        forward = [stream_seed(7, i) for i in range(64)]
        backward = [stream_seed(7, i) for i in reversed(range(64))]
        assert forward == backward[::-1]

    def test_distinct_across_indices(self):
        seeds = {stream_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000


class TestContinuousSamplers:
    def test_normal_moments(self):
        rng = SplitMix64(11)
        xs = [normal(rng) for _ in range(50_000)]
        m = sum(xs) / len(xs)
        sd = math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))
        assert abs(m) < 0.02
        assert abs(sd - 1.0) < 0.02
        assert abs(sum(x > 0 for x in xs) / len(xs) - 0.5) < 0.01

    def test_lognormal_moments(self):
        mu, sigma = 0.5, 0.25
        rng = SplitMix64(12)
        xs = [lognormal(rng, mu, sigma) for _ in range(40_000)]
        assert min(xs) > 0.0
        expected = math.exp(mu + sigma * sigma / 2.0)
        assert sum(xs) / len(xs) == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 4.0, 9.0])
    def test_gamma_moments(self, shape):
        rng = SplitMix64(13)
        xs = [gamma_variate(rng, shape) for _ in range(30_000)]
        assert min(xs) > 0.0
        m = sum(xs) / len(xs)
        var = sum((x - m) ** 2 for x in xs) / (len(xs) - 1)
        assert m == pytest.approx(shape, rel=0.03)
        assert var == pytest.approx(shape, rel=0.08)

    def test_gamma_rejects_bad_shape(self):
        rng = SplitMix64(1)
        with pytest.raises(ValueError):
            gamma_variate(rng, 0.0)
        with pytest.raises(ValueError):
            gamma_variate(rng, -2.0)

    def test_beta_moments_and_range(self):
        alpha, beta = 9.0, 1.4
        rng = SplitMix64(14)
        xs = [beta_variate(rng, alpha, beta) for _ in range(30_000)]
        assert all(0.0 < x < 1.0 for x in xs)
        mean = alpha / (alpha + beta)
        var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0))
        m = sum(xs) / len(xs)
        s2 = sum((x - m) ** 2 for x in xs) / (len(xs) - 1)
        assert m == pytest.approx(mean, abs=0.005)
        assert s2 == pytest.approx(var, rel=0.08)

    def test_beta_symmetric_case_centered(self):
        rng = SplitMix64(15)
        xs = [beta_variate(rng, 2.0, 2.0) for _ in range(20_000)]
        assert sum(xs) / len(xs) == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("alpha, beta", [(1e-300, 1e-300), (1e-15, 1e-15), (4.9e-9, 4.9e-9), (1e-300, 9.9e-9)])
    def test_beta_rejects_a_shape_sum_below_1e_8(self, alpha, beta):
        # Each try succeeds with odds of about 744 * (alpha + beta).
        with pytest.raises(FloatingPointError, match=rf"^Beta\({alpha}, {beta}\) .* below 1e-08$"):
            beta_variate(SplitMix64(1), alpha, beta)

    def test_beta_with_one_tiny_shape_still_draws(self):
        # The other gamma variate is almost never 0, so the draw ends at once.
        rng = SplitMix64(16)
        assert [beta_variate(rng, 1e-300, 1.0) for _ in range(5)] == [0.0] * 5
        assert [beta_variate(rng, 1.0, 1e-300) for _ in range(5)] == [1.0] * 5


class _FixedU:
    """Stand-in RNG whose single uniform draw is chosen by the test."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def binomial_pmf(n: int, k: int, p: float) -> float:
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


class TestBinomial:
    def test_validation(self):
        rng = SplitMix64(1)
        with pytest.raises(ValueError):
            binomial(rng, -1, 0.5)
        with pytest.raises(ValueError):
            binomial(rng, 10, -0.1)
        with pytest.raises(ValueError):
            binomial(rng, 10, 1.1)

    def test_degenerate_cases_consume_nothing(self):
        rng = SplitMix64(1)
        before = rng._state
        assert binomial(rng, 0, 0.5) == 0
        assert binomial(rng, 9, 0.0) == 0
        assert binomial(rng, 9, 1.0) == 9
        assert rng._state == before

    @given(st.integers(0, 60), st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
    @settings(max_examples=200)
    def test_result_in_support(self, n, p, seed):
        k = binomial(SplitMix64(seed), n, p)
        assert 0 <= k <= n

    def test_induced_measure_matches_exact_pmf(self):
        # The sampler maps one uniform to an outcome; sweeping u over a fine
        # grid recovers each outcome's probability to within the grid pitch.
        n, p = 23, 0.37
        grid = 200_000
        counts = [0] * (n + 1)
        for i in range(grid):
            u = (i + 0.5) / grid
            counts[binomial(_FixedU(u), n, p)] += 1
        for k in range(n + 1):
            assert counts[k] / grid == pytest.approx(binomial_pmf(n, k, p), abs=2.0 / grid + 1e-9)

    def test_distribution_small_n(self):
        n, p, draws = 12, 0.3, 20_000
        rng = SplitMix64(99)
        freq = [0] * (n + 1)
        for _ in range(draws):
            freq[binomial(rng, n, p)] += 1
        for k in range(n + 1):
            assert freq[k] / draws == pytest.approx(binomial_pmf(n, k, p), abs=0.012)

    def test_large_n_moments(self):
        # The regime that breaks walk-from-zero inversion: (1-p)^n underflows.
        n, p, draws = 27_000, 0.87, 2_000
        rng = SplitMix64(4242)
        xs = [binomial(rng, n, p) for _ in range(draws)]
        mean = n * p
        sd = math.sqrt(n * p * (1.0 - p))
        m = sum(xs) / draws
        assert abs(m - mean) < 4.0 * sd / math.sqrt(draws)
        s = math.sqrt(sum((x - m) ** 2 for x in xs) / (draws - 1))
        assert s == pytest.approx(sd, rel=0.1)

    def test_extreme_u_hits_tails(self):
        n, p = 40, 0.5
        assert binomial(_FixedU(1.0 - 2.0**-53), n, p) in (0, n)
        lo = binomial(_FixedU(0.0), n, p)
        assert lo == int((n + 1) * p)  # u=0 lands on the mode
