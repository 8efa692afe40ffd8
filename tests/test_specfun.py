import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxheat import specfun
from fluxheat.specfun import _exp_moment_series, erf, exp_moment, exp_moment_parts, gamma_half

SQRT_PI = math.sqrt(math.pi)


class TestGammaHalf:
    def test_base_cases(self):
        assert gamma_half(0.5) == SQRT_PI
        assert gamma_half(1) == 1.0
        assert gamma_half(Fraction(1, 2)) == SQRT_PI

    def test_examples(self):
        assert gamma_half(1.5) == pytest.approx(SQRT_PI / 2, rel=1e-15)
        assert gamma_half(2.5) == pytest.approx(3 * SQRT_PI / 4, rel=1e-15)
        assert gamma_half(4) == 6.0

    @given(st.integers(min_value=1, max_value=60))
    def test_recurrence_exact(self, twice_z):
        z = twice_z / 2.0
        # Gamma(z+1) = z * Gamma(z), bitwise after the single rounding
        assert gamma_half(z + 1.0) == z * gamma_half(z)

    def test_against_math_gamma(self):
        # 4 ulp over the argument range the closed forms use
        for twice in range(1, 41):
            z = twice / 2.0
            assert gamma_half(z) == pytest.approx(math.gamma(z), rel=9e-16)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_half(0)
        with pytest.raises(ValueError):
            gamma_half(-1.5)
        with pytest.raises(ValueError):
            gamma_half(0.3)


def erf_series_oracle(x: float) -> float:
    # (2/sqrt(pi)) int_0^x exp(-s^2) ds by the entire power series
    total, term = 0.0, x
    k = 0
    while abs(term) > 1e-20 * (1 + abs(total)):
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
    return 2.0 / SQRT_PI * total


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_saturation(self):
        for x in (6.0, 8.0, 20.0):
            assert abs(erf(x) - 1.0) <= 1e-15

    def test_quadrature_oracle_value(self):
        # frozen from the series oracle
        assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-15)

    @given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=200)
    def test_matches_series_oracle(self, x):
        # the alternating series oracle is well conditioned only for |x| <= 2
        assert erf(x) == pytest.approx(erf_series_oracle(x), abs=1e-14)

    def test_matches_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 30
        for x in (-6.0, -3.1, -0.7, 0.3, 1.9, 2.5, 4.2, 5.8):
            assert abs(erf(x) - float(mpmath.erf(x))) <= 1e-14

    @given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def test_odd_symmetry_exact(self, x):
        assert erf(-x) == -erf(x)

    @given(
        st.floats(min_value=-6, max_value=6),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_monotone(self, x, step):
        assert erf(x + step) >= erf(x)


def simpson_oracle(n: int, a: float, t: float, panels: int = 4000) -> float:
    h = t / panels
    total = 0.0
    for i in range(panels):
        lo = i * h
        mid = lo + h / 2
        hi = lo + h
        f = lambda s: s ** n * math.exp(a * s)  # noqa: E731
        total += h / 6 * (f(lo) + 4 * f(mid) + f(hi))
    return total


class TestExpMoment:
    def test_trivial_examples(self):
        assert exp_moment(1, 0.0, 2.0) == pytest.approx(2.0, rel=1e-15)
        assert exp_moment(0, 1.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_quadrature_example(self):
        assert exp_moment(3, -2.0, 1.5) == pytest.approx(
            simpson_oracle(3, -2.0, 1.5), abs=1e-10
        )

    @given(
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=-8.0, max_value=8.0),
        st.floats(min_value=1e-3, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_quadrature(self, n, a, t):
        v = exp_moment(n, a, t)
        o = simpson_oracle(n, a, t)
        assert abs(v - o) <= 1e-10 * (1.0 + abs(v))

    def test_small_rate_regime(self):
        # the near-zero-rate regime where the alternating closed form
        # catastrophically cancels
        for n in (0, 1, 4):
            for z in (1e-12, 1e-9, 1e-7, 1e-4):
                t = 2.0
                a = z / t
                v = exp_moment(n, a, t)
                exact = sum(
                    a ** j * t ** (n + j + 1) / (math.factorial(j) * (n + j + 1))
                    for j in range(6)
                )
                assert v == pytest.approx(exact, rel=1e-13)

    def test_large_rate_branches(self):
        # both sides of the series/closed-form crossover against mpmath
        import mpmath

        mpmath.mp.dps = 40
        for n in (0, 2, 5):
            for z in (-31.0, -29.0, 29.0, 31.0):
                a, t = z / 2.0, 2.0
                want = float(
                    mpmath.quad(lambda s: s ** n * mpmath.e ** (a * s), [0, t])
                )
                assert exp_moment(n, a, t) == pytest.approx(want, rel=1e-12)

    def test_huge_positive_rate_is_inf(self):
        assert exp_moment(2, 3.0, 300.0) == math.inf

    def test_huge_negative_rate(self):
        assert exp_moment(3, -2.0, 1e8) == pytest.approx(
            math.factorial(3) / 2 ** 4, rel=1e-13
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exp_moment(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            exp_moment(1, 1.0, -2.0)
        with pytest.raises(ValueError):
            exp_moment(-1, 1.0, 1.0)


@pytest.fixture
def cold_memo():
    """The exp_moment memo emptied, so the test sees every evaluation."""
    specfun._exp_moment_of.cache_clear()


class TestExpMomentMemo:
    """exp_moment is memoised per value of (n, a, t): a hit returns the bits
    the evaluator would."""

    @pytest.mark.parametrize(
        "n, a, t",
        [
            (2, 0.0, 1.5),  # a == 0
            (2, -0.0, 1.5),
            (3, 0.7, 2.0),  # series, z >= 0
            (3, -0.3, 2.0),  # series, -1 <= z < 0
            (3, -2.0, 1.5),  # tail, z < -1
            (2, 20.0, 2.0),  # closed form past the crossover, both signs
            (2, -20.0, 2.0),
            (0, 350.0, 2.0),  # inf at z >= 700
            (2, 3.0, 300.0),
        ],
    )
    def test_warm_is_bitwise_cold(self, cold_memo, n, a, t):
        cold = exp_moment(n, a, t)
        hits = specfun._exp_moment_of.cache_info().hits
        warm = exp_moment(n, a, t)
        assert specfun._exp_moment_of.cache_info().hits == hits + 1
        uncached = specfun._exp_moment_of.__wrapped__(n, a, t)
        assert warm.hex() == cold.hex() == uncached.hex()

    def test_signed_zero_rates_share_a_key(self, cold_memo):
        assert exp_moment(2, 0.0, 1.5).hex() == exp_moment(2, -0.0, 1.5).hex()
        assert specfun._exp_moment_of.cache_info().currsize == 1

    def test_numeric_types_share_a_key(self, cold_memo):
        values = [
            exp_moment(2, 1, 3),
            exp_moment(2.0, 1.0, 3.0),
            exp_moment(np.int64(2), np.float64(1.0), np.float64(3.0)),
            exp_moment(np.array(2), np.array(1.0), np.array(3.0)),
        ]
        assert {v.hex() for v in values} == {values[0].hex()}
        info = specfun._exp_moment_of.cache_info()
        assert (info.currsize, info.hits) == (1, 3)

    def test_invalid_call_stores_nothing(self, cold_memo):
        exp_moment(1, 1.0, 1.0)
        for n, t in [(1, 0.0), (1, -0.0), (1, -2.0), (-1, 1.0), (1.5, 1.0)]:
            with pytest.raises(ValueError):
                exp_moment(n, 1.0, t)
        assert specfun._exp_moment_of.cache_info().currsize == 1

    def test_memo_is_bounded(self, cold_memo):
        maxsize = specfun._exp_moment_of.cache_info().maxsize
        for i in range(maxsize + 100):
            exp_moment(0, 1e-3 * i, 1.0)
        assert specfun._exp_moment_of.cache_info().currsize == maxsize


def signed_series(n: int, z: float) -> float:
    """The single signed loop that _exp_moment_series splits on the sign of z."""
    term = 1.0
    total = 1.0 / (n + 1)
    for j in range(1, 600):
        term *= z / j
        contrib = term / (n + j + 1)
        total += contrib
        if abs(contrib) <= abs(total) * 1e-17:
            return total
    raise ArithmeticError("no convergence")


class TestExpMomentSeries:
    @pytest.mark.parametrize("n", range(9))
    def test_bitwise_signed_loop(self, n):
        for z in (-1.0, -0.37, -1e-300, -0.0, 0.0, math.ulp(0.0), 1e-300, 1.0, 30.0, 2.0 * n + 4.0):
            assert _exp_moment_series(n, z).hex() == signed_series(n, z).hex(), z

    def test_bitwise_signed_loop_random(self):
        rng = random.Random(2468)
        for _ in range(2000):
            n = rng.randrange(9)
            z = rng.uniform(-1.0, 2.0 * n + 4.0)
            assert _exp_moment_series(n, z).hex() == signed_series(n, z).hex(), (n, z)


class TestExpMomentParts:
    @given(
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=-4.0, max_value=4.0).filter(lambda a: abs(a) > 1e-3),
        st.floats(min_value=0.05, max_value=5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_consistent_with_exp_moment(self, n, a, t):
        poly, const = exp_moment_parts(n, a)
        val = math.exp(a * t) * sum(c * t ** j for j, c in enumerate(poly)) + const
        # tolerance scaled by the conditioning of the cancelling expansion
        cond = math.exp(a * t) * sum(abs(c) * t ** j for j, c in enumerate(poly))
        cond += abs(const)
        assert abs(val - exp_moment(n, a, t)) <= 1e-13 * cond + 1e-15

    def test_vanishes_at_zero(self):
        for n in (0, 1, 3):
            poly, const = exp_moment_parts(n, 1.7)
            assert poly[0] + const == pytest.approx(0.0, abs=1e-16)

    def test_requires_nonzero_rate(self):
        with pytest.raises(ValueError):
            exp_moment_parts(2, 0.0)
