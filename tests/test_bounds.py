import math
import itertools
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from demtrack import bounds as b

REL = 1e-12


class TestGronwallContinuous:
    def test_no_growth(self):
        assert b.gronwall_continuous_bound(1.0, 0.0, 17.3) == 1.0

    def test_closed_form(self):
        assert b.gronwall_continuous_bound(2.0, 1.0, 1.0) == pytest.approx(
            5.4365636569180905, rel=REL
        )

    def test_zero_initial(self):
        assert b.gronwall_continuous_bound(0.0, 3.0, 2.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            b.gronwall_continuous_bound(1.0, 1.0, -0.1)

    def test_envelope_on_constructed_functions(self):
        # x solves the integral relation with equality minus a nonnegative slack,
        # discretized by the trapezoid rule; the exponential bound must dominate.
        rng = np.random.default_rng(5)
        for _ in range(20):
            C = rng.uniform(0.1, 3.0)
            L = rng.uniform(0.0, 2.0)
            h = 0.005
            u = rng.uniform(0.0, C, size=201)
            x = np.empty(201)
            x[0] = C - u[0]
            integral = 0.0
            for j in range(1, 201):
                x[j] = (C + L * (integral + 0.5 * h * x[j - 1]) - u[j]) / (
                    1.0 - 0.5 * L * h
                )
                integral += 0.5 * h * (x[j - 1] + x[j])
            ts = h * np.arange(201)
            assert np.all(x <= C * np.exp(L * ts) * (1 + 1e-9) + 1e-12)


class TestGronwallDiscrete:
    def test_pure_exponential(self):
        assert b.gronwall_discrete_bound(1.0, 0.0, 0.1, 10) == pytest.approx(
            2.7182818284590452, rel=REL
        )

    def test_zero_sequence(self):
        assert b.gronwall_discrete_bound(0.0, 0.0, 1.0, 5) == 0.0

    def test_with_additive_term(self):
        assert b.gronwall_discrete_bound(2.0, 1.0, 0.5, 4) == pytest.approx(
            29.556224395722601, rel=REL
        )

    def test_invalid_a(self):
        with pytest.raises(ValueError):
            b.gronwall_discrete_bound(1.0, 1.0, 0.0, 3)
        with pytest.raises(ValueError):
            b.gronwall_discrete_bound(1.0, 1.0, -1.0, 3)

    @given(
        c=st.floats(0, 5), bb=st.floats(0, 3), a=st.floats(0.01, 1.5),
        m=st.integers(0, 25), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_soundness_on_constructed_sequences(self, c, bb, a, m, seed):
        rng = np.random.default_rng(seed)
        xs = []
        total = 0.0
        for _ in range(m + 1):
            xs.append(c + total - rng.uniform(0.001, 1.0))
            total += a * xs[-1] + bb
        assert xs[m] < b.gronwall_discrete_bound(c, bb, a, m)


class TestStability:
    def test_no_perturbation(self):
        assert b.stability_bound(0.0, 0.0, 2.0, 1.0) == 0.0

    def test_closed_form(self):
        assert b.stability_bound(0.01, 0.001, 1.0, 2.0) == pytest.approx(
            0.088668673187167803, rel=REL
        )

    def test_pure_offset_no_amplification(self):
        assert b.stability_bound(0.25, 0.0, 0.0, 3.0) == 0.25


class TestAzuma:
    def test_vacuous_at_zero(self):
        assert b.azuma_bound(7, 1.0, 0.0) == 2.0

    def test_closed_forms(self):
        assert b.azuma_bound(100, 1.0, 20.0) == pytest.approx(
            0.27067056647322538, rel=REL
        )
        assert b.azuma_bound(50, 2.0, 20.0) == pytest.approx(
            0.73575888234288464, rel=REL
        )

    def test_degenerate_c(self):
        assert b.azuma_bound(10, 0.0, 1.0) == 0.0
        assert b.azuma_bound(10, 0.0, 0.0) == 2.0

    def test_bad_m(self):
        with pytest.raises(ValueError):
            b.azuma_bound(0, 1.0, 1.0)


class TestFailureProbabilities:
    def test_theorem_unit_exponent(self):
        # n=8, lam=1, T=1, beta=1 makes the exponent exactly 1
        assert b.theorem_failure_probability(1, 8, 1.0, 1.0, 1.0) == pytest.approx(
            0.73575888234288464, rel=REL
        )

    def test_theorem_closed_form(self):
        assert b.theorem_failure_probability(2, 10**6, 0.01, 1.0, 1.0) == pytest.approx(
            1.4906612688314684e-05, rel=REL
        )

    def test_theorem_small_lambda_limit(self):
        assert b.theorem_failure_probability(3, 10, 1e-12, 1.0, 1.0) == pytest.approx(
            6.0, rel=1e-9
        )

    def test_freedman_balanced_branches(self):
        # n*lam^2/(4*T*beta*b) = n*lam/(4*beta) = 25 for these parameters
        assert b.freedman_failure_probability(
            1, 10**4, 0.1, 1.0, 10.0, 0.1
        ) == pytest.approx(2.7775887729928041e-11, rel=REL)

    def test_freedman_small_lambda_limit(self):
        assert b.freedman_failure_probability(2, 10, 1e-12, 1.0, 1.0, 1.0) == pytest.approx(
            4.0, rel=1e-6
        )

    def test_freedman_vs_theorem_with_b_equal_beta(self):
        # when the quadratic branch binds, the exponent doubles the plain one
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(10, 10**6))
            T = rng.uniform(0.1, 5.0)
            beta = rng.uniform(0.1, 5.0)
            lam = rng.uniform(1e-6, T * beta)  # quadratic branch binds
            fr = b.freedman_failure_probability(1, n, lam, T, beta, beta)
            th = b.theorem_failure_probability(1, n, lam, T, beta)
            assert fr <= th * (1 + 1e-9)
            expo_fr = min(n * lam**2 / (4 * T * beta**2), n * lam / (4 * beta))
            expo_th = n * lam**2 / (8 * T * beta**2)
            assert expo_fr == pytest.approx(2.0 * expo_th, rel=1e-12)

    @given(
        a=st.integers(1, 5), n=st.integers(1, 10**6),
        lam=st.floats(1e-6, 10), T=st.floats(0.01, 10),
        beta=st.floats(0.01, 10), bb=st.floats(0.001, 10),
    )
    @settings(max_examples=200)
    def test_two_term_form_dominates_min_form(self, a, n, lam, T, beta, bb):
        two = b.freedman_two_term_probability(a, n, lam, T, beta, bb)
        simple = b.freedman_failure_probability(a, n, lam, T, beta, bb)
        assert two <= simple * (1 + 1e-9)

    def test_monotonicity_grid(self):
        # nonincreasing in lam and n; nondecreasing in beta, T, a
        lams = [0.01, 0.05, 0.1]
        ns = [100, 1000, 10000]
        Ts = [0.5, 1.0, 2.0]
        betas = [0.5, 1.0, 2.0]
        for a, n, lam, T, beta in itertools.product([1, 3], ns, lams, Ts, betas):
            base = b.theorem_failure_probability(a, n, lam, T, beta)
            assert b.theorem_failure_probability(a, n, lam * 2, T, beta) <= base
            assert b.theorem_failure_probability(a, n * 2, lam, T, beta) <= base
            assert b.theorem_failure_probability(a, n, lam, T * 2, beta) >= base
            assert b.theorem_failure_probability(a, n, lam, T, beta * 2) >= base
            assert b.theorem_failure_probability(a + 1, n, lam, T, beta) >= base
            fr = b.freedman_failure_probability(a, n, lam, T, beta, 0.3)
            assert b.freedman_failure_probability(a, n, lam * 2, T, beta, 0.3) <= fr
            assert b.freedman_failure_probability(a, n * 2, lam, T, beta, 0.3) <= fr
            tr = b.truncated_failure_probability(a, n, lam, T, beta, 0.001, 1.0)
            assert b.truncated_failure_probability(a, n, lam * 2, T, beta, 0.001, 1.0) <= tr


class TestBinomialTail:
    def test_exact_enumeration_oracle(self):
        # m=2, gamma=0.5: outcomes TT TH HT HH, three have at least one success
        assert b.binomial_tail(2, 0.5, 1) == pytest.approx(0.75, rel=REL)

    def test_certain_event(self):
        assert b.binomial_tail(10, 0.3, 0) == 1.0

    def test_beyond_support(self):
        assert b.binomial_tail(10, 0.3, 11) == 0.0
        with pytest.raises(ValueError):
            b.binomial_tail(10, 0.3, 12)

    def test_degenerate_gamma(self):
        assert b.binomial_tail(5, 0.0, 1) == 0.0
        assert b.binomial_tail(5, 1.0, 5) == 1.0
        with pytest.raises(ValueError):
            b.binomial_tail(5, 1.5, 1)

    def test_against_scipy_survival(self):
        rng = np.random.default_rng(3)
        cases = [(int(rng.integers(1, 200_000)), rng.uniform(0, 1)) for _ in range(40)]
        for m, gamma in cases:
            k = int(rng.integers(0, m + 1))
            ours = b.binomial_tail(m, gamma, k)
            ref = scipy.stats.binom.sf(k - 1, m, gamma)
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_union_bound_remark(self):
        for m, gamma in [(100, 0.001), (2000, 0.0005), (50, 0.02)]:
            exact = b.binomial_tail(m, gamma, 1)
            assert exact == pytest.approx(1 - (1 - gamma) ** m, rel=1e-9)
            assert exact <= b.binomial_tail_remark_bound(m, gamma, 0.0)


class TestTruncatedFailureProbability:
    def test_gamma_zero_reduces_to_plain(self):
        plain = b.theorem_failure_probability(2, 500, 0.1, 1.0, 1.0)
        trunc = b.truncated_failure_probability(2, 500, 0.1, 1.0, 1.0, 0.0, 0.0)
        assert trunc == plain

    def test_x_beyond_support_drops_tail(self):
        plain = b.theorem_failure_probability(1, 100, 0.1, 1.0, 1.0)
        trunc = b.truncated_failure_probability(1, 100, 0.1, 1.0, 1.0, 0.5, 100.0)
        assert trunc == plain

    def test_closed_form(self):
        v = b.truncated_failure_probability(1, 100, 0.5, 1.0, 1.0, 0.01, 0.0)
        assert v == pytest.approx(0.72184152597358533, rel=REL)


class TestErrorEnvelope:
    def test_zero_delta(self):
        assert b.error_envelope(0.3, lambda s: 0.0, 5.0) == pytest.approx(0.3, rel=REL)

    def test_constant_delta(self):
        assert b.error_envelope(0.1, lambda s: 0.5, 4.0) == pytest.approx(2.1, rel=REL)

    def test_linear_delta(self):
        assert b.error_envelope(0.1, lambda s: s, 2.0) == pytest.approx(2.1, rel=REL)

    def test_smooth_delta_accuracy(self):
        # exp integrates to e^t - 1; Simpson with 1024 panels is ~1e-13 here
        v = b.error_envelope(0.0, math.exp, 1.0)
        assert v == pytest.approx(math.e - 1.0, rel=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            b.error_envelope(0.1, lambda s: 0.0, -1.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            b.error_envelope(0.1, lambda s: -1.0, 1.0)

    def test_consistency_inequality_holds_with_equality(self):
        # xi(t) >= integral + lam, and the construction attains equality
        lam, t = 0.2, 1.5
        xi = b.error_envelope(lam, lambda s: s * s, t)
        assert xi == pytest.approx(lam + t**3 / 3.0, rel=1e-10)


def test_exponential_moment_inequality_spot():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        c = rng.uniform(0.01, 5.0)
        lam = rng.uniform(-3.0, 3.0)
        x = rng.uniform(-c, c)
        lhs = math.exp(lam * x)
        rhs = (x / (2 * c)) * (math.exp(lam * c) - math.exp(-lam * c)) + math.exp(
            (lam * c) ** 2 / 2.0
        )
        assert lhs <= rhs + 1e-12


# (evaluator, arguments, message): one bad argument each
REFUSALS = [
    (b.gronwall_discrete_bound, (-1.0, 0.0, 1.0, 1), "c and b must be nonnegative"),
    (b.gronwall_discrete_bound, (1.0, -1.0, 1.0, 1), "c and b must be nonnegative"),
    (b.gronwall_discrete_bound, (1.0, 0.0, 1.0, 1.5), "m must be an integer, got 1.5"),
    (b.gronwall_discrete_bound, (1.0, 0.0, 1.0, True), "m must be an integer, got True"),
    (b.gronwall_discrete_bound, (1.0, 0.0, 1.0, -1), "m must be a nonnegative integer"),
    (b.gronwall_continuous_bound, (1.0, -1.0, 1.0), "L must be nonnegative"),
    (b.stability_bound, (-0.1, 0.0, 1.0, 1.0), "need lam, delta, L >= 0 and T > 0"),
    (b.stability_bound, (0.1, 0.0, 1.0, 0.0), "need lam, delta, L >= 0 and T > 0"),
    (b.azuma_bound, (1, -1.0, 0.0), "c and t must be nonnegative"),
    (b.azuma_bound, (1, 1.0, -1.0), "c and t must be nonnegative"),
    (b.freedman_failure_probability, (1, 10, 0.1, 1.0, 1.0, 0.0), "b must be positive"),
    (b.freedman_two_term_probability, (1, 10, 0.1, 1.0, 1.0, 0.0), "b must be positive"),
    (b.binomial_tail, (-1, 0.5, 0), "m must be nonnegative"),
    (b.binomial_tail_remark_bound, (1, 1.5, 0.0), "gamma must lie in [0, 1]"),
    (b.binomial_tail_remark_bound, (1, 0.5, -1.0), "x must be nonnegative"),
    (b.truncated_failure_probability, (1, 10, 0.1, 1.0, 1.0, 0.1, -1.0), "x must be nonnegative"),
    (b.theorem_failure_probability, (0, 10, 0.1, 1.0, 1.0), "a and n must be positive integers"),
    (b.theorem_failure_probability, (1, 0, 0.1, 1.0, 1.0), "a and n must be positive integers"),
    (b.theorem_failure_probability, (1, 10, 0.0, 1.0, 1.0), "lambda must be positive"),
    (b.theorem_failure_probability, (1, 10, 0.1, 0.0, 1.0), "T and beta must be positive"),
    (b.theorem_failure_probability, (1, 10, 0.1, 1.0, 0.0), "T and beta must be positive"),
]


@pytest.mark.parametrize(
    "evaluator,args,message", REFUSALS, ids=[f"{f.__name__}{args}" for f, args, _ in REFUSALS]
)
def test_argument_refusals(evaluator, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluator(*args)
