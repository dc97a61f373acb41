import math

import numpy as np
import pytest

from schedseq.random_schemes import (
    AssignTRandomParams,
    CouponModel,
    GeneralRandomParams,
    bisect_step,
    coupon_cdf,
    frame_length,
    group_cdf,
    optimal_single_channel,
    optimize_random,
    p_success_assignT,
    p_success_general,
)


def mc_collection_times(K: int, P: float, trials: int, rng, nodes: int = 1) -> np.ndarray:
    """Monte-Carlo coupon collection via independent geometric stages.

    With c of the K-1 coupons collected, the wait for a new one is
    geometric with success probability (K-1-c) * P.  This samples the
    same process the alternating-sum formula describes, by a different
    route.  Returns per-trial times, maxed over `nodes` independent
    collectors.
    """
    out = np.zeros(trials, dtype=np.int64)
    chunk = 200_000
    for start in range(0, trials, chunk):
        n = min(chunk, trials - start)
        y = np.zeros((n, nodes), dtype=np.int64)
        for c in range(K - 1):
            y += rng.geometric((K - 1 - c) * P, size=(n, nodes))
        out[start:start + n] = y.max(axis=1)
    return out


def dp_cdf(K: int, P: float, horizon: int) -> np.ndarray:
    """Single-node CDF for ell = 0..horizon by an exact per-slot recursion.

    Forward recursion over all K states "c coupons collected", the last
    one absorbing; the CDF is the absorbed mass, so it shares no code or
    arithmetic route with the library's tail of matrix powers.
    """
    left = K - 1 - np.arange(K - 1)
    stay = 1 - left * P
    probs = np.zeros(K)
    probs[0] = 1.0
    out = np.empty(horizon + 1)
    for t in range(horizon + 1):
        out[t] = probs[K - 1]
        moved = probs[:-1] * left * P
        probs[:-1] *= stay
        probs[1:] += moved
    return out


def inclusion_exclusion_cdf(K: int, P: float, ell: int) -> float:
    """Single-node CDF by the alternating inclusion-exclusion sum.

    The sum cancels away precision as the binomial coefficients grow,
    worst while every term is near 1: at K=30 it is off by 1e-8 for
    ell < K and by 6e-12 for ell >= 3K.  So it is an oracle for K <= 30
    and ell >= 3K only.  Compensated summation keeps the cancellation
    from getting worse.
    """
    n = K - 1
    p0 = 1 - n * P
    total = 0.0
    comp = 0.0
    for i in range(n):
        term = (-1.0) ** (n - 1 - i) * math.comb(n, i) * (((n - i) * p0 + i) / n) ** ell
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return 1.0 - total


class TestSuccessProbabilities:
    def test_general_two_nodes(self):
        assert p_success_general(1, 2, 0.5) == pytest.approx(0.25)

    def test_general_closed_form_at_inverse_K(self):
        for K in (3, 5, 10, 24):
            want = (K - 1) ** (K - 1) / K ** K
            assert p_success_general(1, K, 1 / K) == pytest.approx(want, rel=1e-12)

    def test_general_monotone_in_W(self):
        for K in (5, 10, 18):
            values = [p_success_general(W, K, 0.04) for W in range(1, 6)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_assign_t_value(self):
        want = 0.1 * 0.9 ** 5 / 1.9
        assert p_success_assignT(2, 10, 0.1) == pytest.approx(want, rel=1e-12)

    def test_assign_t_single_channel_collapse(self):
        for K in (4, 9, 15):
            for p in (0.05, 0.2, 0.5):
                assert p_success_assignT(1, K, p) == pytest.approx(
                    p * (1 - p) ** (K - 1), rel=1e-12)

    def test_assign_t_monotone_in_W(self):
        for K in (10, 20):
            values = [p_success_assignT(W, K, 0.05) for W in range(1, 6)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_assign_t_probabilities_sum_to_one(self):
        params = AssignTRandomParams(3, 12, 0.15)
        total = params.p_b + params.q_1 + (params.W - 1) * params.q_2
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GeneralRandomParams(2, 10, 0.6)  # p_a >= 1/W
        with pytest.raises(ValueError):
            GeneralRandomParams(2, 10, 0.0)
        with pytest.raises(ValueError):
            AssignTRandomParams(2, 10, 1.0)
        with pytest.raises(ValueError):
            AssignTRandomParams(0, 10, 0.1)


class TestBisectStep:
    @pytest.mark.parametrize("lo,hi,step", [
        (0.0, 1.0, 0.3),
        (0.0, 1.0, 5e-324),        # the smallest subnormal
        (0.0, 1.0, 0.0),           # true everywhere inside
        (0.0, 1.0, 2.0),           # true nowhere inside
        (0.25, 0.5, 0.4),
        (0.5, float(np.nextafter(0.5, 1.0)), 0.0),  # nothing lies between
    ])
    def test_adjacent_doubles_around_the_step(self, lo, hi, step):
        seen = []

        def above(x: float) -> bool:
            seen.append(x)
            return x >= step
        a, b = bisect_step(above, lo, hi)
        assert all(lo < x < hi for x in seen)
        assert lo <= a < b <= hi and np.nextafter(a, 2.0) == b
        assert a == lo or a < step
        assert b == hi or b >= step


class TestOptimizeRandom:
    @pytest.mark.parametrize("scheme", ["general", "assign_t"])
    @pytest.mark.parametrize("K", [2, 5, 10, 18, 24])
    def test_single_channel_matches_closed_form(self, scheme, K):
        p_star, P_star = optimize_random(1, K, scheme)
        want_p, want_P = optimal_single_channel(K)
        assert abs(p_star - want_p) < 1e-9
        assert abs(P_star - want_P) < 1e-12
        # flat first derivative of p (1-p)^(K-1) at the reported optimum
        d = (1 - p_star) ** (K - 2) * (1 - K * p_star)
        assert abs(d) < 1e-8

    def test_two_nodes(self):
        p_star, P_star = optimize_random(1, 2, "general")
        assert p_star == pytest.approx(0.5, abs=1e-9)
        assert P_star == pytest.approx(0.25, abs=1e-12)

    def test_multi_channel_against_dense_grid(self):
        for W, K, scheme in [(2, 10, "assign_t"), (3, 18, "assign_t"), (2, 10, "general")]:
            p_star, P_star = optimize_random(W, K, scheme)
            f = (p_success_assignT if scheme == "assign_t" else p_success_general)
            hi = 1.0 if scheme == "assign_t" else 1 / W
            grid = np.linspace(hi / 10 ** 5, hi - hi / 10 ** 5, 10 ** 5)
            dense_best = max(f(W, K, float(p)) for p in grid)
            assert P_star >= dense_best - 1e-12
            assert f(W, K, p_star) == pytest.approx(P_star)

    @pytest.mark.parametrize("W,K,scheme,want", [
        (3, 18, "assign_t", (0.14921894064178787, 0.01985029496477254)),
        (8, 200, "assign_t", (0.03864100083479745, 0.00181217885877418)),
        (2, 10, "general", (0.08915047169858492, 0.03470639744043558)),
        (1, 24, "general", (0.04166666666666666, 0.015655625621109674)),
        (5, 3, "general", (0.09449495366961067, 0.04513804324169671)),
    ])
    def test_pinned_floats(self, W, K, scheme, want):
        # exact floats: simulate --random draws with p, so its CSV and JSON
        # bytes move with any change in the last bit
        assert optimize_random(W, K, scheme) == want

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            optimize_random(1, 5, "other")

    @pytest.mark.parametrize("scheme", ["general", "assign_t"])
    @pytest.mark.parametrize("W,K", [(0, 5), (-1, 5), (2, 1)])
    def test_bad_sizes_rejected(self, scheme, W, K):
        # W = 0 used to escape as ZeroDivisionError, which the CLI does not catch
        with pytest.raises(ValueError):
            optimize_random(W, K, scheme)


class TestCouponCdf:
    def test_zero_slots(self):
        for K in (2, 5, 10):
            assert coupon_cdf(CouponModel.from_optimal(K), 0) == 0.0

    def test_eventually_one(self):
        for K in (2, 10, 18):
            model = CouponModel.from_optimal(K)
            big = frame_length(K, 0.999999999) + 1000
            assert coupon_cdf(model, big) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_and_bounded(self):
        model = CouponModel.from_optimal(12)
        values = [coupon_cdf(model, ell) for ell in range(0, 800, 7)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_two_node_closed_form(self):
        # for two nodes the sum collapses to 1 - (1-P)^ell
        model = CouponModel.from_optimal(2)
        for ell in (0, 1, 5, 20):
            assert coupon_cdf(model, ell) == pytest.approx(1 - 0.75 ** ell, rel=1e-12)

    def test_matches_stagewise_monte_carlo(self):
        for K in (5, 10, 18):
            rng = np.random.default_rng(600 + K)
            model = CouponModel.from_optimal(K)
            times = mc_collection_times(K, model.P, trials=200_000, rng=rng)
            for target in (0.3, 0.7, 0.95):
                ell = next(t for t in range(1, 10 ** 6)
                           if coupon_cdf(model, t) >= target)
                ana = coupon_cdf(model, ell)
                emp = float((times <= ell).mean())
                se = math.sqrt(ana * (1 - ana) / times.size) + 1e-12
                assert abs(emp - ana) <= 3 * se, (K, ell)

    def test_matches_markov_recursion(self):
        # second independent route: exact state recursion over the number
        # of coupons collected, also past the alternating sum's K <= 30
        for K, horizon, step in [(2, 400, 7), (5, 400, 7), (10, 400, 7), (18, 400, 7),
                                 (60, 3000, 75), (150, 8000, 200)]:
            model = CouponModel.from_optimal(K)
            table = dp_cdf(K, model.P, horizon)
            for t in range(0, horizon + 1, step):
                assert coupon_cdf(model, t) == pytest.approx(table[t], abs=1e-11), (K, t)

    def test_matches_inclusion_exclusion(self):
        for K in range(2, 31):
            model = CouponModel.from_optimal(K)
            for ell in range(3 * K, 60 * K, 13):
                assert coupon_cdf(model, ell) == pytest.approx(
                    inclusion_exclusion_cdf(K, model.P, ell), abs=1e-9), (K, ell)

    def test_too_few_slots(self):
        # K-1 neighbors need at least K-1 slots
        for K in (3, 30, 150):
            model = CouponModel.from_optimal(K)
            for ell in (1, K // 2, K - 2):
                assert coupon_cdf(model, ell) < 1e-14

    @pytest.mark.parametrize("K", [60, 150])
    def test_large_K_matches_stagewise_monte_carlo(self, K):
        rng = np.random.default_rng(700 + K)
        model = CouponModel.from_optimal(K)
        times = mc_collection_times(K, model.P, trials=20_000, rng=rng)
        for q in (0.3, 0.7, 0.95):
            ell = int(np.quantile(times, q))
            ana = coupon_cdf(model, ell)
            emp = float((times <= ell).mean())
            se = math.sqrt(ana * (1 - ana) / times.size) + 1e-12
            assert abs(emp - ana) <= 3 * se, (K, ell, emp, ana)

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            coupon_cdf(CouponModel.from_optimal(5), -1)


class TestGroupCdf:
    @pytest.mark.parametrize("K,ell,want,tol", [
        (10, 209, 0.9769, 1e-4),
        (15, 493, 0.9993, 1e-4),
        (15, 462, 0.9985, 1e-4),
        (18, 665, 0.9998, 1e-4),
        (18, 546, 0.9972, 1e-4),
        (20, 897, 0.99998, 1e-5),
        (20, 616, 0.997, 1e-3),
        (24, 1363, 0.999999, 1e-6),
        (24, 1122, 0.99998, 1e-5),
        (24, 728, 0.9944, 1e-4),
    ])
    def test_reference_probabilities(self, K, ell, want, tol):
        got = group_cdf(CouponModel.from_optimal(K), ell)
        assert abs(got - want) <= tol

    def test_power_relation(self):
        model = CouponModel.from_optimal(7)
        for ell in (10, 50, 200):
            assert group_cdf(model, ell) == pytest.approx(
                coupon_cdf(model, ell) ** 7, rel=1e-12)


class TestFrameLength:
    @pytest.mark.parametrize("K,want", [(10, 406), (15, 656), (18, 812), (20, 917), (24, 1130)])
    def test_reference_values(self, K, want):
        assert abs(frame_length(K, 0.99999) - want) <= 1

    def test_two_node_median_like_target(self):
        # brute tabulation: smallest ell with (1 - 0.75^ell)^2 >= 0.5
        want = next(ell for ell in range(1, 100) if (1 - 0.75 ** ell) ** 2 >= 0.5)
        assert frame_length(2, 0.5) == want == 5

    def test_is_minimal(self):
        for K in (5, 10, 18):
            model = CouponModel.from_optimal(K)
            ell = frame_length(K, 0.999)
            assert group_cdf(model, ell) >= 0.999
            assert group_cdf(model, ell - 1) < 0.999

    @pytest.mark.parametrize("K,want", [(60, 3174), (150, 8738)])
    def test_beyond_forty_nodes(self, K, want):
        # exact values from the decimal oracle in bench/oracles.py
        assert frame_length(K) == want

    def test_chain_memory_budget(self):
        # K=1041 is the largest chain whose 31 matrix powers fit in 256 MB;
        # building the model allocates no matrix, so this stays cheap
        CouponModel(1041, 1 / 1040)
        with pytest.raises(ValueError, match="too large"):
            CouponModel(1042, 1 / 1041)
        with pytest.raises(ValueError, match="too large"):
            frame_length(5000)

    def test_unreachable_target(self):
        with pytest.raises(RuntimeError):
            frame_length(2, 0.5, CouponModel(2, 1e-12))

    def test_target_validation(self):
        with pytest.raises(ValueError):
            frame_length(10, 1.0)
        with pytest.raises(ValueError):
            frame_length(10, 0.0)
