"""Closed-form analysis of the probabilistic transmission schemes.

Per-slot success probabilities for the fully random scheme and for the
group-based (own-channel transmit) scheme, numeric optimization of the
transmit probability, and the coupon-collector computation of the frame
length needed to hit a target all-to-all completion probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The alternating coupon-collector sum loses float precision as the
# binomial coefficients grow; beyond this many nodes we refuse to answer
# rather than return noise.
MAX_COUPON_NODES = 40


@dataclass(frozen=True)
class GeneralRandomParams:
    """Fully random scheme: transmit or receive on any of W channels."""

    W: int
    K: int
    p_a: float  # per-channel transmit probability

    def __post_init__(self) -> None:
        if self.W < 1 or self.K < 2:
            raise ValueError("need W >= 1 and K >= 2")
        if not 0 < self.p_a < 1 / self.W:
            raise ValueError(f"p_a must lie in (0, 1/W) = (0, {1 / self.W})")

    @property
    def q_a(self) -> float:
        """Per-channel receive probability; W*(p_a + q_a) = 1."""
        return (1 - self.W * self.p_a) / self.W


@dataclass(frozen=True)
class AssignTRandomParams:
    """Group-based random scheme: transmit only on the group channel."""

    W: int
    K: int
    p_b: float  # transmit probability

    def __post_init__(self) -> None:
        if self.W < 1 or self.K < 2:
            raise ValueError("need W >= 1 and K >= 2")
        if not 0 < self.p_b < 1:
            raise ValueError("p_b must lie in (0, 1)")

    @property
    def q_2(self) -> float:
        """Receive probability for each non-own channel."""
        return (1 - self.p_b) / (self.W - self.p_b)

    @property
    def q_1(self) -> float:
        """Own-channel receive probability; p_b + q_1 + (W-1) q_2 = 1."""
        return (1 - self.p_b) * self.q_2


def p_success_general(W: int, K: int, p_a: float) -> float:
    """Per-slot probability that a node receives some fixed neighbor's packet."""
    GeneralRandomParams(W, K, p_a)
    return p_a * (1 - W * p_a) * (1 - p_a) ** (K - 2)


def p_success_assignT(W: int, K: int, p_b: float) -> float:
    """Per-slot cross-group success probability under equalized in/cross rates.

    Uses the real-valued group size K/W; simulation uses actual integer
    group sizes, so the two are compared, never merged.
    """
    AssignTRandomParams(W, K, p_b)
    return p_b * (1 - p_b) ** (K / W) / (W - p_b)


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Maximizer of a unimodal f on [lo, hi] to absolute tolerance tol."""
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2


def optimize_random(W: int, K: int, scheme: str = "general") -> tuple[float, float]:
    """Best transmit probability and success probability for a scheme.

    A coarse grid scan brackets the maximum and golden-section search
    narrows it; a final bisection on the exact log-derivative removes the
    comparison-noise floor golden section hits on flat maxima.  With one
    channel both schemes reduce to p*(1-p)^(K-1), maximized at p = 1/K.
    """
    if scheme == "general":
        hi = 1 / W

        def f(p: float) -> float:
            return p * (1 - W * p) * (1 - p) ** (K - 2)

        def dlogf(p: float) -> float:
            return 1 / p - W / (1 - W * p) - (K - 2) / (1 - p)
    elif scheme == "assign_t":
        hi = 1.0

        def f(p: float) -> float:
            return p * (1 - p) ** (K / W) / (W - p)

        def dlogf(p: float) -> float:
            return 1 / p - (K / W) / (1 - p) + 1 / (W - p)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    grid_n = 10 ** 4
    eps = hi / grid_n
    best_idx = max(range(1, grid_n), key=lambda n: f(n * eps))
    lo_b = max(eps / 2, (best_idx - 1) * eps)
    hi_b = min(hi - eps / 2, (best_idx + 1) * eps)
    p_star = _golden_section_max(f, lo_b, hi_b)
    pad = 2 * eps
    a = max(eps / 2, p_star - pad)
    b = min(hi - eps / 2, p_star + pad)
    if dlogf(a) > 0 > dlogf(b):
        for _ in range(80):
            mid = (a + b) / 2
            if dlogf(mid) > 0:
                a = mid
            else:
                b = mid
        p_star = (a + b) / 2
    return p_star, f(p_star)


def optimal_single_channel(K: int) -> tuple[float, float]:
    """Closed-form one-channel optimum: p* = 1/K, P* = (K-1)^(K-1) / K^K."""
    if K < 2:
        raise ValueError("need K >= 2")
    return 1 / K, (K - 1) ** (K - 1) / K ** K


@dataclass(frozen=True)
class CouponModel:
    """Equal-probability coupon collection with a null coupon.

    One node must hear from each of its K-1 neighbors; per slot each
    neighbor succeeds with probability P, and with probability
    p0 = 1 - (K-1) P the slot yields nothing.
    """

    K: int
    P: float

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError("need K >= 2")
        if self.K > MAX_COUPON_NODES:
            raise ValueError(
                f"K={self.K} exceeds the float-precision guard ({MAX_COUPON_NODES})")
        if not 0 < self.P or (self.K - 1) * self.P > 1:
            raise ValueError("need 0 < P and (K-1)*P <= 1")

    @classmethod
    def from_optimal(cls, K: int) -> "CouponModel":
        return cls(K, optimal_single_channel(K)[1])

    @property
    def p0(self) -> float:
        return 1 - (self.K - 1) * self.P


def coupon_cdf(model: CouponModel, ell: int) -> float:
    """Probability that one node has heard all K-1 neighbors within ell slots.

    Alternating inclusion-exclusion sum, evaluated with compensated
    summation and clamped to [0, 1].
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    K, p0 = model.K, model.p0
    n = K - 1
    total = 0.0
    comp = 0.0
    for i in range(n):
        term = (-1.0) ** (n - 1 - i) * math.comb(n, i) * (((n - i) * p0 + i) / n) ** ell
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return min(1.0, max(0.0, 1.0 - total))


def group_cdf(model: CouponModel, ell: int) -> float:
    """Probability that every node has heard all its neighbors within ell slots.

    Treats the per-node completion times as independent, so this is the
    single-node CDF raised to the K-th power.
    """
    return coupon_cdf(model, ell) ** model.K


def frame_length(K: int, target: float = 0.99999,
                 model: CouponModel | None = None) -> int:
    """Smallest slot count whose completion probability reaches the target.

    Exponential growth finds an upper bracket, then binary search exploits
    the CDF's monotonicity.
    """
    if not 0 < target < 1:
        raise ValueError("target must lie in (0, 1)")
    if model is None:
        model = CouponModel.from_optimal(K)
    hi = 1
    while group_cdf(model, hi) < target:
        hi *= 2
        if hi > 10 ** 9:
            raise RuntimeError("target not reachable within 1e9 slots")
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if group_cdf(model, mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return hi
