"""Closed-form analysis of the probabilistic transmission schemes.

Per-slot success probabilities for the fully random scheme and for the
group-based (own-channel transmit) scheme, the optimal transmit
probability, and the coupon-collector computation of the frame length
needed to hit a target all-to-all completion probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# frame_length gives up when 2**_MAX_SLOTS_LOG2 slots miss the target.
_MAX_SLOTS_LOG2 = 30
# The at most _MAX_SLOTS_LOG2 + 1 float64 (K-1)x(K-1) chain powers that
# frame_length keeps must fit in this many bytes, which admits K <= 1041.
_MAX_CHAIN_BYTES = 2 ** 28


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


def optimize_random(W: int, K: int, scheme: str = "general") -> tuple[float, float]:
    """Best transmit probability and success probability for a scheme.

    Both success probabilities are strictly log-concave on (0, hi): every
    term of the general log-derivative decreases, and for AssignT
    1/(W-p)^2 <= (K/W)/(1-p)^2 whenever W <= K (for W > K, 1/(W-p)^2 < 1/p^2).
    So the log-derivative has one root, which bisection pins down to
    adjacent floats.  With one channel both schemes reduce to
    p*(1-p)^(K-1), maximized at p = 1/K.
    """
    if W < 1 or K < 2:
        raise ValueError("need W >= 1 and K >= 2")
    if scheme == "general":
        hi, success = 1 / W, p_success_general

        def dlogf(p: float) -> float:
            return 1 / p - W / (1 - W * p) - (K - 2) / (1 - p)
    elif scheme == "assign_t":
        hi, success = 1.0, p_success_assignT

        def dlogf(p: float) -> float:
            return 1 / p - (K / W) / (1 - p) + 1 / (W - p)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    a, b = 0.0, hi
    mid = hi / 2
    while a < mid < b:
        if dlogf(mid) > 0:
            a = mid
        else:
            b = mid
        mid = (a + b) / 2
    return mid, success(W, K, mid)


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
        if not 0 < self.P or (self.K - 1) * self.P > 1:
            raise ValueError("need 0 < P and (K-1)*P <= 1")
        if 8 * (self.K - 1) ** 2 * (_MAX_SLOTS_LOG2 + 1) > _MAX_CHAIN_BYTES:
            raise ValueError(f"K={self.K} too large: the coupon chain's matrix "
                             f"powers would pass {_MAX_CHAIN_BYTES >> 20} MB")

    @classmethod
    def from_optimal(cls, K: int) -> "CouponModel":
        return cls(K, optimal_single_channel(K)[1])

    @property
    def p0(self) -> float:
        return 1 - (self.K - 1) * self.P

    def step_matrix(self) -> np.ndarray:
        """One slot of the chain over "n of the K-1 neighbors heard", n < K-1.

        Upper bidiagonal: stay with probability 1 - (K-1-n) P, else hear a
        new neighbor.  Hearing the last one leaves the matrix, so the
        chain's tail after ell slots, e0 Q^ell 1, is a sum of
        non-negative terms and nothing cancels.
        """
        n = self.K - 1
        new = (n - np.arange(n)) * self.P
        Q = np.diag(1 - new)
        Q[np.arange(n - 1), np.arange(1, n)] = new[:-1]
        return Q


def _node_cdf(row: np.ndarray) -> float:
    """Completion probability once the chain is at `row`: one minus its tail."""
    return max(0.0, 1.0 - float(row.sum()))


def coupon_cdf(model: CouponModel, ell: int) -> float:
    """Probability that one node has heard all K-1 neighbors within ell slots.

    One minus the chain's tail e0 Q^ell 1.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return _node_cdf(np.linalg.matrix_power(model.step_matrix(), int(ell))[0])


def group_cdf(model: CouponModel, ell: int) -> float:
    """Probability that every node has heard all its neighbors within ell slots.

    Treats the per-node completion times as independent, so this is the
    single-node CDF raised to the K-th power.
    """
    return coupon_cdf(model, ell) ** model.K


def frame_length(K: int, target: float = 0.99999,
                 model: CouponModel | None = None) -> int:
    """Smallest slot count whose completion probability reaches the target.

    Squares the chain's step matrix until 2^m slots reach the target, then
    builds the longest failing slot count from those powers, bit by bit
    from the top; the answer is one more.
    """
    if not 0 < target < 1:
        raise ValueError("target must lie in (0, 1)")
    if model is None:
        model = CouponModel.from_optimal(K)

    def reached(row: np.ndarray) -> bool:
        return _node_cdf(row) ** model.K >= target

    powers = [model.step_matrix()]
    while not reached(powers[-1][0]):
        if len(powers) > _MAX_SLOTS_LOG2:
            raise RuntimeError(f"target not reachable within 2^{_MAX_SLOTS_LOG2} slots")
        powers.append(powers[-1] @ powers[-1])
    row, ell = np.eye(1, model.K - 1)[0], 0
    for k in reversed(range(len(powers) - 1)):
        ahead = row @ powers[k]
        if not reached(ahead):
            row, ell = ahead, ell + 2 ** k
    return ell + 1
