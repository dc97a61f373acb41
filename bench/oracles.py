"""Independent references the benchmark checks schedseq's outputs against.

Nothing here calls into schedseq: the collision rule is replayed slot by
slot, the coupon-collector CDF is summed in exact-enough decimal
arithmetic, the success probabilities and lower bounds are written out
from the paper's formulas, and the paper's tables are copied in.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

# Constructed periods L for (K, M), with W chosen to minimise the period.
PAPER_PERIODS = {
    (10, 1): 209, (10, 2): 209,
    (15, 1): 493, (15, 3): 462,
    (18, 1): 665, (18, 2): 665, (18, 3): 546,
    (20, 1): 897, (20, 4): 616,
    (24, 1): 1363, (24, 3): 1122, (24, 4): 728,
}

# Periods at a fixed employed channel count W, for (K, M, W).
FIXED_W_PERIODS = {
    (18, 3, 1): 665, (18, 3, 2): 836, (18, 3, 3): 546,
    (4, 2, 2): 60, (5, 2, 2): 140,
    (6, 3, 3): 210, (7, 3, 3): 210, (8, 3, 3): 210, (9, 3, 3): 210,
    (150, 5, 5): 18910,
}

# Random-scheme frame lengths for completion probability 0.99999.
PAPER_FRAME_LENGTHS = {10: 406, 15: 656, 18: 812, 20: 917, 24: 1130}

# (K, slots, all-to-all completion probability of the random scheme).
PAPER_COMPLETION_PROBS = [
    (10, 209, "0.9769"), (15, 493, "0.9993"), (15, 462, "0.9985"),
    (18, 665, "0.9998"), (18, 546, "0.9972"), (20, 897, "0.99998"),
    (20, 616, "0.997"), (24, 1363, "0.999999"), (24, 1122, "0.99998"),
    (24, 728, "0.9944"),
]

# Constructed period over lower bound, rows M, columns K = 60, 70, ..., 150.
RATIO_KS = list(range(60, 151, 10))
PAPER_RATIOS = {
    2: [5.23, 5.26, 5.04, 5.08, 5.12, 5.15, 4.85, 4.90, 4.80, 4.97],
    3: [6.18, 6.90, 5.97, 5.23, 5.95, 5.96, 5.16, 5.46, 5.72, 5.12],
    4: [6.48, 6.56, 6.18, 7.28, 6.02, 5.71, 5.23, 5.99, 5.26, 5.63],
    5: [7.12, 7.06, 5.98, 5.79, 6.18, 5.78, 6.30, 5.75, 5.29, 5.23],
}


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- the collision rule, slot by slot ---------------------------------------

def first_deliveries(codes: np.ndarray, taus, slots: int) -> np.ndarray:
    """first[i, j]: the first slot in [0, slots) where node i+1 reaches j+1.

    Node x plays codes[x, (t + taus[x]) mod L] in slot t: +m transmits on
    channel m, -m listens to it.  A channel carries a packet exactly when
    one node transmits on it, and then every node listening to it hears
    the packet.  -1 marks a pair with no delivery.
    """
    K, L = codes.shape
    taus = [int(t) for t in taus]
    rows = [[int(c) for c in row] for row in codes]
    first = -np.ones((K, K), dtype=np.int64)
    missing = K * (K - 1)
    for t in range(slots):
        actions = [rows[x][(t + taus[x]) % L] for x in range(K)]
        transmitters: dict[int, list[int]] = {}
        for x, a in enumerate(actions):
            if a > 0:
                transmitters.setdefault(a, []).append(x)
        for m, senders in transmitters.items():
            if len(senders) != 1:
                continue
            s = senders[0]
            for r, a in enumerate(actions):
                if a == -m and first[s, r] < 0:
                    first[s, r] = t
                    missing -= 1
        if missing == 0:
            break
    return first


def completion_time(codes: np.ndarray, taus, max_slots: int) -> int | None:
    """Slots until every ordered pair has had a delivery; None past max_slots."""
    first = first_deliveries(codes, taus, max_slots)
    off = ~np.eye(codes.shape[0], dtype=bool)
    if (first[off] < 0).any():
        return None
    return int(first[off].max()) + 1


def pair_delivers(codes: np.ndarray, taus, i: int, j: int) -> bool:
    """Whether node i delivers to node j (1-based) within one period."""
    return bool(first_deliveries(codes, taus, codes.shape[1])[i - 1, j - 1] >= 0)


# --- random schemes ---------------------------------------------------------

def p_pair_assign_t(p: float, n: int, W: int) -> float:
    """Per-slot success of one ordered pair under group-based random access.

    The transmitter (in a group of n) sends with probability p, its n-1
    group mates stay silent, and the receiver listens to the transmitter's
    channel with probability q2 = (1-p)/(W-p), which is 1 when W = 1.  A
    group mate of the transmitter listens to its own channel with
    probability (1-p)q2, the silence factor it shares with the others.
    """
    q2 = 1.0 if W == 1 else (1 - p) / (W - p)
    return p * (1 - p) ** (n - 1) * q2


def p_pair_general(p: float, K: int, W: int) -> float:
    """Per-slot success of one ordered pair under fully random access."""
    return p * (1 - W * p) * (1 - p) ** (K - 2)


def first_success_z(first: np.ndarray, P: np.ndarray) -> float:
    """Standardised gap between mean first-success times and 1/P.

    first holds (runs, K, K) 0-based first-delivery slots, so first + 1
    is geometric with mean 1/P for each pair.  Pairs inside one run share
    slots, so the standard error is taken over per-run means.
    """
    off = ~np.eye(first.shape[1], dtype=bool)
    excess = (first[:, off] + 1) - 1.0 / P[off][None, :]
    per_run = excess.mean(axis=1)
    se = per_run.std(ddof=1) / math.sqrt(per_run.size)
    return float(per_run.mean() / se)


# --- coupon-collector completion, in decimal --------------------------------

def _optimal_P(K: int) -> Fraction:
    """Best single-channel per-pair success: (K-1)^(K-1) / K^K, exactly."""
    return Fraction((K - 1) ** (K - 1), K ** K)


def _prec(K: int) -> int:
    # The alternating sum cancels terms as large as the biggest binomial;
    # keep that many digits plus forty.
    return len(str(math.comb(K - 1, (K - 1) // 2))) + 40


def node_cdf(K: int, ell: int) -> Decimal:
    """P(one node hears all K-1 neighbours within ell slots).

    Inclusion-exclusion over the set of neighbours still unheard:
    sum_j (-1)^j C(K-1, j) (1 - jP)^ell, in enough digits that nothing
    cancels away.
    """
    P = _optimal_P(K)
    with localcontext() as ctx:
        ctx.prec = _prec(K)
        total = Decimal(0)
        for j in range(K):
            miss = 1 - j * P
            base = Decimal(miss.numerator) / Decimal(miss.denominator)
            term = math.comb(K - 1, j) * base ** ell
            total += -term if j % 2 else term
        return +total


def group_cdf(K: int, ell: int) -> Decimal:
    """All-to-all completion probability within ell slots (nodes independent)."""
    with localcontext() as ctx:
        ctx.prec = _prec(K)
        return node_cdf(K, ell) ** K


def frame_length(K: int, target: str = "0.99999") -> int:
    """Smallest ell with group_cdf(K, ell) >= target."""
    goal = Decimal(target)
    hi = 1
    while group_cdf(K, hi) < goal:
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if group_cdf(K, mid) >= goal:
            hi = mid
        else:
            lo = mid + 1
    return hi


# --- period lower bound ------------------------------------------------------

def lower_bound(W: int, k: int) -> int:
    """Combined period lower bound for W groups of at least k nodes."""
    if k == 1:
        return 4 * (W - 1)
    blocking = math.ceil(Fraction(8 * (k - 1) ** 2 * W * (k - 1), 9 * k))
    return max(blocking, 4 * W * (k - 1))
