"""Checks and bounds for schedule sequence sets.

Decides whether a candidate set guarantees a collision-free delivery for
every ordered node pair under all time offsets (exhaustively at desk
scale, conservatively in polynomial time, or by randomized search), runs
the adversarial blocking procedure, and evaluates the closed-form lower
bounds on the period.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import kernel
from .constructor import ScheduleSequenceSet, m_prime, select_params
from .pool import map_in_workers
from .seqcore import BinarySequence, correlation_profile


class Verdict(Enum):
    PROVEN = "proven"
    PROVEN_CONSERVATIVE = "proven_conservative"
    FAILED_WITH_WITNESS = "failed_with_witness"
    UNKNOWN = "unknown"


class Method(Enum):
    EXHAUSTIVE = "exhaustive"
    CONSERVATIVE = "conservative"
    RANDOMIZED = "randomized"


@dataclass(frozen=True)
class Witness:
    """Offset assignment under which a transmitter-receiver pair fails.

    Offsets cover the transmitter's group plus the receiver; all other
    nodes are irrelevant to the success predicate.
    """

    transmitter: int
    receiver: int
    offsets: dict[int, int]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a guarantee check.

    pairs_checked counts ordered pairs processed for the exhaustive and
    conservative methods, and (sample, pair) evaluations for the
    randomized search.  A witness, when present, reproduces the failure:
    success_slots() returns no slot for it.
    """

    verdict: Verdict
    method: Method
    pairs_checked: int
    witness: Witness | None = None


def _pair_masks(sset: ScheduleSequenceSet, i: int, j: int):
    """Boolean slot masks for one ordered pair: i transmitting on its own
    channel, j receiving on it, and each potential collider transmitting."""
    if i == j:
        raise ValueError("transmitter and receiver must differ")
    division = sset.division
    m = division.group_of(i)
    codes = sset.codes_matrix()
    ti = codes[i - 1] == m
    rj = codes[j - 1] == -m
    colliders = [x for x in division.members(m) if x not in (i, j)]
    tx = [codes[x - 1] == m for x in colliders]
    return m, ti, rj, colliders, tx


def _shift_matrix(mask: np.ndarray) -> np.ndarray:
    """Row tau holds the mask cyclically shifted by tau."""
    L = mask.size
    idx = (np.arange(L)[None, :] + np.arange(L)[:, None]) % L
    return mask[idx]


def success_slots(sset: ScheduleSequenceSet, i: int, j: int,
                  offsets: dict[int, int]) -> list[int]:
    """Slots where i delivers to j collision-free, given per-node offsets.

    Only offsets of i's group and of j are consulted; missing ones
    default to 0.
    """
    m, ti, rj, colliders, tx = _pair_masks(sset, i, j)
    L = sset.L
    free = np.roll(ti, -offsets.get(i, 0)).copy()
    for x, txx in zip(colliders, tx):
        free &= ~np.roll(txx, -offsets.get(x, 0))
    ok = free & np.roll(rj, -offsets.get(j, 0))
    return [int(t) for t in np.flatnonzero(ok)]


def check_pair_exhaustive(sset: ScheduleSequenceSet, i: int, j: int,
                          budget: int = 10 ** 9) -> VerificationReport:
    """Enumerate every relevant offset combination for one ordered pair.

    The success predicate only references i's group and j, and is
    invariant under a common shift of all offsets, so tau_i is pinned to 0
    and the remaining nodes sweep Z_L each.  The budget counts offset
    combinations; exceeding it yields UNKNOWN.
    """
    _, ti, rj, colliders, tx = _pair_masks(sset, i, j)
    L = sset.L
    n_combos = L ** (len(colliders) + 1)
    if n_combos > budget:
        return VerificationReport(Verdict.UNKNOWN, Method.EXHAUSTIVE, pairs_checked=1)

    rj_shifts = _shift_matrix(rj).astype(np.uint8)
    ti_u8 = ti.astype(np.uint8)
    tx_rolled = [_shift_matrix(t) for t in tx]
    for combo in itertools.product(range(L), repeat=len(colliders)):
        free = ti_u8.copy()
        for rolled, tau_x in zip(tx_rolled, combo):
            free &= ~rolled[tau_x]
        counts = rj_shifts @ free
        bad = np.flatnonzero(counts == 0)
        if bad.size:
            offsets = {i: 0, j: int(bad[0])}
            offsets.update({x: tau for x, tau in zip(colliders, combo)})
            return VerificationReport(Verdict.FAILED_WITH_WITNESS, Method.EXHAUSTIVE,
                                      pairs_checked=1,
                                      witness=Witness(i, j, offsets))
    return VerificationReport(Verdict.PROVEN, Method.EXHAUSTIVE, pairs_checked=1)


def check_pair_conservative(sset: ScheduleSequenceSet, i: int, j: int) -> VerificationReport:
    """Polynomial-time sound check: match slots minus worst-case collisions.

    For each receiver offset, counts the transmit/receive matches and
    subtracts, per collider, the largest number of those match slots it
    could cover at any shift.  A positive remainder everywhere proves the
    pair; otherwise the answer is UNKNOWN (never a refutation, since the
    colliders cannot in general realize all maxima simultaneously).
    """
    _, ti, rj, colliders, tx = _pair_masks(sset, i, j)
    L = sset.L
    rj_shifts = _shift_matrix(rj)
    for tau_j in range(L):
        match = ti & rj_shifts[tau_j]
        n_match = int(match.sum())
        if n_match == 0:
            return VerificationReport(Verdict.UNKNOWN, Method.CONSERVATIVE, pairs_checked=1)
        worst = 0
        for txx in tx:
            worst += int(correlation_profile(match, txx).max())
        if n_match - worst < 1:
            return VerificationReport(Verdict.UNKNOWN, Method.CONSERVATIVE, pairs_checked=1)
    return VerificationReport(Verdict.PROVEN_CONSERVATIVE, Method.CONSERVATIVE, pairs_checked=1)


def _ordered_pairs(K: int):
    return ((i, j) for i in range(1, K + 1) for j in range(1, K + 1) if i != j)


def _check_pair_batch(sset: ScheduleSequenceSet, pairs: list[tuple[int, int]],
                      mode: str, budget: int) -> list[VerificationReport]:
    if mode == "exhaustive":
        return [check_pair_exhaustive(sset, i, j, budget=budget) for i, j in pairs]
    return [check_pair_conservative(sset, i, j) for i, j in pairs]


def verify_set(sset: ScheduleSequenceSet, mode: str = "exhaustive",
               samples: int = 10 ** 5, seed: int = 0,
               budget: int = 10 ** 9, threads: int = 1) -> VerificationReport:
    """Aggregate per-pair checks over all ordered pairs.

    mode is one of "exhaustive", "conservative" or "randomized";
    randomized search samples whole offset vectors and can only refute or
    answer UNKNOWN.  threads > 1 spreads pairs over worker processes;
    per-pair results merge by conjunction, so the verdict is unaffected.
    """
    if mode == "randomized":
        return _verify_randomized(sset, samples, seed)
    if mode not in ("exhaustive", "conservative"):
        raise ValueError(f"unknown mode {mode!r}")
    method = Method.EXHAUSTIVE if mode == "exhaustive" else Method.CONSERVATIVE
    pairs = list(_ordered_pairs(sset.K))
    n = max(1, min(threads, len(pairs)))
    parts = map_in_workers(_check_pair_batch,
                           [(sset, pairs[c::n], mode, budget) for c in range(n)], threads)
    # Back into pair order, so the witness does not depend on threads.
    reports = [None] * len(pairs)
    for c, part in enumerate(parts):
        reports[c::n] = part
    pairs_checked = len(reports)
    for report in reports:
        if report.verdict is Verdict.FAILED_WITH_WITNESS:
            return VerificationReport(report.verdict, method,
                                      pairs_checked, report.witness)
    if any(r.verdict is Verdict.UNKNOWN for r in reports):
        return VerificationReport(Verdict.UNKNOWN, method, pairs_checked)
    verdict = Verdict.PROVEN if mode == "exhaustive" else Verdict.PROVEN_CONSERVATIVE
    return VerificationReport(verdict, method, pairs_checked)


def _verify_randomized(sset: ScheduleSequenceSet, samples: int,
                       seed: int) -> VerificationReport:
    """Sample offset vectors uniformly, hunting for a counterexample.

    Each sampled offset vector is one run of the collision kernel over a
    period.  Offsets are drawn 512 samples at a time, which fixes the
    offset stream; within a draw, pairs are judged channel group by
    channel group, so the witness is the first failing (group, sample,
    member, receiver).
    """
    rng = np.random.default_rng(seed)
    codes = sset.codes_matrix()
    K, L, W = sset.K, sset.L, sset.W
    division = sset.division
    members = {m: np.array(division.members(m)) - 1 for m in range(1, W + 1)}
    off_diag = ~np.eye(K, dtype=bool)  # a node need not reach itself
    batch = kernel.batch_runs(K, kernel.CHUNK_SLOTS)
    pairs_checked = 0
    draw = max(1, min(512, samples))
    done = 0
    while done < samples:
        B = min(draw, samples - done)
        taus = rng.integers(0, L, size=(B, K))
        actions = kernel.cyclic_reads(codes, taus, kernel.CHUNK_SLOTS)
        # first_bad[b, m - 1]: first unserved (member, receiver) of group m
        # in sample b, as member rank * K + receiver index; -1 for none.
        first_bad = np.empty((B, W), dtype=np.int64)
        for lo in range(0, B, batch):
            ids = np.arange(lo, min(lo + batch, B))
            first = kernel.run_batch(actions, ids, K, W, L, kernel.CHUNK_SLOTS)
            bad = (first < 0) & off_diag
            for m in range(1, W + 1):
                flat = bad[:, members[m], :].reshape(ids.size, -1)
                first_bad[ids, m - 1] = np.where(flat.any(axis=1), flat.argmax(axis=1), -1)
        for m in range(1, W + 1):
            g = members[m]
            pairs_checked += B * g.size * (K - 1)
            failed = first_bad[:, m - 1] >= 0
            if failed.any():
                b = int(failed.argmax())
                gi, j0 = divmod(int(first_bad[b, m - 1]), K)
                i = int(g[gi]) + 1
                j = j0 + 1
                relevant = set(division.members(m)) | {j}
                offsets = {x: int(taus[b, x - 1]) for x in sorted(relevant)}
                return VerificationReport(Verdict.FAILED_WITH_WITNESS, Method.RANDOMIZED,
                                          pairs_checked, Witness(i, j, offsets))
        done += B
    return VerificationReport(Verdict.UNKNOWN, Method.RANDOMIZED, pairs_checked)


# --- blocking algorithm and recursive bound sequences ----------------------

@dataclass(frozen=True)
class BlockingTrace:
    """Record of one blocking run: surviving-ones counts and choices."""

    a: tuple[int, ...]               # a_1 .. a_k
    chosen_offsets: tuple[int, ...]  # tau_2 .. tau_k
    weights: tuple[int, ...]         # w_2 .. w_k


def blocking_run(e1: BinarySequence, others: list[BinarySequence]) -> BlockingTrace:
    """Adversarially shift each competitor to collide the most 1s of e1.

    At each step the shift maximizing the Hamming cross-correlation with
    the current residual is applied (smallest shift on ties) and the hit
    1s are removed.
    """
    L = e1.length
    if any(e.length != L for e in others):
        raise ValueError("all sequences must share one period")
    residual = e1.bits.astype(np.uint8).copy()
    a = [int(residual.sum())]
    offsets = []
    weights = []
    for e in others:
        prof = correlation_profile(residual, e.bits)
        tau = int(prof.argmax())
        offsets.append(tau)
        weights.append(e.weight)
        residual &= 1 - np.roll(e.bits, -tau)
        a.append(int(residual.sum()))
    return BlockingTrace(tuple(a), tuple(offsets), tuple(weights))


def b_sequence(b_start: int, factor, L: int, steps: int) -> list[int]:
    """Comparison recursion b_next = b - ceil(b * b_start * factor / L).

    factor is the blocking-strength parameter (mu, or W*(1 - 1/k)); pass a
    Fraction for exact ceilings.  The recursion is emitted verbatim, so
    entries may reach zero or below; generation stops early once they do.
    """
    if b_start < 1 or L < 1 or steps < 1:
        raise ValueError("need b_start >= 1, L >= 1, steps >= 1")
    seq = [b_start]
    for _ in range(steps - 1):
        b = seq[-1]
        if b <= 0:
            break
        seq.append(b - math.ceil(b * b_start * factor / L))
    return seq


@dataclass(frozen=True)
class BoundReport:
    """Closed-form lower bounds on the period for one group geometry."""

    W: int
    k: int
    M: int
    K: int
    bound_blocking: int      # ceil(8 (k-1)^2 W (1 - 1/k) / 9), 0 when k = 1
    bound_counting: int      # 4 W (k-1), or 4 (W-1) when k = 1
    combined: int
    b_sequence: tuple[int, ...]
    epsilon: float


def lower_bound(W: int, k: int, M: int, K: int,
                improved_remark: bool = False) -> BoundReport:
    """Evaluate both period lower bounds and combine them.

    improved_remark applies the tightening available when every
    sequence's transmit count is a multiple of W (epsilon = 1).
    """
    if not (1 <= W <= M <= K and k >= 1):
        raise ValueError("need 1 <= W <= M <= K and k >= 1")
    if k == 1:
        combined = 4 * (W - 1)
        return BoundReport(W, k, M, K, bound_blocking=0, bound_counting=combined,
                           combined=combined, b_sequence=(), epsilon=0.0)
    eps = Fraction(1, 1) if improved_remark else 1 - Fraction(1, k)
    blocking = math.ceil(8 * (k - 1) ** 2 * W * eps / 9)
    counting = 4 * W * (k - 1)
    combined = max(blocking, counting)
    bseq = b_sequence(k - 1, W * eps, combined, steps=k - 1)
    return BoundReport(W, k, M, K, bound_blocking=blocking, bound_counting=counting,
                       combined=combined, b_sequence=tuple(bseq), epsilon=float(eps))


def ratio_table(Ks: list[int], Ms: list[int]) -> dict[tuple[int, int], float]:
    """Constructed period over combined lower bound, rounded to 2 decimals.

    Evaluated under even division with W = M; cells with M above the
    channel-count threshold are skipped.
    """
    out: dict[tuple[int, int], float] = {}
    for M in Ms:
        for K in Ks:
            if M > m_prime(K):
                continue
            params = select_params(K, M, M)
            k = params.division.k_min
            bound = lower_bound(M, k, M, K).combined
            out[(K, M)] = round(params.L / bound, 2)
    return out


def appendix_F(x: float) -> float:
    """Piecewise envelope x/d + (1/x) * sum_{i=2..d} 1/i with d = ceil(x^2).

    Continuous on (0, inf); its global maximum sits at sqrt(2) with value
    3/sqrt(8).
    """
    if x <= 0:
        raise ValueError("x must be positive")
    d = math.ceil(x * x)
    return x / d + sum(1.0 / i for i in range(2, d + 1)) / x
