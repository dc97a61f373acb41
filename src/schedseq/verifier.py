"""Checks and bounds for schedule sequence sets.

Decides whether a candidate set guarantees a collision-free delivery for
every ordered node pair under all time offsets (exhaustively at desk
scale, conservatively in polynomial time, or by randomized search), runs
the adversarial blocking procedure, and evaluates the closed-form lower
bounds on the period.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import kernel
from .constructor import ScheduleSequenceSet, m_prime, select_params
from .pool import map_ranges
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
    conservative methods.  For the randomized search it counts (sample,
    pair) evaluations: K(K-1) for every sample up to and including the
    first failing one, or for every sample when none fails.  A witness,
    when present, reproduces the failure: success_slots() returns no slot
    for it.
    """

    verdict: Verdict
    method: Method
    pairs_checked: int
    witness: Witness | None = None


def _sender_masks(sset: ScheduleSequenceSet, i: int, receivers):
    """i's transmit mask on its group's channel, the transmit masks of the
    rest of i's group by node (a pair's colliders, less its receiver), and
    a function giving receiver j's receive mask for that channel, made on
    demand."""
    if i in receivers:
        raise ValueError("transmitter and receiver must differ")
    seqs = sset.sequences
    m = seqs[i - 1].owner_group
    group = {x: s.codes == m for x, s in enumerate(seqs, start=1)
             if s.owner_group == m and x != i}
    return seqs[i - 1].codes == m, group, lambda j: seqs[j - 1].codes == -m


def _shift_table(mask: np.ndarray) -> np.ndarray:
    """Row tau is np.roll(mask, -tau): a zero-copy (L, L) view of the mask
    written out twice, each row one item further on."""
    L, doubled = mask.size, np.concatenate([mask, mask])
    return np.ndarray((L, L), doubled.dtype, buffer=doubled, strides=(doubled.itemsize,) * 2)


def _axis_blocks(L: int) -> list[slice]:
    """An offset axis cut into row blocks whose (rows, L) float32 copy fits
    kernel.BATCH_BYTES; at desk sizes one block covers the axis.  The last
    block may end past L, where slicing stops at the axis end.

    The float32 products of these blocks count up to L ones, which is exact
    only below 2^24.
    """
    if L >= 2 ** 24:
        raise ValueError(f"L={L} is beyond the exact float32 range of the pair checks")
    step = max(1, min(L, kernel.BATCH_BYTES // (4 * L)))
    return [slice(lo, lo + step) for lo in range(0, L, step)]


def _distinct_shifts(table: np.ndarray, T: np.ndarray, blocks: list[slice]) -> np.ndarray:
    """The offsets where each distinct row of table[:, T] first occurs, in
    order of first occurrence.  Rows are keyed block by block as packed
    bits.  When the keys would not fit kernel.BATCH_BYTES, every offset is
    returned: sweeping them all gives the same first failure."""
    if not T.size:
        return np.zeros(1, dtype=np.intp)
    width = -(-T.size // 8)
    if len(table) * width > kernel.BATCH_BYTES:
        return np.arange(len(table))
    keys = np.empty((len(table), width), dtype=np.uint8)
    for b in blocks:
        keys[b] = np.packbits(table[b][:, T], axis=1)
    rows = keys.view(np.dtype((np.void, keys.shape[1])))[:, 0]
    return np.sort(np.unique(rows, return_index=True)[1])


def _patterns(table: np.ndarray, shifts: np.ndarray, T: np.ndarray, blocks: list[slice]):
    """(b, table[shifts[b]][:, T]) for each row block b of shifts, made one
    block at a time."""
    return ((b, table[shifts[b]][:, T]) for b in blocks if b.start < shifts.size)


def _first_zero(rows: np.ndarray, columns) -> tuple[int, int] | None:
    """First zero of rows @ columns.T in row-major order, as (row, column),
    with the bool columns given as (b, block) pairs."""
    rows = rows.astype(np.float32)
    hit = None
    for b, block in columns:
        zero = rows @ block.astype(np.float32).T == 0
        if zero.any():
            r = int(zero.any(axis=1).argmax())
            found = (r, b.start + int(zero[r].argmax()))
            hit = found if hit is None else min(hit, found)
    return hit


def success_slots(sset: ScheduleSequenceSet, i: int, j: int,
                  offsets: dict[int, int]) -> list[int]:
    """Slots where i delivers to j collision-free, given per-node offsets.

    Only offsets of i's group and of j are consulted; missing ones
    default to 0.
    """
    ti, group, receive_mask = _sender_masks(sset, i, (j,))
    free = np.roll(ti, -offsets.get(i, 0))
    for x, tx in group.items():
        if x != j:
            free &= ~np.roll(tx, -offsets.get(x, 0))
    return np.flatnonzero(free & np.roll(receive_mask(j), -offsets.get(j, 0))).tolist()


def check_pair_exhaustive(sset: ScheduleSequenceSet, i: int, j: int,
                          budget: int = 10 ** 9) -> VerificationReport:
    """Enumerate every relevant offset combination for one ordered pair.

    The success predicate only references i's group and j, and is
    invariant under a common shift of all offsets, so tau_i is pinned to 0
    and the rest sweep Z_L.  A pair needing more combinations than budget
    is UNKNOWN, decided before j's mask is made.  This is the one-receiver
    sweep of _sweep, which _first_failure enumerates.
    """
    verdict, witness = next(_sweep(sset, Method.EXHAUSTIVE, budget, i, (j,)))
    return VerificationReport(verdict, Method.EXHAUSTIVE, pairs_checked=1, witness=witness)


def check_pair_conservative(sset: ScheduleSequenceSet, i: int, j: int) -> VerificationReport:
    """Polynomial-time sound check: match slots minus worst-case collisions.

    For each receiver offset, counts the transmit/receive matches and
    subtracts, per collider, the largest number of those match slots it
    could cover at any shift.  A positive remainder everywhere proves the
    pair; otherwise the answer is UNKNOWN (never a refutation, since the
    colliders cannot in general realize all maxima simultaneously).  This
    is the one-receiver sweep of _sweep, which _worst_case bounds.
    """
    verdict, _ = next(_sweep(sset, Method.CONSERVATIVE, 0, i, (j,)))
    return VerificationReport(verdict, Method.CONSERVATIVE, pairs_checked=1)


def _sweep(sset: ScheduleSequenceSet, method: Method, budget: int, i: int, receivers):
    """(verdict, witness) of each pair (i, j), j in receivers, made in order
    by the exhaustive or the conservative check.

    i's transmit slots T are found once for the sweep.  Every delivery lies
    in T, so the receiver's and the colliders' shift tables are read on T
    alone, where a table takes few distinct rows (patterns).  A collider's
    shift table and distinct offsets are made once, when the first receiver
    that has it as a collider needs them; an exhaustive pair past the
    budget needs no table.
    """
    ti, group, receive_mask = _sender_masks(sset, i, receivers)
    L, T = sset.L, np.flatnonzero(ti)
    blocks = _axis_blocks(L)
    table = functools.cache(lambda x: _shift_table(group[x]))
    distinct = functools.cache(lambda x: _distinct_shifts(table(x), T, blocks))
    for j in receivers:
        colliders = [x for x in group if x != j]
        if method is Method.CONSERVATIVE:
            yield _worst_case(_shift_table(receive_mask(j)), T, blocks, colliders,
                              lambda x: _patterns(table(x), distinct(x), T, blocks)), None
        elif L ** (len(colliders) + 1) > budget:  # the colliders and j sweep Z_L
            yield Verdict.UNKNOWN, None
        else:
            # a pair without colliders is checked against one that never
            # transmits, a table of one empty row whose offset
            # zip(colliders, ...) leaves out of the witness
            hit = _first_failure(_shift_table(receive_mask(j)), T, blocks,
                                 [table(x) for x in colliders] or [np.zeros((1, L), dtype=bool)],
                                 [distinct(x) for x in colliders] or [np.zeros(1, dtype=np.intp)])
            if hit is None:
                yield Verdict.PROVEN, None
            else:
                offsets = {i: 0, j: hit[1]}
                offsets.update(zip(colliders, hit[0]))
                yield Verdict.FAILED_WITH_WITNESS, Witness(i, j, offsets)


def _first_failure(receive, T, blocks, tables, shifts):
    """The first failing offsets of the colliders and of the receiver, as
    (combo, tau_j), in itertools.product order over them; None if none fails.

    All colliders but the last are enumerated; for each of their
    combinations, the slots left free by every distinct row of the last
    collider, times the receiver's distinct rows, count the deliveries in
    one matmul.  The first zero in row-major order is the witness: as rows
    are numbered in order of first occurrence, it is the first failure.
    """
    heard = _distinct_shifts(receive, T, blocks)
    for combo in itertools.product(*(s.tolist() for s in shifts[:-1])):
        free = np.ones(T.size, dtype=bool)
        for table, tau in zip(tables, combo):
            free &= ~table[tau, T]
        for rows, block in _patterns(tables[-1], shifts[-1], T, blocks):
            hit = _first_zero(free & ~block, _patterns(receive, heard, T, blocks))
            if hit is not None:
                return combo + (int(shifts[-1][rows.start + hit[0]]),), int(heard[hit[1]])
    return None


def _worst_case(receive, T, blocks, colliders, patterns) -> Verdict:
    """PROVEN_CONSERVATIVE if, at every receiver offset, the match slots
    outnumber the most that each collider could cover; else UNKNOWN.

    A collider's worst case at a block of receiver offsets is the column
    maximum of its patterns times the match rows; a collider's patterns are
    read only while no offset of the block is already unproven.
    """
    for rows in blocks:
        match = receive[rows][:, T]
        slack = np.count_nonzero(match, axis=1)
        match = match.T.astype(np.float32)
        for x in colliders:
            if (slack < 1).any():
                break
            worst = np.maximum.reduce([(block.astype(np.float32) @ match).max(axis=0)
                                       for _, block in patterns(x)])
            slack = slack - worst.astype(np.int64)
        if (slack < 1).any():
            return Verdict.UNKNOWN
    return Verdict.PROVEN_CONSERVATIVE


def _check_pairs(sset: ScheduleSequenceSet, method: Method, budget: int,
                 first: int, stop: int):
    """Check the ordered pairs of transmitters first + 1 .. stop up to the
    first decisive one.  Pairs are numbered in row-major (transmitter,
    receiver) order without the diagonal, so pair n = (i-1)(K-1) + k is
    transmitter i's k-th receiver, counted from 0.

    A failed pair decides either method; an UNKNOWN pair decides the
    conservative method, which never refutes.  Returns the decisive pair's
    (n, verdict, witness) or None, and whether an UNKNOWN pair came
    before it.
    """
    unknown = False
    for i in range(first + 1, stop + 1):
        receivers = [j for j in range(1, sset.K + 1) if j != i]
        for k, (verdict, witness) in enumerate(_sweep(sset, method, budget, i, receivers)):
            if verdict is Verdict.FAILED_WITH_WITNESS or (
                    verdict is Verdict.UNKNOWN and method is Method.CONSERVATIVE):
                return ((i - 1) * (sset.K - 1) + k, verdict, witness), unknown
            unknown |= verdict is Verdict.UNKNOWN
    return None, unknown


def verify_set(sset: ScheduleSequenceSet, mode: str = "exhaustive",
               samples: int = 10 ** 5, seed: int = 0,
               budget: int = 10 ** 9, threads: int = 1) -> VerificationReport:
    """Aggregate per-pair checks over all ordered pairs.

    mode is one of "exhaustive", "conservative" or "randomized";
    randomized search samples whole offset vectors and can only refute or
    answer UNKNOWN.  Every mode stops at its first decisive item (a pair,
    see _check_pairs, or a sample, see _randomized_draws), and
    pairs_checked counts the pairs up to it.  threads > 1 gives each
    worker process a contiguous range of transmitters, all of whose pairs
    it checks, or of offset draws.  The ranges are read in order, and the
    workers stop once one has decided, so the report does not depend on
    threads.
    """
    try:
        method = Method(mode)
    except ValueError:
        raise ValueError(f"unknown mode {mode!r}") from None
    K = sset.K
    if method is Method.RANDOMIZED:
        if samples < 1:
            raise ValueError("randomized verification needs samples >= 1")
        work = functools.partial(_randomized_draws, sset, samples, seed)
        stop, pairs_per_item = -(-samples // _DRAW_SAMPLES), K * (K - 1)
        total = samples * pairs_per_item
    else:
        work = functools.partial(_check_pairs, sset, method, budget)
        stop, total, pairs_per_item = K, K * (K - 1), 1
    unknown = False
    with contextlib.closing(map_ranges(work, stop, threads)) as parts:
        for hit, range_unknown in parts:
            if hit is not None:
                index, verdict, witness = hit
                return VerificationReport(verdict, method, (index + 1) * pairs_per_item, witness)
            unknown |= range_unknown
    proven = Verdict.PROVEN if method is Method.EXHAUSTIVE else Verdict.PROVEN_CONSERVATIVE
    return VerificationReport(Verdict.UNKNOWN if unknown else proven, method, total)


# Offset vectors are drawn this many samples at a time, which fixes the
# offset stream of a seed.
_DRAW_SAMPLES = 512


def _randomized_draws(sset: ScheduleSequenceSet, samples: int, seed: int,
                      first: int, stop: int):
    """Offset draws [first, stop) of a randomized verification, the offset
    stream replayed from the seed.

    Each sampled offset vector is one run of the collision kernel over a
    period; a sample that fails refutes the set, and one that does not is
    UNKNOWN.  The witness is the first unserved (transmitter, receiver)
    pair, in row-major pair order, of the first failing sample.  Returns
    that failure as (sample, verdict, witness) or None, and True: a sample
    that does not fail is UNKNOWN.
    """
    rng = np.random.default_rng(seed)
    reads = kernel.cyclic_reads(sset.action_table)
    channel = np.array(sset.division.assignment)
    K, L = sset.K, sset.L
    off_diag = ~np.eye(K, dtype=bool)  # a node need not reach itself
    for d in range(stop):
        lo = d * _DRAW_SAMPLES
        taus = rng.integers(0, L, size=(min(_DRAW_SAMPLES, samples - lo), K))
        if d < first:
            continue
        for ids, got in kernel.run_batches(lambda ids: reads(taus[ids]), len(taus), K,
                                           sset.W, L, channel):
            bad = ((got < 0) & off_diag).reshape(ids.size, K * K)
            failed = bad.any(axis=1)
            if failed.any():
                b = int(failed.argmax())
                i, j = (x + 1 for x in divmod(int(bad[b].argmax()), K))
                relevant = {*sset.division.members(channel[i - 1]), j}  # i's group and j
                offsets = {x: int(taus[ids[b], x - 1]) for x in sorted(relevant)}
                sample = lo + int(ids[b])
                return (sample, Verdict.FAILED_WITH_WITNESS, Witness(i, j, offsets)), True
    return None, True


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

    factor is the blocking-strength parameter (mu, or W*(1 - 1/k)): an int,
    a Fraction or a float, taken at its exact value so every ceiling is an
    integer division.  The recursion is emitted verbatim, so entries may
    reach zero or below; generation stops early once they do.
    """
    if b_start < 1 or L < 1 or steps < 1:
        raise ValueError("need b_start >= 1, L >= 1, steps >= 1")
    n, d = Fraction(factor).as_integer_ratio()
    seq = [b_start]
    for _ in range(steps - 1):
        b = seq[-1]
        if b <= 0:
            break
        ceiling = -(-(b * b_start * n) // (d * L))
        seq.append(b - ceiling)
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


def period_bounds(W: int, k: int, improved_remark: bool = False) -> tuple[int, int]:
    """(blocking, counting) period lower bounds in exact integers; the
    combined bound is their max.  With k = 1 they are (0, 4 (W-1))."""
    if k == 1:
        return 0, 4 * (W - 1)
    # 8 (k-1)^2 W eps / 9 with eps = 1 - 1/k, or eps = 1 under the remark
    num, den = ((k - 1) ** 2, 9) if improved_remark else ((k - 1) ** 3, 9 * k)
    return -(-8 * num * W // den), 4 * W * (k - 1)


def lower_bound(W: int, k: int, M: int, K: int,
                improved_remark: bool = False) -> BoundReport:
    """Evaluate both period lower bounds and combine them.

    improved_remark applies the tightening available when every
    sequence's transmit count is a multiple of W (epsilon = 1).
    """
    if not (1 <= W <= M <= K and k >= 1):
        raise ValueError("need 1 <= W <= M <= K and k >= 1")
    blocking, counting = period_bounds(W, k, improved_remark)
    combined = max(blocking, counting)
    bseq, eps = (), 0
    if k > 1:
        eps = Fraction(1, 1) if improved_remark else 1 - Fraction(1, k)
        bseq = tuple(b_sequence(k - 1, W * eps, combined, steps=k - 1))
    return BoundReport(W, k, M, K, bound_blocking=blocking, bound_counting=counting,
                       combined=combined, b_sequence=bseq, epsilon=float(eps))


def ratio_table(Ks: list[int], Ms: list[int]) -> dict[tuple[int, int], float]:
    """Constructed period over combined lower bound, rounded to 2 decimals.

    Evaluated under even division with W = M; cells with M above K or above
    the channel-count threshold are skipped, and so are cells whose bound
    is 0 (K = M = 1), as `schedseq bound` leaves out their ratio.
    """
    out: dict[tuple[int, int], float] = {}
    for M in Ms:
        for K in Ks:
            if M > min(K, m_prime(K)):
                continue
            params = select_params(K, M, M)
            bound = max(period_bounds(M, params.division.k_min))
            if bound > 0:
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
