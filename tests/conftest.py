"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's optimized paths
(correlation profiles, reduced offset enumeration, chunked simulation)
so the tests compare two genuinely different routes to the same answer.
The period-table oracles build one validated ConstructionParams per cell,
where the library computes the period from plain integers.
"""

from __future__ import annotations

from collections import Counter

import pytest

from schedseq.constructor import ScheduleSequenceSet, m_prime, select_params
from schedseq.seqcore import ScheduleSequence, Symbol
from schedseq.verifier import period_bounds


def seq_from_str(text: str, owner_group: int) -> ScheduleSequence:
    return ScheduleSequence.from_symbols(
        [Symbol.from_str(tok) for tok in text.split()], owner_group)


@pytest.fixture
def three_node_set() -> ScheduleSequenceSet:
    """Hand-written (M=2, K=3, L=12) set known to satisfy the guarantee."""
    return ScheduleSequenceSet((
        seq_from_str("T1 T1 T1 T1 T1 T1 R1 R1 R1 R2 R2 R2", 1),
        seq_from_str("T1 R1 T1 R2 T1 R1 T1 R2 T1 R1 T1 R2", 1),
        seq_from_str("T2 R1 R1 T2 R1 R1 T2 R1 R1 T2 R1 R1", 2),
    ))


@pytest.fixture
def two_node_set() -> ScheduleSequenceSet:
    """Tiny (M=2, K=2, L=4) set; small enough for full offset enumeration."""
    return ScheduleSequenceSet((
        seq_from_str("T1 T1 R2 R2", 1),
        seq_from_str("T2 R1 T2 R1", 2),
    ))


def pair_succeeds_at(sset: ScheduleSequenceSet, i: int, j: int,
                     offsets: dict[int, int], t: int) -> bool:
    """Direct read of the success predicate at one slot, no vectorization."""
    division = sset.division
    m = division.group_of(i)
    L = sset.L

    def action(x: int) -> int:
        return int(sset.sequences[x - 1].codes[(t + offsets.get(x, 0)) % L])

    if action(i) != m or action(j) != -m:
        return False
    return all(action(x) != m
               for x in division.members(m) if x not in (i, j))


def pair_ok_for_offsets(sset: ScheduleSequenceSet, i: int, j: int,
                        offsets: dict[int, int]) -> bool:
    return any(pair_succeeds_at(sset, i, j, offsets, t) for t in range(sset.L))


def first_failing_offsets(sset: ScheduleSequenceSet, i: int, j: int) -> dict[int, int] | None:
    """The first offsets, in itertools.product order over the raw offsets of
    (colliders in node order, j) with tau_i = 0, under which i never
    reaches j; None when there are none."""
    from itertools import product
    division = sset.division
    colliders = [x for x in division.members(division.group_of(i)) if x not in (i, j)]
    nodes = colliders + [j]
    for combo in product(range(sset.L), repeat=len(nodes)):
        offsets = {i: 0, **dict(zip(nodes, combo))}
        if not pair_ok_for_offsets(sset, i, j, offsets):
            return offsets
    return None


def brute_force_pair_check(sset: ScheduleSequenceSet, i: int, j: int) -> bool:
    """Quantify over the FULL K-node offset space, slot by slot."""
    L, K = sset.L, sset.K
    from itertools import product
    for combo in product(range(L), repeat=K):
        offsets = {x + 1: combo[x] for x in range(K)}
        if not pair_ok_for_offsets(sset, i, j, offsets):
            return False
    return True


def brute_force_completion(sset: ScheduleSequenceSet, offsets: dict[int, int],
                           max_slots: int) -> int | None:
    """Slot-by-slot completion time; None when some pair never succeeds."""
    K, L, W = sset.K, sset.L, sset.W
    first: dict[tuple[int, int], int] = {}
    for t in range(max_slots):
        actions = {x: int(sset.sequences[x - 1].codes[(t + offsets.get(x, 0)) % L])
                   for x in range(1, K + 1)}
        for m in range(1, W + 1):
            transmitters = [x for x, a in actions.items() if a == m]
            if len(transmitters) != 1:
                continue
            tx = transmitters[0]
            for rx, a in actions.items():
                if a == -m and (tx, rx) not in first:
                    first[(tx, rx)] = t
        if len(first) == K * (K - 1):
            return 1 + max(first.values())
    return None


def brute_force_first_success(actions) -> list[list[int]]:
    """Slot-by-slot first delivery slot of every ordered pair over a K x T
    table of slot actions; -1 where a pair never gets through."""
    K, T = len(actions), len(actions[0])
    first = [[-1] * K for _ in range(K)]
    for t in range(T):
        column = [int(actions[x][t]) for x in range(K)]
        for m in {a for a in column if a > 0}:
            transmitters = [x for x in range(K) if column[x] == m]
            if len(transmitters) != 1:
                continue
            tx = transmitters[0]
            for rx in range(K):
                if column[rx] == -m and first[tx][rx] < 0:
                    first[tx][rx] = t
    return first


def brute_force_cross_correlation(bits_a, bits_b, tau: int) -> int:
    L = len(bits_a)
    return sum(int(bits_a[t]) * int(bits_b[(t + tau) % L]) for t in range(L))


def conservative_slack(sset: ScheduleSequenceSet, i: int, j: int) -> int:
    """Least slack of the conservative check over all receiver offsets.

    For each receiver offset: the transmit/receive match slots, minus per
    collider the most of them it covers at any one shift, by direct counts
    over slots and shifts: each pair of a match slot t and a collider send
    slot s counts for the one shift (s - t) mod L that aligns them.  The
    check proves the pair when this is >= 1.
    """
    division = sset.division
    m = division.group_of(i)
    L = sset.L
    codes = [[int(c) for c in s.codes] for s in sset.sequences]
    tx_i = [c == m for c in codes[i - 1]]
    rx_j = [c == -m for c in codes[j - 1]]
    colliders = [[t for t, c in enumerate(codes[x - 1]) if c == m]
                 for x in division.members(m) if x not in (i, j)]
    least = None
    for tau_j in range(L):
        match = [t for t in range(L) if tx_i[t] and rx_j[(t + tau_j) % L]]
        slack = len(match)
        for sends in colliders:
            covered = Counter((s - t) % L for t in match for s in sends)
            slack -= max(covered.values(), default=0)
        least = slack if least is None else min(least, slack)
    return least


def ratio_table_by_params(Ks, Ms) -> dict[tuple[int, int], float]:
    """ratio_table through one select_params(K, M, M) per cell: its L over
    the combined bound of its division's smallest group."""
    out = {}
    for M in Ms:
        for K in Ks:
            if M > min(K, m_prime(K)):
                continue
            params = select_params(K, M, M)
            bound = max(period_bounds(M, params.division.k_min))
            if bound > 0:
                out[(K, M)] = round(params.L / bound, 2)
    return out


def choose_W_by_params(K: int, M: int):
    """(W, params) of the first W in 1..M of least select_params(K, M, W).L."""
    best = None
    for W in range(1, M + 1):
        cand = select_params(K, M, W)
        if best is None or cand.L < best.L:
            best = cand
    return best.W, best
