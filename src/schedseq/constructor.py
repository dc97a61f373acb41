"""Builders for CRT-based sequence sets.

Two layers: user-irrepressible (UI) binary sequences generated through
the CRT correspondence, and the multi-channel schedule-sequence sets
stacked from them (2W rows of UI sequences per node, flattened back to
one period via the CRT map).  Also hosts the parameter search (smallest
admissible prime p, coprime q) and the channel-count optimization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernel
from .seqcore import (
    BinarySequence,
    GroupDivision,
    ScheduleSequence,
    array_to_sequence,
    crt_inverse,
    crt_map,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int, coprime_with: int = 1) -> int:
    """Smallest prime >= n coprime with the given modulus."""
    p = max(n, 2)
    while not (is_prime(p) and math.gcd(p, coprime_with) == 1):
        p += 1
    return p


@dataclass(frozen=True)
class CrtUiParams:
    """Parameters of a CRT-UI sequence family."""

    K_gen: int  # number of generators (sequences)
    w: int      # Hamming weight of every sequence
    p: int      # prime, p >= w
    q: int      # coprime with p, q >= 2w - 1

    def __post_init__(self) -> None:
        if self.w < self.K_gen or self.K_gen < 1:
            raise ValueError(f"need 1 <= K_gen <= w, got K_gen={self.K_gen}, w={self.w}")
        if not is_prime(self.p) or self.p < self.w:
            raise ValueError(f"p={self.p} must be a prime >= w={self.w}")
        if math.gcd(self.p, self.q) != 1 or self.q < 2 * self.w - 1:
            raise ValueError(f"q={self.q} must be coprime with p and >= 2w-1={2 * self.w - 1}")

    @property
    def Lprime(self) -> int:
        return self.p * self.q


def build_crt_ui(params: CrtUiParams, g: int) -> BinarySequence:
    """CRT-UI sequence for generator g: 1s where the CRT image is (u*g mod p, u mod q)."""
    if not 1 <= g <= params.K_gen:
        raise ValueError(f"generator {g} out of range [1, {params.K_gen}]")
    ones = [crt_inverse((u * g % params.p, u % params.q), params.p, params.q)
            for u in range(params.w)]
    return BinarySequence.from_ones(params.Lprime, ones)


def crt_ui_set(params: CrtUiParams) -> list[BinarySequence]:
    return [build_crt_ui(params, g) for g in range(1, params.K_gen + 1)]


def auto_correlation_predict(params: CrtUiParams, g: int, tau: int) -> int:
    """Closed-form Hamming auto-correlation of a CRT-UI sequence at shift tau.

    Equals w - d when the CRT image of tau is +-(g*d mod p, d mod q) for
    some d in Z_w, and 0 otherwise; must agree with the brute-force count.
    """
    p, q, w = params.p, params.q, params.w
    a, b = crt_map(tau, p, q)
    for d in range(w):
        if (a, b) in ((g * d % p, d % q), (-g * d % p, -d % q)):
            return w - d
    return 0


@dataclass(frozen=True)
class ConstructionParams:
    """Everything fixing one schedule-sequence construction run."""

    K: int
    M: int
    W: int
    division: GroupDivision
    w: int                   # UI weight: ell + 1 (multi-channel) or K (W = 1)
    p: int
    q: int
    Lprime: int              # p * q
    L: int                   # 2 * W * Lprime, or Lprime when W = 1
    deltas: tuple[int, ...]  # per-group pre-assigned row offsets, delta_m in Z_L'

    def __post_init__(self) -> None:
        if not 1 <= self.W <= self.M <= self.K:
            raise ValueError(f"need 1 <= W <= M <= K, got W={self.W}, M={self.M}, K={self.K}")
        if self.division.K != self.K or self.division.W != self.W:
            raise ValueError("division does not match K and W")
        if self.Lprime != self.p * self.q:
            raise ValueError("Lprime must equal p*q")
        if len(self.deltas) != self.W:
            raise ValueError(f"need W={self.W} deltas, got {len(self.deltas)}")
        self.ui_params  # w, p and q must pass CrtUiParams' own rule
        if self.W >= 2:
            if math.gcd(2 * self.W, self.Lprime) != 1:
                raise ValueError("2W must be coprime with p*q")
            if self.L != 2 * self.W * self.Lprime:
                raise ValueError("L must equal 2*W*p*q")
            for m in range(1, self.W + 1):
                if crt_map(self.deltas[m - 1], self.p, self.q) != ((m - 1) % self.p, 0):
                    raise ValueError(f"delta_{m} has wrong CRT image")
        elif self.L != self.Lprime:
            raise ValueError("single-channel construction has L = p*q")

    @property
    def ell(self) -> int:
        """Largest group size."""
        return self.division.ell

    @property
    def ui_params(self) -> CrtUiParams:
        n_gen = self.ell if self.W >= 2 else self.K
        return CrtUiParams(K_gen=n_gen, w=self.w, p=self.p, q=self.q)


def select_params(K: int, M: int, W: int,
                  division: GroupDivision | None = None) -> ConstructionParams:
    """Choose (w, p, q, deltas) for K nodes on W of M channels.

    Multi-channel path: w = ell + 1, p the smallest prime >= max(w, 2W-2)
    coprime with 2W, q the smallest integer >= 2w-1 coprime with both p
    and 2W.  Single-channel path: plain CRT-UI with w = K.
    """
    if not 1 <= W <= M <= K:
        raise ValueError(f"need 1 <= W <= M <= K, got W={W}, M={M}, K={K}")
    if division is None:
        division = GroupDivision.even(K, W)
    if division.K != K or division.W != W:
        raise ValueError("division inconsistent with K and W")

    if W == 1:
        w = K
        p = next_prime(w)
        q = 2 * w - 1
        return ConstructionParams(K=K, M=M, W=1, division=division, w=w,
                                  p=p, q=q, Lprime=p * q, L=p * q, deltas=(0,))

    ell = division.ell
    w = ell + 1
    # The CRT flattening in the final step needs gcd(2W, pq) = 1, so skip
    # primes dividing 2W during the search.
    p = next_prime(max(w, 2 * W - 2), coprime_with=2 * W)
    q = 2 * w - 1
    while math.gcd(q, p) != 1 or math.gcd(q, 2 * W) != 1:
        q += 1
    # ell generators are used, and the auto-correlation argument needs
    # g <= p - 1; ell <= w - 1 <= p - 1 guarantees it.
    assert ell <= p - 1
    deltas = tuple(crt_inverse(((m - 1) % p, 0), p, q) for m in range(1, W + 1))
    return ConstructionParams(K=K, M=M, W=W, division=division, w=w,
                              p=p, q=q, Lprime=p * q, L=2 * W * p * q, deltas=deltas)


def m_prime(K: int) -> int:
    """Channel-count threshold: smallest n with (4n-3)^2 >= 8K + 9.

    Integer form of ceil(sqrt(K/2 + 9/16) + 3/4).
    """
    n = 1
    while (4 * n - 3) ** 2 < 8 * K + 9:
        n += 1
    return n


def choose_W(K: int, M: int) -> tuple[int, ConstructionParams]:
    """Pick the employed channel count minimizing the period.

    Evaluates every W in [1, M] under even division (prime gaps make the
    period non-monotone in W), preferring the smaller W on ties.
    """
    if not 1 <= M <= K:
        raise ValueError(f"need 1 <= M <= K, got M={M}, K={K}")
    best: ConstructionParams | None = None
    for W in range(1, M + 1):
        cand = select_params(K, M, W)
        if best is None or cand.L < best.L:
            best = cand
    assert best is not None
    return best.W, best


def _ui_ones(params: ConstructionParams, gens) -> np.ndarray:
    """(len(gens), w) positions of the ones of each generator's CRT-UI
    sequence: u -> CRT^-1(u*g mod p, u mod q) for u in Z_w."""
    u = np.arange(params.w)
    a = np.multiply.outer(np.asarray(gens, dtype=np.int64), u) % params.p
    return crt_inverse((a, u % params.q), params.p, params.q)


def _array_stack(params: ConstructionParams, groups, gens) -> np.ndarray:
    """(n, 2W, L') int16 stack of the arrays of n nodes, node k in group
    groups[k] using generator gens[k].

    Rows 2(r-1) and 2r-1 are the generator's UI sequence with 1 -> T_m and
    0 -> R_r, unshifted and shifted by the group's pre-assigned offset.
    """
    W, Lp = params.W, params.Lprime
    groups = np.asarray(groups, dtype=np.int64)
    ones = _ui_ones(params, gens)[:, None, :]
    # cyclic_shift by delta moves a one at x to x - delta.
    shifted = (ones - np.asarray(params.deltas)[groups - 1, None, None]) % Lp
    stack = np.empty((groups.size, 2 * W, Lp), dtype=np.int16)
    stack[...] = -(np.arange(2 * W, dtype=np.int16) // 2 + 1)[:, None]
    node = np.arange(groups.size)[:, None, None]
    even = 2 * np.arange(W)[:, None]
    tx = groups.astype(np.int16)[:, None, None]
    stack[node, even, ones] = tx
    stack[node, even + 1, shifted] = tx
    return stack


def build_array(params: ConstructionParams, i: int) -> np.ndarray:
    """2W x L' symbol-code array of node i (the n-th node of group m).

    Rows 2(r-1) and 2r-1 are the generator-n UI sequence with 1 -> T_m and
    0 -> R_r, unshifted and shifted by the group's pre-assigned offset.
    """
    if params.W < 2:
        raise ValueError("single-channel construction has no array form")
    m = params.division.group_of(i)
    n = params.division.rank_in_group(i)
    return _array_stack(params, [m], [n])[0]


@dataclass(frozen=True, eq=False)
class ScheduleSequenceSet:
    """K schedule sequences of a common period, one per node."""

    sequences: tuple[ScheduleSequence, ...]
    params: ConstructionParams | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequences", tuple(self.sequences))
        if not self.sequences:
            raise ValueError("empty sequence set")
        L = self.sequences[0].length
        if any(s.length != L for s in self.sequences):
            raise ValueError("sequences must share one period")
        groups = [s.owner_group for s in self.sequences]
        W = max(groups)
        if set(groups) != set(range(1, W + 1)):
            raise ValueError("owner groups 1..W must all be non-empty")
        for s in self.sequences:
            lowest = int(s.codes.min())
            if lowest < -W:
                raise ValueError(f"receive channel {-lowest} exceeds W={W}")
        if self.params is not None and tuple(self.params.division.assignment) != tuple(groups):
            raise ValueError("params.division disagrees with sequence owner groups")

    @property
    def K(self) -> int:
        return len(self.sequences)

    @property
    def L(self) -> int:
        return self.sequences[0].length

    @property
    def W(self) -> int:
        return max(s.owner_group for s in self.sequences)

    @property
    def division(self) -> GroupDivision:
        return GroupDivision(tuple(s.owner_group for s in self.sequences))

    def codes_matrix(self) -> np.ndarray:
        return np.stack([s.codes for s in self.sequences])

    @cached_property
    def action_table(self) -> np.ndarray:
        """The set's wrapped slot-action table (kernel.cyclic_table),
        built on first use and kept: every randomized verification and
        sequence simulation of the set reads through it.  The codes it is
        built from are read-only, so it cannot go stale."""
        return kernel.cyclic_table([s.codes for s in self.sequences], self.W)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ScheduleSequenceSet)
                and self.sequences == other.sequences)


def build_schedule_set(K: int, M: int, W: int | None = None,
                       seed: int | None = None) -> ScheduleSequenceSet:
    """Construct a schedule sequence set for K nodes and M channels.

    W defaults to the period-minimizing channel count.  The multi-channel
    path builds the whole set as one (K, 2W, L') stack of node arrays and
    flattens it once; node i of group m uses generator n, its rank in the
    group, and a seed shuffles which ranks each group keeps.
    """
    if W is None:
        _, params = choose_W(K, M)
    else:
        params = select_params(K, M, W)
    groups = params.division.assignment
    if params.W == 1:
        gens = list(range(1, params.K + 1))
        if seed is not None:
            random.Random(seed).shuffle(gens)
        codes = np.full((params.K, params.L), -1, dtype=np.int16)
        codes[np.arange(params.K)[:, None], _ui_ones(params, gens)] = 1
    else:
        rng = random.Random(seed) if seed is not None else None
        rank_pool = {}
        for m in range(1, params.W + 1):
            ranks = list(range(1, params.ell + 1))
            if rng is not None:
                rng.shuffle(ranks)
            rank_pool[m] = iter(ranks)
        # Node i keeps the rank_in_group-th surviving rank of its group, so
        # the default (no seed) reproduces the plain generator-by-rank
        # assignment.
        gens = [next(rank_pool[m]) for m in groups]
        codes = array_to_sequence(_array_stack(params, groups, gens))
    seqs = tuple(ScheduleSequence(row, owner_group=m) for row, m in zip(codes, groups))
    return ScheduleSequenceSet(seqs, params=params)


def length_upper_bound(K: int, M: int) -> int:
    """Guaranteed-achievable period for even division with W = M <= M'."""
    if M > m_prime(K):
        raise ValueError(f"M={M} exceeds the threshold M'={m_prime(K)}")
    c = -(-K // M)  # ceil(K / M)
    return 2 * M * (2 * c + 2) * (4 * c + 2)
