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
    first_fault,
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


def construction_period(K: int, W: int, ell: int) -> tuple[int, int, int, int]:
    """(w, p, q, L) of the construction for K nodes in W groups, the
    largest of ell nodes: the one home of the p/q search and the period.

    Multi-channel path: w = ell + 1, p the smallest prime >= max(w, 2W-2)
    coprime with 2W, q the smallest integer >= 2w-1 coprime with both p
    and 2W, and L = 2W*p*q.  Single-channel path (ell = K): plain CRT-UI
    with w = K and L = p*q.  Only integers are computed: select_params
    builds and validates the params object.
    """
    if not 1 <= W <= K:
        raise ValueError(f"need 1 <= W <= K, got W={W}, K={K}")
    if W == 1:
        p = next_prime(K)
        return K, p, 2 * K - 1, p * (2 * K - 1)
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
    return w, p, q, 2 * W * p * q


def select_params(K: int, M: int, W: int,
                  division: GroupDivision | None = None) -> ConstructionParams:
    """The validated ConstructionParams for K nodes on W of M channels.

    (w, p, q) and the period L come from construction_period for the
    division's largest group (even division by default); the deltas put
    group m's row offset at CRT image (m - 1, 0), and W = 1 has the one
    delta 0.
    """
    if not 1 <= W <= M <= K:
        raise ValueError(f"need 1 <= W <= M <= K, got W={W}, M={M}, K={K}")
    if division is None:
        division = GroupDivision.even(K, W)
    if division.K != K or division.W != W:
        raise ValueError("division inconsistent with K and W")
    w, p, q, L = construction_period(K, W, division.ell)
    deltas = tuple(crt_inverse(((m - 1) % p, 0), p, q) for m in range(1, W + 1))
    return ConstructionParams(K=K, M=M, W=W, division=division, w=w,
                              p=p, q=q, Lprime=p * q, L=L, deltas=deltas)


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

    Compares construction_period's L for every W in [1, M] under even
    division (prime gaps make the period non-monotone in W), preferring
    the smaller W on ties, and builds validated params for that W alone.
    """
    if not 1 <= M <= K:
        raise ValueError(f"need 1 <= M <= K, got M={M}, K={K}")
    periods = [construction_period(K, W, -(-K // W))[3] for W in range(1, M + 1)]
    W = periods.index(min(periods)) + 1
    return W, select_params(K, M, W)


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


def check_rows(codes: np.ndarray, groups) -> None:
    """Check an (n, L) code matrix against the rule of every schedule, a
    block of rows of about kernel.BATCH_BYTES at a time.

    Raises ValueError "sequence <i>: <reason>" for the first row that
    breaks the rule (seqcore.first_fault, which a lone ScheduleSequence
    also runs on its one row).
    """
    step = max(1, kernel.BATCH_BYTES // max(1, codes.shape[1] * codes.itemsize))
    for lo in range(0, len(codes), step):
        fault = first_fault(codes[lo:lo + step], groups[lo:lo + step])
        if fault is not None:
            raise ValueError(f"sequence {lo + fault[0] + 1}: {fault[1]}")


@dataclass(frozen=True, eq=False)
class ScheduleSequenceSet:
    """K schedule sequences of a common period, one per node.

    The set keeps its codes as one read-only (K, L) int16 matrix, which it
    checks once: no code 0 and no transmit outside the node's group, a
    block of rows at a time (check_rows), and no receive channel above W.
    Its sequences are read-only row views of that matrix, not checked
    again.  A set is made from its sequences, whose codes are copied into
    the matrix, or from a matrix that it takes over (from_codes).
    """

    sequences: tuple[ScheduleSequence, ...]
    params: ConstructionParams | None = None

    def __post_init__(self) -> None:
        seqs = tuple(self.sequences)
        if seqs and any(s.length != seqs[0].length for s in seqs):
            raise ValueError("sequences must share one period")
        codes = np.stack([s.codes for s in seqs]) if seqs else np.empty((0, 0), np.int16)
        self._adopt(codes, [s.owner_group for s in seqs])

    @classmethod
    def from_codes(cls, codes: np.ndarray, groups,
                   params: ConstructionParams | None = None) -> "ScheduleSequenceSet":
        """The set whose node i (1-based) has row i - 1 of the (K, L) int16
        matrix codes and owner group groups[i - 1].  The set takes codes
        over and makes it read-only; a faulty row raises ValueError
        "sequence <i>: <reason>"."""
        sset = cls.__new__(cls)
        object.__setattr__(sset, "params", params)
        sset._adopt(np.ascontiguousarray(codes, dtype=np.int16), groups)
        return sset

    def _adopt(self, codes: np.ndarray, groups) -> None:
        groups = tuple(map(int, groups))
        if not groups:
            raise ValueError("empty sequence set")
        if codes.ndim != 2 or len(codes) != len(groups) or not codes.shape[1]:
            raise ValueError(f"codes of shape {codes.shape} do not give {len(groups)} "
                             "non-empty rows")
        check_rows(codes, groups)
        W = max(groups)
        if set(groups) != set(range(1, W + 1)):
            raise ValueError("owner groups 1..W must all be non-empty")
        if codes.min() < -W:
            lowest = codes.min(axis=1)
            raise ValueError(f"receive channel {-int(lowest[lowest < -W][0])} exceeds W={W}")
        if self.params is not None and tuple(self.params.division.assignment) != groups:
            raise ValueError("params.division disagrees with sequence owner groups")
        codes.setflags(write=False)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_groups", groups)
        object.__setattr__(self, "sequences", tuple(map(ScheduleSequence._row, codes, groups)))

    @property
    def K(self) -> int:
        return len(self._groups)

    @property
    def L(self) -> int:
        return self._codes.shape[1]

    @property
    def W(self) -> int:
        return max(self._groups)

    @property
    def division(self) -> GroupDivision:
        return GroupDivision(self._groups)

    @property
    def codes(self) -> np.ndarray:
        """The read-only (K, L) int16 code matrix; row x - 1 is node x's."""
        return self._codes

    def codes_matrix(self) -> np.ndarray:
        """A fresh, writable copy of the code matrix."""
        return self._codes.copy()

    @cached_property
    def action_table(self) -> np.ndarray:
        """The set's wrapped slot-action table (kernel.cyclic_table),
        built on first use and kept: every randomized verification and
        sequence simulation of the set reads through it.  The codes it is
        built from are read-only, so it cannot go stale."""
        return kernel.cyclic_table(self._codes, self.W)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ScheduleSequenceSet) and self._groups == other._groups
                and np.array_equal(self._codes, other._codes))

    def __reduce__(self):
        # Rebuilt through from_codes, so that the rows stay views of one
        # matrix; an action table already built goes along.
        table = vars(self).get("action_table")
        return (type(self).from_codes, (self._codes, self._groups, self.params),
                None if table is None else {"action_table": table})


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
    return ScheduleSequenceSet.from_codes(codes, groups, params=params)


def length_upper_bound(K: int, M: int) -> int:
    """Guaranteed-achievable period for even division with W = M <= M'."""
    if M > m_prime(K):
        raise ValueError(f"M={M} exceeds the threshold M'={m_prime(K)}")
    c = -(-K // M)  # ceil(K / M)
    return 2 * M * (2 * c + 2) * (4 * c + 2)
