"""Core types and exact integer primitives for schedule sequences.

Symbols, periodic sequences, cyclic shifts, Hamming correlations, the
CRT bijection between Z_pq and Z_p x Z_q, and group divisions.  Node,
channel and group indices are 1-based in the public API; numpy arrays
are indexed 0-based internally.

A transmit-on-channel-m action is encoded as the integer +m and a
receive-on-channel-r action as -r, so a whole schedule fits in a small
signed integer array.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

import numpy as np

_SYMBOL_RE = re.compile(r"^([TR])([0-9]+)$")


class SymbolKind(Enum):
    TRANSMIT = "T"
    RECEIVE = "R"


@dataclass(frozen=True)
class Symbol:
    """One slot action: transmit on a channel or listen to a channel."""

    kind: SymbolKind
    channel: int

    def __post_init__(self) -> None:
        if self.channel < 1:
            raise ValueError(f"channel must be >= 1, got {self.channel}")

    @classmethod
    def transmit(cls, channel: int) -> "Symbol":
        return cls(SymbolKind.TRANSMIT, channel)

    @classmethod
    def receive(cls, channel: int) -> "Symbol":
        return cls(SymbolKind.RECEIVE, channel)

    @property
    def code(self) -> int:
        """Signed integer encoding: +channel transmit, -channel receive."""
        return self.channel if self.kind is SymbolKind.TRANSMIT else -self.channel

    @classmethod
    def from_code(cls, code: int) -> "Symbol":
        if code == 0:
            raise ValueError("0 is not a valid symbol code")
        return cls.transmit(code) if code > 0 else cls.receive(-code)

    @classmethod
    def from_str(cls, text: str) -> "Symbol":
        m = _SYMBOL_RE.match(text)
        if m is None:
            raise ValueError(f"bad symbol {text!r}, expected T<m> or R<r>")
        kind, channel = m.groups()
        return cls(SymbolKind(kind), int(channel))

    def __str__(self) -> str:
        return f"{self.kind.value}{self.channel}"


def _as_code_array(codes: Iterable[int]) -> np.ndarray:
    arr = np.asarray(list(codes) if not isinstance(codes, np.ndarray) else codes,
                     dtype=np.int16)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sequence must be a non-empty 1-D list of symbols")
    return arr


def _row_fault(row: np.ndarray, group: int) -> str | None:
    if not row.all():
        return "symbol code 0 is invalid"
    if group < 1:
        return "owner_group must be >= 1"
    foreign = row[(row > 0) & (row != group)]
    if foreign.size:
        return f"transmit on channel {int(foreign[0])} but node owns group {group}"
    return None


def first_fault(codes: np.ndarray, groups) -> tuple[int, str] | None:
    """The first row of an (n, L) block of int16 schedule codes that breaks
    the rule every schedule keeps, with the reason, or None.

    Row r, owned by group groups[r], breaks it with a code 0, an owner
    group below 1, or a transmit on a channel other than its group's
    (Assignment T), checked in that order.  One pass finds the candidate
    rows: c XOR g is positive exactly when a code c >= 0 differs from a
    group g >= 1, while receive codes keep the sign bit.  A group outside
    1..32767 owns no int16 code, so its row is always a candidate.
    """
    groups = [int(g) for g in groups]
    narrow = np.array([g if 0 < g < 1 << 15 else 0 for g in groups], dtype=np.int16)
    worst = (codes ^ narrow[:, None]).max(axis=1).tolist()
    for r, (w, g) in enumerate(zip(worst, groups)):
        if w > 0 or not 0 < g < 1 << 15:
            reason = _row_fault(codes[r], g)
            if reason is not None:
                return r, reason
    return None


@dataclass(frozen=True, eq=False)
class ScheduleSequence:
    """Periodic per-slot action schedule of one node.

    Every transmit entry must use the owner group's channel
    (Assignment T); receive entries may listen to any channel.
    """

    codes: np.ndarray
    owner_group: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", _as_code_array(self.codes))
        fault = first_fault(self.codes[None], [self.owner_group])
        if fault is not None:
            raise ValueError(fault[1])
        self.codes.setflags(write=False)

    @classmethod
    def _row(cls, codes: np.ndarray, owner_group: int) -> "ScheduleSequence":
        """A sequence on a read-only row that its set has already checked."""
        seq = cls.__new__(cls)
        object.__setattr__(seq, "codes", codes)
        object.__setattr__(seq, "owner_group", owner_group)
        return seq

    @classmethod
    def from_symbols(cls, symbols: Iterable[Symbol], owner_group: int) -> "ScheduleSequence":
        return cls(np.array([s.code for s in symbols], dtype=np.int16), owner_group)

    @property
    def length(self) -> int:
        return int(self.codes.size)

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(Symbol.from_code(int(c)) for c in self.codes)

    @property
    def transmit_count(self) -> int:
        return int((self.codes > 0).sum())

    def receive_count(self, channel: int) -> int:
        return int((self.codes == -channel).sum())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ScheduleSequence)
                and self.owner_group == other.owner_group
                and np.array_equal(self.codes, other.codes))

    def __str__(self) -> str:
        return "[" + " ".join(str(s) for s in self.symbols) + "]"


@dataclass(frozen=True, eq=False)
class BinarySequence:
    """Periodic 0/1 sequence; the single-channel protocol-sequence view."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bits must be a non-empty 1-D array")
        if not (arr <= 1).all():
            raise ValueError("bits must be 0/1")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @classmethod
    def from_ones(cls, length: int, ones: Iterable[int]) -> "BinarySequence":
        bits = np.zeros(length, dtype=np.uint8)
        for t in ones:
            bits[t] = 1
        return cls(bits)

    @property
    def length(self) -> int:
        return int(self.bits.size)

    @property
    def weight(self) -> int:
        """Hamming weight: number of 1s in a period."""
        return int(self.bits.sum())

    @property
    def ones(self) -> tuple[int, ...]:
        return tuple(int(t) for t in np.flatnonzero(self.bits))

    def relabel(self, transmit_channel: int, receive_channel: int) -> ScheduleSequence:
        """Map 1 -> T_m and 0 -> R_r, producing a schedule sequence."""
        codes = np.where(self.bits == 1, transmit_channel, -receive_channel)
        return ScheduleSequence(codes.astype(np.int16), owner_group=transmit_channel)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BinarySequence) and np.array_equal(self.bits, other.bits)


@dataclass(frozen=True)
class GroupDivision:
    """Partition of the K nodes into W non-empty groups, 1-based."""

    assignment: tuple[int, ...]  # group index of node i at position i-1

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(map(int, self.assignment)))
        if not self.assignment:
            raise ValueError("empty division")
        W = max(self.assignment)
        # one C-level count per group; a W above K leaves some group empty
        if (min(self.assignment) < 1 or W > self.K
                or 0 in (sizes := tuple(map(self.assignment.count, range(1, W + 1))))):
            raise ValueError(f"groups 1..{W} must all be non-empty, "
                             f"got {sorted(set(self.assignment))}")
        object.__setattr__(self, "_sizes", sizes)

    @classmethod
    def even(cls, K: int, W: int) -> "GroupDivision":
        """Round-robin division; group sizes differ by at most one."""
        if not 1 <= W <= K:
            raise ValueError(f"need 1 <= W <= K, got W={W}, K={K}")
        cycle = tuple(range(1, W + 1))
        return cls(cycle * (K // W) + cycle[:K % W])

    @property
    def K(self) -> int:
        return len(self.assignment)

    @property
    def W(self) -> int:
        return len(self._sizes)

    def group_of(self, i: int) -> int:
        return self.assignment[i - 1]

    def members(self, m: int) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.assignment, 1) if g == m)

    def rank_in_group(self, i: int) -> int:
        """1-based position of node i inside its own group."""
        return self.assignment[:i].count(self.group_of(i))

    def sizes(self) -> tuple[int, ...]:
        return self._sizes

    @property
    def k_min(self) -> int:
        return min(self._sizes)

    @property
    def ell(self) -> int:
        return max(self._sizes)


@dataclass(frozen=True)
class OffsetVector:
    """Per-node time offsets, each in Z_L."""

    offsets: tuple[int, ...]
    period: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "offsets", tuple(int(t) for t in self.offsets))
        if any(not 0 <= t < self.period for t in self.offsets):
            raise ValueError(f"offsets must lie in [0, {self.period})")


# --- CRT correspondence ---------------------------------------------------

def crt_map(t: int, p: int, q: int) -> tuple[int, int]:
    """Bijection Z_pq -> Z_p x Z_q, t -> (t mod p, t mod q)."""
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p} and q={q} must be coprime")
    if not 0 <= t < p * q:
        raise ValueError(f"t={t} out of range Z_{p * q}")
    return t % p, t % q


@lru_cache(maxsize=None)
def _crt_basis(p: int, q: int) -> tuple[int, int]:
    # e_p is 1 mod p and 0 mod q; e_q the other way round.
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p} and q={q} must be coprime")
    e_p = q * pow(q, -1, p) % (p * q)
    e_q = p * pow(p, -1, q) % (p * q)
    return e_p, e_q


def crt_inverse(residues: tuple[int, int], p: int, q: int) -> int:
    """Unique t in Z_pq with t = a (mod p) and t = b (mod q).

    a and b may also be integer arrays (broadcast together); t is then
    computed elementwise.
    """
    a, b = residues
    e_p, e_q = _crt_basis(p, q)
    inside = (0 <= a) & (a < p) & (0 <= b) & (b < q)  # a bool for ints
    if inside is not True and not np.all(inside):
        raise ValueError(f"residues {residues} out of range for (p, q)=({p}, {q})")
    return (a * e_p + b * e_q) % (p * q)


def sequence_to_array(values: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Lay a length rows*cols sequence out as an array via the CRT map.

    Entry t of the sequence lands at array position (t mod rows, t mod cols).
    """
    values = np.asarray(values)
    if math.gcd(rows, cols) != 1:
        raise ValueError(f"rows={rows} and cols={cols} must be coprime")
    if values.size != rows * cols:
        raise ValueError("sequence length must equal rows*cols")
    t = np.arange(rows * cols)
    arr = np.empty((rows, cols), dtype=values.dtype)
    arr[t % rows, t % cols] = values
    return arr


def array_to_sequence(arr: np.ndarray) -> np.ndarray:
    """Inverse of sequence_to_array: s(t) = arr(t mod rows, t mod cols).

    A stack of arrays, shape (..., rows, cols), flattens each one: the
    result has shape (..., rows*cols).
    """
    *lead, rows, cols = arr.shape
    if math.gcd(rows, cols) != 1:
        raise ValueError(f"rows={rows} and cols={cols} must be coprime")
    t = np.arange(rows * cols)
    # take, not arr[..., t % rows, t % cols]: that result is laid out with
    # the slot axis first, so each sequence would be a strided view.
    return np.take(arr.reshape(*lead, rows * cols), t % rows * cols + t % cols, axis=-1)


# --- cyclic shifts and Hamming correlation --------------------------------

def cyclic_shift(seq, tau: int):
    """Cyclic shift by tau slots: output index t holds input index t+tau mod L."""
    if not isinstance(seq, (BinarySequence, ScheduleSequence)):
        raise TypeError(f"cannot shift {type(seq).__name__}")
    _check_shift(tau, seq.length)
    if isinstance(seq, BinarySequence):
        return BinarySequence(np.roll(seq.bits, -tau))
    return ScheduleSequence(np.roll(seq.codes, -tau), seq.owner_group)


def _check_shift(tau: int, L: int) -> None:
    if not 0 <= tau < L:
        raise ValueError(f"shift {tau} out of range Z_{L}")


def hamming_cross_correlation(s1: BinarySequence, s2: BinarySequence, tau: int) -> int:
    """Number of coinciding 1s between s1 and s2 shifted by tau."""
    if s1.length != s2.length:
        raise ValueError(f"length mismatch: {s1.length} vs {s2.length}")
    _check_shift(tau, s1.length)
    return int(np.dot(s1.bits.astype(np.int64), np.roll(s2.bits, -tau).astype(np.int64)))


def correlation_profile(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming cross-correlation at every shift at once.

    Returns c with c[tau] = sum_t a[t] * b[(t+tau) mod L], computed by FFT
    and rounded back to exact integers (entries are small counts, far below
    the double-precision integer limit).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("profiles need two equal-length 1-D arrays")
    L = a.size
    spectrum = np.conj(np.fft.rfft(a)) * np.fft.rfft(b)
    c = np.fft.irfft(spectrum, n=L)
    return np.rint(c).astype(np.int64)
