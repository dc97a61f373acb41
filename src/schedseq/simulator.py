"""Slot-synchronous Monte-Carlo simulation of the collision-channel model.

Per slot, every node either transmits on one channel or listens to one;
a packet goes through on a channel exactly when it carries a single
transmitter, and then reaches every node listening to that channel.  A
run ends once every ordered node pair has seen at least one delivery,
and reports that broadcast completion time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Protocol

import numpy as np

from . import kernel
from .constructor import ScheduleSequenceSet
from .pool import map_ranges
from .random_schemes import AssignTRandomParams, GeneralRandomParams, bisect_step, frame_length
from .seqcore import GroupDivision, OffsetVector


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), fixed by
# numpy's stream policy (NEP 19): entropy words are hashed with the INIT_A,
# MULT_A sequence and mixed by MIX_L, MIX_R; output words use INIT_B, MULT_B.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_OUT_HASH = [_INIT_B * pow(_MULT_B, i, 1 << 32) & _M32 for i in range(9)]
# output word 4 c + i hashes pool word i with the xor and multiply constants c, i
_OUT_XOR = np.array(_OUT_HASH[:8], dtype=np.uint32).reshape(2, 4)
_OUT_MUL = np.array(_OUT_HASH[1:], dtype=np.uint32).reshape(2, 4)
_WORDS_BLOCK = 4096  # runs per array pass, bounding its temporaries (~100 B a run)


@cache
def _key_hash(seed_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants that hash a spawn-key word into the
    4 pool words after a seed of seed_words (>= 4) words: they follow the
    16 hashes of the pool's start and 4 per seed word beyond the fourth."""
    n = 16 + 4 * (seed_words - 4)
    a = [_INIT_A * pow(_MULT_A, n + i, 1 << 32) & _M32 for i in range(5)]
    return np.array(a[:4], dtype=np.uint32), np.array(a[1:], dtype=np.uint32)


@cache
def _generator_from_words() -> Callable[[np.ndarray], np.random.Generator]:
    """Generator(PCG64) on four uint64 seed words.  numpy.random is imported
    here, so that commands that never simulate do not load it at start-up."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):  # PCG64 takes no other seed object
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for 4 uint64 words

    return lambda words: Generator(PCG64(SeedWords(words)))


class RunStreams:
    """The random streams of a range of runs; streams[n] makes that of
    runs[n].  Run k's stream is default_rng(SeedSequence(seed,
    spawn_key=(k,))), the k-th child of SeedSequence(seed).spawn, so a
    run's draws do not depend on how runs are split.

    That SeedSequence is SeedSequence(seed)'s pool with the word k hashed
    and mixed in (a seed is padded to the pool's 4 words first), so the
    PCG64 seed words of all runs are made in uint32 array passes over k
    and kept, 32 bytes a run.  k must be below 2**32, one key word
    (OverflowError otherwise).
    """

    def __init__(self, seed: int, runs: range) -> None:
        pool = np.random.SeedSequence(seed).pool  # numpy's seed checks
        key_xor, key_mul = _key_hash(max(4, -(-int(seed).bit_length() // 32)))
        mixed = pool * np.uint32(_MIX_L)
        self.words = np.empty((len(runs), 4), dtype=np.uint64)
        for lo in range(0, len(runs), _WORDS_BLOCK):
            part = runs[lo:lo + _WORDS_BLOCK]
            h = np.arange(part.start, part.stop, part.step, dtype=np.uint32)[:, None] ^ key_xor
            h *= key_mul
            h ^= h >> 16
            h *= np.uint32(_MIX_R)
            p = mixed - h
            p ^= p >> 16
            out = p[:, None, :] ^ _OUT_XOR
            out *= _OUT_MUL
            out ^= out >> 16
            # numpy reads the output words in little-endian pairs
            out = out.reshape(-1, 8).astype("<u4", copy=False)
            self.words[lo:lo + len(part)] = out.view("<u8")
        self._generator = _generator_from_words()

    def __getitem__(self, n: int) -> np.random.Generator:
        return self._generator(self.words[n])


class Scheme(Protocol):
    """What the simulator needs of a transmission scheme."""

    @property
    def K(self) -> int: ...

    @property
    def W(self) -> int: ...

    @property
    def transmit_channels(self) -> np.ndarray | None:
        """Each node's one transmit channel, (K,) in 1..W, when the scheme
        fixes it; None when a node may transmit on any channel."""
        ...

    def max_slots(self, requested: int | None) -> int:
        """The campaign's slot cap: requested, or the scheme's default
        when None; ValueError for a cap the scheme cannot use."""
        ...

    def action_source(self, seed: int, runs: range,
                      offset_mode: str | OffsetVector) -> kernel.Actions:
        """Slot actions of `runs`, indexed from 0 (see kernel.run_batch).
        Run k draws only from its stream in RunStreams(seed, runs); a
        source that does not draw makes no stream."""
        ...


@dataclass(frozen=True)
class SequenceScheme:
    sset: ScheduleSequenceSet

    @property
    def K(self) -> int:
        return self.sset.K

    @property
    def W(self) -> int:
        return self.sset.W

    @property
    def transmit_channels(self) -> np.ndarray:
        return np.array(self.sset.division.assignment)  # each node's owner group

    def max_slots(self, requested: int | None) -> int:
        if requested is None:
            return 20 * self.sset.L
        if requested < self.sset.L:
            raise ValueError("max_slots below one period cannot certify completion")
        return requested

    def action_source(self, seed, runs, offset_mode):
        K, L = self.K, self.sset.L
        if isinstance(offset_mode, OffsetVector):
            if len(offset_mode.offsets) != K or offset_mode.period != L:
                raise ValueError("fixed offsets do not match the scheme")
            taus = np.tile(offset_mode.offsets, (len(runs), 1))
        elif offset_mode == "zero":
            taus = np.zeros((len(runs), K), dtype=np.int64)
        else:
            # a run's offsets are all it draws: one stream alive at a time,
            # and the seed words of one block of runs
            taus = np.empty((len(runs), K), dtype=np.int64)
            for lo in range(0, len(runs), _WORDS_BLOCK):
                streams = RunStreams(seed, runs[lo:lo + _WORDS_BLOCK])
                for n in range(len(streams.words)):
                    taus[lo + n] = streams[n].integers(0, L, size=K)
        return kernel.cyclic_reads(self.sset.codes_matrix(), taus)


def _band_edge(band: Callable[[float], int], k: int) -> float:
    """The smallest double u in [0, 1) with band(u) >= k, or 1.0 when there
    is none, for a nondecreasing band(u) on [0, 1]."""
    if band(0.0) >= k:
        return 0.0
    return bisect_step(lambda u: band(u) >= k, 0.0, 1.0)[1]


class _DrawnScheme:
    """Shared by the random schemes: their actions are fresh draws, and
    max_slots defaults to 20 analytic frame lengths.

    The scheme's probabilities split [0, 1) into consecutive bands, one per
    action, and a uniform draw u acts by its band, band(u).  band is the
    scheme's float rule, and each of its steps is nondecreasing in u, so
    band k begins at one double, its edge, and u lies in band #(u >= edge).
    The edges are found once per scheme; a draw then becomes an action by
    edge comparisons and a lookup in an int16 code table, one row per node
    class, with no float arithmetic on the draw.
    """

    @property
    def K(self) -> int:
        return self.params.K

    @property
    def W(self) -> int:
        return self.params.W

    def max_slots(self, requested: int | None) -> int:
        return 20 * frame_length(self.K) if requested is None else requested

    @cached_property
    def _edges(self) -> tuple[float, ...]:
        band = self._band_rule()
        return tuple(_band_edge(band, k) for k in range(1, self._code_table()[0].shape[1]))

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat code table and each node's offset into it, a column
        that broadcasts against (K, T) draws."""
        table, rows = self._code_table()
        offsets = (rows * table.shape[1]).astype(np.min_scalar_type(table.size - 1))
        return table.ravel(), offsets[:, None]

    def _codes_into(self, u: np.ndarray, out: np.ndarray, index: np.ndarray,
                    hit: np.ndarray) -> None:
        """out = symbol codes of draws u; index and hit are scratch arrays of
        u's shape.  A draw's table index is its node's offset plus the
        number of edges it reaches."""
        table, acc = self._lookup
        for edge in self._edges:
            np.greater_equal(u, edge, out=hit)
            np.add(acc, hit.view(np.uint8), out=index)
            acc = index
        table.take(index, out=out, mode="clip")

    def codes(self, u: np.ndarray) -> np.ndarray:
        """Symbol codes of uniform draws u, one row per node; the general
        scheme, whose nodes all act alike, takes any number of rows."""
        out = np.empty(u.shape, dtype=np.int16)
        self._codes_into(u, out, np.empty(u.shape, dtype=self._lookup[1].dtype),
                         np.empty(u.shape, dtype=bool))
        return out

    def action_source(self, seed, runs, offset_mode):
        """Each active run draws a fresh (K, T) block of uniforms from its
        own stream, turned into slot actions as codes() does.  A batch's
        streams are made at its first chunk, which asks for all of its
        runs, and dropped at the next batch's."""
        streams = RunStreams(seed, runs)
        rngs: dict[int, np.random.Generator] = {}
        index_dtype = self._lookup[1].dtype

        def actions(ids: np.ndarray, t0: int, T: int) -> np.ndarray:
            if t0 == 0:
                rngs.clear()
                rngs.update((r, streams[r]) for r in ids.tolist())
            u = np.empty((self.K, T))
            index = np.empty(u.shape, dtype=index_dtype)
            hit = np.empty(u.shape, dtype=bool)
            out = np.empty((ids.size, self.K, T), dtype=np.int16)
            for n, r in enumerate(ids.tolist()):
                rngs[r].random(out=u)
                self._codes_into(u, out[n], index, hit)
            return out
        return actions


@dataclass(frozen=True)
class AssignTRandomScheme(_DrawnScheme):
    """Band 0 transmits on the node's own channel (p_b), band 1 receives
    on it (q_1), and bands 2..W receive on the other channels in
    ascending order (q_2 each)."""

    params: AssignTRandomParams

    @cached_property
    def transmit_channels(self) -> np.ndarray:
        return np.array(GroupDivision.even(self.params.K, self.params.W).assignment)

    def _band_rule(self) -> Callable[[float], int]:
        p_b, q_1, q_2, W = self.params.p_b, self.params.q_1, self.params.q_2, self.params.W

        def band(u: float) -> int:
            if u < p_b:
                return 0
            tail = u - p_b - q_1
            if W == 1 or tail < 0:
                return 1
            return 2 + int(min(tail / q_2, W - 2))  # the last band takes rounding up to 1
        return band

    def _code_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Row c - 1 holds the codes of the nodes whose own channel is c."""
        W = self.params.W
        table = np.array([[c, -c] + [-m for m in range(1, W + 1) if m != c]
                          for c in range(1, W + 1)], dtype=np.int16)
        return table, self.transmit_channels - 1


@dataclass(frozen=True)
class GeneralRandomScheme(_DrawnScheme):
    """Bands 0..W-1 transmit on channels 1..W (p_a each), and bands
    W..2W-1 receive on channels 1..W (q_a each)."""

    params: GeneralRandomParams

    transmit_channels = None  # a node may transmit on any channel

    def _band_rule(self) -> Callable[[float], int]:
        p_a, q_a, W = self.params.p_a, self.params.q_a, self.params.W

        def band(u: float) -> int:
            if u < W * p_a:
                return int(min(u / p_a, W - 1))
            return W + int(min((u - W * p_a) / q_a, W - 1))
        return band

    def _code_table(self) -> tuple[np.ndarray, np.ndarray]:
        W = self.params.W
        table = np.array([list(range(1, W + 1)) + list(range(-1, -W - 1, -1))],
                         dtype=np.int16)
        return table, np.zeros(1, dtype=np.int64)


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: scheme, run count, seeding and offsets.

    offset_mode is "uniform", "zero", or an OffsetVector applied to every
    run; it only affects sequence schemes, whose slot actions are
    schedule reads rather than fresh draws.  max_slots defaults to 20
    periods (sequence) or 20 analytic frame lengths (random schemes).
    """

    scheme: Scheme
    runs: int
    seed: int = 0
    max_slots: int | None = None
    offset_mode: str | OffsetVector = "uniform"
    record_pairs: bool = False

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("need at least one run")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_slots is not None and self.max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if isinstance(self.offset_mode, str) and self.offset_mode not in ("uniform", "zero"):
            raise ValueError(f"unknown offset mode {self.offset_mode!r}")

    @property
    def K(self) -> int:
        return self.scheme.K

    @property
    def W(self) -> int:
        return self.scheme.W

    def resolved_max_slots(self) -> int:
        return self.scheme.max_slots(self.max_slots)


@dataclass(frozen=True, eq=False)
class SimResult:
    """Per-run completion times; censored runs hold the slot cap."""

    completion_times: np.ndarray
    censored: np.ndarray
    seed: int
    max_slots: int
    per_pair_first_success: np.ndarray | None = None

    @property
    def runs(self) -> int:
        return int(self.completion_times.size)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SimResult)
                and self.seed == other.seed
                and self.max_slots == other.max_slots
                and np.array_equal(self.completion_times, other.completion_times)
                and np.array_equal(self.censored, other.censored))


def _run_range(config: SimConfig, max_slots: int, start: int, stop: int):
    """Execute runs [start, stop); run k draws from its own stream (see
    RunStreams), so results are identical no matter how runs are batched."""
    actions = config.scheme.action_source(config.seed, range(start, stop),
                                          config.offset_mode)
    K, n = config.K, stop - start
    off_diag = ~np.eye(K, dtype=bool)
    times = np.empty(n, dtype=np.int64)
    censored = np.empty(n, dtype=bool)
    pair_tables = [] if config.record_pairs else None
    for ids, first in kernel.run_batches(actions, n, K, config.W, max_slots,
                                         config.scheme.transmit_channels):
        served = first[:, off_diag]
        pending = (served < 0).any(axis=1)
        # a one-node set has no pair to serve and completes at time 0
        times[ids] = np.where(pending, max_slots, served.max(axis=1, initial=-1) + 1)
        censored[ids] = pending
        if pair_tables is not None:
            pair_tables.extend(first)
    return times, censored, pair_tables


def simulate(config: SimConfig, threads: int = 1) -> SimResult:
    """Run the configured campaign; bit-identical for identical configs.

    Each run gets an independent child RNG stream spawned from the master
    seed, so results do not depend on execution order or on threads.
    """
    max_slots = config.resolved_max_slots()
    parts = list(map_ranges(partial(_run_range, config, max_slots), config.runs, threads))
    times = np.concatenate([p[0] for p in parts])
    censored = np.concatenate([p[1] for p in parts])
    per_pair = (np.stack([t for p in parts for t in p[2]])
                if config.record_pairs else None)
    return SimResult(times, censored, seed=config.seed, max_slots=max_slots,
                     per_pair_first_success=per_pair)


@dataclass(frozen=True)
class CompletionHistogram:
    """Empirical distribution of completion times over a campaign."""

    values: tuple[int, ...]
    counts: tuple[int, ...]
    pmf: tuple[float, ...]
    cdf: tuple[float, ...]
    censored_mass: float
    mean: float
    quantiles: dict[float, int]


def completion_histogram(result: SimResult,
                         quantiles: tuple[float, ...] = (0.5, 0.9, 0.99)) -> CompletionHistogram:
    """Normalized PMF/CDF of completion times; censored runs are a
    separate mass and enter the mean at the slot cap.  The q-quantile is
    the ceil(q n)-th smallest time, the smallest for q = 0."""
    if any(not 0 <= q <= 1 for q in quantiles):
        raise ValueError(f"quantiles must lie in [0, 1], got {quantiles}")
    n = result.runs
    ok = ~result.censored
    values, counts = np.unique(result.completion_times[ok], return_counts=True)
    pmf = counts / n
    cdf = np.cumsum(pmf)
    qs: dict[float, int] = {}
    all_times = np.sort(result.completion_times)
    for q in quantiles:
        qs[q] = int(all_times[min(n - 1, max(0, int(np.ceil(q * n)) - 1))]) if n else 0
    return CompletionHistogram(
        values=tuple(int(v) for v in values),
        counts=tuple(int(c) for c in counts),
        pmf=tuple(float(x) for x in pmf),
        cdf=tuple(float(x) for x in cdf),
        censored_mass=float(result.censored.sum() / n),
        mean=float(result.completion_times.mean()),
        quantiles=qs,
    )
