"""Slot-synchronous Monte-Carlo simulation of the collision-channel model.

Per slot, every node either transmits on one channel or listens to one;
a packet goes through on a channel exactly when it carries a single
transmitter, and then reaches every node listening to that channel.  A
run ends once every ordered node pair has seen at least one delivery,
and reports that broadcast completion time.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constructor import ScheduleSequenceSet
from .random_schemes import AssignTRandomParams, GeneralRandomParams, frame_length
from .seqcore import GroupDivision, OffsetVector

_CHUNK_SLOTS = 512


@dataclass(frozen=True)
class SequenceScheme:
    sset: ScheduleSequenceSet


@dataclass(frozen=True)
class AssignTRandomScheme:
    params: AssignTRandomParams
    division: GroupDivision | None = None  # defaults to the even division


@dataclass(frozen=True)
class GeneralRandomScheme:
    params: GeneralRandomParams


Scheme = Union[SequenceScheme, AssignTRandomScheme, GeneralRandomScheme]


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
        if isinstance(self.offset_mode, str) and self.offset_mode not in ("uniform", "zero"):
            raise ValueError(f"unknown offset mode {self.offset_mode!r}")

    @property
    def K(self) -> int:
        s = self.scheme
        if isinstance(s, SequenceScheme):
            return s.sset.K
        return s.params.K

    @property
    def W(self) -> int:
        s = self.scheme
        if isinstance(s, SequenceScheme):
            return s.sset.W
        return s.params.W

    def resolved_max_slots(self) -> int:
        if self.max_slots is not None:
            return self.max_slots
        if isinstance(self.scheme, SequenceScheme):
            return 20 * self.scheme.sset.L
        return 20 * frame_length(self.K)


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


def _draw_offsets(config: SimConfig, rng: np.random.Generator, L: int) -> np.ndarray:
    mode = config.offset_mode
    if isinstance(mode, OffsetVector):
        if len(mode.offsets) != config.K or mode.period != L:
            raise ValueError("fixed offsets do not match the scheme")
        return np.array(mode.offsets)
    if mode == "zero":
        return np.zeros(config.K, dtype=np.int64)
    return rng.integers(0, L, size=config.K)


def _assign_t_codes(scheme: AssignTRandomScheme, u: np.ndarray,
                    division: GroupDivision) -> np.ndarray:
    """Map uniform draws u (K x T) to symbol codes for the grouped scheme."""
    params = scheme.params
    K, W = params.K, params.W
    own = np.array(division.assignment)[:, None]
    codes = np.where(u < params.p_b, own, -own)  # transmit or own-channel receive
    if W > 1:
        others = np.array([[m for m in range(1, W + 1) if m != g]
                           for g in division.assignment])
        tail = u - params.p_b - params.q_1
        pick = np.clip((tail / params.q_2).astype(np.int64), 0, W - 2)
        other_ch = np.take_along_axis(
            np.broadcast_to(others[:, None, :], (K, u.shape[1], W - 1)),
            pick[:, :, None], axis=2)[:, :, 0]
        codes = np.where(tail >= 0, -other_ch, codes)
    return codes


def _general_codes(scheme: GeneralRandomScheme, u: np.ndarray) -> np.ndarray:
    params = scheme.params
    W = params.W
    tx_zone = u < W * params.p_a
    tx_ch = np.clip((u / params.p_a).astype(np.int64), 0, W - 1) + 1
    rx_ch = np.clip(((u - W * params.p_a) / params.q_a).astype(np.int64), 0, W - 1) + 1
    return np.where(tx_zone, tx_ch, -rx_ch)


def _run_one(config: SimConfig, rng: np.random.Generator,
             max_slots: int) -> tuple[int, bool, np.ndarray]:
    K, W = config.K, config.W
    scheme = config.scheme
    if isinstance(scheme, SequenceScheme):
        codes = scheme.sset.codes_matrix()
        L = scheme.sset.L
        taus = _draw_offsets(config, rng, L)
    elif isinstance(scheme, AssignTRandomScheme):
        division = scheme.division or GroupDivision.even(K, W)
    first = -np.ones((K, K), dtype=np.int64)
    off_diag = ~np.eye(K, dtype=bool)
    t0 = 0
    while t0 < max_slots and (first[off_diag] < 0).any():
        T = min(_CHUNK_SLOTS, max_slots - t0)
        if isinstance(scheme, SequenceScheme):
            idx = (t0 + np.arange(T)[None, :] + taus[:, None]) % L
            actions = codes[np.arange(K)[:, None], idx]
        elif isinstance(scheme, AssignTRandomScheme):
            actions = _assign_t_codes(scheme, rng.random((K, T)), division)
        else:
            actions = _general_codes(scheme, rng.random((K, T)))
        for m in range(1, W + 1):
            tx = actions == m
            uniq = tx.sum(axis=0) == 1
            txu = tx & uniq[None, :]
            if not txu.any():
                continue
            rx = actions == -m
            hit3 = txu[:, None, :] & rx[None, :, :]
            got = hit3.any(axis=2)
            cand = t0 + hit3.argmax(axis=2)
            # A pair can succeed on several channels within one chunk;
            # it keeps the earliest slot over all of them.
            update = got & ((first < 0) | (cand < first))
            first[update] = cand[update]
        t0 += T
    pending = (first[off_diag] < 0).any()
    completion = max_slots if pending else int(first[off_diag].max()) + 1
    return completion, bool(pending), first


def _run_range(config: SimConfig, max_slots: int, start: int, stop: int):
    """Execute runs [start, stop); child streams are keyed by run index,
    so results are identical no matter how runs are batched."""
    children = np.random.SeedSequence(config.seed).spawn(config.runs)[start:stop]
    times = np.empty(stop - start, dtype=np.int64)
    censored = np.empty(stop - start, dtype=bool)
    pair_tables = [] if config.record_pairs else None
    for r, child in enumerate(children):
        completion, pending, first = _run_one(config, np.random.default_rng(child), max_slots)
        times[r] = completion
        censored[r] = pending
        if pair_tables is not None:
            pair_tables.append(first)
    return times, censored, pair_tables


def simulate(config: SimConfig, threads: int = 1) -> SimResult:
    """Run the configured campaign; bit-identical for identical configs.

    Each run gets an independent child RNG stream spawned from the master
    seed, so results do not depend on execution order or on threads.
    """
    max_slots = config.resolved_max_slots()
    if isinstance(config.scheme, SequenceScheme) and max_slots < config.scheme.sset.L:
        raise ValueError("max_slots below one period cannot certify completion")
    if threads > 1 and config.runs > 1:
        n = min(threads, config.runs)
        edges = np.linspace(0, config.runs, n + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=n) as pool:
            futures = [pool.submit(_run_range, config, max_slots, int(a), int(b))
                       for a, b in zip(edges[:-1], edges[1:]) if b > a]
            parts = [f.result() for f in futures]
        times = np.concatenate([p[0] for p in parts])
        censored = np.concatenate([p[1] for p in parts])
        pair_tables = ([t for p in parts for t in p[2]] if config.record_pairs else None)
    else:
        times, censored, pair_tables = _run_range(config, max_slots, 0, config.runs)
    per_pair = np.stack(pair_tables) if pair_tables is not None else None
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
    separate mass and enter the mean at the slot cap."""
    n = result.runs
    ok = ~result.censored
    values, counts = np.unique(result.completion_times[ok], return_counts=True)
    pmf = counts / n
    cdf = np.cumsum(pmf)
    qs: dict[float, int] = {}
    all_times = np.sort(result.completion_times)
    for q in quantiles:
        qs[q] = int(all_times[min(n - 1, int(np.ceil(q * n)) - 1)]) if n else 0
    return CompletionHistogram(
        values=tuple(int(v) for v in values),
        counts=tuple(int(c) for c in counts),
        pmf=tuple(float(x) for x in pmf),
        cdf=tuple(float(x) for x in cdf),
        censored_mass=float(result.censored.sum() / n),
        mean=float(result.completion_times.mean()),
        quantiles=qs,
    )
