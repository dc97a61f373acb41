"""Slot-synchronous Monte-Carlo simulation of the collision-channel model.

Per slot, every node either transmits on one channel or listens to one;
a packet goes through on a channel exactly when it carries a single
transmitter, and then reaches every node listening to that channel.  A
run ends once every ordered node pair has seen at least one delivery,
and reports that broadcast completion time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Protocol

import numpy as np

from . import kernel
from .constructor import ScheduleSequenceSet
from .pool import map_ranges
from .random_schemes import AssignTRandomParams, GeneralRandomParams, frame_length
from .seqcore import GroupDivision, OffsetVector


class Scheme(Protocol):
    """What the simulator needs of a transmission scheme."""

    @property
    def K(self) -> int: ...

    @property
    def W(self) -> int: ...

    def max_slots(self, requested: int | None) -> int:
        """The campaign's slot cap: requested, or the scheme's default
        when None; ValueError for a cap the scheme cannot use."""
        ...

    def action_source(self, rngs: list[np.random.Generator],
                      offset_mode: str | OffsetVector) -> kernel.Actions:
        """Slot actions of runs by index into rngs (see kernel.run_batch);
        run r draws only from rngs[r]."""
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

    def max_slots(self, requested: int | None) -> int:
        if requested is None:
            return 20 * self.sset.L
        if requested < self.sset.L:
            raise ValueError("max_slots below one period cannot certify completion")
        return requested

    def action_source(self, rngs, offset_mode):
        K, L = self.K, self.sset.L
        if isinstance(offset_mode, OffsetVector):
            if len(offset_mode.offsets) != K or offset_mode.period != L:
                raise ValueError("fixed offsets do not match the scheme")
            taus = np.tile(offset_mode.offsets, (len(rngs), 1))
        elif offset_mode == "zero":
            taus = np.zeros((len(rngs), K), dtype=np.int64)
        else:
            taus = np.array([rng.integers(0, L, size=K) for rng in rngs])
        return kernel.cyclic_reads(self.sset.codes_matrix(), taus)


class _DrawnScheme:
    """Shared by the random schemes: their actions are fresh draws, and
    max_slots defaults to 20 analytic frame lengths."""

    @property
    def K(self) -> int:
        return self.params.K

    @property
    def W(self) -> int:
        return self.params.W

    def max_slots(self, requested: int | None) -> int:
        return 20 * frame_length(self.K) if requested is None else requested

    def action_source(self, rngs, offset_mode):
        """Each active run draws a fresh (K, T) block of uniforms from its
        own stream, mapped to slot actions by codes()."""
        def actions(ids: np.ndarray, t0: int, T: int) -> np.ndarray:
            out = np.empty((ids.size, self.K, T), dtype=np.int16)
            for n, r in enumerate(ids):
                out[n] = self.codes(rngs[r].random((self.K, T)))
            return out
        return actions


@dataclass(frozen=True)
class AssignTRandomScheme(_DrawnScheme):
    params: AssignTRandomParams

    @cached_property
    def _own(self) -> np.ndarray:
        """(K, 1) column of each node's own channel, built once per scheme."""
        own = np.array(GroupDivision.even(self.params.K, self.params.W).assignment)[:, None]
        own.setflags(write=False)
        return own

    def codes(self, u: np.ndarray) -> np.ndarray:
        """Symbol codes of uniform draws u (K x T): transmit on the node's
        own channel for p_b, then receive on it for q_1, then on the other
        channels in ascending order for q_2 each."""
        params = self.params
        W = params.W
        own = self._own
        codes = np.where(u < params.p_b, own, -own)
        if W > 1:
            tail = u - params.p_b - params.q_1
            pick = np.clip((tail / params.q_2).astype(np.int64), 0, W - 2) + 1
            # the pick-th channel other than own: channels from own up move one up
            codes = np.where(tail >= 0, -(pick + (pick >= own)), codes)
        return codes


@dataclass(frozen=True)
class GeneralRandomScheme(_DrawnScheme):
    params: GeneralRandomParams

    def codes(self, u: np.ndarray) -> np.ndarray:
        """Symbol codes of uniform draws u: transmit on channels 1..W in
        turn for p_a each, then receive on channels 1..W for q_a each."""
        params = self.params
        W = params.W
        tx_ch = np.clip((u / params.p_a).astype(np.int64), 0, W - 1) + 1
        rx_ch = np.clip(((u - W * params.p_a) / params.q_a).astype(np.int64), 0, W - 1) + 1
        return np.where(u < W * params.p_a, tx_ch, -rx_ch)


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
    """Execute runs [start, stop); run k's stream is the k-th child of the
    seed (SeedSequence.spawn order), so results are identical no matter
    how runs are batched."""
    rngs = [np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(k,)))
            for k in range(start, stop)]
    actions = config.scheme.action_source(rngs, config.offset_mode)
    K, n = config.K, stop - start
    off_diag = ~np.eye(K, dtype=bool)
    times = np.empty(n, dtype=np.int64)
    censored = np.empty(n, dtype=bool)
    pair_tables = [] if config.record_pairs else None
    for ids, first in kernel.run_batches(actions, n, K, config.W, max_slots):
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
    parts = map_ranges(partial(_run_range, config, max_slots), config.runs, threads)
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
