"""The bit-packed collision kernel against slot-by-slot oracles."""

import tracemalloc

import numpy as np
import pytest

from schedseq import kernel
from schedseq.constructor import ScheduleSequenceSet, build_schedule_set
from schedseq.random_schemes import AssignTRandomParams, GeneralRandomParams
from schedseq.seqcore import ScheduleSequence
from schedseq.simulator import (
    AssignTRandomScheme,
    GeneralRandomScheme,
    SequenceScheme,
    SimConfig,
    simulate,
)
from schedseq.verifier import Verdict, verify_set

from conftest import brute_force_first_success, pair_ok_for_offsets


def random_actions(rng, R: int, K: int, W: int, T: int) -> np.ndarray:
    """Rows of mixed channels (as in the general scheme), plus one column
    where every node transmits on channel 1 and one where all listen."""
    actions = rng.integers(1, W + 1, size=(R, K, T)) * rng.choice([-1, 1], size=(R, K, T))
    if T > 2:
        actions[:, :, 1] = 1
        actions[:, :, 2] = -1
    return actions


def every_row(actions: np.ndarray, W: int) -> np.ndarray:
    """first_delivery over every transmitter row of every run, as (R, K, K)."""
    R, K, _ = actions.shape
    pos, tx = np.divmod(np.arange(R * K), K)
    return kernel.first_delivery(actions, W, pos, tx).reshape(R, K, K)


class TestFirstDelivery:
    @pytest.mark.parametrize("T", [1, 63, 64, 65, 512])
    def test_matches_slot_replay(self, T):
        rng = np.random.default_rng(T)
        for n in range(18):
            K = int(rng.integers(2, 13))
            # the last six have as many channels as nodes, or two more
            W = int(rng.integers(1, 5)) if n < 12 else K + 2 * (n % 2)
            actions = random_actions(rng, 3, K, W, T)
            got = every_row(actions, W)
            for r in range(3):
                assert np.array_equal(got[r], brute_force_first_success(actions[r])), (K, W)

    def test_some_rows_equal_those_rows_of_all(self):
        # rows in any order, repeated, and of a subset of the runs
        rng = np.random.default_rng(5)
        K, T = 6, 130
        pos = np.array([3, 0, 3, 2, 2])
        tx = np.array([5, 0, 1, 4, 4])
        for W in (3, K, K + 2):
            actions = random_actions(rng, 4, K, W, T)
            want = np.stack([brute_force_first_success(a) for a in actions])
            assert np.array_equal(every_row(actions, W), want), W
            got = kernel.first_delivery(actions, W, pos, tx)
            assert np.array_equal(got, want[pos, tx]), W
            assert kernel.first_delivery(actions, W, pos[:0], tx[:0]).shape == (0, K)

    def test_collision_and_silence_deliver_nothing(self):
        K, T = 5, 70
        everyone = np.ones((1, K, T), dtype=np.int16)
        nobody = -np.ones((1, K, T), dtype=np.int16)
        idle = np.zeros((1, K, T), dtype=np.int16)
        for actions in (everyone, nobody, idle):
            assert (every_row(actions, 2) == -1).all()

    def test_more_transmitters_than_a_byte_counts(self):
        # 257 transmitters in slot 5 collide while node 257 listens (a uint8
        # count would wrap to 1); node 0 alone in slot 9 reaches everyone
        K = 258
        actions = -np.ones((1, K, 64), dtype=np.int16)
        actions[0, :-1, 5] = 1
        actions[0, 0, 9] = 1
        first = every_row(actions, 1)[0]
        assert np.array_equal(first, brute_force_first_success(actions[0]))
        assert (first[0, 1:] == 9).all() and (first[1:] == -1).all()

    def test_single_transmitter_reaches_its_channel_only(self):
        # node 0 sends on channel 2 in slot 66; node 1 listens to 2, node 2 to 1
        actions = -np.ones((1, 3, 70), dtype=np.int16)
        actions[0, 0, 66] = 2
        actions[0, 1, :] = -2
        first = every_row(actions, 2)[0]
        assert first[0, 1] == 66
        assert first[0, 2] == -1 and (first[1:] == -1).all()


def own_channel_actions(rng, R: int, K: int, channel: np.ndarray, W: int,
                        T: int) -> np.ndarray:
    """Rows in which node x transmits only on channel[x] and listens to any
    of the W channels, with idle slots, plus one column where every node
    transmits and one where all listen to channel 1."""
    send = rng.random((R, K, T)) < rng.uniform(0.05, 0.6)
    actions = np.where(send, channel[:, None], -rng.integers(1, W + 1, size=(R, K, T)))
    actions[rng.random((R, K, T)) < 0.05] = 0
    if T > 2:
        actions[:, :, 1] = channel
        actions[:, :, 2] = -1
    return actions.astype(np.int16)


def rows_of(R: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    return np.divmod(np.arange(R * K), K)


class TestOneLayer:
    """first_delivery with each node's one transmit channel given."""

    @pytest.mark.parametrize("T", [1, 63, 64, 65, 512])
    def test_matches_slot_replay_and_the_channel_loop(self, T):
        rng = np.random.default_rng(100 + T)
        for _ in range(12):
            K, W = int(rng.integers(2, 14)), int(rng.integers(1, 5))
            channel = rng.integers(1, W + 1, size=K)
            actions = own_channel_actions(rng, 3, K, channel, W, T)
            pos, tx = rows_of(3, K)
            got = kernel.first_delivery(actions, W, pos, tx, channel)
            assert np.array_equal(got, kernel.first_delivery(actions, W, pos, tx)), (K, W)
            got = got.reshape(3, K, K)
            for r in range(3):
                assert np.array_equal(got[r], brute_force_first_success(actions[r])), (K, W)

    def test_one_channel(self):
        rng = np.random.default_rng(1)
        K, T = 9, 200
        channel = np.ones(K, dtype=np.int64)
        actions = own_channel_actions(rng, 2, K, channel, 1, T)
        pos, tx = rows_of(2, K)
        got = kernel.first_delivery(actions, 1, pos, tx, channel).reshape(2, K, K)
        for r in range(2):
            assert np.array_equal(got[r], brute_force_first_success(actions[r]))
        assert (got >= 0).any()

    def test_a_channel_without_nodes(self):
        # nobody owns channel 2, though some nodes listen to it
        rng = np.random.default_rng(2)
        K, W, T = 8, 3, 130
        channel = rng.choice([1, 3], size=K)
        channel[:2] = [1, 3]
        actions = own_channel_actions(rng, 3, K, channel, W, T)
        assert (actions == -2).any()
        pos, tx = rows_of(3, K)
        got = kernel.first_delivery(actions, W, pos, tx, channel)
        assert np.array_equal(got, kernel.first_delivery(actions, W, pos, tx))
        for r in range(3):
            assert np.array_equal(got.reshape(3, K, K)[r],
                                  brute_force_first_success(actions[r]))

    def test_more_transmitters_than_a_byte_counts(self):
        # 257 nodes on two channels; in slot 5 all 129 of channel 1 transmit
        # in run 0, and every node in run 1
        rng = np.random.default_rng(3)
        K, T = 257, 64
        channel = np.ones(K, dtype=np.int64)
        channel[1::2] = 2
        actions = own_channel_actions(rng, 2, K, channel, 2, T)
        actions[0, :, 5] = np.where(channel == 1, 1, -1)
        actions[1, :, 5] = channel
        pos, tx = rows_of(2, K)
        got = kernel.first_delivery(actions, 2, pos, tx, channel)
        assert np.array_equal(got, kernel.first_delivery(actions, 2, pos, tx))
        for r in range(2):
            assert np.array_equal(got.reshape(2, K, K)[r],
                                  brute_force_first_success(actions[r]))
        # 258 nodes on one channel: 257 collide in slot 5 while the last
        # listens (a uint8 count would wrap to 1); node 0 alone in slot 9
        # reaches everyone
        K = 258
        channel = np.ones(K, dtype=np.int64)
        actions = -np.ones((1, K, T), dtype=np.int16)
        actions[0, :-1, 5] = 1
        actions[0, 0, 9] = 1
        first = kernel.first_delivery(actions, 1, *rows_of(1, K), channel)
        assert np.array_equal(first, brute_force_first_success(actions[0]))
        assert (first[0, 1:] == 9).all() and (first[1:] == -1).all()

    def test_some_rows_equal_those_rows_of_all(self):
        # rows in any order, repeated, and of a subset of the runs
        rng = np.random.default_rng(4)
        K, W, T = 6, 3, 130
        channel = np.array([1, 2, 3, 1, 2, 3])
        actions = own_channel_actions(rng, 4, K, channel, W, T)
        full = kernel.first_delivery(actions, W, *rows_of(4, K), channel).reshape(4, K, K)
        pos = np.array([3, 0, 3, 2, 2])
        tx = np.array([5, 0, 1, 4, 4])
        got = kernel.first_delivery(actions, W, pos, tx, channel)
        assert np.array_equal(got, full[pos, tx])
        assert kernel.first_delivery(actions, W, pos[:0], tx[:0], channel).shape == (0, K)

    @pytest.mark.parametrize("channel", [None, np.array([1, 2])], ids=["loop", "one-layer"])
    def test_refuses_more_than_a_chunk(self, channel):
        actions = -np.ones((1, 2, kernel.CHUNK_SLOTS + 1), dtype=np.int16)
        with pytest.raises(ValueError, match="at most 512 slots"):
            kernel.first_delivery(actions, 2, *rows_of(1, 2), channel)

    @pytest.mark.parametrize("K", [2, 18, 150])
    @pytest.mark.parametrize("one_layer", [False, True], ids=["loop", "one-layer"])
    def test_one_batch_fits_its_budget(self, K, one_layer):
        # the first chunk of a full batch, every row pending, with as many
        # channels as nodes: the traced peak stays within run_bytes per run
        rng = np.random.default_rng(K)
        R, W = kernel.batch_runs(K), K
        channel = rng.integers(1, W + 1, size=K)
        actions = own_channel_actions(rng, R, K, channel, W, kernel.CHUNK_SLOTS)
        pos, tx = rows_of(R, K)
        tracemalloc.start()
        try:
            kernel.first_delivery(actions, W, pos, tx, channel if one_layer else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert actions.nbytes + peak <= R * kernel.run_bytes(K), (peak, R)


def staggered_table(rng, R: int, K: int, W: int, slots: int) -> np.ndarray:
    """Mixed-channel slot actions in which each node of each run only
    listens before a start slot drawn over the whole range, so transmitter
    rows finish in different chunks; in run 0 node 0 never transmits."""
    table = random_actions(rng, R, K, W, slots)
    start = rng.integers(0, slots - 60, size=(R, K))
    for r in range(R):
        for x in range(K):
            table[r, x, :start[r, x]] = -int(rng.integers(1, W + 1))
    table[0, 0] = -1
    return table


def pending_at(want: np.ndarray, t0: int) -> np.ndarray:
    """(R, K) rows that still owe a delivery at slot t0: some receiver
    other than the transmitter is first served at t0 or later, or never."""
    K = want.shape[1]
    owed = ((want < 0) | (want >= t0)) & ~np.eye(K, dtype=bool)
    return owed.any(axis=2)


class TestChunkLoop:
    def test_run_batch_matches_slot_replay(self):
        # 1300 slots in chunks of 512: pairs served in an early chunk keep
        # their slot, and runs leave the batch once every pair is served
        rng = np.random.default_rng(8)
        K, W, R, slots = 4, 2, 6, 1300
        table = rng.integers(1, W + 1, size=(R, K, slots)) * rng.choice([-1, 1], size=(R, K, slots))
        table[:3, 0, :1100] = 1  # in three runs, node 1 listens only from slot 1100
        source = lambda ids, t0, T: table[ids, :, t0:t0 + T]  # noqa: E731
        first = kernel.run_batch(source, np.arange(R), K, W, slots)
        for r in range(R):
            want = np.array(brute_force_first_success(table[r]))
            assert np.array_equal(first[r], want), r

    @pytest.mark.parametrize("K, W", [(1, 1), (2, 1), (2, 2), (5, 2), (7, 3)])
    def test_pending_rows_over_chunks(self, monkeypatch, K, W):
        # four chunks (512, 512, 512, 76 slots); the logged action requests
        # and evaluated rows must be exactly the pending runs and rows
        rng = np.random.default_rng(10 * K + W)
        R, slots = 5, 3 * kernel.CHUNK_SLOTS + 76
        table = staggered_table(rng, R, K, W, slots)
        ids = np.array([2, 5, 6, 8, 9])  # batch position r holds run ids[r]
        runs = np.empty((ids.max() + 1, K, slots), dtype=table.dtype)
        runs[ids] = table
        want = np.array([brute_force_first_success(t) for t in table])
        requests, evaluated = [], []

        def source(asked, t0, T):
            requests.append((t0, asked.tolist()))
            return runs[asked, :, t0:t0 + T]

        def logged(actions, W, pos, tx, channel=None):
            asked = np.searchsorted(ids, requests[-1][1])  # batch positions
            evaluated.append(set(zip(asked[pos].tolist(), tx.tolist())))
            return first_delivery(actions, W, pos, tx, channel)

        first_delivery = kernel.first_delivery
        monkeypatch.setattr(kernel, "first_delivery", logged)
        first = kernel.run_batch(source, ids, K, W, slots)
        assert np.array_equal(first, want)

        starts = [t0 for t0, _ in requests]
        assert starts == list(range(0, slots, kernel.CHUNK_SLOTS))[:len(starts)]
        for (t0, asked), rows in zip(requests, evaluated):
            pending = pending_at(want, t0)
            assert asked == ids[pending.any(axis=1)].tolist(), t0
            assert rows == set(zip(*np.nonzero(pending))), t0
        assert all(b <= a for a, b in zip(evaluated, evaluated[1:]))
        if K == 1:
            assert requests == []  # no pair, so nothing to ask for
        else:
            # run 0 (node 0 never transmits) is censored, so every chunk runs
            assert len(requests) == 4
            assert (first[0, 0, 1:] == -1).all()
            assert len({len(rows) for rows in evaluated}) > 2

    @pytest.mark.parametrize("L", [1, 7, kernel.CHUNK_SLOTS - 1, kernel.CHUNK_SLOTS, 600])
    def test_cyclic_reads(self, L):
        rng = np.random.default_rng(L)
        K = 3
        codes = rng.integers(1, 3, size=(K, L)) * rng.choice([-1, 1], size=(K, L))
        taus = rng.integers(0, L, size=(4, K))
        actions = kernel.cyclic_reads(codes, taus)
        ids = np.array([3, 1])
        for t0, T in ((0, kernel.CHUNK_SLOTS), (1024, 100), (L - 1, kernel.CHUNK_SLOTS)):
            got = actions(ids, t0, T)
            for n, r in enumerate(ids):
                for x in range(K):
                    want = [codes[x, (t + taus[r, x]) % L] for t in range(t0, t0 + T)]
                    assert got[n, x].tolist() == want


def one_at_a_time(monkeypatch, config: SimConfig):
    monkeypatch.setattr(kernel, "BATCH_BYTES", 1)
    assert kernel.batch_runs(config.K) == 1
    result = simulate(config)
    monkeypatch.undo()
    return result


class TestBatchedSimulation:
    @pytest.mark.parametrize("scheme", [
        SequenceScheme(build_schedule_set(5, 2, W=2)),
        AssignTRandomScheme(AssignTRandomParams(2, 6, 0.2)),
        GeneralRandomScheme(GeneralRandomParams(3, 6, 0.07)),
    ], ids=["sequence", "assign_t", "general"])
    def test_batches_equal_single_runs(self, monkeypatch, scheme):
        # 1300 slots: two full chunks and a short one
        config = SimConfig(scheme, runs=70, seed=4, max_slots=1300, record_pairs=True)
        assert kernel.batch_runs(config.K) < config.runs
        batched = simulate(config)
        single = one_at_a_time(monkeypatch, config)
        assert batched == single
        assert np.array_equal(batched.per_pair_first_success, single.per_pair_first_success)

    def test_censored_runs_match_single_runs(self, monkeypatch):
        # a cap below most completion times leaves censored and served runs
        # side by side in one batch
        scheme = AssignTRandomScheme(AssignTRandomParams(1, 8, 0.125))
        config = SimConfig(scheme, runs=40, seed=2, max_slots=90, record_pairs=True)
        batched = simulate(config)
        assert 0 < batched.censored.sum() < config.runs
        single = one_at_a_time(monkeypatch, config)
        assert batched == single
        assert np.array_equal(batched.per_pair_first_success, single.per_pair_first_success)

    def test_threads_split_a_batch(self):
        sset = build_schedule_set(4, 2, W=2)
        batch = kernel.batch_runs(sset.K)
        runs = 3 * batch + 5
        assert (runs // 2) % batch != 0  # the two workers' ranges split a batch
        config = SimConfig(SequenceScheme(sset), runs=runs, seed=6, record_pairs=True)
        serial = simulate(config)
        parallel = simulate(config, threads=2)
        assert serial == parallel
        assert np.array_equal(serial.per_pair_first_success,
                              parallel.per_pair_first_success)


def partly_deaf(sset: ScheduleSequenceSet, node: int, channel: int, keep: int,
                rng) -> ScheduleSequenceSet:
    """node hears `channel` in only `keep` of its slots and listens to the
    next channel in the others, so some offset vectors fail and some do not."""
    codes = sset.codes_matrix().copy()
    row = codes[node - 1]
    hear = np.flatnonzero(row == -channel)
    row[rng.choice(hear, size=hear.size - keep, replace=False)] = -(channel % sset.W + 1)
    seqs = tuple(ScheduleSequence(codes[x], s.owner_group)
                 for x, s in enumerate(sset.sequences))
    return ScheduleSequenceSet(seqs)


def oracle_randomized(sset: ScheduleSequenceSet, samples: int, seed: int):
    """Randomized verify replayed slot by slot on the same offset draws, one
    sample at a time: (verdict, pairs_checked, witness as (i, j, offsets)
    or None)."""
    rng = np.random.default_rng(seed)
    K, L = sset.K, sset.L
    division = sset.division
    done = 0
    while done < samples:
        for row in rng.integers(0, L, size=(min(512, samples - done), K)):
            done += 1
            offsets = {x + 1: int(row[x]) for x in range(K)}
            for i in range(1, K + 1):
                for j in range(1, K + 1):
                    if j != i and not pair_ok_for_offsets(sset, i, j, offsets):
                        group = division.members(division.group_of(i))
                        kept = {x: offsets[x] for x in sorted(set(group) | {j})}
                        return Verdict.FAILED_WITH_WITNESS, done * K * (K - 1), (i, j, kept)
    return Verdict.UNKNOWN, samples * K * (K - 1), None


# (K, M, W, node, keep, samples): each case refutes on some of seeds 0-4;
# the first and last also answer UNKNOWN on others, and the middle one
# first fails at samples 129, 366, 334, 914 and 269, so seed 3 fails in
# the second offset draw of 512 samples.
DEAFENED = [
    (4, 2, 2, 2, 8, 5),
    (4, 2, 2, 3, 20, 1100),
    (6, 3, 3, 5, 8, 4),
]


def deafened(K: int, M: int, W: int, node: int, keep: int) -> ScheduleSequenceSet:
    return partly_deaf(build_schedule_set(K, M, W=W), node, 2, keep, np.random.default_rng(K))


class TestRandomizedVerify:
    @pytest.mark.parametrize("K, M, W, node, keep, samples", DEAFENED)
    def test_deafened_sets_match_slot_replay(self, K, M, W, node, keep, samples):
        sset = deafened(K, M, W, node, keep)
        failed_at = []  # first failing sample of each refuting seed
        for seed in range(5):
            report = verify_set(sset, mode="randomized", samples=samples, seed=seed)
            verdict, pairs_checked, witness = oracle_randomized(sset, samples, seed)
            if witness is not None:
                failed_at.append(pairs_checked // (K * (K - 1)) - 1)
            assert report.verdict is verdict
            assert report.pairs_checked == pairs_checked
            if witness is None:
                assert report.witness is None
            else:
                w = report.witness
                assert (w.transmitter, w.receiver, w.offsets) == witness
        assert failed_at
        if samples > 512:
            assert max(failed_at) >= 512  # a failure past the first draw

    def test_deafened_sets_ignore_batch_size_and_threads(self, monkeypatch):
        # The search stops at the first batch of runs that holds a failure;
        # one-run batches and two workers must find the same first sample.
        cases = [(deafened(*case[:5]), case[5]) for case in DEAFENED]

        def reports(threads=1):
            return [verify_set(sset, mode="randomized", samples=samples, seed=seed,
                               threads=threads)
                    for sset, samples in cases for seed in range(5)]
        serial = reports()
        assert kernel.batch_runs(4) < 512  # default batches cut a draw short
        assert reports(threads=2) == serial
        monkeypatch.setattr(kernel, "BATCH_BYTES", 1)
        assert kernel.batch_runs(6) == 1
        assert reports() == serial

    def test_threads_give_the_serial_report(self):
        # Two nodes that each send in one slot of 1500 fail when their
        # offsets coincide (p = 1/1500).  Over 1100 samples, three draws
        # split over two workers as [0] and [1, 2], some seeds fail in the
        # first draw, some in the second and some not at all.
        row = -np.ones(1500, dtype=np.int16)
        row[0] = 1
        sset = ScheduleSequenceSet((ScheduleSequence(row, 1), ScheduleSequence(row, 1)))
        outcomes = set()
        for seed in range(10):
            serial = verify_set(sset, mode="randomized", samples=1100, seed=seed)
            assert verify_set(sset, mode="randomized", samples=1100, seed=seed,
                              threads=2) == serial
            if serial.witness is None:
                assert serial.pairs_checked == 1100 * 2
                outcomes.add("unknown")
            else:
                w = serial.witness
                assert not pair_ok_for_offsets(sset, w.transmitter, w.receiver, w.offsets)
                # every pair of the samples up to and including the failing one
                sample = serial.pairs_checked // 2 - 1
                outcomes.add(f"draw {sample // 512}")
        assert outcomes == {"unknown", "draw 0", "draw 1"}

    def test_k150_stays_within_the_byte_budget(self):
        # The budget covers one batch of runs; the slack is the (K, L)
        # schedule table and its wrapped copy (K x (L + 511) slots), int16,
        # plus 1 MB of small arrays.
        sset = build_schedule_set(150, 5)
        K, L = sset.K, sset.L
        budget = max(kernel.BATCH_BYTES, kernel.run_bytes(K))
        slack = 2 * K * (L + kernel.CHUNK_SLOTS) * 2 + 2 ** 20
        tracemalloc.start()
        try:
            report = verify_set(sset, mode="randomized", samples=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.pairs_checked == 3 * K * (K - 1)
        assert peak < budget + slack, (peak, budget, slack)
