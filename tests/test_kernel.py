"""The bit-packed collision kernel against slot-by-slot oracles."""

import contextlib
import pickle
import tracemalloc

import numpy as np
import pytest

from schedseq import kernel
from schedseq.cli import load_set, save_set
from schedseq.constructor import ScheduleSequenceSet, build_schedule_set
from schedseq.random_schemes import AssignTRandomParams, GeneralRandomParams
from schedseq.seqcore import OffsetVector, ScheduleSequence
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


@contextlib.contextmanager
def rule_forced(sparse: bool):
    """first_delivery's choice of path forced: the event path when sparse,
    the dense path otherwise."""
    rule = kernel._sparse
    kernel._sparse = lambda send_words, R, K, T: sparse
    try:
        yield
    finally:
        kernel._sparse = rule


@contextlib.contextmanager
def path_log():
    """The rule's choices, in call order, as a list of True (events) and
    False (dense)."""
    rule, log = kernel._sparse, []

    def logged(send_words, R, K, T):
        log.append(rule(send_words, R, K, T))
        return log[-1]
    kernel._sparse = logged
    try:
        yield log
    finally:
        kernel._sparse = rule


def on_every_path(actions: np.ndarray, W: int, pos: np.ndarray, tx: np.ndarray,
                  channel: np.ndarray | None = None) -> np.ndarray:
    """first_delivery's table, checked equal to the event function called
    directly and to first_delivery with its rule forced either way; with
    each node's transmit channel given, also to both ways of the
    per-channel loop."""
    got = kernel.first_delivery(actions, W, pos, tx, channel)
    tables = [kernel._event_slots(actions, pos, actions[pos, tx])]
    for sparse in (True, False):
        with rule_forced(sparse):
            tables.append(kernel.first_delivery(actions, W, pos, tx, channel))
            if channel is not None:
                tables.append(kernel.first_delivery(actions, W, pos, tx))
    for n, table in enumerate(tables):
        assert np.array_equal(table, got), n
    return got


def every_row(actions: np.ndarray, W: int) -> np.ndarray:
    """first_delivery over every transmitter row of every run, as (R, K, K),
    on every path."""
    R, K, _ = actions.shape
    pos, tx = np.divmod(np.arange(R * K), K)
    return on_every_path(actions, W, pos, tx).reshape(R, K, K)


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
            got = on_every_path(actions, W, pos, tx)
            assert np.array_equal(got, want[pos, tx]), W
            assert on_every_path(actions, W, pos[:0], tx[:0]).shape == (0, K)

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

    def test_rows_without_transmit_slots(self):
        # requested rows that never transmit in the chunk sit between rows
        # that do, and in run 1 no requested row transmits at all
        rng = np.random.default_rng(6)
        K, W, T = 7, 2, 100
        actions = random_actions(rng, 2, K, W, T)
        actions[0, [1, 4]] = -1
        actions[1, [0, 2]] = -2
        pos = np.array([0, 0, 0, 0, 1, 1])
        tx = np.array([0, 1, 3, 4, 0, 2])
        got = on_every_path(actions, W, pos, tx)
        want = np.stack([brute_force_first_success(a) for a in actions])
        assert np.array_equal(got, want[pos, tx])
        assert (got[[1, 3, 4, 5]] == -1).all() and (got[[0, 2]] >= 0).any()
        with path_log() as log:
            assert np.array_equal(kernel.first_delivery(actions, W, pos[4:], tx[4:]), got[4:])
        assert log == [True]  # no event at all

    @pytest.mark.parametrize("T", [kernel.CHUNK_SLOTS + 1, 13 * kernel.CHUNK_SLOTS, 2 ** 16 + 7])
    def test_event_slots_over_a_span(self, T):
        # the event function judges any number of slots: sends in about 1%
        # of slots, and node 0 hears only in one late slot, the longest
        # span's past the reach of 16-bit slots
        rng = np.random.default_rng(T)
        R, K, W = 2, 3, 2
        actions = np.where(rng.random((R, K, T)) < 0.01, rng.integers(1, W + 1, size=(R, K, T)),
                           -rng.integers(1, W + 1, size=(R, K, T)))
        actions[:, 0] = 0
        actions[0, :, T - 1] = [-1, 1, -2]
        actions[1, :, T - 2] = [-2, -1, 2]
        pos, tx = np.divmod(np.arange(R * K), K)
        got = kernel._event_slots(actions, pos, actions[pos, tx]).reshape(R, K, K)
        for r in range(R):
            assert np.array_equal(got[r], brute_force_first_success(actions[r])), r
        assert got[0, 1, 0] == T - 1 and got[1, 2, 0] == T - 2

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
    return actions.astype(kernel.action_dtype(W))


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
            got = on_every_path(actions, W, pos, tx, channel)
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
        got = on_every_path(actions, 1, pos, tx, channel).reshape(2, K, K)
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
        got = on_every_path(actions, W, pos, tx, channel)
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
        got = on_every_path(actions, 2, pos, tx, channel)
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
        first = on_every_path(actions, 1, *rows_of(1, K), channel)
        assert np.array_equal(first, brute_force_first_success(actions[0]))
        assert (first[0, 1:] == 9).all() and (first[1:] == -1).all()

    def test_some_rows_equal_those_rows_of_all(self):
        # rows in any order, repeated, and of a subset of the runs
        rng = np.random.default_rng(4)
        K, W, T = 6, 3, 130
        channel = np.array([1, 2, 3, 1, 2, 3])
        actions = own_channel_actions(rng, 4, K, channel, W, T)
        full = on_every_path(actions, W, *rows_of(4, K), channel).reshape(4, K, K)
        pos = np.array([3, 0, 3, 2, 2])
        tx = np.array([5, 0, 1, 4, 4])
        got = on_every_path(actions, W, pos, tx, channel)
        assert np.array_equal(got, full[pos, tx])
        assert on_every_path(actions, W, pos[:0], tx[:0], channel).shape == (0, K)

    @pytest.mark.parametrize("one_layer", [False, True], ids=["loop", "one-layer"])
    def test_more_than_a_chunk_equals_slot_replay(self, one_layer):
        # judged dense, a table longer than a chunk is judged a chunk at a
        # time.  Each node only listens before a start slot drawn over the
        # table, so pairs are first served in late chunks, and node 1 of
        # run 1 reaches everyone in the last slot alone.
        R, K, W = 3, 5, 2
        channel = np.array([1, 2, 1, 2, 2])
        for T in (kernel.CHUNK_SLOTS + 1, 3 * kernel.CHUNK_SLOTS + 76):
            rng = np.random.default_rng(T)
            actions = own_channel_actions(rng, R, K, channel, W, T)
            start = rng.integers(0, T - 20, size=(R, K))
            for r in range(R):
                for x in range(K):
                    actions[r, x, :start[r, x]] = -1
            actions[1, :, T - 1] = -2
            actions[1, 1, :T - 1] = -1
            actions[1, 1, T - 1] = 2
            with rule_forced(False):
                got = kernel.first_delivery(actions, W, *rows_of(R, K),
                                            channel if one_layer else None)
            got = got.reshape(R, K, K)
            for r in range(R):
                assert np.array_equal(got[r], brute_force_first_success(actions[r])), (T, r)
            assert (got[1, 1, [0, 2, 3, 4]] == T - 1).all(), T

    @pytest.mark.parametrize("K", [2, 18, 150])
    @pytest.mark.parametrize("one_layer", [False, True], ids=["loop", "one-layer"])
    def test_one_batch_fits_its_budget(self, K, one_layer):
        # the first chunk of a full batch of the path's own size, every row
        # pending, with as many channels as nodes: the traced peak stays
        # within the path's run_bytes per run
        rng = np.random.default_rng(K)
        W = K
        path = W if one_layer else None
        R = kernel.batch_runs(K, path)
        channel = rng.integers(1, W + 1, size=K)
        actions = own_channel_actions(rng, R, K, channel, W, kernel.CHUNK_SLOTS)
        pos, tx = rows_of(R, K)
        tracemalloc.start()
        try:
            kernel.first_delivery(actions, W, pos, tx, channel if one_layer else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert actions.nbytes + peak <= R * kernel.run_bytes(K, path), (peak, R)


def one_node_per_group(W: int, L: int, rng) -> ScheduleSequenceSet:
    """K = W nodes, node x (from 0) alone in group W - x: it transmits on
    that channel in about 3 of 5 slots and listens to any channel in the
    others.  In slot 0 node 0 transmits on channel W and the rest listen to
    it, so the widest codes, +W and -W, both carry deliveries."""
    seqs = []
    for x in range(W):
        codes = np.where(rng.random(L) < 0.6, W - x, -rng.integers(1, W + 1, size=L))
        codes[0] = W if x == 0 else -W
        seqs.append(ScheduleSequence(codes, W - x))
    return ScheduleSequenceSet(tuple(seqs))


def read_at(sset: ScheduleSequenceSet, taus, slots: int) -> np.ndarray:
    """(K, slots) actions of the set read at offsets taus, slot by slot."""
    return np.array([[int(s.codes[(t + tau) % sset.L]) for t in range(slots)]
                     for s, tau in zip(sset.sequences, taus)])


def batch_of(scheme) -> int:
    """Runs per batch that run_batches gives the scheme's kernel path."""
    one_layer = scheme.transmit_channels is not None
    return kernel.batch_runs(scheme.K, scheme.W if one_layer else None)


class TestBatchMemory:
    """A whole first-chunk run_batch of the kernel's own batch size, source
    included, stays within BATCH_BYTES, or within one run's estimate when
    that is larger."""

    @pytest.mark.parametrize("K, W", [(K, W) for K in (2, 4, 9, 18, 40, 150)
                                      for W in sorted({1, min(3, K), K})])
    @pytest.mark.parametrize("kind", ["sequence", "assign_t"])
    def test_one_layer_batch(self, kind, K, W):
        rng = np.random.default_rng(K + W)
        if kind == "sequence":
            channel = np.arange(K) % W + 1
            L = 600  # longer than a chunk, so windows start anywhere in the period
            codes = np.where(rng.random((K, L)) < 0.3, channel[:, None],
                             -rng.integers(1, W + 1, size=(K, L)))
            scheme = SequenceScheme(ScheduleSequenceSet(tuple(
                ScheduleSequence(row, c) for row, c in zip(codes, channel))))
        else:
            scheme = AssignTRandomScheme(AssignTRandomParams(W, K, 0.5 / K))
        runs = kernel.batch_runs(K, W)  # both schemes fix each transmit channel
        actions = scheme.action_source(3, range(runs), "uniform")
        tracemalloc.start()
        try:
            # the source's (runs, K, CHUNK_SLOTS) actions are made in the trace
            first = kernel.run_batch(actions(np.arange(runs)), runs, K, W,
                                     kernel.CHUNK_SLOTS, scheme.transmit_channels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.shape == (runs, K, K)
        assert peak <= max(kernel.BATCH_BYTES, kernel.run_bytes(K, W)), (peak, runs)


    @pytest.mark.parametrize("K, W", [(K, W) for K in (2, 4, 9, 18, 40, 150)
                                      for W in sorted({1, min(3, K), K})])
    def test_loop_batch(self, K, W):
        # general-scheme draws, whose nodes change channel slot by slot, go
        # through the per-channel loop; a batch of 8 runs or more fills at
        # least 84% of the budget, so the estimate does not over-cover
        scheme = GeneralRandomScheme(GeneralRandomParams(W, K, 0.5 / (K * W)))
        runs = kernel.batch_runs(K)
        actions = scheme.action_source(3, range(runs), "uniform")
        tracemalloc.start()
        try:
            first = kernel.run_batch(actions(np.arange(runs)), runs, K, W, kernel.CHUNK_SLOTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.shape == (runs, K, K)
        assert peak <= max(kernel.BATCH_BYTES, kernel.run_bytes(K)), (peak, runs)
        if runs >= 8:
            assert peak >= 0.84 * kernel.BATCH_BYTES, (peak, runs)

    @pytest.mark.parametrize("K, W", [(2, 1), (4, 2), (9, 3), (18, 3), (30, 3), (150, 5)])
    @pytest.mark.parametrize("one_layer", [False, True], ids=["loop", "one-layer"])
    def test_event_path_worst_case(self, K, W, one_layer):
        # as many events as the rule lets through, on a batch of the path's
        # own size: node 0 of run r transmits alone in slots [0, E - r T),
        # so every event is clean and heard by every other node.  The
        # event path holds less than the dense path on the same chunk.
        path = W if one_layer else None
        R, T = kernel.batch_runs(K, path), kernel.CHUNK_SLOTS
        events = R * K * T // (4 * (K + 8))
        channel = np.arange(K) % W + 1
        actions = np.full((R, K, T), -channel[0], dtype=kernel.action_dtype(W))
        run, slot = np.divmod(np.arange(events + 1), T)
        actions[run, 0, slot] = channel[0]
        pos = np.arange(run[-1] + 1)
        tx = np.zeros(pos.size, dtype=np.intp)
        args = (actions, W, pos, tx, channel if one_layer else None)

        def traced():
            tracemalloc.start()
            try:
                first = kernel.first_delivery(*args)
                return first, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        with path_log() as log:
            traced()
        assert log == [False]  # one event past the rule
        actions[run[-1], 0, slot[-1]] = -channel[0]
        with path_log() as log:
            first, peak = traced()
        assert log == [True]
        with rule_forced(False):
            dense, dense_peak = traced()
        assert np.array_equal(first, dense)
        assert (first[0, 1:] == 0).all()
        assert peak < dense_peak, (peak, dense_peak)
        assert actions.nbytes + peak <= R * kernel.run_bytes(K, path), (peak, R)


class TestActionDtype:
    """Slot actions are int8 up to W = 127 and int16 from W = 128; both
    sides of the switch against slot-by-slot replays."""

    @pytest.mark.parametrize("W", [127, 128])
    def test_simulate_matches_slot_replay(self, W):
        sset = one_node_per_group(W, 45, np.random.default_rng(W))
        max_slots = 100
        assert kernel.action_dtype(W) == (np.int8 if W == 127 else np.int16)
        runs, seed = 2, 5
        uniform = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
                   .integers(0, sset.L, size=W) for k in range(runs)]
        fixed = tuple(int(t) for t in np.random.default_rng(1).integers(0, sset.L, size=W))
        for mode, offsets in (("uniform", uniform),
                              (OffsetVector(fixed, sset.L), [fixed] * runs)):
            res = simulate(SimConfig(SequenceScheme(sset), runs=runs, seed=seed,
                                     max_slots=max_slots, offset_mode=mode,
                                     record_pairs=True))
            for r, taus in enumerate(offsets):
                want = np.array(brute_force_first_success(read_at(sset, taus, max_slots)))
                assert np.array_equal(res.per_pair_first_success[r], want), (mode, r)
                assert (want[0, 1:] >= 0).any()  # channel W carries deliveries

    @pytest.mark.parametrize("W", [127, 128])
    def test_randomized_verify_matches_slot_replay(self, W):
        # node 1 sends on channel W, so the witness is the first receiver it
        # misses, which varies with the offsets
        sset = one_node_per_group(W, 45, np.random.default_rng(W))
        off_diag = ~np.eye(W, dtype=bool)
        witnesses = set()
        for seed in range(4):
            report = verify_set(sset, mode="randomized", samples=3, seed=seed)
            taus = np.random.default_rng(seed).integers(0, sset.L, size=(3, W))
            for n, row in enumerate(taus):
                unserved = (np.array(brute_force_first_success(read_at(sset, row, sset.L))) < 0)
                unserved &= off_diag
                if unserved.any():
                    i, j = (x + 1 for x in divmod(int(unserved.argmax()), W))
                    assert report.verdict is Verdict.FAILED_WITH_WITNESS
                    assert report.pairs_checked == (n + 1) * W * (W - 1)
                    w = report.witness
                    # i is alone in its group, so the witness keeps i and j
                    assert (w.transmitter, w.receiver) == (i, j)
                    assert w.offsets == {x: int(row[x - 1]) for x in sorted({i, j})}
                    witnesses.add((i, j))
                    break
            else:
                assert report.verdict is Verdict.UNKNOWN
        assert len(witnesses) > 1


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


def logged_requests(monkeypatch, K: int, W: int):
    """run_batch over a staggered table of 5 runs and 3 * 512 + 76 slots,
    checked against the slot replay; returns its action requests, as
    (t0, T, runs), and the rows evaluated for each.  Each request must
    start where the one before it ended, at a chunk boundary, and ask for
    exactly the runs pending at its first slot; each evaluation must take
    exactly the pending rows, and they never grow.  Run 0 (node 0 never
    transmits) is censored, so the requests read every slot."""
    rng = np.random.default_rng(10 * K + W)
    R, slots = 5, 3 * kernel.CHUNK_SLOTS + 76
    table = staggered_table(rng, R, K, W, slots)
    want = np.array([brute_force_first_success(t) for t in table])
    requests, evaluated = [], []

    def source(rows, t0, T):
        requests.append((t0, T, rows.tolist()))
        return table[rows, :, t0:t0 + T]

    judge = kernel._judge

    def judged(actions, W, pos, tx, channel):
        if len(evaluated) < len(requests):  # not a chunk within a span
            asked = np.array(requests[-1][2])
            evaluated.append(set(zip(asked[pos].tolist(), tx.tolist())))
        return judge(actions, W, pos, tx, channel)
    monkeypatch.setattr(kernel, "_judge", judged)
    first = kernel.run_batch(source, R, K, W, slots)
    monkeypatch.undo()
    assert np.array_equal(first, want)
    assert len(evaluated) == len(requests)
    if K == 1:
        assert requests == []  # no pair, so nothing to ask for
        return requests, evaluated
    starts = [t0 for t0, _, _ in requests]
    assert starts == [0, *(t0 + T for t0, T, _ in requests[:-1])]
    assert all(t0 % kernel.CHUNK_SLOTS == 0 for t0 in starts)
    assert requests[-1][0] + requests[-1][1] == slots
    for (t0, _, asked), rows in zip(requests, evaluated):
        pending = pending_at(want, t0)
        assert asked == np.flatnonzero(pending.any(axis=1)).tolist(), t0
        assert rows == set(zip(*np.nonzero(pending))), t0
    assert all(b <= a for a, b in zip(evaluated, evaluated[1:]))
    assert (first[0, 0, 1:] == -1).all()
    return requests, evaluated


class TestChunkLoop:
    def test_run_batch_matches_slot_replay(self):
        # 1300 slots in chunks of 512: pairs served in an early chunk keep
        # their slot, and runs leave the batch once every pair is served
        rng = np.random.default_rng(8)
        K, W, R, slots = 4, 2, 6, 1300
        table = rng.integers(1, W + 1, size=(R, K, slots)) * rng.choice([-1, 1], size=(R, K, slots))
        table[:3, 0, :1100] = 1  # in three runs, node 1 listens only from slot 1100
        source = lambda ids, t0, T: table[ids, :, t0:t0 + T]  # noqa: E731
        first = kernel.run_batch(source, R, K, W, slots)
        for r in range(R):
            want = np.array(brute_force_first_success(table[r]))
            assert np.array_equal(first[r], want), r

    def test_run_batches_make_one_source_per_batch(self, monkeypatch):
        # each batch's source comes from its own run ids, made once, and is
        # asked only for that batch's rows
        monkeypatch.setattr(kernel, "BATCH_BYTES", 3 * kernel.run_bytes(4))
        rng = np.random.default_rng(12)
        K, W, R, slots = 4, 2, 8, 700
        table = rng.integers(1, W + 1, size=(R, K, slots)) * rng.choice([-1, 1], size=(R, K, slots))
        made = []

        def actions(ids):
            made.append(ids.tolist())

            def source(rows, t0, T):
                assert 0 <= rows.min() and rows.max() < ids.size
                return table[ids[rows], :, t0:t0 + T]
            return source
        batches = list(kernel.run_batches(actions, R, K, W, slots))
        assert made == [[0, 1, 2], [3, 4, 5], [6, 7]]
        assert [ids.tolist() for ids, _ in batches] == made
        first = np.concatenate([got for _, got in batches])
        for r in range(R):
            assert np.array_equal(first[r], brute_force_first_success(table[r])), r

    @pytest.mark.parametrize("K, W", [(1, 1), (2, 1), (2, 2), (5, 2), (7, 3)])
    def test_pending_rows_over_chunks(self, monkeypatch, K, W):
        # as the rule chooses, a late chunk may be followed by a span; with
        # every chunk judged dense, each request is one chunk: 512, 512, 512
        # and 76 slots
        logged_requests(monkeypatch, K, W)
        with rule_forced(False):
            requests, evaluated = logged_requests(monkeypatch, K, W)
        if K > 1:
            assert [T for _, T, _ in requests] == [512, 512, 512, 76]
            assert len({len(rows) for rows in evaluated}) > 2

    @pytest.mark.parametrize("K, W", [(1, 1), (2, 1), (2, 2), (5, 2), (7, 3)])
    def test_pending_rows_over_spans(self, monkeypatch, K, W):
        # every chunk judged at its events and a budget of two chunks of
        # every run: after the first chunk the batch asks for spans of
        # 512 * (10 // runs) slots, which grow as runs leave
        R = 5
        monkeypatch.setattr(kernel, "BATCH_BYTES", 2 * R * K * kernel.CHUNK_SLOTS)
        with rule_forced(True):
            requests, _ = logged_requests(monkeypatch, K, W)
        if K > 1:
            assert requests[0][1] == kernel.CHUNK_SLOTS
            for t0, T, asked in requests[1:]:
                whole = kernel.CHUNK_SLOTS * max(1, 2 * R // len(asked))
                assert T == min(whole, 3 * kernel.CHUNK_SLOTS + 76 - t0), (t0, T, asked)
            assert max(T for _, T, _ in requests) > kernel.CHUNK_SLOTS

    @pytest.mark.parametrize("K, W", [(1, 1), (2, 1), (5, 2), (7, 3)])
    @pytest.mark.parametrize("slots", [1100, 2701])  # off the 64- and 512-slot grids
    @pytest.mark.parametrize("budget", [None, 3], ids=["default-budget", "three-chunk-budget"])
    def test_spans_match_slot_replay(self, monkeypatch, K, W, slots, budget):
        # nodes send in about 1% of slots, so the first chunk is already
        # judged at its events and the rest is read in spans: as one, or
        # three chunks of every run at a time.  Run 0 is censored.
        rng = np.random.default_rng(K * slots)
        R = 4
        shape = (R, K, slots)
        table = np.where(rng.random(shape) < 0.01, rng.integers(1, W + 1, size=shape),
                         -rng.integers(1, W + 1, size=shape))
        table[0, 0] = -1  # node 0 of run 0 never transmits
        table[1, :, slots - 3] = -1
        table[1, min(1, K - 1), :slots - 3] = -1  # node 1 of run 1 sends in slot slots - 3 alone
        table[1, min(1, K - 1), slots - 3] = 1
        if budget:
            monkeypatch.setattr(kernel, "BATCH_BYTES", budget * R * K * kernel.CHUNK_SLOTS)
        sizes = []

        def source(rows, t0, T):
            sizes.append(T)
            return table[rows, :, t0:t0 + T]
        first = kernel.run_batch(source, R, K, W, slots)
        for r in range(R):
            assert np.array_equal(first[r], brute_force_first_success(table[r])), r
        if K > 1:
            assert (first[0, 0, 1:] == -1).all()
            assert sum(sizes) == slots and max(sizes) > kernel.CHUNK_SLOTS, sizes
            assert (first[1, 1, [0, *range(2, K)]] == slots - 3).all()

    @pytest.mark.parametrize("one_layer", [False, True], ids=["loop", "one-layer"])
    def test_a_span_whose_rows_turn_dense_goes_chunk_by_chunk(self, one_layer):
        # nobody sends in the first chunk, so it is judged at its (no)
        # events and a span follows; in the span every node sends on its
        # own channel in 5-60% of slots, too many events for one pass, so
        # its chunks, the last one short, are judged one by one on the
        # path's dense judge and the event arrays never grow past the
        # rule's bound
        rng = np.random.default_rng(21)
        R, K, W, slots = 2, 4, 2, 2000
        channel = np.array([1, 2, 2, 1])
        table = own_channel_actions(rng, R, K, channel, W, slots)
        table[:, :, :kernel.CHUNK_SLOTS] = -1
        sizes = []

        def source(rows, t0, T):
            sizes.append(T)
            return table[rows, :, t0:t0 + T]
        with path_log() as log:
            first = kernel.run_batch(source, R, K, W, slots, channel if one_layer else None)
        for r in range(R):
            assert np.array_equal(first[r], brute_force_first_success(table[r])), r
        assert sizes[:2] == [kernel.CHUNK_SLOTS, slots - kernel.CHUNK_SLOTS]
        assert log[:3] == [True, False, False]  # chunk, span, the span's first chunk

    @pytest.mark.parametrize("L", [1, 7, kernel.CHUNK_SLOTS - 1, kernel.CHUNK_SLOTS, 600])
    def test_cyclic_reads(self, L):
        rng = np.random.default_rng(L)
        K = 3
        codes = rng.integers(1, 3, size=(K, L)) * rng.choice([-1, 1], size=(K, L))
        taus = rng.integers(0, L, size=(4, K))
        source = kernel.cyclic_reads(kernel.cyclic_table(list(codes), 2))(taus)
        rows = np.array([3, 1])
        for t0, T in ((0, kernel.CHUNK_SLOTS), (1024, 100), (L - 1, kernel.CHUNK_SLOTS),
                      (0, 3 * kernel.CHUNK_SLOTS), (L - 1, 2 * kernel.CHUNK_SLOTS + 37),
                      (1536, kernel.CHUNK_SLOTS + 1)):
            got = source(rows, t0, T)
            assert got.dtype == np.int8 and got.shape == (rows.size, K, T)
            for n, r in enumerate(rows):
                for x in range(K):
                    want = [codes[x, (t + taus[r, x]) % L] for t in range(t0, t0 + T)]
                    assert got[n, x].tolist() == want


@pytest.fixture(scope="module")
def k150() -> ScheduleSequenceSet:
    return build_schedule_set(150, 5)


class TestEventPath:
    """A K=150, M=5 run lasts about 30 chunks, and the late ones, with a
    few rows left, are judged at their transmit slots alone.  Forcing the
    rule either way changes no result."""

    def test_one_run_simulate(self, k150):
        config = SimConfig(SequenceScheme(k150), runs=1, seed=0, record_pairs=True)
        with path_log() as log:
            chosen = simulate(config)
        assert not log[0] and any(log[1:]), log  # dense first chunk, some event chunks
        for sparse in (True, False):
            with rule_forced(sparse):
                forced = simulate(config)
            assert forced == chosen, sparse
            assert np.array_equal(forced.per_pair_first_success,
                                  chosen.per_pair_first_success), sparse

    @pytest.mark.parametrize("deaf", [False, True], ids=["unknown", "refuted"])
    def test_one_sample_randomized_verify(self, k150, deaf):
        # node 2 deaf to channel 2 in all but 5 of its slots refutes the set;
        # every row that has yet to reach it then stays pending, too many
        # for the event path
        sset = partly_deaf(k150, 2, 2, 5, np.random.default_rng(150)) if deaf else k150
        with path_log() as log:
            chosen = verify_set(sset, mode="randomized", samples=1, seed=0)
        assert chosen.verdict is (Verdict.FAILED_WITH_WITNESS if deaf else Verdict.UNKNOWN)
        if deaf:
            assert not any(log), log
        else:
            assert not log[0] and any(log[1:]), log
        for sparse in (True, False):
            with rule_forced(sparse):
                assert verify_set(sset, mode="randomized", samples=1, seed=0) == chosen, sparse

    def test_the_tail_is_read_in_spans(self, monkeypatch, k150):
        # after the first chunk judged at its events, the rest of the period
        # is read in spans of 13 chunks (one run's K x 13 x 512 one-byte
        # actions fit BATCH_BYTES), and from that chunk on the traced peak
        # stays within the budget tests' bound
        K, W, L = k150.K, k150.W, k150.L
        taus = np.random.default_rng(0).integers(0, L, size=(1, K))
        source = kernel.cyclic_reads(k150.action_table)(taus)
        sizes, tail = [], []
        rule = kernel._sparse

        def read(rows, t0, T):
            sizes.append(T)
            return source(rows, t0, T)

        def sparse(*args):
            if rule(*args) and not tail:  # the first chunk judged at its events
                tracemalloc.reset_peak()
                tail.append(len(sizes))
            return rule(*args)
        monkeypatch.setattr(kernel, "_sparse", sparse)
        tracemalloc.start()
        try:
            first = kernel.run_batch(read, 1, K, W, L, np.array(k150.division.assignment))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        with rule_forced(False):  # chunk by chunk, each judged dense
            assert np.array_equal(first, kernel.run_batch(
                source, 1, K, W, L, np.array(k150.division.assignment)))
        assert (first >= 0).sum() == K * (K - 1)
        span = 13 * kernel.CHUNK_SLOTS
        assert kernel.BATCH_BYTES // (K * kernel.CHUNK_SLOTS) == 13
        assert sizes[:tail[0]] == [kernel.CHUNK_SLOTS] * tail[0]
        assert span in sizes[tail[0]:] and len(sizes) <= tail[0] + 3, sizes
        assert peak <= max(kernel.BATCH_BYTES, kernel.run_bytes(K, W)), peak


def one_at_a_time(monkeypatch, config: SimConfig):
    monkeypatch.setattr(kernel, "BATCH_BYTES", 1)
    assert batch_of(config.scheme) == 1
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
        assert batch_of(config.scheme) < config.runs
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
        batch = kernel.batch_runs(sset.K, sset.W)  # the one-layer path's batch
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
        assert kernel.batch_runs(4, 2) < 512  # default batches cut a draw short
        assert reports(threads=2) == serial
        monkeypatch.setattr(kernel, "BATCH_BYTES", 1)
        assert kernel.batch_runs(6, 3) == 1
        assert reports() == serial

    def test_refuted_k18_set_ignores_batch_size_and_threads(self, monkeypatch):
        # The paper's K=18, M=3 set with node 2 deaf to channel 2 in all but
        # 100 of its slots: seed 1 first fails at sample 409, in the 32nd
        # default batch of 13 runs and the 4th of 8x that budget; seed 3
        # answers UNKNOWN over both offset draws.
        sset = partly_deaf(build_schedule_set(18, 3, W=3), 2, 2, 100, np.random.default_rng(18))

        def reports(threads):
            return [verify_set(sset, mode="randomized", samples=600, seed=seed, threads=threads)
                    for seed in (1, 3)]
        serial = reports(1)
        assert [r.verdict for r in serial] == [Verdict.FAILED_WITH_WITNESS, Verdict.UNKNOWN]
        assert serial[0].pairs_checked == 410 * 18 * 17
        w = serial[0].witness
        assert not pair_ok_for_offsets(sset, w.transmitter, w.receiver, w.offsets)
        default = kernel.BATCH_BYTES
        for budget in (1, default, 8 * default):
            monkeypatch.setattr(kernel, "BATCH_BYTES", budget)
            for threads in (1, 2):
                assert reports(threads) == serial, (budget, threads)

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
        # The budget covers one batch of runs on the one-layer path; the
        # slack is the wrapped schedule windows (K x (L + 511) slots, one
        # byte each), plus 1 MB of small arrays.
        sset = build_schedule_set(150, 5)
        K, L = sset.K, sset.L
        budget = max(kernel.BATCH_BYTES, kernel.run_bytes(K, sset.W))
        slack = K * (L + kernel.CHUNK_SLOTS) + 2 ** 20
        tracemalloc.start()
        try:
            report = verify_set(sset, mode="randomized", samples=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.pairs_checked == 3 * K * (K - 1)
        assert peak < budget + slack, (peak, budget, slack)


def refuted_k18() -> ScheduleSequenceSet:
    """A fresh K=18, M=3, W=3 set with node 2 deaf to channel 2 in all but
    100 of its slots: randomized verify refutes it at seed 1 (sample 409)
    and answers UNKNOWN at seed 3.  No table is built yet."""
    return partly_deaf(build_schedule_set(18, 3, W=3), 2, 2, 100, np.random.default_rng(18))


def sequence_campaigns(sset: ScheduleSequenceSet, threads: int = 1) -> list:
    """Every kind of campaign that reads a set's action table: randomized
    verifies at a refuting and an UNKNOWN seed over two offset draws, and
    simulations at uniform, zero and fixed offsets with their pair tables."""
    out: list = [verify_set(sset, mode="randomized", samples=600, seed=seed, threads=threads)
                 for seed in (1, 3)]
    for mode in ("uniform", "zero", OffsetVector(tuple(range(sset.K)), sset.L)):
        config = SimConfig(SequenceScheme(sset), runs=30, seed=5, max_slots=2 * sset.L,
                           offset_mode=mode, record_pairs=True)
        result = simulate(config, threads=threads)
        out += [result, result.per_pair_first_success.tolist()]
    return out


class TestActionTable:
    """A set builds its wrapped action table on first use and keeps it;
    every randomized verification and sequence simulation of the set reads
    that one table."""

    def test_one_build_per_set(self, monkeypatch, tmp_path):
        builds = []
        build = kernel.cyclic_table

        def counted(codes, W):
            builds.append(W)
            return build(codes, W)
        monkeypatch.setattr(kernel, "cyclic_table", counted)
        sset = refuted_k18()
        got = sequence_campaigns(sset)
        assert got[0].verdict is Verdict.FAILED_WITH_WITNESS and got[1].witness is None
        assert len(builds) == 1
        assert all(not s.codes.flags.writeable for s in sset.sequences)
        with pytest.raises(ValueError):
            sset.action_table[0, 0] = 0
        # an equal set loaded from the same file builds its own table
        path = str(tmp_path / "set.json")
        save_set(sset, path)
        a, b = load_set(path), load_set(path)
        assert a == b == sset
        assert verify_set(a, mode="randomized", samples=600, seed=1) == got[0]
        assert len(builds) == 2
        assert b.action_table is not a.action_table
        assert np.array_equal(b.action_table, sset.action_table)
        assert len(builds) == 3

    def test_the_table_is_all_a_set_gains(self):
        for W in (1, 2, 3):
            sset = build_schedule_set(18, 3, W=W)
            K, L = sset.K, sset.L
            before = dict(vars(sset))
            tracemalloc.start()
            try:
                table = sset.action_table
                grown = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert vars(sset).keys() - before.keys() == {"action_table"}
            assert all(vars(sset)[k] is v for k, v in before.items())
            itemsize = kernel.action_dtype(W).itemsize
            assert table.shape == (K, L + kernel.CHUNK_SLOTS - 1)
            assert table.nbytes == K * (L + kernel.CHUNK_SLOTS - 1) * itemsize
            assert table.nbytes <= grown <= table.nbytes + 1024, (W, grown)
            wrapped = np.arange(L + kernel.CHUNK_SLOTS - 1) % L
            assert np.array_equal(table, sset.codes_matrix()[:, wrapped])

    def test_pickles_after_its_table_is_built(self):
        sset = refuted_k18()
        got = sequence_campaigns(sset)
        copy = pickle.loads(pickle.dumps(sset))
        assert copy == sset
        assert np.array_equal(vars(copy)["action_table"], sset.action_table)
        assert sequence_campaigns(copy) == got

    def test_workers_read_the_parents_table(self):
        sset = refuted_k18()
        sset.action_table  # built in the parent before any worker starts
        assert sequence_campaigns(sset, threads=2) == sequence_campaigns(sset)
