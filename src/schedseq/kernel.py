"""The collision-channel rule, evaluated on bit-packed slot masks.

In a slot, a node transmitting on channel m reaches every node listening
to m exactly when it is the only transmitter on m.  `first_delivery`
applies that rule to a batch of runs at once.  It packs the clean
transmit slots of the given transmitter rows and the receive slots of
every node into uint64 words (bit t of word w is slot 64 w + t), ANDs
each transmitter row against its run's receiver rows, and reads the
first delivery off the lowest set bit.  When the scheme fixes each
node's transmit channel (the paper's sequences and the AssignT random
scheme), only a channel's own nodes can collide on it, and a chunk is
one layer: one transmit mask, one pack and one gather of receive words.
Otherwise every channel is a layer of its own.  `run_batch` feeds it
chunk after chunk and keeps a (runs, K) mask of the transmitters still
pending: one leaves once all of its receivers are served, and a run once
all of its transmitters have.  `run_batches` walks a range of runs in
batches that fit the byte budget on their path, each with its own action
source.  Slot actions are one byte up to 127 channels (`action_dtype`).
A schedule set's actions are one wrapped (K, L + CHUNK_SLOTS - 1) table
(`cyclic_table`), which the set builds once, on first use, and keeps
(`ScheduleSequenceSet.action_table`); `cyclic_reads` reads it at each
run's offsets.  The simulator and the randomized verifier both go
through here.

A late chunk, with only a few rows left, is judged at its rows' transmit
slots alone: each such (row, slot) event reads its run's slot column,
and is clean when exactly one node acts on the row's channel there.  One
judge serves every read, of a chunk or of a span of chunks: it takes
that path when the events' arrays stay within one bool mask over the
read's slots (`_sparse`), and the dense path otherwise, a chunk at a
time, as in a first chunk, where every row is pending.  Once a chunk has
been judged at its events, `run_batch` asks for a span of whole chunks
whose actions fill the byte budget.  On one-sample K=150 randomized
verifies and one-run K=150 simulates (seeds 0-9), each of the 45 spans
was judged in one event pass; K=18 and desk-size periods end within two
chunks and read no span.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Working-set budget of one batch of runs.  It bounds the transient
# memory of a simulation or a randomized verification whatever the run
# or sample count; a run whose working set alone exceeds it runs by
# itself.
BATCH_BYTES = 2 ** 20

# Slots per kernel call.  Random schemes draw rng.random((K, CHUNK_SLOTS))
# per run per chunk, so this value fixes their RNG streams.
CHUNK_SLOTS = 512

# source(rows, t0, T): a batch's slot actions for all T slots from t0 or,
# past a chunk, for any whole number of chunks, at least one; see run_batch
Source = Callable[[np.ndarray, int, int], np.ndarray]
Actions = Callable[[np.ndarray], Source]  # the source of a batch's run ids


def run_bytes(K: int, W: int | None = None) -> int:
    """Working set of one run in `run_batch`, in bytes: on the one-layer
    path with W channels, or on the per-channel loop when W is None.

    This is the first chunk, when every transmitter row is pending; later
    chunks evaluate fewer rows and need less.  The loop holds four bytes
    per node and slot (the one-byte actions, the rows' own actions and a
    channel's transmit and receive masks), and per ordered pair the
    (rows, K, 8) hit words and the buffer of a channel's receive words,
    their non-zero flags, the int64 temporaries of the first slot and the
    batch's result.  The one-layer path holds three bytes per node and
    slot (the one-byte actions, the transmit mask and the (runs, W, T)
    clean table, W <= K), the (runs, W, K, 8) receive words, and per
    ordered pair the hit words, their flags, the int64 temporaries of the
    first slot and the batch's result.  The constants cover a run's small
    arrays.  Both estimates are fitted to the traced peak of a whole
    first-chunk run_batch, source included, at K = 2..150 and W = 1..K,
    with at least 4% of the budget to spare.
    """
    if W is None:
        return 1536 + 4 * K * CHUNK_SLOTS + 150 * K * K
    return 4096 + 3 * K * CHUNK_SLOTS + 128 * K * K + 64 * W * K


def batch_runs(K: int, W: int | None = None) -> int:
    """Runs per batch on run_bytes(K, W)'s path: as many as fit
    BATCH_BYTES, and at least one."""
    return max(1, BATCH_BYTES // run_bytes(K, W))


def action_dtype(W: int) -> np.dtype:
    """The narrowest signed integer type of slot actions on W channels,
    -W..W: int8 up to W = 127.  A signed type holds W exactly when it
    holds -(W + 1)."""
    return np.min_scalar_type(-W - 1)


def _pack(mask: np.ndarray) -> np.ndarray:
    """(..., 64 n) bool -> (..., n) uint64, slot t at bit t % 64 of word t // 64."""
    return np.packbits(mask, axis=-1, bitorder="little").view("<u8")


def first_delivery(actions: np.ndarray, W: int, pos: np.ndarray,
                   tx: np.ndarray, channel: np.ndarray | None = None) -> np.ndarray:
    """First delivery slot from each given transmitter row to every node.

    actions is an (R, K, T) integer table of any number of slots T: m > 0
    transmits on channel m, -m listens to channel m, and 0 does neither.
    Row p is transmitter tx[p] of run pos[p].  Returns the (rows, K) table
    of the first slot in [0, T) at which that transmitter delivers to each
    node, or -1 where it never does.  Whether a slot is clean (one
    transmitter on its channel) is judged over every node of the run.

    channel, when given, is the (K,) transmit channel of each node, in
    1..W: node x transmits on channel[x] or not at all, and listens to any
    channel.  Then only channel m's own nodes can collide on m, and a
    chunk is one layer; otherwise each channel is a layer of its own.
    When the rows transmit in few slots, as in a late chunk, the table is
    judged at those slots alone instead (`_sparse`, `_event_slots`).
    """
    return _judge(actions, W, pos, tx, channel)[0]


def _judge(actions: np.ndarray, W: int, pos: np.ndarray, tx: np.ndarray,
           channel: np.ndarray | None) -> tuple[np.ndarray, bool]:
    """first_delivery's table, and whether it was judged at the rows'
    transmit slots alone.  Any number of slots goes to the event path when
    `_sparse` allows it; otherwise a chunk, padded to whole words, goes to
    a dense path, and a longer read is judged a chunk at a time, in order."""
    R, K, T = actions.shape
    if T < CHUNK_SLOTS and T % 64:  # a dense chunk is judged in whole words
        actions = np.concatenate(
            [actions, np.zeros((R, K, -T % 64), dtype=actions.dtype)], axis=2)
    row_actions = actions[pos, tx]
    sends = np.packbits(row_actions > 0, axis=-1, bitorder="little")  # the rows' transmit slots
    if _sparse(sends, R, K, T):
        return _event_slots(actions, pos, row_actions), True
    if T > CHUNK_SLOTS:
        del row_actions, sends
        first = np.full((pos.size, K), -1, dtype=np.int64)
        for t0 in range(0, T, CHUNK_SLOTS):
            got = _judge(actions[:, :, t0:t0 + CHUNK_SLOTS], W, pos, tx, channel)[0]
            np.copyto(first, got + t0, where=(first < 0) & (got >= 0))
        return first, False
    if channel is None:
        return _first_slot(_channel_layers(actions, W, pos, row_actions)), False
    del row_actions  # freed before the one-layer path's masks are built
    return _first_slot(_one_layer(actions, W, pos, tx, channel, sends.view("<u8"))), False


def _sparse(sends: np.ndarray, R: int, K: int, T: int) -> bool:
    """Whether R runs of K nodes over T slots are judged at the requested
    rows' transmit slots alone: whether those rows' transmit slots, packed
    in bytes (sends), hold few enough events E.  The event path holds
    about 3 bytes per event and node (its one-byte columns and masks and
    two-byte slots, four past 65535 slots) and 32 per event (int64
    indices).  At 4 and 32 that stays within one bool mask over the slots,
    which each dense path builds besides its other arrays."""
    limit = R * K * T // (4 * (K + 8))  # E <= limit exactly when 4 E (K + 8) <= R K T
    # a byte with a transmit slot holds at least one event, so counting
    # bytes settles most dense chunks before their bits are counted
    return (np.count_nonzero(sends) <= limit
            and int(np.bitwise_count(sends).sum()) <= limit)


def _event_slots(actions: np.ndarray, pos: np.ndarray,
                 row_actions: np.ndarray) -> np.ndarray:
    """first_delivery judged at the rows' transmit slots alone.

    row_actions is the rows' own (rows, T) actions, actions[pos, tx].  An
    event (row p, slot t) where row p transmits reads slot t of run pos[p]
    once, as a (K,) column.  It is clean when exactly one node of that
    column acts on the row's own channel, the row's own action, and it
    then reaches every node listening to that channel.  Any number of
    slots T is judged.  The events are listed row by row in slot order, so
    each pair's first slot is the least over its row's clean events that
    reach it: T less the greatest T - t over those events at slots t, in
    the narrowest unsigned type that holds T, where 0 marks no delivery."""
    K, T = actions.shape[1], row_actions.shape[1]
    first = np.full((pos.size, K), -1, dtype=np.int64)
    p, t = np.divmod(np.flatnonzero(row_actions > 0), T)
    columns = actions[pos[p], :, t]  # (events, K)
    own = row_actions[p, t][:, None]
    clean = np.add.reduce(columns == own, axis=1, dtype=np.min_scalar_type(K)) == 1
    if not clean.any():
        return first
    p, t = p[clean], t[clean]
    hears = columns[clean] == -own[clean]
    del columns
    lead = hears * (T - t).astype(np.min_scalar_type(T))[:, None]
    del hears
    starts = np.concatenate(([0], np.flatnonzero(p[1:] != p[:-1]) + 1))
    best = np.maximum.reduceat(lead, starts, axis=0)
    first[p[starts]] = np.where(best > 0, T - best.astype(np.int64), -1)
    return first


def _channel_layers(actions: np.ndarray, W: int, pos: np.ndarray,
                    row_actions: np.ndarray) -> np.ndarray:
    """Hit words of first_delivery's rows, (rows, K, T / 64), one channel
    at a time: its clean transmit slots against its receive slots.
    row_actions is the rows' own actions, actions[pos, tx]."""
    R, K, T = actions.shape
    count_dtype = np.min_scalar_type(K)  # holds a count of up to K transmitters
    hits = np.zeros((pos.size, K, T // 64), dtype=np.uint64)
    got = np.empty_like(hits)
    for m in range(1, W + 1):
        clean = np.add.reduce(actions == m, axis=1, dtype=count_dtype) == 1
        sends = _pack(row_actions == m)
        sends &= _pack(clean)[pos]
        # mode="clip" writes straight into got; the default buffers a copy
        np.take(_pack(actions == -m), pos, axis=0, out=got, mode="clip")
        got &= sends[:, None, :]
        hits |= got
    return hits


def _one_layer(actions: np.ndarray, W: int, pos: np.ndarray, tx: np.ndarray,
               channel: np.ndarray, send_words: np.ndarray) -> np.ndarray:
    """Hit words of first_delivery's rows when node x transmits on channel[x]
    alone: each row's clean transmit slots, each channel's transmitters
    counted over its own nodes alone, meet the receive words of its
    transmitter's channel.  send_words are the rows' packed transmit slots."""
    R, K, T = actions.shape
    count_dtype = np.min_scalar_type(K)
    row_channel = channel[tx] - 1
    on = actions > 0
    clean = np.empty((R, W, T), dtype=bool)
    for m in range(1, W + 1):
        counts = np.add.reduce(on[:, channel == m], axis=1, dtype=count_dtype)
        np.equal(counts, 1, out=clean[:, m - 1])
    txw = _pack(clean)[pos, row_channel]
    txw &= send_words
    del on, clean, counts  # freed before the receive words are built
    rxw = np.empty((R, W, K, T // 64), dtype=np.uint64)
    for m in range(1, W + 1):
        rxw[:, m - 1] = _pack(actions == -m)
    hits = rxw[pos, row_channel]
    hits &= txw[:, None, :]
    return hits


def _ctz(x: np.ndarray) -> np.ndarray:
    """Trailing zero bits of each uint64; 64 for a zero."""
    return np.bitwise_count(~x & (x - np.uint64(1)))


def _first_slot(hits: np.ndarray) -> np.ndarray:
    """(rows, K, n) hit words, n <= 8 -> (rows, K) lowest set slot, -1 where
    none.  Byte w of a pair's 8 bytes of non-zero flags is 1 where word w
    has a hit, so read as one uint64 the flags have 8 w trailing zeros for
    the first such word, and the slot is 64 w plus that word's own."""
    rows, K, n = hits.shape
    flags = np.zeros((rows, K, CHUNK_SLOTS // 64), dtype=bool)
    np.not_equal(hits, 0, out=flags[..., :n])
    key = flags.view("<u8")[..., 0]
    at = _ctz(key)  # 8 w, or 64 without a hit
    index = np.arange(0, hits.size, n).reshape(rows, K)
    index += np.minimum(at >> 3, n - 1)
    slot = at.astype(np.int64) << 3
    slot += _ctz(hits.reshape(-1).take(index))
    return np.where(key != 0, slot, -1)


def run_batch(source: Source, n: int, K: int, W: int, max_slots: int,
              channel: np.ndarray | None = None) -> np.ndarray:
    """First delivery slots of a batch of n runs, over slots [0, max_slots).

    source(rows, t0, T) returns the (len(rows), K, T') slot actions of the
    batch's rows `rows`, in 0..n-1, for slots [t0, t0 + T'): all T slots,
    or, when T is longer than a chunk, any whole number of chunks of
    CHUNK_SLOTS slots, at least one.  The slots are evaluated in order,
    a chunk at a time; after a chunk judged at its rows' transmit slots,
    the batch asks for a span of as many whole chunks as its pending
    runs' actions fit in BATCH_BYTES, and reads how many slots it got.
    Each read, chunk or span, goes to the one judge that first_delivery
    uses.  Transmitter i of a run stays pending while some receiver
    j != i of that run has no delivery; each read evaluates only the
    pending transmitters and asks `source` only for rows that have one.
    channel is first_delivery's.
    """
    first = np.full((n, K, K), -1, dtype=np.int64)
    pending = np.full((n, K), K > 1)  # one node has no pair to serve
    chunk_bytes = K * CHUNK_SLOTS * action_dtype(W).itemsize  # a run's chunk
    t0, sparse = 0, False
    while t0 < max_slots:
        runs = np.flatnonzero(pending.any(axis=1))
        if not runs.size:
            break
        span = CHUNK_SLOTS
        if sparse:
            span *= max(1, BATCH_BYTES // (runs.size * chunk_bytes))
        pos, tx = np.nonzero(pending[runs])
        actions = source(runs, t0, min(span, max_slots - t0))
        T = actions.shape[2]
        got, sparse = _judge(actions, W, pos, tx, channel)
        del actions  # freed before the next read
        r = runs[pos]
        if t0:  # before the first chunk nothing is served, so got stands
            part = first[r, tx]
            got = np.where((part < 0) & (got >= 0), t0 + got, part)
        first[r, tx] = got
        # a node never hears itself, so its own column stays -1
        pending[r, tx] = np.count_nonzero(got < 0, axis=1) > 1
        t0 += T
    return first


def run_batches(actions: Actions, runs: int, K: int, W: int, max_slots: int,
                channel: np.ndarray | None = None
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """run_batch over runs [0, runs) in order, a batch of batch_runs runs at
    a time (sized for the path that channel selects), each on the source
    actions(ids) of its run ids; yields each batch's run ids and first
    delivery slots."""
    batch = batch_runs(K, None if channel is None else W)
    for lo in range(0, runs, batch):
        ids = np.arange(lo, min(lo + batch, runs))
        yield ids, run_batch(actions(ids), ids.size, K, W, max_slots, channel)


def cyclic_table(codes: Sequence[np.ndarray], W: int) -> np.ndarray:
    """The wrapped action table of periodic schedules, read by cyclic_reads.

    codes holds the K schedule rows of a common period L, each acting on W
    channels.  Row x of the (K, L + CHUNK_SLOTS - 1) table, in
    action_dtype(W), is codes[x] followed by its first CHUNK_SLOTS - 1
    slots again, so that every window of a chunk, at any offset, is one
    slice.  The table is read-only; a ScheduleSequenceSet builds it once
    and keeps it (ScheduleSequenceSet.action_table).
    """
    K, L = len(codes), len(codes[0])
    wrapped = np.empty((K, L + CHUNK_SLOTS - 1), dtype=action_dtype(W))
    np.stack(codes, out=wrapped[:, :L])
    done = L  # a multiple of L until the last copy, so each copy stays in phase
    while done < wrapped.shape[1]:
        n = min(done, wrapped.shape[1] - done)
        wrapped[:, done:done + n] = wrapped[:, :n]
        done += n
    wrapped.setflags(write=False)
    return wrapped


def cyclic_reads(wrapped: np.ndarray) -> Callable[[np.ndarray], Source]:
    """Sources for periodic schedules read at per-run offsets.

    wrapped is cyclic_table's table of K schedule rows of period L;
    reads(taus) is the source of a batch whose row n reads node x's
    schedule at offset taus[n, x], so that it acts in slot t as the
    schedule's slot (t + taus[n, x]) % L.  Every batch reads the one
    table, which is never copied.  A source returns every slot it is asked
    for; a span longer than a chunk is read a chunk at a time into one
    array, so the windows stay CHUNK_SLOTS wide.
    """
    K, L = wrapped.shape[0], wrapped.shape[1] - CHUNK_SLOTS + 1
    windows = sliding_window_view(wrapped, CHUNK_SLOTS, axis=1)
    nodes = np.arange(K)

    def reads(taus: np.ndarray) -> Source:
        def source(rows: np.ndarray, t0: int, T: int) -> np.ndarray:
            at = t0 + taus[rows]
            if T <= CHUNK_SLOTS:
                return windows[:, :, :T][nodes, at % L]
            out = np.empty((rows.size, K, T), dtype=wrapped.dtype)
            for c in range(0, T, CHUNK_SLOTS):
                n = min(CHUNK_SLOTS, T - c)
                out[:, :, c:c + n] = windows[:, :, :n][nodes, (at + c) % L]
            return out
        return source
    return reads
