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
batches that fit the byte budget.  The simulator and the randomized
verifier both go through here.
"""

from __future__ import annotations

from typing import Callable, Iterator

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

Actions = Callable[[np.ndarray, int, int], np.ndarray]


def run_bytes(K: int) -> int:
    """Working set of one run in `run_batch`, in bytes.

    This is the first chunk, when every transmitter row is pending; later
    chunks evaluate fewer rows and need less.  Per node and slot there are
    the slot actions and a few one-byte masks (transmit, clean, receive);
    the (runs, W, T) clean table of the one-layer path adds at most one
    more, as W <= K there.  Per ordered pair there are the (rows, K, 8)
    hit words, their non-zero flags and about a dozen int64 temporaries
    and results; the receive words, (runs, W, K, 8) in the one-layer path
    and (runs, K, 8) per channel otherwise, fit in that allowance.
    """
    return K * CHUNK_SLOTS * 8 + K * K * (CHUNK_SLOTS // 8 + CHUNK_SLOTS // 64 + 96)


def batch_runs(K: int) -> int:
    """Runs per batch: as many as fit BATCH_BYTES, and at least one."""
    return max(1, BATCH_BYTES // run_bytes(K))


def _pack(mask: np.ndarray) -> np.ndarray:
    """(..., 64 n) bool -> (..., n) uint64, slot t at bit t % 64 of word t // 64."""
    return np.packbits(mask, axis=-1, bitorder="little").view("<u8")


def first_delivery(actions: np.ndarray, W: int, pos: np.ndarray,
                   tx: np.ndarray, channel: np.ndarray | None = None) -> np.ndarray:
    """First delivery slot from each given transmitter row to every node.

    actions is an (R, K, T) integer table with T <= CHUNK_SLOTS: m > 0
    transmits on channel m, -m listens to channel m, and 0 does neither.
    Row p is transmitter tx[p] of run pos[p].  Returns the (rows, K) table
    of the first slot in [0, T) at which that transmitter delivers to each
    node, or -1 where it never does.  Whether a slot is clean (one
    transmitter on its channel) is judged over every node of the run.

    channel, when given, is the (K,) transmit channel of each node, in
    1..W: node x transmits on channel[x] or not at all, and listens to any
    channel.  Then only channel m's own nodes can collide on m, and the
    whole chunk is one layer; otherwise each channel is a layer of its own.
    """
    R, K, T = actions.shape
    if T > CHUNK_SLOTS:
        raise ValueError(f"a chunk holds at most {CHUNK_SLOTS} slots, got {T}")
    pad = -T % 64
    if pad:
        actions = np.concatenate(
            [actions, np.zeros((R, K, pad), dtype=actions.dtype)], axis=2)
    if channel is None:
        return _first_slot(_channel_layers(actions, W, pos, tx))
    return _first_slot(_one_layer(actions, W, pos, tx, channel))


def _channel_layers(actions: np.ndarray, W: int, pos: np.ndarray,
                    tx: np.ndarray) -> np.ndarray:
    """Hit words of first_delivery's rows, (rows, K, T / 64), one channel
    at a time: its clean transmit slots against its receive slots."""
    R, K, T = actions.shape
    count_dtype = np.min_scalar_type(K)  # holds a count of up to K transmitters
    row_actions = actions[pos, tx]
    hits = np.zeros((pos.size, K, T // 64), dtype=np.uint64)
    got = np.empty_like(hits)
    for m in range(1, W + 1):
        clean = np.add.reduce(actions == m, axis=1, dtype=count_dtype) == 1
        sends = _pack((row_actions == m) & clean[pos])
        # mode="clip" writes straight into got; the default buffers a copy
        np.take(_pack(actions == -m), pos, axis=0, out=got, mode="clip")
        got &= sends[:, None, :]
        hits |= got
    return hits


def _one_layer(actions: np.ndarray, W: int, pos: np.ndarray, tx: np.ndarray,
               channel: np.ndarray) -> np.ndarray:
    """Hit words of first_delivery's rows when node x transmits on channel[x]
    alone: each row meets the receive words of its transmitter's channel."""
    R, K, T = actions.shape
    row_channel = channel[tx] - 1
    txw = _clean_sends(actions, W, pos, tx, channel, row_channel)
    rxw = np.empty((R, W, K, T // 64), dtype=np.uint64)
    for m in range(1, W + 1):
        rxw[:, m - 1] = _pack(actions == -m)
    hits = rxw[pos, row_channel]
    hits &= txw[:, None, :]
    return hits


def _clean_sends(actions: np.ndarray, W: int, pos: np.ndarray, tx: np.ndarray,
                 channel: np.ndarray, row_channel: np.ndarray) -> np.ndarray:
    """Packed clean transmit slots of first_delivery's rows, each channel's
    transmitters counted over its own nodes alone.  Its own function, so
    that its slot masks are freed before the receive words are built."""
    R, K, T = actions.shape
    count_dtype = np.min_scalar_type(K)
    on = actions > 0
    clean = np.empty((R, W, T), dtype=bool)
    for m in range(1, W + 1):
        counts = np.add.reduce(on[:, channel == m], axis=1, dtype=count_dtype)
        np.equal(counts, 1, out=clean[:, m - 1])
    sends = on[pos, tx]
    sends &= clean[pos, row_channel]
    return _pack(sends)


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


def run_batch(actions: Actions, ids: np.ndarray, K: int, W: int,
              max_slots: int, channel: np.ndarray | None = None) -> np.ndarray:
    """First delivery slots of the runs `ids`, over slots [0, max_slots).

    actions(ids, t0, T) returns the (len(ids), K, T) slot actions of those
    runs for slots [t0, t0 + T).  Chunks of CHUNK_SLOTS slots are evaluated
    in order.  Transmitter i of a run stays pending while some receiver
    j != i of that run has no delivery; each chunk evaluates only the
    pending transmitters and asks `actions` only for runs that have one.
    channel is first_delivery's.
    """
    first = np.full((ids.size, K, K), -1, dtype=np.int64)
    pending = np.full((ids.size, K), K > 1)  # one node has no pair to serve
    for t0 in range(0, max_slots, CHUNK_SLOTS):
        runs = np.flatnonzero(pending.any(axis=1))
        if not runs.size:
            break
        T = min(CHUNK_SLOTS, max_slots - t0)
        pos, tx = np.nonzero(pending[runs])
        got = first_delivery(actions(ids[runs], t0, T), W, pos, tx, channel)
        r = runs[pos]
        part = first[r, tx]
        part = np.where((part < 0) & (got >= 0), t0 + got, part)
        first[r, tx] = part
        # a node never hears itself, so its own column stays -1
        pending[r, tx] = np.count_nonzero(part < 0, axis=1) > 1
    return first


def run_batches(actions: Actions, runs: int, K: int, W: int, max_slots: int,
                channel: np.ndarray | None = None
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """run_batch over runs [0, runs) in order, a batch of batch_runs(K) runs
    at a time; yields each batch's run ids and first delivery slots."""
    batch = batch_runs(K)
    for lo in range(0, runs, batch):
        ids = np.arange(lo, min(lo + batch, runs))
        yield ids, run_batch(actions, ids, K, W, max_slots, channel)


def cyclic_reads(codes: np.ndarray, taus: np.ndarray) -> Actions:
    """Action source for periodic schedules read at per-run offsets.

    codes is the (K, L) schedule table and taus the (runs, K) offsets;
    run r's node x acts in slot t as codes[x, (t + taus[r, x]) % L].
    Chunks may be at most CHUNK_SLOTS slots long.
    """
    K, L = codes.shape
    wrap = CHUNK_SLOTS - 1  # slots a window can run past the period
    tail = np.tile(codes[:, :wrap], (1, -(-wrap // L)))[:, :wrap]
    windows = sliding_window_view(np.concatenate([codes, tail], axis=1), CHUNK_SLOTS,
                                  axis=1)
    rows = np.arange(K)

    def actions(ids: np.ndarray, t0: int, T: int) -> np.ndarray:
        return windows[:, :, :T][rows, (t0 + taus[ids]) % L]
    return actions
