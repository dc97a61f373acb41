"""One worker-pool helper for the functions that split work over processes."""

from __future__ import annotations

from typing import Any, Callable, Iterator


def _send(conn, fn: Callable[[int, int], Any], a: int, b: int) -> None:
    """A worker: (True, fn(a, b)), or (False, the exception raised), sent down conn."""
    try:
        conn.send((True, fn(a, b)))
    except Exception as exc:
        conn.send((False, exc))


def map_ranges(fn: Callable[[int, int], Any], stop: int, threads: int) -> Iterator:
    """fn(a, b) over contiguous ranges that cover [0, stop) in order, one
    range per worker, each result yielded in range order.

    With threads > 1 and stop > 1, the ranges run in up to `threads`
    worker processes; fn must pickle, and a worker's exception is raised
    where its result is read.  One range is called inline.  Closing the
    iterator stops the workers still running.  Each worker sends down a
    pipe of its own: multiprocessing.Pool's workers share a locked result
    queue, and stopping one that holds the lock can leave Pool.terminate
    waiting for ever.
    """
    n = max(1, min(threads, stop))
    if n == 1:
        yield fn(0, stop)
        return
    import multiprocessing  # here: a large share of start-up, for commands that never use it

    edges = [stop * c // n for c in range(n + 1)]
    workers = []
    try:
        for a, b in zip(edges[:-1], edges[1:]):
            reader, writer = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.Process(target=_send, args=(writer, fn, a, b), daemon=True)
            worker.start()
            writer.close()  # the worker's copy is then the only one: its exit ends the pipe
            workers.append((worker, reader))
        for _, reader in workers:
            ok, result = reader.recv()
            if not ok:
                raise result
            yield result
    finally:
        for worker, reader in workers:
            worker.terminate()
            worker.join()
            reader.close()
