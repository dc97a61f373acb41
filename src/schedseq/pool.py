"""One worker-pool helper for the functions that split work over processes."""

from __future__ import annotations

from typing import Any, Callable


def map_ranges(fn: Callable[[int, int], Any], stop: int, threads: int) -> list:
    """fn(a, b) over contiguous ranges that cover [0, stop) in order, one
    range per worker, results in range order.

    With threads > 1 and stop > 1, the ranges run in up to `threads`
    worker processes; fn must pickle.  One range is called inline.
    """
    n = max(1, min(threads, stop))
    if n == 1:
        return [fn(0, stop)]
    # Imported here: concurrent.futures.process pulls in multiprocessing,
    # a large share of start-up for the commands that never use it.
    from concurrent.futures import ProcessPoolExecutor

    edges = [stop * c // n for c in range(n + 1)]
    with ProcessPoolExecutor(max_workers=n) as pool:
        futures = [pool.submit(fn, a, b) for a, b in zip(edges[:-1], edges[1:])]
        return [f.result() for f in futures]
