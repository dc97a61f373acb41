"""One worker-pool helper for the functions that split work over processes."""

from __future__ import annotations

from typing import Any, Callable


def map_in_workers(fn: Callable[..., Any], tasks: list[tuple], threads: int) -> list:
    """fn(*task) for every task, in task order.

    With threads > 1 and more than one task, the tasks run in up to
    `threads` worker processes; fn and its arguments must pickle.
    """
    if threads <= 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    # Imported here: concurrent.futures.process pulls in multiprocessing,
    # a large share of start-up for the commands that never use it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        return [f.result() for f in futures]
