import multiprocessing
import os
import time

import pytest

from schedseq.pool import map_ranges


def bounds(a: int, b: int) -> tuple[int, int]:
    return a, b


def sleep_past_the_first(a: int, b: int) -> tuple[int, int]:
    if a > 0:
        time.sleep(60)
    return a, b


def send_a_full_pipe_past_the_first(a: int, b: int):
    # more than a pipe holds, so the worker blocks in its send until read
    return bytes(4 << 20) if a > 0 else (a, b)


def fail_past_the_first(a: int, b: int) -> tuple[int, int]:
    if a > 0:
        raise ValueError(f"range [{a}, {b})")
    return a, b


def die_past_the_first(a: int, b: int) -> tuple[int, int]:
    if a > 0:
        os._exit(1)
    return a, b


@pytest.mark.parametrize("stop, threads, ranges", [
    (10, 1, [(0, 10)]),
    (10, 3, [(0, 3), (3, 6), (6, 10)]),  # uneven: the last range is longest
    (2, 3, [(0, 1), (1, 2)]),            # fewer items than threads
    (0, 3, [(0, 0)]),                    # nothing to do: one empty range
])
def test_ranges_cover_the_items_in_order(stop, threads, ranges):
    assert list(map_ranges(bounds, stop, threads)) == ranges


@pytest.mark.parametrize("fn", [sleep_past_the_first, send_a_full_pipe_past_the_first])
def test_closing_after_the_first_range_stops_the_later_workers(fn):
    start = time.monotonic()
    results = map_ranges(fn, 2, 2)
    assert next(results) == (0, 1)
    results.close()
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_a_later_range_raises_where_it_is_read():
    results = map_ranges(fail_past_the_first, 3, 3)
    assert next(results) == (0, 1)
    with pytest.raises(ValueError, match=r"range \[1, 2\)"):
        next(results)


def test_a_worker_that_dies_ends_its_pipe():
    results = map_ranges(die_past_the_first, 2, 2)
    assert next(results) == (0, 1)
    with pytest.raises(EOFError):
        next(results)
