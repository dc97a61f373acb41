import pytest

from schedseq.pool import map_ranges


def bounds(a: int, b: int) -> tuple[int, int]:
    return a, b


@pytest.mark.parametrize("stop, threads, ranges", [
    (10, 1, [(0, 10)]),
    (10, 3, [(0, 3), (3, 6), (6, 10)]),  # uneven: the last range is longest
    (2, 3, [(0, 1), (1, 2)]),            # fewer items than threads
    (0, 3, [(0, 0)]),                    # nothing to do: one empty range
])
def test_ranges_cover_the_items_in_order(stop, threads, ranges):
    assert map_ranges(bounds, stop, threads) == ranges
