"""Span recording around schedseq's public functions, for the traced run.

The tracer swaps each traced function for a wrapper in every module that
looks the name up (cli, for one, imports simulate, verify_set and
load_set into its own namespace), and swaps the originals back on exit.
Spans are kept in memory as [name, start, end, parent, op], with start
and end in process CPU seconds, and turned into per-layer totals when the
run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict

from schedseq import cli, constructor, random_schemes, seqcore, simulator, verifier

# (span name, home module, modules that look the function up by name)
TRACED = [
    ("seqcore.correlation_profile", seqcore, "correlation_profile", [verifier]),
    ("seqcore.array_to_sequence", seqcore, "array_to_sequence", [constructor]),
    ("constructor.build_schedule_set", constructor, "build_schedule_set", [cli]),
    ("constructor.select_params", constructor, "select_params", [verifier, cli]),
    ("cli.set_to_doc", cli, "set_to_doc", []),
    ("cli.save_set", cli, "save_set", []),
    ("cli.set_from_doc", cli, "set_from_doc", []),
    ("cli.load_set", cli, "load_set", []),
    ("cli.main", cli, "main", []),
    ("verifier.check_pair_exhaustive", verifier, "check_pair_exhaustive", []),
    ("verifier.check_pair_conservative", verifier, "check_pair_conservative", []),
    ("verifier.verify_set", verifier, "verify_set", [cli]),
    ("verifier.lower_bound", verifier, "lower_bound", [cli]),
    ("verifier.ratio_table", verifier, "ratio_table", []),
    ("random_schemes.optimize_random", random_schemes, "optimize_random", [cli]),
    ("random_schemes.frame_length", random_schemes, "frame_length", [cli, simulator]),
    ("random_schemes.group_cdf", random_schemes, "group_cdf", [cli]),
    ("simulator.simulate", simulator, "simulate", [cli]),
]

# Functions whose peak allocation is measured with tracemalloc.  Only the
# first call of each is tracked: tracemalloc slows allocation-heavy calls.
ALLOC_TRACKED = ("verifier.verify_set", "simulator.simulate")


def _span_name(base: str, args, kwargs) -> str:
    if base == "cli.main":
        return f"cli.main.{args[0][0]}"
    if base == "verifier.verify_set":
        return f"{base}.{kwargs.get('mode', args[1] if len(args) > 1 else 'exhaustive')}"
    if base == "simulator.simulate":
        kind = "seq" if isinstance(args[0].scheme, simulator.SequenceScheme) else "rand"
        return f"{base}.{kind}"
    return base


def _offset_combinations(sset, i: int, j: int) -> int:
    """Offset combinations the exhaustive check of pair (i, j) covers."""
    division = sset.division
    colliders = [x for x in division.members(division.group_of(i)) if x not in (i, j)]
    return sset.L ** (len(colliders) + 1)


class Tracer:
    """In-memory span recorder; spans are recorded while it is entered."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = {}
        self.file_sizes: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for base, home, attr, users in TRACED:
            original = getattr(home, attr)
            wrapped = self._wrap(base, original)
            for module in [home, *users]:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, base: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _span_name(base, args, kwargs)
            alloc = base in ALLOC_TRACKED and base not in self.peaks
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op])
            self.stack.append(idx)
            if alloc:
                tracemalloc.start()
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[base] = peak / 2 ** 20
                self.stack.pop()
                self.spans[idx][1:3] = [start, end]
            self._count(base, args, result)
            return result
        return traced

    def _count(self, base: str, args, result) -> None:
        if base == "verifier.check_pair_exhaustive":
            self.counts["verifier.offset_combinations"] += _offset_combinations(*args[:3])
        elif base == "verifier.verify_set":
            self.counts["verifier.pairs_checked"] += result.pairs_checked
        elif base == "simulator.simulate":
            self.counts["simulator.slots"] += int(result.completion_times.sum())
        elif base == "cli.save_set":
            self.file_sizes.append(os.path.getsize(args[1]))

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total CPU seconds, self CPU seconds and call count."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return total, own, calls

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
