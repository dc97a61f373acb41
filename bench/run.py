#!/usr/bin/env python3
"""Benchmark for schedseq, run from the root of a source checkout.

    python3 bench/run.py --workload flagship-k18 --seed 1 --seconds 15 --trace 0

Imports schedseq from ./src, runs whole rounds of the workload's timed
operations until --seconds have passed (at least one round), checks every
output, and prints one JSON line: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced rounds and reports per-layer metrics from
the traced ones, with the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread in the measured process and in its set-up children: numpy's
# BLAS pool would otherwise add threads that compete for the host's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5


def measure_setup(probe, probe_ref_s: float) -> float:
    """Median CPU time (user + system) of a fresh interpreter importing the
    CLI, each divided by the slowdown the probes around it measure."""
    cmd = [sys.executable, "-c", "import schedseq.cli"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(cmd, env=env, check=True)  # writes the bytecode caches
    times = []
    before_probe = probe()
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(cmd, env=env, check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        after_probe = probe()
        slowdown = (before_probe + after_probe) / 2 / probe_ref_s
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        times.append(cpu / slowdown)
        before_probe = after_probe
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(tracer, rounds: int, overhead: float, slowdown: float) -> dict[str, float]:
    """Per-layer figures per traced round.

    <span>.s and <span>.calls sum the spans whose name starts with <span>;
    <layer>.self_s sums the self time of every span of that module.
    """
    total, own, calls = tracer.totals()
    out: dict[str, float] = {}
    for name in metric_units(["per_layer"]):
        span, _, stat = name.rpartition(".")
        names = [n for n in calls if n == span or n.startswith(span + ".")]
        if stat == "s" and names:
            out[name] = sum(total[n] for n in names) / rounds
        elif stat == "calls" and names:
            out[name] = sum(calls[n] for n in names) / rounds
        elif stat == "self_s" and "." not in span:
            out[name] = sum(v for n, v in own.items() if n.split(".")[0] == span) / rounds
    counts = tracer.counts
    verify_s = sum(v for n, v in total.items() if n.startswith("verifier.verify_set"))
    sim_s = sum(v for n, v in total.items() if n.startswith("simulator.simulate"))
    out["verifier.pairs_checked"] = counts["verifier.pairs_checked"] / rounds
    out["verifier.pairs_per_s"] = counts["verifier.pairs_checked"] / verify_s
    out["simulator.slots"] = counts["simulator.slots"] / rounds
    out["simulator.slots_per_s"] = counts["simulator.slots"] / sim_s
    out["cli.set_file.bytes"] = statistics.mean(tracer.file_sizes)
    for base, peak in tracer.peaks.items():
        out[f"{base}.peak_alloc_mb"] = peak
    out["bench.trace_overhead"] = overhead
    out["bench.slowdown"] = slowdown
    return out


def run(args: argparse.Namespace, work_dir: Path) -> dict:
    from oracles import CheckError
    from spans import Tracer
    from workloads import PROBE_REF_S, WORKLOADS, Recorder, probe

    setup_s = measure_setup(probe, PROBE_REF_S)
    workload = WORKLOADS[args.workload](args.seed, str(work_dir))
    rec = Recorder()
    try:
        workload.setup()
        start = time.perf_counter()
        if args.trace:
            tracer = Tracer()
            while True:
                traced = rec.round % 2 == 1
                if traced:
                    rec.tracer = tracer
                    with tracer:
                        workload.round(rec)
                    rec.tracer = None
                else:
                    workload.round(rec)
                rec.round += 1
                if traced and time.perf_counter() - start >= args.seconds:
                    break
            rounds = rec.by_round(list(rec.samples))
            traced_s = [v for r, v in rounds.items() if r % 2 == 1]
            plain_s = [v for r, v in rounds.items() if r % 2 == 0]
            overhead = 100 * (statistics.median(traced_s) / statistics.median(plain_s) - 1)
            tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
            found = layer_metrics(tracer, len(traced_s), overhead, rec.slowdown())
        else:
            while True:
                workload.round(rec)
                rec.round += 1
                if time.perf_counter() - start >= args.seconds:
                    break
            found = workload.metrics(rec)
            found["setup_s"] = setup_s
            found["peak_rss_mb"] = peak_rss_mb()
            print(f"machine slowdown {rec.slowdown():.3f} over {rec.round} rounds",
                  file=sys.stderr)
        correct = True
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, found = False, {}
    units = metric_units(["per_layer" if args.trace else "end_to_end"])
    if correct and set(found) != set(units):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(found))} missing or unlisted")
    return {"correct": correct, "attempted": max(rec.attempted, 1), "failed": rec.failed,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in found.items()}}


def metric_units(kinds: list[str]) -> dict[str, str]:
    """Name and unit of each metric of the given kinds, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for kind in kinds for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=["flagship-k18", "desk-proof", "grid-k150"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "schedseq" / "__init__.py").is_file():
        print(f"error: no schedseq sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    try:
        result = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
