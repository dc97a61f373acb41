"""The benchmark's workloads: inputs, timed operations and output checks.

Each workload builds its inputs from the seed in setup(), runs the
untimed checks that need a library call the CLI does not offer, and then
runs whole rounds of the same timed operations.  Every timed output is
checked after its timer stops; a wrong output raises CheckError.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

import oracles as ref
from oracles import require
from schedseq import cli, constructor, random_schemes, seqcore, simulator, verifier


# CPU seconds one probe() takes on the reference machine, about its fastest
# there (bench/README.md); stage times are reported at that speed.
PROBE_REF_S = 0.005
# Probes on each side of an operation that estimate the slowdown it ran at.
PROBE_WINDOW = 3
_PROBE_DATA = np.random.default_rng(0).integers(0, 4, size=(16, 2048))


def probe() -> float:
    """CPU seconds of a fixed calibration task that uses no schedseq code.

    Its mix (a Python loop, a JSON round trip, numpy passes over small
    arrays) is that of the program's stages, so it slows with them when a
    neighbour on a shared host slows the core.
    """
    start = time.process_time()
    total = 0
    for i in range(4000):
        total += (i * 7) % 11
    json.loads(json.dumps(_PROBE_DATA[:2].tolist()))
    for _ in range(4):
        (_PROBE_DATA[:, :, None] == np.arange(4)).sum(axis=1)
    return time.process_time() - start


class Recorder:
    """Counts operations and keeps each timed one's CPU time and position.

    Every operation runs on one thread, so its CPU time (user + system) is
    the time the program needs, without the time other tenants of a shared
    host hold the core.  A probe runs after each timed operation, and the
    operation's time is divided by the machine's slowdown at the time: the
    mean of the PROBE_WINDOW probes on each side of it, over PROBE_REF_S.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.round = 0
        self.tracer = None
        # key -> (round, CPU seconds, index of the first probe after it)
        self.samples: dict[str, list[tuple[int, float, int]]] = defaultdict(list)
        self.probes = [probe()]

    def time(self, key: str | None, fn):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = time.process_time()
        result = fn()
        elapsed = time.process_time() - start
        if key is not None:
            self.samples[key].append((self.round, elapsed, len(self.probes)))
            self.probes.append(probe())
        return result

    def slowdown(self) -> float:
        """Mean probe time over PROBE_REF_S, for the whole run."""
        return statistics.mean(self.probes) / PROBE_REF_S

    def by_round(self, keys) -> dict[int, float]:
        """Seconds each round spent on the given keys, each operation's CPU
        time divided by the slowdown around it."""
        rounds: dict[int, float] = defaultdict(float)
        for key in keys:
            for r, cpu, n in self.samples[key]:
                window = self.probes[max(0, n - PROBE_WINDOW):n + PROBE_WINDOW]
                rounds[r] += cpu * PROBE_REF_S / statistics.mean(window)
        return rounds

    def per_round(self, key: str) -> float:
        """Median over rounds of the seconds the round spent on key."""
        return statistics.median(self.by_round([key]).values())


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one schedseq command in this process; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_json(result: tuple[int, str, str], code: int = 0) -> dict:
    got, out, err = result
    require(got == code, f"exit code {got}, expected {code}: {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def read_runs(path: str) -> np.ndarray:
    """Rows of a simulate CSV as (run_index, completion_time, censored_flag)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["run_index", "completion_time", "censored_flag"],
            f"bad CSV header {rows[0]}")
    return np.array(rows[1:], dtype=np.int64).reshape(-1, 3)


def check_runs(path: str, summary: dict, runs: int, period: int | None) -> None:
    """A simulate CSV and its JSON summary agree; sequence runs end within L."""
    table = read_runs(path)
    require(table.shape[0] == runs and summary["runs"] == runs,
            f"{table.shape[0]} CSV rows, summary says {summary['runs']}, asked {runs}")
    require((table[:, 0] == np.arange(runs)).all(), "CSV run indices out of order")
    require(not table[:, 2].any() and summary["censored_mass"] == 0, "censored runs")
    require(abs(summary["mean"] - table[:, 1].mean()) < 1e-9, "summary mean disagrees with CSV")
    if period is not None:
        worst = int(table[:, 1].max())
        require(worst <= period, f"a run took {worst} slots, beyond one period {period}")


def check_fixed_offsets(sset, rng: np.random.Generator, vectors: int) -> None:
    """Fixed-offset simulation matches the slot-by-slot oracle exactly."""
    codes = sset.codes_matrix()
    for _ in range(vectors):
        taus = rng.integers(0, sset.L, size=sset.K)
        config = simulator.SimConfig(simulator.SequenceScheme(sset), runs=1,
                                     offset_mode=seqcore.OffsetVector(tuple(taus), sset.L))
        got = int(simulator.simulate(config).completion_times[0])
        want = ref.completion_time(codes, taus, sset.L)
        require(want is not None, f"oracle: offsets {list(taus)} miss a pair within L={sset.L}")
        require(got == want, f"simulate says {got} slots, oracle {want}, offsets {list(taus)}")


def check_bound(doc: dict, K: int, M: int) -> None:
    """The bound command's output against the paper's lower-bound formula."""
    want = ref.lower_bound(M, K // M)
    require(doc["combined"] == want, f"bound K={K} M={M}: {doc['combined']}, formula {want}")
    if "ratio" in doc:
        require(doc["ratio"] == round(doc["constructed_L"] / want, 2), f"bound ratio {doc}")


def check_refutation(sset, rng: np.random.Generator, path: str) -> None:
    """Deafen one node to one channel: exhaustive verify must refute the set,
    and its witness must replay as a missed delivery under the slot oracle."""
    codes = sset.codes_matrix()
    W = sset.W
    j = int(rng.integers(sset.K))
    m = int(rng.integers(1, W + 1))
    codes[j][codes[j] == -m] = -(m % W + 1)
    broken = constructor.ScheduleSequenceSet(tuple(
        seqcore.ScheduleSequence(row, s.owner_group) for row, s in zip(codes, sset.sequences)))
    cli.save_set(broken, path)
    doc = cli_json(call_cli(["verify", "--in", path, "--mode", "exhaustive",
                             "--threads", "1"]), code=2)
    witness = doc["witness"]
    require(doc["verdict"] == "failed_with_witness" and witness is not None, f"{doc}")
    taus = [witness["offsets"].get(str(x), 0) for x in range(1, sset.K + 1)]
    require(not ref.pair_delivers(codes, taus, witness["transmitter"], witness["receiver"]),
            f"witness {witness} delivers under the oracle")


def check_thread_determinism(path: str, seed: int, work_dir: str) -> None:
    """verify and simulate print the same bytes with 1 and with 2 threads."""
    outputs = []
    for threads in ("1", "2"):
        csv_path = os.path.join(work_dir, f"threads{threads}.csv")
        verify = call_cli(["verify", "--in", path, "--mode", "exhaustive", "--threads", threads])
        sim = call_cli(["simulate", "--in", path, "--runs", "200", "--seed", str(seed),
                        "--threads", threads, "--out", csv_path])
        with open(csv_path, encoding="utf-8") as fh:
            table = fh.read()
        outputs.append((verify, sim[0], sim[1].replace(csv_path, ""), table))
    require(outputs[0] == outputs[1], "output differs between --threads 1 and 2")


# End-to-end metric of each timed stage: seconds per round (CPU time scaled by
# the probes), median over rounds.
STAGE_METRICS = {
    "generate": "generate_s",
    "load": "load_s",
    "verify": "verify_s",
    "sim_seq": "simulate_seq_s",
    "sim_rand": "simulate_rand_s",
    "analytics": "analytics_s",
}


class Workload:
    """Base: subclasses fill in setup() and round().

    Every workload runs each stage of STAGE_METRICS in every round, at its
    own problem size.
    """

    name = ""

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.dir = work_dir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def metrics(self, rec: Recorder) -> dict[str, float]:
        return {metric: rec.per_round(stage) for stage, metric in STAGE_METRICS.items()}

    def generate_and_load(self, rec: Recorder, K: int, M: int, W: int, want) -> None:
        """generate one set through the CLI, then load_set it: it must equal want."""
        path = self.path(f"gen-k{K}.json")
        argv = ["generate", "--K", str(K), "--M", str(M), "--W", str(W), "--out", path]
        doc = cli_json(rec.time("generate", lambda: call_cli(argv)))
        require(doc["L"] == want.L and doc["W"] == want.W, f"generate K={K}: {doc}")
        require(doc["lower_bound"] == ref.lower_bound(want.W, K // want.W), f"generate: {doc}")
        loaded = rec.time("load", lambda: cli.load_set(path))
        require(loaded == want, f"load(save(s)) != s for K={K} M={M} W={want.W}")

    def simulate_set(self, rec: Recorder, path: str, L: int, runs: int, seed: int) -> None:
        out = self.path("seq.csv")
        doc = cli_json(rec.time("sim_seq", lambda: call_cli(
            ["simulate", "--in", path, "--runs", str(runs), "--seed", str(seed),
             "--threads", "1", "--out", out])))
        check_runs(out, doc, runs, L)

    def simulate_random(self, rec: Recorder, scheme: str, K: int, W: int, runs: int,
                        seed: int, extra: tuple[str, ...] = ()) -> np.ndarray:
        out = self.path("rand.csv")
        doc = cli_json(rec.time("sim_rand", lambda: call_cli(
            ["simulate", "--random", "--scheme", scheme, "--K", str(K), "--W", str(W),
             "--runs", str(runs), "--seed", str(seed), "--threads", "1", "--out", out,
             *extra])))
        check_runs(out, doc, runs, None)
        return read_runs(out)[:, 1]


class FlagshipK18(Workload):
    """K=18, M=3: the completion-time study, randomized verify, K=10-24 tables."""

    name = "flagship-k18"
    SEQ_RUNS = 150
    RAND_RUNS = 100
    RAND_SEED = 7000
    SAMPLES = 400
    SCHEMES = [(scheme, W) for scheme in ("assignt", "general") for W in (1, 2, 3)]

    def setup(self) -> None:
        self.sets = {}
        for W in (1, 2, 3):
            sset = constructor.build_schedule_set(18, 3, W=W)
            require(sset.L == ref.FIXED_W_PERIODS[(18, 3, W)], f"K=18 W={W}: L={sset.L}")
            self.sets[W] = sset
            cli.save_set(sset, self.path(f"k18w{W}.json"))
            check_fixed_offsets(sset, self.rng, vectors=2)
        self._study_random_schemes()
        self.frame_lengths = {K: ref.frame_length(K) for K in ref.PAPER_FRAME_LENGTHS}
        self.group_cdfs = {(K, ell): ref.group_cdf(K, ell)
                           for K, ell, _ in ref.PAPER_COMPLETION_PROBS}
        self.ratios = {(18, W): round(self.sets[W].L / ref.lower_bound(W, 18 // W), 2)
                       for W in (1, 2, 3)}

    def _study_random_schemes(self) -> None:
        """Per-pair first-success times of each random scheme should average 1/P.

        The timed runs of a scheme use the same fixed seed as this study, so
        they must print the same completion times; a scheme whose study
        fails counts each timed run as a failed operation.
        """
        K = 18
        self.rand_ok, self.rand_times = {}, {}
        for n, (scheme, W) in enumerate(self.SCHEMES):
            if scheme == "assignt":
                p = random_schemes.optimize_random(W, K, "assign_t")[0]
                sim_scheme = simulator.AssignTRandomScheme(
                    random_schemes.AssignTRandomParams(W, K, p))
                groups = np.arange(K) % W  # the scheme's default even division
                sizes = np.bincount(groups)
                P_tx = np.array([ref.p_pair_assign_t(p, sizes[g], W) for g in groups])
            else:
                p = random_schemes.optimize_random(W, K, "general")[0]
                sim_scheme = simulator.GeneralRandomScheme(
                    random_schemes.GeneralRandomParams(W, K, p))
                P_tx = np.full(K, ref.p_pair_general(p, K, W))
            res = simulator.simulate(simulator.SimConfig(
                sim_scheme, runs=self.RAND_RUNS, seed=self.RAND_SEED + n, record_pairs=True))
            P = np.repeat(P_tx[:, None], K, axis=1)
            z = ref.first_success_z(res.per_pair_first_success, P)
            self.rand_ok[n] = not res.censored.any() and abs(z) <= 5
            self.rand_times[n] = res.completion_times

    def round(self, rec: Recorder) -> None:
        """Six slices, each with one operation of every stage, so that every
        stage samples the whole round."""
        sub = self.seed * 1000 + rec.round
        for n, (scheme, W_rand) in enumerate(self.SCHEMES):
            W = n % 3 + 1
            self.generate_and_load(rec, 18, 3, W, self.sets[W])
            self.simulate_set(rec, self.path(f"k18w{W}.json"), self.sets[W].L,
                              self.SEQ_RUNS, 10 * sub + n)
            times = self.simulate_random(rec, scheme, 18, W_rand, self.RAND_RUNS,
                                         self.RAND_SEED + n)
            require((times == self.rand_times[n]).all(),
                    f"{scheme} W={W_rand}: CLI and library completion times differ")
            if not self.rand_ok[n]:
                rec.failed += 1
            doc = cli_json(rec.time("verify", lambda: call_cli(
                ["verify", "--in", self.path("k18w3.json"), "--mode", "randomized",
                 "--samples", str(self.SAMPLES), "--seed", str(10 * sub + n),
                 "--threads", "1"])), code=3)
            require(doc["verdict"] == "unknown" and doc["witness"] is None, f"verify: {doc}")
            require(doc["pairs_checked"] == self.SAMPLES * 18 * 17, f"verify: {doc}")
            self._check_tables(rec.time("analytics", self._tables))

    @staticmethod
    def _tables():
        periods = {(K, M): constructor.choose_W(K, M)[1].L for K, M in ref.PAPER_PERIODS}
        bounds = {(K, M): call_cli(["bound", "--K", str(K), "--M", str(M)])
                  for K, M in ref.PAPER_PERIODS}
        framelen = {(K, ell): call_cli(["framelen", "--K", str(K), "--cdf-at", str(ell)])
                    for K, ell, _ in ref.PAPER_COMPLETION_PROBS}
        return periods, bounds, framelen, verifier.ratio_table([18], [1, 2, 3])

    def _check_tables(self, tables) -> None:
        periods, bounds, framelen, ratios = tables
        require(periods == ref.PAPER_PERIODS, f"periods {periods}")
        require(ratios == self.ratios, f"ratio table {ratios}, formula {self.ratios}")
        for (K, M), result in bounds.items():
            check_bound(cli_json(result), K, M)
        for K, ell, paper in ref.PAPER_COMPLETION_PROBS:
            doc = cli_json(framelen[(K, ell)])
            require(doc["L_rand"] == self.frame_lengths[K] == ref.PAPER_FRAME_LENGTHS[K],
                    f"frame length K={K}: {doc['L_rand']}, decimal {self.frame_lengths[K]}")
            prob = doc["cdf_at"]["probability"]
            unit = 10.0 ** -len(paper.split(".")[1])
            require(abs(prob - float(paper)) <= unit, f"P(K={K}, {ell}) = {prob}, paper {paper}")
            exact = float(self.group_cdfs[(K, ell)])
            require(abs(prob - exact) <= 1e-9, f"P(K={K}, {ell}) = {prob}, decimal {exact}")


class DeskProof(Workload):
    """Desk-size sets: the only size at which exhaustive and conservative proofs end."""

    name = "desk-proof"
    EXHAUSTIVE = [(4, 2, 2), (5, 2, 2)]
    CONSERVATIVE = [(6, 3, 3), (7, 3, 3), (8, 3, 3), (9, 3, 3)]
    GEN_PASSES = 10
    SEQ_RUNS = 200
    RAND_RUNS = 200
    TABLE_PASSES = 3

    def setup(self) -> None:
        self.sets, self.files = {}, {}
        for K, M, W in self.EXHAUSTIVE + self.CONSERVATIVE:
            sset = constructor.build_schedule_set(K, M, W=W)
            require(sset.L == ref.FIXED_W_PERIODS[(K, M, W)], f"K={K} M={M}: L={sset.L}")
            self.sets[K] = sset
            # Relabelling the nodes permutes the pairs and so keeps every
            # verdict; it is what the seed varies here.
            order = self.rng.permutation(K)
            relabelled = constructor.ScheduleSequenceSet(
                tuple(sset.sequences[x] for x in order))
            self.files[K] = self.path(f"desk{K}.json")
            cli.save_set(relabelled, self.files[K])
            if K == 4:
                self.small = relabelled
        check_fixed_offsets(self.sets[9], self.rng, vectors=2)
        check_refutation(self.small, self.rng, self.path("broken.json"))
        check_thread_determinism(self.files[4], self.seed, self.dir)
        self.frame_lengths = {K: ref.frame_length(K) for K in self.sets}
        self.ratios = {(K, M): round(self.sets[K].L / ref.lower_bound(M, K // M), 2)
                       for K, M, _ in self.EXHAUSTIVE + self.CONSERVATIVE}

    def round(self, rec: Recorder) -> None:
        """One slice per set, each with operations of every stage, so that
        every stage samples the whole round."""
        sub = self.seed * 1000 + rec.round
        for K, M, W in self.EXHAUSTIVE + self.CONSERVATIVE:
            for _ in range(self.GEN_PASSES):
                self.generate_and_load(rec, K, M, W, self.sets[K])
            mode, verdict = (("exhaustive", "proven") if (K, M, W) in self.EXHAUSTIVE
                             else ("conservative", "proven_conservative"))
            doc = cli_json(rec.time("verify", lambda: call_cli(
                ["verify", "--in", self.files[K], "--mode", mode, "--threads", "1"])))
            require(doc["verdict"] == verdict, f"K={K} {mode}: {doc}")
            require(doc["pairs_checked"] == K * (K - 1), f"K={K} {mode}: {doc}")
            self.simulate_set(rec, self.files[K], self.sets[K].L, self.SEQ_RUNS, sub + K)
            # AssignT only: the general scheme's W >= 2 runs are the flagship's
            # counted failures, and its study runs only there.
            self.simulate_random(rec, "assignt", K, W, self.RAND_RUNS, sub + K)
            for _ in range(self.TABLE_PASSES):
                self._check_tables(rec.time("analytics", self._tables))

    def _tables(self):
        bounds = {(K, M): call_cli(["bound", "--K", str(K), "--M", str(M)])
                  for K, M, _ in self.EXHAUSTIVE + self.CONSERVATIVE}
        framelen = {K: call_cli(["framelen", "--K", str(K)]) for K in self.sets}
        ratios = {**verifier.ratio_table([4, 5], [2]), **verifier.ratio_table([6, 7, 8, 9], [3])}
        return bounds, framelen, ratios

    def _check_tables(self, tables) -> None:
        bounds, framelen, ratios = tables
        require(ratios == self.ratios, f"ratio table {ratios}, formula {self.ratios}")
        for (K, M), result in bounds.items():
            doc = cli_json(result)
            check_bound(doc, K, M)
            require(doc["constructed_L"] == self.sets[K].L, f"bound K={K}: {doc}")
        for K, result in framelen.items():
            doc = cli_json(result)
            require(doc["L_rand"] == self.frame_lengths[K],
                    f"frame length K={K}: {doc['L_rand']}, decimal {self.frame_lengths[K]}")


class GridK150(Workload):
    """K=150, M=5: codec, randomized verify and simulation at the grid's top."""

    name = "grid-k150"
    SLICES = 5
    RAND_SEED = 9000
    TABLE_PASSES = 4
    GUARD = "exceeds the float-precision guard"

    def setup(self) -> None:
        self.sset = constructor.build_schedule_set(150, 5)
        require(self.sset.L == ref.FIXED_W_PERIODS[(150, 5, 5)], f"K=150: L={self.sset.L}")
        # simulate --random needs --max-slots at K > 40 (the coupon guard
        # refuses the frame length it would default to): give it the default,
        # 20 frame lengths, from the decimal CDF.
        self.max_slots = 20 * ref.frame_length(150)

    def round(self, rec: Recorder) -> None:
        """Five slices of one operation of every other stage, with generate
        after slices 0 and 2 and load after slices 1 and 3: the stages sample
        the whole round, and each long operation has slices, and so probes,
        on both sides.  Two of each long operation halve the weight of the
        machine's state during any one of them."""
        sub = self.seed * 1000 + rec.round
        path = self.path("gen-k150.json")
        for k in range(self.SLICES):
            self._slice(rec, 10 * sub + k, self.RAND_SEED + k)
            if k in (0, 2):
                doc = cli_json(rec.time("generate", lambda: call_cli(
                    ["generate", "--K", "150", "--M", "5", "--out", path])))
                require(doc["L"] == self.sset.L and doc["W"] == 5, f"generate: {doc}")
                require(doc["lower_bound"] == ref.lower_bound(5, 30), f"generate: {doc}")
            elif k in (1, 3):
                loaded = rec.time("load", lambda: cli.load_set(path))
                require(loaded == self.sset, "load(save(s)) != s for K=150")
        self._framelen(rec)

    def _slice(self, rec: Recorder, seed: int, rand_seed: int) -> None:
        # verify and simulate go through the library on the set, which load
        # is checked to reproduce: through the CLI each would first re-read
        # the 17 MB file, which load_s times.
        report = rec.time("verify", lambda: verifier.verify_set(
            self.sset, mode="randomized", samples=1, seed=seed))
        require(report.verdict is verifier.Verdict.UNKNOWN and report.witness is None,
                f"verify: {report}")
        require(report.pairs_checked == 150 * 149, f"verify: {report}")
        res = rec.time("sim_seq", lambda: simulator.simulate(simulator.SimConfig(
            simulator.SequenceScheme(self.sset), runs=1, seed=seed)))
        require(not res.censored[0] and int(res.completion_times[0]) <= self.sset.L,
                f"K=150 completion time {res.completion_times[0]} exceeds L={self.sset.L}")
        # A fixed seed: the work of a random-scheme run depends on its draws.
        self.simulate_random(rec, "assignt", 150, 5, 1, rand_seed,
                             ("--max-slots", str(self.max_slots)))
        for _ in range(self.TABLE_PASSES):
            self._check_tables(rec.time("analytics", self._tables))

    @staticmethod
    def _tables():
        ratios = verifier.ratio_table(ref.RATIO_KS, list(ref.PAPER_RATIOS))
        return ratios, call_cli(["bound", "--K", "150", "--M", "5"])

    def _check_tables(self, tables) -> None:
        ratios, bound = tables
        want = {(K, M): r for M, row in ref.PAPER_RATIOS.items()
                for K, r in zip(ref.RATIO_KS, row)}
        require(ratios == want, f"ratio grid {ratios}")
        doc = cli_json(bound)
        check_bound(doc, 150, 5)
        require(doc["constructed_L"] == self.sset.L and doc["ratio"] == want[(150, 5)],
                f"bound: {doc}")

    def _framelen(self, rec: Recorder) -> None:
        """framelen --K 150: counted as failed while the coupon guard refuses it."""
        code, out, err = rec.time(None, lambda: call_cli(["framelen", "--K", "150"]))
        if code == 1 and self.GUARD in err:
            rec.failed += 1
            return
        doc = cli_json((code, out, err))
        require(doc["L_rand"] == self.max_slots // 20,
                f"framelen K=150: {doc['L_rand']}, decimal {self.max_slots // 20}")


WORKLOADS = {w.name: w for w in (FlagshipK18, DeskProof, GridK150)}
