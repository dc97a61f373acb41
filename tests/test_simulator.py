import math
import tracemalloc

import numpy as np
import pytest

from schedseq.constructor import ScheduleSequenceSet, build_schedule_set
from schedseq.kernel import BATCH_BYTES, CHUNK_SLOTS, batch_runs, run_bytes
from schedseq.random_schemes import (
    AssignTRandomParams,
    CouponModel,
    GeneralRandomParams,
    coupon_cdf,
    group_cdf,
    optimal_single_channel,
    optimize_random,
)
from schedseq.seqcore import OffsetVector, ScheduleSequence, Symbol
from schedseq.simulator import (
    AssignTRandomScheme,
    GeneralRandomScheme,
    RunStreams,
    SequenceScheme,
    SimConfig,
    _WORDS_BLOCK,
    _band_edge,
    completion_histogram,
    simulate,
)
from schedseq.verifier import success_slots

from conftest import brute_force_completion, brute_force_first_success, seq_from_str


def tiny_alternating_set() -> ScheduleSequenceSet:
    seq = ScheduleSequence.from_symbols([Symbol.transmit(1), Symbol.receive(1)], 1)
    return ScheduleSequenceSet((seq, seq))


class TestSimulateSequence:
    def test_two_node_hand_trace(self):
        cfg = SimConfig(SequenceScheme(tiny_alternating_set()), runs=1,
                        offset_mode=OffsetVector((0, 1), 2))
        res = simulate(cfg)
        assert res.completion_times.tolist() == [2]
        assert not res.censored.any()

    def test_permanent_collision_censors(self):
        seq = ScheduleSequence.from_symbols([Symbol.transmit(1)] * 2, 1)
        sset = ScheduleSequenceSet((seq, seq))
        res = simulate(SimConfig(SequenceScheme(sset), runs=2, max_slots=40,
                                 offset_mode="zero"))
        assert res.censored.all()
        assert (res.completion_times == 40).all()

    def test_deterministic_for_seed(self):
        sset = build_schedule_set(4, 2, W=2)
        a = simulate(SimConfig(SequenceScheme(sset), runs=64, seed=9))
        b = simulate(SimConfig(SequenceScheme(sset), runs=64, seed=9))
        assert a == b
        c = simulate(SimConfig(SequenceScheme(sset), runs=64, seed=10))
        assert not np.array_equal(a.completion_times, c.completion_times)

    @pytest.mark.parametrize("offset_mode", ["uniform", "zero", OffsetVector((0, 1, 2, 3), 4)])
    def test_negative_seed_is_refused_in_every_offset_mode(self, offset_mode):
        # zero and fixed offsets draw nothing, so no stream would check it
        scheme = SequenceScheme(build_schedule_set(4, 2, W=2))
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SimConfig(scheme, runs=5, seed=-1, offset_mode=offset_mode)

    def test_threads_do_not_change_results(self):
        sset = build_schedule_set(4, 2, W=2)
        a = simulate(SimConfig(SequenceScheme(sset), runs=50, seed=3))
        b = simulate(SimConfig(SequenceScheme(sset), runs=50, seed=3), threads=4)
        assert a == b

    def test_three_uneven_ranges_keep_run_order(self):
        # 37 runs split 12 + 12 + 13; the per-pair tables too must come
        # back in run order.
        config = SimConfig(SequenceScheme(build_schedule_set(4, 2, W=2)), runs=37, seed=8,
                           record_pairs=True)
        a, b = simulate(config), simulate(config, threads=3)
        assert a == b
        assert np.array_equal(a.per_pair_first_success, b.per_pair_first_success)

    def test_guarantee_within_period(self):
        sset = build_schedule_set(4, 2, W=2)
        for mode in ("uniform", "zero"):
            res = simulate(SimConfig(SequenceScheme(sset), runs=300, seed=5,
                                     offset_mode=mode))
            assert not res.censored.any()
            assert res.completion_times.max() <= sset.L

    def test_one_node_completes_at_once(self):
        # no pair to serve, as verify_set proves the set with 0 pairs
        sset = ScheduleSequenceSet((seq_from_str("T1 R1 R1", 1),))
        res = simulate(SimConfig(SequenceScheme(sset), runs=2, record_pairs=True))
        assert res.completion_times.tolist() == [0, 0]
        assert not res.censored.any()
        assert res.per_pair_first_success.shape == (2, 1, 1)

    def test_matches_slot_by_slot_reference(self, three_node_set):
        # chunked vectorized run agrees with a plain slot loop
        rng = np.random.default_rng(31)
        L = three_node_set.L
        for _ in range(25):
            offsets = tuple(int(rng.integers(0, L)) for _ in range(3))
            cfg = SimConfig(SequenceScheme(three_node_set), runs=1,
                            offset_mode=OffsetVector(offsets, L))
            res = simulate(cfg)
            want = brute_force_completion(
                three_node_set, {i + 1: offsets[i] for i in range(3)}, cfg.resolved_max_slots())
            assert res.completion_times[0] == want

    def test_first_success_agrees_with_verifier(self, three_node_set):
        # the earliest delivery slot the simulator sees must be the smallest
        # slot the verifier's success predicate admits for those offsets
        rng = np.random.default_rng(37)
        L = three_node_set.L
        for _ in range(20):
            offsets = {i: int(rng.integers(0, L)) for i in range(1, 4)}
            cfg = SimConfig(SequenceScheme(three_node_set), runs=1,
                            offset_mode=OffsetVector(tuple(offsets[i] for i in (1, 2, 3)), L),
                            record_pairs=True)
            res = simulate(cfg)
            first = res.per_pair_first_success[0]
            for i in range(1, 4):
                for j in range(1, 4):
                    if i == j:
                        continue
                    slots = success_slots(three_node_set, i, j, offsets)
                    assert first[i - 1, j - 1] == min(slots), (i, j, offsets)

    def test_collision_fidelity(self):
        # two simultaneous transmitters on a channel deliver nothing
        sset = ScheduleSequenceSet((
            seq_from_str("T1 R1", 1),
            seq_from_str("T1 R1", 1),
            seq_from_str("R1 T1", 1),
        ))
        res = simulate(SimConfig(SequenceScheme(sset), runs=1, max_slots=20,
                                 offset_mode="zero", record_pairs=True))
        first = res.per_pair_first_success[0]
        # slot 0 collides (nodes 1, 2 both on channel 1); node 3 delivers at slot 1
        assert first[2, 0] == 1 and first[2, 1] == 1
        assert first[0, 2] == -1 and first[1, 2] == -1  # never collision-free
        assert res.censored.all()

    def test_max_slots_below_period_rejected(self):
        sset = build_schedule_set(4, 2, W=2)
        with pytest.raises(ValueError):
            simulate(SimConfig(SequenceScheme(sset), runs=1, max_slots=10))

    @pytest.mark.parametrize("max_slots", [0, -3])
    def test_nonpositive_max_slots_rejected(self, max_slots):
        params = AssignTRandomParams(1, 4, 0.25)
        with pytest.raises(ValueError):
            SimConfig(AssignTRandomScheme(params), runs=1, max_slots=max_slots)

    def test_fixed_offsets_must_match_shape(self):
        sset = build_schedule_set(4, 2, W=2)
        cfg = SimConfig(SequenceScheme(sset), runs=1,
                        offset_mode=OffsetVector((0, 0), 60))
        with pytest.raises(ValueError):
            simulate(cfg)

    def test_only_drawn_offsets_build_generators(self, monkeypatch):
        # zero and fixed offsets never draw, so they build no random stream
        made = []
        make = RunStreams.__getitem__

        def counting(streams, n):
            made.append(n)
            return make(streams, n)
        monkeypatch.setattr(RunStreams, "__getitem__", counting)
        sset = build_schedule_set(4, 2, W=2)
        for mode in ("zero", OffsetVector((0, 5, 9, 30), sset.L)):
            simulate(SimConfig(SequenceScheme(sset), runs=20, seed=4, offset_mode=mode))
            assert made == [], mode
        simulate(SimConfig(SequenceScheme(sset), runs=20, seed=4))
        assert len(made) == 20

    def test_offset_memory_does_not_grow_with_runs(self):
        # one run's stream alive at a time: 20,000 runs cost their (runs, K)
        # offsets and results, not a generator each (about 1.1 KB a run)
        sset = build_schedule_set(4, 2, W=2)

        def traced(runs):
            tracemalloc.start()
            try:
                res = simulate(SimConfig(SequenceScheme(sset), runs=runs, seed=9))
                return res, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        few, few_peak = traced(200)
        many, many_peak = traced(20_000)
        assert many_peak - few_peak <= 2 * 2 ** 20
        np.testing.assert_array_equal(many.completion_times[:200], few.completion_times)


# seeds of one to six 32-bit words, below and above SeedSequence's 4-word pool
STREAM_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5, 10**40, 2**160 + 2**100]


def numpy_stream(seed: int, k: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(k,))


class TestRunStreams:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_streams_equal_numpys_spawned_children(self, seed):
        rng = np.random.default_rng(seed % 1000)
        ks = [0, 1, 2, 49, 2**31, 2**32 - 2, 2**32 - 1, *rng.integers(0, 2**32, 20).tolist()]
        for k in ks:
            streams = RunStreams(seed, range(k, k + 1))
            want = numpy_stream(seed, k)
            np.testing.assert_array_equal(streams.words[0], want.generate_state(4, np.uint64))
            got, ref = streams[0], np.random.default_rng(want)
            assert got.random() == ref.random(), k
            np.testing.assert_array_equal(got.integers(0, 546, size=18),
                                          ref.integers(0, 546, size=18))

    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_a_range_gives_each_run_its_own_stream(self, seed):
        # a range starting past 0 and spanning a block of the words pass
        runs = range(_WORDS_BLOCK - 3, _WORDS_BLOCK + 4)
        words = RunStreams(seed, runs).words
        for n, k in enumerate(runs):
            np.testing.assert_array_equal(words[n], RunStreams(seed, range(k, k + 1)).words[0])
            np.testing.assert_array_equal(words[n],
                                          numpy_stream(seed, k).generate_state(4, np.uint64))
        whole = RunStreams(seed, range(2 * _WORDS_BLOCK + 1)).words
        np.testing.assert_array_equal(whole[runs.start:runs.stop], words)

    def test_negative_seed_is_numpys_error(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            RunStreams(-1, range(3))

    def test_run_index_beyond_one_key_word_is_refused(self):
        # numpy's spawn key k >= 2**32 has two words; it must not wrap to k % 2**32
        with pytest.raises(OverflowError):
            RunStreams(0, range(2**32 - 1, 2**32 + 1))


class TestSimulateRandom:
    def test_assign_t_single_node_marginal(self):
        # each node's own completion time follows the coupon model exactly;
        # this pins the channel model against the analytic route
        K = 10
        p_star, _ = optimal_single_channel(K)
        scheme = AssignTRandomScheme(AssignTRandomParams(1, K, p_star))
        res = simulate(SimConfig(scheme, runs=4000, seed=5, offset_mode="zero",
                                 record_pairs=True))
        model = CouponModel.from_optimal(K)
        fp = res.per_pair_first_success
        x_node0 = 1 + fp[:, 1:, 0].max(axis=1)
        for ell in (100, 150, 209):
            ana = coupon_cdf(model, ell)
            emp = float((x_node0 <= ell).mean())
            se = math.sqrt(ana * (1 - ana) / res.runs) + 1e-12
            assert abs(emp - ana) <= 3 * se, ell

    def test_group_empirical_at_least_independence_approx(self):
        # node completions are positively correlated through shared slots,
        # so the product-form approximation can only understate the CDF
        K = 10
        p_star, _ = optimal_single_channel(K)
        scheme = AssignTRandomScheme(AssignTRandomParams(1, K, p_star))
        res = simulate(SimConfig(scheme, runs=4000, seed=6, offset_mode="zero"))
        model = CouponModel.from_optimal(K)
        for ell in (150, 209, 300):
            ana = group_cdf(model, ell)
            emp = float((res.completion_times <= ell).mean())
            se = math.sqrt(max(ana * (1 - ana), 1e-9) / res.runs)
            assert emp >= ana - 3 * se, ell

    def test_general_scheme_runs_and_completes(self):
        params = GeneralRandomParams(2, 6, 0.08)
        res = simulate(SimConfig(GeneralRandomScheme(params), runs=100, seed=8,
                                 max_slots=50_000))
        assert not res.censored.any()
        assert (res.completion_times >= 1).all()

    def test_general_first_success_matches_slot_replay(self):
        # W=2: a node transmits on either channel, so one pair can succeed on
        # both channels within a chunk; the earliest slot must win
        from schedseq.kernel import CHUNK_SLOTS
        params = GeneralRandomParams(2, 6, 0.09)
        scheme = GeneralRandomScheme(params)
        runs, seed, max_slots = 12, 5, 20_000
        res = simulate(SimConfig(scheme, runs=runs, seed=seed, max_slots=max_slots,
                                 record_pairs=True))
        off_diag = ~np.eye(params.K, dtype=bool)
        for r, child in enumerate(np.random.SeedSequence(seed).spawn(runs)):
            # redraw the run's chunks and replay them one slot at a time
            rng = np.random.default_rng(child)
            chunks, t0 = [], 0
            while t0 < max_slots:
                T = min(CHUNK_SLOTS, max_slots - t0)
                chunks.append(scheme.codes(rng.random((params.K, T))))
                t0 += T
                first = np.array(brute_force_first_success(np.concatenate(chunks, axis=1)))
                if (first[off_diag] >= 0).all():
                    break
            assert np.array_equal(res.per_pair_first_success[r], first), r
            assert res.completion_times[r] == first[off_diag].max() + 1

    def test_action_distribution_general(self):
        # empirical action frequencies match (p_a, q_a) per channel
        params = GeneralRandomParams(3, 4, 0.1)
        scheme = GeneralRandomScheme(params)
        rng = np.random.default_rng(0)
        codes = scheme.codes(rng.random((1, 200_000)))
        for m in range(1, 4):
            assert (codes == m).mean() == pytest.approx(params.p_a, abs=3e-3)
            assert (codes == -m).mean() == pytest.approx(params.q_a, abs=3e-3)

    def test_action_distribution_assign_t(self):
        from schedseq.seqcore import GroupDivision
        params = AssignTRandomParams(3, 6, 0.2)
        scheme = AssignTRandomScheme(params)
        division = GroupDivision.even(6, 3)
        rng = np.random.default_rng(1)
        codes = scheme.codes(rng.random((6, 100_000)))
        for node in range(6):
            own = division.assignment[node]
            row = codes[node]
            assert (row == own).mean() == pytest.approx(params.p_b, abs=4e-3)
            assert (row == -own).mean() == pytest.approx(params.q_1, abs=4e-3)
            for other in range(1, 4):
                if other != own:
                    assert (row == -other).mean() == pytest.approx(params.q_2, abs=4e-3)


def edge_grid(edges) -> np.ndarray:
    """Uniforms in [0, 1) on every band edge, one ulp either side of it,
    and halfway between adjacent edges."""
    edges = sorted(set([0.0, *edges, 1.0]))
    points = [0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])]
    for e in edges:
        points += [np.nextafter(e, -1.0), e, np.nextafter(e, 2.0)]
    return np.array(sorted({u for u in points if 0.0 <= u < 1.0}))


def ulp_grid(points, ulps: int = 8) -> np.ndarray:
    """Every double in [0, 1) within `ulps` ulps of some point."""
    bits = np.array(points, dtype=np.float64).view(np.int64)[:, None]
    near = (bits + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)
    return np.unique(near[(near >= 0.0) & (near < 1.0)])


class TestCodeMapsAgainstBands:
    """codes(u) against per-draw band lookups: the scheme's probabilities
    split [0, 1) into consecutive bands, one per action."""

    @staticmethod
    def assign_t_action(params, own: int, u: float) -> int:
        # bands: transmit on own (p_b), receive on own (q_1), then receive
        # on each other channel in ascending order (q_2 each; the last band
        # absorbs rounding up to 1)
        if u < params.p_b:
            return own
        tail = u - params.p_b - params.q_1
        if tail < 0 or params.W == 1:  # one channel: q_1 = 1 - p_b
            return -own
        others = [m for m in range(1, params.W + 1) if m != own]
        return -others[min(int(tail / params.q_2), params.W - 2)]

    @staticmethod
    def general_action(params, u: float) -> int:
        # bands: transmit on channel 1..W (p_a each), then receive on
        # channel 1..W (q_a each)
        W = params.W
        if u < W * params.p_a:
            return min(int(u / params.p_a), W - 1) + 1
        return -(min(int((u - W * params.p_a) / params.q_a), W - 1) + 1)

    @pytest.mark.parametrize("W", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("p_b", [0.05, 0.3, 0.61])
    def test_assign_t(self, W, p_b):
        K = 7
        params = AssignTRandomParams(W, K, p_b)
        base = params.p_b + params.q_1
        u = edge_grid([params.p_b, base] + [base + k * params.q_2 for k in range(1, W)])
        own = [(x % W) + 1 for x in range(K)]  # round-robin groups
        got = AssignTRandomScheme(params).codes(np.tile(u, (K, 1)))
        want = [[self.assign_t_action(params, g, float(v)) for v in u] for g in own]
        assert got.tolist() == want

    @pytest.mark.parametrize("W", [1, 2, 3, 4])
    @pytest.mark.parametrize("share", [0.1, 0.5, 0.93])
    def test_general(self, W, share):
        params = GeneralRandomParams(W, 5, share / W)
        tx = W * params.p_a
        u = edge_grid([m * params.p_a for m in range(1, W + 1)]
                      + [tx + m * params.q_a for m in range(1, W)])
        got = GeneralRandomScheme(params).codes(np.tile(u, (5, 1)))
        want = [self.general_action(params, float(v)) for v in u]
        assert got.tolist() == [want] * 5

    # Every double within 8 ulps of each float band sum and of each edge the
    # scheme found, also for p near 0 or 1, one or six channels, and
    # receive bands of about 1e-13.
    @pytest.mark.parametrize("W", [1, 2, 3, 6])
    @pytest.mark.parametrize("p_b", [1e-9, 0.3, 1 - 1e-9, 1 - 1e-12])
    def test_assign_t_near_edges(self, W, p_b):
        K = 7
        params = AssignTRandomParams(W, K, p_b)
        scheme = AssignTRandomScheme(params)
        base = params.p_b + params.q_1
        sums = [params.p_b, base] + [base + k * params.q_2 for k in range(1, W)]
        u = ulp_grid([0.0, 0.5, *sums, *scheme._edges])
        own = [(x % W) + 1 for x in range(K)]  # round-robin groups
        got = scheme.codes(np.tile(u, (K, 1)))
        want = [[self.assign_t_action(params, g, float(v)) for v in u] for g in own]
        assert got.tolist() == want

    @pytest.mark.parametrize("W", [1, 2, 3, 6])
    @pytest.mark.parametrize("share", [1e-9, 0.37, 1 - 1e-9, 1 - 1e-12])
    def test_general_near_edges(self, W, share):
        params = GeneralRandomParams(W, 5, share / W)
        scheme = GeneralRandomScheme(params)
        tx = W * params.p_a
        sums = [m * params.p_a for m in range(1, W + 1)] + [tx + m * params.q_a
                                                           for m in range(1, W)]
        u = ulp_grid([0.0, 0.5, *sums, *scheme._edges])
        got = scheme.codes(np.tile(u, (5, 1)))
        want = [self.general_action(params, float(v)) for v in u]
        assert got.tolist() == [want] * 5


class TestBandEdge:
    """_band_edge finds the first double of a band."""

    @pytest.mark.parametrize("near", [0.0, 0.3, 0.7, 0.999])
    def test_step_at_a_known_double(self, near):
        x = float(np.nextafter(near, 1.0))
        assert _band_edge(lambda u: int(u >= x), 1) == x

    def test_a_band_at_zero_or_never_reached(self):
        assert _band_edge(lambda u: 1, 1) == 0.0
        assert _band_edge(lambda u: 0, 1) == 1.0


def drawn_scheme(kind: str, W: int, K: int, p: float):
    if kind == "assign_t":
        return AssignTRandomScheme(AssignTRandomParams(W, K, p))
    return GeneralRandomScheme(GeneralRandomParams(W, K, p))


# Completion times of 8 runs of `simulate` at optimize_random's transmit
# probability, keyed by (scheme, K, W, seed).
PINNED_TIMES = {
    ("assign_t", 6, 1, 3): (19, 11, 22, 13, 25, 30, 66, 26),
    ("assign_t", 6, 1, 41): (43, 41, 30, 11, 36, 25, 23, 41),
    ("assign_t", 6, 2, 3): (60, 69, 78, 66, 44, 70, 46, 54),
    ("assign_t", 6, 2, 41): (53, 52, 78, 41, 80, 58, 46, 74),
    ("assign_t", 6, 3, 3): (76, 67, 98, 129, 44, 88, 53, 99),
    ("assign_t", 6, 3, 41): (110, 87, 74, 67, 81, 112, 37, 77),
    ("assign_t", 18, 1, 3): (188, 195, 128, 134, 156, 127, 227, 224),
    ("assign_t", 18, 1, 41): (265, 121, 125, 210, 195, 199, 113, 299),
    ("assign_t", 18, 2, 3): (300, 252, 274, 221, 231, 230, 312, 243),
    ("assign_t", 18, 2, 41): (327, 344, 302, 302, 409, 242, 346, 303),
    ("assign_t", 18, 3, 3): (247, 258, 423, 345, 216, 230, 299, 272),
    ("assign_t", 18, 3, 41): (277, 371, 278, 466, 306, 334, 503, 231),
    ("general", 6, 1, 3): (19, 11, 22, 13, 25, 30, 66, 26),
    ("general", 6, 1, 41): (43, 41, 30, 11, 36, 25, 23, 41),
    ("general", 6, 2, 3): (49, 49, 70, 70, 152, 39, 84, 45),
    ("general", 6, 2, 41): (49, 41, 65, 81, 54, 118, 46, 79),
    ("general", 6, 3, 3): (114, 91, 98, 149, 55, 52, 130, 142),
    ("general", 6, 3, 41): (97, 62, 83, 177, 62, 70, 50, 102),
    ("general", 18, 1, 3): (188, 195, 128, 134, 156, 127, 227, 224),
    ("general", 18, 1, 41): (265, 121, 125, 210, 195, 199, 113, 299),
    ("general", 18, 2, 3): (255, 249, 198, 234, 331, 319, 313, 299),
    ("general", 18, 2, 41): (333, 271, 228, 423, 275, 259, 357, 347),
    ("general", 18, 3, 3): (266, 309, 268, 274, 332, 417, 238, 392),
    ("general", 18, 3, 41): (244, 369, 236, 466, 322, 251, 390, 319),
}


class TestRandomStreamsPinned:
    """The random schemes' completion times, fixed: a change to the stream,
    the draw order or the draw-to-action mapping shows here."""

    @pytest.mark.parametrize("key", sorted(PINNED_TIMES))
    def test_completion_times(self, key):
        kind, K, W, seed = key
        scheme = drawn_scheme(kind, W, K, optimize_random(W, K, kind)[0])
        res = simulate(SimConfig(scheme, runs=8, seed=seed))
        assert tuple(res.completion_times.tolist()) == PINNED_TIMES[key]

    @pytest.mark.parametrize("kind, p, seed, want", [
        ("assign_t", 0.02, 3, (1255, 797, 747, 737)),
        ("assign_t", 0.02, 41, (1186, 1213, 1012, 903)),
        ("general", 0.006, 3, (958, 1098, 941, 841)),
        ("general", 0.006, 41, (1626, 1351, 1221, 1250)),
    ])
    def test_over_several_chunks(self, kind, p, seed, want):
        res = simulate(SimConfig(drawn_scheme(kind, 3, 18, p), runs=4, seed=seed))
        assert tuple(res.completion_times.tolist()) == want


class TestTransmitChannels:
    """A scheme's transmit_channels, which the kernel trusts, against the
    actions the scheme itself produces."""

    @pytest.mark.parametrize("K, M, W", [(4, 2, 2), (9, 3, 3), (18, 3, 1), (18, 3, 3)])
    def test_sequence_codes_send_on_the_owner_group(self, K, M, W):
        sset = build_schedule_set(K, M, W=W)
        channel = SequenceScheme(sset).transmit_channels
        assert channel.tolist() == list(sset.division.assignment)
        codes = sset.codes_matrix()
        sends = codes > 0
        assert sends.any(axis=1).all()
        assert (codes == channel[:, None])[sends].all()

    @pytest.mark.parametrize("W", [1, 2, 3])
    def test_assign_t_chunk_sends_on_the_own_channel(self, W):
        K = 18
        scheme = drawn_scheme("assign_t", W, K, optimize_random(W, K, "assign_t")[0])
        channel = scheme.transmit_channels
        assert channel.tolist() == [x % W + 1 for x in range(K)]  # even division
        actions = scheme.action_source(5, range(4), "uniform")(np.arange(4), 0, CHUNK_SLOTS)
        sends = actions > 0
        assert sends.any(axis=2).all()  # every node of every run sends in the chunk
        assert (actions == channel[:, None])[sends].all()

    def test_general_scheme_fixes_no_channel(self):
        assert drawn_scheme("general", 3, 18, 0.01).transmit_channels is None


class TestActionMemory:
    @pytest.mark.parametrize("K", [4, 18, 150])
    @pytest.mark.parametrize("kind", ["assign_t", "general"])
    def test_one_chunk_fits_the_batch_budget(self, kind, K):
        # the kernel's promise: a batch's working set is bounded by
        # BATCH_BYTES, or by one run's when that alone is larger
        scheme = drawn_scheme(kind, 3, K, optimize_random(3, K, kind)[0])
        runs = batch_runs(K)
        actions = scheme.action_source(1, range(runs), "uniform")
        tracemalloc.start()
        try:
            out = actions(np.arange(runs), 0, CHUNK_SLOTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (runs, K, CHUNK_SLOTS)
        assert peak <= max(BATCH_BYTES, run_bytes(K))

    @pytest.mark.parametrize("scheme", [
        AssignTRandomScheme(AssignTRandomParams(2, 6, 0.2)),
        GeneralRandomScheme(GeneralRandomParams(2, 6, 0.08)),
    ], ids=["assign_t", "general"])
    def test_stream_memory_does_not_grow_with_runs(self, scheme):
        # a batch's streams live only while it runs: 20,000 runs cost their
        # seed words (32 bytes a run) and results, not a generator each
        def traced(runs):
            tracemalloc.start()
            try:
                res = simulate(SimConfig(scheme, runs=runs, seed=9))
                return res, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        few, few_peak = traced(200)
        many, many_peak = traced(20_000)
        assert many_peak - few_peak <= 2 * 2 ** 20
        np.testing.assert_array_equal(many.completion_times[:200], few.completion_times)


class TestChannelCountEffects:
    def test_single_channel_beats_three_for_sequences(self):
        # fewer employed channels shorten the mean completion time
        means = {}
        for W in (1, 3):
            sset = build_schedule_set(18, 3, W=W)
            res = simulate(SimConfig(SequenceScheme(sset), runs=2000, seed=50 + W))
            means[W] = float(res.completion_times.mean())
        assert means[1] < means[3], means

    def test_random_tail_meets_frame_target(self):
        # at the analytic frame length the empirical completion probability
        # reaches the five-nines target within Monte-Carlo error
        p_star = optimal_single_channel(18)[0]
        scheme = AssignTRandomScheme(AssignTRandomParams(1, 18, p_star))
        res = simulate(SimConfig(scheme, runs=10_000, seed=11))
        emp = float((res.completion_times <= 812).mean())
        se = math.sqrt(0.99999 * (1 - 0.99999) / 10_000)
        assert emp >= 0.99999 - 3 * se


class TestCompletionHistogram:
    def test_single_spike(self):
        cfg = SimConfig(SequenceScheme(tiny_alternating_set()), runs=10,
                        offset_mode=OffsetVector((0, 1), 2))
        hist = completion_histogram(simulate(cfg))
        assert hist.values == (2,)
        assert hist.pmf == (1.0,)
        assert hist.censored_mass == 0.0
        assert hist.mean == 2.0

    def test_mass_accounting_with_censoring(self):
        seq = ScheduleSequence.from_symbols([Symbol.transmit(1)] * 2, 1)
        blocked = ScheduleSequenceSet((seq, seq))
        hist = completion_histogram(
            simulate(SimConfig(SequenceScheme(blocked), runs=8, max_slots=16,
                               offset_mode="zero")))
        assert hist.censored_mass == 1.0
        assert sum(hist.pmf) + hist.censored_mass == pytest.approx(1.0)

    def test_quantiles_are_order_statistics(self):
        sset = build_schedule_set(4, 2, W=2)
        res = simulate(SimConfig(SequenceScheme(sset), runs=200, seed=2))
        hist = completion_histogram(res, quantiles=(0, 0.5, 0.99, 1))
        sorted_times = np.sort(res.completion_times)
        assert hist.quantiles[0] == sorted_times[0]
        assert hist.quantiles[0.5] == sorted_times[99]
        assert hist.quantiles[0.99] == sorted_times[197]
        assert hist.quantiles[1] == sorted_times[199]

    @pytest.mark.parametrize("q", [-0.01, 1.5, float("nan")])
    def test_quantile_outside_unit_interval_is_refused(self, q):
        res = simulate(SimConfig(SequenceScheme(tiny_alternating_set()), runs=4))
        with pytest.raises(ValueError, match="quantiles"):
            completion_histogram(res, quantiles=(0.5, q))
