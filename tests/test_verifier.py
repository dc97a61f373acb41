import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from schedseq import kernel, verifier
from schedseq.cli import main as cli_main, save_set
from schedseq.constructor import (
    ScheduleSequenceSet,
    build_schedule_set,
    select_params,
)
from schedseq.seqcore import BinarySequence, ScheduleSequence, Symbol
from schedseq.verifier import (
    Method,
    Verdict,
    appendix_F,
    b_sequence,
    blocking_run,
    check_pair_conservative,
    check_pair_exhaustive,
    lower_bound,
    period_bounds,
    ratio_table,
    success_slots,
    verify_set,
)

from conftest import (
    brute_force_pair_check,
    conservative_slack,
    first_failing_offsets,
    pair_ok_for_offsets,
    seq_from_str,
)

# (K, M, W) of the constructed sets with K <= 5; W None is the default.
DESK_SETS = [(2, 1, None), (2, 2, 2), (3, 2, None), (3, 2, 2), (4, 2, None),
             (4, 2, 2), (5, 2, None), (5, 2, 2), (3, 3, 3), (4, 3, 3), (5, 3, 3)]


def with_codes(sset: ScheduleSequenceSet, codes) -> ScheduleSequenceSet:
    return ScheduleSequenceSet(tuple(
        ScheduleSequence(row, s.owner_group) for row, s in zip(codes, sset.sequences)))


def slot_mutations(sset: ScheduleSequenceSet, count: int, seed: int, slots: int = 1):
    """count sets that each differ from sset in `slots` draws of one slot of
    one node, which there transmits on its own channel or listens to
    another channel (a later draw may redo an earlier one's slot)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        codes = sset.codes_matrix().copy()
        for _ in range(slots):
            x, t = int(rng.integers(sset.K)), int(rng.integers(sset.L))
            own = sset.sequences[x].owner_group
            choices = [c for c in [own] + [-m for m in range(1, sset.W + 1)]
                       if c != codes[x, t]]
            codes[x, t] = choices[int(rng.integers(len(choices)))]
        out.append(with_codes(sset, codes))
    return out


def ordered_pairs(K: int):
    return [(i, j) for i in range(1, K + 1) for j in range(1, K + 1) if i != j]


def partly_deaf_k5(keep: int, x: int = 2, m: int = 1) -> ScheduleSequenceSet:
    """build_schedule_set(5, 2, W=2) with node x hearing channel m in only
    its first `keep` such slots and listening to the other channel in the
    others."""
    sset = build_schedule_set(5, 2, W=2)
    codes = sset.codes_matrix().copy()
    codes[x - 1][np.flatnonzero(codes[x - 1] == -m)[keep:]] = m - 3
    return with_codes(sset, codes)


class TestCheckPairExhaustive:
    def test_reference_set_all_pairs(self, three_node_set):
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    rep = check_pair_exhaustive(three_node_set, i, j)
                    assert rep.verdict is Verdict.PROVEN, (i, j)

    def test_deaf_receiver_fails(self, three_node_set):
        seqs = list(three_node_set.sequences)
        seqs[2] = ScheduleSequence.from_symbols([Symbol.transmit(2)] * 12, 2)
        bad = ScheduleSequenceSet(tuple(seqs))
        rep = check_pair_exhaustive(bad, 1, 3)
        assert rep.verdict is Verdict.FAILED_WITH_WITNESS
        w = rep.witness
        assert (w.transmitter, w.receiver) == (1, 3)
        assert success_slots(bad, w.transmitter, w.receiver, w.offsets) == []

    def test_budget_exceeded(self, three_node_set):
        rep = check_pair_exhaustive(three_node_set, 1, 2, budget=10)
        assert rep.verdict is Verdict.UNKNOWN

    def test_agrees_with_full_offset_enumeration(self, two_node_set, three_node_set):
        # the reduced enumeration (transmitter pinned to offset 0, only the
        # transmitter's group plus the receiver swept) must decide exactly
        # like quantifying over the whole offset space
        assert brute_force_pair_check(two_node_set, 1, 2)
        assert check_pair_exhaustive(two_node_set, 1, 2).verdict is Verdict.PROVEN
        assert brute_force_pair_check(two_node_set, 2, 1)
        assert check_pair_exhaustive(two_node_set, 2, 1).verdict is Verdict.PROVEN

        seqs = list(two_node_set.sequences)
        seqs[1] = seq_from_str("T2 T2 T2 R1", 2)
        dubious = ScheduleSequenceSet(tuple(seqs))
        for i, j in [(1, 2), (2, 1)]:
            assert (check_pair_exhaustive(dubious, i, j).verdict is Verdict.PROVEN) \
                == brute_force_pair_check(dubious, i, j), (i, j)

    def test_predicate_shift_invariance(self, three_node_set):
        # adding a common constant to every offset leaves success/failure
        # unchanged, which is what justifies pinning the transmitter's offset
        rng = np.random.default_rng(7)
        L = three_node_set.L
        for _ in range(100):
            i, j = rng.choice(range(1, 4), size=2, replace=False)
            offsets = {x: int(rng.integers(0, L)) for x in range(1, 4)}
            base = pair_ok_for_offsets(three_node_set, i, j, offsets)
            c = int(rng.integers(1, L))
            shifted = {x: (t + c) % L for x, t in offsets.items()}
            assert pair_ok_for_offsets(three_node_set, i, j, shifted) == base


class TestCheckPairConservative:
    def test_constructed_set_proven(self):
        sset = build_schedule_set(4, 2, W=2)
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    rep = check_pair_conservative(sset, i, j)
                    assert rep.verdict is Verdict.PROVEN_CONSERVATIVE, (i, j)

    def test_saturated_group_unknown(self):
        # one group of three identical sequences: the two colliders can
        # cover every matching slot, so the remainder test cannot conclude
        s = seq_from_str("T1 T1 R1 R1 R1 R1", 1)
        sset = ScheduleSequenceSet((s, s, s))
        assert check_pair_conservative(sset, 1, 2).verdict is Verdict.UNKNOWN

    def test_no_match_unknown(self):
        # receiver never listens to the transmitter's channel
        sset = ScheduleSequenceSet((
            seq_from_str("T1 T1 T1 T1", 1),
            seq_from_str("T2 T2 T2 T2", 2),
        ))
        assert check_pair_conservative(sset, 1, 2).verdict is Verdict.UNKNOWN

    def test_never_refutes(self, three_node_set):
        seqs = list(three_node_set.sequences)
        seqs[2] = ScheduleSequence.from_symbols([Symbol.transmit(2)] * 12, 2)
        bad = ScheduleSequenceSet(tuple(seqs))
        rep = check_pair_conservative(bad, 1, 3)
        assert rep.verdict is Verdict.UNKNOWN  # sound: no false witness

    def test_soundness_chain(self, three_node_set, two_node_set):
        # a conservative PROVEN must imply the exhaustive PROVEN wherever
        # both checks can run
        sets = [three_node_set, two_node_set,
                build_schedule_set(4, 2, W=2), build_schedule_set(3, 2),
                build_schedule_set(2, 2, W=2)]
        for sset in sets:
            for i in range(1, sset.K + 1):
                for j in range(1, sset.K + 1):
                    if i == j:
                        continue
                    cons = check_pair_conservative(sset, i, j)
                    if cons.verdict is Verdict.PROVEN_CONSERVATIVE:
                        exh = check_pair_exhaustive(sset, i, j)
                        assert exh.verdict is Verdict.PROVEN, (sset.L, i, j)


def named_set(request, spec) -> ScheduleSequenceSet:
    """A set named by its fixture, or built from (K, M, W)."""
    if isinstance(spec, str):
        return request.getfixturevalue(spec)
    K, M, W = spec
    return build_schedule_set(K, M, W=W)


def check_against_oracles(sets, rng) -> int:
    """Both pair checks of every pair of every set against the loop
    oracles; returns the number of refuted pairs."""
    refuted = 0
    for sset in sets:
        feasible = sset.L ** sset.K <= 4000  # brute force sweeps L^K offset vectors
        for i, j in ordered_pairs(sset.K):
            exh = check_pair_exhaustive(sset, i, j)
            cons = check_pair_conservative(sset, i, j)
            if feasible:
                assert (exh.verdict is Verdict.PROVEN) == brute_force_pair_check(sset, i, j)
            if exh.verdict is Verdict.FAILED_WITH_WITNESS:
                refuted += 1
                w = exh.witness
                assert (w.transmitter, w.receiver) == (i, j)
                assert success_slots(sset, i, j, w.offsets) == []
                assert pair_ok_for_offsets(sset, i, j, w.offsets) is False
                assert cons.verdict is Verdict.UNKNOWN  # never proves a refuted pair
            else:
                assert exh.verdict is Verdict.PROVEN
                for _ in range(5):
                    offsets = {x: int(rng.integers(sset.L)) for x in range(1, sset.K + 1)}
                    assert pair_ok_for_offsets(sset, i, j, offsets)
    return refuted


def assert_sweeps_match(sset: ScheduleSequenceSet, method: Method, want, budget=10 ** 9) -> None:
    """On every range of whole transmitters, first + 1 .. stop, _check_pairs
    stops at the first decisive pair of `want` (each pair's (verdict,
    witness), in pair order) among the range's pairs and flags an UNKNOWN
    pair before it."""
    K = sset.K
    for first, stop in itertools.combinations(range(K + 1), 2):
        hit, unknown = None, False
        for n in range(first * (K - 1), stop * (K - 1)):
            verdict, witness = want[n]
            if verdict is Verdict.FAILED_WITH_WITNESS or (
                    verdict is Verdict.UNKNOWN and method is Method.CONSERVATIVE):
                hit = (n, verdict, witness)
                break
            unknown |= verdict is Verdict.UNKNOWN
        assert verifier._check_pairs(sset, method, budget, first, stop) == (hit, unknown), \
            (first, stop)


class TestWholeAxisChecks:
    """The matmul pair checks against loop-only oracles, on the sets with
    K <= 6 and on one- and multi-slot mutations of them."""

    @pytest.mark.parametrize("spec", ["two_node_set", "three_node_set"] + DESK_SETS)
    def test_desk_sets_and_mutations(self, request, spec):
        base = named_set(request, spec)
        seed = sum(map(ord, str(spec)))
        check_against_oracles([base] + slot_mutations(base, 2, seed),
                              np.random.default_rng(seed))

    def test_mutations_do_refute(self):
        # the comparisons above meet refuted pairs, not only proofs
        sets = slot_mutations(build_schedule_set(4, 2), 4, seed=1)
        assert check_against_oracles(sets, np.random.default_rng(1)) > 0

    @pytest.mark.parametrize("spec", ["two_node_set", "three_node_set", (2, 1, None),
                                      (3, 2, None), (2, 2, 2), (3, 2, 2), (4, 2, None),
                                      (4, 2, 2), (5, 2, None), (6, 3, 3)])
    def test_conservative_matches_the_slack_oracle(self, request, spec):
        # Each pair alone, and the pair ranges of verify_set's workers, which
        # the conservative check sweeps one transmitter at a time.
        base = named_set(request, spec)
        seed = sum(map(ord, str(spec)))
        verdicts = set()
        for sset in [base, *slot_mutations(base, 3, seed),
                     *slot_mutations(base, 2, seed + 1, slots=4)]:
            pairs = ordered_pairs(sset.K)
            proven = [conservative_slack(sset, i, j) >= 1 for i, j in pairs]
            for (i, j), want in zip(pairs, proven):
                got = check_pair_conservative(sset, i, j).verdict
                assert (got is Verdict.PROVEN_CONSERVATIVE) == want, (i, j)
                verdicts.add(got)
            assert_sweeps_match(sset, Method.CONSERVATIVE, [
                (Verdict.PROVEN_CONSERVATIVE if p else Verdict.UNKNOWN, None) for p in proven])
        assert Verdict.PROVEN_CONSERVATIVE in verdicts

    @pytest.mark.parametrize("spec", ["two_node_set", "three_node_set"] + DESK_SETS
                             + [(6, 3, 3), "partly_deaf_k5"])
    def test_exhaustive_sweeps_match_each_pair(self, request, spec):
        # The pair ranges of verify_set's workers, swept one transmitter at a
        # time, against each pair checked alone.  A budget of L leaves only
        # the pairs without colliders in budget, so UNKNOWN pairs come
        # before and between the decided ones.
        base = partly_deaf_k5(36) if spec == "partly_deaf_k5" else named_set(request, spec)
        seed = sum(map(ord, str(spec)))
        verdicts = set()
        for sset in [base, *slot_mutations(base, 2, seed),
                     *slot_mutations(base, 1, seed + 1, slots=4)]:
            for budget in (sset.L, 10 ** 9):
                want = [check_pair_exhaustive(sset, i, j, budget)
                        for i, j in ordered_pairs(sset.K)]
                verdicts |= {rep.verdict for rep in want}
                assert_sweeps_match(sset, Method.EXHAUSTIVE,
                                    [(rep.verdict, rep.witness) for rep in want], budget)
        assert Verdict.PROVEN in verdicts
        if spec == "partly_deaf_k5":
            assert verdicts == {Verdict.PROVEN, Verdict.FAILED_WITH_WITNESS, Verdict.UNKNOWN}

    def test_witness_of_the_offset_loop(self, capsys, tmp_path):
        # The per-offset loop that the matmul replaced printed this witness
        # (with pairs_checked 20): tau_5 = 5 is a matmul row and tau_2 = 13
        # a column, and (1, 2) is the first pair.
        path = tmp_path / "deaf.json"
        save_set(partly_deaf_k5(36), str(path))
        assert cli_main(["verify", "--in", str(path), "--mode", "exhaustive",
                         "--threads", "1"]) == 2
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["witness"] == {"transmitter": 1, "receiver": 2,
                                  "offsets": {"1": 0, "2": 13, "3": 0, "5": 5}}
        assert doc["pairs_checked"] == 1

    def test_split_axes_give_the_one_block_answer(self, monkeypatch):
        sets = [partly_deaf_k5(36), *slot_mutations(build_schedule_set(5, 2, W=2), 1, seed=3)]

        def reports(pairs):
            return [(check_pair_exhaustive(s, i, j), check_pair_conservative(s, i, j))
                    for s in sets for i, j in pairs]
        whole = reports(ordered_pairs(5))
        # 47 rows a block cut both offset axes of L = 140 into three
        monkeypatch.setattr(kernel, "BATCH_BYTES", 4 * 140 * 47)
        assert reports(ordered_pairs(5)) == whole
        # 13 rows a block: pair (1, 2) of the first set fails at (tau_5,
        # tau_2) = (5, 13) in the second column block and at (7, 12) in the
        # first; the witness is the first in row-major order, (5, 13)
        monkeypatch.setattr(kernel, "BATCH_BYTES", 4 * 140 * 13)
        assert reports([(1, 2)]) == whole[::20]


def slot_set(L: int, nodes) -> ScheduleSequenceSet:
    """A hand-made set: nodes lists (owner group, default code, {slot: code})."""
    seqs = []
    for group, default, slots in nodes:
        codes = np.full(L, default, dtype=np.int16)
        codes[list(slots)] = list(slots.values())
        seqs.append(ScheduleSequence(codes, group))
    return ScheduleSequenceSet(tuple(seqs))


class TestWitnessOrder:
    """The exhaustive check sweeps only the offsets where a distinct row
    of a shift table, read on i's transmit slots, first occurs; its
    witness must still be the first failure of the plain offset loop."""

    def assert_oracle_witnesses(self, sset) -> int:
        refuted = 0
        for i, j in ordered_pairs(sset.K):
            want = first_failing_offsets(sset, i, j)
            rep = check_pair_exhaustive(sset, i, j)
            if want is None:
                assert rep.verdict is Verdict.PROVEN, (i, j)
            else:
                refuted += 1
                assert rep.verdict is Verdict.FAILED_WITH_WITNESS, (i, j)
                assert rep.witness.offsets == want, (i, j)
        return refuted

    @pytest.mark.parametrize("spec", ["three_node_set", (3, 2, 2), (3, 3, 3)])
    def test_small_sets_and_mutations(self, request, spec):
        base = named_set(request, spec)
        assert self.assert_oracle_witnesses(base) == 0
        for sset in slot_mutations(base, 2, sum(map(ord, str(spec)))):
            self.assert_oracle_witnesses(sset)

    @pytest.mark.parametrize("K,W,L", [(3, 2, 9), (4, 2, 8), (4, 2, 12), (5, 2, 7), (4, 1, 6)])
    def test_random_sets(self, K, W, L):
        rng = np.random.default_rng(K * 100 + W * 10 + L)
        refuted = 0
        for _ in range(4):
            groups = rng.permutation([(x % W) + 1 for x in range(K)])
            codes = [np.where(rng.random(L) < 0.35, g, -rng.integers(1, W + 1, size=L))
                     for g in groups]
            refuted += self.assert_oracle_witnesses(with_codes(
                ScheduleSequenceSet(tuple(ScheduleSequence(c.astype(np.int16), int(g))
                                          for c, g in zip(codes, groups))), codes))
        assert refuted > 0

    def test_raw_offsets_past_the_key_budget(self, monkeypatch, three_node_set):
        # Keys that would not fit kernel.BATCH_BYTES are not built: every
        # offset is swept, one row a block, and the reports stay the same.
        sets = []
        for base in (three_node_set, build_schedule_set(3, 2, W=2)):
            sets += [base, *slot_mutations(base, 3, seed=base.L)]
        pairs = [(s, i, j) for s in sets for i, j in ordered_pairs(s.K)]
        want = [check_pair_exhaustive(*pair) for pair in pairs]
        assert any(rep.verdict is Verdict.FAILED_WITH_WITNESS for rep in want)
        monkeypatch.setattr(kernel, "BATCH_BYTES", 1)
        ti, _, receive_mask = verifier._sender_masks(sets[0], 1, (3,))
        T, L = np.flatnonzero(ti), sets[0].L
        table = verifier._shift_table(receive_mask(3))
        assert verifier._distinct_shifts(table, T, verifier._axis_blocks(L)).tolist() == \
            list(range(L))
        assert [check_pair_exhaustive(*pair) for pair in pairs] == want

    def test_a_pair_without_colliders_sweeps_one_empty_row(self, monkeypatch):
        # A pair without colliders is checked against one that never sends,
        # a table of one row.  Past the key budget a shift table keeps all
        # L offsets, here one row a block, so an L-row placeholder would
        # cost one _first_zero call a row: L^2 work at large L.
        rng = np.random.default_rng(5)
        sset = ScheduleSequenceSet(tuple(
            ScheduleSequence(np.where(rng.random(64) < 0.5, 1, -1).astype(np.int16), 1)
            for _ in range(2)))
        want = [check_pair_exhaustive(sset, 1, 2), check_pair_exhaustive(sset, 2, 1)]
        assert {rep.verdict for rep in want} == {Verdict.PROVEN}
        monkeypatch.setattr(kernel, "BATCH_BYTES", 1)
        calls = []
        first_zero = verifier._first_zero
        monkeypatch.setattr(verifier, "_first_zero",
                            lambda *args: calls.append(args) or first_zero(*args))
        assert [check_pair_exhaustive(sset, 1, 2), check_pair_exhaustive(sset, 2, 1)] == want
        assert len(calls) == 2

    def test_transmitter_without_a_slot(self, three_node_set):
        # node 1 never sends on channel 1 (w = 0): every pair from it fails
        # at the all-zero offsets, and the conservative check cannot prove it
        codes = three_node_set.codes_matrix().copy()
        codes[0][:] = -1
        sset = with_codes(three_node_set, codes)
        for j in (2, 3):
            rep = check_pair_exhaustive(sset, 1, j)
            assert rep.witness.offsets == first_failing_offsets(sset, 1, j)
            assert set(rep.witness.offsets.values()) == {0}
            assert check_pair_conservative(sset, 1, j).verdict is Verdict.UNKNOWN

    def test_wide_transmit_patterns(self):
        # w = 67 > 64, not a multiple of 8, and no collider.  Node 2 hears
        # only in slot 66, which meets node 1's last transmit slot at
        # tau_2 = 0: that row differs from the empty row only in its 67th
        # bit, and the empty row first occurs at tau_2 = 67.
        sset = slot_set(100, [(1, -1, dict.fromkeys(range(67), 1)), (1, 1, {66: -1})])
        rep = check_pair_exhaustive(sset, 1, 2)
        assert rep.witness.offsets == first_failing_offsets(sset, 1, 2) == {1: 0, 2: 67}
        assert success_slots(sset, 1, 2, {1: 0, 2: 66}) == [0]

    def test_failing_patterns_that_first_occur_late(self):
        # Node 1 sends in slots 0 and 5 only, and node 4 always listens to
        # it.  Neither collider covers both slots alone: collider 2 covers
        # slot 5 first at tau_2 = 24 and collider 3 covers slot 0 only at
        # tau_3 = 21, so together they first fail there.
        L = 48
        sset = slot_set(L, [(1, -2, {0: 1, 5: 1}), (1, -2, {29: 1, 43: 1}),
                            (1, -2, {21: 1}), (2, -1, {})])
        want = first_failing_offsets(sset, 1, 4)
        assert want == {1: 0, 2: 24, 3: 21, 4: 0}
        assert check_pair_exhaustive(sset, 1, 4).witness.offsets == want
        # Collider 3 alone covers both slots only from tau_3 = 37, after
        # rows covering one slot first occur at 16 and 21.
        quiet = slot_set(L, [(1, -2, {0: 1, 5: 1}), (1, -2, {}),
                             (1, -2, {21: 1, 37: 1, 42: 1}), (2, -1, {})])
        want = first_failing_offsets(quiet, 1, 4)
        assert want == {1: 0, 2: 0, 3: 37, 4: 0}
        assert check_pair_exhaustive(quiet, 1, 4).witness.offsets == want


class TestBoundedMemory:
    # Peak of a pair check that decides in its first block: the (rows, L)
    # bool and float32 blocks of both operands fit three budgets, plus 1 MB
    # of masks and small arrays.  One L x L float32 array would be 64 MB.
    L = 4096
    PEAK = 3 * kernel.BATCH_BYTES + 2 ** 20

    def deaf_pair(self) -> ScheduleSequenceSet:
        """Nodes 1 and 2 alternate sending and listening on channel 1;
        node 3 never listens to channel 1."""
        talk = np.where(np.arange(self.L) % 2 == 0, 1, -1).astype(np.int16)
        deaf = np.full(self.L, -2, dtype=np.int16)
        deaf[0] = 2
        return ScheduleSequenceSet((ScheduleSequence(talk, 1), ScheduleSequence(talk.copy(), 1),
                                    ScheduleSequence(deaf, 2)))

    def overflowing_keys(self) -> ScheduleSequenceSet:
        """One group: nodes 1 and 3 send in the same random 60% of slots and
        node 2 in another.  Node 1's w slots take L * ceil(w / 8) bytes of
        keys, past kernel.BATCH_BYTES, so collider 3 keeps all L offsets,
        and at its offset 0 it covers every match of pair (1, 2)."""
        rng = np.random.default_rng(11)
        talk, other = (np.where(rng.random(self.L) < 0.6, 1, -1).astype(np.int16)
                       for _ in range(2))
        assert self.L * -(-np.count_nonzero(talk == 1) // 8) > kernel.BATCH_BYTES
        return ScheduleSequenceSet((ScheduleSequence(talk, 1), ScheduleSequence(other, 1),
                                    ScheduleSequence(talk.copy(), 1)))

    def peak_of(self, check, *args):
        tracemalloc.start()
        try:
            report = check(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK < self.L * self.L * 4, peak
        return report

    def test_exhaustive(self):
        report = self.peak_of(check_pair_exhaustive, self.deaf_pair(), 1, 3)
        assert report.verdict is Verdict.FAILED_WITH_WITNESS
        assert report.witness.offsets == {1: 0, 2: 0, 3: 0}

    def test_conservative(self):
        report = self.peak_of(check_pair_conservative, self.deaf_pair(), 1, 3)
        assert report.verdict is Verdict.UNKNOWN

    @pytest.mark.parametrize("make", ["deaf_pair", "overflowing_keys"])
    def test_conservative_verify_set(self, make):
        # the whole sweep, which stops at pair (1, 2) of either set
        report = self.peak_of(verify_set, getattr(self, make)(), "conservative")
        assert (report.verdict, report.pairs_checked) == (Verdict.UNKNOWN, 1)

    def test_float32_counts_stay_exact(self):
        # the matmuls count up to L ones in float32, exact below 2^24
        with pytest.raises(ValueError):
            verifier._axis_blocks(2 ** 24)


# (K, M, W) of the sets whose _distinct_shifts calls are counted.
COUNTED_SETS = [(2, 1, None), (2, 2, 2), (3, 2, None), (5, 2, 2), (6, 3, 3)]


class TestVerifySet:
    def test_reference_set_proven(self, three_node_set):
        rep = verify_set(three_node_set, mode="exhaustive")
        assert rep.verdict is Verdict.PROVEN
        assert rep.pairs_checked == 6
        assert rep.method is Method.EXHAUSTIVE

    def test_single_channel_family_proven_iff_noncolliding(self):
        # two-generator family relabeled to one channel is a valid set...
        sset = build_schedule_set(2, 1)
        assert verify_set(sset, mode="exhaustive").verdict is Verdict.PROVEN
        # ...but duplicating one sequence breaks it: aligned copies always
        # collide, so the relabeled pair cannot be proven
        dup = ScheduleSequenceSet((sset.sequences[0], sset.sequences[0]))
        rep = verify_set(dup, mode="exhaustive")
        assert rep.verdict is Verdict.FAILED_WITH_WITNESS

    def test_randomized_finds_no_witness_on_valid(self):
        sset = build_schedule_set(10, 2)
        rep = verify_set(sset, mode="randomized", samples=20_000, seed=0)
        assert rep.verdict is Verdict.UNKNOWN  # sampling can never prove

    def test_randomized_refutes_broken_set(self, three_node_set):
        seqs = list(three_node_set.sequences)
        seqs[2] = ScheduleSequence.from_symbols([Symbol.transmit(2)] * 12, 2)
        bad = ScheduleSequenceSet(tuple(seqs))
        rep = verify_set(bad, mode="randomized", samples=500, seed=0)
        assert rep.verdict is Verdict.FAILED_WITH_WITNESS
        w = rep.witness
        assert success_slots(bad, w.transmitter, w.receiver, w.offsets) == []

    def test_threads_match_serial(self, three_node_set):
        serial = verify_set(three_node_set, mode="exhaustive")
        parallel = verify_set(three_node_set, mode="exhaustive", threads=3)
        assert serial.verdict == parallel.verdict
        assert serial.pairs_checked == parallel.pairs_checked

    def test_threads_give_the_serial_witness(self):
        # nodes 3 and 4 deaf to channel 1: pairs (1,3), (1,4) and (3,4) fail,
        # and the first of them in pair order is (1,3)
        sset = build_schedule_set(4, 2, W=2)
        codes = sset.codes_matrix()
        for x in (3, 4):
            codes[x - 1][codes[x - 1] == -1] = -2
        bad = ScheduleSequenceSet(tuple(
            ScheduleSequence(row, s.owner_group) for row, s in zip(codes, sset.sequences)))
        serial = verify_set(bad, mode="exhaustive", threads=1)
        parallel = verify_set(bad, mode="exhaustive", threads=2)
        assert (serial.witness.transmitter, serial.witness.receiver) == (1, 3)
        assert parallel == serial

    def test_stops_at_the_first_decisive_pair(self):
        # The exhaustive check stops at the first refuted pair, and the
        # conservative one at the first UNKNOWN pair, which comes earlier:
        # pair (1, 2) is proven but not conservatively.
        bad = partly_deaf_k5(40)
        pairs = ordered_pairs(5)
        failed = [n for n, (i, j) in enumerate(pairs)
                  if check_pair_exhaustive(bad, i, j).verdict is Verdict.FAILED_WITH_WITNESS]
        unknown = [n for n, (i, j) in enumerate(pairs)
                   if check_pair_conservative(bad, i, j).verdict is Verdict.UNKNOWN]
        assert failed[0] > unknown[0]
        for threads in (1, 2):
            exh = verify_set(bad, mode="exhaustive", threads=threads)
            assert exh.verdict is Verdict.FAILED_WITH_WITNESS
            assert exh.pairs_checked == failed[0] + 1
            assert exh.witness == check_pair_exhaustive(bad, *pairs[failed[0]]).witness
            cons = verify_set(bad, mode="conservative", threads=threads)
            assert (cons.verdict, cons.pairs_checked) == (Verdict.UNKNOWN, unknown[0] + 1)

    @staticmethod
    def count_calls(monkeypatch, name: str) -> list:
        calls = []
        function = getattr(verifier, name)
        monkeypatch.setattr(verifier, name, lambda *args: calls.append(args) or function(*args))
        return calls

    def assert_reads_each_collider_once(self, monkeypatch, spec, mode, verdict):
        # A collider's distinct offsets are found once per transmitter, and
        # only for a node that some receiver has as a collider: never at
        # K = 2, where the receiver is the transmitter's only group-mate.
        # The exhaustive check also finds the receiver's, once a pair.
        sset = build_schedule_set(spec[0], spec[1], W=spec[2])
        calls = self.count_calls(monkeypatch, "_distinct_shifts")
        rep = verify_set(sset, mode=mode)
        assert rep.verdict is verdict
        colliders = sum(len({x for j in range(1, sset.K + 1) if j != i
                             for x in verifier._sender_masks(sset, i, ())[1] if x != j})
                        for i in range(1, sset.K + 1))
        assert colliders == 0 if sset.K == 2 else colliders > 0
        pairs = sset.K * (sset.K - 1) if mode == "exhaustive" else 0
        assert len(calls) == colliders + pairs

    @pytest.mark.parametrize("spec", COUNTED_SETS)
    def test_conservative_reads_each_collider_once_a_transmitter(self, monkeypatch, spec):
        self.assert_reads_each_collider_once(monkeypatch, spec, "conservative",
                                             Verdict.PROVEN_CONSERVATIVE)

    @pytest.mark.parametrize("spec", COUNTED_SETS)
    def test_exhaustive_reads_each_collider_once_a_transmitter(self, monkeypatch, spec):
        self.assert_reads_each_collider_once(monkeypatch, spec, "exhaustive", Verdict.PROVEN)

    @pytest.mark.parametrize("spec", [(2, 1, None), (3, 2, None), (5, 2, 2)])
    def test_an_over_budget_pair_reads_no_receiver(self, monkeypatch, spec):
        # Past the budget a pair is UNKNOWN before any shift table is made
        # or any distinct offset found, for its receiver or its colliders.
        sset = build_schedule_set(spec[0], spec[1], W=spec[2])
        tables = self.count_calls(monkeypatch, "_shift_table")
        shifts = self.count_calls(monkeypatch, "_distinct_shifts")
        rep = verify_set(sset, mode="exhaustive", budget=1)
        assert (rep.verdict, rep.pairs_checked) == (Verdict.UNKNOWN, sset.K * (sset.K - 1))
        assert check_pair_exhaustive(sset, 1, 2, budget=1).verdict is Verdict.UNKNOWN
        assert tables == shifts == []

    @pytest.mark.parametrize("x, m, n", [(5, 1, 11), (5, 2, 15), (3, 1, 18)])
    def test_threads_stop_partway_through_a_range(self, x, m, n):
        # Transmitters split as 1-2 and 3-5 on two workers (pairs [0, 8)
        # and [8, 20)) and as 1, 2-3 and 4-5 on three (pairs [0, 4), [4, 12)
        # and [12, 20)), and a transmitter has 4 receivers.  The first
        # UNKNOWN pair n is neither a transmitter's first nor a range's
        # first.
        sset = partly_deaf_k5(30, x, m)
        serial = verify_set(sset, mode="conservative")
        assert (serial.verdict, serial.pairs_checked) == (Verdict.UNKNOWN, n + 1)
        for threads in (2, 3):
            assert verify_set(sset, mode="conservative", threads=threads) == serial

    def test_a_failed_pair_outranks_an_earlier_unknown(self):
        # With 20000 offset combinations a pair, the pairs from group 1 to
        # group 2 (140^3 combinations) are UNKNOWN, and the first of them
        # comes before the refuted pair (2, 4).
        sset = build_schedule_set(5, 2, W=2)
        codes = sset.codes_matrix().copy()
        codes[3][codes[3] == -2] = -1
        for threads in (1, 2):
            rep = verify_set(with_codes(sset, codes), budget=20000, threads=threads)
            assert rep.verdict is Verdict.FAILED_WITH_WITNESS
            assert (rep.witness.transmitter, rep.witness.receiver, rep.pairs_checked) == (2, 4, 7)
            clean = verify_set(sset, budget=20000, threads=threads)
            assert (clean.verdict, clean.pairs_checked) == (Verdict.UNKNOWN, 20)

    @pytest.mark.parametrize("case, mode, verdict, pairs_checked", [
        ("proven", "exhaustive", Verdict.PROVEN, 20),
        ("proven", "conservative", Verdict.PROVEN_CONSERVATIVE, 20),
        ("proven", "randomized", Verdict.UNKNOWN, 1100 * 20),
        ("refuted", "exhaustive", Verdict.FAILED_WITH_WITNESS, 14),
        ("refuted", "conservative", Verdict.UNKNOWN, 14),
        ("refuted", "randomized", Verdict.FAILED_WITH_WITNESS, 20),
        ("unknown", "exhaustive", Verdict.UNKNOWN, 20),
    ])
    def test_three_workers_give_the_serial_report(self, case, mode, verdict, pairs_checked):
        # Transmitters split as 1, 2-3 and 4-5, pairs [0, 4), [4, 12) and
        # [12, 20).  In the refuted set node 2 never listens to its own
        # channel 2, so pair (4, 2), pair 13, is the first to fail: it lies
        # in the last range.
        sset = build_schedule_set(5, 2, W=2)
        if case == "refuted":
            codes = sset.codes_matrix().copy()
            codes[1][codes[1] == -2] = -1
            sset = with_codes(sset, codes)
        kwargs = {"mode": mode, "samples": 1100, "seed": 1,
                  "budget": 20000 if case == "unknown" else 10 ** 9}
        serial = verify_set(sset, **kwargs)
        assert (serial.verdict, serial.pairs_checked) == (verdict, pairs_checked)
        assert verify_set(sset, threads=3, **kwargs) == serial

    @pytest.mark.parametrize("case, mode, verdict, pairs_checked", [
        ("one node", "exhaustive", Verdict.PROVEN, 0),
        ("one node", "conservative", Verdict.PROVEN_CONSERVATIVE, 0),
        ("one node", "randomized", Verdict.UNKNOWN, 0),
        ("two nodes", "exhaustive", Verdict.PROVEN, 2),
        ("two nodes", "conservative", Verdict.PROVEN_CONSERVATIVE, 2),
        ("two nodes", "randomized", Verdict.UNKNOWN, 1100 * 2),
        ("two channels", "exhaustive", Verdict.PROVEN, 2),
        ("two channels", "conservative", Verdict.PROVEN_CONSERVATIVE, 2),
        ("two channels", "randomized", Verdict.UNKNOWN, 1100 * 2),
        ("aligned copies", "exhaustive", Verdict.FAILED_WITH_WITNESS, 1),
        ("aligned copies", "conservative", Verdict.UNKNOWN, 1),
        ("aligned copies", "randomized", Verdict.FAILED_WITH_WITNESS, 6 * 2),
    ])
    def test_one_and_two_node_sets_give_the_serial_report(self, case, mode, verdict,
                                                          pairs_checked):
        # K = 1 has no pair, and at K = 2 the pair modes give each of two
        # workers one transmitter and a third none.  Aligned copies of one
        # sequence on one channel collide.
        if case == "aligned copies":
            row = build_schedule_set(2, 1).sequences[0]
            sset = ScheduleSequenceSet((row, row))
        else:
            sset = {"one node": build_schedule_set(1, 1), "two nodes": build_schedule_set(2, 1),
                    "two channels": build_schedule_set(2, 2, W=2)}[case]
        serial = verify_set(sset, mode=mode, samples=1100, seed=2)
        assert (serial.verdict, serial.pairs_checked) == (verdict, pairs_checked)
        for threads in (2, 3):
            assert verify_set(sset, mode=mode, samples=1100, seed=2, threads=threads) == serial

    @pytest.mark.parametrize("seed, sample", [(3, 724), (4, 1677)])
    def test_three_workers_find_a_failure_in_a_later_draw(self, seed, sample):
        # Two nodes that each send in one slot of 1500 fail only when their
        # offsets coincide.  Four draws split as [0], [1] and [2, 3]: the
        # first failure lies in the second or the third worker's range.
        row = -np.ones(1500, dtype=np.int16)
        row[0] = 1
        sset = ScheduleSequenceSet((ScheduleSequence(row, 1), ScheduleSequence(row, 1)))
        serial = verify_set(sset, mode="randomized", samples=2048, seed=seed)
        assert (serial.verdict, serial.pairs_checked) == (
            Verdict.FAILED_WITH_WITNESS, (sample + 1) * 2)
        assert verify_set(sset, mode="randomized", samples=2048, seed=seed,
                          threads=3) == serial

    @pytest.mark.parametrize("K", [6, 7, 8, 9])
    def test_three_channel_sets_are_proven_exhaustively(self, K):
        sset = build_schedule_set(K, 3, W=3)
        rep = verify_set(sset, mode="exhaustive")
        assert (rep.verdict, rep.pairs_checked) == (Verdict.PROVEN, K * (K - 1))
        # a conservative proof of a pair implies the exhaustive one
        for i, j in ordered_pairs(K):
            if check_pair_conservative(sset, i, j).verdict is Verdict.PROVEN_CONSERVATIVE:
                assert check_pair_exhaustive(sset, i, j).verdict is Verdict.PROVEN, (i, j)
        assert verify_set(sset, mode="conservative").verdict is Verdict.PROVEN_CONSERVATIVE

    def test_unknown_mode_rejected(self, three_node_set):
        with pytest.raises(ValueError):
            verify_set(three_node_set, mode="telepathy")

    @pytest.mark.parametrize("samples", [0, -5])
    def test_randomized_needs_a_sample(self, three_node_set, samples):
        with pytest.raises(ValueError):
            verify_set(three_node_set, mode="randomized", samples=samples)


class TestBlockingRun:
    def test_nothing_collides(self):
        e1 = BinarySequence(np.array([1, 0, 1, 0, 1, 0]))
        zeros = BinarySequence(np.zeros(6, dtype=int))
        trace = blocking_run(e1, [zeros, zeros])
        assert trace.a == (3, 3, 3)

    def test_full_self_collision(self):
        e = BinarySequence(np.array([1, 1, 0, 0, 1, 0]))
        trace = blocking_run(e, [e])
        assert trace.a == (3, 0)
        assert trace.chosen_offsets == (0,)

    def test_step_inequality_fuzz(self):
        # every step removes at least ceil(a * w / L) ones
        rng = np.random.default_rng(11)
        for _ in range(1000):
            L = int(rng.integers(4, 50))
            e1 = BinarySequence((rng.random(L) < rng.uniform(0.1, 0.9)).astype(int))
            others = [BinarySequence((rng.random(L) < rng.uniform(0.1, 0.9)).astype(int))
                      for _ in range(int(rng.integers(1, 5)))]
            trace = blocking_run(e1, others)
            for j in range(1, len(trace.a)):
                a_prev, a_j = trace.a[j - 1], trace.a[j]
                w_j = trace.weights[j - 1]
                assert a_j <= a_prev - math.ceil(a_prev * w_j / L), trace

    def test_smallest_maximizing_shift_wins(self):
        e1 = BinarySequence(np.array([1, 1, 0, 0]))
        e2 = BinarySequence(np.array([0, 1, 1, 0]))
        # shifts 1 and 3 both collide twice; the run must record shift 1
        trace = blocking_run(e1, [e2])
        assert trace.chosen_offsets == (1,)

    def test_comparison_sequence_dominates(self):
        # inputs honoring the bound derivation's weight hypotheses keep the
        # blocking counts below the comparison recursion seeded at ceil(a1/W)
        rng = np.random.default_rng(13)
        for _ in range(300):
            W = int(rng.integers(1, 5))
            L = int(rng.integers(8 * W, 200))
            k = int(rng.integers(3, 7))
            a1 = int(rng.integers(2, max(3, L // (2 * W))))
            e1 = BinarySequence.from_ones(
                L, rng.choice(L, size=a1, replace=False))
            w2 = int(math.ceil(L - L / W))
            others = [BinarySequence.from_ones(
                L, rng.choice(L, size=w2, replace=False))]
            for _ in range(k - 2):
                wj = int(rng.integers(a1, L + 1))
                others.append(BinarySequence.from_ones(
                    L, rng.choice(L, size=wj, replace=False)))
            trace = blocking_run(e1, others)
            b2 = math.ceil(a1 / W)
            eps = Fraction(a1, b2 * W)  # largest epsilon the derivation allows
            b = b_sequence(b2, W * eps, L, steps=k - 1)
            for a_j, b_j in zip(trace.a[1:], b):
                assert a_j <= b_j, (trace, b)


class TestBSequence:
    def test_small_run(self):
        assert b_sequence(5, 1, 100, steps=5) == [5, 4, 3, 2, 1]

    def test_one_step_exhaustion(self):
        seq = b_sequence(4, 100, 10, steps=5)
        assert seq[1] <= 0 and len(seq) == 2

    def test_bound_property_sampled(self):
        # whenever the recursion survives C steps, the period obeys the
        # quadratic floor ceil(8 C^2 mu / 9)
        rng = np.random.default_rng(17)
        for _ in range(10 ** 4):
            C = int(rng.integers(1, 30))
            mu = float(rng.uniform(1.0, 4.0))
            L = int(rng.integers(1, 4000))
            seq = b_sequence(C, mu, L, steps=C)
            if len(seq) == C and seq[-1] >= 1:
                assert L >= math.ceil(8 * C * C * mu / 9), (C, mu, L, seq)

    def test_ceilings_are_exact(self):
        # int, Fraction and float factors all give math.ceil of the exact
        # rational value, even where the float quotient lands beside an integer
        rng = np.random.default_rng(5)
        for _ in range(2000):
            C = int(rng.integers(1, 30))
            L = int(rng.integers(1, 4000))
            for factor in (int(rng.integers(1, 5)),
                           Fraction(int(rng.integers(1, 400)), int(rng.integers(1, 100))),
                           float(rng.uniform(1.0, 4.0))):
                want = [C]
                while len(want) < C and want[-1] > 0:
                    b = want[-1]
                    want.append(b - math.ceil(Fraction(b * C) * Fraction(factor) / L))
                assert b_sequence(C, factor, L, steps=C) == want, (C, factor, L)
        # the double nearest 0.1 lies just above 1/10, so ceil(100 * 0.1 / 10)
        # is 2, where float arithmetic rounds the quotient to 1.0
        assert b_sequence(10, 0.1, 10, steps=2) == [10, 8]
        assert b_sequence(10, Fraction(1, 10), 10, steps=2) == [10, 9]

    def test_validation(self):
        with pytest.raises(ValueError):
            b_sequence(0, 1, 10, steps=3)
        with pytest.raises(ValueError):
            b_sequence(1, 1, 0, steps=3)


class TestLowerBound:
    def test_worked_numbers(self):
        rep = lower_bound(4, 17, 4, 70)
        assert rep.combined == 857

    def test_single_member_groups(self):
        assert lower_bound(1, 1, 1, 2).combined == 0
        assert lower_bound(5, 1, 5, 5).combined == 16

    def test_counting_bound_dominates_small_groups(self):
        rep = lower_bound(4, 6, 4, 24)
        assert rep.bound_blocking == 75
        assert rep.bound_counting == 80
        assert rep.combined == 80

    def test_two_spellings_agree(self):
        # ceil(8 (k-1)^2 W (1 - 1/k) / 9) == ceil(8 W (k-1)^3 / (9 k))
        for W in range(1, 6):
            for k in range(2, 40):
                a = math.ceil(Fraction(8 * (k - 1) ** 2 * W * (k - 1), 9 * k))
                b = math.ceil(Fraction(8 * W * (k - 1) ** 3, 9 * k))
                assert a == b
                assert lower_bound(W, k, W, W * k).bound_blocking == a

    def test_improved_remark_variant(self):
        base = lower_bound(3, 10, 3, 30)
        better = lower_bound(3, 10, 3, 30, improved_remark=True)
        assert better.bound_blocking == math.ceil(8 * 9 ** 2 * 3 / 9)
        assert better.bound_blocking >= base.bound_blocking

    def test_never_exceeds_construction(self):
        for K, M in [(10, 2), (18, 3), (24, 4), (70, 4), (60, 2)]:
            params = select_params(K, M, M)
            rep = lower_bound(M, params.division.k_min, M, K)
            assert rep.combined <= params.L

    def test_b_sequence_diagnostic(self):
        rep = lower_bound(4, 17, 4, 70)
        assert rep.b_sequence[0] == 16
        diffs = np.diff(rep.b_sequence)
        assert (diffs < 0).all()
        # below the blocking bound the recursion cannot survive k-1 steps
        short = b_sequence(16, 4 * Fraction(16, 17), rep.bound_blocking - 1, steps=16)
        assert len(short) < 16 or short[-1] < 1


def fraction_bound_report(W, k, M, K, improved_remark):
    """The bound report with each ceiling taken over an exact Fraction eps."""
    if k == 1:
        return verifier.BoundReport(W, k, M, K, bound_blocking=0, bound_counting=4 * (W - 1),
                                    combined=4 * (W - 1), b_sequence=(), epsilon=0.0)
    eps = Fraction(1) if improved_remark else 1 - Fraction(1, k)
    blocking = math.ceil(8 * (k - 1) ** 2 * W * eps / 9)
    counting = 4 * W * (k - 1)
    combined = max(blocking, counting)
    return verifier.BoundReport(
        W, k, M, K, bound_blocking=blocking, bound_counting=counting, combined=combined,
        b_sequence=tuple(b_sequence(k - 1, W * eps, combined, steps=k - 1)),
        epsilon=float(eps))


class TestExactIntegerBounds:
    @pytest.mark.parametrize("improved", [False, True])
    def test_period_bounds_match_fraction_ceilings(self, improved):
        for W in range(1, 13):
            assert period_bounds(W, 1, improved) == (0, 4 * (W - 1))
            for k in range(2, 401):
                eps = Fraction(1) if improved else 1 - Fraction(1, k)
                want = (math.ceil(8 * (k - 1) ** 2 * W * eps / 9), 4 * W * (k - 1))
                assert period_bounds(W, k, improved) == want, (W, k)

    @pytest.mark.parametrize("improved", [False, True])
    def test_reports_equal_in_every_field(self, improved):
        ks = [*range(1, 61), *range(61, 401, 13), 399, 400]
        for W in range(1, 13):
            for k in ks:
                M = min(W + k % 3, 12)
                K = M * k + k % 5
                assert (lower_bound(W, k, M, K, improved_remark=improved)
                        == fraction_bound_report(W, k, M, K, improved)), (W, k)


class TestRatioTable:
    # reference tables, computed with the bounds taken over Fractions
    PAPER_GRID = {
        (60, 2): 5.23, (70, 2): 5.26, (80, 2): 5.04, (90, 2): 5.08, (100, 2): 5.12,
        (110, 2): 5.15, (120, 2): 4.85, (130, 2): 4.9, (140, 2): 4.8, (150, 2): 4.97,
        (60, 3): 6.18, (70, 3): 6.9, (80, 3): 5.97, (90, 3): 5.23, (100, 3): 5.95,
        (110, 3): 5.96, (120, 3): 5.16, (130, 3): 5.46, (140, 3): 5.72, (150, 3): 5.12,
        (60, 4): 6.48, (70, 4): 6.56, (80, 4): 6.18, (90, 4): 7.28, (100, 4): 6.02,
        (110, 4): 5.71, (120, 4): 5.23, (130, 4): 5.99, (140, 4): 5.26, (150, 4): 5.63,
        (60, 5): 7.12, (70, 5): 7.06, (80, 5): 5.98, (90, 5): 5.79, (100, 5): 6.18,
        (110, 5): 5.78, (120, 5): 6.3, (130, 5): 5.75, (140, 5): 5.29, (150, 5): 5.23,
    }
    SMALL_GRID = {
        (10, 1): 3.22, (11, 1): 2.85, (12, 1): 3.02, (13, 1): 2.73, (14, 1): 3.28,
        (15, 1): 3.02, (16, 1): 2.8, (17, 1): 2.61, (18, 1): 2.74, (19, 1): 2.58,
        (20, 1): 2.94, (21, 1): 2.78, (22, 1): 2.64, (23, 1): 2.51, (24, 1): 3.02,
        (10, 2): 9.62, (11, 2): 11.38, (12, 2): 9.1, (13, 2): 16.5, (14, 2): 12.0,
        (15, 2): 13.6, (16, 2): 9.71, (17, 2): 10.86, (18, 2): 8.2, (19, 2): 9.06,
        (20, 2): 7.11, (21, 2): 9.2, (22, 2): 7.38, (23, 2): 8.02, (24, 2): 6.57,
        (10, 3): 13.75, (11, 3): 13.75, (12, 3): 9.17, (13, 3): 12.83, (14, 3): 12.83,
        (15, 3): 9.62, (16, 3): 11.38, (17, 3): 11.38, (18, 3): 9.1, (19, 3): 18.7,
        (20, 3): 18.7, (21, 3): 13.52, (22, 3): 13.52, (23, 3): 13.52, (24, 3): 9.76,
        (10, 4): 31.5, (11, 4): 31.5, (12, 4): 15.75, (13, 4): 15.75, (14, 4): 15.75,
        (15, 4): 15.75, (16, 4): 10.5, (17, 4): 12.83, (18, 4): 12.83, (19, 4): 12.83,
        (20, 4): 9.62, (21, 4): 11.38, (22, 4): 11.38, (23, 4): 11.38, (24, 4): 9.1,
    }
    # (2, 2), (3, 2), (3, 3), (4, 3) and (5, 3) have K < 2M, so one-node groups (k = 1)
    DESK_GRID = {
        (2, 1): 1.5, (3, 1): 1.88, (4, 1): 2.92, (5, 1): 2.81, (6, 1): 3.85, (7, 1): 3.25,
        (8, 1): 4.23, (9, 1): 3.67, (2, 2): 15.0, (3, 2): 15.0, (4, 2): 7.5, (5, 2): 17.5,
        (6, 2): 8.75, (7, 2): 11.25, (8, 2): 7.5, (9, 2): 12.83, (3, 3): 26.25, (4, 3): 26.25,
        (5, 3): 26.25, (6, 3): 17.5, (7, 3): 17.5, (8, 3): 17.5, (9, 3): 8.75,
    }

    @pytest.mark.parametrize("Ks,Ms,want", [
        (range(60, 151, 10), [2, 3, 4, 5], PAPER_GRID),
        (range(10, 25), [1, 2, 3, 4], SMALL_GRID),
        (range(2, 10), [1, 2, 3], DESK_GRID),
    ], ids=["paper", "k10-24", "desk"])
    def test_recorded_grids(self, Ks, Ms, want):
        assert ratio_table(list(Ks), Ms) == want

    def test_spot_values(self):
        table = ratio_table([60, 70, 150], [2, 3, 4, 5])
        assert table[(70, 4)] == 6.56
        assert table[(60, 2)] == 5.23
        assert table[(150, 5)] == 5.23
        assert table[(60, 3)] == 6.18

    def test_skips_cells_beyond_threshold(self):
        table = ratio_table([10], [2, 3, 4, 5])
        assert (10, 5) not in table  # threshold for K=10 is 4
        assert (10, 4) in table

    def test_skips_a_zero_bound(self):
        # K = M = W = 1: one node, so the combined bound 4 (W - 1) is 0
        assert lower_bound(1, 1, 1, 1).combined == 0
        assert ratio_table([1, 2], [1]) == {(2, 1): 1.5}

    def test_skips_more_channels_than_nodes(self):
        # m_prime(1) is 2, so only M > K keeps (1, 2) out of the table
        assert ratio_table([1, 2, 3], [1, 2]) == {
            (2, 1): 1.5, (3, 1): 1.88, (2, 2): 15.0, (3, 2): 15.0}


class TestAppendixF:
    def test_known_values(self):
        assert appendix_F(1.0) == pytest.approx(1.0)
        assert appendix_F(math.sqrt(2)) == pytest.approx(3 / math.sqrt(8), abs=1e-12)

    def test_grid_maximum_at_sqrt2(self):
        xs = np.arange(1e-4, 10.0001, 1e-4)
        values = [appendix_F(float(x)) for x in xs]
        best = xs[int(np.argmax(values))]
        assert abs(best - math.sqrt(2)) < 1e-3
        # no grid point beats the true maximum, and the maximum itself
        # matches the closed form
        assert max(values) <= 3 / math.sqrt(8) + 1e-12
        assert appendix_F(math.sqrt(2)) == pytest.approx(3 / math.sqrt(8), abs=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            appendix_F(0.0)
        with pytest.raises(ValueError):
            appendix_F(-1.0)
