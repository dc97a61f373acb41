import dataclasses
import math
import random
from functools import cache

import numpy as np
import pytest

from schedseq.constructor import (
    CrtUiParams,
    ScheduleSequenceSet,
    auto_correlation_predict,
    build_array,
    build_crt_ui,
    build_schedule_set,
    choose_W,
    crt_ui_set,
    length_upper_bound,
    m_prime,
    select_params,
)
from schedseq.seqcore import (
    GroupDivision,
    ScheduleSequence,
    Symbol,
    array_to_sequence,
    cyclic_shift,
    hamming_cross_correlation,
)
from schedseq.verifier import Verdict, verify_set

UI_353 = CrtUiParams(K_gen=3, w=3, p=3, q=5)


class TestBuildCrtUi:
    def test_small_family(self):
        assert build_crt_ui(UI_353, 1).ones == (0, 1, 2)
        assert build_crt_ui(UI_353, 2).ones == (0, 7, 11)
        assert build_crt_ui(UI_353, 3).ones == (0, 6, 12)

    def test_generator_range(self):
        with pytest.raises(ValueError):
            build_crt_ui(UI_353, 0)
        with pytest.raises(ValueError):
            build_crt_ui(UI_353, 4)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CrtUiParams(K_gen=4, w=3, p=3, q=5)   # more generators than weight
        with pytest.raises(ValueError):
            CrtUiParams(K_gen=3, w=3, p=4, q=5)   # p not prime
        with pytest.raises(ValueError):
            CrtUiParams(K_gen=3, w=3, p=3, q=4)   # q < 2w - 1
        with pytest.raises(ValueError):
            CrtUiParams(K_gen=3, w=3, p=3, q=6)   # q not coprime with p

    def test_common_weight(self):
        params = CrtUiParams(K_gen=6, w=6, p=7, q=11)
        for g in range(1, 7):
            assert build_crt_ui(params, g).weight == 6

    def test_shift_moves_ones_as_rows_and_columns(self):
        from schedseq.seqcore import cyclic_shift
        shifted = cyclic_shift(build_crt_ui(UI_353, 2), 7)
        assert shifted.ones == (0, 4, 8)

    @pytest.mark.parametrize("params", [
        UI_353,
        CrtUiParams(K_gen=4, w=4, p=5, q=7),
        CrtUiParams(K_gen=6, w=6, p=7, q=11),
    ])
    def test_pairwise_cross_correlation_at_most_one(self, params):
        # the family is usable by all generators at once: any two distinct
        # members collide in at most one slot at every relative shift
        seqs = crt_ui_set(params)
        L = params.Lprime
        for a in range(len(seqs)):
            for b in range(a + 1, len(seqs)):
                for tau in range(L):
                    assert hamming_cross_correlation(seqs[a], seqs[b], tau) <= 1


class TestAutoCorrelationPredict:
    def test_worked_values(self):
        assert auto_correlation_predict(UI_353, 2, 7) == 1
        assert auto_correlation_predict(UI_353, 1, 0) == 3
        # tau=4 genuinely misses the correlated-shift pattern; tau=14 hits
        # it with displacement 1
        s1 = build_crt_ui(UI_353, 1)
        assert hamming_cross_correlation(s1, s1, 4) == 0
        assert auto_correlation_predict(UI_353, 1, 4) == 0
        assert hamming_cross_correlation(s1, s1, 14) == 2
        assert auto_correlation_predict(UI_353, 1, 14) == 2

    @pytest.mark.parametrize("params", [
        UI_353,
        CrtUiParams(K_gen=6, w=6, p=7, q=11),
        CrtUiParams(K_gen=7, w=7, p=7, q=13),
    ])
    def test_matches_brute_force_everywhere(self, params):
        for g in range(1, params.K_gen + 1):
            s = build_crt_ui(params, g)
            for tau in range(params.Lprime):
                assert (auto_correlation_predict(params, g, tau)
                        == hamming_cross_correlation(s, s, tau)), (g, tau)


class TestSelectParams:
    def test_two_channels(self):
        p = select_params(10, 2, 2)
        assert (p.w, p.p, p.q, p.L) == (6, 7, 11, 308)

    def test_single_channel(self):
        p = select_params(10, 2, 1)
        assert (p.w, p.p, p.q, p.L) == (10, 11, 19, 209)

    def test_four_channels(self):
        p = select_params(24, 4, 4)
        assert (p.w, p.p, p.q, p.L) == (7, 7, 13, 728)

    def test_q_need_not_be_prime(self):
        p = select_params(18, 2, 1)
        assert p.q == 35  # 5 * 7, merely coprime with p = 19
        assert p.L == 665

    def test_single_channel_q_is_2K_minus_1(self):
        # p = next_prime(K) <= 2K - 2 < q < 2p for K >= 2 (Bertrand), so p
        # never divides q and no coprimality search is needed
        for K in range(1, 501):
            assert select_params(K, 1, 1).q == 2 * K - 1, K

    def test_params_need_channel_counts_in_order(self):
        # a set file's header check refuses these first, so only a direct
        # construction reaches them
        params = select_params(4, 2, 2)
        with pytest.raises(ValueError, match="need 1 <= W <= M <= K"):
            dataclasses.replace(params, M=5)
        with pytest.raises(ValueError, match="division does not match K and W"):
            dataclasses.replace(params, division=GroupDivision.even(4, 1))

    def test_rejects_bad_W(self):
        with pytest.raises(ValueError):
            select_params(10, 2, 3)

    def test_rejects_mismatched_division(self):
        with pytest.raises(ValueError):
            select_params(10, 2, 2, division=GroupDivision.even(10, 1))

    def test_p_coprime_with_2W(self):
        # K=2, W=2 forces the search past p=2, which divides 2W
        p = select_params(2, 2, 2)
        assert math.gcd(p.p, 2 * p.W) == 1
        assert math.gcd(2 * p.W, p.Lprime) == 1

    def test_deltas_have_expected_residues(self):
        p = select_params(24, 4, 4)
        for m in range(1, 5):
            assert p.deltas[m - 1] % p.p == (m - 1) % p.p
            assert p.deltas[m - 1] % p.q == 0

    def test_closed_form_when_conditions_allow(self):
        # whenever w is prime and 2w-1 passes the coprimality checks, the
        # search must settle on p = w, q = 2w - 1, so L = 2W * w * (2w-1)
        p = select_params(24, 4, 4)
        assert p.p == p.w and p.q == 2 * p.w - 1
        assert p.L == 2 * p.W * p.w * (2 * p.w - 1)


class TestChooseW:
    @pytest.mark.parametrize("K,M,want_W,want_L", [
        (10, 2, 1, 209),
        (18, 2, 1, 665),
        (18, 3, 3, 546),
        (15, 3, 3, 462),
        (20, 4, 4, 616),
        (24, 3, 3, 1122),
    ])
    def test_known_optima(self, K, M, want_W, want_L):
        W, params = choose_W(K, M)
        assert (W, params.L) == (want_W, want_L)

    def test_threshold_values(self):
        assert m_prime(10) == 4
        assert m_prime(70) == 7
        # integer form agrees with the real-valued expression
        for K in range(2, 200):
            real = math.ceil(math.sqrt(K / 2 + 9 / 16) + 3 / 4)
            assert m_prime(K) == real, K


class TestBuildArray:
    @pytest.fixture
    def block_params(self):
        # explicit contiguous grouping {1,2} | {3,4}
        return select_params(4, 2, 2, division=GroupDivision((1, 1, 2, 2)))

    def test_shifted_row(self, block_params):
        arr = build_array(block_params, 3)
        row = " ".join(str(Symbol.from_code(int(c))) for c in arr[1])
        assert row == "R1 R1 R1 R1 R1 T2 T2 T2 R1 R1 R1 R1 R1 R1 R1"

    def test_zero_delta_duplicates_rows(self, block_params):
        arr = build_array(block_params, 1)
        assert np.array_equal(arr[0], arr[1])  # delta_1 = 0

    def test_every_row_has_weight_transmits(self, block_params):
        for i in range(1, 5):
            arr = build_array(block_params, i)
            assert arr.shape == (2 * block_params.W, block_params.Lprime)
            assert ((arr > 0).sum(axis=1) == block_params.w).all()

    def test_single_channel_has_no_array(self):
        with pytest.raises(ValueError):
            build_array(select_params(3, 1, 1), 1)


class TestBuildScheduleSet:
    def test_four_nodes_two_channels(self):
        sset = build_schedule_set(4, 2, W=2)
        assert sset.K == 4 and sset.L == 60 and sset.W == 2

    def test_set_checks(self):
        seqs = build_schedule_set(4, 2, W=2).sequences
        with pytest.raises(ValueError, match="empty sequence set"):
            ScheduleSequenceSet(())
        with pytest.raises(ValueError, match="share one period"):
            ScheduleSequenceSet((seqs[0], ScheduleSequence(seqs[1].codes[:30], 2)))
        with pytest.raises(ValueError, match="owner groups 1..W"):
            ScheduleSequenceSet((ScheduleSequence([1, -1], 1), ScheduleSequence([3, -1], 3)))
        with pytest.raises(ValueError, match="params.division disagrees"):
            ScheduleSequenceSet(seqs[::-1], params=select_params(4, 2, 2))

    def test_single_channel_relabels_ui(self):
        sset = build_schedule_set(3, 1)
        assert sset.L == 15
        for seq, ones in zip(sset.sequences, [(0, 1, 2), (0, 7, 11), (0, 6, 12)]):
            assert tuple(int(t) for t in np.flatnonzero(seq.codes == 1)) == ones
            assert set(seq.codes.tolist()) <= {1, -1}

    def test_large_case_period(self):
        sset = build_schedule_set(70, 4)
        assert sset.L == 5624

    def test_symbol_count_identity(self):
        sset = build_schedule_set(10, 2, W=2)
        params = sset.params
        for seq in sset.sequences:
            assert seq.transmit_count == 2 * params.W * params.w
            per_channel = [seq.receive_count(r) for r in range(1, params.W + 1)]
            assert per_channel == [2 * (params.Lprime - params.w)] * params.W
            assert seq.transmit_count + sum(per_channel) == sset.L

    def test_flattening_needs_coprimality(self):
        for K, M in [(4, 2), (10, 2), (18, 3), (24, 4)]:
            params = select_params(K, M, M)
            assert math.gcd(2 * params.W, params.Lprime) == 1

    def test_seeded_pick_remains_valid(self):
        # shuffling which generator ranks survive must not break the guarantee
        sset = build_schedule_set(3, 2, W=2, seed=12345)
        assert sset.L == 60
        assert verify_set(sset, mode="exhaustive").verdict is Verdict.PROVEN

    def test_seed_changes_selection_deterministically(self):
        a = build_schedule_set(5, 2, W=2, seed=1)
        b = build_schedule_set(5, 2, W=2, seed=1)
        assert a == b


@cache
def per_node_codes(K: int, W: int, seed: int | None) -> np.ndarray:
    """(K, L) codes of the set built one node at a time from the UI layer:
    build_crt_ui -> cyclic_shift by delta_m -> relabel each row ->
    array_to_sequence, or relabel(1, 1) of a UI sequence when W = 1."""
    params = select_params(K, W, W)
    ui = params.ui_params
    if params.W == 1:
        order = list(range(K))
        if seed is not None:
            random.Random(seed).shuffle(order)
        return np.stack([build_crt_ui(ui, order[i] + 1).relabel(1, 1).codes
                         for i in range(K)])
    rng = random.Random(seed) if seed is not None else None
    pool = {}
    for m in range(1, params.W + 1):
        ranks = list(range(1, params.ell + 1))
        if rng is not None:
            rng.shuffle(ranks)
        pool[m] = ranks
    rows = []
    for i in range(1, K + 1):
        m = params.division.group_of(i)
        u = build_crt_ui(ui, pool[m][params.division.rank_in_group(i) - 1])
        shifted = cyclic_shift(u, params.deltas[m - 1])
        arr = np.stack([seq.relabel(m, r).codes
                        for r in range(1, params.W + 1) for seq in (u, shifted)])
        rows.append(array_to_sequence(arr))
    return np.stack(rows)


class TestSetWideBuild:
    @pytest.mark.parametrize("K", range(2, 31))
    def test_matches_per_node_oracle(self, K):
        # every M <= min(K, 6), every W <= M and the period-minimizing W;
        # K not a multiple of W gives uneven groups
        for M in range(1, min(K, 6) + 1):
            for W in [None, *range(1, M + 1)]:
                for seed in (None, 0, 7):
                    sset = build_schedule_set(K, M, W, seed=seed)
                    used = choose_W(K, M)[0] if W is None else W
                    # M only enters the params, so one oracle serves every M
                    want = per_node_codes(K, used, seed)
                    assert np.array_equal(sset.codes_matrix(), want), (K, M, W, seed)
                    assert sset.params.M == M and sset.W == used

    def test_rows_are_contiguous_and_read_only(self):
        for seq in build_schedule_set(12, 3, W=3).sequences:
            assert seq.codes.flags.c_contiguous and not seq.codes.flags.writeable

    def test_validation_messages_unchanged(self):
        with pytest.raises(ValueError, match="^transmit on channel 3 but node owns group 1$"):
            ScheduleSequence(np.array([-1, 1, 3, 2], dtype=np.int16), owner_group=1)
        seqs = (ScheduleSequence(np.array([1, -3, -2]), 1),
                ScheduleSequence(np.array([2, -1, -1]), 2))
        with pytest.raises(ValueError, match="^receive channel 3 exceeds W=2$"):
            ScheduleSequenceSet(seqs)


class TestLengthUpperBound:
    def test_worked_values(self):
        assert length_upper_bound(24, 4) == 2912
        assert length_upper_bound(70, 4) == 22496

    def test_exact_multiples(self):
        for c in (2, 5, 9):
            for M in (2, 3):
                K = M * c
                if M <= m_prime(K):
                    assert length_upper_bound(K, M) == 2 * M * (2 * c + 2) * (4 * c + 2)

    def test_dominates_construction(self):
        for K, M in [(24, 4), (70, 4), (60, 2), (90, 3)]:
            assert select_params(K, M, M).L <= length_upper_bound(K, M)

    def test_rejects_excess_channels(self):
        with pytest.raises(ValueError):
            length_upper_bound(10, 5)  # threshold for K=10 is 4
