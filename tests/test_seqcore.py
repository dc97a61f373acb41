import numpy as np
import pytest

from schedseq.seqcore import (
    BinarySequence,
    GroupDivision,
    OffsetVector,
    ScheduleSequence,
    Symbol,
    SymbolKind,
    array_to_sequence,
    correlation_profile,
    crt_inverse,
    crt_map,
    cyclic_shift,
    hamming_cross_correlation,
    sequence_to_array,
)

from conftest import brute_force_cross_correlation


class TestSymbol:
    def test_parse_and_format(self):
        assert str(Symbol.from_str("T3")) == "T3"
        assert Symbol.from_str("R12") == Symbol.receive(12)
        assert Symbol.transmit(2).code == 2
        assert Symbol.receive(2).code == -2
        assert Symbol.from_code(-5) == Symbol(SymbolKind.RECEIVE, 5)

    @pytest.mark.parametrize("bad", ["X1", "T", "T0x", "1T", "", "t1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Symbol.from_str(bad)

    def test_rejects_channel_zero(self):
        with pytest.raises(ValueError):
            Symbol.transmit(0)

    def test_code_zero_is_no_symbol(self):
        with pytest.raises(ValueError, match="0 is not a valid symbol code"):
            Symbol.from_code(0)


class TestCrtMap:
    def test_worked_values(self):
        assert crt_map(7, 3, 5) == (1, 2)
        assert crt_map(0, 3, 5) == (0, 0)
        assert crt_map(11, 3, 5) == (2, 1)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            crt_map(1, 4, 6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            crt_map(15, 3, 5)
        with pytest.raises(ValueError):
            crt_map(-1, 3, 5)

    def test_inverse_worked_values(self):
        assert crt_inverse((2, 1), 3, 5) == 11
        assert crt_inverse((0, 0), 3, 5) == 0
        assert crt_inverse((1, 0), 3, 5) == 10

    def test_inverse_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            crt_inverse((1, 1), 6, 9)

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (4, 9), (7, 11), (8, 15), (11, 13)])
    def test_round_trip(self, p, q):
        for t in range(p * q):
            assert crt_inverse(crt_map(t, p, q), p, q) == t

    def test_shift_array_equivalence(self):
        rng = np.random.default_rng(0)
        for p, q in [(3, 5), (7, 11), (4, 9)]:
            values = rng.integers(0, 5, size=p * q)
            for tau in (0, 1, p, q, p * q - 1):
                shifted = np.roll(values, -tau)
                arr = sequence_to_array(values, p, q)
                row_shift = np.roll(arr, -(tau % p), axis=0)
                both = np.roll(row_shift, -(tau % q), axis=1)
                assert np.array_equal(sequence_to_array(shifted, p, q), both)

    def test_array_round_trip(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 3, size=35)
        assert np.array_equal(array_to_sequence(sequence_to_array(values, 5, 7)), values)

    @pytest.mark.parametrize("lead", [(), (1,), (4,), (2, 3)])
    def test_stacked_array_to_sequence_flattens_each_slice(self, lead):
        rng = np.random.default_rng(2)
        for rows, cols in [(1, 1), (2, 3), (4, 15), (6, 35)]:
            stack = rng.integers(-5, 6, size=(*lead, rows, cols)).astype(np.int16)
            flat = array_to_sequence(stack)
            assert flat.shape == (*lead, rows * cols) and flat.dtype == np.int16
            assert flat.flags.c_contiguous
            for idx in np.ndindex(*lead):
                assert np.array_equal(flat[idx], array_to_sequence(stack[idx]))
                assert np.array_equal(sequence_to_array(flat[idx], rows, cols), stack[idx])

    def test_stacked_array_to_sequence_needs_coprime_axes(self):
        with pytest.raises(ValueError):
            array_to_sequence(np.zeros((3, 4, 6), dtype=np.int16))

    def test_sequence_to_array_needs_coprime_axes_and_their_length(self):
        with pytest.raises(ValueError, match="must be coprime"):
            sequence_to_array(np.zeros(24), 4, 6)
        with pytest.raises(ValueError, match="rows\\*cols"):
            sequence_to_array(np.zeros(14), 3, 5)

    def test_inverse_on_arrays_matches_scalars(self):
        p, q = 7, 11
        a = np.arange(p)[:, None]
        b = np.arange(q)
        t = crt_inverse((a, b), p, q)
        assert t.shape == (p, q)
        for x in range(p):
            for y in range(q):
                assert t[x, y] == crt_inverse((x, y), p, q)
        with pytest.raises(ValueError):
            crt_inverse((a, b + 1), p, q)


class TestCyclicShift:
    def test_binary_example(self):
        s = BinarySequence(np.array([1, 1, 1, 0, 0]))
        assert cyclic_shift(s, 2) == BinarySequence(np.array([1, 0, 0, 1, 1]))

    def test_zero_shift_identity(self):
        s = BinarySequence(np.array([1, 0, 1, 0]))
        assert cyclic_shift(s, 0) == s

    def test_preserves_weight_and_multiset(self):
        rng = np.random.default_rng(2)
        bits = BinarySequence((rng.random(30) < 0.4).astype(int))
        seq = bits.relabel(1, 1)
        for tau in (1, 7, 29):
            assert cyclic_shift(bits, tau).weight == bits.weight
            shifted = cyclic_shift(seq, tau)
            assert sorted(shifted.codes.tolist()) == sorted(seq.codes.tolist())

    def test_out_of_range(self):
        s = BinarySequence(np.array([1, 0]))
        with pytest.raises(ValueError):
            cyclic_shift(s, 2)
        with pytest.raises(ValueError):
            cyclic_shift(s, -1)

    def test_only_sequences_shift(self):
        with pytest.raises(TypeError, match="cannot shift ndarray"):
            cyclic_shift(np.array([1, 0, 1]), 1)


class TestHammingCrossCorrelation:
    def test_zero_sequence(self):
        a = BinarySequence(np.array([1, 0, 1, 1, 0]))
        z = BinarySequence(np.zeros(5, dtype=int))
        assert all(hamming_cross_correlation(a, z, t) == 0 for t in range(5))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_cross_correlation(BinarySequence(np.array([1, 0])),
                                      BinarySequence(np.array([1, 0, 1])), 0)

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            L = int(rng.integers(2, 40))
            a = BinarySequence((rng.random(L) < 0.5).astype(int))
            b = BinarySequence((rng.random(L) < 0.5).astype(int))
            tau = int(rng.integers(0, L))
            assert (hamming_cross_correlation(a, b, tau)
                    == brute_force_cross_correlation(a.bits, b.bits, tau))

    def test_weight_product_identity(self):
        # sum over all shifts equals the product of the two weights
        rng = np.random.default_rng(4)
        for _ in range(200):
            L = int(rng.integers(2, 60))
            a = BinarySequence((rng.random(L) < rng.random()).astype(int))
            b = BinarySequence((rng.random(L) < rng.random()).astype(int))
            total = sum(hamming_cross_correlation(a, b, t) for t in range(L))
            assert total == a.weight * b.weight

    def test_profile_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            L = int(rng.integers(2, 80))
            a = (rng.random(L) < 0.5).astype(int)
            b = (rng.random(L) < 0.5).astype(int)
            prof = correlation_profile(a, b)
            for tau in range(L):
                assert prof[tau] == brute_force_cross_correlation(a, b, tau)

    @pytest.mark.parametrize("a, b", [
        (np.ones(5), np.ones(6)), (np.ones((2, 3)), np.ones((2, 3)))], ids=["lengths", "2-D"])
    def test_profile_needs_equal_1d_arrays(self, a, b):
        with pytest.raises(ValueError, match="equal-length 1-D"):
            correlation_profile(a, b)


class TestScheduleSequence:
    def test_assignment_constraint(self):
        with pytest.raises(ValueError):
            ScheduleSequence.from_symbols([Symbol.transmit(2)], owner_group=1)

    def test_counts(self):
        seq = ScheduleSequence.from_symbols(
            [Symbol.transmit(1), Symbol.receive(2), Symbol.receive(1), Symbol.transmit(1)], 1)
        assert seq.transmit_count == 2
        assert seq.receive_count(1) == 1
        assert seq.receive_count(2) == 1

    def test_immutability(self):
        seq = ScheduleSequence.from_symbols([Symbol.transmit(1), Symbol.receive(1)], 1)
        with pytest.raises(ValueError):
            seq.codes[0] = -1

    def test_symbols_and_text(self):
        symbols = (Symbol.transmit(2), Symbol.receive(1), Symbol.receive(3))
        seq = ScheduleSequence.from_symbols(symbols, 2)
        assert seq.symbols == symbols
        assert str(seq) == "[T2 R1 R3]"

    @pytest.mark.parametrize("codes, message", [
        ([], "non-empty 1-D"),
        (np.empty(0, dtype=np.int16), "non-empty 1-D"),
        (np.array([[1, -1], [-1, 1]]), "non-empty 1-D"),
        ([1, 0, -1], "symbol code 0"),
    ], ids=["empty-list", "empty-array", "2-D", "zero-code"])
    def test_rejects_codes_that_are_no_sequence(self, codes, message):
        with pytest.raises(ValueError, match=message):
            ScheduleSequence(codes, owner_group=1)

    @pytest.mark.parametrize("group", [0, -1])
    def test_rejects_an_owner_group_below_one(self, group):
        with pytest.raises(ValueError, match="owner_group must be >= 1"):
            ScheduleSequence(np.array([-1, -1], dtype=np.int16), owner_group=group)


class TestBinarySequence:
    @pytest.mark.parametrize("bits", [[], [[1, 0], [0, 1]]], ids=["empty", "2-D"])
    def test_rejects_bits_that_are_no_sequence(self, bits):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            BinarySequence(np.array(bits))

    def test_rejects_bits_other_than_zero_and_one(self):
        with pytest.raises(ValueError, match="0/1"):
            BinarySequence(np.array([1, 2, 0]))


class TestGroupDivision:
    def test_even_division_sizes(self):
        d = GroupDivision.even(10, 3)
        assert d.sizes() == (4, 3, 3)
        assert d.k_min == 3 and d.ell == 4
        assert d.ell - d.k_min <= 1

    def test_even_assignment_rule(self):
        d = GroupDivision.even(5, 2)
        assert d.assignment == (1, 2, 1, 2, 1)
        assert d.members(1) == (1, 3, 5)
        assert d.rank_in_group(5) == 3

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            GroupDivision((1, 1, 3))  # group 2 empty

    def test_rejects_bad_W(self):
        with pytest.raises(ValueError):
            GroupDivision.even(3, 4)


def division_oracle(assignment):
    """sizes, members and ranks of a division by direct scans."""
    K, W = len(assignment), max(assignment)
    members = {m: tuple(i for i in range(1, K + 1) if assignment[i - 1] == m)
               for m in range(1, W + 1)}
    ranks = {i: members[assignment[i - 1]].index(i) + 1 for i in range(1, K + 1)}
    return members, ranks


def random_assignment(rng, K, W):
    """Every group non-empty, the rest drawn with uneven group weights."""
    weights = rng.dirichlet(np.full(W, 0.3))
    groups = np.concatenate([np.arange(1, W + 1), rng.choice(np.arange(1, W + 1), K - W, p=weights)])
    return tuple(int(g) for g in rng.permutation(groups))


class TestGroupDivisionAgainstOracle:
    def check(self, d, assignment):
        members, ranks = division_oracle(assignment)
        assert d.assignment == assignment and d.K == len(assignment)
        assert d.W == len(members)
        assert d.sizes() == tuple(len(members[m]) for m in sorted(members))
        assert d.k_min == min(map(len, members.values()))
        assert d.ell == max(map(len, members.values()))
        for m, want in members.items():
            assert d.members(m) == want
        for i, want in ranks.items():
            assert d.group_of(i) == assignment[i - 1] and d.rank_in_group(i) == want

    def test_random_uneven_divisions(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            K = int(rng.integers(1, 201))
            W = int(rng.integers(1, min(12, K) + 1))
            a = random_assignment(rng, K, W)
            self.check(GroupDivision(a), a)

    def test_even_divisions(self):
        for K in (*range(1, 41), *range(47, 201, 17), 200):
            for W in range(1, min(12, K) + 1):
                a = tuple((i % W) + 1 for i in range(K))
                d = GroupDivision.even(K, W)
                self.check(d, a)
                assert max(d.sizes()) - min(d.sizes()) <= 1

    def test_eq_hash_and_repr(self):
        d = GroupDivision.even(5, 2)
        for same in (GroupDivision([1, 2, 1, 2, 1]), GroupDivision(np.array([1, 2, 1, 2, 1]))):
            assert same == d and hash(same) == hash(d)
            assert type(same.assignment[0]) is int
        assert repr(d) == "GroupDivision(assignment=(1, 2, 1, 2, 1))"
        assert d != GroupDivision((2, 1, 2, 1, 2)) and d != (1, 2, 1, 2, 1)

    @pytest.mark.parametrize("bad", [(1, 1, 3), (0, 1), (2, 2), (1, 2, -1), (-3,), (1, 9),
                                     (3, 1, 1), (1, 2, 4, 4, 5)])
    def test_invalid_divisions_keep_their_message(self, bad):
        want = f"groups 1..{max(bad)} must all be non-empty, got {sorted(set(bad))}"
        with pytest.raises(ValueError) as err:
            GroupDivision(bad)
        assert str(err.value) == want

    def test_empty_and_bad_even(self):
        with pytest.raises(ValueError, match="^empty division$"):
            GroupDivision(())
        for K, W in ((3, 4), (3, 0), (0, 0), (5, -1)):
            with pytest.raises(ValueError) as err:
                GroupDivision.even(K, W)
            assert str(err.value) == f"need 1 <= W <= K, got W={W}, K={K}"


class TestOffsetVector:
    def test_range_check(self):
        OffsetVector((0, 1, 4), period=5)
        with pytest.raises(ValueError):
            OffsetVector((0, 5), period=5)
        with pytest.raises(ValueError):
            OffsetVector((-1, 0), period=5)
