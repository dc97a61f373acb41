"""The set codec and the set's checks work on blocks of rows of one matrix.

set_from_doc reads a block of one-digit rows at once and leaves every
other row to the general digit loop; the set checks its (K, L) code
matrix a block at a time and hands out read-only row views of it.  The
oracle below is the reader as it was, one row at a time: each row alone
through the digit loop, then that row's own checks, in file order.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

from schedseq import cli, constructor, kernel, seqcore
from schedseq.cli import SequenceSetFormatError, _read_block, load_set, save_set, set_from_doc
from schedseq.constructor import ScheduleSequenceSet, build_schedule_set
from schedseq.seqcore import ScheduleSequence
from schedseq.verifier import verify_set


def oracle(doc: dict) -> np.ndarray:
    """The codes of a document whose header is sound, or the
    SequenceSetFormatError its first faulty row raises, read row by row."""
    version, L, W = doc["schema_version"], doc["L"], doc["W"]
    rows = []
    for i, (group, row) in enumerate(zip(doc["division"], doc["sequences"]), start=1):
        try:
            if version == "1":
                if len(row) != L:
                    raise ValueError(f"{len(row)} slots, expected {L}")
                row = " ".join(row)
            codes = cli._parse_tokens(row, L, W)
            if group < 1:
                raise ValueError("owner_group must be >= 1")
            foreign = codes[(codes > 0) & (codes != group)]
            if foreign.size:
                raise ValueError(f"transmit on channel {foreign[0]} but node owns group {group}")
        except (TypeError, ValueError) as exc:
            raise SequenceSetFormatError(f"sequence {i}: {exc}") from None
        rows.append(codes)
    if set(doc["division"]) != set(range(1, W + 1)):
        raise SequenceSetFormatError("owner groups 1..W must all be non-empty")
    return np.array(rows)


def outcome(read, doc: dict):
    """The codes read, as lists, or the message of the format error raised."""
    try:
        codes = read(doc)
    except SequenceSetFormatError as exc:
        return str(exc)
    return np.asarray(getattr(codes, "codes", codes)).tolist()


def to_v1(doc: dict) -> dict:
    return {**doc, "schema_version": "1",
            "sequences": [row.split(" ") for row in doc["sequences"]]}


def random_set(rng: np.random.Generator, K: int, W: int, L: int) -> ScheduleSequenceSet:
    groups = rng.permutation([(i % W) + 1 for i in range(K)])
    codes = np.where(rng.random((K, L)) < 0.3, groups[:, None],
                     -rng.integers(1, W + 1, size=(K, L)))
    return ScheduleSequenceSet.from_codes(codes, groups)


# None keeps kernel.BATCH_BYTES; 1 gives one-row blocks, 600 a few rows.
BATCHES = [None, 1, 600]


@pytest.fixture(params=BATCHES, ids=lambda b: f"batch={b}")
def batch(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(kernel, "BATCH_BYTES", request.param)
    return request.param


@pytest.mark.parametrize("schema", ["1", "2"])
def test_random_sets_read_as_the_oracle_reads(batch, schema):
    rng = np.random.default_rng(32)
    for _ in range(40):
        K, W, L = int(rng.integers(2, 13)), int(rng.integers(1, 10)), int(rng.integers(1, 41))
        W = min(W, K)
        doc = cli.set_to_doc(random_set(rng, K, W, L))
        doc = to_v1(doc) if schema == "1" else doc
        want = outcome(oracle, doc)
        assert isinstance(want, list)
        assert outcome(set_from_doc, doc) == want, (K, W, L)


@pytest.mark.parametrize("schema", ["1", "2"])
def test_wide_sets_take_the_digit_loop(batch, schema):
    rng = np.random.default_rng(10)
    for W in (10, 11, 13):
        sset = random_set(rng, W + 3, W, 40)
        doc = cli.set_to_doc(sset)
        # every row with a two-digit token is left to the digit loop
        rows = doc["sequences"]
        wide = [i for i, row in enumerate(rows) if len(row) != 3 * sset.L - 1]
        assert len(wide) >= len(rows) - 2
        assert _read_block(rows, sset.L, W, np.zeros((len(rows), sset.L), np.int16)) == wide
        doc = to_v1(doc) if schema == "1" else doc
        assert outcome(set_from_doc, doc) == outcome(oracle, doc) == sset.codes.tolist()


# Byte substitutions: a bad kind, a transmit in place of a receive, the
# digit 0, a digit above W=2, a tab, a space (a doubled space or a split
# token) and a non-ASCII character.
SUBSTITUTES = ["Q", "T", "0", "3", "\t", " ", "é"]


@pytest.mark.parametrize("schema,batch", [("2", None), ("2", 1), ("1", None)],
                         ids=["2-batch=None", "2-batch=1", "1-batch=None"])
def test_every_one_byte_mutation_of_a_k4_file(monkeypatch, schema, batch):
    if batch is not None:
        monkeypatch.setattr(kernel, "BATCH_BYTES", batch)
    base = cli.set_to_doc(build_schedule_set(4, 2, W=2))
    errors = set()
    for r, row in enumerate(base["sequences"]):
        for t in range(len(row)):
            for sub in SUBSTITUTES:
                if row[t] == sub:
                    continue
                rows = list(base["sequences"])
                rows[r] = row[:t] + sub + row[t + 1:]
                doc = {**base, "sequences": rows}
                doc = to_v1(doc) if schema == "1" else doc
                want = outcome(oracle, doc)
                assert outcome(set_from_doc, doc) == want, (r, t, sub)
                if isinstance(want, str):
                    errors.add(want.split(":")[0])
    assert errors == {f"sequence {i}" for i in range(1, 5)}


@pytest.mark.parametrize("first", [0, 1, 2])
def test_a_long_row_beside_a_short_one(batch, first):
    # the two rows together have the bytes of two good rows
    doc = cli.set_to_doc(build_schedule_set(4, 2, W=2))
    rows = doc["sequences"]
    for long_row, short_row in ((first, first + 1), (first + 1, first)):
        changed = list(rows)
        changed[long_row] = rows[long_row] + " R1"
        changed[short_row] = rows[short_row][:-3]
        bad = {**doc, "sequences": changed}
        assert sum(map(len, changed)) == sum(map(len, rows))
        message = outcome(set_from_doc, bad)
        assert message == outcome(oracle, bad)
        expected = 61 if long_row < short_row else 59
        assert message == f"sequence {first + 1}: {expected} slots, expected 60"


@pytest.mark.parametrize("foreign,broken", [(a, b) for a in range(4) for b in range(4) if a != b])
def test_the_first_faulty_row_in_file_order_is_reported(batch, foreign, broken):
    # one row transmits on the other group's channel, another fails the
    # digit loop; whichever comes first in the file is named
    doc = cli.set_to_doc(build_schedule_set(4, 2, W=2))
    rows = list(doc["sequences"])
    own = doc["division"][foreign]
    rows[foreign] = rows[foreign].replace(f"T{own}", f"T{3 - own}", 1)
    rows[broken] = rows[broken].replace(" ", "  ", 1)
    bad = {**doc, "sequences": rows}
    want = outcome(oracle, bad)
    assert want.startswith(f"sequence {min(foreign, broken) + 1}: ")
    assert outcome(set_from_doc, bad) == want
    # before a params error as well
    bad["sequences"][broken] = doc["sequences"][broken]
    bad["params"] = {**doc["params"], "deltas": []}
    assert outcome(set_from_doc, bad) == outcome(oracle, bad)


def test_a_header_L_beyond_the_rows_allocates_nothing():
    doc = cli.set_to_doc(build_schedule_set(4, 2, W=2))
    doc["L"] = 10 ** 15
    doc["params"] = None
    with pytest.raises(SequenceSetFormatError) as err:
        set_from_doc(doc)
    assert str(err.value) == "sequence 1: 60 slots, expected 1000000000000000"


def test_a_file_read_in_pieces_reports_a_decode_error_at_its_place(tmp_path, monkeypatch):
    monkeypatch.setattr(kernel, "BATCH_BYTES", 64)
    path = tmp_path / "bad.json"
    # past the 8 KiB the text reader decodes at a time, too
    data = b'{"K": ' + b" " * 20000 + b"\xff}"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as err:
        load_set(str(path))
    assert str(err.value) == ("'utf-8' codec can't decode byte 0xff in position 20006: "
                              "invalid start byte")
    sset = build_schedule_set(6, 2, W=2)
    save_set(sset, str(path))
    assert load_set(str(path)) == sset


class TestRowViews:
    def sets(self, tmp_path):
        built = build_schedule_set(18, 3)
        path = str(tmp_path / "k18.json")
        save_set(built, path)
        handmade = ScheduleSequenceSet(tuple(built.sequences[::-1]))
        return {"built": built, "loaded": load_set(path), "handmade": handmade}

    def test_rows_are_read_only_views_of_one_read_only_matrix(self, tmp_path):
        for name, sset in self.sets(tmp_path).items():
            matrix = sset.codes
            assert matrix.shape == (sset.K, sset.L) and matrix.dtype == np.int16
            assert not matrix.flags.writeable, name
            for x, seq in enumerate(sset.sequences):
                assert seq.codes.base is matrix, name
                assert not seq.codes.flags.writeable
                assert np.array_equal(seq.codes, matrix[x])
            with pytest.raises(ValueError):
                sset.sequences[0].codes[0] = 1
            with pytest.raises(ValueError):
                matrix[0, 0] = 1

    def test_codes_matrix_is_a_fresh_writable_copy(self, tmp_path):
        for sset in self.sets(tmp_path).values():
            codes = sset.codes_matrix()
            assert codes.flags.writeable and not np.shares_memory(codes, sset.codes)
            assert codes is not sset.codes_matrix()
            before = sset.codes.copy()
            codes[0][codes[0] < 0] = -1
            codes[1, :] = 1
            assert np.array_equal(sset.codes, before)

    def test_a_loaded_set_pickles_to_an_equal_set(self, tmp_path):
        sset = build_schedule_set(4, 2, W=2)
        path = str(tmp_path / "k4.json")
        save_set(sset, path)
        loaded = load_set(path)
        copy = pickle.loads(pickle.dumps(loaded))
        assert copy == loaded == sset and copy.params == loaded.params
        assert all(np.shares_memory(seq.codes, copy.codes) for seq in copy.sequences)
        assert not copy.codes.flags.writeable
        assert verify_set(copy, threads=1) == verify_set(loaded, threads=1)
        k18 = self.sets(tmp_path)["loaded"]
        copy = pickle.loads(pickle.dumps(k18))
        assert copy == k18
        assert (verify_set(copy, mode="randomized", samples=50, seed=3, threads=1)
                == verify_set(k18, mode="randomized", samples=50, seed=3, threads=1))

    def test_each_set_is_checked_once_a_block_at_a_time(self, tmp_path, monkeypatch):
        calls = []
        check = seqcore.first_fault

        def counted(codes, groups):
            calls.append(len(codes))
            return check(codes, groups)
        monkeypatch.setattr(seqcore, "first_fault", counted)
        monkeypatch.setattr(constructor, "first_fault", counted)
        sset = build_schedule_set(18, 3)
        assert calls == [18]
        path = str(tmp_path / "k18.json")
        save_set(sset, path)
        calls.clear()
        assert load_set(path) == sset
        assert calls == [18]
        monkeypatch.setattr(kernel, "BATCH_BYTES", 5 * sset.codes[0].nbytes)
        calls.clear()
        assert load_set(path) == sset
        assert calls == [5, 5, 5, 3]


class TestRowRule:
    """Code 0, a foreign transmit and a receive channel above W are refused
    with the messages they always had, whichever way a set is made."""

    @pytest.mark.parametrize("row,group,message", [
        ([1, 0, -1], 1, "symbol code 0 is invalid"),
        ([-1, 2, -1], 1, "transmit on channel 2 but node owns group 1"),
        ([-1, -1], 0, "owner_group must be >= 1"),
        ([0, 2], -3, "symbol code 0 is invalid"),
    ])
    def test_a_lone_sequence(self, row, group, message):
        with pytest.raises(ValueError) as err:
            ScheduleSequence(np.array(row, dtype=np.int16), group)
        assert str(err.value) == message
        codes = np.array([[-1] * len(row), row, [-2] * len(row)], dtype=np.int16)
        with pytest.raises(ValueError) as err:
            ScheduleSequenceSet.from_codes(codes, [1, group, 2])
        assert str(err.value) == f"sequence 2: {message}"

    def test_a_receive_channel_above_W(self):
        codes = np.array([[1, -1], [-3, 2], [1, -2]], dtype=np.int16)
        seqs = tuple(ScheduleSequence(row, g) for row, g in zip(codes, [1, 2, 1]))
        with pytest.raises(ValueError, match="^receive channel 3 exceeds W=2$"):
            ScheduleSequenceSet(seqs)
        with pytest.raises(ValueError, match="^receive channel 3 exceeds W=2$"):
            ScheduleSequenceSet.from_codes(codes, [1, 2, 1])

    def test_groups_past_int16_are_judged_exactly(self):
        # such a group can own no code, so only its receive-only row is sound
        assert seqcore.first_fault(np.array([[-1, -2]], np.int16), [70000]) is None
        assert seqcore.first_fault(np.array([[-1, 4464]], np.int16), [70000]) == (
            0, "transmit on channel 4464 but node owns group 70000")


def test_codec_memory_stays_within_a_block(tmp_path):
    # An unblocked reader holds intp and bool copies of all 2.8 million
    # tokens at once, about 30 MB; the blocks keep the codec within two
    # kernel.BATCH_BYTES of its result.
    sset = build_schedule_set(150, 5)
    doc = cli.set_to_doc(sset)
    matrix = sset.K * sset.L * 2
    text = sum(len(row) for row in doc["sequences"])
    limit = 2 * kernel.BATCH_BYTES
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded = set_from_doc(doc)
        read_peak = tracemalloc.get_traced_memory()[1] - start
        del loaded
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        again = cli.set_to_doc(sset)
        write_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert again == doc
    assert matrix <= read_peak <= matrix + limit, read_peak
    assert text <= write_peak <= text + sset.K * 100 + limit, write_peak
