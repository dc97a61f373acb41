import csv
import dataclasses
import io
import json
import os
import platform
import resource
import subprocess
import sys

import numpy as np
import pytest

from schedseq.cli import (
    SequenceSetFormatError,
    _parse_one_digit,
    load_set,
    main,
    save_set,
    set_from_doc,
    set_to_doc,
)
from schedseq.constructor import ScheduleSequenceSet, build_schedule_set
from schedseq.random_schemes import GeneralRandomParams, optimize_random
from schedseq.seqcore import ScheduleSequence, Symbol
from schedseq.simulator import GeneralRandomScheme, SimConfig, simulate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def to_v1(doc: dict) -> dict:
    """The schema-1 form of a schema-2 document: one token list per sequence."""
    return {**doc, "schema_version": "1",
            "sequences": [row.split(" ") for row in doc["sequences"]]}


def random_set(rng: np.random.Generator, K: int, W: int, L: int) -> ScheduleSequenceSet:
    """K nodes on W channels, every group non-empty, random slot actions."""
    groups = rng.permutation([(i % W) + 1 for i in range(K)])
    seqs = []
    for g in groups:
        codes = np.where(rng.random(L) < 0.3, g, -rng.integers(1, W + 1, size=L))
        seqs.append(ScheduleSequence(codes.astype(np.int16), owner_group=int(g)))
    return ScheduleSequenceSet(tuple(seqs))


class _SchemaDocs:
    """Set documents in one schema version.

    The test classes built on it run with schema "2", and again through a
    subclass setting schema = "1"; a subclass, rather than a pytest
    parameter, keeps the ids of the schema-2 tests as they were.
    """

    schema = "2"

    def doc(self, sset: ScheduleSequenceSet) -> dict:
        doc = set_to_doc(sset)
        return to_v1(doc) if self.schema == "1" else doc

    def tokens(self, doc: dict, i: int) -> list[str]:
        row = doc["sequences"][i]
        return list(row) if self.schema == "1" else row.split(" ")

    def set_row(self, doc: dict, i: int, tokens: list[str]) -> None:
        doc["sequences"][i] = list(tokens) if self.schema == "1" else " ".join(tokens)

    def put(self, doc: dict, i: int, t: int, token: str) -> None:
        """Replace slot t of sequence i (both 0-based) by token."""
        tokens = self.tokens(doc, i)
        tokens[t] = token
        self.set_row(doc, i, tokens)

    def save(self, sset: ScheduleSequenceSet, path) -> None:
        if self.schema == "2":
            save_set(sset, str(path))
        else:
            path.write_text(json.dumps(self.doc(sset)))


class _CodecCases(_SchemaDocs):
    def test_round_trip_constructed(self, tmp_path):
        sset = build_schedule_set(4, 2, W=2)
        path = tmp_path / "set.json"
        self.save(sset, path)
        again = load_set(str(path))
        assert again == sset
        assert again.params is not None
        assert again.params.deltas == sset.params.deltas

    def test_round_trip_handmade(self, three_node_set, tmp_path):
        path = tmp_path / "ref.json"
        self.save(three_node_set, path)
        assert load_set(str(path)) == three_node_set

    def test_round_trip_multi_digit_channels(self, tmp_path):
        # W=12: tokens T10..T12 and R10..R12 take two digits
        W = 12
        seqs = tuple(ScheduleSequence(
            np.array([g if t == g else -((t * 5 + g) % W + 1) for t in range(2 * W)],
                     dtype=np.int16), owner_group=g) for g in range(1, W + 1))
        sset = ScheduleSequenceSet(seqs)
        path = tmp_path / "wide.json"
        self.save(sset, path)
        text = path.read_text()
        assert "T12" in text and "R10" in text
        assert load_set(str(path)) == sset

    def test_reader_matches_symbol_oracle(self):
        # every token parsed one at a time by Symbol.from_str gives the codes
        rng = np.random.default_rng(11)
        sets = [random_set(rng, K, W, L) for K, W, L in
                ((2, 1, 1), (9, 9, 1), (5, 3, 17), (12, 9, 50), (14, 11, 40), (30, 4, 64))]
        # W=10: one row of a group below 10 keeps to channels 1..9, so it
        # alone is one digit wide
        wide = list(random_set(rng, 12, 10, 30).sequences)
        n = next(i for i, seq in enumerate(wide) if seq.owner_group < 10)
        wide[n] = ScheduleSequence(np.maximum(wide[n].codes, -9), wide[n].owner_group)
        sets.append(ScheduleSequenceSet(tuple(wide)))
        for sset in sets:
            doc = self.doc(sset)
            loaded = set_from_doc(doc)
            for i, seq in enumerate(loaded.sequences):
                want = [Symbol.from_str(tok).code for tok in self.tokens(doc, i)]
                assert seq.codes.tolist() == want
        # the edges the cases above must reach: whole rows of one token,
        # T9 and R9, and one-digit rows beside wider ones in one set
        one_slot, nine = self.doc(sets[1]), self.doc(sets[3])
        assert {len(self.tokens(one_slot, i)) for i in range(9)} == {1}
        assert {"T9", "R9"} <= {tok for i in range(12) for tok in self.tokens(nine, i)}
        widths = [{len(tok) for tok in self.tokens(self.doc(sets[-1]), i)} for i in range(12)]
        assert widths.pop(n) == {2} and all(3 in w for w in widths)

    def test_leading_zero_tokens_read_as_the_plain_channel(self, three_node_set):
        doc = self.doc(three_node_set)
        self.set_row(doc, 0, [tok[0] + "0" + tok[1:] for tok in self.tokens(doc, 0)])
        self.set_row(doc, 1, [tok[0] + "00" + tok[1:] for tok in self.tokens(doc, 1)])
        assert self.tokens(doc, 0)[:2] == ["T01", "T01"] and self.tokens(doc, 1)[1] == "R001"
        assert set_from_doc(doc) == three_node_set

    @pytest.mark.parametrize("token,message", [
        ("R0", "slot {t}: channel 0 outside 1..W=3"),
        ("r1", "bad symbol 'r1' in slot {t}, expected T<m> or R<r>"),
        ("R9", "slot {t}: channel 9 outside 1..W=3"),
    ])
    @pytest.mark.parametrize("t", [0, 9])
    def test_one_digit_row_with_a_bad_end_token(self, token, message, t):
        # the row keeps its one-digit length, so only its first or last
        # token tells it from a good one; the message names that slot
        doc = self.doc(random_set(np.random.default_rng(3), 4, 3, 10))
        self.put(doc, 1, t, token)
        with pytest.raises(SequenceSetFormatError) as err:
            set_from_doc(doc)
        assert str(err.value) == "sequence 2: " + message.format(t=t)

    @pytest.mark.parametrize("W", [0, -60])
    def test_division_below_one_leaves_every_channel_out_of_range(self, three_node_set, W):
        # the header checks pass (W = the largest entry <= M <= K), so the
        # rows are read against W < 1
        doc = self.doc(three_node_set)
        doc.update(M=1, W=W, division=[W] * 3)
        with pytest.raises(SequenceSetFormatError) as err:
            set_from_doc(doc)
        assert str(err.value) == f"sequence 1: slot 0: channel 1 outside 1..W={W}"

    @pytest.mark.parametrize("W", [3, 12])
    def test_loaded_codes_are_read_only_int16(self, W):
        loaded = set_from_doc(self.doc(random_set(np.random.default_rng(W), W + 2, W, 2 * W)))
        for seq in loaded.sequences:
            assert seq.codes.dtype == np.int16
            assert not seq.codes.flags.writeable
            with pytest.raises(ValueError):
                seq.codes[0] = 1

    def test_rejects_channel_beyond_W(self, three_node_set):
        doc = self.doc(three_node_set)
        self.put(doc, 0, 11, "R9")
        with pytest.raises(SequenceSetFormatError, match="sequence 1:"):
            set_from_doc(doc)

    def test_rejects_malformed_symbol(self, three_node_set):
        doc = self.doc(three_node_set)
        self.put(doc, 1, 0, "Q1")
        with pytest.raises(SequenceSetFormatError, match="sequence 2:"):
            set_from_doc(doc)

    def test_rejects_wrong_length(self, three_node_set):
        doc = self.doc(three_node_set)
        self.set_row(doc, 0, self.tokens(doc, 0)[:-1])
        with pytest.raises(SequenceSetFormatError, match="sequence 1:"):
            set_from_doc(doc)

    def test_rejects_transmit_outside_own_group(self, three_node_set):
        doc = self.doc(three_node_set)
        self.put(doc, 0, 0, "T2")  # node 1 owns group 1
        with pytest.raises(SequenceSetFormatError, match="sequence 1:"):
            set_from_doc(doc)

    @pytest.mark.parametrize("t,token", [
        (0, ""),            # leading space
        (-1, ""),           # trailing space
        (4, ""),            # doubled space
        (4, "R1 "),         # doubled space and one token too many
        (4, "R 1"),         # space inside a token
        (4, "R1\t"),
        (4, "r1"),
        (4, "T"),
        (4, "R-1"),
        (4, "R0"),
        (4, "R\u0661"),     # ARABIC-INDIC DIGIT ONE
        (4, "R\uff11"),     # FULLWIDTH DIGIT ONE
        (4, "R" + "0" * 30 + "1"),
    ])
    def test_rejects_bad_tokens(self, three_node_set, t, token):
        doc = self.doc(three_node_set)
        self.put(doc, 1, t, token)
        with pytest.raises(SequenceSetFormatError, match="sequence 2:"):
            set_from_doc(doc)

    @pytest.mark.parametrize("field", ["K", "M", "W", "L", "division", "w", "p", "q",
                                       "Lprime", "deltas"])
    @pytest.mark.parametrize("convert", [float, lambda v: v + 0.9, bool, str],
                             ids=["float", "fraction", "bool", "string"])
    def test_rejects_numbers_that_are_not_json_integers(self, field, convert):
        # int() would load 4.0, 4.9, true and "4" as 4
        doc = self.doc(build_schedule_set(4, 2, W=2))
        if field == "division":
            doc["division"][0] = convert(doc["division"][0])
        elif field == "deltas":
            doc["params"]["deltas"][-1] = convert(doc["params"]["deltas"][-1])
        elif field in doc:
            doc[field] = convert(doc[field])
        else:
            doc["params"][field] = convert(doc["params"][field])
        with pytest.raises(SequenceSetFormatError, match="must be an integer"):
            set_from_doc(doc)

    @pytest.mark.parametrize("change", ["short-deltas", "long-deltas", "zero-weight"])
    def test_rejects_params_that_do_not_fit_the_set(self, capsys, tmp_path, change):
        # deltas shorter than W once crashed verify --in with an IndexError
        doc = self.doc(build_schedule_set(4, 2, W=2))
        params = doc["params"]
        if change == "short-deltas":
            params["deltas"] = params["deltas"][:-1]
        elif change == "long-deltas":
            params["deltas"].append(0)
        else:
            params["w"] = 0
        path = tmp_path / "set.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SequenceSetFormatError, match="bad construction params"):
            load_set(str(path))
        out = str(tmp_path / "times.csv")
        for argv in (["verify"], ["simulate", "--runs", "1", "--out", out]):
            code, _, err = run_cli(capsys, *argv, "--in", str(path))
            assert code == 1 and err.startswith("error: bad construction params"), argv

    @pytest.mark.parametrize("K, W, change, message", [
        (4, 2, {"Lprime": 16}, r"Lprime must equal p\*q"),
        (4, 2, {"q": 8, "Lprime": 24}, "2W must be coprime with p"),
        (4, 2, {"q": 7, "Lprime": 21}, r"L must equal 2\*W\*p\*q"),
        (4, 2, {"deltas": [0, 5]}, "delta_2 has wrong CRT image"),
        (3, 1, {"q": 7, "Lprime": 21}, r"single-channel construction has L = p\*q"),
    ], ids=["Lprime", "2W-coprime", "L", "delta", "single-channel-L"])
    def test_rejects_params_the_construction_refuses(self, K, W, change, message):
        # each change passes CrtUiParams' own rule on w, p and q
        doc = self.doc(build_schedule_set(K, W, W=W))
        doc["params"].update(change)
        with pytest.raises(SequenceSetFormatError, match="bad construction params: " + message):
            set_from_doc(doc)

    @pytest.mark.parametrize("doc", [[], "set", None, 3], ids=["list", "str", "null", "int"])
    def test_rejects_a_document_that_is_not_an_object(self, doc):
        with pytest.raises(SequenceSetFormatError, match="one JSON object"):
            set_from_doc(doc)

    def test_a_set_check_is_a_format_error(self):
        # division [1, 1, 3] passes the header (W = 3 = M <= K) and every
        # row, but the set leaves group 2 empty
        doc = {"schema_version": "2", "K": 3, "M": 3, "W": 3, "L": 2, "params": None,
               "division": [1, 1, 3], "sequences": ["T1 R3", "R1 T1", "R2 T3"]}
        with pytest.raises(SequenceSetFormatError, match="owner groups 1..W") as err:
            set_from_doc(to_v1(doc) if self.schema == "1" else doc)
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize("version", [None, "", "3", 2, 1])
    def test_rejects_missing_or_unknown_version(self, three_node_set, version):
        doc = self.doc(three_node_set)
        if version is None:
            del doc["schema_version"]
        else:
            doc["schema_version"] = version
        with pytest.raises(SequenceSetFormatError, match="schema_version"):
            set_from_doc(doc)

    def test_rejects_sequences_not_in_a_list(self):
        # a one-slot set whose rows would read as the keys of an object
        doc = self.doc(ScheduleSequenceSet((
            ScheduleSequence(np.array([1], dtype=np.int16), 1),
            ScheduleSequence(np.array([-1], dtype=np.int16), 1))))
        doc["sequences"] = dict.fromkeys(r if isinstance(r, str) else r[0]
                                         for r in doc["sequences"])
        with pytest.raises(SequenceSetFormatError, match="K entries"):
            set_from_doc(doc)

    @pytest.mark.parametrize("M,W", [(-5, 2), (5, 2), (3, 3), (2, 1), (1, 2)],
                             ids=["M=-5", "M=K+1", "W=3 on W=2", "W=1 on W=2", "M<W"])
    def test_rejects_header_channel_counts(self, M, W):
        # Without params only the header carries M and W: W must be the
        # largest division entry and W <= M <= K.
        doc = self.doc(ScheduleSequenceSet(build_schedule_set(4, 2, W=2).sequences))
        doc["M"], doc["W"] = M, W
        with pytest.raises(SequenceSetFormatError, match="header"):
            set_from_doc(doc)

    def test_rejects_rows_of_the_other_version(self, three_node_set):
        doc = self.doc(three_node_set)
        other = "1" if self.schema == "2" else "2"
        doc["schema_version"] = other
        with pytest.raises(SequenceSetFormatError, match="sequence 1:"):
            set_from_doc(doc)


class TestSerialization(_CodecCases):
    def test_table_path_takes_one_digit_rows_only(self):
        # the other rows fall through to the digit loop, which the codec
        # tests above check for codes and messages
        def read(text, L, W):
            return _parse_one_digit(np.frombuffer(text.encode("ascii"), dtype=np.uint8), L, W)

        assert read("T1", 1, 1).tolist() == [1]
        assert read("T9 R1 R9", 3, 9).tolist() == [9, -1, -9]
        assert read("T2 R1 R9", 3, 12).tolist() == [2, -1, -9]
        for text in ("R0 T1 R2", "T1 R2 r1", "T1 R2 R4", "T1 R1\tR2", "T1 R1  R", "T10 R1 R",
                     "T1 R2 R\x00"):
            assert read(text, 3, 3) is None, text

    def test_doc_symbols_are_strings(self, three_node_set):
        doc = set_to_doc(build_schedule_set(3, 1))
        assert doc["schema_version"] == "2"
        assert all(isinstance(row, str) for row in doc["sequences"])
        assert doc["sequences"][0].split(" ")[0] == "T1"
        assert all(s[0] in "TR" for row in doc["sequences"] for s in row.split(" "))
        assert set_to_doc(three_node_set)["sequences"][0] == \
            "T1 T1 T1 T1 T1 T1 R1 R1 R1 R2 R2 R2"


class TestSerializationV1(_CodecCases):
    schema = "1"


def token_doc(sset: ScheduleSequenceSet) -> dict:
    """The schema-2 document written field by field, each row a per-token
    join of T<m> / R<r>."""
    params = sset.params
    return {
        "schema_version": "2", "K": sset.K, "M": params.M, "W": sset.W, "L": sset.L,
        "params": {"w": params.w, "p": params.p, "q": params.q,
                   "Lprime": params.Lprime, "deltas": list(params.deltas)},
        "division": [s.owner_group for s in sset.sequences],
        "sequences": [" ".join(f"T{c}" if c > 0 else f"R{-c}" for c in s.codes.tolist())
                      for s in sset.sequences],
    }


class TestSetFileBytes:
    @pytest.mark.parametrize("K,M,W", [(10, 2, 1), (18, 3, 2), (30, 5, 5), (24, 12, 12)])
    def test_file_is_json_dumps_of_the_token_doc(self, tmp_path, K, M, W):
        sset = build_schedule_set(K, M, W=W, seed=7)
        assert sset.W == W
        path = tmp_path / "set.json"
        save_set(sset, str(path))
        assert path.read_bytes() == (json.dumps(token_doc(sset)) + "\n").encode("ascii")
        assert set_to_doc(sset) == token_doc(sset)
        again = load_set(str(path))
        assert again == sset and again.params == sset.params

    def test_every_written_file_loads(self, tmp_path, three_node_set, two_node_set):
        rng = np.random.default_rng(5)
        sets = [three_node_set, two_node_set,
                *(build_schedule_set(K, M, W=W) for K, M, W in
                  [(2, 1, None), (4, 2, 2), (6, 3, 2), (10, 4, 1), (9, 3, 3), (18, 3, None)]),
                *(random_set(rng, K, W, L) for K, W, L in [(2, 1, 1), (5, 3, 17), (14, 11, 40)]),
                ScheduleSequenceSet(build_schedule_set(6, 3, W=2).sequences)]
        for n, sset in enumerate(sets):
            path = tmp_path / f"{n}.json"
            save_set(sset, str(path))
            again = load_set(str(path))
            assert again == sset and again.params == sset.params, n

    def test_handmade_set_without_params(self, three_node_set, tmp_path):
        path = tmp_path / "ref.json"
        save_set(three_node_set, str(path))
        assert path.read_text() == json.dumps(set_to_doc(three_node_set)) + "\n"
        assert load_set(str(path)) == three_node_set

    def test_failure_leaves_no_file(self, tmp_path):
        # numpy integers in the params make the header unserializable
        sset = build_schedule_set(4, 2, W=2)
        params = dataclasses.replace(
            sset.params, deltas=tuple(np.int64(d) for d in sset.params.deltas))
        bad = ScheduleSequenceSet(sset.sequences, params=params)
        path = tmp_path / "bad.json"
        with pytest.raises(TypeError):
            save_set(bad, str(path))
        assert not path.exists()


class TestGenerate:
    @pytest.mark.parametrize("K,M,want_W,want_L", [
        (18, 3, 3, 546),
        (3, 1, 1, 15),
        (24, 3, 3, 1122),
    ])
    def test_reports_choice(self, capsys, tmp_path, K, M, want_W, want_L):
        out_path = tmp_path / "s.json"
        code, out, _ = run_cli(capsys, "generate", "--K", str(K), "--M", str(M),
                               "--out", str(out_path))
        assert code == 0
        payload = last_json(out)
        assert payload["W"] == want_W and payload["L"] == want_L
        assert "Mprime" in payload and "lower_bound" in payload
        assert load_set(str(out_path)).L == want_L

    def test_explicit_W(self, capsys, tmp_path):
        out_path = tmp_path / "s.json"
        code, out, _ = run_cli(capsys, "generate", "--K", "4", "--M", "2",
                               "--W", "2", "--out", str(out_path))
        assert code == 0 and last_json(out)["L"] == 60

    def test_invalid_parameters_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "generate", "--K", "2", "--M", "5",
                               "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "error" in err


class _VerifyFileCases(_SchemaDocs):
    def test_corrupted_file_exit_1(self, capsys, tmp_path, three_node_set):
        doc = self.doc(three_node_set)
        self.put(doc, 0, 0, "T9")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", "--in", str(path))
        assert code == 1 and "error" in err

    def test_failing_set_exit_2_with_witness(self, capsys, tmp_path, three_node_set):
        doc = self.doc(three_node_set)
        self.set_row(doc, 2, ["T2"] * 12)  # receiver never listens
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                               "--mode", "exhaustive", "--threads", "1")
        assert code == 2
        witness = last_json(out)["witness"]
        assert witness is not None and "offsets" in witness


class TestVerify(_VerifyFileCases):
    def test_reference_set_exit_0(self, capsys, tmp_path, three_node_set):
        path = tmp_path / "ref.json"
        save_set(three_node_set, str(path))
        code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                               "--mode", "exhaustive", "--threads", "1")
        assert code == 0
        assert last_json(out)["verdict"] == "proven"

    def test_generated_set_exit_0(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        run_cli(capsys, "generate", "--K", "4", "--M", "2", "--W", "2",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                               "--mode", "exhaustive", "--threads", "1")
        assert code == 0

    def test_unparseable_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "verify", "--in", str(path))
        assert code == 1

    def test_budget_exhaustion_exit_3(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        run_cli(capsys, "generate", "--K", "10", "--M", "2", "--out", str(path))
        code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                               "--mode", "exhaustive", "--threads", "1")
        assert code == 3
        assert last_json(out)["verdict"] == "unknown"

    @pytest.mark.parametrize("seed, code", [(0, 3), (3, 2)])
    def test_randomized_threads_print_the_same(self, capsys, tmp_path, seed, code):
        # Two nodes that each send in one slot of 1500 fail only at equal
        # offsets; seed 3 first meets that in the second draw of 512, which
        # the second of two workers holds, and seed 0 never does.
        row = -np.ones(1500, dtype=np.int16)
        row[0] = 1
        path = tmp_path / "pair.json"
        save_set(ScheduleSequenceSet((ScheduleSequence(row, 1), ScheduleSequence(row, 1))),
                 str(path))
        outs = [run_cli(capsys, "verify", "--in", str(path), "--mode", "randomized",
                        "--samples", "1100", "--seed", str(seed), "--threads", threads)
                for threads in ("1", "2")]
        assert outs[0] == outs[1]
        assert outs[0][0] == code

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_randomized_without_samples_exit_1(self, capsys, tmp_path, three_node_set, samples):
        path = tmp_path / "ref.json"
        save_set(three_node_set, str(path))
        code, out, err = run_cli(capsys, "verify", "--in", str(path),
                                 "--mode", "randomized", "--samples", samples)
        assert code == 1 and "samples" in err and out == ""

    @pytest.mark.parametrize("mode", ["exhaustive", "conservative", "randomized"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_fewer_than_one_thread_exit_1(self, capsys, tmp_path, three_node_set, mode,
                                          threads):
        path = tmp_path / "ref.json"
        save_set(three_node_set, str(path))
        code, out, err = run_cli(capsys, "verify", "--in", str(path), "--mode", mode,
                                 "--threads", threads)
        assert (code, out) == (1, "") and f"threads must be >= 1, got {threads}" in err

    def test_conservative_mode(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        run_cli(capsys, "generate", "--K", "4", "--M", "2", "--W", "2",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                               "--mode", "conservative", "--threads", "1")
        assert code == 0
        assert last_json(out)["verdict"] == "proven_conservative"


def page_faults(argv: list[str], keep: bool) -> int:
    """Minor page faults of a fresh interpreter running the CLI once, with
    or without the malloc settings of cli.main.

    Without them the child runs at glibc's default thresholds, given
    explicitly: that turns off glibc's dynamic threshold growth, which
    otherwise hides or shows the trimming depending on the byte lengths
    of the child's argv and environment."""
    code = ("import sys\nfrom schedseq import cli\n"
            "if sys.argv[1] == 'off':\n    cli._keep_freed_heap = lambda: False\n"
            "cli.main(sys.argv[2:])\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    if not keep:
        env["GLIBC_TUNABLES"] = ("glibc.malloc.mmap_threshold=131072:"
                                 "glibc.malloc.trim_threshold=131072")
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, "-c", code, "on" if keep else "off", *argv], env=env,
                   check=False, stdout=subprocess.DEVNULL)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the C library is not glibc")
def test_kernel_batches_do_not_fault_the_heap_back_in(tmp_path):
    # Without the settings, every batch of a randomized verify gives its
    # arrays back to the OS and faults them in again: 1100 samples at K=18
    # took about 23000 faults against 5800 with them, nearly all of those
    # at start-up.
    path = str(tmp_path / "k18.json")
    save_set(build_schedule_set(18, 3, W=3), path)
    argv = ["verify", "--in", path, "--mode", "randomized", "--samples", "1100",
            "--threads", "1"]
    assert 2 * page_faults(argv, keep=True) < page_faults(argv, keep=False)


def test_importing_the_cli_loads_no_process_pool():
    # The worker pool is imported only when work is split over processes.
    code = ("import sys\nimport schedseq.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"



def test_importing_the_cli_loads_no_numpy_random():
    # numpy.random is imported by the commands that draw, not at start-up
    code = "import sys\nimport schedseq.cli\nprint('numpy.random' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

class TestVerifyV1(_VerifyFileCases):
    schema = "1"


class TestBound:
    def test_worked_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--K", "70", "--M", "4")
        payload = last_json(out)
        assert code == 0
        assert payload["combined"] == 857
        assert payload["ratio"] == 6.56

    def test_single_member_groups(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--K", "5", "--M", "5")
        assert last_json(out)["combined"] == 16

    def test_ratio_row(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "--K", "60", "--M", "3")
        assert last_json(out)["ratio"] == 6.18

    @pytest.mark.parametrize("argv", [["--K", "5", "--M", "3", "--W", "0"],
                                      ["--K", "5", "--M", "0"]])
    def test_no_channels_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, "bound", *argv)
        assert code == 1 and err.startswith("error:") and out == ""


class TestFramelen:
    def test_reference_value(self, capsys):
        _, out, _ = run_cli(capsys, "framelen", "--K", "15")
        assert last_json(out)["L_rand"] == 656

    def test_cdf_at(self, capsys):
        _, out, _ = run_cli(capsys, "framelen", "--K", "10", "--cdf-at", "209")
        payload = last_json(out)
        assert payload["L_rand"] == 406
        assert abs(payload["cdf_at"]["probability"] - 0.9769) < 1e-4

    def test_loose_target(self, capsys):
        _, out, _ = run_cli(capsys, "framelen", "--K", "2", "--target", "0.5")
        assert last_json(out)["L_rand"] == 5

    def test_grid_size(self, capsys):
        code, out, _ = run_cli(capsys, "framelen", "--K", "150")
        assert code == 0 and last_json(out)["L_rand"] == 8738

    def test_oversized_chain_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "framelen", "--K", "5000")
        assert code == 1


class TestSimulate:
    def test_random_needs_K(self, capsys, tmp_path):
        csv_path = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, "simulate", "--random", "--W", "2", "--runs", "5",
                               "--threads", "1", "--out", str(csv_path))
        assert code == 1 and err.startswith("error: --random needs --K")
        assert not csv_path.exists()

    def test_sequence_run_within_period(self, capsys, tmp_path):
        set_path = tmp_path / "s.json"
        run_cli(capsys, "generate", "--K", "4", "--M", "2", "--W", "2",
                "--out", str(set_path))
        csv_path = tmp_path / "sim.csv"
        code, out, _ = run_cli(capsys, "simulate", "--in", str(set_path),
                               "--runs", "100", "--seed", "1", "--threads", "1",
                               "--out", str(csv_path))
        assert code == 0
        payload = last_json(out)
        assert payload["censored_mass"] == 0.0
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "run_index,completion_time,censored_flag"
        assert len(rows) == 101
        assert max(int(r.split(",")[1]) for r in rows[1:]) <= 60

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        set_path = tmp_path / "s.json"
        run_cli(capsys, "generate", "--K", "4", "--M", "2", "--W", "2",
                "--out", str(set_path))
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run_cli(capsys, "simulate", "--in", str(set_path), "--runs", "50",
                    "--seed", "7", "--threads", "1", "--out", str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_bytes_equal_a_row_by_row_writer(self, capsys, tmp_path):
        # a short slot cap censors some runs, so both flags appear
        K, W, runs = 6, 2, 300
        csv_path = tmp_path / "g.csv"
        code, _, _ = run_cli(capsys, "simulate", "--random", "--scheme", "general",
                             "--K", str(K), "--W", str(W), "--runs", str(runs), "--seed", "5",
                             "--max-slots", "40", "--threads", "1", "--out", str(csv_path))
        assert code == 0
        scheme = GeneralRandomScheme(GeneralRandomParams(W, K, optimize_random(W, K, "general")[0]))
        res = simulate(SimConfig(scheme, runs=runs, seed=5, max_slots=40))
        assert 0 < res.censored.sum() < runs
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["run_index", "completion_time", "censored_flag"])
        for r in range(res.runs):
            writer.writerow([r, int(res.completion_times[r]), int(res.censored[r])])
        got = csv_path.read_bytes()
        assert got == want.getvalue().encode()
        assert got.count(b"\r\n") == runs + 1

    def test_random_scheme(self, capsys, tmp_path):
        csv_path = tmp_path / "r.csv"
        code, out, _ = run_cli(capsys, "simulate", "--random", "--K", "6",
                               "--W", "1", "--runs", "60", "--seed", "2",
                               "--threads", "1", "--out", str(csv_path))
        assert code == 0
        assert last_json(out)["runs"] == 60

    @pytest.mark.parametrize("W", [2, 3])
    def test_general_random_scheme(self, capsys, tmp_path, W):
        # the CLI runs the general scheme at its optimal p: the library's
        # simulate of that scheme gives the same completion times
        K = 6
        csv_path = tmp_path / "g.csv"
        code, out, _ = run_cli(capsys, "simulate", "--random", "--scheme", "general",
                               "--K", str(K), "--W", str(W), "--runs", "40", "--seed", "3",
                               "--threads", "1", "--out", str(csv_path))
        assert code == 0
        scheme = GeneralRandomScheme(GeneralRandomParams(W, K, optimize_random(W, K, "general")[0]))
        want = simulate(SimConfig(scheme, runs=40, seed=3))
        rows = [r.split(",") for r in csv_path.read_text().strip().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == want.completion_times.tolist()
        assert [int(r[2]) for r in rows] == want.censored.astype(int).tolist()
        assert last_json(out)["mean"] == float(want.completion_times.mean())

    def test_random_scheme_past_forty_nodes(self, capsys, tmp_path):
        # the default slot cap is 20 frame lengths, 20 * 3174 at K=60
        code, out, _ = run_cli(capsys, "simulate", "--random", "--K", "60",
                               "--runs", "2", "--threads", "1",
                               "--out", str(tmp_path / "r60.csv"))
        assert code == 0
        assert last_json(out)["max_slots"] == 20 * 3174

    def test_nonpositive_max_slots_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--random", "--K", "6",
                               "--runs", "2", "--max-slots", "0",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 1 and "max_slots" in err

    @pytest.mark.parametrize("offsets", ["uniform", "zero"])
    def test_negative_seed_exit_1(self, capsys, tmp_path, offsets):
        set_path = tmp_path / "s.json"
        run_cli(capsys, "generate", "--K", "4", "--M", "2", "--W", "2",
                "--out", str(set_path))
        code, out, err = run_cli(capsys, "simulate", "--in", str(set_path), "--runs", "5",
                                 "--seed", "-1", "--offsets", offsets, "--threads", "1",
                                 "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (1, "") and "seed must be >= 0" in err

    @pytest.mark.parametrize("source", [["--in"], ["--random", "--K", "6"]], ids=["in", "random"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_fewer_than_one_thread_exit_1(self, capsys, tmp_path, source, threads):
        if source == ["--in"]:
            set_path = tmp_path / "s.json"
            run_cli(capsys, "generate", "--K", "4", "--M", "2", "--W", "2",
                    "--out", str(set_path))
            source = ["--in", str(set_path)]
        csv_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "simulate", *source, "--runs", "5",
                                 "--threads", threads, "--out", str(csv_path))
        assert (code, out) == (1, "") and f"threads must be >= 1, got {threads}" in err
        assert not csv_path.exists()

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--runs", "5",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 1 and "error" in err
