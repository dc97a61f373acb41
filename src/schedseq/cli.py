"""Command-line front-end and the on-disk sequence-set format.

Subcommands: generate, verify, bound, framelen, simulate.  Structured
artifacts are JSON with a schema version; per-run simulation data goes
to CSV.  All randomness flows from explicit --seed flags.

Verify exit codes: 0 proven, 2 refuted with witness, 3 unknown, 1 bad
input or parameters.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import functools
import json
import os
import sys
from typing import Any

import numpy as np

from . import kernel
from .constructor import (
    ConstructionParams,
    ScheduleSequenceSet,
    build_schedule_set,
    check_rows,
    m_prime,
    select_params,
)
from .random_schemes import (
    AssignTRandomParams,
    CouponModel,
    GeneralRandomParams,
    frame_length,
    group_cdf,
    optimal_single_channel,
    optimize_random,
)
from .seqcore import GroupDivision
from .simulator import (
    AssignTRandomScheme,
    GeneralRandomScheme,
    SequenceScheme,
    SimConfig,
    completion_histogram,
    simulate,
)
from .verifier import Verdict, lower_bound, period_bounds, verify_set

SCHEMA_VERSION = "1"      # JSON payloads the commands print
SET_SCHEMA_VERSION = "2"  # set files written by save_set; load_set also reads "1"

# Bytes of the token grammar T<m> / R<r>, tokens separated by single spaces.
_SPACE, _ZERO, _T, _R = (ord(c) for c in " 0TR")
# Longest channel number read: 18 digits keep every value inside int64.
_MAX_CHANNEL_DIGITS = 18


class SequenceSetFormatError(ValueError):
    """Raised when a sequence-set document violates the file schema."""


def _block_rows(L: int) -> int:
    """Rows per codec block: numpy's intp copy of a block's (rows, L) index
    array stays within kernel.BATCH_BYTES."""
    return max(1, kernel.BATCH_BYTES // (8 * L))


def _token_pairs(W: int) -> np.ndarray:
    """'<u2' table, W <= 9: entry c mod 2W+1 holds the two bytes (kind,
    digit) of code c's token, so that int16 codes index it with wrap."""
    pairs = np.zeros(2 * W + 1, dtype="<u2")
    for c in range(1, W + 1):
        pairs[c] = _T | (_ZERO + c) << 8
        pairs[-c] = _R | (_ZERO + c) << 8
    return pairs


def _token_table(W: int) -> np.ndarray:
    """(2W+1, width) byte table: row c mod 2W+1 holds the token of code c
    and a trailing space, NUL-padded to a common width (code 0 has none)."""
    width = len(str(W)) + 2
    table = np.zeros((2 * W + 1, width), dtype=np.uint8)
    for c in range(-W, W + 1):
        if c:
            token = (f"R{-c} " if c < 0 else f"T{c} ").encode("ascii")
            table[c, :len(token)] = np.frombuffer(token, dtype=np.uint8)
    return table


def _encode_rows(codes: np.ndarray, W: int) -> list[str]:
    """The token string of each row of a (K, L) code matrix, a block of
    rows at a time.

    With W <= 9 every token is three bytes with its space, so a block is
    one stride-3 store of the tokens' (kind, digit) pairs into a buffer
    whose every third byte was made a space once.  Wider sets take the
    NUL-padded token table and drop the padding.  The table would serve
    every W, but numpy copies its 3-byte rows one memmove each: at K=150
    it took 14 ms where the stride store takes 7 ms (BENCH_32.json).
    """
    K, L = codes.shape
    step = _block_rows(L)
    rows: list[str] = []
    if W <= 9:
        pairs = _token_pairs(W)
        buf = np.empty(3 * L * min(step, K), dtype=np.uint8)
        buf[2::3] = _SPACE
        text = memoryview(buf)
        for lo in range(0, K, step):
            block = codes[lo:lo + step]
            slots = np.ndarray(block.shape, "<u2", buf, strides=(3 * L, 3))
            slots[...] = np.take(pairs, block, mode="wrap")
            rows += [str(text[3 * L * r:3 * L * (r + 1) - 1], "ascii")
                     for r in range(len(block))]
        return rows
    table = _token_table(W)
    for lo in range(0, K, step):
        tokens = np.take(table, codes[lo:lo + step], axis=0, mode="wrap")
        kept = tokens != 0
        ends = np.cumsum(kept.sum(axis=(1, 2))).tolist()
        text = tokens[kept].tobytes()
        rows += [text[a:b - 1].decode("ascii") for a, b in zip([0, *ends], ends)]
    return rows


def set_to_doc(sset: ScheduleSequenceSet) -> dict[str, Any]:
    """Schema-2 document: each sequence is one string of space-separated
    tokens, T<m> for transmit on channel m and R<r> for listen to channel r."""
    params = sset.params
    W = sset.W
    doc: dict[str, Any] = {
        "schema_version": SET_SCHEMA_VERSION,
        "K": sset.K,
        "M": params.M if params is not None else W,
        "W": W,
        "L": sset.L,
        "params": None,
        "division": list(sset.division.assignment),
        "sequences": _encode_rows(sset.codes, W),
    }
    if params is not None:
        doc["params"] = {
            "w": params.w, "p": params.p, "q": params.q,
            "Lprime": params.Lprime, "deltas": list(params.deltas),
        }
    return doc


@functools.cache
def _pair_codes() -> np.ndarray:
    """65536-entry int16 table indexed by a token's two bytes read as one
    little-endian '<u2' (kind, digit): T<d> gives d and R<d> gives -d for
    d in 1..9, every other pair 0."""
    table = np.zeros(1 << 16, dtype=np.int16)
    d = np.arange(1, 10)
    table[_T | (_ZERO + d) << 8] = d
    table[_R | (_ZERO + d) << 8] = -d
    table.setflags(write=False)
    return table


def _read_block(rows: list, L: int, W: int, out: np.ndarray) -> list[int]:
    """Read the rows that are L one-digit tokens (T<d> or R<d>, d in
    1..min(W, 9), single spaces) into the same rows of out; return the
    indices of the other rows, for the digit loop.

    The ASCII rows of 3L - 1 characters are joined by spaces into one byte
    string, whose tokens are read as a stride-3 '<u2' view through one
    table of the digits 1..9; the rest of the bytes must be spaces, and a
    row with a channel above W is left to the digit loop.
    """
    fast, left = [], []
    for i, row in enumerate(rows):
        one_digit = isinstance(row, str) and len(row) == 3 * L - 1 and row.isascii()
        (fast if one_digit else left).append(i)
    n = len(fast)
    if not n:
        return left
    text = " ".join(rows if not left else [rows[i] for i in fast]).encode("ascii")
    pairs = np.ndarray((n, L), "<u2", text, strides=(3 * L, 3))
    table = _pair_codes()
    codes = np.take(table, pairs, out=out) if not left else np.take(table, pairs)
    if (np.count_nonzero(codes) < n * L
            or (W < 9 and (codes.min() < -W or codes.max() > W))
            or np.count_nonzero(np.frombuffer(text, np.uint8) == _SPACE) < n * L - 1):
        spaces = np.ndarray((n, L - 1), np.uint8, text, offset=2, strides=(3 * L, 3))
        good = (codes.all(axis=1) & (spaces == _SPACE).all(axis=1)
                & (np.abs(codes) <= W).all(axis=1))
        left = sorted(left + [i for i, ok in zip(fast, good) if not ok])
        fast, codes = [i for i, ok in zip(fast, good) if ok], codes[good]
    if codes is not out:
        out[fast] = codes
    return left


def _parse_tokens(text: str, L: int, W: int) -> np.ndarray:
    """int16 codes of one row of exactly L space-separated tokens T<m>/R<r>,
    every channel in 1..W; raises ValueError naming the first bad token.

    This general digit loop reads the rows that _read_block leaves (wider
    channels, leading zeros, bad tokens), and alone raises.
    """
    try:
        buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError as exc:
        raise ValueError(f"non-ASCII character {text[exc.start]!r}") from None
    spaces = np.flatnonzero(buf == _SPACE)
    if spaces.size + 1 != L:
        raise ValueError(f"{spaces.size + 1} slots, expected {L}")
    starts = np.concatenate(([0], spaces + 1))
    ends = np.concatenate((spaces, [buf.size]))
    n_digits = ends - starts - 1
    bad = (n_digits < 1) | (n_digits > _MAX_CHANNEL_DIGITS)
    kinds = np.zeros(L, dtype=np.uint8)
    kinds[~bad] = buf[starts[~bad]]
    bad |= (kinds != _T) & (kinds != _R)
    # Horner's rule over digit places; the loop runs once per digit of the
    # longest channel number, and reads every byte between kind and space.
    channels = np.zeros(L, dtype=np.int64)
    for d in range(int(n_digits[~bad].max(initial=0))):
        has = ~bad & (n_digits > d)
        digit = buf[np.where(has, starts + 1 + d, 0)] - np.uint8(_ZERO)  # wraps below '0'
        bad |= has & (digit > 9)
        channels = np.where(has, channels * 10 + digit, channels)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"bad symbol {text[starts[k]:ends[k]]!r} in slot {k}, "
                         "expected T<m> or R<r>")
    out_of_range = (channels < 1) | (channels > W)
    if out_of_range.any():
        k = int(out_of_range.argmax())
        raise ValueError(f"slot {k}: channel {channels[k]} outside 1..W={W}")
    return np.where(kinds == _T, channels, -channels).astype(np.int16)


def _parse_row(row: Any, version: str, L: int, W: int) -> np.ndarray:
    """The codes of one row of either schema by the digit loop; raises
    TypeError or ValueError on the first fault."""
    row_type = list if version == "1" else str
    if not isinstance(row, row_type):
        raise ValueError(f"schema {version} stores a sequence as a "
                         f"{row_type.__name__}, got {type(row).__name__}")
    if version == "1":
        if len(row) != L:
            raise ValueError(f"{len(row)} slots, expected {L}")
        # An element holding a space, or an empty one, changes the token
        # count or leaves an empty token: both are rejected.
        row = " ".join(row)
    return _parse_tokens(row, L, W)


def _joined(row: Any) -> str | None:
    """A schema-1 row's tokens as one string, or None when it is not a
    list of strings."""
    try:
        return " ".join(row) if isinstance(row, list) else None
    except TypeError:
        return None


def _read_rows(raw: list, version: str, L: int, W: int, groups: list[int]) -> np.ndarray:
    """The (K, L) int16 codes of a document's rows.

    Blocks of rows go through _read_block, and each row it leaves through
    the digit loop, in file order.  A row the loop rejects raises
    ValueError "sequence <i>: ..." only after the rows before it pass
    check_rows, so the first faulty row in file order is the one named.
    Rows from the first that cannot hold L tokens on are left to that
    row's error, so a header L far beyond the rows allocates nothing.
    """
    def holds(row: Any) -> bool:
        if version == "1":
            return isinstance(row, list) and len(row) == L
        return isinstance(row, str) and len(row) >= 2 * L - 1

    n = next((i for i, row in enumerate(raw) if not holds(row)), len(raw)) if L >= 1 else 0
    codes = np.empty((n, L if n else 0), dtype=np.int16)
    step = _block_rows(L) if n else 1
    left = []
    for lo in range(0, n, step):
        block = raw[lo:min(lo + step, n)]
        if version == "1":
            block = [_joined(row) for row in block]
        left += [lo + i for i in _read_block(block, L, W, codes[lo:lo + step])]
    for i in left + ([n] if n < len(raw) else []):
        try:
            row = _parse_row(raw[i], version, L, W)
        except (TypeError, ValueError) as exc:
            check_rows(codes[:i], groups[:i])
            raise ValueError(f"sequence {i + 1}: {exc}") from exc
        codes[i] = row
    return codes


def _json_int(value: Any, name: str) -> int:
    """value when it is a JSON integer: floats, bools and strings are refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def set_from_doc(doc: dict[str, Any]) -> ScheduleSequenceSet:
    """Read a schema-1 (one token list per sequence) or schema-2 (one token
    string per sequence) document; both go through one token reader, and
    the set checks the code matrix once (ScheduleSequenceSet.from_codes)."""
    if not isinstance(doc, dict):
        raise SequenceSetFormatError("a set file holds one JSON object")
    version = doc.get("schema_version")
    if version not in ("1", "2"):
        raise SequenceSetFormatError(
            f"unsupported schema_version {version!r}, expected \"1\" or \"2\"")
    try:
        K, M, W, L = (_json_int(doc[k], k) for k in ("K", "M", "W", "L"))
        division = [_json_int(g, "division entry") for g in doc["division"]]
        raw_seqs = doc["sequences"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SequenceSetFormatError(f"malformed document: {exc}") from exc
    if not isinstance(raw_seqs, list) or len(division) != K or len(raw_seqs) != K:
        raise SequenceSetFormatError("division and sequences must list K entries")
    if W != max(division, default=None) or not W <= M <= K:
        raise SequenceSetFormatError(
            f"header W={W}, M={M}: need W = the largest division entry <= M <= K={K}")
    # Every entry below 1 is refused alike; clipped, each fits in int64.
    groups = [max(g, 0) for g in division]
    try:
        codes = _read_rows(raw_seqs, version, L, W, groups)
        params = None
        if doc.get("params") is not None:
            p = doc["params"]
            try:
                params = ConstructionParams(
                    K=K, M=M, W=W, division=GroupDivision(tuple(division)),
                    w=_json_int(p["w"], "w"), p=_json_int(p["p"], "p"),
                    q=_json_int(p["q"], "q"), Lprime=_json_int(p["Lprime"], "Lprime"), L=L,
                    deltas=tuple(_json_int(d, "delta") for d in p["deltas"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                check_rows(codes, groups)  # a faulty row is reported first
                raise ValueError(f"bad construction params: {exc}") from exc
        return ScheduleSequenceSet.from_codes(codes, groups, params=params)
    except ValueError as exc:
        raise SequenceSetFormatError(str(exc)) from exc


def save_set(sset: ScheduleSequenceSet, path: str) -> None:
    """Write the set as the bytes json.dumps(set_to_doc(sset)) + "\n" gives.

    set_to_doc puts "sequences" last and its rows hold only [TR0-9 ], which
    JSON writes unescaped, so the header goes through json.dumps and each
    row is quoted as it is written; every step that can raise runs before
    the file is opened.
    """
    doc = set_to_doc(sset)
    head = json.dumps({**doc, "sequences": []})[:-2]  # ends in '"sequences": ['
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for i, row in enumerate(doc["sequences"]):
            fh.write('"' if i == 0 else ', "')
            fh.write(row)
            fh.write('"')
        fh.write("]}\n")


def _read_text(path: str) -> str:
    """A file's UTF-8 text, read in pieces of kernel.BATCH_BYTES: no
    file-sized byte buffer is held beside the text, so the text needs one
    hole of the file's size in the heap, not two.

    This saves no memory the program holds; it only changes where glibc
    places the large buffers of a load.  It is kept because, with the file
    read whole, the K=150 benchmark's peak RSS rose above the row-by-row
    reader's in most runs (see BENCH_32.json).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return "".join(iter(lambda: fh.read(kernel.BATCH_BYTES), ""))
        except UnicodeDecodeError:
            fh.seek(0)
            fh.read()  # raises the error at its position in the whole file
            raise


def load_set(path: str) -> ScheduleSequenceSet:
    # The text is freed before set_from_doc runs, so the code matrix can
    # take its place in the heap.
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise SequenceSetFormatError(f"not valid JSON: {exc}") from exc
    return set_from_doc(doc)


def _emit(payload: dict[str, Any]) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    sys.stdout.write(json.dumps(payload) + "\n")


def _cmd_generate(args: argparse.Namespace) -> int:
    sset = build_schedule_set(args.K, args.M, W=args.W, seed=args.seed)
    save_set(sset, args.out)
    params = sset.params
    assert params is not None
    bound = max(period_bounds(params.W, params.division.k_min))
    _emit({"K": args.K, "M": args.M, "W": params.W, "L": params.L,
           "Mprime": m_prime(args.K), "lower_bound": bound, "out": args.out})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    sset = load_set(getattr(args, "in"))
    report = verify_set(sset, mode=args.mode, samples=args.samples,
                        seed=args.seed, budget=args.budget, threads=args.threads)
    witness = None
    if report.witness is not None:
        witness = {
            "transmitter": report.witness.transmitter,
            "receiver": report.witness.receiver,
            "offsets": {str(node): tau for node, tau in sorted(report.witness.offsets.items())},
        }
    _emit({"verdict": report.verdict.value, "method": report.method.value,
           "pairs_checked": report.pairs_checked, "witness": witness})
    return {Verdict.PROVEN: 0, Verdict.PROVEN_CONSERVATIVE: 0,
            Verdict.FAILED_WITH_WITNESS: 2}.get(report.verdict, 3)


def _cmd_bound(args: argparse.Namespace) -> int:
    W = args.W if args.W is not None else args.M
    if W < 1:
        raise ValueError(f"need W >= 1 channels, got W={W}")
    k = args.K // W
    report = lower_bound(W, k, args.M, args.K, improved_remark=args.improved_remark)
    payload: dict[str, Any] = {
        "K": args.K, "M": args.M, "W": W, "k": k,
        "bound_blocking": report.bound_blocking,
        "bound_counting": report.bound_counting,
        "combined": report.combined,
        "Mprime": m_prime(args.K),
    }
    if W == args.M and args.M <= m_prime(args.K):
        constructed = select_params(args.K, args.M, args.M).L
        payload["constructed_L"] = constructed
        if report.combined > 0:
            payload["ratio"] = round(constructed / report.combined, 2)
    _emit(payload)
    return 0


def _cmd_framelen(args: argparse.Namespace) -> int:
    p_star, P_star = optimal_single_channel(args.K)
    model = CouponModel.from_optimal(args.K)
    payload: dict[str, Any] = {
        "K": args.K, "target": args.target,
        "L_rand": frame_length(args.K, args.target, model),
        "p_star": p_star, "P_star": P_star,
    }
    if args.cdf_at is not None:
        payload["cdf_at"] = {"L": args.cdf_at, "probability": group_cdf(model, args.cdf_at)}
    _emit(payload)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if (getattr(args, "in") is None) == (not args.random):
        raise ValueError("choose exactly one of --in PATH or --random")
    if args.random:
        if args.K is None:
            raise ValueError("--random needs --K")
        W = args.W if args.W is not None else 1
        if args.scheme == "general":
            kind, Params, Scheme = "general", GeneralRandomParams, GeneralRandomScheme
        else:
            kind, Params, Scheme = "assign_t", AssignTRandomParams, AssignTRandomScheme
        scheme = Scheme(Params(W, args.K, optimize_random(W, args.K, kind)[0]))
    else:
        scheme = SequenceScheme(load_set(getattr(args, "in")))
    config = SimConfig(scheme=scheme, runs=args.runs, seed=args.seed,
                       max_slots=args.max_slots, offset_mode=args.offsets)
    result = simulate(config, threads=args.threads)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_index", "completion_time", "censored_flag"])
        writer.writerows(zip(range(result.runs), result.completion_times.tolist(),
                             result.censored.astype(int).tolist()))
    hist = completion_histogram(result)
    _emit({
        "runs": result.runs, "seed": result.seed, "max_slots": result.max_slots,
        "mean": hist.mean,
        "quantiles": {str(q): v for q, v in hist.quantiles.items()},
        "censored_mass": hist.censored_mass,
        "pmf": [[v, p] for v, p in zip(hist.values, hist.pmf)],
        "out": args.out,
    })
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: parse_args
    leaves it unchanged, and building it costs more than most commands."""
    parser = argparse.ArgumentParser(
        prog="schedseq",
        description="Construct, verify, bound and simulate broadcast schedule sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="construct a schedule sequence set")
    g.add_argument("--K", type=int, required=True)
    g.add_argument("--M", type=int, required=True)
    g.add_argument("--W", type=int, default=None,
                   help="employed channels; default: period-minimizing choice")
    g.add_argument("--seed", type=int, default=None,
                   help="shuffle which generator ranks each group keeps")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    v = sub.add_parser("verify", help="check the guarantee for a stored set")
    v.add_argument("--in", required=True)
    v.add_argument("--mode", choices=["exhaustive", "conservative", "randomized"],
                   default="exhaustive")
    v.add_argument("--samples", type=int, default=10 ** 5)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--budget", type=int, default=10 ** 9,
                   help="offset combinations allowed per pair")
    v.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bound", help="closed-form period lower bounds")
    b.add_argument("--K", type=int, required=True)
    b.add_argument("--M", type=int, required=True)
    b.add_argument("--W", type=int, default=None)
    b.add_argument("--improved-remark", action="store_true",
                   help="tightened variant valid when transmit counts are multiples of W")
    b.set_defaults(func=_cmd_bound)

    f = sub.add_parser("framelen", help="random-scheme frame length")
    f.add_argument("--K", type=int, required=True)
    f.add_argument("--target", type=float, default=0.99999)
    f.add_argument("--cdf-at", type=int, default=None,
                   help="also report the completion probability at this slot count")
    f.set_defaults(func=_cmd_framelen)

    s = sub.add_parser("simulate", help="Monte-Carlo broadcast completion times")
    s.add_argument("--in", default=None, help="sequence-set JSON file")
    s.add_argument("--random", action="store_true", help="optimized random scheme")
    s.add_argument("--scheme", choices=["assignt", "general"], default="assignt")
    s.add_argument("--K", type=int, default=None)
    s.add_argument("--W", type=int, default=None)
    s.add_argument("--runs", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-slots", type=int, default=None)
    s.add_argument("--offsets", choices=["uniform", "zero"], default="uniform")
    s.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_simulate)
    return parser


# glibc's mallopt parameter numbers.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_heap() -> bool:
    """Keep freed heap memory in the process instead of faulting it back in.

    glibc gives the top of its heap back to the OS once more than a trim
    threshold of it is free.  That threshold starts at 128 KiB and grows
    only when a large mmapped block happens to be freed, so the collision
    kernel's per-batch arrays could be given back and faulted in again
    after every batch: a quarter of the CPU time of a fresh K=18
    randomized verify.  The values set here are those glibc's own rule
    reaches after a 32 MiB block is freed.  Returns whether the C library
    took them; other C libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library, or not glibc's
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 64 << 20))


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SequenceSetFormatError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
