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

from .constructor import (
    ConstructionParams,
    ScheduleSequenceSet,
    build_schedule_set,
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
from .seqcore import GroupDivision, ScheduleSequence
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


def _token_table(W: int) -> np.ndarray:
    """(2W+1, width) byte table: row code+W holds the token of code and a
    trailing space, NUL-padded to a common width (code 0 has no token)."""
    width = len(str(W)) + 2
    table = np.zeros((2 * W + 1, width), dtype=np.uint8)
    for c in range(-W, W + 1):
        if c:
            token = (f"R{-c} " if c < 0 else f"T{c} ").encode("ascii")
            table[c + W, :len(token)] = np.frombuffer(token, dtype=np.uint8)
    return table


def set_to_doc(sset: ScheduleSequenceSet) -> dict[str, Any]:
    """Schema-2 document: each sequence is one string of space-separated
    tokens, T<m> for transmit on channel m and R<r> for listen to channel r."""
    params = sset.params
    W = sset.W
    table = _token_table(W)
    # One index and one byte buffer serve every row: fresh row-sized arrays
    # would cost a page fault per 4 KiB each time.
    index = np.empty(sset.L, dtype=np.intp)
    buf = np.empty((sset.L, table.shape[1]), dtype=np.uint8)
    rows = []
    for seq in sset.sequences:
        np.add(seq.codes, W, out=index)
        np.take(table, index, axis=0, out=buf)
        text = buf.ravel()
        if W >= 10:  # one-digit tokens fill the table, longer ones leave NULs
            text = text[text != 0]
        rows.append(text[:-1].tobytes().decode("ascii"))
    doc: dict[str, Any] = {
        "schema_version": SET_SCHEMA_VERSION,
        "K": sset.K,
        "M": params.M if params is not None else W,
        "W": W,
        "L": sset.L,
        "params": None,
        "division": list(sset.division.assignment),
        "sequences": rows,
    }
    if params is not None:
        doc["params"] = {
            "w": params.w, "p": params.p, "q": params.q,
            "Lprime": params.Lprime, "deltas": list(params.deltas),
        }
    return doc


@functools.cache
def _one_digit_tables(top: int) -> tuple[np.ndarray, np.ndarray]:
    """Byte-indexed int16 tables for one-digit rows: the sign of a kind
    byte (T +1, R -1) and the channel of a digit byte '1'..str(top);
    every other byte maps to 0."""
    sign = np.zeros(256, dtype=np.int16)
    sign[[_T, _R]] = 1, -1
    channel = np.zeros(256, dtype=np.int16)
    channel[_ZERO + 1:_ZERO + 1 + top] = np.arange(1, top + 1)
    sign.setflags(write=False)
    channel.setflags(write=False)
    return sign, channel


def _parse_one_digit(buf: np.ndarray, L: int, W: int) -> np.ndarray | None:
    """int16 codes of a row of 3L - 1 bytes read as L tokens of one digit,
    or None when some token is not T<d>/R<d> with d in 1..W followed by a
    space (the row's last token by its end)."""
    padded = np.empty(3 * L, dtype=np.uint8)
    padded[:-1] = buf
    padded[-1] = _SPACE
    rows = padded.reshape(L, 3)
    sign, channel = _one_digit_tables(min(max(W, 0), 9))
    codes = np.take(sign, rows[:, 0])
    codes *= np.take(channel, rows[:, 1])
    if not codes.all() or (rows[:, 2] != _SPACE).any():
        return None
    return codes


def _parse_tokens(text: str, L: int, W: int) -> np.ndarray:
    """int16 codes of one row of exactly L space-separated tokens T<m>/R<r>,
    every channel in 1..W; raises ValueError naming the first bad token.

    A row of 3L - 1 bytes is first read as an (L, 3) table of one-digit
    tokens; any row that is not one (wider channels, leading zeros, bad
    tokens) goes through the general digit loop below, which alone raises.
    """
    try:
        buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError as exc:
        raise ValueError(f"non-ASCII character {text[exc.start]!r}") from None
    if buf.size == 3 * L - 1:
        codes = _parse_one_digit(buf, L, W)
        if codes is not None:
            return codes
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


def _json_int(value: Any, name: str) -> int:
    """value when it is a JSON integer: floats, bools and strings are refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def set_from_doc(doc: dict[str, Any]) -> ScheduleSequenceSet:
    """Read a schema-1 (one token list per sequence) or schema-2 (one token
    string per sequence) document; both go through one token parser."""
    if not isinstance(doc, dict):
        raise SequenceSetFormatError("a set file holds one JSON object")
    version = doc.get("schema_version")
    if version not in ("1", "2"):
        raise SequenceSetFormatError(
            f"unsupported schema_version {version!r}, expected \"1\" or \"2\"")
    row_type = list if version == "1" else str
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
    sequences = []
    for i, (group, row) in enumerate(zip(division, raw_seqs), start=1):
        if not isinstance(row, row_type):
            raise SequenceSetFormatError(
                f"sequence {i}: schema {version} stores a sequence as a "
                f"{row_type.__name__}, got {type(row).__name__}")
        try:
            if version == "1":
                if len(row) != L:
                    raise ValueError(f"{len(row)} slots, expected {L}")
                # An element holding a space, or an empty one, changes the
                # token count or leaves an empty token: both are rejected.
                row = " ".join(row)
            sequences.append(ScheduleSequence(_parse_tokens(row, L, W), owner_group=group))
        except (TypeError, ValueError) as exc:
            raise SequenceSetFormatError(f"sequence {i}: {exc}") from exc
    params = None
    if doc.get("params") is not None:
        p = doc["params"]
        try:
            params = ConstructionParams(
                K=K, M=M, W=W, division=GroupDivision(tuple(division)),
                w=_json_int(p["w"], "w"), p=_json_int(p["p"], "p"), q=_json_int(p["q"], "q"),
                Lprime=_json_int(p["Lprime"], "Lprime"), L=L,
                deltas=tuple(_json_int(d, "delta") for d in p["deltas"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SequenceSetFormatError(f"bad construction params: {exc}") from exc
    try:
        return ScheduleSequenceSet(tuple(sequences), params=params)
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


def load_set(path: str) -> ScheduleSequenceSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
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
