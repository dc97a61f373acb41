"""Tests of the benchmark's own references and check functions.

Run from the repository root with
    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import oracles as ref
import workloads as wl
from oracles import CheckError
from schedseq import cli, constructor, random_schemes, seqcore, simulator, verifier
from spans import Tracer


def _set(rows: list[str], groups: list[int]) -> constructor.ScheduleSequenceSet:
    def code(tok: str) -> int:
        return int(tok[1:]) if tok[0] == "T" else -int(tok[1:])
    return constructor.ScheduleSequenceSet(tuple(
        seqcore.ScheduleSequence(np.array([code(t) for t in row.split()]), g)
        for row, g in zip(rows, groups)))


# Hand-made (M=2, K=2, L=4) and (M=2, K=3, L=12) sets; the second one
# delivers every pair within one period under every offset vector.
TWO_NODES = _set(["T1 T1 R2 R2", "T2 R1 T2 R1"], [1, 2])
THREE_NODES = _set(["T1 T1 T1 T1 T1 T1 R1 R1 R1 R2 R2 R2",
                    "T1 R1 T1 R2 T1 R1 T1 R2 T1 R1 T1 R2",
                    "T2 R1 R1 T2 R1 R1 T2 R1 R1 T2 R1 R1"], [1, 1, 2])


def _simulated(sset, taus) -> int | None:
    res = simulator.simulate(simulator.SimConfig(
        simulator.SequenceScheme(sset), runs=1, max_slots=sset.L,
        offset_mode=seqcore.OffsetVector(tuple(taus), sset.L)))
    return None if res.censored[0] else int(res.completion_times[0])


def test_oracle_by_hand():
    # Slot 1: node 1 alone on channel 1 while node 2 listens to it.
    # Slot 2: node 2 alone on channel 2 while node 1 listens to it.
    first = ref.first_deliveries(TWO_NODES.codes_matrix(), [0, 0], 4)
    assert first.tolist() == [[-1, 1], [2, -1]]
    assert ref.completion_time(TWO_NODES.codes_matrix(), [0, 0], 4) == 3


def test_oracle_matches_simulator_on_two_nodes():
    codes = TWO_NODES.codes_matrix()
    for taus in itertools.product(range(4), repeat=2):
        assert ref.completion_time(codes, taus, 4) == _simulated(TWO_NODES, taus)


def test_three_node_guarantee_and_simulator():
    codes = THREE_NODES.codes_matrix()
    for taus in itertools.product(range(12), repeat=3):
        done = ref.completion_time(codes, taus, 12)
        assert done is not None and done <= 12
        if sum(taus) % 37 == 0:
            assert done == _simulated(THREE_NODES, taus)


def test_collision_blocks_delivery():
    # Nodes 1 and 2 share channel 1 and always transmit together.
    codes = _set(["T1 R1", "T1 R1", "R1 R1"], [1, 1, 1]).codes_matrix()
    assert not ref.pair_delivers(codes, [0, 0, 0], 1, 3)
    assert ref.pair_delivers(codes, [0, 1, 0], 1, 3)


def test_decimal_cdf_reproduces_paper_tables():
    for K, ell, paper in ref.PAPER_COMPLETION_PROBS:
        unit = 10.0 ** -len(paper.split(".")[1])
        exact = float(ref.group_cdf(K, ell))
        assert abs(exact - float(paper)) <= unit
        lib = random_schemes.group_cdf(random_schemes.CouponModel.from_optimal(K), ell)
        assert abs(exact - lib) <= 1e-9
    for K, want in ref.PAPER_FRAME_LENGTHS.items():
        assert ref.frame_length(K) == want


def test_decimal_cdf_is_a_distribution_at_k150():
    values = [ref.group_cdf(150, ell) for ell in (0, 2000, 6000, 8738, 20000)]
    assert values[0] == 0
    assert all(0 <= a <= b <= 1 for a, b in zip(values, values[1:]))
    assert ref.frame_length(150) == 8738


def test_pair_probabilities_match_library_formulas():
    for K, W in [(18, 1), (18, 2), (18, 3), (20, 4)]:
        p = 0.7 / K
        assert math.isclose(ref.p_pair_assign_t(p, K // W, W),
                            random_schemes.p_success_assignT(W, K, p), rel_tol=1e-12)
        assert math.isclose(ref.p_pair_general(p / W, K, W),
                            random_schemes.p_success_general(W, K, p / W), rel_tol=1e-12)


def test_first_success_z():
    rng = np.random.default_rng(5)
    P = np.full((4, 4), 0.1)
    first = rng.geometric(0.1, size=(400, 4, 4)) - 1
    assert abs(ref.first_success_z(first, P)) < 5
    assert ref.first_success_z(first + 3, P) > 5


def test_lower_bound_formula_matches_library():
    for W in range(1, 6):
        for k in range(1, 40):
            assert ref.lower_bound(W, k) == verifier.lower_bound(W, k, W, k * W).combined


def test_checks_on_a_constructed_set(tmp_path):
    sset = constructor.build_schedule_set(4, 2, W=2)
    rng = np.random.default_rng(0)
    wl.check_fixed_offsets(sset, rng, vectors=3)
    path = str(tmp_path / "set.json")
    cli.save_set(sset, path)
    out = str(tmp_path / "runs.csv")
    doc = wl.cli_json(wl.call_cli(["simulate", "--in", path, "--runs", "50", "--seed", "1",
                                   "--threads", "1", "--out", out]))
    wl.check_runs(out, doc, 50, sset.L)
    with pytest.raises(CheckError):
        wl.check_runs(out, doc, 50, period=1)
    wl.check_refutation(sset, rng, str(tmp_path / "broken.json"))
    wl.check_thread_determinism(path, 1, str(tmp_path))


def test_tracer_records_nested_spans_and_restores():
    originals = cli.main, cli.lower_bound
    with Tracer() as tracer:
        assert cli.main is not originals[0]
        assert wl.call_cli(["bound", "--K", "20", "--M", "4"])[0] == 0
    assert (cli.main, cli.lower_bound) == originals
    assert tracer.spans[0][0] == "cli.main.bound" and tracer.spans[0][3] == -1
    children = {s[0] for s in tracer.spans if s[3] == 0}
    assert children == {"verifier.lower_bound", "constructor.select_params"}
    total, own, calls = tracer.totals()
    assert 0 <= own["cli.main.bound"] < total["cli.main.bound"]
