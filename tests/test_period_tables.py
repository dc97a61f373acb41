"""The period tables (ratio_table, choose_W, `schedseq bound`) against
oracles that build one validated ConstructionParams per cell, and guards
that the table paths build no per-cell params objects."""

import contextlib
import io
import json

import pytest

from conftest import choose_W_by_params, ratio_table_by_params
from schedseq import cli
from schedseq.constructor import (
    ConstructionParams,
    choose_W,
    construction_period,
    m_prime,
    select_params,
)
from schedseq.seqcore import GroupDivision
from schedseq.verifier import ratio_table

KS = range(1, 201)
MS = range(1, 9)
PAPER_KS = list(range(60, 151, 10))


@pytest.fixture(scope="module")
def oracle_table():
    return ratio_table_by_params(KS, MS)


def test_ratio_table_matches_params_oracle(oracle_table):
    assert ratio_table(list(KS), list(MS)) == oracle_table


def test_choose_W_matches_params_oracle():
    for K in KS:
        for M in range(1, min(K, MS[-1]) + 1):
            assert choose_W(K, M) == choose_W_by_params(K, M), (K, M)


def test_bound_matches_params_oracle(oracle_table):
    for K in KS:
        for M in range(1, min(K, MS[-1]) + 1):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(["bound", "--K", str(K), "--M", str(M)]) == 0
            payload = json.loads(out.getvalue())
            if M <= m_prime(K):
                assert payload["constructed_L"] == select_params(K, M, M).L, (K, M)
            else:
                assert "constructed_L" not in payload, (K, M)
            assert payload.get("ratio") == oracle_table.get((K, M)), (K, M)


def test_even_division_params_validate_with_the_helpers_period():
    # The table paths build no params; this keeps every (w, p, q, L) they
    # read under ConstructionParams' validation.
    for K in KS:
        for W in range(1, min(K, MS[-1]) + 1):
            params = select_params(K, W, W)
            assert construction_period(K, W, -(-K // W)) == (
                params.w, params.p, params.q, params.L), (K, W)


def test_helper_follows_the_given_largest_group():
    division = GroupDivision((1, 1, 1, 2))
    params = select_params(4, 2, 2, division=division)
    assert construction_period(4, 2, 3) == (params.w, params.p, params.q, params.L)
    assert construction_period(4, 2, 3) != construction_period(4, 2, 2)


@pytest.mark.parametrize("K,W", [(5, 0), (5, 6), (0, 1)])
def test_helper_rejects_a_channel_count_outside_1_to_K(K, W):
    with pytest.raises(ValueError, match=f"need 1 <= W <= K, got W={W}, K={K}"):
        construction_period(K, W, 1)


def _count_inits(monkeypatch, cls) -> list:
    made = []
    original = cls.__post_init__

    def counted(self):
        made.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return made


def test_ratio_table_builds_no_params(monkeypatch):
    params = _count_inits(monkeypatch, ConstructionParams)
    divisions = _count_inits(monkeypatch, GroupDivision)
    table = ratio_table(PAPER_KS, [2, 3, 4, 5])
    assert len(table) == 40
    assert params == [] and divisions == []


def test_choose_W_builds_params_once(monkeypatch):
    params = _count_inits(monkeypatch, ConstructionParams)
    divisions = _count_inits(monkeypatch, GroupDivision)
    W, chosen = choose_W(150, 5)
    assert params == [chosen] and W == chosen.W == 5
    assert divisions == [chosen.division]
