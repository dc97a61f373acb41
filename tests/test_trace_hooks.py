"""The library names the benchmark tracer wraps must keep resolving.

bench/spans.py swaps each function in its TRACED table for a timing
wrapper, in its home module and in every module that looks it up by
name; bench/run.py --trace 1 fails when a per-layer metric has no span.
"""

import importlib.util
from pathlib import Path

import pytest

from schedseq import cli, constructor

_SPEC = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize("name,home,attr,users", spans.TRACED,
                         ids=[row[0] for row in spans.TRACED])
def test_traced_name_resolves(name, home, attr, users):
    assert name == f"{home.__name__.rpartition('.')[2]}.{attr}"
    fn = getattr(home, attr)
    assert callable(fn)
    for module in users:
        assert getattr(module, attr) is fn, module.__name__


def test_generate_path_records_its_layers(tmp_path):
    # the per-layer metrics of generate: array_to_sequence inside
    # build_schedule_set (W >= 2), set_to_doc inside save_set
    with spans.Tracer() as tracer:
        cli.save_set(constructor.build_schedule_set(6, 2, W=2), str(tmp_path / "set.json"))
    names = {span[0]: span for span in tracer.spans}
    parent_of = {name: tracer.spans[span[3]][0] for name, span in names.items() if span[3] >= 0}
    assert parent_of["seqcore.array_to_sequence"] == "constructor.build_schedule_set"
    assert parent_of["cli.set_to_doc"] == "cli.save_set"
    assert "constructor.select_params" in names
    assert tracer.file_sizes == [(tmp_path / "set.json").stat().st_size]
