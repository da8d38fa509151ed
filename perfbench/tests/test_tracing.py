import json
from pathlib import Path

import pytest

import torquiv
from layers import per_layer_metrics, traced_functions
from torquiv import polytope, reductions
from torquiv.corpus import surface_listing
from tracing import Tracer, self_times


def test_self_time_of_nested_spans():
    # root [0, 10] > child [1, 5] > grandchild [2, 3]
    start, end, parent = [0.0, 1.0, 2.0], [10.0, 5.0, 3.0], [-1, 0, 1]
    assert self_times(start, end, parent) == pytest.approx([6.0, 3.0, 1.0])


def test_self_time_of_sibling_spans():
    # two siblings [1, 3] and [4, 7] under [0, 10]; a third child that
    # overlaps the second only counts once, and one outside the parent is clipped
    start = [0.0, 1.0, 4.0, 6.0, 9.0]
    end = [10.0, 3.0, 7.0, 8.0, 12.0]
    parent = [-1, 0, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(10.0 - 2.0 - 4.0 - 1.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([2.0], [2.5], [-1]) == pytest.approx([0.5])


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original = polytope.vertices
    assert reductions.polytope_vertices is original
    tracer = Tracer()
    tracer.install(torquiv)
    try:
        assert polytope.vertices is not original
        assert reductions.polytope_vertices is polytope.vertices
        assert torquiv.vertices is polytope.vertices
        _stem, _name, quiver, weight = surface_listing()[0]
        sid = tracer.begin_job(7)
        assert polytope.dimension(quiver, weight) == 2
        polytope.vertices(quiver, weight)
        tracer.end_job(sid)
    finally:
        tracer.uninstall()
    assert polytope.vertices is original
    assert reductions.polytope_vertices is original
    tracer.install(torquiv)
    assert torquiv.vertices is reductions.polytope_vertices is not original
    tracer.uninstall()
    assert torquiv.vertices is original
    names = [tracer.names[c] for c in tracer.name_of]
    dim = names.index("polytope.dimension")
    first_vertices = names.index("polytope.vertices")
    assert tracer.parent[first_vertices] == dim
    assert tracer.parent[dim] == 0 and set(tracer.job) == {7}
    calls, _self_s = tracer.per_function()
    assert calls["polytope.vertices"] == 2
    metrics = tracer.metrics(overhead_ratio=1.0, hot=("polytope",))
    assert metrics["polytope.vertices.repeat_share"] == pytest.approx(0.5)
    hot, rival = metrics["trace.hot_layer_share"], metrics["trace.rival_layer_share"]
    assert 0.0 < rival and hot + rival <= 1.0 + 1e-9
    assert metrics["trace.hot_layer_ok"] == (1 if hot > rival else 0)
    everything = tuple({name.split(".")[0] for name in names} - {"bench", "trace"})
    assert tracer.hot_layer_shares(everything) == (pytest.approx(1.0), "none", 0.0)
    assert [name for name, _u, _b in per_layer_metrics()] == list(metrics)


def test_spans_are_written_out(tmp_path):
    tracer = Tracer()
    sid = tracer.begin_job(0)
    tracer.end_job(sid)
    tracer.write(tmp_path / "spans.jsonl.gz")
    import gzip

    lines = gzip.open(tmp_path / "spans.jsonl.gz", "rt").read().splitlines()
    assert json.loads(lines[0])["fields"] == ["name", "start", "end", "parent", "job"]
    assert json.loads(lines[1])[0] == "bench.job"


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == per_layer_metrics()
    assert len(traced_functions()) == 28
