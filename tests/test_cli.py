"""Command-line interface: exit codes, JSON shapes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torquiv
from helpers import enumerate_affine_Rdd_reference, kronecker, path_pair, quiver_a, two_cycle

from torquiv import Quiver
from torquiv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def write_pair(path, quiver, weight):
    path.write_text(json.dumps(quiver.to_dict(weight), indent=2, sort_keys=True))
    return str(path)


def test_certify_kronecker_true_exit_zero(tmp_path, capsys):
    q, w = kronecker()
    path = write_pair(tmp_path / "kronecker.json", q, w)
    code, out = run_cli(capsys, "certify", path, "--bound", "3", "--horizon", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["witnesses"] is None
    assert doc["command"] == "certify"
    assert doc["input_digest"].startswith("sha256:")
    assert doc["parameters"]["bound"] == 3
    assert doc["parameters"]["horizon"] == 2


def test_malformed_json_names_offending_field(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": ["u"], "arrows": [{"id": "a", "tail": "u"}]}')
    code, out = run_cli(capsys, "lattice-points", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "InputError"
    assert "head" in doc["message"]


def test_unparseable_json_exit_one(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "vertices", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "InputError"


@pytest.mark.parametrize(
    "raw",
    [
        b'{"vertices": ["u"], "arrows": [], "weight": {"u": ' + b"9" * 5000 + b"}}",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"vertices": ["\xe9"], "arrows": []}',
    ],
    ids=["oversized-integer", "deeply-nested", "invalid-utf8"],
)
def test_undecodable_json_exit_one(tmp_path, capsys, raw):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    code, out = run_cli(capsys, "vertices", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "InputError"


def test_missing_file_exit_one(tmp_path, capsys):
    code, out = run_cli(capsys, "vertices", str(tmp_path / "nope.json"))
    assert code == 1
    assert json.loads(out)["error"] == "InputError"


def test_missing_weight_field_exit_one(tmp_path, capsys):
    q, _ = kronecker()
    path = tmp_path / "noweight.json"
    path.write_text(json.dumps(q.to_dict()))
    code, out = run_cli(capsys, "lattice-points", str(path))
    assert code == 1
    assert "weight" in json.loads(out)["message"]


def test_cyclic_input_reports_unbounded_exit_two(tmp_path, capsys):
    q, w = two_cycle()
    path = write_pair(tmp_path / "cyclic.json", q, w)
    code, out = run_cli(capsys, "lattice-points", str(path))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "unbounded-polyhedron"
    assert "message" in doc


def test_unknown_subcommand_exit_one(capsys):
    code, out = run_cli(capsys, "nosuchcmd")
    assert code == 1
    assert json.loads(out)["error"] == "InputError"


def test_no_subcommand_exit_one(capsys):
    code, out = run_cli(capsys)
    assert code == 1
    assert json.loads(out)["error"] == "InputError"


def test_identical_runs_give_identical_bytes(tmp_path, capsys):
    q, w = quiver_a((-1, 1, 1, 1, -2))
    path = write_pair(tmp_path / "pair.json", q, w)
    for argv in (
        ["lattice-points", path, "--degree", "2"],
        ["vertices", path],
        ["classify2d", path],
        ["ideal-gens", path, "--max-degree", "3"],
        ["skeletons", "--d", "3"],
    ):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_lattice_points_json_shape(tmp_path, capsys):
    q, w = kronecker()
    path = write_pair(tmp_path / "kronecker.json", q, w)
    code, out = run_cli(capsys, "lattice-points", path, "--degree", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert doc["degree"] == 2
    assert doc["points"] == [
        {"a1": 0, "a2": 2},
        {"a1": 1, "a2": 1},
        {"a1": 2, "a2": 0},
    ]


def test_csv_output_is_integer_table(tmp_path, capsys):
    q, w = kronecker()
    path = write_pair(tmp_path / "kronecker.json", q, w)
    code, out = run_cli(capsys, "lattice-points", path, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a1,a2"
    assert lines[1:] == ["0,1", "1,0"]


def test_vertices_match_lattice_points_for_kronecker(tmp_path, capsys):
    q, w = kronecker()
    path = write_pair(tmp_path / "kronecker.json", q, w)
    code, out = run_cli(capsys, "vertices", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert doc["vertices"] == [{"a1": 0, "a2": 1}, {"a1": 1, "a2": 0}]


def test_classify2d_names_projective_plane(tmp_path, capsys):
    q, w = quiver_a((-1, 1, 1, 1, -2))
    path = write_pair(tmp_path / "pair.json", q, w)
    code, out = run_cli(capsys, "classify2d", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "P2"
    assert sorted(map(tuple, doc["witnesses"]["rays"])) == [(-1, 0), (0, -1), (1, 1)]


def test_tighten_writes_trace_file(tmp_path, capsys):
    q, w = quiver_a((-1, 1, 1, 1, -2))
    path = write_pair(tmp_path / "pair.json", q, w)
    trace_path = tmp_path / "trace.json"
    code, out = run_cli(capsys, "tighten", path, "--trace", str(trace_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["moves"] == len(json.loads(trace_path.read_text()))
    assert doc["trace_file"] == str(trace_path)
    tightened = doc["quiver"]
    assert len(tightened["vertices"]) == 2
    assert len(tightened["arrows"]) == 3


def test_normality_certificate_carries_witnesses(tmp_path, capsys):
    q, w = kronecker()
    path = write_pair(tmp_path / "kronecker.json", q, w)
    code, out = run_cli(capsys, "normality", path, "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert len(doc["witnesses"]) == 3  # one decomposition per degree-2 point


def test_affine_degree_on_two_cycle_is_zero(tmp_path, capsys):
    q, w = two_cycle()
    path = write_pair(tmp_path / "cyclic.json", q, w)
    code, out = run_cli(capsys, "affine-degree", path)
    assert code == 0
    assert json.loads(out)["verdict"] == 0


def test_skeletons_rank_two_single_member(capsys):
    code, out = run_cli(capsys, "skeletons", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["members"][0]["edges"] == [["0", "1"]] * 3


def test_skeletons_at_the_top_rank(capsys):
    for flags, count in (((), 118), (("--maximal",), 16)):
        code, out = run_cli(capsys, "skeletons", "--d", "5", *flags)
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == len(doc["members"]) == count
        assert doc["maximal"] is bool(flags)


def test_affine_list_at_the_top_rank(capsys):
    code, out = run_cli(capsys, "affine-list", "--d", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == len(doc["members"]) == 10
    assert doc["members"] == [q.to_dict() for q in enumerate_affine_Rdd_reference(5)]


def test_skeletons_rank_out_of_range_exit_one(capsys):
    code, out = run_cli(capsys, "skeletons", "--d", "9")
    assert code == 1
    assert json.loads(out)["error"] == "InputError"


def test_localize_index_out_of_range_exit_one(tmp_path, capsys):
    q, w = quiver_a((-1, 1, 1, 1, -2))
    path = write_pair(tmp_path / "pair.json", q, w)
    code, out = run_cli(capsys, "localize", path, "--vertex-index", "99")
    assert code == 1
    assert "out of range" in json.loads(out)["message"]


def test_localize_emits_zero_weight_quiver(tmp_path, capsys):
    q, w = quiver_a((-1, 1, 1, 1, -2))
    path = write_pair(tmp_path / "pair.json", q, w)
    code, out = run_cli(capsys, "localize", path, "--vertex-index", "0")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["quiver"]["weight"].values()) == {0}
    assert sorted(doc["vertex"]) == ["a1", "a2", "a3", "a4", "a5", "a6"]
    assert all(value in (0, 1) for value in doc["vertex"].values())


def test_deep_path_walks_answer_in_a_loop(tmp_path, capsys):
    # the lattice walk runs through forced arrows in a loop and recurses only
    # where it branches, so a 1,200-vertex path gives its one flow
    q, w = path_pair(1200)
    path = write_pair(tmp_path / "path.json", q, w)
    ones = dict.fromkeys(q.sorted_arrow_ids(), 1)
    for command, key in (("vertices", "vertices"), ("lattice-points", "points")):
        code, out = run_cli(capsys, command, path)
        assert code == 0, out[:200]
        assert json.loads(out)[key] == [ones]


def test_recursion_error_reports_search_cap_exit_two(tmp_path, capsys, monkeypatch):
    # a search that still recurses past the limit answers with structured
    # JSON, never a traceback
    def too_deep(*_args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(torquiv.cli, "vertices", too_deep)
    path = write_pair(tmp_path / "kronecker.json", *kronecker())
    code, out = run_cli(capsys, "vertices", path)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "search-cap-exceeded"
    assert doc["detail"] == {"recursion_limit": sys.getrecursionlimit()}


def test_zero_horizon_is_rejected_before_an_empty_semigroup_certifies(tmp_path, capsys):
    # two vertices, no arrows: an empty polytope and an empty matching polytope
    path = write_pair(tmp_path / "empty.json", Quiver(["s", "t"], []), {"s": -1, "t": 1})
    for argv in (["certify", path, "--bound", "3"], ["osm", path, "--certify"]):
        code, out = run_cli(capsys, *argv, "--horizon", "0")
        assert code == 1, argv
        assert json.loads(out)["message"] == "horizon must be positive"
        code, out = run_cli(capsys, *argv, "--horizon", "4")
        assert code == 0 and json.loads(out)["verdict"] is True, argv


def test_osm_certify_ladder_d4_reports_the_capped_piece(capsys):
    # the matching semigroup's degree-4 piece would take 119,731 * 156
    # additions; the cap stops it before the sums are formed
    path = Path(__file__).resolve().parents[1] / "corpus" / "ladder_d4.json"
    code, out = run_cli(capsys, "osm", "--certify", str(path))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "search-cap-exceeded"
    assert doc["detail"] == {"degree": 4, "max_nodes": 10_000_000}


def test_localize_long_path(tmp_path, capsys):
    # stability of the support tree no longer caps the vertex count
    path = write_pair(tmp_path / "path.json", *path_pair(30))
    code, out = run_cli(capsys, "localize", path, "--vertex-index", "0")
    assert code == 0
    doc = json.loads(out)
    merged = "+".join(f"v{i:04d}" for i in range(30))
    assert doc["quiver"] == {"arrows": [], "vertices": [merged], "weight": {merged: 0}}
    assert set(doc["vertex"].values()) == {1}


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_one_without_traceback(tmp_path, unbuffered):
    # like `torquiv lattice-points ... | head -c 10`, but with the reading end
    # closed before the command starts, so every write hits a broken pipe
    path = write_pair(tmp_path / "pair.json", *quiver_a((-1, 1, 1, 1, -2)))
    env = dict(os.environ, PYTHONPATH=str(Path(torquiv.__file__).parents[1]))
    env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "torquiv.cli", "lattice-points", path, "--degree", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""
