"""Golden corpus: determinism, round-trips, and documented behaviours."""

import json
from pathlib import Path

from torquiv.cli import _load_pair
from torquiv.corpus import (
    acyclic_corpus_pairs,
    corpus_documents,
    corpus_pairs,
    crossed_ladder_graph,
    crossed_ladder_pair,
    rank_three_subdivisions,
    regenerate,
    serialize_document,
)
from torquiv.multigraph import canonical_key
from torquiv.quiver import (
    Arrow,
    Quiver,
    components,
    euler_characteristic,
    quiver_from_dict,
)
from torquiv.reductions import is_tight, skeleton, tighten

REPO_CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def read_tree(directory):
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


def test_regeneration_is_byte_deterministic(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    assert regenerate(first) == regenerate(second)
    assert read_tree(first) == read_tree(second)


def test_checked_in_corpus_matches_regeneration(tmp_path):
    fresh = tmp_path / "fresh"
    names = regenerate(fresh)
    assert sorted(p.name for p in REPO_CORPUS.iterdir()) == names
    assert read_tree(REPO_CORPUS) == read_tree(fresh)


def test_every_corpus_file_round_trips(tmp_path):
    regenerate(tmp_path / "c")
    for path in sorted((tmp_path / "c").iterdir()):
        raw = path.read_text()
        doc = json.loads(raw)
        if "members" in doc:
            rebuilt = {
                "count": doc["count"],
                "members": [
                    quiver_from_dict(member)[0].to_dict()
                    for member in doc["members"]
                ],
            }
        else:
            quiver, weight = quiver_from_dict(doc)
            rebuilt = quiver.to_dict(weight)
        assert serialize_document(rebuilt) == raw


def test_load_pair_agrees_with_direct_parse(tmp_path):
    # the CLI's loader reads a regenerated file back as the parsed pair
    regenerate(tmp_path / "c")
    path = tmp_path / "c" / "surface_p2.json"
    quiver, weight, _digest = _load_pair(str(path))
    assert (quiver, weight) == quiver_from_dict(json.loads(path.read_text()))
    assert sorted(weight.values()) == [-2, -1, 1, 1, 1]


def test_corpus_counts():
    assert len(corpus_pairs()) == 14
    assert len(acyclic_corpus_pairs()) == 11
    assert len(corpus_documents()) == 18


def test_acyclic_pairs_exclude_exactly_the_cycles():
    all_stems = {stem for stem, _, _ in corpus_pairs()}
    acyclic_stems = {stem for stem, _, _ in acyclic_corpus_pairs()}
    assert all_stems - acyclic_stems == {
        "affine_degree_d3",
        "affine_degree_d4",
        "affine_degree_d5",
    }


def test_doubled_square_subdivision_is_not_tight():
    pairs = dict(
        (stem, (quiver, weight))
        for stem, quiver, weight in rank_three_subdivisions()
    )
    quiver, weight = pairs["subdivided_doubled_square"]
    assert not is_tight(quiver, weight)
    tightened, _, trace = tighten(quiver, weight)
    assert trace.moves
    assert len(tightened.vertices) == 8
    assert len(tightened.arrows) == 10


def test_complete_graph_subdivision_is_tight():
    pairs = dict(
        (stem, (quiver, weight))
        for stem, quiver, weight in rank_three_subdivisions()
    )
    quiver, weight = pairs["subdivided_complete4"]
    assert is_tight(quiver, weight)
    assert len(quiver.vertices) == 10
    assert len(quiver.arrows) == 12


def test_crossed_ladders_are_tight_three_regular():
    for d in (3, 4):
        quiver, weight = crossed_ladder_pair(d)
        assert len(quiver.vertices) == 5 * (d - 1)
        assert len(quiver.arrows) == 6 * (d - 1)
        assert euler_characteristic(quiver) == d
        assert set(weight.values()) == {-3, 2}
        assert is_tight(quiver, weight)


def test_crossed_ladder_rank_three_skeleton_is_complete_graph():
    quiver, _ = crossed_ladder_pair(3)
    graph = skeleton(quiver)
    four = crossed_ladder_graph(3)
    assert canonical_key(graph) == canonical_key(four)
    assert sorted(graph.degree(v) for v in graph.vertices) == [3, 3, 3, 3]


def test_parallel_arrow_quiver_tight_under_two_weights():
    quiver = Quiver(
        ["v1", "v2", "v3"],
        [
            Arrow("c1", "v3", "v1"),
            Arrow("c2", "v3", "v1"),
            Arrow("d1", "v1", "v2"),
            Arrow("d2", "v1", "v2"),
            Arrow("e1", "v3", "v2"),
        ],
    )
    for weight in ({"v1": 0, "v2": 3, "v3": -3}, {"v1": 1, "v2": 1, "v3": -2}):
        assert is_tight(quiver, weight)


def test_cycle_corpus_members_are_strongly_connected():
    for stem, quiver, weight in corpus_pairs():
        if stem.startswith("affine_degree"):
            assert set(weight.values()) == {0}
            assert len(components(quiver)) == 1
