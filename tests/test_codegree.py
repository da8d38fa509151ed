"""Codegree, the generation degree d + 2 - codeg, and the scans it caps:
certification, minimal generators and the one-sided-matching certificate."""

import random
import warnings

import pytest

from torquiv import Arrow, GradedSemigroup, Quiver, codegree, dimension, lattice_points
from torquiv import ideal
from torquiv.corpus import acyclic_corpus_pairs
from torquiv.errors import EmptyPolyhedron, EmptyWeight
from torquiv.ideal import (
    _disconnected,
    _matching_polytope,
    _osm_parts,
    certify_degree_bound,
    minimal_generators,
    osm_certify_degree3,
    osm_lattice_points,
)
from torquiv.polytope import _NodeBudget, generation_degree

from helpers import (
    _osm_piece,
    codegree_reference,
    complete_bipartite,
    kronecker,
    minimal_generators_reference,
    random_acyclic,
    random_bipartite,
)


CORPUS = {stem: (q, w) for stem, q, w in acyclic_corpus_pairs()}


def _pairs():
    """The acyclic corpus, then seeded random pairs until 100 of them are
    nonempty (the empty ones drawn on the way are kept too)."""
    pairs = [(stem, q, w) for stem, (q, w) in CORPUS.items()]
    rng = random.Random(2027)
    nonempty = 0
    while nonempty < 100:
        q, w = random_acyclic(rng, max_vertices=4, max_arrows=6, weight_bound=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyWeight)
            nonempty += bool(lattice_points(q, w, 1))
        pairs.append((f"draw{len(pairs)}", q, w))
    return pairs


PAIRS = _pairs()


def test_codegree_matches_enumeration_oracle():
    seen = {"empty": 0, "d0": 0, "codeg>1": 0}
    for stem, q, w in PAIRS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyWeight)
            expected = codegree_reference(q, w)
        if expected is None:
            seen["empty"] += 1
            with pytest.raises(EmptyPolyhedron):
                codegree(q, w)
            continue
        assert codegree(q, w) == expected, stem
        d = dimension(q, w)
        assert 1 <= expected <= d + 1, stem
        seen["d0"] += d == 0
        seen["codeg>1"] += expected > 1
    assert min(seen.values()) >= 10, seen


def test_codegree_of_known_polytopes():
    # a point, a segment, the triangle of P2 and the square of P1xP1
    point = Quiver(["s", "t"], [Arrow("a", "s", "t")])
    assert codegree(point, {"s": -1, "t": 1}) == 1
    assert codegree(point, {"s": 0, "t": 0}) == 1  # P = {0}, empty support
    assert codegree(*kronecker()) == 2
    q, w = complete_bipartite(1, 3, -1, 1)  # no flow: sinks can't all be filled
    with pytest.raises(EmptyPolyhedron):
        codegree(q, w)
    assert codegree(*CORPUS["surface_p2"]) == 3
    assert codegree(*CORPUS["surface_p1xp1"]) == 2


def test_no_split_element_above_the_generation_degree():
    at_bound = 0
    for stem, q, w in PAIRS:
        sg = GradedSemigroup(q, w)
        if not sg.generators:
            continue
        d = dimension(q, w)
        top = sg.generation_degree
        assert top == d + 2 - codegree_reference(q, w), stem
        for k in range(max(2, top + 1), d + 2):
            assert not any(_disconnected(sg, k)), (stem, k)
        gens = minimal_generators(sg, 4)
        assert gens == minimal_generators_reference(sg, 4), stem
        at_bound += bool(gens) and max(g.degree for g in gens) == top
    assert at_bound >= 10  # the bound is attained, not just never crossed


def _scanned_degrees(monkeypatch):
    """Record the degrees that `_disconnected` is asked for."""
    seen = []
    scan = ideal._disconnected

    def recording(semigroup, k):
        seen.append(k)
        return scan(semigroup, k)

    monkeypatch.setattr(ideal, "_disconnected", recording)
    return seen


def test_certify_default_horizon_is_the_generation_degree(monkeypatch):
    seen = _scanned_degrees(monkeypatch)
    k33 = GradedSemigroup(*complete_bipartite(3, 3, -1, 1))  # d 4, codeg 3
    assert k33.generation_degree == 3
    assert certify_degree_bound(k33, 3) == (True, None)
    assert seen == []  # nothing above the bound to scan
    ok, violation = certify_degree_bound(k33, 2)
    assert not ok and violation.degree == 3 and seen == [3]
    seen.clear()
    assert certify_degree_bound(k33, 3, 5) == (True, None)  # explicit: as named
    assert seen == [4, 5]
    seen.clear()
    bl2 = GradedSemigroup(*CORPUS["surface_bl2p2"])
    assert certify_degree_bound(bl2, 2) == (True, None)
    assert seen == [3]  # d 2, codeg 1


def test_minimal_generators_stop_at_the_generation_degree(monkeypatch):
    seen = _scanned_degrees(monkeypatch)
    k33 = GradedSemigroup(*complete_bipartite(3, 3, -1, 1))
    assert [g.degree for g in minimal_generators(k33, 6)] == [3]
    assert seen == [2, 3]
    seen.clear()
    assert minimal_generators(k33, 2) == []
    assert seen == [2]


def test_generation_degree_is_computed_once_per_semigroup(monkeypatch):
    # the support and d come from the generators, so the codegree search is
    # the one feasibility pass left
    calls = []
    codegree_of = ideal._codegree

    def counting(quiver, weight, support):
        calls.append(quiver)
        return codegree_of(quiver, weight, support)

    monkeypatch.setattr(ideal, "_codegree", counting)
    sg = GradedSemigroup(*complete_bipartite(3, 3, -1, 1))
    certify_degree_bound(sg, 3)
    minimal_generators(sg, 4)
    certify_degree_bound(sg, 2)
    assert len(calls) == 1


# -- the matching polytope ----------------------------------------------------


BIPARTITE_STEMS = [
    "bipartite_k22",
    "bipartite_k33",
    "ladder_d3",
    "ladder_d4",
    "subdivided_complete4",
    "subdivided_doubled_square",
]


def _matching_pieces_agree(quiver, degrees):
    """The matching polytope's pieces, by the lattice walk and as the
    semigroup's sumsets, with the slack arrows forgotten, are the
    one-sided-matching elements of each degree."""
    sources, sinks = _osm_parts(quiver)
    mq, mw = _matching_polytope(quiver)
    ids = quiver.sorted_arrow_ids()
    assert set(ids) < set(mq.sorted_arrow_ids())
    sg = GradedSemigroup(mq, mw)
    keep = [sg.arrow_ids.index(a) for a in ids]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyWeight)
        ones = lattice_points(mq, mw, 1)
        assert [{a: p[a] for a in ids} for p in ones] == osm_lattice_points(quiver)
        for k in degrees:
            expected = _osm_piece(quiver, sources, sinks, k, _NodeBudget(10**7))
            piece = sorted(tuple(p[a] for a in ids) for p in lattice_points(mq, mw, k))
            assert piece == expected, k
            assert sorted(tuple(p[i] for i in keep) for p in sg.graded_piece(k)) == expected, k
    return bool(ones)


def test_matching_polytope_on_the_bipartite_corpus():
    for stem in BIPARTITE_STEMS:
        assert _matching_pieces_agree(CORPUS[stem][0], (1, 2, 3)), stem


def test_matching_polytope_on_random_bipartite_quivers():
    rng = random.Random(616)
    drawn = nonempty = 0
    while nonempty < 30:
        nonempty += _matching_pieces_agree(random_bipartite(rng), (1, 2, 3))
        drawn += 1
    assert drawn - nonempty >= 10


def test_matching_polytope_names_stay_fresh():
    q = Quiver(["z", "t"], [Arrow("z:t", "z", "t")])
    mq, mw = _matching_polytope(q)
    assert mq.sorted_vertices() == ["t", "z", "z'"]
    assert mq.sorted_arrow_ids() == ["z':t", "z:t"]
    assert mw == {"z": -1, "t": 1, "z'": 0}


def test_osm_default_horizons(monkeypatch):
    # the certificate scans degrees 4..horizon of the matching polytope's
    # semigroup; the stand-in scan records them and finds nothing split
    seen = []

    def recording(semigroup, k):
        seen.append(k)
        return iter(())

    monkeypatch.setattr(ideal, "_disconnected", recording)
    expected = {"ladder_d3": 7, "ladder_d4": 11, "bipartite_k33": 3}
    for stem, horizon in expected.items():
        q = CORPUS[stem][0]
        assert osm_certify_degree3(q) is True
        assert seen == list(range(4, horizon + 1)), stem
        assert horizon == generation_degree(*_matching_polytope(q))
        seen.clear()
    assert osm_certify_degree3(q, horizon=5) and seen == [4, 5]
    seen.clear()
    # more sources than sinks: the matching polytope is empty, nothing to scan
    q21, _ = complete_bipartite(2, 1)
    with pytest.raises(EmptyPolyhedron):
        generation_degree(*_matching_polytope(q21))
    assert osm_certify_degree3(q21) is True and not seen
