import collections
import gc
import hashlib
import itertools
import json
import random

import pytest

from torquiv import (
    Arrow,
    Multigraph,
    Quiver,
    build_Rd_quiver,
    canonical_key,
    canonical_weight,
    classify_2d,
    dimension,
    enumerate_Rd,
    enumerate_affine_Rdd,
    enumerate_maximal_skeletons,
    enumerate_skeletons,
    euler_characteristic,
    facet_arrows,
    from_canonical_key,
    in_rd_form,
    is_prime,
    is_strongly_connected,
    is_tight,
    kronecker_quiver,
    lattice_points,
    loop_quiver,
    normal_fan_2d,
    quiver_key,
    realize_Rprime,
    reflect,
    skeleton,
    tighten,
)
from torquiv.corpus import corpus_pairs
from torquiv.errors import (
    DomainError,
    EmptyPolyhedron,
    InputError,
    NotInRd,
    NotTight,
    UnsupportedCase,
    WrongDimension,
)
from torquiv.classify import (
    _affine_compositions,
    _all_components_strong,
    _orbit_least_compositions,
    _orbit_minimal_choices,
    _skeleton_keys,
)
from torquiv.quiver import components, is_acyclic, is_theta_stable

from helpers import (
    affine_quiver,
    all_components_strong_reference,
    compositions_reference,
    contract_edge,
    degree_feasible,
    enumerate_affine_Rdd_reference,
    enumerate_Rd_reference,
    graph_quiver,
    is_two_connected_reference,
    kronecker,
    normal_fan_2d_reference,
    opposite_pair,
    orbit_least_compositions_reference,
    path_pair,
    quiver_a,
    random_acyclic,
    random_pair,
    skeleton_growth_reference,
    skeleton_keys_reference,
    two_cycle,
)


# -- skeleton lists -----------------------------------------------------------


def banana(n):
    return Multigraph(["u", "v"], [("u", "v")] * n)


def theta_221():
    return Multigraph(
        ["u", "v", "w"],
        [("u", "v"), ("u", "v"), ("u", "w"), ("u", "w"), ("v", "w")],
    )


def k4():
    verts = ["a", "b", "c", "d"]
    return Multigraph(verts, list(itertools.combinations(verts, 2)))


def doubled_opposite_square():
    return Multigraph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "b"), ("b", "c"), ("c", "d"), ("c", "d"), ("d", "a")],
    )


def k33():
    edges = [(u, v) for u in ["a", "b", "c"] for v in ["x", "y", "z"]]
    return Multigraph(["a", "b", "c", "x", "y", "z"], edges)


def test_rank_two_skeletons():
    got = enumerate_skeletons(2)
    assert len(got) == 1
    assert canonical_key(got[0]) == canonical_key(banana(3))


def test_rank_three_skeletons():
    got = {canonical_key(g) for g in enumerate_skeletons(3)}
    expected = {
        canonical_key(banana(4)),
        canonical_key(theta_221()),
        canonical_key(k4()),
        canonical_key(doubled_opposite_square()),
    }
    assert len(expected) == 4
    assert got == expected


def test_skeleton_defining_properties():
    for d in (2, 3, 4):
        members = enumerate_skeletons(d)
        keys = [canonical_key(g) for g in members]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)
        for g in members:
            assert all(u != v for u, v in g.edges)
            assert is_two_connected_reference(g)
            assert all(g.degree(v) >= 3 for v in g.vertices)
            assert euler_characteristic(graph_quiver(g)) == d
            assert len(g.vertices) <= 2 * d - 2
            assert len(g.edges) <= 3 * d - 3
            back = from_canonical_key(canonical_key(g))
            assert canonical_key(back) == canonical_key(g)


def test_complete_bipartite_graph_has_rank_four():
    assert canonical_key(k33()) in {canonical_key(g) for g in enumerate_skeletons(4)}


def test_maximal_skeletons():
    only = enumerate_maximal_skeletons(2)
    assert [canonical_key(g) for g in only] == [canonical_key(banana(3))]
    got = {canonical_key(g) for g in enumerate_maximal_skeletons(3)}
    assert got == {canonical_key(k4()), canonical_key(doubled_opposite_square())}
    for d in (2, 3, 4):
        base = {canonical_key(g) for g in enumerate_skeletons(d)}
        for g in enumerate_maximal_skeletons(d):
            assert canonical_key(g) in base
            assert all(g.degree(v) == 3 for v in g.vertices)


def test_skeleton_lists_match_the_labeled_fill():
    for d in (2, 3, 4):
        got = [canonical_key(g) for g in enumerate_skeletons(d)]
        assert got == skeleton_keys_reference(d), d
        got = [canonical_key(g) for g in enumerate_maximal_skeletons(d)]
        assert got == skeleton_keys_reference(d, maximal=True), d


def test_rank_five_skeleton_lists_keep_their_digests():
    # the labeled fill takes minutes at d = 5; these are its lists' digests
    for enumerate_, count, digest in (
        (enumerate_skeletons, 118, "51693e33931d"),
        (enumerate_maximal_skeletons, 16, "34bf1ac5c604"),
    ):
        members = [g.to_json() for g in enumerate_(5)]
        assert len(members) == count
        text = json.dumps(members, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest()[:12] == digest


def test_skeleton_lists_key_one_graph_per_move(monkeypatch):
    # the labeled fill keys 614 graphs for the first list and 550 for the
    # second; one move per orbit of the parent's automorphisms is keyed
    import torquiv.classify as classify

    keyed = []
    real = classify.canonical_key

    def counting(graph):
        keyed.append(1)
        return real(graph)

    monkeypatch.setattr(classify, "canonical_key", counting)
    assert len(classify.enumerate_skeletons(4)) == 17 and len(keyed) == 40
    keyed.clear()
    assert len(classify.enumerate_maximal_skeletons(4)) == 5 and len(keyed) == 12


def test_orbit_pruned_growth_matches_the_unpruned_growth():
    for cubic in (False, True):
        grown = skeleton_growth_reference(5, cubic)
        for d in (2, 3, 4, 5):
            assert _skeleton_keys(d, cubic) == grown[d], (d, cubic)


def _contraction_maximal(members):
    """The members no other member contracts onto.  Contracting an edge of
    multiplicity > 1 drops loops and lowers the cycle rank, so only
    multiplicity-1 edges can lead to another member."""
    keys = {canonical_key(g) for g in members}
    dominated = set()
    for g in members:
        multiplicity = collections.Counter(g.edges)
        for idx, edge in enumerate(g.edges):
            if multiplicity[edge] == 1:
                dominated.add(canonical_key(contract_edge(g, idx)))
    return sorted(keys - dominated)


def test_maximal_skeletons_are_the_contraction_maximal_ones():
    for d in (2, 3, 4):
        maximal = [canonical_key(g) for g in enumerate_maximal_skeletons(d)]
        assert maximal == _contraction_maximal(enumerate_skeletons(d))


def test_enumerations_are_deterministic():
    first = [canonical_key(g) for g in enumerate_skeletons(3)]
    second = [canonical_key(g) for g in enumerate_skeletons(3)]
    assert first == second
    a1 = [quiver_key(q) for q in enumerate_affine_Rdd(4)]
    a2 = [quiver_key(q) for q in enumerate_affine_Rdd(4)]
    assert a1 == a2


def test_rank_caps_rejected():
    for bad in (1, 6, 0, -3):
        with pytest.raises(InputError):
            enumerate_skeletons(bad)
        with pytest.raises(InputError):
            enumerate_maximal_skeletons(bad)
    for bad in (0, 6, -1):
        with pytest.raises(InputError):
            enumerate_Rd(bad)
        with pytest.raises(InputError):
            enumerate_affine_Rdd(bad)
    for bad in ("3", 2.0, True, None):
        with pytest.raises(InputError):
            enumerate_skeletons(bad)
        with pytest.raises(InputError):
            enumerate_affine_Rdd(bad)


def test_rank_five_quiver_list_is_refused_at_once(monkeypatch):
    # its estimated 1.4 million members would need 7-10 GB of memory; the
    # refusal comes before any skeleton is listed
    import torquiv.classify as classify

    def no_skeletons(d):
        raise AssertionError("listed the skeletons")

    monkeypatch.setattr(classify, "enumerate_skeletons", no_skeletons)
    with pytest.raises(InputError, match="between 1 and 4"):
        classify.enumerate_Rd(5)


# -- quivers built on skeletons ------------------------------------------------


def test_build_quiver_all_sinks_gives_the_workhorse():
    g = banana(3)
    built = build_Rd_quiver(g, ["sink", "sink", "sink"])
    reference, _ = quiver_a()
    assert quiver_key(built) == quiver_key(reference)


def test_build_quiver_orientations():
    g = banana(3)
    forward = build_Rd_quiver(g, ["forward"] * 3)
    assert len(forward.vertices) == 2 and len(forward.arrows) == 3
    assert is_acyclic(forward)
    with pytest.raises(UnsupportedCase):
        build_Rd_quiver(g, ["forward", "backward", "forward"])
    with pytest.raises(InputError):
        build_Rd_quiver(g, ["forward", "forward"])
    with pytest.raises(InputError):
        build_Rd_quiver(g, ["forward", "forward", "upward"])


def test_rank_one_quiver_list():
    got = enumerate_Rd(1)
    assert len(got) == 1
    assert quiver_key(got[0]) == quiver_key(kronecker()[0])


def test_rank_two_quiver_list():
    got = enumerate_Rd(2)
    assert len(got) == 4
    assert sorted(len(q.vertices) for q in got) == [2, 3, 4, 5]
    keys = [quiver_key(q) for q in got]
    assert len(set(keys)) == 4 and keys == sorted(keys)


def test_quiver_list_shape_conditions():
    for d in (2, 3):
        for q in enumerate_Rd(d):
            assert is_acyclic(q)
            assert is_prime(q)
            assert in_rd_form(q)
            assert euler_characteristic(q) == d
            assert len(q.vertices) <= 5 * (d - 1)
            assert len(q.arrows) <= 6 * (d - 1)
            for v in q.vertices:
                assert q.valency(v) >= 2


def test_quiver_list_contains_all_sink_subdivisions():
    keys = {quiver_key(q) for q in enumerate_Rd(3)}
    for g in enumerate_skeletons(3):
        built = build_Rd_quiver(g, ["sink"] * len(g.edges))
        assert quiver_key(built) in keys


def _orbit_minimal_by_brute_force(graph):
    """Choice tuples (0 forward, 1 backward, 2 sink) that no vertex
    automorphism, found by trying every permutation, moves below
    themselves; parallel edges are interchangeable."""
    verts = list(graph.vertices)
    edges = graph.edges
    autos = []
    for perm in itertools.permutations(verts):
        lift = dict(zip(verts, perm))
        if sorted(tuple(sorted((lift[u], lift[v]))) for u, v in edges) == sorted(edges):
            autos.append(lift)
    out = []
    for choice in itertools.product(range(3), repeat=len(edges)):
        least = True
        for lift in autos:
            moved = {}
            for (u, v), c in zip(edges, choice):
                a, b = lift[u], lift[v]
                if a > b:
                    a, b, c = b, a, (1, 0, 2)[c]
                moved.setdefault((a, b), []).append(c)
            image = tuple(c for pair in sorted(moved) for c in sorted(moved[pair]))
            if image < choice:
                least = False
                break
        if least:
            out.append(choice)
    return out


def test_orbit_minimal_choices_match_brute_force():
    for d in (2, 3):
        for graph in enumerate_skeletons(d):
            assert list(_orbit_minimal_choices(graph)) == _orbit_minimal_by_brute_force(graph)


def test_quiver_lists_match_the_product_reference():
    # one quiver per choice tuple, keyed by the depth-first canonical search:
    # the same members, the same representatives, the same order
    for d in (1, 2, 3):
        got = [q.to_dict() for q in enumerate_Rd(d)]
        assert got == [q.to_dict() for q in enumerate_Rd_reference(d)], d


def test_quiver_list_builds_only_acyclic_orbit_representatives(monkeypatch):
    import torquiv.classify as classify

    built = []
    real = classify.build_Rd_quiver

    def counting(graph, choices):
        built.append(1)
        return real(graph, choices)

    monkeypatch.setattr(classify, "build_Rd_quiver", counting)
    assert len(classify.enumerate_Rd(3)) == len(built) == 131


def test_enumerate_Rd_leaves_no_reference_cycles():
    enumerate_Rd(2)
    gc.collect()
    gc.disable()
    try:
        enumerate_Rd(3)
        enumerate_skeletons(3)
        enumerate_maximal_skeletons(3)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the zero-weight lists -----------------------------------------------------


def bidirected_triangle():
    verts = ["x", "y", "z"]
    arrows = []
    for i, u in enumerate(verts):
        for j, v in enumerate(verts):
            if i != j:
                arrows.append(Arrow(f"e{i}{j}", u, v))
    return Quiver(verts, arrows)


def doubled_directed_triangle():
    verts = ["x", "y", "z"]
    arrows = []
    for k, (u, v) in enumerate([("x", "y"), ("y", "z"), ("z", "x")]):
        arrows.append(Arrow(f"f{k}", u, v))
        arrows.append(Arrow(f"g{k}", u, v))
    return Quiver(verts, arrows)


def test_affine_list_small_ranks():
    one = enumerate_affine_Rdd(1)
    assert len(one) == 1
    assert quiver_key(one[0]) == quiver_key(loop_quiver())
    assert enumerate_affine_Rdd(2) == []
    three = enumerate_affine_Rdd(3)
    assert len(three) == 1
    assert quiver_key(three[0]) == quiver_key(opposite_pair(2, 2)[0])


def test_affine_list_rank_four():
    got = {quiver_key(q) for q in enumerate_affine_Rdd(4)}
    expected = {
        quiver_key(opposite_pair(3, 2)[0]),
        quiver_key(doubled_directed_triangle()),
        quiver_key(bidirected_triangle()),
    }
    assert len(expected) == 3
    assert got == expected


def test_affine_list_defining_properties():
    for d in (3, 4, 5):
        members = enumerate_affine_Rdd(d)
        keys = [quiver_key(q) for q in members]
        assert len(set(keys)) == len(keys) and keys == sorted(keys)
        for q in members:
            assert is_prime(q)
            assert euler_characteristic(q) == d
            assert len(q.vertices) <= d - 1
            assert len(q.arrows) <= 2 * (d - 1)
            for v in q.vertices:
                assert q.indegree(v) >= 2 and q.outdegree(v) >= 2
            assert is_strongly_connected(q)
            for aid in q.sorted_arrow_ids():
                rest = q.without_arrow(aid)
                for comp in components(rest):
                    assert is_strongly_connected(rest.induced_on_vertices(comp))
    five = enumerate_affine_Rdd(5)
    five_keys = {quiver_key(q) for q in five}
    assert quiver_key(opposite_pair(4, 2)[0]) in five_keys
    assert quiver_key(opposite_pair(3, 3)[0]) in five_keys


def test_affine_compositions_prune_only_infeasible_branches():
    for n in (2, 3, 4):
        for e in range(n + 1, n + 5):
            expected = [
                c for c in compositions_reference(n * (n - 1), e) if degree_feasible(n, c)
            ]
            assert list(_affine_compositions(n, e)) == expected, (n, e)


def test_affine_lists_match_the_unpruned_reference():
    for d in (1, 2, 3, 4, 5):
        got = [q.to_dict() for q in enumerate_affine_Rdd(d)]
        assert got == [q.to_dict() for q in enumerate_affine_Rdd_reference(d)], d


def test_all_components_strong_matches_the_induced_subquivers():
    # one strong-component pass against a Tarjan run per induced weak
    # component, on quivers with cycles, loops and isolated vertices
    rng = random.Random(3)
    seen = set()
    for _ in range(400):
        q, _ = random_pair(rng, max_vertices=5, max_arrows=8)
        strong = _all_components_strong(q)
        assert strong == all_components_strong_reference(q), q.to_dict()
        seen.add(strong)
    assert seen == {True, False}


def test_affine_orbit_filter_matches_brute_force():
    for n in (2, 3, 4):
        for e in range(n + 1, n + 5):
            got = list(_orbit_least_compositions(n, e))
            assert got == orbit_least_compositions_reference(n, e), (n, e)


def test_affine_list_keys_one_quiver_per_member(monkeypatch):
    # a scan of every composition keys 5 quivers at d = 4 and 54 at d = 5;
    # the rank-1 loop quiver is returned without a key
    import torquiv.classify as classify

    keyed = []
    real = classify.quiver_key

    def counting(quiver):
        keyed.append(1)
        return real(quiver)

    monkeypatch.setattr(classify, "quiver_key", counting)
    for d, count, calls in ((1, 1, 0), (2, 0, 0), (3, 1, 1), (4, 3, 3), (5, 10, 10)):
        keyed.clear()
        assert len(classify.enumerate_affine_Rdd(d)) == count
        assert len(keyed) == calls, d


def _zero_stable_agrees(q):
    return is_strongly_connected(q) == is_theta_stable(q, {v: 0 for v in q.vertices})


def test_strong_connectivity_is_zero_weight_stability():
    # the rank-4 candidates, their components and their single-arrow
    # deletions, before any degree filter
    for n in (2, 3):
        for counts in compositions_reference(n * (n - 1), n + 3):
            q = affine_quiver(n, counts)
            for piece in [q] + [q.without_arrow(a) for a in q.sorted_arrow_ids()]:
                for comp in components(piece):
                    assert _zero_stable_agrees(piece.induced_on_vertices(comp))
    rng = random.Random(61)
    for _ in range(300):
        q, _ = random_pair(rng, max_vertices=5, max_arrows=8)
        assert _zero_stable_agrees(q)


def test_enumerate_affine_Rdd_leaves_no_reference_cycles():
    enumerate_affine_Rdd(3)
    gc.collect()
    gc.disable()
    try:
        enumerate_affine_Rdd(4)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- normal fans ----------------------------------------------------------------


def two_kroneckers():
    q = Quiver(
        ["p", "q", "r", "s"],
        [
            Arrow("a1", "p", "q"),
            Arrow("a2", "p", "q"),
            Arrow("b1", "r", "s"),
            Arrow("b2", "r", "s"),
        ],
    )
    return q, {"p": -1, "q": 1, "r": -1, "s": 1}


def test_triangle_fan_rays():
    q, w = quiver_a((-1, 1, 1, 1, -2))
    fan = normal_fan_2d(q, w)
    assert fan.rays == ((1, 1), (-1, 0), (0, -1))


def test_square_fan_rays():
    q, w = two_kroneckers()
    fan = normal_fan_2d(q, w)
    assert fan.rays == ((1, 0), (0, 1), (-1, 0), (0, -1))


def test_hexagon_fan():
    q, w = quiver_a((-3, 2, 2, 2, -3))
    fan = normal_fan_2d(q, w)
    assert len(fan.rays) == 6


def test_fan_rays_are_primitive_and_counterclockwise():
    import math

    for weights in [(-1, 1, 1, 1, -2), (-3, 2, 1, 2, -2), (-3, 2, 2, 2, -3)]:
        fan = normal_fan_2d(*quiver_a(weights))
        n = len(fan.rays)
        for x, y in fan.rays:
            assert math.gcd(abs(x), abs(y)) == 1
        for i in range(n):
            ax, ay = fan.rays[i]
            bx, by = fan.rays[(i + 1) % n]
            assert ax * by - ay * bx > 0


def test_fan_error_cases():
    q, w = kronecker()
    with pytest.raises(WrongDimension):
        normal_fan_2d(q, w)
    q, w = quiver_a()
    with pytest.raises(WrongDimension):
        normal_fan_2d(q, {v: 0 for v in q.vertices})
    with pytest.raises(EmptyPolyhedron):
        normal_fan_2d(q, {"s": 1, "m1": 1, "m2": 1, "m3": 1, "t": 1})
    q, w = two_cycle()
    with pytest.raises(UnsupportedCase):
        normal_fan_2d(q, w)


def test_fan_checks_match_the_tighten_first_reference():
    # the oriented-cycle and dimension checks read the input's support, and
    # give the same rays, errors and messages as on the tightened pair
    rng = random.Random(19)
    pairs = [(q, w) for _name, q, w in corpus_pairs()]
    for i in range(600):
        if i % 2:
            pairs.append(random_pair(rng, max_vertices=6, max_arrows=9, weight_bound=2))
        else:
            pairs.append(random_acyclic(rng, max_vertices=4, max_arrows=6, weight_bound=2))
    seen = collections.Counter()
    for q, w in pairs:
        try:
            got = normal_fan_2d(q, w).rays
        except DomainError as exc:
            got = exc.to_json()
        assert got == normal_fan_2d_reference(q, w), q.to_dict(w)
        seen[got["error"] if isinstance(got, dict) else "fan"] += 1
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def test_fan_of_a_long_path_is_refused_before_tightening(monkeypatch):
    import torquiv.classify as classify

    def refuse(*_args):
        raise AssertionError("a pair of the wrong dimension was tightened")

    monkeypatch.setattr(classify, "tighten", refuse)
    with pytest.raises(WrongDimension) as info:
        normal_fan_2d(*path_pair(1200))
    assert info.value.payload == {"dimension": 0}


# -- surface classification ------------------------------------------------------


def test_listing_pairs_classify_in_order():
    listing = [
        ((-1, 1, 1, 1, -2), "P2"),
        ((-3, 2, 1, 2, -2), "Bl1P2"),
        ((-4, 3, 2, 2, -3), "Bl2P2"),
        ((-3, 2, 2, 2, -3), "Bl3P2"),
    ]
    for weights, expected in listing:
        assert classify_2d(*quiver_a(weights)) == expected
    assert classify_2d(*two_kroneckers()) == "P1xP1"


def test_product_weight_on_connected_quiver():
    assert classify_2d(*quiver_a((-2, 1, 1, 2, -2))) == "P1xP1"


def test_classification_is_relabel_invariant():
    q, w = quiver_a((-4, 3, 2, 2, -3))
    renaming = {v: f"z_{v}" for v in q.vertices}
    relabeled = Quiver(
        [renaming[v] for v in q.vertices],
        [Arrow(f"z_{a.id}", renaming[a.tail], renaming[a.head]) for a in q.arrows],
    )
    relabeled_w = {renaming[v]: w[v] for v in q.vertices}
    assert classify_2d(relabeled, relabeled_w) == classify_2d(q, w)


def test_classification_is_reflection_invariant():
    q, w = quiver_a((-3, 2, 2, 2, -3))
    before = classify_2d(q, w)
    rq, rw = reflect(q, w, "m1")
    assert classify_2d(rq, rw) == before
    back_q, back_w = reflect(rq, rw, "m1")
    assert classify_2d(back_q, back_w) == before


def test_classification_ignores_removable_arrows():
    q, w = quiver_a((-1, 1, 1, 1, -2))
    padded = Quiver(
        list(q.vertices) + ["extra"],
        list(q.arrows) + [Arrow("a0", "extra", "s")],
    )
    padded_w = dict(w)
    padded_w["extra"] = 0
    assert classify_2d(padded, padded_w) == classify_2d(q, w)


def test_rank_two_weight_box_sweep():
    all_classes: set = set()
    tight_classes: set = set()
    for q in enumerate_Rd(2):
        verts = q.sorted_vertices()
        ranges = []
        for v in verts:
            if q.indegree(v) == 0:
                ranges.append(range(-4, 1))
            elif q.outdegree(v) == 0:
                ranges.append(range(0, 5))
            else:
                ranges.append(range(-4, 5))
        for values in itertools.product(*ranges[:-1]):
            last = -sum(values)
            if not (ranges[-1][0] <= last <= ranges[-1][-1]):
                continue
            w = dict(zip(verts, (*values, last)))
            try:
                name = classify_2d(q, w)
            except (EmptyPolyhedron, WrongDimension):
                continue
            all_classes.add(name)
            if is_tight(q, w):
                tight_classes.add(name)
    assert all_classes == {"P2", "Bl1P2", "Bl2P2", "Bl3P2", "P1xP1"}
    # a tight pair on a connected prime quiver has an indecomposable
    # polytope, so the product surface only appears after tightening moves
    # split the pair apart
    assert tight_classes == {"P2", "Bl1P2", "Bl2P2", "Bl3P2"}


# -- realization on 3-regular skeletons -------------------------------------------


def sink_subdivision(graph):
    q = build_Rd_quiver(graph, ["sink"] * len(graph.edges))
    return q, canonical_weight(q)


def test_realization_is_identity_on_three_regular_input():
    q, w = sink_subdivision(k4())
    assert is_tight(q, w)
    rq, rw = realize_Rprime(q, w)
    assert quiver_key(rq) == quiver_key(q)
    assert sorted(rw.values()) == sorted(w.values())


def test_realization_returns_the_two_arrow_quiver_unchanged():
    q = kronecker_quiver()
    w = {"u": -2, "v": 2}
    rq, rw = realize_Rprime(q, w)
    assert quiver_key(rq) == quiver_key(q)
    assert rw == w


def test_realization_splits_hubs_until_three_regular():
    q, w = sink_subdivision(banana(4))
    assert is_tight(q, w)
    rq, rw = realize_Rprime(q, w)
    graph = skeleton(rq)
    assert all(graph.degree(v) == 3 for v in graph.vertices)
    assert canonical_key(graph) in {
        canonical_key(g) for g in enumerate_maximal_skeletons(3)
    }
    for k in (1, 2, 3):
        assert len(lattice_points(q, w, k)) == len(lattice_points(rq, rw, k))
    tq, tw, _ = tighten(q, w)
    trq, trw, _ = tighten(rq, rw)
    assert dimension(tq, tw) == dimension(trq, trw)
    assert len(facet_arrows(tq, tw)) == len(facet_arrows(trq, trw))


def test_realization_rejects_pairs_outside_the_normal_form():
    path = Quiver(["u", "v", "w"], [Arrow("a", "u", "v"), Arrow("b", "v", "w")])
    with pytest.raises(NotInRd):
        realize_Rprime(path, {"u": -1, "v": 0, "w": 1})
    q, w = quiver_a((-1, 1, 1, 1, -2))
    with pytest.raises(NotTight):
        realize_Rprime(q, w)
