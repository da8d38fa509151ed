import itertools
import random
import time

import pytest

import torquiv.multigraph as multigraph
from torquiv.classify import build_Rd_quiver, enumerate_maximal_skeletons, enumerate_Rd
from torquiv.errors import SearchCapExceeded
from torquiv.multigraph import (
    Multigraph,
    are_isomorphic,
    automorphisms,
    canonical_key,
    directed_canonical_key,
    from_canonical_key,
)

from helpers import (
    canonical_key_reference,
    contract_edge,
    directed_canonical_key_reference,
    directed_search_setup,
    prefix_automorphisms_reference,
    prefix_canonical_key_reference,
    prefix_directed_canonical_key_reference,
    prefix_search_reference,
)


def brute_force_isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    """Reference oracle: try every vertex bijection."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    v1, v2 = list(g1.vertices), list(g2.vertices)
    for perm in itertools.permutations(v2):
        lift = dict(zip(v1, perm))
        ok = True
        for a in v1:
            for b in v1:
                if g1.multiplicity(a, b) != g2.multiplicity(lift[a], lift[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def random_multigraph(rng, n, max_edges):
    verts = [f"v{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randrange(max_edges + 1)):
        u = rng.choice(verts)
        v = rng.choice(verts)
        edges.append((u, v))
    return Multigraph(verts, edges)


def relabelled(rng, g):
    verts = list(g.vertices)
    shuffled = verts[:]
    rng.shuffle(shuffled)
    lift = dict(zip(verts, shuffled))
    return Multigraph(shuffled, [(lift[u], lift[v]) for u, v in g.edges])


def test_degree_counts_loops_twice():
    g = Multigraph(["a", "b"], [("a", "a"), ("a", "b")])
    assert g.degree("a") == 3
    assert g.degree("b") == 1
    assert g.loop_count("a") == 1
    assert not g.is_loopless()


def test_canonical_key_round_trip():
    g = Multigraph(["x", "y", "z"], [("x", "y"), ("x", "y"), ("y", "z")])
    key = canonical_key(g)
    g2 = from_canonical_key(key)
    assert canonical_key(g2) == key
    assert brute_force_isomorphic(g, g2)


def test_canonical_key_invariant_under_relabel():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randrange(1, 6)
        g = random_multigraph(rng, n, 7)
        h = relabelled(rng, g)
        assert canonical_key(g) == canonical_key(h)


def test_canonical_key_separates_non_isomorphic():
    rng = random.Random(23)
    seen_diff = 0
    for _ in range(200):
        n = rng.randrange(2, 5)
        g = random_multigraph(rng, n, 6)
        h = random_multigraph(rng, n, 6)
        same_key = canonical_key(g) == canonical_key(h)
        same_truth = brute_force_isomorphic(g, h)
        assert same_key == same_truth
        if not same_truth:
            seen_diff += 1
    assert seen_diff >= 50


def test_are_isomorphic_matches_oracle():
    g = Multigraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    h = Multigraph(["1", "2", "3"], [("2", "1"), ("3", "2"), ("1", "3")])
    assert are_isomorphic(g, h)
    k = Multigraph(["1", "2", "3"], [("1", "2"), ("1", "2"), ("2", "3")])
    assert not are_isomorphic(g, k)


def test_regular_but_distinct():
    # both 3-regular on 4 vertices: K4 versus the doubled 4-cycle... on four
    # vertices the doubled cycle needs 2x2 parallel pairs; use 2C4 vs K4 on
    # suitable vertex counts where naive degree hashing would collide
    k4 = Multigraph(
        ["1", "2", "3", "4"],
        [(a, b) for a, b in itertools.combinations("1234", 2)],
    )
    c4x = Multigraph(
        ["1", "2", "3", "4"],
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"), ("1", "3"), ("2", "4")],
    )
    # c4x is actually K4 again (cycle plus both diagonals); sanity: keys equal
    assert canonical_key(k4) == canonical_key(c4x)
    doubled = Multigraph(
        ["1", "2", "3", "4"],
        [("1", "2"), ("1", "2"), ("3", "4"), ("3", "4"), ("2", "3"), ("4", "1")],
    )
    assert canonical_key(k4) != canonical_key(doubled)
    assert not brute_force_isomorphic(k4, doubled)


def test_two_connected():
    triangle = Multigraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert triangle.is_two_connected()
    parallel = Multigraph(["a", "b"], [("a", "b"), ("a", "b")])
    assert parallel.is_two_connected()
    path = Multigraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert not path.is_two_connected()
    single = Multigraph(["a"], [])
    assert not single.is_two_connected()
    loopy = Multigraph(["a", "b"], [("a", "b"), ("a", "b"), ("a", "a")])
    assert not loopy.is_two_connected()
    disconnected = Multigraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert not disconnected.is_two_connected()


def test_two_connected_matches_vertex_deletion():
    # no loops, connected, and connected after deleting any one vertex
    rng = random.Random(71)
    for _ in range(300):
        g = random_multigraph(rng, rng.randrange(1, 6), 8)
        expected = (
            len(g.vertices) >= 2
            and g.is_loopless()
            and g.is_connected()
            and all(
                Multigraph([u for u in g.vertices if u != v], [e for e in g.edges if v not in e])
                .is_connected()
                for v in g.vertices
            )
        )
        assert g.is_two_connected() == expected, g.to_json()


def test_contract_edge_drops_new_loops():
    g = Multigraph(["a", "b", "c"], [("a", "b"), ("a", "b"), ("b", "c")])
    h = contract_edge(g, 0)
    assert len(h.vertices) == 2
    # the parallel copy of the contracted edge becomes a loop and is dropped
    assert len(h.edges) == 1
    assert h.num_components() == 1


def test_euler_characteristic():
    g = Multigraph(["a", "b"], [("a", "b"), ("a", "b"), ("a", "b")])
    assert g.euler_characteristic() == 2
    h = Multigraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert h.euler_characteristic() == 0


# -- directed canonical keys ---------------------------------------------------


def brute_force_digraph_isomorphic(verts1, arcs1, verts2, arcs2) -> bool:
    """Reference oracle for directed multigraphs: try every bijection."""
    if len(verts1) != len(verts2) or len(arcs1) != len(arcs2):
        return False
    bag2 = sorted(arcs2)
    for perm in itertools.permutations(verts2):
        lift = dict(zip(verts1, perm))
        if sorted((lift[t], lift[h]) for t, h in arcs1) == bag2:
            return True
    return False


def random_digraph(rng, n, max_arcs):
    verts = [f"v{i}" for i in range(n)]
    arcs = []
    for _ in range(rng.randrange(max_arcs + 1)):
        arcs.append((rng.choice(verts), rng.choice(verts)))
    return verts, arcs


def test_directed_key_invariant_under_relabel():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randrange(1, 6)
        verts, arcs = random_digraph(rng, n, 7)
        shuffled = verts[:]
        rng.shuffle(shuffled)
        lift = dict(zip(verts, shuffled))
        relabeled = [(lift[t], lift[h]) for t, h in arcs]
        assert directed_canonical_key(verts, arcs) == directed_canonical_key(
            shuffled, relabeled
        )


def test_directed_key_matches_brute_force():
    rng = random.Random(47)
    seen_diff = 0
    for _ in range(200):
        n = rng.randrange(2, 5)
        verts1, arcs1 = random_digraph(rng, n, 6)
        verts2, arcs2 = random_digraph(rng, n, 6)
        same_key = directed_canonical_key(verts1, arcs1) == directed_canonical_key(
            verts2, arcs2
        )
        same_truth = brute_force_digraph_isomorphic(verts1, arcs1, verts2, arcs2)
        assert same_key == same_truth
        if not same_truth:
            seen_diff += 1
    assert seen_diff >= 50


def test_directed_key_sees_orientation():
    verts = ["a", "b"]
    two_cycle = [("a", "b"), ("b", "a")]
    two_parallel = [("a", "b"), ("a", "b")]
    assert directed_canonical_key(verts, two_cycle) != directed_canonical_key(
        verts, two_parallel
    )
    # both of these are 2-in 2-out on three vertices with six arcs
    tri = ["x", "y", "z"]
    doubled_cycle = [("x", "y"), ("x", "y"), ("y", "z"), ("y", "z"), ("z", "x"), ("z", "x")]
    both_ways = [("x", "y"), ("y", "x"), ("y", "z"), ("z", "y"), ("z", "x"), ("x", "z")]
    assert directed_canonical_key(tri, doubled_cycle) != directed_canonical_key(
        tri, both_ways
    )
    assert not brute_force_digraph_isomorphic(tri, doubled_cycle, tri, both_ways)


def test_directed_key_rejects_bad_input():
    try:
        directed_canonical_key(["a", "a"], [])
        assert False, "duplicate vertex must be rejected"
    except ValueError:
        pass
    try:
        directed_canonical_key(["a"], [("a", "b")])
        assert False, "dangling arc must be rejected"
    except ValueError:
        pass


# -- the tie-level search against the depth-first reference ---------------------


def twinned_pairs(rng, n, max_pairs):
    """Random (u, v) pairs on n vertices, loops and repeats allowed, then
    some vertices cloned so that twins occur, and some isolated ones."""
    verts = [f"v{i}" for i in range(n)]
    pairs = []
    for k in range(rng.randrange(max_pairs + 1) if n else 0):
        pairs.append((rng.choice(verts), rng.choice(verts)))
    for k in range(rng.randrange(3) if n else 0):
        model, clone = rng.choice(verts), f"t{k}"
        copies = [
            (clone if u == model else u, clone if v == model else v)
            for u, v in pairs
            if model in (u, v)
        ]
        pairs += copies
        verts.append(clone)
    verts += [f"z{k}" for k in range(rng.randrange(3))]
    return verts, pairs


def test_keys_match_the_depth_first_reference():
    rng = random.Random(83)
    for _ in range(300):
        verts, pairs = twinned_pairs(rng, rng.randrange(5), 7)
        g = Multigraph(verts, pairs)
        assert canonical_key(g) == canonical_key_reference(g), (verts, pairs)
        assert directed_canonical_key(verts, pairs) == directed_canonical_key_reference(
            verts, pairs
        ), (verts, pairs)


def test_automorphisms_match_brute_force():
    rng = random.Random(89)
    for _ in range(150):
        verts, pairs = twinned_pairs(rng, rng.randrange(5), 6)
        g = Multigraph(verts, pairs)
        index = {v: i for i, v in enumerate(g.vertices)}
        expected = []
        for perm in itertools.permutations(range(len(g.vertices))):
            moved = sorted(
                tuple(sorted((g.vertices[perm[index[u]]], g.vertices[perm[index[v]]])))
                for u, v in g.edges
            )
            if moved == list(g.edges):
                expected.append(perm)
        assert automorphisms(g) == expected, (verts, pairs)


def test_twin_heavy_keys_stay_fast():
    # 16! orderings for the depth-first search; one per twin class here
    leaves = [f"l{i}" for i in range(16)]
    cases = [
        lambda: directed_canonical_key(["hub"] + leaves, [("hub", v) for v in leaves]),
        lambda: directed_canonical_key(leaves, []),
        lambda: canonical_key(Multigraph(["u", "v"], [("u", "v")] * 12)),
    ]
    for case in cases:
        start = time.perf_counter()
        case()
        assert time.perf_counter() - start < 0.25
    assert automorphisms(Multigraph(leaves[:5], []))[1] == (0, 1, 2, 4, 3)


def disjoint_directed_triangles(k):
    verts = [f"t{i}_{j}" for i in range(k) for j in range(3)]
    arcs = [(f"t{i}_{j}", f"t{i}_{(j + 1) % 3}") for i in range(k) for j in range(3)]
    return verts, arcs


def test_canonical_search_spends_the_node_budget(monkeypatch):
    # k disjoint directed triangles tie about 3^k k! orderings and have no
    # twins; four take 77,040 block evaluations, five 1,732,725
    four, five = disjoint_directed_triangles(4), disjoint_directed_triangles(5)
    key = directed_canonical_key(*four)
    monkeypatch.setattr(multigraph, "DEFAULT_MAX_NODES", 77_040)
    assert directed_canonical_key(*four) == key
    monkeypatch.setattr(multigraph, "DEFAULT_MAX_NODES", 77_039)
    with pytest.raises(SearchCapExceeded):
        directed_canonical_key(*four)
    monkeypatch.setattr(multigraph, "DEFAULT_MAX_NODES", 100_000)
    with pytest.raises(SearchCapExceeded) as capped:
        directed_canonical_key(*five)
    detail = capped.value.to_json()["detail"]
    assert detail["search"] == "canonical_key" and detail["max_nodes"] == 100_000


def test_canonical_search_stops_near_the_node_budget(monkeypatch):
    # the budget is checked after each tied prefix, so the search stops
    # within n = 21 evaluations past it, not at the end of the level
    budget = 100_000
    evaluations = []
    min_encoding = multigraph._min_encoding

    def counting(n, colors, twin, extend):
        def counted(prefix, v):
            evaluations.append(v)
            return extend(prefix, v)

        return min_encoding(n, colors, twin, counted)

    monkeypatch.setattr(multigraph, "DEFAULT_MAX_NODES", budget)
    monkeypatch.setattr(multigraph, "_min_encoding", counting)
    with pytest.raises(SearchCapExceeded):
        directed_canonical_key(*disjoint_directed_triangles(7))
    assert budget < len(evaluations) <= budget + 21


def test_cell_search_stops_near_the_node_budget(monkeypatch):
    # three isolated vertices form an arc-free class, so seven triangles
    # beside them take the cell search, where the triangles tie as they do
    # in the prefix search; it must stop within n = 24 evaluations past it
    budget = 20_000
    evaluations = []
    cell_encoding = multigraph._cell_encoding

    def counting(mult, colors, twin, extend):
        def counted(prefix, v):
            evaluations.append(v)
            assert len(evaluations) <= budget + 24
            return extend(prefix, v)

        return cell_encoding(mult, colors, twin, counted)

    def no_prefix_search(*args):
        raise AssertionError("took the prefix search")

    monkeypatch.setattr(multigraph, "DEFAULT_MAX_NODES", budget)
    monkeypatch.setattr(multigraph, "_cell_encoding", counting)
    monkeypatch.setattr(multigraph, "_min_encoding", no_prefix_search)
    verts, arcs = disjoint_directed_triangles(7)
    with pytest.raises(SearchCapExceeded):
        directed_canonical_key(verts + ["z0", "z1", "z2"], arcs)
    assert budget < len(evaluations)


# -- the cell search against the prefix search ----------------------------------


def sink_subdivided(rng, n, max_pairs):
    """twinned_pairs with most pairs subdivided by a fresh sink s joined to
    both ends, so that the sinks form color classes with no arc inside."""
    verts, pairs = twinned_pairs(rng, n, max_pairs)
    out = []
    for k, (u, v) in enumerate(pairs):
        if rng.random() < 0.7:
            verts.append(f"s{k}")
            out += [(u, f"s{k}"), (v, f"s{k}")]
        else:
            out.append((u, v))
    return verts, out


def leafed_cycle(k):
    """A directed k-cycle of doubled arcs with a pendant leaf pointing at
    each of its vertices.  The leaves, an arc-free class, are placed first,
    and a cycle vertex tells the leaves apart by arcs from them only."""
    hubs = [f"h{i}" for i in range(k)]
    arcs = [(hubs[i], hubs[(i + 1) % k]) for i in range(k)] * 2
    return hubs + [f"l{i}" for i in range(k)], arcs + [(f"l{i}", hubs[i]) for i in range(k)]


def test_cell_search_matches_the_prefix_search():
    rng = random.Random(97)
    # a directed triangle beside three isolated vertices: a cycle vertex
    # must not join the cell of the vertex with an arc into it
    fixed = [
        leafed_cycle(3),
        leafed_cycle(4),
        (["h0", "h1", "h2", "z0", "z1", "z2"], [("h0", "h1"), ("h1", "h2"), ("h2", "h0")]),
    ]
    seeded = [sink_subdivided(rng, rng.randrange(1, 4), 6) for _ in range(120)]
    cells = 0
    for verts, pairs in fixed + seeded:
        g = Multigraph(verts, pairs)
        assert canonical_key(g) == prefix_canonical_key_reference(g), (verts, pairs)
        if len(verts) <= 12:  # larger ones can have 10^5 automorphisms
            assert automorphisms(g) == prefix_automorphisms_reference(g), (verts, pairs)
        assert directed_canonical_key(verts, pairs) == prefix_directed_canonical_key_reference(
            verts, pairs
        ), (verts, pairs)
        mult, colors, _ = directed_search_setup(verts, pairs)
        cells += len(set(colors)) < len(verts) and multigraph._has_open_class(mult, colors)
    assert cells >= 40


def test_quiver_list_keys_match_the_prefix_search():
    for d in (2, 3):
        for q in enumerate_Rd(d):
            verts, arcs = q.sorted_vertices(), [(a.tail, a.head) for a in q.arrows]
            assert directed_canonical_key(verts, arcs) == prefix_directed_canonical_key_reference(
                verts, arcs
            )
            g = Multigraph(verts, arcs)
            assert automorphisms(g) == prefix_automorphisms_reference(g)


def test_all_sink_quivers_take_the_cell_search(monkeypatch):
    # every edge of a rank-3 cubic skeleton subdivided by a sink: the six
    # sinks form one color class with no arc inside, which the prefix
    # search ties in up to 6! orderings
    evaluations = []
    cell_encoding = multigraph._cell_encoding

    def counting(mult, colors, twin, extend):
        def counted(prefix, v):
            evaluations.append(v)
            return extend(prefix, v)

        return cell_encoding(mult, colors, twin, counted)

    monkeypatch.setattr(multigraph, "_cell_encoding", counting)
    counts = []
    for g in enumerate_maximal_skeletons(3):
        q = build_Rd_quiver(g, ["sink"] * len(g.edges))
        verts, arcs = q.sorted_vertices(), [(a.tail, a.head) for a in q.arrows]
        evaluations.clear()
        assert directed_canonical_key(verts, arcs) == prefix_directed_canonical_key_reference(
            verts, arcs
        )
        prefix_evaluations = prefix_search_reference(*directed_search_setup(verts, arcs))[3]
        counts.append((len(evaluations), prefix_evaluations))
    assert counts == [(112, 1362), (256, 5388)]
