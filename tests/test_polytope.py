import gc
import random
import time
import warnings

import pytest

from torquiv import (
    Arrow,
    BoundedFlowSpec,
    Quiver,
    bounded_lattice_points,
    check_normality,
    dimension,
    euler_characteristic,
    facet_arrows,
    lattice_points,
    primitive_cycles,
    recession_hilbert_basis,
    to_quiver_polytope,
    vertices,
)
from torquiv import polytope
from torquiv.corpus import acyclic_corpus_pairs, corpus_pairs, crossed_ladder_pair
from torquiv.errors import (
    EmptyPolyhedron,
    EmptyWeight,
    SearchCapExceeded,
    UnboundedPolyhedron,
)
from torquiv.polytope import _NodeBudget, gadget_flow
from torquiv.quiver import components, is_acyclic

from helpers import (
    affine_cycle_pair,
    affine_rank,
    bounded_lattice_points_reference,
    flow_tuple,
    hull_vertices,
    integer_walk_reference,
    kronecker,
    loop_quiver,
    path_pair,
    quiver_a,
    random_acyclic,
    random_box,
    random_pair,
    two_cycle,
)


def test_kronecker_lattice_points():
    q, w = kronecker()
    pts = lattice_points(q, w, 1)
    assert pts == [{"a1": 0, "a2": 1}, {"a1": 1, "a2": 0}]
    assert len(lattice_points(q, w, 2)) == 3


def test_quiver_a_counts():
    q, w = quiver_a((-1, 1, 1, 1, -2))
    assert len(lattice_points(q, w, 1)) == 3
    q, w = quiver_a((-3, 2, 2, 2, -3))
    assert len(lattice_points(q, w, 1)) == 7


def test_cyclic_raises():
    q, w = two_cycle()
    with pytest.raises(UnboundedPolyhedron):
        lattice_points(q, w, 1)


def test_unbalanced_weight_warns_empty():
    q, _ = kronecker()
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        pts = lattice_points(q, {"s": -1, "t": 2}, 1)
    assert pts == []
    assert any(issubclass(r.category, EmptyWeight) for r in log)


def test_bounded_lattice_points():
    q = Quiver(["u", "v"], [Arrow("a", "u", "v")])
    spec = BoundedFlowSpec(q, {"u": -1, "v": 1}, {"a": 0}, {"a": 2})
    assert bounded_lattice_points(spec) == [{"a": 1}]

    q2, w2 = two_cycle()
    spec2 = BoundedFlowSpec(q2, w2, {"a": 0, "b": 0}, {"a": 1, "b": 1})
    assert bounded_lattice_points(spec2) == [{"a": 0, "b": 0}, {"a": 1, "b": 1}]

    spec3 = BoundedFlowSpec(q, {"u": 1, "v": 1}, {"a": 0}, {"a": 2})
    assert bounded_lattice_points(spec3) == []

    q4 = Quiver(["u", "v", "w", "z"], [Arrow("a", "u", "v")])
    weight4 = {"u": -1, "v": 1, "w": 1, "z": -1}
    spec4 = BoundedFlowSpec(q4, weight4, {"a": 0}, {"a": 2})
    assert bounded_lattice_points(spec4) == []  # w and z have no arrows

    # a loop changes no divergence, so it takes every value of its box,
    # also where its sorted id comes before the other arrows'
    q5 = Quiver(["u", "v"], [Arrow("b", "u", "v"), Arrow("a", "u", "u")])
    spec5 = BoundedFlowSpec(q5, {"u": -1, "v": 1}, {"a": 1, "b": 0}, {"a": 3, "b": 2})
    assert bounded_lattice_points(spec5) == [{"a": x, "b": 1} for x in (1, 2, 3)]
    spec5w = BoundedFlowSpec(q5, {"u": 1, "v": -1}, {"a": 1, "b": 0}, {"a": 3, "b": 2})
    assert bounded_lattice_points(spec5w) == []

    # lower bounds shift the weight: a 2-cycle with l = 1 on both arrows
    spec6 = BoundedFlowSpec(q2, {"u": -1, "v": 1}, {"a": 1, "b": 1}, {"a": 3, "b": 2})
    assert bounded_lattice_points(spec6) == [{"a": 2, "b": 1}, {"a": 3, "b": 2}]


def test_bounded_lattice_points_match_the_reference_backtracking():
    rng = random.Random(2024)
    nonempty = looped = 0
    for _ in range(600):
        spec = random_box(rng)
        points = bounded_lattice_points(spec)
        assert points == bounded_lattice_points_reference(spec), spec
        order = spec.quiver.sorted_arrow_ids()
        assert all(list(p) == order for p in points)
        nonempty += bool(points)
        looped += bool(points) and any(a.is_loop() for a in spec.quiver.arrows)
    assert nonempty >= 200 and looped >= 150, (nonempty, looped)


def test_flow_to_quiver_polytope_gadget():
    q = Quiver(["u", "v"], [Arrow("a", "u", "v")])
    spec = BoundedFlowSpec(q, {"u": -2, "v": 2}, {"a": 1}, {"a": 3})
    gq, gw = to_quiver_polytope(spec)
    assert len(gq.vertices) == 4
    assert len(gq.arrows) == 3
    assert gw["v_a"] == 2 and gw["w_a"] == -2
    # lower-bound shift lands on the original endpoints
    assert gw["u"] == -2 + 1 and gw["v"] == 2 - 1
    # the bijection carries bounded flows to degree-1 lattice points
    flows = bounded_lattice_points(spec)
    assert flows == [{"a": 2}]  # the divergence constraint forces x(a)=2
    images = [gadget_flow(spec, f) for f in flows]
    pts = lattice_points(gq, gw, 1)
    for img in images:
        assert img in pts
    assert len(images) == len(pts) == 1


def test_gadget_forced_when_bounds_tie():
    q, w = two_cycle()
    spec = BoundedFlowSpec(q, w, {"a": 1, "b": 1}, {"a": 1, "b": 1})
    gq, gw = to_quiver_polytope(spec)
    assert len(lattice_points(gq, gw, 1)) == 1


def test_gadget_round_trip_counts():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        verts = [f"v{i}" for i in range(n)]
        arrows = [
            Arrow(f"a{k}", rng.choice(verts), rng.choice(verts))
            for k in range(rng.randint(1, 3))
        ]
        q = Quiver(verts, arrows)
        lower = {a.id: rng.randint(0, 1) for a in arrows}
        upper = {a.id: lower[a.id] + rng.randint(0, 2) for a in arrows}
        w = [rng.randint(-2, 2) for _ in range(n - 1)]
        w.append(-sum(w))
        spec = BoundedFlowSpec(q, dict(zip(verts, w)), lower, upper)
        gq, gw = to_quiver_polytope(spec)
        assert len(bounded_lattice_points(spec)) == len(lattice_points(gq, gw, 1))


def test_vertices_kronecker_and_triangle():
    q, w = kronecker()
    assert vertices(q, w) == lattice_points(q, w, 1)
    qa, wa = quiver_a((-1, 1, 1, 1, -2))
    assert len(vertices(qa, wa)) == 3


def test_vertices_hexagon_excludes_interior():
    q, w = quiver_a((-3, 2, 2, 2, -3))
    vs = vertices(q, w)
    assert len(vs) == 6
    interior = {"a1": 1, "a2": 1, "a3": 1, "a4": 1, "a5": 1, "a6": 1}
    assert interior in lattice_points(q, w, 1)
    assert interior not in vs


def test_vertices_of_cone_is_origin():
    q, w = two_cycle()
    assert vertices(q, w) == [{"a": 0, "b": 0}]
    qd, wd = affine_cycle_pair(3)
    assert vertices(qd, wd) == [{a.id: 0 for a in qd.arrows}]


def _random_pairs(seed, count):
    """Seeded acyclic draws and draws with cycles, loops and loop-only
    vertices, in turn."""
    rng = random.Random(seed)
    return [
        random_pair(rng) if i % 2 else random_acyclic(rng, max_vertices=4, max_arrows=6, weight_bound=2)
        for i in range(count)
    ]


def test_vertices_match_hull_oracle_on_random_pairs():
    seen = {"nonempty": 0, "several": 0, "cyclic": 0, "loop_only_weighted": 0}
    for q, w in _random_pairs(31, 240):
        produced = vertices(q, w)
        order = q.sorted_arrow_ids()
        tuples = [flow_tuple(v, order) for v in produced]
        assert set(tuples) == hull_vertices(q, w), (q, w)
        assert tuples == sorted(set(tuples))  # sorted, each vertex once
        assert all(list(v) == order for v in produced)
        seen["nonempty"] += bool(produced)
        seen["several"] += len(produced) > 1
        seen["cyclic"] += bool(produced) and not is_acyclic(q)
        seen["loop_only_weighted"] += any(
            w[v] and all(a.is_loop() for a in q.arrows if v in (a.tail, a.head))
            for v in q.vertices
        )
    assert seen["nonempty"] >= 60 and seen["several"] >= 20, seen
    assert seen["cyclic"] >= 10 and seen["loop_only_weighted"] >= 10, seen


def test_vertices_with_loops():
    q = Quiver(
        ["u", "v", "w"],
        [Arrow("a", "u", "v"), Arrow("l", "w", "w"), Arrow("m", "u", "u")],
    )
    # w carries only a loop, so no flow meets a nonzero weight there
    assert vertices(q, {"u": -1, "v": 0, "w": 1}) == []
    assert vertices(q, {"u": -1, "v": 1, "w": 0}) == [{"a": 1, "l": 0, "m": 0}]
    q1, w1 = loop_quiver()
    assert vertices(q1, w1) == [{"a": 0}]
    assert vertices(q1, {"v": 0}) == [{"a": 0}]


def test_single_point_path_under_default_cap():
    # the only flow on a 30-vertex path is 1 everywhere; a walk over the
    # path's 2^29 sub-forests would exceed the default cap
    names = [f"v{i}" for i in range(30)]
    q = Quiver(names, [Arrow(f"a{i:02d}", names[i], names[i + 1]) for i in range(29)])
    w = {v: 0 for v in names}
    w["v0"], w["v29"] = -1, 1
    assert vertices(q, w) == [{a.id: 1 for a in q.arrows}]
    assert dimension(q, w) == 0


def test_ladder_d4_vertices_in_a_small_search():
    q, w = crossed_ladder_pair(4)
    corners = vertices(q, w, max_nodes=10_000)
    assert len(corners) == 30
    for m in corners:
        support = q.restricted_to_arrows([a for a, x in m.items() if x])
        assert len(support.arrows) == len(q.vertices) - len(components(support))


def test_integer_walk_leaves_no_reference_cycles():
    # the points a walk found free when the caller drops them, not at the
    # next full collection, so a long run of jobs does not grow its peak
    # memory with the garbage of earlier ones
    q, w = crossed_ladder_pair(3)
    gc.collect()
    gc.disable()
    try:
        lattice_points(q, w, 2)
        vertices(q, w)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bounded_walk_leaves_no_reference_cycles():
    q, w = two_cycle()
    spec = BoundedFlowSpec(q, w, {"a": 0, "b": 0}, {"a": 2, "b": 2})
    gc.collect()
    gc.disable()
    try:
        assert len(bounded_lattice_points(spec)) == 3
        assert gc.collect() == 0
    finally:
        gc.enable()


# Search nodes of `lattice_points` at k = 1, 2 and of `vertices`, counted on
# the walk that charged its budget once per try (None: cyclic, no points).
# The first 10 draws of random.Random(14) with a degree-1 point follow.
WALK_NODES = {
    "surface_p2": (17, 33, 17),
    "surface_bl1p2": (29, 68, 28),
    "surface_bl2p2": (47, 127, 33),
    "surface_bl3p2": (39, 103, 37),
    "surface_p1xp1": (12, 24, 12),
    "ladder_d3": (269, 1604, 265),
    "ladder_d4": (933, 9204, 922),
    "affine_degree_d3": (None, None, 6),
    "affine_degree_d4": (None, None, 8),
    "affine_degree_d5": (None, None, 10),
    "subdivided_doubled_square": (210, 1058, 184),
    "subdivided_complete4": (269, 1604, 265),
    "bipartite_k22": (8, 12, 8),
    "bipartite_k33": (44, 139, 44),
}
RANDOM_WALK_NODES = [
    (274, 2716, 64),
    (4, 6, 4),
    (8, 14, 4),
    (7, 7, 7),
    (209, 1781, 53),
    (43, 148, 43),
    (104, 539, 19),
    (29, 90, 13),
    (2, 2, 2),
    (64, 274, 64),
]


def test_walk_node_counts_pin_every_cap_verdict():
    # each walk answers at max_nodes = N and hits the cap at N - 1, so its
    # node count is N: the one charge per search node spends what one
    # charge per try spent, and every cap verdict stays
    cases = [(q, w, WALK_NODES[stem]) for stem, q, w in corpus_pairs()]
    rng = random.Random(14)
    while len(cases) < len(WALK_NODES) + len(RANDOM_WALK_NODES):
        q, w = random_acyclic(rng, max_vertices=6, max_arrows=10, weight_bound=3)
        if lattice_points(q, w, 1):
            cases.append((q, w, RANDOM_WALK_NODES[len(cases) - len(WALK_NODES)]))
    for q, w, nodes in cases:
        calls = [lambda m: vertices(q, w, m)]
        if nodes[0] is not None:
            calls = [lambda m, k=k: lattice_points(q, w, k, m) for k in (1, 2)] + calls
        for call, n in zip(calls, [x for x in nodes if x is not None]):
            call(n)
            with pytest.raises(SearchCapExceeded):
                call(n - 1)


def test_integer_walk_matches_the_recursive_reference(monkeypatch):
    # the looped walk finds the points of the walk that recursed once per
    # search node and charges its budget the same number of nodes
    walk = polytope._integer_walk
    seen = {"lattice": 0, "forest": 0, "charged": 0}

    def checked(arrows, need, caps, columns, budget, values=None):
        expected_budget = _NodeBudget(budget.left)
        expected = integer_walk_reference(arrows, need, caps, columns, expected_budget, values)
        points = walk(arrows, need, caps, columns, budget, values)
        assert points == expected, (arrows, need, caps, values)
        assert budget.left == expected_budget.left, (arrows, need, caps, values)
        seen["lattice" if values is None else "forest"] += 1
        seen["charged"] += budget.left < budget.max
        return points

    monkeypatch.setattr(polytope, "_integer_walk", checked)
    pairs = [(q, w) for _stem, q, w in acyclic_corpus_pairs()]
    for q, w in pairs:
        for k in (1, 2, 3):
            lattice_points(q, w, k)
    rng = random.Random(18)
    while len(pairs) < 120:
        q, w = random_acyclic(rng, max_vertices=6, max_arrows=10, weight_bound=3)
        if lattice_points(q, w, 1):
            lattice_points(q, w, 2)
            pairs.append((q, w))
    for q, w in pairs + _random_pairs(19, 200):
        vertices(q, w)
    rng = random.Random(20)
    for _ in range(600):
        bounded_lattice_points(random_box(rng))
    assert seen["lattice"] >= 1000 and seen["forest"] >= 300 and seen["charged"] >= 450, seen


def test_long_path_vertex_in_linear_time():
    # the value sets of `vertices` sum only the weighted vertices of a
    # component, so a 20,000-vertex path does not scan its component per arrow
    q, w = path_pair(20_000)
    start = time.process_time()
    assert vertices(q, w) == [dict.fromkeys(q.sorted_arrow_ids(), 1)]
    assert time.process_time() - start < 2.0


def test_vertices_scale_with_the_weight():
    q, w = crossed_ladder_pair(3)
    base = vertices(q, w, max_nodes=10_000)
    for k in (1, 5, 20, 100):
        scaled = vertices(q, {v: k * x for v, x in w.items()}, max_nodes=10_000)
        assert scaled == [{a: k * x for a, x in m.items()} for m in base], k


def _rank_facets(q, w):
    """Facet groups the long way: face dimensions as ranks."""
    order = q.sorted_arrow_ids()
    verts = vertices(q, w)
    cycles = primitive_cycles(q)
    rays = [c.epsilon(q) for c in cycles]
    dim = affine_rank(order, verts, rays)
    groups = {}
    for a in order:
        face_verts = tuple(i for i, m in enumerate(verts) if m[a] == 0)
        if not face_verts:
            continue
        face_rays = tuple(i for i, c in enumerate(cycles) if a not in c.arrow_ids)
        face = affine_rank(order, [verts[i] for i in face_verts], [rays[i] for i in face_rays])
        if face == dim - 1:
            groups.setdefault((face_verts, face_rays), []).append(a)
    return dim, sorted(groups.values(), key=lambda g: g[0])


def test_dimension_and_facets_match_rank_oracle():
    pairs = [(q, w) for _stem, q, w in corpus_pairs()] + _random_pairs(37, 200)
    checked = cyclic = 0
    for q, w in pairs:
        if not vertices(q, w):
            with pytest.raises(EmptyPolyhedron):
                dimension(q, w)
            continue
        dim, groups = _rank_facets(q, w)
        assert dimension(q, w) == dim, (q, w)
        assert facet_arrows(q, w) == groups, (q, w)
        checked += 1
        cyclic += not is_acyclic(q)
    assert checked >= 80 and cyclic >= 15, (checked, cyclic)


def test_dimension():
    q, w = kronecker()
    assert dimension(q, w) == 1
    qa, wa = quiver_a((-3, 2, 2, 2, -3))
    assert dimension(qa, wa) == 2 == euler_characteristic(qa)
    # one-point polytope
    q1 = Quiver(["u", "v"], [Arrow("a", "u", "v")])
    assert dimension(q1, {"u": -2, "v": 2}) == 0
    with pytest.raises(EmptyPolyhedron):
        dimension(q1, {"u": 2, "v": -2})


def test_dimension_of_affine_cone():
    qd, wd = affine_cycle_pair(3)
    # recession cone spans the whole cycle space
    assert dimension(qd, wd) == 4 == euler_characteristic(qd)


def test_dimension_bounded_by_euler_characteristic():
    rng = random.Random(5)
    for _ in range(40):
        q, w = random_acyclic(rng)
        if sum(w.values()) != 0:
            continue
        try:
            d = dimension(q, w)
        except EmptyPolyhedron:
            continue
        assert d <= euler_characteristic(q)


def test_facets_triangle():
    q, w = quiver_a((-1, 1, 1, 1, -2))
    groups = facet_arrows(q, w)
    assert groups == [["a1"], ["a2"], ["a3"]]


def test_facets_hexagon_bijection():
    q, w = quiver_a((-3, 2, 2, 2, -3))
    groups = facet_arrows(q, w)
    assert len(groups) == 6
    assert all(len(g) == 1 for g in groups)


def test_facets_point():
    q1 = Quiver(["u", "v"], [Arrow("a", "u", "v")])
    assert facet_arrows(q1, {"u": -2, "v": 2}) == []


def test_recession_hilbert_basis():
    qa, _ = quiver_a()
    assert recession_hilbert_basis(qa) == []
    q2, _ = two_cycle()
    assert recession_hilbert_basis(q2) == [{"a": 1, "b": 1}]
    qd, _ = affine_cycle_pair(3)
    assert len(recession_hilbert_basis(qd)) == 5


def test_normality_kronecker():
    q, w = kronecker(-2, 2)
    ok, witness = check_normality(q, w, 2)
    assert ok
    # 2*theta has 5 points when theta=(-2,2): x1+x2=4 -> 5
    assert len(witness) == 5


def test_normality_random_acyclic():
    rng = random.Random(23)
    checked = 0
    for _ in range(40):
        q, w = random_acyclic(rng, max_vertices=4, max_arrows=6, weight_bound=2)
        if sum(w.values()) != 0:
            continue
        for k in (2, 3):
            ok, _ = check_normality(q, w, k)
            assert ok
        checked += 1
    assert checked >= 10


def test_normality_empty_is_vacuous():
    q = Quiver(["u", "v"], [Arrow("a", "u", "v")])
    ok, witness = check_normality(q, {"u": 2, "v": -2}, 2)
    assert ok and witness == {}


def test_minkowski_cycle_peeling():
    # every lattice point of a cyclic-support polyhedron stays a valid flow
    # while greedily subtracting primitive cycle vectors until the support
    # is cycle-free
    qd, wd = affine_cycle_pair(3)
    from torquiv.polytope import BoundedFlowSpec as BFS

    spec = BFS(qd, wd, {a.id: 0 for a in qd.arrows}, {a.id: 2 for a in qd.arrows})
    from torquiv import primitive_cycles

    cycles = primitive_cycles(qd)
    for pt in bounded_lattice_points(spec):
        cur = dict(pt)
        while True:
            hit = None
            for c in cycles:
                if all(cur[aid] >= 1 for aid in c.arrow_ids):
                    hit = c
                    break
            if hit is None:
                break
            for aid in hit.arrow_ids:
                cur[aid] -= 1
        assert all(x >= 0 for x in cur.values())
        sub = qd.restricted_to_arrows([aid for aid, x in cur.items() if x > 0])
        assert not primitive_cycles(sub)
