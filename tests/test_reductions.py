import itertools
import random
import sys

import pytest

from torquiv import (
    Arrow,
    Quiver,
    canonical_weight,
    contract,
    dimension,
    double_quiver,
    enumerate_Rd,
    euler_characteristic,
    facet_arrows,
    is_contractible,
    is_prime,
    is_removable,
    is_tight,
    lattice_points,
    normalize_to_Rd,
    prime_decompose,
    reflect,
    skeleton,
    tighten,
    vertex_localization,
    vertices,
)
from torquiv.corpus import corpus_pairs
from torquiv.errors import (
    EmptyPolyhedron,
    LoopArrow,
    NotAVertex,
    NotPrime,
    NotTight,
    ValencyTooLow,
    WrongValencyPattern,
)
from torquiv.quiver import feasible_flow, flow_support, topological_order
from torquiv.reductions import _blocks, in_rd_form

from helpers import (
    affine_cycle_pair,
    blocks_reference,
    extreme_points_reference,
    kronecker,
    loop_quiver,
    normalize_to_Rd_reference,
    opposite_pair,
    path_pair,
    quiver_a,
    random_acyclic,
    random_pair,
)


def count(q, w, k):
    assert topological_order(q) is not None
    return len(lattice_points(q, w, k))


def test_kronecker_nothing_removable_or_contractible():
    q, w = kronecker()
    for aid in ("a1", "a2"):
        assert not is_removable(q, w, aid)
        assert not is_contractible(q, w, aid)
    assert is_tight(q, w)


def test_removable_forced_zero_arrow():
    # the arrow into the weight-0 leaf must carry zero flow everywhere
    q = Quiver(
        ["s", "t", "z"],
        [Arrow("a1", "s", "t"), Arrow("a2", "s", "t"), Arrow("a3", "s", "z")],
    )
    w = {"s": -1, "t": 1, "z": 0}
    assert is_removable(q, w, "a3")
    assert not is_removable(q, w, "a1")


def test_removability_needs_points():
    q, _ = kronecker()
    with pytest.raises(EmptyPolyhedron):
        is_removable(q, {"s": 1, "t": -1}, "a1")


def test_contract_kronecker_arrow():
    q, w = kronecker()
    q2, w2 = contract(q, w, "a1")
    assert q2.vertices == ("s+t",)
    assert [a.id for a in q2.arrows] == ["a2"]
    assert q2.arrows[0].is_loop()
    assert w2 == {"s+t": 0}


def test_contract_refuses_loops():
    q, w = loop_quiver()
    with pytest.raises(LoopArrow):
        contract(q, w, "a")
    with pytest.raises(LoopArrow):
        is_contractible(q, w, "a")


def test_contractible_flow_through_vertex():
    # u -> v -> w with nonnegative middle weight: both arrows at the
    # valency-2 vertex are contractible
    q = Quiver(["u", "v", "w"], [Arrow("a", "u", "v"), Arrow("b", "v", "w")])
    w = {"u": -1, "v": 0, "w": 1}
    assert is_contractible(q, w, "a")
    assert is_contractible(q, w, "b")
    q2, w2 = contract(q, w, "a")
    for k in (1, 2, 3):
        assert count(q, w, k) == count(q2, w2, k)


def test_quiver_a_tighten_to_triple_arrow():
    q, w = quiver_a((-1, 1, 1, 1, -2))
    assert not is_tight(q, w)
    tq, tw, trace = tighten(q, w)
    assert len(tq.arrows) == 3
    assert len(tq.vertices) == 2
    assert sorted(tw.values()) == [-1, 1]
    assert is_tight(tq, tw)
    # the three contractions merge the double-weight source into the sinks
    assert [m.kind for m in trace.moves] == ["contract"] * 3
    assert [m.target for m in trace.moves] == ["a4", "a5", "a6"]
    # every intermediate state preserves the lattice point counts
    for k in (1, 2):
        want = count(q, w, k)
        for m in trace.moves:
            assert count(m.quiver, m.weight, k) == want
    # arrows and facets match up on the tight side, and dim reaches chi
    assert [len(g) for g in facet_arrows(tq, tw)] == [1, 1, 1]
    assert dimension(tq, tw) == euler_characteristic(tq) == 2


def test_tighten_identity_on_tight_pair():
    q, w = kronecker()
    tq, tw, trace = tighten(q, w)
    assert trace.moves == []
    assert tq == q and tw == w
    q2, w2 = quiver_a((-3, 2, 2, 2, -3))
    assert is_tight(q2, w2)
    _, _, trace2 = tighten(q2, w2)
    assert trace2.moves == []


def test_tighten_takes_the_support_once(monkeypatch):
    # removals keep the support and contractions keep every other arrow
    # non-contractible, so one pass of each needs one support
    import torquiv.reductions as reductions

    calls = []

    def counting(quiver, flow):
        calls.append(1)
        return flow_support(quiver, flow)

    monkeypatch.setattr(reductions, "flow_support", counting)
    tq, tw, trace = tighten(*path_pair(300))
    assert len(calls) == 1
    assert [m.kind for m in trace.moves] == ["contract"] * 299
    assert len(tq.vertices) == 1 and not tq.arrows and set(tw.values()) == {0}


def test_tighten_idempotent():
    q, w = quiver_a((-2, 1, 1, 2, -2))
    tq, tw, _ = tighten(q, w)
    _, _, trace = tighten(tq, tw)
    assert trace.moves == []


def test_product_weight_tightens_and_splits():
    q, w = quiver_a((-2, 1, 1, 2, -2))
    tq, tw, trace = tighten(q, w)
    assert [m.kind for m in trace.moves] == ["contract", "contract"]
    assert [m.target for m in trace.moves] == ["a3", "a6"]
    assert len(tq.vertices) == 3
    assert sorted(tw.values()) == [-2, 1, 1]
    factors = prime_decompose(tq, tw)
    assert len(factors) == 2
    for fq, fw in factors:
        assert len(fq.vertices) == 2
        assert len(fq.arrows) == 2
        assert sorted(fw.values()) == [-1, 1]
        assert is_tight(fq, fw)
    # counts multiply across the factors
    for k in (1, 2):
        prod = 1
        for fq, fw in factors:
            prod *= count(fq, fw, k)
        assert count(tq, tw, k) == prod
    assert count(tq, tw, 1) == 4
    assert count(tq, tw, 2) == 9


def test_reflect_sink_example():
    q = Quiver(["u", "v", "w"], [Arrow("a", "u", "v"), Arrow("b", "w", "v")])
    w = {"u": -1, "v": 1, "w": 0}
    q2, w2 = reflect(q, w, "v")
    assert w2 == {"u": 0, "v": -1, "w": 1}
    assert q2.arrow("a").tail == "v" and q2.arrow("a").head == "u"
    assert q2.arrow("b").tail == "v" and q2.arrow("b").head == "w"


def test_reflect_involution_and_counts():
    q = Quiver(["u", "v", "w"], [Arrow("a", "u", "v"), Arrow("b", "w", "v")])
    w = {"u": -1, "v": 1, "w": 0}
    q2, w2 = reflect(q, w, "v")
    q3, w3 = reflect(q2, w2, "v")
    assert q3 == q and w3 == w
    for k in (1, 2, 3):
        assert count(q, w, k) == count(q2, w2, k)


def test_reflect_parallel_neighbor_counted_twice():
    q, w = kronecker()  # t is a valency-2 sink fed twice from s
    q2, w2 = reflect(q, w, "t")
    assert w2 == {"s": 1, "t": -1}
    for k in (1, 2, 3):
        assert count(q, w, k) == count(q2, w2, k)


def test_reflect_wrong_pattern():
    q = Quiver(["u", "v", "w"], [Arrow("a", "u", "v"), Arrow("b", "v", "w")])
    w = {"u": -1, "v": 0, "w": 1}
    with pytest.raises(WrongValencyPattern):
        reflect(q, w, "v")
    ql, wl = loop_quiver()
    with pytest.raises(WrongValencyPattern):
        reflect(ql, wl, "v")


def test_prime_decompose_disjoint_kroneckers():
    q = Quiver(
        ["s", "t", "s2", "t2"],
        [
            Arrow("a1", "s", "t"),
            Arrow("a2", "s", "t"),
            Arrow("b1", "s2", "t2"),
            Arrow("b2", "s2", "t2"),
        ],
    )
    w = {"s": -1, "t": 1, "s2": -2, "t2": 2}
    factors = prime_decompose(q, w)
    assert len(factors) == 2
    assert factors[0][1] == {"s": -1, "t": 1}
    assert factors[1][1] == {"s2": -2, "t2": 2}


def test_prime_decompose_prime_is_singleton():
    q, w = quiver_a()
    factors = prime_decompose(q, w)
    assert len(factors) == 1
    fq, fw = factors[0]
    assert fw == w
    assert sorted(a.id for a in fq.arrows) == sorted(a.id for a in q.arrows)
    assert is_prime(q)


def test_two_loops_not_prime():
    q = Quiver(["v"], [Arrow("a", "v", "v"), Arrow("b", "v", "v")])
    assert not is_prime(q)
    factors = prime_decompose(q, {"v": 0})
    assert len(factors) == 2
    assert all(len(f[0].arrows) == 1 for f in factors)


def test_loop_quiver_prime():
    q, _ = loop_quiver()
    assert is_prime(q)


def test_isolated_vertex_factor():
    q = Quiver(["v", "w"], [Arrow("a", "v", "v")])
    factors = prime_decompose(q, {"v": 0, "w": 0})
    assert len(factors) == 2
    assert sorted(len(f[0].arrows) for f in factors) == [0, 1]


def test_hanging_weight_folds_into_cut_vertex():
    # two bridges u -> v -> w: each factor absorbs the weight of the side
    # hanging off its cut vertex
    q = Quiver(["u", "v", "w"], [Arrow("a", "u", "v"), Arrow("b", "v", "w")])
    w = {"u": -1, "v": 0, "w": 1}
    factors = prime_decompose(q, w)
    assert len(factors) == 2
    by_min = {min(f[0].vertices): f for f in factors}
    assert by_min["u"][1] == {"u": -1, "v": 1}
    assert by_min["v"][1] == {"v": -1, "w": 1}
    assert all(sum(f[1].values()) == 0 for f in factors)


def _block_set(blocks):
    return {(vs, frozenset(a.id for a in arrows)) for vs, arrows in blocks}


def test_blocks_match_the_recursive_reference():
    # random_pair draws loops and parallel arrows; max_vertices 7 gives
    # cut vertices, bridges and several components
    rng = random.Random(2024)
    cut = 0
    for _ in range(400):
        q, _ = random_pair(rng, max_vertices=7, max_arrows=9)
        got = _blocks(q)
        want = blocks_reference(q)
        assert len(got) == len(want)
        assert _block_set(got) == _block_set(want)
        cut += len([vs for vs, _ in got if len(vs) > 1]) > 1
    assert cut >= 50


def test_blocks_of_a_long_path_leave_the_recursion_limit_alone():
    q, _ = path_pair(5000)
    limit = sys.getrecursionlimit()
    blocks = _blocks(q)
    assert sys.getrecursionlimit() == limit
    assert len(blocks) == 4999
    assert all(len(vs) == 2 and len(arrows) == 1 for vs, arrows in blocks)


def test_skeleton_quiver_a():
    q, _ = quiver_a()
    g = skeleton(q)
    assert sorted(g.vertices) == ["s", "t"]
    assert len(g.edges) == 3
    assert all(set(e) == {"s", "t"} for e in g.edges)


def test_skeleton_parallel_hubs_identity():
    q, _ = opposite_pair(2, 2)
    g = skeleton(q)
    assert sorted(g.vertices) == ["u", "v"]
    assert len(g.edges) == 4


def test_skeleton_valency_check():
    q = Quiver(["u", "v"], [Arrow("a", "u", "v")])
    with pytest.raises(ValencyTooLow):
        skeleton(q)


def test_skeleton_needs_prime():
    q = Quiver(
        ["u", "v", "w"],
        [
            Arrow("a1", "u", "v"),
            Arrow("a2", "v", "u"),
            Arrow("b1", "v", "w"),
            Arrow("b2", "w", "v"),
        ],
    )
    with pytest.raises(NotPrime):
        skeleton(q)


def test_double_quiver_loop():
    q, w = loop_quiver()
    dq, dw = double_quiver(q, w, 3)
    assert sorted(dq.vertices) == ["v+", "v-"]
    assert len(dq.arrows) == 2
    assert all(a.tail == "v-" and a.head == "v+" for a in dq.arrows)
    assert dw == {"v-": -3, "v+": 3}


def test_double_quiver_bipartite_acyclic():
    q, w = quiver_a()
    dq, dw = double_quiver(q, w, 2)
    assert len(dq.arrows) == len(q.arrows) + len(q.vertices)
    assert len(dq.vertices) == 2 * len(q.vertices)
    for v in dq.vertices:
        assert dq.indegree(v) == 0 or dq.outdegree(v) == 0
    assert topological_order(dq) is not None
    assert sum(dw.values()) == sum(w.values())


def test_localize_kronecker():
    q, w = kronecker()
    qm = vertex_localization(q, w, {"a1": 1, "a2": 0})
    assert len(qm.vertices) == 1
    assert [a.id for a in qm.arrows] == ["a2"]
    assert qm.arrows[0].is_loop()


def test_localize_triangle_vertex():
    q, w = quiver_a((-1, 1, 1, 1, -2))
    m = vertices(q, w)[0]
    qm = vertex_localization(q, w, m)
    # collapsing the support tree leaves the local cone quiver
    assert len(qm.vertices) == 2
    assert len(qm.arrows) == 3
    wz = {v: 0 for v in qm.vertices}
    assert dimension(qm, wz) == 2


def test_localize_zero_support():
    qd, wd = affine_cycle_pair(3)
    zero = {a.id: 0 for a in qd.arrows}
    qm = vertex_localization(qd, wd, zero)
    assert qm == qd


def test_localize_rejects_non_vertex():
    q, w = quiver_a((-3, 2, 2, 2, -3))
    interior = {"a1": 1, "a2": 1, "a3": 1, "a4": 1, "a5": 1, "a6": 1}
    with pytest.raises(NotAVertex):
        vertex_localization(q, w, interior)
    with pytest.raises(NotAVertex):
        vertex_localization(q, w, {k: 9 for k in interior})


def test_normalize_identity_on_normal_form():
    q, w = quiver_a((-3, 2, 2, 2, -3))
    assert in_rd_form(q)
    nq, nw, trace = normalize_to_Rd(q, w)
    assert trace.moves == []
    assert nq == q and nw == w


def test_normalize_reflects_valency2_source():
    q, w = quiver_a((-3, 2, 2, 2, -3))
    rq, rw = reflect(q, w, "m1")
    assert is_tight(rq, rw)
    assert not in_rd_form(rq)
    nq, nw, trace = normalize_to_Rd(rq, rw)
    assert in_rd_form(nq)
    assert any(m.kind == "reflect" for m in trace.moves)
    assert nq == q and nw == w
    for k in (1, 2):
        assert count(nq, nw, k) == count(q, w, k)


def _normal_form_inputs():
    """Tight prime pairs with euler characteristic >= 2 that are not in
    normal form: the reflected quiver_a, and the prime factors of the
    tightened corpus and of seeded pairs and the tight canonical R_3 pairs,
    each reflected at all its valency-2 sinks (still tight and prime)."""
    tight = [
        (q, canonical_weight(q))
        for q in enumerate_Rd(3)
        if is_tight(q, canonical_weight(q))
    ]
    pairs = [(q, w) for _name, q, w in corpus_pairs()]
    rng = random.Random(29)
    for i in range(300):
        if i % 2:
            pairs.append(random_pair(rng, max_vertices=6, max_arrows=9, weight_bound=2))
        else:
            pairs.append(random_acyclic(rng, max_vertices=6, max_arrows=10, weight_bound=3))
    for q, w in pairs:
        if feasible_flow(q, w) is None:
            continue
        for fq, fw in prime_decompose(*tighten(q, w)[:2]):
            if is_prime(fq) and euler_characteristic(fq) >= 2:
                tight.append((fq, fw))
    inputs = [reflect(*quiver_a((-3, 2, 2, 2, -3)), "m1")]
    for q, w in tight:
        for v in sorted(q.vertices):
            if q.valency(v) == 2 and q.indegree(v) == 2:
                q, w = reflect(q, w, v)
        if not in_rd_form(q):
            inputs.append((q, w))
    return inputs


def test_normalize_reflects_only_and_matches_the_loop_with_moves():
    # a reflection swaps two coordinates, so a tight pair stays tight and
    # the loop that looked for a removal or contraction first never found one
    reflections = 0
    for q, w in _normal_form_inputs():
        rq, rw, rtrace = normalize_to_Rd_reference(q, w)
        nq, nw, trace = normalize_to_Rd(q, w)
        assert trace.to_json() == rtrace
        assert nq.to_dict(nw) == rq.to_dict(rw)
        assert all(is_tight(m.quiver, m.weight) for m in trace.moves)
        reflections += len(trace.moves)
    assert reflections >= 200, reflections


def test_normalize_requires_tight():
    q, w = quiver_a((-1, 1, 1, 1, -2))
    with pytest.raises(NotTight):
        normalize_to_Rd(q, w)


def test_normalize_requires_prime():
    q = Quiver(
        ["u", "v", "w"],
        [
            Arrow("a1", "u", "v"),
            Arrow("a2", "u", "v"),
            Arrow("b1", "w", "v"),
            Arrow("b2", "w", "v"),
        ],
    )
    w = {"u": -1, "v": 2, "w": -1}
    with pytest.raises(NotPrime):
        normalize_to_Rd(q, w)


def test_tighten_random_traces_preserve_counts():
    rng = random.Random(97)
    tried = 0
    for _ in range(60):
        q, w = random_acyclic(rng, max_vertices=4, max_arrows=6, weight_bound=2)
        if not lattice_points(q, w, 1):
            continue
        tried += 1
        tq, tw, trace = tighten(q, w)
        for k in (1, 2, 3):
            want = count(q, w, k)
            for m in trace.moves:
                assert count(m.quiver, m.weight, k) == want
        assert is_tight(tq, tw)
        assert dimension(tq, tw) == euler_characteristic(tq)
        groups = facet_arrows(tq, tw)
        assert len(groups) == len(tq.arrows)
        assert all(len(g) == 1 for g in groups)
    assert tried >= 15


def test_forced_boundary_arrow_is_contractible():
    # a vertex set with a single incoming arrow and no outgoing ones pins
    # that arrow's flow to the weight of the set; when that value is
    # nonnegative the optimization route must call the arrow contractible
    rng = random.Random(41)
    hits = 0
    for _ in range(200):
        q, w = random_acyclic(rng, max_vertices=4, max_arrows=6, weight_bound=2)
        if not extreme_points_reference(q, w):
            continue
        for size in (1, 2):
            if size >= len(q.vertices):
                continue
            for subset in itertools.combinations(q.vertices, size):
                s = set(subset)
                incoming = [a for a in q.arrows if a.tail not in s and a.head in s]
                outgoing = [a for a in q.arrows if a.tail in s and a.head not in s]
                if len(incoming) == 1 and not outgoing and sum(w[v] for v in s) >= 0:
                    assert is_contractible(q, w, incoming[0].id)
                    hits += 1
    assert hits >= 5
