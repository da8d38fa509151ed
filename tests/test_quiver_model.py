import gc
import random

import pytest

from torquiv import (
    Arrow,
    Quiver,
    canonical_weight,
    components,
    euler_characteristic,
    is_strongly_connected,
    is_theta_stable,
    primitive_cycles,
    quiver_from_dict,
)
from torquiv.errors import InputError
from torquiv.quiver import divergence

from helpers import affine_cycle_pair, kronecker, loop_quiver, quiver_a, two_cycle


def test_euler_characteristic_basics():
    q, _ = kronecker()
    assert euler_characteristic(q) == 1
    qa, _ = quiver_a()
    assert euler_characteristic(qa) == 2
    ql, _ = loop_quiver()
    assert euler_characteristic(ql) == 1


def test_euler_additive_over_components():
    # two disjoint Kroneckers
    q = Quiver(
        ["s", "t", "s2", "t2"],
        [
            Arrow("a1", "s", "t"),
            Arrow("a2", "s", "t"),
            Arrow("b1", "s2", "t2"),
            Arrow("b2", "s2", "t2"),
        ],
    )
    comps = components(q)
    assert len(comps) == 2
    total = 0
    for comp in comps:
        total += euler_characteristic(q.induced_on_vertices(comp))
    assert total == euler_characteristic(q)


def test_components_ordering_and_empty():
    assert components(Quiver([], [])) == []
    q, _ = quiver_a()
    assert components(q) == [frozenset({"s", "m1", "m2", "m3", "t"})]


def test_strongly_connected():
    q, _ = two_cycle()
    assert is_strongly_connected(q)
    qk, _ = kronecker()
    assert not is_strongly_connected(qk)
    qd, _ = affine_cycle_pair(3)
    assert is_strongly_connected(qd)
    # and removing any single arrow keeps it strongly connected
    for aid in qd.sorted_arrow_ids():
        assert is_strongly_connected(qd.without_arrow(aid))


def test_theta_stability_kronecker():
    q, w = kronecker()
    assert is_theta_stable(q, w)
    assert not is_theta_stable(q, {"s": 1, "t": -1})
    # nonzero total weight is never stable
    assert not is_theta_stable(q, {"s": 1, "t": 1})


def test_zero_stability_is_strong_connectivity():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        verts = [f"v{i}" for i in range(n)]
        arrows = []
        for k in range(rng.randint(0, 6)):
            arrows.append(
                Arrow(f"a{k}", rng.choice(verts), rng.choice(verts))
            )
        q = Quiver(verts, arrows)
        zero = {v: 0 for v in verts}
        for comp in components(q):
            sub = q.induced_on_vertices(comp)
            assert is_theta_stable(sub, {v: 0 for v in comp}) == is_strongly_connected(sub)
        if len(components(q)) == 1:
            assert is_theta_stable(q, zero) == is_strongly_connected(q)


def test_primitive_cycles_leave_no_reference_cycles():
    verts = ["x", "y", "z"]
    q = Quiver(verts, [Arrow(f"e{u}{v}", u, v) for u in verts for v in verts if u != v])
    gc.collect()
    gc.disable()
    try:
        assert len(primitive_cycles(q)) == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_primitive_cycles_counts():
    qa, _ = quiver_a()
    assert primitive_cycles(qa) == []
    q2, _ = two_cycle()
    assert len(primitive_cycles(q2)) == 1
    qd, _ = affine_cycle_pair(3)
    cycles = primitive_cycles(qd)
    # three 2-cycles, the forward 3-cycle, the backward 3-cycle
    assert len(cycles) == 5
    assert sorted(len(c.arrow_ids) for c in cycles) == [2, 2, 2, 3, 3]


def test_primitive_cycles_divergence_zero():
    qd, _ = affine_cycle_pair(4)
    for c in primitive_cycles(qd):
        eps = c.epsilon(qd)
        assert all(x == 0 for x in divergence(qd, eps).values())


def test_loop_is_a_cycle():
    q, _ = loop_quiver()
    cycles = primitive_cycles(q)
    assert len(cycles) == 1
    assert cycles[0].arrow_ids == ("a",)


def test_canonical_weight():
    q, _ = kronecker()
    assert canonical_weight(q) == {"s": -2, "t": 2}
    q2, _ = two_cycle()
    assert canonical_weight(q2) == {"u": 0, "v": 0}
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        verts = [f"v{i}" for i in range(n)]
        arrows = [
            Arrow(f"a{k}", rng.choice(verts), rng.choice(verts))
            for k in range(rng.randint(0, 7))
        ]
        q = Quiver(verts, arrows)
        assert sum(canonical_weight(q).values()) == 0


def test_json_round_trip():
    q, w = quiver_a()
    d = q.to_dict(w)
    q2, w2 = quiver_from_dict(d)
    assert q2 == q
    assert w2 == w


def test_json_validation_errors():
    with pytest.raises(InputError):
        quiver_from_dict({"vertices": ["v"]})
    with pytest.raises(InputError):
        quiver_from_dict({"vertices": ["v"], "arrows": [{"id": "a", "tail": "v"}]})
    with pytest.raises(InputError):
        quiver_from_dict(
            {"vertices": ["v"], "arrows": [{"id": "a", "tail": "v", "head": "x"}]}
        )
    with pytest.raises(InputError):
        quiver_from_dict(
            {
                "vertices": ["v", "w"],
                "arrows": [],
                "weight": {"v": 0},
            }
        )
    # boolean smuggled in as a weight
    with pytest.raises(InputError):
        quiver_from_dict(
            {"vertices": ["v"], "arrows": [], "weight": {"v": True}}
        )


def test_duplicate_ids_rejected():
    with pytest.raises(InputError):
        Quiver(["v", "v"], [])
    with pytest.raises(InputError):
        Quiver(["u", "v"], [Arrow("a", "u", "v"), Arrow("a", "v", "u")])


def test_adjacency_keeps_the_arrow_order_and_checks_the_ends():
    arrows = [Arrow("c", "u", "v"), Arrow("a", "w", "v"), Arrow("b", "u", "v"), Arrow("d", "v", "u")]
    q = Quiver(["u", "v", "w"], arrows)
    assert q.out_arrows("u") == (arrows[0], arrows[2])
    assert q.in_arrows("v") == (arrows[0], arrows[1], arrows[2])
    assert q.out_arrows("v") == (arrows[3],) and q.in_arrows("w") == ()
    for tail, head, end in (("x", "u", "tail"), ("u", "x", "head")):
        with pytest.raises(InputError) as caught:
            Quiver(["u"], [Arrow("e", tail, head)])
        assert str(caught.value) == f"arrow 'e': unknown {end} 'x'"
