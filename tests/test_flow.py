"""The flow kernel against the enumeration oracles of `helpers`.

Removability, contractibility, stability, tightness, dimension, facets and
the tightening trace all come from one feasible flow and its residual
graph; here each is compared with the earlier enumeration route on the
corpus and on seeded random pairs, and normality witnesses from the greedy
factorization with the depth-first search; the packed greedy matches the
tuple greedy it replaced.
"""

import json
import random

import pytest

from torquiv import (
    Arrow,
    Quiver,
    check_normality,
    dimension,
    facet_arrows,
    is_contractible,
    is_removable,
    is_theta_stable,
    is_tight,
    lattice_points,
    tighten,
)
from torquiv.corpus import acyclic_corpus_pairs, corpus_pairs
from torquiv.errors import EmptyPolyhedron
from torquiv.polytope import _pack, greedy_factorization
from torquiv.quiver import feasible_flow, flow_support, is_acyclic

from helpers import (
    dimension_reference,
    facet_arrows_reference,
    factorization_reference,
    flow_tuple,
    greedy_factorization_reference,
    is_contractible_reference,
    is_removable_reference,
    is_theta_stable_reference,
    is_tight_by_moves_reference,
    is_tight_by_stability_reference,
    path_pair,
    random_acyclic,
    random_pair,
    tighten_reference,
)


def assert_matches_oracles(q, w):
    """Every flow-kernel answer on the pair equals its reference; returns
    whether the polyhedron is nonempty."""
    ref_dim = dimension_reference(q, w)
    nonempty = ref_dim is not None
    assert (feasible_flow(q, w) is not None) == nonempty
    assert is_theta_stable(q, w) == is_theta_stable_reference(q, w)
    for aid in q.sorted_arrow_ids():
        if nonempty:
            assert is_removable(q, w, aid) == is_removable_reference(q, w, aid), aid
        else:
            with pytest.raises(EmptyPolyhedron):
                is_removable(q, w, aid)
        if not q.arrow(aid).is_loop():
            assert is_contractible(q, w, aid) == is_contractible_reference(q, w, aid), aid
    if not nonempty:
        for call in (dimension, facet_arrows, is_tight, tighten):
            with pytest.raises(EmptyPolyhedron):
                call(q, w)
        return False
    assert dimension(q, w) == ref_dim
    assert facet_arrows(q, w) == facet_arrows_reference(q, w)
    tight = is_tight_by_moves_reference(q, w)
    assert tight == is_tight_by_stability_reference(q, w)
    assert is_tight(q, w) == tight
    tq, tw, trace = tighten(q, w)
    rq, rw, rtrace = tighten_reference(q, w)
    assert json.dumps(trace.to_json(), sort_keys=True) == json.dumps(rtrace, sort_keys=True)
    assert (tq.to_dict(tw), tw) == (rq.to_dict(rw), rw)
    return True


def test_kernel_matches_oracles_on_corpus():
    checked = 0
    for name, q, w in corpus_pairs():
        if len(q.arrows) > 16:
            continue  # the enumeration oracles are slow on the rank-4 ladder
        assert assert_matches_oracles(q, w), name
        checked += 1
    assert checked >= 10


def test_kernel_matches_oracles_on_random_pairs():
    rng = random.Random(2024)
    seen = {"empty": 0, "cyclic": 0, "loop": 0, "isolated": 0, "nonempty": 0}
    for i in range(360):
        if i % 2:
            q, w = random_pair(rng, max_vertices=5, max_arrows=7, weight_bound=2 - i % 4 // 2)
        else:
            q, w = random_acyclic(rng, max_vertices=5, max_arrows=8)
        nonempty = assert_matches_oracles(q, w)
        seen["nonempty" if nonempty else "empty"] += 1
        seen["cyclic"] += not is_acyclic(q)
        seen["loop"] += any(a.is_loop() for a in q.arrows)
        seen["isolated"] += any(q.valency(v) == 0 for v in q.vertices)
    assert min(seen.values()) >= 20, seen


def test_support_of_a_cycle_with_a_tail():
    # the 2-cycle carries no flow from the feasible point, yet it lies in
    # the support; the dead-end arrow into the weight-0 vertex does not
    q = Quiver(
        ["s", "u", "v", "t", "z"],
        [
            Arrow("a", "s", "u"),
            Arrow("b", "u", "v"),
            Arrow("c", "v", "u"),
            Arrow("d", "u", "t"),
            Arrow("e", "s", "z"),
        ],
    )
    w = {"s": -1, "u": 0, "v": 0, "t": 1, "z": 0}
    flow = feasible_flow(q, w)
    assert flow == {"a": 1, "b": 0, "c": 0, "d": 1, "e": 0}
    assert flow_support(q, flow) == {"a", "b", "c", "d"}
    assert feasible_flow(q, {**w, "z": 1, "t": 0}) == {"a": 0, "b": 0, "c": 0, "d": 0, "e": 1}
    assert feasible_flow(q, {**w, "s": 0, "t": 0, "z": -1, "v": 1}) is None


def test_stability_on_a_40_vertex_path():
    q, w = path_pair(40)
    assert is_theta_stable(q, w)
    # a middle sink leaves the arrows after it at zero
    assert not is_theta_stable(q, {**w, "v0020": 1, "v0039": 0})
    # every arrow carries its forced unit, so all of them contract
    assert not is_tight(q, w)
    tq, tw, trace = tighten(q, w)
    assert [m.kind for m in trace.moves] == ["contract"] * 39
    assert len(tq.vertices) == 1 and not tq.arrows


def test_greedy_witnesses_match_depth_first_search():
    pairs = [(q, w) for _, q, w in acyclic_corpus_pairs() if len(q.arrows) <= 12]
    rng = random.Random(31)
    while len(pairs) < 60:
        q, w = random_acyclic(rng, max_vertices=5, max_arrows=6, weight_bound=2)
        if lattice_points(q, w, 1):
            pairs.append((q, w))
    checked = 0
    for q, w in pairs:
        order = q.sorted_arrow_ids()
        ones = [flow_tuple(p, order) for p in lattice_points(q, w, 1)]
        for k in (2, 3):
            top = lattice_points(q, w, k)
            if len(top) > 400:
                continue
            verdict, witness = check_normality(q, w, k)
            assert verdict
            for s in top:
                picks = factorization_reference(ones, flow_tuple(s, order), k)
                key = str(flow_tuple(s, order))
                assert [flow_tuple(p, order) for p in witness[key]] == [ones[i] for i in picks]
                checked += 1
    assert checked >= 500


def test_packed_greedy_matches_the_tuple_greedy():
    # random lex-sorted points with fields up to 2**width - 1; targets are
    # sums of random points (clipped to the field), all-full fields, or
    # random, so many have no greedy factorization
    rng = random.Random(23)
    seen = {"none": 0, "picks": 0, "full": 0, "start": 0}
    for _ in range(1000):
        n, width, count = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)
        full = (1 << width) - 1
        cloud = {
            tuple(rng.choice((0, full, rng.randint(0, full))) for _ in range(n)) for _ in range(6)
        }
        points = sorted(cloud)
        shape = rng.randrange(4)
        if shape < 2:
            drawn = [rng.choice(points) for _ in range(count)]
            target = tuple(min(full, sum(col)) for col in zip(*drawn)) if drawn else (0,) * n
        elif shape == 2:
            target = (full,) * n
        else:
            target = tuple(rng.randint(0, full) for _ in range(n))
        packed = [_pack(p, width) for p in points]
        guards = _pack([1 << width] * n, width)
        expected = greedy_factorization_reference(points, target, count)
        for guarded in (0, guards):
            got = greedy_factorization(packed, _pack(target, width) | guarded, count, guards)
            assert got == expected, (points, target, count)
        start = rng.randrange(len(points))
        shifted = greedy_factorization_reference(points[start:], target, count)
        got = greedy_factorization(packed, _pack(target, width), count, guards, start=start)
        assert got == (None if shifted is None else [start + i for i in shifted])
        seen["none" if expected is None else "picks"] += 1
        seen["full"] += full in target and expected is not None
        seen["start"] += start > 0 and shifted is not None
    assert min(seen.values()) >= 20, seen

