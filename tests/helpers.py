"""Shared example quivers for the test suite."""

import itertools
import random
from fractions import Fraction

from torquiv import (
    Arrow,
    BoundedFlowSpec,
    Quiver,
    recession_hilbert_basis,
)


def kronecker(w1=-1, w2=1):
    q = Quiver(["s", "t"], [Arrow("a1", "s", "t"), Arrow("a2", "s", "t")])
    return q, {"s": w1, "t": w2}


def path_pair(n):
    """The path v0000 -> v0001 -> ... on n vertices with one unit of flow
    through it."""
    verts = [f"v{i:04d}" for i in range(n)]
    q = Quiver(verts, [Arrow(f"a{i:04d}", verts[i], verts[i + 1]) for i in range(n - 1)])
    w = dict.fromkeys(verts, 0)
    w[verts[0]], w[verts[-1]] = -1, 1
    return q, w


def quiver_a(weights=(-1, 1, 1, 1, -2)):
    """Two sources feeding three middle sinks: the 2-dimensional workhorse.

    Weight order: (s, m1, m2, m3, t)."""
    q = Quiver(
        ["s", "m1", "m2", "m3", "t"],
        [
            Arrow("a1", "s", "m1"),
            Arrow("a2", "s", "m2"),
            Arrow("a3", "s", "m3"),
            Arrow("a4", "t", "m1"),
            Arrow("a5", "t", "m2"),
            Arrow("a6", "t", "m3"),
        ],
    )
    s, m1, m2, m3, t = weights
    return q, {"s": s, "m1": m1, "m2": m2, "m3": m3, "t": t}


def two_cycle():
    q = Quiver(["u", "v"], [Arrow("a", "u", "v"), Arrow("b", "v", "u")])
    return q, {"u": 0, "v": 0}


def loop_quiver():
    q = Quiver(["v"], [Arrow("a", "v", "v")])
    return q, {"v": 0}


def affine_cycle_pair(d):
    """Oriented d-cycle plus all reversed arrows; strongly connected, and
    with the zero weight the polyhedron is a pointed cone whose dimension
    is the cycle space rank d+1."""
    verts = [f"v{i}" for i in range(d)]
    arrows = []
    for i in range(d):
        arrows.append(Arrow(f"a{i}", verts[i], verts[(i + 1) % d]))
        arrows.append(Arrow(f"b{i}", verts[(i + 1) % d], verts[i]))
    return Quiver(verts, arrows), {v: 0 for v in verts}


def opposite_pair(k_forward, k_backward):
    """Two vertices joined by k arrows one way and k the other."""
    arrows = [Arrow(f"c{i}", "u", "v") for i in range(k_forward)]
    arrows += [Arrow(f"d{i}", "v", "u") for i in range(k_backward)]
    return Quiver(["u", "v"], arrows), {"u": 0, "v": 0}


def complete_bipartite(n_sources, n_sinks, source_weight=None, sink_weight=None):
    """K(m,n) with all arrows source -> sink."""
    sources = [f"s{i}" for i in range(n_sources)]
    sinks = [f"t{j}" for j in range(n_sinks)]
    arrows = [
        Arrow(f"a{i}{j}", s, t)
        for i, s in enumerate(sources)
        for j, t in enumerate(sinks)
    ]
    q = Quiver(sources + sinks, arrows)
    if source_weight is None:
        source_weight = -n_sinks
    if sink_weight is None:
        sink_weight = n_sources
    w = {s: source_weight for s in sources}
    w.update({t: sink_weight for t in sinks})
    return q, w


def random_acyclic(rng: random.Random, max_vertices=5, max_arrows=8, weight_bound=3):
    """A random acyclic quiver with a weight that sums to zero (arrows only
    go from lower to higher vertex index, so cycles are impossible)."""
    n = rng.randint(2, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    m = rng.randint(1, max_arrows)
    arrows = []
    for k in range(m):
        i = rng.randint(0, n - 2)
        j = rng.randint(i + 1, n - 1)
        arrows.append(Arrow(f"a{k}", verts[i], verts[j]))
    w = [rng.randint(-weight_bound, weight_bound) for _ in range(n - 1)]
    w.append(-sum(w))
    return Quiver(verts, arrows), dict(zip(verts, w))


def random_pair(rng: random.Random, max_vertices=4, max_arrows=5, weight_bound=2):
    """A random quiver, cycles and loops allowed, with a weight that sums
    to zero; about one vertex in six carries only a loop."""
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    loop_only = {v for v in verts if rng.random() < 1 / 6}
    others = [v for v in verts if v not in loop_only]
    arrows = [Arrow(f"l{i}", v, v) for i, v in enumerate(sorted(loop_only))]
    for k in range(rng.randint(0, max_arrows) if others else 0):
        arrows.append(Arrow(f"a{k}", rng.choice(others), rng.choice(others)))
    w = [rng.randint(-weight_bound, weight_bound) for _ in range(n - 1)]
    w.append(-sum(w))
    return Quiver(verts, arrows), dict(zip(verts, w))


# -- independent vertex and rank oracles ---------------------------------------
#
# An integer point x of the polyhedron conv(V) + cone(R) of a pair, taken from
# a finite set B of its integer points with V inside B, is a vertex exactly
# when it is not in conv(B - {x}) + cone(R).  The membership check is a
# phase-1 simplex over exact rationals with Bland's rule, and ranks come from
# Gaussian elimination over the rationals, both written here from scratch so
# they share nothing with the production forest and support-graph criteria.


def simplex_feasible(columns: list[tuple], rhs: tuple) -> bool:
    """Is there x >= 0 with (columns as a matrix) @ x = rhs?"""
    rows = len(rhs)
    ncols = len(columns)
    table = []
    for i in range(rows):
        sign = 1 if rhs[i] >= 0 else -1
        row = [Fraction(sign * columns[j][i]) for j in range(ncols)]
        row += [Fraction(1) if k == i else Fraction(0) for k in range(rows)]
        row.append(Fraction(sign * rhs[i]))
        table.append(row)
    basis = [ncols + i for i in range(rows)]
    total = ncols + rows

    def objective_row():
        cost = [Fraction(0)] * (total + 1)
        for i in range(rows):
            if basis[i] >= ncols:
                for k in range(total + 1):
                    cost[k] += table[i][k]
        return cost

    while True:
        cost = objective_row()
        # Bland's rule; artificial columns are discarded once they leave,
        # which never changes the phase-1 optimum.
        entering = next((j for j in range(ncols) if cost[j] > 0), None)
        if entering is None:
            break
        best = None
        for i in range(rows):
            if table[i][entering] > 0:
                ratio = table[i][total] / table[i][entering]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        assert best is not None  # the phase-1 objective is bounded below
        _, pivot_row = best
        pivot = table[pivot_row][entering]
        table[pivot_row] = [x / pivot for x in table[pivot_row]]
        for i in range(rows):
            if i != pivot_row and table[i][entering] != 0:
                factor = table[i][entering]
                table[i] = [x - factor * y for x, y in zip(table[i], table[pivot_row])]
        basis[pivot_row] = entering

    artificial_value = sum(
        table[i][total] for i in range(rows) if basis[i] >= ncols
    )
    return artificial_value == 0


def in_convex_hull(point: tuple, others: list[tuple], rays: list[tuple] = ()) -> bool:
    """Is the point in conv(others) + cone(rays)?"""
    if not others:
        return False
    columns = [tuple(o) + (1,) for o in others] + [tuple(r) + (0,) for r in rays]
    return simplex_feasible(columns, tuple(point) + (1,))


def flow_tuple(flow: dict, arrow_ids: list[str]) -> tuple:
    return tuple(flow[a] for a in arrow_ids)


def integer_walk_reference(arrows, need, caps, columns, budget, values=None) -> list[tuple]:
    """`polytope._integer_walk` as one recursive call per search node:
    the intervals are updated at every node, and every node, a dead one
    included, charges `budget.spend` once for all of its tries."""
    from bisect import bisect_left, bisect_right

    touched = {v for a in arrows for v in (a.tail, a.head)}
    if any(need[v] for v in need if v not in touched):
        return []
    index = {v: i for i, v in enumerate(need)}
    tails = [index[a.tail] for a in arrows]
    heads = [index[a.head] for a in arrows]
    column = {key: j for j, key in enumerate(columns)}
    slots = [column[a.id] for a in arrows]
    sorted_values = None if values is None else [values[a.id] for a in arrows]
    need = list(need.values())
    lo, hi = [0] * len(need), [0] * len(need)
    for t, h, cap in zip(tails, heads, caps):
        lo[t] -= cap
        hi[h] += cap
    parent, size = list(range(len(need))), [1] * len(need)
    current = [0] * len(columns)
    points = []
    last = len(arrows)

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    def assign(i):
        if i == last:
            points.append(tuple(current))
            return
        t, h, slot, cap = tails[i], heads[i], slots[i], caps[i]
        lo[t] += cap
        hi[h] -= cap
        nt, nh = need[t], need[h]
        low = max(lo[t] - nt, nh - hi[h], 0)
        high = min(hi[t] - nt, nh - lo[h], cap)
        if sorted_values is None:
            tries = range(low, high + 1)
            joined = False
        else:
            tries = [0] if low == 0 <= high else []
            rt, rh = find(t), find(h)
            joined = rt != rh
            if joined:
                vals = sorted_values[i]
                tries += vals[bisect_left(vals, low) : bisect_right(vals, high)]
                if size[rt] > size[rh]:
                    rt, rh = rh, rt
        budget.spend(len(tries))
        for x in tries:
            current[slot] = x
            need[t], need[h] = nt + x, nh - x
            if x and joined:
                parent[rt] = rh
                size[rh] += size[rt]
                assign(i + 1)
                size[rh] -= size[rt]
                parent[rt] = rt
            else:
                assign(i + 1)
        need[t], need[h] = nt, nh
        lo[t] -= cap
        hi[h] += cap

    assign(0)
    return sorted(points)


def bounded_lattice_points_reference(spec) -> list[dict]:
    """The integer flows of a box l <= x <= u with divergence theta, by a
    backtracking over the arrows in id order (loops included) that keeps,
    for every vertex, the interval of divergence its unassigned arrows can
    still produce.  Sorted in sorted-arrow-id coordinates."""
    spec.validate()
    quiver, theta = spec.quiver, spec.weight
    if sum(theta[v] for v in quiver.vertices) != 0:
        return []
    arrows = sorted(quiver.arrows, key=lambda a: a.id)
    touched = {v for a in arrows for v in (a.tail, a.head)}
    if any(theta[v] for v in quiver.vertices if v not in touched):
        return []
    rem_lo = {v: 0 for v in quiver.vertices}
    rem_hi = {v: 0 for v in quiver.vertices}
    for a in arrows:
        l, u = spec.lower[a.id], spec.upper[a.id]
        rem_lo[a.head] += l
        rem_hi[a.head] += u
        rem_lo[a.tail] -= u
        rem_hi[a.tail] -= l
    div = {v: 0 for v in quiver.vertices}
    results = []
    flow = {}

    def feasible(v):
        return rem_lo[v] <= theta[v] - div[v] <= rem_hi[v]

    def assign(i):
        if i == len(arrows):
            results.append(dict(flow))
            return
        a = arrows[i]
        l, u = spec.lower[a.id], spec.upper[a.id]
        rem_lo[a.head] -= l
        rem_hi[a.head] -= u
        rem_lo[a.tail] += u
        rem_hi[a.tail] += l
        for x in range(l, u + 1):
            flow[a.id] = x
            div[a.head] += x
            div[a.tail] -= x
            if feasible(a.head) and feasible(a.tail):
                assign(i + 1)
            div[a.head] -= x
            div[a.tail] += x
        del flow[a.id]
        rem_lo[a.head] += l
        rem_hi[a.head] += u
        rem_lo[a.tail] -= u
        rem_hi[a.tail] -= l

    assign(0)
    order = quiver.sorted_arrow_ids()
    return sorted(results, key=lambda f: [f[a] for a in order])


def random_box(rng):
    """A seeded flow polytope on at most 4 vertices and 5 arrows, cycles
    and loops allowed, with lower bounds 0-1, widths 0-3 and a zero-sum
    weight.  The arrows come in shuffled id order."""
    n = rng.randint(1, 4)
    verts = [f"v{i}" for i in range(n)]
    ids = [f"a{k}" for k in range(rng.randint(1, 5))]
    rng.shuffle(ids)
    arrows = [Arrow(aid, rng.choice(verts), rng.choice(verts)) for aid in ids]
    lower = {a.id: rng.randint(0, 1) for a in arrows}
    upper = {a.id: lower[a.id] + rng.randint(0, 3) for a in arrows}
    w = [rng.randint(-3, 3) for _ in range(n - 1)]
    w.append(-sum(w))
    return BoundedFlowSpec(Quiver(verts, arrows), dict(zip(verts, w)), lower, upper)


def hull_vertices(quiver, weight) -> set:
    """Vertices of the polyhedron of a pair as flow tuples (sorted arrow
    ids), by the hull test on its integer points with entries up to the
    total positive weight, a bound every vertex meets."""
    cap = sum(max(x, 0) for x in weight.values())
    spec = BoundedFlowSpec(
        quiver, weight, {a.id: 0 for a in quiver.arrows}, {a.id: cap for a in quiver.arrows}
    )
    order = quiver.sorted_arrow_ids()
    box = {tuple(p[a] for a in order) for p in bounded_lattice_points_reference(spec)}
    rays = [tuple(r[a] for a in order) for r in recession_hilbert_basis(quiver)]
    # a point that is another point plus a ray is neither a vertex nor needed
    # to span the others
    points = [
        p for p in sorted(box)
        if not any(tuple(x - y for x, y in zip(p, r)) in box for r in rays)
    ]
    return {
        p for p in points if not in_convex_hull(p, [o for o in points if o != p], rays)
    }


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals, by exact Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def affine_rank(order: list[str], points: list[dict], rays: list[dict]) -> int:
    """Dimension of conv(points) + cone(rays): the rank of the point
    differences and the rays, in the given arrow order."""
    rows = [[p[a] - points[0][a] for a in order] for p in points[1:]]
    rows += [[r[a] for a in order] for r in rays]
    return rational_rank(rows)

# -- independent rewriting oracle ---------------------------------------------
#
# A generating set of homogeneous binomials is checked semantically: two
# factorizations of the same semigroup element must be linked by a chain of
# single-binomial substitutions.  This never looks at divisor graphs, so it
# cross-checks the production code from a different direction.


def all_factorizations(semigroup, element, degree):
    """All multisets of `degree` generator indices summing to the flow tuple,
    as sorted index tuples (non-decreasing)."""
    gens = semigroup.generators
    found = []
    picked = []

    def extend(start, residual):
        if len(picked) == degree:
            if not any(residual):
                found.append(tuple(picked))
            return
        for i in range(start, len(gens)):
            g = gens[i]
            if all(x <= y for x, y in zip(g, residual)):
                picked.append(i)
                extend(i, tuple(y - x for x, y in zip(g, residual)))
                picked.pop()

    extend(0, element)
    return found


def _substitutions(fact, binomials):
    """Every factorization reachable from `fact` by one binomial rewrite."""
    from collections import Counter

    have = Counter(fact)
    for b in binomials:
        for src, dst in ((b.left, b.right), (b.right, b.left)):
            need = Counter(src)
            if all(have[i] >= c for i, c in need.items()):
                replaced = have - need + Counter(dst)
                yield tuple(sorted(replaced.elements()))


def rewriting_connected(semigroup, binomials, max_degree):
    """True iff every pair of equal-image factorizations of degree <= max_degree
    is linked by rewrites that only use the given binomials."""
    usable = [b for b in binomials if b.degree <= max_degree]
    for k in range(2, max_degree + 1):
        for element in semigroup.graded_piece(k):
            facts = all_factorizations(semigroup, element, k)
            if len(facts) <= 1:
                continue
            todo = [facts[0]]
            seen = {facts[0]}
            while todo:
                here = todo.pop()
                for there in _substitutions(here, usable):
                    if there not in seen:
                        seen.add(there)
                        todo.append(there)
            if len(seen) != len(facts):
                return False
    return True


# -- codegree and the generation degree ----------------------------------------
#
# The codegree by enumeration, and the minimal generating system with every
# degree scanned: references for the flow test in torquiv.polytope.codegree
# and for the d + 2 - codeg cap on the scans in torquiv.ideal.


def codegree_reference(quiver, weight):
    """The least k for which `lattice_points(k * theta)` has a point that
    is >= 1 on every arrow some degree-1 point uses; None when there is no
    degree-1 point."""
    from torquiv import lattice_points

    ones = lattice_points(quiver, weight, 1)
    if not ones:
        return None
    support = {a for p in ones for a, x in p.items() if x}
    k = 1
    while not any(all(p[a] for a in support) for p in lattice_points(quiver, weight, k)):
        k += 1
    return k


def _packed_representative(packed, comp, target, degree, guards):
    """The route of `minimal_generators`: indices into `packed` of the
    component's least node, then the packed greedy factorization of the
    guarded target's rest from that node on."""
    from bisect import bisect_left

    from torquiv.polytope import greedy_factorization

    i = bisect_left(packed, comp[0])
    return (i, *greedy_factorization(packed, target - comp[0], degree - 1, guards, start=i))


def _representative(semigroup, tup, degree, first):
    """Factorization starting with the given generator, greedy afterwards."""
    rest = semigroup.peel(tuple(x - y for x, y in zip(tup, first)), degree - 1)
    assert rest is not None
    return tuple(sorted((semigroup.index(first),) + rest))


def minimal_generators_reference(semigroup, max_degree):
    """`minimal_generators` with no cap: the tuple-level divisor graph of
    every element in every degree from 2 to `max_degree`, and a greedy
    factorization of each component's least node (`_representative`)."""
    from torquiv.ideal import BinomialGen, divisor_graph

    out = []
    for k in range(2, max_degree + 1):
        for tup in semigroup.graded_piece(k):
            graph = divisor_graph(semigroup, semigroup.flow_dict(tup), k)
            reps = [
                _representative(semigroup, tup, k, graph.nodes[comp[0]])
                for comp in graph.components
            ]
            out += [BinomialGen(k, tup, reps[0], other) for other in reps[1:]]
    return out


# -- tuple-level one-sided-matching certificate ---------------------------------
#
# The one-sided-matching semigroup enumerated by its own backtracking, and its
# divisor-graph scan written on flow tuples and sink-degree dicts, with every
# edge tested: the references for the matching polytope's semigroup in
# torquiv.ideal.


def _osm_piece(quiver, sources, sinks, k, budget):
    """All degree-k elements of the one-sided-matching semigroup, sorted:
    k units out of each source, at most k into each sink."""
    arrow_ids = quiver.sorted_arrow_ids()
    pos = {a: i for i, a in enumerate(arrow_ids)}
    sink_cap = {w: k for w in sinks}
    out_arrows = {
        v: sorted(quiver.out_arrows(v), key=lambda a: a.id) for v in sources
    }
    results = []
    current = [0] * len(arrow_ids)
    sink_load = {w: 0 for w in sinks}

    def fill_source(si: int):
        budget.spend()
        if si == len(sources):
            results.append(tuple(current))
            return
        if out_arrows[sources[si]]:  # a source with no arrows kills every degree-k element
            comp(si, 0, k)

    def comp(si: int, ai: int, remaining: int):
        arrows = out_arrows[sources[si]]
        arrow = arrows[ai]
        if ai == len(arrows) - 1:
            if sink_load[arrow.head] + remaining > sink_cap[arrow.head]:
                return
            current[pos[arrow.id]] = remaining
            sink_load[arrow.head] += remaining
            fill_source(si + 1)
            sink_load[arrow.head] -= remaining
            current[pos[arrow.id]] = 0
            return
        top = min(remaining, sink_cap[arrow.head] - sink_load[arrow.head])
        for take in range(top + 1):
            current[pos[arrow.id]] = take
            sink_load[arrow.head] += take
            comp(si, ai + 1, remaining - take)
            sink_load[arrow.head] -= take
            current[pos[arrow.id]] = 0

    fill_source(0)
    del fill_source, comp  # recursive closures are reference cycles: unbind them so `results` frees
    results.sort()
    return results


def osm_certified_reference(quiver, bound, horizon, max_nodes=1_000_000):
    """Are the divisor graphs of all one-sided-matching elements in degrees
    (bound, horizon] connected?"""
    from torquiv.ideal import _osm_parts
    from torquiv.polytope import _NodeBudget

    sources, sinks = _osm_parts(quiver)
    arrow_ids = quiver.sorted_arrow_ids()
    heads = {a.id: a.head for a in quiver.arrows}
    budget = _NodeBudget(max_nodes)
    matchings = _osm_piece(quiver, sources, sinks, 1, budget)

    def fits(small, big):
        return all(x <= y for x, y in zip(small, big))

    def sink_degrees(tup):
        deg = {w: 0 for w in sinks}
        for aid, val in zip(arrow_ids, tup):
            if val:
                deg[heads[aid]] += val
        return deg

    for k in range(bound + 1, horizon + 1):
        for s in _osm_piece(quiver, sources, sinks, k, budget):
            deg_s = sink_degrees(s)
            full = {w for w, d in deg_s.items() if d == k}
            nodes = [
                m for m in matchings
                if fits(m, s) and all(sink_degrees(m)[w] for w in full)
            ]
            reached = set(range(min(1, len(nodes))))
            todo = list(reached)
            while todo:
                i = todo.pop()
                for j in range(len(nodes)):
                    if j in reached:
                        continue
                    pair = tuple(x + y for x, y in zip(nodes[i], nodes[j]))
                    deg_pair = sink_degrees(pair)
                    if fits(pair, s) and all(deg_s[w] - deg_pair[w] <= k - 2 for w in sinks):
                        reached.add(j)
                        todo.append(j)
            if len(reached) < len(nodes):
                return False
    return True


def complete_to_equal_parts(quiver):
    """Add fully connected extra sources until sources and sinks balance.

    Returns the enlarged quiver with the all-(-1)/all-(+1) weight on
    sources/sinks.  The extra sources share out the slack that the
    matching polytope's one slack source carries, so certifying the
    degree-3 bound here cross-checks the one-sided-matching certificate.
    """
    from torquiv.ideal import _osm_parts

    sources, sinks = _osm_parts(quiver)
    vertices = list(quiver.vertices)
    arrows = list(quiver.arrows)
    taken_v = set(vertices)
    taken_a = {a.id for a in arrows}
    for i in range(len(sinks) - len(sources)):
        name = f"extra{i + 1}"
        while name in taken_v:
            name += "'"
        taken_v.add(name)
        vertices.append(name)
        for w in sinks:
            aid = f"{name}:{w}"
            while aid in taken_a:
                aid += "'"
            taken_a.add(aid)
            arrows.append(Arrow(aid, name, w))
    filled = Quiver(vertices, arrows)
    # isolated original sources keep weight -1, matching the source side
    weight = {v: 1 if filled.indegree(v) > 0 else -1 for v in filled.vertices}
    return filled, weight


def random_bipartite(rng: random.Random, max_sources=3, max_sinks=4, max_arrows=8):
    """Sources s*, sinks t*, arrows drawn with repetition (so parallel
    arrows occur); a source or sink that no arrow meets is an isolated
    vertex."""
    n_src = rng.randint(1, max_sources)
    n_snk = rng.randint(1, max_sinks)
    arrows = [
        Arrow(f"a{k}", f"s{rng.randrange(n_src)}", f"t{rng.randrange(n_snk)}")
        for k in range(rng.randint(1, max_arrows))
    ]
    return Quiver([f"s{i}" for i in range(n_src)] + [f"t{j}" for j in range(n_snk)], arrows)


# -- reference classification searches ----------------------------------------
#
# The plain forms of the library's classification searches: a depth-first
# minimization over every partition-compatible vertex ordering, unpruned
# arrow-count compositions, and one quiver per orientation/sink choice
# tuple.  The library must reproduce their outputs exactly.


def _refine_colors_reference(n, colors, neighbor_data):
    while True:
        sigs = [(colors[i], neighbor_data(i, colors)) for i in range(n)]
        order = sorted(set(sigs))
        new = [order.index(s) for s in sigs]
        if new == colors:
            return colors
        colors = new


def min_encoding_reference(n, colors, extend):
    """Least concatenated encoding over the orderings that list the color
    classes in increasing color order, by depth-first search."""
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    slots = []
    for c in sorted(classes):
        slots.extend([classes[c]] * len(classes[c]))
    best = None
    order = []

    def rec(enc):
        nonlocal best
        if best is not None and enc > best[: len(enc)]:
            return
        if len(order) == n:
            if best is None or enc < best:
                best = enc
            return
        for v in slots[len(order)]:
            if v in order:
                continue
            order.append(v)
            rec(enc + extend(order[:-1], v))
            order.pop()

    rec(())
    del rec
    return best


def undirected_search_setup(graph):
    """(multiplicity matrix, refined colors, block function) of a multigraph,
    as the library's canonical search sees it."""
    n = len(graph.vertices)
    index = {v: i for i, v in enumerate(graph.vertices)}
    mult = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        i, j = index[u], index[v]
        mult[i][j] += 1
        if i != j:
            mult[j][i] += 1
    colors = _refine_colors_reference(
        n,
        [0] * n,
        lambda i, cols: (
            sum(mult[i]),
            mult[i][i],
            tuple(sorted((cols[j], mult[i][j]) for j in range(n) if j != i and mult[i][j])),
        ),
    )
    return mult, colors, lambda prefix, v: tuple(mult[v][u] for u in prefix) + (mult[v][v],)


def directed_search_setup(vertices, arcs):
    verts = list(vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    mult = [[0] * n for _ in range(n)]
    for tail, head in arcs:
        mult[index[tail]][index[head]] += 1
    colors = _refine_colors_reference(
        n,
        [0] * n,
        lambda i, cols: (
            sum(mult[i]),
            sum(row[i] for row in mult),
            mult[i][i],
            tuple(sorted((cols[j], mult[i][j]) for j in range(n) if j != i and mult[i][j])),
            tuple(sorted((cols[j], mult[j][i]) for j in range(n) if j != i and mult[j][i])),
        ),
    )
    return (
        mult,
        colors,
        lambda prefix, v: tuple(mult[v][u] for u in prefix)
        + tuple(mult[u][v] for u in prefix)
        + (mult[v][v],),
    )


def canonical_key_reference(graph):
    n = len(graph.vertices)
    if n == 0:
        return (0,)
    _, colors, extend = undirected_search_setup(graph)
    return (n,) + min_encoding_reference(n, colors, extend)


def directed_canonical_key_reference(vertices, arcs):
    n = len(vertices)
    if n == 0:
        return (0,)
    _, colors, extend = directed_search_setup(vertices, arcs)
    return (n,) + min_encoding_reference(n, colors, extend)


def _twins_reference(mult, colors):
    """The lowest twin of every vertex (see multigraph._twins)."""
    n = len(mult)
    twin = list(range(n))
    for v in range(1, n):
        for u in range(v):
            if twin[u] != u or colors[u] != colors[v]:
                continue
            swap = list(range(n))
            swap[u], swap[v] = v, u
            if all(mult[swap[i]][swap[j]] == mult[i][j] for i in range(n) for j in range(n)):
                twin[v] = u
                break
    return twin


def prefix_search_reference(mult, colors, extend):
    """(encoding, tied orderings, twins, block evaluations) of the prefix
    level search: every ordering that ties for the least encoding so far is
    kept position by position, and of each twin class only the lowest
    unused member is tried."""
    n = len(mult)
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    slots = []
    for c in sorted(classes):
        slots.extend([classes[c]] * len(classes[c]))
    twin = _twins_reference(mult, colors)
    encoding, tied, spent = [], [()], 0
    for k in range(n):
        best, grown = None, []
        for prefix in tied:
            tried = set()
            for v in slots[k]:
                if v in prefix or twin[v] in tried:
                    continue
                tried.add(twin[v])
                block = extend(prefix, v)
                if best is None or block < best:
                    best, grown = block, [prefix + (v,)]
                elif block == best:
                    grown.append(prefix + (v,))
            spent += len(tried)
        encoding.extend(best)
        tied = grown
    return tuple(encoding), tied, twin, spent


def prefix_canonical_key_reference(graph):
    if not graph.vertices:
        return (0,)
    return (len(graph.vertices),) + prefix_search_reference(*undirected_search_setup(graph))[0]


def prefix_directed_canonical_key_reference(vertices, arcs):
    if not vertices:
        return (0,)
    return (len(vertices),) + prefix_search_reference(*directed_search_setup(vertices, arcs))[0]


def prefix_automorphisms_reference(graph):
    """Every map from the first tied ordering of the prefix search onto
    another one, composed with every permutation of each twin class."""
    if not graph.vertices:
        return [()]
    _, tied, twin, _ = prefix_search_reference(*undirected_search_setup(graph))
    found = []
    for order in tied:
        perm = [0] * len(order)
        for i, j in zip(tied[0], order):
            perm[i] = j
        found.append(perm)
    classes = {}
    for v, t in enumerate(twin):
        classes.setdefault(t, []).append(v)
    for members in classes.values():
        swaps = []
        for image in itertools.permutations(members):
            swap = list(range(len(twin)))
            for v, w in zip(members, image):
                swap[v] = w
            swaps.append(swap)
        found = [[swap[p] for p in perm] for perm in found for swap in swaps]
    return sorted(tuple(perm) for perm in found)


def quiver_key_reference(quiver):
    return directed_canonical_key_reference(
        quiver.sorted_vertices(), [(a.tail, a.head) for a in quiver.arrows]
    )


def _degree_sequences(total, parts, ceiling):
    """Non-increasing tuples of the given length with entries >= 3 summing
    to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    hi = min(ceiling, total - 3 * (parts - 1))
    for first in range(hi, 2, -1):
        for rest in _degree_sequences(total - first, parts - 1, first):
            yield (first,) + rest


def _labeled_graphs_with_degrees(degrees):
    """Loopless labeled multigraphs on 0..n-1 realizing the degree sequence,
    yielded as {(i, j): multiplicity} over pairs i < j.

    Pairs are filled in lexicographic order; the pair (i, n-1) is the last
    one touching vertex i, so its multiplicity is forced, which prunes the
    search hard."""
    n = len(degrees)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    yield from _fill_pairs(pairs, list(degrees), {}, 0)


def _fill_pairs(pairs, rem, chosen, p):
    if p == len(pairs):
        if rem[-1] == 0:
            yield dict(chosen)
        return
    i, j = pairs[p]
    if j == len(rem) - 1:
        options = (rem[i],) if rem[i] <= rem[j] else ()
    else:
        options = range(min(rem[i], rem[j]) + 1)
    for m in options:
        if m:
            chosen[(i, j)] = m
            rem[i] -= m
            rem[j] -= m
        yield from _fill_pairs(pairs, rem, chosen, p + 1)
        if m:
            rem[i] += m
            rem[j] += m
            del chosen[(i, j)]


def _graph_from_multiplicities(n, chosen):
    from torquiv import Multigraph

    verts = [str(i) for i in range(n)]
    edges = []
    for (i, j), m in sorted(chosen.items()):
        edges.extend([(verts[i], verts[j])] * m)
    return Multigraph(verts, edges)


def skeleton_keys_reference(d, maximal=False):
    """Sorted canonical keys of the loopless 2-connected multigraphs with
    every valency >= 3 and cycle rank d (only the 3-regular ones when
    maximal), found by keying every 2-connected labeled multigraph of every
    degree sequence such a graph can have: n <= 2d - 2 vertices, each of
    valency >= 3, and n + d - 1 edges."""
    from torquiv import canonical_key

    if maximal:
        sequences = [(3,) * (2 * d - 2)]
    else:
        sequences = [
            degrees
            for n in range(2, 2 * d - 1)
            for degrees in _degree_sequences(2 * (n + d - 1), n, 2 * (n + d - 1))
        ]
    keys = set()
    for degrees in sequences:
        if degrees[0] > sum(degrees) - degrees[0]:
            continue  # the top vertex could not avoid loops
        for chosen in _labeled_graphs_with_degrees(degrees):
            g = _graph_from_multiplicities(len(degrees), chosen)
            if g.is_two_connected():
                keys.add(canonical_key(g))
    return sorted(keys)


def skeleton_growth_reference(top, cubic):
    """{d: sorted canonical keys} for d = 2..top, grown from the theta graph
    by keying every move of _augmentations on every member of rank d - 1."""
    from torquiv import Multigraph, canonical_key, from_canonical_key
    from torquiv.classify import _augmentations

    lists = {2: [canonical_key(Multigraph((0, 1), [(0, 1)] * 3))]}
    for d in range(3, top + 1):
        keys = set()
        for key in lists[d - 1]:
            for n, edges in _augmentations(from_canonical_key(key), cubic):
                keys.add(canonical_key(Multigraph(range(n), edges)))
        lists[d] = sorted(keys)
    return lists


def contract_edge(graph, index):
    """Merge the endpoints of edge #index of a multigraph; other copies of
    the same pair become loops, which are dropped, as in the contraction
    order on loopless graphs."""
    from torquiv import Multigraph

    u, v = graph.edges[index]
    if u == v:
        raise ValueError("cannot contract a loop")
    edges = []
    for i, (a, b) in enumerate(graph.edges):
        a, b = (u if a == v else a), (u if b == v else b)
        if i != index and a != b:
            edges.append((a, b))
    return Multigraph([w for w in graph.vertices if w != v], edges)


def compositions_reference(parts, total):
    """Every tuple of `parts` non-negative integers summing to `total`, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for m in range(total + 1):
        for rest in compositions_reference(parts - 1, total - m):
            yield (m,) + rest


def enumerate_Rd_reference(d):
    """Build every orientation/sink choice tuple on every skeleton and keep
    the first quiver found per isomorphism class."""
    from torquiv import build_Rd_quiver, enumerate_skeletons, kronecker_quiver
    from torquiv.errors import UnsupportedCase

    if d == 1:
        return [kronecker_quiver()]
    found = {}
    for graph in enumerate_skeletons(d):
        for choices in itertools.product(("forward", "backward", "sink"), repeat=len(graph.edges)):
            try:
                built = build_Rd_quiver(graph, choices)
            except UnsupportedCase:
                continue
            found.setdefault(quiver_key_reference(built), built)
    return [found[k] for k in sorted(found)]


def affine_quiver(n, counts):
    """The quiver on v0..v{n-1} with counts[k] arrows on the k-th ordered
    pair (i, j), i != j, in row order."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    verts = [f"v{i}" for i in range(n)]
    arrows = [
        Arrow(f"a{i}_{j}_{c}", verts[i], verts[j])
        for (i, j), m in zip(pairs, counts)
        for c in range(m)
    ]
    return Quiver(verts, arrows)


def degree_feasible(n, counts):
    """Do the arrow counts give every vertex in- and outdegree >= 2?"""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out, into = [0] * n, [0] * n
    for (i, j), m in zip(pairs, counts):
        out[i] += m
        into[j] += m
    return min(out) >= 2 and min(into) >= 2


def orbit_least_compositions_reference(n, e):
    """The degree-feasible compositions of e over the ordered pairs of n
    vertices that are lexicographically no larger than any of their images
    under the n! vertex permutations, in lexicographic order."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    kept = []
    for counts in compositions_reference(n * (n - 1), e):
        if not degree_feasible(n, counts):
            continue
        on = dict(zip(pairs, counts))
        if all(
            counts <= tuple(on[perm[i], perm[j]] for i, j in pairs)
            for perm in itertools.permutations(range(n))
        ):
            kept.append(counts)
    return kept


def all_components_strong_reference(quiver):
    """Every weak component, as an induced subquiver, is strongly
    connected."""
    from torquiv.quiver import components, is_strongly_connected

    return all(
        is_strongly_connected(quiver.induced_on_vertices(comp))
        for comp in components(quiver)
    )


def enumerate_affine_Rdd_reference(d):
    """Filter every composition by degrees, primality and strong
    connectivity after each single-arrow deletion, keeping the first quiver
    found per isomorphism class."""
    from torquiv import is_prime, loop_quiver

    if d == 1:
        return [loop_quiver()]

    found = {}
    for n in range(2, d):
        for counts in compositions_reference(n * (n - 1), n + d - 1):
            if not degree_feasible(n, counts):
                continue
            q = affine_quiver(n, counts)
            if not is_prime(q) or not all_components_strong_reference(q):
                continue
            if not all(
                all_components_strong_reference(q.without_arrow(aid))
                for aid in q.sorted_arrow_ids()
            ):
                continue
            found.setdefault(quiver_key_reference(q), q)
    return [found[k] for k in sorted(found)]


# -- enumeration oracles for support, stability and the reductions --------------
#
# The earlier library routes, kept as references for the flow kernel
# (`torquiv.quiver.feasible_flow`, `flow_support`): stability by walking the
# successor-closed subsets, removability and contractibility by optimizing
# over all extreme points and primitive cycles, dimensions and facets from
# the supports of the vertices and recession generators, and normality by a
# depth-first search over factorizations.


def successor_closed_subsets(quiver):
    """Every successor-closed vertex subset, empty and full set included:
    the closed unions of strongly connected components, by include/exclude
    over the condensation in reverse topological order."""
    from torquiv.quiver import strongly_connected_components

    sccs = strongly_connected_components(quiver)
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    succ = [set() for _ in sccs]
    for a in quiver.arrows:
        i, j = comp_of[a.tail], comp_of[a.head]
        if i != j:
            succ[i].add(j)
    closed = [frozenset()]
    for i, comp in enumerate(sccs):
        closed += [
            s | comp for s in closed if all(sccs[j] <= s for j in succ[i])
        ]
    return closed


def is_theta_stable_reference(quiver, weight):
    """Weight sums to zero and every non-empty proper successor-closed
    subset has positive weight."""
    if sum(weight[v] for v in quiver.vertices) != 0:
        return False
    full = frozenset(quiver.vertices)
    return all(
        sum(weight[v] for v in s) > 0
        for s in successor_closed_subsets(quiver)
        if s and s != full
    )


def extreme_points_reference(quiver, weight, max_nodes=10**6):
    """All degree-1 lattice points (acyclic case) or all vertices: a finite
    set holding every optimum of a functional bounded on the polyhedron."""
    import warnings

    from torquiv import lattice_points, vertices
    from torquiv.errors import EmptyWeight
    from torquiv.quiver import topological_order

    if sum(weight[v] for v in quiver.vertices) != 0:
        return []
    if topological_order(quiver) is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyWeight)
            return lattice_points(quiver, weight, 1, max_nodes)
    return vertices(quiver, weight, max_nodes)


def is_removable_reference(quiver, weight, arrow_id):
    """x(a) is 0 at every extreme point and a lies on no oriented cycle;
    None on an empty polyhedron."""
    from torquiv import primitive_cycles

    pts = extreme_points_reference(quiver, weight)
    if not pts:
        return None
    if any(arrow_id in c.arrow_ids for c in primitive_cycles(quiver)):
        return False
    return all(p[arrow_id] == 0 for p in pts)


def is_contractible_reference(quiver, weight, arrow_id):
    """The relaxed minimum of x(a) over the contracted pair: bounded along
    every primitive cycle and >= 0 at every extreme point."""
    from torquiv import contract, primitive_cycles

    a = quiver.arrow(arrow_id)
    qhat, what = contract(quiver, weight, arrow_id)
    coeffs = {
        b.id: (b.head == a.head) - (b.tail == a.head)
        for b in quiver.arrows
        if b.id != arrow_id
    }
    pts = extreme_points_reference(qhat, what)
    if not pts:
        return True
    if any(sum(coeffs[b] for b in c.arrow_ids) > 0 for c in primitive_cycles(qhat)):
        return False
    const = weight[a.head]
    return all(const - sum(coeffs[b] * p[b] for b in coeffs) >= 0 for p in pts)


def _first_move_reference(quiver, weight):
    ids = quiver.sorted_arrow_ids()
    for aid in ids:
        if is_removable_reference(quiver, weight, aid):
            return "remove", aid
    for aid in ids:
        if not quiver.arrow(aid).is_loop() and is_contractible_reference(quiver, weight, aid):
            return "contract", aid
    return None


def tighten_reference(quiver, weight):
    """Removals before contractions, arrows in id order, restarting after
    every move; (quiver, weight, trace JSON) or None on an empty polyhedron."""
    from torquiv import contract
    from torquiv.reductions import Move, ReductionTrace

    if not extreme_points_reference(quiver, weight):
        return None
    trace = ReductionTrace()
    while (move := _first_move_reference(quiver, weight)) is not None:
        kind, aid = move
        if kind == "remove":
            quiver = quiver.without_arrow(aid)
        else:
            quiver, weight = contract(quiver, weight, aid)
        trace.moves.append(Move(kind, aid, quiver, dict(weight)))
    return quiver, weight, trace.to_json()


def normalize_to_Rd_reference(quiver, weight):
    """The normal-form loop that looks for a removal, then a contraction,
    arrows in id order, before every reflection at the valency-2 source of
    smallest id; (quiver, weight, trace JSON)."""
    from torquiv import contract, is_contractible, is_removable, reflect
    from torquiv.reductions import Move, ReductionTrace

    trace = ReductionTrace()
    while True:
        ids = quiver.sorted_arrow_ids()
        move = next(
            (("remove", aid) for aid in ids if is_removable(quiver, weight, aid)), None
        ) or next(
            (
                ("contract", aid)
                for aid in ids
                if not quiver.arrow(aid).is_loop()
                and is_contractible(quiver, weight, aid)
            ),
            None,
        )
        if move is None:
            sources = [
                v
                for v in sorted(quiver.vertices)
                if quiver.valency(v) == 2 and quiver.outdegree(v) == 2
            ]
            if not sources:
                return quiver, weight, trace.to_json()
            move = "reflect", sources[0]
            quiver, weight = reflect(quiver, weight, sources[0])
        elif move[0] == "remove":
            quiver = quiver.without_arrow(move[1])
        else:
            quiver, weight = contract(quiver, weight, move[1])
        trace.moves.append(Move(*move, quiver, dict(weight)))


def normal_fan_2d_reference(quiver, weight):
    """The rays of `normal_fan_2d`, or its error JSON, with the pair
    tightened first and the oriented-cycle and dimension checks read off
    the tightened pair."""
    from torquiv import dimension, normal_fan_2d, tighten
    from torquiv.errors import EmptyPolyhedron, UnsupportedCase, WrongDimension
    from torquiv.quiver import feasible_flow, is_acyclic

    if feasible_flow(quiver, weight) is None:
        return EmptyPolyhedron("the pair cuts out an empty polyhedron").to_json()
    tq, tw, _ = tighten(quiver, weight)
    if not is_acyclic(tq):
        return UnsupportedCase(
            "the tightened quiver keeps an oriented cycle; only bounded "
            "polyhedra have a complete normal fan"
        ).to_json()
    dim = dimension(tq, tw)
    if dim != 2:
        return WrongDimension(
            f"the tightened polytope has dimension {dim}, need 2", dimension=dim
        ).to_json()
    return normal_fan_2d(tq, tw).rays


def blocks_reference(quiver):
    """Blocks of the underlying multigraph by the recursive Hopcroft-Tarjan
    search: (vertex set, arrow list) pairs, each loop its own block."""
    blocks = [(frozenset([a.tail]), [a]) for a in quiver.arrows if a.is_loop()]
    incident = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        if not a.is_loop():
            incident[a.tail].append(a)
            incident[a.head].append(a)
    disc, low, stack = {}, {}, []

    def dfs(v, parent_edge):
        disc[v] = low[v] = len(disc)
        for a in incident[v]:
            if a.id == parent_edge:
                continue
            w = a.head if a.tail == v else a.tail
            if w not in disc:
                stack.append(a)
                dfs(w, a.id)
                low[v] = min(low[v], low[w])
                if low[w] >= disc[v]:
                    block_edges = []
                    while True:
                        e = stack.pop()
                        block_edges.append(e)
                        if e.id == a.id:
                            break
                    vs = frozenset([x for e in block_edges for x in (e.tail, e.head)])
                    blocks.append((vs, block_edges))
            elif disc[w] < disc[v]:
                stack.append(a)
                low[v] = min(low[v], disc[w])

    for v in quiver.vertices:
        if v not in disc:
            dfs(v, None)
    return blocks


def is_tight_by_moves_reference(quiver, weight):
    """No removable and no contractible arrow; None on an empty polyhedron."""
    if not extreme_points_reference(quiver, weight):
        return None
    return _first_move_reference(quiver, weight) is None


def is_tight_by_stability_reference(quiver, weight):
    """Every component of Q, and of Q minus any one arrow, is stable."""
    from torquiv.quiver import components

    def stable(q):
        return all(
            is_theta_stable_reference(q.induced_on_vertices(c), {v: weight[v] for v in c})
            for c in components(q)
        )

    return stable(quiver) and all(
        stable(quiver.without_arrow(aid)) for aid in quiver.sorted_arrow_ids()
    )


def _supports_reference(quiver, weight):
    from torquiv import primitive_cycles, vertices

    verts = vertices(quiver, weight)
    if not verts:
        return None
    return (
        [{a for a, x in m.items() if x} for m in verts],
        [set(c.arrow_ids) for c in primitive_cycles(quiver)],
    )


def dimension_reference(quiver, weight):
    """|S| - |V| + c(V, S) for the union S of the vertex and cycle
    supports; None on an empty polyhedron."""
    from torquiv.polytope import support_dimension

    supports = _supports_reference(quiver, weight)
    if supports is None:
        return None
    return support_dimension(quiver, set().union(*supports[0], *supports[1]))


def facet_arrows_reference(quiver, weight):
    """Facet groups keyed by the vertices and cycles that avoid the arrow."""
    from torquiv.polytope import support_dimension

    supports = _supports_reference(quiver, weight)
    if supports is None:
        return None
    vert_supports, ray_supports = supports
    dim = support_dimension(quiver, set().union(*vert_supports, *ray_supports))
    groups = {}
    for aid in quiver.sorted_arrow_ids():
        face_verts = tuple(i for i, s in enumerate(vert_supports) if aid not in s)
        if not face_verts:
            continue
        face_rays = tuple(i for i, s in enumerate(ray_supports) if aid not in s)
        face_support = set().union(
            *(vert_supports[i] for i in face_verts), *(ray_supports[i] for i in face_rays)
        )
        if support_dimension(quiver, face_support) == dim - 1:
            groups.setdefault((face_verts, face_rays), []).append(aid)
    return sorted(groups.values(), key=lambda g: g[0])


def factorization_reference(points, target, count):
    """Depth-first search for the lex-first factorization of `target` into
    `count` of the lex-sorted `points` (non-decreasing indices), or None."""

    def rec(remaining, depth, start):
        if depth == count:
            return [] if not any(remaining) else None
        for i in range(start, len(points)):
            if all(c <= r for c, r in zip(points[i], remaining)):
                sub = rec(tuple(r - c for r, c in zip(remaining, points[i])), depth + 1, i)
                if sub is not None:
                    return [i] + sub
        return None

    return rec(tuple(target), 0, 0)


def greedy_factorization_reference(points, target, count):
    """The greedy factorization over flow tuples: take the lex-least point
    p <= r of the remainder r each time, scanning on from the previous
    pick; indices into the lex-sorted `points`, or None."""
    picks = []
    start = 0
    for _ in range(count):
        for i in range(start, len(points)):
            p = points[i]
            if all(x <= r for x, r in zip(p, target)):
                break
        else:
            return None
        picks.append(i)
        target = tuple(r - x for r, x in zip(target, p))
        start = i
    return picks if not any(target) else None
