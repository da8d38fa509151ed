"""Exact enumeration and structure of quiver polyhedra.

The polyhedron of a pair (Q, θ) is the set of non-negative real flows with
divergence θ at every vertex.  For acyclic Q it is a lattice polytope; an
oriented cycle makes it unbounded (its characteristic vector is a recession
direction), and then only a box l <= x <= u bounds its points.

Everything here is exact and integer.  One backtracking walk over the
non-loop arrows, with a cap per arrow, enumerates lattice points; with
forest support it enumerates vertices (integer flows with forest support,
by total unimodularity); shifted by the lower bounds (x - l in [0, u - l]
with divergence theta - div(l)) it enumerates a box.  The walk keeps its
state in lists indexed by int, loops through forced arrows and recurses
only where it branches, charges its node budget once per search node and
returns its points as sorted tuples in sorted-arrow-id coordinates.
Dimensions are read off the support graph: |S| - |V| + c(V, S) for the
arrows S that some point of the polyhedron uses, which one max-flow finds
(`quiver.feasible_flow`).  No floats.
Normality factors greedily over points packed into one int each (`_pack`,
shared with `ideal`): a field per coordinate with a guard bit on top, so
int order is lex order and a divisibility test is one subtraction and one
mask (SIMD within a register; Lamport, CACM 1975).
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, product

from .errors import (
    EmptyPolyhedron,
    EmptyWeight,
    InputError,
    SearchCapExceeded,
    UnboundedPolyhedron,
)
from .quiver import (
    Arrow,
    Quiver,
    check_weight,
    components,
    divergence,
    euler_characteristic,
    feasible_flow,
    flow_support,
    fresh_name,
    primitive_cycles,
    topological_order,
)

DEFAULT_MAX_NODES = 10_000_000


@dataclass(frozen=True)
class BoundedFlowSpec:
    """A flow polytope: l(a) <= x(a) <= u(a), divergence theta."""

    quiver: Quiver
    weight: dict
    lower: dict
    upper: dict

    def validate(self) -> None:
        check_weight(self.quiver, self.weight)
        for a in self.quiver.arrows:
            if a.id not in self.lower or a.id not in self.upper:
                raise InputError(f"bounds missing for arrow {a.id!r}")
            l, u = self.lower[a.id], self.upper[a.id]
            if not (isinstance(l, int) and isinstance(u, int)):
                raise InputError(f"bounds for arrow {a.id!r} must be integers")
            if l < 0 or u < l:
                raise InputError(f"need 0 <= l <= u on arrow {a.id!r}")


class _NodeBudget:
    def __init__(self, max_nodes: int):
        self.left = max_nodes
        self.max = max_nodes

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise self.exceeded()

    def exceeded(self) -> SearchCapExceeded:
        return SearchCapExceeded(f"backtracking exceeded {self.max} nodes", max_nodes=self.max)


# -- the integer walk --------------------------------------------------------


def _walk_arrows(quiver: Quiver, order: list[str]) -> list[Arrow]:
    """Non-loop arrows grouped by the first vertex of `order` they touch,
    by id within a group: once a vertex's group is assigned, its divergence
    is settled.  On a topological order this groups arrows by tail."""
    seen: set = set()
    arrows = []
    for v in order:
        for a in sorted(quiver.out_arrows(v) + quiver.in_arrows(v), key=lambda a: a.id):
            if a.id not in seen and not a.is_loop():
                seen.add(a.id)
                arrows.append(a)
    return arrows


def _integer_walk(
    arrows: list[Arrow],
    need: dict,
    caps: list[int],
    columns: list[str],
    budget: _NodeBudget,
    values: dict | None = None,
) -> list[tuple]:
    """Every integer flow on the non-loop `arrows` with entries in
    [0, caps[i]] and divergence `need`, as sorted tuples in `columns`
    order (the sorted arrow ids; a column no arrow walks stays 0).

    Walks arrow by arrow and keeps, for every vertex, the interval of
    divergence the arrows not yet assigned can still produce.  At a given
    arrow these intervals are fixed, so the pair at each node's tail and
    head is set up once, before the walk.  An arrow value is tried only
    when both of its endpoints stay inside their intervals, so every
    search node is locally feasible and the last arrow at a vertex is
    forced outright.  With `values` (arrow id -> sorted positive values)
    an arrow is positive only on a listed value and only when it joins two
    components of the support so far (a union-find with undo), so every
    flow found has forest support.

    A node with one try goes on in the same frame, which undoes its
    forced run when it returns, so the walk recurses only at a node with
    two or more tries, and never into a child whose interval is empty.
    Each node charges the budget once for all of its tries (a node with
    none charges 0), in depth-first order."""
    index = {v: i for i, v in enumerate(need)}
    column = {key: j for j, key in enumerate(columns)}
    need = list(need.values())
    # [lo[v], hi[v]]: divergence the arrows after the current one can produce at v
    lo, hi, touched = [0] * len(need), [0] * len(need), [False] * len(need)
    nodes = []  # per arrow: tail, head, column, cap, and the intervals at its ends
    for a, cap in zip(reversed(arrows), reversed(caps)):
        t, h = index[a.tail], index[a.head]
        nodes.append((t, h, column[a.id], cap, lo[t], hi[t], lo[h], hi[h]))
        lo[t] -= cap
        hi[h] += cap
        touched[t] = touched[h] = True
    if any(x and not seen for x, seen in zip(need, touched)):
        return []  # no arrow can meet the weight of a vertex without one
    nodes.reverse()
    last = len(nodes)
    current = [0] * len(columns)
    points: list[tuple] = []
    left = budget.left

    def walk(i: int, low: int, high: int) -> None:
        """Every point on from node i, whose tries are low..high."""
        nonlocal left
        start = i
        t, h, slot, cap, lot, hit, loh, hih = nodes[i]
        while low == high:
            left -= 1
            if left < 0:
                raise budget.exceeded()
            current[slot] = low
            need[t] += low
            need[h] -= low
            i += 1
            if i == last:
                points.append(tuple(current))
                break
            t, h, slot, cap, lot, hit, loh, hih = nodes[i]
            nt, nh = need[t], need[h]
            low, high = lot - nt, hit - nt
            if nh - hih > low:
                low = nh - hih
            if nh - loh < high:
                high = nh - loh
            if low < 0:
                low = 0
            if high > cap:
                high = cap
            if low > high:
                break
        else:  # two or more tries; the last arrow is forced, so node i + 1 exists
            left -= high - low + 1
            if left < 0:
                raise budget.exceeded()
            nt, nh = need[t], need[h]
            ct, ch, _slot, ccap, clot, chit, cloh, chih = nodes[i + 1]
            for x in range(low, high + 1):
                current[slot] = x
                need[t] = nt + x
                need[h] = nh - x
                cnt, cnh = need[ct], need[ch]
                low, high = clot - cnt, chit - cnt
                if cnh - chih > low:
                    low = cnh - chih
                if cnh - cloh < high:
                    high = cnh - cloh
                if low < 0:
                    low = 0
                if high > ccap:
                    high = ccap
                if low <= high:
                    walk(i + 1, low, high)
            need[t], need[h] = nt, nh
        for t, h, slot, _, _, _, _, _ in nodes[start:i]:  # undo the forced run
            need[t] -= current[slot]
            need[h] += current[slot]

    sorted_values = None if values is None else [values[a.id] for a in arrows]
    parent, size = list(range(len(need))), [1] * len(need)

    def forest(i: int, low: int, high: int) -> None:
        """`walk` with forest support: at node i the tries are 0, when
        low is, and, when the arrow joins two components of the support
        (`parent`, union by `size`), its listed values in low..high."""
        nonlocal left
        start, joins = i, []
        t, h, slot, cap, lot, hit, loh, hih = nodes[i]
        while True:
            rt, rh = t, h
            while parent[rt] != rt:
                rt = parent[rt]
            while parent[rh] != rh:
                rh = parent[rh]
            if rt == rh:
                tries = [] if low else [0]
            else:
                vals = sorted_values[i]
                tries = vals[bisect_left(vals, low) : bisect_right(vals, high)]
                if not low:
                    tries.insert(0, 0)
                if size[rt] > size[rh]:
                    rt, rh = rh, rt
            if len(tries) != 1:
                break
            left -= 1
            if left < 0:
                raise budget.exceeded()
            x = current[slot] = tries[0]
            if x:
                need[t] += x
                need[h] -= x
                parent[rt] = rh
                size[rh] += size[rt]
                joins.append((rt, rh))
            i += 1
            if i == last:
                points.append(tuple(current))
                tries = ()
                break
            t, h, slot, cap, lot, hit, loh, hih = nodes[i]
            nt, nh = need[t], need[h]
            low, high = lot - nt, hit - nt
            if nh - hih > low:
                low = nh - hih
            if nh - loh < high:
                high = nh - loh
            if low < 0:
                low = 0
            if high > cap:
                high = cap
            if low > high:
                tries = ()
                break
        if tries:  # two or more, so the arrow joins rt to rh when positive
            left -= len(tries)
            if left < 0:
                raise budget.exceeded()
            nt, nh = need[t], need[h]
            ct, ch, _slot, ccap, clot, chit, cloh, chih = nodes[i + 1]
            for x in tries:
                current[slot] = x
                need[t] = nt + x
                need[h] = nh - x
                if x:
                    parent[rt] = rh
                    size[rh] += size[rt]
                cnt, cnh = need[ct], need[ch]
                low, high = clot - cnt, chit - cnt
                if cnh - chih > low:
                    low = cnh - chih
                if cnh - cloh < high:
                    high = cnh - cloh
                if low < 0:
                    low = 0
                if high > ccap:
                    high = ccap
                if low <= high:
                    forest(i + 1, low, high)
                if x:
                    size[rh] -= size[rt]
                    parent[rt] = rt
            need[t], need[h] = nt, nh
        for rt, rh in reversed(joins):
            size[rh] -= size[rt]
            parent[rt] = rt
        for t, h, slot, _, _, _, _, _ in nodes[start:i]:
            need[t] -= current[slot]
            need[h] += current[slot]

    try:
        if last:
            t, h, _slot, cap, lot, hit, loh, hih = nodes[0]
            low = max(lot - need[t], need[h] - hih, 0)
            high = min(hit - need[t], need[h] - loh, cap)
            if low <= high:
                (walk if values is None else forest)(0, low, high)
        else:
            points.append(tuple(current))
    finally:
        budget.left = left
        del walk, forest  # recursive closures are reference cycles: unbind them so the walk frees
    points.sort()
    return points


# -- lattice points ----------------------------------------------------------


def lattice_points(
    quiver: Quiver, weight: dict, k: int, max_nodes: int = DEFAULT_MAX_NODES
) -> list[dict]:
    """All non-negative integer flows with divergence k*theta, for acyclic
    quivers, sorted lexicographically in sorted-arrow-id coordinates.

    One integer walk over the arrows, grouped by tail in topological order.
    """
    points = _lattice_tuples(quiver, weight, k, max_nodes)
    if not points and sum(weight[v] for v in quiver.vertices) != 0:
        warnings.warn("weight does not sum to zero: polyhedron is empty", EmptyWeight)
    return _flows(quiver, points)


def _lattice_tuples(quiver: Quiver, weight: dict, k: int, max_nodes: int) -> list[tuple]:
    """`lattice_points` as sorted tuples in sorted-arrow-id order, with no
    warning for a weight that does not sum to zero."""
    if not isinstance(k, int) or k < 1:
        raise InputError("degree k must be a positive integer")
    check_weight(quiver, weight)
    order = topological_order(quiver)
    if order is None:
        raise UnboundedPolyhedron(
            "quiver has an oriented cycle; use bounded flows instead"
        )
    if sum(weight[v] for v in quiver.vertices) != 0:
        return []

    # No single arrow can ever carry more than the total sink demand.
    cap = k * sum(max(weight[v], 0) for v in quiver.vertices)
    arrows = _walk_arrows(quiver, order)
    need = {v: k * weight[v] for v in quiver.vertices}
    caps = [cap] * len(arrows)
    return _integer_walk(arrows, need, caps, quiver.sorted_arrow_ids(), _NodeBudget(max_nodes))


def _flows(quiver: Quiver, points: list[tuple]) -> list[dict]:
    """Tuples in sorted-arrow-id order as flow dicts."""
    order = quiver.sorted_arrow_ids()
    return [dict(zip(order, p)) for p in points]


def bounded_lattice_points(spec: BoundedFlowSpec) -> list[dict]:
    """All integer flows of the flow polytope l <= x <= u with divergence
    theta, sorted lexicographically in sorted-arrow-id coordinates.
    Cycles are fine here; the box bounds everything.

    x - l runs over the flows in [0, u - l] with divergence theta - div(l):
    the integer walk of `lattice_points` finds them on the non-loop arrows,
    and l is added back.  A loop changes no divergence, so it takes every
    value of its box."""
    spec.validate()
    quiver, lower = spec.quiver, spec.lower
    shift = divergence(quiver, lower)
    need = {v: spec.weight[v] - shift[v] for v in quiver.vertices}
    arrows = _walk_arrows(quiver, quiver.sorted_vertices())
    caps = [spec.upper[a.id] - lower[a.id] for a in arrows]
    order = quiver.sorted_arrow_ids()
    flows = _integer_walk(arrows, need, caps, order, _NodeBudget(DEFAULT_MAX_NODES))
    loops = [a.id for a in quiver.arrows if a.is_loop()]
    boxes = {a: range(lower[a], spec.upper[a] + 1) for a in loops}
    points = sorted(
        p
        for f in flows
        for p in product(*(boxes.get(a) or (x + lower[a],) for a, x in zip(order, f)))
    )
    return _flows(quiver, points)


# -- flow polytope -> quiver polytope gadget ---------------------------------


def to_quiver_polytope(spec: BoundedFlowSpec) -> tuple[Quiver, dict]:
    """Convert a flow polytope into a plain quiver polytope.

    First the lower bounds are shifted away (x -> x - l), then every arrow a
    is replaced by a three-arrow gadget through two new vertices v_a, w_a:

        tail(a) --a:1--> v_a <--a:2-- w_a --a:3--> head(a)

    with new weights u'(a) on v_a and -u'(a) on w_a, where u' = u - l.  The
    result is acyclic (old vertices only emit gadget arrows and absorb
    gadget arrows; every directed path has length <= 2) and its degree-1
    lattice points biject with the bounded flows via
    y(a:1) = y(a:3) = x(a) - l(a),  y(a:2) = u'(a) - (x(a) - l(a)).
    """
    spec.validate()
    quiver = spec.quiver
    shifted = dict(spec.weight)
    for a in quiver.arrows:
        l = spec.lower[a.id]
        shifted[a.head] -= l
        shifted[a.tail] += l

    used_v = set(quiver.vertices)
    used_a = {a.id for a in quiver.arrows}
    new_vertices = list(quiver.vertices)
    new_arrows = []
    new_weight = dict(shifted)
    for a in sorted(quiver.arrows, key=lambda a: a.id):
        uprime = spec.upper[a.id] - spec.lower[a.id]
        va = fresh_name(f"v_{a.id}", used_v)
        wa = fresh_name(f"w_{a.id}", used_v)
        new_vertices.extend([va, wa])
        new_weight[va] = uprime
        new_weight[wa] = -uprime
        new_arrows.append(Arrow(fresh_name(f"{a.id}:1", used_a), a.tail, va))
        new_arrows.append(Arrow(fresh_name(f"{a.id}:2", used_a), wa, va))
        new_arrows.append(Arrow(fresh_name(f"{a.id}:3", used_a), wa, a.head))
    return Quiver(new_vertices, new_arrows), new_weight


def gadget_flow(spec: BoundedFlowSpec, flow: dict) -> dict:
    """Image of a bounded flow under the to_quiver_polytope bijection."""
    out = {}
    for a in spec.quiver.arrows:
        shifted = flow[a.id] - spec.lower[a.id]
        uprime = spec.upper[a.id] - spec.lower[a.id]
        out[f"{a.id}:1"] = shifted
        out[f"{a.id}:2"] = uprime - shifted
        out[f"{a.id}:3"] = shifted
    return out


# -- vertices ----------------------------------------------------------------


def _subset_sums(values) -> set:
    sums = {0}
    for w in values:
        if w:
            sums |= {s + w for s in sums}
    return sums


def vertices(
    quiver: Quiver, weight: dict, max_nodes: int = DEFAULT_MAX_NODES
) -> list[dict]:
    """All vertices of the quiver polyhedron.

    The constraint matrix of {x >= 0 : div x = theta} is an incidence
    matrix, hence totally unimodular, so the vertices are exactly the
    integer points of the polyhedron whose support is a forest of the
    underlying graph (a loop counts as a cycle, so loops stay 0).  On such
    a flow an arrow t -> h carries theta(S) for the vertex set S on its
    head side, so it is at most the sum of the positive weights and lies
    in {theta(S) : h in S, t not in S, S inside the arrow's component}.

    One integer walk finds each vertex once: the divergence-interval
    pruning of `lattice_points`, plus forest support and these value sets.
    """
    check_weight(quiver, weight)
    if sum(weight[v] for v in quiver.vertices) != 0:
        return []
    arrows = _walk_arrows(quiver, topological_order(quiver) or list(quiver.vertices))
    cap = sum(max(weight[v], 0) for v in quiver.vertices)
    weighted: dict = {}  # vertex -> the vertices of its component with a nonzero weight
    for comp in components(quiver):
        weighted.update(dict.fromkeys(comp, [v for v in comp if weight[v]]))
    sums: dict = {}
    values: dict = {}
    for a in arrows:
        ends = frozenset((a.tail, a.head))
        if ends not in sums:
            sums[ends] = _subset_sums(weight[v] for v in weighted[a.head] if v not in ends)
        values[a.id] = sorted(
            x for x in (s + weight[a.head] for s in sums[ends]) if 0 < x <= cap
        )
    need = {v: weight[v] for v in quiver.vertices}
    caps = [cap] * len(arrows)
    budget = _NodeBudget(max_nodes)
    points = _integer_walk(arrows, need, caps, quiver.sorted_arrow_ids(), budget, values)
    return _flows(quiver, points)


# -- dimension and facets ----------------------------------------------------


def recession_hilbert_basis(quiver: Quiver) -> list[dict]:
    """Characteristic vectors of all primitive cycles: the Hilbert basis of
    the recession cone."""
    return [c.epsilon(quiver) for c in primitive_cycles(quiver)]


def support_dimension(quiver: Quiver, support) -> int:
    """Dimension of a nonempty polyhedron {x >= 0 : div x = theta} whose
    points are positive on the arrow set `support` and nowhere else
    together: |S| - |V| + c(V, S).

    A point positive on all of S lies in the relative interior, so the
    affine hull is {div x = theta, x = 0 off S}; the incidence matrix of
    the graph (V, S) has rank |V| minus its number of components."""
    return euler_characteristic(quiver.restricted_to_arrows(support))


def _support(quiver: Quiver, weight: dict) -> set[str]:
    """The support of a nonempty polyhedron, read off one feasible flow."""
    flow = feasible_flow(quiver, weight)
    if flow is None:
        raise EmptyPolyhedron("quiver polyhedron has no points")
    return flow_support(quiver, flow)


def dimension(quiver: Quiver, weight: dict) -> int:
    """Dimension of the polyhedron, from its support."""
    return support_dimension(quiver, _support(quiver, weight))


def codegree(quiver: Quiver, weight: dict) -> int:
    """The least k >= 1 for which the k-th dilate of the (acyclic) quiver
    polytope has a lattice point in its relative interior.

    The relative interior is where every arrow of the support S is
    positive, so k qualifies exactly when some flow y >= 0 has divergence
    k*theta - div(1_S): then y + 1_S is a point of kP that is >= 1 on S.
    One feasibility test per k; k = dimension + 1 always qualifies."""
    return _codegree(quiver, weight, _support(quiver, weight))


def _codegree(quiver: Quiver, weight: dict, support: set[str]) -> int:
    ones = divergence(quiver, {a.id: int(a.id in support) for a in quiver.arrows})
    k = 1
    while feasible_flow(quiver, {v: k * weight[v] - ones[v] for v in quiver.vertices}) is None:
        k += 1
    return k


def generation_degree(quiver: Quiver, weight: dict) -> int:
    """d + 2 - codeg for the (acyclic, nonempty) quiver polytope P of
    dimension d, read off one support: no minimal generator of its toric
    ideal lies above this degree.  P is normal, so its toric ring is
    Cohen-Macaulay (Hochster 1972) with a-invariant -codeg(P) and hence
    regularity d + 1 - codeg (Bruns-Gubeladze, "Polytopes, Rings, and
    K-Theory", 2009); the ideal's is one more."""
    support = _support(quiver, weight)
    return support_dimension(quiver, support) + 2 - _codegree(quiver, weight, support)


def facet_arrows(quiver: Quiver, weight: dict) -> list[list[str]]:
    """Arrows whose vanishing locus is a facet, grouped by the facet they
    cut (two arrows land in one group when their faces coincide).  Groups
    are sorted by their smallest arrow id.

    The face x(a) = 0 is the polyhedron of Q - a.  A face is the set of
    points of the polyhedron that vanish off its support, so two faces
    coincide exactly when their supports do."""
    dim = dimension(quiver, weight)
    groups: dict = {}
    for aid in quiver.sorted_arrow_ids():
        face = quiver.without_arrow(aid)
        flow = feasible_flow(face, weight)
        if flow is None:
            continue  # the face is empty: every point uses a
        support = frozenset(flow_support(face, flow))
        if support_dimension(quiver, support) == dim - 1:
            groups.setdefault(support, []).append(aid)
    return sorted(groups.values(), key=lambda g: g[0])


# -- normality ---------------------------------------------------------------


def _pack(values, width: int) -> int:
    """The values, each below 2**width, as one int: fields of width + 1
    bits, the first value highest (so int order is the lex order of the
    value tuples), the top bit of each field its guard.

    With `guards` the packed (2**width, ...), `((y | guards) - x) & guards
    == guards` exactly when x <= y in every field: a field that goes
    negative borrows from its own guard bit, and no borrow gets past it.
    """
    field = width + 1
    packed = 0
    for x in values:
        packed = (packed << field) | x
    return packed


def _unpack(packed: int, width: int, n: int) -> tuple:
    """The n values of `_pack(values, width)`, with or without its guards."""
    field, mask = width + 1, (1 << width) - 1
    return tuple((packed >> (field * i)) & mask for i in range(n - 1, -1, -1))


def check_normality(
    quiver: Quiver, weight: dict, k: int, max_nodes: int = DEFAULT_MAX_NODES
) -> tuple[bool, dict]:
    """Is every lattice point of the k-th dilate a sum of k degree-1
    points?  Returns (verdict, witness): on success the witness maps each
    degree-k point to one decomposition; on failure it holds the
    counterexample.  The points are packed at the width of the largest
    degree-k coordinate, which k times any degree-1 point stays under."""
    if not isinstance(k, int) or k < 2:
        raise InputError("normality degree k must be an integer >= 2")
    ones = _lattice_tuples(quiver, weight, 1, max_nodes)
    top = _lattice_tuples(quiver, weight, k, max_nodes)
    width = max(chain.from_iterable(top), default=0).bit_length()
    guards = _pack([1 << width] * len(quiver.arrows), width)
    packed = [_pack(p, width) for p in ones]
    flows = _flows(quiver, ones)
    witness: dict = {}
    for tup in top:
        picks = greedy_factorization(packed, _pack(tup, width), k, guards)
        if picks is None:
            return False, {"counterexample": _flows(quiver, [tup])[0]}
        witness[str(tup)] = [flows[i] for i in picks]
    return True, witness


def greedy_factorization(
    packed: list, target: int, count: int, guards: int, start: int = 0
) -> list[int] | None:
    """The lexicographically first way to write `target` as a sum of
    `count` of the sorted `_pack`ed points from index `start` on, as
    indices, or None when there is none.  `target` may carry its guards.

    Takes the lex-least point p <= r of the remainder r each time, by the
    guard test of `_pack`.  The remainder of a lattice point of a quiver
    polytope's dilate stays a lattice point of the next smaller dilate,
    which splits again (total unimodularity), so the greedy choice never
    has to be undone; and every point q <= r - p is a candidate at r too,
    so q comes no earlier than p and each scan starts at the previous pick."""
    rest = target | guards
    picks: list[int] = []
    for _ in range(count):
        for i in range(start, len(packed)):
            if (rest - packed[i]) & guards == guards:
                break
        else:
            return None
        picks.append(i)
        rest -= packed[i]
        start = i
    return picks if rest == guards else None
