"""Polyhedron-preserving transformations of weighted quivers.

Removal and contraction of arrows, tightening, reflections at valency-2
sinks/sources, prime (block) decomposition, skeleton extraction, the
normal form on sink-subdivided skeletons, doubling, and localization at a
polyhedron vertex.  Every transformation is an integral-affine equivalence
on the polyhedron side, so lattice point counts in every degree are
preserved move by move; traces carry (quiver, weight) snapshots so tests
can verify exactly that.

Whether an arrow is removable or contractible is decided on one feasible
integer flow of the polyhedron (`quiver.feasible_flow`): removable arrows
are those off its support, and an arrow is contractible when the flow
around it, from its tail to its head, is at most its own flow.  Exact
integer max-flow throughout, never floating-point LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    EmptyPolyhedron,
    InputError,
    LoopArrow,
    NotAVertex,
    NotPrime,
    NotTight,
    UnsupportedCase,
    ValencyTooLow,
    WrongValencyPattern,
)
from .multigraph import Multigraph
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
    is_theta_stable,
    push_flow,
)


@dataclass(frozen=True)
class Move:
    kind: str  # "remove" | "contract" | "reflect"
    target: str  # arrow id for remove/contract, vertex id for reflect
    quiver: Quiver  # snapshot after the move
    weight: dict


@dataclass
class ReductionTrace:
    moves: list = field(default_factory=list)

    def to_json(self) -> list:
        return [
            {
                "move": m.kind,
                "target": m.target,
                "state": m.quiver.to_dict(m.weight),
            }
            for m in self.moves
        ]


def _nonempty_flow(quiver: Quiver, weight: dict, message: str) -> dict:
    flow = feasible_flow(quiver, weight)
    if flow is None:
        raise EmptyPolyhedron(message)
    return flow


# -- removal and contraction ---------------------------------------------


def is_removable(quiver: Quiver, weight: dict, arrow_id: str) -> bool:
    """Does x(a) vanish identically on the polyhedron?  (Then deleting the
    arrow changes nothing.)  Exactly when a lies off the support."""
    quiver.arrow(arrow_id)
    flow = _nonempty_flow(
        quiver, weight, "cannot test removability on an empty polyhedron"
    )
    return arrow_id not in flow_support(quiver, flow)


def contract(quiver: Quiver, weight: dict, arrow_id: str) -> tuple[Quiver, dict]:
    """Glue the endpoints of a non-loop arrow into one vertex (named by
    joining the two ids' '+'-separated parts in sorted order), delete the
    arrow, keep any parallels/loops that arise, and add the two endpoint
    weights."""
    a = quiver.arrow(arrow_id)
    if a.is_loop():
        raise LoopArrow(f"arrow {arrow_id!r} is a loop")
    check_weight(quiver, weight)
    parts = sorted(set(a.tail.split("+")) | set(a.head.split("+")))
    taken = {v for v in quiver.vertices if v not in (a.tail, a.head)}
    merged = fresh_name("+".join(parts), taken)

    def rename(v: str) -> str:
        return merged if v in (a.tail, a.head) else v

    new_vertices = dict.fromkeys(map(rename, quiver.vertices))
    new_arrows = [
        Arrow(b.id, rename(b.tail), rename(b.head))
        for b in quiver.arrows
        if b.id != arrow_id
    ]
    new_weight = {rename(v): 0 for v in quiver.vertices}
    for v in quiver.vertices:
        new_weight[rename(v)] += weight[v]
    return Quiver(new_vertices, new_arrows), new_weight


def _contractible(quiver: Quiver, flow: dict, a: Arrow) -> bool:
    """Does x(a) stay >= 0 on the relaxed region through the feasible
    `flow`?  Lowering x(a) by d means carrying d more from tail(a) to
    head(a) around a, in the residual graph of the flow; so x(a) can go
    negative exactly when more than flow(a) gets around, which at most
    flow(a) + 1 augmentations decide."""
    cap = flow[a.id] + 1
    moved = push_flow(quiver, dict(flow), {a.tail: cap}, {a.head: cap}, skip=a.id)
    return moved < cap


def is_contractible(quiver: Quiver, weight: dict, arrow_id: str) -> bool:
    """May x(a) go negative once its sign constraint is dropped (all other
    coordinates still >= 0, divergence fixed)?  If not, contracting a is an
    equivalence.

    Dropping x(a) >= 0 and eliminating x(a) identifies the relaxed region
    with the polyhedron of the contracted pair.  An empty relaxed region
    passes trivially; on an empty polyhedron every point of the relaxed
    region has x(a) < 0."""
    a = quiver.arrow(arrow_id)
    if a.is_loop():
        raise LoopArrow(f"arrow {arrow_id!r} is a loop")
    flow = feasible_flow(quiver, weight)
    if flow is None:
        return feasible_flow(*contract(quiver, weight, arrow_id)) is None
    return _contractible(quiver, flow, a)


# -- tightening ------------------------------------------------------------


def tighten(quiver: Quiver, weight: dict) -> tuple[Quiver, dict, ReductionTrace]:
    """Remove/contract until no arrow is removable or contractible.

    Deterministic move order: every arrow off the support is removed, in id
    order, then every contractible non-loop arrow is contracted, in id
    order.  One flow is carried across the moves.  The result is a tight
    pair with the same polyhedron up to integral-affine equivalence.

    One pass of each kind is enough.  A removal leaves the polyhedron, and
    so the support, unchanged.  A contraction drops the redundant x(a) >= 0,
    which only enlarges every other arrow's relaxed region, so an arrow
    passed over stays non-contractible.  The moves are those of a scan that
    restarts after every move."""
    flow = _nonempty_flow(quiver, weight, "cannot tighten an empty polyhedron")
    support = flow_support(quiver, flow)
    trace = ReductionTrace()
    for aid in quiver.sorted_arrow_ids():
        if aid not in support:
            # a removed arrow carries 0, so `flow` stays feasible
            del flow[aid]
            quiver = quiver.without_arrow(aid)
            trace.moves.append(Move("remove", aid, quiver, dict(weight)))
    for aid in quiver.sorted_arrow_ids():
        a = quiver.arrow(aid)
        if not a.is_loop() and _contractible(quiver, flow, a):
            # a contraction keeps the divergence of every other arrow's ends
            del flow[aid]
            quiver, weight = contract(quiver, weight, aid)
            trace.moves.append(Move("contract", aid, quiver, dict(weight)))
    return quiver, weight, trace


def is_tight(quiver: Quiver, weight: dict) -> bool:
    """No removable and no contractible arrow: the support is every arrow,
    and no non-loop arrow is contractible."""
    flow = _nonempty_flow(
        quiver, weight, "tightness undefined for an empty polyhedron"
    )
    return len(flow_support(quiver, flow)) == len(quiver.arrows) and not any(
        not a.is_loop() and _contractible(quiver, flow, a) for a in quiver.arrows
    )


# -- reflection --------------------------------------------------------------


def reflect(quiver: Quiver, weight: dict, vertex_id: str) -> tuple[Quiver, dict]:
    """Reverse the two arrows at a valency-2 sink or source.

    The weight moves with it: the reflected vertex gets -theta(v) and each
    reversed arrow adds theta(v) at its other endpoint (twice if both
    arrows lead to the same neighbor).  Arrow ids are kept, making the
    reflection an involution on the nose; flows correspond by swapping the
    two reversed coordinates."""
    if not quiver.has_vertex(vertex_id):
        raise InputError(f"unknown vertex id {vertex_id!r}")
    check_weight(quiver, weight)
    ins = quiver.in_arrows(vertex_id)
    outs = quiver.out_arrows(vertex_id)
    if len(ins) == 2 and len(outs) == 0:
        pair = ins
    elif len(outs) == 2 and len(ins) == 0:
        pair = outs
    else:
        raise WrongValencyPattern(
            f"vertex {vertex_id!r} is not a valency-2 sink or source",
            in_arrows=len(ins),
            out_arrows=len(outs),
        )
    flip = {a.id for a in pair}
    new_arrows = [
        Arrow(a.id, a.head, a.tail) if a.id in flip else a for a in quiver.arrows
    ]
    new_weight = dict(weight)
    for a in pair:
        other = a.tail if a.head == vertex_id else a.head
        new_weight[other] += weight[vertex_id]
    new_weight[vertex_id] = -weight[vertex_id]
    return Quiver(quiver.vertices, new_arrows), new_weight


# -- prime decomposition -----------------------------------------------------


def _blocks(quiver: Quiver) -> list[tuple[frozenset, list[Arrow]]]:
    """Blocks of the underlying multigraph: maximal 2-vertex-connected
    pieces, bridges as 2-vertex blocks, and each loop as its own block.

    Hopcroft-Tarjan: one depth-first search with an explicit stack of
    (vertex, tree arrow into it, next incident index) frames, so a long
    path needs no deep recursion."""
    blocks: list[tuple[frozenset, list[Arrow]]] = []
    incident: dict = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        if a.is_loop():
            blocks.append((frozenset([a.tail]), [a]))
        else:
            incident[a.tail].append(a)
            incident[a.head].append(a)

    disc: dict = {}
    low: dict = {}
    stack: list[Arrow] = []
    for root in quiver.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        frames = [[root, None, 0]]
        while frames:
            frame = frames[-1]
            v, tree_arrow, i = frame
            if i < len(incident[v]):
                frame[2] = i + 1
                a = incident[v][i]
                if a is tree_arrow:
                    continue
                w = a.head if a.tail == v else a.tail
                if w not in disc:
                    stack.append(a)
                    disc[w] = low[w] = len(disc)
                    frames.append([w, a, 0])
                elif disc[w] < disc[v]:
                    stack.append(a)
                    low[v] = min(low[v], disc[w])
                continue
            frames.pop()
            if tree_arrow is None:
                continue
            u = frames[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                block_edges = []
                while True:
                    e = stack.pop()
                    block_edges.append(e)
                    if e is tree_arrow:
                        break
                vs = frozenset([x for e in block_edges for x in (e.tail, e.head)])
                blocks.append((vs, block_edges))
    return blocks


def prime_decompose(quiver: Quiver, weight: dict) -> list[tuple[Quiver, dict]]:
    """Split into blocks; the weight of a hanging branch is folded into the
    cut vertex it hangs from, so every factor's weight sums over its own
    vertex set to the original component total.

    Isolated vertices come out as arrowless single-vertex factors.  Factors
    are ordered by smallest vertex id."""
    check_weight(quiver, weight)
    comp_of: dict = {}
    comps = components(quiver)
    for comp in comps:
        for v in comp:
            comp_of[v] = comp

    blocks = _blocks(quiver)
    covered = {v for vs, _ in blocks for v in vs}
    factors: list[tuple[Quiver, dict]] = []

    for v in quiver.vertices:
        if v not in covered and quiver.valency(v) == 0:
            factors.append((Quiver([v], []), {v: weight[v]}))

    for vs, arrows in blocks:
        comp = comp_of[min(vs)]
        factor_weight = {}
        for v in sorted(vs):
            theta_v = weight[v]
            # vertices separated from this block by v contribute there
            rest = [u for u in comp if u != v]
            sub = quiver.induced_on_vertices(rest)
            for piece in components(sub):
                if piece & (vs - {v}):
                    continue
                theta_v += sum(weight[u] for u in piece)
            factor_weight[v] = theta_v
        factors.append(
            (Quiver(sorted(vs), sorted(arrows, key=lambda a: a.id)), factor_weight)
        )

    factors.sort(key=lambda f: (min(f[0].vertices), f[0].sorted_arrow_ids()))
    return factors


def is_prime(quiver: Quiver) -> bool:
    """One block covering the whole quiver (a single vertex with no arrows
    counts as prime; a vertex with two loops does not, each loop being its
    own block)."""
    if not quiver.vertices:
        return False
    if len(components(quiver)) != 1:
        return False
    if len(quiver.vertices) == 1 and not quiver.arrows:
        return True
    blocks = _blocks(quiver)
    return len(blocks) == 1 and blocks[0][0] == frozenset(quiver.vertices)


# -- skeleton ----------------------------------------------------------------


def skeleton(quiver: Quiver) -> Multigraph:
    """Forget orientations and suppress valency-2 vertices: the vertices of
    the skeleton are those of valency >= 3, with one edge per maximal
    undirected path running through valency-2 vertices (loops allowed)."""
    for v in quiver.vertices:
        if quiver.valency(v) < 2:
            raise ValencyTooLow(f"vertex {v!r} has valency {quiver.valency(v)}")
    if not is_prime(quiver):
        raise NotPrime("skeleton is defined for prime quivers")
    if euler_characteristic(quiver) < 2:
        raise UnsupportedCase("skeleton needs euler characteristic >= 2")

    hubs = [v for v in quiver.vertices if quiver.valency(v) >= 3]
    incident: dict = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        incident[a.tail].append(a)
        if not a.is_loop():
            incident[a.head].append(a)

    used: set = set()
    edges = []
    for v in sorted(hubs):
        for a in sorted(incident[v], key=lambda a: a.id):
            if a.id in used:
                continue
            used.add(a.id)
            if a.is_loop():
                edges.append((v, v))
                continue
            prev = a
            cur = a.head if a.tail == v else a.tail
            while quiver.valency(cur) == 2:
                nxt = None
                for b in incident[cur]:
                    if b.id != prev.id:
                        nxt = b
                        break
                if nxt is None:
                    raise UnsupportedCase(
                        f"degenerate valency-2 vertex {cur!r} on a loop"
                    )
                used.add(nxt.id)
                prev = nxt
                cur = nxt.head if nxt.tail == cur else nxt.tail
            edges.append((v, cur))
    return Multigraph(sorted(hubs), edges)


# -- normal form on sink-subdivided skeletons ---------------------------------


def in_rd_form(quiver: Quiver) -> bool:
    """The shape conditions of the normal form: no arrow joins two
    valency-2 vertices, and every valency-2 vertex is a sink."""
    for v in quiver.vertices:
        if quiver.valency(v) == 2 and quiver.outdegree(v) != 0:
            return False
    for a in quiver.arrows:
        if (
            not a.is_loop()
            and quiver.valency(a.tail) == 2
            and quiver.valency(a.head) == 2
        ):
            return False
    return True


def normalize_to_Rd(quiver: Quiver, weight: dict) -> tuple[Quiver, dict, ReductionTrace]:
    """Drive a tight prime pair into the normal form where every valency-2
    vertex is a sink and no arrow joins two valency-2 vertices.

    The only moves are reflections, at the valency-2 source of smallest
    id.  A reflection swaps two coordinates, and that swap maps the affine
    space {div x = theta}, the polyhedron and every relaxed region onto
    their counterparts, so removability and contractibility carry over and
    the pair stays tight.  A tight pair has no flow-through valency-2
    vertex (one of its two arrows would be contractible), so a reflection
    makes no neighbour a valency-2 source, unless the quiver is two
    vertices joined by two arrows, which euler characteristic >= 2 rules
    out.  Each reflection thus lowers the valency-2 source count, and the
    loop terminates."""
    check_weight(quiver, weight)
    if not is_prime(quiver):
        raise NotPrime("normal form needs a prime quiver")
    if not is_tight(quiver, weight):
        raise NotTight("normal form needs a tight input pair")
    if euler_characteristic(quiver) < 2:
        raise UnsupportedCase("normal form needs euler characteristic >= 2")

    trace = ReductionTrace()
    while True:
        source = None
        for v in sorted(quiver.vertices):
            if quiver.valency(v) == 2 and quiver.outdegree(v) == 2:
                source = v
                break
        if source is None:
            break
        quiver, weight = reflect(quiver, weight, source)
        trace.moves.append(Move("reflect", source, quiver, dict(weight)))
    if not in_rd_form(quiver):
        raise UnsupportedCase(
            "normal-form loop stalled before reaching the target shape"
        )
    return quiver, weight, trace


# -- doubling ----------------------------------------------------------------


def double_quiver(quiver: Quiver, weight: dict, d: int) -> tuple[Quiver, dict]:
    """Bipartite double: each vertex v splits into v- (weight -d) and v+
    (weight theta(v)+d); each arrow a: v->w is rerouted v- -> w+; an extra
    arrow e_v: v- -> v+ is added per vertex."""
    check_weight(quiver, weight)
    if not isinstance(d, int) or d < 1:
        raise InputError("doubling parameter d must be a positive integer")
    minus = {v: v + "-" for v in quiver.vertices}
    plus = {v: v + "+" for v in quiver.vertices}
    new_vertices = []
    for v in quiver.vertices:
        new_vertices.append(minus[v])
        new_vertices.append(plus[v])
    arrow_ids = {a.id for a in quiver.arrows}
    new_arrows = [Arrow(a.id, minus[a.tail], plus[a.head]) for a in quiver.arrows]
    for v in quiver.vertices:
        new_arrows.append(Arrow(fresh_name("e_" + v, arrow_ids), minus[v], plus[v]))
    new_weight = {}
    for v in quiver.vertices:
        new_weight[minus[v]] = -d
        new_weight[plus[v]] = weight[v] + d
    return Quiver(new_vertices, new_arrows), new_weight


# -- localization at a polyhedron vertex ---------------------------------------


def vertex_localization(quiver: Quiver, weight: dict, m: dict) -> Quiver:
    """Contract the support of a polyhedron vertex m; the resulting quiver
    carries the zero weight (its cone is the local model at m)."""
    check_weight(quiver, weight)
    for a in quiver.arrows:
        if a.id not in m:
            raise InputError(f"flow missing arrow {a.id!r}")
        if not isinstance(m[a.id], int) or m[a.id] < 0:
            raise NotAVertex(f"flow value at {a.id!r} is not a non-negative integer")
    div = divergence(quiver, m)
    if any(div[v] != weight[v] for v in quiver.vertices):
        raise NotAVertex("flow does not have divergence theta")

    supp = [a for a in quiver.arrows if m[a.id] > 0]
    # support components must be stable trees
    supp_quiver = quiver.restricted_to_arrows([a.id for a in supp])
    for comp in components(supp_quiver):
        sub_arrows = [a for a in supp if a.tail in comp]
        if len(sub_arrows) != len(comp) - 1:
            raise NotAVertex("support component is not a tree")
        sub = Quiver(sorted(comp), sub_arrows)
        if not is_theta_stable(sub, {v: weight[v] for v in comp}):
            raise NotAVertex("support component is not stable")

    q, w = quiver, dict(weight)
    for aid in sorted(a.id for a in supp):
        q, w = contract(q, w, aid)
    if any(w[v] != 0 for v in q.vertices):
        raise AssertionError("localization weight failed to vanish")
    return q
