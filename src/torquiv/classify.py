"""Finite classification machinery.

Four interlocking pieces:

* enumeration of the loopless 2-vertex-connected multigraphs with all
  valencies >= 3 and a given cycle rank, grown from those of one rank
  less by one-edge moves, and of the contraction-maximal ones among them,
  which are exactly the 3-regular ones and grow by the last move alone;
* enumeration of the acyclic quivers built on those graphs by orienting
  edges or subdividing them with sinks, one choice tuple per orbit of the
  graph's automorphisms, and of the strongly connected quivers that stay
  strongly connected after deleting any single arrow (the zero-weight
  side), from arrow-count compositions pruned by in- and outdegree, one
  per orbit of the vertex permutations; both lists hold one
  representative per quiver isomorphism class;
* the normal fan of a 2-dimensional pair in spanning-forest coordinates,
  and the identification of its toric surface by ray count, double-checked
  by a lattice-automorphism match against hard-coded reference fans;
* a hub-splitting realization that moves any tight normal-form pair onto a
  quiver with 3-regular skeleton while preserving the polytope's lattice
  counts in every dilation degree.

Everything is exact integer arithmetic; enumerations are capped at cycle
rank 5, where the search spaces are still desk-sized, and the acyclic
quiver list at rank 4, as its rank-5 list would not fit in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd

from .errors import (
    EmptyPolyhedron,
    InputError,
    NotInRd,
    NotTight,
    UnsupportedCase,
    WrongDimension,
)
from .multigraph import (
    Multigraph,
    automorphisms,
    canonical_key,
    directed_canonical_key,
    from_canonical_key,
)
from .polytope import DEFAULT_MAX_NODES, support_dimension, vertices
from .quiver import (
    Arrow,
    Quiver,
    check_weight,
    euler_characteristic,
    feasible_flow,
    flow_support,
    fresh_name,
    is_acyclic,
    strongly_connected_components,
)
from .reductions import in_rd_form, is_prime, is_tight, skeleton, tighten

MAX_RANK = 5


def _check_rank(d, low: int, high: int = MAX_RANK) -> None:
    if not isinstance(d, int) or isinstance(d, bool):
        raise InputError("the cycle rank d must be an integer")
    if d < low or d > high:
        raise InputError(f"the cycle rank d must lie between {low} and {high}")


# -- skeleton graph lists ------------------------------------------------------


def _augmentations(graph: Multigraph, cubic: bool):
    """(vertex count, edge list) of each graph one edge move away from the
    graph, on vertices 0..n-1 and the new vertices n and n+1: (a) an edge
    between two distinct vertices; (b) an edge subdivided by n, which is
    then joined to any old vertex; (c) two edges subdivided by n and n+1,
    or one edge subdivided twice, and n joined to n+1.  Parallel copies of
    an edge are interchangeable, so each class is taken once, and twice in
    (c) when it has two copies.  With cubic only (c) is made."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    edges = [(index[u], index[v]) for u, v in graph.edges]
    n = len(graph.vertices)
    classes = sorted(set(edges))
    if not cubic:
        for pair in combinations(range(n), 2):
            yield n, edges + [pair]
    for k, (u, v) in enumerate(classes):
        rest = list(edges)
        rest.remove((u, v))
        if not cubic:
            for x in range(n):
                yield n + 1, rest + [(u, n), (v, n), (x, n)]
        yield n + 2, rest + [(u, n), (n, n + 1), (n, n + 1), (n + 1, v)]
        for x, y in classes[k:]:
            if (x, y) in rest:
                both = list(rest)
                both.remove((x, y))
                yield n + 2, both + [(u, n), (v, n), (x, n + 1), (y, n + 1), (n, n + 1)]


def _skeleton_keys(d: int, cubic: bool) -> list:
    """Sorted canonical keys of the rank-d skeletons, or of the 3-regular
    ones, grown from those of rank d - 1 (see enumerate_skeletons).  An
    automorphism of the parent, with the new vertices n and n + 1 kept or
    swapped, maps a move onto a move that gives an isomorphic graph, so one
    move per orbit is keyed: the images of every keyed move's edge multiset
    are marked, and a marked move is skipped."""
    if d == 2:
        return [canonical_key(Multigraph((0, 1), [(0, 1)] * 3))]
    keys = set()
    for key in _skeleton_keys(d - 1, cubic):
        graph = from_canonical_key(key)
        n = len(graph.vertices)
        maps = [p + new for p in automorphisms(graph) for new in ((n, n + 1), (n + 1, n))]
        marked = set()
        for m, edges in _augmentations(graph, cubic):
            if _edge_bag(edges) in marked:
                continue
            keys.add(canonical_key(Multigraph(range(m), edges)))
            marked.update(_edge_bag((p[u], p[v]) for u, v in edges) for p in maps)
    return sorted(keys)


def _edge_bag(edges) -> tuple:
    return tuple(sorted((u, v) if u <= v else (v, u) for u, v in edges))


def enumerate_skeletons(d: int) -> list[Multigraph]:
    """All loopless 2-vertex-connected multigraphs with every valency >= 3
    and cycle rank d, one representative per isomorphism class, sorted by
    canonical key.  Such a graph has at most 2d-2 vertices and 3d-3 edges;
    supported for 2 <= d <= 5.

    The list grows from the theta graph (two vertices, three edges), the
    only member at d = 2, by the moves (a), (b) and (c) of _augmentations.
    Each move keeps the graph loopless and 2-connected, gives its new
    vertices valency 3 and adds one to the cycle rank.  Conversely, let G
    be a member of rank d >= 3 and take an ear decomposition of it.  Its
    last ear is a single edge e, since interior vertices of an ear would
    keep valency 2, and G - e is 2-connected.  Suppressing the ends of e
    that have valency 2 in G - e (replacing each by one edge between its
    two neighbours) gives a member H of rank d - 1.  No loop appears: it
    would come from a cycle of G - e with one vertex of valency above 2,
    a cut vertex unless G - e is that cycle, of rank 1.  G comes from H by
    (a) when no end is suppressed, by (b) when one is, and by (c) when
    both are: on two edges, on two parallel copies of one edge, or on one
    edge twice when the two ends are adjacent in G - e.

    A move and its image under an automorphism of H give isomorphic
    graphs, so of each orbit of moves only the first is keyed."""
    _check_rank(d, 2)
    return [from_canonical_key(k) for k in _skeleton_keys(d, False)]


def enumerate_maximal_skeletons(d: int) -> list[Multigraph]:
    """The members of enumerate_skeletons(d) that no other member contracts
    onto, sorted by canonical key.  These are exactly the 3-regular members
    (2d-2 vertices, 3d-3 edges), and the tests check that characterization.
    In a 3-regular member both ends of the last ear's edge are suppressed,
    giving a 3-regular member of rank d - 1, so the list grows from the
    theta graph by move (c) alone.  Supported for 2 <= d <= 5."""
    _check_rank(d, 2)
    return [from_canonical_key(k) for k in _skeleton_keys(d, True)]


# -- quivers on skeletons ------------------------------------------------------


def kronecker_quiver() -> Quiver:
    """Two vertices joined by two parallel arrows."""
    return Quiver(["u", "v"], [Arrow("a0", "u", "v"), Arrow("a1", "u", "v")])


def loop_quiver() -> Quiver:
    """One vertex carrying one loop."""
    return Quiver(["u"], [Arrow("a0", "u", "u")])


def quiver_key(quiver: Quiver) -> tuple:
    """Isomorphism-invariant canonical key of a quiver (arrow ids ignored):
    the directed_canonical_key of its vertices and arcs.  Like that key it
    is exponential by its definition, so on a large regular quiver it can
    end in SearchCapExceeded; the members of the lists are far below that."""
    return directed_canonical_key(
        quiver.sorted_vertices(), [(a.tail, a.head) for a in quiver.arrows]
    )


def build_Rd_quiver(graph: Multigraph, choices) -> Quiver:
    """Turn each edge of the graph into an arrow or into a 2-path through a
    fresh sink.  choices[k] applies to graph.edges[k]: "forward" orients the
    normalized pair (u, v) as u -> v, "backward" as v -> u, and "sink"
    replaces the edge by u -> s_k <- v.  The outcome must be acyclic."""
    choices = tuple(choices)
    if len(choices) != len(graph.edges):
        raise InputError(
            f"need one choice per edge ({len(graph.edges)}), got {len(choices)}"
        )
    bad = [c for c in choices if c not in ("forward", "backward", "sink")]
    if bad:
        raise InputError(f"unknown edge choice {bad[0]!r}")
    verts = [str(v) for v in graph.vertices]
    if len(set(verts)) != len(verts):
        raise InputError("vertex ids must stay distinct as strings")
    taken = set(verts)
    new_vertices = list(verts)
    arrows = []
    for k, ((u, v), choice) in enumerate(zip(graph.edges, choices)):
        if u == v:
            raise InputError("loops cannot be oriented or subdivided")
        su, sv = str(u), str(v)
        if choice == "forward":
            arrows.append(Arrow(f"a{k}", su, sv))
        elif choice == "backward":
            arrows.append(Arrow(f"a{k}", sv, su))
        else:
            sink = fresh_name(f"s{k}", taken)
            new_vertices.append(sink)
            arrows.append(Arrow(f"a{k}", su, sink))
            arrows.append(Arrow(f"b{k}", sv, sink))
    built = Quiver(new_vertices, arrows)
    if not is_acyclic(built):
        raise UnsupportedCase("the chosen orientations close an oriented cycle")
    return built


_CHOICES = ("forward", "backward", "sink")
_REVERSED = (1, 0, 2)  # the choice index after swapping the ends of an edge


def _is_acyclic_orientation(n: int, arcs) -> bool:
    """Do the (tail, head) index pairs on vertices 0..n-1 close no cycle?
    Sinks are peeled off until none is left."""
    succ = [0] * n
    for t, h in arcs:
        succ[t] |= 1 << h
    left = (1 << n) - 1
    while left:
        sink = next((v for v in range(n) if left >> v & 1 and not succ[v] & left), None)
        if sink is None:
            return False
        left &= ~(1 << sink)
    return True


def _orbit_minimal_choices(graph: Multigraph):
    """The per-edge choice tuples (indices into _CHOICES) that are
    lexicographically least in their orbit under the automorphisms of the
    graph, in product order.

    An automorphism moves a class of parallel edges onto another one and
    turns forward into backward when it reverses the u <= v order of the
    pair; the edges within a class are interchangeable, so a least tuple is
    non-decreasing on every class."""
    classes = sorted(set(graph.edges))
    where = {pair: i for i, pair in enumerate(classes)}
    sizes = [graph.edges.count(pair) for pair in classes]
    verts = graph.vertices
    index = {v: i for i, v in enumerate(verts)}
    moves: dict = {}
    for perm in automorphisms(graph):
        # move[j] = (i, flip): class i lands on class j, reversed if flip
        move = [None] * len(classes)
        for i, (u, v) in enumerate(classes):
            a, b = verts[perm[index[u]]], verts[perm[index[v]]]
            move[where[(a, b) if a <= b else (b, a)]] = (i, a > b)
        moves[tuple(move)] = None
    moves.pop(tuple((i, False) for i in range(len(classes))))
    for choice in product(*(combinations_with_replacement(range(3), s) for s in sizes)):
        if not any(_image_below(choice, move) for move in moves):
            yield sum(choice, ())


def _image_below(choice: tuple, move: tuple) -> bool:
    """Is the image of the per-class choice tuple under the move
    lexicographically smaller than the tuple itself?"""
    for mine, (i, flip) in zip(choice, move):
        image = tuple(sorted(_REVERSED[c] for c in choice[i])) if flip else choice[i]
        if image != mine:
            return image < mine
    return False


def enumerate_Rd(d: int) -> list[Quiver]:
    """Acyclic quivers built on the cycle-rank-d skeletons by per-edge
    orientation/sink choices, one representative per isomorphism class,
    sorted by canonical key.  Two choice tuples on one skeleton give
    isomorphic quivers exactly when an automorphism of the skeleton moves
    one onto the other, and different skeletons give different quivers, so
    each skeleton contributes the least tuple of every orbit whose
    orientation is acyclic.  Each such tuple is keyed from its arcs on
    vertex indices, and only a tuple with a new key is built into a quiver.
    d = 1 is the special one-element case of the two-arrow quiver.

    Supported for 1 <= d <= 4.  Rank 5 is refused at once: its 118
    skeletons would give an estimated 1.4 million members, some 7-10 GB at
    the 5.5 KB that a rank-4 member holds."""
    _check_rank(d, 1, 4)
    if d == 1:
        return [kronecker_quiver()]
    found: dict = {}
    for graph in enumerate_skeletons(d):
        n = len(graph.vertices)
        index = {v: i for i, v in enumerate(graph.vertices)}
        ends = [(index[u], index[v]) for u, v in graph.edges]
        for choice in _orbit_minimal_choices(graph):
            arcs = [e if c == 0 else e[::-1] for e, c in zip(ends, choice) if c != 2]
            if not _is_acyclic_orientation(n, arcs):
                continue
            subdivided = [e for e, c in zip(ends, choice) if c == 2]
            for s, (u, v) in enumerate(subdivided, n):
                arcs += [(u, s), (v, s)]
            key = directed_canonical_key(range(n + len(subdivided)), arcs)
            if key not in found:
                found[key] = build_Rd_quiver(graph, [_CHOICES[c] for c in choice])
    return [found[k] for k in sorted(found)]


# -- the zero-weight lists -----------------------------------------------------


def _all_components_strong(quiver: Quiver) -> bool:
    """Every weak component is strongly connected: every arrow has both
    ends in one strong component."""
    comp = {v: i for i, c in enumerate(strongly_connected_components(quiver)) for v in c}
    return all(comp[a.tail] == comp[a.head] for a in quiver.arrows)


def _strong_everywhere(quiver: Quiver) -> bool:
    """Every component of the quiver, and of the quiver minus any single
    arrow, is strongly connected.  Deleting one of several parallel arrows
    leaves the support, and so the components and their strong
    connectivity, unchanged: only arrows alone on their (tail, head) pair
    are deleted."""
    if not _all_components_strong(quiver):
        return False
    ends: dict = {}
    for a in quiver.arrows:
        ends.setdefault((a.tail, a.head), []).append(a.id)
    return all(
        _all_components_strong(quiver.without_arrow(ids[0]))
        for ids in ends.values()
        if len(ids) == 1
    )


def _affine_compositions(n: int, e: int):
    """Arrow counts on the ordered pairs (i, j), i != j, of 0..n-1, listed
    row by row, that sum to e and give every vertex in- and outdegree >= 2,
    in lexicographic order.  A row's outdegree is checked when its last
    pair is filled, and a branch stops once fewer than two arrows are left
    for each later row, or fewer than the indegrees still lack."""
    yield from _spread(n, [0] * (n * (n - 1)), 0, e, 0, [0] * n, 2 * n)


def _spread(n: int, counts: list, p: int, left: int, row_out: int, indeg: list, need: int):
    # need is the sum over the vertices of max(0, 2 - indegree so far)
    if p == len(counts):
        yield tuple(counts)
        return
    row, col = divmod(p, n - 1)
    head = col + (col >= row)
    short = max(0, 2 - indeg[head])
    row_end = col == n - 2
    low = max(0, 2 - row_out) if row_end else 0
    if p == len(counts) - 1:
        low = max(low, left)
    for m in range(low, left - 2 * (n - 1 - row) + 1):
        lack = need - min(m, short)
        if left - m < lack:  # left - m - lack only falls as m grows
            break
        counts[p] = m
        indeg[head] += m
        yield from _spread(
            n, counts, p + 1, left - m, 0 if row_end else row_out + m, indeg, lack
        )
        indeg[head] -= m
    counts[p] = 0


def _orbit_least_compositions(n: int, e: int):
    """The members of _affine_compositions(n, e) that are lexicographically
    least among their images under the n! permutations of the vertices, in
    lexicographic order.  The image of counts under a permutation s has
    counts[(i, j)] on the pair (s(i), s(j))."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    index = {pair: q for q, pair in enumerate(pairs)}
    relabellings = []
    for perm in permutations(range(n)):
        src = [0] * len(pairs)
        for q, (i, j) in enumerate(pairs):
            src[index[perm[i], perm[j]]] = q
        relabellings.append(src)
    del relabellings[0]  # the identity
    for counts in _affine_compositions(n, e):
        if not any(tuple(map(counts.__getitem__, src)) < counts for src in relabellings):
            yield counts


def enumerate_affine_Rdd(d: int) -> list[Quiver]:
    """Prime quivers of cycle rank d such that every component of the
    quiver and of every single-arrow deletion is strongly connected, one
    representative per isomorphism class, sorted by canonical key.  Such a
    quiver has every in- and outdegree >= 2 and at most d-1 vertices, so
    only arrow-count compositions with those degrees are built, one per
    orbit of the vertex permutations; supported for 1 <= d <= 5.

    Two compositions on n vertices give isomorphic quivers exactly when a
    permutation of the vertices moves one onto the other, and the degree
    condition, primality and the strong connectivity tests are isomorphism
    invariants.  So every orbit either passes whole or fails whole, and the
    lexicographically least composition of each passing orbit (the one
    _orbit_least_compositions keeps) gives exactly one member per class,
    with no two keys alike.  It is also the first composition of its class
    in lexicographic order, the representative a scan of all compositions
    would keep."""
    _check_rank(d, 1)
    if d == 1:
        return [loop_quiver()]
    members = []
    for n in range(2, d):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        verts = [f"v{i}" for i in range(n)]
        for assignment in _orbit_least_compositions(n, n + d - 1):
            arrows = []
            for (i, j), m in zip(pairs, assignment):
                for c in range(m):
                    arrows.append(Arrow(f"a{i}_{j}_{c}", verts[i], verts[j]))
            candidate = Quiver(verts, arrows)
            if is_prime(candidate) and _strong_everywhere(candidate):
                members.append(candidate)
    return sorted(members, key=quiver_key)


# -- normal fans of 2-dimensional pairs ----------------------------------------


@dataclass(frozen=True)
class Fan2D:
    """A complete fan in the plane, held by its primitive ray vectors in
    counterclockwise order starting from the positive-x half-plane."""

    rays: tuple


REFERENCE_FANS = {
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    "Bl1P2": ((1, 0), (0, 1), (1, 1), (-1, -1)),
    "Bl2P2": ((1, 0), (-1, 0), (0, 1), (1, 1), (-1, -1)),
    "Bl3P2": ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)),
}


def _ccw_sorted(rays) -> tuple:
    def half(v) -> int:
        x, y = v
        return 0 if y > 0 or (y == 0 and x > 0) else 1

    def compare(a, b) -> int:
        ha, hb = half(a), half(b)
        if ha != hb:
            return ha - hb
        cross = a[0] * b[1] - a[1] * b[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return tuple(sorted(rays, key=cmp_to_key(compare)))


def _convex_hull(points) -> list:
    """Counterclockwise hull of integer points, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def turn(o, a, b) -> int:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _lex_min_forest(quiver: Quiver) -> set:
    """Arrow ids of the spanning forest that is lexicographically smallest
    as an id set (greedy over sorted ids; loops never qualify)."""
    parent = {v: v for v in quiver.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest: set = set()
    for aid in quiver.sorted_arrow_ids():
        a = quiver.arrow(aid)
        if a.is_loop():
            continue
        ru, rv = find(a.tail), find(a.head)
        if ru != rv:
            parent[ru] = rv
            forest.add(aid)
    return forest


def normal_fan_2d(
    quiver: Quiver, weight: dict, max_nodes: int = DEFAULT_MAX_NODES
) -> Fan2D:
    """Outward primitive edge normals of the polygon the pair cuts out.

    Emptiness, boundedness and dimension are read off one feasible flow
    and its support.  The tightened quiver is acyclic exactly when the
    support subgraph is: the removals leave exactly the support, and a
    contraction keeps every oriented cycle and creates none, since an
    arrow with another directed path from its tail to its head is never
    contractible.  Tightening keeps the dimension, so only a 2-dimensional
    pair is tightened.  The two coordinates left free by the
    lexicographically smallest spanning forest of the tightened quiver
    then give an isomorphism of the polytope's affine lattice onto the
    plane's standard lattice, so the resulting ray set is well-defined up
    to a determinant +-1 change of basis."""
    flow = feasible_flow(quiver, weight)
    if flow is None:
        raise EmptyPolyhedron("the pair cuts out an empty polyhedron")
    support = flow_support(quiver, flow)
    if not is_acyclic(quiver.restricted_to_arrows(support)):
        raise UnsupportedCase(
            "the tightened quiver keeps an oriented cycle; only bounded "
            "polyhedra have a complete normal fan"
        )
    dim = support_dimension(quiver, support)
    if dim != 2:
        raise WrongDimension(
            f"the tightened polytope has dimension {dim}, need 2", dimension=dim
        )
    tq, tw, _ = tighten(quiver, weight)
    free = [aid for aid in tq.sorted_arrow_ids() if aid not in _lex_min_forest(tq)]
    assert len(free) == 2, "a tight 2-dimensional pair leaves two free coordinates"
    f1, f2 = free
    hull = _convex_hull((x[f1], x[f2]) for x in vertices(tq, tw, max_nodes))
    assert len(hull) >= 3, "a 2-dimensional polytope has at least three corners"
    rays = []
    for i, p in enumerate(hull):
        q = hull[(i + 1) % len(hull)]
        dx, dy = q[0] - p[0], q[1] - p[1]
        g = gcd(abs(dx), abs(dy))
        rays.append((dy // g, -dx // g))
    return Fan2D(rays=_ccw_sorted(rays))


def _lattice_equivalent(rays_a, rays_b) -> bool:
    """Does an integer 2x2 matrix of determinant +-1 carry one ray set onto
    the other?"""
    set_a, set_b = set(rays_a), set(rays_b)
    if len(set_a) != len(set_b):
        return False
    ordered = sorted(set_a)
    a1 = ordered[0]
    a2 = next(
        (c for c in ordered if a1[0] * c[1] - a1[1] * c[0] != 0),
        None,
    )
    if a2 is None:
        return False
    det_a = a1[0] * a2[1] - a1[1] * a2[0]
    for b1, b2 in product(set_b, repeat=2):
        if b1 == b2:
            continue
        m00 = b1[0] * a2[1] - b2[0] * a1[1]
        m01 = -b1[0] * a2[0] + b2[0] * a1[0]
        m10 = b1[1] * a2[1] - b2[1] * a1[1]
        m11 = -b1[1] * a2[0] + b2[1] * a1[0]
        if any(x % det_a for x in (m00, m01, m10, m11)):
            continue
        m00, m01, m10, m11 = (x // det_a for x in (m00, m01, m10, m11))
        if abs(m00 * m11 - m01 * m10) != 1:
            continue
        if {(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in set_a} == set_b:
            return True
    return False


def classify_2d(quiver: Quiver, weight: dict) -> str:
    """Name the toric surface of a 2-dimensional pair: "P2", "Bl1P2",
    "Bl2P2", "Bl3P2" (the plane blown up in 1 to 3 points) or "P1xP1";
    `surface_name` of its `normal_fan_2d`."""
    return surface_name(normal_fan_2d(quiver, weight))


def surface_name(fan: Fan2D) -> str:
    """The toric surface of the normal fan of a lattice polygon.

    Decides by the ray count (4 rays split by central symmetry), then
    insists on a lattice automorphism carrying the rays onto the chosen
    reference fan; a mismatch between the two routes raises
    AssertionError."""
    n = len(fan.rays)
    if n == 3:
        name = "P2"
    elif n == 4:
        ray_set = set(fan.rays)
        symmetric = all((-x, -y) in ray_set for x, y in ray_set)
        name = "P1xP1" if symmetric else "Bl1P2"
    elif n == 5:
        name = "Bl2P2"
    elif n == 6:
        name = "Bl3P2"
    else:
        raise AssertionError(
            f"internal inconsistency: a 2-dimensional pair produced {n} facet "
            "normals; only 3 to 6 can occur"
        )
    if not _lattice_equivalent(fan.rays, REFERENCE_FANS[name]):
        raise AssertionError(
            "internal inconsistency: the ray-count classification does not "
            "match the reference fan"
        )
    return name


# -- realization on 3-regular skeletons ----------------------------------------


def _net_inflow(quiver: Quiver, arrow_ids, hub: str, flow: dict) -> int:
    total = 0
    for aid in arrow_ids:
        a = quiver.arrow(aid)
        if a.head == hub:
            total += flow[aid]
        if a.tail == hub:
            total -= flow[aid]
    return total


def _split_hub(quiver: Quiver, weight: dict, hub: str):
    """Split the valency->=4 vertex hub into two vertices joined through a
    fresh sink.  Each part keeps >= 2 of the incident arrows; the parts'
    weights are the minima of their net inflows over the polytope corners,
    which forces the two new flow values and makes the correspondence of
    lattice points a bijection in every dilation degree.  Partitions are
    scanned in a fixed order and the first prime outcome wins."""
    incident = sorted(
        a.id for a in quiver.arrows if a.tail == hub or a.head == hub
    )
    k = len(incident)
    corners = vertices(quiver, weight)
    assert corners, "a tight pair has corners"
    first, rest = incident[0], incident[1:]
    for size1 in range(2, k - 1):
        for extra in combinations(rest, size1 - 1):
            part1 = {first, *extra}
            part2 = [aid for aid in incident if aid not in part1]
            theta1 = min(_net_inflow(quiver, part1, hub, x) for x in corners)
            theta2 = min(_net_inflow(quiver, part2, hub, x) for x in corners)
            taken_v = set(quiver.vertices)
            v2 = fresh_name(hub + "'", taken_v)
            sink = fresh_name(hub + "*", taken_v)
            taken_a = {a.id for a in quiver.arrows}
            n1 = fresh_name("n_" + hub, taken_a)
            n2 = fresh_name("n_" + v2, taken_a)
            part2_set = set(part2)
            arrows = []
            for a in quiver.arrows:
                if a.id in part2_set:
                    arrows.append(
                        Arrow(
                            a.id,
                            v2 if a.tail == hub else a.tail,
                            v2 if a.head == hub else a.head,
                        )
                    )
                else:
                    arrows.append(a)
            arrows.append(Arrow(n1, hub, sink))
            arrows.append(Arrow(n2, v2, sink))
            split = Quiver(list(quiver.vertices) + [v2, sink], arrows)
            if not is_prime(split):
                continue
            new_weight = dict(weight)
            new_weight[hub] = theta1
            new_weight[v2] = theta2
            new_weight[sink] = weight[hub] - theta1 - theta2
            assert new_weight[sink] >= 0
            return split, new_weight
    raise UnsupportedCase(f"no split of vertex {hub!r} keeps the quiver prime")


def realize_Rprime(quiver: Quiver, weight: dict) -> tuple[Quiver, dict]:
    """Drive a tight normal-form pair onto a quiver whose skeleton is
    3-regular, without changing the polytope's lattice point counts in any
    dilation degree (hence neither its dimension nor facet count after
    tightening).

    Inputs must be prime, acyclic, in normal form (valency-2 vertices are
    sinks, never adjacent) and tight; a cycle-rank-1 input must be the
    two-arrow quiver and is returned unchanged.  Each round splits the
    first skeleton vertex of valency >= 4, so the total excess valency
    drops and the loop terminates."""
    check_weight(quiver, weight)
    if euler_characteristic(quiver) < 2:
        if quiver_key(quiver) != quiver_key(kronecker_quiver()):
            raise NotInRd(
                "below cycle rank 2 only the two-arrow quiver on two vertices "
                "is admissible"
            )
        if not is_tight(quiver, weight):
            raise NotTight("realization needs a tight input pair")
        return quiver, dict(weight)
    if not (is_prime(quiver) and is_acyclic(quiver) and in_rd_form(quiver)):
        raise NotInRd("realization needs a prime acyclic quiver in normal form")
    if not is_tight(quiver, weight):
        raise NotTight("realization needs a tight input pair")
    current, current_weight = quiver, dict(weight)
    while True:
        graph = skeleton(current)
        hub = next(
            (v for v in sorted(graph.vertices) if graph.degree(v) >= 4), None
        )
        if hub is None:
            return current, current_weight
        current, current_weight = _split_hub(current, current_weight, hub)
