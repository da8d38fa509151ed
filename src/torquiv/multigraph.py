"""Undirected multigraphs and canonical labeling.

Loops and parallel edges are first-class.  A multigraph is stored as a
vertex tuple plus a tuple of normalized edge pairs (u, v) with u <= v;
parallel edges appear as repeated pairs and a loop is (v, v).

Canonical forms: vertices are first partitioned by iterated degree
refinement (an isomorphism invariant), then one level search (`_search`)
minimizes the adjacency encoding over the orderings compatible with the
partition, holding the tied states as ordered partitions into cells of
interchangeable vertices (after McKay and Piperno, "Practical graph
isomorphism II", J. Symbolic Comput. 2014).  The minimizing orderings,
composed with the twin swaps, give the automorphism group.  The tests check
the keys against brute force, the depth-first minimization and the prefix
search without cells.

The key is exponential by its definition: a vertex's block is all zero
exactly when it has no loop and no arc to the vertices before it, so the
key opens with as many zero blocks as the independence number of a
loopless first color class, NP-hard already on cubic graphs.  On large
regular graphs the search cap stays the answer.
"""

from __future__ import annotations

from itertools import permutations

from .errors import SearchCapExceeded
from .polytope import DEFAULT_MAX_NODES


class Multigraph:
    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex")
        norm = []
        vset = set(self.vertices)
        for u, v in edges:
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u!r},{v!r}) off the vertex set")
            norm.append((u, v) if u <= v else (v, u))
        self.edges = tuple(sorted(norm))

    def degree(self, v) -> int:
        d = 0
        for u, w in self.edges:
            if u == v:
                d += 1
            if w == v:
                d += 1
        return d

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):  # pragma: no cover
        return f"Multigraph({len(self.vertices)}v, {len(self.edges)}e)"


def _refine_colors(n: int, colors: list, neighbor_data) -> list:
    """Iterated color refinement; neighbor_data(i, colors) must return a
    hashable, permutation-invariant signature of vertex i.  A discrete
    coloring is returned at once, as a further round would keep it."""
    while True:
        sigs = [(colors[i], neighbor_data(i, colors)) for i in range(n)]
        rank = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors or len(rank) == n:
            return new
        colors = new


def _neighbors(mult: list) -> list:
    """(j, multiplicity) for the nonzero off-diagonal entries of each row."""
    return [[(j, m) for j, m in enumerate(row) if m and j != i] for i, row in enumerate(mult)]


def _twins(mult: list, classes: list) -> list:
    """The lowest twin of every vertex: u and v are twins when they share a
    color class and swapping them maps the multiplicity matrix onto itself.
    Transpositions that are automorphisms compose to automorphisms, so
    twinship is an equivalence and each vertex is compared with the lowest
    member of every earlier class only."""
    n = len(mult)
    twin = list(range(n))
    for members in classes:
        for i, v in enumerate(members):
            row_v = mult[v]
            for u in members[:i]:
                if twin[u] != u:
                    continue
                row_u = mult[u]
                if row_u[u] != row_v[v] or row_u[v] != row_v[u]:
                    continue
                if all(
                    row_u[w] == row_v[w] and mult[w][u] == mult[w][v]
                    for w in range(n)
                    if w != u and w != v
                ):
                    twin[v] = u
                    break
    return twin


def _color_classes(colors: list) -> list:
    """The vertices of each color, in increasing color order."""
    classes: dict = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    return [classes[c] for c in sorted(classes)]


def _search(mult: list, entries, colors: list, extend) -> tuple:
    """(encoding, minimizing orderings, twins) for the refined colors: the
    least encoding over the orderings that list the color classes in
    increasing color order.  extend(prefix, v) is v's block after prefix:
    sections of one entry per prefix vertex, then v's loop count, with 0
    for no arc; entries(v)[u] sorts as v's (row, column) entries to u.  Every
    prefix can be completed, so each level keeps every state that ties for
    the least block.

    A state is an ordered partition of the placed vertices into sorted
    cells: its flat ordering and the (start, stop) of the cells that may
    still split (two or more members, not all twins).  Members of a cell
    have no arc between them and equal entries to every other placed
    vertex, so a candidate sorts those cells by its (row, column) entries
    for its least block, and the cells are then cut between entries.  In a
    class of three or more (in smaller ones a cell costs more to split than
    the order it saves), v joins the last cell when it has no arc to it and
    the cell's entries before it: when its block is the previous least
    block with a 0 added to each section.  So one test decides for every
    tied state, all last cells start at the last opening, and equal states
    merge.  A twin of a candidate tried in a state is skipped, and the
    members of a final cell are twins, so the first ordering of each final
    state with the twin swaps gives every minimizing ordering.

    The evaluations are checked against DEFAULT_MAX_NODES after each state,
    so SearchCapExceeded comes at most n past it.  A discrete coloring is
    encoded directly: the level loop costs a fifth more on those keys."""
    n = len(mult)
    if len(set(colors)) == n:
        order = sorted(range(n), key=colors.__getitem__)
        encoding = []
        for k, v in enumerate(order):
            encoding.extend(extend(order[:k], v))
        return tuple(encoding), [tuple(order)], list(range(n))
    classes = _color_classes(colors)
    twin = _twins(mult, classes)
    # the class each position of an ordering draws from
    slots = [members for members in classes for _ in members]
    budget = DEFAULT_MAX_NODES
    encoding = []
    states = [((), ())]
    start = spent = 0  # the last cell begins at position start in every state
    for k in range(n):
        best = None
        coarse = False
        for order, wide in states:
            tried = set()
            for v in slots[k]:
                if v in order or twin[v] in tried:
                    continue
                tried.add(twin[v])
                placed = order
                if wide:
                    coarse, placed, key = True, list(order), entries(v).__getitem__
                    for a, b in wide:
                        placed[a:b] = sorted(order[a:b], key=key)
                    placed = tuple(placed)
                block = extend(placed, v)
                if best is None or block < best:
                    best = block
                    tied = [(placed + (v,), wide)]
                elif block == best:
                    tied.append((placed + (v,), wide))
            spent += len(tried)
            if spent > budget:
                raise SearchCapExceeded(
                    f"canonical search exceeded {budget} block evaluations",
                    search="canonical_key",
                    level=k + 1,
                    max_nodes=budget,
                )
        encoding.extend(best)
        joins = False
        if k and slots[k] is slots[k - 1] and len(slots[k]) > 2:
            # the previous least block with a zero towards the vertex placed last
            sections, m = (len(best) - 1) // k, k - 1
            joining = sum((last[i * m : i * m + m] + (0,) for i in range(sections)), ())
            joins = best == joining + last[sections * m :]
        last = best
        if joins:
            states = []
            for order, wide in tied:
                cell = sorted(order[start:])
                if wide and wide[-1][0] == start:
                    wide = wide[:-1]
                if any(twin[u] != twin[cell[0]] for u in cell):
                    wide += ((start, k + 1),)
                states.append((order[:start] + tuple(cell), wide))
            states = list(dict.fromkeys(states))
        elif coarse:
            start, states = k, []
            for order, wide in tied:
                if wide:
                    wide = _split_cells(order, wide, entries(order[-1]).__getitem__, twin)
                states.append((order, wide))
            states = list(dict.fromkeys(states))
        else:
            start, states = k, tied
    return tuple(encoding), [order for order, _ in states], twin


def _split_cells(split, wide: tuple, key, twin: list) -> tuple:
    """The cells that may still split when every cell of wide, sorted by key
    in split, is cut between members of different keys: those of two or
    more members that are not all twins."""
    cells = []
    for a, b in wide:
        run = a
        for i in range(a + 1, b + 1):
            if i == b or key(split[i]) != key(split[run]):
                if any(twin[u] != twin[split[run]] for u in split[run + 1 : i]):
                    cells.append((run, i))
                run = i
    return tuple(cells)


def _undirected_search(graph: Multigraph) -> tuple:
    """(encoding, minimizing orderings, twins) of a multigraph, in vertex
    indices of graph.vertices."""
    n = len(graph.vertices)
    mult = [[0] * n for _ in range(n)]
    index = {v: i for i, v in enumerate(graph.vertices)}
    for u, v in graph.edges:
        i, j = index[u], index[v]
        mult[i][j] += 1
        if i != j:
            mult[j][i] += 1

    static = [(sum(row), row[i]) for i, row in enumerate(mult)]
    near = _neighbors(mult)
    colors = _refine_colors(
        n,
        [0] * n,
        lambda i, cols: static[i] + (tuple(sorted([(cols[j], m) for j, m in near[i]])),),
    )

    def extend(prefix, v: int) -> tuple:
        row = mult[v]
        return (*map(row.__getitem__, prefix), row[v])

    return _search(mult, mult.__getitem__, colors, extend)


def canonical_key(graph: Multigraph) -> tuple:
    """Canonical form of a multigraph: (n,) followed by the minimized
    adjacency encoding, where vertex k contributes its multiplicities
    towards the previously listed vertices and then its loop count.

    The key is exponential by its definition (its leading zero blocks count
    the independence number of the first color class), so a large regular
    graph can end in SearchCapExceeded; the lists' skeletons, of at most 8
    vertices, are far below that."""
    if not graph.vertices:
        return (0,)
    return (len(graph.vertices),) + _undirected_search(graph)[0]


def automorphisms(graph: Multigraph) -> list[tuple]:
    """All vertex automorphisms of a multigraph, sorted, each as a tuple p
    with p[i] the index of the image of graph.vertices[i] (the identity
    comes first).  Every automorphism is a product of twin swaps after the
    map from the first minimizing ordering of the canonical search onto
    another one.  The search is not shown to reach each automorphism once
    only, so duplicates are dropped."""
    if not graph.vertices:
        return [()]
    _, orderings, twin = _undirected_search(graph)
    base = orderings[0]
    found = []
    for order in orderings:
        perm = [0] * len(base)
        for i, j in zip(base, order):
            perm[i] = j
        found.append(perm)
    for members in _color_classes(twin):
        if len(members) < 2:
            continue
        swaps = []
        for image in permutations(members):
            swap = list(range(len(twin)))
            for v, w in zip(members, image):
                swap[v] = w
            swaps.append(swap)
        found = [[swap[p] for p in perm] for perm in found for swap in swaps]
    return sorted({tuple(perm) for perm in found})


def from_canonical_key(key: tuple) -> Multigraph:
    """Rebuild a multigraph (on vertices "0".."n-1") from a canonical key."""
    n = key[0]
    flat = key[1:]
    verts = [str(i) for i in range(n)]
    edges = []
    pos = 0
    for k in range(n):
        for i in range(k):
            edges.extend([(verts[i], verts[k])] * flat[pos])
            pos += 1
        edges.extend([(verts[k], verts[k])] * flat[pos])
        pos += 1
    return Multigraph(verts, edges)


def are_isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    return canonical_key(g1) == canonical_key(g2)


def directed_canonical_key(vertices, arcs) -> tuple:
    """Canonical form of a directed multigraph, given as a vertex list and
    (tail, head) pairs; loops are diagonal entries and parallel arcs are
    repeated pairs.  Two directed multigraphs are isomorphic exactly when
    their keys agree; arc labels play no role.

    The encoding lists, for each vertex in the minimizing order, its arc
    multiplicities towards the previously listed vertices, then from them,
    then its loop count.  Like canonical_key, it is exponential by its
    definition, so a large regular digraph can end in SearchCapExceeded."""
    verts = list(vertices)
    n = len(verts)
    if len(set(verts)) != n:
        raise ValueError("duplicate vertex")
    if n == 0:
        return (0,)
    index = {v: i for i, v in enumerate(verts)}
    mult = [[0] * n for _ in range(n)]
    for tail, head in arcs:
        if tail not in index or head not in index:
            raise ValueError(f"arc ({tail!r},{head!r}) off the vertex set")
        mult[index[tail]][index[head]] += 1

    transposed = [list(col) for col in zip(*mult)]
    static = [(sum(row), sum(col), row[i]) for i, (row, col) in enumerate(zip(mult, transposed))]
    near_out, near_in = _neighbors(mult), _neighbors(transposed)
    colors = _refine_colors(
        n,
        [0] * n,
        lambda i, cols: static[i]
        + (
            tuple(sorted([(cols[j], m) for j, m in near_out[i]])),
            tuple(sorted([(cols[j], m) for j, m in near_in[i]])),
        ),
    )

    def extend(prefix, v: int) -> tuple:
        row, col = mult[v], transposed[v]
        return (*map(row.__getitem__, prefix), *map(col.__getitem__, prefix), row[v])

    return (n,) + _search(mult, lambda v: list(zip(mult[v], transposed[v])), colors, extend)[0]
