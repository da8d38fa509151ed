"""Undirected multigraphs and canonical labeling.

Loops and parallel edges are first-class.  A multigraph is stored as a
vertex tuple plus a tuple of normalized edge pairs (u, v) with u <= v;
parallel edges appear as repeated pairs and a loop is (v, v).

Canonical forms: vertices are first partitioned by iterated degree
refinement (an isomorphism invariant), then the adjacency encoding is
minimized over the orderings compatible with the partition, one vertex
position at a time, keeping every state that ties for the least encoding
so far.  A discrete partition allows one ordering and needs no search.
Otherwise, of each class of twins (vertices whose transposition is an
automorphism) only the lowest unused one is tried, and the tied states are
held in one of two forms that minimize over the same orderings: as ordered
prefixes, or, when a color class of three or more vertices has no arc
inside it, as ordered partitions of the placed vertices into cells of
interchangeable vertices, so that the members of such a class tie as a
set rather than in all their orders (after the partition cells of McKay
and Piperno, "Practical graph isomorphism II", J. Symbolic Comput. 2014).
The orderings that reach the minimum, composed with the twin swaps, give
the automorphism group.  The test suite checks the keys against a
brute-force isomorphism oracle, the plain depth-first minimization and the
prefix search alone.
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

    def multiplicity(self, u, v) -> int:
        key = (u, v) if u <= v else (v, u)
        return sum(1 for e in self.edges if e == key)

    def loop_count(self, v) -> int:
        return self.multiplicity(v, v)

    def is_loopless(self) -> bool:
        return all(u != v for u, v in self.edges)

    def num_components(self) -> int:
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        return len({find(v) for v in self.vertices})

    def is_connected(self) -> bool:
        return len(self.vertices) <= 1 or self.num_components() == 1

    def euler_characteristic(self) -> int:
        return len(self.edges) - len(self.vertices) + self.num_components()

    def is_two_connected(self) -> bool:
        """Connected, at least two vertices, and no cut vertex.

        Parallel edges make two adjacent vertices 2-connected even without
        a third vertex, which is exactly the convention needed here."""
        if len(self.vertices) < 2 or not self.is_loopless():
            return False
        adjacent: dict = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adjacent[u].add(v)
            adjacent[v].add(u)
        for cut in (None,) + self.vertices:
            rest = [v for v in self.vertices if v != cut]
            seen = {rest[0]}
            stack = [rest[0]]
            while stack:
                for w in adjacent[stack.pop()] - seen:
                    if w != cut:
                        seen.add(w)
                        stack.append(w)
            if len(seen) < len(rest):
                return False
        return True

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


def _twins(mult: list, colors: list) -> list:
    """The lowest twin of every vertex: u and v are twins when they share a
    color and swapping them maps the multiplicity matrix onto itself.
    Transpositions that are automorphisms compose to automorphisms, so
    twinship is an equivalence and each vertex is compared with the lowest
    member of every earlier class only."""
    n = len(mult)
    twin = list(range(n))
    for v in range(1, n):
        row_v = mult[v]
        for u in range(v):
            if twin[u] != u or colors[u] != colors[v]:
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


def _color_classes(colors: list) -> dict:
    classes: dict = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    return classes


def _slots(colors: list) -> list:
    """The color class each position of an ordering draws from: the classes
    in increasing color order, each repeated once per member."""
    classes = _color_classes(colors)
    slots: list = []
    for c in sorted(classes):
        slots.extend([classes[c]] * len(classes[c]))
    return slots


def _charge(spent: int, level: int) -> None:
    budget = DEFAULT_MAX_NODES
    if spent > budget:
        raise SearchCapExceeded(
            f"canonical search exceeded {budget} block evaluations",
            search="canonical_key",
            level=level,
            max_nodes=budget,
        )


def _min_encoding(n: int, colors: list, twin: list, extend) -> tuple:
    """Minimum concatenated encoding over the orderings that list the color
    classes in increasing color order, with the orderings that reach it,
    by the prefix search: the one for colorings whose classes of three or
    more vertices each carry an arc, where few orderings tie.

    extend(prefix, v) must return the block of encoding entries contributed
    by appending vertex v after the vertices in prefix, of a length that
    depends on len(prefix) only.  Every prefix can be completed, so the
    least encoding has the least block at every position: the search keeps
    all tied prefixes position by position.  A twin of a vertex already
    tried at a prefix is skipped, as swapping the two is an automorphism
    that fixes the prefix.

    The block evaluations are added up prefix by prefix and checked against
    DEFAULT_MAX_NODES after each prefix; over it, SearchCapExceeded is
    raised at once, at most n evaluations past the budget."""
    slots = _slots(colors)
    encoding: list = []
    tied = [()]
    spent = 0
    for k in range(n):
        best = None
        grown = []
        for prefix in tied:
            tried = set()
            for v in slots[k]:
                if v in prefix or twin[v] in tried:
                    continue
                tried.add(twin[v])
                block = extend(prefix, v)
                if best is None or block < best:
                    best = block
                    grown = [prefix + (v,)]
                elif block == best:
                    grown.append(prefix + (v,))
            spent += len(tried)
            _charge(spent, k + 1)
        encoding.extend(best)
        tied = grown
    return tuple(encoding), tied


def _cell_encoding(mult: list, colors: list, twin: list, extend) -> tuple:
    """The minimum of _min_encoding over the same orderings, with each tied
    state held as an ordered partition of the placed vertices into cells
    rather than as one prefix.  mult is the multiplicity matrix that extend
    reads.

    Every ordering that lists the cells in turn, each in any order, has the
    state's encoding, because the entries between two placed vertices
    depend on their cells only and no arc joins two members of a cell.  A
    candidate v therefore gets its least block from the prefix that sorts
    every cell by v's (row, column) entries, and the orderings that reach
    that block are those of the state with every cell split by the entries.
    v joins the last cell when it has the cell's color, no arc to or from
    it, and the entries of the cell's members towards every vertex placed
    before the cell; otherwise it opens a new cell.  Equal states merge, so
    the members of an arc-free color class tie as sets of placed vertices
    rather than in all their orders.  Twins are skipped as in _min_encoding,
    and the members of a final cell are twins, so the first ordering of
    each final state, composed with the twin swaps, gives every minimizing
    ordering.  The budget is charged as in _min_encoding."""
    n = len(mult)
    transposed = [list(col) for col in zip(*mult)]
    slots = _slots(colors)
    encoding: list = []
    states = [()]
    spent = 0
    for k in range(n):
        best = None
        grown: dict = {}
        for cells in states:
            last = cells[-1] if cells else ()
            earlier = [u for cell in cells[:-1] for u in cell]
            placed = set(earlier).union(last)
            tried = set()
            for v in slots[k]:
                if v in placed or twin[v] in tried:
                    continue
                tried.add(twin[v])
                row, col = mult[v], transposed[v]
                split = []
                for cell in cells:
                    groups: dict = {}
                    for u in cell:
                        groups.setdefault((row[u], col[u]), []).append(u)
                    split.extend(tuple(groups[e]) for e in sorted(groups))
                block = extend([u for part in split for u in part], v)
                if best is not None and block > best:
                    continue
                if best is None or block < best:
                    best = block
                    grown = {}
                if (
                    last
                    and colors[last[0]] == colors[v]
                    and not any(row[u] or col[u] for u in last)
                    and all(
                        row[u] == mult[last[0]][u] and col[u] == transposed[last[0]][u]
                        for u in earlier
                    )
                ):
                    grown[cells[:-1] + (tuple(sorted(last + (v,))),)] = None
                else:
                    grown[tuple(split) + ((v,),)] = None
            spent += len(tried)
            _charge(spent, k + 1)
        encoding.extend(best)
        states = list(grown)
    return tuple(encoding), [tuple(u for cell in cells for u in cell) for cells in states]


def _has_open_class(mult: list, colors: list) -> bool:
    """Does a color class of three or more vertices carry no arc between two
    of its members?"""
    return any(
        len(members) >= 3 and not any(mult[u][w] for u in members for w in members if u != w)
        for members in _color_classes(colors).values()
    )


def _search(mult: list, colors: list, extend) -> tuple:
    """(encoding, minimizing orderings, twins) for the refined colors.  A
    discrete coloring has one ordering and no twins.  An arc-free color
    class of three or more vertices goes to the cell search, which ties its
    members in cells; every other coloring goes to the prefix search, which
    spends less per state when few vertices tie."""
    n = len(mult)
    if len(set(colors)) == n:
        order = sorted(range(n), key=colors.__getitem__)
        encoding: list = []
        for k, v in enumerate(order):
            encoding.extend(extend(order[:k], v))
        return tuple(encoding), [tuple(order)], list(range(n))
    twin = _twins(mult, colors)
    if _has_open_class(mult, colors):
        return _cell_encoding(mult, colors, twin, extend) + (twin,)
    return _min_encoding(n, colors, twin, extend) + (twin,)


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

    return _search(mult, colors, extend)


def canonical_key(graph: Multigraph) -> tuple:
    """Canonical form of a multigraph: (n,) followed by the minimized
    adjacency encoding, where vertex k contributes its multiplicities
    towards the previously listed vertices and then its loop count."""
    if not graph.vertices:
        return (0,)
    return (len(graph.vertices),) + _undirected_search(graph)[0]


def automorphisms(graph: Multigraph) -> list[tuple]:
    """All vertex automorphisms of a multigraph, sorted, each as a tuple p
    with p[i] the index of the image of graph.vertices[i] (the identity
    comes first).  Every automorphism is a product of twin swaps after the
    map from the first minimizing ordering of the canonical search onto
    another one.  The cell search is not shown to reach each automorphism
    once only, so duplicates are dropped."""
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
    for members in _color_classes(twin).values():
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
    then its loop count."""
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

    return (n,) + _search(mult, colors, extend)[0]
