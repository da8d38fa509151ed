"""Core quiver data model and elementary graph predicates.

Conventions used throughout the library:

* A quiver is a finite directed multigraph.  Loops and parallel arrows are
  legal and never silently merged; identity is carried by opaque string ids.
* A weight is a plain ``dict`` mapping every vertex id to an ``int``.
* An integer flow is a plain ``dict`` mapping every arrow id to an ``int``;
  the divergence of a flow at a vertex is **inflow minus outflow**:
  ``div(x)(v) = sum(x(a) for a with head v) - sum(x(a) for a with tail v)``.
* All arithmetic is exact integer arithmetic; no floats.

Derived objects (contractions, doubled quivers, ...) generate new ids by
deterministic schemes documented at their construction sites, so that every
run of every operation is reproducible byte-for-byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError


@dataclass(frozen=True)
class Arrow:
    id: str
    tail: str
    head: str

    def is_loop(self) -> bool:
        return self.tail == self.head


class Quiver:
    """Immutable directed multigraph with named vertices and arrows."""

    def __init__(self, vertices: Iterable[str], arrows: Iterable[Arrow]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.arrows: tuple[Arrow, ...] = tuple(arrows)
        self._vset = frozenset(self.vertices)
        if len(self._vset) != len(self.vertices):
            raise InputError("duplicate vertex id")
        self._by_id = {a.id: a for a in self.arrows}
        if len(self._by_id) != len(self.arrows):
            raise InputError("duplicate arrow id")
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        inn: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.tail not in out:
                raise InputError(f"arrow {a.id!r}: unknown tail {a.tail!r}")
            if a.head not in out:
                raise InputError(f"arrow {a.id!r}: unknown head {a.head!r}")
            out[a.tail].append(a)
            inn[a.head].append(a)
        self._out = {v: tuple(x) for v, x in out.items()}
        self._in = {v: tuple(x) for v, x in inn.items()}

    # -- basic accessors -------------------------------------------------

    def arrow(self, arrow_id: str) -> Arrow:
        try:
            return self._by_id[arrow_id]
        except KeyError:
            raise InputError(f"unknown arrow id {arrow_id!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._vset

    def out_arrows(self, v: str) -> tuple[Arrow, ...]:
        return self._out[v]

    def in_arrows(self, v: str) -> tuple[Arrow, ...]:
        return self._in[v]

    def valency(self, v: str) -> int:
        """Undirected degree; a loop contributes 2."""
        return len(self._out[v]) + len(self._in[v])

    def indegree(self, v: str) -> int:
        return len(self._in[v])

    def outdegree(self, v: str) -> int:
        return len(self._out[v])

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices)

    def sorted_arrow_ids(self) -> list[str]:
        return sorted(a.id for a in self.arrows)

    # -- constructive helpers --------------------------------------------

    def without_arrow(self, arrow_id: str) -> "Quiver":
        self.arrow(arrow_id)
        return Quiver(self.vertices, [a for a in self.arrows if a.id != arrow_id])

    def restricted_to_arrows(self, arrow_ids: Iterable[str]) -> "Quiver":
        keep = set(arrow_ids)
        return Quiver(self.vertices, [a for a in self.arrows if a.id in keep])

    def induced_on_vertices(self, vertex_ids: Iterable[str]) -> "Quiver":
        keep = set(vertex_ids)
        return Quiver(
            [v for v in self.vertices if v in keep],
            [a for a in self.arrows if a.tail in keep and a.head in keep],
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self, weight: dict[str, int] | None = None) -> dict:
        vertices = self.sorted_vertices()
        d: dict = {
            "vertices": vertices,
            "arrows": [
                {"id": a.id, "tail": a.tail, "head": a.head}
                for a in sorted(self.arrows, key=lambda a: a.id)
            ],
        }
        if weight is not None:
            d["weight"] = {v: weight[v] for v in vertices}
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quiver)
            and sorted(self.vertices) == sorted(other.vertices)
            and sorted(self.arrows, key=lambda a: a.id) == sorted(other.arrows, key=lambda a: a.id)
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.vertices), frozenset(self.arrows)))


def quiver_from_dict(data: dict) -> tuple[Quiver, dict[str, int] | None]:
    """Parse the JSON quiver format; returns (quiver, weight-or-None)."""
    if not isinstance(data, dict):
        raise InputError("top-level JSON value must be an object")
    try:
        raw_vertices = data["vertices"]
    except KeyError:
        raise InputError("missing field 'vertices'") from None
    try:
        raw_arrows = data["arrows"]
    except KeyError:
        raise InputError("missing field 'arrows'") from None
    if not isinstance(raw_vertices, list) or not all(isinstance(v, str) for v in raw_vertices):
        raise InputError("'vertices' must be a list of strings")
    if not isinstance(raw_arrows, list):
        raise InputError("'arrows' must be a list")
    arrows = []
    for i, rec in enumerate(raw_arrows):
        if not isinstance(rec, dict):
            raise InputError(f"arrow #{i} must be an object")
        for field in ("id", "tail", "head"):
            if field not in rec:
                raise InputError(f"arrow #{i}: missing field '{field}'")
            if not isinstance(rec[field], str):
                raise InputError(f"arrow #{i}: field '{field}' must be a string")
        arrows.append(Arrow(rec["id"], rec["tail"], rec["head"]))
    quiver = Quiver(raw_vertices, arrows)
    weight = None
    if "weight" in data and data["weight"] is not None:
        raw_w = data["weight"]
        if not isinstance(raw_w, dict):
            raise InputError("'weight' must be an object")
        weight = {}
        for v, val in raw_w.items():
            if not isinstance(val, int) or isinstance(val, bool):
                raise InputError(f"weight of {v!r} must be an integer")
            weight[v] = val
        check_weight(quiver, weight)
    return quiver, weight


def check_weight(quiver: Quiver, weight: dict[str, int]) -> None:
    """Weights must be defined on exactly the vertex set."""
    missing = [v for v in quiver.vertices if v not in weight]
    if missing:
        raise InputError(f"weight missing vertices: {sorted(missing)}")
    extra = [v for v in weight if not quiver.has_vertex(v)]
    if extra:
        raise InputError(f"weight defined on unknown vertices: {sorted(extra)}")


def fresh_name(base: str, taken: set) -> str:
    """`base` with as many primes (') appended as it takes to leave
    `taken`; the name is added to `taken`.  Every derived quiver names its
    new vertices and arrows this way."""
    name = base
    while name in taken:
        name += "'"
    taken.add(name)
    return name


# -- connectivity ----------------------------------------------------------


def _find_root(parent, v):
    """The root of v in the union-find forest `parent` (a dict or a list),
    halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def components(quiver: Quiver) -> list[frozenset[str]]:
    """Weakly connected components, ordered by smallest vertex id."""
    parent = {v: v for v in quiver.vertices}
    for a in quiver.arrows:
        ra, rb = _find_root(parent, a.tail), _find_root(parent, a.head)
        if ra != rb:
            parent[ra] = rb

    groups: dict[str, set[str]] = {}
    for v in quiver.vertices:
        groups.setdefault(_find_root(parent, v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=lambda g: min(g))


def euler_characteristic(quiver: Quiver) -> int:
    """|arrows| - |vertices| + number of weak components."""
    return len(quiver.arrows) - len(quiver.vertices) + len(components(quiver))


def strongly_connected_components(quiver: Quiver) -> list[frozenset[str]]:
    """Tarjan's algorithm, iterative; components in reverse topological
    order of the condensation (every arrow leaving a component points to a
    component listed earlier)."""
    return _strong_components(
        {v: [a.head for a in quiver.out_arrows(v)] for v in quiver.vertices}
    )


def _strong_components(succ: dict[str, list[str]]) -> list[frozenset[str]]:
    """Tarjan's algorithm on the graph with successor lists `succ`."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: list[frozenset[str]] = []
    counter = 0

    for root in succ:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            out = succ[v]
            while pi < len(out):
                w = out[pi]
                pi += 1
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                result.append(frozenset(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return result


def is_strongly_connected(quiver: Quiver) -> bool:
    if not quiver.vertices:
        return True
    return len(strongly_connected_components(quiver)) == 1


def is_acyclic(quiver: Quiver) -> bool:
    return topological_order(quiver) is not None


def topological_order(quiver: Quiver) -> list[str] | None:
    """Kahn's algorithm; ties broken by vertex id so the order is stable.
    Returns None when the quiver has an oriented cycle."""
    import heapq

    indeg = {v: quiver.indegree(v) for v in quiver.vertices}
    for a in quiver.arrows:
        if a.is_loop():
            return None
    ready = [v for v in quiver.vertices if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for a in quiver.out_arrows(v):
            indeg[a.head] -= 1
            if indeg[a.head] == 0:
                heapq.heappush(ready, a.head)
    if len(order) != len(quiver.vertices):
        return None
    return order


# -- weights and stability ---------------------------------------------------


def canonical_weight(quiver: Quiver) -> dict[str, int]:
    """indegree - outdegree at every vertex; always sums to zero."""
    return {v: quiver.indegree(v) - quiver.outdegree(v) for v in quiver.vertices}


def is_theta_stable(quiver: Quiver, weight: dict[str, int]) -> bool:
    """True iff the weight sums to zero and every non-empty proper
    successor-closed vertex subset has strictly positive total weight.

    No arrow leaves a successor-closed set, so its weight is the flow that
    enters it.  Hence the condition holds exactly when Q is connected and
    the polyhedron has a point positive on every arrow: one feasible flow
    and its support decide it."""
    flow = feasible_flow(quiver, weight)
    return (
        flow is not None
        and len(components(quiver)) <= 1
        and len(flow_support(quiver, flow)) == len(quiver.arrows)
    )


# -- the flow kernel ---------------------------------------------------------
#
# The constraint matrix of {x >= 0 : div x = theta} is an incidence matrix,
# hence totally unimodular: max-flow on the supply/demand network finds an
# integer point whenever the polyhedron has a point at all (Ford-Fulkerson
# 1956; Hoffman 1960), and the residual graph of that point shows where the
# other points can differ from it.


def push_flow(
    quiver: Quiver,
    flow: dict[str, int],
    supply: dict[str, int],
    demand: dict[str, int],
    skip: str | None = None,
) -> int:
    """Augment `flow` from a super-source, which feeds each vertex v up to
    supply[v], to a super-sink, which drains v up to demand[v], and return
    the amount moved.  `flow`, `supply` and `demand` change in place.

    Augmenting paths are shortest paths (BFS, Edmonds-Karp) in the residual
    graph: every arrow forward without bound, and backward up to its flow.
    The arrow `skip` is left out both ways."""
    moved = 0
    while True:
        prev: dict = {v: None for v, s in supply.items() if s > 0}
        queue = deque(prev)
        end = None
        while queue:
            v = queue.popleft()
            if demand.get(v, 0) > 0:
                end = v
                break
            for a in quiver.out_arrows(v):
                if a.head not in prev and a.id != skip:
                    prev[a.head] = (a, 1)
                    queue.append(a.head)
            for a in quiver.in_arrows(v):
                if a.tail not in prev and flow[a.id] > 0 and a.id != skip:
                    prev[a.tail] = (a, -1)
                    queue.append(a.tail)
        if end is None:
            return moved
        path = []
        v = end
        while prev[v] is not None:
            a, sign = prev[v]
            path.append((a.id, sign))
            v = a.tail if sign > 0 else a.head
        delta = min(
            supply[v], demand[end], *(flow[aid] for aid, sign in path if sign < 0)
        )
        for aid, sign in path:
            flow[aid] += sign * delta
        supply[v] -= delta
        demand[end] -= delta
        moved += delta


def feasible_flow(quiver: Quiver, weight: dict[str, int]) -> dict[str, int] | None:
    """One non-negative integer flow with divergence `weight`, or None when
    the polyhedron is empty: sources (negative weight) feed sinks (positive
    weight) by max-flow, and the polyhedron is empty unless every sink is
    filled."""
    check_weight(quiver, weight)
    if sum(weight[v] for v in quiver.vertices) != 0:
        return None
    flow = {a.id: 0 for a in quiver.arrows}
    demand = {v: weight[v] for v in quiver.vertices if weight[v] > 0}
    push_flow(
        quiver, flow, {v: -weight[v] for v in quiver.vertices if weight[v] < 0}, demand
    )
    return None if any(demand.values()) else flow


def flow_support(quiver: Quiver, flow: dict[str, int]) -> set[str]:
    """The support of the polyhedron through the feasible `flow`: the
    arrows positive at some of its points.

    An arrow is in it when the flow is positive on it, or when a residual
    cycle runs through it, that is when both its ends lie in one strongly
    connected component of the residual graph (every arrow forward, and
    backward where the flow is positive)."""
    succ = {v: [a.head for a in quiver.out_arrows(v)] for v in quiver.vertices}
    for a in quiver.arrows:
        if flow[a.id]:
            succ[a.head].append(a.tail)
    comp = {v: i for i, c in enumerate(_strong_components(succ)) for v in c}
    return {a.id for a in quiver.arrows if flow[a.id] or comp[a.tail] == comp[a.head]}


# -- primitive cycles --------------------------------------------------------


@dataclass(frozen=True)
class PrimitiveCycle:
    """A minimal oriented cycle: vertex-simple, arrows composing
    head-to-tail.  Stored in canonical rotation (smallest arrow id first)."""

    arrow_ids: tuple[str, ...]

    def epsilon(self, quiver: Quiver) -> dict[str, int]:
        """Characteristic vector as an integer flow on the whole quiver."""
        chi = {a.id: 0 for a in quiver.arrows}
        for aid in self.arrow_ids:
            chi[aid] += 1
        return chi


def _canonical_rotation(seq: tuple[str, ...]) -> tuple[str, ...]:
    k = seq.index(min(seq))
    return seq[k:] + seq[:k]


def primitive_cycles(quiver: Quiver) -> list[PrimitiveCycle]:
    """All vertex-simple oriented cycles (loops count, length 1), each once,
    sorted by (length, arrow-id sequence).

    Enumeration: for every start vertex s (in sorted order) find the cycles
    whose smallest vertex is s by a DFS that only walks vertices >= s and
    never repeats a vertex.  Each such cycle is discovered exactly once
    because it passes through its smallest vertex exactly once.  The DFS
    keeps one iterator over sorted out-arrows per path vertex on a stack,
    so a long path does not recurse.
    """
    order = {v: i for i, v in enumerate(quiver.sorted_vertices())}
    out = {v: sorted(quiver.out_arrows(v), key=lambda a: a.id) for v in order}
    found: list[tuple[str, ...]] = []
    for s, s_rank in order.items():
        visited: set[str] = set()
        stack = [(s, None, iter(out[s]))]  # (vertex, arrow into it, its arrows left)
        while stack:
            a = next(stack[-1][2], None)
            if a is None:
                visited.discard(stack.pop()[0])
            elif a.head == s:
                path = tuple(aid for _v, aid, _arrows in stack[1:])
                found.append(_canonical_rotation(path + (a.id,)))
            elif order[a.head] > s_rank and a.head not in visited:
                visited.add(a.head)
                stack.append((a.head, a.id, iter(out[a.head])))

    unique = sorted(set(found), key=lambda t: (len(t), t))
    return [PrimitiveCycle(t) for t in unique]


def divergence(quiver: Quiver, flow: dict[str, int]) -> dict[str, int]:
    """Inflow minus outflow at every vertex."""
    div = {v: 0 for v in quiver.vertices}
    for a in quiver.arrows:
        x = flow[a.id]
        div[a.head] += x
        div[a.tail] -= x
    return div
