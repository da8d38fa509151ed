"""Binomial relation machinery for flow semigroups.

For an acyclic quiver with weight, the integer flows of all dilations form
a graded semigroup generated in degree one.  The relations among the
degree-one generators are binomial; whether all relations follow from
low-degree ones is decided by connectivity of per-element divisor graphs,
which this module builds, certifies, and mines for a minimal generating
system.  It also handles two side cases: the bipartite one-sided-matching
semigroup and the degree of relations between cycle products on strongly
connected quivers with zero weight.

Flows travel as dicts at the API boundary and as tuples (ordered by sorted
arrow id) inside it.  The connectivity scans pack each flow into one int,
a field per coordinate with a guard bit on top, so a divisibility test is
one subtraction and one mask (SIMD within a register; Lamport, "Multiple
byte processing with full-word instructions", CACM 1975).
"""

import functools
import itertools
import warnings
from dataclasses import dataclass

from .errors import (
    EmptyPolyhedron,
    EmptyWeight,
    InputError,
    NotBipartite,
    NotInSemigroup,
    NotParallel,
    UnsupportedCase,
)
from .polytope import (
    DEFAULT_MAX_NODES,
    _NodeBudget,
    _fresh,
    dimension,
    generation_degree,
    greedy_factorization,
    lattice_points,
)
from .quiver import (
    Arrow,
    Quiver,
    divergence,
    is_strongly_connected,
    primitive_cycles,
    topological_order,
)


def _leq(small: tuple, big: tuple) -> bool:
    return all(x <= y for x, y in zip(small, big))


def _sub(big: tuple, small: tuple) -> tuple:
    return tuple(x - y for x, y in zip(big, small))


def _addt(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


class GradedSemigroup:
    """All integer flows of the dilated polytopes, graded by dilation factor.

    Only acyclic quivers are supported: with oriented cycles and a nonzero
    weight the degree-one piece is infinite, and the zero-weight cyclic
    situation is served by affine_relation_degree instead.
    """

    def __init__(self, quiver: Quiver, weight: dict, max_nodes: int = DEFAULT_MAX_NODES):
        if topological_order(quiver) is None:
            raise UnsupportedCase(
                "graded semigroup requires an acyclic quiver; "
                "for strongly connected zero-weight quivers use affine_relation_degree",
                vertices=len(quiver.vertices),
            )
        self.quiver = quiver
        self.weight = dict(weight)
        self.max_nodes = max_nodes
        self.arrow_ids = tuple(quiver.sorted_arrow_ids())
        self._pieces: dict[int, tuple] = {0: (tuple(0 for _ in self.arrow_ids),)}
        self.generators = self.graded_piece(1)
        self._gen_index = {g: i for i, g in enumerate(self.generators)}

    def graded_piece(self, k: int) -> tuple:
        """Sorted tuple of all degree-k elements, as flow tuples."""
        if k < 0:
            raise InputError("degree must be non-negative")
        if k not in self._pieces:
            scaled = {v: k * w for v, w in self.weight.items()}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyWeight)
                pts = lattice_points(self.quiver, scaled, 1, max_nodes=self.max_nodes)
            self._pieces[k] = tuple(
                tuple(p[a] for a in self.arrow_ids) for p in pts
            )
        return self._pieces[k]

    def dimension(self) -> int:
        """Dimension of the polytope (`polytope.dimension`)."""
        return dimension(self.quiver, self.weight)

    @functools.cached_property
    def generation_degree(self) -> int:
        """d + 2 - codeg (`polytope.generation_degree`): no minimal
        generator of the ideal lies above it."""
        return generation_degree(self.quiver, self.weight)

    def flow_tuple(self, flow: dict) -> tuple:
        missing = [a for a in self.arrow_ids if a not in flow]
        if missing or len(flow) != len(self.arrow_ids):
            raise InputError(f"flow must assign exactly the arrow ids {list(self.arrow_ids)}")
        return tuple(flow[a] for a in self.arrow_ids)

    def flow_dict(self, tup: tuple) -> dict:
        return dict(zip(self.arrow_ids, tup))

    def contains(self, tup: tuple, k: int) -> bool:
        """Membership in the degree-k piece, decided by the defining equations."""
        if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in tup):
            return False
        div = divergence(self.quiver, self.flow_dict(tup))
        return all(div[v] == k * self.weight[v] for v in self.quiver.vertices)

    def index(self, gen: tuple) -> int:
        return self._gen_index[gen]

    def peel(self, tup: tuple, count: int):
        """Greedy factorization into `count` generators, lex-smallest first.

        Returns a tuple of generator indices, or None when `tup` is not a
        degree-`count` element (see `polytope.greedy_factorization`).
        """
        picks = greedy_factorization(self.generators, tup, count)
        return None if picks is None else tuple(picks)


@dataclass(frozen=True)
class DivisorGraph:
    """Degree-one divisors of one semigroup element and their compatibilities."""

    element: tuple
    degree: int
    nodes: tuple  # generator flow tuples, sorted
    edges: tuple  # pairs of node indices, i < j
    components: tuple  # tuples of node indices, sorted by smallest member

    def is_connected(self) -> bool:
        return len(self.components) <= 1


@dataclass(frozen=True)
class BinomialGen:
    """A homogeneous binomial relation between two factorizations."""

    degree: int
    image: tuple
    left: tuple  # sorted generator indices
    right: tuple


@dataclass(frozen=True)
class DegreeViolation:
    """Witness that some element needs a generator above the claimed bound."""

    degree: int
    element: tuple
    components: tuple  # node flow tuples grouped per component


def _components_of(n: int, edges: list) -> list:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [tuple(groups[r]) for r in sorted(groups)]


def divisor_graph(semigroup: GradedSemigroup, element: dict, degree: int) -> DivisorGraph:
    """Graph of degree-one divisors of `element`, joined when their sum divides it."""
    if degree < 2:
        raise InputError("divisor graphs are defined for degree >= 2")
    tup = semigroup.flow_tuple(element)
    if not semigroup.contains(tup, degree):
        raise NotInSemigroup(
            "element does not lie in the requested graded piece",
            degree=degree,
            element=sorted(element.items()),
        )
    nodes = tuple(g for g in semigroup.generators if _leq(g, tup))
    edges = []
    for i, j in itertools.combinations(range(len(nodes)), 2):
        pair = _addt(nodes[i], nodes[j])
        if _leq(pair, tup):
            edges.append((i, j))
    comps = _components_of(len(nodes), edges)
    return DivisorGraph(tup, degree, nodes, tuple(edges), tuple(comps))


def _pack(values, width: int) -> int:
    """The values, each below 2**width, as one int: fields of width + 1
    bits, the first value lowest, the top bit of each field its guard.

    With `guards` the packed (2**width, ...), `((y | guards) - x) & guards
    == guards` exactly when x <= y in every field: a field that goes
    negative borrows from its own guard bit, and no borrow gets past it.
    """
    field = width + 1
    packed = 0
    for x in reversed(values):
        packed = (packed << field) | x
    return packed


def _divisors_connected(packed: list, target: int, guards: int) -> bool:
    """Is the divisor graph connected?  Its nodes are the packed candidates
    that fit under the guarded target field by field, its edges the pairs
    whose sum fits; each pair sum must stay below 2**width in every field.

    Breadth-first: each reached node, in the order reached, splits the
    unreached ones into its neighbours and the rest.
    """
    nodes = [g for g in packed if (target - g) & guards == guards]
    reached, rest = nodes[:1], nodes[1:]
    for node in reached:  # grows while it is read
        if not rest:
            break
        slack = target - node
        far = []
        for g in rest:
            if (slack - g) & guards == guards:
                reached.append(g)
            else:
                far.append(g)
        rest = far
    return not rest


def _disconnected(semigroup: GradedSemigroup, k: int):
    """The degree-k elements (k >= 2) whose divisor graph has more than one
    component, in piece order.  Fields are w = (k * largest generator
    coordinate).bit_length() bits under the guard: the semigroup is
    generated in degree one, so every degree-k coordinate, and every sum
    of two generators, is below 2**w.
    """
    top = max(itertools.chain.from_iterable(semigroup.generators), default=0)
    width = (k * top).bit_length()
    guards = _pack((1 << width,) * len(semigroup.arrow_ids), width)
    packed = [_pack(g, width) for g in semigroup.generators]
    for tup in semigroup.graded_piece(k):
        if not _divisors_connected(packed, _pack(tup, width) | guards, guards):
            yield tup


def _representative(semigroup: GradedSemigroup, tup: tuple, degree: int, first: tuple) -> tuple:
    """Factorization starting with the given generator, greedy afterwards."""
    rest = semigroup.peel(_sub(tup, first), degree - 1)
    assert rest is not None
    return tuple(sorted((semigroup.index(first),) + rest))


def minimal_generators(semigroup: GradedSemigroup, max_degree: int) -> list:
    """Minimal binomial generating system up to the given degree.

    For each element whose divisor graph splits into c > 1 components the
    ideal needs exactly c - 1 generators; they pair a representative
    factorization of the first component against one from each other.
    Split elements are found by the packed test of `_disconnected` (a field
    of (k * largest generator coordinate).bit_length() bits and a guard bit
    per arrow); only those get a tuple-level `divisor_graph`.  Degrees
    above `semigroup.generation_degree` (d + 2 - codeg) hold no split
    element, so the scan stops there when that is below `max_degree`.
    """
    if max_degree < 2:
        raise InputError("max_degree must be at least 2")
    out = []
    if not semigroup.generators:
        return out
    for k in range(2, min(max_degree, semigroup.generation_degree) + 1):
        for tup in _disconnected(semigroup, k):
            graph = divisor_graph(semigroup, semigroup.flow_dict(tup), k)
            reps = [
                _representative(semigroup, tup, k, graph.nodes[comp[0]])
                for comp in graph.components
            ]
            for other in reps[1:]:
                out.append(BinomialGen(k, tup, reps[0], other))
    return out


def certify_degree_bound(semigroup: GradedSemigroup, bound: int, horizon: int | None = None):
    """Check that no element above `bound` needs a new generator.

    Scans degrees in (bound, horizon].  The default horizon is
    `semigroup.generation_degree`, d + 2 - codeg, above which no minimal
    generator lies; an explicit horizon scans exactly what it names.  A
    horizon at or below the bound leaves nothing to scan and certifies
    vacuously.  Returns (True, None) or (False, first violation).  Each
    element is screened by the packed test of `_disconnected`, in fields of
    (k * largest generator coordinate).bit_length() bits under a guard bit.
    """
    if bound < 1:
        raise InputError("bound must be positive")
    if not semigroup.generators:
        return True, None
    if horizon is None:
        horizon = semigroup.generation_degree
    elif horizon < 1:
        raise InputError("horizon must be positive")
    for k in range(bound + 1, horizon + 1):
        for tup in _disconnected(semigroup, k):
            graph = divisor_graph(semigroup, semigroup.flow_dict(tup), k)
            grouped = tuple(
                tuple(graph.nodes[i] for i in comp) for comp in graph.components
            )
            return False, DegreeViolation(k, tup, grouped)
    return True, None


def collapse_parallel(quiver: Quiver, arrow_pair: tuple) -> Quiver:
    """Merge two parallel arrows into the first one (flows add up)."""
    first, second = arrow_pair
    a1 = quiver.arrow(first)
    a2 = quiver.arrow(second)
    if first == second or a1.tail != a2.tail or a1.head != a2.head:
        raise NotParallel(
            "arrows must be distinct with equal tails and equal heads",
            arrows=[first, second],
        )
    return quiver.without_arrow(second)


def lift_generators(
    quiver: Quiver,
    weight: dict,
    arrow_pair: tuple,
    collapsed_gens: list,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> list:
    """Pull relations back through the merge of two parallel arrows.

    Given a generating set for the quiver with the pair collapsed, returns
    one for the original quiver: every collapsed relation lifted once per
    split of its merged flow across the two parallel arrows (assigning
    first-arrow flow greedily across the factors), plus the quadratic
    swaps that move one unit between the two arrows.  The result generates
    but is not claimed minimal.
    """
    first, second = arrow_pair
    small = collapse_parallel(quiver, arrow_pair)
    big_sg = GradedSemigroup(quiver, weight, max_nodes=max_nodes)
    small_sg = GradedSemigroup(small, weight, max_nodes=max_nodes)
    pos1 = big_sg.arrow_ids.index(first)
    pos2 = big_sg.arrow_ids.index(second)
    merged_pos = small_sg.arrow_ids.index(first)

    def lift_side(indices: tuple, on_first: int) -> tuple:
        """Lift a factor multiset, putting `on_first` total units on α₁."""
        out = []
        left_to_place = on_first
        for i in indices:
            flow = small_sg.flow_dict(small_sg.generators[i])
            take = min(flow[first], left_to_place)
            left_to_place -= take
            flow[second] = flow[first] - take
            flow[first] = take
            out.append(big_sg.index(big_sg.flow_tuple(flow)))
        assert left_to_place == 0
        return tuple(sorted(out))

    lifted = []
    for gen in collapsed_gens:
        merged_total = gen.image[merged_pos]
        for on_first in range(merged_total + 1):
            image = small_sg.flow_dict(gen.image)
            image[second] = merged_total - on_first
            image[first] = on_first
            lifted.append(
                BinomialGen(
                    gen.degree,
                    big_sg.flow_tuple(image),
                    lift_side(gen.left, on_first),
                    lift_side(gen.right, on_first),
                )
            )

    def shifted(tup: tuple, delta: int) -> tuple:
        moved = list(tup)
        moved[pos1] -= delta
        moved[pos2] += delta
        return tuple(moved)

    seen = set()
    for m in big_sg.generators:
        if m[pos1] < 1:
            continue
        for n in big_sg.generators:
            if n[pos2] < 1:
                continue
            left = tuple(sorted((big_sg.index(m), big_sg.index(n))))
            right = tuple(
                sorted((big_sg.index(shifted(m, 1)), big_sg.index(shifted(n, -1))))
            )
            if left == right:
                continue
            key = (min(left, right), max(left, right))
            if key in seen:
                continue
            seen.add(key)
            lifted.append(BinomialGen(2, _addt(m, n), key[0], key[1]))
    lifted.sort(key=lambda g: (g.degree, g.image, g.left, g.right))
    return lifted


def _osm_parts(quiver: Quiver) -> tuple:
    """Split vertices into sources and sinks; reject mixed vertices."""
    sources, sinks = [], []
    for v in quiver.sorted_vertices():
        if quiver.indegree(v) == 0:
            sources.append(v)
        elif quiver.outdegree(v) == 0:
            sinks.append(v)
        else:
            raise NotBipartite(
                "vertex has both incoming and outgoing arrows", vertex=v
            )
    return sources, sinks


def osm_lattice_points(quiver: Quiver) -> list:
    """All one-sided matchings: one arrow per source, at most one per sink."""
    sources, _ = _osm_parts(quiver)
    arrow_ids = quiver.sorted_arrow_ids()
    out = []

    def extend(i: int, picked: dict, used_sinks: set):
        if i == len(sources):
            flow = {a: 0 for a in arrow_ids}
            for aid in picked.values():
                flow[aid] = 1
            out.append(flow)
            return
        v = sources[i]
        for arrow in sorted(quiver.out_arrows(v), key=lambda a: a.id):
            if arrow.head in used_sinks:
                continue
            picked[v] = arrow.id
            used_sinks.add(arrow.head)
            extend(i + 1, picked, used_sinks)
            used_sinks.discard(arrow.head)
            del picked[v]

    extend(0, {}, set())
    del extend  # a recursive closure is a reference cycle: unbind it so `out` frees
    out.sort(key=lambda f: tuple(f[a] for a in arrow_ids))
    return out


def _matching_polytope(quiver: Quiver) -> tuple:
    """The quiver polytope whose semigroup is the one-sided-matching one.

    Q gains one slack source z with an arrow to each sink; every source
    has weight -1, every sink +1 and z the difference #sources - #sinks.
    A degree-k flow sends k from each source, and the slack arrow into a
    sink carries what the sources leave of its k, so forgetting the slack
    arrows maps its degree-k flows one to one onto the degree-k matching
    elements.  Returns (quiver, weight); z and its arrows get fresh names.
    """
    sources, sinks = _osm_parts(quiver)
    z = _fresh("z", set(quiver.vertices))
    taken = set(quiver.sorted_arrow_ids())
    slack = [Arrow(_fresh(f"{z}:{w}", taken), z, w) for w in sinks]
    weight = dict.fromkeys(sources, -1) | dict.fromkeys(sinks, 1)
    weight[z] = len(sources) - len(sinks)
    return Quiver(list(quiver.vertices) + [z], list(quiver.arrows) + slack), weight


def _osm_piece(quiver: Quiver, sources: list, sinks: list, k: int, budget: _NodeBudget) -> list:
    """All degree-k elements of the one-sided-matching semigroup."""
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


def _osm_certified(quiver: Quiver, bound: int, horizon: int, budget: _NodeBudget) -> bool:
    """Divisor-graph connectivity on the one-sided-matching semigroup.

    The nodes of a degree-k element s are the matchings m <= s that meet
    every sink that s fills to k; two nodes are joined when m + m' <= s and
    s exceeds m + m' by at most k - 2 at every sink.  Both are the packed
    test of `_divisors_connected`, with one more field per sink: 1 minus
    the sink degree for a matching, k minus it for s.  Fields are
    k.bit_length() bits under the guard, as every field of s is at most k
    and every field of a pair of matchings at most 2 (bound >= 1).
    """
    sources, sinks = _osm_parts(quiver)
    arrow_ids = quiver.sorted_arrow_ids()
    head_pos = [sinks.index(quiver.arrow(a).head) for a in arrow_ids]

    def extended(tup: tuple, top: int) -> tuple:  # tup, then top - degree at each sink
        slack = [top] * len(sinks)
        for i, val in zip(head_pos, tup):
            slack[i] -= val
        return tup + tuple(slack)

    matchings = [tuple(m[a] for a in arrow_ids) for m in osm_lattice_points(quiver)]
    for k in range(bound + 1, horizon + 1):
        width = k.bit_length()
        guards = _pack((1 << width,) * (len(arrow_ids) + len(sinks)), width)
        packed = [_pack(extended(m, 1), width) for m in matchings]
        for s in _osm_piece(quiver, sources, sinks, k, budget):
            if not _divisors_connected(packed, _pack(extended(s, k), width) | guards, guards):
                return False
    return True


def osm_certify_degree3(
    quiver: Quiver, horizon: int | None = None, max_nodes: int = DEFAULT_MAX_NODES
) -> bool:
    """Certify the degree-3 bound for the one-sided-matching semigroup, by
    divisor-graph connectivity on the matching semigroup itself.

    Scans degrees in (3, horizon].  The default horizon is d + 2 - codeg
    of the matching polytope (`_matching_polytope`), above which no minimal
    generator lies (`polytope.generation_degree`); when that polytope is
    empty there is nothing to scan.  An explicit horizon scans exactly what
    it names.  Agreement with `certify_degree_bound` on the matching polytope
    is checked by the tests, not at run time.
    """
    _osm_parts(quiver)
    if horizon is None:
        try:
            horizon = generation_degree(*_matching_polytope(quiver))
        except EmptyPolyhedron:
            return True
    elif horizon < 1:
        raise InputError("horizon must be positive")
    return _osm_certified(quiver, 3, horizon, _NodeBudget(max_nodes))


def affine_relation_degree(quiver: Quiver, max_nodes: int = DEFAULT_MAX_NODES) -> int:
    """Largest alternative-decomposition size for a sum of two primitive cycles.

    On a strongly connected quiver with zero weight, the relations among
    cycle products are controlled by pairs of primitive cycles whose
    combined arrow multiset can be rewritten as a different multiset of
    primitive cycles; the return value is the largest size of such a
    rewriting (0 when none exists, i.e. the relation ideal is zero).
    """
    if not is_strongly_connected(quiver):
        raise UnsupportedCase(
            "relation degree is defined for strongly connected quivers",
            vertices=len(quiver.vertices),
        )
    arrow_ids = quiver.sorted_arrow_ids()
    cycles = primitive_cycles(quiver)
    eps = []
    for c in cycles:
        vec = c.epsilon(quiver)
        eps.append(tuple(vec[a] for a in arrow_ids))
    budget = _NodeBudget(max_nodes)
    best = 0

    def decompositions(target: tuple, start: int, picked: list, banned: tuple):
        nonlocal best
        budget.spend()
        if not any(target):
            if tuple(picked) != banned:
                best = max(best, len(picked))
            return
        for i in range(start, len(eps)):
            if _leq(eps[i], target):
                picked.append(i)
                decompositions(_sub(target, eps[i]), i, picked, banned)
                picked.pop()

    for i in range(len(eps)):
        for j in range(i, len(eps)):
            target = _addt(eps[i], eps[j])
            decompositions(target, 0, [], (i, j))
    del decompositions  # a recursive closure is a reference cycle: unbind it
    return best
