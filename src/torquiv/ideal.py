"""Binomial relation machinery for flow semigroups.

For an acyclic quiver with weight, the integer flows of all dilations form
a graded semigroup generated in degree one.  The relations among the
degree-one generators are binomial; whether all relations follow from
low-degree ones is decided by connectivity of per-element divisor graphs,
which this module builds, certifies, and mines for a minimal generating
system.  The polytopes are normal, so piece k is the sumset of piece k - 1
and the degree-one points.  The bipartite one-sided-matching semigroup is
that of a quiver polytope (`_matching_polytope`) and takes the same route;
the module also gives the degree of relations between cycle products on
strongly connected quivers with zero weight.

Flows travel as dicts at the API boundary and as tuples (ordered by sorted
arrow id) inside it.  Graded pieces are sorted lists of flows packed into
one int each by `polytope._pack`, a field per coordinate with a guard bit
on top and the first coordinate highest: int order is lex order, a sum of
flows is one addition, and a divisibility test is one subtraction and one
mask.  Pieces up to degree d + 1 share one width, and the packed scan
gives each split element's components; `polytope.greedy_factorization`,
on the same packing, gives their factorizations.
"""

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass

from .errors import (
    InputError,
    NotBipartite,
    NotInSemigroup,
    NotParallel,
    SearchCapExceeded,
    UnsupportedCase,
)
from .polytope import (
    DEFAULT_MAX_NODES,
    _codegree,
    _lattice_tuples,
    _NodeBudget,
    _pack,
    _unpack,
    generation_degree,
    greedy_factorization,
    support_dimension,
)
from .quiver import (
    Arrow,
    Quiver,
    _find_root,
    divergence,
    fresh_name,
    is_strongly_connected,
    primitive_cycles,
    topological_order,
)


def _leq(small: tuple, big: tuple) -> bool:
    return all(x <= y for x, y in zip(small, big))


def _addt(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


class GradedSemigroup:
    """All integer flows of the dilated polytopes, graded by dilation factor.

    Only acyclic quivers are supported: with oriented cycles and a nonzero
    weight the degree-one piece is infinite, and the zero-weight cyclic
    situation is served by affine_relation_degree instead.

    The degree-one piece is the `lattice_points` walk.  The polytope is
    normal, so each piece k >= 2 is the sumset of piece k - 1 and the
    generators; pieces are kept as sorted lists of `_pack`ed ints in
    fields of (max(k, d + 1) * largest generator coordinate).bit_length()
    bits, so only a piece above d + 1 repacks the one below.  The polytope
    is a lattice polytope: its support, and so d, is read off the generators.
    `max_nodes` caps the walk's search nodes, and separately the
    |piece k - 1| * |generators| additions that build each piece.
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
        self.generators = tuple(_lattice_tuples(quiver, self.weight, 1, max_nodes))
        self._gen_index = {g: i for i, g in enumerate(self.generators)}
        self._top = max(itertools.chain.from_iterable(self.generators), default=0)
        self._support = {a for a, xs in zip(self.arrow_ids, zip(*self.generators)) if any(xs)}
        self._dim = support_dimension(quiver, self._support)
        self._packings: dict[int, tuple] = {}  # field width -> `_packing`
        self._pieces = [[0], self._packing(1)[1]]  # sorted packed ints

    def _width(self, k: int) -> int:
        """Field width of piece k: every coordinate of degree max(k, d + 1) fits."""
        return (max(k, self._dim + 1) * self._top).bit_length()

    def _packing(self, k: int) -> tuple:
        """(width, packed generators, guards) of piece k."""
        width = self._width(k)
        if width not in self._packings:
            guards = _pack([1 << width] * len(self.arrow_ids), width)
            self._packings[width] = width, [_pack(g, width) for g in self.generators], guards
        return self._packings[width]

    def _packed_piece(self, k: int) -> list:
        """The degree-k piece as sorted ints packed at `_width(k)`.  Each
        missing piece is the sumset of the one below it, repacked first
        when the width grows, and the generators; its additions are counted
        against `max_nodes` before any is made."""
        while len(self._pieces) <= k:
            j = len(self._pieces)
            below = self._pieces[-1]
            cost = len(below) * len(self.generators)
            if cost > self.max_nodes:
                raise SearchCapExceeded(
                    f"graded piece {j} needs {cost} additions, over {self.max_nodes}",
                    degree=j,
                    max_nodes=self.max_nodes,
                )
            width, narrow = self._width(j), self._width(j - 1)
            if width != narrow:
                n = len(self.arrow_ids)
                below = [_pack(_unpack(p, narrow, n), width) for p in below]
            piece = set()
            for g in self._packing(j)[1]:
                piece.update(map(g.__add__, below))
            self._pieces.append(sorted(piece))
        return self._pieces[k]

    def graded_piece(self, k: int) -> tuple:
        """Sorted tuple of all degree-k elements, as flow tuples: the packed
        piece, unpacked."""
        if k < 0:
            raise InputError("degree must be non-negative")
        width, n = self._width(k), len(self.arrow_ids)
        return tuple(_unpack(p, width, n) for p in self._packed_piece(k))

    @functools.cached_property
    def generation_degree(self) -> int:
        """d + 2 - codeg (`polytope.generation_degree`) from the generators'
        support: no minimal generator of the ideal lies above it."""
        if not self.generators:
            return generation_degree(self.quiver, self.weight)
        return self._dim + 2 - _codegree(self.quiver, self.weight, self._support)

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
    for i, j in edges:
        ri, rj = _find_root(parent, i), _find_root(parent, j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(_find_root(parent, i), []).append(i)
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


def _divisor_components(packed: list, target: int, guards: int) -> list:
    """The components of a split divisor graph, or [] when it is connected.
    Its nodes are the packed candidates that fit under the guarded target
    field by field, its edges the pairs whose sum fits; each pair sum must
    stay below 2**width in every field.

    Breadth-first: each reached node, in the order reached, splits the
    unreached ones into its neighbours and the rest.  While some are left,
    search again from the least of them; the sorted components come in the
    order of `DivisorGraph.components`.
    """
    rest = [g for g in packed if (target - g) & guards == guards]
    components = []
    while rest:
        reached, rest = rest[:1], rest[1:]
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
        if not (rest or components):
            return []
        components.append(sorted(reached))
    return components


def _disconnected(semigroup: GradedSemigroup, k: int):
    """The degree-k elements (k >= 2) whose divisor graph has more than one
    component, in piece order, as (guarded packed element, components).  The
    fields are at least (k * largest generator coordinate).bit_length() bits:
    the semigroup is generated in degree one, so every degree-k coordinate,
    and every sum of two generators, fits under the guard.
    """
    _, packed, guards = semigroup._packing(k)
    for target in semigroup._packed_piece(k):
        target |= guards
        components = _divisor_components(packed, target, guards)
        if components:
            yield target, components


def check_max_degree(max_degree: int) -> None:
    """Refuse a minimal_generators degree below 2, where no generator lies;
    the command line calls it before it builds the semigroup."""
    if max_degree < 2:
        raise InputError("max_degree must be at least 2")


def check_degree_bound(bound: int, horizon: int | None) -> None:
    """Refuse a certify_degree_bound bound or horizon below 1; the command
    line calls it before it builds the semigroup."""
    if bound < 1:
        raise InputError("bound must be positive")
    if horizon is not None and horizon < 1:
        raise InputError("horizon must be positive")


def minimal_generators(semigroup: GradedSemigroup, max_degree: int) -> list:
    """Minimal binomial generating system up to the given degree.

    For each element whose divisor graph splits into c > 1 components the
    ideal needs exactly c - 1 generators; they pair a representative
    factorization of the first component against one from each other.
    Split elements and their components come from the packed scan of
    `_disconnected`.  A component's representative is its least node, then
    `greedy_factorization` of the rest from that node on: every generator
    under the rest is the node's neighbour, so the picks stay in the
    component.  Degrees above `semigroup.generation_degree` (d + 2 - codeg)
    hold no split element, so the scan stops there when that is below
    `max_degree`.
    """
    check_max_degree(max_degree)
    out = []
    if not semigroup.generators:
        return out
    n = len(semigroup.arrow_ids)
    for k in range(2, min(max_degree, semigroup.generation_degree) + 1):
        width, packed, guards = semigroup._packing(k)
        for target, components in _disconnected(semigroup, k):
            reps = []
            for comp in components:
                i = bisect_left(packed, comp[0])
                rest = greedy_factorization(packed, target - comp[0], k - 1, guards, start=i)
                reps.append((i, *rest))
            tup = _unpack(target, width, n)
            out += [BinomialGen(k, tup, reps[0], other) for other in reps[1:]]
    return out


def certify_degree_bound(semigroup: GradedSemigroup, bound: int, horizon: int | None = None):
    """Check that no element above `bound` needs a new generator.

    Scans degrees in (bound, horizon].  The default horizon is
    `semigroup.generation_degree`, d + 2 - codeg, above which no minimal
    generator lies; an explicit horizon scans exactly what it names.  A
    horizon at or below the bound leaves nothing to scan and certifies
    vacuously.  Returns (True, None) or (False, first violation).  Each
    element is screened by the packed test of `_disconnected`.
    """
    check_degree_bound(bound, horizon)
    if not semigroup.generators:
        return True, None
    if horizon is None:
        horizon = semigroup.generation_degree
    for k in range(bound + 1, horizon + 1):
        width, n = semigroup._width(k), len(semigroup.arrow_ids)
        for target, components in _disconnected(semigroup, k):
            grouped = tuple(tuple(_unpack(g, width, n) for g in c) for c in components)
            return False, DegreeViolation(k, _unpack(target, width, n), grouped)
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


def lift_generators(quiver: Quiver, weight: dict, arrow_pair: tuple, collapsed_gens: list) -> list:
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
    big_sg = GradedSemigroup(quiver, weight)
    small_sg = GradedSemigroup(small, weight)
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


def osm_lattice_points(quiver: Quiver, max_nodes: int = DEFAULT_MAX_NODES) -> list:
    """All one-sided matchings (one arrow per source, at most one per
    sink): the degree-one points of the matching polytope
    (`_matching_polytope`) with the slack arrows forgotten, sorted.
    `max_nodes` caps the walk over that polytope."""
    polytope, weight = _matching_polytope(quiver)
    all_ids, arrow_ids = polytope.sorted_arrow_ids(), quiver.sorted_arrow_ids()
    keep = [all_ids.index(a) for a in arrow_ids]
    points = _lattice_tuples(polytope, weight, 1, max_nodes)
    matchings = sorted(tuple(g[i] for i in keep) for g in points)
    return [dict(zip(arrow_ids, m)) for m in matchings]


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
    z = fresh_name("z", set(quiver.vertices))
    taken = set(quiver.sorted_arrow_ids())
    slack = [Arrow(fresh_name(f"{z}:{w}", taken), z, w) for w in sinks]
    weight = dict.fromkeys(sources, -1) | dict.fromkeys(sinks, 1)
    weight[z] = len(sources) - len(sinks)
    return Quiver(list(quiver.vertices) + [z], list(quiver.arrows) + slack), weight


def osm_certify_degree3(
    quiver: Quiver, horizon: int | None = None, max_nodes: int = DEFAULT_MAX_NODES
) -> bool:
    """Certify the degree-3 bound for the one-sided-matching semigroup:
    `certify_degree_bound` on the semigroup of the matching polytope
    (`_matching_polytope`), which is the matching semigroup.

    Scans degrees in (3, horizon]; the default horizon is d + 2 - codeg of
    the matching polytope, and an empty one leaves nothing to scan.
    """
    check_degree_bound(3, horizon)
    semigroup = GradedSemigroup(*_matching_polytope(quiver), max_nodes)
    return certify_degree_bound(semigroup, 3, horizon)[0]


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
    guards = _pack([1 << 2] * len(arrow_ids), 2)
    eps = []  # a sum of two cycles is at most 2 on each arrow: fields of width 2
    for c in primitive_cycles(quiver):
        vec = c.epsilon(quiver)
        eps.append(_pack([vec[a] for a in arrow_ids], 2))
    budget = _NodeBudget(max_nodes)
    best = 0

    def decompositions(rest: int, start: int, picked: list, banned: tuple):
        """Each way to write the guarded `rest` as a sum of the cycles from
        `start` on; a cycle fits under it when no field borrows its guard."""
        nonlocal best
        budget.spend()
        if rest == guards:
            if tuple(picked) != banned:
                best = max(best, len(picked))
            return
        for i in range(start, len(eps)):
            left = rest - eps[i]
            if left & guards == guards:
                picked.append(i)
                decompositions(left, i, picked, banned)
                picked.pop()

    for i in range(len(eps)):
        for j in range(i, len(eps)):
            decompositions((eps[i] + eps[j]) | guards, 0, [], (i, j))
    del decompositions  # a recursive closure is a reference cycle: unbind it
    return best
