"""Built-in worked examples and golden-file management.

The corpus is a fixed set of small quiver-weight pairs and quiver lists
shared by the tests and the command line:

* the five surface pairs realizing the 2-dimensional classes, in the
  order used throughout (plane, one to three blow-ups, product of lines);
* crossed-ladder pairs meeting the vertex/arrow size bounds with
  equality, for cycle ranks 3 and 4;
* cycle-with-reversals pairs demonstrating the affine degree bound, for
  ranks d = 3, 4, 5 (the relation degree equals d);
* the sink subdivisions of the two 3-regular rank-3 skeletons;
* the zero-weight lists for cycle ranks 1 through 4;
* complete bipartite quivers K(2,2) and K(3,3) with unit weights.

Every document serializes deterministically through `jsonout.dumps`
(sorted keys, two-space indent) plus a trailing newline, so regeneration
is byte-identical.
"""

from __future__ import annotations

from pathlib import Path

from .classify import build_Rd_quiver, enumerate_affine_Rdd
from .jsonout import dumps
from .multigraph import Multigraph
from .quiver import Arrow, Quiver, canonical_weight


def two_source_fan(weights=(-1, 1, 1, 1, -2)) -> tuple[Quiver, dict]:
    """Two sources jointly feeding three sinks; weight order
    (s, m1, m2, m3, t)."""
    quiver = Quiver(
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
    return quiver, {"s": s, "m1": m1, "m2": m2, "m3": m3, "t": t}


def disjoint_kroneckers() -> tuple[Quiver, dict]:
    """Disjoint union of two 2-arrow quivers, each with weight (-1, 1)."""
    quiver = Quiver(
        ["p", "q", "r", "s"],
        [
            Arrow("a1", "p", "q"),
            Arrow("a2", "p", "q"),
            Arrow("b1", "r", "s"),
            Arrow("b2", "r", "s"),
        ],
    )
    return quiver, {"p": -1, "q": 1, "r": -1, "s": 1}


def surface_listing() -> list[tuple[str, str, Quiver, dict]]:
    """The five surface pairs as (file stem, class name, quiver, weight),
    in listing order."""
    out = []
    for stem, name, weights in [
        ("surface_p2", "P2", (-1, 1, 1, 1, -2)),
        ("surface_bl1p2", "Bl1P2", (-3, 2, 1, 2, -2)),
        ("surface_bl2p2", "Bl2P2", (-4, 3, 2, 2, -3)),
        ("surface_bl3p2", "Bl3P2", (-3, 2, 2, 2, -3)),
    ]:
        quiver, weight = two_source_fan(weights)
        out.append((stem, name, quiver, weight))
    quiver, weight = disjoint_kroneckers()
    out.append(("surface_p1xp1", "P1xP1", quiver, weight))
    return out


def crossed_ladder_graph(d: int) -> Multigraph:
    """3-regular graph on 2(d-1) vertices of cycle rank d: two parallel
    paths joined by a rung in every column plus two crossing end
    diagonals.  Removing any two edges leaves it connected."""
    cols = d - 1
    top = [f"t{i}" for i in range(cols)]
    bot = [f"b{i}" for i in range(cols)]
    edges = []
    for i in range(cols - 1):
        edges.append((top[i], top[i + 1]))
        edges.append((bot[i], bot[i + 1]))
    for i in range(cols):
        edges.append((top[i], bot[i]))
    edges.append((top[0], bot[cols - 1]))
    edges.append((bot[0], top[cols - 1]))
    return Multigraph(top + bot, edges)


def crossed_ladder_pair(d: int) -> tuple[Quiver, dict]:
    """Sink subdivision of the crossed ladder with its indegree-minus-
    outdegree weight; tight, with 5(d-1) vertices and 6(d-1) arrows."""
    graph = crossed_ladder_graph(d)
    quiver = build_Rd_quiver(graph, ["sink"] * len(graph.edges))
    return quiver, canonical_weight(quiver)


def cycle_with_reversals(d: int) -> tuple[Quiver, dict]:
    """Oriented d-cycle plus the reversal of every arrow, zero weight."""
    verts = [f"v{i}" for i in range(d)]
    arrows = []
    for i in range(d):
        arrows.append(Arrow(f"a{i}", verts[i], verts[(i + 1) % d]))
        arrows.append(Arrow(f"b{i}", verts[(i + 1) % d], verts[i]))
    return Quiver(verts, arrows), {v: 0 for v in verts}


def doubled_square_graph() -> Multigraph:
    """4-cycle with two opposite edges doubled."""
    return Multigraph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "b"), ("b", "c"), ("c", "d"), ("c", "d"), ("d", "a")],
    )


def complete_four_graph() -> Multigraph:
    verts = ["a", "b", "c", "d"]
    edges = [
        (u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]
    ]
    return Multigraph(verts, edges)


def rank_three_subdivisions() -> list[tuple[str, Quiver, dict]]:
    """Sink subdivisions of the two 3-regular rank-3 skeletons with their
    canonical weights.  The doubled-square one is not tight and reduces to
    a 8-vertex, 10-arrow pair; the complete-graph one is already tight."""
    out = []
    for stem, graph in [
        ("subdivided_doubled_square", doubled_square_graph()),
        ("subdivided_complete4", complete_four_graph()),
    ]:
        quiver = build_Rd_quiver(graph, ["sink"] * len(graph.edges))
        out.append((stem, quiver, canonical_weight(quiver)))
    return out


def complete_bipartite_pair(n: int) -> tuple[Quiver, dict]:
    """K(n,n) with every source at weight -1 and every sink at +1."""
    sources = [f"u{i}" for i in range(n)]
    sinks = [f"w{j}" for j in range(n)]
    arrows = [
        Arrow(f"a{i}_{j}", sources[i], sinks[j])
        for i in range(n)
        for j in range(n)
    ]
    weight = {v: -1 for v in sources} | {v: 1 for v in sinks}
    return Quiver(sources + sinks, arrows), weight


def corpus_pairs() -> list[tuple[str, Quiver, dict]]:
    """Every corpus quiver-weight pair as (file stem, quiver, weight)."""
    out = [(stem, q, w) for stem, _name, q, w in surface_listing()]
    for d in (3, 4):
        q, w = crossed_ladder_pair(d)
        out.append((f"ladder_d{d}", q, w))
    for d in (3, 4, 5):
        q, w = cycle_with_reversals(d)
        out.append((f"affine_degree_d{d}", q, w))
    out.extend(rank_three_subdivisions())
    for n in (2, 3):
        q, w = complete_bipartite_pair(n)
        out.append((f"bipartite_k{n}{n}", q, w))
    return out


def acyclic_corpus_pairs() -> list[tuple[str, Quiver, dict]]:
    """The corpus pairs whose quiver has no oriented cycle (the surface,
    ladder, subdivision, and bipartite families)."""
    from .quiver import is_acyclic

    return [(stem, q, w) for stem, q, w in corpus_pairs() if is_acyclic(q)]


def corpus_documents() -> dict[str, dict]:
    """All golden documents keyed by file name."""
    docs: dict[str, dict] = {}
    for stem, quiver, weight in corpus_pairs():
        docs[f"{stem}.json"] = quiver.to_dict(weight)
    for d in (1, 2, 3, 4):
        members = enumerate_affine_Rdd(d)
        docs[f"affine_list_d{d}.json"] = {
            "count": len(members),
            "members": [q.to_dict() for q in members],
        }
    return docs


def serialize_document(doc: dict) -> str:
    return dumps(doc) + "\n"


def regenerate(directory) -> list[str]:
    """Render every golden file, then write each under the directory;
    returns the file names, sorted.  Rerunning gives byte-identical files."""
    texts = {name: serialize_document(doc) for name, doc in sorted(corpus_documents().items())}
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text)
    return list(texts)

