"""The three benchmark workloads.

Each workload turns a seed into a deck of rounds, each round a list of
jobs, during set-up; no job runs then.  A job is one library call sequence
(`certify`, `classify`) or one command-line request sent in-process through
`torquiv.cli.main` (`geometry`).  `run` executes a job and returns its
canonical output text; `check` validates that output outside the timed
region and returns a failure message or None.

Every round holds the same mix of job kinds, so a run that completes whole
rounds measures the same mix on every seed; the seed picks the random
inputs inside that mix.  A deck holds `ROUNDS` rounds, a few more than a
run of the declared length gets through, so a run measures each round's
inputs once.  Inputs are filtered on input properties only
(arrow counts, degree-one lattice point counts), never by running a job.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import warnings
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Job:
    key: str  # "<round>.<index>": stable across runs of the same seed
    kind: str
    args: tuple


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _is_bipartite(quiver) -> bool:
    return all(quiver.indegree(v) == 0 or quiver.outdegree(v) == 0 for v in quiver.vertices)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _silenced(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


class Workload:
    name = ""
    ROUNDS = 24

    def __init__(self, tq, root: Path, work: Path, seed: int):
        self.tq = tq  # the imported torquiv package; submodules are attributes
        self.root = root
        self.work = work
        self.seed = seed

    def build(self, rounds: int) -> list[list[Job]]:
        raise NotImplementedError

    def run(self, job: Job) -> str:
        raise NotImplementedError

    def check(self, job: Job, output: str) -> str | None:
        raise NotImplementedError

    def bytes_out(self, output: str) -> int:
        """Bytes the job printed on standard output (CLI jobs only)."""
        return 0


# -- certify -------------------------------------------------------------------


class Certify(Workload):
    """Degree-3 certification by direct library calls.

    A round is the 16 fixed pairs plus `DRAWS` seeded draws.  Four fixed
    pairs (the doubled-triangle double at d = 2, the rank-3 ladder and the
    two rank-3 subdivisions) take a fifth to half a second; with 35 jobs a
    round the 90th percentile falls in the middle of the fourth of them,
    not at the edge between two job sizes."""

    name = "certify"
    DRAWS = 19
    SMALL_POINTS = 10  # pairs with at most this many degree-1 points also get minimal_generators
    OSM_MAX_ARROWS = 9  # bipartite pairs up to this size also get osm_certify_degree3

    def fixed_pairs(self) -> list[tuple[str, object, dict]]:
        corpus = self.tq.corpus
        Arrow, Quiver = self.tq.quiver.Arrow, self.tq.quiver.Quiver
        pairs = [p for p in corpus.acyclic_corpus_pairs() if p[0] != "ladder_d4"]
        two_cycle = Quiver(["u", "v"], [Arrow("a", "u", "v"), Arrow("b", "v", "u")])
        triangle = Quiver(
            ["x", "y", "z"],
            [Arrow("a", "x", "y"), Arrow("b", "y", "z"), Arrow("c", "z", "x")],
        )
        seeds = [
            ("two_cycle", two_cycle),
            ("doubled_triangle", corpus.cycle_with_reversals(3)[0]),
            ("triangle", triangle),
        ]
        for stem, quiver in seeds:
            for d in (1, 2):
                doubled, weight = self.tq.reductions.double_quiver(
                    quiver, {v: 0 for v in quiver.vertices}, d
                )
                pairs.append((f"double_{stem}_{d}", doubled, weight))
        return pairs

    def draw(self, rng: random.Random):
        """A random acyclic pair (arrows run from lower to higher vertex
        index) with a zero-sum weight, kept when its cycle rank and its
        number of degree-1 lattice points lie in the sized window.

        The window bounds the graded pieces the certificate scans: draws
        of cycle rank 5 and up with a dozen or more degree-1 points reach
        pieces of 10^4 elements and take seconds, which would let a single
        draw set a run's throughput and memory."""
        Arrow, Quiver = self.tq.quiver.Arrow, self.tq.quiver.Quiver
        polytope, errors = self.tq.polytope, self.tq.errors
        while True:
            n = rng.randint(3, 5)
            verts = [f"v{i}" for i in range(n)]
            arrows = []
            for k in range(rng.randint(5, 8)):
                i = rng.randint(0, n - 2)
                j = rng.randint(i + 1, n - 1)
                arrows.append(Arrow(f"a{k}", verts[i], verts[j]))
            w = [rng.randint(-3, 3) for _ in range(n - 1)]
            w.append(-sum(w))
            quiver, weight = Quiver(verts, arrows), dict(zip(verts, w))
            if self.tq.quiver.euler_characteristic(quiver) > 4:
                continue
            try:
                points = _silenced(polytope.lattice_points, quiver, weight, 1, 20_000)
            except errors.SearchCapExceeded:
                continue
            if 5 <= len(points) <= 12:
                return quiver, weight, len(points)

    def build(self, rounds):
        rng = _rng(self.name, self.seed)
        fixed = []
        for stem, quiver, weight in self.fixed_pairs():
            points = _silenced(self.tq.polytope.lattice_points, quiver, weight, 1)
            fixed.append((stem, quiver, weight, len(points)))
        deck = []
        for r in range(rounds):
            items = list(fixed)
            for k in range(self.DRAWS):
                quiver, weight, npoints = self.draw(rng)
                items.append((f"draw{k}", quiver, weight, npoints))
            rng.shuffle(items)
            deck.append(
                [
                    Job(
                        f"{r}.{i}",
                        "certify",
                        (
                            stem,
                            quiver,
                            weight,
                            npoints <= self.SMALL_POINTS,
                            _is_bipartite(quiver) and len(quiver.arrows) <= self.OSM_MAX_ARROWS,
                        ),
                    )
                    for i, (stem, quiver, weight, npoints) in enumerate(items)
                ]
            )
        return deck

    def run(self, job):
        ideal = self.tq.ideal
        _stem, quiver, weight, small, osm = job.args
        semigroup = ideal.GradedSemigroup(quiver, weight)
        verdict, violation = ideal.certify_degree_bound(semigroup, 3)
        out = {"generators": len(semigroup.generators), "verdict": verdict}
        if violation is not None:
            out["violation"] = [violation.degree, list(violation.element)]
        if small:
            out["minimal"] = [
                [g.degree, list(g.image), list(g.left), list(g.right)]
                for g in ideal.minimal_generators(semigroup, 4)
            ]
        if osm:
            out["osm"] = ideal.osm_certify_degree3(quiver)
        return _dumps(out)

    def check(self, job, output):
        out = json.loads(output)
        stem = job.args[0]
        if out["verdict"] is not True:
            return f"{stem}: degree-3 bound not certified"
        if out.get("osm", True) is not True:
            return f"{stem}: one-sided matchings not certified"
        if any(g[0] > 3 for g in out.get("minimal", ())):
            return f"{stem}: minimal generator above degree 3"
        return None


# -- geometry ------------------------------------------------------------------


class Geometry(Workload):
    """Polytope geometry requests through the command-line front end."""

    name = "geometry"
    ROUNDS = 64
    RANK3_PER_ROUND = 3
    SURFACE_EXTRAS = (["vertices"], ["normality", "--k", "3"], ["lattice-points", "--degree", "3"])

    def build(self, rounds):
        tq = self.tq
        corpus, classify = tq.corpus, tq.classify
        rng = _rng(self.name, self.seed)
        rank3 = list(classify.enumerate_Rd(3))
        rng.shuffle(rank3)  # then taken in turn, so a deck uses every quiver about equally
        ladder4 = corpus.crossed_ladder_graph(4)
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)

        def write(name, quiver, weight) -> str:
            path = inputs / f"{name}.json"
            path.write_text(json.dumps(quiver.to_dict(weight), indent=2, sort_keys=True) + "\n")
            return str(path)

        surfaces = [
            (stem, label, write(stem, q, w)) for stem, label, q, w in corpus.surface_listing()
        ]
        affine = [
            write(f"affine_degree_d{d}", *corpus.cycle_with_reversals(d)) for d in (3, 4, 5)
        ]
        deck = []
        for r in range(rounds):
            requests = []  # (argv, facts for the check)
            # the command options rotate with the round, so every deck has the same mix of them
            for k, (stem, label, path) in enumerate(surfaces):
                requests.append((["classify2d", path], {"label": label}))
                extra = self.SURFACE_EXTRAS[(r + k) % len(self.SURFACE_EXTRAS)]
                requests.append(([extra[0], path, *extra[1:]], {"acyclic": True}))
            for i in range(self.RANK3_PER_ROUND):
                n = r * self.RANK3_PER_ROUND + i
                quiver = rank3[n % len(rank3)]
                weight = self.seeded_weight(rng, quiver)
                path = write(f"r{r}_rank3_{i}", quiver, weight)
                for argv in (
                    ["vertices", path],
                    ["tighten", path],
                    ["localize", path, "--vertex-index", "0"],
                    ["normality", path, "--k", str(2 + n % 2)],
                    ["lattice-points", path, "--degree", str(1 + n % 3)],
                    ["decompose", path],
                ):
                    requests.append((argv, {"acyclic": True}))
            quiver = self.rank4_subdivision(rng, ladder4)
            path = write(f"r{r}_rank4", quiver, self.seeded_weight(rng, quiver))
            for argv in (
                ["vertices", path],
                ["tighten", path],
                ["lattice-points", path, "--degree", str(1 + r % 2)],
                ["decompose", path],
            ):
                requests.append((argv, {"acyclic": True}))
            path = affine[r % len(affine)]
            for argv in (["vertices", path], ["tighten", path], ["decompose", path]):
                requests.append((argv, {"acyclic": False}))
            rng.shuffle(requests)
            deck.append(
                [Job(f"{r}.{i}", argv[0], (argv, facts)) for i, (argv, facts) in enumerate(requests)]
            )
        return deck

    @staticmethod
    def seeded_weight(rng: random.Random, quiver) -> dict:
        """Divergence of a random flow with entries 0..2 and at least one 1:
        the polyhedron then contains that flow, so it is never empty."""
        flow = {a.id: rng.choice((0, 1, 1, 2)) for a in quiver.arrows}
        flow[rng.choice(quiver.arrows).id] = 1
        weight = {v: 0 for v in quiver.vertices}
        for a in quiver.arrows:
            weight[a.head] += flow[a.id]
            weight[a.tail] -= flow[a.id]
        return weight

    def rank4_subdivision(self, rng: random.Random, graph):
        """The rank-4 crossed ladder with three edges subdivided by sinks
        and the others oriented along a random vertex order: 12 arrows, so
        one vertices call stays near a tenth of a second (the full sink
        subdivision, 18 arrows, takes about ten seconds)."""
        order = list(graph.vertices)
        rng.shuffle(order)
        rank = {v: i for i, v in enumerate(order)}
        sinks = set(rng.sample(range(len(graph.edges)), 3))
        choices = []
        for k, (u, v) in enumerate(graph.edges):
            if k in sinks:
                choices.append("sink")
            else:
                choices.append("forward" if rank[u] < rank[v] else "backward")
        return self.tq.classify.build_Rd_quiver(graph, choices)

    def run(self, job):
        argv, _facts = job.args
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.tq.cli.main(list(argv))
        return f"{code}\n{buffer.getvalue()}"  # exit code, then what the command printed

    def bytes_out(self, output):
        return len(output.partition("\n")[2].encode())

    def check(self, job, output):
        argv, facts = job.args
        code, _, stdout = output.partition("\n")
        if code != "0":
            return f"{argv[0]}: exit code {code}: {stdout[:200]}"
        result = json.loads(stdout)
        command = argv[0]
        quiver, weight = self.tq.quiver.quiver_from_dict(json.loads(Path(argv[1]).read_text()))
        if command == "classify2d" and result["verdict"] != facts["label"]:
            return f"classify2d named {result['verdict']}, expected {facts['label']}"
        if command == "normality" and result["verdict"] is not True:
            return "normality not certified"
        if command in ("vertices", "lattice-points"):
            flows = result["vertices" if command == "vertices" else "points"]
            k = result.get("degree", 1)
            if result["count"] != len(flows) or not flows:
                return f"{command}: count {result['count']} for {len(flows)} flows"
            for flow in flows:
                div = self.tq.quiver.divergence(quiver, flow)
                if any(div[v] != k * weight[v] for v in quiver.vertices):
                    return f"{command}: flow off the weight"
        if command == "tighten" and facts["acyclic"]:
            tight, tight_weight = self.tq.quiver.quiver_from_dict(result["quiver"])
            before = _silenced(self.tq.polytope.lattice_points, quiver, weight, 1)
            after = _silenced(self.tq.polytope.lattice_points, tight, tight_weight, 1)
            if len(before) != len(after):
                return f"tighten changed the degree-1 count {len(before)} -> {len(after)}"
        if command == "localize" and any(result["quiver"]["weight"].values()):
            return "localize left a nonzero weight"
        if command == "decompose" and result["count"] != len(result["factors"]):
            return "decompose count mismatch"
        return None


# -- classify --------------------------------------------------------------------


class Classify(Workload):
    """Finite classification lists, corpus regeneration and isomorphism lookups.

    A list job runs one enumerator for every rank it supports here; the
    four list jobs take a third to half a second each.  With `LOOKUPS`
    lookups of a few tenths of a millisecond in each round of 25 jobs, the
    median falls among the lookups and the 90th percentile inside the list
    jobs, never in the gap between two job sizes."""

    name = "classify"
    LOOKUPS = 19
    COUNTS = {
        "skeletons": {2: 1, 3: 4, 4: 17},
        "maximal": {2: 1, 3: 2, 4: 5},
        "Rd": {1: 1, 2: 4, 3: 131},
        "affine": {1: 1, 2: 0, 3: 1, 4: 3, 5: 10},
    }

    def build(self, rounds):
        tq = self.tq
        rng = _rng(self.name, self.seed)
        affine_members = []
        for d in (1, 2, 3, 4):
            doc = json.loads((self.root / "corpus" / f"affine_list_d{d}.json").read_text())
            affine_members += [tq.quiver.quiver_from_dict(m)[0] for m in doc["members"]]
        members = tq.classify.enumerate_Rd(2) + tq.classify.enumerate_Rd(3) + affine_members
        self.member_keys = {tq.classify.quiver_key(q): i for i, q in enumerate(members)}
        cycles = [(d, tq.corpus.cycle_with_reversals(d)[0]) for d in (3, 4, 5)]
        fixed = [(kind, ()) for kind in self.COUNTS]
        fixed.append(("affine_degree", (affine_members, cycles)))
        fixed.append(("regenerate", ()))
        order = list(range(len(members)))
        rng.shuffle(order)  # then taken in turn, so a deck looks up every member about equally
        deck = []
        for r in range(rounds):
            items = list(fixed)
            for i in range(self.LOOKUPS):
                index = order[(r * self.LOOKUPS + i) % len(order)]
                items.append(("lookup", (index, self.relabelled(rng, members[index]))))
            rng.shuffle(items)
            deck.append([Job(f"{r}.{i}", kind, args) for i, (kind, args) in enumerate(items)])
        return deck

    def relabelled(self, rng: random.Random, quiver):
        """An isomorphic copy: fresh vertex names in random order and the
        arrows shuffled under fresh ids."""
        Arrow, Quiver = self.tq.quiver.Arrow, self.tq.quiver.Quiver
        names = [f"x{i}" for i in range(len(quiver.vertices))]
        rng.shuffle(names)
        rename = dict(zip(quiver.vertices, names))
        arrows = list(quiver.arrows)
        rng.shuffle(arrows)
        return Quiver(
            sorted(names),
            [Arrow(f"e{i}", rename[a.tail], rename[a.head]) for i, a in enumerate(arrows)],
        )

    def run(self, job):
        tq = self.tq
        classify = tq.classify
        kind, args = job.kind, job.args
        if kind in self.COUNTS:
            enumerate_ = {
                "skeletons": classify.enumerate_skeletons,
                "maximal": classify.enumerate_maximal_skeletons,
                "Rd": classify.enumerate_Rd,
                "affine": classify.enumerate_affine_Rdd,
            }[kind]
            encode = (lambda g: g.to_json()) if kind in ("skeletons", "maximal") else (lambda q: q.to_dict())
            return _dumps({str(d): [encode(x) for x in enumerate_(d)] for d in self.COUNTS[kind]})
        if kind == "affine_degree":
            members, cycles = args
            degree = tq.ideal.affine_relation_degree
            return _dumps(
                {
                    "cycles": [[d, degree(q)] for d, q in cycles],
                    "members": [[tq.quiver.euler_characteristic(q), degree(q)] for q in members],
                }
            )
        if kind == "regenerate":
            return _dumps(tq.corpus.regenerate(self.work / "corpus"))
        if kind == "lookup":
            _index, quiver = args
            return _dumps(self.member_keys.get(classify.quiver_key(quiver)))
        raise ValueError(f"unknown job kind {kind!r}")

    def check(self, job, output):
        kind, args = job.kind, job.args
        out = json.loads(output)
        if kind in self.COUNTS:
            for d, expected in self.COUNTS[kind].items():
                if len(out[str(d)]) != expected:
                    return f"{kind}({d}) listed {len(out[str(d)])}, expected {expected}"
        elif kind == "affine_degree":
            for d, value in out["cycles"]:
                if value != d:
                    return f"cycle_with_reversals({d}) has relation degree {value}"
            for rank, value in out["members"]:
                if value > rank - 1:
                    return f"affine relation degree {value} above rank - 1 = {rank - 1}"
        elif kind == "regenerate":
            reference = self.root / "corpus"
            expected = sorted(p.name for p in reference.glob("*.json"))
            if out != expected:
                return "regenerate wrote another file set than corpus/"
            for name in out:
                if (self.work / "corpus" / name).read_bytes() != (reference / name).read_bytes():
                    return f"regenerated {name} differs from corpus/{name}"
        elif kind == "lookup":
            if out != args[0]:
                return f"lookup of member {args[0]} hit {out}"
        return None


WORKLOADS = {w.name: w for w in (Certify, Geometry, Classify)}
