"""Span tracing of the library from the outside.

`Tracer.install` replaces each function of `layers.LAYERS` by a wrapper at
every binding of it inside the `torquiv` package (the defining module,
re-exports such as `torquiv.reductions.polytope_vertices`, and the package
namespace), and `GradedSemigroup.graded_piece` on its class.  The library
itself is not changed.

A span is (name, start, end, parent span, job id), kept in compact arrays
in memory and written out at the end of the run.  A span's self time is
its duration minus the part of it covered by its child spans.  The
wrappers also keep the extra counts of `layers.LAYERS`; the bookkeeping
they do outside the wrapped call is itself recorded as `trace.hooks`
spans, so it is not charged to any library layer.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

from layers import per_layer_metrics, traced_functions

HOOK_SPAN = "trace.hooks"
JOB_SPAN = "bench.job"


def self_times(start, end, parent) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the span."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0.0
        run_s = run_e = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            cs, ce = max(start[c], s), min(end[c], e)
            if ce <= cs:
                continue
            if run_e is None or cs > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = cs, ce
            else:
                run_e = max(run_e, ce)
        if run_e is not None:
            covered += run_e - run_s
        out.append((e - s) - covered)
    return out


def _arrows_fp(quiver) -> tuple:
    return tuple(sorted((a.id, a.tail, a.head) for a in quiver.arrows))


def _weight_fp(weight) -> tuple:
    return tuple(sorted(weight.items()))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def code(self, name: str) -> int:
        if name not in self._code:
            self._code[name] = len(self.names)
            self.names.append(name)
        return self._code[name]

    def open(self, code: int, now: float) -> int:
        sid = len(self.start)
        self.name_of.append(code)
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.stack.append(sid)
        return sid

    def close(self, sid: int, now: float) -> None:
        self.end[sid] = now
        self.stack.pop()

    def begin_job(self, job_id: int) -> int:
        self.job_id = job_id
        return self.open(self.code(JOB_SPAN), time.perf_counter())

    def end_job(self, sid: int) -> None:
        self.close(sid, time.perf_counter())
        self.job_id = -1

    def note_repeat(self, name: str, fingerprint) -> None:
        """Count a call, and a repeat when the input was seen before."""
        seen = self._seen[name]
        self.counts[name + ".fingerprinted"] += 1
        if fingerprint in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(fingerprint)

    def wrap(self, name: str, fn, pre=None, post=None):
        code = self.code(name)
        hook_code = self.code(HOOK_SPAN)
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if pre is not None:
                t0 = perf()
                pre(tracer, args, kwargs)
                tracer.close(tracer.open(hook_code, t0), perf())
            sid = tracer.open(code, perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid, perf())
            if post is not None:
                t0 = perf()
                post(tracer, args, kwargs, result)
                tracer.close(tracer.open(hook_code, t0), perf())
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function at every binding inside the package.
        The bindings are found on the first call; later calls re-apply the
        same wrappers, so installing around every job stays cheap."""
        if not self._patches:
            self._patches = self._bindings(package)
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped in reversed(self._patches):
            setattr(owner, attr, original)

    def _bindings(self, package) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to wrap."""
        prefix = package.__name__
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        out = []
        for layer, fn_name in traced_functions():
            mod = sys.modules[f"{prefix}.{layer}"]
            name = f"{layer}.{fn_name}"
            pre, post = _HOOKS.get(name, (None, None))
            if fn_name == "graded_piece":
                owner = mod.GradedSemigroup
                original = vars(owner)[fn_name]
                out.append((owner, fn_name, original, self.wrap(name, original, pre, post)))
                continue
            original = getattr(mod, fn_name)
            wrapped = self.wrap(name, original, pre, post)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        out.append((m, attr, original, wrapped))
        return out

    # -- results -------------------------------------------------------------

    def per_function(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name."""
        selfs = self_times(self.start, self.end, self.parent)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for code, st in zip(self.name_of, selfs):
            name = self.names[code]
            calls[name] += 1
            self_s[name] += st
        return dict(calls), dict(self_s)

    def metrics(self, overhead_ratio: float, hot: tuple[str, ...]) -> dict[str, float]:
        """Every per-layer metric of `layers.per_layer_metrics`, by name;
        `hot` names the layers that should lead the library's self time."""
        calls, self_s = self.per_function()
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        hot_share, _rival, rival_share = self.hot_layer_shares(hot)
        out: dict[str, float] = {
            "trace.overhead_ratio": overhead_ratio,
            "trace.hot_layer_share": hot_share,
            "trace.rival_layer_share": rival_share,
            "trace.hot_layer_ok": 1 if hot_share > rival_share else 0,
        }
        for layer, fn in traced_functions():
            name = f"{layer}.{fn}"
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".self_s"] = self_s.get(name, 0.0)
        for name in ("polytope.lattice_points", "polytope.vertices", "quiver.primitive_cycles"):
            out[name + ".repeat_share"] = ratio(c[name + ".repeats"], c[name + ".fingerprinted"])
        for name in (
            "polytope.lattice_points.points",
            "polytope.vertices.found",
            "ideal.graded_piece.elements",
            "reductions.tighten.moves",
            "cli.main.bytes_out",
        ):
            out[name] = c[name]
        out["ideal.certify.elements_per_s"] = ratio(
            c["ideal.certify.scanned"], self_s.get("ideal.certify_degree_bound", 0.0)
        )
        out["reductions.is_contractible.true_share"] = ratio(
            c["reductions.is_contractible.true"], calls.get("reductions.is_contractible", 0)
        )
        out["classify.build_Rd_quiver.accept_share"] = ratio(
            c["classify.build_Rd_quiver.accepted"], calls.get("classify.build_Rd_quiver", 0)
        )
        return {name: out[name] for name, _unit, _better in per_layer_metrics()}

    def hot_layer_shares(self, hot: tuple[str, ...]) -> tuple[float, str, float]:
        """(share of the `hot` layers, largest other layer, its share) of
        the library's self time, leaving out the benchmark and tracer spans."""
        library = {k: v for k, v in self.layer_self_seconds().items() if k not in ("bench", "trace")}
        total = sum(library.values())
        if not total:
            return 0.0, "none", 0.0
        hot_s = sum(library.get(k, 0.0) for k in hot)
        rival, rival_s = max(
            ((k, v) for k, v in library.items() if k not in hot), key=lambda kv: kv[1], default=("none", 0.0)
        )
        return hot_s / total, rival, rival_s / total

    def layer_self_seconds(self) -> dict[str, float]:
        """Summed self time per layer (the name's first component)."""
        _calls, self_s = self.per_function()
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self_s.items():
            out[name.split(".")[0]] += seconds
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, job."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "job"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name_of[i]],
                            self.start[i],
                            self.end[i],
                            self.parent[i],
                            self.job[i],
                        ]
                    )
                    + "\n"
                )


# -- hooks: fingerprints before a call, counts after it ------------------------


def _degree_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("k")


def _pre_lattice_points(tracer, args, kwargs):
    tracer.note_repeat(
        "polytope.lattice_points",
        (_arrows_fp(args[0]), _weight_fp(args[1]), _degree_arg(args, kwargs)),
    )


def _post_lattice_points(tracer, args, kwargs, result):
    tracer.counts["polytope.lattice_points.points"] += len(result)


def _pre_vertices(tracer, args, kwargs):
    tracer.note_repeat("polytope.vertices", (_arrows_fp(args[0]), _weight_fp(args[1])))


def _post_vertices(tracer, args, kwargs, result):
    tracer.counts["polytope.vertices.found"] += len(result)


def _pre_primitive_cycles(tracer, args, kwargs):
    tracer.note_repeat("quiver.primitive_cycles", _arrows_fp(args[0]))


def _post_graded_piece(tracer, args, kwargs, result):
    tracer.counts["ideal.graded_piece.elements"] += len(result)
    if tracer.stack:
        caller = tracer.names[tracer.name_of[tracer.stack[-1]]]
        if caller == "ideal.certify_degree_bound":
            tracer.counts["ideal.certify.scanned"] += len(result)


def _post_tighten(tracer, args, kwargs, result):
    tracer.counts["reductions.tighten.moves"] += len(result[2].moves)


def _post_is_contractible(tracer, args, kwargs, result):
    if result:
        tracer.counts["reductions.is_contractible.true"] += 1


def _post_build_Rd_quiver(tracer, args, kwargs, result):
    tracer.counts["classify.build_Rd_quiver.accepted"] += 1


_HOOKS = {
    "polytope.lattice_points": (_pre_lattice_points, _post_lattice_points),
    "polytope.vertices": (_pre_vertices, _post_vertices),
    "quiver.primitive_cycles": (_pre_primitive_cycles, None),
    "ideal.graded_piece": (None, _post_graded_piece),
    "reductions.tighten": (None, _post_tighten),
    "reductions.is_contractible": (None, _post_is_contractible),
    "classify.build_Rd_quiver": (None, _post_build_Rd_quiver),
}
