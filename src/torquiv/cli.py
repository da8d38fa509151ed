"""Command-line front end.

One binary, subcommands per library operation.  Inputs are quiver JSON
files (``vertices``, ``arrows``, optional ``weight``); outputs are JSON on
standard output (``--format csv`` for the tabular listings).  Verdict
commands emit a certificate carrying the command name, a digest of the
input bytes, the effective parameters, the verdict, and any witnesses, so
a rerun on the same input reproduces the output byte for byte.

JSON output is byte for byte what `json.dumps` prints with a two-space
indent and sorted keys, plus a newline; the error lines of exit 1 are one
compact line.  The ``tighten --trace`` file and the corpus files come from
the same writer, `jsonout.dumps`.

Exit codes: 0 success, 1 malformed input or usage, 2 structured domain
errors (empty or unbounded polyhedra, unsupported cases, search caps).
All arithmetic is exact; no floats appear in any output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .classify import (
    enumerate_affine_Rdd,
    enumerate_maximal_skeletons,
    enumerate_skeletons,
    normal_fan_2d,
    surface_name,
)
from .corpus import regenerate
from .errors import DomainError, InputError, SearchCapExceeded, UnsupportedCase
from .ideal import (
    GradedSemigroup,
    affine_relation_degree,
    certify_degree_bound,
    check_degree_bound,
    check_max_degree,
    minimal_generators,
    osm_certify_degree3,
    osm_lattice_points,
)
from .jsonout import dumps
from .polytope import (
    DEFAULT_MAX_NODES,
    check_normality,
    lattice_points,
    vertices,
)
from .quiver import Quiver, quiver_from_dict
from .reductions import (
    double_quiver,
    prime_decompose,
    skeleton,
    tighten,
    vertex_localization,
)


def _print_json(obj) -> None:
    print(dumps(obj))


def _error_json(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}, sort_keys=True))


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are structured JSON at exit 1."""

    def error(self, message):
        _error_json("InputError", message)
        raise SystemExit(1)


def _load_file(path: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # invalid UTF-8, or an integer past the int-string digit limit
        raise InputError(f"{path} cannot be read: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests its JSON too deeply to read") from None
    return data, digest


def _load_pair(path: str) -> tuple[Quiver, dict | None, str]:
    data, digest = _load_file(path)
    quiver, weight = quiver_from_dict(data)
    return quiver, weight, digest


def _required_weight(weight: dict | None, path: str) -> dict:
    if weight is None:
        raise InputError(f"{path}: missing field 'weight'")
    return weight


def _csv_table(flows, quiver: Quiver) -> str:
    order = quiver.sorted_arrow_ids()
    lines = [",".join(order)]
    for f in flows:
        lines.append(",".join(str(f[a]) for a in order))
    return "\n".join(lines)


def _certificate(command, digest, parameters, verdict, witnesses) -> dict:
    return {
        "command": command,
        "input_digest": digest,
        "parameters": parameters,
        "tool_version": __version__,
        "verdict": verdict,
        "witnesses": witnesses,
    }


# -- subcommand handlers -------------------------------------------------------


def _cmd_lattice_points(args):
    quiver, weight, digest = _load_pair(args.file)
    weight = _required_weight(weight, args.file)
    points = lattice_points(quiver, weight, args.degree, args.max_nodes)
    if args.format == "csv":
        return _csv_table(points, quiver)
    return {
        "command": "lattice-points",
        "count": len(points),
        "degree": args.degree,
        "input_digest": digest,
        "points": points,
    }


def _cmd_vertices(args):
    quiver, weight, digest = _load_pair(args.file)
    weight = _required_weight(weight, args.file)
    corners = vertices(quiver, weight, args.max_nodes)
    if args.format == "csv":
        return _csv_table(corners, quiver)
    return {
        "command": "vertices",
        "count": len(corners),
        "input_digest": digest,
        "vertices": corners,
    }


def _cmd_normality(args):
    quiver, weight, digest = _load_pair(args.file)
    weight = _required_weight(weight, args.file)
    verdict, witness = check_normality(quiver, weight, args.k, args.max_nodes)
    return _certificate(
        "normality",
        digest,
        {"k": args.k, "max_nodes": args.max_nodes},
        verdict,
        witness,
    )


def _cmd_tighten(args):
    quiver, weight, digest = _load_pair(args.file)
    weight = _required_weight(weight, args.file)
    tq, tw, trace = tighten(quiver, weight)
    result = {
        "command": "tighten",
        "input_digest": digest,
        "moves": len(trace.moves),
        "quiver": tq.to_dict(tw),
    }
    if args.trace:
        Path(args.trace).write_text(dumps(trace.to_json()) + "\n")
        result["trace_file"] = args.trace
    return result


def _cmd_decompose(args):
    quiver, weight, digest = _load_pair(args.file)
    weight = _required_weight(weight, args.file)
    factors = prime_decompose(quiver, weight)
    return {
        "command": "decompose",
        "count": len(factors),
        "factors": [q.to_dict(w) for q, w in factors],
        "input_digest": digest,
    }


def _cmd_skeleton(args):
    quiver, _weight, digest = _load_pair(args.file)
    graph = skeleton(quiver)
    return {
        "command": "skeleton",
        "input_digest": digest,
        "skeleton": graph.to_json(),
    }


def _cmd_double(args):
    quiver, weight, digest = _load_pair(args.file)
    weight = _required_weight(weight, args.file)
    dq, dw = double_quiver(quiver, weight, args.d)
    return {
        "command": "double",
        "input_digest": digest,
        "parameters": {"d": args.d},
        "quiver": dq.to_dict(dw),
    }


def _cmd_localize(args):
    quiver, weight, digest = _load_pair(args.file)
    weight = _required_weight(weight, args.file)
    corners = vertices(quiver, weight, args.max_nodes)
    if not 0 <= args.vertex_index < len(corners):
        raise InputError(
            f"vertex index {args.vertex_index} out of range; "
            f"the polyhedron has {len(corners)} vertices"
        )
    local = vertex_localization(quiver, weight, corners[args.vertex_index])
    return {
        "command": "localize",
        "input_digest": digest,
        "parameters": {"vertex_index": args.vertex_index},
        "quiver": local.to_dict({v: 0 for v in local.vertices}),
        "vertex": corners[args.vertex_index],
    }


def _cmd_ideal_gens(args):
    quiver, weight, digest = _load_pair(args.file)
    weight = _required_weight(weight, args.file)
    check_max_degree(args.max_degree)
    semigroup = GradedSemigroup(quiver, weight, args.max_nodes)
    gens = minimal_generators(semigroup, args.max_degree)
    order = semigroup.arrow_ids
    return {
        "command": "ideal-gens",
        "count": len(gens),
        "generators": [
            {
                "degree": g.degree,
                "image": dict(zip(order, g.image)),
                "left": list(g.left),
                "right": list(g.right),
            }
            for g in gens
        ],
        "index_table": [
            {"flow": dict(zip(order, flow)), "index": i}
            for i, flow in enumerate(semigroup.generators)
        ],
        "input_digest": digest,
        "parameters": {"max_degree": args.max_degree},
    }


def _cmd_certify(args):
    quiver, weight, digest = _load_pair(args.file)
    weight = _required_weight(weight, args.file)
    check_degree_bound(args.bound, args.horizon)
    semigroup = GradedSemigroup(quiver, weight, args.max_nodes)
    verdict, violation = certify_degree_bound(semigroup, args.bound, args.horizon)
    witnesses = None
    if violation is not None:
        witnesses = {
            "degree": violation.degree,
            "element": dict(zip(semigroup.arrow_ids, violation.element)),
        }
    note = (
        "scanned degrees in (bound, horizon]; horizon defaults to "
        "dimension + 2 - codegree, above which no minimal generator lies"
    )
    return _certificate(
        "certify",
        digest,
        {
            "bound": args.bound,
            "horizon": args.horizon,
            "horizon_policy": note,
            "max_nodes": args.max_nodes,
        },
        verdict,
        witnesses,
    )


def _cmd_affine_degree(args):
    quiver, _weight, digest = _load_pair(args.file)
    value = affine_relation_degree(quiver, args.max_nodes)
    return _certificate(
        "affine-degree",
        digest,
        {"max_nodes": args.max_nodes},
        value,
        None,
    )


def _cmd_osm(args):
    if args.certify and args.format == "csv":
        raise InputError("argument --format csv: not allowed with argument --certify")
    if not args.certify and args.horizon is not None:
        raise InputError("argument --horizon: needs argument --certify")
    quiver, _weight, digest = _load_pair(args.file)
    if args.certify:
        verdict = osm_certify_degree3(quiver, args.horizon, args.max_nodes)
        return _certificate(
            "osm",
            digest,
            {"certify": True, "horizon": args.horizon, "max_nodes": args.max_nodes},
            verdict,
            None,
        )
    matchings = osm_lattice_points(quiver, args.max_nodes)
    if args.format == "csv":
        return _csv_table(matchings, quiver)
    return {
        "command": "osm",
        "count": len(matchings),
        "input_digest": digest,
        "points": matchings,
    }


def _cmd_skeletons(args):
    members = (
        enumerate_maximal_skeletons(args.d)
        if args.maximal
        else enumerate_skeletons(args.d)
    )
    return {
        "command": "skeletons",
        "count": len(members),
        "maximal": bool(args.maximal),
        "members": [g.to_json() for g in members],
        "parameters": {"d": args.d},
    }


def _cmd_affine_list(args):
    members = enumerate_affine_Rdd(args.d)
    return {
        "command": "affine-list",
        "count": len(members),
        "members": [q.to_dict() for q in members],
        "parameters": {"d": args.d},
    }


def _cmd_classify2d(args):
    quiver, weight, digest = _load_pair(args.file)
    weight = _required_weight(weight, args.file)
    fan = normal_fan_2d(quiver, weight, args.max_nodes)
    return _certificate(
        "classify2d",
        digest,
        {"max_nodes": args.max_nodes},
        surface_name(fan),
        {"rays": [list(r) for r in fan.rays]},
    )


def _cmd_corpus_regen(args):
    names = regenerate(args.out)
    return {
        "command": "corpus-regen",
        "count": len(names),
        "directory": str(args.out),
        "written": names,
    }


# -- parser ---------------------------------------------------------------------


def _node_cap(text: str) -> int:
    """A --max-nodes value: an integer of at least 1."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


# the commands whose searches read --max-nodes; the others refuse the flag
_CAPPED = frozenset(
    "lattice-points vertices normality localize ideal-gens certify affine-degree osm classify2d".split()
)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call and reused for the process."""
    common = _Parser(add_help=False)
    common.add_argument(
        "--max-nodes",
        type=_node_cap,
        default=DEFAULT_MAX_NODES,
        help="search node cap for enumerations (default 10^7)",
    )

    parser = _Parser(prog="torquiv", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="command")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, parents=[common] if name in _CAPPED else [])
        p.set_defaults(handler=handler)
        return p

    p = add(
        "lattice-points",
        _cmd_lattice_points,
        "integer flows of the (dilated) quiver polytope",
    )
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("vertices", _cmd_vertices, "extreme points of the quiver polyhedron")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add(
        "normality",
        _cmd_normality,
        "certify that degree-k lattice points split into k degree-1 points",
    )
    p.add_argument("file")
    p.add_argument("--k", type=int, default=2)

    p = add("tighten", _cmd_tighten, "remove/contract arrows until tight")
    p.add_argument("file")
    p.add_argument("--trace", help="write the move-by-move trace to this file")

    p = add("decompose", _cmd_decompose, "prime factors of the pair")
    p.add_argument("file")

    p = add("skeleton", _cmd_skeleton, "underlying graph on the valency->=3 vertices")
    p.add_argument("file")

    p = add("double", _cmd_double, "bipartite double of the pair")
    p.add_argument("file")
    p.add_argument("--d", type=int, required=True)

    p = add("localize", _cmd_localize, "contract the support of one polytope vertex")
    p.add_argument("file")
    p.add_argument("--vertex-index", type=int, required=True)

    p = add(
        "ideal-gens",
        _cmd_ideal_gens,
        "minimal binomial generators of the toric ideal up to a degree",
    )
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, required=True)

    p = add(
        "certify",
        _cmd_certify,
        "certify a generation degree bound for the toric ideal",
    )
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--horizon", type=int, default=None)

    p = add(
        "affine-degree",
        _cmd_affine_degree,
        "largest relation degree of the zero-weight cycle semigroup",
    )
    p.add_argument("file")

    p = add("osm", _cmd_osm, "one-sided matchings of a bipartite quiver")
    p.add_argument("file")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("skeletons", _cmd_skeletons, "graph lists behind the classification")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--maximal", action="store_true")

    p = add("affine-list", _cmd_affine_list, "zero-weight quiver list at a cycle rank")
    p.add_argument("--d", type=int, required=True)

    p = add("classify2d", _cmd_classify2d, "name the surface of a 2-dimensional pair")
    p.add_argument("file")

    p = add("corpus-regen", _cmd_corpus_regen, "rewrite the golden example corpus")
    p.add_argument("--out", default="corpus")

    return parser


def main(argv=None) -> int:
    """Run one command; exit 1 without a traceback when standard output
    closes before everything is written (say, piped into `head`)."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the flush at interpreter exit fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    if not getattr(args, "handler", None):
        _error_json("InputError", "a subcommand is required (see torquiv --help)")
        return 1
    try:
        result = args.handler(args)
        if isinstance(result, str):
            print(result)
        else:
            _print_json(result)  # renders in full before it writes
    except InputError as exc:
        _error_json("InputError", str(exc))
        return 1
    except DomainError as exc:
        _print_json(exc.to_json())
        return 2
    except RecursionError:
        exc = SearchCapExceeded(
            "search went deeper than the recursion limit",
            recursion_limit=sys.getrecursionlimit(),
        )
        _print_json(exc.to_json())
        return 2
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        exc = UnsupportedCase(
            f"an output integer has more than {limit} digits, the int-to-string limit",
            max_str_digits=limit,
        )
        _print_json(exc.to_json())
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
