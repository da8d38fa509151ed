"""The traced layers: which functions are wrapped, which extra counts each
layer reports, and which end-to-end metric a change to the layer should
move, on which workload.

The layers are the modules of the `torquiv` package (`errors` holds no
work).  `ideal.graded_piece` is the method `GradedSemigroup.graded_piece`.
Every later performance claim cites a metric and workload named here;
`BENCHMARK.json` lists the same per-layer metric names (a test keeps the
two in step).
"""

from __future__ import annotations

# layer -> {"functions": wrapped names, "extras": {metric: (unit, better)},
#           "moves": [(layer metrics, end-to-end metric, workload), ...]}
LAYERS = {
    "polytope": {
        "functions": [
            "lattice_points",
            "vertices",
            "dimension",
            "facet_arrows",
            "check_normality",
        ],
        "extras": {
            "polytope.lattice_points.points": ("count", "lower"),
            "polytope.lattice_points.repeat_share": ("1", "lower"),
            "polytope.vertices.found": ("count", "lower"),
            "polytope.vertices.repeat_share": ("1", "lower"),
        },
        "moves": [
            ("polytope.vertices.*", "jobs_per_s", "geometry"),
            ("polytope.vertices.*", "job_p90_ms", "geometry"),
            ("polytope.lattice_points.*", "job_p90_ms", "certify"),
            ("polytope.lattice_points.*", "peak_rss_mb", "certify"),
            ("polytope.lattice_points.*", "job_p50_ms", "geometry"),
        ],
    },
    "ideal": {
        "functions": [
            "graded_piece",
            "certify_degree_bound",
            "minimal_generators",
            "osm_certify_degree3",
            "affine_relation_degree",
        ],
        "extras": {
            "ideal.graded_piece.elements": ("count", "lower"),
            "ideal.certify.elements_per_s": ("1/s", "higher"),
        },
        "moves": [
            ("ideal.*", "jobs_per_s", "certify"),
            ("ideal.*", "job_p90_ms", "certify"),
            ("ideal.*", "no change", "geometry"),
        ],
    },
    "reductions": {
        "functions": ["tighten", "is_tight", "is_contractible", "prime_decompose"],
        "extras": {
            "reductions.tighten.moves": ("count", "lower"),
            "reductions.is_contractible.true_share": ("1", "higher"),
        },
        "moves": [("reductions.*", "job_p50_ms", "geometry")],
    },
    "quiver": {
        "functions": ["is_theta_stable", "primitive_cycles"],
        "extras": {
            "quiver.primitive_cycles.repeat_share": ("1", "lower"),
        },
        "moves": [("quiver.*", "job_p50_ms", "geometry")],
    },
    "multigraph": {
        "functions": ["canonical_key", "directed_canonical_key"],
        "extras": {},
        "moves": [("multigraph.*", "jobs_per_s", "classify")],
    },
    "classify": {
        "functions": [
            "enumerate_skeletons",
            "enumerate_maximal_skeletons",
            "enumerate_Rd",
            "enumerate_affine_Rdd",
            "build_Rd_quiver",
            "quiver_key",
            "classify_2d",
            "normal_fan_2d",
        ],
        "extras": {
            "classify.build_Rd_quiver.accept_share": ("1", "higher"),
        },
        "moves": [
            ("classify.enumerate_*", "jobs_per_s", "classify"),
            ("classify.classify_2d.*", "job_p90_ms", "geometry"),
            ("classify.normal_fan_2d.*", "job_p90_ms", "geometry"),
        ],
    },
    "cli": {
        "functions": ["main"],
        "extras": {"cli.main.bytes_out": ("bytes", "lower")},
        "moves": [("cli.*", "job_p50_ms", "geometry")],
    },
    "corpus": {
        "functions": ["regenerate"],
        "extras": {},
        "moves": [("corpus.*", "job_p90_ms", "classify")],
    },
}

# Traced wall time of a job sequence over its untraced wall time.
OVERHEAD_METRIC = "trace.overhead_ratio"

# The hot-layer check: the hot layers' share of the library's self time,
# the largest other layer's share, and 1 when the first is the larger.
HOT_LAYER_METRICS = [
    ("trace.hot_layer_share", "1", "higher"),
    ("trace.rival_layer_share", "1", "lower"),
    ("trace.hot_layer_ok", "count", "higher"),
]

# The layers whose summed self time must lead each workload's traced run.
HOT_LAYERS = {
    "certify": ("ideal",),
    "geometry": ("polytope",),
    "classify": ("multigraph", "classify"),
}


def traced_functions() -> list[tuple[str, str]]:
    """(layer, function) for every wrapped function, in table order."""
    return [(layer, fn) for layer, spec in LAYERS.items() for fn in spec["functions"]]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in a fixed order."""
    out = []
    for layer, spec in LAYERS.items():
        for fn in spec["functions"]:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_s", "s", "lower"))
        for name, (unit, better) in spec["extras"].items():
            out.append((name, unit, better))
    out.append((OVERHEAD_METRIC, "1", "lower"))
    out += HOT_LAYER_METRICS
    return out
