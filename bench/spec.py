"""What the benchmark measures: workloads, end-to-end metrics and per-layer
metrics, with the prediction each layer metric carries.

BENCHMARK.json at the repository root lists the same names, units and
bounds; bench/test_benchmark.py checks that the two agree.
"""

# name -> one-line reason the workload was chosen
WORKLOADS = {
    "verify_d2": (
        "the dim-2 identity sweep users run most: many small calls, so fixed "
        "per-call overhead in metric_blocks and the Christoffel path shows here first"
    ),
    "verify_d4": (
        "the dim-4 sweep: christoffel_with_partials over object-array jets and the "
        "finite-difference second-Bianchi stencil dominate (ROADMAP items 2 and 3)"
    ),
    "geodesic": (
        "CLI geodesic shoots on expression and builtin metrics: metric_blocks(order=3) "
        "dominates and christoffel_with_partials never runs, the bypass case for item 2"
    ),
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen.  setup_s has the largest bound.  The timing
# bounds are set from run-to-run spreads measured on a shared 2-core VM, where
# the quartile spread over ten seeds ranged from 1% to 4% in quiet periods.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.20),
    ("op_ms.p50", "ms", "lower", 0.20),
    ("op_ms.tail", "ms", "lower", 0.20),
    ("pass_ratio", "passed/attempted", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

# Fixed tail percentile per workload.  Each leaves at least ten ops beyond
# it in a 30-second run at the parent commit and falls inside one family's
# band of latencies, not on the edge between two: on verify_d4 the slowest
# family (riemannian_perturbation) fills exactly the top 20%, so p80 would
# sit on that edge.
TAIL_PERCENTILE = {"verify_d2": 95.0, "verify_d4": 75.0, "geodesic": 90.0}

# Seconds per op at the parent commit on a shared 2-core AMD EPYC VM.  They
# only size a run's list of distinct op inputs, at INPUT_SHARE of --seconds of
# work, so the list depends on the seed and --seconds alone: two runs with the
# same arguments attempt, and fail, exactly the same ops however fast the
# machine or the program is.
NOMINAL_OP_S = {"verify_d2": 0.092, "verify_d4": 0.50, "geodesic": 0.135}
INPUT_SHARE = 0.5

LAYERS = ("jets", "exprs", "metrics", "geometry", "connection", "curvature", "curves", "verify", "cli")

# (name, unit, better, prediction).  Counts and times are per op of the
# traced phase unless the unit says otherwise; the prediction names the
# end-to-end metric the layer metric should move, and on which workload.
_D4 = "ops_per_s on verify_d4, less on geodesic"
PER_LAYER = (
    ("jets.mul.calls", "calls/op", "lower", _D4),
    ("jets.add.calls", "calls/op", "lower", _D4),
    ("jets.extract.calls", "calls/op", "lower", _D4),
    ("jets.derivative_jet.calls", "calls/op", "lower", _D4),
    ("jets.split_jet.calls", "calls/op", "lower", _D4),
    ("jets.mul.madds", "madds/op", "lower", _D4 + " (computed count: len(space._mul_i) per jet product)"),
    ("jets.space_builds", "count", "lower", "setup_s on verify_d4, where jet_space(10, 4) is built (whole process)"),
    ("exprs.compile_expression.calls", "calls/op", "lower", "setup_s on geodesic; the CLI also reparses per op"),
    ("exprs.compile_expression.self_s", "s/op", "lower", "setup_s on geodesic; the CLI also reparses per op"),
    ("metrics.load_metric.self_s", "s/op", "lower", "setup_s on geodesic; the CLI also reloads per op"),
    ("metrics.L_eval.calls.float", "calls/op", "lower", "ops_per_s on geodesic"),
    ("metrics.L_eval.calls.jet", "calls/op", "lower", "ops_per_s on geodesic"),
    ("metrics.L_eval.self_s", "s/op", "lower", "ops_per_s on geodesic"),
    ("metrics.in_domain.calls", "calls/op", "lower", "no prediction; recorded for reference"),
    ("geometry.metric_blocks.calls.o2", "calls/op", "lower", "ops_per_s on verify_d2"),
    ("geometry.metric_blocks.calls.o3", "calls/op", "lower", "ops_per_s on geodesic (order 3) and verify_d2"),
    ("geometry.metric_blocks.calls.o4", "calls/op", "lower", "ops_per_s on verify_d2"),
    ("geometry.metric_blocks.self_s", "s/op", "lower", "ops_per_s on geodesic (order 3) and verify_d2"),
    ("geometry.point_ring_blocks.self_s", "s/op", "lower", "ops_per_s on verify_d4"),
    ("geometry.composed_ring_blocks.self_s", "s/op", "lower", "op_ms.p50 on verify_d2"),
    ("connection.christoffel.calls", "calls/op", "lower", "ops_per_s on verify_d2"),
    ("connection.christoffel.self_s", "s/op", "lower", "ops_per_s on verify_d2"),
    ("connection.christoffel_with_partials.calls", "calls/op", "lower", "ops_per_s on verify_d4, no change on geodesic"),
    ("connection.christoffel_with_partials.self_s", "s/op", "lower", "ops_per_s on verify_d4, no change on geodesic"),
    ("connection.christoffel_core.self_s", "s/op", "lower", "ops_per_s on verify_d4, no change on geodesic"),
    ("connection.ring_inverse.self_s", "s/op", "lower", "ops_per_s on verify_d4, no change on geodesic"),
    ("curvature.curvature_field.calls", "calls/op", "lower", "op_ms.p50 on verify_d4 (12 stencil calls per heavy sample)"),
    ("curvature.curvature_field.total_s", "s/op", "lower", "op_ms.p50 on verify_d4 (ROADMAP item 3)"),
    ("curvature.r_along_curve_direct.total_s", "s/op", "lower", "ops_per_s on verify_d2 and verify_d4"),
    ("curvature.hh_block.self_s", "s/op", "lower", "ops_per_s on verify_d2 and verify_d4"),
    ("curvature.flag_curvature.calls", "calls/op", "lower", "ops_per_s on verify_d2 and verify_d4"),
    ("curvature.field_curvature_block.self_s", "s/op", "lower", "ops_per_s on verify_d2 and verify_d4"),
    ("curvature.cartan_derivative_block.self_s", "s/op", "lower", "ops_per_s on verify_d2 and verify_d4"),
    ("curves.geodesic_shoot.calls", "calls/op", "lower", "ops_per_s on geodesic"),
    ("curves.geodesic_shoot.self_s", "s/op", "lower", "ops_per_s on geodesic (integrator overhead and admissibility grid)"),
    ("curves.rhs_calls", "calls/op", "lower", "op_ms.tail on geodesic (metric_blocks calls under geodesic_shoot)"),
    ("curves.rhs_per_shoot", "calls/shoot", "lower", "op_ms.tail on geodesic"),
    ("verify.sample_tangent.accept_ratio", "accepted/attempt", "higher", "ops_per_s on verify_d2 and verify_d4 (wasted order-2 metric_blocks)"),
    ("verify.worst_tol_ratio", "residual/tol", "lower", "quality reading, not a timing: max residual over tolerance"),
    ("verify.second_bianchi.tol_ratio", "residual/tol", "lower", "quality reading: second_bianchi residual over tolerance (item 3)"),
    ("cli.main.self_s", "s/op", "lower", "ops_per_s on geodesic (argparse, CSV formatting and the write)"),
    ("trace.overhead_ratio", "traced/untraced", "lower", "tracing cost: traced op wall time over untraced, same inputs"),
) + tuple(
    (f"layer.{layer}.self_s", "s/op", "lower", "time busy in the layer; sum of its wrapped functions' self time")
    for layer in LAYERS
)
