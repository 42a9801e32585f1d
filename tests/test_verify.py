"""Verification harness: determinism, report structure, failure reporting."""

import collections
import copy
import json

import numpy as np
import pytest

from finsler import connection, jets, verify
from finsler.connection import VectorFieldOnChart
from finsler.curves import FieldAlongCurve
from finsler.errors import FinslerError
from finsler.metrics import MetricField, TangentSample, builtin
from finsler.verify import (
    VerificationPlan,
    default_plan,
    extension_field,
    random_polynomial_field,
    run_verification,
    sample_tangent,
)


def _small_plan(seed=7):
    plan = default_plan(samples=3, seed=seed)
    plan.curve_samples = 2
    plan.heavy_samples = 1
    return plan


def test_small_default_plan_passes():
    report = run_verification(_small_plan())
    assert report.passed
    names = {r.name for r in report.results}
    # the coverage contract: every structural identity appears in the report
    for required in (
        "homogeneity",
        "cartan_flagpole",
        "cartan_neg_homogeneity",
        "torsion_free",
        "almost_g_field",
        "almost_g_curve",
        "koszul",
        "gamma_vv",
        "nonlinear_connection",
        "christoffel_homogeneity",
        "curve_linearity",
        "curve_leibniz",
        "curve_chart_restriction",
        "curvature_antisymmetry",
        "curvature_pair_b",
        "first_bianchi",
        "six_b",
        "nabla_cartan_flagpole",
        "second_bianchi",
        "two_param_commutation",
        "extension_independence",
        "curve_decomposition",
        "gamma_partials",
        "h_symmetry",
        "h_zero_geodesic",
        "flag_sphere",
        "flag_funk",
    ):
        assert required in names, required


def test_report_is_deterministic_for_fixed_seed():
    a = run_verification(_small_plan(seed=21)).to_json()
    b = run_verification(_small_plan(seed=21)).to_json()
    assert a == b
    c = run_verification(_small_plan(seed=22)).to_json()
    assert a != c


def test_report_json_structure():
    report = run_verification(_small_plan())
    doc = json.loads(report.to_json())
    assert doc["passed"] is True
    assert doc["seed"] == 7
    assert set(doc["metrics"]) == {
        "euclidean",
        "riemannian_perturbation",
        "minkowski_quartic",
        "funk",
        "sphere_round",
    }
    for entry in doc["identities"].values():
        assert set(entry) == {"max_residual", "tolerance", "passed", "count", "worst"}
        assert entry["count"] > 0


def test_tolerance_override_can_force_failure():
    plan = _small_plan()
    plan.tolerances = {"koszul": 1e-30}
    report = run_verification(plan)
    assert not report.passed
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["koszul"]
    assert failed[0].worst["metric"]


def test_sample_generation_failure_is_reported():
    empty = MetricField(
        "empty",
        2,
        lambda x, v: sum(c * c for c in v),
        predicate=lambda x, v: False,
    )
    rng = np.random.default_rng(0)
    with pytest.raises(FinslerError, match="could not draw"):
        sample_tangent(empty, rng, (-1.0, 1.0), max_tries=50)


def test_dimension_one_plan_is_refused_before_sampling():
    line = MetricField("line", 1, lambda x, v: v[0] * v[0])
    plan = VerificationPlan(metrics=[builtin("euclidean", dim=2), line])
    with pytest.raises(FinslerError, match="'line' has dimension 1"):
        run_verification(plan)


def test_plan_above_dimension_eight_is_refused_before_any_jet_table():
    builds = jets.jet_space.cache_info().misses
    for dim in (9, 12):
        plan = VerificationPlan(metrics=[builtin("euclidean", dim=2), builtin("funk", dim=dim)])
        with pytest.raises(FinslerError, match=f"'funk' has dimension {dim}; verification needs dimension 2 to 8"):
            run_verification(plan)
    assert jets.jet_space.cache_info().misses == builds


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("samples", "ten", "samples must be a non-negative integer"),
        ("samples", -1, "samples must be a non-negative integer"),
        ("samples", 2.0, "samples must be a non-negative integer"),
        ("curve_samples", -3, "curve_samples must be"),
        ("heavy_samples", True, "heavy_samples must be"),
        ("degree", -1, "degree must be a non-negative integer"),
        ("box", (0.6, -0.6), "box must be two finite numbers"),
        ("box", (-0.6, float("inf")), "box must be two finite numbers"),
        ("box", (-0.6,), "box must be two finite numbers"),
        ("box", ("a", "b"), "box must be two finite numbers"),
        ("tolerances", {"kozsul": 1e-30}, "unknown tolerance name 'kozsul'"),
        ("tolerances", {"koszul": float("nan")}, "'koszul' must be a finite positive"),
        ("tolerances", {"koszul": 0.0}, "'koszul' must be a finite positive"),
        ("tolerances", {"koszul": "1e-9"}, "'koszul' must be a finite positive"),
        ("tolerances", [1e-9], "tolerances must be a mapping"),
        ("degree", 1000, "degree must be at most 6, got 1000"),
        ("seed", -1, "plan seed must be a non-negative integer, got -1"),
        ("seed", True, "plan seed must be a non-negative integer, got True"),
        ("seed", 2.0, "plan seed must be a non-negative integer, got 2.0"),
        ("seed", "7", "plan seed must be a non-negative integer, got '7'"),
    ],
)
def test_bad_plans_are_refused_before_sampling(name, value, message):
    def never(x, v):
        raise AssertionError("sampled a plan that should have been refused")

    plan = VerificationPlan(metrics=[MetricField("unsampled", 2, never, predicate=never)])
    setattr(plan, name, value)
    with pytest.raises(FinslerError, match=message):
        run_verification(plan)


def test_numpy_integer_seed_is_reported_as_a_plain_int():
    plan = _small_plan()
    plan.metrics = plan.metrics[:1]
    plan.seed = np.int64(7)
    report = run_verification(plan)
    assert type(report.seed) is int
    assert json.loads(report.to_json())["seed"] == 7


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_each_christoffel_record_is_evaluated_once_per_sweep(dim, monkeypatch):
    # the sweeps hand the records they hold to the held-value bodies, so no
    # (metric, x, v) reaches metric_blocks twice, at any order, through the
    # Christoffel entry points
    calls = []
    real = connection.metric_blocks

    def counting(metric, x, v, order):
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        calls.append((metric.name, x.tobytes(), v.tobytes(), order))
        return real(metric, x, v, order=order)

    monkeypatch.setattr(connection, "metric_blocks", counting)
    plan = default_plan(samples=3, seed=11, dim=dim, curve_samples=2, heavy_samples=1)
    report = run_verification(plan)
    kinds = {r.worst["kind"] for r in report.results}
    assert kinds == {"point", "curve", "geodesic", "flag"}
    assert report.passed and {key[3] for key in calls} == {3, 4}
    seen = collections.Counter(key[:3] for key in calls)
    assert [key for key, count in seen.items() if count > 1] == []

    # a light point sample: its order-4 record at (x, v), and one order-3
    # record at (x, 1.7 v) for the finite homogeneity check
    calls.clear()
    metric = builtin("funk", dim=dim)
    rng = np.random.default_rng(3)
    sample = sample_tangent(metric, rng, plan.box)
    list(verify._point_identities(metric, sample, rng, plan, plan.heavy_samples))
    x, v = sample.x.tobytes(), sample.v.tobytes()
    assert calls == [("funk", x, v, 4), ("funk", x, (1.7 * sample.v).tobytes(), 3)]


def test_homogeneity_rows_fail_on_a_non_homogeneous_metric():
    # a Riemannian quadratic plus a cubic in v: no homogeneity holds
    def L(x, v):
        return (1.0 + x[0] * x[0]) * (v[0] * v[0] + v[1] * v[1]) + 0.05 * v[0] * v[0] * v[0]

    plan = VerificationPlan(
        metrics=[MetricField("cubic_perturbed", 2, L)],
        samples=5,
        curve_samples=0,
        heavy_samples=0,
        seed=7,
    )
    rows = {r.name: r for r in run_verification(plan).results}
    for name in (
        "homogeneity",
        "g_zero_homogeneity",
        "cartan_neg_homogeneity",
        "christoffel_homogeneity",
    ):
        assert not rows[name].passed, (name, rows[name].max_residual)


def test_gamma_partials_catches_a_wrong_christoffel_tangent(monkeypatch):
    # both sides of curve_decomposition read Gamma's (t, s) derivatives off
    # the same record, so a wrong tangent in christoffel_with_partials moves
    # neither; gamma_partials takes them by a complex step of the blocks
    real = connection.inverse_with_tangent

    def skewed(g, dg):
        ginv, ginv_t = real(g, dg)
        return ginv, ginv_t * (1.0 + 1e-6)

    monkeypatch.setattr(connection, "inverse_with_tangent", skewed)
    plan = VerificationPlan(
        metrics=[builtin("funk", dim=2)], samples=3, curve_samples=3, heavy_samples=1, seed=3
    )
    rows = {r.name: r for r in run_verification(plan).results}
    assert not rows["gamma_partials"].passed, rows["gamma_partials"].max_residual
    assert rows["curve_decomposition"].passed, rows["curve_decomposition"].max_residual


def test_sweep_takes_order_three_blocks_from_the_christoffel_records(monkeypatch):
    orders = []
    real = verify.metric_blocks

    def counting(metric, x, v, order):
        orders.append(order)
        return real(metric, x, v, order=order)

    monkeypatch.setattr(verify, "metric_blocks", counting)
    plan = VerificationPlan(
        metrics=[builtin("funk", dim=2)], samples=3, curve_samples=2, heavy_samples=1, seed=7
    )
    assert run_verification(plan).passed
    assert orders and set(orders) == {2}


def test_plan_tolerance_lookup():
    plan = VerificationPlan(metrics=[builtin("euclidean", dim=2)])
    assert plan.tolerance("koszul") == 1e-9
    plan.tolerances["koszul"] = 1e-3
    assert plan.tolerance("koszul") == 1e-3


def test_default_plan_passes_at_dimension_three():
    plan = default_plan(samples=3, seed=15, dim=3)
    plan.curve_samples = 2
    plan.heavy_samples = 1
    report = run_verification(plan)
    assert report.passed, [r.name for r in report.results if not r.passed]
    flags = {r.name: r.max_residual for r in report.results}
    assert flags["flag_funk"] <= 1e-4  # the constant holds in dimension 3 too


def test_a_heavy_sample_at_the_domain_boundary_ends_in_a_report():
    # a heavy funk sample of this plan lies within 0.004 of the unit ball's
    # boundary, so points x0 +- 2h A/|A| of a step-0.002 stencil leave the
    # domain; the second-Bianchi derivative reads L at the sample alone
    report = run_verification(default_plan(20, seed=2, dim=6))
    assert report.passed, [r.name for r in report.results if not r.passed]


# Each report row: the sweep kind that yields it and the residuals it yields
# per draw of that sweep.  Point draws past `heavy_samples` skip the heavy rows.
_SWEEP_ROWS = {
    "point": {
        "homogeneity": 1,
        "euler_gvv": 1,
        "g_zero_homogeneity": 1,
        "cartan_flagpole": 1,
        "cartan_neg_homogeneity": 1,
        "gamma_vv": 1,
        "nonlinear_connection": 1,
        "christoffel_homogeneity": 2,
        "torsion_free": 1,
        "almost_g_field": 1,
        "koszul": 1,
        "curvature_antisymmetry": 1,
        "first_bianchi": 1,
        "nabla_cartan_flagpole": 1,
        "nabla_cartan_symmetry": 1,
    },
    "heavy": {"curvature_pair_b": 1, "six_b": 1, "second_bianchi": 1},
    "curve": {
        "almost_g_curve": 1,
        "curve_linearity": 1,
        "curve_leibniz": 1,
        "curve_chart_restriction": 1,
        "two_param_commutation": 1,
        "extension_independence": 1,
        "curve_decomposition": 1,
        "gamma_partials": 2,
        "h_symmetry": 1,
    },
    "geodesic": {"h_zero_geodesic": 3},
    "flag": {"flag_sphere": 1, "flag_funk": 1, "flag_hyperbolic": 1},
}
_FAMILIES = (
    "euclidean",
    "riemannian_perturbation",
    "minkowski_quartic",
    "funk",
    "sphere_round",
    "hyperbolic",
)


@pytest.mark.parametrize("samples, curve_samples, heavy_samples", [(2, 1, 1), (3, 2, 5)])
def test_sweep_table_rows_and_counts(samples, curve_samples, heavy_samples):
    plan = VerificationPlan(
        metrics=[builtin(name, dim=2) for name in _FAMILIES],
        samples=samples,
        curve_samples=curve_samples,
        heavy_samples=heavy_samples,
        seed=7,
    )
    results = run_verification(plan).results
    # a misspelled row name would show up here as a missing row
    assert [r.name for r in results] == list(verify.DEFAULT_TOLERANCES)
    families = len(_FAMILIES)
    draws = {
        "point": samples * families,
        "heavy": min(heavy_samples, samples) * families,
        "curve": curve_samples * families,
        "geodesic": families,
        "flag": min(samples, 20),  # one family per flag row
    }
    for r in results:
        sweep = next(kind for kind, rows in _SWEEP_ROWS.items() if r.name in rows)
        assert r.count == draws[sweep] * _SWEEP_ROWS[sweep][r.name], r.name
        assert r.worst["kind"] == ("point" if sweep == "heavy" else sweep), r.name


def _max_rel(got, want):
    return float(np.abs(got - want).max()) / max(float(np.abs(want).max()), 1e-300)


def _fixture_fields(rng, dim, center):
    return [
        random_polynomial_field(rng, dim, 3, center=center),
        extension_field(
            center,
            rng.uniform(-1.0, 1.0, dim),
            rng.uniform(-1.0, 1.0, (dim, dim)),
            quad=rng.uniform(-1.0, 1.0, (dim, dim, dim)),
        ),
        extension_field(center, rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, (dim, dim))),
    ]


def _jet_reference(field):
    """The polynomial field as jet-evaluable component functions: a
    monomial-by-monomial sum over its coefficient array."""
    monos = sorted(jets._monomials(field.dim, field.degree))
    center = field.center

    def component(row):
        def f(x):
            total = 0.0
            for alpha, c in zip(monos, row):
                term = c
                for i, a in enumerate(alpha):
                    for _ in range(a):
                        term = term * (x[i] - center[i])
                total = total + term
            return total

        return f

    return VectorFieldOnChart([component(row) for row in field.coeffs.tolist()], field.dim)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_polynomial_fields_match_jet_evaluation_of_their_funcs(dim):
    rng = np.random.default_rng(40 + dim)
    center = rng.uniform(-0.5, 0.5, dim)
    for field in _fixture_fields(rng, dim, center):
        ref = _jet_reference(field)
        np.testing.assert_array_equal(field.value(center), ref.value(center))
        np.testing.assert_array_equal(field.jacobian(center), ref.jacobian(center))
        for _ in range(3):
            x = center + rng.uniform(-0.5, 0.5, dim)
            for got, want in zip(field.derivatives2(x), ref.derivatives2(x)):
                assert _max_rel(got, want) <= 1e-14
            np.testing.assert_array_equal(field.value(x), field.derivatives2(x)[0])
            np.testing.assert_array_equal(field.jacobian(x), field.derivatives2(x)[1])


def test_extension_field_is_the_prescribed_quadratic():
    rng = np.random.default_rng(3)
    n = 3
    x0 = rng.uniform(-0.5, 0.5, n)
    value, jac = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (n, n))
    quad = rng.uniform(-1.0, 1.0, (n, n, n))
    field = extension_field(x0, value, jac, quad=quad)
    x = x0 + rng.uniform(-0.5, 0.5, n)
    d = x - x0
    sym = 0.5 * (quad + quad.transpose(0, 2, 1))
    val, J, H = field.derivatives2(x)
    assert _max_rel(val, value + jac @ d + 0.5 * np.einsum("kij,i,j->k", quad, d, d)) <= 1e-14
    assert _max_rel(J, jac + sym @ d) <= 1e-14
    np.testing.assert_array_equal(H, sym)


def test_random_polynomial_field_draws_like_one_scalar_per_coefficient():
    dim, degree = 3, 3
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    field = random_polynomial_field(rng, dim, degree)
    m = len(jets._monomials(dim, degree))
    scalars = [[ref.uniform(-1.0, 1.0) for _ in range(m)] for _ in range(dim)]
    np.testing.assert_array_equal(field.coeffs, scalars)
    assert rng.bit_generator.state == ref.bit_generator.state


def _cubic_terms(x0, v0, a2, a3, t):
    """The summands of x0 + t v0 + t^2/2 a2 + t^3/6 a3 and of its first two
    t-derivatives."""
    return (
        (x0, t * v0, t * t / 2 * a2, t**3 / 6 * a3),
        (v0, t * a2, t * t / 2 * a3),
        (a2, t * a3),
    )


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_random_curve_is_the_cubic_through_the_sample(dim):
    rng = np.random.default_rng(60 + dim)
    x0, v0 = rng.uniform(-0.5, 0.5, dim), rng.uniform(-1.0, 1.0, dim)
    ref = copy.deepcopy(rng)
    curve = verify.random_curve(rng, TangentSample(x0, v0))
    a2, a3 = ref.uniform(-1.0, 1.0, dim), ref.uniform(-1.0, 1.0, dim)
    assert rng.bit_generator.state == ref.bit_generator.state
    for t in (-0.7, 0.0, 0.4):
        # relative to the largest summand, the scale of the roundoff
        got = (curve.position(t), curve.velocity(t), curve.acceleration(t))
        for g, terms in zip(got, _cubic_terms(x0, v0, a2, a3, t)):
            assert verify._rel(g - sum(terms), *terms) <= 1e-15
    for g, w in zip((curve.position(0.0), curve.velocity(0.0), curve.acceleration(0.0)), (x0, v0, a2)):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_random_curve_field_is_its_t_polynomial(dim):
    rng = np.random.default_rng(70 + dim)
    value = rng.uniform(-1.0, 1.0, dim)
    ref = copy.deepcopy(rng)
    field = verify.random_curve_field(rng, dim, value)
    c = ref.uniform(-1.0, 1.0, (dim, 2))
    assert rng.bit_generator.state == ref.bit_generator.state
    for t in (-0.7, 0.0, 0.4):
        terms = (value, t * c[:, 0], t * t * c[:, 1])
        assert verify._rel(field.value(t) - sum(terms), *terms) <= 1e-15
        terms = (c[:, 0], 2 * t * c[:, 1])
        assert verify._rel(field.derivative(t) - sum(terms), *terms) <= 1e-15
    np.testing.assert_array_equal(field.value(0.0), value)
    np.testing.assert_array_equal(field.derivative(0.0), c[:, 0])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_chart_field_restriction_matches_jet_composition(dim):
    rng = np.random.default_rng(80 + dim)
    x0, v0 = rng.uniform(-0.5, 0.5, dim), rng.uniform(-1.0, 1.0, dim)
    ref = copy.deepcopy(rng)
    curve = verify.random_curve(rng, TangentSample(x0, v0))
    a2, a3 = ref.uniform(-1.0, 1.0, dim), ref.uniform(-1.0, 1.0, dim)

    def gamma(t):
        return [
            x0[i] + t * v0[i] + (t * t) * (0.5 * a2[i]) + (t * t * t) * (a3[i] / 6.0)
            for i in range(dim)
        ]

    fields = [
        random_polynomial_field(rng, dim, 3, center=x0),
        extension_field(
            x0,
            rng.uniform(-1.0, 1.0, dim),
            rng.uniform(-1.0, 1.0, (dim, dim)),
            quad=rng.uniform(-1.0, 1.0, (dim, dim, dim)),
        ),
    ]
    for chart_field in fields:
        restricted = verify._compose_field(chart_field, curve)
        funcs = _jet_reference(chart_field).funcs
        composed = FieldAlongCurve.from_function(lambda t: [f(gamma(t)) for f in funcs], dim=dim)
        for t in (-0.5, 0.3):
            assert _max_rel(restricted.value(t), composed.value(t)) <= 1e-14
            assert _max_rel(restricted.derivative(t), composed.derivative(t)) <= 1e-14
