"""Verification harness: determinism, report structure, failure reporting."""

import json

import numpy as np
import pytest

from finsler.errors import FinslerError
from finsler.metrics import MetricField, builtin
from finsler.verify import (
    VerificationPlan,
    default_plan,
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
        "dg_dy_cartan",
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
