"""The package's DOP853 integrator against SciPy's, which serves as the oracle.

Step times, dense values and the number of right-hand-side calls must equal
`solve_ivp(method="DOP853", dense_output=True)` bit for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_coefficients

from finsler import _dop853
from finsler._dop853 import StepSizeError, dop853
from finsler.curves import _spray, geodesic_shoot
from finsler.metrics import builtin, load_metric

ROOT = Path(__file__).resolve().parents[1]


def _counted(fun):
    calls = [0]

    def counted(t, y):
        calls[0] += 1
        return fun(t, y)

    return counted, calls


def _assert_same_as_scipy(fun, t0, t1, y0, rtol, atol):
    """Run both integrators; returns (number of steps, rhs calls)."""
    theirs, their_calls = _counted(fun)
    ours, our_calls = _counted(fun)
    ref = solve_ivp(theirs, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol, dense_output=True)
    assert ref.success, ref.message
    ts, dense = dop853(ours, t0, t1, y0, rtol, atol)
    np.testing.assert_array_equal(ts, ref.t)
    assert our_calls[0] == their_calls[0]
    mids = 0.5 * (ts[1:] + ts[:-1])
    for t in np.concatenate([ts, mids]):
        np.testing.assert_array_equal(dense(t), ref.sol(t))
    # an unsorted array of times, step boundaries included, read at once
    grid = np.concatenate([mids[::-1], ts, [ts[0] + 0.3 * (ts[-1] - ts[0])]])
    np.testing.assert_array_equal(dense(grid), ref.sol(grid))
    return len(ts) - 1, our_calls[0]


def _geodesic_rhs(metric):
    n = metric.dim
    return lambda t, y: np.concatenate([y[n:], _spray(metric, y[:n], y[n:])])


def _linear(t, y):
    return np.array([[0.0, 1.0], [-4.0, -0.1]]) @ y + np.array([0.0, np.sin(3.0 * t)])


def test_coefficients_equal_scipys_bit_for_bit():
    for name in ("A", "B", "C", "E3", "E5", "D"):
        np.testing.assert_array_equal(getattr(_dop853, name), getattr(scipy_coefficients, name), err_msg=name)
    assert _dop853.N_STAGES == scipy_coefficients.N_STAGES
    assert _dop853.N_STAGES_EXTENDED == scipy_coefficients.N_STAGES_EXTENDED
    assert _dop853.INTERPOLATOR_POWER == scipy_coefficients.INTERPOLATOR_POWER


SPRAYS = [
    ("sphere_round", lambda: builtin("sphere_round", dim=2), [0.1, 0.2, 1.0, 0.0], 2 * np.pi),
    ("funk", lambda: builtin("funk", dim=3), [0.1, 0.2, 0.0, 0.15, -0.05, 0.1], 2.0),
    (
        "randers.metric",
        lambda: load_metric(str(ROOT / "bench" / "metrics" / "randers.metric")),
        [0.2, -0.1, 0.3, 0.5, 0.25, -0.2],
        2.0,
    ),
]


@pytest.mark.parametrize("name, make, y0, T", SPRAYS, ids=[s[0] for s in SPRAYS])
@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_geodesic_sprays_match_scipy(name, make, y0, T, direction):
    rtol = 1e-10 / max(T, 1.0)
    _assert_same_as_scipy(_geodesic_rhs(make()), 0.0, direction * T, np.array(y0), rtol, rtol * 1e-2)


@pytest.mark.parametrize("t0, t1", [(0.0, 10.0), (1.0, -5.0)])
def test_linear_ode_matches_scipy(t0, t1):
    _assert_same_as_scipy(_linear, t0, t1, np.array([1.0, 0.0]), 1e-8, 1e-10)


def test_empty_interval_matches_scipy():
    steps, calls = _assert_same_as_scipy(_linear, 0.5, 0.5, np.array([1.0, 0.0]), 1e-8, 1e-10)
    assert (steps, calls) == (1, 1)
    sphere = _geodesic_rhs(builtin("sphere_round", dim=2))
    _assert_same_as_scipy(sphere, 0.0, 0.0, np.array([0.1, 0.2, 1.0, 0.0]), 1e-10, 1e-12)


def test_rejected_steps_match_scipy():
    # an eccentric Kepler orbit started at apocentre: the steps grown on the
    # slow part fail at the pericentre passage
    def kepler(t, y):
        return np.concatenate([y[2:], -y[:2] / np.linalg.norm(y[:2]) ** 3])

    steps, calls = _assert_same_as_scipy(kepler, 0.0, 10.0, np.array([1.0, 0.0, 0.0, 0.3]), 1e-8, 1e-10)
    # each attempt costs 12 calls and each accepted step 3 more for the dense
    # output, after f(t0) and the initial-step probe
    rejected, rest = divmod(calls - 2 - 15 * steps, 12)
    assert rest == 0 and rejected >= 10


@pytest.mark.parametrize("ts", [[0.0, 0.5, 1.25, 2.0], [1.0, 0.25, -0.5, -2.0], [0.3, 0.3]])
def test_segment_choice_matches_scipys_ode_solution(ts):
    # adjacent interpolants agree at their shared step time to the last bit,
    # so the segment a boundary time reads is checked with labelled pieces
    from scipy.integrate import OdeSolution

    def piece(k):
        return lambda t: np.stack([np.full_like(t, k, dtype=float), np.asarray(t, dtype=float)])

    ts = np.array(ts)
    pieces = [piece(k) for k in range(len(ts) - 1)]
    ours, theirs = _dop853.DenseSolution(ts, pieces), OdeSolution(ts, pieces)
    probes = np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1]), [ts.min() - 1.0, ts.max() + 1.0]])
    for t in probes:
        np.testing.assert_array_equal(ours(t), theirs(t))
    np.testing.assert_array_equal(ours(probes), theirs(probes))


def test_too_small_step_fails_with_scipys_message():
    def blow_up(t, y):  # y = 1 / (1 - t)
        return y**2

    ref = solve_ivp(blow_up, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-8, atol=1e-10)
    assert not ref.success
    with pytest.raises(StepSizeError) as info:
        dop853(blow_up, 0.0, 2.0, np.array([1.0]), 1e-8, 1e-10)
    assert str(info.value) == ref.message


def test_backward_geodesic_closes_as_tightly_as_forward():
    # a unit-speed great circle on the round unit sphere closes after |T| = 2π;
    # the tolerance scales with |T|, so going backward is no looser
    m = builtin("sphere_round", dim=2)
    x0 = np.array([0.1, 0.2])
    v0 = np.array([0.5 * (1.0 + x0 @ x0), 0.0])
    assert m.value(x0, v0) == pytest.approx(1.0)
    errors = {}
    for sign in (1.0, -1.0):
        curve = geodesic_shoot(m, x0, v0, sign * 2 * np.pi, tol=1e-10)
        errors[sign] = np.abs(curve.position(sign * 2 * np.pi) - x0).max()
    assert errors[-1.0] <= 3.0 * errors[1.0]
    assert max(errors.values()) < 1e-11


def test_cli_runs_without_importing_scipy(tmp_path):
    script = f"""
import sys
import finsler, finsler.cli, finsler.verify
from finsler.cli import main
assert main(["geodesic", "--metric", "sphere_round", "--x0=1,0", "--v0=0,1", "--T", "1",
             "--points", "5", "--out", {str(tmp_path / "geo.csv")!r}]) == 0
assert main(["verify", "--samples", "1", "--out", {str(tmp_path / "report.json")!r}]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
