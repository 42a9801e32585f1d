"""The benchmark's workloads: inputs drawn from the workload seed, set-up,
one op, and the check of each op's output.

An op is one call through a public entry point:

- verify_d2 / verify_d4: one run_verification on a single-family plan.  It
  fails if it raises or the report does not pass.
- geodesic: one in-process finsler.cli.main(["geodesic", ...]) writing a CSV
  to a temp file.  It fails on a nonzero exit code or a failed CSV check.

Ops cycle through the families (or metrics) in a fixed order, so a run made
of whole cycles always has the same mix.
"""

from __future__ import annotations

import csv
import io
import math
import os
import shutil
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# Single-family plan sizes per op.
_PLANS = {
    "verify_d2": dict(dim=2, samples=10, curve_samples=4, heavy_samples=1),
    "verify_d4": dict(dim=4, samples=4, curve_samples=1, heavy_samples=1),
}

# Geodesic output checks, with the worst value seen at the parent commit
# over 30 ops per metric in brackets.
GEODESIC_TOL = 1e-10
L_DRIFT_BOUND = 1e-8  # relative drift of L along the CSV [1.5e-10]
L_COLUMN_BOUND = 1e-10  # CSV L column against the benchmark's own formula [2e-15]
CLOSURE_BOUND = 1e-7  # sphere state after one period against the start [1.1e-10]
START_BOUND = 1e-12  # first CSV row against the inputs


def _jet_spaces(dim):
    """Every (nvars, order) jet table a verify op at this dimension uses."""
    n2 = 2 * dim
    return [(1, 1), (1, 2), (2, 1), (2, 2), (dim, 1), (dim, 2), (n2, 1), (n2, 2), (n2, 3), (n2, 4), (n2 + 2, 4)]


class VerifyWorkload:
    def __init__(self, name):
        self.name = name
        plan = dict(_PLANS[name])
        self.dim = plan.pop("dim")
        self.plan_sizes = plan

    def setup(self):
        from finsler.jets import jet_space
        from finsler.verify import default_metrics

        metrics = default_metrics(self.dim)
        for nvars, order in _jet_spaces(self.dim):
            jet_space(nvars, order)
        self.cycle = len(metrics)
        return metrics

    def close(self):
        pass

    def inputs(self, seed):
        """Endless op inputs: (family index, plan seed)."""
        rng = np.random.default_rng(seed)
        k = 0
        while True:
            yield k % self.cycle, int(rng.integers(0, 2**31 - 1))
            k += 1

    def describe(self, metrics, inp):
        family, plan_seed = inp
        return f"{metrics[family].name} plan_seed={plan_seed}"

    def run(self, metrics, inp):
        from finsler.verify import VerificationPlan, run_verification

        family, plan_seed = inp
        plan = VerificationPlan(metrics=[metrics[family]], seed=plan_seed, **self.plan_sizes)
        return run_verification(plan)

    def output_bytes(self, report):
        return report.to_json().encode()

    def check(self, metrics, inp, report):
        if report.passed:
            return None
        bad = [f"{r.name} {r.max_residual:.3g} > tol {r.tolerance:.1g}" for r in report.results if not r.passed]
        return "report failed: " + "; ".join(bad)

    def quality(self, report):
        """(worst residual/tol over identities, second_bianchi residual/tol)."""
        worst = max(r.max_residual / r.tolerance for r in report.results)
        sb = [r.max_residual / r.tolerance for r in report.results if r.name == "second_bianchi"]
        return worst, (sb[0] if sb else 0.0)


# -- geodesic workload ----------------------------------------------------------


def _L_sphere(x, v):
    return 4.0 * float(v @ v) / (1.0 + float(x @ x)) ** 2


def _L_randers(x, v):
    a = np.diag([1 + 0.2 * x[0] ** 2, 1 + 0.2 * x[1] ** 2, 1 + 0.2 * x[2] ** 2])
    a[0, 1] = a[1, 0] = 0.1 / (1 + x[2] ** 2)
    b = np.array([0.3 / (1 + x[1] ** 2), 0.2 / (1 + x[2] ** 2), 0.1])
    return (math.sqrt(float(v @ a @ v)) + float(b @ v)) ** 2


def _L_funk(x, v):
    one = 1.0 - float(x @ x)
    xv = float(x @ v)
    return ((math.sqrt(one * float(v @ v) + xv * xv) + xv) / one) ** 2


def _unit(rng, n):
    d = rng.normal(size=n)
    return d / np.linalg.norm(d)


def _sphere_start(rng):
    """A unit-speed great circle in the stereographic chart, with a random
    start point and orientation.  Its plane is tilted 60 degrees from the
    equator (normal n_z = +-0.5), so it reaches |x| = 3.7 and stays away from
    the chart's point at infinity; all such circles are congruent, which
    keeps the cost of one period nearly the same from op to op."""
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    nz = 0.5 if rng.uniform() < 0.5 else -0.5
    r = math.sqrt(1.0 - nz * nz)
    n = np.array([r * math.cos(azimuth), r * math.sin(azimuth), nz])
    a = np.cross(n, [1.0, 0.0, 0.0])
    a /= np.linalg.norm(a)
    b = np.cross(n, a)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    p = math.cos(phi) * a + math.sin(phi) * b
    t = -math.sin(phi) * a + math.cos(phi) * b
    x = p[:2] / (1.0 - p[2])
    v = (t[:2] * (1.0 - p[2]) + p[:2] * t[2]) / (1.0 - p[2]) ** 2
    return x, v


def _scaled_start(rng, L, x):
    v = _unit(rng, len(x))
    return x, v / math.sqrt(L(x, v))


# (label, --metric argument, dim, T, independent L formula, start sampler)
_GEODESIC_METRICS = (
    ("sphere_expr", os.path.join(HERE, "metrics", "sphere.metric"), 2, 2.0 * math.pi, _L_sphere, _sphere_start),
    (
        "randers_expr",
        os.path.join(HERE, "metrics", "randers.metric"),
        3,
        2.0,
        _L_randers,
        lambda rng: _scaled_start(rng, _L_randers, rng.uniform(-0.5, 0.5, 3)),
    ),
    (
        "funk",
        "funk",
        3,
        2.0,
        _L_funk,
        lambda rng: _scaled_start(rng, _L_funk, _unit(rng, 3) * 0.6 * rng.uniform() ** (1.0 / 3.0)),
    ),
)


def _vector_flag(flag, values):
    # "--x0=-0.2,..." and not "--x0 -0.2,...": argparse reads a leading
    # minus as an option (ROADMAP item 5, still open).
    return f"--{flag}=" + ",".join(repr(float(c)) for c in values)


class GeodesicWorkload:
    name = "geodesic"
    cycle = len(_GEODESIC_METRICS)

    def __init__(self):
        self.tmpdirs = []

    def setup(self):
        from finsler.cli import main  # noqa: F401  (argparse and the CLI module)
        from finsler.jets import jet_space
        from finsler.metrics import builtin, load_metric

        for label, source, dim, *_ in _GEODESIC_METRICS:
            metric = builtin(source, dim=dim) if source == "funk" else load_metric(source)
            if metric.name != label:
                raise RuntimeError(f"metric {source} is named {metric.name!r}, expected {label!r}")
            jet_space(2 * dim, 3)
        tmp_root = os.path.join(os.path.dirname(HERE), ".bench_tmp")
        os.makedirs(tmp_root, exist_ok=True)
        self.tmpdirs.append(tempfile.mkdtemp(dir=tmp_root))
        return os.path.join(self.tmpdirs[-1], "geodesic.csv")

    def close(self):
        for path in self.tmpdirs:
            shutil.rmtree(path, ignore_errors=True)
        self.tmpdirs = []

    def inputs(self, seed):
        """Endless op inputs: (metric index, x0, v0)."""
        rng = np.random.default_rng(seed)
        k = 0
        while True:
            index = k % self.cycle
            x0, v0 = _GEODESIC_METRICS[index][5](rng)
            yield index, x0, v0
            k += 1

    def describe(self, out_path, inp):
        index, x0, v0 = inp
        return f"{_GEODESIC_METRICS[index][0]} x0={x0.tolist()} v0={v0.tolist()}"

    def run(self, out_path, inp):
        from finsler.cli import main

        index, x0, v0 = inp
        _, source, _, T, _, _ = _GEODESIC_METRICS[index]
        if os.path.exists(out_path):
            os.remove(out_path)
        argv = ["geodesic", "--metric", source, _vector_flag("x0", x0), _vector_flag("v0", v0)]
        argv += ["--T", repr(T), "--tol", repr(GEODESIC_TOL), "--out", out_path]
        code = main(argv)
        text = None
        if os.path.exists(out_path):
            with open(out_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return code, text

    def output_bytes(self, result):
        code, text = result
        return f"{code}\n{text}".encode()

    def check(self, out_path, inp, result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        if text is None:
            return "no CSV written"
        index, x0, v0 = inp
        label, _, n, T, L, _ = _GEODESIC_METRICS[index]
        rows = list(csv.reader(io.StringIO(text)))
        header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"v{i + 1}" for i in range(n)] + ["L"]
        if rows[0] != header:
            return f"CSV header {rows[0]} != {header}"
        data = np.array(rows[1:], dtype=float)
        if data.shape != (200, 2 * n + 2) or not np.all(np.isfinite(data)):
            return f"CSV body has shape {data.shape} or non-finite entries"
        if data[0, 0] != 0.0 or abs(data[-1, 0] - T) > 1e-9 * T:
            return f"time column runs {data[0, 0]}..{data[-1, 0]}, expected 0..{T}"
        start = np.concatenate([x0, v0])
        if np.abs(data[0, 1:-1] - start).max() > START_BOUND * max(1.0, np.abs(start).max()):
            return "first row does not match the initial data"
        Ls = data[:, -1]
        drift = np.abs(Ls - Ls[0]).max() / abs(Ls[0])
        if drift > L_DRIFT_BOUND:
            return f"relative L drift {drift:.3g} > {L_DRIFT_BOUND:g}"
        own = np.array([L(r[1 : 1 + n], r[1 + n : 1 + 2 * n]) for r in data])
        col = np.abs(own - Ls).max() / np.abs(Ls).max()
        if col > L_COLUMN_BOUND:
            return f"L column differs from the closed form by {col:.3g} > {L_COLUMN_BOUND:g}"
        if label == "sphere_expr":
            gap = np.abs(data[-1, 1:-1] - data[0, 1:-1]).max() / max(1.0, np.abs(data[0, 1:-1]).max())
            if gap > CLOSURE_BOUND:
                return f"great circle does not close: gap {gap:.3g} > {CLOSURE_BOUND:g}"
        return None

    def quality(self, result):
        return 0.0, 0.0


def make(name):
    return GeodesicWorkload() if name == "geodesic" else VerifyWorkload(name)
