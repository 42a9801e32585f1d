"""Command-line interface: curvature records, geodesic integration,
verification runs and flag-curvature tables.

Numeric vector flags are comma-separated decimals (no expressions); metric
definitions live in files.  JSON and CSV schemas are documented in the README
and kept stable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys

import numpy as np

from . import verify as verify_mod
from .curvature import flag_curvature, flag_curvature_predecessor, jacobi_operator
from .connection import christoffel
from .curves import geodesic_shoot
from .errors import FinslerError
from .metrics import _BUILTINS, TangentSample, builtin, load_metric
from .verify import VerificationPlan, _is_real, default_plan, run_verification

_BARE_BUILTINS = tuple(_BUILTINS)


def _vector(text):
    try:
        vec = np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated decimals, got {text!r}")
    if not np.all(np.isfinite(vec)):
        raise argparse.ArgumentTypeError(f"expected finite decimals, got {text!r}")
    return vec


_VECTOR_FLAGS = ("--x", "--v", "--u", "--w", "--x0", "--v0", "--box")


def _attach_negative_vectors(argv):
    """Join a vector starting with '-' to the vector flag before it, so that
    `--box -0.5,0.5` reads as `--box=-0.5,0.5`: argparse alone takes the
    separate token for an unknown option."""
    out = []
    for token in argv:
        if out and out[-1] in _VECTOR_FLAGS and re.match(r"-[\d.]", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _resolve_metric(name_or_path, dim):
    if os.path.exists(name_or_path):
        return load_metric(name_or_path)
    if name_or_path in _BARE_BUILTINS:
        return builtin(name_or_path, dim=dim)
    raise FinslerError(
        f"metric {name_or_path!r} is neither a file nor a parameter-free builtin name"
    )


def _check_lengths(metric, args, flags):
    """Refuse a vector flag whose length is not the metric's dimension."""
    for flag in flags:
        vec = getattr(args, flag)
        if vec is not None and len(vec) != metric.dim:
            raise FinslerError(f"--{flag} has {len(vec)} entries, metric {metric.name!r} has dim {metric.dim}")


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_curvature(args):
    metric = _resolve_metric(args.metric, len(args.x))
    _check_lengths(metric, args, ("x", "v", "u", "w"))
    sample = TangentSample(args.x, args.v)
    ce = christoffel(metric, sample)
    record = {
        "metric": metric.name,
        "x": args.x.tolist(),
        "v": args.v.tolist(),
        "u": args.u.tolist(),
        "L": metric.value(args.x, args.v),
        "g": ce.g.tolist(),
        "C": ce.cartan.tolist(),
        "Gamma": ce.Gamma.tolist(),
        "N": ce.N.tolist(),
        "jacobi": jacobi_operator(metric, sample, args.u).tolist(),
        "flag_curvature": flag_curvature(metric, sample, args.u),
    }
    if args.w is not None:
        record["w"] = args.w.tolist()
        record["flag_curvature_predecessor"] = flag_curvature_predecessor(
            metric, sample, args.u, args.w
        )
    _write_text(args.out, json.dumps(record, indent=2, sort_keys=True, allow_nan=False))
    return 0


def _at_least_one(args, flag):
    """Refuse a count flag below 1 before any work starts."""
    value = getattr(args, flag)
    if value < 1:
        raise FinslerError(f"--{flag} must be at least 1, got {value}")


def _cmd_geodesic(args):
    _at_least_one(args, "points")
    metric = _resolve_metric(args.metric, len(args.x0))
    _check_lengths(metric, args, ("x0", "v0"))
    curve = geodesic_shoot(metric, args.x0, args.v0, args.T, tol=args.tol)
    n = metric.dim
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = (
        ["t"]
        + [f"x{i+1}" for i in range(n)]
        + [f"v{i+1}" for i in range(n)]
        + ["L"]
    )
    writer.writerow(header)
    ts = np.linspace(0.0, args.T, args.points)
    for t, x, v in zip(ts, curve.position(ts).T, curve.velocity(ts).T):
        writer.writerow(
            [f"{t:.12g}"]
            + [f"{c:.17g}" for c in x]
            + [f"{c:.17g}" for c in v]
            + [f"{metric.value(x, v):.17g}"]
        )
    _write_text(args.out, buf.getvalue())
    return 0


def _plan_int(value, what):
    if not _is_real(value, (int,)):
        raise FinslerError(f"plan {what} must be an integer, got {value!r}")
    return value


def _plan_metric(entry, dim):
    """One metric entry of a plan file, type-checked before conversion."""
    if isinstance(entry, str):
        return builtin(entry, dim=dim)
    if isinstance(entry, dict) and "file" in entry:
        if not isinstance(entry["file"], str):
            raise FinslerError(f"plan metric file must be a path string, got {entry['file']!r}")
        return load_metric(entry["file"])
    if isinstance(entry, dict) and isinstance(entry.get("builtin"), str):
        kwargs = {"dim": _plan_int(entry.get("dim", dim), "metric dim")}
        if "radius" in entry:
            radius = entry["radius"]
            if not (_is_real(radius) and np.isfinite(radius) and radius > 0):
                raise FinslerError(f"plan radius must be a finite positive number, got {radius!r}")
            kwargs["radius"] = float(radius)
        if "matrix" in entry:
            matrix = entry["matrix"]
            if not (
                isinstance(matrix, list)
                and all(isinstance(row, list) for row in matrix)
                and all(isinstance(a, str) or _is_real(a) for row in matrix for a in row)
            ):
                raise FinslerError(
                    f"plan matrix must be a list of lists of numbers or expressions, got {matrix!r}"
                )
            kwargs["matrix"] = matrix
        return builtin(entry["builtin"], **kwargs)
    raise FinslerError(f"bad metric entry in plan: {entry!r}")


def _plan_from_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise FinslerError(f"plan must be a JSON object, got {type(doc).__name__}")
    known = {"metrics", "samples", "curve_samples", "heavy_samples", "seed", "degree", "box", "tolerances", "dim"}
    unknown = set(doc) - known
    if unknown:
        raise FinslerError(f"unknown plan keys: {', '.join(sorted(unknown))}")
    dim = _plan_int(doc.get("dim", 2), "dim")
    entries = doc.get("metrics", [])
    if not isinstance(entries, list):
        raise FinslerError(f"plan metrics must be a list, got {entries!r}")
    metrics = [_plan_metric(entry, dim) for entry in entries]
    if not metrics:
        raise FinslerError("plan lists no metrics")
    # verify._check_plan checks these values and the seed before sampling
    kwargs = {
        key: doc[key]
        for key in ("samples", "curve_samples", "heavy_samples", "degree", "box", "tolerances")
        if key in doc
    }
    return VerificationPlan(metrics=metrics, seed=doc.get("seed", 7), **kwargs)


def _cmd_verify(args):
    # precedence: explicit --seed / --samples, then the plan file, then the
    # defaults (seed 7, 50 samples)
    plan = default_plan() if args.plan == "default" else _plan_from_file(args.plan)
    if args.seed is not None:
        plan.seed = args.seed
    if args.samples is not None:
        plan.samples = args.samples
    if args.tol is not None:
        plan.tolerances = dict.fromkeys(verify_mod.DEFAULT_TOLERANCES, args.tol)
    verify_mod._check_plan(plan)  # the CLI hands run_verification only checked plans
    report = run_verification(plan)
    for line in report.summary_lines():
        print(line)
    if args.out:
        _write_text(args.out, report.to_json())
    else:
        print(report.to_json())
    return 0 if report.passed else 1


def _cmd_table(args):
    _at_least_one(args, "grid")
    # bare builtin names default to dim 2 unless --v says otherwise
    dim = len(args.v) if args.v is not None else 2
    metric = _resolve_metric(args.metric, dim)
    _check_lengths(metric, args, ("v", "u"))
    if len(args.box) != 2:
        raise FinslerError(f"--box needs 2 entries (lo,hi), got {len(args.box)}")
    n = metric.dim
    v = args.v if args.v is not None else np.eye(n)[0]
    u = args.u if args.u is not None else np.eye(n)[min(1, n - 1)]
    lo, hi = args.box
    grid = np.linspace(lo, hi, args.grid)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{i+1}" for i in range(n)] + ["L", "flag_curvature"])
    for a in grid:
        for b in grid if n > 1 else [None]:
            x = np.zeros(n)
            x[0] = a
            if n > 1:
                x[1] = b
            sample = TangentSample(x, v)
            K = flag_curvature(metric, sample, u)
            writer.writerow(
                [f"{c:.12g}" for c in x]
                + [f"{metric.value(x, v):.17g}", f"{K:.17g}"]
            )
    _write_text(args.out, buf.getvalue())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finsler",
        description="Pseudo-Finsler geometry: connection, curvature, geodesics, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="tensors and flag curvature at one sample")
    p.add_argument("--metric", required=True, help="metric file (or builtin name)")
    p.add_argument("--x", type=_vector, required=True)
    p.add_argument("--v", type=_vector, required=True)
    p.add_argument("--u", type=_vector, required=True)
    p.add_argument("--w", type=_vector, default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("geodesic", help="shoot a geodesic and emit a CSV trace")
    p.add_argument("--metric", required=True)
    p.add_argument("--x0", type=_vector, required=True)
    p.add_argument("--v0", type=_vector, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--plan", default="default", help="plan JSON file or 'default'")
    p.add_argument("--seed", type=int, default=None, help="override the plan's seed (default plan: 7)")
    p.add_argument(
        "--samples", type=int, default=None, help="override the plan's sample count (default plan: 50)"
    )
    p.add_argument(
        "--tol", type=float, default=None, help="override every identity tolerance"
    )
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="sweep a coordinate grid of flag curvatures")
    p.add_argument("--metric", required=True)
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--v", type=_vector, default=None)
    p.add_argument("--u", type=_vector, default=None)
    p.add_argument("--box", type=_vector, default=np.array([-0.5, 0.5]))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table)
    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_negative_vectors(argv))
    try:
        # an overflowing input ends in one error line below, from the check
        # that refuses a non-finite g or L; numpy's warnings on the overflow
        # before it would print lines of their own
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except FinslerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # e.g. a metric expression dividing by zero at the requested sample
        print(f"error: arithmetic failure while evaluating: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
