"""Benchmark of the finsler package.

Run from the repository root:

    python3 bench/run.py --workload verify_d2 --seed 1 --seconds 25 --trace 0

Workloads are listed in bench/spec.py with the reason each was chosen.  Load
is one process in a closed loop, one op at a time, with BLAS pinned to one
thread.

A run's op inputs are a fixed list drawn from --seed, as long as about half
of --seconds of work at the parent commit (bench/spec.py), so the list depends
on the seed and --seconds alone.  The loop runs the whole list once and then
replays it from the start, in whole cycles (one op per family or metric),
until --seconds have passed.  `attempted` and `failed` count the distinct
inputs; every replay must give the same bytes as the first run of its input.
Two runs with the same arguments therefore attempt and fail the same ops.

--trace 0 prints the end-to-end metrics.  setup_s is the median over 11
fresh processes, started between cycles across the run, that each import the
package, build the workload's metrics, parse its metric files and warm the
jet tables, measured from spawn to ready.

--trace 1 runs each op input twice, untraced and then traced (bench/tracer.py),
requires the two outputs to be byte-identical, and prints the per-layer
metrics from the traced calls; trace.overhead_ratio is the traced wall time
over the untraced one.  The spans go to .bench_out/.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  `failed` counts op
inputs that raised or failed their output check; `correct` is false when the
benchmark's own consistency checks fail: a replayed op input, or traced
against untraced, giving different bytes.  A run record
with the environment and every failed op goes to .bench_out/ as well.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child process.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads
from spec import INPUT_SHARE, LAYERS, NOMINAL_OP_S, PER_LAYER, TAIL_PERCENTILE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 11


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "finsler", "__init__.py")):
        _fail(f"no package source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import finsler

    if not os.path.abspath(finsler.__file__).startswith(SRC + os.sep):
        _fail(f"imported finsler from {finsler.__file__}, not from {SRC}")
    return finsler


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(ref[5:]):
                    return line.split()[0]
    return f"unknown ({ref})"


def environment():
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
        "git_commit": _git_commit(),
        "machine_settings": "unchanged: no cache drops, huge pages or cgroup changes",
    }


def _setup_probe_seconds(workload, seed):
    """Spawn-to-ready time of one fresh process doing the workload's set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        _fail(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def _op_inputs(wl, args):
    """The run's distinct op inputs: whole cycles, their number fixed by the
    workload and --seconds, their values by --seed."""
    cycles = max(1, round(INPUT_SHARE * args.seconds / (wl.cycle * NOMINAL_OP_S[args.workload])))
    return list(itertools.islice(wl.inputs(args.seed), cycles * wl.cycle))


def _closed_loop(wl, ops, seconds, on_op, between=None):
    """Run the op inputs in order, on_op(k, ops[k]) for each, once through and
    then again from the start, in whole cycles, until `seconds` of op time
    have passed.  between(busy), if given, runs after each cycle and its own
    time is not counted.  Returns (ops run, seconds spent in cycles)."""
    run = 0
    busy = 0.0
    while run < len(ops) or busy < seconds:
        t0 = time.perf_counter()
        for _ in range(wl.cycle):
            k = run % len(ops)
            on_op(k, ops[k])
            run += 1
        busy += time.perf_counter() - t0
        if between is not None:
            between(busy)
    return run, busy


def _timed(wl, state, inp):
    """One op: (result or None, error text or None, wall seconds)."""
    t0 = time.perf_counter()
    try:
        result = wl.run(state, inp)
        error = None
    except Exception as exc:  # an op that raises counts as failed; the loop goes on
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - t0


def _output(wl, result):
    return None if result is None else wl.output_bytes(result)


def _fingerprint(wl, result, error):
    return error.encode() if error is not None else _output(wl, result)


def _failures(wl, state, ops, results):
    out = []
    for k, (inp, (result, error)) in enumerate(zip(ops, results)):
        reason = error if error is not None else wl.check(state, inp, result)
        if reason is not None:
            out.append({"op": k, "input": wl.describe(state, inp), "reason": reason})
    return out


def run_untraced(args, wl, env):
    state = wl.setup()
    ops = _op_inputs(wl, args)
    results, prints, times = [None] * len(ops), [None] * len(ops), []
    replays = [0, 0]  # replayed ops, replays that gave other bytes

    def on_op(k, inp):
        result, error, dt = _timed(wl, state, inp)
        times.append(dt)
        fingerprint = _fingerprint(wl, result, error)
        if results[k] is None:
            results[k] = (result, error)
            prints[k] = fingerprint
        else:
            replays[0] += 1
            replays[1] += fingerprint != prints[k]

    # set-up probes are spread over the run, so they see the same machine
    # state as the ops do, rather than a few seconds of it
    setup_samples = []

    def probe(busy):
        while len(setup_samples) < SETUP_RUNS and busy >= len(setup_samples) * args.seconds / SETUP_RUNS:
            setup_samples.append(_setup_probe_seconds(args.workload, args.seed))

    try:
        n, wall = _closed_loop(wl, ops, args.seconds, on_op, between=probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = _failures(wl, state, ops, results)
        if not replays[0]:  # the loop replayed nothing: replay the first input after it
            on_op(0, ops[0])
            times.pop()
    finally:
        wl.close()
    replay_ok = not replays[1]

    while len(setup_samples) < SETUP_RUNS:
        setup_samples.append(_setup_probe_seconds(args.workload, args.seed))
    setup_s = statistics.median(setup_samples)
    distinct = len(ops)
    q = TAIL_PERCENTILE[args.workload]
    tail = float(np.percentile(times, q))
    beyond = sum(t > tail for t in times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / wall, "ops/s"),
        "op_ms.p50": (1000.0 * statistics.median(times), "ms"),
        "op_ms.tail": (1000.0 * tail, "ms"),
        "pass_ratio": ((distinct - len(failures)) / distinct, "passed/attempted"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [
        f"setup_s      {setup_s:.4f} s  (median of {SETUP_RUNS} fresh processes spread over the run: "
        + ", ".join(f"{s:.3f}" for s in setup_samples)
        + ")",
        f"ops_per_s    {n / wall:.4f} ops/s  ({n} ops over {distinct} distinct inputs in {wall:.2f} s of cycles, "
        f"closed loop, 1 client, whole cycles of {wl.cycle})",
        f"op_ms.p50    {metrics['op_ms.p50'][0]:.3f} ms  (n={n})",
        f"op_ms.tail   {metrics['op_ms.tail'][0]:.3f} ms  (p{q:g}, n={n}, {beyond} ops beyond it)",
        f"fail_ratio   {len(failures) / distinct:.4f} failed/attempted  ({len(failures)} of {distinct} distinct inputs)",
        f"pass_ratio   {metrics['pass_ratio'][0]:.4f} passed/attempted",
        f"peak_rss_mb  {peak_rss_mb:.2f} MB",
        f"replays byte-identical to the first run of their input: {replay_ok} ({replays[0]} replays)",
    ]
    if beyond < 10:
        lines.append(f"warning: only {beyond} ops beyond p{q:g}; the run is too short for a stable tail")
    record = {
        "ops_run": n,
        "tail_percentile": q,
        "ops_beyond_tail": beyond,
        "setup_samples_s": setup_samples,
        "replay_identical": replay_ok,
        "op_ms": [1000.0 * t for t in times],
    }
    return metrics, distinct, failures, replay_ok, lines, record


_NO_CALLS = [0, 0.0, 0.0, 0]
_STAT_FIELDS = {"calls": 0, "total_s": 1, "self_s": 2}


def run_traced(args, wl, env):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced_state = wl.setup()
    finally:
        tracer.uninstall()
    setup_stats, _ = tracer.take()
    state = wl.setup()
    ops = _op_inputs(wl, args)
    plain_times, traced_times, same = [], [], []
    pairs = [None] * len(ops)
    quality = [0.0, 0.0]

    def on_op(k, inp):
        result, error, dt = _timed(wl, state, inp)
        plain_times.append(dt)
        tracer.install()
        tracer.begin_op(len(plain_times) - 1)
        try:
            t_result, t_error, t_dt = _timed(wl, traced_state, inp)
        finally:
            tracer.end_op()
            tracer.uninstall()
        traced_times.append(t_dt)
        if pairs[k] is None:
            pairs[k] = (result, error)
        same.append(_fingerprint(wl, result, error) == _fingerprint(wl, t_result, t_error))
        if result is not None:
            worst, sb = wl.quality(result)
            quality[0] = max(quality[0], worst)
            quality[1] = max(quality[1], sb)

    try:
        n, wall = _closed_loop(wl, ops, args.seconds, on_op)
        failures = _failures(wl, state, ops, pairs)
    finally:
        wl.close()
    stats, counters = tracer.take()
    identical = all(same)

    shoots = stats.get("curves.geodesic_shoot", _NO_CALLS)[0]
    sampled = stats.get("verify.sample_tangent", _NO_CALLS)
    attempts = counters["sample_attempts"]
    special = {
        "jets.mul.madds": counters["madds"] / n,
        "jets.space_builds": float(setup_stats.get("jets.JetSpace", _NO_CALLS)[0] + stats.get("jets.JetSpace", _NO_CALLS)[0]),
        "metrics.L_eval.calls.float": counters["L_float"] / n,
        "metrics.L_eval.calls.jet": counters["L_jet"] / n,
        "curves.rhs_calls": counters["rhs_calls"] / n,
        "curves.rhs_per_shoot": counters["rhs_calls"] / shoots if shoots else 0.0,
        "verify.sample_tangent.accept_ratio": (sampled[0] - sampled[3]) / attempts if attempts else 0.0,
        "verify.worst_tol_ratio": quality[0],
        "verify.second_bianchi.tol_ratio": quality[1],
        "trace.overhead_ratio": sum(traced_times) / sum(plain_times),
    }
    for order in (2, 3, 4):
        special[f"geometry.metric_blocks.calls.o{order}"] = counters.get(f"blocks_o{order}", 0) / n
    for layer in LAYERS:
        special[f"layer.{layer}.self_s"] = sum(v[2] for k, v in stats.items() if k.startswith(layer + ".")) / n

    def value(name):
        # "<function key>.<calls|total_s|self_s>" reads the wrapped function's stats
        if name in special:
            return special[name]
        key, field = name.rsplit(".", 1)
        return stats.get(key, _NO_CALLS)[_STAT_FIELDS[field]] / n

    metrics = {name: (value(name), unit) for name, unit, _, _ in PER_LAYER}
    stem = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
    tracer.save(
        stem,
        {
            "workload": args.workload,
            "seed": args.seed,
            "ops": n,
            "environment": env,
            "setup_stats": setup_stats,
            "op_stats": stats,
            "op_counters": counters,
            "stats_fields": ["calls", "total_s", "self_s", "raised"],
        },
    )
    width = max(len(name) for name in metrics)
    lines = [f"{name:{width}s}  {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"{n} ops over {len(ops)} distinct inputs in {wall:.2f} s, each run untraced then traced; "
        f"outputs byte-identical: {identical}"
    )
    lines.append(f"spans: {len(tracer.span_key)} written to {stem}.npz, summary in {stem}.json")
    record = {"ops_run": n, "traced_identical": identical, "trace_files": [stem + ".npz", stem + ".json"]}
    return metrics, len(ops), failures, identical, lines, record


def _setup_probe(wl):
    _import_package()
    wl.setup()
    ready = time.monotonic()
    wl.close()
    print(repr(ready))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of the finsler package.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    wl = workloads.make(args.workload)
    if args.setup_probe:
        _setup_probe(wl)
        return 0
    _import_package()
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failures, consistent, lines, record = runner(args, wl, env)

    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {WORKLOADS[args.workload]}")
    for line in lines:
        print(line)
    for f in failures:
        print(f"failed op {f['op']}: {f['input']}: {f['reason']}")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=env,
        attempted=attempted,
        failures=failures,
        metrics=metrics,
    )
    path = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {
        "correct": bool(consistent),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
