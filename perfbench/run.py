#!/usr/bin/env python3
"""Run one benchmark workload against the magna sources of this checkout.

    python3 perfbench/run.py --workload node_cora --seed 1 --seconds 12 --trace 0

Prints a readable report (every metric by name and unit, the checks, the
environment) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run, plus the tracing overhead. A copy of the
result and the trace's spans go to ``.bench_out/`` in the checkout.

BLAS and OpenMP run on one thread, set here before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("node_cora", "kg_train", "kg_eval", "spectrum")
# what each workload's unit is, for the readable report
UNIT_NAMES = {"node_cora": "epoch_ms", "kg_train": "step_ms", "kg_eval": "eval_ms", "spectrum": "spectrum_ms"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs the same code on toy sizes (smoke test only)")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference.json from this checkout's trainers and exit")
    args = p.parse_args(argv)
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            return config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError):
            return None

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "magna"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "magna", name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def tail_percentile(values):
    """(percentile, value) of the highest sample with ten samples above it."""
    n = len(values)
    return None if n < 11 else (100.0 * (n - 10) / n, sorted(values)[n - 11])


def end_to_end(session) -> dict:
    speed = session.probe.speed()
    return {
        "setup_s": (statistics.median(session.setup_s) * speed, "s"),
        "unit_ms": (statistics.median(session.unit_ms()) * speed, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report_lines(args, session, env, metrics) -> list:
    units = session.unit_ms()
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  scale {args.scale}",
             "env " + json.dumps(env, sort_keys=True)]
    lines += [f"  {name:<36} {value:>14.6f} {unit}" for name, (value, unit) in metrics.items()]
    probes = session.probe.samples
    lines.append(f"  speed factor {session.probe.speed():.4f}: probe mean {statistics.fmean(probes) * 1e3:.3f} ms "
                 f"over {len(probes)} probes, reference {session.probe.reference_s * 1e3:.3f} ms; "
                 "setup_s and unit_ms are raw medians times this factor")
    lines.append(f"  setup_s raw samples: {len(session.setup_s)} -> " + ", ".join(f"{s:.4f}" for s in session.setup_s))
    if units:
        lines.append(f"  {UNIT_NAMES[args.workload]}: raw median {statistics.median(units):.3f} ms "
                     f"over {len(units)} units, min {min(units):.3f}, max {max(units):.3f}")
        tail = tail_percentile(units)
        lines.append(f"  {UNIT_NAMES[args.workload]}_tail: " + (
            f"p{tail[0]:.1f} = {tail[1]:.3f} ms (n={len(units)})" if tail
            else f"n={len(units)}, fewer than 11 samples, no percentile has 10 beyond it"))
    for kind in ("warmup", "excluded"):
        ms = [u.ms for u in session.units if u.kind == kind]
        if ms:
            lines.append(f"  {kind} units (not in the median): " + ", ".join(f"{m:.1f}" for m in ms) + " ms")
    ratio = session.failed / session.attempted if session.attempted else 1.0
    lines.append(f"  fail_ratio {ratio:.6f} ({session.failed} of {session.attempted} operations)")
    lines += [f"  note: {n}" for n in session.notes]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "magna", "__init__.py")) or not os.path.isdir(os.path.join(ROOT, "configs")):
        print(f"perfbench: {ROOT} holds no magna checkout (src/magna and configs/ are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import magna

    if os.path.dirname(os.path.dirname(os.path.abspath(magna.__file__))) != SRC:
        print(f"perfbench: imported magna from {magna.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = os.path.join(OUT, f"work_{args.workload or 'reference'}_{args.seed}_{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.record_reference:
            with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
                json.dump({kind: workloads.reference_run(ROOT, workdir, kind)
                           for kind in workloads.REFERENCE_RUNS}, fh, indent=1)
                fh.write("\n")
            return 0
        tracer = tracing.Tracer() if args.trace else None
        session = workloads.Session(args.seconds, tracer)
        ctx = workloads.Context(ROOT, workdir, args.seed, args.scale, np.random.default_rng(args.seed))
        if tracer is not None:
            tracer.install()
        try:
            workloads.WORKLOADS[args.workload](ctx, session)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(session)
    else:
        traced = sum(1 for u in session.units if u.traced)
        metrics = tracing.layer_metrics(tracer, len(session.setup_s), traced)
        overhead = statistics.median(session.unit_ms(traced=True)) - statistics.median(session.unit_ms())
        metrics["trace.overhead_ms"] = (overhead, "ms")
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.dump(os.path.join(OUT, "traces", f"{args.workload}_seed{args.seed}.jsonl"))
    env = environment()
    for line in report_lines(args, session, env, metrics):
        print(line)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}_seed{args.seed}_trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "environment": env, "units_ms": [u.__dict__ for u in session.units],
                   "setup_s": session.setup_s, "probe_s": session.probe.samples, "notes": session.notes},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
