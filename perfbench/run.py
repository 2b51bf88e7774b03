#!/usr/bin/env python3
"""zigprune benchmark: one command, end-to-end and per-layer.

    python3 perfbench/run.py                       # all three workloads
    python3 perfbench/run.py --workload dhspg_many_groups --seed 3 --seconds 20
    python3 perfbench/run.py --workload deep_resnet_surgery --trace 1

Run it from the repository root (the directory holding ``src/zigprune`` and
``BENCHMARK.json``). Each workload runs in its own process with one BLAS
thread. With ``--trace 0`` the process sets up a few times, then repeats
whole rounds until ``--seconds`` have passed, and reports the ``end_to_end``
metrics of BENCHMARK.json: medians of the set-up times and of each figure
over all timed repeats of all rounds, with timings in reference seconds
(refclock.py). With ``--trace 1`` it runs one set-up and one round plain,
then the same again with spans recorded around zigprune's public functions,
and reports the ``per_layer`` metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_runs")
CHILD_TIMEOUT_S = 175
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="a workload of workloads.py, or all of them")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# child: one workload in this process
# ---------------------------------------------------------------------------

def end_to_end(wl, seconds: int) -> tuple[dict, list, int, list[str]]:
    import refclock

    setup_s = []
    for _ in range(wl.SETUP_REPEATS):
        state, t = refclock.timed("python", wl.setup)
        setup_s.append(t)
    errors = wl.check_setup(state) if hasattr(wl, "check_setup") else []
    rounds, failed = [], 0
    start = time.perf_counter()
    while not rounds and not failed or time.perf_counter() - start < seconds:
        try:
            rounds.append(wl.run_round(state, len(rounds) + failed))
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            failed += 1
    values = {"setup_s": statistics.median(setup_s),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for key in rounds[0].values if rounds else ():
        values[key] = statistics.median(r.values[key] for r in rounds)
    for key in rounds[0].timings if rounds else ():
        values[key] = statistics.median(x for r in rounds for x in r.timings[key])
    for r in rounds:
        errors.extend(r.errors)
    return values, rounds, failed, errors


def per_layer(wl) -> tuple[dict, list, int, list[str]]:
    from spans import Tracer

    t0 = time.perf_counter()
    state = wl.setup()
    plain = [wl.run_round(state, 0)]
    plain_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        state = wl.setup()
        traced = [wl.run_round(state, 0)]
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics(traced_s)
    values["trace.overhead_ratio"] = traced_s / plain_s
    os.makedirs(WORKDIR, exist_ok=True)
    with open(os.path.join(WORKDIR, f"trace_{wl.name}_seed{wl.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"columns": ["name", "parent", "start", "end"], "spans": tracer.spans}, fh)
    errors = wl.check_setup(state) if hasattr(wl, "check_setup") else []
    for r in plain + traced:
        errors.extend(r.errors)
    return values, plain + traced, 0, errors


def child(args) -> int:
    for key in ONE_THREAD:
        if os.environ.get(key) != "1":
            print(f"perfbench: {key} must be 1 in the workload process", file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, HERE]
    import zigprune

    if not os.path.abspath(zigprune.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported zigprune from {zigprune.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: no workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            values, rounds, failed, errors = per_layer(wl)
        else:
            values, rounds, failed, errors = end_to_end(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print(f"perfbench: {args.workload}: check failed: {e}", file=sys.stderr)
    if not rounds:
        print(f"perfbench: {args.workload}: no round completed", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec()["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": not errors,
                      "attempted": len(rounds) + failed, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# parent: one process per workload
# ---------------------------------------------------------------------------

def run_workload(name: str, args) -> dict | None:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = {**os.environ, **ONE_THREAD}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "zigprune", "__init__.py")):
        print(f"perfbench: no zigprune sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    names = [args.workload]
    if args.workload == "all":
        sys.path[:0] = [SRC, HERE]
        from workloads import WORKLOADS

        names = list(WORKLOADS)
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 1
        results[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
