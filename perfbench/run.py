"""Benchmark of the holderscores library, run from the root of a checkout.

One workload, one run:

    python3 perfbench/run.py --workload popfit-quad --seed 1 --seconds 25 --trace 0

Workloads: popfit-quad, mc-empirical, cli-diagnostics (see workloads.py).
Every op's result is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced:

    setup_s      import (median of three fresh interpreters), building the
                 inputs (median of three builds) and one untimed warm-up op
    ops_per_s    ops completed per second of the timed section
    op_p50_ms    median op latency
    peak_rss_mb  peak resident memory of this process
    ok_frac      ops that returned and passed their check, over ops attempted

With ``--trace 1`` the same loop runs with spans recorded around each call
into a layer, followed by the layer rows of layers.py; the metrics are the
per-layer ones, and the spans go to ``.perfbench/spans-<workload>.jsonl``.
Counts and seconds taken from the traced loop are per op, except
``estimators.fits`` and ``estimators.nonconverged``, which are totals.

Without ``--workload`` every workload runs twice, untraced and traced, each
in its own process, and a table with the tracing overhead is printed.

BLAS and OpenMP pools are pinned to one thread: the load is one process.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))


def import_seconds():
    """Median wall time of importing holderscores in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import holderscores"], env=env,
                       cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}}


def make_workload(name, seed, tracer=None, workdir=OUT):
    """Workload ``name`` on inputs drawn from ``seed``; CLI outputs go under workdir."""
    from workloads import WORKLOADS, CliDiagnostics
    cls = WORKLOADS[name]
    if cls is CliDiagnostics:
        return cls(seed, workdir, tracer=tracer)
    return cls(seed, tracer=tracer)


class Loop:
    """Outcome of the timed section."""

    def __init__(self):
        self.latencies = []
        self.outs = []
        self.failed = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0


def run_op(workload, i, tracer=None):
    """Prepare, run and check op i; returns (seconds in the op, output, ok)."""
    inputs = workload.prepare(i)
    if tracer is not None:
        tracer.op_id = i
    scope = tracer.span(workload.op_span) if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            out = workload.op(inputs)
        dt = time.perf_counter() - t0
        ok = workload.check(inputs, out)
    except Exception:  # one failed op is counted, the loop goes on
        dt = time.perf_counter() - t0
        traceback.print_exc()
        return dt, None, False
    return dt, out, ok


def timed_loop(workload, seconds, tracer=None):
    """Closed loop from op 1 until ``seconds`` have passed; at least one op."""
    loop = Loop()
    cpu0 = time.process_time()
    start = time.perf_counter()
    i = 1
    while True:
        dt, out, ok = run_op(workload, i, tracer)
        loop.latencies.append(dt)
        loop.outs.append(out)
        loop.failed += not ok
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    loop.wall_s = time.perf_counter() - start
    loop.cpu_s = time.process_time() - cpu0
    return loop


def end_to_end(name, seed, seconds):
    """Untraced run: set-up, warm-up, timed loop; the end-to-end metrics."""
    imp = import_seconds()
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = make_workload(name, seed)
        workload.prepare(0)
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    _, _, warm_ok = run_op(workload, 0)
    warm = time.perf_counter() - t0
    loop = timed_loop(workload, seconds)
    attempted = len(loop.latencies)
    lat_ms = sorted(1e3 * t for t in loop.latencies)
    metrics = {
        "setup_s": (imp + statistics.median(builds) + warm, "s"),
        "ops_per_s": (attempted / loop.wall_s, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - loop.failed) / attempted, "ratio"),
    }
    notes = [f"ops {attempted} in {loop.wall_s:.2f} s, cpu {loop.cpu_s:.2f} s",
             f"setup: import {imp:.3f} s + build {statistics.median(builds):.4f} s "
             f"+ warm-up op {warm:.3f} s"]
    if attempted >= 100:
        p90 = statistics.quantiles(lat_ms, n=10)[-1]
        notes.append(f"op_p90_ms {p90:.3f} ms (n={attempted})")
    return warm_ok, attempted, loop.failed, metrics, notes


def traced(name, seed, seconds):
    """Traced run: the same loop with spans, then the layer rows."""
    from layers import layer_rows
    from tracing import Tracer
    from workloads import cli_commands

    tracer = Tracer()
    workload = make_workload(name, seed, tracer)
    _, _, warm_ok = run_op(workload, 0, tracer)
    tracer.reset()
    loop = timed_loop(workload, seconds, tracer)
    attempted = len(loop.latencies)
    metrics = {}

    def put(key, value, unit):
        metrics[key] = (value, unit)

    fits = [o for o in loop.outs if hasattr(o, "converged")]
    per_fit = tracer.per_op(lambda n: n.startswith("scores."))
    evals = sum(per_fit.values())
    infs = tracer.counts["inf_evals"]
    selfs = tracer.self_seconds()
    put("models.density_calls", tracer.counts["density_calls"] / attempted, "count")
    put("models.density_nodes", tracer.counts["density_nodes"] / attempted, "count")
    put("models.density_s", sum(tracer.durations("models.density")) / attempted, "s")
    put("scores.calls", evals / attempted, "count")
    put("scores.self_s", selfs["scores"] / attempted, "s")
    put("estimators.fits", len(fits), "count")
    put("estimators.obj_evals", evals / attempted, "count")
    put("estimators.evals_per_fit",
        statistics.median(per_fit.values()) if per_fit else 0, "count")
    put("estimators.inf_evals", infs / attempted, "count")
    # no evaluation seen (the CLI builds its own objects): reported as 0
    put("estimators.finite_frac", 1.0 - infs / evals if evals else 0.0, "ratio")
    put("estimators.nonconverged", sum(not f.converged for f in fits), "count")
    put("estimators.self_s", selfs["estimators"] / attempted, "s")
    rounds = getattr(workload, "rounds", [])[1:]     # round 0 is the warm-up
    for cmd in cli_commands(seed):
        times = tracer.durations(f"cli.{cmd}")
        put(f"cli.{cmd}_ms", 1e3 * statistics.median(times) if times else 0.0, "ms")
    put("cli.bytes_written", sum(v[3] for v in rounds[-1].values()) if rounds else 0,
        "B")
    put("cli.exit_nonzero", sum(v[0] != 0 for r in rounds for v in r.values()), "count")
    put("proc.cpu_s", loop.cpu_s / attempted, "s")
    put("proc.wall_s", loop.wall_s / attempted, "s")
    put("trace.ops_per_s", attempted / loop.wall_s, "1/s")
    put("trace.spans", len(tracer.spans) / attempted, "count")

    metrics.update(layer_rows())
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}.jsonl",
                 {"workload": name, "seed": seed, "seconds": seconds,
                  "env": environment()})
    notes = [f"traced ops {attempted} in {loop.wall_s:.2f} s, {len(tracer.spans)} spans"]
    return warm_ok, attempted, loop.failed, metrics, notes


def single(args):
    measure = traced if args.trace else end_to_end
    warm_ok, attempted, failed, metrics, notes = measure(args.workload, args.seed,
                                                         args.seconds)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": environment()}))
    for note in notes:
        print(note)
    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:16.6g} {unit}")
    print(json.dumps({"correct": bool(warm_ok and failed == 0), "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args):
    """Each workload untraced, then traced, each in its own process."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            results[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"env": environment(), "seed": args.seed, "seconds": args.seconds}))
    for name in WORKLOADS:
        plain, trace = results[name, 0], results[name, 1]
        print(f"== {name}: correct={plain['correct'] and trace['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for key, m in {**plain["metrics"], **trace["metrics"]}.items():
            print(f"  {key:48s} {m['value']:16.6g} {m['unit']}")
        untraced = plain["metrics"]["ops_per_s"]["value"]
        overhead = untraced - trace["metrics"]["trace.ops_per_s"]["value"]
        print(f"  tracing overhead: {overhead:.4g} ops/s "
              f"({100 * overhead / untraced:.1f}% of untraced ops_per_s)")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{name}/{key}": m
                                  for (name, _), r in results.items()
                                  for key, m in r["metrics"].items()}}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="popfit-quad, mc-empirical or cli-diagnostics; all when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "holderscores" / "__init__.py").is_file():
        print(f"error: no holderscores source tree at {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
