"""doamap benchmark: Monte Carlo draws and the identity suite, timed end to
end, checked against a golden record, and traced per layer.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one table

Run from anywhere; the package is imported from ../src.  With --trace 0 the
run reports the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones, measured in a separate pass of traced ops.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A result file with the run's manifest (and, traced, every
span) is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# One BLAS thread per workload process: steadier timings on a shared
# 2-core machine.  Pinned here, never in the package.
BLAS_THREADS = 1
# Setup is measured in this process and in this many fresh processes; the
# median is reported.
SETUP_PROBES = 4
# Traced ops: the self times of an op's spans must sum to its wall time,
# measured around the op from outside, within this share or 0.5 ms (a
# speed sample, about 0.1 ms, can land just outside the op's root span).
OP_SUM_TOL = 1e-2
OP_SUM_TOL_NS = 500_000
WORKLOADS = ("desk-sweep", "paper-draws", "identity-suite")


def pin_blas():
    """Fix the BLAS thread count before numpy loads; children inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import doamap from this checkout's src/, never an installed copy."""
    if not (SRC / "doamap" / "__init__.py").is_file():
        raise SystemExit(f"error: no doamap package in {SRC}")
    sys.path.insert(0, str(SRC))
    import doamap

    if Path(doamap.__file__).resolve().parent != SRC / "doamap":
        raise SystemExit(f"error: imported doamap from {doamap.__file__}")


def setup(args, meter):
    """Imports, config construction and one uncounted warm-up op, the
    same for every seed.

    Returns the workload, its task stream and the setup seconds as
    (wall, at reference speed).
    """
    t0 = time.perf_counter()
    import_package()
    import workloads

    wl = workloads.make(args.workload)
    wl.run(wl.pool()[0])
    t1 = time.perf_counter()
    return wl, wl.tasks(args.seed), (t1 - t0, meter.scaled(t0, t1))


def setup_probe(args):
    """Setup (wall, scaled) seconds in a fresh process of this script."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def run_op(wl, task, tracer=None):
    """One op; returns its output, or the exception it raised."""
    try:
        if tracer is None:
            return wl.run(task)
        with tracer.op_span():
            return wl.run(task)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        return exc


def check_ops(wl, golden, done):
    """Golden-check each (task, output); returns the failures."""
    import workloads

    failures = []
    for task, out in done:
        key = wl.key(task)
        if isinstance(out, Exception):
            failures.append(f"{key}: raised {out!r}")
            continue
        try:
            diffs = workloads.mismatches(golden.get(key), wl.record(out))
        except (TypeError, ValueError) as exc:
            diffs = [f"unreadable output {exc!r}"]
        if diffs:
            failures.append(f"{key}: " + "; ".join(diffs[:3]))
    return failures


def write_csv(wl, done, path, problems):
    outs = [out for _, out in done if not isinstance(out, Exception)]
    try:
        problems += wl.write(outs, path)
    except Exception as exc:  # noqa: BLE001 - reported as a wrong output
        problems.append(f"CSV write raised {exc!r}")


def timed_run(wl, tasks, seconds, csv_path, problems):
    """Whole cycles of ops until `seconds` pass, then (desk-sweep) the CSV
    writes.

    Returns the (task, output) pairs, each op's interval and the interval
    of the CSV writes (None without them).
    """
    done, intervals = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(done) % wl.cycle_len:
        task = next(tasks)
        t0 = time.perf_counter()
        done.append((task, run_op(wl, task)))
        intervals.append((t0, time.perf_counter()))
    write = None
    if wl.writes_csv:
        t0 = time.perf_counter()
        write_csv(wl, done, csv_path, problems)
        write = (t0, time.perf_counter())
    return done, intervals, write


def traced_run(wl, tasks, seconds, csv_path, problems):
    """Cycles of one plain and one traced pass over the same fixed ops.

    The ops are one cycle of the task stream, so every traced pass does
    the same work and its counts must repeat exactly.  Which pass
    goes first alternates, so drift does not bias the tracing overhead.
    Returns the (task, output) pairs, the tracers, each op's wall ns and
    the intervals of the plain and of the traced passes.
    """
    import tracing

    op_tasks = [next(tasks) for _ in range(wl.cycle_len)]
    done, tracers, walls = [], [], []
    passes = {False: [], True: []}

    def one_pass(tracer):
        out = []
        t0 = time.perf_counter()
        for i, task in enumerate(op_tasks):
            if tracer is None:
                out.append((task, run_op(wl, task)))
                continue
            tracer.op = i
            a = time.perf_counter_ns()
            out.append((task, run_op(wl, task, tracer)))
            walls.append(time.perf_counter_ns() - a)
        if wl.writes_csv:
            if tracer is not None:
                tracer.op = "write"
            write_csv(wl, out, csv_path, problems)
        passes[tracer is not None].append((t0, time.perf_counter()))
        done.extend(out)

    def traced_pass():
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            one_pass(tracer)
        tracers.append(tracer)

    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        if len(tracers) % 2:
            traced_pass()
            one_pass(None)
        else:
            one_pass(None)
            traced_pass()

    return done, tracers, walls, passes


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    top_dir, commit = top.stdout.split()
    return commit if Path(top_dir).resolve() == ROOT else None


def openblas_threads():
    """Thread count numpy's OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def manifest(args, wl):
    import inspect

    import numpy as np
    import scipy

    from doamap import bench

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    source = hashlib.sha256()
    for path in sorted((SRC / "doamap").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    if wl.config is None:
        shape = {k: p.default for k, p in inspect.signature(
            bench.validate_distributions).parameters.items()}
    else:
        cfg = wl.config
        shape = dict(d=cfg.d, k_true=cfg.k_true, m=cfg.m, n=cfg.n,
                     k_max=cfg.k_max, grid_step_deg=cfg.grid_step_deg,
                     methods=list(cfg.methods), snr_grid_db=list(cfg.snr_grid_db),
                     overlap=list(cfg.overlap), decay=list(cfg.decay),
                     master_seed=cfg.master_seed, pool_runs=wl.pool_runs)
    return {
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": os.cpu_count(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": openblas_threads(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": shape,
    }


def quantile(xs, q):
    return statistics.quantiles(xs, n=100)[q - 1] if len(xs) > 1 else xs[0]


def end_to_end(meter, setups, intervals, write):
    """End-to-end values at reference speed, and "_wall" ones as measured."""
    values = {"peak_rss_mb":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    for col, suffix, secs in ((1, "", meter.scaled),
                              (0, "_wall", lambda t0, t1: t1 - t0)):
        op_s = [secs(*iv) for iv in intervals]
        total = sum(op_s) + (secs(*write) if write else 0.0)
        values["setup_s" + suffix] = statistics.median(s[col] for s in setups)
        values["ops_per_s" + suffix] = len(op_s) / total
        values["op_ms_p50" + suffix] = statistics.median(op_s) * 1e3
        values["op_ms_p90" + suffix] = quantile(op_s, 90) * 1e3
        values["op_ms_all" + suffix] = [t * 1e3 for t in op_s]
    return values


def per_layer(meter, tracers, walls, passes, problems):
    """Per-layer values, each traced pass scaled to reference speed.

    Also checks that counts repeat exactly between traced passes and that
    each op's self times sum to its wall time.
    """
    import tracing

    if any(t.counts != tracers[0].counts for t in tracers):
        problems.append("exact counts differ between traced passes")
    ops_per_pass = len(walls) // len(tracers)
    worst = 0.0
    for k, tracer in enumerate(tracers):
        sums, roots = tracing.op_self_sums_ns(
            tracer.spans, tracing.self_times_ns(tracer.spans))
        for i in range(ops_per_pass):
            wall = walls[k * ops_per_pass + i]
            gap = abs(sums[i] - wall)
            worst = max(worst, gap / wall)
            if gap > max(OP_SUM_TOL * wall, OP_SUM_TOL_NS) or i not in roots:
                problems.append(f"op {i}: self times sum to {sums[i]} ns, "
                                f"op wall {wall} ns")

    scales = [meter.scaled(*iv) / (iv[1] - iv[0]) for iv in passes[True]]
    values = tracing.layer_metrics(tracers, scales, len(walls))
    plain, traced = (sum(meter.scaled(*iv) for iv in passes[t])
                     for t in (False, True))
    values["trace.overhead_frac"] = traced / plain - 1.0
    values["trace.op_self_sum_worst_gap_frac"] = worst
    return values


def run_workload(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    with speed.Speedometer() as meter:
        wl, tasks, setup_s = setup(args, meter)
        import workloads

        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}_seed{args.seed}"
        csv_path = OUT_DIR / f"{stem}.csv"
        if args.trace:
            done, tracers, walls, passes = traced_run(
                wl, tasks, args.seconds, csv_path, problems)
        else:
            done, intervals, write = timed_run(
                wl, tasks, args.seconds, csv_path, problems)
            setups = [setup_s] + [setup_probe(args)
                                  for _ in range(SETUP_PROBES)]
    if args.trace:
        listed = spec["per_layer"]
        values = per_layer(meter, tracers, walls, passes, problems)
        spans = [t.spans for t in tracers]
    else:
        listed = spec["end_to_end"]
        values = end_to_end(meter, setups, intervals, write)
        values["setup_samples"] = setups
        values["op_tasks"] = [wl.key(task) for task, _ in done]
        spans = None

    golden = workloads.load_golden(args.workload)
    failures = check_ops(wl, golden, done)
    if not workloads.self_check(next(iter(golden.values()))):
        problems.append("golden self-check: a perturbed k_hat was accepted")
    failed = len(failures)
    values["failed_frac"] = failed / len(done)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    result = {"correct": not failures and not problems,
              "attempted": len(done), "failed": failed, "metrics": metrics}
    result_path = OUT_DIR / f"{stem}_trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "manifest": manifest(args, wl), "result": result, "values": values,
        "failures": failures, "problems": problems, "spans": spans}))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(done)} ops, {failed} failed, result file {result_path}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {values['failed_frac']:.6g} 1")
    if not args.trace:
        if args.workload == "desk-sweep":
            print(f"  {'op_ms_p90':44s} {values['op_ms_p90']:.6g} ms")
        for name in ("setup_s", "ops_per_s", "op_ms_p50"):
            unit = next(m["unit"] for m in listed if m["name"] == name)
            print(f"  {name + '_wall':44s} {values[name + '_wall']:.6g} {unit}")
    for line in (failures + problems)[:10]:
        print(f"  FAIL {line}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, then one table of the metrics."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(f"{'workload':16s} {'metric':44s} {'value':>12s} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:16s} {metric:44s} {m['value']:12.6g} {m['unit']}")
        print(f"{name:16s} {'failed_frac':44s} "
              f"{res['failed'] / res['attempted']:12.6g} 1")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_blas()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        with speed.Speedometer() as meter:
            print(json.dumps(setup(args, meter)[2]))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
