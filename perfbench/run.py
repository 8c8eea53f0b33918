#!/usr/bin/env python3
"""Benchmark of the mixlearn learn pipeline, driven in-process through run_learn.

One workload per run, in its own process:

  python3 perfbench/run.py --workload sampled-wide --seed 1 --seconds 25 --trace 0

Every workload, one after the other, each in a fresh process, with a table:

  python3 perfbench/run.py --seed 1 --seconds 25

A run builds the workload's source (the set-up), runs one untimed warm-up
instance, then times whole rounds of the workload's fixed instance list, in an
order fixed by --seed, for about --seconds. It then checks every learned
mixture against computations made apart from the program (checks.py). With
--trace 0 it reports the end-to-end metrics; with --trace 1 it records spans
around the calls into each layer (tracing.py) and reports per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The program is imported from src/ of the
checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import MIB, Tracer, layer_metrics  # noqa: E402
from workloads import WARMUP_SEED, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# one BLAS thread (nproc is 2 where the reference figures were taken): the
# Jacobi eigensolver is Python loops, and one thread keeps runs steady
BLAS_THREADS = 1
SETUP_REPEATS = 9
# the rule of highest percentile with at least this many instances beyond it
TAIL_BEYOND = 10


def _prepare_process():
    """Fix the BLAS threads before numpy loads and import mixlearn from src/."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "mixlearn" / "__init__.py").is_file():
        raise SystemExit(f"error: no mixlearn package under {SRC}")
    sys.path.insert(0, str(SRC))


def tail(times, beyond=TAIL_BEYOND):
    """The highest value with at least ``beyond`` values above it, and its percentile."""
    if len(times) <= beyond:
        raise ValueError(f"need more than {beyond} instances for a tail percentile")
    ordered = sorted(times)
    return ordered[-beyond - 1], 100.0 * (len(ordered) - beyond) / len(ordered)


def set_up(workload):
    """Generate the workload's source and measure its width; returns both."""
    import mixlearn.cli as cli
    from mixlearn.model import width_report

    source = cli.generate_source(cli.ExperimentConfig(
        n=workload.n, k=workload.k, seed=workload.source_seed, zeta=workload.gen_zeta))
    return source, width_report(source).zeta


def setup_probe(workload):
    """Seconds to import mixlearn (inside set_up, the first import) and set the workload up."""
    start = time.perf_counter()
    set_up(workload)
    return time.perf_counter() - start


def measure_setup(workload):
    """Median set-up time over fresh interpreters, so the import is paid each time."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload.name],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_workload(workload, seed, seconds, tracer):
    import mixlearn.cli as cli
    from mixlearn.learner import MatchingFailure

    source, zeta = set_up(workload)

    def config(instance_seed):
        return cli.ExperimentConfig(
            n=workload.n, k=workload.k, seed=instance_seed, zeta=zeta, mode=workload.mode,
            samples1=workload.samples, samples2=workload.samples, samples_hi=workload.samples)

    tracer.scope = "warmup"
    try:
        cli.run_learn(config(WARMUP_SEED), source)
    except MatchingFailure:
        pass
    tracer.scope = "instances"

    order = list(workload.seeds)
    random.Random(seed).shuffle(order)
    times, failures, results = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for instance_seed in order:
            cfg = config(instance_seed)
            t0 = time.perf_counter()
            try:
                report, learned = cli.run_learn(cfg, source)
            except MatchingFailure:
                report = None
            times.append(time.perf_counter() - t0)
            if report is None:
                failures.append(instance_seed)
            else:
                results.append((instance_seed, report["row"]["tran_dist"], report["kprime"],
                                (learned.weights, learned.constituents)))
        now = time.perf_counter()
        # whole rounds only; start another only if it should end within --seconds
        if now - start + (now - round_start) > seconds:
            break
    truth = (source.weights, source.constituents)
    return truth, cli.ExperimentConfig().eps, times, failures, results


def main_one(args):
    workload = WORKLOADS[args.workload]
    _prepare_process()
    if args.setup_probe:
        print(repr(setup_probe(workload)))
        return 0
    setup_s = None if args.trace else measure_setup(workload)
    tracer = Tracer()  # records only when installed
    if args.trace:
        tracer.install()
    try:
        truth, eps, times, failures, results = run_workload(workload, args.seed, args.seconds, tracer)
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB

    from checks import check_instances  # scipy loads only after peak memory is read

    problems = check_instances(truth, workload.mode, eps, results)
    trans = [tran for _, tran, _, _ in results]
    run_p50 = statistics.median(times)
    run_tail, tail_pct = tail(times)
    info = (f"{workload.name}: {len(times)} instances, {len(failures)} failed "
            f"(seeds {sorted(set(failures))}), run_s p50 {run_p50:.5f} "
            f"p{tail_pct:.2f} {run_tail:.5f}, BLAS threads {BLAS_THREADS}")
    if args.trace:
        metrics, instance_self_s = layer_metrics(tracer, len(times))
        mean_s = sum(times) / len(times)
        if abs(instance_self_s - mean_s) > 0.01 * mean_s:
            problems.append(f"self times add up to {instance_self_s:.6f} s per instance, "
                            f"but instances took {mean_s:.6f} s")
        info += f", traced: self times {instance_self_s:.5f} s of {mean_s:.5f} s per instance"
        tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.json")
    else:
        metrics = {
            "run_s.p50": (run_p50, "s"),
            "run_s.tail": (run_tail, "s"),
            "instances_per_s": (len(results) / sum(times), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "tran_dist.p50": (statistics.median(trans), "TV"),
        }
    print(info, file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main_all(args):
    """Run every workload in a fresh process and print its metrics as a table."""
    ok = True
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        if out.returncode != 0:
            print(f"{name}: exited with {out.returncode}")
            ok = False
            continue
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and doc["correct"]
        print(f"{name}: correct {doc['correct']}, attempted {doc['attempted']}, "
              f"failed {doc['failed']}")
        for metric, value in doc["metrics"].items():
            print(f"  {metric:<28} {value['value']:>14.6g} {value['unit']}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload; without it every workload runs")
    ap.add_argument("--seed", type=int, default=1, help="fixes the order of the instances")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="whole rounds of instances run while they fit in this time; at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    return main_one(args) if args.workload else main_all(args)


if __name__ == "__main__":
    sys.exit(main())
