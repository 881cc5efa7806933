#!/usr/bin/env python3
"""meandim benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 1

Closed loop, one caller, one job at a time.  `--seconds` sets how much work a
run does: the workload's job list (a pass) is repeated with fresh seeded
inputs round(seconds / PASS_SECONDS) times, so the job count and the tail
percentile are fixed for a given setting and take about `--seconds` reference
seconds (no new pass starts after MAX_RUN_FACTOR x --seconds).  End-to-end timings are in reference seconds: raw seconds with
the host's speed drift divided out by a calibration kernel timed between
jobs (speed.py).  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of one extra traced
replay of pass 0.  See perfbench/README.md.
"""

import os

# Pin BLAS before numpy loads: OpenBLAS does not cap its own thread count.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)
os.environ.pop("MEANDIM_BUDGET", None)  # the library sees default budgets only

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# A run makes round(seconds / PASS_SECONDS) passes: at --seconds 20, 4 suite
# passes (about 6.0 reference seconds each at the seed commit), 4 oracle
# passes (3.0 s) and 6 closed_form passes (4.1 s).  The counts put each
# latency percentile inside a block of like jobs, away from the gaps.
PASS_SECONDS = {"suite": 5.0, "oracle": 5.0, "closed_form": 3.5}
MAX_RUN_FACTOR = 3  # bounds a run on a pathologically slow machine or program
SETUP_SAMPLES_PER_PASS = 1  # set-up samples are spread over the run, between passes
JOB_SPAN = "job"  # the benchmark's own glue around each job, in traced runs
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it


def _percentile_tail(latencies):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND jobs strictly above its rank, or the maximum when the run has
    too few jobs for that."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 100, xs[-1]


def environment():
    def git_sha():
        if not (ROOT / ".git").exists():
            return None
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        return proc.stdout.strip() or None

    digest = hashlib.sha256()
    for path in sorted((SRC / "meandim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "blas_pin": BLAS_PIN,
    }


def build_pass(workload, seed, pass_index, refs):
    from perfbench import jobs

    work = OUT / f"work-{os.getpid()}" / f"pass-{pass_index}"
    work.mkdir(parents=True, exist_ok=True)
    return jobs.WORKLOADS[workload](seed, pass_index, work, refs)


def run_pass(job_list, tracer=None):
    """Run each job once, in order; returns [(raw seconds, reference seconds,
    result, exception text)].  A speed reading is taken before the first job
    and after each one, outside the job's span."""
    from perfbench import speed

    out = []
    clock = time.perf_counter
    before = speed.reading()
    for job in job_list:
        t0 = clock()
        try:
            result = tracer.span(JOB_SPAN, job.run) if tracer else job.run()
            error = None
        except Exception as exc:  # a job failure is counted, the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        raw = clock() - t0
        after = speed.reading()
        out.append((raw, raw * speed.scale(before, after), result, error))
        before = after
    return out


def setup_sample(workload, seed):
    """(raw, reference) seconds of a fresh interpreter that imports meandim
    and builds the workload's pass-0 inputs."""
    from perfbench import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    before = speed.reading()
    t0 = time.perf_counter()
    # a blocking wait: Popen.wait(timeout) polls and rounds to 50 ms
    with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
        code = proc.wait()
    elapsed = time.perf_counter() - t0
    if code:
        raise RuntimeError(f"set-up run exited with {code}")
    return elapsed, elapsed * speed.scale(before, speed.reading())


def check_results(job_list, results):
    failures = []
    for job, (_, _, result, error) in zip(job_list, results):
        if error is None:
            try:
                error = job.check(result)
            except Exception as exc:  # a malformed result is a failed job
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append(f"{job.name}: {error}")
    return failures


def passes_for(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "meandim" / "__init__.py").is_file():
        print(f"benchmark: no meandim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    if args.setup_only:
        import meandim  # noqa: F401

        from perfbench import jobs

        try:
            build_pass(args.workload, args.seed, 0, jobs.load_refs())
        finally:
            shutil.rmtree(OUT / f"work-{os.getpid()}", ignore_errors=True)
        return 0

    load_start = os.getloadavg()
    started = time.perf_counter()
    # the end-to-end metrics come from untraced runs only: a traced run makes
    # one untraced pass, to compare results and wall with, and no set-up samples
    setup_per_pass = 0 if args.trace else SETUP_SAMPLES_PER_PASS
    if setup_per_pass:
        setup_sample(args.workload, args.seed)  # warm-up: bytecode caches written
    setup_times = []

    import meandim

    from perfbench import jobs, tracing

    if not Path(meandim.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: imported meandim from {meandim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    refs = jobs.load_refs()
    env = environment()
    env["loadavg_start"] = load_start

    n_passes = 1 if args.trace else passes_for(args.workload, args.seconds)
    raw_walls, walls, latencies, failures, passes = [], [], [], [], []
    try:
        for p in range(n_passes):
            if p and time.perf_counter() - started > MAX_RUN_FACTOR * args.seconds:
                break  # on a pathologically slow machine or program, bound the run
            job_list = build_pass(args.workload, args.seed, p, refs)
            results = run_pass(job_list)
            raw_walls.append(sum(raw for raw, _, _, _ in results))
            walls.append(sum(scaled for _, scaled, _, _ in results))
            latencies += [scaled for _, scaled, _, _ in results]
            passes.append((job_list, results))
            if p == 0:
                first_pass = (job_list, results)
            setup_times += [setup_sample(args.workload, args.seed)
                            for _ in range(setup_per_pass)]
        # read the high-water mark before the reference checks allocate anything
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for job_list, results in passes:
            failures += check_results(job_list, results)
        attempted = sum(len(job_list) for job_list, _ in passes)

        metrics = {}
        if args.trace:
            job_list = build_pass(args.workload, args.seed, 0, refs)
            tracer = tracing.Tracer()
            with tracer:
                traced = run_pass(job_list, tracer)
            traced_wall = sum(scaled for _, scaled, _, _ in traced)
            traced_raw = sum(raw for raw, _, _, _ in traced)
            attempted += len(job_list)
            for job, (_, _, res, err), (_, _, base, _) in zip(job_list, traced,
                                                              first_pass[1]):
                if err or res != base:
                    failures.append(f"{job.name}: traced result differs ({err or 'value'})")
            layer = tracing.layer_metrics(tracer)
            layer["trace.overhead_ratio"] = traced_wall / walls[0]
            for name, unit, _ in tracing.per_layer_metrics():
                metrics[name] = {"value": layer.get(name, 0), "unit": unit}
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
                json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                           "wall_s": traced_raw,  # raw seconds, as the spans
                           "self_s_by_span": tracing.account(tracer),
                           "spans": [[s.name, s.start, s.end, s.parent]
                                     for s in tracer.spans]}, fh)
            print(f"# pass 0: traced wall {traced_wall:.3f}s, untraced {walls[0]:.3f}s "
                  f"(reference seconds); traced {traced_raw:.3f}s raw, "
                  f"{len(tracer.spans)} spans")
            for name, secs in sorted(tracing.account(tracer).items(), key=lambda kv: -kv[1]):
                print(f"#   self {secs:9.4f}s  {name}")
            for top, parts in sorted(tracing.breakdown(tracer).items()):
                top_parts = sorted(parts.items(), key=lambda kv: -kv[1])[:4]
                print(f"# {top}: " + ", ".join(f"{n} {v:.3f}s" for n, v in top_parts))
        else:
            pct, tail = _percentile_tail(latencies)
            metrics = {
                "setup_s": {"value": statistics.median(s for _, s in setup_times),
                            "unit": "s"},
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "job_p50_s": {"value": statistics.median(latencies), "unit": "s"},
                "job_tail_s": {"value": tail, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            print(f"# passes {len(walls)} of {n_passes}, jobs {len(latencies)}, "
                  f"tail = p{pct} of {len(latencies)} jobs, "
                  f"set-up samples {len(setup_times)}")
            print(f"# pass walls {[round(w, 3) for w in walls]} reference s, "
                  f"{[round(w, 3) for w in raw_walls]} raw s")
            print(f"# raw medians: wall {statistics.median(raw_walls):.4f}s, set-up "
                  f"{statistics.median(r for r, _ in setup_times):.4f}s")
    finally:
        shutil.rmtree(OUT / f"work-{os.getpid()}", ignore_errors=True)

    error_rate = len(failures) / attempted
    for line in failures:
        print(f"# FAILED {line}")
    print(f"# error_rate {error_rate} ({len(failures)} of {attempted} jobs)")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
