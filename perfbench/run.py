"""vpice benchmark: one run of one workload.

    python3 perfbench/run.py --workload step-17 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workloads are defined in ``workloads.py`` and described in
``README.md``.  The run repeats the workload's fixed-size job for
``--seconds`` seconds, checks every job's outputs, and prints a run record
line and then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` untraced
and traced jobs alternate, the metrics are the per-layer ones, and the spans
are written to ``perfbench/_traces/``.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads: a plain single-threaded
# baseline that stays within two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh set-up processes per run, half before and half after the timed
# phase, so that one slow stretch of the host does not hold all of them.
SETUP_SAMPLES = 12
# Timings are taken over this share of a run's jobs and set-up samples, the
# fastest ones: single jobs on the shared host stall by up to 25%.
FAST_SHARE = 0.25
# The host also runs all code up to 60% slower for minutes at a time.  So a
# fixed kernel that uses no vpice code is timed before and after every timed
# job and set-up process, and each timing is scaled by CALIBRATION_REF_S over
# the mean of the two kernel times around it (see README.md).
CALIBRATION_REF_S = 0.007
CALIBRATION_ROUNDS = 6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (setup_s probe)")
    return parser.parse_args(argv)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def setup(args, workdir: Path):
    """Everything before the first timed call: imports, references, inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    reference = workloads.load_reference()
    job = workloads.WORKLOADS[args.workload].setup(args.seed, workdir,
                                                   reference)
    return workloads, job


def calibration_s() -> float:
    """Seconds of one round of the calibration kernel, the median of
    CALIBRATION_ROUNDS timed now.  A round mixes what the workloads do
    (sparse assembly and LU, a dense eig, numpy calls on tiny arrays, an
    interpreter loop) and uses no vpice code."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    n = 34
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    dense = np.random.default_rng(0).standard_normal((60, 60))
    tiny = np.array([[2.0, 0.5], [0.5, 1.0]])
    rounds = []
    for _ in range(CALIBRATION_ROUNDS):
        start = time.perf_counter()
        laplacian = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        splu(laplacian).solve(np.ones(n * n))
        np.linalg.eigvals(dense)
        for i in range(60):
            np.linalg.eigvalsh(tiny + i)
            np.roots([1.0, i, 2.0, 3.0, 1.0])
        total = 0
        for i in range(5000):
            total += i * i
        rounds.append(time.perf_counter() - start)
    return statistics.median(rounds)


def scales(kernel_s: list) -> list:
    """Host-speed factor of each timing between kernel_s[i] and [i + 1]."""
    return [2 * CALIBRATION_REF_S / (before + after)
            for before, after in zip(kernel_s, kernel_s[1:])]


def measure_setup(args, count: int):
    """Wall times from process start to 'ready' of ``count`` fresh setup
    processes, and the calibration kernel timed before and after each."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only"]
    times, kernel_s = [], [calibration_s()]
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("setup probe failed")
        times.append(ready - start)
        kernel_s.append(calibration_s())
    return times, kernel_s


def run_jobs(job, tally, seconds: float, tracer=None):
    """Repeat the job until ``seconds`` have passed.  Without a tracer the
    calibration kernel is timed before and after each job; with one,
    untraced and traced jobs alternate and at least one of each runs.
    Returns the untraced and the traced job results, without their outputs,
    so that these do not count in peak_rss_mb, and the kernel times."""
    plain, traced = [], []
    kernel_s = [] if tracer else [calibration_s()]
    deadline = time.perf_counter() + seconds
    with job.active():
        while True:
            tracing = tracer is not None and len(traced) < len(plain)
            with tracer.installed() if tracing else contextlib.nullcontext():
                result = job.run(tally)
            result.outputs = None
            (traced if tracing else plain).append(result)
            if tracer is None:
                kernel_s.append(calibration_s())
            if time.perf_counter() >= deadline and (tracer is None or traced):
                return plain, traced, kernel_s


def fastest(values: list, key=None) -> list:
    """The FAST_SHARE fastest of ``values``, at least one."""
    count = max(1, round(FAST_SHARE * len(values)))
    return sorted(values, key=key)[:count]


def percentile_record(values, q):
    cut = float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]
                if len(values) > 1 else values[0])
    beyond = sum(1 for v in values if v > cut)
    return cut, {"samples": len(values), "beyond": beyond,
                 "resolved": beyond >= 10}


def versions() -> dict:
    import numpy
    import scipy
    blas = None
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        pass
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def emit(spec_metrics, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vpice" / "__init__.py").is_file():
        print(f"run.py: no vpice sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    workdir = HERE / "_work"
    shutil.rmtree(workdir / ("setup" if args.setup_only else "run"),
                  ignore_errors=True)
    if args.setup_only:
        setup(args, workdir / "setup")
        print("ready", flush=True)
        return 0

    half = SETUP_SAMPLES // 2
    setup_runs = [] if args.trace else [measure_setup(args, half)]
    workloads, job = setup(args, workdir / "run")
    tally = workloads.Tally()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}")
    results, traced, job_kernel_s = run_jobs(job, tally, args.seconds, tracer)
    if not args.trace:
        setup_runs.append(measure_setup(args, SETUP_SAMPLES - half))
    plain = [r.wall_s for r in results]

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "job_wall_s": plain,
              "traced_job_wall_s": [r.wall_s for r in traced],
              "fail_ratio": tally.failed / max(tally.attempted, 1),
              "failures": tally.failures, **job.record(), **versions()}
    if args.trace:
        values = tracer.layer_metrics()
        values.update(job.solves.metrics())
        values["io_formats.bytes_written"] = sum(
            p.stat().st_size for p in (workdir / "run").rglob("*")
            if p.is_file() and p.suffix != ".cfg")
        # each traced job against the untraced one just before it; the
        # first pair is dropped when it can be, as its untraced job is cold
        pairs = list(zip(plain, record["traced_job_wall_s"]))
        overhead_ms = 1e3 * statistics.median(t - p for p, t in
                                              pairs[1:] or pairs)
        values["trace.overhead_ms"] = overhead_ms
        if all(r.window for r in traced):
            # a timing comparison, so it is not counted in ``failed``: the
            # overhead is a difference of two noisy job times
            accounting = tracer.step_accounting([r.window for r in traced])
            accounting["within_overhead"] = (accounting["unspanned_ms"]
                                             <= overhead_ms)
            record["step_accounting"] = accounting
        trace_dir = HERE / "_traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.dump(trace_dir / f"{tracer.run_id}.json")
        metrics = emit(spec["per_layer"], values)
    else:
        setup_scaled = [t * f for times, kernel_s in setup_runs
                        for t, f in zip(times, scales(kernel_s))]
        scaled = [(r.wall_s * f, [s * f for s in r.step_s])
                  for r, f in zip(results, scales(job_kernel_s))]
        fast = fastest(scaled, key=lambda r: r[0])
        steps = [s for _, job_steps in fast for s in job_steps]
        p50, record["step_ms_p50"] = percentile_record(steps, 50)
        p90, record["step_ms_p90"] = percentile_record(steps, 90)
        record["fast_jobs"] = len(fast)
        record["all_jobs_median_wall_s"] = statistics.median(plain)
        record["setup_s_samples"] = [t for times, _ in setup_runs
                                     for t in times]
        record["calibration_s"] = {
            "reference": CALIBRATION_REF_S, "jobs": job_kernel_s,
            "setup": [k for _, kernel_s in setup_runs for k in kernel_s]}
        metrics = emit(spec["end_to_end"], {
            "setup_s": statistics.median(fastest(setup_scaled)),
            "wall_s": statistics.median(wall for wall, _ in fast),
            "step_ms_p50": 1e3 * p50,
            "step_ms_p90": 1e3 * p90,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
