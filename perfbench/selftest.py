"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. Runs every workload at minimum length, untraced and traced, and checks
   that the last line is the result object, the run is correct, and every
   metric of BENCHMARK.json is printed with its unit.
2. Runs one job of every workload in-process: with the recorded reference
   every gate passes; then, for every gate, once more with a fault put into
   the program or a wrong value into the job's reference, and checks that
   the gate trips.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files and checks that it fails without printing a result.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import gates  # noqa: E402
import workloads  # noqa: E402
from spans import patched  # noqa: E402
from vpice.symbols import RootBalanceError  # noqa: E402

SEED = 3


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_benchmark(cwd, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_printed_metrics(spec: dict) -> None:
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_benchmark(run.ROOT, wl["name"], trace)
            where = f"{wl['name']} --trace {trace}"
            check(done.returncode == 0, f"{where} exited {done.returncode}: "
                  f"{done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{where}: {result}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = result["metrics"]
            check(set(printed) == set(expected),
                  f"{where}: metrics differ by "
                  f"{sorted(set(printed) ^ set(expected))}")
            for name, unit in expected.items():
                check(printed[name]["unit"] == unit
                      and isinstance(printed[name]["value"], (int, float)),
                      f"{where}: {name} printed as {printed[name]}")
            print(f"ok   {where}: {len(printed)} metrics, "
                  f"{result['attempted']} operations checked")


def run_job(name: str, reference, tamper=None, faults=()):
    """One job of a workload: ``tamper(job)`` changes the job's reference
    values before it runs and ``faults`` are (owner, attribute, factory)
    bindings that replace package functions under the job's own wrappers.
    Returns the names of the gates that failed."""
    job = workloads.WORKLOADS[name].setup(SEED, run.HERE / "_work" / "selftest",
                                          reference)
    if tamper is not None:
        tamper(job)
    tally = workloads.Tally()
    with patched(faults), job.active():
        job.run(tally)
    return job, {f.rsplit(":", 1)[0] for f in tally.failures}


def corrupt(transform):
    """Binding factory: the original function with its result transformed."""
    def factory(fn):
        def faulty(*args, **kwargs):
            return transform(fn(*args, **kwargs))
        return faulty
    return factory


def once(fault):
    """Binding factory: ``fault(fn, args, kwargs)`` on the first call only."""
    def factory(fn):
        calls = []

        def faulty(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                return fault(fn, args, kwargs)
            return fn(*args, **kwargs)
        return faulty
    return factory


def expect_trips(name: str, reference, cases: list) -> None:
    """cases: (tamper, faults, gates); each case must fail each of its
    gates, and every gate must pass without them."""
    _, failed = run_job(name, reference)
    check(not failed, f"{name}: gates fail on the reference: {failed}")
    tripped = set()
    for tamper, faults, expected in cases:
        _, failed = run_job(name, reference, tamper, faults)
        check(expected <= failed, f"{name}: {sorted(expected - failed)} did "
              f"not trip (failed: {sorted(failed)})")
        tripped |= expected
    print(f"ok   {name}: every gate passes on the reference; "
          f"{len(tripped)} gates trip on their faults")


def wrong_reference(field: str, rtol: float):
    """Tamper: one recorded reference value off by 10 rtol."""
    def tamper(job):
        job.reference = copy.deepcopy(job.reference)
        if isinstance(job.reference[field], list):
            scale = max(abs(v) for v in job.reference[field])
            job.reference[field][-1] += 10 * rtol * scale
        else:
            job.reference[field] *= 1.0 + 10 * rtol
    return tamper


def off_total(index: int):
    """Tamper: the initial nodal total of h (0) or a (1) off by 10 rtol."""
    def tamper(job):
        totals = list(job.totals)
        totals[index] *= 1.0 + 10 * gates.CONSERVATION_RTOL
        job.totals = tuple(totals)
    return tamper


def boundary_velocity(result):
    result.final_state.u1.flat[0] = 1e-300  # node 0 is a corner
    return result


def check_step_gates(name: str, reference: dict) -> None:
    dynamics = workloads.dynamics
    state = {"final state matches reference"}
    expect_trips(name, reference, [
        (off_total(0), (), {"nodal total of h conserved"}),
        (off_total(1), (), {"nodal total of a conserved"}),
        (None, [(dynamics, "run", corrupt(boundary_velocity))],
         {"u = 0 on boundary nodes"}),
        (None, [(dynamics, "solve_linear", corrupt(lambda x: x * (1 + 1e-7)))],
         {"solve residual <= 1e-10"}),
        (wrong_reference("u1", workloads.WORKLOADS[name].u_rtol), (), state),
        (wrong_reference("h", gates.STATE_RTOL), (), state),
        (wrong_reference("a", gates.STATE_RTOL), (), state),
    ])


def check_spectrum_gates(reference: dict) -> None:
    cli = workloads.cli

    def wrong_kernel(job):
        job.kernel = job.kernel[:, ::-1].copy()
        job.kernel[0, 0] = 1.0  # a velocity component: not in the kernel

    expect_trips("spectrum-21", reference, [
        (None, [(cli, "spectrum", corrupt(
            lambda r: dataclasses.replace(r, kernel_dim=3)))],
         {"vpice spectrum exit code 0", "kernel_dim == 2 and gap > 0"}),
        (wrong_kernel, (), {"kernel residual <= 1e-12 * matrix scale"}),
        (None, [(cli, "semisimplicity_proxy", corrupt(
            lambda r: dataclasses.replace(r,
                                          restriction_norm=r.operator_norm)))],
         {"restriction <= 1e-10 * operator norm"}),
        (wrong_reference("spectral_gap", gates.GAP_RTOL), (),
         {"gap matches reference"}),
    ])


def check_probe_gates() -> None:
    cli = workloads.cli

    def root_failure(fn, args, kwargs):
        raise RootBalanceError("injected fault")

    def with_result(**changes):
        return lambda fn, args, kwargs: dataclasses.replace(
            fn(*args, **kwargs), **changes)

    expect_trips("probes", None, [
        (None, [(cli, "ellipticity_report",
                 once(with_result(min_eigenvalue=-1.0)))],
         {"vpice symbol exit code 0", "symbol probes"}),
        (None, [(cli, "lopatinskii_shapiro_check", once(root_failure))],
         {"vpice ls-check exit code 0", "ls_report.csv has n_samples rows",
          "ls-check probes"}),
        (None, [(cli, "lopatinskii_shapiro_check",
                 once(with_result(s_min=0.0)))],
         {"ls-check probes"}),
    ])


def check_bare_directory(spec: dict) -> None:
    bare = run.HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_traces",
                                                  "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run_benchmark(bare, spec["workloads"][0]["name"], 0)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          f"bare directory run exited {done.returncode}: {done.stdout}")
    shutil.rmtree(bare)
    print(f"ok   bare directory: exit code {done.returncode}, no result")


def main() -> int:
    spec = run.benchmark_spec()
    check_printed_metrics(spec)
    reference = workloads.load_reference()
    for name in ("step-17", "step-73"):
        check_step_gates(name, reference)
    check_spectrum_gates(reference)
    check_probe_gates()
    check_bare_directory(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
