"""Record reference.json: every case's answer at the current commit.

    python3 perfbench/record_reference.py

Run it only when the inputs of a workload change, never to make a failing
gate pass: the reference is the program's answer at the commit that defined
the benchmark, and later commits must reproduce it.
"""

from __future__ import annotations

import json
import sys

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    workdir = run.HERE / "_work" / "reference"
    reference = {"n_cases": workloads.N_CASES}
    for name in ("step-17", "step-73", "spectrum-21"):
        cases = []
        for case in range(workloads.N_CASES):
            job = workloads.WORKLOADS[name].setup(case, workdir, None)
            tally = workloads.Tally()
            with job.active():
                outputs = job.run(tally).outputs
            if tally.failed:
                print(f"{name} case {case}: {tally.failures}", file=sys.stderr)
                return 1
            entry = {"h_star": job.eq.h_star, "a_star": job.eq.a_star}
            if "samples" in outputs:
                entry.update(outputs["samples"])
            else:
                entry["spectral_gap"] = outputs["spectral_gap"]
            cases.append(entry)
            print(f"{name} case {case} recorded", flush=True)
        reference[name] = cases
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(dump(reference))
    return 0


def dump(reference: dict) -> str:
    """JSON with one case per line."""
    parts = []
    for key, value in reference.items():
        if isinstance(value, list):
            cases = ",\n  ".join(json.dumps(case) for case in value)
            parts.append(f"{json.dumps(key)}: [\n  {cases}\n ]")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(value)}")
    return "{\n " + ",\n ".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
