"""In-memory span tracing for the traced benchmark run.

Spans are recorded around calls into the package's layers by wrappers that
this file installs at each call site's module attribute: modules import
functions by name, so ``vpice.dynamics.assemble_coupled`` and
``vpice.operators.assemble_coupled`` are separate bindings.  Nothing under
``src/`` is changed; the wrappers are removed when a traced job ends.

A span is ``[name, start, end, parent, job]`` with perf_counter times in
seconds, the index of the enclosing span (-1 at top level) and the job it
belongs to.  Self time is a span's duration minus the durations of its
direct children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

STEP = "dynamics.step"

# (owner, attribute, span name); the owner is a module path, or
# "module:Class" for a method.  Every binding the package calls through is
# listed, so whichever path a workload takes is traced.
CALL_SITES = (
    ("vpice.dynamics", "assemble_coupled", "operators.assemble_coupled"),
    ("vpice.operators", "assemble_hibler", "operators.assemble_hibler"),
    ("vpice.stability", "assemble_hibler", "operators.assemble_hibler"),
    ("vpice.operators", "assemble_neumann_laplacian",
     "operators.assemble_neumann_laplacian"),
    ("vpice.stability", "assemble_neumann_laplacian",
     "operators.assemble_neumann_laplacian"),
    ("vpice.dynamics", "divergence_matrix", "operators.divergence_matrix"),
    ("vpice.stability", "divergence_matrix", "operators.divergence_matrix"),
    ("vpice.operators", "gradient_coupling", "operators.gradient_coupling"),
    ("vpice.stability", "gradient_coupling", "operators.gradient_coupling"),
    ("vpice.dynamics", "solve_linear", "operators.solve_linear"),
    ("vpice.dynamics", "step", STEP),
    ("vpice.dynamics", "compute_forcing", "dynamics.compute_forcing"),
    ("vpice.dynamics", "source_terms", "dynamics.source_terms"),
    ("vpice.dynamics", "diagnostics_row", "dynamics.diagnostics_row"),
    ("vpice.operators", "coefficient_tensor", "rheology.coefficient_tensor"),
    ("vpice.symbols", "coefficient_tensor", "rheology.coefficient_tensor"),
    ("vpice.rheology", "pressure", "rheology.pressure"),
    ("vpice.operators", "pressure", "rheology.pressure"),
    ("vpice.stability", "pressure", "rheology.pressure"),
    ("vpice.cli", "pressure", "rheology.pressure"),
    ("vpice.operators", "diff_ops", "grid.diff_ops"),
    ("vpice.dynamics", "diff_ops", "grid.diff_ops"),
    ("vpice.stability", "diff_ops", "grid.diff_ops"),
    ("vpice.operators", "strain_rate_field", "grid.strain_rate_field"),
    ("vpice.grid:FieldSet", "validate", "grid.FieldSet.validate"),
    ("vpice.cli", "assemble_A0", "stability.assemble_A0"),
    ("vpice.stability", "assemble_A0", "stability.assemble_A0"),
    ("vpice.cli", "spectrum", "stability.spectrum"),
    ("vpice.stability", "spectrum", "stability.spectrum"),
    ("vpice.cli", "semisimplicity_proxy", "stability.semisimplicity_proxy"),
    ("vpice.cli", "ellipticity_report", "symbols.ellipticity_report"),
    ("vpice.cli", "lopatinskii_shapiro_check",
     "symbols.lopatinskii_shapiro_check"),
    ("vpice.io_formats:DiagnosticsCsvWriter", "__call__",
     "io_formats.DiagnosticsCsvWriter.__call__"),
    ("vpice.io_formats", "write_snapshot", "io_formats.write_snapshot"),
    ("vpice.cli", "write_snapshot", "io_formats.write_snapshot"),
    ("vpice.cli", "write_eigenvalue_csv", "io_formats.write_eigenvalue_csv"),
    ("vpice.io_formats", "write_manifest", "io_formats.write_manifest"),
    ("vpice.cli", "write_manifest", "io_formats.write_manifest"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in CALL_SITES))


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def patched(bindings):
    """Replace (owner object, attribute, factory(original)) bindings for the
    duration of the block; originals are restored in reverse order."""
    saved = []
    try:
        for owner, attr, factory in bindings:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Collects spans while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.jobs = 0
        self._stack = []
        self._job = -1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self._job])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    @contextmanager
    def installed(self):
        """Trace one job: wrappers are in place only inside the block."""
        self._job = self.jobs
        self.jobs += 1
        bindings = [(resolve(owner), attr,
                     lambda fn, name=name: self._wrap(name, fn))
                    for owner, attr, name in CALL_SITES]
        with patched(bindings):
            yield

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self) -> dict:
        """Per traced job: <span>.calls, .ms and .self_ms for every span
        name."""
        jobs = max(self.jobs, 1)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.ms"] = 0.0
            out[f"{name}.self_ms"] = 0.0
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += 1e3 * (end - start)
            out[f"{name}.self_ms"] += 1e3 * own
        for name in SPAN_NAMES:
            out[f"{name}.calls"] /= jobs
            out[f"{name}.ms"] /= jobs
            out[f"{name}.self_ms"] /= jobs
        return out

    def step_accounting(self, windows: list) -> dict:
        """Per traced job, how far the spans account for the stepping.

        ``windows[j]`` holds the first and last on_diagnostics stamps of
        traced job j, the clock of step_ms_p50/p90.  ``stamped_ms`` is that
        time; ``spanned_ms`` is the part of it the top-level spans cover
        (dynamics.step, diagnostics_row, the CSV row, snapshots), so
        ``unspanned_ms`` is stepping time no traced function accounts for.
        ``dynamics.step`` time splits into its children's self times and
        its own self time, the identity add and tocsr.
        """
        under = [False] * len(self.spans)  # strictly inside a step span
        stamped = spanned = step = children = 0.0
        for i, ((name, start, end, parent, job), own) in enumerate(
                zip(self.spans, self.self_times())):
            if parent >= 0:
                under[i] = under[parent] or self.spans[parent][0] == STEP
            if under[i]:
                children += own
            if name == STEP:
                step += end - start
            first, last = windows[job]
            if parent < 0 and first <= start and end <= last:
                spanned += end - start
        for first, last in windows:
            stamped += last - first
        jobs = max(len(windows), 1)
        return {"stamped_ms": 1e3 * stamped / jobs,
                "spanned_ms": 1e3 * spanned / jobs,
                "unspanned_ms": 1e3 * (stamped - spanned) / jobs,
                "step_ms": 1e3 * step / jobs,
                "step_children_self_ms": 1e3 * children / jobs,
                "step_self_ms": 1e3 * (step - children) / jobs}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start_s", "end_s", "parent", "job"],
                       "spans": self.spans}, fh)
