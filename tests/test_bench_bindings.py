"""The benchmark reaches into the package by module attribute: the traced
run patches every binding ``perfbench/spans.py`` lists, or
``perfbench/run.py --trace 1`` fails, and the spectrum-21 workload captures
three ``vpice.cli`` calls and gates on their reports.  Every recorded
``step-17`` case and one job of each other workload run here with their
correctness gates, so a broken call into the package or an answer off the
recorded reference fails in the test suite."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_call_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [(owner, attr) for owner, attr, _ in spans.CALL_SITES
               if not hasattr(spans.resolve(owner), attr)]
    assert missing == []


def test_spectrum_job_call_contract(tmp_path, monkeypatch, capsys):
    # a spectrum-21 job that misses one of these results counts as failed
    from vpice import cli

    calls = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(fn(*args, **kwargs))
            return calls[name][-1]
        return wrapper

    for name in ("assemble_A0", "spectrum", "semisimplicity_proxy"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    config = tmp_path / "spectrum.cfg"
    config.write_text(f"grid.nx = 9\ngrid.ny = 9\n"
                      f"experiment.output_dir = {tmp_path / 'out'}\n")
    assert cli.dispatch(["spectrum", str(config)]) == 0
    capsys.readouterr()
    assert list(calls) == ["assemble_A0", "spectrum", "semisimplicity_proxy"]
    assert all(len(results) == 1 for results in calls.values())
    (report,), (proxy,) = calls["spectrum"], calls["semisimplicity_proxy"]
    assert report.kernel_dim == 2 and report.spectral_gap > 0.0
    assert proxy.restriction_norm <= 1e-10 * proxy.operator_norm


def test_traced_cli_bindings_keep_their_call_counts(tmp_path, monkeypatch,
                                                    capsys):
    # the traced run counts each call through the vpice.cli binding that
    # perfbench/spans.py patches: a call made through another binding, or
    # one made twice, would skew the per-layer figures
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    from vpice import cli

    counts = {}

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            counts[attr] = counts.get(attr, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, _ in spans.CALL_SITES:
        if owner == "vpice.cli":
            monkeypatch.setattr(cli, attr, counting(attr, getattr(cli, attr)))
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text("rheology.delta = 1e-6\nrheology.p_star = 1.0\n"
                      "rheology.rho_ice = 1.0\nrheology.g = 1.0\n"
                      "grid.nx = 11\ngrid.ny = 11\n"  # a decay fit that passes
                      "stepper.dt = 0.005\nstepper.t_end = 0.25\n"
                      "experiment.n_samples = 25\n"
                      "experiment.snapshot_every = 20\n"
                      f"experiment.output_dir = {out}\n")
    per_command = {}
    for command in ("simulate", "spectrum", "decay", "symbol", "ls-check"):
        counts.clear()
        assert cli.dispatch([command, str(config)]) == 0, command
        per_command[command] = dict(counts)
    capsys.readouterr()
    snapshots = len(list(out.glob("snapshot_*.bin")))
    assert snapshots == 3
    # no command calls pressure through vpice.cli: the binding is kept
    # only for the tracer until it traces by function (ROADMAP item 1b)
    assert per_command == {
        "simulate": {"write_snapshot": snapshots, "write_manifest": 1},
        "spectrum": {"assemble_A0": 1, "spectrum": 1,
                     "semisimplicity_proxy": 1, "write_eigenvalue_csv": 1,
                     "write_manifest": 1},
        "decay": {"write_manifest": 1},
        "symbol": {"ellipticity_report": 1, "write_manifest": 1},
        "ls-check": {"lopatinskii_shapiro_check": 1, "write_manifest": 1},
    }


def test_stability_operator_bindings_stay_uncalled(tmp_path, monkeypatch,
                                                   capsys):
    # vpice.stability imports these operators and rheology.pressure only
    # for the tracer: the lab reaches them through assemble_A0, so a call
    # through these bindings would be a second assembly path.  Tracing by
    # function retires them (ROADMAP item 1b)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    from vpice import cli, selftest, stability

    counts = {}

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            counts[attr] = counts.get(attr, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    bindings = [attr for owner, attr, name in spans.CALL_SITES
                if owner == "vpice.stability"
                and (name.startswith("operators.")
                     or name == "rheology.pressure")]
    assert sorted(bindings) == ["assemble_hibler", "assemble_neumann_laplacian",
                                "divergence_matrix", "gradient_coupling",
                                "pressure"]
    for attr in bindings:
        monkeypatch.setattr(stability, attr,
                            counting(attr, getattr(stability, attr)))
    config = tmp_path / "run.cfg"
    config.write_text("rheology.delta = 1e-6\nrheology.p_star = 1.0\n"
                      "rheology.rho_ice = 1.0\nrheology.g = 1.0\n"
                      "grid.nx = 9\ngrid.ny = 9\n"
                      "stepper.dt = 0.01\nstepper.t_end = 0.25\n"
                      f"experiment.output_dir = {tmp_path / 'out'}\n")
    for command in ("spectrum", "decay"):
        assert cli.dispatch([command, str(config)]) == 0, command
    assert selftest.run_selftest() == 0
    capsys.readouterr()
    assert counts == {}


# every recorded step-17 case: a rounding-level change to the step path
# shows first on case 15, where a velocity-block solve misses the 1e-9 u
# gate with 1.17e-9 (ROADMAP item 1a); one case of each other workload
@pytest.mark.parametrize("name, seed", [
    *(pytest.param("step-17", case, id=f"step-17-case{case}")
      for case in range(16)),
    *(pytest.param(name, 3, id=name)
      for name in ("step-73", "spectrum-21", "probes"))])
def test_benchmark_job_passes_its_gates(name, seed, tmp_path, monkeypatch):
    # as perfbench/run.py sets up and runs a job: the recorded reference,
    # a fixed seed, the job's own wrappers installed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    job = workloads.WORKLOADS[name].setup(seed, tmp_path,
                                          workloads.load_reference())
    tally = workloads.Tally()
    with job.active():
        job.run(tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures


def test_probes_job_traced_call_counts(tmp_path, monkeypatch):
    # the traced run counts every call through its module binding; a call
    # inlined away would drop its span and skew the per-layer figures.
    # Each subcommand draws its samples as one stack, with one pressure
    # call on it, and checks them all in one call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    job = workloads.WORKLOADS["probes"].setup(3, tmp_path, None)
    tracer = spans.Tracer("probes")
    tally = workloads.Tally()
    with job.active(), tracer.installed():
        job.run(tally)
    assert tally.failed == 0, tally.failures
    metrics = tracer.layer_metrics()
    assert {name: metrics[f"{name}.calls"] for name in (
        "rheology.coefficient_tensor", "rheology.pressure",
        "symbols.ellipticity_report", "symbols.lopatinskii_shapiro_check",
    )} == {"rheology.coefficient_tensor": 2, "rheology.pressure": 2,
           "symbols.ellipticity_report": 1,
           "symbols.lopatinskii_shapiro_check": 1}
