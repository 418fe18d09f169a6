"""The benchmark reaches into the package by module attribute: the traced
run patches every binding ``perfbench/spans.py`` lists, or
``perfbench/run.py --trace 1`` fails, and the spectrum-21 workload captures
three ``vpice.cli`` calls and gates on their reports."""

import importlib
from pathlib import Path

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
