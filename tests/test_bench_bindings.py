"""The traced benchmark run patches package functions by module attribute;
every binding it lists must exist, or ``perfbench/run.py --trace 1`` fails."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_call_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [(owner, attr) for owner, attr, _ in spans.CALL_SITES
               if not hasattr(spans.resolve(owner), attr)]
    assert missing == []
