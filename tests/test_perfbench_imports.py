"""The benchmark under ``perfbench/`` calls and traces mvdet's public names.
Importing its modules here makes a change that removes or renames one of
those names fail the unit tests at once, not the benchmark run later."""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracing_and_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    assert len(tracing.TRACED) == 26
    for name, (fn, _) in tracing.TRACED.items():
        module, attr = name.split(".")
        assert getattr(sys.modules[f"mvdet.{module}"], attr) is fn, name
    assert {"scene-decode", "train-eval", "oracle-gradcheck"} <= set(workloads.WORKLOADS)
