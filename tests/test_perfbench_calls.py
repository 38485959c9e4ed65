"""What the benchmark in ``perfbench/`` calls of switchlab still exists.

The benchmark wraps functions by name and builds its workloads from
``TrainConfig`` and ``RouterConfig``; a renamed function or a retired setting
would surface only when the benchmark runs. Its modules are imported here,
as ``perfbench/run.py`` imports them, and never edited.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from switchlab import cli, trainer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("spans", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``spans`` and ``workloads`` modules, imported without
    writing bytecode beside them; ``sys.modules`` is restored afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = {name: sys.modules.pop(name, None) for name in MODULES}
    try:
        yield tuple(importlib.import_module(name) for name in MODULES)
    finally:
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


def test_every_traced_name_resolves_in_its_module(perfbench):
    spans, _ = perfbench
    for module, names in spans.TRACED.items():
        home = importlib.import_module(f"switchlab.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"


def test_every_workload_config_builds(perfbench):
    _, workloads = perfbench
    assert len(workloads.WORKLOADS) == 4
    for workload in workloads.WORKLOADS.values():
        tc, rc = workload.configs(0)
        trainer.build_model(tc, rc, None)


def test_the_benchmarks_call_forms_bind():
    # train_step(model, batch, opt, tc) and restore_model(ckpt), positionally.
    inspect.signature(trainer.train_step).bind("model", "batch", "opt", "tc")
    inspect.signature(cli.restore_model).bind("ckpt")
