"""The benchmark's probes still find and time what they replace.

perfbench/probes.py swaps module attributes by name in a fresh interpreter
and stops the benchmark when one is gone. These tests load it without
touching perfbench/ and fail on the refactor that would break it.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

import jcgraph.trainer as trainer
from jcgraph.nn import ModelSpec
from jcgraph.trainer import TrainConfig, train

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


@pytest.fixture(scope="module")
def probes():
    module = types.ModuleType("perfbench_probes")
    module.__file__ = str(PROBES)
    exec(compile(PROBES.read_text(), str(PROBES), "exec"), module.__dict__)
    return module


@pytest.fixture
def restore_targets(probes, monkeypatch):
    """Undo every attribute swap a probe makes once the test ends."""
    for module_name, attr, _ in probes.TRACE_TARGETS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))


def test_every_trace_target_resolves(probes):
    for module_name, attr, _ in probes.TRACE_TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_encoder_forward_binds_train_mode():
    sig = inspect.signature(trainer.encoder_forward)
    bound = sig.bind(None, None, None, None, train_mode=True)
    assert bound.arguments["train_mode"] is True


def jc_run(data, epochs):
    spec = ModelSpec("gcn", 2, 8, 8, 4, 0.5, "joint")
    return train(TrainConfig(spec=spec, loss="jc", num_clusters=3, epochs=epochs, seed=2), data)


def test_epoch_probe_sees_one_start_per_step(probes, restore_targets, easy_sbm):
    report = {}
    probes.install_epoch_probe(report)
    jc_run(easy_sbm, 4)
    assert len(report["epoch_starts"]) == 4


def test_tracer_tags_each_step_and_eval(probes, restore_targets, easy_sbm):
    tracer = probes.Tracer()
    tracer.install()
    jc_run(easy_sbm, 3)
    spans = [(name, tag) for name, *_, tag, _ in tracer.spans]
    assert spans.count(("nn.forward", "train")) == 3
    assert spans.count(("nn.forward", "eval")) == 3
    assert spans.count(("nn.backward", "train")) == 3
    assert ("graph.spmm", "train") in spans and ("graph.spmm", "eval") in spans
    assert spans.count(("partition", "setup")) == 1
    # one traced jc_loss per step: trainer.jc_epoch_ms in perfbench/layers.py reads these
    steps = [extra for name, *_, tag, extra in tracer.spans if (name, tag) == ("losses.loss", "train")]
    assert steps == [{"loss": "jc_loss"}] * 3
