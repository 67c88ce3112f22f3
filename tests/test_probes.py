"""The benchmark's probes still find and time what they replace.

perfbench/probes.py swaps module attributes by name in a fresh interpreter
and stops the benchmark when one is gone. These tests load it without
touching perfbench/ and fail on the refactor that would break it.
"""

import functools
import importlib
import inspect
import threading
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import jcgraph.trainer as trainer
from jcgraph.cli import main
from jcgraph.graph import normalize_adjacency, write_dataset
from jcgraph.nn import plan_rows
from jcgraph.trainer import TrainConfig, train, validate

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
    assert list(sig.parameters) == ["params", "plan", "train_mode", "seed", "first"]
    assert sig.parameters["first"].kind is inspect.Parameter.KEYWORD_ONLY
    assert sig.bind(None, None, train_mode=True).arguments["train_mode"] is True
    assert sig.bind(None, None, True).arguments["train_mode"] is True


def test_every_hooked_name_runs_on_the_main_thread(probes, restore_targets, monkeypatch,
                                                   easy_sbm, tmp_path):
    # the probes keep one span stack and one clock, so every name they
    # replace (the tracer's, the epoch probe's encoder_forward and the result
    # hook's attack.train) runs on the main thread only, the eval's layer-0
    # product on the trainer's worker included
    targets = [(module, attr) for module, attr, _ in probes.TRACE_TARGETS]
    targets.append(("jcgraph.attack", "train"))
    threads = {}
    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        inner = getattr(module, attr)

        def recorded(*args, _inner=inner, _key=f"{module_name}.{attr}", **kwargs):
            threads.setdefault(_key, set()).add(threading.get_ident())
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, attr, functools.wraps(inner)(recorded))
    write_dataset(tmp_path / "data", easy_sbm)
    (tmp_path / "run.cfg").write_text(f"dataset = {tmp_path / 'data'}\nloss = jc\nclusters = 3\n"
                                      "hidden = 8\nepochs = 3\n")
    assert main(["train", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "run")]) == 0
    assert main(["attack", str(tmp_path / "run.cfg"), "--ratios", "0.5", "--seeds", "1",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert {"jcgraph.trainer.encoder_forward", "jcgraph.nn.spmm", "jcgraph.attack.train",
            "jcgraph.attack.random_attack", "jcgraph.cli.save_checkpoint"} <= set(threads)
    assert {key: {threading.get_ident()} for key in threads} == threads


JC_CFG = TrainConfig(hidden=8, loss="jc", clusters=3, seed=2)


def jc_run(data, epochs):
    return train(replace(JC_CFG, epochs=epochs), data)


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
    # one accuracy per eval (the checkpoint score), then accuracy, f1_scores
    # and ece for the final test metrics: metrics.eval_ms reads these
    assert [name for name, _ in spans].count("metrics.eval") == 3 + 3


def test_spmm_flops_count_the_plan_blocks(probes, restore_targets, easy_sbm):
    """Each step's graph.spmm spans count 2 x (stored entries) x width for
    exactly the Â blocks of its plan: forward layer by layer, then backward."""
    tracer = probes.Tracer()
    tracer.install()
    jc_run(easy_sbm, 3)
    masks = easy_sbm.masks
    spec = validate(JC_CFG, easy_sbm)
    train_plan, eval_plan = plan_rows(spec, normalize_adjacency(easy_sbm.graph),
                                      easy_sbm.features, masks.train,
                                      np.concatenate([masks.train, masks.val, masks.test]))
    assert train_plan.rows[1].size < easy_sbm.num_nodes  # the train step multiplies cut blocks

    def flops(blocks):
        return [{"flop": 2 * int(b.indices.size) * spec.hidden} for b in blocks]

    # the backward multiplies the transpose of each layer's block, last layer first
    step = flops(train_plan.adj_rows + train_plan.adj_rows[::-1])
    spans = [(tag, extra) for name, *_, tag, extra in tracer.spans if name == "graph.spmm"]
    assert [x for tag, x in spans if tag == "train"] == step * 3
    assert [x for tag, x in spans if tag == "eval"] == flops(eval_plan.adj_rows) * 3
