"""Run one ``jcgraph`` command in this fresh interpreter with probes installed.

Usage: probes.py REPORT MODE T_SPAWN JCGRAPH_ARGS...

MODE "epoch" installs the untraced run's one clock probe: it wraps
``jcgraph.trainer.encoder_forward`` and reads the clock when train_mode is
true, once per epoch. On an attack command both modes also install a result
hook on ``jcgraph.attack.train`` that keeps each run's test accuracy and ECE
and reads no clock, because the sweep's CSV reports no ECE.

MODE "trace" swaps the public names that callers look up for timing wrappers
and records one span per call: name, start, end, parent span, and whether the
most recent ``encoder_forward`` call was a train or eval one. Spans stay in
memory and are written with the report when the command returns.

T_SPAWN is the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is system-wide, so run time counts interpreter
start and imports. ``t_entry`` is read just before ``jcgraph.cli.main`` is
called, after imports and probes, and set-up time counts from there. The report is JSON with the exit code, the
clock reads, the spans and ``ru_maxrss``; this process exits with the
command's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time


def lookup(module, name):
    """The attribute a probe replaces; a missing one fails the benchmark loudly."""
    if not hasattr(module, name):
        raise SystemExit(f"perfbench: {module.__name__}.{name} no longer exists; "
                         "the benchmark's probes need updating")
    return getattr(module, name)


def _train_mode_of(fn):
    sig = inspect.signature(fn)

    def train_mode(args, kwargs):
        return bool(sig.bind(*args, **kwargs).arguments.get("train_mode", False))
    return train_mode


def install_epoch_probe(report: dict) -> None:
    import jcgraph.trainer

    inner = lookup(jcgraph.trainer, "encoder_forward")
    train_mode = _train_mode_of(inner)
    starts = report["epoch_starts"] = []

    @functools.wraps(inner)
    def probe(*args, **kwargs):
        if train_mode(args, kwargs):
            starts.append(time.perf_counter())
        return inner(*args, **kwargs)

    jcgraph.trainer.encoder_forward = probe


def install_result_hook(report: dict) -> None:
    import jcgraph.attack

    inner = lookup(jcgraph.attack, "train")
    runs = report["runs"] = []

    @functools.wraps(inner)
    def hook(*args, **kwargs):
        result = inner(*args, **kwargs)
        runs.append({"test_acc": result.test_acc, "test_ece": result.test_ece})
        return result

    jcgraph.attack.train = hook


# (module, attribute, span name). Every name is looked up by its callers at
# call time, so replacing the module attribute catches every call.
TRACE_TARGETS = [
    ("jcgraph.cli", "load_dataset", "graph.load"),
    ("jcgraph.trainer", "normalize_adjacency", "graph.normalize"),
    ("jcgraph.nn", "spmm", "graph.spmm"),
    ("jcgraph.trainer", "partition_metis_like", "partition"),
    ("jcgraph.trainer", "encoder_forward", "nn.forward"),
    ("jcgraph.trainer", "model_backward", "nn.backward"),
    ("jcgraph.trainer", "adam_step", "nn.adam"),
    ("jcgraph.cli", "save_checkpoint", "nn.checkpoint"),
    ("jcgraph.losses", "cluster_stats", "losses.cluster_stats"),
    ("jcgraph.losses", "ce_loss", "losses.loss"),
    ("jcgraph.losses", "jc_loss", "losses.loss"),
    ("jcgraph.losses", "predict_independent", "losses.predict"),
    ("jcgraph.losses", "predict_joint", "losses.predict"),
    ("jcgraph.trainer", "accuracy", "metrics.eval"),
    ("jcgraph.trainer", "f1_scores", "metrics.eval"),
    ("jcgraph.trainer", "ece", "metrics.eval"),
    ("jcgraph.attack", "random_attack", "attack.random_attack"),
    ("jcgraph.cli", "write_result", "cli.write_outputs"),
    ("jcgraph.cli", "write_curves", "cli.write_outputs"),
    ("jcgraph.cli", "write_sweep_csv", "cli.write_outputs"),
]


class Tracer:
    """Spans as lists [name, start, end, parent, tag, extra] in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tag = "setup"

    def wrap(self, fn, name, extra=None, train_mode=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if train_mode is not None:
                self.tag = "train" if train_mode(args, kwargs) else "eval"
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tag, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            return out
        return traced

    def install(self) -> None:
        import importlib

        from jcgraph.partition import BALANCE_TOLERANCE, edge_cut_stats

        def spmm_extra(args, kwargs, out):
            adj, x = args[0], args[1]
            return {"flop": 2 * int(adj.indices.size) * int(x.shape[1])}

        def partition_extra(args, kwargs, out):
            g, m = args[0], int(args[1])
            sizes = out.sizes()
            cut = edge_cut_stats(g, out)
            return {"nodes": int(g.num_nodes), "covered": int(out.num_nodes),
                    "clusters": m, "largest": int(sizes.max()),
                    "tolerance": BALANCE_TOLERANCE, "cut_rate": cut.rate}

        def attack_extra(args, kwargs, out):
            return {"fake_edges": int(out.num_edges - args[0].num_edges)}

        def loss_extra(fn_name):
            return lambda args, kwargs, out: {"loss": fn_name}

        extras = {"graph.spmm": spmm_extra, "partition": partition_extra,
                  "attack.random_attack": attack_extra}
        for module_name, attr, name in TRACE_TARGETS:
            module = importlib.import_module(module_name)
            fn = lookup(module, attr)
            extra = loss_extra(attr) if name == "losses.loss" else extras.get(name)
            mode = _train_mode_of(fn) if name == "nn.forward" else None
            setattr(module, attr, self.wrap(fn, name, extra, mode))


def main(argv: list[str]) -> int:
    report_path, mode, t_spawn, cmd = argv[0], argv[1], float(argv[2]), argv[3:]
    report: dict = {"t_spawn": t_spawn, "mode": mode}
    import jcgraph
    import jcgraph.cli

    report["package"] = jcgraph.__file__
    tracer = None
    if cmd[0] == "attack":
        install_result_hook(report)
    if mode == "epoch":
        install_epoch_probe(report)
    elif mode == "trace":
        tracer = Tracer()
        tracer.install()
    else:
        raise SystemExit(f"perfbench: unknown probe mode {mode!r}")
    report["t_entry"] = time.perf_counter()
    rc = jcgraph.cli.main(cmd)
    report["t_done"] = time.perf_counter()
    report["rc"] = rc
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["spans"] = tracer.spans
    with open(report_path, "w") as f:
        json.dump(report, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
