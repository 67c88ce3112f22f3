"""Per-layer metrics from the spans of one traced command.

Layers are the package's modules. A span's self time is its duration minus
the durations of its direct child spans. An epoch window runs from one
training step's start to the next one's in the same training run, so it is
exactly one ``epoch_ms`` interval; "_ms" metrics are totals over the windows
divided by their count, and spans outside every window (set-up, the last
epoch of each run, the final evaluation) do not count towards them. "_s"
metrics are totals over the whole command.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

PER_EPOCH_MS = {
    # metric: (span name, tag or None for any, use self time)
    "graph.spmm.train_ms": ("graph.spmm", "train", False),
    "graph.spmm.eval_ms": ("graph.spmm", "eval", False),
    "nn.forward.train_ms": ("nn.forward", "train", True),
    "nn.forward.eval_ms": ("nn.forward", "eval", True),
    "nn.backward_ms": ("nn.backward", None, True),
    "nn.adam_ms": ("nn.adam", None, True),
    "losses.cluster_stats_ms": ("losses.cluster_stats", None, True),
    "losses.loss.train_ms": ("losses.loss", "train", True),
    "losses.loss.eval_ms": ("losses.loss", "eval", True),
    "losses.predict_ms": ("losses.predict", None, True),
    "metrics.eval_ms": ("metrics.eval", None, True),
}

PER_COMMAND_S = {
    "graph.load_s": ("graph.load",),
    "graph.normalize_s": ("graph.normalize",),
    "partition.s": ("partition",),
    "nn.checkpoint_s": ("nn.checkpoint",),
    "attack.random_attack_s": ("attack.random_attack",),
    "cli.write_outputs_s": ("cli.write_outputs", "nn.checkpoint"),
}


PER_LAYER_UNITS = {
    **{m: "ms" for m in PER_EPOCH_MS},
    **{m: "s" for m in PER_COMMAND_S},
    "graph.normalize_calls": "count",
    "graph.spmm_calls_per_epoch": "1/epoch",
    "graph.spmm_mflop_per_epoch": "MFLOP/epoch",
    "partition.calls": "count",
    "partition.cut_rate": "ratio",
    "partition.balance": "ratio",
    "losses.loss.eval_calls_per_epoch": "1/epoch",
    "trainer.train_step_ms": "ms",
    "trainer.eval_ms": "ms",
    "trainer.self_ms": "ms",
    "trainer.ce_epoch_ms": "ms",
    "trainer.jc_epoch_ms": "ms",
    "attack.fake_edges": "count",
    "metrics.test_ece": "fraction",
    "trace.overhead_frac": "fraction",
}


class TraceError(ValueError):
    pass


def epoch_groups(starts: list[float], runs: int, epochs: int) -> list[list[float]]:
    """Split training-step start times into one list per training run."""
    if len(starts) != runs * epochs:
        raise TraceError(f"saw {len(starts)} training steps, expected {runs} runs x {epochs} epochs")
    return [starts[r * epochs:(r + 1) * epochs] for r in range(runs)]


def intervals_ms(starts: list[float], runs: int, epochs: int) -> list[list[float]]:
    """Epoch intervals of each training run."""
    return [[1e3 * (b - a) for a, b in zip(g, g[1:])] for g in epoch_groups(starts, runs, epochs)]


def check_partition(x: dict) -> list[str]:
    """Problems of one partition record: it misses a node or exceeds the
    balance tolerance."""
    cap = max(math.ceil(x["tolerance"] * x["nodes"] / x["clusters"]), 1)
    out = []
    if x["covered"] != x["nodes"]:
        out.append(f"partition covers {x['covered']} of {x['nodes']} nodes")
    if x["largest"] > cap:
        out.append(f"largest cluster {x['largest']} exceeds the balance cap {cap}")
    return out


def partition_problems(spans: list) -> list[str]:
    """Problems of every partition a traced command made."""
    return [p for s in spans if s[0] == "partition" for p in check_partition(s[5])]


def per_layer(spans: list, runs: int, epochs: int) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac for one traced command."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    starts = [s[1] for s in spans if s[0] == "nn.forward" and s[4] == "train"]
    groups = epoch_groups(starts, runs, epochs)
    windows = [(a, b, r) for r, g in enumerate(groups) for a, b in zip(g, g[1:])]
    if not windows:
        raise TraceError("no complete epoch to measure")
    w = len(windows)

    # spans in call order have increasing starts; walk them against the windows
    in_window: list[int] = [-1] * len(spans)
    k = 0
    for i, s in enumerate(spans):
        while k < w and s[1] >= windows[k][1]:
            k += 1
        if k < w and s[1] >= windows[k][0]:
            in_window[i] = k

    total = defaultdict(float)
    count = defaultdict(int)
    flop = 0
    step_end = [None] * w
    top = [0.0] * w
    run_loss = {}
    for i, (name, t0, t1, parent, tag, x) in enumerate(spans):
        k = in_window[i]
        if k < 0:
            continue
        dur = t1 - t0
        if parent < 0:
            top[k] += dur
        for metric, (span_name, span_tag, self_time) in PER_EPOCH_MS.items():
            if name == span_name and (span_tag is None or tag == span_tag):
                total[metric] += dur - child[i] if self_time else dur
        if name == "graph.spmm":
            count["spmm"] += 1
            flop += x["flop"]
        elif name == "nn.adam":
            step_end[k] = t1
        elif name == "losses.loss" and (parent < 0 or spans[parent][0] != "losses.loss"):
            if tag == "eval":
                count["eval_loss"] += 1
            else:
                run_loss[windows[k][2]] = x["loss"]

    out = {m: 1e3 * total[m] / w for m in PER_EPOCH_MS}
    out["graph.spmm_calls_per_epoch"] = count["spmm"] / w
    out["graph.spmm_mflop_per_epoch"] = flop / 1e6 / w
    out["losses.loss.eval_calls_per_epoch"] = count["eval_loss"] / w

    lengths = [b - a for a, b, _ in windows]
    if any(e is None for e in step_end):
        raise TraceError("an epoch window has no adam step")
    out["trainer.train_step_ms"] = 1e3 * statistics.median(e - a for e, (a, _, _) in zip(step_end, windows))
    out["trainer.eval_ms"] = 1e3 * statistics.median(b - e for e, (_, b, _) in zip(step_end, windows))
    out["trainer.self_ms"] = 1e3 * statistics.median(n - t for n, t in zip(lengths, top))
    for loss in ("ce", "jc"):
        mine = [n for n, (_, _, r) in zip(lengths, windows) if run_loss.get(r) == f"{loss}_loss"]
        out[f"trainer.{loss}_epoch_ms"] = 1e3 * statistics.median(mine) if mine else 0.0

    for metric, names in PER_COMMAND_S.items():
        out[metric] = sum(s[2] - s[1] for s in spans if s[0] in names)
    out["graph.normalize_calls"] = sum(s[0] == "graph.normalize" for s in spans)
    parts = [s[5] for s in spans if s[0] == "partition"]
    out["partition.calls"] = len(parts)
    out["partition.cut_rate"] = statistics.fmean(p["cut_rate"] for p in parts) if parts else 0.0
    out["partition.balance"] = (statistics.fmean(p["largest"] * p["clusters"] / p["nodes"] for p in parts)
                                if parts else 0.0)
    out["attack.fake_edges"] = sum(s[5]["fake_edges"] for s in spans if s[0] == "attack.random_attack")
    return out


EPOCH_LAYERS = {
    "graph.spmm": ("graph.spmm.train_ms", "graph.spmm.eval_ms"),
    "nn": ("nn.forward.train_ms", "nn.forward.eval_ms", "nn.backward_ms", "nn.adam_ms"),
    "losses": ("losses.cluster_stats_ms", "losses.loss.train_ms", "losses.loss.eval_ms",
               "losses.predict_ms"),
    "metrics": ("metrics.eval_ms",),
    "trainer": ("trainer.self_ms",),
}
SETUP_SPANS = ("graph.load", "graph.normalize", "partition", "attack.random_attack")


def epoch_breakdown(values: dict[str, float]) -> dict[str, float]:
    """Milliseconds per epoch spent in each layer."""
    return {layer: sum(values[m] for m in names) for layer, names in EPOCH_LAYERS.items()}


def setup_breakdown(spans: list, t_entry: float) -> dict[str, float]:
    """Seconds of set-up, from the command's entry to the first training
    step, spent in each layer; "other" is the rest, mostly initialisation."""
    first = next(s[1] for s in spans if s[0] == "nn.forward" and s[4] == "train")
    out = {name: sum(s[2] - s[1] for s in spans if s[0] == name and s[2] <= first)
           for name in SETUP_SPANS}
    out["other"] = first - t_entry - sum(out.values())
    return out
