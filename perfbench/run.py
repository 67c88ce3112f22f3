"""The repository's benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload cora-jc --seed 1 --seconds 35 --trace 0

The seed makes the workload's graph (written once per seed under
``.perfbench/``) and is the training seed of the ``jcgraph`` command. One
process runs the command again and again, each time in a fresh interpreter
with ``PYTHONPATH=src``, until the next one would end after ``--seconds``;
it runs it at least twice. The BLAS thread count is pinned and recorded.

``--trace 0`` runs untraced commands and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced commands and reports the
per-layer metrics of the traced ones (medians over commands), plus
``trace.overhead_frac``, the traced over the untraced median run time, less 1.

A training run counts as failed when its command exits non-zero, when an
output (``.result``, ``.curves.csv``, ``.ckpt``; the sweep CSV for attack)
differs from the first command's, when a partition misses a node or exceeds
``BALANCE_TOLERANCE``, or when its test accuracy is at or below the share of
the test set's largest class. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from gen import GraphSpec, Generated, generate, write  # noqa: E402
from layers import (PER_LAYER_UNITS, TraceError, check_partition, epoch_breakdown,  # noqa: E402
                    intervals_ms, partition_problems, per_layer, setup_breakdown)
from workloads import GRAPHS, RECIPE, WORKLOADS, Workload  # noqa: E402

BLAS_THREADS = 1
MIN_COMMANDS = 2
# a run must end within 180 s; stop starting commands well before that
RUN_DEADLINE_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "epoch_ms": "ms",
    "epoch_ms_p90": "ms",
    "test_acc": "fraction",
    "peak_rss_mb": "MiB",
}


@dataclass
class Command:
    mode: str
    runs: int
    problems: list[str] = field(default_factory=list)
    report: dict | None = None
    results: list[dict] = field(default_factory=list)  # test_acc / test_ece per run
    outputs: list[Path] = field(default_factory=list)
    intervals: list[list[float]] = field(default_factory=list)  # per training run, untraced
    layers: dict[str, float] = field(default_factory=dict)  # traced

    @property
    def run_s(self) -> float:
        return self.report["t_done"] - self.report["t_spawn"]


def _env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    threads = str(BLAS_THREADS)
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def _read_result(path: Path) -> dict:
    kv = dict(line.split(" = ", 1) for line in path.read_text().splitlines() if " = " in line)
    return {"test_acc": float(kv["test_acc"]), "test_ece": float(kv["test_ece"])}


def run_command(wl: Workload, mode: str, cmd_dir: Path, config: Path, dataset: Path,
                root: Path, timeout: float) -> Command:
    """One jcgraph command in a fresh interpreter, with every check made
    except the comparison of its outputs with other commands' outputs."""
    cmd = Command(mode, wl.runs_per_command)
    cmd_dir.mkdir(parents=True)
    out = cmd_dir / "run"
    report_path = cmd_dir / "report.json"
    argv = wl.argv(config, dataset, out)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-B", str(HERE / "probes.py"), str(report_path), mode,
             repr(t_spawn), *argv],
            cwd=cmd_dir, env=_env(root), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        cmd.problems.append(f"timed out after {timeout:.0f} s")
        return cmd
    if proc.returncode != 0 or not report_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        cmd.problems.append(f"exit code {proc.returncode}: {tail[0]}")
        return cmd
    cmd.report = json.loads(report_path.read_text())
    package = Path(cmd.report["package"]).resolve()
    if (root / "src") not in package.parents:
        cmd.problems.append(f"ran jcgraph from {package}, not from this checkout")
    cmd.outputs = [Path(p) for p in wl.outputs(out)]
    cmd.problems += [f"missing output {p.name}" for p in cmd.outputs if not p.is_file()]
    if cmd.problems:
        return cmd
    if wl.command == "train":
        cmd.results = [_read_result(Path(f"{out}.result"))]
    else:
        cmd.results = cmd.report["runs"]
        sweep = Path(wl.outputs(out)[0]).read_text().splitlines()[1:]
        csv_mean = statistics.fmean(float(row.split(",")[2]) for row in sweep)
        hook_mean = statistics.fmean(r["test_acc"] for r in cmd.results)
        if not math.isclose(csv_mean, hook_mean, rel_tol=0.0, abs_tol=1e-12):
            cmd.problems.append(f"sweep CSV mean accuracy {csv_mean!r} != per-run mean {hook_mean!r}")
    if len(cmd.results) != cmd.runs:
        cmd.problems.append(f"{len(cmd.results)} training runs finished, expected {cmd.runs}")
    try:
        if mode == "epoch":
            cmd.intervals = intervals_ms(cmd.report["epoch_starts"], cmd.runs, wl.epochs)
        else:
            cmd.problems += partition_problems(cmd.report["spans"])
            cmd.layers = per_layer(cmd.report["spans"], cmd.runs, wl.epochs)
    except TraceError as e:
        cmd.problems.append(str(e))
    return cmd


def _chance(g: Generated) -> float:
    return float(np.bincount(g.labels[g.test]).max() / g.test.size)


def _partition_problems(g: Generated, root: Path, clusters: int, seed: int) -> list[str]:
    """Re-run the command's partition of the clean graph and check it."""
    sys.path.insert(0, str(root / "src"))
    try:
        from jcgraph.graph import Graph
        from jcgraph.partition import BALANCE_TOLERANCE, partition_metis_like
    finally:
        sys.path.pop(0)
    a = partition_metis_like(Graph.from_undirected_pairs(g.num_nodes, g.pairs), clusters, seed)
    return check_partition({"nodes": g.num_nodes, "covered": a.num_nodes, "clusters": clusters,
                            "largest": int(a.sizes().max()), "tolerance": BALANCE_TOLERANCE})


def dataset_dir(spec: GraphSpec, name: str, seed: int, state_dir: Path) -> tuple[Path, Generated]:
    """Generate the graph for a seed, writing it only the first time."""
    tag = hashlib.sha256(repr(spec).encode() + (HERE / "gen.py").read_bytes()).hexdigest()[:10]
    path = state_dir / "data" / f"{name}-{seed}-{tag}"
    g = generate(spec, seed)
    if not path.is_dir():
        tmp = path.with_name(path.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        write(g, tmp)
        tmp.rename(path)
    return path, g


def machine_record(seed: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), model)
    except OSError:
        pass
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "generator_seed": seed}


def _shares(parts: dict[str, float]) -> str:
    total = sum(parts.values())
    return ", ".join(f"{k} {v:.4g} ({v / total:.0%})"
                     for k, v in sorted(parts.items(), key=lambda kv: -kv[1]))


def _end_to_end(untraced: list[Command], lines: list[str]) -> dict[str, float]:
    # a sweep mixes ce and jc epochs, whose pooled median would fall in the
    # gap between them, so epoch_ms takes each training run's median. The
    # host's speed shifts in phases as long as a command; a mean over
    # commands averages the phases where a median would pick one of them
    pooled = [v for c in untraced for ivs in c.intervals for v in ivs]
    values = {
        "setup_s": statistics.median(c.report["epoch_starts"][0] - c.report["t_entry"]
                                     for c in untraced),
        "run_s": statistics.fmean(c.run_s for c in untraced),
        "epoch_ms": statistics.fmean(statistics.median(ivs) for c in untraced
                                     for ivs in c.intervals),
        "epoch_ms_p90": float(np.percentile(pooled, 90)),
        "test_acc": statistics.fmean(r["test_acc"] for r in untraced[0].results),
        "peak_rss_mb": statistics.median(c.report["maxrss_kb"] / 1024.0 for c in untraced),
    }
    above = sum(v > values["epoch_ms_p90"] for v in pooled)
    lines.append(f"epoch intervals: {len(pooled)} from {len(untraced)} commands, {above} above p90")
    return values


def _per_layer(untraced: list[Command], traced: list[Command], lines: list[str]) -> dict[str, float]:
    values = {k: statistics.median(c.layers[k] for c in traced) for k in traced[0].layers}
    values["trace.overhead_frac"] = (statistics.median(c.run_s for c in traced)
                                     / statistics.median(c.run_s for c in untraced) - 1.0)
    values["metrics.test_ece"] = statistics.fmean(r["test_ece"] for r in traced[0].results)
    lines.append("epoch ms by layer: " + _shares(epoch_breakdown(values)))
    first = traced[0].report
    lines.append("setup s by layer, first traced command: "
                 + _shares(setup_breakdown(first["spans"], first["t_entry"])))
    return values


def run_benchmark(wl: Workload, spec: GraphSpec, seed: int, seconds: float, trace: bool,
                  root: Path = ROOT, state_dir: Path | None = None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    state_dir = state_dir or root / ".perfbench"
    t_begin = time.perf_counter()
    data, g = dataset_dir(spec, wl.graph, seed, state_dir)
    work = state_dir / "work" / f"{wl.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.txt"
    config.write_text(wl.config(seed))

    modes = ("epoch", "trace") if trace else ("epoch",)
    cmds: list[Command] = []
    t0 = time.perf_counter()
    while True:
        mode = modes[len(cmds) % len(modes)]
        left = RUN_DEADLINE_S - (time.perf_counter() - t_begin)
        cmds.append(run_command(wl, mode, work / f"cmd{len(cmds)}", config, data, root, left))
        elapsed = time.perf_counter() - t0
        next_end = elapsed + elapsed / len(cmds)
        if cmds[-1].report is None or (len(cmds) >= MIN_COMMANDS and next_end > seconds):
            break
        if time.perf_counter() - t_begin + elapsed / len(cmds) > RUN_DEADLINE_S:
            break

    shared = _partition_problems(g, root, RECIPE["clusters"], seed)
    chance = _chance(g)
    reference = None
    for c in cmds:
        if c.report is None:
            continue
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
                   for p in c.outputs]
        reference = reference or digests
        c.problems += [f"{p.name} differs from the first command's"
                       for p, d, ref in zip(c.outputs, digests, reference) if d != ref]
        for r in c.results:
            if r["test_acc"] <= chance:
                c.problems.append(f"test_acc {r['test_acc']} at or below chance {chance}")
    attempted = sum(c.runs for c in cmds)
    failed = attempted if shared else sum(c.runs for c in cmds if c.problems)

    lines = [f"perfbench {wl.name} seed={seed} trace={int(trace)}: "
             f"{len(cmds)} commands, {attempted} training runs, {failed} failed"]
    lines.append("dataset " + json.dumps(g.stats()))
    lines.append("machine " + json.dumps(machine_record(seed)))
    for p in shared:
        lines.append(f"FAILED all commands: {p}")
    for i, c in enumerate(cmds):
        for p in c.problems:
            lines.append(f"FAILED command {i} ({c.mode}): {p}")

    untraced = [c for c in cmds if c.mode == "epoch" and not c.problems]
    traced = [c for c in cmds if c.mode == "trace" and not c.problems]
    values = {}
    if untraced and not trace:
        values = _end_to_end(untraced, lines)
    elif untraced and traced:
        values = _per_layer(untraced, traced, lines)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    results = [r for c in cmds for r in c.results]
    if results:
        lines.append(f"test_ece = {statistics.fmean(r['test_ece'] for r in results)!r} fraction "
                     f"(mean over {len(results)} runs); chance accuracy {chance!r}")
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jcgraph" / "cli.py").is_file():
        print(f"perfbench: no jcgraph sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    result, lines = run_benchmark(wl, GRAPHS[wl.graph], args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
