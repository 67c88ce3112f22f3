"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = gen.GraphSpec(class_sizes=(40, 50, 60), edges=400, homophily=0.9, dim=60,
                     density=0.1, topic_share=0.8, train_per_class=5, val=30, test=60)
TINY_WORKLOADS = {
    "cora-jc": replace(WORKLOADS["cora-jc"], epochs=12),
    "pubmed-jc": replace(WORKLOADS["pubmed-jc"], epochs=12),
    "cora-attack": replace(WORKLOADS["cora-attack"], epochs=6, ratios=(0.5,)),
}


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_generator_output_is_byte_identical_for_a_seed(tmp_path):
    for name in ("a", "b"):
        gen.write(gen.generate(TINY, 5), tmp_path / name)
    gen.write(gen.generate(TINY, 6), tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["graph.txt"] != _files(tmp_path / "c")["graph.txt"]


def test_generated_dataset_loads_with_its_recorded_shape(tmp_path):
    from jcgraph.graph import load_dataset

    g = gen.generate(TINY, 5)
    gen.write(g, tmp_path)
    ds = load_dataset(tmp_path)
    stats = g.stats()
    assert (ds.num_nodes, ds.graph.num_edges) == (stats["nodes"], stats["edges"])
    assert ds.duplicate_edges == 0
    assert (ds.features == g.features).all()
    assert ds.graph.degrees().min() >= 1
    assert stats["feature_density"] < 0.25


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_tiny_smoke_run(tmp_path, name, trace):
    result, lines = run.run_benchmark(TINY_WORKLOADS[name], TINY, 3, 0, trace, state_dir=tmp_path)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] == 2 * TINY_WORKLOADS[name].runs_per_command
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_result_counts_as_a_failed_run(tmp_path, monkeypatch):
    real = run.run_command

    def corrupt_second(wl, mode, cmd_dir, *args):
        cmd = real(wl, mode, cmd_dir, *args)
        if cmd_dir.name == "cmd1":
            path = cmd_dir / "run.result"
            path.write_text(path.read_text().replace("test_acc = 0.", "test_acc = 1."))
        return cmd

    monkeypatch.setattr(run, "run_command", corrupt_second)
    result, lines = run.run_benchmark(TINY_WORKLOADS["cora-jc"], TINY, 3, 0, False,
                                      state_dir=tmp_path)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert any("run.result differs" in line for line in lines)


def test_missing_probe_target_fails_loudly():
    with pytest.raises(SystemExit, match="no longer exists"):
        probes.lookup(types.ModuleType("jcgraph.fake"), "encoder_forward")


def test_declared_metrics_match_the_benchmark():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cora-jc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
