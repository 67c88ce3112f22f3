"""Alternating benchmark runs of two commits, written as BENCH_<pr>.json.

Usage (from the repository root):

    python3 tools/pairs.py --base HEAD~1 --change HEAD --pr 26 --scratch /tmp/pairs

Each commit is extracted with ``git archive`` into a new directory under
``--scratch``, and perfbench/run.py runs there with ``--trace 0`` for
BENCHMARK.json's ``run_seconds``, on every workload of BENCHMARK.json in
turn. Pair i of a workload, of PAIRS, runs both sides once with seed i + 1,
the base first in even pairs and the change first in odd ones, so that a
drift of the host over time reaches both sides alike. ``BENCH_<pr>.json``
at the repository root holds the ``machine`` line of the first run and, per
workload, every run's final JSON line, each side's attempted and failed
operations, and for each end-to-end metric of BENCHMARK.json each side's
median and interquartile range, the pairs each side won (a tie counts for
neither) and a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
PAIRS = 10  # the fewest pairs a claim or a no-regression report may rest on


def median_iqr(values: list[float]) -> tuple[float | None, float | None]:
    """The median and the distance between the inclusive quartiles; None for
    both with fewer than two values, as when a side's runs failed."""
    if len(values) < 2:
        return None, None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


def verdict(spec: dict, base: list[float], change: list[float]) -> str | None:
    """"better" when every change run reads better than every base run;
    otherwise "unresolved" when the base's interquartile range is wider than
    the metric's bound (a fraction of the base median), else "worse" or
    "within bound" by the medians. None with fewer than two runs a side."""
    if len(base) < 2 or len(change) < 2:
        return None
    sign = 1 if spec["better"] == "higher" else -1
    if min(sign * v for v in change) > max(sign * v for v in base):
        return "better"
    (base_median, base_iqr), (change_median, _) = median_iqr(base), median_iqr(change)
    limit = spec["bound"] * abs(base_median)
    if base_iqr > limit:
        return "unresolved"
    return "worse" if sign * (change_median - base_median) < -limit else "within bound"


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric (BENCHMARK.json's entries): each side's median
    and interquartile range over the runs that report it, the pairs that
    each side won among those where both report it, and the verdict."""
    stats = {}
    for spec in end_to_end:
        name = spec["name"]
        sign = 1 if spec["better"] == "higher" else -1
        both = [p for p in pairs if all(name in p[side]["metrics"] for side in SIDES)]
        entry = {"unit": spec["unit"], "better": spec["better"], "pairs": len(both)}
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs
                         if name in p[side]["metrics"]] for side in SIDES}
        for side in SIDES:
            entry[f"{side}_median"], entry[f"{side}_iqr"] = median_iqr(values[side])
        diffs = [sign * (p["change"]["metrics"][name]["value"] - p["base"]["metrics"][name]["value"])
                 for p in both]
        entry["change_wins"] = sum(d > 0 for d in diffs)
        entry["base_wins"] = sum(d < 0 for d in diffs)
        entry["verdict"] = verdict(spec, values["base"], values["change"])
        stats[name] = entry
    return stats


def operations(pairs: list[dict]) -> dict:
    """Each side's attempted and failed operations over all its runs."""
    return {side: {key: sum(p[side][key] for p in pairs) for key in ("attempted", "failed")}
            for side in SIDES}


def extract(rev: str, scratch: Path) -> tuple[str, Path]:
    """rev's full hash and a new directory under scratch holding its files."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    copy = Path(tempfile.mkdtemp(prefix=f"{sha[:12]}-", dir=scratch))
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(copy)], input=archive, check=True)
    return sha, copy


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in copy: its final JSON line and its machine line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        machine = json.loads(next(ln for ln in lines if ln.startswith("machine "))[8:])
    except (IndexError, StopIteration, json.JSONDecodeError):
        raise SystemExit(f"pairs: no result from {copy} (exit {proc.returncode}):\n"
                         f"{proc.stderr}") from None
    return result, machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--scratch", type=Path, required=True,
                        help="an existing directory for the two copies")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    revs, copies = {}, {}
    for side in SIDES:
        revs[side], copies[side] = extract(getattr(args, side), args.scratch)
    results, machine = {}, None
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i in range(PAIRS):
            pair = {"seed": i + 1, "first": SIDES[i % 2]}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                pair[side], seen = run_once(copies[side], workload, i + 1, bench["run_seconds"])
                machine = machine or seen
            pairs.append(pair)
            print(f"{workload} pair {i}: " + " ".join(
                f"{side} setup_s={pair[side]['metrics'].get('setup_s', {}).get('value')}"
                for side in SIDES), file=sys.stderr)
        results[workload] = {"operations": operations(pairs),
                             "end_to_end": summarize(pairs, bench["end_to_end"]), "pairs": pairs}
    doc = {"seconds": bench["run_seconds"], "base": revs["base"], "change": revs["change"],
           "machine": machine, "workloads": results}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
