"""Measure a baseline: every workload over seeds 1-10, plus one traced run each.

    python3 perfbench/baseline.py

It writes ``perfbench/BASELINE.json``.  For each end-to-end metric it records
the median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them) and their distance as a share of the median, and flags a spread above
a third of the metric's bound.  A run whose checks failed (exit 1) is kept
and its failures are recorded; a benchmark error (exit 2) stops the baseline.
The per-layer numbers come from one traced run per workload.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
HELD_OUT_SEED = 9001  # never used while tuning; a claimed gain must also hold here


def run(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if out.returncode not in (0, 1):
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    record = json.loads((ROOT / ".bench_build" / "results"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(out.stdout.strip().splitlines()[-1]), record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": [SEEDS[0], SEEDS[-1]], "held_out_seed": HELD_OUT_SEED,
               "run_seconds": seconds, "end_to_end": {}, "failed_checks": {}, "per_layer": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result, record = run(workload, seed, 0, seconds)
            summary.setdefault("environment", record["environment"])
            if not result["correct"]:
                summary["failed_checks"].setdefault(workload, {})[seed] = {
                    "failed": result["failed"], "attempted": result["attempted"],
                    "first": record["failures"][:1]}
                print(f"{workload:<16} seed {seed}: {result['failed']} failed", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = " > bound" if spread > bounds[name] else (" > bound/3" if spread > bounds[name] / 3 else "")
            print(f"{workload:<16} {name:<14} median {med:12.6g}  spread {spread:.4f}{flag}", flush=True)
        summary["end_to_end"][workload] = rows
        result, _ = run(workload, SEEDS[0], 1, seconds)
        summary["per_layer"][workload] = {n: m["value"] for n, m in result["metrics"].items()}
    for key in ("workload", "seed", "trace"):
        summary["environment"].pop(key, None)
    (HERE / "BASELINE.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
