"""The pvi benchmark: one workload per call, or all of them with ``--workload all``.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  pvi is imported from the checkout's
``src/`` only.  For the workload it runs this script

* compiles the bytecode of ``src/pvi`` so no command pays for compilation;
* starts fresh worker processes (`worker.py`) and times each from spawn to
  ready, which is ``setup_s``; one of them runs the timed closed loop;
* has that worker time ``pvi selftest --json`` as a subprocess, spread over
  the loop, which is ``selftest_s`` (with ``--trace 1`` on ``cli-session``
  only);
* scales every time it reports by the machine's speed (`speed.py`), with
  this process and every process it starts pinned to one CPU;
* with ``--trace 1`` runs half the time untraced and half traced, and
  reports the per-layer metrics instead of the end-to-end ones.

It prints every metric with its unit, then the result as one JSON line, and
writes the full record (environment, counts, failures) to
``.bench_build/results/``.  It exits 1 if any check failed and 2 if the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import speed
from worker import SELFTEST_RUNS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5  # set-up timings per run, the median is reported
STARTUP_RUNS = 5  # bare-interpreter and import timings per traced run, the fastest is used
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in BLAS_THREADS:  # np.roots goes through LAPACK; one thread per worker
        env[name] = "1"
    return env


class Worker:
    """A worker process in the READY/GO protocol of worker.py."""

    def __init__(self, workload: str, seed: int, env: dict):
        self.before = speed.reference_s()
        self.start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )

    def _line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise BenchError(f"worker gave no answer within {timeout:.0f} s")
        return line

    def ready(self) -> float:
        """Seconds (scaled, see speed.py) from spawn until the worker is ready
        to time its first operation."""
        line = self._line(60)
        seconds = perf_counter() - self.start
        if line.strip() != "READY":
            self.close()
            raise BenchError(f"worker did not get ready: {line.strip()[:200]}")
        return speed.scaled(seconds, self.before)

    def run(self, seconds: float, trace: bool, selftests: int) -> dict:
        self.proc.stdin.write(f"GO {seconds} {int(trace)} {selftests}\n")
        self.proc.stdin.flush()
        try:
            return json.loads(self._line(seconds + 90))
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def timed(cmd, env) -> float:
    before = speed.reference_s()
    start = perf_counter()
    subprocess.run(cmd, capture_output=True, cwd=ROOT, env=env, timeout=120, check=True)
    return speed.scaled(perf_counter() - start, before)


def environment(workload: str, seed: int, trace: bool) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pvi").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {name: "1" for name in BLAS_THREADS},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict):
    """Measure one workload; returns (result line, full record)."""
    env = worker_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "pvi"), str(HERE)],
                   check=True, cwd=ROOT, env=env, timeout=120, stdout=subprocess.DEVNULL)
    def set_up_only() -> float:
        w = Worker(workload, seed, env)
        try:
            return w.ready()
        finally:
            w.close()

    # Set-up is timed before and after the loop: the speed drifts over tens of seconds.
    setups = [set_up_only() for _ in range(SETUP_RUNS // 2)]
    w = Worker(workload, seed, env)
    setups.append(w.ready())
    res = w.run(seconds, trace, 0 if trace and workload != "cli-session" else SELFTEST_RUNS)
    setups += [set_up_only() for _ in range(SETUP_RUNS - len(setups))]
    loop = res["untraced"]
    selftests = loop["selftests"]
    selftest_failed = sum(checks is None for _, checks in selftests)

    attempted = loop["attempted"] + len(selftests)
    failed = loop["failed"] + selftest_failed
    failures = list(loop["failures"]) + ["selftest did not pass"] * selftest_failed
    if trace:
        attempted += res["traced"]["attempted"]
        failed += res["traced"]["failed"]
        failures += res["traced"]["failures"]
        layers = dict(res["layers"])
        passing = [checks for _, checks in selftests if checks is not None]
        for name in passing[0] if passing else ():
            layers[f"selftest.{name}.s"] = statistics.median(c[name] for c in passing)
        layers.update(res.get("probe", {}).get("counts", {}))
        interp = [timed([sys.executable, "-c", "pass"], env) for _ in range(STARTUP_RUNS)]
        imports = [timed([sys.executable, "-c", "import pvi.cli"], env) for _ in range(STARTUP_RUNS)]
        layers["cli.interp_ms"] = min(interp) * 1e3
        layers["cli.import_ms"] = (min(imports) - min(interp)) * 1e3
        metrics = select_metrics(layers, spec["per_layer"])
    else:
        metrics = select_metrics({
            "setup_s": statistics.median(setups),
            "ops_per_s": loop["ops_per_s"],
            "op_p50_ms": loop["op_p50_ms"],
            "op_p90_ms": loop["op_p90_ms"],
            "served_ratio": loop["served"] / loop["attempted"],
            "peak_rss_mb": res["peak_rss_mb"],
            # The mean, not the median: the runs are few, and the machine's
            # speed has two states, so a median would jump between them.
            "selftest_s": statistics.fmean(s for s, _ in selftests),
        }, spec["end_to_end"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "environment": environment(workload, seed, trace),
        "result": result,
        "failed_ratio": failed / attempted,
        "beyond_p90": loop["beyond_p90"],
        "passes": loop["passes"],
        "ops_per_pass": loop["attempted"] // loop["passes"],
        "setup_runs_s": setups,
        "selftest_runs_s": [s for s, _ in selftests],
        "kind_p50_ms": loop["kind_p50_ms"],
        "speed_scale": loop["speed_scale"],
        "counters": loop["counters"],
        "failures": failures,
    }
    if "probe" in res:
        record["near_floor_probe"] = res["probe"]
    if trace:
        record["spans"] = res["spans"]
    return result, record


def select_metrics(values: dict, declared: list) -> dict:
    """Every declared metric with its unit; a layer a workload never calls reads 0."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}


def print_metrics(prefix: str, result: dict, record: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{prefix}{name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{prefix}{'failed_ratio':<44} {record['failed_ratio']:>14.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(f"{prefix}{'operations per pass (beyond p90) x passes':<44} {record['ops_per_pass']:>6} "
          f"({record['beyond_p90']}) x {record['passes']}")
    sc = record["speed_scale"]
    print(f"{prefix}{'speed scale, times are multiplied by it':<44} {sc['median']:>14.6g} "
          f"(range {sc['min']:.3g}-{sc['max']:.3g} over {sc['reads']} reads)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pvi" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no pvi sources under {ROOT / 'src'} (or no BENCHMARK.json): nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # One CPU for this process and every process it starts: the reference loop
    # of speed.py then reads the speed of the CPU the measured work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        parser.error(f"unknown workload {args.workload!r}; choose from {names + ['all']}")

    results = {}
    out_dir = ROOT / ".bench_build" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in chosen:
        try:
            result, record = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
        except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
            print(f"{workload}: benchmark error: {exc}", file=sys.stderr)
            return 2
        (out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        print("environment: " + json.dumps(record["environment"]))
        print_metrics(f"{workload:<16} " if len(chosen) > 1 else "", result, record)
        for failure in record["failures"]:
            print(f"FAILED {workload}: {failure}", file=sys.stderr)
        probe = record.get("near_floor_probe")
        if probe and probe["wrong"]:
            print(f"KNOWN DEFECT {workload}: {len(probe['wrong'])} of {probe['attempted']} "
                  "untimed answers near the Im tau floor are wrong", file=sys.stderr)
            for wrong in probe["wrong"]:
                print(f"KNOWN DEFECT {workload}: {wrong}", file=sys.stderr)
        results[workload] = result
    if len(chosen) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
