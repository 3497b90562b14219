"""One benchmark worker: set up a workload, then run its timed closed loop.

Protocol with `run.py` over stdin/stdout: the worker builds its inputs from
the seed, warms up, prints ``READY``, then reads
``GO <seconds> <trace> <selftests>`` and answers with one JSON line.  A
worker timed for set-up only gets end of input instead, and exits.
One client, no threads: each operation starts when the previous one and its
check have finished.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_MARK = "#perfbench-spans "
SELFTEST_RUNS = 5  # `pvi selftest --json` runs spread over an untraced loop


class CliRunner:
    """Runs one pvi command as a subprocess; traced runs go through clishim.py."""

    def __init__(self):
        self.tracer = None

    def __call__(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "pvi.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "clishim.py"), *argv]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if self.tracer is not None:
            head, _, last = out.stderr.rstrip("\n").rpartition("\n")
            if not last.startswith(SPAN_MARK):
                head, last = out.stderr, ""
            else:
                self.tracer.merge(json.loads(last[len(SPAN_MARK):]))
            out.stderr = head
        return out


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_selftest() -> tuple[float, dict | None]:
    """Wall time of `pvi selftest --json` (scaled, see speed.py), and its check
    seconds when every check passed."""
    before = speed.reference_s()
    start = perf_counter()
    out = subprocess.run([sys.executable, "-m", "pvi.cli", "selftest", "--json"],
                         capture_output=True, text=True, cwd=ROOT, timeout=120)
    seconds = speed.scaled(perf_counter() - start, before)
    try:
        body = json.loads(out.stdout)
    except json.JSONDecodeError:
        return seconds, None
    good = (out.returncode == 0 and body.get("schema_version") == "1"
            and body.get("ok") is True and body.get("failed") == 0)
    return seconds, {c["name"]: c["seconds"] for c in body["checks"]} if good else None


def warm_up(ops) -> None:
    """Run and check each operation once, untimed and uncounted."""
    for op in ops:
        try:
            op.check(op.run(), Counter())
        except Exception:  # outcomes are counted in the timed loop, not here
            pass


def run_loop(ops, seconds, refusal, tracer=None, selftests=0):
    """Repeat whole passes over `ops` while another pass fits in `seconds`.

    Every pass holds at least 100 operations, so that ten of its latencies
    lie beyond its p90.  Throughput (operations answered correctly over the
    time spent in the pass's operations, checks excluded) and the latency
    percentiles are taken per pass, and their medians over passes are
    reported.  Every operation time is scaled by the machine's speed, read
    from the reference loop of speed.py every EVERY_S seconds.

    `selftests` runs of `pvi selftest --json` are spread evenly over the
    loop, between operations, and their time is not counted in `seconds`:
    runs in a row would all see the same state.
    """
    counters = Counter()
    failures, selftest_runs = [], []
    by_kind = {}
    rates, p50s, p90s = [], [], []
    attempted = served = 0
    start = perf_counter()
    pass_s = paused = 0.0
    scales, speed_at = [speed.scale()], perf_counter()

    def elapsed():
        return perf_counter() - start - paused

    while not rates or elapsed() + pass_s <= seconds:
        pass_start, pass_paused = perf_counter(), paused
        latencies, pass_served = [], 0
        for op in ops:
            if len(selftest_runs) < selftests and elapsed() >= len(selftest_runs) * seconds / selftests:
                pause_start = perf_counter()
                selftest_runs.append(run_selftest())
                paused += perf_counter() - pause_start
            if perf_counter() - speed_at >= speed.EVERY_S:
                scales.append(speed.scale())
                speed_at = perf_counter()
            if tracer is not None:
                tracer.op = attempted
                tracer.enter("bench.op")
            t0 = perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # every exception is an outcome to classify
                out, err = None, exc
            dt = (perf_counter() - t0) * scales[-1]
            if tracer is not None:
                tracer.exit()
            attempted += 1
            latencies.append(dt)
            by_kind.setdefault(op.kind, []).append(dt)
            if err is None:
                try:
                    op.check(out, counters)
                except Exception as exc:  # a wrong answer or a malformed one
                    err = exc
                else:
                    served += 1
                    pass_served += 1
                    continue
            if isinstance(err, refusal):
                kind = "precision_errors" if type(err).__name__ == "PrecisionError" else "pole_errors"
                counters[f"elliptic.{op.band}.{kind}"] += 1
                if op.refusable:  # a named refusal below the documented floor
                    continue
            counters["failed"] += 1
            if len(failures) < 5:
                failures.append(f"{op.kind}: {type(err).__name__}: {err}")
        ordered = sorted(latencies)
        rates.append(pass_served / math.fsum(latencies))
        p50s.append(percentile(ordered, 0.5))
        p90s.append(percentile(ordered, 0.9))
        pass_s = perf_counter() - pass_start - (paused - pass_paused)
    selftest_runs += [run_selftest() for _ in range(selftests - len(selftest_runs))]
    return {
        "attempted": attempted,
        "served": served,
        "failed": counters.pop("failed", 0),
        "failures": failures,
        "passes": len(rates),
        "wall_s": perf_counter() - start,
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(p50s) * 1e3,
        "op_p90_ms": statistics.median(p90s) * 1e3,
        "beyond_p90": sum(1 for x in ordered if x > p90s[-1]),  # in the last pass
        "kind_p50_ms": {k: percentile(sorted(v), 0.5) * 1e3 for k, v in by_kind.items()},
        "selftests": selftest_runs,
        "speed_scale": {"median": statistics.median(scales), "min": min(scales),
                        "max": max(scales), "reads": len(scales)},
        "counters": dict(counters),
    }


def run_probe(ops, refusal) -> dict:
    """Run each operation once, untimed, and count how its answers fall out."""
    counts = Counter({"elliptic.near_floor.wrong": 0, "elliptic.near_floor.refused": 0})
    wrong = []
    for op in ops:
        try:
            op.check(op.run(), Counter())
        except refusal:
            counts["elliptic.near_floor.refused"] += 1
        except Exception as exc:  # a wrong answer: the defect this probe reports
            counts["elliptic.near_floor.wrong"] += 1
            wrong.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    return {"attempted": len(ops), "counts": dict(counts), "wrong": wrong}


def layer_metrics(tracer, wall_s, counters):
    """Per-layer calls, self time, median call time and shares from the spans."""
    out = {}
    layer_busy = Counter()
    merged = {}
    for name, (calls, self_s, durations, _) in tracer.stats.items():
        base, _, band = name.partition("@")
        layer, entry = base.split(".", 1)
        layer_busy[layer] += self_s
        m = merged.setdefault(base, [0, 0.0, []])
        m[0] += calls
        m[1] += self_s
        m[2].extend(durations)
        if band:
            out[f"{layer}.{band}.calls"] = out.get(f"{layer}.{band}.calls", 0) + calls
    for base, (calls, self_s, durations) in merged.items():
        if base.startswith(("bench.", "cli.main")):
            continue
        out[f"{base}.calls"] = calls
        out[f"{base}.busy_ms"] = self_s * 1e3
        out[f"{base}.p50_us"] = percentile(sorted(durations), 0.5) * 1e6
    for layer, busy in layer_busy.items():
        if layer != "bench":
            out[f"{layer}.busy_ms"] = busy * 1e3
            out[f"{layer}.share"] = busy / wall_s
    samples, skipped = counters.get("verifier.samples", 0), counters.get("verifier.skipped", 0)
    if samples + skipped:
        out["verifier.useful_ratio"] = samples / (samples + skipped)
    counters.pop("verifier.reports", None)
    out.update(counters)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    rng = random.Random(f"{args.workload}:{args.seed}")
    runner = None
    if args.workload == "cli-session":
        runner = CliRunner()
        ops = workloads.build_cli_session(rng, runner)
        refusal = ()
    else:
        import pvi
        from pvi.elliptic import EllipticError

        if not Path(pvi.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"pvi imported from {pvi.__file__}, not from this checkout")
        ops = workloads.BUILDERS[args.workload](rng)
        refusal = EllipticError
    # Warm-up, so lazy set-up is paid before timing: in process one operation
    # of each kind, the first above the low band in build order, so that its
    # size does not depend on the seed; for the command line one command,
    # whose imports fill the page cache.
    warm = {}
    for op in ops:
        if op.band != "low_im":
            warm.setdefault(op.kind, op)
    warm_up([warm["version"]] if runner else list(warm.values()))
    rng.shuffle(ops)
    print("READY", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] != "GO":
        return 0
    seconds, trace, selftests = float(command[1]), command[2] == "1", int(command[3])
    result = {"untraced": run_loop(ops, seconds / 2 if trace else seconds, refusal,
                                   selftests=selftests)}
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if runner else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    if trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        if runner is not None:
            runner.tracer = tracer
        else:
            instrument(tracer)
        traced = run_loop(ops, seconds / 2, refusal, tracer)
        metrics = layer_metrics(tracer, traced["wall_s"], traced.pop("counters"))
        if runner is not None:
            for kind, p50 in result["untraced"]["kind_p50_ms"].items():
                metrics[f"cli.{kind}.p50_ms"] = p50
        metrics["trace.ops_ratio"] = traced["ops_per_s"] / result["untraced"]["ops_per_s"]
        result["traced"] = traced
        result["layers"] = metrics
        spans_dir = ROOT / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_csv(spans_dir / f"{args.workload}-seed{args.seed}.csv")
        result["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped}
    probe = workloads.PROBES.get(args.workload)
    if probe is not None:
        result["probe"] = run_probe(probe(random.Random(f"{args.workload}:{args.seed}:probe")),
                                    refusal)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
