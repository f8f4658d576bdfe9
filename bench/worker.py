"""One workload in one fresh process; run.py launches it.

The worker imports pretense from the checkout's src/, builds the workload's
specs, prints "ready" (the launcher stops its setup_s clock there), runs
passes until --seconds is spent and prints one JSON line with the pass times,
the operation counts and, when traced, the per-layer metrics.

    python3 bench/worker.py --workload charsum-1e6 --seed 1 --seconds 10 \
        --trace 0 --threads 2 [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_NAMES, Recorder, layer_metrics, maxrss_kb

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
MIN_PASSES = 3


def measure(rec, wl, seconds: float, alternate: bool) -> tuple:
    """Pass times until starting another pass would overrun `seconds`.

    With alternate, even passes are traced and odd ones are not, so both
    sample the same stretch of machine time; the first call into each layer
    is then always traced.  Returns (untraced times, traced times)."""
    times = {False: [], True: []}
    start = time.perf_counter()
    last_wall = 0.0
    i = 0
    least = MIN_PASSES + 1 if alternate else MIN_PASSES  # two traced at least
    while i < least or time.perf_counter() - start + last_wall <= seconds:
        rec.trace = alternate and i % 2 == 0
        label = "traced" if rec.trace else "pass"
        t0 = time.perf_counter()
        times[rec.trace].append(rec.timed_pass(f"{label}{i}", wl.run_pass))
        last_wall = time.perf_counter() - t0
        i += 1
    return times[False], times[True]


def probe_other_layers(rec, workloads, name: str, seed: int, threads: int) -> None:
    """One traced pass of every other workload at N = 1e4, so that each
    traced run reports every per-layer metric."""
    for other, cls in workloads.items():
        if other == name:
            continue
        pass_id = f"probe:{other}"
        with rec.span("setup", pass_id), rec.unit():
            wl = cls(rec, seed, threads, probe=True)
            rec.timed_pass(pass_id, wl.run_pass)


def per_layer(rec) -> dict:
    own = layer_metrics(rec.spans, lambda p: not p.startswith("probe:"))
    probe = layer_metrics(rec.spans, lambda p: p.startswith("probe:"))
    out = {}
    for name in PER_LAYER_NAMES:
        source = "workload" if name in own else "probe"
        value, unit = own.get(name) or probe[name]
        out[name] = {"value": value, "unit": unit, "source": source}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import pretense

    if not Path(pretense.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported pretense from {pretense.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    rec = Recorder(trace=bool(a.trace))
    with rec.span("setup", "setup"):
        wl = WORKLOADS[a.workload](rec, a.seed, a.threads)
    print("ready", flush=True)
    if a.setup_only:
        return 0

    result = {"workload": a.workload, "seed": a.seed, "inputs": wl.describe()}
    if a.trace:
        untraced, traced = measure(rec, wl, a.seconds, alternate=True)
        rec.trace = True
        probe_other_layers(rec, WORKLOADS, a.workload, a.seed, a.threads)
        layers = per_layer(rec)
        # the first pass is also the cold one, so it stays out of the comparison
        overhead = statistics.median(traced[1:]) - statistics.median(untraced)
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s",
                                      "source": "workload"}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans_{a.workload}_seed{a.seed}.jsonl"
        rec.write_spans(spans_path)
        result.update(traced_pass_s=traced, pass_s=untraced, per_layer=layers,
                      spans=len(rec.spans), spans_file=str(spans_path.relative_to(ROOT)))
    else:
        result["pass_s"] = measure(rec, wl, a.seconds, alternate=False)[0]
        result["peak_rss_mb"] = maxrss_kb() / 1024.0
    result.update(attempted=rec.attempted, failed=rec.failed, failures=rec.failures)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
