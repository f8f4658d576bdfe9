"""Benchmark launcher: one workload, or all of them, each in fresh processes.

    python3 bench/run.py --workload charsum-1e6 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 10

With --trace 0 the last line of stdout is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run.  The launcher pins the thread settings, times set-up
over several fresh worker processes, and writes the full record, provenance
included, to bench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("charsum-1e6", "profile-dense-1e6", "tables-1e7", "local-algebra")
SETUP_SAMPLES = 5  # set-up-only processes, besides the measuring one
THREADS = 2  # as a 2-core desk runs the verify bundles
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")
RUN_BUDGET_S = 170.0
E2E_UNITS = {"setup_s": "s", "pass_s.p50": "s", "pass_s.tail": "s",
             "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(cores: int) -> tuple:
    """Environment for the workers, and a record of the thread settings.

    Each BLAS/OpenMP pool is capped at the core count (1 when unset: the
    workloads' BLAS calls are tiny), and PRETENSE_THREADS is removed so the
    explicit threads= on every call is the only setting in effect."""
    env = dict(os.environ)
    record = {}
    for var in THREAD_VARS:
        given = env.get(var)
        used = min(int(given), cores) if given and given.isdigit() and int(given) > 0 else 1
        env[var] = str(used)
        record[var] = {"given": given, "used": used}
    record["PRETENSE_THREADS"] = {"given": env.pop("PRETENSE_THREADS", None),
                                  "used": None}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env, record


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pretense").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # a plain checkout: src_sha256 identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(threads: int, thread_record: dict, seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seed": seed,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "nproc": nproc(),
        "threads_passed": threads,
        "thread_env": thread_record,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def start_worker(env, workload, seed, seconds, trace, threads, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(threads)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc, t0


def run_worker(env, workload, seed, seconds, trace, threads, setup_only, deadline):
    """Launch one worker; return (setup seconds, its JSON result or None)."""
    proc, t0 = start_worker(env, workload, seed, seconds, trace, threads, setup_only)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"{workload} worker failed during set-up")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker overran the {RUN_BUDGET_S:.0f} s budget")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    if setup_only:
        return setup, None
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return setup, json.loads(lines[-1])


def tail(samples) -> tuple:
    """(value, percentile): the highest percentile with ten samples beyond it,
    but never below the median, which it equals below 21 samples."""
    s = sorted(samples)
    n = len(s)
    rank = max(n - 10, n // 2 + 1)
    return s[rank - 1], 100.0 * rank / n


def run_workload(workload, seed, seconds, trace, cores) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    threads = min(THREADS, cores)
    env, thread_record = worker_env(cores)
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(run_worker(env, workload, seed, seconds, trace, threads,
                                     True, deadline)[0])
    setup, res = run_worker(env, workload, seed, seconds, trace, threads, False,
                            deadline)
    setups.append(setup)
    attempted, failed = res["attempted"], res["failed"]
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(threads, thread_record, seed),
        "inputs": res["inputs"],
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted if attempted else 1.0,
        "failures": res["failures"],
        "pass_s": res["pass_s"],
        "setup_samples_s": setups,
    }
    if trace:
        record["traced_pass_s"] = res["traced_pass_s"]
        record["spans_file"] = res["spans_file"]
        record["per_layer"] = res["per_layer"]
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in res["per_layer"].items()}
    else:
        value, pct = tail(res["pass_s"])
        record["tail_percentile"] = pct
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s.p50": statistics.median(res["pass_s"]),
            "pass_s.tail": value,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result_{workload}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["record_file"] = str(path.relative_to(ROOT))
    return record


def report(record) -> None:
    """Human-readable lines for one workload run."""
    w = record["workload"]
    n = len(record["pass_s"])
    for name, m in record["metrics"].items():
        note = ""
        if name == "pass_s.tail":
            note = f"  (p{record['tail_percentile']:.0f} of {n} passes)"
        elif name == "pass_s.p50":
            note = f"  (median of {n} passes)"
        elif name == "setup_s":
            note = f"  (median of {len(record['setup_samples_s'])} processes)"
        elif name in record.get("per_layer", {}):
            note = f"  [{record['per_layer'][name]['source']}]"
        print(f"{w}  {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"{w}  failed_ops_frac = {record['failed_ops_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} ops)")
    for f in record["failures"]:
        print(f"{w}  FAILED {f['op']} in {f['pass']}: {f['error']}")
    print(f"{w}  provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"{w}  record written to {record['record_file']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "pretense" / "__init__.py").is_file():
        print(f"error: no pretense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cores = nproc()
    try:
        if a.workload != "all":
            rec = run_workload(a.workload, a.seed, a.seconds, a.trace, cores)
            report(rec)
            print(json.dumps({
                "correct": rec["failed"] == 0,
                "attempted": rec["attempted"],
                "failed": rec["failed"],
                "metrics": rec["metrics"],
            }))
            return 0
        records = [run_workload(w, a.seed, a.seconds, a.trace, cores)
                   for w in WORKLOAD_NAMES]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        report(rec)
    if not a.trace:
        print()
        print(f"{'workload':<20}{'setup_s':>10}{'pass_s.p50':>12}{'pass_s.tail':>18}"
              f"{'peak_rss_mb':>13}{'failed_ops_frac':>17}")
        for rec in records:
            m = {k: v["value"] for k, v in rec["metrics"].items()}
            tail_note = f"{m['pass_s.tail']:.3f} p{rec['tail_percentile']:.0f}/{len(rec['pass_s'])}"
            print(f"{rec['workload']:<20}{m['setup_s']:>9.3f}s{m['pass_s.p50']:>11.3f}s"
                  f"{tail_note:>17}s{m['peak_rss_mb']:>10.1f} MB"
                  f"{rec['failed_ops_frac']:>17.3g}")
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "workloads": {r["workload"]: r["metrics"] for r in records},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
