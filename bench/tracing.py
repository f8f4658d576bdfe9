"""Operation timing, oracle accounting and span tracing for the workloads.

Every public call a workload makes goes through Recorder.op, which times it,
checks its result against the workload's oracle outside the timed region and
counts a raise or a check beyond tolerance as a failed operation.  With
tracing on, the same call also leaves a span (name, start, end, parent span,
pass id, work count, result bytes, ru_maxrss before and after) in memory;
layer_metrics derives the per-layer numbers from those spans.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from contextlib import contextmanager

import numpy as np


class OpFailed(Exception):
    """Raised by Recorder.op after a failed call, to end the enclosing unit."""


class CheckFailed(Exception):
    """Raised by an oracle check that has a message to give."""


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def result_nbytes(obj) -> int:
    """Bytes of the numpy arrays a call returned, one level deep."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(result_nbytes(v) for v in obj if isinstance(v, np.ndarray))
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields:
        return sum(
            int(v.nbytes)
            for v in (getattr(obj, k) for k in fields)
            if isinstance(v, np.ndarray)
        )
    return 0


class Recorder:
    """Times operations, accounts failures and, when tracing, keeps spans."""

    MAX_FAILURE_NOTES = 20

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.pass_id = "setup"
        self._parent = None
        self._op_seconds = 0.0

    # -- passes and units -------------------------------------------------

    @contextmanager
    def span(self, name: str, pass_id: str):
        """Group the operations inside under one parent span and pass id."""
        prev_pass, prev_parent = self.pass_id, self._parent
        self.pass_id = pass_id
        sid = len(self.spans)
        opened = self.trace
        if opened:
            self.spans.append({
                "id": sid, "name": name, "parent": prev_parent,
                "pass": pass_id, "start": time.perf_counter(), "end": None,
            })
            self._parent = sid
        try:
            yield
        finally:
            if opened:
                self.spans[sid]["end"] = time.perf_counter()
            self.pass_id, self._parent = prev_pass, prev_parent

    def timed_pass(self, pass_id: str, body) -> float:
        """Run body() as one pass; return the summed time of its operations."""
        self._op_seconds = 0.0
        with self.span("pass", pass_id), self.unit():
            body()
        return self._op_seconds

    @contextmanager
    def unit(self):
        """A chain of dependent operations: a failure ends the chain only."""
        try:
            yield
        except OpFailed:
            pass

    # -- operations -------------------------------------------------------

    def op(self, name, work, fn, *args, check=None, tol=0.0, attrs=None, **kwargs):
        """Call fn(*args, **kwargs) as one timed operation of `work` units.

        check(result) returns a deviation from the oracle, which fails the
        operation when it exceeds tol, or raises CheckFailed.  The check runs
        after the clock stops.
        """
        self.attempted += 1
        rss0 = maxrss_kb() if self.trace else 0
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation
            t1 = time.perf_counter()
            self._op_seconds += t1 - t0
            self._record(name, work, t0, t1, rss0, None, attrs, None)
            self._fail(name, f"raised {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        t1 = time.perf_counter()
        self._op_seconds += t1 - t0
        err = None
        message = None
        if check is not None:
            try:
                err = float(check(result))
            except CheckFailed as exc:
                message = str(exc)
            except Exception as exc:  # a crashing oracle fails the operation
                message = f"check raised {type(exc).__name__}: {exc}"
            else:
                if not err <= tol:  # also catches NaN
                    message = f"deviation {err:.3e} beyond tolerance {tol:.1e}"
        self._record(name, work, t0, t1, rss0, result, attrs, err)
        if message is not None:
            self._fail(name, message)
            raise OpFailed(name)
        return result

    def _record(self, name, work, t0, t1, rss0, result, attrs, err):
        if not self.trace:
            return
        span = {
            "id": len(self.spans), "name": name, "parent": self._parent,
            "pass": self.pass_id, "start": t0, "end": t1, "work": work,
            "nbytes": result_nbytes(result), "rss_before_kb": rss0,
            "rss_after_kb": maxrss_kb(),
        }
        if attrs:
            span.update(attrs)
        if err is not None:
            span["err"] = err
        self.spans.append(span)

    def _fail(self, name, message):
        self.failed += 1
        if len(self.failures) < self.MAX_FAILURE_NOTES:
            self.failures.append({"op": name, "pass": self.pass_id, "error": message})

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics derived from spans

# metric -> (span name, scale applied to seconds per work unit, unit)
RATE_METRICS = {
    "core.sieve.ns_per_n": ("core.sieve", 1e9, "ns/n"),
    "core.cofactor.ns_per_n": ("core.cofactor", 1e9, "ns/n"),
    "core.evaluate.cm.ns_per_n": ("core.evaluate.cm", 1e9, "ns/n"),
    "core.evaluate.gm.ns_per_n": ("core.evaluate.gm", 1e9, "ns/n"),
    "core.evaluate.deg2.ns_per_n": ("core.evaluate.deg2", 1e9, "ns/n"),
    "core.evaluate.quotient.ns_per_n": ("core.evaluate.quotient", 1e9, "ns/n"),
    "core.sums.ns_per_term": ("core.sums", 1e9, "ns/term"),
    "core.csv.write.us_per_row": ("core.csv.write", 1e6, "us/row"),
    "core.csv.read.us_per_row": ("core.csv.read", 1e6, "us/row"),
    "metrics.distance.ns_per_prime": ("metrics.distance", 1e9, "ns/prime"),
    "metrics.local_series.us_per_coeff": ("metrics.local_series", 1e6, "us/coeff"),
    "dirichlet.quotient.us_per_coeff": ("dirichlet.quotient", 1e6, "us/coeff"),
    "dirichlet.convolve.ns_per_pair": ("dirichlet.convolve", 1e9, "ns/pair"),
    "dirichlet.determinant.us_per_call": ("dirichlet.determinant", 1e6, "us/call"),
    "degree.recursion.us_per_call": ("degree.recursion", 1e6, "us/call"),
    "asymptotics.growth_fit.us_per_call": ("asymptotics.growth_fit", 1e6, "us/call"),
    "asymptotics.xi.lookup.ns_per_point": ("asymptotics.xi.lookup", 1e9, "ns/point"),
    "constructions.construct.character.ms": ("constructions.character", 1e3, "ms"),
    "randspecs.construct.random_spec.ms": ("randspecs.random_spec", 1e3, "ms"),
}

# the core layers whose first call's rise in ru_maxrss is reported
RSS_STEP_LAYERS = ("sieve", "cofactor", "evaluate", "sums")

TABLE_SPANS = ("core.sieve", "core.cofactor", "core.evaluate")


def _op_spans(spans, keep):
    return [s for s in spans if "work" in s and keep(s["pass"])]


def layer_metrics(spans, keep) -> dict:
    """Per-layer metrics from the operation spans whose pass id passes keep.

    Rates are medians over calls of seconds per work unit; a metric whose
    layer no kept span touched is left out.
    """
    ops = _op_spans(spans, keep)
    out = {}
    for metric, (span_name, scale, unit) in RATE_METRICS.items():
        rates = [
            (s["end"] - s["start"]) / s["work"] * scale
            for s in ops if s["name"] == span_name and s["work"] > 0
        ]
        if rates:
            out[metric] = (statistics.median(rates), unit)

    sums = [s for s in ops if s["name"] == "core.sums"]
    if sums:
        out["core.sums.checkpoints"] = (
            statistics.median(s["checkpoints"] for s in sums), "count")
        out["core.sums.max_err"] = (
            max(s.get("err", math.inf) for s in sums), "abs")

    sieves = [s for s in ops if s["name"] == "core.sieve"]
    if sieves:
        n = max(s["work"] for s in sieves)
        held = 0
        for prefix in TABLE_SPANS:
            sizes = [s["nbytes"] for s in ops if s["name"].startswith(prefix)]
            held += max(sizes, default=0)
        out["core.table.bytes_per_n"] = (held / n, "B/n")

    for layer in RSS_STEP_LAYERS:
        first = [s for s in ops if s["name"].startswith("core." + layer)]
        if first:
            s = min(first, key=lambda s: s["start"])
            out["core.rss.step_mb." + layer] = (
                (s["rss_after_kb"] - s["rss_before_kb"]) / 1024.0, "MB")
    return out


PER_LAYER_NAMES = tuple(RATE_METRICS) + (
    "core.sums.checkpoints",
    "core.sums.max_err",
    "core.table.bytes_per_n",
) + tuple("core.rss.step_mb." + layer for layer in RSS_STEP_LAYERS)
