"""Set up a workload, run it untraced or traced, check every result and
compute the metrics.

An untraced run sets up several times, then runs whole units (a round of
sweeps or a block of queries) in a closed loop until the given seconds
have passed, and gives the end-to-end metrics.  Its times are calibrated
against machine speed (see calibration.py); the raw ones are recorded
under "raw.".  A traced run does a fixed amount of work twice, untraced
then traced, and gives the per-layer metrics from spans.
"""

from __future__ import annotations

import gc
import importlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from contextlib import contextmanager
from types import SimpleNamespace

from . import spans, workloads
from .calibration import Calibrator

SETUPS = 9  # setup_s is the median of this many set-ups in one run
TRACE_UNITS = {"sweep-theorem": 1, "sweep-structural": 1, "query-mix": 3}
MODULES = ("group", "tableaux", "rs", "signs", "cli", "_kernels")


def _grpn_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "grpn" or k.startswith("grpn.")}


@contextmanager
def isolated_grpn():
    """Put back the grpn modules loaded before, whatever got imported inside."""
    saved = _grpn_modules()
    try:
        yield
    finally:
        for name in _grpn_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def import_grpn() -> SimpleNamespace:
    """Import grpn afresh, so that each set-up pays for the import."""
    for name in _grpn_modules():
        del sys.modules[name]
    importlib.import_module("grpn")
    return SimpleNamespace(
        **{name: importlib.import_module("grpn." + name) for name in MODULES}
    )


def environment(kernels, seed: int) -> dict:
    """What must match for two runs to be comparable."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": nproc,
        "seed": seed,
    }


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(workload):
    """Import grpn afresh and run the workload's warm-up on it."""
    grpn = import_grpn()
    execute(workload.requests(grpn, workload.warm_up()))
    return grpn


class Outcome:
    """Times, outputs and errors of executed requests, in order."""

    def __init__(self):
        self.requests: list = []
        self.times: list[tuple[float, float, float]] = []  # start, end, cpu_s
        self.outputs: list = []
        self.errors: list = []

    def add(self, request, times, output, error):
        self.requests.append(request)
        self.times.append(times)
        self.outputs.append(output)
        self.errors.append(error)

    def check(self) -> list[str]:
        """Failure descriptions; a failed check or an exception fails a request."""
        failures = []
        for request, output, error in zip(self.requests, self.outputs, self.errors):
            if error is None:
                try:
                    if request.check(output):
                        continue
                    error = "check failed"
                except Exception:
                    error = "check raised: " + traceback.format_exc(limit=2).strip()
            failures.append(f"{request.kind}: {error}")
        return failures


def execute(unit, outcome=None, tracer=None, calibrator=None):
    """Run the requests of one unit in a closed loop."""
    outcome = outcome if outcome is not None else Outcome()
    for request in unit:
        if calibrator is not None:
            calibrator.maybe_probe()
        output = error = None
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            if tracer is None:
                output = request.run()
            else:
                with tracer.request("request." + request.kind):
                    output = request.run()
        except Exception:
            error = "raised: " + traceback.format_exc(limit=2).strip()
        end = time.perf_counter()
        outcome.add(request, (start, end, cpu_seconds() - cpu), output, error)
    if calibrator is not None:
        calibrator.probe()
    return outcome


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seconds: float) -> tuple[dict, dict, list[str], int]:
    """Set up SETUPS times, then run whole units until ``seconds`` have
    passed, checking each unit's outputs after it."""
    cal = Calibrator()
    setups = []
    for _ in range(SETUPS):
        cal.probe()
        start = time.perf_counter()
        grpn = setup(workload)
        end = time.perf_counter()
        cal.probe()
        setups.append((end - start, cal.factor(start, end)))
    keys, elements, times = [], array("q"), array("d")  # times: start, end, cpu_s
    failures = []
    units = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not units:
        outcome = execute(workload.requests(grpn, workload.unit()), calibrator=cal)
        for request, t in zip(outcome.requests, outcome.times):
            keys.append(request.key)
            elements.append(request.elements)
            times.extend(t)
        failures += outcome.check()
        units += 1
    # before the summary below allocates, so the peak is the program's
    peak_rss = peak_rss_mb()
    metrics = {}
    for prefix, calibrated in (("", True), ("raw.", False)):
        # A request repeated in every unit (a sweep) gets its median over
        # the repeats; every query is distinct and counts as it is.
        by_key: dict = {}
        for i, key in enumerate(keys):
            start, end, cpu = times[3 * i : 3 * i + 3]
            f = cal.factor(start, end) if calibrated else 1.0
            by_key.setdefault(i if key is None else key, []).append(((end - start) * f, cpu * f, elements[i]))
        lat, cpu, counts = zip(
            *(
                (statistics.median(t for t, _, _ in runs), statistics.median(c for _, c, _ in runs), runs[0][2])
                for runs in by_key.values()
            )
        )
        lat_us = [t * 1e6 for t in lat]
        metrics.update(
            {
                prefix + "setup_s": _metric(statistics.median(t * f if calibrated else t for t, f in setups), "s"),
                prefix + "elements_per_s": _metric(sum(counts) / sum(lat), "1/s"),
                prefix + "requests_per_s": _metric(len(lat) / sum(lat), "1/s"),
                prefix + "request_p50_us": _metric(statistics.median(lat_us), "us"),
                prefix + "request_p99_us": _metric(quantile(lat_us, 0.99), "us"),
                prefix + "cpu_us_per_op": _metric(sum(cpu) / sum(counts) * 1e6, "us"),
            }
        )
    metrics["peak_rss_mb"] = _metric(peak_rss, "MB")
    samples = {"requests": len(keys), "latency_samples": len(lat), "units": units, "probes": len(cal.probes)}
    return metrics, samples, failures, len(keys)


def kernel_comparison(grpn, small: bool) -> dict:
    """Per-call time of every kernel backend on the sweep-theorem elements."""
    elements = workloads.kernel_elements(grpn, small)
    out = {}
    for backend in sorted(grpn._kernels.BACKENDS):
        kernel = grpn._kernels.get_kernel(backend)
        start = time.perf_counter()
        for perm, colors, r in elements:
            kernel(perm, colors, r)
        elapsed = time.perf_counter() - start
        out[f"_kernels.{backend}.us_per_call"] = _metric(elapsed / len(elements) * 1e6, "us")
    return out


def layer_metrics(tracer: spans.Tracer, traced_busy: float) -> dict:
    """Counts, busy and self times, and their share of the time the traced
    requests took."""
    summary = tracer.summary()
    counts = tracer.counts
    out = {}
    for name in spans.BOUNDARIES:
        s = summary.get(name, {"busy_s": 0.0, "self_s": 0.0})
        calls = counts[name + ".calls"]
        out[name + ".calls"] = _metric(calls, "count")
        out[name + ".busy_s"] = _metric(s["busy_s"], "s")
        out[name + ".self_s"] = _metric(s["self_s"], "s")
        out[name + ".busy_pct"] = _metric(100 * s["busy_s"] / traced_busy, "%")
        out[name + ".self_pct"] = _metric(100 * s["self_s"] / traced_busy, "%")
        if calls:
            out[name + ".us_per_call"] = _metric(s["busy_s"] / calls * 1e6, "us")
    for name in spans.GENERATORS:
        yielded = counts[name + ".yielded"]
        out[name + ".yielded"] = _metric(yielded, "count")
    candidates = counts["group.enumerate_group.candidates"]
    out["group.enumerate_group.candidates"] = _metric(candidates, "count")
    out["group.enumerate_group.yield_ratio"] = _metric(
        counts["group.enumerate_group.yielded"] / candidates if candidates else 0.0, "ratio"
    )
    calls = counts["rs.rs_map.calls"]
    out["rs.rs_map.distinct_ratio"] = _metric(
        len(tracer.inputs["rs.rs_map"]) / calls if calls else 0.0, "ratio"
    )
    return out


def trace(workload, units: int, small: bool) -> tuple[dict, dict, list[str], int, spans.Tracer]:
    """The same units untraced, then traced; per-layer metrics from the spans."""
    grpn = setup(workload)
    inputs = [workload.unit() for _ in range(units)]
    outcome = Outcome()
    cal = Calibrator()
    tracer = spans.Tracer()
    raw, calibrated = [], []
    for traced in (False, True):
        requests = [workload.requests(grpn, unit) for unit in inputs]
        first = len(outcome.times)
        gc.collect()
        if traced:
            spans.instrument(tracer, grpn)
        try:
            for unit in requests:
                execute(unit, outcome, tracer if traced else None, cal)
        finally:
            tracer.restore()
        times = outcome.times[first:]
        raw.append(sum(end - start for start, end, _ in times))
        calibrated.append(sum((end - start) * cal.factor(start, end) for start, end, _ in times))
    metrics = layer_metrics(tracer, raw[1])
    metrics["trace.overhead_ratio"] = _metric(calibrated[1] / calibrated[0], "ratio")
    metrics.update(kernel_comparison(grpn, small))
    samples = {"requests": len(outcome.requests) // 2, "units": units}
    return metrics, samples, outcome.check(), len(outcome.requests), tracer


def run(name: str, seed: int, seconds: float, traced: bool, small: bool = False) -> dict:
    """One benchmark run; returns the result record with every metric and,
    for a traced run, the tracer under "tracer"."""
    workload = workloads.build(name, seed, small)
    with isolated_grpn():
        if traced:
            metrics, samples, failures, attempted, tracer = trace(workload, TRACE_UNITS[name], small)
        else:
            metrics, samples, failures, attempted = measure(workload, seconds)
            tracer = None
        env = environment(sys.modules["grpn._kernels"], seed)
    metrics.setdefault("peak_rss_mb", _metric(peak_rss_mb(), "MB"))
    metrics["failed_ratio"] = _metric(len(failures) / attempted, "ratio")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "small": small,
        "env": env,
        "attempted": attempted,
        "failed": len(failures),
        "correct": not failures,
        "samples": samples,
        "metrics": metrics,
        "failures": failures[:10],
        "tracer": tracer,
    }
