"""Measuring process: repeated campaigns of one workload.

Run by ``run.py`` as its own process, so that its resource usage (CPU
and peak memory, its pool workers' included) is the campaigns' alone::

    python3 perfbench/measure.py --workload fig3-dense --seed 2023 \\
        --seconds 30 --trace 0 --workdir W --out result.json \\
        --trace-out fig3-dense

Each repetition is one whole campaign on a freshly built station.  One
warm-up repetition runs first; it is checked but not timed.  Then
repetitions continue while the next one, at the median duration so
far, still fits in ``--seconds``; at least :data:`MIN_REPS` untraced
ones run, or one of each kind when tracing.

Between repetitions, and before the first, a fixed reference kernel
that runs no program code (:func:`_reference_kernel`) is timed
:data:`KERNELS_PER_GAP` times.  A shared host can slow by up to a
third for stretches of tens of seconds, and the kernel slows with it,
so the end-to-end times are scaled by the kernel's mean over the run
to the reference host, on which the kernel takes
:data:`REFERENCE_KERNEL_S`.  A change to the program moves the
campaigns and not the kernel.  The unscaled figures and every kernel
time are kept in the result.

``--trace 0`` times untraced repetitions only and reports the run's
throughput (all measurements over all wall time), mean CPU per
campaign, both scaled, and peak memory.  ``--trace 1`` alternates
untraced and traced repetitions: the traced ones install the layer
wrappers (:mod:`layers`), a tracer and a metrics registry, and yield
the ledger of the median traced repetition, unscaled; the untraced
ones give the wall time the tracing overhead is measured against.  The
first traced repetition's spans and metrics are written out for
rendering with ``repro obs summarize`` and ``repro obs export``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

import layers
import workloads

#: Fewest untraced repetitions, whatever ``--seconds`` says.
MIN_REPS = 3

#: Counts that must repeat exactly across traced repetitions: the
#: repository's own engine and device counters.
DETERMINISTIC_PREFIXES = ("dram.commands.", "engine.cache.",
                          "engine.fastpath.", "engine.pool.sessions_",
                          "engine.pool.batches", "bender.programs",
                          "sweep.", "fleet.", "campaign.")

#: Largest tolerated gap between the ledger's sum and the traced wall.
LEDGER_TOLERANCE = 0.01

#: Seconds :func:`_reference_kernel` takes on the reference host, the
#: host the end-to-end times are scaled to.
REFERENCE_KERNEL_S = 0.05
#: Runs of the reference kernel between two repetitions.
KERNELS_PER_GAP = 3


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest worker."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _one_rep(workload, seed: int, workdir: Path, traced: bool,
             keep_trace: bool) -> Dict:
    from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    gc.collect()
    rep: Dict = {"traced": traced}
    if traced:
        layers.install()
        tracer, registry = Tracer(), MetricsRegistry()
    cpu_before = _cpu_s()
    started = time.perf_counter()
    try:
        if traced:
            with use_tracer(tracer), use_metrics(registry):
                with tracer.span("bench.campaign", workload=workload.name):
                    outcome = workload.run(seed, workdir)
        else:
            outcome = workload.run(seed, workdir)
    except Exception:  # a campaign that errors fails all its items
        rep["error"] = traceback.format_exc()
        outcome = workloads.Outcome(
            fingerprint="", measurements=0, failed_items=workload.items,
            failures=["campaign-error"])
    finally:
        wall_s = time.perf_counter() - started
        if traced:
            layers.uninstall()
    rep.update(wall_s=wall_s, cpu_s=_cpu_s() - cpu_before,
               fingerprint=outcome.fingerprint,
               measurements=outcome.measurements,
               failed_items=outcome.failed_items,
               failures=list(outcome.failures),
               paper_err=outcome.paper_err)
    if traced:
        counters = registry.snapshot()["counters"]
        rep["counts"] = {name: value for name, value in counters.items()
                         if name.startswith(DETERMINISTIC_PREFIXES)}
        rep["ledger"] = layers.ledger(tracer.records, wall_s, workload.jobs)
        rep["ledger"].update(_engine_metrics(counters))
        if keep_trace:
            rep["trace"], rep["metrics"] = tracer, registry
    shutil.rmtree(workdir, ignore_errors=True)
    return rep


#: Per-layer counts the repository's own counters already hold.
ENGINE_COUNTS = (
    "engine.cache.hits", "engine.cache.misses", "engine.fastpath.hits",
    "engine.fastpath.fallbacks", "engine.fastpath.bypasses",
    "engine.pool.batches", "engine.pool.sessions_built",
    "engine.pool.sessions_evicted") + tuple(
    f"dram.commands.{command}"
    for command in ("ACT", "PRE", "RD", "WR", "REF"))


def _engine_metrics(counters: Dict[str, float]) -> Dict[str, float]:
    metrics = {name: counters.get(name, 0) for name in ENGINE_COUNTS}

    def share(part: str, *parts: str) -> float:
        total = sum(metrics[name] for name in parts)
        return metrics[part] / total if total else 0.0

    metrics["engine.cache.hit_ratio"] = share(
        "engine.cache.hits", "engine.cache.hits", "engine.cache.misses")
    metrics["engine.fastpath.hit_ratio"] = share(
        "engine.fastpath.hits", "engine.fastpath.hits",
        "engine.fastpath.fallbacks", "engine.fastpath.bypasses")
    return metrics


def _schedule(trace: bool):
    """Traced flag of each repetition after the warm-up, in order
    (endless)."""
    while True:
        yield False
        if trace:
            yield True


def _reference_kernel() -> float:
    """Wall seconds of a fixed kernel that runs no program code.

    Interpreter work (integer arithmetic, dict stores) and numpy
    passes, as a campaign mixes them.  Run between repetitions, it
    tells how fast the host is at that moment.
    """
    import numpy

    started = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for index in range(240_000):
        total = (total * 31 + index) % 1_000_003
        table[index & 1023] = total
    values = numpy.arange(300_000, dtype=numpy.float64)
    for _ in range(16):
        values = numpy.sqrt(values * values + 1.0)
    return time.perf_counter() - started


def _reference_kernels() -> List[float]:
    """Several runs of :func:`_reference_kernel`, between repetitions."""
    return [_reference_kernel() for _ in range(KERNELS_PER_GAP)]


def measure(workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> Dict:
    # Import everything a campaign touches before the first repetition,
    # so no repetition pays a module's first import.
    import repro.analysis  # noqa: F401
    import repro.core.fleet  # noqa: F401
    import repro.core.parallel  # noqa: F401

    started = time.perf_counter()
    # The warm-up fills what a process fills once (lazy imports, numpy
    # and allocator state); it is checked like any other repetition but
    # not timed.
    warmup = _one_rep(workload, seed, workdir / "warmup", traced=False,
                      keep_trace=False)
    warmup["warmup"] = True
    kernels = _reference_kernels()
    reps: List[Dict] = []
    for traced in _schedule(trace):
        plain = sum(1 for rep in reps if not rep["traced"])
        enough = (plain >= 1 and len(reps) > plain if trace
                  else plain >= MIN_REPS)
        if enough:
            same = [rep["wall_s"] for rep in reps
                    if rep["traced"] == traced]
            gap_s = sum(kernels[-KERNELS_PER_GAP:])
            if (time.perf_counter() - started + gap_s
                    + statistics.median(same) > seconds):
                break
        reps.append(_one_rep(
            workload, seed, workdir / f"rep{len(reps)}", traced,
            keep_trace=traced and not any(rep["traced"] for rep in reps)))
        kernels += _reference_kernels()
    return _summarize(workload, warmup, reps, kernels)


def _summarize(workload, warmup: Dict, timed: List[Dict],
               kernels: List[float]) -> Dict:
    reps = [warmup] + timed
    failures = sorted({failure for rep in reps for failure in rep["failures"]})
    fingerprints = sorted({rep["fingerprint"] for rep in reps})
    if len(fingerprints) > 1:
        failures.append("fingerprint-repeats")
    traced = [rep for rep in reps if rep["traced"]]
    if len({json.dumps(rep["counts"], sort_keys=True)
            for rep in traced}) > 1:
        failures.append("counts-repeat")
    for rep in traced:
        ledger = rep["ledger"]
        wall = ledger["obs.traced_wall_s"]
        if abs(ledger["ledger.sum_s"] - wall) > LEDGER_TOLERANCE * wall:
            failures.append("ledger-closure")
            break
    attempted = workload.items * len(reps)
    # A repetition that failed a check counts every item it covered.
    failed = sum(workload.items if rep["failures"] else rep["failed_items"]
                 for rep in reps)
    if failures and not failed:
        failed = attempted
    plain = [rep for rep in timed
             if not rep["traced"] and "campaign-error" not in rep["failures"]]
    if not plain:
        raise RuntimeError(f"every campaign failed:\n{reps[-1]['error']}")
    measurements_per_s = (sum(rep["measurements"] for rep in plain)
                          / sum(rep["wall_s"] for rep in plain))
    cpu_s = statistics.mean(rep["cpu_s"] for rep in plain)
    slowdown = statistics.mean(kernels) / REFERENCE_KERNEL_S
    result = {
        "workload": workload.name,
        "reps": [{key: value for key, value in rep.items()
                  if key not in ("trace", "metrics", "ledger", "counts")}
                 for rep in reps],
        "fingerprint": fingerprints[0] if fingerprints else None,
        "paper_err": plain[0]["paper_err"],
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        # Whole-run figures, scaled to the reference host by the
        # kernel's mean over the run (see the module docstring).
        "end_to_end": {
            "measurements_per_s": measurements_per_s * slowdown,
            "cpu_s": cpu_s / slowdown,
            "peak_rss_mib": _peak_rss_mib(),
        },
        "unscaled": {
            "measurements_per_s": measurements_per_s, "cpu_s": cpu_s,
            "reference_kernel_s": kernels,
        },
    }
    if traced:
        walls = [rep["wall_s"] for rep in traced]
        middle = traced[walls.index(statistics.median_low(walls))]
        ledger = dict(middle["ledger"])
        ledger["obs.trace_overhead_frac"] = (
            statistics.mean(walls)
            / statistics.mean(rep["wall_s"] for rep in plain) - 1)
        result["per_layer"] = ledger
        result["counts"] = middle["counts"]
        result["trace_rep"] = traced[0]
    return result


def _environment() -> Dict[str, str]:
    """Provenance only this process can see: what the program runs on."""
    import numpy
    from repro.bender.board import BoardSpec
    from repro.dram.profiles import get_profile

    profile = BoardSpec().device_profile or "hbm2"
    return {"profile": profile,
            "profile_identity": get_profile(profile).identity(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path,
                        help="stem of the first traced repetition's span "
                             "JSONL and metrics snapshot (--trace 1)")
    args = parser.parse_args(argv)

    result = measure(workloads.WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace), args.workdir)
    result["environment"] = _environment()
    trace_rep = result.pop("trace_rep", None)
    if trace_rep is not None and args.trace_out is not None:
        trace_rep["trace"].write_jsonl(f"{args.trace_out}.trace.jsonl")
        trace_rep["metrics"].to_json(f"{args.trace_out}.metrics.json")
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
