"""The repository benchmark: one workload, one seed, one line of metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig3-dense --seed 2023 \\
        --seconds 30 --trace 0

The workloads are defined, with the reason each exists, in
:mod:`workloads`; ``BENCHMARK.json`` lists them and every metric with
its unit.  A run:

1. times set-up (``import repro``, ``BoardSpec.build()``, the
   interference controls) in several fresh interpreters, scales each
   sample to the reference host by the reference kernel run after it
   (see :mod:`measure`), and keeps the median, ``setup_s``;
2. runs the campaigns in a separate measuring process
   (:mod:`measure`), untraced with ``--trace 0`` and alternately
   untraced and traced with ``--trace 1``;
3. checks the outputs: each artifact reads back with its fingerprint,
   fingerprints and deterministic counts repeat across repetitions and
   across runs of the same workload, seed and source, no work item
   fails, and the traced ledger closes on the traced wall time;
4. writes the result, stamped with its provenance, to
   ``.perfbench/results/`` (a traced run also leaves the workload's
   latest span JSONL and metrics snapshot there, which ``repro obs
   summarize`` and ``repro obs export --format flamegraph`` render),
   prints a summary, and prints the metrics as the last line of
   standard output::

       {"correct": true, "attempted": 72, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` ones, with
``--trace 1`` the ``per_layer`` ones.  The process exits non-zero,
printing no result, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import measure
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything a run writes: results, scratch space, temporary files.
STATE = ROOT / ".perfbench"

#: Set-up samples per run (each a fresh interpreter).
SETUP_SAMPLES = 7
#: A run must end within this many seconds.
DEADLINE_S = 170.0


def _python(script: str, *args: str, env: Dict[str, str],
            timeout: float) -> str:
    """Run one of this directory's scripts; return its standard output.

    The script runs in a session of its own, so that whatever of it is
    left when it ends or times out, pool workers included, is killed
    and none outlives the run.
    """
    process = subprocess.Popen(
        [sys.executable, str(HERE / script), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
    if process.returncode:
        raise subprocess.CalledProcessError(process.returncode, script)
    return stdout


def _source_digest() -> str:
    """Digest of the program's and the benchmark's source files."""
    hasher = hashlib.blake2b(digest_size=16)
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            hasher.update(str(path.relative_to(ROOT)).encode())
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
            timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _provenance(workload, seed: int, args, measured: Dict) -> Dict:
    status = _git("status", "--porcelain", "--", "src")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_digest": _source_digest(),
        **measured["environment"],
        "effective_cpus": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
        "workload": workload.name,
        "seed": seed,
        "jobs": workload.jobs,
        "densities": workload.densities,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _check_history(key: str, measured: Dict) -> List[str]:
    """Compare this run with earlier runs of the same workload, seed and
    source; record it for later runs."""
    path = STATE / "history.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    entry = history.setdefault(key, {})
    failures = []
    if entry.setdefault("fingerprint",
                        measured["fingerprint"]) != measured["fingerprint"]:
        failures.append("fingerprint-repeats-across-runs")
    counts = measured.get("counts")
    if counts is not None and entry.setdefault("counts", counts) != counts:
        failures.append("counts-repeat-across-runs")
    temporary = path.with_suffix(".tmp")
    temporary.write_text(json.dumps(history, indent=1, sort_keys=True))
    os.replace(temporary, path)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="chip seed (sweeps) or base seed (fleet); "
                             "default: the workload's own")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = contract["per_layer" if args.trace else "end_to_end"]
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    run_id = f"{os.getpid()}"
    scratch = STATE / "scratch" / run_id
    tmp = STATE / "tmp" / run_id
    results = STATE / "results"
    for directory in (scratch, tmp, results):
        directory.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    stem = results / f"{workload.name}-seed{seed}-trace{args.trace}"
    names = {item["name"] for item in listed}
    try:
        setup = [json.loads(_python(
            "setup_probe.py", "--seed", str(seed), env=env,
            timeout=60).splitlines()[-1])
            for _ in range(SETUP_SAMPLES if "setup_s" in names else 0)]
        _python("measure.py", "--workload", workload.name,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--workdir", str(scratch),
                "--out", str(tmp / "measure.json"),
                "--trace-out", str(results / workload.name), env=env,
                timeout=DEADLINE_S - (time.monotonic() - started))
        measured = json.loads((tmp / "measure.json").read_text())
    except (subprocess.SubprocessError, OSError, ValueError,
            KeyError) as error:
        print(f"error: the benchmark could not run: {error}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)

    values = dict(measured.get("per_layer" if args.trace else "end_to_end"))
    if setup:
        values["setup_s"] = statistics.median(
            sample["setup_s"] * measure.REFERENCE_KERNEL_S
            / sample["kernel_s"] for sample in setup)
    failures = measured["failures"] + _check_history(
        f"{workload.name}|{seed}|{_source_digest()}", measured)
    failed = measured["failed"] or (measured["attempted"] if failures
                                    else 0)
    metrics = {item["name"]: {"value": values[item["name"]],
                              "unit": item["unit"]} for item in listed}
    report = {
        "provenance": _provenance(workload, seed, args, measured),
        "correct": not failures, "failures": failures,
        "attempted": measured["attempted"], "failed": failed,
        "fingerprint": measured["fingerprint"],
        "paper_err": measured["paper_err"],
        "counts": measured.get("counts"),
        "setup_samples": setup,
        "unscaled": measured["unscaled"],
        "reps": measured["reps"],
        "metrics": metrics,
    }
    if args.trace:
        report["trace_files"] = [
            f"{workload.name}.trace.jsonl", f"{workload.name}.metrics.json"]
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1))

    print(f"workload {workload.name}  seed {seed}  "
          f"fingerprint {measured['fingerprint']}")
    print(f"  repetitions: {len(measured['reps'])} "
          f"({sum(rep['traced'] for rep in measured['reps'])} traced)")
    print("  checks: " + ("all passed" if not failures
                          else "FAILED " + ", ".join(failures)))
    for name, value in sorted(measured["paper_err"].items()):
        print(f"  paper_err.{name} = {value:.6g}  (reported, not gated)")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  result: {Path(f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": not failures,
                      "attempted": measured["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
