"""Benchmark of the dressedcool package: one workload, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload closed_form_cli --seed 1 --seconds 6 --trace 0

--trace 0 prints every end-to-end metric; --trace 1 runs the workload
with spans recorded around every public function of the package and
prints every per-layer metric plus the tracing overhead.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread, here and in every interpreter the benchmark starts: on
# a small shared machine a second spinning BLAS thread makes the oracle
# timings slower and noisier, not faster.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# glibc raises its mmap threshold each time a mapped block is freed, so
# whether a large array comes back to the OS depends on the allocation
# history, and the peak RSS of two runs of the same work differed by
# 32 MB.  A fixed threshold (glibc's own default, 128 KiB) maps every
# large array and unmaps it when freed, in this process and in every
# interpreter it starts.
MMAP_THRESHOLD = 128 * 1024
os.environ["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)


def _fix_mmap_threshold() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):      # not glibc: nothing to fix
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, MMAP_THRESHOLD)            # -3 is M_MMAP_THRESHOLD

ROOT = Path.cwd()
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "closed_form_points_per_s": "points/s",
    "cli_command_s": "s",
    "cli_validate_s": "s",
    "oracle_points_per_s": "points/s",
    "oracle_peak_rss_mb": "MB",
    "evolve_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed_form_cli", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _rounds(workload, tally, samples, seconds, probes=None):
    """Whole rounds until the workload itself has run `seconds`, probes
    not counted; at least one round."""
    work = []
    t0 = time.perf_counter()
    while True:
        work.append(workload.round(tally, samples))
        spent = time.perf_counter() - t0 - (probes.seconds if probes else 0)
        if spent >= seconds:
            return work


def _setup_seconds(run_python):
    """Median wall time of a fresh interpreter doing the warm-up."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc, seconds = run_python(["perfbench/warmup.py"])
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up failed: {proc.stderr.strip()}")
        times.append(seconds)
    return statistics.median(times)


def _import_seconds(run_python):
    """Median cumulative import time of dressedcool and of its lindblad
    module, from `python -X importtime`."""
    total, lind = [], []
    for _ in range(IMPORT_SAMPLES):
        proc, _ = run_python(["-X", "importtime", "-c", "import dressedcool"])
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        total.append(cumulative["dressedcool"])
        lind.append(cumulative["dressedcool.lindblad"])
    return statistics.median(total), statistics.median(lind)


def timed_run(workloads, workload, tally, seconds):
    setup = _setup_seconds(workloads.run_python)
    samples = defaultdict(list)
    probes = workloads.Probes(workload.home, workload.probe_span_s)
    tally.boundary = probes.between
    _rounds(workload, tally, samples, seconds, probes)
    values = {name: statistics.median(samples[name])
              for name in workload.home if name in samples}
    values.update(probes.finish(tally))
    values["setup_s"] = setup
    values["oracle_peak_rss_mb"] = workloads.peak_rss_mb()
    missing = set(END_TO_END_UNITS) - set(values)
    if missing:
        tally.errors.append(f"no measurement for {sorted(missing)}")
    return {name: (values[name], unit)
            for name, unit in END_TO_END_UNITS.items() if name in values}


def traced_run(workloads, workload, tally, seconds, trace_path):
    import dressedcool
    import tracer as tracing

    import_s, import_lindblad_s = _import_seconds(workloads.run_python)
    # the same rounds untraced, then traced: their ratio is the overhead
    plain = _rounds(workload, tally, defaultdict(list), seconds / 2)
    tracer = tracing.Tracer()
    tracer.install(dressedcool)
    try:
        traced = _rounds(workload, tally, defaultdict(list), seconds / 2)
    finally:
        tracer.uninstall()
    tracer.write(trace_path, {"workload": workload.name,
                              "rounds": len(traced)})
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.import_lindblad_s"] = (import_lindblad_s, "s")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
        "%")
    metrics["trace.spans_per_round"] = (tracer.spans / len(traced), "count")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    _fix_mmap_threshold()
    if not (ROOT / "src" / "dressedcool" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from the repository root; "
                         "src/dressedcool is missing here\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import warmup
    import workloads

    workloads.OUT.mkdir(parents=True, exist_ok=True)
    warmup.warm_up()
    cls = workloads.WORKLOADS[args.workload]
    kwargs = {"in_process": True} if (args.trace and
                                      cls is workloads.ClosedFormCli) else {}
    workload = cls(args.seed, **kwargs)
    tally = workloads.Tally()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = traced_run(workloads, workload, tally, args.seconds,
                             workloads.OUT / f"{stem}.spans.jsonl")
    else:
        metrics = timed_run(workloads, workload, tally, args.seconds)

    for note in tally.notes[:5]:
        sys.stderr.write(f"failed: {note}\n")
    for err in tally.errors[:20]:
        sys.stderr.write(f"incorrect: {err}\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (workloads.OUT / f"{stem}.result.json").write_text(line + "\n",
                                                       encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
