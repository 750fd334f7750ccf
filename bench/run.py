"""Closed-loop benchmark of pftcs: one workload per run, one process.

Run from the repository root::

    python3 bench/run.py --workload snr_trials --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each op is issued only after the previous one has returned, and BLAS/OpenMP
threads are pinned to 1.  Op, set-up and span times are CPU seconds of this
process (user + system): the work is single-threaded and CPU-bound, and on
a shared host its wall time also holds whatever time the host gave to other
tenants.  The detail file records the CPU share of the timed loop's wall
time.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints per-layer metrics from a traced pass over a fixed op
prefix plus the tracing overhead against an untraced pass over the same
ops.  The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a per-run detail file (cells,
environment, absent spans) goes to ``bench/results/``.  The exit code is
1 when any op failed its output check, 2 when pftcs cannot be imported
from ``src/`` next to this directory.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # must precede the first numpy import, which sizes the BLAS thread pool
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Malformed, percentile  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("recovery_hit_frac", "frac"),
)

PER_LAYER = (
    ("recovery.detect_bins.calls", "calls/op"),
    ("recovery.detect_bins.ms", "ms/op"),
    ("recovery.grid_estimates.calls", "calls/op"),
    ("recovery.grid_estimates.ms", "ms/op"),
    ("recovery.grid_estimates.fft_cells", "count/op"),
    ("recovery.kernel_matrix.ms", "ms/op"),
    ("recovery.solve_amplitudes.calls", "calls/op"),
    ("recovery.solve_amplitudes.ms", "ms/op"),
    ("recovery.solve_amplitudes.rank_rejects", "count/op"),
    ("recovery.atom_matrix.calls", "calls/op"),
    ("recovery.atom_matrix.ms", "ms/op"),
    ("recovery.best_pair.calls", "calls/op"),
    ("recovery.best_pair.ms", "ms/op"),
    ("recovery.recover.self_ms", "ms/op"),
    ("recovery.reconstruct.ms", "ms/op"),
    ("recovery.cs_spectral_estimate.ms", "ms/op"),
    ("model.phase_cycles.calls", "calls/op"),
    ("model.synthesize.ms", "ms/op"),
    ("model.select_measurements.ms", "ms/op"),
    ("model.apply_noise.ms", "ms/op"),
    ("transform.kernel_values_at.calls", "calls/op"),
    ("transform.kernel_values_at.ms", "ms/op"),
    ("lpft.lpft_sweep.calls", "calls/op"),
    ("lpft.lpft_sweep.ms", "ms/op"),
    ("lpft.lpft_cs_estimate.calls", "calls/op"),
    ("lpft.lpft_cs_estimate.ms", "ms/op"),
    ("lpft.window_fit.calls", "calls/op"),
    ("lpft.window_fit.ms", "ms/op"),
    ("lpft.window_fit.rank_rejects", "count/op"),
    ("lpft.detect_bins.calls", "calls/op"),
    ("lpft.detect_bins.ms", "ms/op"),
    ("lpft.lpft_recover.self_ms", "ms/op"),
    ("csvio.write.calls", "calls/op"),
    ("csvio.write.ms", "ms/op"),
    ("csvio.write.bytes", "B/op"),
    ("config.parse_config.ms", "ms/op"),
    ("experiments.run_experiment.self_ms", "ms/op"),
    ("analysis.snr_experiment.self_ms", "ms/op"),
    ("analysis.phase_transition.self_ms", "ms/op"),
    ("trace.overhead_pct", "%"),
)

# Set-up is repeated this many times per untraced run; setup_s is the median.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Record:
    op: object
    seconds: float
    ok: bool
    hit: bool = False
    snr_db: float | None = None
    error: str | None = None


def import_fresh(src: Path):
    """Import pftcs from ``src`` anew, re-executing every module body."""
    for name in [m for m in sys.modules if m == "pftcs" or m.startswith("pftcs.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("pftcs")
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"pftcs resolved to {pkg.__file__}, not under {src}")
    return pkg


def execute(workload, op, tracer=None) -> Record:
    """Run one op (timed in CPU seconds) and check its output (untimed)."""
    start = process_time()
    try:
        with tracer.op(op.index) if tracer is not None else nullcontext():
            result = workload.run(op)
    except Exception:  # an op that raises is a failed op, not a crashed run
        return Record(op, process_time() - start, False, error=traceback.format_exc())
    seconds = process_time() - start
    try:
        checked = workload.check(op, result)
    except Malformed as err:
        return Record(op, seconds, False, error=f"malformed output: {err}")
    return Record(op, seconds, True, checked.hit, checked.snr_db)


def set_up(name: str, workdir: Path, repeats: int):
    """Import, build the workload, run the warm-up ops; median of ``repeats``."""
    times, warm = [], []
    for _ in range(repeats):
        start = process_time()
        pkg = import_fresh(ROOT / "src")
        workload = WORKLOADS[name](pkg, workdir)
        warm.extend(execute(workload, op) for op in workload.warmup_ops())
        times.append(process_time() - start)
    return workload, statistics.median(times), times, warm


def timed_loop(workload, seed: int, seconds: float):
    """Closed loop over the seed's op list until ``seconds`` of wall time pass.

    Returns the records and the share of the loop's wall time this process
    was on a CPU; below 1 it was waiting for I/O or preempted by the host.
    """
    records = []
    wall, cpu = perf_counter(), process_time()
    deadline = wall + seconds
    while perf_counter() < deadline:
        records.append(execute(workload, workload.op(seed, len(records))))
    return records, (process_time() - cpu) / (perf_counter() - wall)


def ensemble_snr_db(values) -> float:
    """``SnrReport.snr_out_measured_db`` over pooled one-trial values."""
    if not values:
        return math.nan
    return 10.0 * math.log10(len(values) / sum(10.0 ** (-d / 10.0) for d in values))


def cell_breakdown(records, reference) -> dict:
    cells = {}
    for rec in records:
        cells.setdefault(rec.op.cell, []).append(rec)
    out = {}
    for cell, recs in cells.items():
        ref = [r for r in reference if r.op.cell == cell]
        out[cell] = {
            "ops": len(recs),
            "op_ms_p50": 1000.0 * percentile([r.seconds for r in recs], 50),
            "recovery_hit_frac": sum(r.hit for r in recs) / len(recs),
            "reference_ops": len(ref),
            "reference_hit_frac": sum(r.hit for r in ref) / len(ref) if ref else None,
        }
    return out


def cell_median_ms(cells: dict) -> float:
    """Median over cells of each cell's median op time, every cell weighted alike.

    Op times differ by more than tenfold between a workload's cells, so the
    pooled median can fall in a gap between two cells' clusters, where a
    few ops more on one side move it by a fifth.  The median of the cells'
    medians moves only as the cells' own times move.
    """
    return statistics.median(row["op_ms_p50"] for row in cells.values())


def environment(seed: int) -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        deps = {}
    lib = {k: f"{v.get('name')} {v.get('version')}" for k, v in deps.items()
           if k in ("blas", "lapack")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": lib.get("blas"),
        "lapack": lib.get("lapack"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def metric_block(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def run_untraced(name, seed, seconds, workdir):
    workload, setup_s, setup_times, warm = set_up(name, workdir, SETUP_REPEATS)
    records, cpu_share = timed_loop(workload, seed, seconds)
    reference = [execute(workload, op) for op in workload.reference_ops()]
    op_seconds = [r.seconds for r in records]
    cells = cell_breakdown(records, reference)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(records) / sum(op_seconds),
        "op_ms_p50": cell_median_ms(cells),
        "op_ms_p90": 1000.0 * percentile(op_seconds, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "recovery_hit_frac": sum(r.hit for r in reference) / len(reference),
    }
    checked = warm + records + reference
    failed = sum(not r.ok for r in checked)
    detail = {
        "setup_s_samples": setup_times,
        "ops": {"warmup": len(warm), "timed": len(records), "reference": len(reference)},
        "failed_frac": failed / len(checked),
        "cpu_share_of_wall": cpu_share,
        "pooled_op_ms_p50": 1000.0 * percentile(op_seconds, 50),
        "cells": cells,
    }
    if name == "snr_trials":
        pooled = {cell: [] for cell in {r.op.cell for r in reference}}
        for r in reference:
            if r.hit:
                pooled[r.op.cell].append(r.snr_db)
        detail["snr_out_db_mean"] = statistics.fmean(map(ensemble_snr_db, pooled.values()))
    return metric_block(values, END_TO_END), checked, detail


def run_traced(name, seed, workdir, spans_path):
    workload, _, _, warm = set_up(name, workdir, 1)
    ops = workload.ops(seed, workload.trace_ops)
    plain = [execute(workload, op) for op in ops]
    # raw spans of one op per cell are enough to read where an op's time goes
    tracer = Tracer("pftcs", keep_ops=len(workload.cells))
    with tracer.installed():
        traced = [execute(workload, op, tracer) for op in ops]
    tracer.write_spans(spans_path)
    values, absent = {}, []
    for metric, _ in PER_LAYER:
        if metric == "trace.overhead_pct":
            continue
        value = tracer.metric(metric, len(ops))
        if value is None:
            absent.append(metric)
            value = 0.0
        values[metric] = value
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
    values["trace.overhead_pct"] = 100.0 * overhead
    checked = warm + plain + traced
    detail = {
        "ops": {"warmup": len(warm), "untraced": len(plain), "traced": len(traced)},
        "absent": absent,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_op_ms_p50": 1000.0 * percentile([r.seconds for r in plain], 50),
        "traced_op_ms_p50": 1000.0 * percentile([r.seconds for r in traced], 50),
        "cells": cell_breakdown(traced, []),
    }
    return metric_block(values, PER_LAYER), checked, detail


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=RESULTS))
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        if trace:
            metrics, checked, detail = run_traced(name, seed, workdir,
                                                  RESULTS / f"{stem}-spans.jsonl")
        else:
            metrics, checked, detail = run_untraced(name, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [r for r in checked if not r.ok]
    detail.update({
        "workload": name, "trace": trace, "seconds": seconds,
        "environment": environment(seed), "metrics": metrics,
        "errors": [{"op": r.op.index, "cell": r.op.cell, "error": r.error}
                   for r in failures[:20]],
    })
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")

    print(f"workload {name}, seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{detail['ops']}")
    for metric, block in metrics.items():
        print(f"  {metric:42s} {block['value']:.6g} {block['unit']}")
    if "failed_frac" in detail:
        print(f"  {'failed_frac':42s} {detail['failed_frac']:.6g} frac")
    if "snr_out_db_mean" in detail:
        print(f"  {'snr_out_db_mean':42s} {detail['snr_out_db_mean']:.6g} dB")
    for metric in detail.get("absent", []):
        print(f"  absent: {metric}")
    for cell, row in detail["cells"].items():
        print(f"  cell {cell:18s} ops {row['ops']:5d}  p50 {row['op_ms_p50']:9.3f} ms  "
              f"hit {row['recovery_hit_frac']:.3f}")
    for failure in detail["errors"]:
        print(f"  FAILED op {failure['op']} ({failure['cell']}): "
              f"{failure['error'].strip().splitlines()[-1]}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": len(checked),
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        # each workload in its own process, so peak RSS and imports stay separate
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    try:
        import_fresh(ROOT / "src")
    except ImportError as err:
        print(f"cannot import pftcs from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
