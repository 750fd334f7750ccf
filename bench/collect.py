"""Run bench/run.py over several seeds and summarise each metric's spread.

Run from the repository root::

    python3 bench/collect.py --workloads snr_trials pt_trials examples \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0 --out bench/results/summary.json

For every workload and metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread ``(q3 - q1) / median``
next to the metric's bound from ``BENCHMARK.json``.  Runs are sequential,
one process at a time, so they do not compete for the cores.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {}
    for workload in args.workloads:
        results = [run(workload, seed, spec["run_seconds"], args.trace) for seed in args.seeds]
        metrics = {}
        for name in results[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bounds.get(name)
            metrics[name] = stats
            if stats["bound"] is not None:
                spread = stats["spread"]
                mark = "ok" if spread is not None and spread < stats["bound"] / 3 else "WIDE"
                print(f"{workload:11s} {name:20s} median {stats['median']:12.6g} "
                      f"{stats['unit']:5s} spread {spread:.4f} bound {stats['bound']} {mark}")
        summary[workload] = {"seeds": args.seeds, "attempted": [r["attempted"] for r in results],
                             "failed": [r["failed"] for r in results], "metrics": metrics}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
