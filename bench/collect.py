"""Repeat bench/run.py over seeds and summarize each metric's spread.

    python3 bench/collect.py --workloads scenarios polytopes pointwise \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 20] [--trace 0] [--out FILE]

For every workload and metric it prints the median, the quartiles
(statistics.quantiles(n=4)) and the spread, (q3 - q1) / median, next to a
third of the metric's bound from BENCHMARK.json.  --out writes the same
summary, with every run's raw values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """The result object of one run, and its environment header line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    header = next(line for line in lines if line.startswith("# momentlab bench:"))
    return json.loads(lines[-1]), header


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, seconds, args.trace) for seed in args.seeds]
        runs = [r for r, _ in results]
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                          "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                          "values": values}
            bound = bounds.get(name)
            limit = f"{bound / 3:.3f}" if bound else "-"
            print(f"{workload:10s} {name:28s} median {med:12.5g} {rows[name]['unit']:6s} "
                  f"spread {rows[name]['spread']:.3f} (bound/3 {limit})")
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:10s} correct {all(r['correct'] for r in runs)} failed {failed} "
              f"attempted {sum(r['attempted'] for r in runs)}")
        summary[workload] = {"env": results[0][1], "seeds": args.seeds, "seconds": seconds,
                             "trace": args.trace, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
