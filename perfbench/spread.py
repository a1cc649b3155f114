"""Run the untraced benchmark over a range of seeds and report each end-to-end
metric's median, quartiles and spread, the distance between the quartiles as
a share of the median.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 11-20 --workloads algebra --record

Runs go one at a time, seed by seed, the workloads interleaved within each
seed, so that a slow phase of the host falls on every workload alike.
``--record`` stores the figures in ``perfbench/baseline.json`` under the label
``seeds <first>-<last>``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values)}


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", action="store_true",
                        help="store the figures in perfbench/baseline.json")
    args = parser.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in names}
    for seed in args.seeds:
        for w in names:
            result = run_once(w, seed, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed} failed its checks")
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{m} {result['metrics'][m]['value']:.6g}" for m in bounds), flush=True)

    label = f"seeds {args.seeds[0]}-{args.seeds[-1]}"
    summary = {w: {m: summarise(v) for m, v in per.items()} for w, per in values.items()}
    for w in names:
        print(w)
        for m, s in summary[w].items():
            print(f"  {m:12s} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  f"  ({s['spread'] / bounds[m]:.2f} of its bound)")
    if args.record:
        path = BENCH / "baseline.json"
        with open(path) as fh:
            baseline = json.load(fh)
        for w in names:
            per = baseline["workloads"].setdefault(w, {}).setdefault("end_to_end", {})
            for m, s in summary[w].items():
                per.setdefault(m, {})[label] = s
        with open(path, "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
