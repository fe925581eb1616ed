"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/repeat.py --workloads bn_structure --seeds 1-5

For each workload, runs ``run.py`` once per seed, one run at a time, and
reports each end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median), then one traced run on the
first seed for the per-layer breakdown and the tracing overhead.  The
summary also names a held-out seed that its runs do not use, kept for
checking later claims.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))

from spans import TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
HELD_OUT_SEED = 1009


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace) -> dict:
    argv = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = seed_range(args.seeds)
    summary = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "seeds": seeds,
        "held_out_seed": HELD_OUT_SEED,
        "layer_targets": TARGETS,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, False) for seed in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "end_to_end": {},
        }
        for name in results[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            print(
                f"{workload} {name} median {stats['median']:.6g} {stats['unit']} "
                f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                f"bound {BOUNDS[name]}",
                flush=True,
            )
        traced = run_once(workload, seeds[0], args.seconds, True)
        entry["per_layer"] = {
            name: metric["value"] for name, metric in traced["metrics"].items()
        }
        print(f"{workload} correct {entry['correct']} failed {entry['failed']} "
              f"of {entry['attempted']}", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
