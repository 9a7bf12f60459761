"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 bench/spread.py --workload paper_bqrvcss --seeds 1 2 3 4 5

Spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the rule
the bounds in BENCHMARK.json are checked against.  Each run's JSON line is
appended to ``.bench_out/spread.jsonl`` for later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
LOG = ROOT / ".bench_out" / "spread.jsonl"
# Unnormalized figures each run also records, shown next to the gated ones.
RAW = ("wall_s", "sweep_ms", "reference_s")


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    LOG.parent.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        argv = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
        elapsed = perf_counter() - start
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((ROOT / ".bench_out" / f"{args.workload}-seed{seed}-trace0"
                             / "result.json").read_text())["metrics"]
        raw = {key: record[key] for key in RAW}
        with open(LOG, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result,
                                 "raw": raw}) + "\n")
        print(f"seed {seed} ({elapsed:.1f} s): correct={result['correct']} "
              f"failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        for key, value in raw.items():
            values.setdefault(key, []).append(value)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for key, vals in values.items():
        line = f"{key}: median {statistics.median(vals):.6g}"
        if len(vals) >= 2:
            line += f" spread {spread(vals):.4f}"
        print(f"{line} bound {bounds.get(key, '-')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
