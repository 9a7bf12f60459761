"""Spread of the quality figures across chain seeds on one paper_bqrvcss dataset.

    python3 bench/chain_seeds.py --dataset-seed 3 --chain-seeds 1 2 3 4

Simulates the dataset once, then runs the workload's fit, diagnose and
evaluate commands with each chain seed and prints theta ESS, the smallest
curve ESS, their rates per sampler second and TIMSE, then each figure's
range.  A change to the draw stream moves these figures by about this much
through chance alone.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import run
import workloads

NAME = "paper_bqrvcss"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset-seed", type=int, required=True)
    parser.add_argument("--chain-seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import bayesqvc.basis
    import bayesqvc.cli
    import bayesqvc.io

    work = run.ROOT / ".bench_out" / f"chain-seeds-{args.dataset_seed}"
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    workloads.prepare(bayesqvc.cli, bayesqvc.io, NAME, args.dataset_seed, data)
    rows = []
    for seed in args.chain_seeds:
        out = work / f"chain{seed}"
        unit = run.run_unit(bayesqvc.cli, NAME, seed, data, out, work / f"chain{seed}.log", None)
        facts = run.check_fit(bayesqvc, out, workloads.TRUE_SUPPORT, None)
        if unit["failed_commands"] or facts["problems"]:
            print(f"chain seed {seed}: FAILED {unit['failed_commands']} {facts['problems']}")
            continue
        row = {"theta_ess": facts["scale_ess"], "curve_ess": facts["curve_ess"],
               "ess_per_s": facts["scale_ess"] / facts["sampler_s"],
               "curve_ess_per_s": facts["curve_ess"] / facts["sampler_s"],
               "timse": facts["timse"]}
        rows.append(row)
        print(f"chain seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()))
    for key in rows[0] if rows else ():
        values = [r[key] for r in rows]
        print(f"{key}: {min(values):.4g} to {max(values):.4g} over {len(values)} chain seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
