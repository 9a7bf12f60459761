"""Set-up process of benchmark input sets: import bayesqvc and write their inputs.

Run by bench/run.py as a fresh interpreter, so its wall time covers start-up,
import and input generation, as a user's first command would:

    python3 bench/prepare.py --workload paper_bqrvcss --seeds 36 37 --out DIR [--spans FILE]

The input set of dataset seed s is written to ``DIR/s``.

With ``--spans`` the simulator and dataset writer are traced and the spans
are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    sys.path[:0] = [str(SRC), str(BENCH)]
    from bayesqvc import cli, io

    import workloads
    from tracer import Tracer

    tracer = Tracer()
    if args.spans:
        tracer.wrap(cli, "simulate_dataset", "simulate.simulate_dataset")
        tracer.wrap(cli, "write_dataset_csv", "io.write_dataset_csv")
    for seed in args.seeds:
        workloads.prepare(cli, io, args.workload, seed, Path(args.out) / str(seed))
    if args.spans:
        Path(args.spans).write_text(json.dumps(tracer.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
