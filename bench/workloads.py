"""Workload definitions: the inputs made from a seed and the CLI commands timed on them.

Every run prepares ``DATASETS_PER_RUN`` input sets, ``SETS_PER_PROCESS`` in
each of ``SETUP_PROCESSES`` set-up processes.  A unit's work varies with its
dataset by up to 15%, so a run spreads its units over many datasets rather
than repeating a few.  Input set k of run seed s uses the dataset seed
``s * DATASETS_PER_RUN + k``; the chains of a fit use the same seed, which
the simulator keeps on a stream disjoint from every chain's.
"""

from __future__ import annotations

from pathlib import Path

SETUP_PROCESSES = 3
SETS_PER_PROCESS = 4
DATASETS_PER_RUN = SETUP_PROCESSES * SETS_PER_PROCESS

# Iteration counts are scaled down from full-length fits so that one run
# holds many short timed units; see bench/NOTES.md.
PAPER_FIT = {"chains": 2, "iterations": 250, "burn_in": 100}
STUDY = {
    "replicates": 1,
    "methods": ["bqrvcss", "bqrvc", "bvcss", "bvc"],
    "scenarios": [
        {"n": 200, "p": 100, "covariate_kind": "gene", "error_kind": "normal",
         "heteroscedastic": False, "tau": 0.5},
        {"n": 200, "p": 100, "covariate_kind": "snp", "error_kind": "laplace",
         "heteroscedastic": True, "tau": 0.25},
    ],
    "mcmc": {"chains": 1, "iterations": 80, "burn_in": 40},
    "save_samples": True,
}
TRUE_SUPPORT = [1, 2, 3]

WHY = {
    "paper_bqrvcss": "paper shape n=200 p=100 d=5 in the sparse regime: the per-block "
                     "Python loop of the alpha stage dominates a 2-chain fit",
    "study_mixed": "replicate study over 2 scenarios and all four methods: the only "
                   "Gaussian-engine run, non-spike baselines, per-fit fixed costs",
}


def dataset_seed(seed: int, k: int) -> int:
    return seed * DATASETS_PER_RUN + k


def prepare(cli, io, name: str, seed: int, out: Path) -> None:
    """Write the inputs of one input set into ``out`` (runs in the set-up process)."""
    out.mkdir(parents=True, exist_ok=True)
    if name == "study_mixed":
        io.dump_json(out / "study.json", {**STUDY, "base_seed": seed * STUDY["replicates"]})
        return
    code = cli.main(["simulate", "--n", "200", "--p", "100", "--covariate-kind", "gene",
                     "--error", "normal", "--tau", "0.5", "--seed", str(seed), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"simulate exited with {code}")


def commands(name: str, seed: int, data: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The timed CLI invocations of one unit, as (label, argv) pairs."""
    if name == "study_mixed":
        return [("replicate-study", ["replicate-study", "--config", str(data / "study.json"),
                                     "--out", str(out)])]
    return [
        ("fit", ["fit", "--data", str(data / "dataset.csv"), "--method", "bqrvcss",
                 "--tau", "0.5", "--chains", str(PAPER_FIT["chains"]),
                 "--iterations", str(PAPER_FIT["iterations"]),
                 "--burn-in", str(PAPER_FIT["burn_in"]), "--seed", str(seed), "--out", str(out)]),
        ("diagnose", ["diagnose", "--fit", str(out)]),
        ("evaluate", ["evaluate", "--fit", str(out), "--truth", str(data / "truth.json"),
                      "--out", str(out / "metrics.json")]),
    ]


def fit_dirs(name: str, out: Path) -> list[Path]:
    """Directories holding one fit's outputs each, in a fixed order."""
    if name != "study_mixed":
        return [out]
    return sorted(path.parent for path in out.glob("*/*/rep_*/fit_summary.json"))


def expected_fits(name: str) -> int:
    if name != "study_mixed":
        return 1
    return len(STUDY["scenarios"]) * len(STUDY["methods"]) * STUDY["replicates"]
