"""The benchmark's output checks read what the CLI writes.

``bench/run.py`` checks every fit of a run through ``check_fit``, which
reads ``fit_summary.json``, ``samples.bin``, ``curves.csv`` and
``metrics.json`` with the package's readers.  A change to those readers or
files that the benchmark cannot follow would fail every benchmark fit; this
catches it here.  Likewise the ``study_mixed`` workload runs the study config
that ``bench/workloads.py`` writes.  This reads ``bench/`` and changes nothing
there.
"""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import bayesqvc
from bayesqvc import cli, io
from bayesqvc.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_run(monkeypatch):
    # run.py imports its sibling modules by name and sets BLAS thread variables.
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_study_parses_into_the_same_cells(tmp_path):
    workloads = _load_workloads()
    workloads.prepare(cli, io, "study_mixed", 3, tmp_path)
    study = io.StudyConfig.from_dict(io.load_json(tmp_path / "study.json"))
    labels = ["gene_iid_normal_tau0.5", "snp_het_laplace_tau0.25"]
    methods = ["bqrvcss", "bqrvc", "bvcss", "bvc"]
    cells = study.cells()
    assert [(label, method) for label, _, method in cells] == [
        (label, method) for label in labels for method in methods]
    assert len(cells) == workloads.expected_fits("study_mixed")
    spec, config = study.replicate(cells[-1][1], "bvc", 0)
    assert spec.seed == config.seed == 3 * workloads.STUDY["replicates"]
    assert config.iterations == workloads.STUDY["mcmc"]["iterations"]


def test_check_fit_accepts_a_cli_fit_and_evaluation(tmp_path, monkeypatch):
    run = _load_run(monkeypatch)
    sim, fit = tmp_path / "sim", tmp_path / "fit"
    assert main(["simulate", "--n", "40", "--p", "4", "--seed", "5", "--out", str(sim)]) == 0
    assert main(["fit", "--data", str(sim / "dataset.csv"), "--method", "bqrvcss",
                 "--chains", "2", "--iterations", "60", "--burn-in", "20", "--seed", "5",
                 "--workers", "1", "--out", str(fit)]) == 0
    assert main(["evaluate", "--fit", str(fit), "--truth", str(sim / "truth.json"),
                 "--out", str(fit / "metrics.json")]) == 0
    facts = run.check_fit(bayesqvc, fit, None, None, with_ess=False)
    assert facts["problems"] == []
    assert facts["method"] == "bqrvcss"
    assert "timse" in facts
