"""Scheduling invariance: the process count changes no output but the timing fields.

The tests pass ``workers: 2`` explicitly, so the process pool runs even on a
single-CPU machine.
"""

import json
import multiprocessing
import time

import pytest

from bayesqvc import cli
from bayesqvc.cli import main
from bayesqvc.io import RunConfig
from bayesqvc.samplers.variants import resolve_workers, usable_cpus

# Fields that record how a run was scheduled or how long it took.
TIMING_FIELDS = {"wallclock_seconds", "output_seconds", "workers_used"}
BYTE_IDENTICAL = {"samples.bin", "samples.json", "curves.csv", "truth.json",
                  "aggregate.csv", "aggregate.json"}

STUDY = {
    "scenarios": [
        {"covariate_kind": "gene", "error_kind": "normal", "tau": 0.5, "n": 40, "p": 4},
        {"covariate_kind": "snp", "error_kind": "laplace", "tau": 0.25,
         "heteroscedastic": True, "n": 40, "p": 4},
    ],
    "methods": ["bqrvcss", "bvc"],
    "replicates": 2,
    "base_seed": 11,
    "mcmc": {"chains": 2, "iterations": 60, "burn_in": 20},
    "save_samples": True,
}


def run_study(tmp_path, name, capsys, **extra):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({**STUDY, **extra}))
    out = tmp_path / name
    assert main(["replicate-study", "--config", str(cfg), "--out", str(out)]) == 0
    return out, capsys.readouterr().out.splitlines()


def without_timing(path):
    return {k: v for k, v in json.loads(path.read_text()).items() if k not in TIMING_FIELDS}


def test_resolve_workers():
    assert resolve_workers(None, 100) == usable_cpus()
    assert resolve_workers(None, 1) == 1
    assert resolve_workers(3, 2) == 2
    assert resolve_workers(1, 8) == 1
    assert resolve_workers(2, 0) == 1
    for bad in (0, -1, 1.5, True, "2"):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(bad, 4)
    assert RunConfig().workers is None
    with pytest.raises(ValueError, match="workers"):
        RunConfig(workers=0)


def test_study_outputs_do_not_depend_on_workers(tmp_path, capsys):
    serial, serial_lines = run_study(tmp_path, "serial", capsys, workers=1)
    pooled, pooled_lines = run_study(tmp_path, "pooled", capsys, workers=2)
    assert serial_lines[:-1] == pooled_lines[:-1]  # the last line names the output dir
    assert serial_lines[:4] == [
        f"gene_iid_normal_tau0.5/{method} replicate {rep}/2 done"
        for method in ("bqrvcss", "bvc") for rep in (1, 2)
    ]
    files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(pooled) for p in pooled.rglob("*") if p.is_file())
    assert len([f for f in files if f.name == "manifest.json"]) == 8
    compared = set()
    for rel in files:
        a, b = serial / rel, pooled / rel
        if rel.name in BYTE_IDENTICAL:
            assert a.read_bytes() == b.read_bytes(), rel
        else:
            assert without_timing(a) == without_timing(b), rel
        compared.add(rel.name)
    assert compared == BYTE_IDENTICAL | {"manifest.json", "fit_summary.json", "metrics.json"}
    rep = "snp_het_laplace_tau0.25/bvc/rep_0001"
    assert json.loads((serial / rep / "manifest.json").read_text())["workers_used"] == 1
    assert json.loads((pooled / rep / "manifest.json").read_text())["workers_used"] == 2
    # Chains run one after another inside a study task, whatever the study's count.
    assert json.loads((pooled / rep / "fit_summary.json").read_text())["workers_used"] == 1
    assert json.loads((pooled / rep / "samples.json").read_text())["config"]["workers"] == 1


def test_fit_default_workers_match_in_process(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--n", "40", "--p", "4", "--seed", "5", "--out", str(sim)]) == 0
    base = ["fit", "--data", str(sim / "dataset.csv"), "--method", "bqrvcss", "--tau", "0.5",
            "--chains", "3", "--iterations", "80", "--burn-in", "30", "--seed", "9"]
    auto, one = tmp_path / "auto", tmp_path / "one"
    assert main([*base, "--out", str(auto)]) == 0
    assert main([*base, "--workers", "1", "--out", str(one)]) == 0
    assert (auto / "samples.bin").read_bytes() == (one / "samples.bin").read_bytes()
    assert (auto / "curves.csv").read_bytes() == (one / "curves.csv").read_bytes()
    summary = json.loads((auto / "fit_summary.json").read_text())
    assert summary["workers_used"] == min(usable_cpus(), 3)
    assert summary["config"]["workers"] is None
    assert json.loads((one / "fit_summary.json").read_text())["workers_used"] == 1


def failing_replicate(study, scenario, method, rep, rep_dir):
    """Stands in for ``cli.run_replicate``: replicate 0 fails, the others take a while."""
    if rep == 0:
        raise ValueError("replicate 0 failed on purpose")
    time.sleep(0.5)
    rep_dir.mkdir(parents=True)
    return {}


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="workers see the patched function only when forked")
def test_study_task_error_in_worker_cancels_pending(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_replicate", failing_replicate)
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({**STUDY, "scenarios": STUDY["scenarios"][:1],
                               "methods": ["bqrvcss"], "replicates": 10, "workers": 2}))
    out = tmp_path / "out"
    assert main(["replicate-study", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: replicate 0 failed on purpose" in captured.err
    assert "done" not in captured.out
    assert not (out / "aggregate.csv").exists()
    # Of the nine replicates that would sleep, those already handed to a
    # worker finish and the rest are cancelled.
    assert len(list(out.glob("*/*/rep_*/manifest.json"))) < 9


def test_study_resumes_only_missing_replicates(tmp_path, capsys):
    first, _ = run_study(tmp_path, "first", capsys, workers=1)
    kept = first / "gene_iid_normal_tau0.5" / "bvc" / "rep_0001"
    for manifest in first.glob("*/*/rep_*/manifest.json"):
        if manifest.parent != kept:
            manifest.unlink()
    aggregate = (first / "aggregate.csv").read_bytes()
    (first / "aggregate.csv").unlink()
    kept_mtime = (kept / "metrics.json").stat().st_mtime_ns
    cfg = tmp_path / "first.json"
    cfg.write_text(json.dumps({**STUDY, "workers": 2}))
    assert main(["replicate-study", "--config", str(cfg), "--out", str(first)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8  # seven replicates and the aggregate
    assert "gene_iid_normal_tau0.5/bvc replicate 2/2 done" not in lines
    assert (kept / "metrics.json").stat().st_mtime_ns == kept_mtime
    assert len(list(first.glob("*/*/rep_*/manifest.json"))) == 8
    assert (first / "aggregate.csv").read_bytes() == aggregate
