"""Golden outputs: the files a CLI fit and its diagnosis write, pinned by SHA-256.

A small ``bqrvcss`` fit and a small ``bvc`` fit run through ``fit`` and
``diagnose``.  The digest covers ``curves.csv``, ``psrf.json`` and
``fit_summary.json`` without its timing and process-count fields
(``wallclock_seconds``, ``output_seconds``, ``workers_used``).  It pins the
summaries the draws go through: the curve bands and their quantile
arithmetic, the scalar intervals, the selection rule and the PSRF report.  A
change that claims to keep every output byte must leave this file untouched
and passing.  Like the golden draws, the hashes were taken with numpy 2.4.6
and OpenBLAS 0.3.31 (Python 3.11, x86-64).

Both hashes changed when ``fit_summary.json`` began to record the data's
``data_checksum``.  The bqrvcss hash moved through that key alone: without
it, the digest is the one before.  The bvc hash moved through its draws too,
when the joint draw began to set the residual from its solve.
"""

import hashlib
import json

import pytest

from bayesqvc.cli import main

TIMING_FIELDS = ("wallclock_seconds", "output_seconds", "workers_used")

GOLDEN = {
    "bqrvcss":
        "893514b647e8c3851d33e79624cd7944076f0a14316c8a4d1482b67e3f7514a1",
    "bvc":
        "fb89101c693fd3e00b13c2b873e7dabc305a3a1fba3cd31941de0624ce043a9a",
}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--n", "40", "--p", "5", "--seed", "4", "--tau", "0.5",
                 "--out", str(out)]) == 0
    return out


def outputs_digest(fit_dir) -> str:
    """SHA-256 over the fit's curves, PSRF report and timing-free summary, in a fixed order."""
    summary = json.loads((fit_dir / "fit_summary.json").read_text())
    for name in TIMING_FIELDS:
        del summary[name]
    parts = [("curves.csv", (fit_dir / "curves.csv").read_bytes()),
             ("psrf.json", (fit_dir / "psrf.json").read_bytes()),
             ("fit_summary.json", json.dumps(summary, sort_keys=True).encode())]
    h = hashlib.sha256()
    for name, raw in parts:
        h.update(f"{name}:{len(raw)}:".encode())
        h.update(raw)
    return h.hexdigest()


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_golden_outputs(sim_dir, tmp_path, method):
    out = tmp_path / method
    assert main(["fit", "--data", str(sim_dir / "dataset.csv"), "--method", method,
                 "--degree", "2", "--interior-knots", "1", "--iterations", "90",
                 "--burn-in", "30", "--chains", "2", "--seed", "23", "--workers", "1",
                 "--out", str(out)]) == 0
    assert main(["diagnose", "--fit", str(out), "--checkpoints", "10", "30"]) == 0
    assert outputs_digest(out) == GOLDEN[method]
