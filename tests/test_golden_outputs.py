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
"""

import hashlib
import json

import pytest

from bayesqvc.cli import main

TIMING_FIELDS = ("wallclock_seconds", "output_seconds", "workers_used")

GOLDEN = {
    "bqrvcss":
        "460f35cfe00212891434cbb757f8a80d48c12c3bce0bab9351a5dc78c747dba8",
    "bvc":
        "799ddf2a197ddeb28fa1ae6f387c6adb1d761b3a47ed044135acf8ebb7a20850",
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
