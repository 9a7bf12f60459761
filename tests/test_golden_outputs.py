"""Golden outputs: the files a CLI fit, its diagnosis and its evaluation write, pinned by SHA-256.

A small ``bqrvcss`` fit and a small ``bvc`` fit run through ``fit``,
``diagnose`` and ``evaluate``.  The digest covers ``curves.csv``,
``psrf.json``, ``fit_summary.json`` without its timing and process-count
fields (``wallclock_seconds``, ``output_seconds``, ``workers_used``) and
``metrics.json``.  It pins the summaries the draws go through: the curve
bands and their quantile arithmetic, the scalar intervals, the selection
rule, the PSRF report and the scores against the truth.  A
change that claims to keep every output byte must leave this file untouched
and passing.  Like the golden draws, the hashes were taken with numpy 2.4.6
and OpenBLAS 0.3.31 (Python 3.11, x86-64).

Both hashes changed when ``fit_summary.json`` began to record the data's
``data_checksum``.  The bqrvcss hash moved through that key alone: without
it, the digest is the one before.  The bvc hash moved through its draws too,
when the joint draw began to set the residual from its solve.

The bqrvcss hash moved again, through its draws, when the alpha_0 and beta
draws began to read the Cholesky factor of their precision
(``tests/test_golden_draws.py`` says why).  The bvc hash stayed.

Both hashes changed when the test began to run ``evaluate`` against the
simulation's ``truth.json`` and to hash the ``metrics.json`` it writes.  The
bvc hash moved through that file alone: without it, the digest is the one
before.  The bqrvcss hash moved through its draws too, when theta began to
be drawn with u integrated out (``tests/test_golden_draws.py`` says why).

Both hashes moved through their draws, by rounding only, when the spline
predictor became one (n, p+1) @ (p+1, d) product and theta's rate one dot
product (``tests/test_golden_draws.py`` says which hashes each moved).

The bvc hash moved through its draws when the chain start began to set
sigma_sq to the mean of its conditional given the all-null coefficients
(``tests/test_golden_draws.py`` says why).  The bqrvcss sweep draws theta
before it reads it, so its hash stayed.
"""

import hashlib
import json

import pytest

from bayesqvc.cli import main

TIMING_FIELDS = ("wallclock_seconds", "output_seconds", "workers_used")

GOLDEN = {
    "bqrvcss":
        "f4efdc3a3108d61ffb368832eb98c555e1de241731b11f57ffb4ea458b5ff903",
    "bvc":
        "6804ce47b08d69cd1a73bf08fe86ba704dca2827fefe7863f5a87ba9198ffc26",
}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--n", "40", "--p", "5", "--seed", "4", "--tau", "0.5",
                 "--out", str(out)]) == 0
    return out


def outputs_digest(fit_dir) -> str:
    """SHA-256 over the fit's curves, PSRF report, timing-free summary and metrics, in a fixed
    order."""
    summary = json.loads((fit_dir / "fit_summary.json").read_text())
    for name in TIMING_FIELDS:
        del summary[name]
    parts = [("curves.csv", (fit_dir / "curves.csv").read_bytes()),
             ("psrf.json", (fit_dir / "psrf.json").read_bytes()),
             ("fit_summary.json", json.dumps(summary, sort_keys=True).encode()),
             ("metrics.json", (fit_dir / "metrics.json").read_bytes())]
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
    assert main(["evaluate", "--fit", str(out), "--truth", str(sim_dir / "truth.json"),
                 "--out", str(out / "metrics.json")]) == 0
    assert outputs_digest(out) == GOLDEN[method]
