"""File formats and the command-line workflow."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bayesqvc
from bayesqvc import Dataset, RngHandle
from bayesqvc.cli import _config_from_args, build_parser, main
from bayesqvc.io import (
    RunConfig,
    load_samples,
    read_curves_csv,
    read_dataset_csv,
    save_samples,
    write_curves_csv,
    write_dataset_csv,
)
from bayesqvc.samplers import McmcOptions, fit
from bayesqvc.simulate import ScenarioSpec, simulate_dataset


def test_dataset_csv_roundtrip_bit_exact(tmp_path):
    rng = RngHandle(8, 0)
    ds = Dataset(
        y=rng.gen.standard_normal(17),
        x=rng.gen.standard_normal((17, 3)) * 1e-7,
        v=rng.gen.random(17),
        e=rng.gen.standard_normal((17, 2)) * 1e9,
    )
    path = tmp_path / "d.csv"
    write_dataset_csv(path, ds)
    back = read_dataset_csv(path)
    np.testing.assert_array_equal(ds.y, back.y)
    np.testing.assert_array_equal(ds.x, back.x)
    np.testing.assert_array_equal(ds.v, back.v)
    np.testing.assert_array_equal(ds.e, back.e)
    header = path.read_text().splitlines()[0]
    assert header == "V,E_1,E_2,X_1,X_2,X_3,Y"


@pytest.mark.parametrize("e", [None, np.empty((4, 0))], ids=["none", "empty"])
def test_dataset_without_clinical_covariates_holds_an_empty_matrix(e):
    ds = Dataset(y=np.zeros(4), x=np.zeros((4, 2)), v=np.full(4, 0.5), e=e)
    assert ds.e.shape == (4, 0)
    assert ds.q == 0


@pytest.mark.parametrize("q", [0, 2])
def test_dataset_csv_roundtrip_keeps_e(tmp_path, q):
    rng = np.random.default_rng(q)
    ds = Dataset(y=rng.normal(size=5), x=rng.normal(size=(5, 3)), v=rng.random(5),
                 e=rng.normal(size=(5, q)))
    path = tmp_path / "d.csv"
    write_dataset_csv(path, ds)
    back = read_dataset_csv(path)
    assert back.e.shape == (5, q) and back.q == q
    np.testing.assert_array_equal(back.e, ds.e)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["y", "x", "v", "e"])
def test_dataset_rejects_non_finite(name, bad):
    rng = np.random.default_rng(4)
    fields = {"y": rng.normal(size=5), "x": rng.normal(size=(5, 2)),
              "v": rng.random(5), "e": rng.normal(size=(5, 1))}
    fields[name].flat[2] = bad
    with pytest.raises(ValueError, match=f"^{name} contains"):
        Dataset(**fields)


def test_cli_fit_rejects_nan_in_csv(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("V,X_1,Y\n0.1,1.0,2.0\n0.5,nan,1.0\n0.9,0.3,0.5\n")
    code = main(["fit", "--data", str(path), "--method", "bqrvcss", "--iterations", "20",
                 "--burn-in", "10", "--out", str(tmp_path / "fit")])
    assert code != 0
    assert "x contains NaN" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [("V,X_1,X_2,Y\n0.1,1,2\n0.5,3,4\n", "header names 4 columns, but its rows have 3"),
     ("V,X_1,E_1,Y\n0.1,1,2,3\n0.5,3,4,5\n", "column 2 is X_1, expected E_1"),
     ("V,X_1,Y\n0.1,1,2,3\n0.5,3,4,5\n", "header names 3 columns, but its rows have 4"),
     ("V,X_1,Y\n", "no data rows")],
    ids=["short-rows", "e-after-x", "long-rows", "no-rows"],
)
def test_cli_fit_rejects_malformed_csv(tmp_path, capsys, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    out = tmp_path / "fit"
    code = main(["fit", "--data", str(path), "--method", "bqrvcss", "--iterations", "20",
                 "--burn-in", "10", "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (out / "fit_summary.json").exists()


def test_samples_roundtrip(tmp_path):
    ds, _, _ = simulate_dataset(ScenarioSpec(n=40, p=4, seed=2))
    config = RunConfig(method="bqrvcss", iterations=60, burn_in=20, chains=2, seed=5)
    samples = fit(ds, "bqrvcss", tau=0.5, opts=config.mcmc_options())
    save_samples(tmp_path, samples, config)
    back, back_config = load_samples(tmp_path)
    assert back.method == "bqrvcss"
    assert back_config.to_dict() == config.to_dict()
    assert len(back.chains) == 2
    for orig, loaded in zip(samples.chains, back.chains):
        np.testing.assert_array_equal(orig.alpha, loaded.alpha)
        np.testing.assert_array_equal(orig.inclusion, loaded.inclusion)
        for key in orig.scalars:
            np.testing.assert_array_equal(orig.scalars[key], loaded.scalars[key])


def test_curves_csv_roundtrip(tmp_path):
    from bayesqvc.inference import CurveBands

    grid = np.linspace(0, 1, 7)
    rng = np.random.default_rng(0)
    med = rng.normal(size=(3, 7))
    bands = CurveBands(grid=grid, median=med, lower=med - 1.0, upper=med + 1.0)
    path = tmp_path / "curves.csv"
    write_curves_csv(path, bands)
    g, med, low, upp = read_curves_csv(path)
    np.testing.assert_array_equal(g, grid)
    np.testing.assert_array_equal(med, bands.median)
    np.testing.assert_array_equal(low, bands.lower)
    np.testing.assert_array_equal(upp, bands.upper)


def reference_curves_text(bands):
    """The row-by-row writer: one %.17g call per value."""
    lines = ["j,grid_index,v,median,lower,upper"]
    for j in range(len(bands.median)):
        for t in range(bands.grid.size):
            fields = (bands.grid[t], bands.median[j, t], bands.lower[j, t], bands.upper[j, t])
            lines.append(f"{j},{t}," + ",".join("%.17g" % x for x in fields))
    return "\n".join(lines) + "\n"


def test_curves_csv_matches_row_reference(tmp_path):
    from bayesqvc.inference import CurveBands, all_curve_estimates

    grid = np.linspace(0, 1, 9)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, -2.5, 1 / 3, -7e-9])
    med = np.stack([special, -special])
    bands = CurveBands(grid=grid, median=med, lower=med - 1e301, upper=med + 1e301)
    ds, _, _ = simulate_dataset(ScenarioSpec(n=40, p=4, seed=6))
    samples = fit(ds, "bqrvc", tau=0.5, opts=McmcOptions(iterations=60, burn_in=20, seed=3))
    for case, case_bands in (("special", bands), ("fit", all_curve_estimates(samples))):
        path = tmp_path / f"{case}.csv"
        write_curves_csv(path, case_bands)
        assert path.read_bytes() == reference_curves_text(case_bands).encode()


def test_curves_csv_zero_blocks_match_row_reference(tmp_path):
    """All-zero blocks take the constant-row path; a signed zero or a live value does not."""
    from bayesqvc.inference import CurveBands, all_curve_estimates

    ds, _, _ = simulate_dataset(ScenarioSpec(n=60, p=12, seed=4))
    samples = fit(ds, "bqrvcss", tau=0.5, opts=McmcOptions(iterations=80, burn_in=40, seed=2))
    bands = all_curve_estimates(samples)
    zero = ~(bands.median.any(axis=1) | bands.lower.any(axis=1) | bands.upper.any(axis=1))
    assert any(zero) and not all(zero)
    grid = bands.grid
    # (band, curve, grid point) of four appended curves: in curve k < 3 band k
    # holds a -0.0, and the last curve's upper band ends in the smallest subnormal.
    extra = np.zeros((3, 4, grid.size))
    for band in range(3):
        extra[band, band, band] = -0.0
    extra[2, 3, -1] = 5e-324
    bands = CurveBands(grid, *(np.concatenate([b, e]) for b, e in zip(bands[1:], extra)))
    path = tmp_path / "curves.csv"
    write_curves_csv(path, bands)
    assert path.read_bytes() == reference_curves_text(bands).encode()
    assert "-0," in path.read_text()


def test_dataset_csv_matches_row_reference(tmp_path):
    # More rows than one formatting chunk holds, so the chunk seams are covered.
    rng = np.random.default_rng(9)
    n = 3000
    x = rng.normal(size=(n, 3))
    x[:4, 0] = [-0.0, 5e-324, 1e300, -1e300]
    ds = Dataset(y=rng.normal(size=n), x=x, v=rng.random(n), e=rng.normal(size=(n, 2)))
    path = tmp_path / "d.csv"
    write_dataset_csv(path, ds)
    body = np.column_stack([ds.v, ds.e, ds.x, ds.y])
    rows = ["V,E_1,E_2,X_1,X_2,X_3,Y"] + [",".join("%.17g" % v for v in row) for row in body]
    assert path.read_text() == "\n".join(rows) + "\n"


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(method="bqrvcss", iterations=10, burn_in=10).validate()
    with pytest.raises(ValueError):
        RunConfig(method="nope").prior_config()
    with pytest.raises(ValueError):
        RunConfig(priors={"zzz": 1.0}).prior_config()
    cfg = RunConfig(method="bvcss", priors={"s": 2.0, "prior_scale": 10.0})
    prior = cfg.prior_config()
    assert prior.s == 2.0
    np.testing.assert_allclose(prior.resolved_sigma_alpha0(3), 10.0 * np.eye(3))


def test_fit_flags_override_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"method": "bvc", "seed": 9, "thin": 2, "priors": {"c": 2.0}}))
    flags = {"method": "bqrvc", "tau": 0.3, "degree": 1, "interior_knots": 3,
             "iterations": 40, "burn_in": 10, "chains": 3, "workers": 2}
    argv = ["fit", "--data", "d.csv", "--config", str(path), "--store-latents"]
    for name, value in flags.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    config = _config_from_args(build_parser().parse_args(argv + ["--prior", "a=4"]))
    expected = RunConfig(**flags, thin=2, seed=9, store_latents=True,
                         priors={"c": 2.0, "a": 4.0})
    assert config == expected
    bare = _config_from_args(build_parser().parse_args(["fit", "--data", "d.csv"]))
    assert bare == RunConfig()


def test_cli_simulate_and_fit_load_no_scipy(tmp_path):
    # The package runs on numpy and the standard library alone: simulating a
    # normal-mixture dataset (a numerical quantile) and a spike-and-slab fit
    # (the spike decisions) must not load any scipy module.
    src = str(Path(bayesqvc.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "from bayesqvc.cli import main\n"
        "assert main(['simulate', '--n', '30', '--p', '3', '--error', 'normal_mixture',"
        " '--tau', '0.3', '--out', 'sim']) == 0\n"
        "assert main(['fit', '--data', 'sim/dataset.csv', '--method', 'bqrvcss', '--tau', '0.3',"
        " '--degree', '1', '--interior-knots', '1', '--iterations', '20', '--burn-in', '5',"
        " '--workers', '1', '--out', 'fit']) == 0\n"
        "print(json.dumps([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=os.environ | {"PYTHONPATH": src},
                         cwd=tmp_path, capture_output=True, text=True, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == []
    assert (tmp_path / "fit" / "curves.csv").exists()


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run_cli(
        "simulate", "--n", 60, "--p", 6, "--seed", 3, "--tau", 0.5, "--out", out
    )
    assert code == 0
    return out


def test_cli_simulate_outputs(sim_dir):
    rows = (sim_dir / "dataset.csv").read_text().splitlines()
    assert rows[0] == "V," + ",".join(f"X_{j}" for j in range(1, 7)) + ",Y"
    assert len(rows) == 61
    truth = json.loads((sim_dir / "truth.json").read_text())
    assert truth["support"] == [1, 2, 3]
    assert truth["scenario"]["n"] == 60


def test_cli_simulate_deterministic(tmp_path, sim_dir):
    out2 = tmp_path / "again"
    assert run_cli("simulate", "--n", 60, "--p", 6, "--seed", 3, "--tau", 0.5,
                   "--out", out2) == 0
    assert (out2 / "dataset.csv").read_bytes() == (sim_dir / "dataset.csv").read_bytes()


def test_cli_simulate_snp_levels(tmp_path):
    out = tmp_path / "snp"
    assert run_cli("simulate", "--n", 40, "--p", 4, "--covariate-kind", "snp",
                   "--seed", 1, "--out", out) == 0
    ds = read_dataset_csv(out / "dataset.csv")
    assert set(np.unique(ds.x)) <= {0.0, 1.0, 2.0}


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = run_cli(
        "fit", "--data", sim_dir / "dataset.csv", "--method", "bqrvcss",
        "--tau", 0.5, "--iterations", 400, "--burn-in", 150, "--chains", 2,
        "--seed", 11, "--out", out,
    )
    assert code == 0
    return out


def test_cli_fit_outputs(fit_dir):
    summary = json.loads((fit_dir / "fit_summary.json").read_text())
    assert summary["selection_rule"] == "mpm"
    assert len(summary["inclusion_probabilities"]) == 6
    assert summary["config"]["iterations"] == 400
    assert summary["chains"] == [0, 1]
    assert summary["wallclock_seconds"] > 0
    assert summary["output_seconds"] > 0
    assert (fit_dir / "samples.bin").exists()
    g, med, low, upp = read_curves_csv(fit_dir / "curves.csv")
    assert med.shape == (7, 200)


def test_cli_fit_deterministic_files(sim_dir, tmp_path):
    args = ["fit", "--data", sim_dir / "dataset.csv", "--method", "bqrvcss",
            "--tau", 0.5, "--iterations", 200, "--burn-in", 100, "--seed", 21]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    assert (a / "samples.bin").read_bytes() == (b / "samples.bin").read_bytes()
    assert (a / "samples.json").read_bytes() == (b / "samples.json").read_bytes()


def test_cli_fit_bqrvc_uses_ci_rule(sim_dir, tmp_path):
    out = tmp_path / "bqrvc"
    assert run_cli("fit", "--data", sim_dir / "dataset.csv", "--method", "bqrvc",
                   "--tau", 0.5, "--iterations", 200, "--burn-in", 100,
                   "--seed", 2, "--out", out) == 0
    summary = json.loads((out / "fit_summary.json").read_text())
    assert summary["selection_rule"] == "ci95"
    assert "inclusion_probabilities" not in summary


def test_cli_evaluate_roundtrip(sim_dir, fit_dir, tmp_path):
    out = tmp_path / "metrics.json"
    assert run_cli("evaluate", "--fit", fit_dir, "--truth", sim_dir / "truth.json",
                   "--out", out) == 0
    m = json.loads(out.read_text())
    assert m["classification"] in "COU"
    assert len(m["imse"]) == 7
    assert m["timse"] == pytest.approx(sum(m["imse"]))
    assert set(m["coverage"]) == {"0", "1", "2", "3"}
    # TIMSE is regenerable from the persisted curves alone
    from bayesqvc.metrics import imse as imse_fn
    from bayesqvc.simulate import TrueCurves

    g, med, low, upp = read_curves_csv(fit_dir / "curves.csv")
    curves = TrueCurves()
    manual = sum(imse_fn(med[j], curves.evaluate(j, g)) for j in range(7))
    assert m["timse"] == pytest.approx(manual)


def test_cli_evaluate_rejects_unknown_truth_key(sim_dir, fit_dir, tmp_path, capsys):
    payload = json.loads((sim_dir / "truth.json").read_text())
    payload["scenario"]["eror_kind"] = "normal"
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(payload))
    assert run_cli("evaluate", "--fit", fit_dir, "--truth", truth) == 1
    assert "eror_kind" in capsys.readouterr().err


def test_cli_evaluate_missing_truth(fit_dir, tmp_path, capsys):
    code = run_cli("evaluate", "--fit", fit_dir, "--truth", tmp_path / "none.json")
    assert code == 1
    assert "truth" in capsys.readouterr().err


def test_cli_diagnose(fit_dir):
    assert run_cli("diagnose", "--fit", fit_dir, "--checkpoints", 100, 250) == 0
    report = json.loads((fit_dir / "psrf.json").read_text())
    assert report["cutoff"] == 1.1
    assert report["converged"] == all(v <= 1.1 for v in report["psrf"].values())
    for trace in report["trace"].values():
        assert [point[0] for point in trace] == [100, 250]


def test_cli_diagnose_single_chain_advises_split(sim_dir, tmp_path, capsys):
    out = tmp_path / "one"
    run_cli("fit", "--data", sim_dir / "dataset.csv", "--method", "bqrvcss",
            "--tau", 0.5, "--iterations", 200, "--burn-in", 100, "--seed", 2,
            "--out", out)
    assert run_cli("diagnose", "--fit", out) == 1
    assert "split" in capsys.readouterr().err
    assert run_cli("diagnose", "--fit", out, "--split") == 0


def test_cli_diagnose_split_checkpoints_count_half_chains(sim_dir, tmp_path):
    out = tmp_path / "one"
    assert run_cli("fit", "--data", sim_dir / "dataset.csv", "--method", "bqrvcss",
                   "--tau", 0.5, "--iterations", 250, "--burn-in", 100, "--seed", 2,
                   "--out", out) == 0
    assert run_cli("diagnose", "--fit", out, "--split", "--checkpoints", 50, 75, 150) == 0
    report = json.loads((out / "psrf.json").read_text())
    for trace in report["trace"].values():
        assert [point[0] for point in trace] == [50, 75]


def test_cli_diagnose_names_dropped_checkpoints(fit_dir, tmp_path, capsys):
    out = tmp_path / "psrf.json"
    assert run_cli("diagnose", "--fit", fit_dir, "--checkpoints", 100, 300, "--out", out) == 0
    assert "checkpoint 300" in capsys.readouterr().err
    out.unlink()
    # 250 draws per chain: no checkpoint is left, so there is no trace to write
    assert run_cli("diagnose", "--fit", fit_dir, "--checkpoints", 300, 500, "--out", out) == 1
    err = capsys.readouterr().err
    assert "checkpoint 300" in err and "checkpoint 500" in err and "no checkpoint" in err
    assert not out.exists()


def test_cli_fit_rejects_unknown_config_key(sim_dir, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"method": "bqrvcss", "iteratons": 50}))
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", sim_dir / "dataset.csv", "--config", cfg,
                   "--out", out) == 1
    assert "iteratons" in capsys.readouterr().err
    assert not (out / "fit_summary.json").exists()


@pytest.mark.parametrize(
    "item, message",
    [("a=abc", "--prior a must be a number, got 'abc'"), ("a", "--prior expects key=value")],
    ids=["not-a-number", "no-equals"],
)
def test_cli_fit_rejects_malformed_prior_flag(sim_dir, tmp_path, capsys, item, message):
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", sim_dir / "dataset.csv", "--prior", item, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not (out / "fit_summary.json").exists()


@pytest.mark.parametrize(
    "entry, key",
    [("mcmc", "iteratons"), ("spline", "degre"), ("scenario", "eror_kind")],
)
def test_replicate_study_rejects_unknown_keys(tmp_path, capsys, entry, key):
    scenarios = [{"covariate_kind": "gene", "error_kind": "normal", "n": 40, "p": 3},
                 {"covariate_kind": "snp", "error_kind": "laplace", "n": 40, "p": 3}]
    study = {"scenarios": scenarios, "methods": ["bvc", "bqrvcss"], "replicates": 2,
             "mcmc": {"iterations": 40, "burn_in": 10}, "spline": {"degree": 1}}
    if entry == "scenario":
        scenarios[1][key] = "normal"
    else:
        study[entry][key] = 2
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(study))
    out = tmp_path / "out"
    assert run_cli("replicate-study", "--config", cfg, "--out", out) == 1
    assert key in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "change, message",
    [({"replicates": None}, "replicates"), ({"replicates": 0}, "replicates"),
     ({"methods": []}, "methods"), ({"scenarios": []}, "scenarios"),
     ({"save_sample": True}, "save_sample"), ({"scenarios": ["gene"]}, "scenarios"),
     ({"mcmc": [20]}, "mcmc"), ({"spline": 2}, "spline"), ({"priors": "flat"}, "priors")],
    ids=["missing-replicates", "zero-replicates", "no-methods", "no-scenarios", "misspelt-key",
         "scenario-not-object", "mcmc-not-object", "spline-not-object", "priors-not-object"],
)
def test_replicate_study_checks_top_level(tmp_path, capsys, change, message):
    study = {"scenarios": [{"n": 40, "p": 3}], "methods": ["bvc"], "replicates": 1,
             "mcmc": {"iterations": 40, "burn_in": 10}, **change}
    cfg = tmp_path / "study.json"
    # A change to None drops the key.
    cfg.write_text(json.dumps({k: v for k, v in study.items() if v is not None}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("replicate-study", "--config", cfg, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, change, message",
    [("fit", {"seed": 1.5}, "config seed must be an integer, got 1.5"),
     ("fit", {"seed": "3"}, "config seed must be an integer"),
     ("fit", {"iterations": 20.5}, "config iterations must be an integer"),
     ("fit", {"chains": 2.0}, "config chains must be an integer"),
     ("fit", {"degree": 1.5}, "config degree must be an integer"),
     ("fit", {"thin": True}, "config thin must be an integer, got True"),
     ("fit", {"store_latents": "no"}, "config store_latents must be true or false"),
     ("fit", {"tau": "0.5"}, "config tau must be a number"),
     ("fit", {"method": 1}, "config method must be a string"),
     ("fit", {"priors": {"a": "1"}}, "prior a must be a number"),
     ("fit", {"priors": {"a": True}}, "prior a must be a number"),
     ("fit", {"priors": 5}, "config priors must be an object"),
     ("fit", [{"seed": 1}], "config must be an object"),
     ("study", [1], "study config must be an object"),
     ("study", {"base_seed": "7"}, "study base_seed must be an integer >= 0"),
     ("study", {"base_seed": 1.5}, "study base_seed must be an integer >= 0"),
     ("study", {"base_seed": -1}, "study base_seed must be an integer >= 0"),
     ("study", {"replicates": True}, "study replicates must be an integer"),
     ("study", {"save_samples": "no"}, "study save_samples must be true or false"),
     ("study", {"out_dir": 5}, "study out_dir must be a string"),
     ("study", {"mcmc": {"iterations": 40.0, "burn_in": 10}}, "config iterations must be"),
     ("study", {"scenarios": [{"n": 40, "p": 3, "heteroscedastic": "no"}]},
      "scenario heteroscedastic must be true or false"),
     ("study", {"scenarios": [{"n": "30", "p": 3}]}, "scenario n must be an integer")],
    ids=["seed-float", "seed-str", "iterations-float", "chains-float", "degree-float",
         "thin-bool", "store_latents-str", "tau-str", "method-int", "prior-str", "prior-bool",
         "priors-int", "fit-config-list", "study-config-list", "base_seed-str",
         "base_seed-float", "base_seed-negative", "replicates-bool", "save_samples-str",
         "out_dir-int", "mcmc-iterations-float", "scenario-heteroscedastic-str",
         "scenario-n-str"],
)
def test_config_values_of_the_wrong_type_are_rejected(sim_dir, tmp_path, capsys, command,
                                                      change, message):
    cfg = tmp_path / "config.json"
    out = tmp_path / "out"
    out.mkdir()
    if command == "fit":
        if isinstance(change, dict):
            change = {"method": "bqrvcss", "iterations": 20, "burn_in": 10, **change}
        cfg.write_text(json.dumps(change))
        code = run_cli("fit", "--data", sim_dir / "dataset.csv", "--config", cfg, "--out", out)
    else:
        if isinstance(change, dict):
            change = {"scenarios": [{"n": 40, "p": 3}], "methods": ["bvc"], "replicates": 1,
                      "mcmc": {"iterations": 40, "burn_in": 10}, **change}
        cfg.write_text(json.dumps(change))
        code = run_cli("replicate-study", "--config", cfg, "--out", out)
    assert code == 1
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cli_replicate_study(tmp_path):
    study = {
        "scenarios": [
            {"covariate_kind": "gene", "error_kind": "normal", "tau": 0.5, "n": 50, "p": 5}
        ],
        "methods": ["bqrvcss"],
        "replicates": 2,
        "base_seed": 7,
        "mcmc": {"iterations": 300, "burn_in": 100},
    }
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(study))
    out = tmp_path / "out"
    assert run_cli("replicate-study", "--config", cfg, "--out", out) == 0
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg[0]["replicates"] == 2
    assert abs(agg[0]["C"] + agg[0]["O"] + agg[0]["U"] - 1.0) < 1e-12
    assert "(" in agg[0]["timse_cell"]
    csv_lines = (out / "aggregate.csv").read_text().splitlines()
    assert len(csv_lines) == 2

    # per-replicate manifests enable resume: completed reps are not recomputed
    scen_dir = out / "gene_iid_normal_tau0.5" / "bqrvcss"
    marker = scen_dir / "rep_0000" / "metrics.json"
    before = marker.stat().st_mtime_ns
    assert run_cli("replicate-study", "--config", cfg, "--out", out) == 0
    assert marker.stat().st_mtime_ns == before

    # deterministic seed schedule: replicate r regenerates dataset seed base+r
    manifest = json.loads((scen_dir / "rep_0001" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 8


def test_replicate_study_skips_samples_unless_saved(tmp_path, monkeypatch):
    from bayesqvc import cli

    def no_samples(*args):
        raise AssertionError("samples written although save_samples is false")

    monkeypatch.setattr(cli, "save_samples", no_samples)
    study = {
        "scenarios": [{"covariate_kind": "gene", "error_kind": "normal", "n": 40, "p": 3}],
        "methods": ["bvcss"],
        "replicates": 1,
        "mcmc": {"iterations": 40, "burn_in": 10},
        "workers": 1,
    }
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(study))
    out = tmp_path / "out"
    assert run_cli("replicate-study", "--config", cfg, "--out", out) == 0
    rep_dir = out / "gene_iid_normal_tau0.5" / "bvcss" / "rep_0000"
    assert (rep_dir / "manifest.json").exists()
    assert not (rep_dir / "samples.bin").exists()


def test_replicate_metrics_equal_evaluate_of_files(tmp_path):
    """The study scores its curves in memory; `evaluate` on the files must agree."""
    study = {
        "scenarios": [{"covariate_kind": "snp", "error_kind": "laplace", "tau": 0.25,
                       "heteroscedastic": True, "n": 50, "p": 5}],
        "methods": ["bqrvcss", "bvc"],
        "replicates": 2,
        "base_seed": 3,
        "mcmc": {"iterations": 60, "burn_in": 20},
    }
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(study))
    out = tmp_path / "out"
    assert run_cli("replicate-study", "--config", cfg, "--out", out) == 0
    rep_dirs = sorted(out.glob("*/*/rep_*"))
    assert len(rep_dirs) == 4
    for rep_dir in rep_dirs:
        metrics_path = rep_dir / "metrics.json"
        in_memory = json.loads(metrics_path.read_text())
        assert in_memory.pop("wallclock_seconds") > 0
        from_files = tmp_path / "eval.json"
        assert run_cli("evaluate", "--fit", rep_dir, "--truth", rep_dir / "truth.json",
                       "--out", from_files) == 0
        assert json.dumps(in_memory, sort_keys=True) == json.dumps(
            json.loads(from_files.read_text()), sort_keys=True)
