"""File formats and the command-line workflow."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bayesqvc
from bayesqvc import Dataset, RngHandle, metrics
from bayesqvc.basis import default_grid
from bayesqvc.cli import _config_from_args, build_parser, evaluate_curves, main
from bayesqvc.diagnostics import psrf, tracked_parameters
from bayesqvc.inference import CurveBands
from bayesqvc.io import (
    RunConfig,
    load_samples,
    read_curves_csv,
    read_dataset_csv,
    save_samples,
    write_curves_csv,
    write_dataset_csv,
)
from bayesqvc.samplers import McmcOptions, fit, variants
from bayesqvc.samplers.config import METHODS
from bayesqvc.simulate import ScenarioSpec, TrueCurves, simulate_dataset


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
     ("V,X_1,Y\n", "no data rows"),
     ("V,X_1,Y\n0.1,1,2\n0.5,abc,4\n0.9,3,4\n",
      "dataset CSV line 3 is not 3 numbers: '0.5,abc,4'"),
     ("V,X_1,Y\n0.1,1,2\n0.5,3,4\n0.9,3,4,5\n",
      "dataset CSV line 4 is not 3 numbers: '0.9,3,4,5'")],
    ids=["short-rows", "e-after-x", "long-rows", "no-rows", "not-a-number", "ragged-row"],
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


def write_v1_samples(directory, samples, config):
    """The dense ``bayesqvc-samples-v1`` layout: alpha (M, p+1, d), beta, uint8 flags, then
    the scalars and latents, each chain after the other."""
    index, blob = [], b""
    for chain in samples.chains:
        arrays = {}
        items = [("alpha", chain.alpha), ("beta", chain.beta), ("inclusion", chain.inclusion)]
        items += [(f"scalar:{k}", chain.scalars[k]) for k in sorted(chain.scalars)]
        items += [(f"latent:{k}", chain.latents[k]) for k in sorted(chain.latents)]
        for name, arr in items:
            raw = np.ascontiguousarray(arr).tobytes()
            arrays[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape),
                            "offset": len(blob), "nbytes": len(raw)}
            blob += raw
        index.append({"seed": chain.seed, "stream_id": chain.stream_id,
                      "iterations": chain.iterations, "burn_in": chain.burn_in,
                      "thin": chain.thin, "arrays": arrays})
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "samples.bin").write_bytes(blob)
    (directory / "samples.json").write_text(json.dumps({
        "format": "bayesqvc-samples-v1", "method": samples.method, "tau": samples.tau,
        "degree": samples.spline_degree, "interior_knots": samples.interior_knots,
        "config": config.to_dict(), "chains": index}))


def assert_same_draws(a, b):
    """Every stored array of every chain is equal, dtype and shape included."""
    assert (a.method, a.tau, a.spline_degree, a.interior_knots) == (
        b.method, b.tau, b.spline_degree, b.interior_knots)
    assert len(a.chains) == len(b.chains)
    for x, y in zip(a.chains, b.chains):
        assert (x.seed, x.stream_id, x.iterations, x.burn_in, x.thin) == (
            y.seed, y.stream_id, y.iterations, y.burn_in, y.thin)
        pairs = [(x.alpha0, y.alpha0), (x.rows, y.rows), (x.beta, y.beta),
                 (x.inclusion, y.inclusion)]
        assert x.scalars.keys() == y.scalars.keys() and x.latents.keys() == y.latents.keys()
        pairs += [(x.scalars[k], y.scalars[k]) for k in x.scalars]
        pairs += [(x.latents[k], y.latents[k]) for k in x.latents]
        for u, v in pairs:
            assert (u.dtype, u.shape) == (v.dtype, v.shape)
            assert u.tobytes() == v.tobytes()


def fit_for_samples(kind):
    """(samples, config) of a small fit: a spike fit, a plain fit, q = 2, or stored latents."""
    method = {"spike": "bqrvcss", "plain": "bqrvc", "q2": "bvcss", "latents": "bqrvcss"}[kind]
    ds, _, _ = simulate_dataset(ScenarioSpec(n=40, p=11, seed=2))
    if kind == "q2":
        ds = Dataset(y=ds.y, x=ds.x, v=ds.v, e=RngHandle(4, 0).gen.standard_normal((ds.n, 2)))
    config = RunConfig(method=method, iterations=50, burn_in=20, chains=2, seed=5,
                       store_latents=kind == "latents")
    samples = fit(ds, method, tau=config.tau, opts=config.mcmc_options(), workers=1)
    return samples, config


@pytest.mark.parametrize("kind", ["spike", "plain", "q2", "latents"])
def test_samples_v2_roundtrip_bit_exact(tmp_path, kind):
    samples, config = fit_for_samples(kind)
    save_samples(tmp_path, samples, config)
    index = json.loads((tmp_path / "samples.json").read_text())
    assert index["format"] == "bayesqvc-samples-v2"
    m, p = samples.chains[0].inclusion.shape
    assert index["chains"][0]["arrays"]["inclusion"]["nbytes"] == m * ((p + 7) // 8)
    back, back_config = load_samples(tmp_path)
    assert back_config.to_dict() == config.to_dict()
    assert_same_draws(samples, back)
    if kind == "plain":
        assert back.chains[0].rows.shape == (m * p, samples.d)
    if kind == "q2":
        assert back.chains[0].beta.shape == (m, 2)


def test_samples_write_big_endian_scalars_as_little_endian(tmp_path):
    """Scalars held as explicitly big-endian ``>f8`` arrays write the native little-endian
    files byte for byte, and load back equal."""
    samples, config = fit_for_samples("spike")
    save_samples(tmp_path / "native", samples, config)
    for chain in samples.chains:
        chain.scalars = {k: v.astype(">f8") for k, v in chain.scalars.items()}
    save_samples(tmp_path / "big", samples, config)
    for name in ("samples.bin", "samples.json"):
        assert (tmp_path / "big" / name).read_bytes() == (tmp_path / "native" / name).read_bytes()
    index = json.loads((tmp_path / "big" / "samples.json").read_text())
    assert {array["dtype"] for chain in index["chains"] for name, array in chain["arrays"].items()
            if name.startswith("scalar:")} == {"<f8"}
    back, _ = load_samples(tmp_path / "big")
    for orig, loaded in zip(samples.chains, back.chains):
        for key in orig.scalars:
            np.testing.assert_array_equal(loaded.scalars[key], orig.scalars[key])


@pytest.mark.parametrize("kind", ["spike", "plain", "latents"])
def test_samples_v1_file_loads_to_the_draws_of_v2(tmp_path, kind):
    samples, config = fit_for_samples(kind)
    save_samples(tmp_path / "v2", samples, config)
    write_v1_samples(tmp_path / "v1", samples, config)
    v1, v1_config = load_samples(tmp_path / "v1")
    v2, _ = load_samples(tmp_path / "v2")
    assert v1_config.to_dict() == config.to_dict()
    assert_same_draws(v1, v2)
    assert_same_draws(v1, samples)


def test_load_samples_rejects_rows_that_disagree_with_the_flags(tmp_path):
    samples, config = fit_for_samples("spike")
    save_samples(tmp_path, samples, config)
    index = json.loads((tmp_path / "samples.json").read_text())
    rows = index["chains"][1]["arrays"]["rows"]
    rows["shape"][0] -= 1
    rows["nbytes"] -= 8 * samples.d
    (tmp_path / "samples.json").write_text(json.dumps(index))
    count = int(samples.chains[1].inclusion.sum())
    with pytest.raises(ValueError) as err:
        load_samples(tmp_path)
    assert str(err.value) == (f"{tmp_path / 'samples.bin'} chain 1: {count - 1} alpha rows "
                              f"for {count} inclusion flags")


def test_load_samples_rejects_v1_flags_that_disagree_with_alpha(tmp_path):
    samples, config = fit_for_samples("spike")
    write_v1_samples(tmp_path, samples, config)
    index = json.loads((tmp_path / "samples.json").read_text())
    flags = index["chains"][1]["arrays"]["inclusion"]
    blob = bytearray((tmp_path / "samples.bin").read_bytes())
    blob[flags["offset"]] ^= 1  # draw 0, block 1 of chain 1
    (tmp_path / "samples.bin").write_bytes(bytes(blob))
    with pytest.raises(ValueError) as err:
        load_samples(tmp_path)
    assert str(err.value) == (f"{tmp_path / 'samples.bin'} chain 1: inclusion flags disagree "
                              "with the nonzero alpha blocks")


def test_load_samples_rejects_an_unknown_format(tmp_path):
    samples, config = fit_for_samples("spike")
    save_samples(tmp_path, samples, config)
    index = json.loads((tmp_path / "samples.json").read_text())
    index["format"] = "bayesqvc-samples-v3"
    (tmp_path / "samples.json").write_text(json.dumps(index))
    with pytest.raises(ValueError) as err:
        load_samples(tmp_path)
    assert str(err.value) == (f"{tmp_path / 'samples.json'} has the unrecognized samples "
                              "format 'bayesqvc-samples-v3'")


@pytest.mark.parametrize("damage", ["truncated", "alpha0-shape", "inclusion-shape", "non-finite",
                                    "no-beta"])
def test_cli_diagnose_names_the_array_of_a_short_or_corrupt_samples_file(tmp_path, capsys,
                                                                         damage):
    samples, config = fit_for_samples("spike")
    save_samples(tmp_path, samples, config)
    index = json.loads((tmp_path / "samples.json").read_text())
    bin_path = tmp_path / "samples.bin"
    size = bin_path.stat().st_size
    theta = index["chains"][1]["arrays"]["scalar:theta"]
    if damage == "truncated":  # cuts into the last array, chain 1's theta draws
        bin_path.write_bytes(bin_path.read_bytes()[:-100])
        message = (f"{bin_path} chain 1 array 'scalar:theta': bytes {theta['offset']} to "
                   f"{size} lie outside the {size - 100}-byte file")
    elif damage == "non-finite":  # chain 1's fourth theta draw is NaN
        blob = bytearray(bin_path.read_bytes())
        blob[theta["offset"] + 24 : theta["offset"] + 32] = np.array(np.nan, "<f8").tobytes()
        bin_path.write_bytes(bytes(blob))
        message = (f"{bin_path} chain 1 array 'scalar:theta': 1 of its "
                   f"{samples.chains[1].stored} values are not finite")
    elif damage == "no-beta":
        del index["chains"][0]["arrays"]["beta"]
        (tmp_path / "samples.json").write_text(json.dumps(index))
        message = f"{tmp_path / 'samples.json'} chain 0 has no 'beta' array"
    else:
        name = damage.split("-")[0]
        meta = index["chains"][0]["arrays"][name]
        meta["shape"][1] += 8 if name == "inclusion" else 1  # one more packed byte per draw
        (tmp_path / "samples.json").write_text(json.dumps(index))
        dtype = "|u1" if name == "inclusion" else "<f8"
        message = (f"{bin_path} chain 0 array {name!r}: {meta['nbytes']} bytes do not hold a "
                   f"{dtype} array of shape {tuple(meta['shape'])}")
    assert run_cli("diagnose", "--fit", tmp_path) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "psrf.json").exists()


def test_spike_fit_diagnose_and_evaluate_build_no_dense_alpha(sim_dir, tmp_path, monkeypatch):
    """The dense accessor stays unused on the whole path of a spike fit."""
    from bayesqvc.samplers.state import ChainSamples

    def dense(self):
        raise AssertionError("dense (M, p+1, d) alpha built")

    monkeypatch.setattr(ChainSamples, "alpha", property(dense))
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", sim_dir / "dataset.csv", "--method", "bqrvcss",
                   "--iterations", 120, "--burn-in", 60, "--chains", 2, "--workers", 1,
                   "--seed", 4, "--out", out) == 0
    assert run_cli("diagnose", "--fit", out) == 0
    assert run_cli("evaluate", "--fit", out, "--truth", sim_dir / "truth.json",
                   "--out", out / "metrics.json") == 0
    assert (out / "psrf.json").exists() and (out / "metrics.json").exists()


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


def _with_fault(text, fault):
    """The curves file ``text`` of the writer with one ``fault``; "other-v-grid" halves the v
    of curve 1's row 3, and "not-a-number" puts abc in place of the median of curve 2's row 2,
    file line 2 g + 4."""
    header, *rows = text.splitlines(keepends=True)
    g = sum(row.startswith("0,") for row in rows)
    j, t, v, values = rows[g + 3].split(",", 3)
    unparsed = rows[2 * g + 2].split(",")
    return header + "".join({
        "header-only": [],
        "one-curve": rows[:g],
        "shuffled": [rows[i] for i in np.random.default_rng(1).permutation(len(rows))],
        "truncated": rows[:-1],
        "other-v-grid": [*rows[: g + 3], f"{j},{t},{float(v) / 2:.17g},{values}", *rows[g + 4 :]],
        "not-a-number": [*rows[: 2 * g + 2], ",".join([*unparsed[:3], "abc", *unparsed[4:]]),
                         *rows[2 * g + 3 :]],
    }[fault])


CURVE_FAULTS = [("header-only", "curves CSV has no data rows"),
                ("shuffled", "where the writer puts curve"),
                ("truncated", "curves CSV has an incomplete grid"),
                ("other-v-grid", "has v"),
                ("not-a-number", "is not six numbers")]


@pytest.mark.parametrize("fault, message", CURVE_FAULTS, ids=[f for f, _ in CURVE_FAULTS])
def test_curves_csv_rejects_files_out_of_the_writer_layout(tmp_path, fault, message):
    """Only the writer's layout reads: a file with its rows out of order, a short last curve,
    a curve on another grid than curve 0 (here the all-zero curve 1), a value that is not a
    number or no rows raises."""
    grid = np.linspace(0, 1, 7)
    med = np.random.default_rng(0).normal(size=(3, 7))
    med[1] = 0.0
    bands = CurveBands(grid=grid, median=med, lower=med - (med != 0), upper=med + (med != 0))
    path = tmp_path / "curves.csv"
    write_curves_csv(path, bands)
    for got, want in zip(read_curves_csv(path), bands):
        np.testing.assert_array_equal(got, want)
    path.write_text(_with_fault(path.read_text(), fault))
    with pytest.raises(ValueError, match=message) as raised:
        read_curves_csv(path)
    if fault == "not-a-number":  # the file line, though the zero curve 1 is not parsed
        assert str(raised.value).startswith("curves CSV line 18 is not six numbers: '2,2,")


@pytest.mark.parametrize("live", [[0, 2, 5], [3], [], [0, 1, 2, 3, 4, 5, 6]])
def test_curves_csv_parses_only_the_live_curves_of_a_writer_file(tmp_path, monkeypatch, live):
    """A writer-order file parses its first curve and its live ones; the result is the
    whole-file parse's, bit for bit.  A curve of -0.0 values is written out, so it is live."""
    rng = np.random.default_rng(3)
    grid = np.linspace(0, 1, 9)
    med = np.zeros((7, grid.size))
    med[live] = rng.normal(size=(len(live), grid.size))
    med[6, 4] = -0.0
    bands = CurveBands(grid=grid, median=med, lower=med - 0.5 * (med != 0),
                       upper=med + 0.5 * (med != 0))
    path = tmp_path / "curves.csv"
    write_curves_csv(path, bands)
    whole = np.loadtxt(path, delimiter=",", skiprows=1)
    parsed = []
    loadtxt = np.loadtxt

    def counting(lines, *args, **kwargs):
        body = loadtxt(lines, *args, **kwargs)
        parsed.append(len(body))
        return body

    monkeypatch.setattr(np, "loadtxt", counting)
    got = read_curves_csv(path)
    assert parsed == [len(set(live) | {0, 6}) * grid.size]
    np.testing.assert_array_equal(got.grid, whole[: grid.size, 2])
    for column, band in zip((3, 4, 5), got[1:]):
        np.testing.assert_array_equal(band, whole[:, column].reshape(7, grid.size))
        np.testing.assert_array_equal(np.signbit(band), np.signbit(whole[:, column]).reshape(7, -1))


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
    """A RunConfig validates on construction, as every other config dataclass does."""
    with pytest.raises(ValueError, match="burn_in"):
        RunConfig(method="bqrvcss", iterations=10, burn_in=10)
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        RunConfig(method="nope")
    with pytest.raises(ValueError, match="zzz"):
        RunConfig(priors={"zzz": 1.0})
    cfg = RunConfig(method="bvcss", priors={"s": 2.0, "prior_scale": 10.0})
    prior = cfg.prior_config()
    assert (prior.s, prior.prior_scale) == (2.0, 10.0)


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


@pytest.mark.parametrize("command", ["", "simulate", "fit", "evaluate", "diagnose",
                                     "replicate-study"], ids=lambda command: command or "top")
def test_every_help_renders(capsys, command):
    """argparse %-formats each help text: a stray % in one, such as the measured timings of
    fit --workers or the StudyConfig docstring, would turn --help into a traceback."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*command.split(), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bayesqvc")


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


@pytest.mark.parametrize("hard_intercept", [False, True], ids=["smooth", "hard"])
@pytest.mark.parametrize("p", [2, 6])
def test_evaluate_curves_matches_the_per_curve_loop(p, hard_intercept):
    """Scoring all curves in one pass equals metrics.imse and metrics.coverage curve by curve."""
    grid = default_grid()
    rng = np.random.default_rng(10 * p + hard_intercept)
    curves = TrueCurves(hard_intercept=hard_intercept)
    truth = np.array([curves.evaluate(j, grid) for j in range(p + 1)])
    med = truth + rng.normal(scale=0.3, size=truth.shape)
    half = np.abs(rng.normal(scale=0.4, size=truth.shape))
    low, upp = med - half, med + half
    low[:, ::5] = truth[:, ::5]       # bands that touch the truth cover it
    upp[:, 2::5] = truth[:, 2::5]
    bands = CurveBands(grid, med, low, upp)
    spec = ScenarioSpec(n=30, p=p, hard_intercept=hard_intercept)
    summary = {"config": {"method": "bvc"}, "selected": [1, 2]}
    got = evaluate_curves(bands, summary, spec, {1, 2, 3})
    want_imse = [metrics.imse(med[j], curves.evaluate(j, grid)) for j in range(p + 1)]
    want_cov = {str(j): metrics.coverage(bands.lower[j], bands.upper[j], curves.evaluate(j, grid))
                for j in range(min(4, p + 1))}
    assert got["imse"] == want_imse
    assert got["timse"] == metrics.timse(want_imse)
    assert got["coverage"] == want_cov
    assert 0.0 < min(want_cov.values()) and max(want_cov.values()) < 1.0


def test_cli_evaluate_rejects_unknown_truth_key(sim_dir, fit_dir, tmp_path, capsys):
    payload = json.loads((sim_dir / "truth.json").read_text())
    payload["scenario"]["eror_kind"] = "normal"
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(payload))
    assert run_cli("evaluate", "--fit", fit_dir, "--truth", truth) == 1
    assert "eror_kind" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("n", 50), ("p", 8), ("tau", 0.25)])
def test_cli_evaluate_rejects_truth_of_another_scenario(sim_dir, fit_dir, tmp_path, capsys,
                                                        key, value):
    payload = json.loads((sim_dir / "truth.json").read_text())
    fitted = payload["scenario"][key]
    payload["scenario"][key] = value
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(payload))
    out = tmp_path / "metrics.json"
    assert run_cli("evaluate", "--fit", fit_dir, "--truth", truth, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"{key} = {value!r}" in err and f"{key} = {fitted!r}" in err
    assert not out.exists()


def test_cli_evaluate_rejects_truth_of_other_data_by_checksum(sim_dir, fit_dir, tmp_path,
                                                              capsys):
    """Same n, p and tau, other data: the truth of the fit's command plus --hard-intercept."""
    other = tmp_path / "hard"
    assert run_cli("simulate", "--n", 60, "--p", 6, "--seed", 3, "--tau", 0.5,
                   "--hard-intercept", "--out", other) == 0
    truth = json.loads((sim_dir / "truth.json").read_text())
    fitted = json.loads((fit_dir / "fit_summary.json").read_text())
    assert truth["data_checksum"] == fitted["data_checksum"]
    assert run_cli("evaluate", "--fit", fit_dir, "--truth", other / "truth.json") == 1
    err = capsys.readouterr().err
    assert str(other / "truth.json") in err and str(fit_dir / "fit_summary.json") in err
    assert run_cli("evaluate", "--fit", fit_dir, "--truth", sim_dir / "truth.json") == 0
    # A truth file from before the checksum was recorded gets the n, p and tau check alone.
    del truth["data_checksum"]
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(truth))
    assert run_cli("evaluate", "--fit", fit_dir, "--truth", legacy) == 0


def test_cli_evaluate_names_a_truth_file_without_support(sim_dir, fit_dir, tmp_path, capsys):
    payload = json.loads((sim_dir / "truth.json").read_text())
    del payload["support"]
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(payload))
    assert run_cli("evaluate", "--fit", fit_dir, "--truth", truth) == 1
    assert capsys.readouterr().err == f"error: {truth} has no 'support' key\n"


def test_cli_evaluate_names_a_fit_summary_that_is_not_json(sim_dir, fit_dir, tmp_path, capsys):
    fit = tmp_path / "fit"
    fit.mkdir()
    (fit / "curves.csv").write_bytes((fit_dir / "curves.csv").read_bytes())
    (fit / "fit_summary.json").write_text("")
    assert run_cli("evaluate", "--fit", fit, "--truth", sim_dir / "truth.json") == 1
    assert capsys.readouterr().err == (f"error: {fit / 'fit_summary.json'} is not a JSON file: "
                                       "Expecting value: line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("command", ["fit", "replicate-study"])
def test_cli_names_a_config_that_is_not_json(sim_dir, tmp_path, capsys, command):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"method": "bvc", }')
    out = tmp_path / "out"
    data = ["--data", sim_dir / "dataset.csv"] if command == "fit" else []
    assert run_cli(command, *data, "--config", cfg, "--out", out) == 1
    assert capsys.readouterr().err == (f"error: {cfg} is not a JSON file: Expecting property "
                                       "name enclosed in double quotes: line 1 column 19 "
                                       "(char 18)\n")
    assert not out.exists()


def test_cli_evaluate_missing_truth(fit_dir, tmp_path, capsys):
    code = run_cli("evaluate", "--fit", fit_dir, "--truth", tmp_path / "none.json")
    assert code == 1
    assert "truth" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fault, message",
    [*CURVE_FAULTS, ("one-curve", "holds 1 curves, but the fit has p = 6, so it needs 7")],
    ids=[*(f for f, _ in CURVE_FAULTS), "one-curve"],
)
def test_cli_evaluate_rejects_malformed_curves(sim_dir, fit_dir, tmp_path, capsys, fault,
                                               message):
    fit = tmp_path / "fit"
    fit.mkdir()
    (fit / "fit_summary.json").write_bytes((fit_dir / "fit_summary.json").read_bytes())
    (fit / "curves.csv").write_text(_with_fault((fit_dir / "curves.csv").read_text(), fault))
    out = tmp_path / "metrics.json"
    assert run_cli("evaluate", "--fit", fit, "--truth", sim_dir / "truth.json",
                   "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_diagnose(fit_dir):
    assert run_cli("diagnose", "--fit", fit_dir, "--checkpoints", 100, 250) == 0
    report = json.loads((fit_dir / "psrf.json").read_text())
    assert report["cutoff"] == 1.1
    assert report["converged"] == all(v <= 1.1 for v in report["psrf"].values())
    for trace in report["trace"].values():
        assert [point[0] for point in trace] == [100, 250]


def test_cli_diagnose_single_chain_advises_split(sim_dir, tmp_path, capsys):
    """A one-chain fit is diagnosed by splitting it, with no flag; --split is gone."""
    out = tmp_path / "one"
    assert run_cli("fit", "--data", sim_dir / "dataset.csv", "--method", "bqrvcss",
                   "--tau", 0.5, "--iterations", 200, "--burn-in", 100, "--seed", 2,
                   "--out", out) == 0
    assert run_cli("diagnose", "--fit", out) == 0
    assert json.loads((out / "psrf.json").read_text())["psrf"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("diagnose", "--fit", out, "--split")
    assert exc.value.code == 2
    assert "--split" in capsys.readouterr().err


def test_cli_diagnose_split_checkpoints_count_half_chains(sim_dir, tmp_path, capsys):
    """Checkpoints count the stored draws per chain; each traced value compares
    the two halves of that many draws."""
    out = tmp_path / "one"
    assert run_cli("fit", "--data", sim_dir / "dataset.csv", "--method", "bqrvcss",
                   "--tau", 0.5, "--iterations", 250, "--burn-in", 100, "--seed", 2,
                   "--out", out) == 0
    assert run_cli("diagnose", "--fit", out, "--checkpoints", 50, 75, 150) == 0
    report = json.loads((out / "psrf.json").read_text())
    tracked = tracked_parameters(load_samples(out)[0])
    for name, trace in report["trace"].items():
        assert [point[0] for point in trace] == [50, 75, 150]
        halves = tracked[name][:, :74].reshape(2, 37)
        assert trace[1][1] == pytest.approx(psrf(halves)[0])
        assert trace[2][1] == pytest.approx(report["psrf"][name])
    capsys.readouterr()
    assert run_cli("diagnose", "--fit", out, "--checkpoints", 3, 50, "--out",
                   tmp_path / "psrf.json") == 1
    assert "checkpoint 3 is outside the 4..150 draws per chain" in capsys.readouterr().err
    assert not (tmp_path / "psrf.json").exists()


def test_cli_diagnose_needs_four_draws_per_chain(sim_dir, tmp_path, capsys):
    out = tmp_path / "short"
    assert run_cli("fit", "--data", sim_dir / "dataset.csv", "--method", "bvc",
                   "--iterations", 13, "--burn-in", 10, "--chains", 2, "--seed", 2,
                   "--workers", 1, "--out", out) == 0
    assert run_cli("diagnose", "--fit", out) == 1
    assert "at least 4 draws per chain, got 3" in capsys.readouterr().err
    assert not (out / "psrf.json").exists()


def test_cli_diagnose_calls_each_traced_layer_once(fit_dir, tmp_path, monkeypatch):
    """The benchmark times diagnose through cli.psrf_report and cli.psrf_report_trace,
    and one tracked-set selection feeds both."""
    from bayesqvc import cli

    calls = []

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("tracked_parameters", "psrf_report", "psrf_report_trace"):
        monkeypatch.setattr(cli, name, counting(name))
    assert run_cli("diagnose", "--fit", fit_dir, "--out", tmp_path / "psrf.json") == 0
    assert calls == ["tracked_parameters", "psrf_report", "psrf_report_trace"]


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
    "flags, message",
    [(["--prior", "a=nan"], "prior hyperparameter a must be positive and finite, got nan"),
     (["--prior", "prior_scale=inf"], "prior hyperparameter prior_scale must be positive and "
                                      "finite, got inf"),
     (["--prior", "b=inf"], "prior hyperparameter b must be positive and finite, got inf"),
     (["--method", "bvc", "--tau", "nan"], "tau must lie in (0, 1), got nan"),
     # kappa1^2 = (1 - 2 tau)^2 / (tau (1 - tau))^2 overflows below tau = 7.5e-155 or so.
     (["--method", "bqrvc", "--tau", "1e-160"], "tau = 1e-160 is too close to 0 or 1"),
     (["--method", "bqrvcss", "--tau", "1e-155"], "tau = 1e-155 is too close to 0 or 1"),
     (["--prior", "prior_scale=1e-320"], "prior hyperparameter prior_scale must have a finite "
                                         "reciprocal, got 1e-320"),
     # A chain that would store no draw.
     (["--iterations", "10", "--burn-in", "5", "--thin", "10"],
      "got iterations=10, burn_in=5, thin=10")],
    ids=["a-nan", "prior_scale-inf", "b-inf", "bvc-tau-nan", "bqrvc-tau-1e-160",
         "bqrvcss-tau-1e-155", "prior_scale-1e-320", "no-stored-draw"],
)
def test_cli_fit_rejects_non_finite_numbers_before_the_fit(sim_dir, tmp_path, capsys, flags,
                                                           message):
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", sim_dir / "dataset.csv", "--iterations", 20, "--burn-in", 10,
                   *flags, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


class _ModelBuilt(Exception):
    """Raised in place of the first chain, once the fit has built its model."""


@pytest.mark.parametrize("path", ["fit", "study"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_every_prior_field_reaches_the_model(sim_dir, tmp_path, monkeypatch, method, path):
    """Each field of the method's prior class, set from the CLI or a study, is the model's."""
    def capture(args):
        raise _ModelBuilt(args[0].prior)

    monkeypatch.setattr(variants, "_run_one_chain", capture)
    cls = METHODS[method].prior
    value = 2.0  # no field's default
    for name in (fld.name for fld in dataclasses.fields(cls)):
        if path == "fit":
            argv = ["fit", "--data", sim_dir / "dataset.csv", "--method", method,
                    "--prior", f"{name}={value}", "--workers", 1, "--out", tmp_path / name]
        else:
            study = {"scenarios": [{"n": 30, "p": 2}], "methods": [method], "replicates": 1,
                     "workers": 1, "mcmc": {"iterations": 20, "burn_in": 10},
                     "priors": {name: value}}
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(study))
            argv = ["replicate-study", "--config", cfg, "--out", tmp_path / name]
        with pytest.raises(_ModelBuilt) as built:
            run_cli(*argv)
        assert built.value.args[0] == cls(**{name: value}), name


@pytest.mark.parametrize(
    "entry, key, value",
    [("mcmc", "iteratons", 2), ("spline", "degre", 2), ("scenario", "eror_kind", "normal"),
     # Keys a replicate would take over or silently replace: a method, tau and seeds.
     ("spline", "method", "bvc"), ("mcmc", "tau", 0.9), ("mcmc", "seed", 3),
     ("scenario", "seed", 3)],
    ids=["mcmc-iteratons", "spline-degre", "scenario-eror_kind", "spline-method", "mcmc-tau",
         "mcmc-seed", "scenario-seed"],
)
def test_replicate_study_rejects_unknown_keys(tmp_path, capsys, entry, key, value):
    scenarios = [{"covariate_kind": "gene", "error_kind": "normal", "n": 40, "p": 3},
                 {"covariate_kind": "snp", "error_kind": "laplace", "n": 40, "p": 3}]
    study = {"scenarios": scenarios, "methods": ["bvc", "bqrvcss"], "replicates": 2,
             "mcmc": {"iterations": 40, "burn_in": 10}, "spline": {"degree": 1}}
    (scenarios[1] if entry == "scenario" else study[entry])[key] = value
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(study))
    out = tmp_path / "out"
    assert run_cli("replicate-study", "--config", cfg, "--out", out) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [({"replicates": None}, "replicates"), ({"replicates": 0}, "replicates"),
     ({"methods": []}, "methods"), ({"scenarios": []}, "scenarios"),
     ({"save_sample": True}, "save_sample"), ({"scenarios": ["gene"]}, "scenarios"),
     ({"mcmc": [20]}, "mcmc"), ({"spline": 2}, "spline"), ({"priors": "flat"}, "priors"),
     ({"methods": [["bvc"]]}, "unknown method ['bvc']"),
     # Cells that would share a directory, and a scenario no replicate can simulate.
     ({"scenarios": [{"n": 40, "p": 3}, {"n": 60, "p": 3}]}, "'gene_iid_normal_tau0.5' twice"),
     ({"scenarios": [{"n": 40, "p": 3}, {"n": 40, "p": 3, "mixture_sd_or_var": "sd"}]},
      "'gene_iid_normal_tau0.5' twice"),
     ({"methods": ["bvc", "bqrvcss", "bvc"]}, "method 'bvc' twice"),
     ({"scenarios": [{"n": 40, "p": 3}, {"n": 40, "p": 1, "heteroscedastic": True}]},
      "study scenarios[1]: heteroscedastic errors need at least two predictors"),
     # Range errors of a scenario, the spline and the mcmc name their object.
     ({"scenarios": [{"n": 40, "p": 3}, {"n": 0, "p": 3, "error_kind": "laplace"}]},
      "study scenarios[1]: n and p must be positive"),
     ({"spline": {"degree": -1}}, "study spline: degree must be non-negative"),
     ({"mcmc": {"iterations": 40, "burn_in": 50}}, "study mcmc: iterations must exceed burn_in"),
     ({"mcmc": {"iterations": 40, "burn_in": 10, "thin": 0}},
      "study mcmc: thin must be at least 1"),
     ({"mcmc": {"iterations": 40, "burn_in": 10, "thin": 31}},
      "study mcmc: iterations - burn_in must be at least thin, so that a chain stores a draw; "
      "got iterations=40, burn_in=10, thin=31")],
    ids=["missing-replicates", "zero-replicates", "no-methods", "no-scenarios", "misspelt-key",
         "scenario-not-object", "mcmc-not-object", "spline-not-object", "priors-not-object",
         "method-not-string", "scenarios-differ-in-n", "scenarios-differ-in-mixture",
         "repeated-method", "heteroscedastic-p1", "scenario-n-zero", "spline-degree-negative",
         "mcmc-burn_in-past-iterations", "mcmc-thin-zero", "mcmc-no-stored-draw"],
)
def test_replicate_study_checks_top_level(tmp_path, capsys, change, message):
    study = {"scenarios": [{"n": 40, "p": 3}], "methods": ["bvc"], "replicates": 1,
             "mcmc": {"iterations": 40, "burn_in": 10}, **change}
    cfg = tmp_path / "study.json"
    # A change to None drops the key.
    cfg.write_text(json.dumps({k: v for k, v in study.items() if v is not None}))
    out = tmp_path / "out"
    assert run_cli("replicate-study", "--config", cfg, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


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
     ("study", [1], "study must be an object"),
     ("study", {"base_seed": "7"}, "study base_seed must be an integer, got '7'"),
     ("study", {"base_seed": 1.5}, "study base_seed must be an integer, got 1.5"),
     ("study", {"base_seed": -1}, "study base_seed must be an integer >= 0"),
     ("study", {"replicates": True}, "study replicates must be an integer"),
     ("study", {"save_samples": "no"}, "study save_samples must be true or false"),
     ("study", {"out_dir": 5}, "study out_dir must be a string"),
     ("study", {"mcmc": {"iterations": 40.0, "burn_in": 10}}, "study mcmc iterations must be"),
     ("study", {"scenarios": [{"n": 40, "p": 3, "heteroscedastic": "no"}]},
      "study scenarios[0] heteroscedastic must be true or false"),
     ("study", {"scenarios": [{"n": "30", "p": 3}]}, "study scenarios[0] n must be an integer"),
     ("study", {"workers": 0}, "workers must be a positive integer or null (auto), got 0"),
     ("study", {"workers": "two"}, "study workers must be an integer, got 'two'"),
     ("study", {"priors": {"a": float("nan")}},
      "prior hyperparameter a must be positive and finite, got nan"),
     ("study", {"priors": {"prior_scale": 1e-320}},
      "prior hyperparameter prior_scale must have a finite reciprocal, got 1e-320"),
     ("fit", {"method": "bqrvc", "tau": 1e-160}, "tau = 1e-160 is too close to 0 or 1"),
     ("study", {"scenarios": [{"n": 40, "p": 3, "tau": 1e-160}], "methods": ["bqrvcss"]},
      "tau = 1e-160 is too close to 0 or 1")],
    ids=["seed-float", "seed-str", "iterations-float", "chains-float", "degree-float",
         "thin-bool", "store_latents-str", "tau-str", "method-int", "prior-str", "prior-bool",
         "priors-int", "fit-config-list", "study-config-list", "base_seed-str",
         "base_seed-float", "base_seed-negative", "replicates-bool", "save_samples-str",
         "out_dir-int", "mcmc-iterations-float", "scenario-heteroscedastic-str",
         "scenario-n-str", "study-workers-zero", "study-workers-str", "study-prior-nan",
         "study-prior_scale-1e-320", "fit-tau-1e-160", "study-tau-1e-160"],
)
def test_config_values_of_the_wrong_type_are_rejected(sim_dir, tmp_path, capsys, command,
                                                      change, message):
    cfg = tmp_path / "config.json"
    out = tmp_path / "out"
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
    assert not out.exists()


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


@pytest.mark.parametrize(
    "entry, key, value, saved",
    [("mcmc", "iterations", 60, "manifest.json config iterations = 40"),
     ("scenario", "n", 50, "truth.json scenario n = 40")],
    ids=["iterations", "scenario-n"],
)
def test_replicate_study_resumes_only_an_unchanged_config(tmp_path, capsys, entry, key, value,
                                                          saved):
    study = {"scenarios": [{"n": 40, "p": 3}], "methods": ["bvc"], "replicates": 2,
             "mcmc": {"iterations": 40, "burn_in": 10}, "workers": 1}
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(study))
    out = tmp_path / "out"
    assert run_cli("replicate-study", "--config", cfg, "--out", out) == 0
    cell = out / "gene_iid_normal_tau0.5" / "bvc"
    (cell / "rep_0001" / "manifest.json").unlink()
    before = {path: path.stat().st_mtime_ns for path in out.rglob("*")}
    (study["scenarios"][0] if entry == "scenario" else study[entry])[key] = value
    cfg.write_text(json.dumps(study))
    capsys.readouterr()
    assert run_cli("replicate-study", "--config", cfg, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"{cell / 'rep_0000'} has {saved}, but the study now gives {value}" in err
    # nothing ran: no file was written, and the deleted manifest stays missing
    assert {path: path.stat().st_mtime_ns for path in out.rglob("*")} == before


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
