"""Run configuration and file persistence for the CLI workflow.

Formats:

* datasets: CSV with header ``V, E_1..E_q, X_1..X_p, Y``; floats carry 17
  significant digits so a write/read round trip is bit exact.
* posterior samples: one flat binary of concatenated C-order little-endian
  arrays (``samples.bin``) plus a JSON sidecar index (``samples.json``)
  holding dtypes, shapes, offsets, and the full run configuration.  Both
  files are byte-deterministic given the draws.
* curves: CSV with header ``j, grid_index, v, median, lower, upper``, one
  row per (curve, grid point) of an :class:`inference.CurveBands`; floats
  carry 17 significant digits.
* summaries and metrics: JSON, always embedding the run configuration so a
  result is regenerable from the file alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .basis import SplineConfig
from .data import Dataset
from .inference import CurveBands
from .samplers.config import McmcOptions
from .samplers.state import ChainSamples, PosteriorSamples
from .samplers.variants import method_spec, resolve_workers
from .simulate import ScenarioSpec

FLOAT_FMT = "%.17g"
# Fields one ``%`` call of _write_rows formats at most.
_ROW_CHUNK_FIELDS = 1 << 14


@dataclass
class RunConfig:
    """Flat, JSON-friendly mirror of one fit invocation.

    ``workers`` caps the processes the chains run on; None (the default)
    means one per usable CPU, at most one per chain, and 1 keeps the chains
    in this process.  The draws do not depend on it.
    """

    method: str = "bqrvcss"
    tau: float = 0.5
    degree: int = 2
    interior_knots: int = 2
    priors: dict = field(default_factory=dict)
    iterations: int = 10_000
    burn_in: int = 5_000
    thin: int = 1
    chains: int = 1
    seed: int = 0
    store_latents: bool = False
    workers: int | None = None

    def validate(self) -> None:
        self.spline_config()
        self.mcmc_options()
        self.prior_config()
        if method_spec(self.method).needs_tau and not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        resolve_workers(self.workers, self.chains)  # raises on a bad worker count

    def spline_config(self) -> SplineConfig:
        return SplineConfig(self.degree, self.interior_knots)

    def mcmc_options(self) -> McmcOptions:
        return McmcOptions(
            iterations=self.iterations,
            burn_in=self.burn_in,
            thin=self.thin,
            chains=self.chains,
            seed=self.seed,
            store_latents=self.store_latents,
        )

    def prior_config(self):
        extra = dict(self.priors)
        cls = method_spec(self.method).prior
        # Prior covariance matrices are not settable from the flat config.
        allowed = {f.name for f in fields(cls)} - {"sigma_beta", "sigma_alpha0"}
        unknown = set(extra) - allowed
        if unknown:
            raise ValueError(f"unknown prior fields for {self.method}: {sorted(unknown)}")
        return cls(**extra)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        cfg = cls(**known_keys(cls, payload, "config"))
        cfg.validate()
        return cfg


def known_keys(cls, payload: dict, what: str) -> dict:
    """``payload`` if each key names a field of dataclass ``cls``; else ValueError naming the rest."""
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    return payload


def dump_json(path, payload) -> None:
    """Deterministic JSON: sorted keys, compact separators, trailing newline."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    Path(path).write_text(text + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def _write_rows(fh, row_fmt: str, table: np.ndarray) -> None:
    """Write the rows of a 2-D ``table`` through ``row_fmt``, one ``%`` per chunk of rows."""
    step = max(1, _ROW_CHUNK_FIELDS // table.shape[1])
    for start in range(0, table.shape[0], step):
        chunk = table[start : start + step]
        fh.write(row_fmt * chunk.shape[0] % tuple(chunk.ravel().tolist()))


# ---------------------------------------------------------------------------
# dataset CSV

def write_dataset_csv(path, dataset: Dataset) -> None:
    header = ["V"]
    header += [f"E_{k}" for k in range(1, dataset.q + 1)]
    header += [f"X_{j}" for j in range(1, dataset.p + 1)]
    header += ["Y"]
    cols = [dataset.v]
    if dataset.q > 0:
        cols += [dataset.e[:, k] for k in range(dataset.q)]
    cols += [dataset.x[:, j] for j in range(dataset.p)]
    cols += [dataset.y]
    body = np.column_stack(cols)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, ",".join([FLOAT_FMT] * body.shape[1]) + "\n", body)


def read_dataset_csv(path) -> Dataset:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header[0] != "V" or header[-1] != "Y":
        raise ValueError("dataset CSV must have columns V, [E_*], [X_*], Y")
    q = sum(1 for name in header if name.startswith("E_"))
    p = sum(1 for name in header if name.startswith("X_"))
    if 2 + q + p != len(header):
        raise ValueError("unrecognized columns in dataset CSV")
    v = body[:, 0]
    e = body[:, 1 : 1 + q] if q else None
    x = body[:, 1 + q : 1 + q + p]
    y = body[:, -1]
    return Dataset(y=y, x=x, v=v, e=e)


# ---------------------------------------------------------------------------
# truth / scenario JSON

def write_truth(path, spec: ScenarioSpec, support) -> None:
    dump_json(path, {"scenario": asdict(spec), "support": sorted(support)})


def load_truth(path):
    payload = load_json(path)
    spec = ScenarioSpec(**known_keys(ScenarioSpec, payload["scenario"], "scenario"))
    return spec, set(payload["support"])


# ---------------------------------------------------------------------------
# posterior samples: flat binary + JSON sidecar

def _chain_array_items(chain: ChainSamples):
    """Fixed, deterministic array ordering within a chain."""
    items = [("alpha", chain.alpha), ("beta", chain.beta), ("inclusion", chain.inclusion)]
    items += [(f"scalar:{k}", chain.scalars[k]) for k in sorted(chain.scalars)]
    items += [(f"latent:{k}", chain.latents[k]) for k in sorted(chain.latents)]
    return items


def save_samples(directory, samples: PosteriorSamples, config: RunConfig) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index_chains = []
    offset = 0
    with open(directory / "samples.bin", "wb") as fh:
        for chain in samples.chains:
            arrays = {}
            for name, arr in _chain_array_items(chain):
                arr = np.ascontiguousarray(arr)
                if arr.dtype.byteorder == ">":
                    arr = arr.astype(arr.dtype.newbyteorder("<"))
                raw = arr.tobytes()
                arrays[name] = {
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "offset": offset,
                    "nbytes": len(raw),
                }
                fh.write(raw)
                offset += len(raw)
            index_chains.append(
                {
                    "seed": chain.seed,
                    "stream_id": chain.stream_id,
                    "iterations": chain.iterations,
                    "burn_in": chain.burn_in,
                    "thin": chain.thin,
                    "arrays": arrays,
                }
            )
    dump_json(
        directory / "samples.json",
        {
            "format": "bayesqvc-samples-v1",
            "method": samples.method,
            "tau": samples.tau,
            "degree": samples.spline_degree,
            "interior_knots": samples.interior_knots,
            "config": config.to_dict(),
            "chains": index_chains,
        },
    )


def load_samples(directory):
    directory = Path(directory)
    index = load_json(directory / "samples.json")
    if index.get("format") != "bayesqvc-samples-v1":
        raise ValueError("unrecognized samples index format")
    blob = (directory / "samples.bin").read_bytes()
    chains = []
    for entry in index["chains"]:
        loaded = {}
        for name, meta in entry["arrays"].items():
            start = meta["offset"]
            raw = blob[start : start + meta["nbytes"]]
            arr = np.frombuffer(raw, dtype=np.dtype(meta["dtype"]))
            loaded[name] = arr.reshape(meta["shape"]).copy()
        chains.append(
            ChainSamples(
                seed=entry["seed"],
                stream_id=entry["stream_id"],
                iterations=entry["iterations"],
                burn_in=entry["burn_in"],
                thin=entry["thin"],
                alpha=loaded["alpha"],
                beta=loaded["beta"],
                inclusion=loaded["inclusion"],
                scalars={
                    k.split(":", 1)[1]: v for k, v in loaded.items() if k.startswith("scalar:")
                },
                latents={
                    k.split(":", 1)[1]: v for k, v in loaded.items() if k.startswith("latent:")
                },
            )
        )
    samples = PosteriorSamples(
        method=index["method"],
        tau=index["tau"],
        spline_degree=index["degree"],
        interior_knots=index["interior_knots"],
        chains=chains,
    )
    config = RunConfig.from_dict(index["config"])
    return samples, config


# ---------------------------------------------------------------------------
# curve estimates CSV (plot-ready)

def write_curves_csv(path, bands: CurveBands) -> None:
    """One row per (curve j, grid point t) of ``bands``, curve by curve."""
    grid = bands.grid
    # Columns j, t, v, median, lower, upper of one curve's rows; j is set per curve.
    table = np.empty((grid.size, 6), dtype=object)
    table[:, 1] = range(grid.size)
    table[:, 2] = [FLOAT_FMT % v for v in grid]
    row_fmt = "%d,%d,%s," + ",".join([FLOAT_FMT] * 3) + "\n"
    # The rows of an all-zero curve after its "j": joined with str(j) as separator.
    zero_tails = [f",{t},{v},0,0,0\n" for t, v in zip(table[:, 1], table[:, 2])]
    with open(path, "w") as fh:
        fh.write("j,grid_index,v,median,lower,upper\n")
        for j, rows in enumerate(zip(bands.median, bands.lower, bands.upper)):
            if not any(b.any() or np.signbit(b).any() for b in rows):
                fh.write(str(j) + str(j).join(zero_tails))
                continue
            table[:, 0] = j
            table[:, 3], table[:, 4], table[:, 5] = rows
            _write_rows(fh, row_fmt, table)


def read_curves_csv(path) -> CurveBands:
    """The :class:`inference.CurveBands` a :func:`write_curves_csv` file holds."""
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_curves = int(body[:, 0].max()) + 1
    g = int(body[:, 1].max()) + 1
    if body.shape[0] != n_curves * g:
        raise ValueError("curves CSV has an incomplete grid")
    order = np.lexsort((body[:, 1], body[:, 0]))
    body = body[order]
    grid = body[:g, 2]
    med = body[:, 3].reshape(n_curves, g)
    low = body[:, 4].reshape(n_curves, g)
    upp = body[:, 5].reshape(n_curves, g)
    return CurveBands(grid, med, low, upp)
