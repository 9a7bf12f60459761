"""Run configuration and file persistence for the CLI workflow.

Formats:

* datasets: CSV with header ``V, E_1..E_q, X_1..X_p, Y``; floats carry 17
  significant digits so a write/read round trip is bit exact.
* posterior samples: one flat binary of concatenated C-order little-endian
  arrays (``samples.bin``) plus a JSON sidecar index (``samples.json``)
  holding dtypes, shapes, offsets, and the full run configuration.  Both
  files are byte-deterministic given the draws.  Format
  ``bayesqvc-samples-v2`` stores each chain's M draws sparsely, as in
  :class:`ChainSamples`: ``alpha0`` (M, d); ``rows`` (R, d), the included
  blocks' coefficients draw by draw, R the number of set flags; ``beta``
  (M, q); ``inclusion``, the (M, p) 0/1 flags bit-packed along the block
  axis by ``np.packbits`` (M * ceil(p / 8) bytes; the index gives the
  unpacked shape); then ``scalar:<name>`` (M,) and ``latent:<name>`` arrays.
  The older ``bayesqvc-samples-v1`` stores a dense ``alpha`` (M, p+1, d)
  and uint8 flags in place of the first four; it still loads.
* curves: CSV with header ``j, grid_index, v, median, lower, upper``, one
  row per (curve, grid point) of an :class:`inference.CurveBands`, curve by
  curve in grid order; floats carry 17 significant digits, and an all-+0.0
  curve is the fixed text ``j,t,v,0,0,0`` (:func:`_zero_curve_text`).  The
  reader takes that layout only: a file with no rows, a short last curve,
  rows out of that order or a curve off curve 0's v grid is a ValueError.
* summaries and metrics: JSON, always embedding the run configuration so a
  result is regenerable from the file alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import chain, islice, zip_longest
from pathlib import Path

import numpy as np

from .ald import ald_constants
from .basis import SplineConfig
from .data import Dataset
from .inference import CurveBands
from .samplers.config import McmcOptions, method_spec
from .samplers.state import ChainSamples, PosteriorSamples
from .samplers.variants import resolve_workers
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
        # Every config records tau, a Gaussian method's too, and a NaN could not
        # be written to the JSON outputs after the fit.
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau!r}")
        if method_spec(self.method).needs_tau:
            ald_constants(self.tau)  # raises on a tau whose ALD constants overflow
        resolve_workers(self.workers, self.chains)  # raises on a bad worker count

    def spline_config(self) -> SplineConfig:
        return SplineConfig(self.degree, self.interior_knots)

    def mcmc_options(self) -> McmcOptions:
        return McmcOptions(**{fld.name: getattr(self, fld.name) for fld in fields(McmcOptions)})

    def prior_config(self):
        cls = method_spec(self.method).prior
        return cls(**known_keys(cls, self.priors, f"{self.method} prior"))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        cfg = cls(**known_keys(cls, payload, "config"))
        cfg.validate()
        return cfg


def scenario_label(spec: ScenarioSpec) -> str:
    """A scenario's directory in a study; it leaves out n, p, seed and mixture_sd_or_var."""
    het = "het" if spec.heteroscedastic else "iid"
    hard = "-hard" if spec.hard_intercept else ""
    return f"{spec.covariate_kind}_{het}_{spec.error_kind}_tau{spec.tau}{hard}"


@dataclass
class StudyConfig:
    """A replicate study: seeded replicates of each (scenario, method) cell.

    JSON keys: replicates (integer >= 1); scenarios (non-empty list of objects
    with the simulate keys: integers n, p; strings covariate_kind, error_kind,
    mixture_sd_or_var; number tau; bools heteroscedastic, hard_intercept);
    methods (non-empty list of method names); optional base_seed (integer >= 0,
    default 0), spline (object of integers degree, interior_knots), mcmc (object
    of integers iterations, burn_in, thin, chains and bool store_latents), priors
    (object of numbers for every method), save_samples (bool, default false),
    workers (integer >= 1 or null: processes for the replicates, default one per
    usable CPU; with more than one, set OPENBLAS_NUM_THREADS=1, as for fit
    --workers), out_dir (string, default $BAYESQVC_OUT or .).  Replicate rep of
    each cell simulates and fits with seed base_seed + rep, so no scenario or
    mcmc object takes a seed.  Methods and scenario labels, which leave out n, p
    and mixture_sd_or_var, are unique.
    """

    replicates: int
    scenarios: list[ScenarioSpec]
    methods: list[str]
    base_seed: int = 0
    spline: SplineConfig = field(default_factory=SplineConfig)
    mcmc: McmcOptions = field(default_factory=McmcOptions)
    priors: dict = field(default_factory=dict)
    save_samples: bool = False
    workers: int | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError(f"study replicates must be an integer >= 1, got {self.replicates}")
        if self.base_seed < 0:
            raise ValueError(f"study base_seed must be an integer >= 0, got {self.base_seed}")
        for name in ("scenarios", "methods"):
            if not getattr(self, name):
                raise ValueError(f"study {name} must be a non-empty list")
        resolve_workers(self.workers, 1)  # raises on a bad worker count
        labels = [scenario_label(spec) for spec in self.scenarios]
        for what, names in (("scenario label", labels), ("method", self.methods)):
            repeated = [name for i, name in enumerate(names) if name in names[:i]]
            if repeated:
                raise ValueError(f"study has the {what} {repeated[0]!r} twice; "
                                 "each cell needs its own directory")
        for _, spec, method in self.cells():
            self.replicate(spec, method, 0)  # raises on a method, tau or prior it rejects

    def cells(self) -> list[tuple[str, ScenarioSpec, str]]:
        """The (label, scenario, method) of every cell, scenario by scenario."""
        return [(scenario_label(s), s, method) for s in self.scenarios for method in self.methods]

    def replicate(self, spec: ScenarioSpec, method: str, rep: int):
        """Replicate ``rep`` of a cell: its ScenarioSpec and its one-process RunConfig."""
        seed = self.base_seed + rep
        config = RunConfig(method=method, tau=spec.tau, **asdict(self.spline),
                           **asdict(replace(self.mcmc, seed=seed)), priors=self.priors,
                           workers=1)
        config.validate()
        return replace(spec, seed=seed), config

    @classmethod
    def from_dict(cls, payload: dict) -> "StudyConfig":
        study = dict(known_keys(cls, payload, "study"))
        study["scenarios"] = [
            _build(ScenarioSpec, spec, f"study scenarios[{i}]")
            for i, spec in enumerate(study["scenarios"])
        ]
        for name, part in (("spline", SplineConfig), ("mcmc", McmcOptions)):
            if name in study:
                study[name] = _build(part, study[name], f"study {name}")
        return cls(**study)


def _build(cls, payload: dict, what: str):
    """``cls`` of the :func:`known_keys` of ``payload`` but seed; range errors name ``what``."""
    kwargs = known_keys(cls, payload, what, ("seed",))
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


_KINDS = {"bool": (bool, "true or false"), "int": (int, "an integer"),
          "float": ((int, float), "a number"), "str": (str, "a string"),
          "dict": (dict, "an object"), "list": (list, "a list")}


def known_keys(cls, payload: dict, what: str, drop: tuple = ()) -> dict:
    """``payload`` if its keys name fields of dataclass ``cls`` but not ``drop``, it has
    each field without a default, and each value has the field's annotated type (only
    a bool field takes a bool, a float field also takes an int, ``list[...]`` is a list,
    ``X | None`` takes null, other types are not checked); else ValueError naming the
    keys or the first value of the wrong type."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be an object, got {payload!r}")
    by_name = {f.name: f for f in fields(cls) if f.name not in drop}
    unknown = sorted(set(payload) - set(by_name))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    missing = [name for name, f in by_name.items() if name not in payload
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")
    for name, value in payload.items():
        # Annotations are strings: every module here postpones their evaluation.
        annotation = by_name[name].type
        kind = annotation.removesuffix(" | None").partition("[")[0]
        if kind not in _KINDS or value is None and annotation.endswith(" | None"):
            continue
        if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _KINDS[kind][0]):
            raise ValueError(f"{what} {name} must be {_KINDS[kind][1]}, got {value!r}")
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

def _dataset_header(q: int, p: int) -> list[str]:
    return ["V", *(f"E_{k}" for k in range(1, q + 1)), *(f"X_{j}" for j in range(1, p + 1)), "Y"]


def write_dataset_csv(path, dataset: Dataset) -> None:
    header = _dataset_header(dataset.q, dataset.p)
    body = np.column_stack([dataset.v, dataset.e, dataset.x, dataset.y])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, ",".join([FLOAT_FMT] * body.shape[1]) + "\n", body)


def read_dataset_csv(path) -> Dataset:
    """The :class:`Dataset` of a :func:`write_dataset_csv` file.

    ValueError unless the header is exactly V, E_1..E_q, X_1..X_p, Y and
    every row has one value per header column.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        q = sum(name.startswith("E_") for name in header)
        p = sum(name.startswith("X_") for name in header)
        pairs = zip_longest(header, _dataset_header(q, p), fillvalue="nothing")
        for col, (got, want) in enumerate(pairs, start=1):
            if got != want:
                raise ValueError(f"dataset CSV header must be V, E_1..E_q, X_1..X_p, Y in "
                                 f"order: column {col} is {got}, expected {want}")
        # np.loadtxt only warns on an empty body, so look for a row first.
        start = fh.tell()
        if not any(line.strip() for line in fh):
            raise ValueError("dataset CSV has no data rows")
        fh.seek(start)
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if body.shape[1] != len(header):
        raise ValueError(f"dataset CSV header names {len(header)} columns, "
                         f"but its rows have {body.shape[1]}")
    v, e, x, y = body[:, 0], body[:, 1 : 1 + q], body[:, 1 + q : -1], body[:, -1]
    return Dataset(y=y, x=x, v=v, e=e)


# ---------------------------------------------------------------------------
# truth / scenario JSON

def write_truth(path, spec: ScenarioSpec, support, data_checksum: str) -> None:
    dump_json(path, {"scenario": asdict(spec), "support": sorted(support),
                     "data_checksum": data_checksum})


def load_truth(path):
    """The scenario, the true support and the data checksum (None in older files) of a truth file."""
    payload = load_json(path)
    spec = ScenarioSpec(**known_keys(ScenarioSpec, payload["scenario"], "scenario"))
    return spec, set(payload["support"]), payload.get("data_checksum")


# ---------------------------------------------------------------------------
# posterior samples: flat binary + JSON sidecar

SAMPLES_FORMAT = "bayesqvc-samples-v2"
# The ChainSamples fields a chain's index entry holds under their own names.
_CHAIN_FIELDS = ("seed", "stream_id", "iterations", "burn_in", "thin")


def _chain_array_items(chain: ChainSamples):
    """Fixed, deterministic array ordering within a chain; the flags are bit-packed."""
    items = [("alpha0", chain.alpha0), ("rows", chain.rows), ("beta", chain.beta),
             ("inclusion", np.packbits(chain.inclusion, axis=1))]
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
            arrays["inclusion"]["shape"] = list(chain.inclusion.shape)  # unpacked
            index_chains.append({**{k: getattr(chain, k) for k in _CHAIN_FIELDS},
                                 "arrays": arrays})
    dump_json(
        directory / "samples.json",
        {
            "format": SAMPLES_FORMAT,
            "method": samples.method,
            "tau": samples.tau,
            "degree": samples.spline_degree,
            "interior_knots": samples.interior_knots,
            "config": config.to_dict(),
            "chains": index_chains,
        },
    )


def _sparse_alpha(loaded: dict, version: str, where: str):
    """(alpha0, rows, inclusion) of one chain's ``loaded`` arrays; ValueError naming ``where``
    if its rows (v2) or its nonzero blocks (v1) disagree with its inclusion flags."""
    if version == "bayesqvc-samples-v1":
        alpha, inclusion = loaded["alpha"], loaded["inclusion"]
        if not np.array_equal(np.any(alpha[:, 1:] != 0.0, axis=2), inclusion != 0):
            raise ValueError(f"{where}: inclusion flags disagree with the nonzero alpha blocks")
        return alpha[:, 0].copy(), alpha[:, 1:][inclusion != 0], inclusion
    rows, inclusion = loaded["rows"], loaded["inclusion"]
    if rows.shape[0] != np.count_nonzero(inclusion):
        raise ValueError(f"{where}: {rows.shape[0]} alpha rows for "
                         f"{np.count_nonzero(inclusion)} inclusion flags")
    return loaded["alpha0"], rows, inclusion


def _read_array(blob: bytes, meta: dict, packed: bool, where: str) -> np.ndarray:
    """The array ``meta`` indexes in ``blob``; ValueError naming ``where`` unless its bytes lie
    inside the blob and their count matches the shape and dtype (bit-packed flags if
    ``packed``)."""
    dtype, shape = np.dtype(meta["dtype"]), [int(size) for size in meta["shape"]]
    start, nbytes = meta["offset"], meta["nbytes"]
    if not 0 <= start <= start + nbytes <= len(blob):
        raise ValueError(f"{where}: bytes {start} to {start + nbytes} lie outside the "
                         f"{len(blob)}-byte file")
    if packed:  # (M, p) flags stored as M rows of ceil(p / 8) bytes
        stored = [shape[0], (shape[1] + 7) // 8] if len(shape) == 2 else [-1]
    else:
        stored = shape
    if min(stored, default=0) < 0 or math.prod(stored) * dtype.itemsize != nbytes:
        raise ValueError(f"{where}: {nbytes} bytes do not hold a {dtype.str} array of "
                         f"shape {tuple(shape)}")
    arr = np.frombuffer(blob, dtype=dtype, count=math.prod(stored), offset=start).reshape(stored)
    return np.unpackbits(arr, axis=1, count=shape[1]) if packed else arr.copy()


def load_samples(directory):
    """The :class:`PosteriorSamples` and :class:`RunConfig` of a :func:`save_samples`
    directory, of format ``bayesqvc-samples-v2`` or the dense ``bayesqvc-samples-v1``."""
    directory = Path(directory)
    index = load_json(directory / "samples.json")
    version = index.get("format")
    if version not in ("bayesqvc-samples-v1", SAMPLES_FORMAT):
        raise ValueError(f"{directory / 'samples.json'} has the unrecognized samples format "
                         f"{version!r}")
    blob = (directory / "samples.bin").read_bytes()
    chains = []
    for i, entry in enumerate(index["chains"]):
        where = f"{directory / 'samples.bin'} chain {i}"
        loaded = {
            name: _read_array(blob, meta, name == "inclusion" and version == SAMPLES_FORMAT,
                              f"{where} array {name!r}")
            for name, meta in entry["arrays"].items()
        }
        alpha0, rows, inclusion = _sparse_alpha(loaded, version, where)
        named = {kind: {k.partition(":")[2]: v for k, v in loaded.items()
                        if k.startswith(kind + ":")} for kind in ("scalar", "latent")}
        chains.append(ChainSamples(**{k: entry[k] for k in _CHAIN_FIELDS}, alpha0=alpha0,
                                   rows=rows, beta=loaded["beta"], inclusion=inclusion,
                                   scalars=named["scalar"], latents=named["latent"]))
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

def _zero_curve_text(v_text):
    """The rows ``j,t,v,0,0,0`` of an all-+0.0 curve j on the grid of v texts ``v_text``, as a
    function of j: what :func:`write_curves_csv` writes for such a curve, and
    :func:`read_curves_csv` skips unparsed."""
    tails = [f",{t},{v},0,0,0\n" for t, v in enumerate(v_text)]
    return lambda j: str(j) + str(j).join(tails)


def write_curves_csv(path, bands: CurveBands) -> None:
    """One row per (curve j, grid point t) of ``bands``, curve by curve."""
    grid = bands.grid
    # Columns j, t, v, median, lower, upper of one curve's rows; j is set per curve.
    table = np.empty((grid.size, 6), dtype=object)
    table[:, 1] = range(grid.size)
    table[:, 2] = [FLOAT_FMT % v for v in grid]
    row_fmt = "%d,%d,%s," + ",".join([FLOAT_FMT] * 3) + "\n"
    zero_curve = _zero_curve_text(table[:, 2])
    with open(path, "w") as fh:
        fh.write("j,grid_index,v,median,lower,upper\n")
        for j, rows in enumerate(zip(bands.median, bands.lower, bands.upper)):
            if not any(b.any() or np.signbit(b).any() for b in rows):
                fh.write(zero_curve(j))
                continue
            table[:, 0] = j
            table[:, 3], table[:, 4], table[:, 5] = rows
            _write_rows(fh, row_fmt, table)


def read_curves_csv(path) -> CurveBands:
    """The :class:`inference.CurveBands` a :func:`write_curves_csv` file holds.

    Curve 0, the rows that start with ``0,``, fixes the grid size g, the grid
    indices 0..g-1 and the v values.  Each later curve j is the next g rows:
    the writer's all-zero text (:func:`_zero_curve_text`) reads as +0.0
    unparsed, and curve 0 and every other curve go through one streamed
    ``np.loadtxt``.  ValueError if there is no data row, if the last curve
    is short ("incomplete grid"), if a parsed row has not six columns, or if
    it lacks its curve's j, its grid index or curve 0's v there.
    """
    with open(path) as fh:
        fh.readline()
        first, line = [], next(fh, "")
        while line.startswith("0,"):
            first.append(line)
            line = next(fh, "")
        if not first:
            raise ValueError("curves CSV has no data rows" if not line.strip() else
                             f"curves CSV line 2 has curve {line.split(',')[0]}, where the "
                             "writer puts curve 0")
        g = len(first)
        # A row too short to hold a v fails in np.loadtxt.
        zero_curve = _zero_curve_text(["".join(row.split(",", 3)[2:3]) for row in first])
        rest = chain([line] if line else [], fh)
        live = [True]  # per curve read: False if it is the writer's all-zero text

        def live_rows():
            yield from first
            for j, head in enumerate(rest, start=1):
                block = [head, *islice(rest, g - 1)]
                if len(block) < g:
                    raise ValueError(f"curves CSV has an incomplete grid: its last curve, {j}, "
                                     f"has {len(block)} rows, and curve 0 has {g}")
                live.append("".join(block) != zero_curve(j))
                if live[-1]:
                    yield from block

        body = np.loadtxt(live_rows(), delimiter=",", ndmin=2)
    parsed = np.flatnonzero(live)
    if body.shape != (len(parsed) * g, 6):
        raise ValueError(f"curves CSV parsed into {body.shape[0]} rows of {body.shape[1]} "
                         f"values, where the writer puts {len(parsed) * g} rows of 6")
    # Row t of the k-th parsed curve, from line 2 + parsed[k] * g + t of the file.
    rows = body.reshape(len(parsed), g, 6)
    expected = {"curve": parsed[:, None], "grid index": np.arange(g), "v": body[:g, 2]}
    for column, (name, want) in enumerate(expected.items()):
        bad = np.argwhere(rows[..., column] != want)
        if bad.size:
            k, t = bad[0]
            raise ValueError(f"curves CSV line {2 + parsed[k] * g + t} has {name} "
                             f"{rows[k, t, column]:.17g}, where the writer puts {name} "
                             f"{np.broadcast_to(want, rows.shape[:2])[k, t]:.17g}")
    bands = rows.transpose(2, 0, 1)[3:]  # (3, curves parsed, g) views of the body
    if len(parsed) < len(live):
        bands, parsed_bands = np.zeros((3, len(live), g)), bands
        bands[:, parsed] = parsed_bands
    return CurveBands(body[:g, 2], *bands)
