"""Benchmark of the bayesqvc command line on the workloads in bench/workloads.py.

    python3 bench/run.py --workload paper_bqrvcss --seed 1 --seconds 50 --trace 0

A run sets up DATASETS_PER_RUN input sets in SETUP_PROCESSES fresh
interpreters (bench/prepare.py), then calls ``bayesqvc.cli.main`` in this process on
them in turn, one timed unit per call sequence, until ``--seconds`` is
spent.  Afterwards it checks every fit's outputs and prints one line per
metric, then a JSON object as the last line of standard output.

With ``--trace 1`` every second unit runs with the bayesqvc layers wrapped
(bench/layers.py); the JSON then holds the per-layer metrics, and
``trace.overhead_s`` compares the traced units with the plain ones.  Spans
and the run record are written under ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small, and on a host of few shared cores
# spinning BLAS threads measure the scheduler.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io as textio
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import workloads
from ess import bulk_ess
from reference import reference_seconds
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_TIMEOUT_S = 120
CURVE_POINTS = (0.1, 0.3, 0.5, 0.7, 0.9)
# The quality figures (ESS, TIMSE) come from the first unit on each of the
# first QUALITY_SETS input sets: they are not gated, and computing ESS for
# every fit would add seconds to each run.
QUALITY_SETS = 3
# Median seconds of one reference_seconds() pass on the 2-vCPU Xeon VM where
# the baseline was taken (bench/NOTES.md); the scale of the normalized times.
REFERENCE_NOMINAL_S = 0.15


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up and timed units

def set_up(name: str, seed: int, run_dir: Path, tracer: Tracer | None):
    """Prepare the input sets in SETUP_PROCESSES interpreters; returns (seconds, dirs)."""
    times, dirs = [], []
    per = workloads.SETS_PER_PROCESS
    for k in range(workloads.SETUP_PROCESSES):
        seeds = [workloads.dataset_seed(seed, j) for j in range(k * per, (k + 1) * per)]
        argv = [sys.executable, str(BENCH / "prepare.py"), "--workload", name,
                "--seeds", *map(str, seeds), "--out", str(run_dir / "data")]
        spans = run_dir / f"setup{k}.spans.json"
        if tracer is not None:
            argv += ["--spans", str(spans)]
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        end = perf_counter()
        if proc.returncode != 0:
            raise SetupError(f"set-up process {k} failed:\n{proc.stderr.strip()}")
        times.append(end - start)
        dirs += [run_dir / "data" / str(s) for s in seeds]
        if tracer is not None:
            tracer.spans.append(["setup", start, end, -1])
            tracer.add_spans(json.loads(spans.read_text()), len(tracer.spans) - 1)
    return times, dirs


def run_unit(cli, name: str, seed: int, data: Path, out: Path, log: Path,
             tracer: Tracer | None) -> dict:
    """Run one unit's CLI commands in this process, timing each."""
    record = {"dataset_seed": seed, "traced": tracer is not None, "out": str(out),
              "commands": {}, "failed_commands": []}
    text = textio.StringIO()
    for label, argv in workloads.commands(name, seed, data, out):
        span = tracer.span(f"cmd.{label}") if tracer else contextlib.nullcontext()
        start = perf_counter()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text), span:
            try:
                code = cli.main(argv)
            except Exception:  # a crash fails this unit's fits, not the run
                traceback.print_exc(file=text)
                code = -1
        record["commands"][label] = perf_counter() - start
        if code != 0:
            record["failed_commands"].append(label)
    record["wall_s"] = sum(record["commands"].values())
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log.write_text(text.getvalue())
    return record


def run_units(cli, name: str, seed: int, data_dirs: list[Path], run_dir: Path,
              seconds: float, tracer: Tracer | None) -> list[dict]:
    """Timed units until ``seconds`` would be exceeded.

    A plain run takes the input sets in turn; a traced run alternates plain
    and traced units on the same input set.  Either runs two units at least.
    The reference kernel runs before the first unit and after every unit;
    each unit's ``ref_s`` is the mean of the two passes around it.
    """
    count = len(data_dirs)
    units: list[dict] = []
    start = perf_counter()
    ref_before = reference_seconds()
    while True:
        i = len(units)
        traced = tracer is not None and i % 2 == 1
        k = (i // 2 if tracer else i) % count
        if traced:
            layers.install(tracer)
        try:
            units.append(run_unit(cli, name, workloads.dataset_seed(seed, k), data_dirs[k],
                                  run_dir / f"unit{i}", run_dir / f"unit{i}.log",
                                  tracer if traced else None))
        finally:
            if traced:
                tracer.unwrap_all()
        ref_after = reference_seconds()
        units[-1]["ref_s"] = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        elapsed = perf_counter() - start
        if len(units) >= 2 and elapsed * (len(units) + 1) / len(units) > seconds:
            return units


# ---------------------------------------------------------------------------
# output checks and quality figures

def chain_ess(draws_per_chain) -> float:
    """Bulk ESS of one quantity, computed chain by chain and summed."""
    return float(sum(bulk_ess(np.asarray(d, dtype=float)[None, :]) for d in draws_per_chain))


def check_fit(bq, fit_dir: Path, expect_support, tracer: Tracer | None,
              with_ess: bool = True) -> dict:
    """Facts about one fit and the list of its failed checks; ESS only if ``with_ess``."""
    facts = {"dir": str(fit_dir), "problems": []}
    problems = facts["problems"]
    try:
        summary = json.loads((fit_dir / "fit_summary.json").read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"no fit summary: {exc}")
        return facts
    config = summary["config"]
    facts["method"] = summary["method"]
    facts["sampler_s"] = summary["wallclock_seconds"]
    facts["sweeps"] = config["iterations"] * config["chains"]
    span = tracer.span("io.load_samples") if tracer else contextlib.nullcontext()
    try:
        with span:
            samples, _ = bq.io.load_samples(fit_dir)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"samples.bin does not load: {exc}")
        return facts
    for chain in samples.chains:
        arrays = [chain.alpha, chain.beta, *chain.scalars.values(), *chain.latents.values()]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append(f"non-finite draw in chain {chain.stream_id}")
        active = np.any(chain.alpha[:, 1:, :] != 0.0, axis=2)
        if not np.array_equal(active, chain.inclusion.astype(bool)):
            problems.append(f"inclusion flags disagree with alpha in chain {chain.stream_id}")
    try:
        _, med, low, upp = bq.io.read_curves_csv(fit_dir / "curves.csv")
    except (OSError, ValueError) as exc:
        problems.append(f"curves.csv does not load: {exc}")
    else:
        if not (np.all(np.isfinite(med)) and np.all(low <= med) and np.all(med <= upp)):
            problems.append("curve bands do not bracket the median")
    selected = summary["selected"]
    if expect_support is not None:
        missed = sorted(set(expect_support) - set(selected))
        if missed:
            problems.append(f"true blocks {missed} not selected (selected {selected})")
        facts["extra_selected"] = sorted(set(selected) - set(expect_support))

    facts["samples_bytes"] = (fit_dir / "samples.bin").stat().st_size
    facts["curves_bytes"] = (fit_dir / "curves.csv").stat().st_size
    facts["spike_share"] = 1.0 - float(samples.pooled_inclusion().mean())
    scale = "theta" if "theta" in samples.chains[0].scalars else "sigma_sq"
    if with_ess:
        facts["scale_ess"] = chain_ess(c.scalars[scale] for c in samples.chains)
    if with_ess and selected:
        basis = bq.basis.basis_values(np.array(CURVE_POINTS),
                                      bq.basis.SplineConfig(samples.spline_degree,
                                                            samples.interior_knots))
        facts["curve_ess"] = min(
            chain_ess(c.alpha[:, j, :] @ b for c in samples.chains)
            for j in selected for b in basis)
    try:
        facts["timse"] = json.loads((fit_dir / "metrics.json").read_text())["timse"]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"no evaluation: {exc}")
    return facts


def check_units(bq, name: str, units: list[dict], tracer: Tracer | None):
    """Check every fit of every unit, storing its facts on the unit; returns (attempted, failed).

    A fit fails when a command of its unit failed, when its outputs are
    missing, or when one of the checks in :func:`check_fit` fails.
    """
    expect = workloads.TRUE_SUPPORT if name == "paper_bqrvcss" else None
    expected = workloads.expected_fits(name)
    attempted = failed = 0
    seen = set()
    for unit in units:
        with_ess = unit["dataset_seed"] not in seen and len(seen) < QUALITY_SETS
        seen.add(unit["dataset_seed"])
        dirs = workloads.fit_dirs(name, Path(unit["out"]))
        span_tracer = tracer if unit["traced"] else None
        unit["fits"] = [check_fit(bq, d, expect, span_tracer, with_ess=with_ess) for d in dirs]
        bad = sum(1 for f in unit["fits"] if f["problems"])
        if unit["failed_commands"]:
            bad = len(unit["fits"])
        attempted += expected
        failed += min(expected, bad + max(0, expected - len(dirs)))
    return attempted, failed


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    env["caches_per_cpu0"] = caches
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads()
    return env


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


# ---------------------------------------------------------------------------
# metrics

def median(values):
    values = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(values) if values else 0.0


def unit_sweep_ms(unit: dict) -> float | None:
    """Program-reported sampler seconds per sweep over the unit's fits, in ms."""
    fits = [f for f in unit["fits"] if "sampler_s" in f]
    sweeps = sum(f["sweeps"] for f in fits)
    return 1000.0 * sum(f["sampler_s"] for f in fits) / sweeps if sweeps else None


def end_to_end(units: list[dict], setup_times: list[float]) -> dict:
    """End-to-end metrics over the plain (untraced) units.

    A unit's time is divided by the reference kernel's time around it and
    multiplied by REFERENCE_NOMINAL_S: seconds as they would read on a host
    running the kernel at its nominal speed.  On a shared host whose speed
    drifts for minutes at a time, this ratio holds where the raw times do
    not.  Set-up time is not normalized: it is mostly interpreter start and
    imports, which do not follow the kernel's speed.  The metrics are
    medians over the run's units and set-ups.  Peak
    RSS is read after the first unit, before repeated units can fragment
    the heap, as one CLI process per command would see it.
    """
    plain = [u for u in units if not u["traced"]]
    scale = [REFERENCE_NOMINAL_S / u["ref_s"] for u in plain]
    sweep = [(v * f if v is not None else None) for v, f in zip(map(unit_sweep_ms, plain), scale)]
    return {
        "setup_s": (median(setup_times), "s"),
        "wall_norm_s": (median(u["wall_s"] * f for u, f in zip(plain, scale)), "s"),
        "sweep_norm_ms": (median(sweep), "ms"),
        "peak_rss_mb": (plain[0]["peak_rss_mb"], "MB"),
    }


def raw_times(units: list[dict]) -> dict:
    """The unnormalized medians behind :func:`end_to_end`, and the reference's own time."""
    plain = [u for u in units if not u["traced"]]
    return {
        "wall_s": (median(u["wall_s"] for u in plain), "s"),
        "sweep_ms": (median(map(unit_sweep_ms, plain)), "ms"),
        "reference_s": (median(u["ref_s"] for u in units), "s"),
    }


def quality(units: list[dict]) -> dict:
    """Seed-dependent output figures over the fits checked with ESS (see check_units)."""
    fits = [f for unit in units for f in unit["fits"] if "scale_ess" in f]
    return {
        "ess_per_s": (median(f["scale_ess"] / f["sampler_s"] for f in fits), "1/s"),
        "curve_ess_per_s": (median(f["curve_ess"] / f["sampler_s"]
                                   for f in fits if "curve_ess" in f), "1/s"),
        "timse": (median(f.get("timse") for f in fits), "1"),
    }


def fit_layers(units: list[dict]) -> dict:
    """Per-fit figures read from the outputs, split by sampler engine."""
    fits = [f for u in units for f in u["fits"] if "spike_share" in f]
    out = {}
    for engine, methods in (("quantile", ("bqrvcss", "bqrvc")), ("gaussian", ("bvcss", "bvc"))):
        shares = [f["spike_share"] for f in fits if f["method"] in methods]
        out[f"{engine}.spike_share"] = (statistics.fmean(shares) if shares else 0.0, "ratio")
    out["io.samples_bytes"] = (median(f["samples_bytes"] for f in fits), "B")
    out["io.curves_bytes"] = (median(f["curves_bytes"] for f in fits), "B")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bayesqvc" / "cli.py").is_file():
        print(f"bench: bayesqvc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bayesqvc.basis
    import bayesqvc.cli
    import bayesqvc.io

    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        setup_times, data_dirs = set_up(args.workload, args.seed, run_dir, tracer)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    units = run_units(bayesqvc.cli, args.workload, args.seed, data_dirs, run_dir,
                      args.seconds, tracer)
    attempted, failed = check_units(bayesqvc, args.workload, units, tracer)

    e2e = end_to_end(units, setup_times)
    report = {**e2e,
              **raw_times(units),
              **quality(units),
              "error_rate": (failed / attempted, "1")}
    per_layer = {}
    if tracer is not None:
        per_layer.update(layers.per_layer(tracer.totals(), tracer.counters))
        per_layer.update(fit_layers(units))
        per_layer.update({k: report[k] for k in ("ess_per_s", "curve_ess_per_s", "timse",
                                                  "error_rate")})
        traced = median(u["wall_s"] for u in units if u["traced"])
        per_layer["trace.overhead_s"] = (traced - report["wall_s"][0], "s")
        tracer.dump(run_dir / "spans.json")

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s": setup_times,
              "units": units, "attempted": attempted, "failed": failed,
              "metrics": {k: v[0] for k, v in {**report, **per_layer}.items()}}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, default=str))
    for unit in units:
        shutil.rmtree(unit["out"], ignore_errors=True)

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print("environment " + json.dumps(env, sort_keys=True))
    plain_units = sum(1 for u in units if not u["traced"])
    print(f"units {len(units)} ({plain_units} plain), fits attempted {attempted}, failed {failed}")
    for unit in units:
        for f in unit["fits"]:
            for problem in f["problems"]:
                print(f"FAILED {f['dir']}: {problem}")
            if f.get("extra_selected"):
                print(f"note {f['dir']}: also selected {f['extra_selected']} outside the support")
    for key, (value, unit) in {**report, **per_layer}.items():
        note = " (computed from array sizes, not measured)" if key in (
            "basis.design_bytes", "common.grams_bytes") else ""
        print(f"{key} = {value:.6g} {unit}{note}")
    chosen = per_layer if tracer is not None else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
