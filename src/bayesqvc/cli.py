"""Command-line driver: simulate -> fit -> evaluate -> diagnose workflows.

Subcommands: ``simulate``, ``fit``, ``evaluate``, ``diagnose``,
``replicate-study``.  The default output directory can be set with the
``BAYESQVC_OUT`` environment variable.  Every JSON output embeds the run
configuration, so any result is regenerable from the file alone.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import inference, metrics
from .diagnostics import PSRF_CUTOFF, psrf_report, psrf_report_trace, tracked_parameters
from .io import (
    RunConfig,
    StudyConfig,
    dump_json,
    known_keys,
    load_json,
    load_samples,
    load_truth,
    read_curves_csv,
    read_dataset_csv,
    save_samples,
    scenario_label,
    write_curves_csv,
    write_dataset_csv,
    write_truth,
)
from .samplers import fit as run_fit
from .samplers.config import METHODS, method_spec
from .samplers.variants import map_in_order, resolve_workers
from .simulate import (
    COVARIATE_KINDS,
    ERROR_KINDS,
    ScenarioSpec,
    TrueCurves,
    simulate_dataset,
)

ENV_OUT_DIR = "BAYESQVC_OUT"


def _default_out() -> str:
    return os.environ.get(ENV_OUT_DIR, ".")


def _out_dir(args) -> Path:
    out = Path(args.out if args.out is not None else _default_out())
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    spec = ScenarioSpec(**{fld.name: getattr(args, fld.name) for fld in fields(ScenarioSpec)})
    dataset, _, support = simulate_dataset(spec)
    out = _out_dir(args)
    write_dataset_csv(out / "dataset.csv", dataset)
    write_truth(out / "truth.json", spec, support, dataset.checksum())
    dump_json(out / "scenario.json", asdict(spec))
    print(f"wrote {out / 'dataset.csv'} ({dataset.n} rows, p={dataset.p})")
    return 0


# ---------------------------------------------------------------------------
# fit

def _config_from_args(args) -> RunConfig:
    """The ``--config`` file, if any, overridden by the flags given; flag dests are field names."""
    payload = known_keys(RunConfig, load_json(args.config), "config") if args.config else {}
    for name in (fld.name for fld in fields(RunConfig)):
        if name != "priors" and getattr(args, name) is not None:
            payload[name] = getattr(args, name)
    priors = dict(payload.get("priors", {}))
    for item in args.prior or []:
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--prior expects key=value, got {item!r}")
        try:
            priors[key] = float(value)
        except ValueError:
            raise ValueError(f"--prior {key} must be a number, got {value!r}") from None
    payload["priors"] = priors
    config = RunConfig.from_dict(payload)
    return config


def fit_and_summarize(dataset, config: RunConfig, out: Path, write_samples: bool = True):
    """Run the requested chains, persist samples, curves, and summary JSON.

    ``samples.bin``/``samples.json`` are written only if ``write_samples``.
    Returns the summary and the curve bands written to ``curves.csv``.
    """
    workers = resolve_workers(config.workers, config.chains)
    start = time.perf_counter()
    samples = run_fit(
        dataset,
        config.method,
        spline_config=config.spline_config(),
        prior=config.prior_config(),
        tau=config.tau,
        opts=config.mcmc_options(),
        workers=workers,
    )
    sampled = time.perf_counter()
    wallclock = sampled - start

    bands = inference.all_curve_estimates(samples)
    summary = {
        "config": config.to_dict(),
        "method": config.method,
        "n": dataset.n,
        "p": dataset.p,
        "q": dataset.q,
        "d": config.spline_config().basis_count,
        "data_checksum": dataset.checksum(),
        "chains": [c.stream_id for c in samples.chains],
        "stored_draws": sum(c.stored for c in samples.chains),
        "wallclock_seconds": wallclock,
        "workers_used": workers,
        "scalar_summaries": inference.posterior_scalar_summaries(samples),
    }
    summary["selection_rule"], summary["selected"], probs = inference.selection(samples)
    if probs is not None:
        summary["inclusion_probabilities"] = probs.tolist()

    if write_samples:
        save_samples(out, samples, config)
    write_curves_csv(out / "curves.csv", bands)
    summary["output_seconds"] = time.perf_counter() - sampled
    dump_json(out / "fit_summary.json", summary)
    return summary, bands


def cmd_fit(args) -> int:
    config = _config_from_args(args)
    dataset = read_dataset_csv(args.data)
    out = _out_dir(args)
    summary, _ = fit_and_summarize(dataset, config, out)
    print(
        f"method={config.method} selected={summary['selected']} "
        f"({summary['wallclock_seconds']:.1f}s); outputs in {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate

def evaluate_fit(fit_dir: Path, truth_path: Path) -> dict:
    """Score the ``curves.csv`` and ``fit_summary.json`` of a fit directory against a truth file.

    The truth must be of the scenario the fit was run on: ValueError names
    the first of n, p and (for a quantile method) tau that differs, or both
    files if each holds a data checksum and they differ.  Files written
    before the checksum was recorded get the n, p and tau check alone.
    """
    bands = read_curves_csv(fit_dir / "curves.csv")
    summary = load_json(fit_dir / "fit_summary.json")
    if len(bands.median) != summary["p"] + 1:
        raise ValueError(f"{fit_dir / 'curves.csv'} holds {len(bands.median)} curves, but the "
                         f"fit has p = {summary['p']}, so it needs {summary['p'] + 1}")
    spec, support, truth_checksum = load_truth(truth_path)
    fitted = {"n": summary["n"], "p": summary["p"]}
    if method_spec(summary["method"]).needs_tau:
        fitted["tau"] = summary["config"]["tau"]
    for key, value in fitted.items():
        if getattr(spec, key) != value:
            raise ValueError(f"{truth_path} is the truth of a scenario with {key} = "
                             f"{getattr(spec, key)!r}, but the fit in {fit_dir} has "
                             f"{key} = {value!r}")
    fit_checksum = summary.get("data_checksum")
    if truth_checksum and fit_checksum and truth_checksum != fit_checksum:
        raise ValueError(f"{truth_path} is the truth of data with checksum {truth_checksum}, but "
                         f"{fit_dir / 'fit_summary.json'} was fitted to data with checksum "
                         f"{fit_checksum}")
    return evaluate_curves(bands, summary, spec, support)


def evaluate_curves(bands, summary: dict, spec: ScenarioSpec, support) -> dict:
    """Metrics of one fit's curve bands and selection against the scenario it was fitted to."""
    grid, med, low, upp = bands
    truth = TrueCurves(hard_intercept=spec.hard_intercept).table(len(med), grid)
    per_curve = metrics.imse(med, truth).tolist()
    covered = metrics.coverage(low, upp, truth)
    cov = {str(j): float(covered[j]) for j in range(min(4, len(med)))}
    selected = summary["selected"]
    return {
        "config": summary["config"],
        "selected": selected,
        "true_support": sorted(support),
        "classification": metrics.classify_fit(selected, support),
        "imse": per_curve,
        "timse": metrics.timse(per_curve),
        "coverage": cov,
    }


def aggregate_metrics(rows: list[dict]) -> dict:
    labels = [row["classification"] for row in rows]
    timses = [row["timse"] for row in rows]
    agg = {
        "replicates": len(rows),
        "C": labels.count("C") / len(rows),
        "O": labels.count("O") / len(rows),
        "U": labels.count("U") / len(rows),
        "timse_mean": float(np.mean(timses)),
        "timse_sd": float(np.std(timses, ddof=1)) if len(rows) > 1 else 0.0,
        "timse_cell": metrics.mean_sd_cell(timses),
    }
    for j in rows[0]["coverage"]:
        agg[f"coverage_{j}"] = float(np.mean([row["coverage"][j] for row in rows]))
    return agg


def cmd_evaluate(args) -> int:
    fits = [Path(f) for f in args.fit]
    truths = [Path(t) for t in args.truth]
    if len(truths) == 1:
        truths = truths * len(fits)
    if len(truths) != len(fits):
        raise ValueError("--truth must be given once or once per --fit")
    for path in truths:
        if not path.exists():
            raise FileNotFoundError(f"truth file not found: {path}")
    rows = [evaluate_fit(fit_dir, truth) for fit_dir, truth in zip(fits, truths)]
    payload = rows[0] if len(rows) == 1 else {"fits": rows, "aggregate": aggregate_metrics(rows)}
    out = Path(args.out) if args.out else None
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        dump_json(out, payload)
        print(f"wrote {out}")
    else:
        import json as _json

        print(_json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# diagnose

def cmd_diagnose(args) -> int:
    samples, config = load_samples(Path(args.fit))
    tracked = tracked_parameters(samples)
    values, degenerate = psrf_report(tracked)
    converged = all(v <= PSRF_CUTOFF for v in values.values())
    length = samples.chains[0].stored
    if args.checkpoints:
        checkpoints = [c for c in args.checkpoints if c <= length]
        for c in sorted(set(args.checkpoints) - set(checkpoints)):
            print(f"warning: checkpoint {c} is past the {length} draws per chain; dropped",
                  file=sys.stderr)
        if not checkpoints:
            raise ValueError(f"no checkpoint within the {length} draws per chain")
    else:
        checkpoints = list(range(1000, length + 1, 1000)) or [length]
    trace = psrf_report_trace(tracked, checkpoints)
    payload = {
        "config": config.to_dict(),
        "cutoff": PSRF_CUTOFF,
        "converged": converged,
        "psrf": values,
        "degenerate": degenerate,
        "trace": trace,
    }
    out = Path(args.out) if args.out else Path(args.fit) / "psrf.json"
    dump_json(out, payload)
    flag = "converged" if converged else "NOT converged"
    print(f"{flag}: max split PSRF {max(values.values()):.4f} over "
          f"{len(values)} tracked parameters; wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# replicate-study

def run_replicate(study: StudyConfig, scenario: ScenarioSpec, method: str, rep: int,
                  rep_dir: Path) -> dict:
    """Simulate, fit and score one replicate in ``rep_dir``; returns its metrics.

    The chains run one after another in this process, so a replicate can
    itself run in a worker process of the study.
    """
    spec, config = study.replicate(scenario, method, rep)
    dataset, _, support = simulate_dataset(spec)
    rep_dir.mkdir(parents=True, exist_ok=True)
    summary, bands = fit_and_summarize(dataset, config, rep_dir, write_samples=study.save_samples)
    write_truth(rep_dir / "truth.json", spec, support, summary["data_checksum"])
    result = evaluate_curves(bands, summary, spec, support)
    result["wallclock_seconds"] = summary["wallclock_seconds"]
    dump_json(rep_dir / "metrics.json", result)
    return result


def _study_task(job) -> None:
    """One replicate, then its ``manifest.json``, written atomically."""
    study, scenario, method, rep, rep_dir, workers = job
    result = run_replicate(study, scenario, method, rep, rep_dir)
    result["workers_used"] = workers
    manifest = rep_dir / "manifest.json"
    tmp = manifest.with_suffix(".tmp")
    dump_json(tmp, result)
    tmp.rename(manifest)


def _check_resumed(rep_dir: Path, spec: ScenarioSpec, config: RunConfig) -> None:
    """ValueError naming the first key where a finished replicate's manifest config or
    truth scenario differs from what the study gives now."""
    for file, part, current in (("manifest.json", "config", config.to_dict()),
                                ("truth.json", "scenario", asdict(spec))):
        saved = load_json(rep_dir / file)[part]
        for key in sorted(saved.keys() | current.keys()):
            if saved.get(key) != current.get(key):
                raise ValueError(f"{rep_dir} has {file} {part} {key} = {saved.get(key)!r}, "
                                 f"but the study now gives {current.get(key)!r}; remove that "
                                 "replicate directory to rerun it")


def cmd_replicate_study(args) -> int:
    """Run every replicate without a ``manifest.json``, then aggregate all of them.

    The pending replicates run on the study's ``workers`` processes (default:
    one per usable CPU).  Progress lines and the aggregate follow the fixed
    (scenario, method, replicate) order, so no output but the timing fields
    depends on the process count.  A replicate with a manifest is reused only
    if the study still gives its config and scenario; else nothing runs.
    """
    study = StudyConfig.from_dict(load_json(args.config))
    out = Path(args.out or (_default_out() if study.out_dir is None else study.out_dir))
    out.mkdir(parents=True, exist_ok=True)
    cells, pending = [], []
    for label, scenario, method in study.cells():
        rep_dirs = [out / label / method / f"rep_{rep:04d}" for rep in range(study.replicates)]
        cells.append((label, method, rep_dirs))
        for rep, rep_dir in enumerate(rep_dirs):
            if (rep_dir / "manifest.json").exists():
                _check_resumed(rep_dir, *study.replicate(scenario, method, rep))
            else:
                pending.append((scenario, method, rep, rep_dir))
    workers = resolve_workers(study.workers, len(pending))
    done = map_in_order(_study_task, [(study, *task, workers) for task in pending], workers)
    for (scenario, method, rep, _), _ in zip(pending, done):
        print(f"{scenario_label(scenario)}/{method} replicate {rep + 1}/{study.replicates} done",
              flush=True)
    aggregate_rows = []
    for label, method, rep_dirs in cells:
        rows = [load_json(rep_dir / "manifest.json") for rep_dir in rep_dirs]
        aggregate_rows.append({"scenario": label, "method": method, **aggregate_metrics(rows)})
    dump_json(out / "aggregate.json", aggregate_rows)
    keys = list(aggregate_rows[0].keys())
    with open(out / "aggregate.csv", "w") as fh:
        fh.write(",".join(keys) + "\n")
        for row in aggregate_rows:
            fh.write(",".join(str(row[k]) for k in keys) + "\n")
    print(f"wrote {out / 'aggregate.csv'}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bayesqvc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag dests are ScenarioSpec field names.
    sim = sub.add_parser("simulate", help="generate one simulated dataset")
    sim.add_argument("--n", type=int, default=200)
    sim.add_argument("--p", type=int, default=100)
    sim.add_argument("--covariate-kind", choices=COVARIATE_KINDS, default="gene")
    sim.add_argument("--error", dest="error_kind", choices=ERROR_KINDS, default="normal")
    sim.add_argument("--heteroscedastic", action="store_true")
    sim.add_argument("--tau", type=float, default=0.5)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--hard-intercept", action="store_true")
    sim.add_argument("--mixture-sd-or-var", choices=("sd", "var"), default="var")
    sim.add_argument("--out", default=None, help=f"output dir (default ${ENV_OUT_DIR} or .)")
    sim.set_defaults(func=cmd_simulate)

    fit_p = sub.add_parser("fit", help="fit one method to a dataset CSV")
    fit_p.add_argument("--data", required=True)
    fit_p.add_argument("--config", default=None, help="RunConfig JSON (flags override)")
    fit_p.add_argument("--method", choices=tuple(METHODS), default=None)
    fit_p.add_argument("--tau", type=float, default=None)
    fit_p.add_argument("--degree", type=int, default=None)
    fit_p.add_argument("--interior-knots", type=int, default=None)
    fit_p.add_argument("--iterations", type=int, default=None)
    fit_p.add_argument("--burn-in", type=int, default=None)
    fit_p.add_argument("--thin", type=int, default=None)
    fit_p.add_argument("--chains", type=int, default=None)
    fit_p.add_argument("--seed", type=int, default=None)
    fit_p.add_argument("--store-latents", action="store_true", default=None)
    fit_p.add_argument(
        "--workers", type=int, default=None,
        help="processes for the chains (default: one per usable CPU, at most one per "
             "chain; 1 runs them in this process); the draws do not depend on it. With "
             "more than one, set OPENBLAS_NUM_THREADS=1 (or your BLAS's thread variable): "
             "each worker otherwise runs the default BLAS threads, and on 2 vCPUs a 2-chain "
             "paper-shape bqrvc fit took 1.82 s, against 0.49 s with one thread",
    )
    fit_p.add_argument("--prior", action="append", metavar="KEY=VALUE")
    fit_p.add_argument("--out", default=None)
    fit_p.set_defaults(func=cmd_fit)

    ev = sub.add_parser("evaluate", help="score persisted fits against the truth")
    ev.add_argument("--fit", nargs="+", required=True, help="fit output dir(s)")
    ev.add_argument("--truth", nargs="+", required=True, help="truth JSON (1 or per fit)")
    ev.add_argument("--out", default=None, help="metrics JSON path (default: stdout)")
    ev.set_defaults(func=cmd_evaluate)

    diag = sub.add_parser("diagnose", help="split-chain PSRF convergence report for a fit")
    diag.add_argument("--fit", required=True,
                      help="fit output dir; every chain, even a single one, is split into "
                           "halves, so each needs at least 4 stored draws")
    diag.add_argument("--checkpoints", nargs="*", type=int, default=None,
                      help="stored draws per chain (each >= 4) at which to trace the PSRF; "
                           "default every 1000, or the chain length if shorter")
    diag.add_argument("--out", default=None)
    diag.set_defaults(func=cmd_diagnose)

    rep = sub.add_parser("replicate-study", help="scenario grid with seeded replicates")
    rep.add_argument(
        "--config", required=True,
        help="study config JSON. " + StudyConfig.__doc__,
    )
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=cmd_replicate_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
