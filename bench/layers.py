"""The bayesqvc functions the traced run wraps, and the per-layer metrics built from them.

Each function is wrapped where its caller looks it up: the sweep stages in
their engine module, the shared kernels under the names each engine
imported, and the CLI's helpers in ``bayesqvc.cli``.  Only public functions
are wrapped; ``_draw_block`` would add p spans per sweep, and the self time
of ``update_alpha_blocks`` already holds its per-block loop.
"""

from __future__ import annotations

ENGINE_STAGES = {
    "quantile": ("update_latent_u", "update_alpha_blocks", "refresh_residual", "update_alpha0",
                 "update_beta", "update_theta", "update_eta_sq", "update_g", "update_pi0"),
    "gaussian": ("update_alpha_blocks", "refresh_residual", "update_alpha0", "update_beta",
                 "update_sigma_sq", "update_lambda_sq", "update_zeta_sq", "update_pi0"),
}
COMMON_KERNELS = ("weighted_block_grams", "covariance_factors")
INFERENCE = ("all_curve_estimates", "inclusion_probabilities", "ci_selection",
             "posterior_scalar_summaries")
CLI_IO = ("read_dataset_csv", "save_samples", "write_curves_csv", "load_samples")
BYTES = 8  # float64


def _grams_bytes(args, kwargs):
    """Computed bytes read by one grams call: the block tensor and the weights."""
    blocks = args[0]
    weights = args[1] if len(args) > 1 else kwargs.get("weights")
    return "common.grams_bytes", blocks.nbytes + (0 if weights is None else weights.nbytes)


def _design_bytes(args, kwargs):
    """Computed size of the (p+1, n, d) float64 design tensor one expansion builds."""
    dataset, config = args[0], args[1]
    return "basis.design_bytes", (dataset.p + 1) * dataset.n * config.basis_count * BYTES


def install(tracer) -> None:
    from bayesqvc import cli, inference
    from bayesqvc.samplers import gaussian, quantile

    for engine, module in (("quantile", quantile), ("gaussian", gaussian)):
        for stage in ENGINE_STAGES[engine]:
            tracer.wrap(module, stage, f"{engine}.{stage}")
        tracer.wrap(module, "weighted_block_grams", "common.weighted_block_grams",
                    count=_grams_bytes)
        tracer.wrap(module, "covariance_factors", "common.covariance_factors")
        tracer.wrap(module, "expand_design", "basis.expand_design", count=_design_bytes)
    tracer.wrap(cli, "run_fit", "variants.fit")
    for name in INFERENCE:
        tracer.wrap(inference, name, f"inference.{name}")
    for name in CLI_IO:
        tracer.wrap(cli, name, f"io.{name}")
    tracer.wrap(cli, "psrf_report", "diagnostics.psrf_report")
    tracer.wrap(cli, "psrf_report_trace", "diagnostics.psrf_report_trace")
    tracer.wrap(cli, "simulate_dataset", "simulate.simulate_dataset")
    tracer.wrap(cli, "evaluate_fit", "cli.evaluate_fit")


def per_layer(totals: dict, counters: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from span totals: stage self ms per sweep, other calls per call.

    A layer that did not run in the workload reads 0.
    """
    def row(name):
        return totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_call(name, scale=1000.0):
        r = row(name)
        return scale * r["total_s"] / r["calls"] if r["calls"] else 0.0

    out: dict[str, tuple[float, str]] = {}
    all_sweeps = 0
    sweep_self = 0.0
    for engine, stages in ENGINE_STAGES.items():
        sweeps = row(f"{engine}.update_alpha_blocks")["calls"]
        all_sweeps += sweeps
        for stage in stages:
            self_s = row(f"{engine}.{stage}")["self_s"]
            sweep_self += self_s
            out[f"{engine}.{stage}_ms"] = (1000.0 * self_s / sweeps if sweeps else 0.0, "ms/sweep")
    for kernel in COMMON_KERNELS:
        self_s = row(f"common.{kernel}")["self_s"]
        sweep_self += self_s
        out[f"common.{kernel}_ms"] = (1000.0 * self_s / all_sweeps if all_sweeps else 0.0,
                                      "ms/sweep")
    out["common.grams_bytes"] = (
        counters.get("common.grams_bytes", 0.0) / all_sweeps if all_sweeps else 0.0, "B/sweep")
    fit = row("variants.fit")
    out["variants.fit_s"] = (per_call("variants.fit", 1.0), "s/call")
    out["trace.stage_coverage"] = (sweep_self / fit["total_s"] if fit["total_s"] else 0.0, "ratio")
    expand = row("basis.expand_design")["calls"]
    out["basis.expand_design_ms"] = (per_call("basis.expand_design"), "ms/call")
    out["basis.design_bytes"] = (
        counters.get("basis.design_bytes", 0.0) / expand if expand else 0.0, "B")
    out["inference.all_curve_estimates_ms"] = (per_call("inference.all_curve_estimates"),
                                               "ms/call")
    selection = [row(f"inference.{name}") for name in ("inclusion_probabilities", "ci_selection")]
    calls = sum(r["calls"] for r in selection)
    out["inference.selection_ms"] = (
        1000.0 * sum(r["total_s"] for r in selection) / calls if calls else 0.0, "ms/call")
    out["inference.posterior_scalar_summaries_ms"] = (
        per_call("inference.posterior_scalar_summaries"), "ms/call")
    for name in CLI_IO:
        out[f"io.{name}_ms"] = (per_call(f"io.{name}"), "ms/call")
    for name in ("diagnostics.psrf_report", "diagnostics.psrf_report_trace",
                 "simulate.simulate_dataset", "cli.evaluate_fit"):
        out[f"{name}_ms"] = (per_call(name), "ms/call")
    return out
