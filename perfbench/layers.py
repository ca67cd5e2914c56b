"""Per-layer metrics of the benchmark, computed from tracer spans.

"Per trial" divides by the number of coefficient-tensor evaluations in the
traced phase (one trial id each).  A layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from tracer import layer_totals, percentile

_EMPTY = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "durations": [], "errors": {}}


def trial_metrics(spans: list, selfs: list, lo: int, hi: int, counters: dict) -> dict:
    """Layer costs per trial over spans[lo:hi]; counters cover the same phase."""
    totals = layer_totals(spans, selfs, lo, hi)
    trials = {span[4] for span in spans[lo:hi] if span[4] is not None}
    n = len(trials)
    if n == 0:
        raise ValueError("traced phase evaluated no coefficient tensor")

    def trial(name):
        return totals.get((name, "in_trial"), _EMPTY)

    def every(name):
        return totals.get((name, "all"), _EMPTY)

    columns = counters.get("evaluated_columns", 0)
    evaluate = every("optimizer.evaluate_tensor")["durations"]
    return {
        "ring_model.phi_eval.calls_per_trial": trial("ring_model.phi_eval")["calls"] / n,
        "ring_model.phi_eval.self_ms_per_trial": trial("ring_model.phi_eval")["self_ms"] / n,
        "ring_model.deformation_eval.ms_per_trial": trial("ring_model.deformation_eval")["ms"] / n,
        "ring_model.kinematics_at.calls_per_trial": trial("ring_model.kinematics_at")["calls"] / n,
        "ring_model.kinematics_at.self_ms_per_trial": trial("ring_model.kinematics_at")["self_ms"] / n,
        "geometry.frame_from_derivatives.calls_per_trial": trial("geometry.frame_from_derivatives")["calls"] / n,
        "geometry.frame_from_derivatives.ms_per_trial": trial("geometry.frame_from_derivatives")["ms"] / n,
        "geometry.zero_speed_per_trial": trial("wave_dynamics.axis_field")["errors"].get("ZeroSpeed", 0) / n,
        "wave_dynamics.aligned_initial_state.ms_per_trial": trial("wave_dynamics.aligned_initial_state")["ms"] / n,
        "wave_dynamics.integrate_wave_system.self_ms_per_trial": trial("wave_dynamics.integrate_wave_system")["self_ms"] / n,
        "wave_dynamics.axis_field.self_ms_per_trial": trial("wave_dynamics.axis_field")["self_ms"] / n,
        "wave_dynamics.feasible_column_ratio": counters.get("feasible_columns", 0) / columns if columns else 0.0,
        # the CLI calls madc after axis_field returns, outside the trial span
        "madc.madc.ms_per_trial": every("madc.madc")["ms"] / n,
        "optimizer.sample_qmc.ms_per_trial": every("optimizer.sample_qmc")["ms"] / n,
        "optimizer.propose_refinements.ms_per_trial": every("optimizer.propose_refinements")["ms"] / n,
        "optimizer.evaluate_tensor.ms_p50": percentile(evaluate, 0.5),
        "optimizer.evaluate_tensor.ms_p90": percentile(evaluate, 0.9),
        "optimizer.run_study.self_ms_per_trial": every("optimizer.run_study")["self_ms"] / n,
        "optimizer.to_json_line.ms_per_trial": every("optimizer.to_json_line")["ms"] / n,
        "optimizer.log_bytes_per_trial": counters.get("log_bytes", 0) / n,
        "trace.trials": n,
    }


def command_metrics(spans: list, selfs: list, lo: int, hi: int) -> dict:
    """Median cost of each CLI-level layer call over spans[lo:hi]."""
    totals = layer_totals(spans, selfs, lo, hi)

    def median_of(name):
        durations = totals.get((name, "all"), _EMPTY)["durations"]
        return statistics.median(durations) if durations else 0.0

    simulate_selfs = [
        s / 1e6 for span, s in zip(spans[lo:hi], selfs[lo:hi]) if span[0] == "cli.cmd_simulate"
    ]
    return {
        "cli.cmd_simulate.self_ms": statistics.median(simulate_selfs) if simulate_selfs else 0.0,
        "verify.run_all_checks.ms": median_of("verify.run_all_checks"),
        "plots.render_ring_svg.ms": median_of("plots.render_ring_svg"),
        "spectral.mode_energies.ms": median_of("spectral.mode_energies"),
    }


def refine_improved_ratio(history: list, first: int) -> float:
    """Refine trials from ``history[first:]`` that raised the best, over refine trials."""
    best = max((rec.score for rec in history[:first]), default=float("-inf"))
    improved = refine = 0
    for rec in history[first:]:
        if rec.phase == "refine":
            refine += 1
            improved += rec.score > best
        best = max(best, rec.score)
    return improved / refine if refine else 0.0

