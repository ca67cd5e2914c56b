"""Study workloads of the benchmark, each in a process of its own.

Usage: python3 perfbench/worker.py '<json spec>'   (spec built by run.py)

The process imports vortexlab once, outside timing, then times whole
``run_study`` calls in a closed loop (one study at a time).  After each study
it inspects the best trial through in-process ``vortexlab.cli.main`` calls
(simulate, render, spectrum, verify), as a user does after a search, and
times those too.  It checks every output.  Peak RSS is this process's own.
The last stdout line is a JSON object with the raw results for run.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import inputs
import layers
from tracer import Tracer, install, percentile, self_times_ns

# Scores recomputed by a later version of the program may differ in the last
# digits (reordered sums); a change beyond this is a changed result.
SCORE_TOLERANCE = 1e-6
# Inspection rounds of the best trial: one after each study, topped up to this.
INSPECT_ROUNDS = 10
# Calls of each command in a round: more of the cheap ones, whose medians and
# the simulate 90th percentile need more samples to hold still.
ROUND_SAMPLES = {"simulate": 4, "render": 2, "spectrum": 3, "verify": 1}


class Ledger:
    """Operations attempted and the reasons those that failed did."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _record_ok(rec, c_max: float) -> bool:
    values = (rec.score, rec.madc, rec.feasible_fraction, *rec.coeffs)
    return (
        all(math.isfinite(x) for x in values)
        and max(abs(x) for x in rec.coeffs) <= c_max
        and 0.0 <= rec.score <= 1.0
    )


def _file_tail_digest(path: Path, offset: int) -> str:
    with open(path, "rb") as fh:
        fh.seek(offset)
        return hashlib.sha256(fh.read()).hexdigest()


class StudyRun:
    def __init__(self, spec: dict):
        from vortexlab import cli, optimizer

        self.cli = cli
        self.optimizer = optimizer
        self.root = Path(spec["root"])
        self.work = Path(spec["work"])
        self.workload = spec["workload"]
        self.shape = inputs.WORKLOADS[self.workload]
        study_seed = None if self.workload == "resume-refine" else spec["slot"]
        self.ring, self.study = inputs.study_configs(self.root, self.shape, study_seed)
        self.reference = spec["reference"]
        self.ledger = Ledger()
        self.inspect_rounds = 0
        self.base_log, self.base_records, self.base_size = None, 0, 0
        if self.workload == "resume-refine":
            self.base_log = self.work / "resume-base.jsonl"
            self.base_records = inputs.stage_resume_log(self.root, spec["slot"], self.base_log, Path(spec["cache"]))
            self.base_size = self.base_log.stat().st_size

    # -- the timed loop --------------------------------------------------

    def study_once(self, log: Path) -> dict:
        """One timed ``run_study`` on ``log`` (a fresh copy of the base log, if any)."""
        if self.base_log:
            shutil.copyfile(self.base_log, log)  # fresh copy: refine appends
        result, wall, scale = hostspeed.timed(lambda: self.optimizer.run_study(self.study, self.ring, log))
        new = result.history[self.base_records:]
        return {
            "log": log,
            "wall_s": wall,
            "scale": scale,
            "trials": len(new),
            "best_score": result.best.score,
            "best_trial_id": result.best.trial_id,
            "best_coeffs": result.best.coeffs,
            "scores": [rec.score for rec in new],
            "records_ok": [_record_ok(rec, self.ring.c_max) for rec in new],
            "tail_digest": _file_tail_digest(log, self.base_size),
            "refine_improved_ratio": layers.refine_improved_ratio(result.history, self.base_records),
        }

    def studies(self, seconds: float, min_repeats: int, tag: str, times: dict | None = None) -> list:
        """Repeat the study while another cycle fits in ``seconds``.

        With ``times``, each study is followed by one inspection round of its
        best trial, so the latency samples spread over the whole run.
        """
        repeats = []
        started = time.perf_counter()
        cycle = 0.0
        while len(repeats) < min_repeats or time.perf_counter() - started + cycle <= seconds:
            cycle_start = time.perf_counter()
            repeats.append(self.study_once(self.work / f"{tag}-{len(repeats)}.jsonl"))
            if len(repeats) > 1:
                repeats[-1]["log"].unlink()
            if times is not None:
                self.inspect_round(repeats[0]["best_coeffs"], times)
            cycle = time.perf_counter() - cycle_start
        return repeats

    def check_studies(self, repeats: list) -> None:
        """Each committed trial, and each repeat's best, against the reference."""
        first = repeats[0]
        ref = self.reference or {"best_trial_id": None, "best_score": math.nan, "scores": []}
        for i, rep in enumerate(repeats):
            for j, (ok, score) in enumerate(zip(rep["records_ok"], rep["scores"])):
                self.ledger.check(
                    ok and j < len(ref["scores"]) and abs(score - ref["scores"][j]) <= SCORE_TOLERANCE,
                    f"repeat {i}, trial {j}: record not finite or out of bounds, or score {score!r} != reference",
                )
            self.ledger.check(
                len(rep["scores"]) == len(ref["scores"])
                and rep["best_trial_id"] == ref["best_trial_id"]
                and abs(rep["best_score"] - ref["best_score"]) <= SCORE_TOLERANCE,
                f"repeat {i}: {rep['trials']} trials, best {rep['best_trial_id']}/{rep['best_score']!r}"
                f" != reference {len(ref['scores'])} trials, best {ref['best_trial_id']}/{ref['best_score']!r}",
            )
            # width-1 logs are byte-deterministic
            self.ledger.check(rep["tail_digest"] == first["tail_digest"], f"repeat {i}: log differs from repeat 0")

    def reparse(self, log: Path) -> dict:
        """Parse-only ``run_study(limit=len(log))`` of a copy of the written log.

        Returns the wall time, record count and size; the log must be accepted
        with every record kept.
        """
        copy = self.work / "reparse.jsonl"
        shutil.copyfile(log, copy)
        with open(copy) as fh:
            n = sum(1 for _ in fh)
        parsed = {"wall_s": 0.0, "records": n, "bytes": copy.stat().st_size}
        t0 = time.perf_counter()
        try:
            result = self.optimizer.run_study(self.study, self.ring, copy, limit=n)
        except self.optimizer.CorruptTrialLog as exc:
            self.ledger.check(False, f"re-parse rejected the log: {exc}")
            return parsed
        parsed["wall_s"] = time.perf_counter() - t0
        kept = len(result.history)
        del result
        self.ledger.check(kept == n, f"re-parse kept {kept} of {n} records")
        copy.unlink()
        return parsed

    # -- inspecting the best trial ---------------------------------------

    def _cli(self, name: str, argv: list, times: dict) -> int:
        """Exit code of ``vortexlab.cli.main(argv)``; appends (raw s, scale) to times[name]."""

        def call():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return self.cli.main([str(a) for a in argv])

        code, wall, scale = hostspeed.timed(call)
        times[name].append((wall, scale))
        return code

    def inspect_round(self, best_coeffs: list, times: dict) -> None:
        """simulate, render, spectrum and verify of the best trial, timed and checked."""
        from vortexlab.ring_model import CoefficientTensor
        import numpy as np

        config = self.root / self.shape["config"]
        coeffs = self.work / "best_coeffs.json"
        if not coeffs.exists():
            CoefficientTensor.from_flat(np.array(best_coeffs), self.ring.J, self.ring.K).save(coeffs)
        sim, fig, spec = self.work / "sim", self.work / "fig", self.work / "spec"
        for d in (sim, fig, spec):
            shutil.rmtree(d, ignore_errors=True)
        check = self.ledger.check

        for _ in range(ROUND_SAMPLES["simulate"]):
            code = self._cli("simulate", ["simulate", "--config", config, "--coeffs", coeffs, "--out", sim], times)
            if check(code == 0, f"simulate exited {code}"):
                report = json.loads((sim / "madc_report.json").read_text())
                ref = self.reference["inspect_score"] if self.reference else None
                check(ref is not None and abs(report["score"] - ref) <= SCORE_TOLERANCE, f"simulate score {report['score']!r} != reference {ref!r}")

        svgs = [fig / f"ring_{n}.svg" for n in ("initial", "terminal")]
        for _ in range(ROUND_SAMPLES["render"]):
            code = self._cli("render", ["render", "--grid", sim / "grid.csv", "--out", fig], times)
            check(code == 0 and all(p.is_file() and p.stat().st_size > 0 for p in svgs), f"render exited {code} or wrote no SVG")

        spectrum = spec / "spectrum.csv"
        for _ in range(ROUND_SAMPLES["spectrum"]):
            code = self._cli("spectrum", ["spectrum", "--coeffs", coeffs, "--config", config, "--out", spec], times)
            check(code == 0 and spectrum.is_file() and len(spectrum.read_text().splitlines()) == self.ring.K + 2, f"spectrum exited {code} or wrote no mode table")

        for _ in range(ROUND_SAMPLES["verify"]):
            code = self._cli("verify", ["verify"], times)
            check(code == 0, f"verify exited {code}")
        self.inspect_rounds += 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _scaled(samples: list) -> list:
    return [wall * scale for wall, scale in samples]


def _trials_per_s(repeats: list) -> float:
    return statistics.median(r["trials"] / (r["wall_s"] * r["scale"]) for r in repeats)


def run(spec: dict) -> dict:
    job = StudyRun(spec)
    seconds = spec["seconds"]
    out = {}
    times = {"simulate": [], "render": [], "spectrum": [], "verify": []}
    if not spec["trace"]:
        repeats = job.studies(seconds, job.shape["min_repeats"], "study", times)
        while job.inspect_rounds < INSPECT_ROUNDS:
            job.inspect_round(repeats[0]["best_coeffs"], times)
        job.check_studies(repeats)
        job.reparse(repeats[0]["log"])
        out["end_to_end"] = {
            "trials_per_s": _trials_per_s(repeats),
            "peak_rss_mb": _peak_rss_mb(),
            # best of the trials the study ran: on resume-refine the refine
            # trials, not the generated scores of the resumed log
            "best_score": max(repeats[0]["scores"]),
            "simulate_s": statistics.median(_scaled(times["simulate"])),
            "simulate_s_p90": percentile(_scaled(times["simulate"]), 0.9),
            "verify_s": statistics.median(_scaled(times["verify"])),
            "render_s": statistics.median(_scaled(times["render"])),
            "spectrum_s": statistics.median(_scaled(times["spectrum"])),
        }
    else:
        plain = job.studies(seconds / 2, 1, "plain")
        tracer = Tracer()
        install(tracer)
        try:
            traced = job.studies(seconds / 2, 1, "traced")
            study_end = len(tracer.spans)
            counters = dict(tracer.counters)
            parsed = job.reparse(traced[0]["log"])
            inspect_start = len(tracer.spans)
            for _ in range(INSPECT_ROUNDS):
                job.inspect_round(traced[0]["best_coeffs"], times)
        finally:
            tracer.remove()
        job.check_studies(plain + traced)
        tracer.write(spec["spans_out"])
        selfs = self_times_ns(tracer.spans)
        per_layer = layers.trial_metrics(tracer.spans, selfs, 0, study_end, counters)
        per_layer.update(layers.command_metrics(tracer.spans, selfs, inspect_start, len(tracer.spans)))
        per_layer["optimizer.resume_parse_ms_per_record"] = parsed["wall_s"] * 1e3 / parsed["records"]
        per_layer["optimizer.resume_log_mb"] = parsed["bytes"] / 1e6
        per_layer["optimizer.refine_improved_ratio"] = traced[0]["refine_improved_ratio"]
        plain_tps, traced_tps = _trials_per_s(plain), _trials_per_s(traced)
        per_layer["trace.overhead_pct"] = (plain_tps - traced_tps) / plain_tps * 100.0
        out["per_layer"] = per_layer
        repeats = plain + traced
    out["details"] = {
        "study_wall_s": [r["wall_s"] for r in repeats],
        "study_scale": [r["scale"] for r in repeats],
        "study_trials": [r["trials"] for r in repeats],
        "command_wall_s_and_scale": times,
        "best_trial_id": repeats[0]["best_trial_id"],
        "best_score": repeats[0]["best_score"],
        "refine_improved_ratio": repeats[0]["refine_improved_ratio"],
    }
    out["attempted"] = job.ledger.attempted
    out["failures"] = job.ledger.failures
    return out


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    print(json.dumps(run(spec)))
