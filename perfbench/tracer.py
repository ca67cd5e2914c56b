"""Span tracing of vortexlab from outside the program.

The tracer replaces a module attribute (the name a caller looks up at call
time, e.g. ``wave_dynamics.phi_eval``) with a wrapper that records a span
around the original function.  The program's source is untouched; ``remove``
puts every original back.

A span is ``[name, start_ns, end_ns, parent, trial, error]``: ``parent`` is the
index of the enclosing span, ``trial`` the id of the coefficient-tensor
evaluation it belongs to (``None`` outside one).  Spans stay in memory until
``write`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, TRIAL, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []
        self._next_trial = 0

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, trial_root: bool) -> int:
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else None
            trial = self.spans[parent][TRIAL] if parent is not None else None
            if trial is None and trial_root:
                trial = self._next_trial
                self._next_trial += 1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), None, parent, trial, None])
        stack.append(index)
        return index

    def _close(self, index: int, error: str | None) -> None:
        end = time.perf_counter_ns()
        self._stack().pop()
        span = self.spans[index]
        span[END] = end
        span[ERROR] = error

    def wrap(self, owner, attr: str, name: str, trial_root=False, on_result=None):
        """Trace calls made through ``owner.attr`` as spans named ``name``.

        ``trial_root`` starts a new trial id unless the caller is already
        inside one; ``on_result(tracer, result)`` records counters.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name, trial_root)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(index, type(exc).__name__)
                raise
            tracer._close(index, None)
            if on_result is not None:
                on_result(tracer, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_feasible(tracer: Tracer, field) -> None:
    tracer.counters["feasible_columns"] += int(field.feasible.sum())
    tracer.counters["evaluated_columns"] += int(field.feasible.size)


def _count_log_bytes(tracer: Tracer, line: str) -> None:
    tracer.counters["log_bytes"] += len(line.encode()) + 1  # the newline run_study adds


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of vortexlab at the attribute its caller uses."""
    from vortexlab import cli, optimizer, ring_model, wave_dynamics

    w = tracer.wrap
    # optimizer: the study loop and what it calls
    w(optimizer, "run_study", "optimizer.run_study")
    w(optimizer, "_parse_log", "optimizer._parse_log")
    w(optimizer, "sample_qmc", "optimizer.sample_qmc")
    w(optimizer, "propose_refinements", "optimizer.propose_refinements")
    w(optimizer, "evaluate_tensor", "optimizer.evaluate_tensor", trial_root=True)
    w(optimizer.TrialRecord, "to_json_line", "optimizer.to_json_line", on_result=_count_log_bytes)
    w(optimizer, "axis_field", "wave_dynamics.axis_field", trial_root=True, on_result=_count_feasible)
    w(optimizer, "madc", "madc.madc")
    # wave_dynamics: alignment, RK4 and the kinematics it pulls per time
    w(wave_dynamics, "aligned_initial_state", "wave_dynamics.aligned_initial_state")
    w(wave_dynamics, "integrate_wave_system", "wave_dynamics.integrate_wave_system")
    w(wave_dynamics, "kinematics_at", "ring_model.kinematics_at")
    w(wave_dynamics, "phi_eval", "ring_model.phi_eval")
    # ring_model: Phi, the deformation series and the frame
    w(ring_model, "phi_eval", "ring_model.phi_eval")
    w(ring_model, "deformation_eval", "ring_model.deformation_eval")
    w(ring_model, "frame_from_derivatives", "geometry.frame_from_derivatives")
    # cli: the commands and the layers they call directly (the inspection step)
    w(cli, "cmd_simulate", "cli.cmd_simulate")
    w(cli, "axis_field", "wave_dynamics.axis_field", trial_root=True, on_result=_count_feasible)
    w(cli, "madc", "madc.madc")
    w(cli, "phi_eval", "ring_model.phi_eval")
    w(cli, "render_ring_svg", "plots.render_ring_svg")
    w(cli, "mode_energies", "spectral.mode_energies")
    w(cli, "run_all_checks", "verify.run_all_checks")


# -- analysis --------------------------------------------------------------


def self_times_ns(spans: list) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def layer_totals(spans: list, selfs: list, lo: int = 0, hi: int | None = None) -> dict:
    """Per span name: calls, total ms, self ms and durations of spans[lo:hi].

    Keys are ``(name, scope)``: scope ``in_trial`` aggregates spans that
    belong to a tensor evaluation, ``all`` every span of that name.
    ``selfs`` is ``self_times_ns`` of the whole span list.
    """
    totals = {}
    hi = len(spans) if hi is None else hi
    for span, self_ns in zip(spans[lo:hi], selfs[lo:hi]):
        dur_ms = (span[END] - span[START]) / 1e6
        for scope in ("all", "in_trial") if span[TRIAL] is not None else ("all",):
            entry = totals.setdefault((span[NAME], scope), {"calls": 0, "ms": 0.0, "self_ms": 0.0, "durations": [], "errors": Counter()})
            entry["calls"] += 1
            entry["ms"] += dur_ms
            entry["self_ms"] += self_ns / 1e6
            entry["durations"].append(dur_ms)
            if span[ERROR]:
                entry["errors"][span[ERROR]] += 1
    return totals

