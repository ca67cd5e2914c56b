import importlib.util
from pathlib import Path

import vortexlab.cli as cli
import vortexlab.optimizer as optimizer
import vortexlab.ring_model as ring_model
import vortexlab.wave_dynamics as wave_dynamics


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_restores_it():
    # the benchmark's tracer wraps attributes by name; a deleted or renamed
    # one makes install raise AttributeError here rather than in the bench run
    tracer = load_tracer()
    owners = (cli, optimizer, optimizer.TrialRecord, ring_model, wave_dynamics)
    before = [dict(vars(owner)) for owner in owners]
    run = tracer.Tracer()
    try:
        tracer.install(run)
        assert run._patches
        for owner, attr, original in run._patches:
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        run.remove()
    for owner, saved in zip(owners, before):
        assert all(vars(owner)[name] is value for name, value in saved.items())


def test_tracer_sees_every_log_line(tmp_path):
    # the log commit is a benchmark boundary: each line must pass through the
    # wrapped TrialRecord.to_json_line, whichever encoder writes it
    tracer = load_tracer()
    run = tracer.Tracer()
    log = tmp_path / "log.jsonl"
    ring = ring_model.RingConfig(J=2, K=2, n_s=16, n_time=8)
    try:
        tracer.install(run)
        optimizer.run_study(optimizer.StudyConfig(n_qmc=9, n_refine=2, seed=4), ring, log)
    finally:
        run.remove()
    spans = [span for span in run.spans if span[tracer.NAME] == "optimizer.to_json_line"]
    assert len(spans) == len(log.read_bytes().splitlines()) == 11
    assert run.counters["log_bytes"] == log.stat().st_size
