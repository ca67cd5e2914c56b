import importlib.util
from pathlib import Path

import vortexlab.cli as cli
import vortexlab.optimizer as optimizer
import vortexlab.ring_model as ring_model
import vortexlab.wave_dynamics as wave_dynamics


ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


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
    # each refine trial is one traced evaluation with its own trial id, which the
    # benchmark's per-trial layer metrics divide by (they raise when there is none)
    evaluations = [span for span in run.spans if span[tracer.NAME] == "optimizer.evaluate_tensor"]
    assert [span[tracer.TRIAL] for span in evaluations] == [0, 1]


def test_bench_inputs_build_both_workload_shapes():
    # the benchmark builds its studies through the config loader and
    # dataclasses.replace, with parallel_width among the overrides
    inputs = load_perfbench("inputs")
    seed = inputs.slot_of(37)
    ring, study = inputs.study_configs(ROOT, inputs.DESK, seed)
    assert (ring.J, ring.K, ring.n_s) == (4, 6, 64)
    assert (study.n_qmc, study.n_refine, study.seed, study.strategy) == (8, 2, seed, "perturb_best")
    ring, study = inputs.study_configs(ROOT, inputs.RESUME, None)
    assert (ring.J, ring.K, ring.n_s) == (20, 10, 128)
    assert (study.n_qmc, study.n_refine, study.seed, study.strategy) == (10000, 10, 0, "perturb_best")


def test_simulate_is_one_span_over_the_layers_it_calls(tmp_path):
    # the benchmark reads cli.cmd_simulate.self_ms as simulate's own work, the
    # grid writer included: the command is one span, and the layers it calls
    # through cli's attributes are its children
    tracer = load_tracer()
    run = tracer.Tracer()
    config = tmp_path / "ring.cfg"
    config.write_text("J = 2\nK = 2\nn_s = 16\nn_time = 8\n")
    # main builds its parser once per process, so it must find the handler at call
    # time: a handler captured by a call before install would run unwrapped
    assert cli.main(["verify"]) == 0
    try:
        tracer.install(run)
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
    finally:
        run.remove()
    commands = [i for i, span in enumerate(run.spans) if span[tracer.NAME] == "cli.cmd_simulate"]
    assert len(commands) == 1
    children = {span[tracer.NAME] for span in run.spans if span[tracer.PARENT] == commands[0]}
    assert {"wave_dynamics.axis_field", "madc.madc", "ring_model.phi_eval"} <= children
