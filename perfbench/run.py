"""vortexlab benchmark: one workload, one seed, one run.

Usage, from the root of a vortexlab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: desk-study, resume-refine (see README.md).
With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` a traced run reports the per-layer ones.
The line before it records the machine, the inputs and every failed check.
Scratch files live in ``.perfbench-work/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
REQUIRED = ("src/vortexlab/cli.py", "configs/desk.cfg", "configs/full.cfg", "BENCHMARK.json")
SETUP_LAUNCHES = 3
SETUP_TIMEOUT_S = 30
# The worker's work beyond its --seconds of measuring: import, staging the
# resume log, the last study's overshoot, the inspection top-up and the
# re-parse.  That took 10-27 s on resume-refine (traced runs the most) on the
# 2-vCPU machine the baseline was taken on, slow states included; the limit
# allows over twice that and keeps a whole run well inside 180 s.
WORKER_FIXED_S = 60
# Interpreter start, package import and config load: what every command pays
# before its first trial.  Prints the import time alone for cli.import_s.
SETUP_CODE = (
    "import sys, time; t = time.perf_counter(); import vortexlab.cli as cli; "
    "i = time.perf_counter() - t; cli.load_configs(sys.argv[1]); print(i)"
)


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    facts["caches_per_cpu0"] = caches
    return facts


class Run:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.slot = inputs.slot_of(args.seed)
        self.work_root = root / ".perfbench-work"
        self.work = self.work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        reference = json.loads((HERE / "reference.json").read_text())
        self.reference = reference[args.workload].get(str(self.slot))
        self.details: dict = {}
        self.setup_s: list = []
        self.import_s: list = []

    def setup(self, config: str, launches: int) -> None:
        """Time ``launches`` fresh setup processes (wall s, and import s alone).

        Called before and after the workload, so the samples straddle it.
        These are raw times: a probe in this process cannot see the speed the
        child ran at (see hostspeed.py).
        """
        for _ in range(launches):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, config],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=SETUP_TIMEOUT_S, check=True,
            )
            self.setup_s.append(time.perf_counter() - t0)
            self.import_s.append(float(proc.stdout.strip()))

    def build(self) -> None:
        """Build the coefficient cache of the resume log, if the checkout has none.

        Every workload calls this first, so the first run in a checkout pays
        the build (~12 s), whatever its workload, and no timed run does.
        """
        sys.path.insert(0, str(self.root / "src"))
        ring, study = inputs.study_configs(self.root, inputs.RESUME, None)
        inputs.qmc_coeff_cache(self.root, self.work_root / "cache", ring, study)

    def study(self) -> tuple:
        shape = inputs.WORKLOADS[self.args.workload]
        self.setup(shape["config"], 1)
        spans = self.work_root / "spans" / f"{self.args.workload}-seed{self.args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spec = {
            "root": str(self.root),
            "work": str(self.work),
            "workload": self.args.workload,
            "slot": self.slot,
            "seconds": self.args.seconds,
            "trace": bool(self.args.trace),
            "reference": self.reference,
            "cache": str(self.work_root / "cache"),
            "spans_out": str(spans),
        }
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=self.args.seconds + WORKER_FIXED_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.details.update(out["details"])
        self.setup(shape["config"], SETUP_LAUNCHES - 1)
        return out["per_layer" if self.args.trace else "end_to_end"], out["attempted"], out["failures"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of a vortexlab checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    run = Run(args, root)
    run.build()
    run.work.mkdir(parents=True)
    try:
        metrics, attempted, failures = run.study()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if args.trace:
        metrics["cli.import_s"] = statistics.median(run.import_s)
    else:
        metrics["setup_s"] = statistics.median(run.setup_s)
        metrics["success_fraction"] = (attempted - len(failures)) / attempted
    run.details["setup_wall_s"] = run.setup_s
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_slot": run.slot,
        "trace": args.trace,
        "machine": machine_facts(),
        "failures": failures[:50],
        "details": run.details,
    }
    results = run.work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n"
    )
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
