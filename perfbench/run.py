"""The repository's benchmark: one workload per invocation, fresh process.

Usage, from the repository root::

    python3 perfbench/run.py --workload pipe_unique --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` splits the window into an untraced and a traced half and
reports the per-layer metrics plus the tracing overhead. Every workload
reports every metric ``BENCHMARK.json`` names for its mode: a per-layer
metric of a layer the workload does not run (or cannot see, such as
seeding inside the served backends) reads 0, and any other gap is an
error. Inputs come from ``--seed`` alone. Human-readable lines go
first; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``). ``--workload
all`` runs every workload in its own child process and prints one JSON
object keyed by workload.

Each run works in a private directory under ``.bench_tmp/`` of the
checkout (also ``TMPDIR`` for every child), removed on exit, so set-up
time and memory never inherit an earlier run's files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = {
    "pipe_unique": "pipe",
    "pipe_repeat": "pipe",
    "gate_unique": "gate",
    "sim_sched": "sim",
}

#: Metrics the cycle model produces (simulated accelerator time and
#: events); every other number is measured on the host.
SIMULATED = ("sim.kreads_per_s", "sim.speedup", "sim.eu_util",
             "core.alloc_optimal_frac", "core.allocation_stalls",
             "core.su_suspensions", "core.eu_pe_eff", "core.su_util")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _load_program() -> None:
    """Import the program under test from this checkout's ``src``."""
    init = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"benchmark: program source not found at {init}")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.dirname(init):
        raise SystemExit(f"benchmark: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _wanted(trace: bool) -> dict:
    """Metric name -> unit that the manifest asks of this mode."""
    with open(MANIFEST, encoding="utf-8") as handle:
        manifest = json.load(handle)
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def _summary(workload: str, result, unmeasured=()) -> None:
    print(f"== {workload}: attempted {result.attempted}, failed {result.failed}, "
          f"error_frac {result.failed / max(1, result.attempted):.4f}, "
          f"correct {result.correct}")
    for problem in result.problems:
        print(f"   failure: {problem}")
    for name, (value, unit) in result.metrics.items():
        clock = ("not measured here" if name in unmeasured
                 else "simulated" if name in SIMULATED else "host")
        print(f"   {name:34s} {value:14.6g} {unit:10s} [{clock}]")
    for note in result.notes:
        print(f"   note: {note}")


def _run_one(args) -> int:
    _load_program()
    import harness

    wanted = _wanted(bool(args.trace))
    module = __import__(WORKLOADS[args.workload])
    with harness.private_dir(SCRATCH, f"{args.workload}-") as workdir:
        os.environ["TMPDIR"] = tempfile.tempdir = workdir
        result = module.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), workdir)
    unmeasured = (result.fill_unmeasured(wanted, module.UNMEASURED)
                  if args.trace else [])
    _summary(args.workload, result, unmeasured)
    mismatch = result.mismatch(wanted)
    if mismatch:
        print(f"benchmark: {args.workload} does not report the manifest's "
              f"metrics: {mismatch}", file=sys.stderr)
        return 1
    print(result.line(), flush=True)
    return 0


def _run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after the other."""
    combined = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"benchmark: {workload} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        combined[workload] = json.loads(lines[-1])
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
