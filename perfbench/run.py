"""refilter benchmark: one workload per process.

    python3 perfbench/run.py --workload walkthrough --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the run times the workload untraced and prints
every end-to-end metric of BENCHMARK.json; with `--trace 1` it runs one
untraced and one traced round and prints every per-layer metric,
including the tracing overhead. Either way it checks the program's
outputs, and the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Lines before it, prefixed with '#', are information only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# numpy here links a threaded OpenBLAS; pin every pool to one thread
# before numpy is first imported
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3


def info(message: str) -> None:
    print(f"# {message}", flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("walkthrough", "curve-wide", "featurize-long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def thread_count() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_round(index: int, rnd, label: str = "") -> None:
    info(f"round {index}{label}: {rnd.seconds:.4f} s, "
         f"{rnd.attempted} attempted, {rnd.failed} failed")
    for name, seconds in rnd.parts.items():
        info(f"  {name}: {seconds:.4f} s")
    for note in rnd.notes:
        info(f"  {note}")


def checked(workload):
    """The workload's (problems, notes); a check that cannot run counts as
    a failed check, not as a crash without a result."""
    try:
        return workload.check()
    except Exception as exc:
        traceback.print_exc()
        return [f"check raised {exc!r}"], []


def timed(make_workload, seconds: float):
    """Set up SETUP_REPEATS fresh workloads, each after the previous one is
    freed, then run whole rounds on the last until `seconds` have passed
    and the workload's minimum number of rounds is reached."""
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        workload = make_workload()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    rounds = []
    rss = None
    began = time.perf_counter()
    while len(rounds) < workload.min_rounds or time.perf_counter() - began < seconds:
        gc.collect()
        rounds.append(workload.run_round(len(rounds)))
        report_round(len(rounds) - 1, rounds[-1])
        if rss is None:
            # later rounds add allocator fragmentation, not work, so the
            # peak is taken before they can make it depend on the count
            rss = peak_rss_mb()
    info(f"setup: {', '.join(f'{s:.4f}' for s in setups)} s")
    metrics = {
        "round_s": statistics.median(r.seconds for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    return workload, rounds, metrics


def traced(workload, tracer):
    """Set up once and run one untraced and one traced round; then repeat
    the heaviest load and featurize calls under tracemalloc, and check."""
    from tracing import layer_metrics
    from workloads import README_COMMANDS

    with tracer.installed("setup"):
        workload.setup()
    gc.collect()
    base = workload.run_round(0)
    report_round(0, base, " (untraced)")
    gc.collect()
    with tracer.installed("round"):
        rnd = workload.run_round(1)
    report_round(1, rnd, " (traced)")
    with tracer.installed("mem", mem_layers=("corpus_io.load", "features.extract")):
        workload.mem_probe()
    with tracer.installed("check"):
        problems, notes = checked(workload)
    metrics = layer_metrics(tracer, [name for name, _ in README_COMMANDS])
    metrics["trace.overhead_s"] = rnd.seconds - base.seconds
    metrics["trace.overhead_pct"] = 100.0 * (rnd.seconds - base.seconds) / base.seconds
    return [base, rnd], metrics, problems, notes


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "refilter" / "__init__.py").is_file():
        print(f"perfbench: no refilter sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.environ.update(PINNED_THREADS)
    os.environ.pop("REFILTER_SEED", None)  # the README walkthrough relies on the default
    sys.path.insert(0, str(SRC))
    import numpy
    import refilter

    if not Path(refilter.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported refilter from {refilter.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    info(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    info(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
         f"{' '.join(f'{k}={v}' for k, v in PINNED_THREADS.items())}, "
         f"threads in process {thread_count()}, cpus {os.cpu_count()}")

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tracer = Tracer() if args.trace else None

    def make_workload():
        return workloads.WORKLOADS[args.workload](args.seed, work, SRC, tracer)

    try:
        if args.trace:
            workload = make_workload()
            rounds, metrics, problems, notes = traced(workload, tracer)
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}.json"
            tracer.write(trace_path)
            info(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            workload, rounds, metrics = timed(make_workload, args.seconds)
            problems, notes = checked(workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in notes:
        info(note)
    for problem in problems:
        info(f"CHECK FAILED: {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
