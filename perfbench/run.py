"""rnramsey benchmark: one workload per run, closed loop, one client, one process.

    python3 perfbench/run.py --workload arrow-ramsey --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src, and RNRAMSEY_*
variables are dropped so the CLI jobs run with their default budgets.  Passes over
the workload's fixed job list run until `--seconds` have elapsed (at least one
pass), and `wall_s` is their mean; each job's result is judged after the timed
region.  Every pass runs on a freshly built package and fresh inputs, so every
pass does the same work.  Before every untraced pass the set-up (fresh import of
the package, input generation, input files) runs SETUPS_PER_PASS times, and the
median of all set-ups is `setup_s`: spreading them over the run averages out the
machine's slow and fast phases.

With `--trace 0` the last line of stdout is the JSON result with the end-to-end
metrics; with `--trace 1` untraced and traced passes alternate (at least two of
each), the per-layer metrics are reported and the spans of the last traced pass
go to .perfbench_out/.  The lines before the JSON give every metric by name with
its unit.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUPS_PER_PASS = 3
# Never created: with it as the bytecode cache prefix, no cached bytecode is found.
NO_BYTECODE = OUT / "no-bytecode"


def fresh_import():
    """Import rnramsey (and its CLI) from scratch, dropping any earlier import.

    The package is compiled from source every time: no bytecode cache is read or
    written, so a set-up does the same work whatever PYTHONDONTWRITEBYTECODE says
    and whatever earlier runs left in src/.
    """
    for name in [n for n in sys.modules if n == "rnramsey" or n.startswith("rnramsey.")]:
        del sys.modules[name]
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix, sys.dont_write_bytecode = str(NO_BYTECODE), True
    try:
        importlib.import_module("rnramsey.cli")
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    return sys.modules["rnramsey"]


def reset(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def run_pass(jobs, runs: Path) -> tuple[float, list]:
    """Run every job once; returns the summed job time and the jobs' values."""
    reset(runs)
    gc.collect()
    clock = time.perf_counter
    total = 0.0
    values = []
    for job in jobs:
        t0 = clock()
        try:
            value = job.run()
        except Exception as exc:  # the judge decides whether it is documented
            # dropping the traceback frees the failed call's frames (the oracle's
            # candidate set), which would otherwise inflate peak_rss_mb
            value = exc.with_traceback(None)
        total += clock() - t0
        values.append(value)
    return total, values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("RNRAMSEY_")]:
        del os.environ[key]

    src = ROOT / "src"
    if not (src / "rnramsey" / "__init__.py").is_file():
        print(f"rnramsey sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    build = workloads.WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-{os.getpid()}"
    inputs, runs = work / "inputs", work / "runs"

    setup_times: list[float] = []

    def set_up(count: int):
        """Fresh import and inputs, `count` times; the last set is used."""
        for _ in range(count):
            gc.collect()  # the previous import's garbage is not this set-up's cost
            t0 = time.perf_counter()
            rn = fresh_import()
            jobs = build(rn, args.seed, inputs, runs)
            setup_times.append(time.perf_counter() - t0)
        return rn, jobs

    rn, jobs = set_up(SETUPS_PER_PASS)
    if not Path(rn.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported rnramsey from {rn.__file__}, not from {src}", file=sys.stderr)
        return 2

    outcomes: list[tuple[str, str, str]] = []

    def judge(values) -> None:
        for job, value in zip(jobs, values):
            try:
                outcome, note = job.judge(value)
            except Exception as exc:  # e.g. an output file the job should have written
                outcome, note = workloads.FAILED, f"judge raised {exc!r}"
            outcomes.append((job.name, outcome, note))

    walls: list[float] = []
    traced_walls: list[float] = []
    layer_runs: list[dict[str, float]] = []
    layer_self: dict[str, float] = {}
    missing: list[str] = []
    tracer = spans.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            if walls:
                _, jobs = set_up(SETUPS_PER_PASS)
            wall, values = run_pass(jobs, runs)
            walls.append(wall)
            judge(values)
            if tracer is not None:
                _, jobs = set_up(1)  # the traced pass, too, starts from a fresh package
                tracer.clear()
                missing = tracer.install()
                try:
                    wall, values = run_pass(jobs, runs)
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
                judge(values)
                metrics, layer_self = spans.summarize(tracer)
                layer_runs.append(metrics)
            enough = len(traced_walls) >= 2 if tracer is not None else True
            if enough and time.perf_counter() >= deadline:
                break
        if tracer is not None:
            tracer.write(OUT / f"spans-{args.workload}.tsv.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(1 for _, outcome, _ in outcomes if outcome == workloads.FAILED)
    exhausted = sum(1 for _, outcome, _ in outcomes if outcome == workloads.EXHAUSTED)
    correct = failed == 0
    for name, outcome, note in outcomes[: len(jobs)]:
        print(f"job {name}: {outcome} ({note})")
    for name, outcome, note in outcomes:
        if outcome == workloads.FAILED:
            print(f"FAILED job {name}: {note}")

    # The mean, not the median, of the passes: this machine's speed swings over
    # tens of seconds, and with two or three passes a median keeps one of them.
    wall_s = statistics.fmean(walls)
    q1, median, q3 = quartiles(walls)
    setup_s = statistics.median(setup_times)
    print(f"workload {args.workload} seed {args.seed} passes {len(walls)}")
    print(f"setup_s = {setup_s:.6f} s (median of {len(setup_times)} set-ups; "
          f"min {min(setup_times):.6f}, max {max(setup_times):.6f})")
    print(f"wall_s = {wall_s:.6f} s (mean of {len(walls)} passes; median {median:.6f}, "
          f"q1 {q1:.6f}, q3 {q3:.6f}; passes " + " ".join(f"{w:.4f}" for w in walls) + ")")
    print(f"failed_ratio = {failed / attempted:.6f} jobs/jobs ({failed} of {attempted})")
    print(f"exhausted_ratio = {exhausted / attempted:.6f} jobs/jobs ({exhausted} of {attempted})")

    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"peak_rss_mb = {peak_rss_mb:.3f} MB")
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "exhausted_ratio": (exhausted / attempted, "jobs/jobs"),
        }
    else:
        for name in missing:
            print(f"missing wrapped function: {name}")
        for key in spans.DETERMINISTIC:
            seen = {run[key] for run in layer_runs}
            if len(seen) != 1:
                correct = False
                print(f"NOT REPEATED: {key} differs between traced passes: {sorted(seen)}")
        per_layer = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
        per_layer["trace_overhead"] = statistics.fmean(traced_walls) / wall_s - 1
        metrics = {key: (value, unit_of(key)) for key, value in per_layer.items()}
        for key, (value, unit) in metrics.items():
            print(f"{key} = {value:.6g} {unit}")
        total = sum(layer_self.values()) or 1.0
        ranked = sorted(layer_self.items(), key=lambda kv: -kv[1])
        for layer, seconds in ranked:
            print(f"self time {layer}: {seconds:.4f} s ({100 * seconds / total:.1f}%)")
        predicted = workloads.PREDICTED_LAYERS[args.workload]
        verdict = "held" if ranked and ranked[0][0] in predicted else "did not hold"
        print(f"dominant layer {ranked[0][0] if ranked else '-'}; "
              f"predicted {' + '.join(predicted)}: {verdict}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    if key in ("arrow.oracle_yield", "trace_overhead"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
