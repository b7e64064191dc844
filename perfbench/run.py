"""Benchmark of fusionalg: lift ladder, principality corpus and
certificate replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single client in a single process runs the workload's items one after
another (a closed loop), repeating whole passes until ``--seconds`` have
elapsed, and checks every outcome against a known answer.  With
``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the run makes one untraced pass,
then one pass with a span around every call into the library, and
reports the per-layer metrics instead.  Details go to stderr.

End-to-end times are put on the scale of one reference machine by the
machine speed sampled while they run (``speed.py``); the measured times
go to stderr next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import Tracer
from speed import Speedometer
from srcpath import use_source_tree

HERE = Path(__file__).resolve().parent
# Set-up is timed at least SETUP_REPEATS times and for at least
# SETUP_SECONDS before the timed loop, in a fresh process, and reported
# as the median build: builds take from 10 to 200 ms, and a median of
# many is steadier than of a few.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0

# Span names whose self times are reported as ``<name>_s``; together
# they should cover the traced wall time.
LAYERS = (
    "fusion.build",
    "fusion.lift",
    "comodule.principal",
    "comodule.system",
    "comodule.check",
    "comodule.canonical",
    "comodule.translation",
    "linalg.solve",
    "linalg.combine",
    "classical.join",
    "serialize.decode",
    "serialize.encode",
    "serialize.replay",
)
# Stages only reached inside another public call, repeated on the same
# inputs after the traced pass and left out of the sums.
NESTED = (
    "algebra.subalgebra.nested",
    "comodule.check_lifted.nested",
    "fusion.build.nested",
    "comodule.check.nested",
)
COUNTS = {
    "fusion.ambient_dim": "count",
    "fusion.carrier_dim": "count",
    "fusion.kron_entries": "count",
    "fusion.lift_nnz": "count",
    "comodule.system_rows": "count",
    "comodule.system_unknowns": "count",
    "comodule.system_nnz": "count",
    "linalg.infeasible_solves": "count",
    "linalg.farkas_multipliers": "count",
    "linalg.solution_nnz": "count",
    "linalg.max_bits": "bits",
    "serialize.cert_bytes": "bytes",
}


def timed_setup(workload, seed: int, workdir: Path):
    """Build the inputs several times; return them with the (start, end)
    of each build, insisting that every build from the same seed is
    identical."""
    spans, digests = [], set()
    first = perf_counter()
    while len(spans) < SETUP_REPEATS or perf_counter() - first < SETUP_SECONDS:
        started = perf_counter()
        inputs = workload.setup(seed, workdir)
        spans.append((started, perf_counter()))
        digests.add(inputs.digest)
    if len(digests) != 1:
        raise RuntimeError("the same seed built different inputs")
    return inputs, spans


class Tally:
    """Outcomes judged so far.  A failure on an item whose known defect
    predicts exactly this wrong outcome still counts as failed but does
    not make the run incorrect; any other failure does, and so does a
    problem of the run as a whole (``broken``)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.broken: list[str] = []
        self._reported: set[str] = set()

    def add(self, item, problem: str | None) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        known = item.known_defect is not None and problem == item.known_defect[0]
        if not known:
            self.unexpected += 1
        if item.id not in self._reported:
            self._reported.add(item.id)
            note = f" (known defect: {item.known_defect[1]})" if known else ""
            print(f"FAILED {item.id}: {problem}{note}", file=sys.stderr)

    def fail_run(self, problem: str) -> None:
        self.broken.append(problem)
        print(f"FAILED run: {problem}", file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.unexpected == 0 and not self.broken,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def run_item(workload, inputs, item):
    """One untraced item: (start, end, outcome, problem)."""
    started = perf_counter()
    try:
        outcome = workload.run(inputs, item)
    except Exception as exc:  # an unexpected exception is a wrong outcome
        traceback.print_exc(file=sys.stderr)
        return started, perf_counter(), None, f"raised {type(exc).__name__}: {exc}"
    return started, perf_counter(), outcome, None


def measure(workload, inputs, setup_spans, speed: Speedometer, seconds: float) -> dict:
    tally = Tally()
    spans = []
    started = perf_counter()
    while True:
        for item in inputs.items:
            start, end, outcome, problem = run_item(workload, inputs, item)
            spans.append((item.id, start, end))
            tally.add(item, problem or workload.check(item, outcome))
        if perf_counter() - started >= seconds:
            break
    times = []
    for item_id, start, end in spans:
        times.append(speed.scaled(start, end))
        print(f"  {item_id:36} {end - start:9.4f} s measured {times[-1]:9.4f} s scaled",
              file=sys.stderr)
    setup_times = [speed.scaled(start, end) for start, end in setup_spans]
    measured = sum(end - start for _, start, end in spans)
    print(
        f"{workload.name}: {len(spans) // len(inputs.items)} pass(es) of "
        f"{len(inputs.items)} items, {measured:.2f} s measured and {sum(times):.2f} s "
        f"scaled in items; set-up times (scaled) " + " ".join(f"{t:.4f}" for t in setup_times),
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_max_s": (max(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    return tally.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def trace_run(workload, inputs, trace_path: Path) -> dict:
    tally = Tally()
    untraced, untraced_wall = {}, 0.0
    for item in inputs.items:
        start, end, outcome, problem = run_item(workload, inputs, item)
        untraced_wall += end - start
        untraced[item.id] = (outcome, problem or workload.check(item, outcome))

    tracer = Tracer()
    traced = {}
    started = perf_counter()
    for item in inputs.items:
        tracer.item = item.id
        try:
            traced[item.id] = tracer.call("item", workload.trace, inputs, item, tracer.call)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            traced[item.id] = exc
    wall = perf_counter() - started

    counts = dict.fromkeys(list(COUNTS) + ["tampered", "rejected"], 0)
    for item in inputs.items:
        outcome, problem = untraced[item.id]
        result = traced[item.id]
        if isinstance(result, Exception):
            problem = problem or f"traced path raised {type(result).__name__}: {result}"
        else:
            problem = problem or workload.check_traced(item, result, outcome)
            tracer.item = item.id
            workload.nested(item, result, tracer.call)
            workload.count(counts, item, result)
        tally.add(item, problem)
    tracer.write(trace_path)

    self_times = tracer.self_times()
    layer_sum = sum(self_times.get(name, 0.0) for name in LAYERS)
    metrics = {f"{name}_s": (self_times.get(name, 0.0), "s") for name in LAYERS + NESTED}
    metrics.update({name: (counts[name], unit) for name, unit in COUNTS.items()})
    tampered = counts["tampered"]
    metrics["serialize.rejected_ratio"] = (counts["rejected"] / tampered if tampered else 0.0, "ratio")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.layer_sum_ratio"] = (layer_sum / wall, "ratio")
    metrics["trace.overhead_ratio"] = (wall / untraced_wall - 1, "ratio")

    print(f"{'metric':34} {'value':>14}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        label = " (computed from dimensions)" if name == "fusion.kron_entries" else ""
        print(f"{name:34} {value:14.6g} {unit}{label}", file=sys.stderr)
    print(
        f"traced wall {wall:.3f} s, untraced {untraced_wall:.3f} s; "
        f"layer self times cover {layer_sum / wall:.1%} of the traced wall time; "
        f"spans written to {trace_path}",
        file=sys.stderr,
    )
    if abs(layer_sum / wall - 1) > 0.10:
        tally.fail_run("layer self times miss the traced wall time by more than 10%")
    if workload.name != "lift-ladder" and self_times.get("fusion.lift", 0.0) > 0:
        tally.fail_run("the lift ran outside lift-ladder")
    return tally.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lift-ladder", "decide-corpus", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_source_tree()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = HERE / ".work"
    workdir = work / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            inputs, _ = timed_setup(workload, args.seed, workdir)
            trace_path = work / f"trace-{args.workload}-seed{args.seed}.jsonl"
            result = trace_run(workload, inputs, trace_path)
        else:
            with Speedometer() as speed:
                inputs, setup_spans = timed_setup(workload, args.seed, workdir)
                result = measure(workload, inputs, setup_spans, speed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
