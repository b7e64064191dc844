"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Takes about six minutes.

1. The same seed builds the same corpus, ladder order and tampered
   copies in separate processes with different hash seeds, and another
   seed builds a different corpus and different tampered copies.
2. Two traced runs of every workload are correct (which covers the
   span-coverage and lift-placement checks) and report identical count
   metrics.
3. Every run reports exactly the metrics ``BENCHMARK.json`` names.
4. The shares the benchmark was defined on still hold: in the traced
   run the lift takes at least 70% of lift-ladder's wall time, and
   elimination plus the system build is decide-corpus's largest layer.
   These describe the program, not the benchmark: a faster lift is
   expected to break the first one.
5. Lift-ladder and decide-corpus fail no item; replay fails exactly
   its changed-profile copies, the known defect.
6. Run from a directory that holds only ``BENCHMARK.json`` and
   ``perfbench/``, the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "bits", "bytes"}

DIGESTS = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
from workloads import WORKLOADS
from pathlib import Path
import tempfile
with tempfile.TemporaryDirectory(dir={here!r}) as tmp:
    inputs = [WORKLOADS[w].setup({seed}, Path(tmp)) for w in ("lift-ladder", "decide-corpus", "replay")]
known = sum(1 for item in inputs[2].items if item.known_defect)
print(json.dumps([[i.digest for i in inputs], known, len(inputs[2].items)]))
"""


def digests(seed: int, hashseed: str) -> list:
    code = DIGESTS.format(src=str(ROOT / "src"), here=str(HERE), seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []

    (a, _, _), (b, _, _), (c, _, _) = digests(7, "1"), digests(7, "2"), digests(8, "1")
    if a != b:
        problems.append("the same seed built different inputs under another hash seed")
    if a[1] == c[1] or a[2] == c[2]:
        problems.append("another seed built the same corpus or tampered copies")

    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        runs = [last_json(bench(workload, 3, 1)) for _ in range(2)]
        if not all(run["correct"] for run in runs):
            problems.append(f"{workload}: a traced run was not correct")
        first, second = (run["metrics"] for run in runs)
        if set(first) != set(per_layer):
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json")
        for name, unit in per_layer.items():
            if unit in COUNT_UNITS and first[name]["value"] != second[name]["value"]:
                problems.append(f"{workload}: count {name} did not repeat")
        layers = {name: first[name]["value"] for name in per_layer
                  if per_layer[name] == "s" and not name.endswith(".nested_s")
                  and not name.startswith("trace.")}
        if workload == "lift-ladder" and layers["fusion.lift_s"] < 0.7 * first["trace.wall_s"]["value"]:
            problems.append("lift-ladder: the lift takes less than 70% of the traced wall time")
        if workload == "decide-corpus":
            solve = layers.pop("linalg.solve_s") + layers.pop("comodule.system_s")
            if solve <= max(layers.values()):
                problems.append("decide-corpus: elimination and system build are not the largest layer")

    _, known, items = digests(3, "1")
    for workload in workloads:
        result = last_json(bench(workload, 3, 0))
        if set(result["metrics"]) != end_to_end:
            problems.append(f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        expected = result["attempted"] * known / items if workload == "replay" else 0
        if not result["correct"] or result["failed"] != expected:
            problems.append(f"{workload}: {result['failed']} failed, expected {expected:g}")

    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = bench(workloads[0], 1, 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the benchmark ran without the library's sources")

    for p in problems:
        print(f"FAIL {p}")
    print("self-checks passed" if not problems else f"{len(problems)} self-check(s) failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
