"""Regenerate the reference certificates in ``perfbench/refs``.

    python3 perfbench/make_refs.py

Each reference is produced through the command line entry point, in
process.  The O(S3) and kS3 theorem-main references each take about
30 s and 0.5 GB.  References are meant to be made once, at the commit
that defines the benchmark; a later change that alters a certificate
shows up as a lift-ladder failure instead of being absorbed here.
"""

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from srcpath import use_source_tree

use_source_tree()
REFS = Path(__file__).resolve().parent / "refs"

from builders import (  # noqa: E402
    ladder_scenarios,
    reference_only_scenarios,
    solve_reference_comodules,
)
from fusionalg.cli import entry  # noqa: E402
from fusionalg.serialize import comodule_to_obj  # noqa: E402


def main() -> int:
    REFS.mkdir(exist_ok=True)
    jobs = []
    for scn in ladder_scenarios() + reference_only_scenarios():
        jobs.append((scn["id"], ["fusion"], scn))
    for name, com in solve_reference_comodules().items():
        jobs.append((name, ["solve-connection"], comodule_to_obj(com)))
    with tempfile.TemporaryDirectory(dir=REFS.parent) as tmp:
        for name, command, doc in jobs:
            source = Path(tmp) / f"{name}.json"
            source.write_text(json.dumps(doc))
            started = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = entry(command + [str(source), "--output", str(REFS / f"{name}.json")])
            print(f"{name}: exit {code}, {time.perf_counter() - started:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
