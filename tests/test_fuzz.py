"""The input contract under random edits: every ``data/`` document and
every golden, changed in one field, ends in a documented exit code of
``fusionalg.cli.entry``, never in an exception that escapes it.

The mutations are drawn from one fixed seed.  They run in one child
process, this file run as a script, under an address-space limit and
with an alarm on every call, so that a mutation that asks for too much
memory or time is reported as such instead of stalling the test run.
Some mutated certificates still verify: the change is to a field that
replay reads only to name the run (the id, the tool version), to a
nested ``kind`` that its place implies, to a null or empty field that
is deleted, to a count taken as recorded, or a value replaced by itself.
The test records which ones, so that a change in that set shows up.
"""

import contextlib
import copy
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import traceback
from pathlib import Path

from fusionalg.cli import entry
from fusionalg.serialize import OPERATIONS, load_raw

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = sorted((ROOT / "data").glob("*.json")) + sorted((ROOT / "tests" / "golden").glob("*.json"))
SEED, COUNT = 15, 1000
# the values a replacement draws from: numbers, rational spellings, other
# JSON types, and a nested document
REPLACEMENTS = (
    0, 1, -1, 2, 7, 10**9, 1.5, "0", "1/2", "-3/5", "1/0", "x", "", None, True,
    [], [0], [[1]], {}, {"kind": "gset"},
)
ADDRESS_SPACE = 2 << 30  # bytes
ALARM_S = 20

# (document, mutation) of every mutated certificate that still verifies
STILL_VALID = {
    ("classical-scenario_diagonal_join_freeness.cert.json", "delete /result/infeasibility"),
    ("classical-scenario_diagonal_join_freeness.cert.json", 'replace /tool/version with "0"'),
    ("classical-scenario_freeness_nonfree_z4.cert.json", "delete /result/connection_unital"),
    ("classical-scenario_freeness_nonfree_z4.cert.json", "delete /scenario/inputs/gset/group/kind"),
    ("classical-scenario_freeness_nonfree_z4.cert.json", 'replace /tool/version with "1/0"'),
    ("classical-scenario_freeness_regular_z3.cert.json", "delete /scenario/inputs/gset/group/kind"),
    ("classical-scenario_freeness_regular_z3.cert.json", "delete /scenario/params"),
    ("classical-scenario_freeness_regular_z3.cert.json", "replace /result/num_rows with 2"),
    ("classical-scenario_freeness_regular_z3.cert.json", "replace /scenario/inputs/gset/act/0/2 with 2"),
    ("classical-scenario_join_vs_fusion.cert.json", "delete /scenario/inputs"),
    ("classical-scenario_join_vs_fusion.cert.json", "delete /scenario/kind"),
    ("classical-scenario_join_vs_fusion.cert.json", "delete /tool/version"),
    ("fusion-scenario_pullback.cert.json", "delete /scenario/inputs/comodule/hopf/antipode_inv"),
    ("fusion-scenario_pullback.cert.json", "delete /scenario/inputs/comodule/kind"),
    ("fusion-scenario_pullback.cert.json", "delete /tool/version"),
    ("fusion-scenario_pullback.cert.json", "replace /result/glue/entries/1/0 with 1"),
    ("fusion-scenario_theorem_main.cert.json", 'replace /scenario/id with ""'),
    ("solve-connection-comodule_trivial_z2.cert.json", "delete /scenario/inputs/comodule/algebra/kind"),
    ("solve-connection-comodule_trivial_z2.cert.json", "delete /scenario/inputs/comodule/hopf/algebra/kind"),
    ("solve-connection-comodule_trivial_z2.cert.json", "delete /scenario/params"),
    ("solve-connection-comodule_trivial_z2.cert.json", 'replace /scenario/id with "1/0"'),
}


def _command(raw: dict) -> str:
    """The command that takes a document of this kind."""
    kind = raw["kind"]
    if kind == "certificate":
        return "verify-certificate"
    if kind == "scenario":
        return OPERATIONS[raw["operation"]].command
    return "solve-connection" if kind == "comodule" else "check"


def _paths(obj, path=()):
    """The path of keys and indices of every value inside ``obj``, in
    document order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from _paths(value, (*path, key))


def mutate(raw: dict, rng: random.Random) -> tuple[dict, str]:
    """A copy of ``raw`` with one value replaced from
    :data:`REPLACEMENTS`, one field or element deleted, or, for a list
    element, that element duplicated, and a description of the change."""
    doc = copy.deepcopy(raw)
    path = rng.choice(list(_paths(doc)))
    parent, key = _at(doc, path[:-1]), path[-1]
    how = rng.choice(("replace", "delete", "duplicate")[: 3 if isinstance(parent, list) else 2])
    where = "/" + "/".join(map(str, path))
    if how == "replace":
        value = rng.choice(REPLACEMENTS)
        parent[key] = copy.deepcopy(value)
        return doc, f"replace {where} with {json.dumps(value)}"
    if how == "delete":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return doc, f"{how} {where}"


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


class _Alarm(Exception):
    pass


def _raise_alarm(signum, frame):
    raise _Alarm


def run_mutations(workdir: Path) -> list[dict]:
    """Run :data:`COUNT` mutations, the documents in turn, through
    ``cli.entry``: each outcome is an exit code, ``"timeout"``, or the
    exception that escaped."""
    originals = [(path.name, load_raw(path)[1]) for path in DOCUMENTS]
    rng = random.Random(SEED)
    signal.signal(signal.SIGALRM, _raise_alarm)
    results = []
    for i in range(COUNT):
        name, raw = originals[i % len(originals)]
        doc, change = mutate(raw, rng)
        target = workdir / name
        target.write_text(json.dumps(doc))
        sink = io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, ALARM_S)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                outcome = entry([_command(raw), str(target)])
        except _Alarm:
            outcome = "timeout"
        except (Exception, SystemExit):
            outcome = traceback.format_exc(limit=-3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append({"document": name, "change": change, "kind": raw["kind"], "outcome": outcome})
    return results


def test_mutated_documents_end_in_an_exit_code(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == COUNT
    escaped = [r for r in results if r["outcome"] not in (0, 1, 2, 3, 4)]
    assert not escaped, escaped[:5]
    assert {r["outcome"] for r in results} >= {0, 1, 2}
    still_valid = {
        (r["document"], r["change"])
        for r in results
        if r["kind"] == "certificate" and r["outcome"] == 0
    }
    assert still_valid == STILL_VALID


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    json.dump(run_mutations(Path(sys.argv[1])), sys.stdout)
