"""Command-line interface.

Exit codes
    0  the run succeeded and every requested property holds
    1  an axiom check or certificate verification failed
    2  malformed input (bad JSON, bad shapes, unknown fields, bad
       parameters, a document beyond the byte cap)
    3  certified infeasible: a Farkas refutation was produced
    4  refused: a precondition of the requested construction fails

Every command that computes something can record a replayable
certificate with ``--output``; ``--format json`` prints the same
certificate to stdout instead of the plain-text summary.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .fusion import PreconditionError
from .serialize import (
    EXIT_AXIOM_FAILURE,
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_REFUSED,
    KINDS,
    OPERATIONS,
    InputFormatError,
    canonical_json,
    load_raw,
    make_certificate,
    prepare,
    scenario_from_obj,
    verify_certificate,
    write_certificate,
)


# The kinds `check` takes: those with an axiom battery.
_CHECKABLE = tuple(kind for kind, doc in KINDS.items() if doc.battery)


def _operations(command: str) -> list[str]:
    return [name for name, op in OPERATIONS.items() if op.command == command]


def _a(words: str) -> str:
    return ("an " if words[0] in "aeiou" else "a ") + words


def _load(path, kinds: tuple[str, ...]) -> dict:
    """The raw document at ``path``, which must be of one of ``kinds``."""
    kind, raw = load_raw(path)
    if kind not in kinds:
        raise InputFormatError(
            f"{path}: expected {_a(' or '.join(kinds))} document, not {_a(kind)}"
        )
    return raw


def _finish(args, scenario_obj, result, lines, code, started) -> int:
    cert = make_certificate(scenario_obj, result, time.perf_counter() - started)
    if getattr(args, "output", None):
        write_certificate(cert, args.output)
    if getattr(args, "format", "text") == "json":
        print(canonical_json(cert))
    else:
        for line in lines:
            print(line)
    return code


def _run_scenario(args, scenario_obj: dict, started: float) -> int:
    """Run a scenario of this command; inputs that fail their axioms
    are reported and nothing runs."""
    scn = scenario_from_obj(scenario_obj)
    if OPERATIONS[scn.operation].command != args.command:
        raise InputFormatError(
            f"{args.file}: operation {scn.operation!r} does not belong to this "
            "command; expected one of " + ", ".join(_operations(args.command))
        )
    op, parsed, failed = prepare(scn)
    if failed:
        for name, kind, failures in failed:
            for f in failures:
                print(f"FAIL {f.axiom}: {f.detail}")
            print(f"input {name} fails the {kind} axioms; nothing to solve")
        return EXIT_AXIOM_FAILURE
    result, lines, code = op.run(parsed)
    return _finish(args, scenario_obj, result, lines, code, started)


def _document_scenario(args, inputs: dict, params: dict) -> dict:
    """A document given on the command line, wrapped in a scenario of
    the operation named like the command."""
    return {
        "kind": "scenario",
        "id": Path(args.file).stem,
        "operation": args.command,
        "inputs": inputs,
        "params": params,
    }


def cmd_check(args) -> int:
    started = time.perf_counter()
    raw = _load(args.file, _CHECKABLE)
    return _run_scenario(args, _document_scenario(args, {"target": raw}, {}), started)


def cmd_solve_connection(args) -> int:
    started = time.perf_counter()
    raw = _load(args.file, ("comodule",))
    scenario_obj = _document_scenario(
        args, {"comodule": raw}, {"unital": bool(args.unital)}
    )
    return _run_scenario(args, scenario_obj, started)


def cmd_scenario(args) -> int:
    started = time.perf_counter()
    return _run_scenario(args, _load(args.file, ("scenario",)), started)


# ---------------------------------------------------------------- verify

def cmd_verify_certificate(args) -> int:
    raw = _load(args.file, ("certificate",))
    ok, problems = verify_certificate(raw)
    scn = raw.get("scenario", {})
    name = f"{scn.get('operation', '?')} {scn.get('id', '?')}"
    if ok:
        print(f"certificate valid: {name}")
        return EXIT_OK
    print(f"certificate INVALID: {name}")
    for p in problems:
        print(f"  {p}")
    return EXIT_AXIOM_FAILURE


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionalg",
        description="Exact checks and constructions for joins and fusions "
        "of comodule algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", metavar="PATH", help="write a replayable certificate here"
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (json prints the certificate)",
    )

    p = sub.add_parser(
        "check",
        parents=[common],
        help=f"run the axiom battery for {_a(', '.join(_CHECKABLE))} file",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "solve-connection",
        parents=[common],
        help="find a strong connection for a comodule file, or certify "
        "that none exists",
    )
    p.add_argument("file")
    p.add_argument(
        "--unital",
        action="store_true",
        help="also require the connection to send the unit to 1 (x) 1",
    )
    p.set_defaults(func=cmd_solve_connection)

    for command, what in (("fusion", "fusion"), ("classical", "discrete")):
        p = sub.add_parser(
            command,
            parents=[common],
            help=f"run a {what} scenario: " + ", ".join(_operations(command)),
        )
        p.add_argument("file")
        p.set_defaults(func=cmd_scenario)

    p = sub.add_parser(
        "verify-certificate",
        help="replay a recorded certificate without re-solving",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_certificate)

    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except PreconditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(entry())
