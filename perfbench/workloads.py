"""The three benchmark workloads.

Each workload builds its inputs from a seed (``setup``), runs one item
untraced (``run``), runs the same item through the library's public
steps inside spans (``trace``), and judges an outcome against a known
answer (``check``).  ``nested`` repeats, untraced, the stages that are
only reached inside another public call, and ``count`` derives the
deterministic per-layer counts from a traced outcome.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from builders import (
    corpus_digest,
    corpus_draw,
    ladder_scenarios,
    reference_only_scenarios,
    solve_reference_comodules,
    tampered_copies,
)
from spans import direct
from fusionalg.algebra import subalgebra_from_subspace
from fusionalg.classical import diagonal_join_freeness
from fusionalg.cli import entry
from fusionalg.comodule import (
    canonical_map,
    check_strong_connection,
    connection_system,
    is_principal,
    translation_inverse,
)
from fusionalg.fusion import (
    build_equivariant_fusion,
    chain_interval,
    default_profile,
    lift_connection,
    make_sqrt_pair,
)
from fusionalg.groups import is_free
from fusionalg.linalg import Infeasibility, LinearMap
from fusionalg.serialize import (
    InputFormatError,
    canonical_json,
    comodule_from_obj,
    comodule_to_obj,
    load_document,
    make_certificate,
    param_int,
    rational_to_obj,
    sparse_map_from_obj,
    sparse_map_to_obj,
    verify_certificate,
    write_certificate,
)

REFS = Path(__file__).resolve().parent / "refs"


@dataclass
class Item:
    id: str
    payload: object
    expected: object = None
    # (wrong outcome, why): a known defect of the library predicts this
    # exact wrong outcome on this item.  It still counts as failed; any
    # other wrong outcome is a new failure.
    known_defect: tuple[str, str] | None = None


@dataclass
class Inputs:
    items: list[Item]
    digest: str
    context: dict = field(default_factory=dict)


def load_references() -> dict[str, dict]:
    return {p.stem: json.loads(p.read_text()) for p in sorted(REFS.glob("*.json"))}


def recorded_fields_match(reference, produced, top: bool = True) -> bool:
    """Every key the reference records, except its timing, is present
    with an equal value; keys the reference lacks are allowed."""
    if isinstance(reference, dict):
        return isinstance(produced, dict) and all(
            key in produced and recorded_fields_match(value, produced[key], False)
            for key, value in reference.items()
            if not (top and key == "timing_seconds")
        )
    if isinstance(reference, list):
        return (
            isinstance(produced, list)
            and len(reference) == len(produced)
            and all(recorded_fields_match(a, b, False) for a, b in zip(reference, produced))
        )
    return type(reference) is type(produced) and reference == produced


def connection_from_values(com, values) -> LinearMap:
    """The connection matrix H -> P (x) P held in a solution vector."""
    dp, dh = com.algebra.dim, com.hopf.dim
    rows = tuple(
        tuple(values[r * dh + col] for col in range(dh)) for r in range(dp * dp)
    )
    return LinearMap(com.hopf.space, com.algebra.space.tensor(com.algebra.space), rows)


def nonzeros(m: LinearMap) -> int:
    return sum(1 for row in m.rows for v in row if v != 0)


def max_bits(values) -> int:
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def count_system(counts: dict, system) -> None:
    counts["comodule.system_rows"] += len(system)
    counts["comodule.system_unknowns"] += system.num_unknowns
    counts["comodule.system_nnz"] += sum(
        len(system.row_as_fractions(i)[0]) for i in range(len(system))
    )


def count_outcome(counts: dict, outcome) -> None:
    """Counts of one ``LinearSystem.solve`` outcome."""
    if isinstance(outcome, Infeasibility):
        counts["linalg.infeasible_solves"] += 1
        counts["linalg.farkas_multipliers"] += len(outcome.farkas)
        bits = max_bits(outcome.farkas.values())
    else:
        counts["linalg.solution_nnz"] += sum(1 for v in outcome if v != 0)
        bits = max_bits(outcome)
    counts["linalg.max_bits"] = max(counts["linalg.max_bits"], bits)


# ---------------------------------------------------------------- lift-ladder

class LiftLadder:
    """theorem-main on four rungs through ``cli.entry``; the seed sets
    only the order of the rungs."""

    name = "lift-ladder"

    def setup(self, seed: int, workdir: Path) -> Inputs:
        refs = load_references()
        scenarios = ladder_scenarios()
        random.Random(f"lift-ladder:{seed}").shuffle(scenarios)
        (workdir / "certs").mkdir(parents=True, exist_ok=True)
        items = []
        for scn in scenarios:
            path = workdir / f"{scn['id']}.json"
            path.write_text(canonical_json(scn))
            items.append(Item(scn["id"], path, refs[scn["id"]]))
        digest = json.dumps([canonical_json(s) for s in scenarios])
        return Inputs(items, digest, {"workdir": workdir})

    def _cert_path(self, inputs: Inputs, item: Item, tag: str) -> Path:
        return inputs.context["workdir"] / "certs" / f"{item.id}.{tag}.json"

    def run(self, inputs: Inputs, item: Item):
        out = self._cert_path(inputs, item, "cli")
        with contextlib.redirect_stdout(io.StringIO()):
            code = entry(["fusion", str(item.payload), "--output", str(out)])
        return code, out

    def check(self, item: Item, outcome) -> str | None:
        code, out = outcome
        if code != 0:
            return f"exit code {code}"
        if not recorded_fields_match(item.expected, json.loads(out.read_text())):
            return "certificate differs from the reference"
        return None

    def trace(self, inputs: Inputs, item: Item, call):
        """theorem-main broken into its public steps, as the command
        line runs it: decode, principality of the input, fusion build,
        lift, connection system, elimination, re-check, encode."""
        _, raw, scn = call("serialize.decode", load_document, item.payload)
        com = call("serialize.decode", comodule_from_obj, scn.inputs["comodule"], "inputs.comodule")
        m = call("serialize.decode", param_int, scn.params, "m", "params")
        input_verdict = call("comodule.principal", is_principal, com)
        if not input_verdict.principal:
            raise AssertionError("the input comodule is not principal")
        base = call("fusion.build", chain_interval, m)
        profile = call("fusion.build", default_profile, m)
        sqrt = call("fusion.build", make_sqrt_pair, base, profile)
        fusion = call("fusion.build", build_equivariant_fusion, base, com)
        lifted = call("fusion.lift", lift_connection, fusion, sqrt, input_verdict.connection.map)
        if not lifted.report.ok:
            raise AssertionError(f"lifted map fails {lifted.report.failures}")
        ef = fusion.comodule
        system = call("comodule.system", connection_system, ef, False)
        values = call("linalg.solve", system.solve)
        if isinstance(values, Infeasibility):
            raise AssertionError("the solver refutes the fusion connection")
        fusion_conn = connection_from_values(ef, values)
        report = call("comodule.check", check_strong_connection, ef, fusion_conn)
        if not report.ok:
            raise AssertionError(f"solved fusion connection fails {report.failures}")
        result = {
            "m": m,
            "profile": [call("serialize.encode", rational_to_obj, Fraction(v)) for v in profile],
            "dims": {"inner": com.algebra.dim, "hopf": com.hopf.dim, "fusion": ef.algebra.dim},
            "input_connection": call("serialize.encode", sparse_map_to_obj, input_verdict.connection.map),
            "input_connection_unital": input_verdict.connection.unital,
            "lifted_connection": call("serialize.encode", sparse_map_to_obj, lifted.map),
            "corestricts": list(lifted.corestricts),
            "fusion_connection": call("serialize.encode", sparse_map_to_obj, fusion_conn),
            "fusion_num_unknowns": system.num_unknowns,
            "fusion_num_rows": len(system),
        }
        cert = call("serialize.encode", make_certificate, raw, result, 0.0)
        call("serialize.encode", write_certificate, cert, self._cert_path(inputs, item, "traced"))
        return {"cert": cert, "fusion": fusion, "lifted": lifted, "system": system, "values": values}

    def check_traced(self, item: Item, traced, untraced) -> str | None:
        cert = traced["cert"]
        if not recorded_fields_match(cert, json.loads(untraced[1].read_text())):
            return "decomposed certificate differs from the command line's"
        if not recorded_fields_match(item.expected, cert):
            return "decomposed certificate differs from the reference"
        return None

    def nested(self, item: Item, traced, timer) -> None:
        fusion = traced["fusion"]
        timer("algebra.subalgebra.nested", subalgebra_from_subspace, fusion.ambient, fusion.carrier, "ef")
        timer("comodule.check_lifted.nested", check_strong_connection, fusion.comodule, traced["lifted"].map)

    def count(self, counts: dict, item: Item, traced) -> None:
        fusion = traced["fusion"]
        amb, car = fusion.ambient.dim, fusion.carrier.dim
        c1, c0 = fusion.cond_one.dim, fusion.cond_zero.dim
        counts["fusion.ambient_dim"] += amb
        counts["fusion.carrier_dim"] += car
        # Computed, not measured: the dense bases of cond_one (x) full,
        # cond_zero (x) full, full (x) cond_one, full (x) cond_zero and
        # carrier (x) carrier, each vector of length amb².
        counts["fusion.kron_entries"] += 2 * (c1 + c0) * amb**3 + car * car * amb**2
        counts["fusion.lift_nnz"] += nonzeros(traced["lifted"].map)
        count_system(counts, traced["system"])
        count_outcome(counts, traced["values"])
        counts["serialize.cert_bytes"] += len(canonical_json(traced["cert"]).encode())


# ---------------------------------------------------------------- decide-corpus

def _principal_direct(com, call):
    verdict = is_principal(com)
    witness = verdict.connection.map if verdict.principal else verdict.infeasibility
    return witness, [], []


def _principal_traced(com, call):
    """``is_principal`` through its public steps; also returns the system
    and the solver outcome for the counts."""
    system = call("comodule.system", connection_system, com, False)
    outcome = call("linalg.solve", system.solve)
    if isinstance(outcome, Infeasibility):
        return outcome, [system], [outcome]
    ell = connection_from_values(com, outcome)
    report = call("comodule.check", check_strong_connection, com, ell)
    if not report.ok:
        raise AssertionError(f"solver produced an invalid connection: {report.failures}")
    return ell, [system], [outcome]


class DecideCorpus:
    """A seeded draw of finite G-sets, each decided three ways, plus
    diagonal joins of four free G-sets."""

    name = "decide-corpus"

    def setup(self, seed: int, workdir: Path) -> Inputs:
        entries = corpus_draw(seed)
        items = [Item(e.id, e, e.free) for e in entries]
        return Inputs(items, corpus_digest(entries))

    def _decide(self, item: Item, call, principal):
        entry_ = item.payload
        if entry_.m is not None:
            r = call("classical.join", diagonal_join_freeness, entry_.gset, entry_.m)
            return {"free": r.join_free, "principal": r.fusion_verdict.principal,
                    "bijective": r.both_hold, "witness_ok": True, "witness": None,
                    "systems": [], "outcomes": []}
        com = entry_.comodule
        free = is_free(entry_.gset)
        witness, systems, outcomes = principal(com, call)
        can = call("comodule.canonical", canonical_map, com)
        out = {"free": free, "principal": not isinstance(witness, Infeasibility),
               "bijective": can.bijective, "systems": systems, "outcomes": outcomes}
        if out["principal"]:
            try:
                call("comodule.translation", translation_inverse, com, witness, can)
                out["witness_ok"] = True
            except AssertionError:
                out["witness_ok"] = False
            out["witness"] = witness.rows
        else:
            system = call("comodule.system", connection_system, com, False)
            coeffs, rhs = call("linalg.combine", system.combine, witness.farkas)
            out["witness_ok"] = not coeffs and rhs != 0 and rhs == witness.residual
            out["witness"] = (witness.row_index, witness.farkas, witness.residual)
            systems.append(system)
        return out

    def run(self, inputs: Inputs, item: Item):
        return self._decide(item, direct, _principal_direct)

    def check(self, item: Item, outcome) -> str | None:
        for key in ("free", "principal", "bijective"):
            if outcome[key] != item.expected:
                return f"{key} is {outcome[key]}, combinatorial freeness says {item.expected}"
        if not outcome["witness_ok"]:
            return "witness fails re-checking"
        return None

    def trace(self, inputs: Inputs, item: Item, call):
        return self._decide(item, call, _principal_traced)

    def check_traced(self, item: Item, traced, untraced) -> str | None:
        for key in ("free", "principal", "bijective", "witness"):
            if traced[key] != untraced[key]:
                return f"decomposed {key} differs from is_principal's"
        return self.check(item, traced)

    def nested(self, item: Item, traced, timer) -> None:
        pass

    def count(self, counts: dict, item: Item, traced) -> None:
        for system in traced["systems"]:
            count_system(counts, system)
        for outcome in traced["outcomes"]:
            count_outcome(counts, outcome)


# ---------------------------------------------------------------- replay

class Replay:
    """Certificate replay of the references and of seeded tampered
    copies; a rejection is ``ok=False`` or an ``InputFormatError``."""

    name = "replay"

    def setup(self, seed: int, workdir: Path) -> Inputs:
        refs = load_references()
        recorded = {name: cert["scenario"]["inputs"]["comodule"] for name, cert in refs.items()}
        built = {
            scn["id"]: scn["inputs"]["comodule"]
            for scn in ladder_scenarios() + reference_only_scenarios()
        }
        built.update(
            (name, comodule_to_obj(com)) for name, com in solve_reference_comodules().items()
        )
        for name, obj in built.items():
            if canonical_json(obj) != canonical_json(recorded[name]):
                raise RuntimeError(f"reference {name} does not record its builder's input")
        items = [Item(name, cert, True) for name, cert in refs.items()]
        for copy_ in tampered_copies(refs, seed):
            defect = (
                ("accepted", "replay does not check that the profile is Pythagorean")
                if copy_.kind == "profile"
                else None
            )
            items.append(Item(copy_.id, copy_.certificate, False, defect))
        digest = json.dumps([(i.id, canonical_json(i.payload)) for i in items])
        return Inputs(items, digest)

    def _replay(self, item: Item, call):
        try:
            return call("serialize.replay", verify_certificate, item.payload)[0]
        except InputFormatError:
            return False

    def run(self, inputs: Inputs, item: Item):
        return self._replay(item, direct)

    def check(self, item: Item, outcome) -> str | None:
        if outcome != item.expected:
            return "accepted" if outcome else "rejected"
        return None

    def trace(self, inputs: Inputs, item: Item, call):
        return self._replay(item, call)

    def check_traced(self, item: Item, traced, untraced) -> str | None:
        return self.check(item, traced)

    def nested(self, item: Item, traced, timer) -> None:
        """Fusion build and connection re-checks as replay runs them,
        repeated for the references only."""
        if ":" in item.id:
            return
        cert = item.payload
        scn, result = cert["scenario"], cert["result"]
        com = comodule_from_obj(scn["inputs"]["comodule"], "inputs.comodule")
        sq = com.algebra.space.tensor(com.algebra.space)
        if scn["operation"] == "solve-connection":
            if result["connection"] is not None:
                ell = sparse_map_from_obj(result["connection"], com.hopf.space, sq, "connection")
                timer("comodule.check.nested", check_strong_connection, com, ell)
            return
        params = scn["params"]
        m = params["m"] if "m" in params else params["m_lower"] + params["m_upper"]
        base = chain_interval(m)
        fusion = timer("fusion.build.nested", build_equivariant_fusion, base, com)
        if scn["operation"] != "theorem-main":
            return
        ef = fusion.comodule
        efsq = ef.algebra.space.tensor(ef.algebra.space)
        ell = sparse_map_from_obj(result["input_connection"], com.hopf.space, sq, "input")
        timer("comodule.check.nested", check_strong_connection, com, ell)
        for key in ("lifted_connection", "fusion_connection"):
            ell = sparse_map_from_obj(result[key], com.hopf.space, efsq, key)
            timer("comodule.check.nested", check_strong_connection, ef, ell)

    def count(self, counts: dict, item: Item, traced) -> None:
        counts["serialize.cert_bytes"] += len(canonical_json(item.payload).encode())
        if ":" in item.id:
            counts["tampered"] += 1
            counts["rejected"] += 0 if traced else 1


WORKLOADS = {w.name: w for w in (LiftLadder(), DecideCorpus(), Replay())}
