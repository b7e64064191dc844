"""The command-line surface: exit codes, output text, and certificate flow."""

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import fusionalg
from fusionalg.classical import fun_comodule
from fusionalg.cli import entry
from fusionalg.groups import FiniteGroup, FiniteGSet
from fusionalg.hopf import function_hopf
from fusionalg.algebra import FDAlgebra, function_algebra
from fusionalg.comodule import trivial_coaction
from fusionalg.linalg import Space
from fusionalg.serialize import (
    MAX_JSON_DEPTH,
    OPERATIONS,
    algebra_to_obj,
    certificate_identity,
    comodule_to_obj,
    group_to_obj,
    gset_to_obj,
    hopf_to_obj,
    verify_certificate,
)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def regular_comodule_file(tmp_path, n=2):
    com = fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(n)))
    return write(tmp_path, f"regular{n}.json", comodule_to_obj(com))


def scenario(op, inputs=None, params=None, sid="t"):
    return {
        "kind": "scenario",
        "id": sid,
        "operation": op,
        "inputs": inputs or {},
        "params": params or {},
    }


# ---------------------------------------------------------------- check

def test_check_passes_on_good_hopf(tmp_path, capsys):
    path = write(tmp_path, "hopf.json", hopf_to_obj(function_hopf(FiniteGroup.cyclic(3))))
    assert entry(["check", path]) == 0
    out = capsys.readouterr().out
    assert "checked: hopf" in out
    assert "check passed" in out


def test_check_fails_on_broken_document(tmp_path, capsys):
    obj = hopf_to_obj(function_hopf(FiniteGroup.cyclic(2)))
    obj["counit"][0][0] = "9"
    path = write(tmp_path, "bad_hopf.json", obj)
    assert entry(["check", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL " in out and "check failed" in out


def test_check_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    assert entry(["check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def _deeply_nested(tmp_path, command, depth):
    """A document for ``command`` with an extra field ``x`` that nests
    ``depth`` lists: a comodule for check, a certificate for
    verify-certificate."""
    doc = regular_comodule_file(tmp_path)
    if command == "verify-certificate":
        cert = tmp_path / "cert.json"
        assert entry(["solve-connection", doc, "--output", str(cert)]) == 0
        doc = str(cert)
    text = Path(doc).read_text().rstrip()
    assert text.endswith("}")
    path = tmp_path / "deep.json"
    path.write_text(text[:-1] + ', "x": ' + "[" * depth + "]" * depth + "}")
    return str(path)


@pytest.mark.parametrize("depth", [900, 200_000])
@pytest.mark.parametrize("command", ["check", "verify-certificate"])
def test_deeply_nested_json_is_malformed_input(tmp_path, capsys, command, depth):
    """Nesting beyond the bound, deep enough to overflow the JSON parser
    (200,000 levels) or the path-reference walk (900 levels), exits 2
    with an error line, not a traceback with the axiom-failure code."""
    path = _deeply_nested(tmp_path, command, depth)
    capsys.readouterr()
    assert entry([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "nested too deeply" in err


@pytest.mark.parametrize("command", ["check", "verify-certificate"])
def test_json_nesting_is_bounded_by_a_constant(tmp_path, capsys, command):
    """A document nested exactly ``MAX_JSON_DEPTH`` levels deep is read,
    and its extra field refused as unknown; one level more is refused as
    nested too deeply.  Both exit 2."""
    cases = ((MAX_JSON_DEPTH - 1, "x: unknown field"), (MAX_JSON_DEPTH, "nested too deeply"))
    for depth, message in cases:
        path = _deeply_nested(tmp_path, command, depth)
        capsys.readouterr()
        assert entry([command, path]) == 2
        err = capsys.readouterr().err
        assert message in err and ("nested" in message) == ("nested" in err)


def test_check_rejects_scenario_documents(tmp_path, capsys):
    path = write(tmp_path, "scn.json", scenario("discrete-join", params={"nx": 1, "ny": 1, "m": 1}))
    assert entry(["check", path]) == 2
    assert "not a scenario" in capsys.readouterr().err


def test_check_rejects_floats_with_field_path(tmp_path, capsys):
    obj = hopf_to_obj(function_hopf(FiniteGroup.cyclic(2)))
    obj["counit"][0][0] = 0.5
    path = write(tmp_path, "floaty.json", obj)
    assert entry(["check", path]) == 2
    err = capsys.readouterr().err
    assert "counit" in err and "approximate" in err


# ---------------------------------------------------------------- solve-connection

def test_solve_connection_feasible(tmp_path, capsys):
    path = regular_comodule_file(tmp_path)
    assert entry(["solve-connection", path]) == 0
    assert "strong connection found" in capsys.readouterr().out


def test_solve_connection_unital_flag(tmp_path, capsys):
    path = regular_comodule_file(tmp_path)
    assert entry(["solve-connection", path, "--unital"]) == 0
    assert "unital: yes" in capsys.readouterr().out


def test_solve_connection_certified_infeasible(tmp_path, capsys):
    com = trivial_coaction(function_algebra(1), function_hopf(FiniteGroup.cyclic(2)))
    path = write(tmp_path, "point.json", comodule_to_obj(com))
    out_path = tmp_path / "inf.cert.json"
    assert entry(["solve-connection", path, "--output", str(out_path)]) == 3
    out = capsys.readouterr().out
    assert "certified infeasible: contradiction exposed at row" in out
    cert = json.loads(out_path.read_text())
    ok, problems = verify_certificate(cert)
    assert ok, problems


def test_solve_connection_rejects_non_comodule(tmp_path, capsys):
    path = write(tmp_path, "h.json", hopf_to_obj(function_hopf(FiniteGroup.cyclic(2))))
    assert entry(["solve-connection", path]) == 2
    assert "expected a comodule document" in capsys.readouterr().err


def test_solve_connection_checks_axioms_first(tmp_path, capsys):
    obj = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    obj["coaction"][0][0] = "5"
    path = write(tmp_path, "skewed.json", obj)
    assert entry(["solve-connection", path]) == 1
    assert "nothing to solve" in capsys.readouterr().out


def _non_associative_comodule() -> dict:
    """O(Z2) coacting trivially on span{1, x, y} with x·x = y, x·y = x and
    every other product of x and y zero: (x·x)·x = 0, x·(x·x) = x."""
    products = {(1, 1): {2: 1}, (1, 2): {1: 1}}
    table = [
        [{j: 1} if i == 0 else {i: 1} if j == 0 else products.get((i, j), {}) for j in range(3)]
        for i in range(3)
    ]
    algebra = FDAlgebra(Space(("1", "x", "y")), table, {0: 1})
    return comodule_to_obj(trivial_coaction(algebra, function_hopf(FiniteGroup.cyclic(2))))


def test_check_names_a_non_associative_comodule_algebra(tmp_path, capsys):
    """A comodule document's algebra meets its own battery: the coaction
    and the Hopf algebra pass, but associativity fails at (x, x, x), and
    neither ``check`` nor ``solve-connection`` goes on."""
    path = write(tmp_path, "nonassoc.json", _non_associative_comodule())
    assert entry(["check", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL associativity: (e1·e1)·e1 differs from e1·(e1·e1)" in out
    assert "check failed" in out
    assert entry(["solve-connection", path]) == 1
    assert "nothing to solve" in capsys.readouterr().out


# ---------------------------------------------------------------- fusion scenarios

def test_fusion_scenario(tmp_path, capsys):
    alg = {"left": {"path": "left.json"}, "right": {"path": "right.json"}}
    from fusionalg.serialize import algebra_to_obj

    write(tmp_path, "left.json", algebra_to_obj(function_algebra(2)))
    write(tmp_path, "right.json", algebra_to_obj(function_algebra(3)))
    path = write(tmp_path, "scn.json", scenario("fusion", inputs=alg, params={"m": 2}))
    assert entry(["fusion", path]) == 0
    assert "fusion dimension: 11" in capsys.readouterr().out


def test_equivariant_fusion_scenario(tmp_path, capsys):
    com = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    path = write(
        tmp_path,
        "scn.json",
        scenario("equivariant-fusion", inputs={"comodule": com}, params={"m": 2}),
    )
    assert entry(["fusion", path]) == 0
    out = capsys.readouterr().out
    assert "equivariant fusion dimension: 8" in out
    assert "coinvariant subalgebra dimension: 4" in out


def test_theorem_main_scenario_with_certificate(tmp_path, capsys):
    com = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    scn = scenario(
        "theorem-main",
        inputs={"comodule": com},
        params={"m": 2, "profile": ["0", "3/5", "1"]},
        sid="lift-z2-m2",
    )
    path = write(tmp_path, "scn.json", scn)
    cert_path = tmp_path / "theorem.cert.json"
    assert entry(["fusion", path, "--output", str(cert_path)]) == 0
    out = capsys.readouterr().out
    assert "equivariant fusion dimension: 8" in out
    assert "solver agrees" in out
    assert entry(["verify-certificate", str(cert_path)]) == 0
    assert "certificate valid: theorem-main lift-z2-m2" in capsys.readouterr().out


def test_theorem_main_sqrt_params(tmp_path, capsys):
    com = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    scn = scenario(
        "theorem-main",
        inputs={"comodule": com},
        params={"m": 2, "sqrt": {"s": ["0", "3/5", "1"], "s_prime": ["1", "4/5", "0"]}},
    )
    path = write(tmp_path, "scn.json", scn)
    assert entry(["fusion", path]) == 0
    capsys.readouterr()
    both = scenario(
        "theorem-main",
        inputs={"comodule": com},
        params={
            "m": 2,
            "profile": ["0", "3/5", "1"],
            "sqrt": {"s": ["0", "3/5", "1"], "s_prime": ["1", "4/5", "0"]},
        },
    )
    path2 = write(tmp_path, "scn2.json", both)
    assert entry(["fusion", path2]) == 2
    assert "not both" in capsys.readouterr().err


def test_theorem_main_refuses_non_principal(tmp_path, capsys):
    com = trivial_coaction(function_algebra(1), function_hopf(FiniteGroup.cyclic(2)))
    scn = scenario(
        "theorem-main", inputs={"comodule": comodule_to_obj(com)}, params={"m": 2}
    )
    path = write(tmp_path, "scn.json", scn)
    assert entry(["fusion", path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("refused:")
    assert "not principal" in err


def test_theorem_main_bad_profile(tmp_path, capsys):
    com = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    scn = scenario(
        "theorem-main",
        inputs={"comodule": com},
        params={"m": 2, "profile": ["0", "1/2", "1"]},
    )
    path = write(tmp_path, "scn.json", scn)
    assert entry(["fusion", path]) == 2
    assert "not a perfect square" in capsys.readouterr().err


def test_theorem_main_sqrt_must_be_an_object(tmp_path, capsys):
    com = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    scn = scenario(
        "theorem-main",
        inputs={"comodule": com},
        params={"m": 2, "sqrt": [["0", "3/5", "1"], ["1", "4/5", "0"]]},
    )
    path = write(tmp_path, "scn.json", scn)
    assert entry(["fusion", path]) == 2
    assert "params.sqrt: expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("short", ["s", "s_prime"])
def test_theorem_main_short_sqrt_vector_names_its_field(tmp_path, capsys, short):
    com = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    sqrt = {"s": ["0", "3/5", "1"], "s_prime": ["1", "4/5", "0"]}
    sqrt[short] = ["1"]
    scn = scenario("theorem-main", inputs={"comodule": com}, params={"m": 2, "sqrt": sqrt})
    path = write(tmp_path, "scn.json", scn)
    assert entry(["fusion", path]) == 2
    err = capsys.readouterr().err
    assert f"params.sqrt.{short}: expected 3 entries, got 1" in err


@pytest.mark.parametrize(
    "operation, params, field, value",
    [
        ("equivariant-fusion", {"m": 1}, "antipode", "2"),
        ("pullback", {"m_lower": 1, "m_upper": 1}, "antipode", "2"),
        ("theorem-main", {"m": 1}, "antipode", "2"),
        ("equivariant-fusion", {"m": 1}, "coproduct", "0"),
        ("pullback", {"m_lower": 1, "m_upper": 1}, "coproduct", "0"),
    ],
)
def test_scenario_input_failing_its_axioms_is_not_run(
    tmp_path, capsys, operation, params, field, value
):
    com = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    com["hopf"][field][0][0] = value
    path = write(tmp_path, "scn.json", scenario(operation, inputs={"comodule": com}, params=params))
    cert_path = tmp_path / "cert.json"
    assert entry(["fusion", path, "--output", str(cert_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL " in out
    assert "input comodule fails the comodule axioms; nothing to solve" in out
    assert not cert_path.exists()


def test_pullback_scenario(tmp_path, capsys):
    com = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    scn = scenario(
        "pullback",
        inputs={"comodule": com},
        params={"m_lower": 1, "m_upper": 2},
    )
    path = write(tmp_path, "scn.json", scn)
    assert entry(["fusion", path]) == 0
    out = capsys.readouterr().out
    assert "fiber product dimension: 12" in out
    assert "identified with the fusion" in out


def test_fusion_command_rejects_classical_operations(tmp_path, capsys):
    path = write(tmp_path, "scn.json", scenario("freeness"))
    assert entry(["fusion", path]) == 2
    assert "does not belong to this command" in capsys.readouterr().err


# ---------------------------------------------------------------- classical scenarios

def test_freeness_scenario_free(tmp_path, capsys):
    gset = gset_to_obj(FiniteGSet.regular(FiniteGroup.cyclic(3)))
    path = write(tmp_path, "scn.json", scenario("freeness", inputs={"gset": gset}))
    assert entry(["classical", path]) == 0
    assert "free: yes" in capsys.readouterr().out


def test_freeness_scenario_not_free(tmp_path, capsys):
    gset = gset_to_obj(FiniteGSet.trivial(FiniteGroup.cyclic(2), 2))
    out_path = tmp_path / "free.cert.json"
    path = write(tmp_path, "scn.json", scenario("freeness", inputs={"gset": gset}))
    assert entry(["classical", path, "--output", str(out_path)]) == 3
    assert "free: no" in capsys.readouterr().out
    ok, problems = verify_certificate(json.loads(out_path.read_text()))
    assert ok, problems


def test_discrete_join_scenario(tmp_path, capsys):
    path = write(
        tmp_path, "scn.json", scenario("discrete-join", params={"nx": 2, "ny": 2, "m": 2})
    )
    assert entry(["classical", path]) == 0
    assert "8 points" in capsys.readouterr().out


def test_gauged_join_iso_scenario(tmp_path, capsys):
    gset = gset_to_obj(FiniteGSet.regular(FiniteGroup.cyclic(2)))
    path = write(
        tmp_path,
        "scn.json",
        scenario("gauged-join-iso", inputs={"gset": gset}, params={"m": 2}),
    )
    assert entry(["classical", path]) == 0
    assert "equivariantly isomorphic" in capsys.readouterr().out


def test_join_vs_fusion_scenario(tmp_path, capsys):
    path = write(
        tmp_path,
        "scn.json",
        scenario("join-vs-fusion", params={"nx": 2, "ny": 2, "m": 2}),
    )
    assert entry(["classical", path]) == 0
    assert "isomorphic to the fusion" in capsys.readouterr().out


def test_diagonal_join_freeness_scenario(tmp_path, capsys):
    gset = gset_to_obj(FiniteGSet.regular(FiniteGroup.cyclic(3)))
    path = write(
        tmp_path,
        "scn.json",
        scenario("diagonal-join-freeness", inputs={"gset": gset}, params={"m": 2}),
    )
    assert entry(["classical", path]) == 0
    out = capsys.readouterr().out
    assert "combinatorially free: yes; fusion principal: yes" in out


def test_diagonal_join_freeness_refused_for_non_free(tmp_path, capsys):
    gset = gset_to_obj(FiniteGSet.trivial(FiniteGroup.cyclic(2), 1))
    path = write(
        tmp_path,
        "scn.json",
        scenario("diagonal-join-freeness", inputs={"gset": gset}, params={"m": 1}),
    )
    assert entry(["classical", path]) == 4
    assert "refused:" in capsys.readouterr().err


# ---------------------------------------------------------------- certificates

def test_format_json_prints_certificate(tmp_path, capsys):
    path = write(
        tmp_path, "scn.json", scenario("discrete-join", params={"nx": 1, "ny": 1, "m": 2})
    )
    assert entry(["classical", path, "--format", "json"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["kind"] == "certificate"
    assert cert["result"]["size"] == 3
    assert cert["tool"]["name"] == "fusionalg"


def test_certificates_are_reproducible(tmp_path, capsys):
    com = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    scn = scenario("theorem-main", inputs={"comodule": com}, params={"m": 1})
    path = write(tmp_path, "scn.json", scn)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert entry(["fusion", path, "--output", str(a)]) == 0
    assert entry(["fusion", path, "--output", str(b)]) == 0
    capsys.readouterr()
    ca = json.loads(a.read_text())
    cb = json.loads(b.read_text())
    assert certificate_identity(ca) == certificate_identity(cb)


def test_verify_certificate_detects_tampering(tmp_path, capsys):
    com = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    scn = scenario("theorem-main", inputs={"comodule": com}, params={"m": 1})
    path = write(tmp_path, "scn.json", scn)
    cert_path = tmp_path / "cert.json"
    assert entry(["fusion", path, "--output", str(cert_path)]) == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["result"]["lifted_connection"]["entries"][0][2] = "17/3"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert))
    assert entry(["verify-certificate", str(tampered)]) == 1
    out = capsys.readouterr().out
    assert "certificate INVALID" in out
    assert "lifted_connection" in out


def test_verify_certificate_detects_bad_farkas(tmp_path, capsys):
    com = trivial_coaction(function_algebra(1), function_hopf(FiniteGroup.cyclic(2)))
    path = write(tmp_path, "point.json", comodule_to_obj(com))
    cert_path = tmp_path / "inf.json"
    assert entry(["solve-connection", path, "--output", str(cert_path)]) == 3
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    farkas = cert["result"]["infeasibility"]["farkas"]
    first = next(iter(farkas))
    farkas[first] = "1000000"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert entry(["verify-certificate", str(bad)]) == 1
    assert "certificate INVALID" in capsys.readouterr().out


def test_verify_certificate_reports_a_lowered_m_as_invalid(tmp_path, capsys):
    com = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    path = write(tmp_path, "scn.json", scenario("theorem-main", inputs={"comodule": com}, params={"m": 2}))
    cert_path = tmp_path / "cert.json"
    assert entry(["fusion", path, "--output", str(cert_path)]) == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["scenario"]["params"]["m"] = 1
    lowered = write(tmp_path, "lowered.json", cert)
    assert entry(["verify-certificate", lowered]) == 1
    # a witness that does not fit the scenario leaves no result to rebuild
    assert capsys.readouterr().out == (
        "certificate INVALID: theorem-main t\n"
        "  result.lifted_connection: shape 64x2 does not match the expected 16x2\n"
    )


# Parameters that take each fusion-building operation of _small_runs
# just past MAX_AMBIENT_DIM = 128, with the ambient dimension they ask for.
_OVER_BUDGET = {
    "fusion": ({"m": 64}, 130),  # 65 points · 2 · 1
    "equivariant-fusion": ({"m": 32}, 132),  # 33 · 2 · 2
    "theorem-main": ({"m": 100}, 404),
    "pullback": ({"m_lower": 16, "m_upper": 16}, 132),  # joined chain: 33 · 4
    "join-vs-fusion": ({"nx": 1, "ny": 2, "m": 64}, 130),
    "diagonal-join-freeness": ({"m": 32}, 132),
}


@pytest.mark.parametrize("operation", sorted(_OVER_BUDGET))
def test_fusion_beyond_the_dimension_budget_is_refused(tmp_path, capsys, monkeypatch, operation):
    import fusionalg.serialize

    def refuse(m):
        raise AssertionError("the budget must be checked before the base is built")

    monkeypatch.setattr(fusionalg.serialize, "chain_interval", refuse)
    command, doc = _small_runs()[operation]
    params, dim = _OVER_BUDGET[operation]
    doc["params"].update(params)
    path = write(tmp_path, "input.json", doc)
    assert entry(command + [path]) == 2
    assert f"fusion ambient dimension {dim} exceeds the budget of 128" in capsys.readouterr().err


def test_verify_certificate_reports_a_fusion_beyond_the_budget_as_invalid(tmp_path, capsys):
    command, doc = _small_runs()["theorem-main"]
    path = write(tmp_path, "scn.json", doc)
    cert_path = tmp_path / "cert.json"
    assert entry(command + [path, "--output", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    cert["scenario"]["params"]["m"] = 100
    raised = write(tmp_path, "raised.json", cert)
    capsys.readouterr()
    assert entry(["verify-certificate", raised]) == 1
    out = capsys.readouterr().out
    assert "certificate INVALID" in out
    assert "params.m: the fusion ambient dimension 404 exceeds the budget of 128" in out


def _refuse_to_build_joins(monkeypatch):
    import fusionalg.classical
    import fusionalg.serialize

    def refuse(*args):
        raise AssertionError("the budget must be checked before a join is built")

    # every join builder, and those serialize calls by its own name
    for module, names in (
        (fusionalg.classical, ("discrete_join", "diagonal_join", "gauged_join")),
        (fusionalg.serialize, ("discrete_join", "diagonal_join")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, refuse)


# The join operations build no fusion and are bounded by the ambient of
# the one they model, which the refusal names as their point bound:
# (m+1)·nx·ny and (m+1)·|X|·|G|, both 2·(10**9 + 1) or more here.
_JOIN_OVER_BUDGET = {
    "discrete-join": ("(m+1)·nx·ny", 2 * (10**9 + 1)),  # nx = 1, ny = 2
    "gauged-join-iso": ("(m+1)·|X|·|G|", 4 * (10**9 + 1)),  # regular Z2
}


@pytest.mark.parametrize("operation", sorted(_JOIN_OVER_BUDGET))
def test_join_beyond_the_dimension_budget_is_refused(tmp_path, capsys, monkeypatch, operation):
    _refuse_to_build_joins(monkeypatch)
    command, doc = _small_runs()[operation]
    doc["params"]["m"] = 10**9
    path = write(tmp_path, "input.json", doc)
    assert entry(command + [path]) == 2
    bound, dim = _JOIN_OVER_BUDGET[operation]
    err = capsys.readouterr().err
    assert f"params: the join point bound {bound} = {dim} exceeds the budget of 128" in err
    assert "fusion" not in err


@pytest.mark.parametrize("operation", sorted(_JOIN_OVER_BUDGET))
def test_verify_certificate_reports_a_join_beyond_the_budget_as_invalid(
    tmp_path, capsys, monkeypatch, operation
):
    command, doc = _small_runs()[operation]
    path = write(tmp_path, "scn.json", doc)
    cert_path = tmp_path / "cert.json"
    assert entry(command + [path, "--output", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    cert["scenario"]["params"]["m"] = 10**9
    raised = write(tmp_path, "raised.json", cert)
    capsys.readouterr()
    _refuse_to_build_joins(monkeypatch)
    assert entry(["verify-certificate", raised]) == 1
    out = capsys.readouterr().out
    assert "certificate INVALID" in out
    bound, dim = _JOIN_OVER_BUDGET[operation]
    assert f"params: the join point bound {bound} = {dim} exceeds the budget of 128" in out


def test_verify_certificate_rejects_other_kinds(tmp_path, capsys):
    path = write(tmp_path, "h.json", hopf_to_obj(function_hopf(FiniteGroup.cyclic(2))))
    assert entry(["verify-certificate", path]) == 2
    assert "expected a certificate" in capsys.readouterr().err


def _small_runs():
    """One small run of every operation: the command line arguments
    before the file, and the document or scenario to write to it."""
    z2 = comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2))))
    gset = gset_to_obj(FiniteGSet.regular(FiniteGroup.cyclic(2)))
    return {
        "check": (["check"], hopf_to_obj(function_hopf(FiniteGroup.cyclic(2)))),
        "solve-connection": (["solve-connection"], z2),
        "fusion": (
            ["fusion"],
            scenario(
                "fusion",
                inputs={
                    "left": algebra_to_obj(function_algebra(2)),
                    "right": algebra_to_obj(function_algebra(1)),
                },
                params={"m": 1},
            ),
        ),
        "equivariant-fusion": (
            ["fusion"], scenario("equivariant-fusion", inputs={"comodule": z2}, params={"m": 1})
        ),
        "theorem-main": (
            ["fusion"], scenario("theorem-main", inputs={"comodule": z2}, params={"m": 2})
        ),
        "pullback": (
            ["fusion"],
            scenario("pullback", inputs={"comodule": z2}, params={"m_lower": 1, "m_upper": 1}),
        ),
        "freeness": (["classical"], scenario("freeness", inputs={"gset": gset})),
        "discrete-join": (
            ["classical"], scenario("discrete-join", params={"nx": 1, "ny": 2, "m": 1})
        ),
        "gauged-join-iso": (
            ["classical"], scenario("gauged-join-iso", inputs={"gset": gset}, params={"m": 1})
        ),
        "join-vs-fusion": (
            ["classical"], scenario("join-vs-fusion", params={"nx": 1, "ny": 2, "m": 1})
        ),
        "diagonal-join-freeness": (
            ["classical"],
            scenario("diagonal-join-freeness", inputs={"gset": gset}, params={"m": 1}),
        ),
    }


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_every_operation_replays_without_solving(tmp_path, capsys, monkeypatch, operation):
    import fusionalg.fusion
    from fusionalg.linalg import LinearSystem

    command, doc = _small_runs()[operation]
    path = write(tmp_path, "input.json", doc)
    cert_path = tmp_path / "cert.json"
    assert entry(command + [path, "--output", str(cert_path)]) == 0
    assert json.loads(cert_path.read_text())["scenario"]["operation"] == operation

    def refuse(*args, **kwargs):
        raise AssertionError("replay must not solve or lift")

    monkeypatch.setattr(LinearSystem, "solve", refuse)
    monkeypatch.setattr(fusionalg.fusion, "lift_connection", refuse)
    assert entry(["verify-certificate", str(cert_path)]) == 0
    assert "certificate valid" in capsys.readouterr().out


GOLDEN = Path(__file__).resolve().parent / "golden"


def _recorded_certificates():
    """The certificate of the small run of every operation, and every
    golden certificate: ``source(tmp_path)`` gives it."""
    cases = [
        pytest.param(lambda tmp_path, op=op: _certificate_of(tmp_path, op)[1], id=op)
        for op in _small_runs()
    ]
    cases += [
        pytest.param(lambda tmp_path, path=path: json.loads(path.read_text()), id=path.stem)
        for path in sorted(GOLDEN.glob("*.cert.json"))
    ]
    return cases


@pytest.mark.parametrize("source", _recorded_certificates())
def test_a_field_the_result_does_not_have_is_refused(tmp_path, capsys, source):
    """Replay rebuilds the whole result: a field it does not build, at
    the top of the result or inside its dims, makes the certificate
    INVALID and is named."""
    cert = source(tmp_path)
    assert verify_certificate(cert) == (True, [])
    holders = {"result": cert["result"]}
    if "dims" in cert["result"]:
        holders["result.dims"] = cert["result"]["dims"]
    for where, holder in holders.items():
        holder["x"] = 1
        path = write(tmp_path, "extra.json", cert)
        capsys.readouterr()
        assert entry(["verify-certificate", path]) == 1
        assert f"\n  {where}.x: not a field of this result\n" in capsys.readouterr().out
        del holder["x"]


@pytest.mark.parametrize(
    "golden, field, value, problem",
    [
        ("classical-scenario_freeness_regular_z3", "num_rows", "x", "an integer, got str"),
        ("classical-scenario_freeness_regular_z3", "num_rows", -5, "an integer >= 0, got -5"),
        ("classical-scenario_freeness_regular_z3", "num_rows", 1.5, "an integer, got float"),
        ("classical-scenario_freeness_regular_z3", "num_rows", None, "an integer, got NoneType"),
        ("fusion-scenario_theorem_main", "fusion_num_rows", "many", "an integer, got str"),
    ],
)
def test_a_recorded_row_count_must_be_a_non_negative_integer(
    tmp_path, capsys, golden, field, value, problem
):
    """The row counts of a found connection are read as non-negative
    integers before they are compared (``num_rows``) or taken as
    recorded (``fusion_num_rows``)."""
    cert = json.loads((GOLDEN / f"{golden}.cert.json").read_text())
    assert cert["result"].get("connection", cert["result"].get("fusion_connection"))
    cert["result"][field] = value
    assert entry(["verify-certificate", write(tmp_path, "rows.json", cert)]) == 1
    assert f"\n  result.{field}: expected {problem}\n" in capsys.readouterr().out


@pytest.mark.parametrize("rows", [134, 136, 1_000_000])
def test_a_found_connection_records_the_rows_of_its_system(tmp_path, capsys, rows):
    """Replay rebuilds the connection system of a found connection and
    compares its row count: 135 for the regular O(Z3)-set."""
    cert = json.loads((GOLDEN / "classical-scenario_freeness_regular_z3.cert.json").read_text())
    assert cert["result"]["connection"] and cert["result"]["num_rows"] == 135
    cert["result"]["num_rows"] = rows
    assert entry(["verify-certificate", write(tmp_path, "rows.json", cert)]) == 1
    assert f"\n  result.num_rows: recorded {rows}, replay found 135\n" in capsys.readouterr().out


def _join_freeness_with_a_bad_action() -> dict:
    """The diagonal-join-freeness golden certificate, its G-set acting
    with an entry out of range."""
    cert = json.loads((GOLDEN / "classical-scenario_diagonal_join_freeness.cert.json").read_text())
    cert["scenario"]["inputs"]["gset"]["act"][1][2] = 5
    return cert


def test_classical_reports_a_failing_gset_before_its_budget(tmp_path, capsys):
    """The join's budget is computed from the G-set, so a G-set that
    fails its axioms is reported, with exit 1, before the parameters
    are read."""
    path = write(tmp_path, "scn.json", _join_freeness_with_a_bad_action()["scenario"])
    assert entry(["classical", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL action_axioms: action entry out of range" in out
    assert "input gset fails the gset axioms; nothing to solve" in out


def test_a_certificate_of_a_failing_gset_is_invalid(tmp_path, capsys):
    path = write(tmp_path, "cert.json", _join_freeness_with_a_bad_action())
    assert entry(["verify-certificate", path]) == 1
    assert "\n  inputs.gset: the gset fails action_axioms\n" in capsys.readouterr().out


# ---------------------------------------------------------------- unknown fields

_DOCUMENTS = {
    "algebra": lambda: algebra_to_obj(function_algebra(2)),
    "hopf": lambda: hopf_to_obj(function_hopf(FiniteGroup.cyclic(2))),
    "comodule": lambda: comodule_to_obj(fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2)))),
    "group": lambda: group_to_obj(FiniteGroup.cyclic(2)),
    "gset": lambda: gset_to_obj(FiniteGSet.regular(FiniteGroup.cyclic(2))),
}


def _certificate_of(tmp_path, operation):
    """The certificate of the small run of ``operation``."""
    command, doc = _small_runs()[operation]
    cert_path = tmp_path / "run.cert.json"
    assert entry(command + [write(tmp_path, "run.json", doc), "--output", str(cert_path)]) == 0
    return ["verify-certificate"], json.loads(cert_path.read_text())


def _unknown_field_cases():
    """``(source, keys, field, value, exit code, path)``: the command and
    document that ``source(tmp_path)`` gives, the keys leading to the
    object that gets the unknown field, and the path the refusal names."""
    cases = []
    for kind, keys in [
        ("algebra", ()), ("hopf", ()), ("hopf", ("algebra",)), ("comodule", ()),
        ("comodule", ("algebra",)), ("comodule", ("hopf",)),
        ("comodule", ("hopf", "algebra")), ("group", ()), ("gset", ()), ("gset", ("group",)),
    ]:
        named = ".".join(("inputs.target",) + keys + ("x",))
        source = lambda tmp_path, kind=kind: (["check"], _DOCUMENTS[kind]())
        cases.append(pytest.param(source, keys, "x", 1, 2, named, id=f"check-{named}"))
    # a field nested 400 lists deep is refused as well, not walked
    source = lambda tmp_path: (["check"], _DOCUMENTS["comodule"]())
    deep = json.loads("[" * 400 + "]" * 400)
    cases.append(pytest.param(source, (), "x", deep, 2, "inputs.target.x", id="check-deep-x"))
    for operation, (command, _) in _small_runs().items():
        source = lambda tmp_path, operation=operation: _small_runs()[operation]
        cert = lambda tmp_path, operation=operation: _certificate_of(tmp_path, operation)
        # check and solve-connection take a document, whose scenario the
        # command line writes itself
        if command[0] in ("fusion", "classical"):
            for keys, named in [((), "scenario.x"), (("inputs",), "inputs.x"),
                                (("params",), "params.x")]:
                cases.append(pytest.param(source, keys, "x", 1, 2, named,
                                          id=f"{operation}-{named}"))
        for keys, named in [(("scenario",), "certificate.scenario.x"),
                            (("scenario", "inputs"), "inputs.x"),
                            (("scenario", "params"), "params.x")]:
            cases.append(pytest.param(cert, keys, "x", 1, 1, named,
                                      id=f"certificate-{operation}-{named}"))
    cert = lambda tmp_path: _certificate_of(tmp_path, "theorem-main")
    cases += [
        pytest.param(cert, (), "x", 1, 2, "certificate.x", id="certificate-envelope"),
        pytest.param(cert, ("tool",), "x", 1, 2, "certificate.tool.x", id="certificate-tool"),
        pytest.param(cert, ("scenario", "inputs", "comodule", "hopf"), "x", 1, 1,
                     "inputs.comodule.hopf.x", id="certificate-inputs.comodule.hopf.x"),
        # a misspelled profile is not the default profile
        pytest.param(lambda tmp_path: _small_runs()["theorem-main"], ("params",), "profil",
                     ["0", "4/5", "1"], 2, "params.profil", id="theorem-main-params.profil"),
        pytest.param(cert, ("scenario", "params"), "profil", ["0", "4/5", "1"], 1,
                     "params.profil", id="certificate-theorem-main-params.profil"),
        pytest.param(lambda tmp_path: (["fusion"], _with_sqrt()), ("params", "sqrt"), "x", 1, 2,
                     "params.sqrt.x", id="theorem-main-params.sqrt.x"),
    ]
    return cases


def _with_sqrt():
    doc = _small_runs()["theorem-main"][1]
    doc["params"]["sqrt"] = {"s": ["0", "3/5", "1"], "s_prime": ["1", "4/5", "0"]}
    return doc


@pytest.mark.parametrize("source, keys, field, value, code, named", _unknown_field_cases())
def test_unknown_field_is_refused_with_its_path(
    tmp_path, capsys, source, keys, field, value, code, named
):
    """An unknown field in a document, a scenario, its inputs or params,
    or a certificate's envelope exits 2 and names its path; inside a
    certificate's recorded scenario it makes the certificate INVALID."""
    command, doc = source(tmp_path)
    holder = doc
    for key in keys:
        holder = holder[key]
    holder[field] = value
    path = write(tmp_path, "input.json", doc)
    capsys.readouterr()
    assert entry(command + [path]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith("error: ") and f"{named}: unknown field" in err, err
    else:
        assert "certificate INVALID" in out and f"  {named}: unknown field" in out, out


def test_a_base_is_read_strictly(tmp_path, capsys):
    """A base with an unknown field is refused, and so is an ``m`` next
    to a base, which the base would silently override."""
    left = algebra_to_obj(function_algebra(1))
    base = {"algebra": algebra_to_obj(function_algebra(2)), "end_zero": ["1", "0"],
            "end_one": ["0", "1"]}
    doc = scenario("fusion", inputs={"left": left, "right": left}, params={"base": base})
    assert entry(["fusion", write(tmp_path, "scn.json", doc)]) == 0
    doc["params"]["m"] = 5
    capsys.readouterr()
    assert entry(["fusion", write(tmp_path, "scn.json", doc)]) == 2
    assert "params: give either a base or m, not both" in capsys.readouterr().err
    del doc["params"]["m"]
    base["y"] = 1
    assert entry(["fusion", write(tmp_path, "scn.json", doc)]) == 2
    assert "params.base.y: unknown field" in capsys.readouterr().err


# ---------------------------------------------------------------- document size

def _doubling_chain(tmp_path, levels):
    """Files c0 .. c{levels}: each but the last lists two references to
    the next, so c0 inlines 2**levels copies of the last."""
    (tmp_path / f"c{levels}.json").write_text('"leaf"')
    for i in range(levels):
        ref = {"path": f"c{i + 1}.json"}
        (tmp_path / f"c{i}.json").write_text(json.dumps([ref, ref]))
    return {"path": "c0.json"}


@pytest.mark.parametrize("command", ["check", "verify-certificate"])
def test_doubling_path_references_are_refused_past_the_byte_cap(
    tmp_path, capsys, monkeypatch, command
):
    """Twelve levels of doubling references read about 240 KB from 13
    small files; with the cap lowered to 64 KiB the reading stops there
    and the command exits 2."""
    import fusionalg.serialize

    if command == "check":
        doc = _DOCUMENTS["algebra"]()
        doc["labels"] = _doubling_chain(tmp_path, 12)
    else:
        _, doc = _certificate_of(tmp_path, "discrete-join")
        doc["result"] = _doubling_chain(tmp_path, 12)
    path = write(tmp_path, "input.json", doc)
    monkeypatch.setattr(fusionalg.serialize, "MAX_DOCUMENT_BYTES", 64 * 1024)
    capsys.readouterr()
    assert entry([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "reads more than 65536 bytes, its path references included" in err


@pytest.mark.parametrize("command", ["check", "verify-certificate"])
def test_a_file_beyond_the_byte_cap_is_refused_before_it_is_read(tmp_path, capsys, command):
    from fusionalg.serialize import MAX_DOCUMENT_BYTES

    path = tmp_path / "huge.json"
    with path.open("wb") as f:
        f.truncate(MAX_DOCUMENT_BYTES + 1)  # sparse: all zero bytes, not valid JSON
    assert entry([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {path}: the document reads more than {MAX_DOCUMENT_BYTES} bytes, "
        "its path references included\n"
    )


# ---------------------------------------------------------------- wiring

def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        entry(["frobnicate"])
    capsys.readouterr()


def test_console_script_is_installed():
    # The `fusionalg` command is the [project.scripts] entry of this checkout,
    # run the way an installer's wrapper script runs it, against the same
    # `fusionalg` package this test imports; nothing needs to be installed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    ep = EntryPoint(name="fusionalg", value=scripts["fusionalg"], group="console_scripts")
    assert ep.load() is entry

    wrapper = (
        f"import sys; from {ep.module} import {ep.attr}; "
        f"sys.argv[0] = 'fusionalg'; sys.exit({ep.attr}())"
    )
    src_dir = str(Path(fusionalg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: fusionalg")
    assert "verify-certificate" in proc.stdout


@pytest.mark.skipif(shutil.which("fusionalg") is None, reason="fusionalg console script not on PATH")
def test_console_script_on_path_runs():
    proc = subprocess.run(
        ["fusionalg", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "verify-certificate" in proc.stdout
