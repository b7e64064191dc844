"""JSON codecs, path inlining, canonical certificates, and replay checks."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fusionalg.classical import fun_comodule
from fusionalg.cli import entry
from fusionalg.groups import FiniteGroup, FiniteGSet
from fusionalg.hopf import function_hopf
from fusionalg.algebra import function_algebra
from fusionalg.serialize import (
    MAX_JSON_DEPTH,
    InputFormatError,
    algebra_from_obj,
    algebra_to_obj,
    canonical_json,
    certificate_identity,
    comodule_from_obj,
    comodule_to_obj,
    dense_map_from_obj,
    group_from_obj,
    group_to_obj,
    gset_from_obj,
    gset_to_obj,
    hopf_from_obj,
    hopf_to_obj,
    inline_paths,
    load_document,
    load_raw,
    make_certificate,
    parse_checked,
    prepare,
    rational_from_obj,
    rational_to_obj,
    scenario_from_obj,
    sparse_map_from_obj,
    sparse_map_to_obj,
    verify_certificate,
    write_certificate,
)
from fusionalg.linalg import LinearMap, Space

Q = Fraction


def test_rational_codec():
    assert rational_from_obj("3/5") == Q(3, 5)
    assert rational_from_obj("-7") == Q(-7)
    assert rational_from_obj(4) == Q(4)
    assert rational_to_obj(Q(3, 5)) == "3/5"
    with pytest.raises(InputFormatError) as exc:
        rational_from_obj(0.5)
    assert "approximate" in str(exc.value)
    with pytest.raises(InputFormatError):
        rational_from_obj(True)
    with pytest.raises(InputFormatError):
        rational_from_obj("one half")
    with pytest.raises(InputFormatError):
        rational_from_obj("1/0")


@pytest.mark.parametrize(
    "spelling",
    ["3/5", "-7", "007", "-0/4", "12/18", "-0/0", "3/0", "-5/0", " 3/5", "+2", "1_0",
     "1.5", "1e3", "٣", "3\n", "-", "/3", "3/-1", "--3", "9" * 5000, "-1/" + "9" * 5000],
)
def test_rational_strings_read_as_fraction_reads_them(spelling):
    """Plain "p" and "p/q" strings are read with int(); every spelling,
    accepted or refused, gives what Fraction(str) gave, with the same
    message.  The one exception, an exponent beyond the digit limit, is
    :func:`test_exponents_beyond_the_digit_limit_are_refused`."""
    try:
        expected = Fraction(spelling)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(InputFormatError) as err:
            rational_from_obj(spelling, "v")
        assert str(err.value) == f"v: not a rational: {spelling!r} ({exc})"
    else:
        got = rational_from_obj(spelling, "v")
        assert type(got) is Fraction and got == expected


@pytest.mark.parametrize("spelling", ["1e5000", "1e-5000", "1E+5000", " 2.5e5000\n"])
def test_exponents_beyond_the_digit_limit_are_refused(spelling):
    """Fraction(str) writes out 10 to the power of an exponent, so one
    longer than ``sys.get_int_max_str_digits()`` is refused, as a plain
    spelling with more digits is; "1e3" still reads as 1000."""
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InputFormatError) as err:
        rational_from_obj(spelling, "v")
    assert str(err.value) == f"v: not a rational: {spelling!r} (its exponent exceeds {limit} digits)"
    assert rational_from_obj("1e3") == 1000
    assert rational_from_obj(f"1e{limit}") == 10**limit


def test_an_oversized_exponent_exits_2_naming_the_field(tmp_path, capsys):
    """``check`` on an algebra document whose unit holds "1e5000" exits 2
    and names the field."""
    alg = algebra_to_obj(function_algebra(2))
    alg["unit"][1] = "1e5000"
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(alg))
    assert entry(["check", str(path)]) == 2
    assert "unit[1]" in capsys.readouterr().err


def test_sparse_map_round_trip():
    src = Space.of_dim(3, "s")
    tgt = Space.of_dim(2, "t")
    m = LinearMap.from_rows(
        src, tgt, [[Q(1, 2), Q(0), Q(-3)], [Q(0), Q(7), Q(0)]]
    )
    obj = sparse_map_to_obj(m)
    assert obj["rows"] == 2 and obj["cols"] == 3
    # entries are listed row-major, whatever order the columns hold them in
    assert obj["entries"] == [[0, 0, "1/2"], [0, 2, "-3"], [1, 1, "7"]]
    back = sparse_map_from_obj(obj, src, tgt, "m")
    assert back.rows == m.rows


def test_sparse_map_validation():
    src = Space.of_dim(2, "s")
    tgt = Space.of_dim(2, "t")
    good = {"rows": 2, "cols": 2, "entries": [[0, 0, "1"]]}
    assert sparse_map_from_obj(good, src, tgt, "m").rows[0][0] == 1
    with pytest.raises(InputFormatError):
        sparse_map_from_obj({"rows": 3, "cols": 2, "entries": []}, src, tgt, "m")
    with pytest.raises(InputFormatError):
        sparse_map_from_obj(
            {"rows": 2, "cols": 2, "entries": [[2, 0, "1"]]}, src, tgt, "m"
        )
    with pytest.raises(InputFormatError):
        sparse_map_from_obj(
            {"rows": 2, "cols": 2, "entries": [[0, 0, "1"], [0, 0, "2"]]},
            src,
            tgt,
            "m",
        )


def test_sparse_map_codec_round_trips_integer_maps():
    """Derandomized: an integer map over each den from 1 to 60, with
    negative, reducible and 40-digit entries, is written with every value
    spelled as ``str(Fraction(v, den))`` and read back as the same map,
    also through JSON text."""
    rng = random.Random(29)
    src, tgt = Space.of_dim(4, "s"), Space.of_dim(5, "t")
    for den in range(1, 61):
        for _ in range(3):
            cols = [
                {
                    i: rng.choice((rng.randint(-9, 9) * rng.choice((1, den, 2 * den)),
                                   rng.randint(-(10**40), 10**40)))
                    for i in rng.sample(range(tgt.dim), rng.randint(0, tgt.dim))
                }
                for _ in range(src.dim)
            ]
            m = LinearMap.from_sparse_columns(src, tgt, cols, den)
            obj = sparse_map_to_obj(m)
            spelled = {(i, j): str(Q(v, m.den)) for j, col in enumerate(m.cols) for i, v in col.items()}
            assert {(i, j): v for i, j, v in obj["entries"]} == spelled
            assert [tuple(e[:2]) for e in obj["entries"]] == sorted(spelled)
            for doc in (obj, json.loads(json.dumps(obj))):
                back = sparse_map_from_obj(doc, src, tgt, "m")
                assert (back.cols, back.den) == (m.cols, m.den)


def _digits_refused(v):
    """The message ``int()`` gives for a spelling beyond its digit limit."""
    try:
        int(v)
    except ValueError as exc:
        return f"not a rational: {v!r} ({exc})"
    raise AssertionError("within the digit limit")


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "bad, where, message",
    [
        (5, "", "expected a list, got int"),
        ([0, 1], "", "expected 3 entries, got 2"),
        ([True, 1, "1"], "[0]", "expected an integer, got bool"),
        ([-1, 1, "1"], "[0]", "expected an integer >= 0, got -1"),
        ([0, 2, "1"], "", "index (0,2) outside a 3x2 matrix"),
        ([3, 1, "1"], "", "index (3,1) outside a 3x2 matrix"),
        ([0, 0, "5"], "", "duplicate entry at (0,0)"),
        ([0, 1, "1/0"], "[2]", "not a rational: '1/0' (Fraction(1, 0))"),
        ([0, 1, 0.5], "[2]", 'floats are approximate; write the rational as "p/q"'),
        ([0, 1, "1e5000"], "[2]", f"not a rational: '1e5000' (its exponent exceeds {LIMIT} digits)"),
        ([0, 1, "1" * 5000], "[2]", _digits_refused("1" * 5000)),
        ([0, 1, "2/4"], None, None),
    ],
    ids=["non-list", "2-list", "bool-index", "negative-index", "column-outside",
         "row-outside", "duplicate", "zero-denominator", "float", "exponent",
         "5000-digits", "reducible"],
)
def test_sparse_map_entries_refused_with_their_location(bad, where, message):
    """The first malformed entry of a sparse map is refused with its
    location and the message each check gives; "2/4" reads as 1/2."""
    src, tgt = Space.of_dim(2), Space.of_dim(3)
    obj = {"rows": 3, "cols": 2, "entries": [[0, 0, "1"], bad, [9, 9, "x"]]}
    if message is None:
        obj["entries"].pop()
        assert sparse_map_from_obj(obj, src, tgt, "m").rows == ((1, Q(1, 2)), (0, 0), (0, 0))
        return
    with pytest.raises(InputFormatError) as err:
        sparse_map_from_obj(obj, src, tgt, "m")
    assert str(err.value) == f"m.entries[1]{where}: {message}"


def test_algebra_round_trip():
    alg = function_algebra(3)
    obj = algebra_to_obj(alg)
    assert obj["kind"] == "algebra"
    back = algebra_from_obj(obj)
    assert back.space == alg.space
    assert back.unit == alg.unit
    assert back.table == alg.table
    assert algebra_to_obj(back) == obj


def test_explicit_zero_constants_are_not_stored():
    obj = algebra_to_obj(function_algebra(3))
    padded = dict(obj, mult=obj["mult"] + [[0, 1, 2, "0"], [2, 2, 0, "0/5"]])
    back = algebra_from_obj(padded)
    assert back.table == function_algebra(3).table
    assert algebra_to_obj(back) == obj


def test_hopf_round_trip():
    h = function_hopf(FiniteGroup.cyclic(3))
    obj = hopf_to_obj(h)
    back = hopf_from_obj(obj)
    assert back.coproduct.rows == h.coproduct.rows
    assert back.counit.rows == h.counit.rows
    assert back.antipode.rows == h.antipode.rows
    assert back.antipode_inv.rows == h.antipode_inv.rows
    assert hopf_to_obj(back) == obj


def test_comodule_round_trip():
    c = fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2)))
    obj = comodule_to_obj(c)
    back = comodule_from_obj(obj)
    assert back.coaction.rows == c.coaction.rows
    assert comodule_to_obj(back) == obj


def test_group_and_gset_round_trip():
    g = FiniteGroup.symmetric(3)
    gobj = group_to_obj(g)
    assert group_from_obj(gobj).table == g.table
    gset = FiniteGSet.regular(g)
    sobj = gset_to_obj(gset)
    back = gset_from_obj(sobj)
    assert back.act == gset.act
    assert gset_to_obj(back) == sobj


def test_group_check_reports_axioms_instead_of_raising():
    bad = {
        "kind": "group",
        "names": ["e", "a"],
        "table": [[0, 0], [0, 0]],
    }
    kind, group, failures = parse_checked(bad, "group")
    assert kind == "group" and group is None
    assert failures and failures[0].axiom == "group_axioms"
    with pytest.raises(InputFormatError) as exc:
        group_from_obj(bad)
    assert str(exc.value) == f"group: {failures[0].detail}"
    with pytest.raises(InputFormatError):
        parse_checked({"kind": "group", "names": ["e"]}, "group")


def test_gset_check_reports_action_axioms():
    g = FiniteGroup.cyclic(2)
    bad = {
        "kind": "gset",
        "group": group_to_obj(g),
        "points": ["p"],
        "act": [[1, 0]],
    }
    kind, gset, failures = parse_checked(bad, "gset")  # point index out of range
    assert kind == "gset" and gset is None
    assert failures and failures[0].axiom == "action_axioms"
    shifted = {
        "kind": "gset",
        "group": group_to_obj(g),
        "points": ["p", "q"],
        "act": [[1, 0], [0, 1]],
    }
    kind, gset, failures = parse_checked(shifted, "gset")
    assert kind == "gset" and gset is None
    assert failures and failures[0].axiom == "action_axioms"
    with pytest.raises(InputFormatError) as exc:
        gset_from_obj(shifted)
    assert str(exc.value) == f"gset: {failures[0].detail}"
    # a group table failing its axioms inside an action is malformed input
    bad_group = dict(shifted, group={"names": ["e", "a"], "table": [[0, 0], [0, 0]]})
    with pytest.raises(InputFormatError) as exc:
        parse_checked(bad_group, "gset")
    assert str(exc.value).startswith("gset.group: ")


def test_parse_checked_named_failures():
    g = FiniteGroup.cyclic(3)
    obj = hopf_to_obj(function_hopf(g))
    kind, _, failures = parse_checked(obj, "input")
    assert kind == "hopf" and not failures
    obj_bad = json.loads(json.dumps(obj))
    obj_bad["counit"][0][0] = "5"
    kind, _, failures = parse_checked(obj_bad, "input")
    assert kind == "hopf"
    assert failures
    assert all(f.axiom for f in failures)


def test_scenario_validation():
    good = {
        "kind": "scenario",
        "id": "demo",
        "operation": "check",
        "inputs": {},
        "params": {},
    }
    scn = scenario_from_obj(good)
    assert scn.id == "demo" and scn.operation == "check"
    with pytest.raises(InputFormatError):
        scenario_from_obj({**good, "operation": "frobnicate"})
    with pytest.raises(InputFormatError):
        scenario_from_obj({k: v for k, v in good.items() if k != "id"})
    with pytest.raises(InputFormatError):
        scenario_from_obj({**good, "inputs": []})


def test_inline_paths_resolves_relative_to_referring_file(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "inner.json").write_text(json.dumps({"value": "3/5"}))
    (tmp_path / "outer.json").write_text(
        json.dumps({"kind": "scenario", "nested": {"path": "sub/inner.json"}})
    )
    raw = inline_paths(json.loads((tmp_path / "outer.json").read_text()), tmp_path)
    assert raw["nested"] == {"value": "3/5"}
    with pytest.raises(InputFormatError):
        inline_paths({"path": "missing.json"}, tmp_path)


def test_inline_paths_depth_limit(tmp_path):
    for i in range(25):
        (tmp_path / f"f{i}.json").write_text(json.dumps({"path": f"f{i + 1}.json"}))
    (tmp_path / "f25.json").write_text(json.dumps({"done": 1}))
    with pytest.raises(InputFormatError) as exc:
        inline_paths({"path": "f0.json"}, tmp_path)
    assert "nest too deeply" in str(exc.value)


def test_json_nesting_counts_path_references(tmp_path):
    """A reference lands its file's content where it stands, so the
    bound on nesting holds for the whole document: a reference one
    level deep to a file ``MAX_JSON_DEPTH - 1`` levels deep is read, and
    one ``MAX_JSON_DEPTH`` levels deep is refused, naming that file."""
    outer, inner = tmp_path / "outer.json", tmp_path / "inner.json"
    outer.write_text(json.dumps({"kind": "scenario", "x": {"path": "inner.json"}}))
    for depth in (MAX_JSON_DEPTH - 1, MAX_JSON_DEPTH):
        inner.write_text("[" * depth + "]" * depth)
        if depth < MAX_JSON_DEPTH:
            kind, raw = load_raw(outer)
            assert kind == "scenario" and raw["x"] == json.loads(inner.read_text())
        else:
            with pytest.raises(InputFormatError, match=f"^{re.escape(str(inner))}: the document is nested"):
                load_raw(outer)


def test_load_document_kinds(tmp_path):
    alg = function_algebra(2)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra_to_obj(alg)))
    kind, raw, parsed = load_document(path)
    assert kind == "algebra"
    assert parsed.unit == alg.unit
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(InputFormatError):
        load_document(tmp_path / "bad.json")
    (tmp_path / "odd.json").write_text(json.dumps({"kind": "poem"}))
    with pytest.raises(InputFormatError):
        load_document(tmp_path / "odd.json")


def test_canonical_json_is_sorted_and_compact():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}'


def test_certificate_identity_ignores_timing(tmp_path):
    scn = {
        "kind": "scenario",
        "id": "x",
        "operation": "discrete-join",
        "inputs": {},
        "params": {"nx": 1, "ny": 1, "m": 1},
    }
    result = {"nx": 1, "ny": 1, "m": 1, "size": 2, "points": ["(0,*,y0)", "(1,x0,*)"]}
    c1 = make_certificate(scn, result, 0.123456)
    c2 = make_certificate(scn, result, 9.876543)
    assert c1["timing_seconds"] != c2["timing_seconds"]
    assert certificate_identity(c1) == certificate_identity(c2)
    out = tmp_path / "cert.json"
    write_certificate(c1, out)
    assert out.read_text() == canonical_json(c1) + "\n"


def test_verify_certificate_replays_scenarios():
    scn = {
        "kind": "scenario",
        "id": "join",
        "operation": "discrete-join",
        "inputs": {},
        "params": {"nx": 1, "ny": 2, "m": 1},
    }
    result = {
        "nx": 1,
        "ny": 2,
        "m": 1,
        "size": 3,
        "points": ["(0,*,y0)", "(0,*,y1)", "(1,x0,*)"],
    }
    ok, problems = verify_certificate(make_certificate(scn, result, 0.0))
    assert ok, problems
    wrong = dict(result, size=4)
    ok, problems = verify_certificate(make_certificate(scn, wrong, 0.0))
    assert not ok and problems


def test_verify_certificate_envelope_errors():
    with pytest.raises(InputFormatError):
        verify_certificate({"kind": "scenario"})
    with pytest.raises(InputFormatError):
        verify_certificate(
            {
                "kind": "certificate",
                "tool": {"name": "somebody-else"},
                "scenario": {},
                "result": {},
            }
        )


def test_verify_certificate_rejects_a_profile_without_exact_square_root(tmp_path):
    com = fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2)))
    scn = {
        "kind": "scenario",
        "id": "lift-z2-m2",
        "operation": "theorem-main",
        "inputs": {"comodule": comodule_to_obj(com)},
        "params": {"m": 2},
    }
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(scn))
    cert_path = tmp_path / "cert.json"
    assert entry(["fusion", str(scn_path), "--output", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    ok, problems = verify_certificate(cert)
    assert ok, problems
    cert["result"]["profile"][1] = "1/2"  # 1 - 1/4 = 3/4 is not a rational square
    ok, problems = verify_certificate(cert)
    assert not ok
    assert any(p.startswith("result.profile[1]") for p in problems), problems


def _certificate(tmp_path, command, scn):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    cert_path = tmp_path / "cert.json"
    assert entry([command, str(path), "--output", str(cert_path)]) in (0, 3)  # 3: refuted
    return json.loads(cert_path.read_text())


def _scenario(op, inputs=None, params=None):
    return {"kind": "scenario", "id": "t", "operation": op,
            "inputs": inputs or {}, "params": params or {}}


def _regular(n):
    return FiniteGSet.regular(FiniteGroup.cyclic(n))


def _set(path, value):
    """A tampering that sets one field of a certificate."""
    def tamper(cert):
        *parents, last = path
        holder = cert
        for key in parents:
            holder = holder[key]
        holder[last] = value(holder[last])
    return tamper


_FUSION = ("fusion", lambda: _scenario(
    "fusion",
    {"left": algebra_to_obj(function_algebra(2)), "right": algebra_to_obj(function_algebra(3))},
    {"m": 2},
))
_EQUIVARIANT = ("fusion", lambda: _scenario(
    "equivariant-fusion", {"comodule": comodule_to_obj(fun_comodule(_regular(2)))}, {"m": 2}
))
_PULLBACK = ("fusion", lambda: _scenario(
    "pullback", {"comodule": comodule_to_obj(fun_comodule(_regular(2)))},
    {"m_lower": 1, "m_upper": 1},
))
_JOIN_VS_FUSION = ("classical", lambda: _scenario("join-vs-fusion", params={"nx": 2, "ny": 2, "m": 2}))
_GAUGED = ("classical", lambda: _scenario(
    "gauged-join-iso", {"gset": gset_to_obj(_regular(2))}, {"m": 2}
))
_FREENESS = ("classical", lambda: _scenario("freeness", {"gset": gset_to_obj(_regular(3))}))
_DIAGONAL = ("classical", lambda: _scenario(
    "diagonal-join-freeness", {"gset": gset_to_obj(_regular(2))}, {"m": 1}
))
_REFUTED = ("classical", lambda: _scenario(
    "freeness", {"gset": gset_to_obj(FiniteGSet.trivial(FiniteGroup.cyclic(2), 2))}
))
_THEOREM = ("fusion", lambda: _scenario(
    "theorem-main", {"comodule": comodule_to_obj(fun_comodule(_regular(2)))},
    {"m": 2, "profile": ["0", "3/5", "1"]},
))


@pytest.mark.parametrize(
    "run, tamper, named",
    [
        (_FUSION, _set(["result", "dims", "ambient"], lambda v: v + 1), "result.dims.ambient"),
        (_EQUIVARIANT, _set(["result", "dims", "ambient"], lambda v: v + 1), "result.dims.ambient"),
        (_PULLBACK, _set(["result", "m_lower"], lambda v: v + 1), "result.m_lower"),
        (_JOIN_VS_FUSION, _set(["result", "m"], lambda v: v + 1), "result.m"),
        (_FREENESS, _set(["result", "size"], lambda v: v + 1), "result.size"),
        (_FREENESS, _set(["result", "order"], lambda v: v + 1), "result.order"),
        (_FREENESS, _set(["result", "num_unknowns"], lambda v: v + 1), "result.num_unknowns"),
        (_DIAGONAL, _set(["result", "join_size"], lambda v: v + 1), "result.join_size"),
        (_REFUTED, _set(["result", "num_rows"], lambda v: v + 1), "result.num_rows"),
        (_REFUTED, _set(["result", "infeasibility", "row_index"], lambda v: v - 1),
         "result.infeasibility.row_index"),
        (_THEOREM, _set(["result", "m"], lambda v: v + 1), "result.m"),
        (_THEOREM, _set(["result", "corestricts", 0], lambda v: False), "result.corestricts[0]"),
        (_THEOREM, _set(["result", "corestricts", 1], lambda v: 1), "result.corestricts[1]"),
        (_THEOREM, _set(["result", "input_connection_unital"], lambda v: not v),
         "result.input_connection_unital"),
        (_THEOREM, _set(["result", "fusion_num_unknowns"], lambda v: v + 1),
         "result.fusion_num_unknowns"),
        (_THEOREM, _set(["result", "profile", 1], lambda v: "4/5"), "result.profile[1]"),
        (_THEOREM, _set(["scenario", "params", "profile", 1], lambda v: "4/5"), "result.profile[1]"),
        # replay runs the joins again: the recorded map must be the one computed
        (_JOIN_VS_FUSION, _set(["result", "iso", "entries", 0, 2], lambda v: "2"),
         "result.iso.entries[0][2]"),
        (_GAUGED, _set(["result", "point_map"], lambda v: v[1:] + v[:1]),
         "result.point_map[0]"),
    ],
)
def test_replay_rederives_recorded_facts(tmp_path, run, tamper, named):
    command, scn = run
    cert = _certificate(tmp_path, command, scn())
    ok, problems = verify_certificate(cert)
    assert ok, problems
    tamper(cert)
    ok, problems = verify_certificate(cert)
    assert not ok
    assert any(p.startswith(f"{named}:") for p in problems), problems


def test_replay_reports_an_input_failing_its_axioms(tmp_path):
    _, scn = _EQUIVARIANT
    cert = _certificate(tmp_path, "fusion", scn())
    cert["scenario"]["inputs"]["comodule"]["hopf"]["coproduct"][0][0] = "0"
    ok, problems = verify_certificate(cert)
    assert not ok
    assert problems[0].startswith("inputs.comodule: the comodule fails "), problems


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        # a Farkas refutation with integral rows
        (["solve-connection", "data/comodule_trivial_z2.json"],
         "solve-connection-comodule_trivial_z2"),
        (["fusion", "data/scenario_theorem_main.json"], "fusion-scenario_theorem_main"),
        # a refutation on a non-free O(Z2)-set in a rescaled basis, whose
        # connection-system rows have denominators other than 1
        (["solve-connection", "tests/golden/comodule_rescaled_nonfree_z2.json"],
         "solve-connection-comodule_rescaled_nonfree_z2"),
        # a direct sum, a hom check and the glue map
        (["fusion", "data/scenario_pullback.json"], "fusion-scenario_pullback"),
        (["classical", "data/scenario_join_vs_fusion.json"],
         "classical-scenario_join_vs_fusion"),
        (["classical", "data/scenario_diagonal_join_freeness.json"],
         "classical-scenario_diagonal_join_freeness"),
        # the canonical map's bijectivity, on a free and on a non-free
        # G-set (Z4 on a free orbit and on Z4/Z2)
        (["classical", "tests/golden/scenario_freeness_regular_z3.json"],
         "classical-scenario_freeness_regular_z3"),
        (["classical", "tests/golden/scenario_freeness_nonfree_z4.json"],
         "classical-scenario_freeness_nonfree_z4"),
    ],
)
def test_certificates_match_golden_files(tmp_path, argv, golden):
    """The certificates in ``tests/golden`` were written once by the
    command line with ``--output``; a change to the system build or the
    solver must reproduce them byte for byte apart from the timing."""
    out = tmp_path / "cert.json"
    entry([argv[0], str(ROOT / argv[1]), "--output", str(out)])
    expected = json.loads((GOLDEN / f"{golden}.cert.json").read_text())
    assert certificate_identity(json.loads(out.read_text())) == certificate_identity(expected)


REFS = sorted((ROOT / "perfbench" / "refs").glob("*.json"))


@pytest.mark.parametrize("path", REFS, ids=lambda p: p.stem)
def test_benchmark_references_are_reproduced(path):
    """The benchmark's reference certificates, among them the only H4,
    kS3 and O(S3) theorem-main ones, whose units are not all ones: the
    recorded scenario run again gives the recorded result, and the
    certificate replays."""
    cert = json.loads(path.read_text())
    op, args, failed = prepare(scenario_from_obj(cert["scenario"]))
    assert not failed
    result = op.run(args)[0]
    assert canonical_json(result) == canonical_json(cert["result"])
    assert verify_certificate(cert) == (True, [])


def test_every_benchmark_reference_is_pinned():
    assert len(REFS) == 9


@pytest.mark.parametrize(
    "argv",
    [
        ["fusion", "data/scenario_theorem_main.json"],
        ["solve-connection", "tests/golden/comodule_rescaled_nonfree_z2.json"],
    ],
)
def test_certificates_do_not_depend_on_the_hash_seed(tmp_path, argv):
    """Sparse elimination iterates dicts; a certificate written under
    one string-hash seed equals one written under another."""
    identities = []
    for seed in ("0", "1"):
        out = tmp_path / f"cert-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fusionalg.cli", argv[0], str(ROOT / argv[1]), "--output", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert out.exists(), proc.stderr
        identities.append(certificate_identity(json.loads(out.read_text())))
    assert identities[0] == identities[1]


@pytest.mark.parametrize(
    "entry",
    [0, 7, -3, "0", "1", "-1", "007", "-0", "3/5", "-6/4", "1e3", "٣", " 2", "9" * 30, 10**40],
)
def test_dense_map_entries_read_as_rationals(entry):
    """A dense matrix reads every accepted entry, an ``int`` or a plain
    integer spelling read directly or any other through
    ``rational_from_obj``, as the same map that the rationals give."""
    space = Space.of_dim(2)
    row = [entry, "1/2"]
    got = dense_map_from_obj([row], space, Space.scalar(), "m")
    expected = LinearMap(space, Space.scalar(), [[rational_from_obj(v) for v in row]])
    assert got == expected


@pytest.mark.parametrize("entry", [True, False, 0.5, None, [1], "one", "1/0", "9" * 5000])
def test_dense_map_entries_refused_as_rational_from_obj_refuses(entry):
    """A bool, a float or any other value that is no plain integer is
    refused with the message ``rational_from_obj`` gives at that entry."""
    with pytest.raises(InputFormatError) as expected:
        rational_from_obj(entry, "m[0][1]")
    with pytest.raises(InputFormatError) as err:
        dense_map_from_obj([[0, entry]], Space.of_dim(2), Space.scalar(), "m")
    assert str(err.value) == str(expected.value)
