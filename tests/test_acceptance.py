"""Acceptance battery.

Each test covers one numbered acceptance criterion and prints one
pass line (visible with ``pytest -s`` or ``-v``).  The criteria:

1. Hopf axiom battery on five groups, both constructions, plus twenty
   seeded single-entry mutations that must each fail a named axiom.
2. Exhaustive small-action corpus: combinatorial freeness, bijectivity
   of the canonical map, and solver principality always agree.
3. Every connection found in 2 splits the counit and induces an exact
   two-sided translation inverse.
4. The lifting statement end to end on five instances, with the
   reference dimension pinned.
5. Functions on a discrete join are the fusion of the end function
   algebras, across the whole small grid.
6. Diagonal and gauged joins are equivariantly isomorphic, and the two
   freeness computations for diagonal joins agree, on regular actions.
7. The fusion is the fiber product of its two one-condition halves,
   whose coinvariants are exactly the expected bases.
8. A different exact square-root profile changes the lifted connection
   but never a verdict.
9. Rerunning every operation yields byte-identical certificates up to
   the recorded timing.
"""

import json
import time
from fractions import Fraction

from fusionalg.algebra import AlgebraHom, check_hom
from fusionalg.classical import (
    diagonal_join_freeness,
    fun_comodule,
    fun_of_join_vs_fusion,
    gauged_join_iso,
)
from fusionalg.cli import entry
from fusionalg.comodule import (
    canonical_map,
    check_strong_connection,
    coinvariants,
    is_principal,
    translation_inverse,
)
from fusionalg.fusion import (
    chain_interval,
    make_sqrt_pair,
    piecewise_parts,
    pullback_identification,
    verify_theorem_main,
)
from fusionalg.groups import FiniteGroup, FiniteGSet, cyclic_actions, is_free
from fusionalg.hopf import check_hopf, function_hopf, group_hopf, make_hopf
from fusionalg.linalg import LinearMap, Subspace, tensor_vec
from fusionalg.serialize import (
    certificate_identity,
    comodule_to_obj,
    gset_to_obj,
    hopf_to_obj,
    verify_certificate,
)

Q = Fraction

HOPF_GROUPS = (
    ("Z/2", FiniteGroup.cyclic(2)),
    ("Z/3", FiniteGroup.cyclic(3)),
    ("Z/4", FiniteGroup.cyclic(4)),
    ("Z/2xZ/2", FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))),
    ("S3", FiniteGroup.symmetric(3)),
)


def action_corpus():
    out = []
    for n in (2, 3):
        for size in (1, 2, 3, 4):
            out.extend(cyclic_actions(n, size))
    return out


def theorem_instances():
    z2 = FiniteGSet.regular(FiniteGroup.cyclic(2))
    z3 = FiniteGSet.regular(FiniteGroup.cyclic(3))
    two = FiniteGSet.disjoint_union(z2, z2)
    return (
        ("regular Z/2, m=1", fun_comodule(z2), 1),
        ("regular Z/2, m=2", fun_comodule(z2), 2),
        ("regular Z/2, m=3", fun_comodule(z2), 3),
        ("regular Z/3, m=2", fun_comodule(z3), 2),
        ("two free Z/2 orbits, m=2", fun_comodule(two), 2),
    )


def bump(m: LinearMap, i: int, j: int) -> LinearMap:
    rows = [list(r) for r in m.rows]
    rows[i][j] += Q(1)
    return LinearMap(m.source, m.target, tuple(tuple(r) for r in rows))


def test_criterion_1_hopf_axiom_battery():
    import random

    start = time.perf_counter()
    rng = random.Random(1)
    checked = 0
    mutations = 0
    for name, group in HOPF_GROUPS:
        for build in (function_hopf, group_hopf):
            h = build(group)
            report = check_hopf(h)
            assert report.ok, (name, build.__name__, report.failures)
            checked += 1
            for _ in range(2):
                which = rng.choice(("coproduct", "counit", "antipode"))
                target = getattr(h, which)
                i = rng.randrange(target.target.dim)
                j = rng.randrange(target.source.dim)
                maps = {
                    "coproduct": h.coproduct,
                    "counit": h.counit,
                    "antipode": h.antipode,
                }
                maps[which] = bump(target, i, j)
                if which == "antipode":
                    mutated = make_hopf(
                        h.algebra, maps["coproduct"], maps["counit"], maps["antipode"]
                    )
                else:
                    mutated = make_hopf(
                        h.algebra,
                        maps["coproduct"],
                        maps["counit"],
                        maps["antipode"],
                        antipode_inv=h.antipode_inv,
                    )
                bad = check_hopf(mutated)
                assert not bad.ok, (name, build.__name__, which, i, j)
                assert bad.axioms_failed(), (name, which)
                mutations += 1
    elapsed = time.perf_counter() - start
    assert checked == 10 and mutations == 20
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 1 PASS: 10 Hopf instances verified, 20 mutations "
        f"each failed a named axiom ({elapsed:.2f}s)"
    )


def test_criterion_2_freeness_three_ways():
    start = time.perf_counter()
    corpus = action_corpus()
    assert len(corpus) == 31
    free_count = 0
    for gset in corpus:
        com = fun_comodule(gset)
        free = is_free(gset)
        bijective = canonical_map(com).bijective
        principal = is_principal(com).principal
        assert free == bijective == principal, (
            gset.group.names,
            gset.act,
            free,
            bijective,
            principal,
        )
        free_count += free
    elapsed = time.perf_counter() - start
    assert free_count == 6
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 2 PASS: 31 exhaustively enumerated actions, "
        f"freeness = canonical bijectivity = principality throughout "
        f"({free_count} free; {elapsed:.2f}s)"
    )


def test_criterion_3_connections_split_and_invert():
    start = time.perf_counter()
    verified = 0
    for gset in action_corpus():
        com = fun_comodule(gset)
        verdict = is_principal(com)
        if not verdict.principal:
            continue
        ell = verdict.connection.map
        report = check_strong_connection(com, ell)
        assert report.ok, report.failures  # includes m∘ℓ = unit∘ε
        can = canonical_map(com)
        t = translation_inverse(com, ell, can)  # raises unless two-sided
        assert t.compose(can.map).is_identity()
        assert can.map.compose(t).is_identity()
        verified += 1
    elapsed = time.perf_counter() - start
    assert verified == 6
    print(
        f"ACCEPTANCE 3 PASS: every solver connection ({verified}) splits "
        f"the counit and inverts the canonical map ({elapsed:.2f}s)"
    )


def test_criterion_4_lifting_statement():
    start = time.perf_counter()
    dims = {}
    for name, com, m in theorem_instances():
        cert = verify_theorem_main(com, m)
        assert cert.input_verdict.principal
        assert cert.lifted.report.ok
        assert cert.lifted.corestricts == (True, True, True, True)
        assert cert.fusion_verdict.principal
        dims[name] = cert.fusion.comodule.algebra.dim
    assert dims["regular Z/2, m=2"] == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 4 PASS: lifted connections verified on 5 instances, "
        f"fusion dimension 8 confirmed for the reference case ({elapsed:.2f}s)"
    )


def test_criterion_5_join_functions_are_fusions():
    start = time.perf_counter()
    runs = 0
    for nx in (1, 2, 3):
        for ny in (1, 2, 3):
            for m in (1, 2, 3):
                out = fun_of_join_vs_fusion(nx, ny, m)
                expect = ny + (m - 1) * nx * ny + nx
                assert out.join.size == expect
                assert out.fusion.algebra.dim == expect
                rep = check_hom(
                    AlgebraHom(out.functions, out.fusion.algebra, out.map)
                )
                assert rep.ok and rep.bijective, (nx, ny, m, rep.failures)
                runs += 1
    elapsed = time.perf_counter() - start
    assert runs == 27
    print(
        f"ACCEPTANCE 5 PASS: 27 joins match their fusions through an "
        f"explicit algebra isomorphism ({elapsed:.2f}s)"
    )


def test_criterion_6_joins_of_regular_actions():
    start = time.perf_counter()
    runs = 0
    for n in (2, 3, 4):
        gset = FiniteGSet.regular(FiniteGroup.cyclic(n))
        for m in (1, 2, 3):
            iso = gauged_join_iso(gset, m)
            assert sorted(iso.point_map) == list(range(iso.diagonal.size))
            for x in range(iso.diagonal.size):
                for a in range(n):
                    assert (
                        iso.point_map[iso.diagonal.apply(x, a)]
                        == iso.gauged.apply(iso.point_map[x], a)
                    )
            freeness = diagonal_join_freeness(gset, m)
            assert freeness.join_free
            assert freeness.fusion_verdict.principal
            assert freeness.both_hold
            runs += 1
    elapsed = time.perf_counter() - start
    assert runs == 9
    print(
        f"ACCEPTANCE 6 PASS: 9 regular-action joins: gauged iso verified "
        f"and both freeness computations agree ({elapsed:.2f}s)"
    )


def test_criterion_7_pullback_of_halves():
    start = time.perf_counter()
    inner = fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(2)))
    for m_lower, m_upper in ((1, 1), (1, 2), (2, 2)):
        out = pullback_identification(inner, m_lower, m_upper)
        total = m_lower + m_upper
        assert out.fusion.comodule.algebra.dim == (total - 1) * 4 + 4
        assert out.glue.inverse() is not None
    # the halves carry exactly the expected coinvariant bases
    for m in (1, 2):
        parts = piecewise_parts(chain_interval(m), inner)
        dh = inner.hopf.dim
        unit_h = inner.hopf.algebra.unit
        for half, base_wit in (
            (parts.lower_half, parts.lower_base),
            (parts.upper_half, parts.upper_base),
        ):
            ambient = half.inclusion.target
            got = Subspace.from_vectors(
                ambient,
                [half.inclusion.apply(b) for b in coinvariants(half.comodule).subspace.basis],
            )
            # C⊗P into C⊗P⊗H along x -> x⊗1
            expect = Subspace.from_vectors(
                ambient, [tensor_vec(b, unit_h, dh) for b in base_wit.subspace.basis]
            )
            assert got == expect
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 7 PASS: 3 pullback identifications verified; half "
        f"coinvariants equal their bases ({elapsed:.2f}s)"
    )


def test_criterion_8_profile_independence():
    start = time.perf_counter()
    changed = 0
    for name, com, m in theorem_instances():
        default = verify_theorem_main(com, m)
        alternate_profile = (Q(0),) + (Q(4, 5),) * (m - 1) + (Q(1),)
        alternate = verify_theorem_main(
            com, m, make_sqrt_pair(chain_interval(m), alternate_profile)
        )
        if m == 1:
            # only one profile exists on the two-point chain
            assert alternate.lifted.map.rows == default.lifted.map.rows
        else:
            assert alternate.lifted.map.rows != default.lifted.map.rows
            changed += 1
        assert alternate.input_verdict.principal == default.input_verdict.principal
        assert alternate.fusion_verdict.principal == default.fusion_verdict.principal
        assert alternate.lifted.report.ok and default.lifted.report.ok
    elapsed = time.perf_counter() - start
    assert changed == 4
    print(
        f"ACCEPTANCE 8 PASS: alternate profile changed 4 lifted "
        f"connections and no verdicts ({elapsed:.2f}s)"
    )


def test_criterion_9_certificates_reproducible(tmp_path, capsys):
    start = time.perf_counter()
    z2 = FiniteGroup.cyclic(2)
    regular = FiniteGSet.regular(z2)
    com_obj = comodule_to_obj(fun_comodule(regular))
    gset_obj = gset_to_obj(regular)
    from fusionalg.algebra import function_algebra
    from fusionalg.comodule import trivial_coaction
    from fusionalg.serialize import algebra_to_obj

    point_obj = comodule_to_obj(
        trivial_coaction(function_algebra(1), function_hopf(z2))
    )
    hopf_path = tmp_path / "hopf.json"
    hopf_path.write_text(json.dumps(hopf_to_obj(function_hopf(z2))))
    com_path = tmp_path / "com.json"
    com_path.write_text(json.dumps(com_obj))
    point_path = tmp_path / "point.json"
    point_path.write_text(json.dumps(point_obj))

    def scenario(op, inputs=None, params=None):
        return {
            "kind": "scenario",
            "id": f"rerun-{op}",
            "operation": op,
            "inputs": inputs or {},
            "params": params or {},
        }

    runs = [
        ("check", ["check", str(hopf_path)], 0),
        ("solve-feasible", ["solve-connection", str(com_path)], 0),
        ("solve-infeasible", ["solve-connection", str(point_path)], 3),
    ]
    scenario_runs = [
        (
            "fusion",
            "fusion",
            scenario(
                "fusion",
                inputs={
                    "left": algebra_to_obj(function_algebra(2)),
                    "right": algebra_to_obj(function_algebra(2)),
                },
                params={"m": 2},
            ),
            0,
        ),
        (
            "equivariant-fusion",
            "fusion",
            scenario("equivariant-fusion", inputs={"comodule": com_obj}, params={"m": 2}),
            0,
        ),
        (
            "theorem-main",
            "fusion",
            scenario("theorem-main", inputs={"comodule": com_obj}, params={"m": 2}),
            0,
        ),
        (
            "pullback",
            "fusion",
            scenario(
                "pullback",
                inputs={"comodule": com_obj},
                params={"m_lower": 1, "m_upper": 1},
            ),
            0,
        ),
        (
            "freeness",
            "classical",
            scenario("freeness", inputs={"gset": gset_obj}),
            0,
        ),
        (
            "discrete-join",
            "classical",
            scenario("discrete-join", params={"nx": 2, "ny": 2, "m": 2}),
            0,
        ),
        (
            "gauged-join-iso",
            "classical",
            scenario("gauged-join-iso", inputs={"gset": gset_obj}, params={"m": 2}),
            0,
        ),
        (
            "join-vs-fusion",
            "classical",
            scenario("join-vs-fusion", params={"nx": 2, "ny": 2, "m": 2}),
            0,
        ),
        (
            "diagonal-join-freeness",
            "classical",
            scenario("diagonal-join-freeness", inputs={"gset": gset_obj}, params={"m": 1}),
            0,
        ),
    ]
    for name, command, scn, expect in scenario_runs:
        path = tmp_path / f"{name}.scenario.json"
        path.write_text(json.dumps(scn))
        runs.append((name, [command, str(path)], expect))

    reproduced = 0
    for name, argv, expect in runs:
        out_a = tmp_path / f"{name}.a.json"
        out_b = tmp_path / f"{name}.b.json"
        assert entry(argv + ["--output", str(out_a)]) == expect, name
        assert entry(argv + ["--output", str(out_b)]) == expect, name
        cert_a = json.loads(out_a.read_text())
        cert_b = json.loads(out_b.read_text())
        assert certificate_identity(cert_a) == certificate_identity(cert_b), name
        ok, problems = verify_certificate(cert_a)
        assert ok, (name, problems)
        reproduced += 1
    capsys.readouterr()  # drop the runs' own stdout from the report
    elapsed = time.perf_counter() - start
    assert reproduced == len(runs) == 12
    print(
        f"ACCEPTANCE 9 PASS: 12 operations rerun with byte-identical "
        f"certificates modulo timing, all replays valid ({elapsed:.2f}s)"
    )
