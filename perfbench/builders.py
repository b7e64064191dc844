"""Seeded input builders for the benchmark.

Everything the workloads feed to the library is made here from a seed:
the Hopf algebras and comodules of the lift ladder, the corpus of finite
G-sets, and the tampered certificate copies.  Known answers are derived
from how an input was built (which stabilizers its orbits have, which
field a copy changes), never from the library under test.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from fusionalg.algebra import FDAlgebra
from fusionalg.classical import fun_comodule
from fusionalg.comodule import ComoduleAlgebra, check_comodule
from fusionalg.groups import FiniteGroup, FiniteGSet
from fusionalg.hopf import HopfAlgebra, check_hopf, group_hopf, make_hopf
from fusionalg.linalg import LinearMap, Space
from fusionalg.serialize import comodule_to_obj

Q1 = Fraction(1)


# ---------------------------------------------------------------- Hopf algebras

def sweedler_h4() -> HopfAlgebra:
    """Sweedler's 4-dimensional Hopf algebra on the basis 1, g, x, gx:
    g² = 1, x² = 0, xg = -gx, Δg = g⊗g, Δx = x⊗1 + g⊗x, S(x) = -gx.
    Noncommutative, non-cocommutative, and S has order 4."""
    one, g, x, gx = range(4)
    table = [[{} for _ in range(4)] for _ in range(4)]
    for b in range(4):
        table[one][b] = {b: Q1}
        table[b][one] = {b: Q1}
    table[g][g] = {one: Q1}
    table[g][x] = {gx: Q1}
    table[g][gx] = {x: Q1}
    table[x][g] = {gx: -Q1}
    table[gx][g] = {x: -Q1}
    space = Space(("1", "g", "x", "gx"))
    algebra = FDAlgebra.from_structure(space, table, (1, 0, 0, 0))
    cop = {
        one: {(one, one): 1},
        g: {(g, g): 1},
        x: {(x, one): 1, (g, x): 1},
        gx: {(gx, g): 1, (one, gx): 1},
    }
    cop_cols = [[0] * 16 for _ in range(4)]
    for b, terms in cop.items():
        for (l, r), v in terms.items():
            cop_cols[b][l * 4 + r] = v
    coproduct = LinearMap.from_columns(space, space.tensor(space), cop_cols)
    counit = LinearMap.from_rows(space, Space.scalar(), [(1, 1, 0, 0)])
    antipode = LinearMap.from_columns(
        space,
        space,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)],
    )
    return make_hopf(algebra, coproduct, counit, antipode)


def self_coaction(h: HopfAlgebra) -> ComoduleAlgebra:
    """H coacting on itself by its coproduct."""
    return ComoduleAlgebra(h.algebra, h, h.coproduct)


def checked_hopf(h: HopfAlgebra, name: str) -> HopfAlgebra:
    report = check_hopf(h)
    if not report.ok:
        raise RuntimeError(f"{name} fails the Hopf axioms: {report.failures}")
    return h


def checked_comodule(c: ComoduleAlgebra, name: str) -> ComoduleAlgebra:
    report = check_comodule(c)
    if not report.ok:
        raise RuntimeError(f"{name} fails the comodule axioms: {report.failures}")
    return c


# ---------------------------------------------------------------- groups

def z2xz2() -> FiniteGroup:
    return FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))


GROUPS = {
    "Z2": lambda: FiniteGroup.cyclic(2),
    "Z3": lambda: FiniteGroup.cyclic(3),
    "Z4": lambda: FiniteGroup.cyclic(4),
    "Z2xZ2": z2xz2,
    "S3": lambda: FiniteGroup.symmetric(3),
}


def subgroups(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup, as a sorted tuple of element indices."""
    n = group.order
    found = set()
    for a in range(n):
        for b in range(n):
            closure = {group.identity, a, b}
            while True:
                more = {group.table[u][v] for u in closure for v in closure}
                if more <= closure:
                    break
                closure |= more
            found.add(tuple(sorted(closure)))
    return sorted(found, key=lambda s: (len(s), s))


def coset_gset(group: FiniteGroup, sub: tuple[int, ...], tag: str) -> FiniteGSet:
    """The right action of G on the right cosets K·g of a subgroup K."""
    cosets: list[frozenset[int]] = []
    index: dict[int, int] = {}
    for g in range(group.order):
        if g in index:
            continue
        coset = frozenset(group.table[k][g] for k in sub)
        for u in coset:
            index[u] = len(cosets)
        cosets.append(coset)
    act = [
        [index[group.table[min(c)][g]] for g in range(group.order)]
        for c in cosets
    ]
    points = [f"{tag}{i}" for i in range(len(cosets))]
    return FiniteGSet.from_table(group, points, act)


def union_of_orbits(group: FiniteGroup, subs) -> FiniteGSet:
    points: list[str] = []
    act: list[list[int]] = []
    for i, sub in enumerate(subs):
        orbit = coset_gset(group, sub, f"o{i}.")
        base = len(points)
        points.extend(orbit.points)
        act.extend([base + v for v in row] for row in orbit.act)
    return FiniteGSet.from_table(group, points, act)


def regular_comodule(group: FiniteGroup) -> ComoduleAlgebra:
    """O(G) coacting on itself: functions on the regular G-set."""
    return fun_comodule(FiniteGSet.regular(group))


# ---------------------------------------------------------------- scenarios

def theorem_scenario(sid: str, com: ComoduleAlgebra, m: int) -> dict:
    return {
        "kind": "scenario",
        "id": sid,
        "operation": "theorem-main",
        "inputs": {"comodule": comodule_to_obj(com)},
        "params": {"m": m},
    }


def ladder_scenarios() -> list[dict]:
    """The four lift-ladder rungs, in their reference order."""
    h4 = checked_hopf(sweedler_h4(), "Sweedler's H4")
    return [
        theorem_scenario("ladder-z2-m2", regular_comodule(GROUPS["Z2"]()), 2),
        theorem_scenario("ladder-z3-m3", regular_comodule(GROUPS["Z3"]()), 3),
        theorem_scenario(
            "ladder-h4-m2", checked_comodule(self_coaction(h4), "H4 on itself"), 2
        ),
        theorem_scenario("ladder-z4-m2", regular_comodule(GROUPS["Z4"]()), 2),
    ]


def pullback_scenario(sid: str, com: ComoduleAlgebra, m_lower: int, m_upper: int) -> dict:
    return {
        "kind": "scenario",
        "id": sid,
        "operation": "pullback",
        "inputs": {"comodule": comodule_to_obj(com)},
        "params": {"m_lower": m_lower, "m_upper": m_upper},
    }


def reference_only_scenarios() -> list[dict]:
    """Scenarios replayed but too costly to produce in a timed run:
    O(S3) and kS3 on itself each take about 30 s and 0.5 GB at m = 1."""
    ks3 = checked_hopf(group_hopf(GROUPS["S3"]()), "kS3")
    return [
        theorem_scenario("theorem-s3-m1", regular_comodule(GROUPS["S3"]()), 1),
        theorem_scenario(
            "theorem-ks3-m1", checked_comodule(self_coaction(ks3), "kS3 on itself"), 1
        ),
        pullback_scenario("pullback-z3-2-2", regular_comodule(GROUPS["Z3"]()), 2, 2),
    ]


# Comodules of corpus G-sets whose solve-connection certificates are
# replayed: a free one (a connection is recorded) and a non-free one
# (Farkas multipliers are recorded).  Each entry is (group, stabilizer
# orders).  Only two, so that the replay items costing a few hundredths
# of a second stay fewer than the fusion replays and the median item is
# a fusion replay.
SOLVE_REFERENCES = {
    "solve-s3-free-1": ("S3", (1,)),
    "solve-s3-nonfree-2-3": ("S3", (2, 3)),
}


def first_subgroups(group: FiniteGroup, orders) -> list[tuple[int, ...]]:
    """For each order, the first subgroup of that order."""
    subs = subgroups(group)
    return [next(s for s in subs if len(s) == k) for k in orders]


def solve_reference_comodules() -> dict[str, ComoduleAlgebra]:
    out = {}
    for name, (gname, orders) in SOLVE_REFERENCES.items():
        group = GROUPS[gname]()
        out[name] = fun_comodule(union_of_orbits(group, first_subgroups(group, orders)))
    return out


# ---------------------------------------------------------------- corpus

# Stabilizer orders of the orbits of each G-set, per group, half of them
# free, so the draw is half free whatever the seed.  The seed picks which
# subgroup of each order stabilizes an orbit (Z2xZ2 and S3 each have three
# of order 2), the order of the orbits and the order of the whole draw; it
# never changes a G-set's size.  Most G-sets cost between 0.13 and 0.28 s
# to decide, so the median item sits on a plateau of similar items rather
# than between a cluster of tiny ones and a cluster of large ones.
CORPUS_SLOTS = {
    "Z2": [(1, 1, 1), (1, 1), (1, 1, 2), (1, 2, 2)],
    "Z3": [(1, 1, 1), (1, 1), (1, 1, 1), (1, 1), (1, 1, 3), (1, 3, 3), (1, 1, 3), (1, 3)],
    "Z4": [(1, 1), (1, 1), (1, 1), (1,), (1, 2), (1, 2), (1, 2, 4), (2, 4)],
    "Z2xZ2": [(1, 1), (1, 1), (1, 1), (1,), (1, 2), (1, 2), (2, 2, 4), (2, 2)],
    "S3": [(1,), (1,), (1,), (1, 1), (2,), (2, 3), (2, 2), (1, 2)],
}

# Free G-sets (one regular orbit) whose diagonal join is decided, with
# the chain length of the join.
DIAGONAL_JOIN_SLOTS = [("Z3", 2), ("Z4", 1), ("Z2xZ2", 1), ("S3", 1)]


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    gset: FiniteGSet
    comodule: ComoduleAlgebra | None  # None for a diagonal-join entry
    m: int | None  # chain length of a diagonal-join entry
    free: bool  # known answer: every orbit has a trivial stabilizer


def corpus_draw(seed: int) -> list[CorpusEntry]:
    rng = random.Random(f"decide-corpus:{seed}")
    entries = []
    for gname, slots in CORPUS_SLOTS.items():
        group = GROUPS[gname]()
        subs = subgroups(group)
        for k, orders in enumerate(slots):
            chosen = [rng.choice([s for s in subs if len(s) == n]) for n in orders]
            rng.shuffle(chosen)
            gset = union_of_orbits(group, chosen)
            free = all(len(s) == 1 for s in chosen)
            entries.append(
                CorpusEntry(f"{gname}-{k}", gset, fun_comodule(gset), None, free)
            )
    for gname, m in DIAGONAL_JOIN_SLOTS:
        group = GROUPS[gname]()
        gset = union_of_orbits(group, [(group.identity,)])
        entries.append(CorpusEntry(f"{gname}-join-m{m}", gset, None, m, True))
    rng.shuffle(entries)
    return entries


def corpus_digest(entries: list[CorpusEntry]) -> str:
    return json.dumps(
        [(e.id, e.gset.group.names, e.gset.act, e.m, e.free) for e in entries]
    )


# ---------------------------------------------------------------- tampering

# Changes added to one witness entry.
WITNESS_DELTAS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))

# Interior profile values s for which 1 - s² is not a rational square,
# so no exact square-root pair, and hence no recorded lift, can use them.
NON_PYTHAGOREAN = tuple(
    Fraction(p, q) for p, q in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 7), (5, 7), (7, 10))
)


def _is_rational_square(q: Fraction) -> bool:
    return isqrt(q.numerator) ** 2 == q.numerator and isqrt(q.denominator) ** 2 == q.denominator


if any(_is_rational_square(1 - s * s) for s in NON_PYTHAGOREAN):
    raise ValueError("a replacement profile value is Pythagorean")


@dataclass(frozen=True)
class TamperedCopy:
    id: str
    kind: str
    certificate: dict


def _nonzero_products(algebra_obj: dict) -> set[tuple[int, int]]:
    """Pairs (i, j) of basis vectors with e_i·e_j != 0, read from the
    structure constants a document records."""
    return {(i, j) for i, j, _, v in algebra_obj["mult"] if Fraction(v) != 0}


def _witness_entry(cert: dict, rng: random.Random):
    """The container and key of the witness entry to change.

    A connection entry is picked only where the two tensor legs
    e_p1, e_p2 multiply to a nonzero element: adding d to the entry then
    adds d·e_p1·e_p2 to m∘ℓ, so the counit_product axiom must fail and
    the change cannot turn one connection into another.  Farkas
    multipliers and gluing maps are fully determined, so any entry will
    do.
    """
    scn, result = cert["scenario"], cert["result"]
    if scn["operation"] == "pullback":
        entries = result["glue"]["entries"]
        return entries[rng.randrange(len(entries))], 2
    if scn["operation"] == "solve-connection" and result["connection"] is None:
        farkas = result["infeasibility"]["farkas"]
        return farkas, rng.choice(sorted(farkas, key=int))
    field = "input_connection" if scn["operation"] == "theorem-main" else "connection"
    algebra = scn["inputs"]["comodule"]["algebra"]
    dp = len(algebra["labels"])
    products = _nonzero_products(algebra)
    entries = [e for e in result[field]["entries"] if divmod(e[0], dp) in products]
    return entries[rng.randrange(len(entries))], 2


def tampered_copies(refs: dict[str, dict], seed: int) -> list[TamperedCopy]:
    """One copy per applicable kind of change for every reference:

    * ``witness``: one entry of the input connection, gluing map or
      Farkas multiplier set changed by a nonzero amount;
    * ``dimension``: one recorded dimension raised;
    * ``m``: the scenario's chain length lowered by one, which makes an
      m of 1 malformed (theorem-main and pullback only);
    * ``profile``: one interior profile value replaced by a value whose
      1 - s² is not a square (theorem-main with an interior point only).

    Every copy must be rejected.  The seed picks the entry, dimension,
    chain-length parameter and profile value; the number of copies of
    each kind is fixed.
    """
    rng = random.Random(f"replay:{seed}")
    out = []
    for name in sorted(refs):
        ref = refs[name]
        op = ref["scenario"]["operation"]

        cert = copy.deepcopy(ref)
        holder, key = _witness_entry(cert, rng)
        holder[key] = str(Fraction(holder[key]) + rng.choice(WITNESS_DELTAS))
        out.append(TamperedCopy(f"{name}:witness", "witness", cert))

        cert = copy.deepcopy(ref)
        dims = cert["result"]["dims"]
        dims[rng.choice(sorted(dims))] += rng.choice((1, 2))
        out.append(TamperedCopy(f"{name}:dimension", "dimension", cert))

        params = ref["scenario"]["params"]
        m_keys = [k for k in ("m", "m_lower", "m_upper") if k in params]
        if m_keys:
            cert = copy.deepcopy(ref)
            key = rng.choice(m_keys)
            cert["scenario"]["params"][key] = params[key] - 1
            out.append(TamperedCopy(f"{name}:m", "m", cert))

        profile = ref["result"].get("profile") if op == "theorem-main" else None
        if profile is not None and len(profile) > 2:
            cert = copy.deepcopy(ref)
            i = rng.randrange(1, len(profile) - 1)
            old = Fraction(profile[i])
            cert["result"]["profile"][i] = str(
                rng.choice([s for s in NON_PYTHAGOREAN if s != old])
            )
            out.append(TamperedCopy(f"{name}:profile", "profile", cert))
    return out
