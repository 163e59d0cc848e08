"""Named verification suites: each reruns a block of the realization theory
at desk scale and reports one pass/fail line per claim.

Expected values marked "catalog" are transcribed claims; "derived" values were
computed by an independent oracle in this repository (brute force,
exhaustive search, orbit counting).  Negative realizability verdicts carry
their provenance: "exhausted" when a search proved emptiness here,
"cited" when the claim is beyond desk scale and merely recorded.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from math import factorial

from . import build, classes, fields, flagmaps, groups, perms, realize
from .build import EpimorphismSpec
from .realize import Realization, Unrealizable

@dataclass
class Case:
    id: str
    expected: str
    observed: str
    status: str  # pass | fail | skipped-cap
    source: str = ""

    def to_json(self) -> dict:
        return {"id": self.id, "expected": self.expected,
                "observed": self.observed, "status": self.status,
                "source": self.source}


@dataclass
class SuiteReport:
    suite: str
    cases: list[Case]

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if c.status == "fail")

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def to_json(self) -> dict:
        return {"suite": self.suite,
                "cases": [c.to_json() for c in self.cases],
                "counts": {"pass": sum(1 for c in self.cases if c.status == "pass"),
                           "fail": self.failed,
                           "skipped-cap": sum(1 for c in self.cases
                                              if c.status == "skipped-cap")}}

    def to_markdown(self) -> str:
        lines = [f"## suite {self.suite}", ""]
        grid = self._grid_markdown()
        if grid:
            lines.extend(grid)
            lines.append("")
        lines.extend(["| case | expected | observed | status |",
                      "|---|---|---|---|"])
        for c in self.cases:
            lines.append(f"| {c.id} | {c.expected} | {c.observed} | {c.status} |")
        lines.append("")
        lines.append(f"pass {len(self.cases) - self.failed} / {len(self.cases)}")
        return "\n".join(lines) + "\n"

    def _grid_markdown(self) -> list[str] | None:
        """For the table suites: a class-by-group grid mirroring the shape of
        the source tables (+ realizable, - not, ! disagreement)."""
        import re
        cells = {}
        cols: list[str] = []
        for c in self.cases:
            m = re.fullmatch(r"([A-Za-z0-9()]+)-(\S+?)(-even)?", c.id)
            if not m or m.group(2) not in classes.LABELS:
                return None
            grp, label = m.group(1), m.group(2)
            if grp not in cols:
                cols.append(grp)
            mark = "+" if "realizable" == c.observed or c.observed == "evenly realizable" \
                else "-"
            if c.status == "fail":
                mark = "!"
            cells[(label, grp)] = mark
        lines = ["| class | " + " | ".join(cols) + " |",
                 "|" + "---|" * (len(cols) + 1)]
        for label in classes.LABELS:
            row = [cells.get((label, g), " ") for g in cols]
            lines.append(f"| {label} | " + " | ".join(row) + " |")
        return lines


def _case(cid: str, expected, observed, source: str = "") -> Case:
    status = "pass" if str(expected) == str(observed) else "fail"
    return Case(cid, str(expected), str(observed), status, source)


def _verify_positive(real: Realization, want_aut: int,
                     even: bool = False) -> tuple[str, str]:
    """Check a claimed witness by the paper's criterion on the spec, with no
    map built: the observed verdict string ("realizable" when it holds) and
    how it was reached.

    The route must lead from the spec's class to the claimed one, the images
    must satisfy the class relations and generate G, G must have the claimed
    order, and no forbidden pattern may extend to an automorphism; then the
    map's automorphism group is G and its class the claimed one.  With
    ``even`` the map must also be orientable without boundary: its kernel
    lies in the even subgroup of the parent group, that is some character
    G -> C2 takes the value 1 on the images of sign -1 in
    :data:`build.EVEN_SIGNS` and 0 on those of sign +1, which G, then a
    :class:`groups.PermGroup`, decides by one chain order test
    (:func:`_has_character`)."""
    source = "exact test, no map built"
    spec, G = real.spec, real.spec.group
    if build.ORBIT_ROUTE[real.label] != (spec.class_label, real.ops):
        label = spec.class_label
        for op in real.ops:
            label = classes.omega_dual(label) if op == "D" else classes.omega_petrie(label)
        return f"classified {label}", source
    violations = build.check_spec(spec)
    if violations:
        return "; ".join(violations), source
    if G.size != want_aut:
        return f"|Aut| = {G.size}", source
    if build.has_forbidden_automorphism(spec)[0]:
        return "forbidden automorphism", source
    signs = build.EVEN_SIGNS[real.label]
    if even and signs is not None and not _has_character(
            G, [(spec.images[name], 1 if sign == -1 else 0) for name, sign in signs.items()]):
        return "not orientable without boundary", source
    return "realizable", source


def _has_character(G: groups.PermGroup, want: list[tuple[int, int]]) -> bool:
    """Is there a character G -> C2 with value v on x for every (x, v) in
    ``want``?  The x must generate G and some v must be 1, as in every row
    of :data:`build.EVEN_SIGNS`, so the character sought is nontrivial.

    No element table is needed.  With tau the swap of two extra points, the
    diagonal <(x, tau^v)> acts on degree + 2 points and projects onto G; it
    is the graph of a homomorphism G -> <tau>, the character sought, iff its
    order is |G|."""
    n = G.degree
    tau = {0: (n, n + 1), 1: (n + 1, n)}
    return not perms.order_exceeds([G.elem(x) + tau[v] for x, v in want], G.size)


# -- basic-maps ------------------------------------------------------------------

def suite_basic_maps() -> SuiteReport:
    cases = []
    maps = {lab: classes.basic_map(lab) for lab in classes.LABELS}
    flag_counts = tuple(sorted(m.n for m in maps.values()))
    cases.append(_case("flag-counts", (1, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4),
                       flag_counts, "catalog"))
    regular = sum(1 for m in maps.values() if flagmaps.is_regular(m))
    cases.append(_case("regular-count", 11, regular, "catalog"))
    for lab in ("4", "4s", "4P"):
        m = maps[lab]
        cases.append(_case(f"{lab}-aut", 2, flagmaps.aut_order(m), "catalog"))
        mon = perms.group_order([m.perm(i) for i in range(3)])
        cases.append(_case(f"{lab}-monodromy", 8, mon, "catalog: D_4"))
    for lab in classes.LABELS:
        got = classes.classify(maps[lab])
        want_ok = (got == lab) if lab == "1" else (got in classes.covered(lab))
        cases.append(_case(f"classify-basic-{lab}",
                           "1" if lab == "1" else f"in covered({lab})",
                           got if not want_ok else
                           ("1" if lab == "1" else f"in covered({lab})"),
                           "covering lemma"))
        d = classes.classify(maps[lab].dual())
        cases.append(_case(f"omega-D-{lab}", classes.omega_dual(got) if got else "?",
                           d, "duality orbits"))
        p = classes.classify(maps[lab].petrie())
        cases.append(_case(f"omega-P-{lab}", classes.omega_petrie(got) if got else "?",
                           p, "duality orbits"))
    return SuiteReport("basic-maps", cases)


# -- Table 1 ---------------------------------------------------------------------

def _table1_sym_expected(label: str, n: int) -> bool:
    if label == "1":
        return n >= 1
    if label in ("2", "2s", "2P", "3", "4", "4s", "4P"):
        return n >= 2
    return n >= 6  # 2ex family and 5 family


def _table1_alt_expected(label: str, n: int) -> bool:
    if label == "1":
        return n in (1, 2, 5) or n >= 9
    if label in ("2", "2s", "2P", "3"):
        return n >= 5
    if label in ("4", "4s", "4P"):
        return n >= 4
    if label in ("2ex", "2sex", "2Pex"):
        return n >= 8
    return n >= 7  # 5 family


_PSL2_GRID = (5, 7, 8, 9, 11, 13)


def _table1_psl2_expected(label: str, q: int) -> bool:
    if label == "1":
        return q not in (3, 7, 9)
    if label in ("2", "2s", "2P", "3"):
        return q != 3
    if label in ("4", "4s", "4P"):
        return True
    return False  # 2ex and 5 families: no q


def sym_witness(label: str, n: int) -> Realization:
    G = realize.sym_group(n)
    shape, ops = build.ORBIT_ROUTE[label]
    if n <= 2 and shape in ("1", "2", "3", "4"):
        if n == 1 and label != "1":
            raise Unrealizable(f"S_1 is abelian or too small for class {label}")
        e, t = 0, G.id_of(realize.involution(2, [(1, 2)])) if n == 2 else 0
        shapes = {"1": ("1", {"R0": t, "R1": t, "R2": t}),  # n = 1: the one-flag map
                  "2": ("2", {"S1": e, "S2": t, "S3": e}),
                  "3": ("3", {"S0": e, "S1": t, "S2": t, "S3": t}),
                  "4": ("4", {"S1": e, "S2": t, "S": t})}
        rep_shape, images = shapes[shape]
        return Realization(label, EpimorphismSpec(rep_shape, G, images), ops)
    if label == "1":
        return realize.sym_class1(n)
    if label in ("2ex", "2sex"):
        return realize.propagate(realize.sym_chiral(n), label)
    if label == "2Pex":
        return realize.sym_chiral(n)
    if label in ("5", "5s", "5P"):
        return realize.propagate(realize.sym_chiral(n), label)
    return realize.propagate(realize.sym_class1(n), label)


def suite_table1_sym() -> SuiteReport:
    cases = []
    searched: dict[tuple[str, int], bool] = {}
    for n in range(2, 9):
        G = realize.sym_group(n)
        for label in classes.LABELS:
            cid = f"S{n}-{label}"
            expected = "realizable" if _table1_sym_expected(label, n) else "unrealizable"
            if expected == "realizable":
                real = sym_witness(label, n)
                cases.append(_case(cid, expected,
                                   *_verify_positive(real, want_aut=G.size)))
            else:
                shape, _ = build.ORBIT_ROUTE[label]
                key = (shape, n)
                if key not in searched:
                    res = build.search_epimorphisms(shape, G, up_to_cycle_type=True)
                    searched[key] = res.proved_empty
                observed = "unrealizable" if searched[key] else "realizable"
                cases.append(_case(cid, expected, observed, "exhausted"))
    return SuiteReport("table1-sym", cases)


def alt_witness(label: str, n: int) -> Realization:
    realize._check_degree(n)
    if label == "1":
        if n <= 2:  # the one-flag map
            G = realize.alt_group(n)
            return Realization("1", EpimorphismSpec("1", G,
                                                    {"R0": 0, "R1": 0, "R2": 0}), "")
        return realize.alt_class1(n)
    if label in ("2ex", "2sex"):
        return realize.propagate(realize.alt_chiral(n), label)
    if label == "2Pex":
        return realize.alt_chiral(n)
    if label in ("5", "5s", "5P"):
        if n == 7:
            base = realize.alt_small("5", 7)
            if label == "5":
                return base
            return Realization(label, base.spec, build.ORBIT_ROUTE[label][1])
        return realize.propagate(realize.alt_chiral(n), label)
    # classes 2, 2s, 2P, 3, 4, 4s, 4P
    if n < 4:
        raise realize.Unrealizable(f"A_{n} is abelian or too small for class {label}")
    if n == 4 and label in ("2", "2s", "2P", "3"):
        raise realize.Unrealizable(f"class {label} needs involutions generating A_4: V_4")
    if n == 4:
        G = realize.alt_group(4)
        e = 0
        a = G.id_of(realize.involution(4, [(1, 2), (3, 4)]))
        c = G.id_of(realize.cycle(4, 1, 2, 3))
        return Realization(label, EpimorphismSpec("4", G, {"S1": e, "S2": a, "S": c}),
                           build.ORBIT_ROUTE[label][1])
    if n in (6, 7, 8):
        base = realize.alt_small("2", n)
        if label in ("2", "2s", "2P"):
            return Realization(label, base.spec, build.ORBIT_ROUTE[label][1])
        return realize.propagate(base, label)
    return realize.propagate(realize.alt_class1(n), label)


def suite_table1_alt() -> SuiteReport:
    cases = []
    searched: dict[tuple[str, int], bool] = {}
    for n in range(2, 11):
        for label in classes.LABELS:
            cid = f"A{n}-{label}"
            expected = "realizable" if _table1_alt_expected(label, n) else "unrealizable"
            if expected == "realizable":
                real = alt_witness(label, n)
                cases.append(_case(cid, expected,
                                   *_verify_positive(real, want_aut=factorial(n) // 2)))
            else:
                G = realize.alt_group(n)
                shape, _ = build.ORBIT_ROUTE[label]
                key = (shape, n)
                if key not in searched:
                    res = build.search_epimorphisms(shape, G, up_to_cycle_type=True)
                    searched[key] = res.proved_empty
                observed = "unrealizable" if searched[key] else "realizable"
                cases.append(_case(cid, expected, observed, "exhausted"))
    return SuiteReport("table1-alt", cases)


@functools.cache
def _pgammal2_generators(q: int) -> list[perms.Perm]:
    return fields.pgammal2_generators(realize._field_of(q))


def suite_table1_psl2() -> SuiteReport:
    cases = []
    surveys: dict[int, groups.SurveyReport] = {}

    def survey(q: int) -> groups.SurveyReport:
        if q not in surveys:
            surveys[q] = groups.simultaneous_inversion_survey(
                realize.psl2_group(q), _pgammal2_generators(q))
        return surveys[q]

    class1_witness: dict[int, Realization] = {}
    class2_witness: dict[int, Realization] = {}
    for q in _PSL2_GRID:
        G = realize.psl2_group(q)
        for label in classes.LABELS:
            cid = f"L2({q})-{label}"
            expected = "realizable" if _table1_psl2_expected(label, q) else "unrealizable"
            shape, _ = build.ORBIT_ROUTE[label]
            if expected == "unrealizable":
                if label == "1":
                    res = build.search_epimorphisms("1", G)
                    observed = "unrealizable" if res.proved_empty else "realizable"
                    cases.append(_case(cid, expected, observed, "exhausted"))
                else:
                    rep = survey(q)
                    observed = "unrealizable" if rep.all_inverted else "realizable"
                    cases.append(_case(cid, expected, observed,
                                       "exhausted (inversion survey)"))
                continue
            if label == "1":
                class1_witness[q] = realize.psl2_class1(q)
                cases.append(_case(cid, expected, *_verify_positive(
                    class1_witness[q], want_aut=G.size)))
                continue
            # classes 2, 2s, 2P, 3, 4, 4s, 4P
            if q not in class2_witness:
                if q == 7:
                    class2_witness[q] = realize.psl2_class2_q7()
                elif q in class1_witness:
                    class2_witness[q] = realize.propagate(class1_witness[q], "2")
                else:  # q = 9: direct class-2 search
                    res = build.search_epimorphisms("2", G)
                    class2_witness[q] = Realization(
                        "2", EpimorphismSpec("2", G, res.witnesses[0]), "")
            base2 = class2_witness[q]
            if label in ("2", "2s", "2P"):
                real = Realization(label, base2.spec, build.ORBIT_ROUTE[label][1])
            else:
                real = realize.propagate(base2, label)
            cases.append(_case(cid, expected, *_verify_positive(real, want_aut=G.size)))
    # N46.3 cross-check
    real = realize.psl2_class1(11)
    m = real.build()
    s = flagmaps.summary(m)
    G11 = real.spec.group
    r0, r1, r2 = real.spec.image_tuple()
    t = (G11.element_order(G11.product(r0, r1)), G11.element_order(G11.product(r1, r2)))
    cases.append(_case("N46.3-type", (5, 6), t, "catalog: map N46.3 of type {5,6}"))
    cases.append(_case("N46.3-flags", 660, m.n, "derived"))
    cases.append(_case("N46.3-chi", -44, s.euler_char, "derived: 55-165+66"))
    cases.append(_case("N46.3-genus", ("non_orientable", 46), s.genus, "catalog"))
    return SuiteReport("table1-psl2", cases)


# -- Table 3 (even realization) ----------------------------------------------------

# Cells where the expected value departs from the source table, which lists
# n >= 3 for classes 2P, 4 and 4*: no even realization of S3 exists in these
# classes (proof and search evidence in docs/decisions.md).
_TABLE3_SYM_DEPARTURES = {("2P", 3), ("4", 3), ("4s", 3)}


def _table3_sym_expected(label: str, n: int) -> bool:
    if label == "1":
        return n not in (1, 5, 6)
    if label in ("2", "2s"):
        return n not in (1, 2, 5, 6)
    if label in ("2ex", "2sex"):
        return n >= 7
    if label == "2Pex":
        return n >= 6
    if label in ("2P", "3", "4", "4s", "4P"):
        return n >= 3 and (label, n) not in _TABLE3_SYM_DEPARTURES
    return n >= 6  # 5 family


def _table3_alt_expected(label: str, n: int) -> bool:
    if label == "2Pex":
        return n >= 8
    if label in ("5", "5s"):
        return n >= 7
    return False


def suite_table3() -> SuiteReport:
    cases = []
    for n in range(2, 9):
        G = realize.sym_group(n)
        for label in classes.LABELS:
            cid = f"S{n}-{label}-even"
            expected = ("evenly realizable" if _table3_sym_expected(label, n)
                        else "unrealizable")
            observed, source = _table3_sym_observed(label, n, G)
            if (label, n) in _TABLE3_SYM_DEPARTURES:
                source += ("; departs from the source table (n >= 3), "
                           "see docs/decisions.md")
            cases.append(_case(cid, expected, observed, source))
    for n in range(2, 9):
        for label in classes.LABELS:
            cid = f"A{n}-{label}-even"
            expected = ("evenly realizable" if _table3_alt_expected(label, n)
                        else "unrealizable")
            observed, source = _table3_alt_observed(label, n)
            cases.append(_case(cid, expected, observed, source))
    return SuiteReport("table3", cases)


def _table3_sym_observed(label: str, n: int, G) -> tuple[str, str]:
    try:
        real = realize.sym_even(label, n)
    except Unrealizable:
        real = None
    if real is not None:
        out, source = _verify_positive(real, want_aut=G.size, even=True)
        return ("evenly realizable" if out == "realizable" else out), source
    res = build.search_epimorphisms(label, G, even=True, up_to_cycle_type=True)
    if res.proved_empty:
        return "unrealizable", "exhausted (parity-constrained search)"
    return "evenly realizable", "exhausted search found a witness"


def _table3_alt_observed(label: str, n: int) -> tuple[str, str]:
    if label in ("2Pex", "5", "5s"):
        # these classes are automatically even; reuse the Table 1 machinery
        if _table1_alt_expected(label, n):
            real = alt_witness(label, n)
            out, source = _verify_positive(real, want_aut=factorial(n) // 2, even=True)
            return ("evenly realizable" if out == "realizable" else out), source
        G = realize.alt_group(n)
        shape, _ = build.ORBIT_ROUTE[label]
        res = build.search_epimorphisms(shape, G, up_to_cycle_type=True)
        return (("unrealizable", "exhausted") if res.proved_empty
                else ("evenly realizable", "exhausted"))
    G = realize.alt_group(n)
    res = build.search_epimorphisms(label, G, even=True)
    return (("unrealizable", "exhausted (no index-2 subgroup)") if res.proved_empty
            else ("evenly realizable", "search"))


# -- small lemma suites --------------------------------------------------------------

def suite_small_sn() -> SuiteReport:
    cases = []
    for n in range(2, 6):
        G = realize.sym_group(n)
        rep = groups.simultaneous_inversion_survey(G)
        cases.append(_case(f"S{n}-all-generating-pairs-inverted", True,
                           rep.all_inverted,
                           f"exhausted: {rep.generating_pairs} generating pairs"))
    return SuiteReport("small-sn", cases)


def suite_a7_2ex() -> SuiteReport:
    G = realize.alt_group(7)
    res = build.search_epimorphisms("2Pex", G, up_to_cycle_type=True)
    cases = [_case("A7-2Pex-empty", True, res.proved_empty,
                   f"exhausted: {res.examined} tuples examined")]
    res5 = build.search_epimorphisms("5", G, up_to_cycle_type=True)
    cases.append(_case("A7-5-nonempty", True, bool(res5.witnesses),
                       "A7 in the 5 family"))
    return SuiteReport("a7-2ex", cases)


def suite_singerman() -> SuiteReport:
    cases = []
    for q in (5, 7, 8, 9, 11, 13):
        rep = groups.simultaneous_inversion_survey(realize.psl2_group(q),
                                                   _pgammal2_generators(q))
        cases.append(_case(
            f"L2({q})-generating-pairs-inverted", True, rep.all_inverted,
            f"exhausted: {rep.generating_pairs} generating pairs, Aut = PGammaL"))
    return SuiteReport("singerman", cases)


def suite_nilpotent() -> SuiteReport:
    cases = []
    for p, e in ((3, 2), (3, 3), (5, 2)):
        g = groups.GpefGroup(p, e, 1)
        cases.append(_case(f"G({p},{e},1)-class", e, groups.nilpotence_class(g),
                           "catalog: class c = e"))
    for e in (3, 4, 5):
        A = groups.GpefAlphaGroup(e)
        cases.append(_case(f"alpha-{e}-order", 2 ** (2 * e + 1), A.size, "catalog"))
        cases.append(_case(f"alpha-{e}-class", e + 1, groups.nilpotence_class(A),
                           "catalog: class c = e+1"))
    real = realize.nilpotent_chiral(4)
    m = real.build()
    s = flagmaps.summary(m)
    A = real.spec.group
    x, y = real.spec.images["X"], real.spec.images["Y"]
    cases.append(_case("e4-classify", "2Pex", classes.classify(m), "catalog"))
    cases.append(_case("e4-type",
                       (32, 16),
                       (A.element_order(A.product(x, y)), A.element_order(x)),
                       "catalog: chiral pair of type {32,16}"))
    cases.append(_case("e4-genus", ("orientable", 105), s.genus, "catalog"))
    cases.append(_case("e4-order", 512, A.size, "catalog: |A| = 512"))
    for e in range(3, 17):
        mod = 2 ** e
        lhs, x = 0, 1  # x = 5^i mod 2^e
        for _ in range(2 ** (e - 2)):
            lhs += x
            x = x * 5 % mod
        lhs %= mod
        cases.append(_case(f"congruence-e{e}", (-2 ** (e - 2)) % 2 ** e, lhs,
                           "catalog: sum of 5^i = -2^(e-2) mod 2^e"))
    real8 = realize.dihedral_spec(8)
    m8 = real8.build()
    G8 = real8.spec.group
    cases.append(_case("dihedral8-classify", "1", classes.classify(m8), "catalog"))
    cases.append(_case("dihedral8-class", 3, groups.nilpotence_class(G8),
                       "catalog: D_m x C_2, m = 2^e, class e"))
    return SuiteReport("nilpotent", cases)


def suite_solvable() -> SuiteReport:
    cases = []
    ra, rb = realize.edmonds_k8()
    ma, mb = ra.build(), rb.build()
    cases.append(_case("edmonds-classify", ("2Pex", "2Pex"),
                       (classes.classify(ma), classes.classify(mb)), "catalog"))
    cases.append(_case("edmonds-aut", 56, flagmaps.aut_order(ma), "catalog: AGL_1(8)"))
    G = ra.spec.group
    cases.append(_case("edmonds-derived-length", 2, groups.derived_length(G),
                       "derived: V_8 x| C_7 metabelian"))
    cases.append(_case("edmonds-chiral-pair", False,
                       flagmaps.is_isomorphic_oriented(ma, mb),
                       "derived: oriented mirror images differ"))
    rc = realize.nilpotent_chiral(4)
    mc = rc.build()
    joined = flagmaps.join(ma, mc)
    H = rc.spec.group
    cases.append(_case("join-flags", 2 * G.size * H.size, joined.n,
                       "derived: no common nontrivial quotient"))
    cases.append(_case("join-aut", G.size * H.size, flagmaps.aut_order(joined),
                       "derived"))
    cases.append(_case("join-classify", "2Pex", classes.classify(joined), "derived"))
    prod = groups.DirectProduct(G, H, [
        (ra.spec.images["X"], rc.spec.images["X"]),
        (ra.spec.images["Y"], rc.spec.images["Y"])])
    cases.append(_case("join-group-full", True, prod.generates(prod.generators),
                       "derived: images generate the direct product"))
    cases.append(_case("join-derived-length", 2, groups.derived_length(prod),
                       "derived"))
    return SuiteReport("solvable", cases)


def _load_chartable(name: str):
    text = resources.files("etmaps.fixtures").joinpath(name).read_text()
    obj = json.loads(text)
    G = groups.group_from_json(obj["group"])
    ct = groups.CharacterTable.from_json(obj)
    return G, ct


def _locate_classes(G: groups.PermGroup, ct: groups.CharacterTable) -> list[list[int]]:
    parts = groups.conjugacy_classes(G)
    located = []
    for size, rep in zip(ct.class_sizes, ct.class_reps):
        rid = G.id_of(perms.parse_cycles(rep, G.degree))
        cls = next(c for c in parts if rid in c)
        if len(cls) != size:
            raise groups.BadCharacterTable(f"class of {rep} has size {len(cls)}")
        located.append(cls)
    return located


def suite_frobenius() -> SuiteReport:
    cases = []
    for name in ("chartable_s4.json", "chartable_d4.json", "chartable_a5.json"):
        G, ct = _load_chartable(name)
        ct.validate()
        located = _locate_classes(G, ct)
        k = len(located)
        counts = groups.class_triple_counts(G, located)
        bad = []
        for ia in range(k):
            for ib in range(k):
                for ic in range(k):
                    counted = int(counts[ia, ib, ic])
                    formula = groups.frobenius_count(ct, ia, ib, ic)
                    if counted != formula:
                        bad.append((ia, ib, ic, counted, formula))
        cases.append(_case(f"{name}-all-triples", "formula = brute force",
                           "formula = brute force" if not bad else f"{len(bad)} mismatches",
                           f"derived: {k ** 3} class triples"))
    # corrupted-table detection
    G, ct = _load_chartable("chartable_s4.json")
    ct.chars[1][1] += 0.01
    detected = False
    try:
        located = _locate_classes(G, ct)
        for ia in range(5):
            for ib in range(5):
                for ic in range(5):
                    groups.frobenius_count(ct, ia, ib, ic)
    except groups.BadCharacterTable:
        detected = True
    cases.append(_case("corrupted-table-detected", True, detected, "derived"))
    return SuiteReport("frobenius", cases)


def suite_priminv() -> SuiteReport:
    cases = []
    qs = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127):
        e = 1
        while p ** e <= 128:
            qs.append((p, e))
            e += 1
    for p, e in sorted(qs, key=lambda t: t[0] ** t[1]):
        q = p ** e
        cases.append(_case(f"q={q}", q <= 4, fields.priminv_check(p, e),
                           "derived: enumerate primitive roots"))
    return SuiteReport("priminv", cases)


def suite_rewrite_soundness() -> SuiteReport:
    failures = build.verify_rewrite_tables()
    cases = [_case("symbolic-relators", "[]", failures, "derived")]
    return SuiteReport("rewrite-soundness", cases)


SUITES = {
    "basic-maps": suite_basic_maps,
    "table1-sym": suite_table1_sym,
    "table1-alt": suite_table1_alt,
    "table1-psl2": suite_table1_psl2,
    "table3": suite_table3,
    "small-sn": suite_small_sn,
    "a7-2ex": suite_a7_2ex,
    "singerman": suite_singerman,
    "nilpotent": suite_nilpotent,
    "solvable": suite_solvable,
    "frobenius": suite_frobenius,
    "priminv": suite_priminv,
    "rewrite-soundness": suite_rewrite_soundness,
}


def run_suite(name: str) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
