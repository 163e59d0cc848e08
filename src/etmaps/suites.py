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
from functools import partial
from importlib import resources

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

    No element table is needed: with tau the swap of two points, the
    character sought is the homomorphism G -> <tau> sending x to tau^v,
    which one diagonal test decides (:func:`perms.extends_to_homomorphism`)."""
    tau = {0: (0, 1), 1: (1, 0)}
    return perms.extends_to_homomorphism([G.elem(x) for x, _ in want],
                                         [tau[v] for _, v in want], G.size)


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


# -- Tables 1 and 3 --------------------------------------------------------------

@functools.cache
def _search(label: str, G: groups.PermGroup, even: bool,
            up_to_cycle_type: bool) -> build.SearchResult:
    """``build.search_epimorphisms`` with its first witness, run once per key
    in a process: the table suites and ``a7-2ex`` share these proofs."""
    return build.search_epimorphisms(label, G, even=even,
                                     up_to_cycle_type=up_to_cycle_type)


@functools.cache
def _pgammal_survey(q: int) -> groups.SurveyReport:
    """The inversion survey of L_2(q) under PΓL(2, q), run once per q."""
    return groups.simultaneous_inversion_survey(
        realize.psl2_group(q), fields.pgammal2_generators(realize._field_of(q)))


def _table_row(name: str, G: groups.PermGroup, expected, witness, refute,
               even: bool = False) -> list[Case]:
    """The cells of one group in Table 1, or in Table 3 with ``even``: one
    case per class label, in ``classes.LABELS`` order, with id
    ``{name}-{label}`` (``-even`` appended in Table 3).

    ``witness(label)`` returns a realization, checked by
    :func:`_verify_positive` against Aut = G, or raises ``Unrealizable``;
    then ``refute(label)`` gives (proved empty, provenance) from an
    exhaustive proof.  The observed verdict never reads ``expected(label)``,
    which is only compared with it."""
    yes = "evenly realizable" if even else "realizable"
    cases = []
    for label in classes.LABELS:
        try:
            real = witness(label)
        except Unrealizable:
            empty, source = refute(label)
            observed = "unrealizable" if empty else yes
        else:
            observed, source = _verify_positive(real, G.size, even)
            if observed == "realizable":
                observed = yes
        cases.append(_case(f"{name}-{label}" + ("-even" if even else ""),
                           yes if expected(label) else "unrealizable",
                           observed, source))
    return cases


def _refute_by_search(label: str, G: groups.PermGroup) -> tuple[bool, str]:
    """Table 1 over S_n or A_n: the search of the label's shape."""
    return _search(build.ORBIT_ROUTE[label][0], G, False, True).proved_empty, "exhausted"


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
    for n in range(2, 9):
        G = realize.sym_group(n)
        cases += _table_row(f"S{n}", G, partial(_table1_sym_expected, n=n),
                            partial(sym_witness, n=n), partial(_refute_by_search, G=G))
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
    for n in range(2, 11):
        G = realize.alt_group(n)
        cases += _table_row(f"A{n}", G, partial(_table1_alt_expected, n=n),
                            partial(alt_witness, n=n), partial(_refute_by_search, G=G))
    return SuiteReport("table1-alt", cases)


def psl2_witness(label: str, q: int) -> Realization:
    """A map in class ``label`` with Aut = L_2(q), or ``Unrealizable``.

    Class 1 is :func:`realize.psl2_class1`.  Classes 2, 2*, 2P share one
    class-2 triple: the bespoke one at q = 7, else propagated from class 1,
    else (q = 9) the first the class-2 search finds; 3, 4, 4*, 4P propagate
    from it.  No class of the 2ex or 5 families occurs: every generating
    pair of L_2(q) is inverted by an automorphism (Singerman), which the
    ``singerman`` suite surveys on the grid."""
    G = realize.psl2_group(q)  # refuses a q that is no prime power, or over the cap
    shape, ops = build.ORBIT_ROUTE[label]
    if q == 3:  # L_2(3) is A_4 on the same four points
        return alt_witness(label, 4)
    if shape in ("2ex", "2Pex", "5"):
        raise Unrealizable(f"every generating pair of L_2({q}) is inverted by "
                           "an automorphism", provenance="cited")
    if label == "1":
        return realize.psl2_class1(q)
    if q == 7:
        base = realize.psl2_class2_q7()
    else:
        try:
            base = realize.propagate(realize.psl2_class1(q), "2")
        except Unrealizable:
            base = Realization("2", EpimorphismSpec(
                "2", G, _search("2", G, False, False).witnesses[0]), "")
    if shape == "2":
        return Realization(label, base.spec, ops)
    return realize.propagate(base, label)


def _psl2_refute(label: str, q: int) -> tuple[bool, str]:
    shape = build.ORBIT_ROUTE[label][0]
    if shape in ("2ex", "2Pex", "5"):
        return _pgammal_survey(q).all_inverted, "exhausted (inversion survey)"
    return (_search(shape, realize.psl2_group(q), False, False).proved_empty,
            "exhausted")


def suite_table1_psl2() -> SuiteReport:
    cases = []
    for q in _PSL2_GRID:
        cases += _table_row(f"L2({q})", realize.psl2_group(q),
                            partial(_table1_psl2_expected, q=q),
                            partial(psl2_witness, q=q), partial(_psl2_refute, q=q))
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


def _sym_even_refute(label: str, n: int) -> tuple[bool, str]:
    source = "exhausted (parity-constrained search)"
    if (label, n) in _TABLE3_SYM_DEPARTURES:
        source += "; departs from the source table (n >= 3), see docs/decisions.md"
    return _search(label, realize.sym_group(n), True, True).proved_empty, source


def _alt_even_witness(label: str, n: int) -> Realization:
    """A_n has no index-2 subgroup, so only the classes whose parent group
    lies in the even subgroup (2Pex, 5, 5*) are evenly realizable, by the
    Table 1 witnesses."""
    if build.EVEN_SIGNS[label] is not None:
        raise Unrealizable(f"A_{n} has no index-2 subgroup")
    return alt_witness(label, n)


def _alt_even_refute(label: str, n: int) -> tuple[bool, str]:
    G = realize.alt_group(n)
    if build.EVEN_SIGNS[label] is None:
        return _refute_by_search(label, G)
    return _search(label, G, True, False).proved_empty, "exhausted (no index-2 subgroup)"


def suite_table3() -> SuiteReport:
    cases = []
    for n in range(2, 9):
        cases += _table_row(f"S{n}", realize.sym_group(n),
                            partial(_table3_sym_expected, n=n),
                            partial(realize.sym_even, n=n),
                            partial(_sym_even_refute, n=n), even=True)
    for n in range(2, 9):
        cases += _table_row(f"A{n}", realize.alt_group(n),
                            partial(_table3_alt_expected, n=n),
                            partial(_alt_even_witness, n=n),
                            partial(_alt_even_refute, n=n), even=True)
    return SuiteReport("table3", cases)


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
    res = _search("2Pex", G, False, True)
    cases = [_case("A7-2Pex-empty", True, res.proved_empty,
                   f"exhausted: {res.examined} tuples examined")]
    res5 = _search("5", G, False, True)
    cases.append(_case("A7-5-nonempty", True, bool(res5.witnesses),
                       "A7 in the 5 family"))
    return SuiteReport("a7-2ex", cases)


def suite_singerman() -> SuiteReport:
    cases = []
    for q in _PSL2_GRID:
        rep = _pgammal_survey(q)
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
