"""Parent-group epimorphisms and the coset-rewriting construction of maps.

Direct builders exist for one representative of each duality orbit: classes
1, 2, 2ex, 2Pex, 3, 4 and 5; the other seven classes are reached by applying
the dual and Petrie operations to built maps.  An epimorphism is a class
label, a target group and images for the parent-group generators; the flag
map of its kernel is assembled from a per-class rewrite table (transversal
index plus a generator word for each r_i), derived by Reidemeister-Schreier
rewriting and re-verified symbolically by :func:`verify_rewrite_tables`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import groups, perms
from .flagmaps import FlagMap
from .groups import GroupTable

# generator names of the direct-build parent groups
GENERATOR_NAMES = {
    "1": ("R0", "R1", "R2"),
    "2": ("S1", "S2", "S3"),
    "2ex": ("S1", "S"),
    "2Pex": ("X", "Y"),
    "3": ("S0", "S1", "S2", "S3"),
    "4": ("S1", "S2", "S"),
    "5": ("S", "S'"),
}

# names whose images must have order dividing 2
INVOLUTORY = {
    "1": ("R0", "R1", "R2"),
    "2": ("S1", "S2", "S3"),
    "2ex": ("S1",),
    "2Pex": ("Y",),
    "3": ("S0", "S1", "S2", "S3"),
    "4": ("S1", "S2"),
    "5": (),
}

# direct-build representative of each class and the map operations leading
# back to the class (D = dual, P = Petrie, applied left to right)
ORBIT_ROUTE = {
    "1": ("1", ""), "2": ("2", ""), "2s": ("2", "D"), "2P": ("2", "DP"),
    "2ex": ("2ex", ""), "2sex": ("2ex", "D"), "2Pex": ("2Pex", ""),
    "3": ("3", ""), "4": ("4", ""), "4s": ("4", "D"), "4P": ("4", "DP"),
    "5": ("5", ""), "5s": ("5", "D"), "5P": ("5", "DP"),
}

# required sign of each generator image for an even realization (M <= even
# subgroup): -1 = orientation-reversing word, +1 = preserving.  None marks the
# classes whose parent group already lies in the even subgroup, where every
# map is orientable without boundary.
EVEN_SIGNS: dict[str, dict[str, int] | None] = {
    "1": {"R0": -1, "R1": -1, "R2": -1},
    "2": {"S1": -1, "S2": -1, "S3": -1},
    "2s": {"S1": -1, "S2": -1, "S3": -1},
    "2P": {"S1": -1, "S2": -1, "S3": 1},
    "2ex": {"S1": -1, "S": 1},
    "2sex": {"S1": -1, "S": 1},
    "2Pex": None,
    "3": {"S0": -1, "S1": -1, "S2": -1, "S3": -1},
    "4": {"S1": -1, "S2": -1, "S": 1},
    "4s": {"S1": -1, "S2": -1, "S": 1},
    "4P": {"S1": -1, "S2": -1, "S": -1},
    "5": None,
    "5s": None,
    "5P": {"S": -1, "S'": -1},
}

Word = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class RewriteTable:
    """For each transversal index j and i in {0,1,2}: a generator word w and a
    target index k with e_j R_i = w e_k in the parent group."""

    transversal: int
    moves: dict[tuple[int, int], tuple[Word, int]]


def _w(*syms) -> Word:
    out = []
    for s in syms:
        if isinstance(s, tuple):
            out.append(s)
        else:
            out.append((s, 1))
    return tuple(out)


_TABLES: dict[str, RewriteTable] = {
    "1": RewriteTable(1, {
        (0, 0): (_w("R0"), 0), (1, 0): (_w("R1"), 0), (2, 0): (_w("R2"), 0),
    }),
    "2": RewriteTable(2, {
        (0, 0): ((), 1), (0, 1): ((), 0),
        (1, 0): (_w("S1"), 0), (1, 1): (_w("S2"), 1),
        (2, 0): (_w("S3"), 0), (2, 1): (_w("S3"), 1),
    }),
    "2ex": RewriteTable(2, {
        (0, 0): ((), 1), (0, 1): ((), 0),
        (1, 0): (_w(("S", -1)), 1), (1, 1): (_w("S"), 0),
        (2, 0): (_w("S1"), 0), (2, 1): (_w("S1"), 1),
    }),
    "2Pex": RewriteTable(2, {
        (0, 0): (_w("Y"), 1), (0, 1): (_w("Y"), 0),
        (1, 0): (_w("X"), 1), (1, 1): (_w(("X", -1)), 0),
        (2, 0): ((), 1), (2, 1): ((), 0),
    }),
    "3": RewriteTable(4, {
        (0, 0): ((), 1), (0, 1): ((), 0), (0, 2): ((), 3), (0, 3): ((), 2),
        (2, 0): ((), 2), (2, 2): ((), 0), (2, 1): ((), 3), (2, 3): ((), 1),
        (1, 0): (_w("S0"), 0), (1, 1): (_w("S1"), 1),
        (1, 2): (_w("S2"), 2), (1, 3): (_w("S3"), 3),
    }),
    "4": RewriteTable(4, {
        (0, 0): ((), 1), (0, 1): ((), 0), (0, 2): ((), 3), (0, 3): ((), 2),
        (2, 0): ((), 2), (2, 2): ((), 0), (2, 1): ((), 3), (2, 3): ((), 1),
        (1, 0): (_w("S1"), 0), (1, 2): (_w("S2"), 2),
        (1, 1): (_w("S"), 3), (1, 3): (_w(("S", -1)), 1),
    }),
    "5": RewriteTable(4, {
        (0, 0): ((), 1), (0, 1): ((), 0), (0, 2): ((), 3), (0, 3): ((), 2),
        (2, 0): ((), 2), (2, 2): ((), 0), (2, 1): ((), 3), (2, 3): ((), 1),
        (1, 0): (_w("S"), 2), (1, 2): (_w(("S", -1)), 0),
        (1, 1): (_w("S'"), 3), (1, 3): (_w(("S'", -1)), 1),
    }),
}


def rewrite_tables() -> dict[str, RewriteTable]:
    return dict(_TABLES)


# forbidden automorphism patterns: assignments of generator names to
# (name, exponent) images whose extension to an automorphism pushes the map
# into a covered class.  Keys tag the conjugating element of E.
_FORBIDDEN: dict[str, list[tuple[str, dict[str, tuple[str, int]]]]] = {
    "1": [],
    "2": [("R0", {"S1": ("S2", 1), "S2": ("S1", 1), "S3": ("S3", 1)})],
    "2ex": [("R0", {"S1": ("S1", 1), "S": ("S", -1)})],
    "2Pex": [("R2", {"X": ("X", -1), "Y": ("Y", 1)})],
    "3": [
        ("R0", {"S0": ("S1", 1), "S1": ("S0", 1), "S2": ("S3", 1), "S3": ("S2", 1)}),
        ("R2", {"S0": ("S2", 1), "S2": ("S0", 1), "S1": ("S3", 1), "S3": ("S1", 1)}),
        ("R0R2", {"S0": ("S3", 1), "S3": ("S0", 1), "S1": ("S2", 1), "S2": ("S1", 1)}),
    ],
    "4": [("R2", {"S1": ("S2", 1), "S2": ("S1", 1), "S": ("S", -1)})],
    "5": [
        ("R2", {"S": ("S", -1), "S'": ("S'", -1)}),
        ("R0", {"S": ("S'", 1), "S'": ("S", 1)}),
        ("R0R2", {"S": ("S'", -1), "S'": ("S", -1)}),
    ],
}

# class reached when exactly the tagged subset of E-conjugations fixes the
# kernel (class 4 is handled separately: N(4) is not normal in the parent
# lattice, so only the R2 step is a direct pattern)
_DROP = {
    "2": {frozenset(): "2", frozenset({"R0"}): "1"},
    "2ex": {frozenset(): "2ex", frozenset({"R0"}): "1"},
    "2Pex": {frozenset(): "2Pex", frozenset({"R2"}): "1"},
    "3": {frozenset(): "3", frozenset({"R0"}): "2s", frozenset({"R2"}): "2",
          frozenset({"R0R2"}): "2P"},
    "5": {frozenset(): "5", frozenset({"R2"}): "2", frozenset({"R0"}): "2sex",
          frozenset({"R0R2"}): "2Pex"},
}


class SpecError(ValueError):
    pass


@dataclass
class EpimorphismSpec:
    """A class label, a target group and images of the parent generators."""

    class_label: str
    group: GroupTable
    images: dict[str, int]

    def __post_init__(self):
        if self.class_label not in GENERATOR_NAMES:
            raise SpecError(
                f"no direct builder for class {self.class_label!r}; "
                f"use an orbit representative and transform_spec")
        names = GENERATOR_NAMES[self.class_label]
        if set(self.images) != set(names):
            raise SpecError(f"images must be given for exactly {names}")

    def image_tuple(self) -> tuple[int, ...]:
        return tuple(self.images[n] for n in GENERATOR_NAMES[self.class_label])

    def to_json(self) -> dict:
        return {"class": self.class_label,
                "images": {name: self.group.element_json(x)
                           for name, x in self.images.items()}}


def spec_from_json(obj) -> EpimorphismSpec:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or not isinstance(obj.get("images"), dict):
        raise SpecError("a spec must be a JSON object whose \"images\" is an "
                        "object from generator names to elements")
    if "group" not in obj:
        raise SpecError("the spec has no \"group\" field giving its target group")
    group = groups.group_from_json(obj["group"])
    label = obj.get("class", obj.get("class_label"))
    if not isinstance(label, str):
        raise SpecError(f"a spec's \"class\" must be a class label, not {label!r}")
    images = {name: group.parse_element(val) for name, val in obj["images"].items()}
    return EpimorphismSpec(label, group, images)


def check_spec(spec: EpimorphismSpec) -> list[str]:
    """Relation and generation violations; empty list means the spec is a
    valid epimorphism from the parent group."""
    G = spec.group
    out = []
    for name in INVOLUTORY[spec.class_label]:
        x = spec.images[name]
        if G.product(x, x) != 0:
            out.append(f"image of {name} has order not dividing 2")
    if spec.class_label == "1":
        r0, r2 = spec.images["R0"], spec.images["R2"]
        x = G.product(r0, r2)
        if G.product(x, x) != 0:
            out.append("(R0 R2)^2 = 1 fails")
    if not G.generates(spec.image_tuple()):
        out.append("images do not generate the target group")
    return out


def _interp(G: GroupTable, images: dict[str, int], word: Word) -> int:
    x = 0
    for sym, exp in word:
        y = images[sym] if exp == 1 else G.inverse(images[sym])
        x = G.product(x, y)
    return x


def build_map(spec: EpimorphismSpec) -> FlagMap:
    """Flag map of the kernel: flags are (element id, transversal index) with
    flag index g * n_T + j and r_i acting by the class rewrite table."""
    violations = check_spec(spec)
    if violations:
        raise SpecError("; ".join(violations))
    G = spec.group
    table = _TABLES[spec.class_label]
    nt = table.transversal
    mult: dict[Word, np.ndarray] = {}
    arrays = [np.zeros(G.size * nt, dtype=np.int64) for _ in range(3)]
    for (i, j), (word, k) in table.moves.items():
        if word not in mult:
            w_elt = _interp(G, spec.images, word)
            mult[word] = G.right_mult(w_elt)
        arrays[i][j::nt] = mult[word] * nt + k
    return FlagMap(arrays[0], arrays[1], arrays[2])


def has_forbidden_automorphism(spec: EpimorphismSpec) -> tuple[bool, list[str]]:
    """Does some forbidden pattern of the class extend to an automorphism of
    the target?  Returns the matched pattern tags."""
    G = spec.group
    names = GENERATOR_NAMES[spec.class_label]
    src = spec.image_tuple()
    matched = []
    for tag, pattern in _FORBIDDEN[spec.class_label]:
        dst = []
        for name in names:
            pname, exp = pattern[name]
            x = spec.images[pname]
            dst.append(x if exp == 1 else G.inverse(x))
        if groups.hom_extension_exists(G, src, tuple(dst)):
            matched.append(tag)
    return bool(matched), matched


def expected_class(spec: EpimorphismSpec) -> str:
    """Class of the built map, predicted from the matched forbidden patterns
    alone (the subgroup lattice between N(T) and the full parent)."""
    _, matched = has_forbidden_automorphism(spec)
    label = spec.class_label
    if label == "1":
        return "1"
    if label == "4":
        if not matched:
            return "4"
        return "1" if _class4_second_drop(spec) else "2"
    mset = frozenset(matched)
    drop = _DROP[label]
    if mset in drop:
        return drop[mset]
    # two or more E-conjugations fix the kernel, hence all of E does
    return "1"


def _class4_second_drop(spec: EpimorphismSpec) -> bool:
    """After the degree-2 drop 4 -> 2, does the extended quotient also admit
    the class-2 forbidden automorphism (drop to class 1)?

    The extension is A' = A x| <t> with t the image of R2; the induced class-2
    generators are (s1, s t, t).
    """
    G = spec.group
    s1, s2, s = (spec.images[n] for n in GENERATOR_NAMES["4"])
    alpha = groups.hom_extension(G, (s1, s2, s), (s2, s1, G.inverse(s)))
    assert alpha is not None
    ext = groups.InvolutoryExtension(G, alpha)
    src = (s1 * 2, s * 2 + 1, 1)
    dst = (s * 2 + 1, s1 * 2, 1)
    return groups.hom_extension_exists(ext, src, dst)


def transform_spec(spec: EpimorphismSpec, ops: str) -> FlagMap:
    """Build the spec and apply the operation string, e.g. "D", "P", "DP"."""
    m = build_map(spec)
    return apply_ops(m, ops)


def apply_ops(m: FlagMap, ops: str) -> FlagMap:
    for op in ops:
        if op == "D":
            m = m.dual()
        elif op == "P":
            m = m.petrie()
        else:
            raise ValueError(f"unknown map operation {op!r}")
    return m


def build_in_class(label: str, group: GroupTable, images: dict[str, int]) -> FlagMap:
    """Build a map in any of the 14 classes: images are for the orbit
    representative's generators; the route applies D/P afterwards."""
    shape, ops = ORBIT_ROUTE[label]
    spec = EpimorphismSpec(shape, group, images)
    return transform_spec(spec, ops)


# -- symbolic soundness of the rewrite tables ----------------------------------

def _reduce(word: list[tuple[str, int]], involutory: frozenset[str],
            commute: tuple[str, str] | None = None) -> list[tuple[str, int]]:
    """Free-product normal form: involutory exponents to 1, cancellation, and
    for the full parent group the extra rule R2 R0 -> R0 R2."""
    out = [(s, 1 if s in involutory else e) for s, e in word]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(out) - 1:
            (s1, e1), (s2, e2) = out[i], out[i + 1]
            if s1 == s2 and (s1 in involutory or e1 == -e2):
                del out[i:i + 2]
                changed = True
                i = max(i - 1, 0)
                continue
            if commute and (s1, s2) == (commute[1], commute[0]):
                out[i], out[i + 1] = out[i + 1], out[i]
                changed = True
            i += 1
    return out


def verify_rewrite_tables() -> list[str]:
    """Check symbolically, for a free formal group element, that each table
    satisfies r_i r_i = 1 and (r0 r2)^2 = 1 on (word, index) pairs.  Returns
    the list of failures (empty when sound)."""
    failures = []
    for label, table in _TABLES.items():
        involutory = frozenset(INVOLUTORY[label])
        commute = ("R0", "R2") if label == "1" else None

        def act(state, i, _table=table, _inv=involutory, _comm=commute):
            word, j = state
            w, k = _table.moves[(i, j)]
            return _reduce(list(word) + list(w), _inv, _comm), k

        for j in range(table.transversal):
            for i in range(3):
                state = act(([], j), i)
                state = act(state, i)
                if state != ([], j):
                    failures.append(f"class {label}: r{i}^2 != 1 at index {j}")
            state = ([], j)
            for i in (0, 2, 0, 2):
                state = act(state, i)
            if state != ([], j):
                failures.append(f"class {label}: (r0 r2)^2 != 1 at index {j}")
    return failures


# -- exhaustive epimorphism search ---------------------------------------------

@dataclass
class SearchResult:
    class_label: str
    witnesses: list[dict[str, int]]
    examined: int
    complete: bool

    @property
    def proved_empty(self) -> bool:
        return self.complete and not self.witnesses


def _candidate_domains(label: str, G: GroupTable,
                       parity: dict[str, int] | None,
                       lam: list[int] | None) -> dict[str, list[int]]:
    """Per-generator candidate lists: involutions (with identity) or all
    elements, filtered by the parity character when one is in force."""
    invs = [0] + groups.involutions(G)
    everything = list(range(G.size))
    names = GENERATOR_NAMES[label]
    inv_names = set(INVOLUTORY[label])
    domains = {}
    for name in names:
        dom = invs if name in inv_names else everything
        if parity is not None and lam is not None:
            want = 0 if parity[name] == 1 else 1
            dom = [x for x in dom if lam[x] == want]
        domains[name] = dom
    return domains


def _orbit_leaders(n: int, conj: list[np.ndarray]) -> np.ndarray:
    """Boolean mask of the least member of every orbit of the group whose
    conjugation id permutations are ``conj``."""
    if not conj:
        return np.ones(n, dtype=bool)
    ids, _ = perms.orbit_ids(n, conj)
    # orbits are numbered by least member, so the running maximum of the
    # ids rises exactly at each orbit's least member
    return np.diff(np.maximum.accumulate(ids), prepend=-1) > 0


def _canonical_tuples(G: GroupTable, domains: list[list[int]], first: list[int],
                      inv: np.ndarray, commute_0_2: bool):
    """Image tuples in lex order: the first image from ``first``, each later
    one the least member of its orbit under conjugation by the centralizer of
    the images before it, on that slot's candidate list.  With
    ``commute_0_2`` the third image must commute with the first."""
    n = G.size
    ident = np.arange(n)
    slots = []
    for dom in domains:
        mask = np.zeros(n, dtype=bool)
        mask[dom] = True
        slots.append(mask)

    def descend(prefix: tuple[int, ...], cents: list[np.ndarray]):
        # cents[i]: the centralizer of prefix[:i + 1], as a mask over ids
        k = len(prefix)
        if k == len(domains):
            yield prefix
            return
        cent = groups.conjugation(G, prefix[-1], inv) == ident
        cents = cents + [cents[-1] & cent if cents else cent]
        cand = slots[k] & cents[0] if commute_0_2 and k == 2 else slots[k]
        cand = cand & _orbit_leaders(n, groups.conjugation_generators(G, cents[-1], inv))
        for y in np.flatnonzero(cand).tolist():
            yield from descend(prefix + (y,), cents)

    for x in first:
        yield from descend((x,), [])


def _orbit_union(tuples: list[tuple[int, ...]], conj: list[list[int]],
                 first: set[int]) -> list[tuple[int, ...]]:
    """Sorted union of the orbits of ``tuples`` under simultaneous conjugation
    by the group whose conjugation id permutations are ``conj``, keeping the
    tuples whose first image is in ``first``."""
    orbit = set(tuples)
    frontier = list(orbit)
    while frontier:
        nxt = []
        for t in frontier:
            for c in conj:
                u = tuple(c[x] for x in t)
                if u not in orbit:
                    orbit.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(t for t in orbit if t[0] in first)


def search_epimorphisms(label: str, G: GroupTable, *,
                        exhaustive: bool = True,
                        limit: int | None = None,
                        even: bool = False,
                        up_to_cycle_type: bool = False,
                        keep_all: bool = False) -> SearchResult:
    """Image tuples satisfying the class relations that generate G and extend
    no forbidden pattern of the class, in lex order of element ids.

    ``even`` restricts to kernels inside the even subgroup by enumerating the
    index-2 characters of G and constraining image signs per the class; the
    witnesses of each character follow those of the one before.
    ``up_to_cycle_type`` keeps only tuples whose first image is the least
    element of its cycle type.  That is valid only when conjugation by
    Sym(degree) induces automorphisms of G, so G must be Sym(n) or Alt(n) of
    its degree, else :class:`SpecError`.  The default returns the first
    witness (``complete`` is then False); ``keep_all`` returns every one, and
    ``exhaustive=False`` with a ``limit`` the first ``limit``.  Exhaustive
    mode with no witnesses is a proof of emptiness.

    What is enumerated: canonical tuples only (McKay 1998).  The first image
    is the least member of its conjugacy class (of its cycle type with
    ``up_to_cycle_type``); each later image is the least member of its orbit
    under conjugation by the centralizer in G of the images fixed before it.
    ``examined`` counts these canonical tuples.

    Why it is exact: generation, the relations, the index-2 characters and
    forbidden-pattern extension are invariant under simultaneous
    automorphisms, and the lex-least tuple of every orbit is canonical (a
    smaller conjugate of an image by the centralizer of its prefix would give
    a smaller tuple).  So no orbit is missed, and the lex-least witness is
    the first canonical witness.  Each of the first N witnesses is conjugate
    to a canonical witness no larger than it, hence to one of the first N
    canonical witnesses; their orbits under G, cut to the first images the
    search admits and sorted, give the first N witnesses, or all of them.
    """
    if up_to_cycle_type:
        if not isinstance(G, groups.PermGroup):
            raise SpecError("up_to_cycle_type needs a permutation group")
        if G.size not in (factorial(G.degree), factorial(G.degree) // 2):
            raise SpecError(f"up_to_cycle_type needs Sym(n) or Alt(n); a group of "
                            f"order {G.size} on {G.degree} points is neither")
    if limit is not None and limit < 1:
        raise SpecError(f"limit must be a positive number of witnesses, not {limit}")
    shape, _ = ORBIT_ROUTE[label]
    parity = EVEN_SIGNS[label] if even else None
    lams: list[list[int] | None]
    if even and parity is not None:
        lams = list(groups.index2_characters(G))
        if not lams:
            return SearchResult(label, [], 0, True)
    else:
        lams = [None]
    if not exhaustive:
        wanted = limit
    else:
        wanted = None if keep_all else 1

    # a tuple generating an intransitive subgroup cannot generate a
    # transitive permutation target
    transitive = isinstance(G, groups.PermGroup) and perms.is_transitive(
        G.degree, [G.elem(g) for g in G.generators])
    names = GENERATOR_NAMES[shape]
    inv = np.array([G.inverse(x) for x in range(G.size)])
    conj_g = groups.conjugation_generators(G, np.ones(G.size, dtype=bool), inv)
    class_leaders = _orbit_leaders(G.size, conj_g)
    seen: set[tuple[int, ...]] = set()
    witnesses: list[dict[str, int]] = []
    examined = 0

    for lam in lams:
        domains = _candidate_domains(shape, G, parity, lam)
        doms = [domains[name] for name in names]
        if up_to_cycle_type:
            by_type: dict[tuple[int, ...], int] = {}
            for x in doms[0]:
                by_type.setdefault(perms.cycle_structure(G.elem(x)), x)
            first = sorted(by_type.values())
        else:
            first = [x for x in doms[0] if class_leaders[x]]
        room = None if wanted is None else wanted - len(witnesses)
        canonical = []
        for tup in _canonical_tuples(G, doms, first, inv, shape == "1"):
            if tup in seen:
                continue
            examined += 1
            if transitive and \
                    not perms.is_transitive(G.degree, [G.elem(x) for x in tup]):
                continue
            if not G.generates(tup):
                continue
            spec = EpimorphismSpec(shape, G, dict(zip(names, tup)))
            forbidden, _ = has_forbidden_automorphism(spec)
            if forbidden:
                continue
            canonical.append(tup)
            if room is not None and len(canonical) == room:
                break
        found = _orbit_union(canonical, [c.tolist() for c in conj_g],
                             set(first if up_to_cycle_type else doms[0]))
        for tup in [t for t in found if t not in seen][:room]:
            seen.add(tup)
            witnesses.append(dict(zip(names, tup)))
        if wanted is not None and len(witnesses) >= wanted:
            return SearchResult(label, witnesses, examined, False)
    return SearchResult(label, witnesses, examined, True)
