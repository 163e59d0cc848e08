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
    # valid and connected without a check: docs/decisions.md
    return FlagMap._derived(arrays[0], arrays[1], arrays[2])


def has_forbidden_automorphism(spec: EpimorphismSpec) -> tuple[bool, str | None]:
    """Does some forbidden pattern of the class extend to an automorphism of
    the target?  Returns the verdict and the tag of the first pattern, in
    ``_FORBIDDEN`` order, that extends, or None; later patterns are not
    tried.  The spec must pass :func:`check_spec`: that its images generate
    the target is not checked again (:func:`groups.extends_from_generating`)."""
    src = spec.image_tuple()
    for tag, dst in _forbidden_images(spec.group, spec.class_label, spec.images):
        if groups.extends_from_generating(spec.group, src, dst):
            return True, tag
    return False, None


def _forbidden_images(G: GroupTable, label: str, images: dict[str, int]):
    """For each forbidden pattern of class ``label``, in ``_FORBIDDEN``
    order, its tag and the images it assigns to the generators, in
    ``GENERATOR_NAMES`` order, given the generators' ``images``."""
    names = GENERATOR_NAMES[label]
    for tag, pattern in _FORBIDDEN[label]:
        dst = []
        for name in names:
            pname, exp = pattern[name]
            x = images[pname]
            dst.append(x if exp == 1 else G.inverse(x))
        yield tag, tuple(dst)


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
                       lam: list[int] | None) -> dict[str, np.ndarray]:
    """Per-generator candidate masks over element ids: involutions (with
    identity) or all elements, cut to one side of the parity character when
    one is in force."""
    invs = np.zeros(G.size, dtype=bool)
    invs[[0] + groups.involutions(G)] = True
    everything = np.ones(G.size, dtype=bool)
    side = None if parity is None or lam is None else np.asarray(lam)
    inv_names = set(INVOLUTORY[label])
    domains = {}
    for name in GENERATOR_NAMES[label]:
        dom = invs if name in inv_names else everything
        if side is not None:
            dom = dom & (side == (0 if parity[name] == 1 else 1))
        domains[name] = dom
    return domains


def _canonical_tuples(G: GroupTable, slots: list[np.ndarray], first: list[int],
                      inv: np.ndarray, conj_g: list[np.ndarray], commute_0_2: bool):
    """Image tuples in lex order: the first image from ``first``, each later
    one the least member of its orbit, on that slot's candidate mask, under
    conjugation by the centralizer of the images before it.  ``conj_g`` are
    conjugations generating G.  With ``commute_0_2`` the third image must
    commute with the first.

    A node whose centralizer has as many members as its parent's is the
    parent's and reuses its generators, and the orbits are labelled on the
    candidate ids alone, which every centralizer met maps onto themselves
    (``docs/decisions.md``)."""
    n = G.size
    ident = np.arange(n)
    pos = np.empty(n, dtype=np.int64)  # rank of each candidate id, set per call

    def least_in_orbits(cand: np.ndarray, conj: list[np.ndarray]) -> list[int]:
        ids = np.flatnonzero(cand)
        pos[ids] = np.arange(len(ids))
        _, least = groups.conjugation_orbits(len(ids), [pos[c[ids]] for c in conj])
        return ids[least].tolist()

    def descend(prefix: tuple[int, ...], levels: list[tuple[np.ndarray, int, list]]):
        # levels[i]: mask, member count and conjugation generators of the
        # centralizer of prefix[:i]; levels[0] is G
        k = len(prefix)
        if k == len(slots):
            yield prefix
            return
        mask, count, conj = levels[-1]
        mask = mask & (groups.conjugation(G, prefix[-1], inv) == ident)
        members = int(np.count_nonzero(mask))
        if members != count:  # else C(prefix), inside the parent's, equals it
            conj = groups.conjugation_generators(G, mask, inv)
        levels = levels + [(mask, members, conj)]
        cand = slots[k] & levels[1][0] if commute_0_2 and k == 2 else slots[k]
        for y in least_in_orbits(cand, conj):
            yield from descend(prefix + (y,), levels)

    root = [(np.ones(n, dtype=bool), n, conj_g)]
    for x in first:
        yield from descend((x,), root)


def _first_leaders(G: GroupTable, conj: list[np.ndarray], up_to_cycle_type: bool
                   ) -> np.ndarray:
    """The least member of each orbit of ``conj``, conjugations by generators
    of G, and with ``up_to_cycle_type`` by the transposition (0 1) too: the
    leaders of G's classes, or of its cycle types (``docs/decisions.md``)."""
    if up_to_cycle_type and G.degree > 1:
        m = G.matrix()
        t = np.arange(G.degree, dtype=m.dtype)
        t[:2] = 1, 0
        conj = conj + [G.ids_of(t[m[:, t]])]  # row p becomes (0 1) p (0 1)
    return groups.conjugation_orbits(G.size, conj)[1]


def _orbit_union(tuples: list[tuple[int, ...]], conj: list[np.ndarray],
                 admitted: np.ndarray) -> list[tuple[int, ...]]:
    """Sorted union of the orbits of the distinct ``tuples`` under
    simultaneous conjugation by the group whose conjugation id permutations
    are ``conj`` (:func:`perms.bfs_closure`), keeping the tuples whose first
    image is marked in the mask ``admitted``."""
    if not tuples:
        return []
    orbit = perms.bfs_closure(conj, tuples).rows
    return sorted(map(tuple, orbit[admitted[orbit[:, 0]]].tolist()))


def search_epimorphisms(label: str, G: GroupTable, *,
                        limit: int | None = 1,
                        even: bool = False,
                        up_to_cycle_type: bool = False) -> SearchResult:
    """Image tuples satisfying the class relations that generate G and extend
    no forbidden pattern of the class, in lex order of element ids.

    ``even`` restricts to kernels inside the even subgroup by enumerating the
    index-2 characters of G and constraining image signs per the class; the
    witnesses of each character follow those of the one before.
    ``up_to_cycle_type`` keeps only tuples whose first image is the least
    element of its cycle type.  That is valid only when conjugation by
    Sym(degree) induces automorphisms of G, so G must be Sym(n) or Alt(n) of
    its degree, else :class:`SpecError`.  It returns the first ``limit``
    witnesses, by default one, or every one when ``limit`` is None;
    ``complete`` is False when it stopped at the limit.  A search that finds
    no witness is a proof of emptiness.

    What is enumerated: canonical tuples only (McKay 1998).  The first image
    is the least member of its conjugacy class; with ``up_to_cycle_type``,
    of its orbit under conjugation by G and the transposition (0 1), which
    is its cycle type (``docs/decisions.md``).  Each later image is the
    least member of its orbit under conjugation by the centralizer in G of
    the images fixed before it.
    ``examined`` counts these canonical tuples.

    The filters, in order, on a transitive permutation group: the tuple
    generates a transitive group, and no permutation of the points
    conjugates it to a forbidden pattern of it (:func:`perms.conjugator`).
    Such a pattern extends when the tuple generates G, and a tuple that
    does not is rejected anyway (``docs/decisions.md``).  Then, on every
    group, generation and :func:`groups.extends_by_chain` on each pattern:
    :func:`has_forbidden_automorphism` without the conjugator, which has
    found nothing above or, on an intransitive tuple, can find nothing.

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
    # a tuple generating an intransitive subgroup cannot generate a
    # transitive permutation target
    transitive = isinstance(G, groups.PermGroup) and perms.is_transitive(
        G.degree, [G.elem(g) for g in G.generators])
    names = GENERATOR_NAMES[shape]
    inv = groups.inverse_ids(G)
    conj_g = groups.conjugation_generators(G, np.ones(G.size, dtype=bool), inv)
    leaders = _first_leaders(G, conj_g, up_to_cycle_type)
    seen: set[tuple[int, ...]] = set()
    witnesses: list[dict[str, int]] = []
    examined = 0

    for lam in lams:
        domains = _candidate_domains(shape, G, parity, lam)
        doms = [domains[name] for name in names]
        admitted = doms[0] & leaders
        room = None if limit is None else limit - len(witnesses)
        canonical = []
        for tup in _canonical_tuples(G, doms, np.flatnonzero(admitted).tolist(), inv,
                                     conj_g, shape == "1"):
            if tup in seen:
                continue
            examined += 1
            if transitive:
                src = [G.elem(x) for x in tup]
                if not perms.is_transitive(G.degree, src):
                    continue
            images = dict(zip(names, tup))
            patterns = [dst for _, dst in _forbidden_images(G, shape, images)]
            # a forbidden pattern that a point permutation conjugates the
            # tuple to rejects it, generating or not
            if transitive and any(perms.conjugator(src, [G.elem(y) for y in dst]) is not None
                                  for dst in patterns):
                continue
            if not G.generates(tup):
                continue
            if any(groups.extends_by_chain(G, tup, dst) for dst in patterns):
                continue
            canonical.append(tup)
            if room is not None and len(canonical) == room:
                break
        found = _orbit_union(canonical, conj_g, admitted if up_to_cycle_type else doms[0])
        for tup in [t for t in found if t not in seen][:room]:
            seen.add(tup)
            witnesses.append(dict(zip(names, tup)))
        if limit is not None and len(witnesses) >= limit:
            return SearchResult(label, witnesses, examined, False)
    return SearchResult(label, witnesses, examined, True)
