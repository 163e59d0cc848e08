"""The canonical-prefix search against the full product enumeration it
replaced.

``_full_product_search`` is the earlier ``search_epimorphisms``: every tuple
of the candidate lists in lex order (only the first slot cut to one element
per cycle type with ``up_to_cycle_type``), filtered by transitivity,
generation and the forbidden patterns, every pattern decided by the
Cayley-graph walk of ``class_oracle.forbidden_tags``.  The canonical search
must return the same ``SearchResult`` in every field but ``examined``: the
same ``complete`` and ``proved_empty``, and the same witnesses in the same
order.  With ``limit=None`` (every witness, the ``keep_all`` modes) it must
examine exactly one tuple per conjugation orbit of the full product.  On every generating tuple the reference meets,
``build.has_forbidden_automorphism``, which stops at the first pattern that
extends, must give the verdict and the first tag of ``forbidden_tags``.

Cells: every direct-build shape on S3, S4, A4, A5, S5, L2(7), AGL1(8),
G_{3,2,1} and D12 (the one group here with more than one index-2 character),
in the default mode (``limit=1``), with ``limit=None``, with ``limit=3``,
with ``even`` (shape 5 as class 5P, which has signs; 2Pex has none), alone
and with ``limit=None`` (which compares the order of the witnesses across
several characters), and on the symmetric and alternating groups with
``up_to_cycle_type``, alone and with ``limit=None``.  In ``even`` mode the
reference takes its characters from the quotient-group oracle of
``test_quotient_oracle.py``, not from the function under test.  The
reference checks roughly 1,000 to 5,000 tuples a second, so cells whose
full product has more than 12,000 tuples are left out to keep the file
near forty seconds: shape 2 on S5 (17,576 tuples),
shape 3 on A5, S5 and L2(7), shape 4 on A5 (15,360), S5 and L2(7), and
shape 5 on S5 (14,400) and L2(7) (28,224).
"""

import itertools

import numpy as np
import pytest

from etmaps import build, groups, perms, realize
from etmaps.build import GENERATOR_NAMES, SearchResult
from etmaps.fields import FiniteField
from etmaps.groups import PermGroup
from class_oracle import forbidden_tags
from test_quotient_oracle import quotient_index2_characters

MAX_PRODUCT = 12_000


def _tuple_iter(label, G, domains, first_reps):
    names = GENERATOR_NAMES[label]
    first = first_reps if first_reps is not None else domains[names[0]]
    if label == "1":
        # (R0 R2)^2 = 1: only images of R2 commuting with that of R0
        for r0 in first:
            comm = [r2 for r2 in domains["R2"]
                    if G.product(r0, r2) == G.product(r2, r0)]
            yield from itertools.product((r0,), domains["R1"], comm)
        return
    yield from itertools.product(first, *(domains[n] for n in names[1:]))


def _cycle_type_reps(G, dom):
    by_type = {}
    for x in dom:
        by_type.setdefault(perms.cycle_structure(G.elem(x)), x)
    return sorted(by_type.values())


_TAGS = {}  # (shape, group) -> {generating tuple: its forbidden_tags}


def _tags(shape, G, tup):
    """``forbidden_tags`` of a generating tuple, once per tuple for the file."""
    known = _TAGS.setdefault((shape, G), {})
    if tup not in known:
        spec = build.EpimorphismSpec(shape, G, dict(zip(GENERATOR_NAMES[shape], tup)))
        known[tup] = forbidden_tags(spec)
    return known[tup]


def _full_product_search(label, G, *, limit=1, even=False,
                         up_to_cycle_type=False) -> SearchResult:
    shape, _ = build.ORBIT_ROUTE[label]
    parity = build.EVEN_SIGNS[label] if even else None
    if even and parity is not None:
        lams = quotient_index2_characters(G)
        if not lams:
            return SearchResult(label, [], 0, True)
    else:
        lams = [None]
    transitive = isinstance(G, PermGroup) and perms.is_transitive(
        G.degree, [G.elem(g) for g in G.generators])
    names = GENERATOR_NAMES[shape]
    seen = set()
    witnesses = []
    examined = 0
    for lam in lams:
        domains = build._candidate_domains(shape, G, parity, lam)
        first_reps = None
        if up_to_cycle_type:
            first_reps = _cycle_type_reps(G, domains[names[0]])
        for tup in _tuple_iter(shape, G, domains, first_reps):
            if tup in seen:
                continue
            examined += 1
            if transitive and \
                    not perms.is_transitive(G.degree, [G.elem(x) for x in tup]):
                continue
            if not G.generates(tup):
                continue
            if _tags(shape, G, tup):
                continue
            seen.add(tup)
            witnesses.append(dict(zip(names, tup)))
            if limit is not None and len(witnesses) >= limit:
                return SearchResult(label, witnesses, examined, False)
    return SearchResult(label, witnesses, examined, True)


GROUPS = {
    "S3": lambda: realize.sym_group(3),
    "S4": lambda: realize.sym_group(4),
    "A4": lambda: realize.alt_group(4),
    "A5": lambda: realize.alt_group(5),
    "S5": lambda: realize.sym_group(5),
    "L2(7)": lambda: realize.psl2_perm_group(FiniteField(7)),
    "AGL1(8)": lambda: realize.agl1_8_group()[0],
    "G(3,2,1)": lambda: groups.GpefGroup(3, 2, 1),
    "D12": lambda: PermGroup([perms.parse_cycles("(1,2,3,4,5,6)", 6),
                              perms.parse_cycles("(2,6)(3,5)", 6)]),
}
SYM_OR_ALT = ("S3", "S4", "A4", "A5", "S5")
# products over MAX_PRODUCT, from the candidate list sizes
SKIPPED = {("S5", "2"), ("A5", "3"), ("S5", "3"), ("L2(7)", "3"), ("A5", "4"),
           ("S5", "4"), ("L2(7)", "4"), ("S5", "5"), ("L2(7)", "5")}
EVEN_LABEL = {"1": "1", "2": "2", "2ex": "2ex", "3": "3", "4": "4", "5": "5P"}
MODES = {
    "default": {},
    "keep_all": {"limit": None},
    "limit3": {"limit": 3},
    "even": {"even": True},
    "even_keep_all": {"even": True, "limit": None},
    "cycle_type": {"up_to_cycle_type": True},
    "cycle_type_keep_all": {"up_to_cycle_type": True, "limit": None},
}
_BUILT = {}


def _group(name):
    if name not in _BUILT:
        _BUILT[name] = GROUPS[name]()
    return _BUILT[name]


def _cells():
    for gname in GROUPS:
        for shape in GENERATOR_NAMES:
            if (gname, shape) in SKIPPED:
                continue
            for mode in MODES:
                if mode.startswith("even") and shape not in EVEN_LABEL:
                    continue
                if mode.startswith("cycle_type") and gname not in SYM_OR_ALT:
                    continue
                yield pytest.param(gname, shape, mode, id=f"{gname}-{shape}-{mode}")


def test_skipped_cells_are_the_large_products():
    for gname in GROUPS:
        G = _group(gname)
        invs = 1 + len(groups.involutions(G))
        for shape, names in GENERATOR_NAMES.items():
            if shape == "1":
                inv_list = [0] + groups.involutions(G)
                size = invs * sum(G.product(a, b) == G.product(b, a)
                                  for a in inv_list for b in inv_list)
            else:
                size = 1
                for name in names:
                    size *= invs if name in build.INVOLUTORY[shape] else G.size
            assert (size > MAX_PRODUCT) == ((gname, shape) in SKIPPED), (gname, shape)


def _orbit_count(shape, G, up_to_cycle_type):
    """Orbits of simultaneous conjugation by G that meet the full product,
    found by a walk over conjugates by the generators."""
    domains = build._candidate_domains(shape, G, None, None)
    first_reps = None
    if up_to_cycle_type:
        first_reps = _cycle_type_reps(G, domains[GENERATOR_NAMES[shape][0]])
    conj = [[G.conjugate(x, g) for x in range(G.size)] for g in G.generators]
    reached = set()
    count = 0
    for t in _tuple_iter(shape, G, domains, first_reps):
        if t in reached:
            continue
        count += 1
        reached.add(t)
        frontier = [t]
        while frontier:
            nxt = []
            for u in frontier:
                for c in conj:
                    v = tuple(c[x] for x in u)
                    if v not in reached:
                        reached.add(v)
                        nxt.append(v)
            frontier = nxt
    return count


_KEEP_ALL = {}


def _reference(gname, label, mode):
    """The full product search in ``mode``.  Where it finds no witness with
    ``limit=None`` it never returns early, so the default and ``limit`` modes
    scan the same tuples to the same result; that one run stands for them."""
    G = _group(gname)
    if mode in ("default", "keep_all", "limit3"):
        if (gname, label) not in _KEEP_ALL:
            _KEEP_ALL[gname, label] = _full_product_search(label, G, limit=None)
        every = _KEEP_ALL[gname, label]
        if mode == "keep_all" or not every.witnesses:
            return every
    return _full_product_search(label, G, **MODES[mode])


@pytest.mark.parametrize("gname, shape, mode", list(_cells()))
def test_canonical_search_matches_full_product(gname, shape, mode):
    G = _group(gname)
    kwargs = MODES[mode]
    label = EVEN_LABEL[shape] if mode.startswith("even") else shape
    want = _reference(gname, label, mode)
    got = build.search_epimorphisms(label, G, **kwargs)
    assert got.witnesses == want.witnesses
    assert got.complete == want.complete
    assert got.proved_empty == want.proved_empty
    if mode in ("keep_all", "cycle_type_keep_all"):
        # one canonical tuple per orbit of the full product
        assert got.examined == _orbit_count(shape, G, "up_to_cycle_type" in kwargs)


@pytest.mark.parametrize("gname, shape", [
    pytest.param(gname, shape, id=f"{gname}-{shape}")
    for gname in GROUPS for shape in GENERATOR_NAMES if (gname, shape) not in SKIPPED])
def test_first_matching_pattern_agrees_with_every_pattern(gname, shape):
    # the limit=None reference scans the whole product, so it meets every
    # generating tuple that a cell of this group and shape visits; the
    # search's test stops at the first pattern that extends, the oracle
    # tries them all
    G = _group(gname)
    _reference(gname, shape, "keep_all")
    for tup, tags in _TAGS.get((shape, G), {}).items():
        spec = build.EpimorphismSpec(shape, G, dict(zip(GENERATOR_NAMES[shape], tup)))
        assert build.has_forbidden_automorphism(spec) == \
            (bool(tags), tags[0] if tags else None), tup


def _character_domains(G):
    """Both sides of each index-2 character."""
    lams = groups.index2_characters(G)
    return [[x for x in range(G.size) if lam[x] == side] for lam in lams for side in (0, 1)]


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8",
                                  "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"])
def test_cycle_type_leaders_match_the_loop(name):
    # the search's first images up to cycle type, the least members of the
    # orbits of conjugation by G and (0 1), against a loop over elements
    G = realize.sym_group(int(name[1:])) if name[0] == "S" \
        else realize.alt_group(int(name[1:]))
    domains = [list(range(G.size)), [0] + groups.involutions(G), []]
    domains += _character_domains(G)
    assert len(domains) == (5 if name[0] == "S" and name != "S1" else 3)
    conj = groups.conjugation_generators(G, np.ones(G.size, dtype=bool),
                                         groups.inverse_ids(G))
    leaders = build._first_leaders(G, conj, True)
    for dom in domains:
        assert [x for x in dom if leaders[x]] == _cycle_type_reps(G, dom)
