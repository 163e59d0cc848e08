"""The canonical-prefix search against the full product enumeration it
replaced.

``_full_product_search`` is the earlier ``search_epimorphisms``: every tuple
of the candidate lists in lex order (only the first slot cut to one element
per cycle type with ``up_to_cycle_type``), filtered by transitivity,
generation and the forbidden patterns.  The canonical search must return
the same ``SearchResult`` in every field but ``examined``: the same
``complete`` and ``proved_empty``, and the same witnesses in the same order.
With ``keep_all`` it must examine exactly one tuple per conjugation orbit of
the full product.

Cells: every direct-build shape on S3, S4, A4, A5, S5, L2(7), AGL1(8),
G_{3,2,1} and D12 (the one group here with more than one index-2 character),
in the default mode, with ``keep_all``, with ``exhaustive=False, limit=3``,
with ``even`` (shape 5 as class 5P, which has signs; 2Pex has none), alone
and with ``keep_all`` (which compares the order of the witnesses across
several characters), and on the symmetric and alternating groups with
``up_to_cycle_type``, alone and with ``keep_all``.  In ``even`` mode the
reference takes its characters from the quotient-group oracle of
``test_quotient_oracle.py``, not from the function under test.  The
reference checks roughly 2,000 to 5,000 tuples a second, so cells whose
full product has more than 12,000 tuples are left out to keep the file
near half a minute: shape 2 on S5 (17,576 tuples),
shape 3 on A5, S5 and L2(7), shape 4 on A5 (15,360), S5 and L2(7), and
shape 5 on S5 (14,400) and L2(7) (28,224).
"""

import itertools

import pytest

from etmaps import build, groups, perms, realize
from etmaps.build import GENERATOR_NAMES, SearchResult
from etmaps.fields import FiniteField
from etmaps.groups import PermGroup
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


def _full_product_search(label, G, *, exhaustive=True, limit=None, even=False,
                         up_to_cycle_type=False, keep_all=False) -> SearchResult:
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
    complete = True
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
            spec = build.EpimorphismSpec(shape, G, dict(zip(names, tup)))
            forbidden, _ = build.has_forbidden_automorphism(spec)
            if forbidden:
                continue
            seen.add(tup)
            witnesses.append(dict(zip(names, tup)))
            if not exhaustive and limit is not None and len(witnesses) >= limit:
                complete = False
                return SearchResult(label, witnesses, examined, complete)
            if not keep_all and exhaustive and witnesses:
                return SearchResult(label, witnesses, examined, False)
    return SearchResult(label, witnesses, examined, complete)


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
    "keep_all": {"keep_all": True},
    "limit3": {"exhaustive": False, "limit": 3},
    "even": {"even": True},
    "even_keep_all": {"even": True, "keep_all": True},
    "cycle_type": {"up_to_cycle_type": True},
    "cycle_type_keep_all": {"up_to_cycle_type": True, "keep_all": True},
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
    ``keep_all`` it never returns early, so the default and ``limit`` modes
    scan the same tuples to the same result; that one run stands for them."""
    G = _group(gname)
    if mode in ("default", "keep_all", "limit3"):
        if (gname, label) not in _KEEP_ALL:
            _KEEP_ALL[gname, label] = _full_product_search(label, G, keep_all=True)
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

