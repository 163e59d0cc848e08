"""The canonical search's centralizer reuse against per-node recomputation.

``build._canonical_tuples`` keeps each prefix level's centralizer mask and
conjugation generators, reuses the parent's generators when a node's
centralizer has as many members as its parent's, and labels orbits on the
next slot's candidate ids only; ``groups.conjugation_generators`` takes G's
own generators for the whole group.  ``recomputed_tuples`` below is the
enumeration as it was before: greedy generators of C_G(prefix) at every
node, orbits over all ids, then cut to the candidates.  Both must give the
same tuples in the same order, on every shape, with and without an index-2
character, and with class 1's third slot cut to C_G(first image).

Also pinned: ``examined`` and the verdicts of the M11 searches named in the
ROADMAP and of the five searches of the benchmark's ``search`` workload.
"""

import json
from importlib import resources

import numpy as np
import pytest

from etmaps import build, fields, groups, perms, realize
from etmaps.build import GENERATOR_NAMES
from etmaps.fields import FiniteField
from etmaps.groups import DirectProduct, GpefGroup, PermGroup


def greedy_generators(G, members, inv):
    """Conjugations by a generating set of the subgroup ``members``, chosen
    greedily for every subgroup, G itself included: the least member
    outside the subgroup generated so far."""
    span = np.zeros(G.size, dtype=bool)
    span[0] = True
    gens, conj = [], []
    while (members & ~span).any():
        g = int((members & ~span).argmax())
        gens.append(g)
        span[G.subgroup(gens)] = True
        conj.append(groups.conjugation(G, g, inv))
    return conj


def recomputed_tuples(G, slots, first, inv, commute_0_2):
    """The canonical tuples with C_G(prefix) and its orbits recomputed over
    all of G at every prefix node."""
    n = G.size
    ident = np.arange(n)

    def descend(prefix, cents):
        k = len(prefix)
        if k == len(slots):
            yield prefix
            return
        cent = groups.conjugation(G, prefix[-1], inv) == ident
        cents = cents + [cents[-1] & cent if cents else cent]
        cand = slots[k] & cents[0] if commute_0_2 and k == 2 else slots[k]
        _, leaders = groups.conjugation_orbits(n, greedy_generators(G, cents[-1], inv))
        for y in np.flatnonzero(cand & leaders).tolist():
            yield from descend(prefix + (y,), cents)

    for x in first:
        yield from descend((x,), [])


def P(s, n):
    return perms.parse_cycles(s, n)


GROUPS = {
    "S4": lambda: realize.sym_group(4),
    "A4": lambda: realize.alt_group(4),
    "A5": lambda: realize.alt_group(5),
    "S5": lambda: realize.sym_group(5),
    "L2(7)": lambda: realize.psl2_perm_group(FiniteField(7)),
    "AGL1(8)": lambda: realize.agl1_8_group()[0],
    "D12": lambda: PermGroup([P("(1,2,3,4,5,6)", 6), P("(2,6)(3,5)", 6)]),
    "G(3,2,1)": lambda: GpefGroup(3, 2, 1),
}


def _parities(G, shape):
    """No character, then every index-2 character under the signs of every
    class reached from ``shape`` that has signs."""
    yield None, None
    for label, (route_shape, _) in build.ORBIT_ROUTE.items():
        signs = build.EVEN_SIGNS[label]
        if route_shape == shape and signs is not None:
            for lam in groups.index2_characters(G):
                yield signs, lam


@pytest.mark.parametrize("gname", list(GROUPS))
@pytest.mark.parametrize("shape", list(GENERATOR_NAMES))
def test_reused_centralizers_give_the_recomputed_tuples(gname, shape):
    G = GROUPS[gname]()
    inv = groups.inverse_ids(G)
    conj_g = groups.conjugation_generators(G, np.ones(G.size, dtype=bool), inv)
    leaders = build._first_leaders(G, conj_g, False)
    names = GENERATOR_NAMES[shape]
    cells = 0
    for parity, lam in _parities(G, shape):
        domains = build._candidate_domains(shape, G, parity, lam)
        slots = [domains[name] for name in names]
        first = np.flatnonzero(slots[0] & leaders).tolist()
        got = list(build._canonical_tuples(G, slots, first, inv, conj_g, shape == "1"))
        want = list(recomputed_tuples(G, slots, first, inv, shape == "1"))
        assert got == want, (parity, lam is not None)
        cells += bool(want)
    assert cells


def _fixture_group(name):
    obj = json.loads(resources.files("etmaps.fixtures").joinpath(name).read_text())
    return groups.group_from_json(obj["group"])


def _d4():
    return PermGroup([P("(1,2,3,4)", 4), P("(2,4)", 4)])


CLASS_GROUPS = {
    "S4": lambda: _fixture_group("chartable_s4.json"),
    "D4": lambda: _fixture_group("chartable_d4.json"),
    "A5": lambda: _fixture_group("chartable_a5.json"),
    "D4xC2": lambda: DirectProduct(_d4(), PermGroup([P("(1,2)", 2)])),
    "G(3,2,1)": lambda: GpefGroup(3, 2, 1),
}


@pytest.mark.parametrize("name", list(CLASS_GROUPS))
def test_whole_group_generators_give_the_greedy_classes(name):
    G = CLASS_GROUPS[name]()
    inv = groups.inverse_ids(G)
    whole = np.ones(G.size, dtype=bool)
    got = groups.conjugation_generators(G, whole, inv)
    assert len(got) == len([g for g in G.generators if g != 0])
    ids, _ = groups.conjugation_orbits(G.size, greedy_generators(G, whole, inv))
    greedy = [np.flatnonzero(ids == i).tolist() for i in range(ids.max() + 1)]
    assert groups.conjugacy_classes(G) == greedy


def test_trivial_group_has_no_conjugation_generators():
    G = PermGroup([(0, 1, 2)])
    assert G.size == 1
    assert groups.conjugation_generators(G, np.ones(1, dtype=bool),
                                         groups.inverse_ids(G)) == []
    assert groups.conjugacy_classes(G) == [[0]]


def m11():
    return PermGroup([P("(1,2,3,4,5,6,7,8,9,10,11)", 11),
                      P("(3,7,11,8)(4,10,5,6)", 11)])


@pytest.mark.parametrize("label, empty, examined", [
    ("1", True, 81), ("2", False, 43), ("4", False, 15), ("5", False, 13)])
def test_m11_searches(label, empty, examined):
    # class 1 empty matches the Nuzhin cross-check of the ROADMAP
    G = m11()
    assert G.size == 7920
    res = build.search_epimorphisms(label, G)
    assert (res.proved_empty, res.examined) == (empty, examined)
    for images in res.witnesses:
        assert build.check_spec(build.EpimorphismSpec(label, G, images)) == []


def _sym_gens(n):
    return [realize.cycle(n, *range(1, n + 1)), realize.involution(n, [(1, 2)])]


# the five searches of the benchmark's ``search`` workload, on unrelabelled
# points: the group, the class, the options, then proved_empty and examined
WORKLOAD_SEARCHES = {
    "A7-2Pex": (lambda: PermGroup([realize.cycle(7, 1, 2, 3), realize.cycle(7, *range(1, 8))]),
                "2Pex", {"up_to_cycle_type": True}, True, 114),
    "L2(9)-1": (lambda: PermGroup(fields.psl2_group_generators(FiniteField(3, 2))),
                "1", {}, True, 64),
    "S6-4-even": (lambda: PermGroup(_sym_gens(6)), "4",
                  {"even": True, "up_to_cycle_type": True}, False, 19),
    "S5-5": (lambda: PermGroup(_sym_gens(5)), "5", {"up_to_cycle_type": True}, True, 161),
    "S5-2ex": (lambda: PermGroup(_sym_gens(5)), "2ex", {"up_to_cycle_type": True}, True, 47),
}


@pytest.mark.parametrize("name", list(WORKLOAD_SEARCHES))
def test_workload_search_counts(name):
    make, label, kwargs, empty, examined = WORKLOAD_SEARCHES[name]
    res = build.search_epimorphisms(label, make(), **kwargs)
    assert (res.proved_empty, res.examined) == (empty, examined)
