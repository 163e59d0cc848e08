"""Closures on element tables against the element-by-element versions they
replaced.

``GroupTable.subgroup`` closes the identity under the seed's ``right_mult``
arrays one layer at a time, ``normal_closure`` grows that closure as
conjugates are added, and ``conjugacy_classes`` are the orbits of the
conjugation generators.  ``python_subgroup``, ``python_normal_closure`` and
``python_conjugacy_classes`` below are the per-element BFS versions; every
table family must give the same answers, ``CapExceeded`` included.
"""

import random

import numpy as np
import pytest

from etmaps import groups, perms, realize
from etmaps.groups import (DirectProduct, GpefAlphaGroup, GpefGroup,
                           InvolutoryExtension, PermGroup)
from etmaps.perms import CapExceeded
from test_quotient_oracle import QuotientGroup


def python_subgroup(G, seed, cap=None):
    seen = {0}
    frontier = [0]
    gens = list(dict.fromkeys(seed))
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = G.product(x, s)
                if y not in seen:
                    if cap is not None and len(seen) >= cap:
                        raise CapExceeded(cap)
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def python_normal_closure(G, seed, conjugators):
    conj = list(conjugators) + [G.inverse(c) for c in conjugators]
    gens = [s for s in dict.fromkeys(seed) if s != 0]
    members = set(python_subgroup(G, gens))
    changed = True
    while changed:
        changed = False
        for h in list(gens):
            for c in conj:
                x = G.conjugate(h, c)
                if x not in members:
                    gens.append(x)
                    members = set(python_subgroup(G, gens))
                    changed = True
    return tuple(sorted(members)), tuple(gens)


def python_conjugacy_classes(G):
    conj = list(G.generators) + [G.inverse(g) for g in G.generators]
    seen = [False] * G.size
    classes = []
    for x in range(G.size):
        if seen[x]:
            continue
        orbit = [x]
        seen[x] = True
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for c in conj:
                    z = G.conjugate(y, c)
                    if not seen[z]:
                        seen[z] = True
                        orbit.append(z)
                        nxt.append(z)
            frontier = nxt
        classes.append(sorted(orbit))
    return classes


def P(s, n):
    return perms.parse_cycles(s, n)


def _d4():
    return PermGroup([P("(1,2,3,4)", 4), P("(1,3)", 4)])


def _s4_mod_v4():
    G = realize.sym_group(4)
    v4 = python_subgroup(G, [G.id_of(P("(1,2)(3,4)", 4)), G.id_of(P("(1,3)(2,4)", 4))])
    return QuotientGroup(G, v4)


def _inverting(base):
    """base x| <t> with t inverting base, which must be abelian."""
    return InvolutoryExtension(base, [base.inverse(x) for x in range(base.size)])


GROUPS = {
    "S4": lambda: realize.sym_group(4),
    "A5": lambda: realize.alt_group(5),
    "D4": _d4,
    "G(3,2,1)": lambda: GpefGroup(3, 2, 1),
    "G(2,4,2)": lambda: GpefGroup(2, 4, 2),
    "alpha-3": lambda: GpefAlphaGroup(3),
    "S3 x alpha-3": lambda: DirectProduct(realize.sym_group(3), GpefAlphaGroup(3)),
    "D4 x C2": lambda: DirectProduct(_d4(), PermGroup([P("(1,2)", 2)])),
    "S4 / V4": _s4_mod_v4,
    "C7 x| inversion": lambda: _inverting(PermGroup([P("(1,2,3,4,5,6,7)", 7)])),
    "G(3,1,1) x| inversion": lambda: _inverting(GpefGroup(3, 1, 1)),
}


def _seeds(G, count=12):
    rng = random.Random(G.size)
    seeds = [[], [0], list(G.generators)]
    seeds += [[rng.randrange(G.size) for _ in range(rng.randint(1, 3))]
              for _ in range(count)]
    return seeds


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_subgroup_matches_element_bfs(name):
    G = GROUPS[name]()
    for seed in _seeds(G):
        want = python_subgroup(G, seed)
        assert G.subgroup(seed) == want, seed
        assert G.generates(seed) == (len(want) == G.size), seed


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_subgroup_cap_is_raised_exactly_when_the_oracle_raises(name):
    G = GROUPS[name]()
    for seed in _seeds(G, count=6):
        order = len(python_subgroup(G, seed))
        for cap in sorted({1, order - 1, order, order + 1}):
            try:
                want = python_subgroup(G, seed, cap)
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    G.subgroup(seed, cap)
            else:
                assert G.subgroup(seed, cap) == want
        if order > 1:  # the closure exceeds the cap exactly when it is larger
            with pytest.raises(CapExceeded):
                G.subgroup(seed, order - 1)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_normal_closure_matches_element_bfs(name):
    G = GROUPS[name]()
    for seed in _seeds(G, count=6):
        for conjugators in (G.generators, seed):
            got = groups.normal_closure(G, seed, conjugators)
            assert (got.members, got.gens) == python_normal_closure(G, seed, conjugators)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_conjugacy_classes_match_element_bfs(name):
    G = GROUPS[name]()
    assert groups.conjugacy_classes(G) == python_conjugacy_classes(G)


def test_closure_on_a_chain_group_answers_in_table_ids():
    G = realize._alt_chain(6)
    T = G.table
    seed = [G.generators[0]]
    assert G.subgroup(seed) == python_subgroup(T, [T.id_of(G.elem(s)) for s in seed])


def test_large_nilpotent_closure_uses_the_array_products():
    # order 2^17; the element-by-element closure takes seconds here
    A = GpefAlphaGroup(8)
    g, h, alpha = A.generators
    assert A.generates((g, alpha))
    assert not A.generates((g, h))
    assert len(A.subgroup((g, h))) == A.size // 2
    assert np.array_equal(A.right_mult(alpha)[A.right_mult(alpha)], np.arange(A.size))
