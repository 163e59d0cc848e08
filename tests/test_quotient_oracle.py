"""Index-2 characters and nilpotence class against the quotient-group
versions they replaced.

``groups.index2_characters`` labels the elements by generator parities in
one Cayley pass, and ``groups.nilpotence_class`` walks the lower central
series.  The code below is their earlier form, kept as the oracle: the
characters through the quotient G / G'G^2 (``derived_subgroup``,
``normal_closure``, ``QuotientGroup``, a greedy basis and one BFS per
character), and the class as the length of the upper central series
(``center`` and ``QuotientGroup`` per step).  The character lists must be
equal, order included, since the order of the characters sets the order of
the witnesses of an ``even`` search.
"""

from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from etmaps import groups, perms, realize
from etmaps.groups import (DirectProduct, GpefAlphaGroup, GpefGroup, GroupTable,
                           PermGroup, SubgroupSet, normal_closure)


class QuotientGroup(GroupTable):
    """G/N for a verified-normal subgroup N; cosets in order of least member,
    so the identity coset is id 0."""

    def __init__(self, parent: GroupTable, members: Sequence[int], check: bool = True):
        mem = sorted(set(members))
        if check:
            _check_subgroup(parent, mem)
            _check_normal(parent, mem)
        self.parent = parent
        coset_of = [-1] * parent.size
        reps: list[int] = []
        for x in range(parent.size):
            if coset_of[x] != -1:
                continue
            cid = len(reps)
            reps.append(x)
            for m in mem:
                coset_of[parent.product(m, x)] = cid
        self.coset_of = coset_of
        self.reps = reps
        self.size = len(reps)
        self.generators = sorted({coset_of[g] for g in parent.generators}) or [0]

    def product(self, a: int, b: int) -> int:
        return self.coset_of[self.parent.product(self.reps[a], self.reps[b])]

    def inverse(self, a: int) -> int:
        return self.coset_of[self.parent.inverse(self.reps[a])]

    def label(self, a: int) -> str:
        return self.parent.label(self.reps[a]) + " N"


def _check_subgroup(G: GroupTable, members: Sequence[int]) -> None:
    mset = set(members)
    if 0 not in mset:
        raise ValueError("subgroup must contain the identity")
    for a in members:
        if G.inverse(a) not in mset:
            raise ValueError("subgroup not closed under inverse")
        for b in members:
            if G.product(a, b) not in mset:
                raise ValueError("subgroup not closed under product")


def _check_normal(G: GroupTable, members: Sequence[int]) -> None:
    mset = set(members)
    for g in G.generators:
        for m in members:
            if G.conjugate(m, g) not in mset:
                raise ValueError("subgroup is not normal")


def center(G: GroupTable) -> list[int]:
    gens = G.generators
    return [x for x in range(G.size)
            if all(G.product(x, g) == G.product(g, x) for g in gens)]


def derived_subgroup(G: GroupTable) -> SubgroupSet:
    """Normal closure of the commutators of the generators."""
    seed = [G.commutator(a, b) for a in G.generators for b in G.generators]
    return normal_closure(G, seed)


def quotient(G: GroupTable, members: Sequence[int]) -> QuotientGroup:
    return QuotientGroup(G, members)


def quotient_nilpotence_class(G: GroupTable) -> int | None:
    """Length of the upper central series, or None if G is not nilpotent."""
    Q: GroupTable = G
    c = 0
    while Q.size > 1:
        Z = center(Q)
        if len(Z) == 1:
            return None
        Q = QuotientGroup(Q, Z, check=False)
        c += 1
    return c


def quotient_index2_characters(G: GroupTable) -> list[list[int]]:
    """All homomorphisms G -> C2 as 0/1 arrays over element ids, the trivial
    one excluded, through the quotient by G'G^2."""
    der = derived_subgroup(G)
    seed = list(der.gens) + [G.product(g, g) for g in G.generators]
    K = normal_closure(G, seed)
    Q = QuotientGroup(G, K.members, check=False)
    if Q.size == 1:
        return []
    # Q is elementary abelian of exponent 2; find a basis greedily.
    basis: list[int] = []
    span = {0}
    for q in range(1, Q.size):
        if q in span:
            continue
        basis.append(q)
        span = set(Q.subgroup(basis))
        if len(span) == Q.size:
            break
    out = []
    for vec in range(1, 1 << len(basis)):
        lam_q = [-1] * Q.size
        lam_q[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for i, b in enumerate(basis):
                    y = Q.product(x, b)
                    v = lam_q[x] ^ ((vec >> i) & 1)
                    if lam_q[y] == -1:
                        lam_q[y] = v
                        nxt.append(y)
            frontier = nxt
        out.append([lam_q[Q.coset_of[x]] for x in range(G.size)])
    return out


def P(s, n):
    return perms.parse_cycles(s, n)


def _d4():
    return PermGroup([P("(1,2,3,4)", 4), P("(1,3)", 4)])


def _c2():
    return PermGroup([P("(1,2)", 2)])


GROUPS = {
    **{f"S{n}": (lambda n=n: realize.sym_group(n)) for n in range(2, 9)},
    **{f"A{n}": (lambda n=n: realize.alt_group(n)) for n in range(3, 9)},
    **{f"L2({q})": (lambda q=q: realize.psl2_perm_group(realize._field_of(q)))
       for q in (5, 7, 8, 9, 11, 13)},
    "D4 x C2": lambda: DirectProduct(_d4(), _c2()),
    "C2^3": lambda: DirectProduct(DirectProduct(_c2(), _c2()), _c2()),
    "D4 x alpha-3": lambda: DirectProduct(_d4(), GpefAlphaGroup(3)),
    "D12": lambda: PermGroup([P("(1,2,3,4,5,6)", 6), P("(2,6)(3,5)", 6)]),
    "G(2,4,1)": lambda: GpefGroup(2, 4, 1),
    "G(2,4,2)": lambda: GpefGroup(2, 4, 2),
    **{f"alpha-{e}": (lambda e=e: GpefAlphaGroup(e)) for e in (3, 4, 5)},
    "AGL1(8)": lambda: realize.agl1_8_group()[0],
    "dihedral8": lambda: realize.dihedral_spec(8).spec.group,
    "S3 x G(3,1,1)": lambda: DirectProduct(realize.sym_group(3), GpefGroup(3, 1, 1)),
}
# the number of index-2 subgroups where the character order matters most
CHARACTER_COUNTS = {"D4 x C2": 7, "C2^3": 7, "D4 x alpha-3": 15, "D12": 3}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_index2_characters_match_the_quotient_oracle(name):
    G = GROUPS[name]()
    got = groups.index2_characters(G)
    assert got == quotient_index2_characters(G)
    if name in CHARACTER_COUNTS:
        assert len(got) == CHARACTER_COUNTS[name]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_nilpotence_class_matches_the_upper_central_series(name):
    G = GROUPS[name]()
    assert groups.nilpotence_class(G) == quotient_nilpotence_class(G)


@st.composite
def small_perm_groups(draw):
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return PermGroup([tuple(g) for g in gens])


@settings(max_examples=40, deadline=None)
@given(small_perm_groups())
def test_random_groups_match_the_quotient_oracle(G):
    assert groups.index2_characters(G) == quotient_index2_characters(G)
    assert groups.nilpotence_class(G) == quotient_nilpotence_class(G)


def test_more_generators_than_a_label_has_bits():
    """70 distinct generators, more than the 63 bits of an int64 label: only
    the generators outside the span of those before them get a bit."""
    S5 = realize.sym_group(5)
    G = PermGroup([S5.elem(x) for x in range(1, 71)])
    assert len(set(G.generators)) == 70
    assert groups.index2_characters(G) == quotient_index2_characters(G)
    assert groups.nilpotence_class(G) is None
