import itertools
import random

import numpy as np
import pytest

from etmaps import fields, groups, perms, realize, suites
from etmaps.groups import (DirectProduct, GpefAlphaGroup, GpefGroup, PermGroup,
                           class_triple_counts, conjugacy_classes,
                           derived_length, derived_series,
                           hom_extension_exists, index2_characters, involutions,
                           nilpotence_class,
                           simultaneous_inversion_survey)
from oracles import count_triples_brute
from test_quotient_oracle import center, derived_subgroup, quotient


def P(s, n):
    return perms.parse_cycles(s, n)


def spot_check(G, samples: int = 50) -> None:
    """Identity and inverse laws on every element, associativity on sampled
    triples."""
    rng = random.Random(0)
    n = G.size
    for a in range(n):
        assert G.product(a, 0) == a and G.product(0, a) == a, "identity law"
        assert G.product(a, G.inverse(a)) == 0, "inverse law"
    for _ in range(samples):
        a, b, c = (rng.randrange(n) for _ in range(3))
        assert G.product(G.product(a, b), c) == G.product(a, G.product(b, c)), \
            "associativity"


def strongly_real(G, x: int) -> bool:
    """x is the identity, an involution, or a product of two involutions,
    i.e. inverted by some involution."""
    if x == 0 or G.product(x, x) == 0:
        return True
    xinv = G.inverse(x)
    return any(G.conjugate(x, t) == xinv for t in involutions(G))


def test_klein_four_from_permutations():
    G = PermGroup([P("(1,2)", 4), P("(3,4)", 4)])
    assert G.size == 4
    spot_check(G)


def test_perm_group_needs_a_generator():
    for cap in (groups.TABLE_CAP, None):
        with pytest.raises(ValueError, match="at least one generator required"):
            PermGroup([], cap=cap)


def test_symgps_class1_n4_gives_s4():
    real = realize.sym_class1(4)
    assert real.spec.group.size == 24


def test_agl18_order_56():
    G = realize.agl1_8_group()[0]
    assert G.size == 56
    spot_check(G)


def test_gpef_examples():
    assert GpefGroup(2, 4, 2).size == 256
    g = GpefGroup(3, 2, 1)   # h^g = h^4, order 81, nonabelian
    assert g.size == 81
    gg, hh = g.generators
    assert g.conjugate(hh, gg) == g.power(hh, 4)
    assert g.product(gg, hh) != g.product(hh, gg)
    a = GpefGroup(5, 1, 1)   # p^f + 1 = 1 mod p: abelian C_5 x C_5
    x, y = a.generators
    assert a.product(x, y) == a.product(y, x)
    with pytest.raises(ValueError):
        GpefGroup(4, 2, 1)
    with pytest.raises(ValueError):
        GpefGroup(3, 2, 3)


def test_alpha_extension_examples():
    with pytest.raises(ValueError):
        GpefAlphaGroup(2)
    A = GpefAlphaGroup(4)
    assert A.size == 512
    spot_check(A)
    g, h, alpha = A.generators
    assert A.product(alpha, alpha) == 0
    assert A.conjugate(h, alpha) == A.power(h, 2 ** 4 - 1)
    assert A.conjugate(g, alpha) == A.product(g, h)


def test_center_of_gpef_odd():
    # Z(G_{p,e,1}) = <g^(p^(e-1)), h^(p^(e-1))> of order p^2
    g = GpefGroup(3, 2, 1)
    z = center(g)
    assert len(z) == 9
    gg, hh = g.generators
    expected = g.subgroup([g.power(gg, 3), g.power(hh, 3)])
    assert z == expected


def test_center_of_alpha_e4_is_c4():
    A = GpefAlphaGroup(4)
    z = center(A)
    assert len(z) == 4
    orders = sorted(A.element_order(x) for x in z)
    assert orders == [1, 2, 4, 4]


def test_derived_series_s4():
    G = realize.sym_group(4)
    series = derived_series(G)
    assert [len(s.members) for s in series] == [24, 12, 4, 1]
    assert derived_length(G) == 3


def test_quotient_by_derived_is_abelian():
    for G in (realize.sym_group(4), GpefGroup(3, 2, 1), GpefAlphaGroup(3)):
        D = derived_subgroup(G)
        Q = quotient(G, D.members)
        assert all(Q.product(a, b) == Q.product(b, a)
                   for a in range(Q.size) for b in range(Q.size))


def test_nilpotence_classes():
    assert nilpotence_class(GpefGroup(3, 2, 1)) == 2
    assert nilpotence_class(GpefGroup(3, 3, 1)) == 3
    assert nilpotence_class(GpefGroup(5, 2, 1)) == 2
    assert nilpotence_class(GpefGroup(7, 2, 1)) == 2
    for e in (3, 4, 5):
        assert nilpotence_class(GpefAlphaGroup(e)) == e + 1
    d4 = PermGroup([P("(1,2,3,4)", 4), P("(1,3)", 4)])
    assert nilpotence_class(d4) == 2
    assert derived_length(d4) == 2
    assert nilpotence_class(realize.sym_group(4)) is None
    v4 = PermGroup([P("(1,2)", 4), P("(3,4)", 4)])
    assert nilpotence_class(v4) == 1


def test_hom_extension_s3_swap():
    G = realize.sym_group(3)
    a, b = G.id_of(P("(1,2)", 3)), G.id_of(P("(2,3)", 3))
    assert hom_extension_exists(G, (a, b), (b, a))
    assert hom_extension_exists(G, (a, b), (a, b))


def test_hom_extension_s6_no_inversion():
    G = realize.sym_group(6)
    x = G.id_of(P("(1,2,3,4,5,6)", 6))
    y = G.id_of(P("(1,2)(3,5)", 6))
    assert not hom_extension_exists(G, (x, y), (G.inverse(x), G.inverse(y)))


def test_hom_extension_symmetric():
    G = realize.sym_group(4)
    src = (G.id_of(P("(1,2)", 4)), G.id_of(P("(2,3,4)", 4)))
    dst = (G.id_of(P("(3,4)", 4)), G.id_of(P("(1,2,3)", 4)))
    assert hom_extension_exists(G, src, dst) == hom_extension_exists(G, dst, src)


def test_hom_extension_requires_generation():
    G = realize.sym_group(4)
    t = G.id_of(P("(1,2)", 4))
    with pytest.raises(ValueError):
        hom_extension_exists(G, (t,), (t,))


def test_survey_s5_all_inverted():
    rep = simultaneous_inversion_survey(realize.sym_group(5))
    assert rep.all_inverted
    assert rep.generating_pairs > 0


def test_survey_s6_finds_chiral_pair():
    G = realize.sym_group(6)
    rep = simultaneous_inversion_survey(G)
    assert not rep.all_inverted
    x, y = rep.counterexample
    assert G.generates((x, y))


def test_survey_psl27_with_pgl_action():
    from etmaps import fields
    F = fields.FiniteField(7)
    G = realize.psl2_perm_group(F)
    rep = simultaneous_inversion_survey(G, fields.pgammal2_generators(F))
    assert rep.all_inverted


def test_count_triples_trivial():
    G = PermGroup([P("(1,2)", 2)])
    assert count_triples_brute(G, [0], [0], [0]) == 1
    assert class_triple_counts(G, [[0], [1]]).tolist() == [[[1, 0], [0, 1]],
                                                          [[0, 1], [1, 0]]]


@pytest.mark.parametrize("name", ["s4", "d4", "a5", "gpef"])
def test_class_triple_counts_match_brute_force(name):
    """Every class triple of the Frobenius suite's groups, and of a table-only
    group whose ``right_mult`` is the generic product loop."""
    if name == "gpef":
        G = GpefGroup(3, 2, 1)
        parts = conjugacy_classes(G)
    else:
        G, ct = suites._load_chartable(f"chartable_{name}.json")
        parts = suites._locate_classes(G, ct)
    counts = class_triple_counts(G, parts)
    k = len(parts)
    assert counts.shape == (k, k, k) and counts.sum() == G.size ** 2
    for ia, ib, ic in itertools.product(range(k), repeat=3):
        assert counts[ia, ib, ic] == count_triples_brute(G, parts[ia], parts[ib], parts[ic])


def test_class_triple_counts_need_a_partition():
    G = realize.sym_group(3)
    parts = conjugacy_classes(G)
    with pytest.raises(ValueError):
        class_triple_counts(G, parts[:-1])
    with pytest.raises(ValueError):
        class_triple_counts(G, parts + [parts[0]])


def test_conjugacy_classes_s4():
    G = realize.sym_group(4)
    sizes = sorted(len(c) for c in conjugacy_classes(G))
    assert sizes == [1, 3, 6, 6, 8]


def test_strongly_real():
    d5 = PermGroup([P("(1,2,3,4,5)", 5), P("(2,5)(3,4)", 5)])
    rot = d5.id_of(P("(1,2,3,4,5)", 5))
    assert strongly_real(d5, rot)
    assert strongly_real(d5, 0)
    A7 = realize.alt_group(7)
    seven = A7.id_of(P("(1,2,3,4,5,6,7)", 7))
    assert not strongly_real(A7, seven)


def test_involutions_count_s4():
    G = realize.sym_group(4)
    assert len(involutions(G)) == 9


def _met(G, *cycles):
    """G after meeting ``cycles``, which take the next ids in turn."""
    first = len(G.generators) + 1
    met = [G.id_of(P(c, G.degree)) for c in cycles]
    assert met == list(range(first, first + len(cycles)))
    return G


def _table_free_s5():
    """S5 with no cap, which has met odd and even elements that are not
    generators before its first array call: its ids are then in meeting
    order, not BFS order, and its element table must keep them."""
    return _met(PermGroup([P("(1,2,3,4,5)", 5), P("(1,2)", 5)], cap=None),
                "(1,3)", "(1,2,3)", "(2,4)", "(2,3,4,5)")


_MATRIX_GROUPS = {
    "S5-table-free": _table_free_s5,
    **{f"S{n}": (lambda n=n: realize.sym_group(n)) for n in range(1, 7)},
    "A7": lambda: realize.alt_group(7),
    "L2(8)": lambda: PermGroup(fields.psl2_group_generators(fields.FiniteField(2, 3))),
    # above 16 points the row keys are void scalars
    "D18": lambda: PermGroup([tuple((i + 1) % 18 for i in range(18)),
                              tuple(-i % 18 for i in range(18))]),
}


@pytest.mark.parametrize("name", sorted(_MATRIX_GROUPS))
def test_inverse_ids_and_involutions_match_element_loops(name):
    G = _MATRIX_GROUPS[name]()
    inv = groups.inverse_ids(G)
    assert inv.dtype == np.int64
    assert inv.tolist() == [G.inverse(x) for x in range(G.size)]
    assert involutions(G) == [x for x in range(1, G.size) if G.product(x, x) == 0]


def test_index2_characters():
    s4 = realize.sym_group(4)
    lams = index2_characters(s4)
    assert len(lams) == 1
    lam = lams[0]
    assert all(lam[x] == (0 if perms.sign(s4.elem(x)) == 1 else 1)
               for x in range(24))
    assert index2_characters(realize.alt_group(5)) == []
    v4 = PermGroup([P("(1,2)", 4), P("(3,4)", 4)])
    assert len(index2_characters(v4)) == 3


def test_table_free_ids_survive_the_element_table():
    G = _table_free_s5()
    assert G.right_mult(3)[0] == 3
    assert groups.inverse_ids(G)[4] == G.id_of(P("(1,3,2)", 5))
    assert [G.elem(x) for x in range(7)] == [
        tuple(range(5)), P("(1,2,3,4,5)", 5), P("(1,2)", 5), P("(1,3)", 5),
        P("(1,2,3)", 5), P("(2,4)", 5), P("(2,3,4,5)", 5)]
    # the one index-2 character is the sign, on every id
    (lam,) = index2_characters(G)
    assert lam == [(1 - perms.sign(G.elem(x))) // 2 for x in range(G.size)]


def test_index2_characters_are_computed_once_per_group(monkeypatch):
    # a fresh group, so that no earlier test has filled its copy
    gens = [P("(1,2,3,4,5,6)", 6), P("(1,2)", 6)]
    G = PermGroup(gens)
    calls = []
    right_mult = G.right_mult
    monkeypatch.setattr(G, "right_mult", lambda w: calls.append(w) or right_mult(w))
    first = index2_characters(G)
    assert calls and len(first) == 1
    calls.clear()
    first[0][0] = 1  # a caller's edit does not reach the kept copy
    second = index2_characters(G)
    assert calls == []
    assert second == index2_characters(PermGroup(gens)) and second[0][0] == 0


def test_quotient_requires_normal():
    G = realize.sym_group(3)
    sub = G.subgroup([G.id_of(P("(1,2)", 3))])
    with pytest.raises(ValueError):
        quotient(G, sub)


_RIGHT_MULT_GROUPS = {
    "S5-table-free": _table_free_s5,
    "S4": lambda: realize.sym_group(4),
    "A5": lambda: realize.alt_group(5),
    "L2(7)": lambda: PermGroup(fields.psl2_group_generators(fields.FiniteField(7))),
    "AGL1(8)": lambda: realize.agl1_8_group()[0],
    "S8": lambda: realize.sym_group(8),
    # above degree 16 the product loop itself answers
    "S3-on-17": lambda: PermGroup([P("(1,2,3)", 17), P("(1,2)", 17)]),
    "S3-on-17-table-free": lambda: _met(
        PermGroup([P("(1,2,3)", 17), P("(1,2)", 17)], cap=None), "(1,3)"),
    "G(3,2,1)": lambda: GpefGroup(3, 2, 1),
    "G(2,5,3)": lambda: GpefGroup(2, 5, 3),
    "alpha-3": lambda: GpefAlphaGroup(3),
    "alpha-5": lambda: GpefAlphaGroup(5),
    "S3 x G(3,1,1)": lambda: DirectProduct(realize.sym_group(3), GpefGroup(3, 1, 1)),
    "D4 x alpha-3": lambda: DirectProduct(
        PermGroup([P("(1,2,3,4)", 4), P("(1,3)", 4)]), GpefAlphaGroup(3)),
}


@pytest.mark.parametrize("name", sorted(_RIGHT_MULT_GROUPS))
def test_right_mult_matches_product_loop(name):
    G = _RIGHT_MULT_GROUPS[name]()
    ws = random.Random(4).sample(range(G.size), 50) if G.size > 1000 else range(G.size)
    for w in ws:
        r = G.right_mult(w)
        assert r.dtype == np.int64
        assert r.tolist() == [G.product(g, w) for g in range(G.size)]
