import itertools
import math

import pytest

from etmaps import build, classes, flagmaps, groups, perms, realize, suites
from etmaps.realize import Unrealizable


def P(s, n):
    return perms.parse_cycles(s, n)


def test_sym_class1_small():
    real = realize.sym_class1(3)
    G = real.spec.group
    r1, r2 = real.spec.images["R1"], real.spec.images["R2"]
    assert G.label(G.product(r1, r2)) == "(1,2,3)"
    real = realize.sym_class1(5)
    assert real.spec.group.size == 120
    m = real.build()
    assert classes.classify(m) == "1"


def test_sym_class1_relations():
    for n in (3, 4, 5, 6, 7):
        real = realize.sym_class1(n)
        G = real.spec.group
        r0, r1, r2 = real.spec.image_tuple()
        x = G.product(r0, r2)
        assert G.product(x, x) == 0
        assert G.element_order(G.product(r1, r2)) == n


def test_sym_chiral_paper_checks():
    real7 = realize.sym_chiral(7)
    G = real7.spec.group
    x, y = real7.spec.images["X"], real7.spec.images["Y"]
    comm = G.product(G.product(G.inverse(x), G.inverse(y)), G.product(x, y))
    assert perms.cycle_structure(G.elem(comm)) == (1, 1, 5)
    real6 = realize.sym_chiral(6)
    G6 = real6.spec.group
    xy = G6.product(real6.spec.images["X"], real6.spec.images["Y"])
    assert G6.label(G6.power(xy, 3)) == "(3,4)"
    with pytest.raises(Unrealizable):
        realize.sym_chiral(5)


def test_sym_even_case3_pinned_products():
    # the reduced cycles of r0 r1 r2 for n = 9 and n = 13
    r0, r1, r2 = realize._sym_even_class1_perms(9)
    w = perms.compose(perms.compose(r0, r1), r2)
    assert perms.format_cycles(w) == "(1,2,5,4)(3,6,8,9,7)"
    r0, r1, r2 = realize._sym_even_class1_perms(13)
    w = perms.compose(perms.compose(r0, r1), r2)
    assert perms.format_cycles(w) == "(1,2,5,9,8,4)(3,6,10,12,13,11,7)"


def test_sym_even_case4_cycle_structure():
    r0, r1, r2 = realize._sym_even_class1_perms(18)
    w = perms.compose(r1, r2)
    assert perms.cycle_structure(w) == (1, 1, 2, 2, 5, 7)
    assert perms.group_order(perms.group_spec([r0, r1, r2]),
                             cap=math.factorial(18)) == math.factorial(18)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14])
def test_sym_even_class1_generates(n):
    r0, r1, r2 = realize._sym_even_class1_perms(n)
    for r in (r0, r1, r2):
        assert perms.sign(r) == -1
        assert perms.is_involution(r)
    assert perms.compose(r0, r2) == perms.compose(r2, r0)
    assert perms.group_order(perms.group_spec([r0, r1, r2]),
                             cap=math.factorial(n)) == math.factorial(n)


@pytest.mark.parametrize("n", [1, 5, 6])
def test_sym_even_class1_exceptions(n):
    with pytest.raises(Unrealizable):
        realize._sym_even_class1_perms(n)


def test_sym_even_2P_witnesses():
    for n in (4, 5, 6, 7, 8):
        real = realize.sym_even("2P", n)
        m = real.build()
        assert classes.classify(m) == "2P"
        assert flagmaps.summary(m).orientable_no_boundary
    with pytest.raises(Unrealizable):
        realize.sym_even("2P", 3)


def test_sym3_even_unrealizable_cells():
    # Table 3 cells S3-2P, S3-4 and S3-4* (docs/decisions.md); 4P is the control
    G = realize.sym_group(3)
    for label in ("2P", "4", "4s"):
        assert build.search_epimorphisms(label, G, even=True).proved_empty, label
    assert not build.search_epimorphisms("4P", G, even=True).proved_empty

    # Independently of the forbidden patterns and the sign table: build every
    # generating image tuple of shapes 2 and 4 (any parity), follow the D/P
    # route and look for an orientable boundary-free map with Aut = S3 in the
    # class.  Classes 2 and 4P share the shapes and must find one.
    invs = [0] + groups.involutions(G)
    found = {}
    for label in ("2P", "4", "4s", "2", "4P"):
        shape, _ = build.ORBIT_ROUTE[label]
        names = build.GENERATOR_NAMES[shape]
        domains = [invs if name in build.INVOLUTORY[shape] else range(G.size)
                   for name in names]
        found[label] = 0
        for tup in itertools.product(*domains):
            if not G.generates(tup):
                continue
            m = build.build_in_class(label, G, dict(zip(names, tup)))
            if (flagmaps.summary(m).orientable_no_boundary
                    and classes.classify(m) == label
                    and flagmaps.aut_order(m) == G.size):
                found[label] += 1
    assert found["2P"] == found["4"] == found["4s"] == 0
    assert found["2"] > 0 and found["4P"] > 0


def test_sym_even_2ex_odd_n_search():
    real = realize.sym_even("2ex", 7)
    m = real.build()
    assert classes.classify(m) == "2ex"
    assert flagmaps.summary(m).orientable_no_boundary


def test_sym_even_class3_family():
    for n in (3, 4, 5, 6):
        real = realize.sym_even("3", n)
        m = real.build()
        assert classes.classify(m) == "3"
        assert flagmaps.summary(m).orientable_no_boundary


def test_sym_even_5P_even_n():
    real = realize.sym_even("5P", 8)
    m = real.build()
    assert classes.classify(m) == "5P"
    assert flagmaps.summary(m).orientable_no_boundary


def test_alt_standard_gens():
    for n, variant in ((5, "a"), (5, "b"), (7, "c"), (6, "d")):
        gens = realize.alt_standard_gens(n, variant)
        assert perms.group_order(perms.group_spec(gens)) == math.factorial(n) // 2
    with pytest.raises(ValueError):
        realize.alt_standard_gens(6, "c")
    with pytest.raises(ValueError):
        realize.alt_standard_gens(7, "d")


def test_alt_class1_n5():
    real = realize.alt_class1(5)
    assert real.spec.group.size == 60
    assert classes.classify(real.build()) == "1"
    for n in (6, 7, 8):
        with pytest.raises(Unrealizable):
            realize.alt_class1(n)


@pytest.mark.parametrize("label", ["2", "2s", "2P", "3", "4", "4s", "4P"])
def test_alt_too_small_names_the_class_asked_for(label):
    shape = build.ORBIT_ROUTE[label][0]
    for n in (1, 2, 3):
        with pytest.raises(Unrealizable) as err:
            suites.alt_witness(label, n)
        assert err.value.reason == f"A_{n} is abelian or too small for class {label}"
        assert err.value.provenance == "exhausted"
        assert build.search_epimorphisms(shape, realize.alt_group(n)).proved_empty


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_alt_class1_certificates(n):
    r0, r1, r2 = realize.alt_class1_perms(n)
    for r in (r0, r1, r2):
        assert perms.sign(r) == 1
        assert perms.is_involution(r)
    assert perms.compose(r0, r2) == perms.compose(r2, r0)
    assert perms.group_order(perms.group_spec([r0, r1, r2]),
                             cap=math.factorial(n)) == math.factorial(n) // 2


def test_alt_chiral_commutator_checks():
    x, y = realize.alt_chiral_perms(8)
    # [y, x] = (1,2,3,5,4) for even n
    yx = perms.compose(perms.compose(perms.inverse(y), perms.inverse(x)),
                       perms.compose(y, x))
    assert sorted(perms.cycle_structure(yx))[-1] == 5
    real = realize.alt_chiral(8)
    assert classes.classify(real.build()) == "2Pex"


def test_alt_small_triples():
    for n in (6, 7, 8):
        real = realize.alt_small("2", n)
        assert build.check_spec(real.spec) == []
        forbidden, _ = build.has_forbidden_automorphism(real.spec)
        assert not forbidden
    real = realize.alt_small("2", 7)
    G = real.spec.group
    s1, s2, s3 = real.spec.image_tuple()
    assert G.element_order(G.product(s1, s3)) == 5
    assert G.element_order(G.product(s2, s3)) == 3


def test_alt_class5_a7():
    real = realize.alt_small("5", 7)
    m = real.build()
    assert classes.classify(m) == "5"
    assert flagmaps.aut_order(m) == 2520


def test_psl2_class1_q8():
    real = realize.psl2_class1(8)
    assert real.spec.group.size == 504
    assert classes.classify(real.build()) == "1"


def test_psl2_class1_q11_pinned():
    real = realize.psl2_class1(11)
    G = real.spec.group
    assert G.size == 660
    m = real.build()
    s = flagmaps.summary(m)
    assert (s.V, s.E, s.F) == (55, 165, 66)
    assert s.euler_char == -44
    assert s.genus == ("non_orientable", 46)
    assert classes.classify(m) == "1"


def test_psl2_class1_rejects():
    for q in (3, 7, 9):
        with pytest.raises(Unrealizable):
            realize.psl2_class1(q)


def test_psl2_class2_q7_orders():
    real = realize.psl2_class2_q7()
    G = real.spec.group
    s1, s2, sp = real.spec.image_tuple()
    assert G.element_order(G.product(s1, s2)) == 3
    assert G.element_order(G.product(s1, sp)) == 3
    assert G.element_order(G.product(s2, sp)) == 4
    assert classes.classify(real.build()) == "2"


def test_nilpotent_chiral_requires_e4():
    with pytest.raises(Unrealizable) as err:
        realize.nilpotent_chiral(3)
    assert err.value.provenance == "cited"


def test_dihedral_spec_type():
    real = realize.dihedral_spec(6)
    G = real.spec.group
    assert G.size == 24
    r0, r1, r2 = real.spec.image_tuple()
    assert G.element_order(G.product(r0, r1)) == 6
    assert G.element_order(G.product(r1, r2)) == 2
    m = real.build()
    s = flagmaps.summary(m)
    assert (s.V, s.E, s.F) == (6, 6, 2)
    assert s.genus == ("orientable", 0)


def test_edmonds_k8_data():
    ra, rb = realize.edmonds_k8()
    G = ra.spec.group
    assert G.size == 56
    ma, mb = ra.build(), rb.build()
    s = flagmaps.summary(ma)
    assert (s.V, s.E) == (8, 28)
    assert groups.derived_length(G) == 2
    assert not flagmaps.is_isomorphic_oriented(ma, mb)
    assert flagmaps.is_isomorphic(ma, mb)  # mirror images as unoriented maps


def test_propagate_regmapslemma_executable():
    # class-1 sources reach 2, 3, 4 forbidden-free; chiral sources reach
    # 2ex, 4, 5 forbidden-free
    for src in (realize.sym_class1(5), realize.alt_class1(5),
                realize.psl2_class1(8)):
        for target in ("2", "3", "4"):
            real = realize.propagate(src, target)
            assert build.check_spec(real.spec) == []
            forbidden, _ = build.has_forbidden_automorphism(real.spec)
            assert not forbidden, (src.label, target)
    for src in (realize.sym_chiral(6), realize.sym_chiral(7)):
        for target in ("2ex", "4", "5"):
            real = realize.propagate(src, target)
            assert build.check_spec(real.spec) == []
            forbidden, _ = build.has_forbidden_automorphism(real.spec)
            assert not forbidden


def test_propagate_strongly_real_chiral_to_class2():
    real = realize.propagate(realize.sym_chiral(6), "2")
    assert build.check_spec(real.spec) == []
    forbidden, _ = build.has_forbidden_automorphism(real.spec)
    assert not forbidden
    assert classes.classify(real.build()) == "2"


def test_propagate_abelian_source_fails():
    c2 = groups.PermGroup([P("(1,2)", 2)])
    spec = build.EpimorphismSpec("1", c2, {"R0": 1, "R1": 1, "R2": 1})
    with pytest.raises(ValueError):
        realize.propagate(realize.Realization("1", spec, ""), "2")
