import json
import random

import pytest

from etmaps import build, classes, flagmaps, groups, perms, realize
from etmaps.build import (EpimorphismSpec, SpecError, build_map, check_spec,
                          has_forbidden_automorphism, search_epimorphisms,
                          spec_from_json, transform_spec, verify_rewrite_tables)
from class_oracle import expected_class


def P(s, n):
    return perms.parse_cycles(s, n)


def test_rewrite_tables_sound():
    assert verify_rewrite_tables() == []


def test_rewrite_tables_match_parent_indices():
    tables = build.rewrite_tables()
    assert tables["1"].transversal == 1
    for lab in ("2", "2ex", "2Pex"):
        assert tables[lab].transversal == 2
    for lab in ("3", "4", "5"):
        assert tables[lab].transversal == 4


def test_check_spec_symgps_ok():
    real = realize.sym_class1(5)
    assert check_spec(real.spec) == []


def test_check_spec_noncommuting_class1():
    G = realize.sym_group(4)
    spec = EpimorphismSpec("1", G, {
        "R0": G.id_of(P("(1,2)", 4)),
        "R1": G.id_of(P("(2,3)", 4)),
        "R2": G.id_of(P("(1,3)", 4))})
    assert any("(R0 R2)^2" in v for v in check_spec(spec))


def test_check_spec_bad_involution():
    G = realize.sym_group(6)
    spec = EpimorphismSpec("2Pex", G, {
        "X": G.id_of(P("(1,2,3,4,5,6)", 6)),
        "Y": G.id_of(P("(1,2,3)", 6))})
    assert any("order not dividing 2" in v for v in check_spec(spec))


def test_check_spec_generation():
    G = realize.sym_group(4)
    spec = EpimorphismSpec("2", G, {
        "S1": G.id_of(P("(1,2)", 4)),
        "S2": G.id_of(P("(1,2)", 4)),
        "S3": 0})
    assert any("generate" in v for v in check_spec(spec))


def test_forbidden_s6_chiral_spec_is_free():
    spec = realize.sym_chiral(6).spec
    forbidden, _ = has_forbidden_automorphism(spec)
    assert not forbidden


def test_forbidden_class5_psl27_inversion():
    # every generating pair of L_2(7) is simultaneously inverted
    G = None
    from etmaps.fields import FiniteField
    F = FiniteField(7)
    G = realize.psl2_perm_group(F)
    res = search_epimorphisms("5", G)
    assert res.proved_empty


def test_forbidden_class2_from_class1_is_free():
    real2 = realize.propagate(realize.sym_class1(5), "2")
    forbidden, _ = has_forbidden_automorphism(real2.spec)
    assert not forbidden


def test_build_class1_s4():
    real = realize.sym_class1(4)
    m = build_map(real.spec)
    assert m.n == 24
    assert classes.classify(m) == "1"
    assert flagmaps.is_regular(m)


def test_build_s6_chiral():
    real = realize.sym_chiral(6)
    m = build_map(real.spec)
    assert m.n == 1440
    assert classes.classify(m) == "2Pex"
    s = flagmaps.summary(m)
    assert s.orientable_no_boundary


def test_build_class3_n3_just_edge_transitive():
    real = realize.sym_even("3", 3)
    m = real.build()
    assert classes.classify(m) == "3"
    s = flagmaps.summary(m)
    # one vertex of valency 6 joined by double edges to three of valency 2;
    # three digons and one hexagon on the sphere
    assert (s.V, s.E, s.F, s.euler_char) == (4, 6, 4, 2)
    vertex_ids, nv = perms.orbit_ids(m.n, [m.r[1].tolist(), m.r[2].tolist()])
    import numpy as np
    valencies = sorted(np.bincount(vertex_ids, minlength=nv).tolist())
    assert valencies == [4, 4, 4, 12]  # orbit size = 2 * valency
    face_ids, nf = perms.orbit_ids(m.n, [m.r[0].tolist(), m.r[1].tolist()])
    fsizes = sorted(np.bincount(face_ids, minlength=nf).tolist())
    assert fsizes == [4, 4, 4, 12]  # three digons and a hexagon


def test_expected_class_forbidden_free_is_own_class():
    spec = realize.sym_chiral(6).spec
    assert expected_class(spec) == "2Pex"


def test_expected_class_symmetric_class2_drops_to_1():
    G = realize.sym_group(3)
    t = G.id_of(P("(1,2)", 3))
    u = G.id_of(P("(2,3)", 3))
    spec = EpimorphismSpec("2", G, {"S1": t, "S2": t, "S3": u})
    assert expected_class(spec) == "1"
    assert classes.classify(build_map(spec)) == "1"


def test_expected_class_abelian_class5_never_5():
    c6 = groups.PermGroup([P("(1,2,3,4,5,6)", 6)])
    x = c6.generators[0]
    spec = EpimorphismSpec("5", c6, {"S": x, "S'": c6.power(x, 5)})
    label = expected_class(spec)
    assert label != "5"
    assert label in classes.covered("5")
    assert classes.classify(build_map(spec)) == label


def test_transform_spec_routes():
    real2 = realize.propagate(realize.sym_class1(4), "2")
    m = transform_spec(real2.spec, "D")
    assert classes.classify(m) == "2s"
    m = transform_spec(real2.spec, "DP")
    assert classes.classify(m) == "2P"


def test_search_s5_2ex_empty():
    G = realize.sym_group(5)
    res = search_epimorphisms("2Pex", G, up_to_cycle_type=True)
    assert res.proved_empty
    res = search_epimorphisms("2ex", G, up_to_cycle_type=True)
    assert res.proved_empty


def test_search_a6_class1_empty():
    G = realize.alt_group(6)
    res = search_epimorphisms("1", G, up_to_cycle_type=True)
    assert res.proved_empty


def test_search_up_to_cycle_type_needs_sym_or_alt():
    # the dihedral group of order 16 on 8 points: cycle types are not orbits
    # of its automorphism group, so the reduction would be unsound there
    D8 = groups.PermGroup([P("(1,2,3,4,5,6,7,8)", 8), P("(1,8)(2,7)(3,6)(4,5)", 8)])
    assert D8.size == 16
    with pytest.raises(SpecError, match="Sym"):
        search_epimorphisms("1", D8, up_to_cycle_type=True)
    assert not search_epimorphisms("1", D8).proved_empty
    for G in (realize.sym_group(3), realize.alt_group(4)):
        search_epimorphisms("1", G, up_to_cycle_type=True)


def test_search_s4_class1_nonempty():
    G = realize.sym_group(4)
    res = search_epimorphisms("1", G, limit=3)
    assert res.witnesses
    for w in res.witnesses:
        m = build_map(EpimorphismSpec("1", G, w))
        assert classes.classify(m) == "1"


def test_spec_json_roundtrip():
    real = realize.sym_chiral(6)
    obj = real.spec.to_json()
    obj["group"] = {"degree": 6,
                    "generators": ["(1,2,3,4,5,6)", "(1,2)"]}
    spec = spec_from_json(json.dumps(obj))
    assert spec.class_label == "2Pex"
    m1, m2 = build_map(spec), build_map(real.spec)
    assert flagmaps.is_isomorphic(m1, m2)


def test_randomized_specs_classify_equals_expected():
    """classify(build(spec)) == expected_class(spec) over randomized specs on
    groups of order <= 2000 (the central cross-validation)."""
    rng = random.Random(7)
    pool = [
        realize.sym_group(4), realize.sym_group(5), realize.sym_group(6),
        realize.alt_group(5), realize.alt_group(6),
        groups.PermGroup([P("(1,2,3,4,5,6)", 6), P("(2,6)(3,5)", 6)]),  # D_6
        groups.GpefGroup(3, 2, 1), groups.GpefAlphaGroup(3),
        groups.PermGroup([P("(1,2,3,4,5,6,7,8)", 8)]),                 # C_8
    ]
    checked = 0
    for G in pool:
        invs = [0] + groups.involutions(G)
        everything = list(range(G.size))
        for label in ("1", "2", "2ex", "2Pex", "3", "4", "5"):
            names = build.GENERATOR_NAMES[label]
            inv_names = set(build.INVOLUTORY[label])
            tries = 0
            found = 0
            while tries < 150 and found < 5:
                tries += 1
                images = {}
                for nm in names:
                    dom = invs if nm in inv_names else everything
                    images[nm] = rng.choice(dom)
                spec = EpimorphismSpec(label, G, images)
                if check_spec(spec):
                    continue
                found += 1
                checked += 1
                assert classes.classify(build_map(spec)) == expected_class(spec)
    assert checked >= 200, f"only {checked} random specs were exercised"
