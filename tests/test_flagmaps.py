import dataclasses

import numpy as np
import pytest

from etmaps import build, classes, flagmaps, perms, realize
from etmaps.flagmaps import (FlagMap, MapError, aut_order, automorphisms,
                             is_isomorphic,
                             is_isomorphic_oriented, is_regular, join,
                             quotient_by_aut, summary)
from oracles import is_edge_transitive


def _tetrahedron():
    G = realize.sym_group(4)
    for w in build.search_epimorphisms("1", G, limit=None).witnesses:
        r0, r1, r2 = (w[k] for k in ("R0", "R1", "R2"))
        if (G.element_order(G.product(r0, r1)) == 3
                and G.element_order(G.product(r1, r2)) == 3):
            return build.build_map(build.EpimorphismSpec("1", G, w))
    raise AssertionError("no (3,3) triple found in S_4")


def test_constructor_validation():
    with pytest.raises(MapError):
        FlagMap([1, 2, 0], [0, 1, 2], [0, 1, 2])       # r0 not an involution
    with pytest.raises(MapError):
        FlagMap([0, 1], [0, 1], [0, 1, 2])             # length mismatch
    with pytest.raises(MapError):                      # disconnected
        FlagMap([1, 0, 3, 2], [0, 1, 2, 3], [1, 0, 3, 2])
    with pytest.raises(MapError):                      # (r0 r2)^2 != 1
        FlagMap([1, 2, 3, 0][::1], [0, 1, 2, 3], [1, 0, 2, 3])


def test_tetrahedron_summary():
    m = _tetrahedron()
    s = summary(m)
    assert (s.V, s.E, s.F, s.euler_char) == (4, 6, 4, 2)
    assert not s.has_boundary
    assert s.orientable_no_boundary
    assert s.genus == ("orientable", 0)
    assert is_regular(m)
    assert aut_order(m) == 24
    assert is_isomorphic(m.dual(), m)


def test_vertex_orbits_of_tetrahedron_flags():
    m = _tetrahedron()
    parts = perms.orbits(m.n, [m.perm(1), m.perm(2)])
    assert len(parts) == 4
    assert all(len(p) == 6 for p in parts)


def test_basic_2Pex_summary_free_edge():
    m = classes.basic_map("2Pex")
    s = summary(m)
    # orbit counts give V = E = F = 1, chi = 1; the single edge is free
    assert (s.V, s.E, s.F, s.euler_char) == (1, 1, 1, 1)
    assert not s.has_boundary
    assert s.orientable_no_boundary
    assert s.free_edges == 1


def test_summary_is_cached_frozen_and_shared_with_the_dual():
    m = _tetrahedron()
    s = summary(m)
    assert summary(m) is s
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.V = 5
    d = summary(m.dual())
    assert (d.V, d.F) == (s.F, s.V)
    assert dataclasses.replace(d, V=s.V, F=s.F) == s


def test_automorphisms_semiregular():
    m = _tetrahedron()
    auts = automorphisms(m)
    assert len(auts) == 24
    ident = tuple(range(m.n))
    for a in auts:
        if a != ident:
            assert all(a[i] != i for i in range(m.n))
    for a in auts:
        for i, arr in enumerate(m.r):
            assert all(a[int(arr[x])] == int(arr[a[x]]) for x in range(m.n))


def test_asymmetric_map_trivial_aut():
    # a map on 6 flags glued irregularly enough to kill all symmetry:
    # flag 5 is fixed by both r1 and r2, flag 0 by r1 only
    r0 = [1, 0, 3, 2, 5, 4]
    r1 = [0, 2, 1, 4, 3, 5]
    r2 = [1, 0, 2, 3, 4, 5]
    m = FlagMap(r0, r1, r2)
    assert automorphisms(m) == [tuple(range(6))]


def test_quotient_of_regular_map_has_one_flag():
    m = _tetrahedron()
    q = quotient_by_aut(m)
    assert q.n == 1


def test_dual_petrie_involutive():
    m = _tetrahedron()
    assert m.dual().dual() == m
    assert m.petrie().petrie() == m


def test_petrie_preserves_vertices_and_edges():
    m = _tetrahedron()
    s, sp = summary(m), summary(m.petrie())
    assert (s.V, s.E) == (sp.V, sp.E)


def test_dual_swaps_v_and_f():
    real = realize.sym_chiral(6)
    m = real.build()
    s, sd = summary(m), summary(m.dual())
    assert (s.V, s.F, s.E) == (sd.F, sd.V, sd.E)


def test_edge_orbit_sizes():
    for label in classes.LABELS:
        m = classes.basic_map(label)
        ids, count = perms.orbit_ids(m.n, [m.r[0].tolist(), m.r[2].tolist()])
        sizes = np.bincount(ids, minlength=count)
        assert all(int(s) in (1, 2, 4) for s in sizes)


def test_join_identities():
    m = _tetrahedron()
    assert is_isomorphic(join(m, m), m)
    one = classes.basic_map("1")
    assert is_isomorphic(join(m, one), m)


def test_join_coprime_regular_maps():
    # tetrahedron (|G| = 24) joined with the {5,2} circuit (|G| = 20):
    # the two kernels share a common index-2 overgroup, halving the product
    m1 = _tetrahedron()
    m2 = realize.dihedral_spec(5).build()
    j = join(m1, m2)
    assert j.n == m1.n * m2.n // 2


def test_join_full_product_with_simple_partner():
    # S_4 against the simple PSL(2,8): no common nontrivial quotient, so the
    # join of the regular maps has |G| * |H| flags
    m1 = _tetrahedron()
    m2 = realize.psl2_class1(8).build()
    j = join(m1, m2)
    assert j.n == 24 * 504


def test_oriented_isomorphism_requires_orientable():
    m = classes.basic_map("3")  # boundary map
    with pytest.raises(MapError):
        is_isomorphic_oriented(m, m)


def test_edge_transitive_detection():
    m = _tetrahedron()
    assert is_edge_transitive(m)
    # the asymmetric map above has three edge orbits and trivial Aut
    r0 = [1, 0, 3, 2, 5, 4]
    r1 = [0, 2, 1, 4, 3, 5]
    r2 = [1, 0, 2, 3, 4, 5]
    assert not is_edge_transitive(FlagMap(r0, r1, r2))


def test_map_json_roundtrip():
    m = _tetrahedron()
    again = FlagMap.from_json(m.to_json())
    assert again == m
