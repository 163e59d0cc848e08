import itertools

import pytest

from etmaps import build, classes, flagmaps, realize
from etmaps.classes import (LABELS, basic_map, class_info, classify, covered,
                            omega_dual, omega_petrie)


def test_fourteen_labels_and_indices():
    assert len(LABELS) == 14
    indices = [class_info(lab).index for lab in LABELS]
    assert sorted(indices) == [1] + [2] * 6 + [4] * 7


def test_dual_petrie_are_involutions():
    for lab in LABELS:
        assert omega_dual(omega_dual(lab)) == lab
        assert omega_petrie(omega_petrie(lab)) == lab


def test_omega_orbits_are_the_six_rows():
    orbits = set()
    for lab in LABELS:
        orbit = {lab}
        frontier = [lab]
        while frontier:
            x = frontier.pop()
            for y in (omega_dual(x), omega_petrie(x)):
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        orbits.add(frozenset(orbit))
    assert orbits == {
        frozenset({"1"}), frozenset({"2", "2s", "2P"}),
        frozenset({"2ex", "2sex", "2Pex"}), frozenset({"3"}),
        frozenset({"4", "4s", "4P"}), frozenset({"5", "5s", "5P"})}


def test_covered_lists():
    assert covered("1") == ()
    assert covered("2") == ("1",)
    assert covered("2Pex") == ("1",)
    assert set(covered("3")) == {"1", "2", "2s", "2P"}
    assert set(covered("4")) == {"1", "2"}
    assert set(covered("5")) == {"1", "2", "2sex", "2Pex"}
    assert set(covered("5s")) == {"1", "2s", "2ex", "2Pex"}
    assert set(covered("5P")) == {"1", "2P", "2ex", "2sex"}


def test_covered_is_omega_equivariant():
    for lab in LABELS:
        want = {omega_dual(t) for t in covered(lab)}
        assert set(covered(omega_dual(lab))) == want
        want = {omega_petrie(t) for t in covered(lab)}
        assert set(covered(omega_petrie(lab))) == want


def test_basic_maps_pairwise_nonisomorphic():
    maps = {lab: basic_map(lab) for lab in LABELS}
    for a, b in itertools.combinations(LABELS, 2):
        if maps[a].n == maps[b].n:
            assert not flagmaps.is_isomorphic(maps[a], maps[b]), (a, b)


def test_basic_map_flag_counts():
    assert sorted(basic_map(lab).n for lab in LABELS) == \
        [1] + [2] * 6 + [4] * 7


@pytest.mark.parametrize("label", LABELS)
def test_basic_map_is_built_once_and_read_only(label):
    m = basic_map(label)
    assert basic_map(label) is m
    for arr in m.r:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_basic_5P_is_projective_plane():
    s = flagmaps.summary(basic_map("5P"))
    assert not s.has_boundary
    assert not s.orientable_no_boundary
    assert s.euler_char == 1
    assert s.genus == ("non_orientable", 1)


def test_basic_3_orbit_counts():
    s = flagmaps.summary(basic_map("3"))
    # orbit counts: one edge, two vertices, and two face corners (the paper
    # draws one geometric face, but the r1-fixed boundary splits the orbit)
    assert (s.V, s.E) == (2, 1)
    assert s.has_boundary


def test_basic_2Pex_counts():
    s = flagmaps.summary(basic_map("2Pex"))
    assert (s.V, s.E, s.F) == (1, 1, 1)
    assert not s.has_boundary


def test_classify_basic_maps():
    for lab in LABELS:
        got = classify(basic_map(lab))
        if lab == "1":
            assert got == "1"
        else:
            assert got != lab
            assert got in covered(lab)


def test_classify_not_edge_transitive():
    m = flagmaps.FlagMap([1, 0, 3, 2, 5, 4], [0, 2, 1, 4, 3, 5],
                         [1, 0, 2, 3, 4, 5])
    assert classify(m) is None


def test_classify_full_pipeline_s6_chiral():
    m = realize.sym_chiral(6).build()
    assert classify(m) == "2Pex"


def test_icosahedron_from_a5xc2():
    # class-1 search in A_5 x C_2 for a (3,5)-triple with commuting r0, r2
    from etmaps import groups, perms
    G = groups.PermGroup([
        perms.parse_cycles("(1,2,3,4,5)", 7),
        perms.parse_cycles("(1,2,3)", 7),
        perms.parse_cycles("(6,7)", 7)])
    assert G.size == 120
    icosa = None
    for w in build.search_epimorphisms("1", G, limit=None).witnesses:
        r0, r1, r2 = (w[k] for k in ("R0", "R1", "R2"))
        if (G.element_order(G.product(r0, r1)) == 3
                and G.element_order(G.product(r1, r2)) == 5):
            icosa = build.build_map(build.EpimorphismSpec("1", G, w))
            break
    assert icosa is not None
    s = flagmaps.summary(icosa)
    assert icosa.n == 120
    assert (s.V, s.E, s.F, s.euler_char) == (12, 30, 20, 2)
    assert s.orientable_no_boundary


def test_omega_equivariance_on_builds():
    reals = [realize.sym_chiral(6), realize.sym_class1(4),
             realize.psl2_class2_q7()]
    for real in reals:
        m = build.build_map(real.spec)
        lab = classify(m)
        assert classify(m.dual()) == omega_dual(lab)
        assert classify(m.petrie()) == omega_petrie(lab)
