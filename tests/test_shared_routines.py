"""Differential checks of the shared routines against independent brute force.

The map corpus is every map of at most 8 flags used here: the 14 basic maps,
their duals and Petrie duals, and the class-1 maps over S3.  At that size all
flag permutations and all 2-colourings can be listed outright.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etmaps import build, classes, flagmaps, groups, perms, realize
from etmaps.flagmaps import FlagMap


def _corpus() -> list[FlagMap]:
    maps = []
    for label in classes.LABELS:
        m = classes.basic_map(label)
        maps += [m, m.dual(), m.petrie()]
    S3 = realize.sym_group(3)
    for w in build.search_epimorphisms("1", S3, limit=None).witnesses:
        maps.append(build.build_map(build.EpimorphismSpec("1", S3, w)))
    return maps


CORPUS = _corpus()


def _arrays(m: FlagMap) -> list[list[int]]:
    return [arr.tolist() for arr in m.r]


def _commuting_bijections(m1: FlagMap, m2: FlagMap) -> list[tuple[int, ...]]:
    """Every flag bijection p with p(r_i(x)) = r_i(p(x)) for all i and x."""
    r1, r2 = _arrays(m1), _arrays(m2)
    return [p for p in itertools.permutations(range(m1.n))
            if all(p[a[x]] == b[p[x]] for a, b in zip(r1, r2) for x in range(m1.n))]


def _two_colourable(m: FlagMap) -> bool:
    """Some colouring of the flags in two colours is swapped by every r_i."""
    r = _arrays(m)
    return any(all(c[a[x]] != c[x] for a in r for x in range(m.n))
               for c in itertools.product((0, 1), repeat=m.n))


def _relabel(m: FlagMap, p: np.ndarray) -> FlagMap:
    """The map with flag x renamed p[x]."""
    arrays = []
    for r in m.r:
        a = np.empty(m.n, dtype=np.int64)
        a[p] = p[r]
        arrays.append(a)
    return FlagMap(*arrays)


def _bfs_orbit_ids(n: int, gens) -> tuple[list[int], int]:
    """Orbits by plain search from each unreached point in increasing order."""
    ids = [-1] * n
    count = 0
    for start in range(n):
        if ids[start] != -1:
            continue
        ids[start] = count
        stack = [start]
        while stack:
            x = stack.pop()
            for g in gens:
                y = g[x]
                if ids[y] == -1:
                    ids[y] = count
                    stack.append(y)
        count += 1
    return ids, count


def test_corpus_is_small_and_covers_s3():
    assert max(m.n for m in CORPUS) <= 8
    assert any(m.n == 6 for m in CORPUS)


def test_aut_order_matches_commuting_permutations():
    for m in CORPUS:
        brute = _commuting_bijections(m, m)
        assert flagmaps.aut_order(m) == len(brute)
        assert flagmaps.automorphisms(m) == sorted(brute)
        # the extension walk itself, without the pruning around it
        by_image = {p[0]: p for p in brute}
        for c in range(m.n):
            a, defect = flagmaps._extension(m, m, c)
            assert (None if defect else tuple(a.tolist())) == by_image.get(c)


def test_orientable_no_boundary_matches_two_colouring():
    seen = set()
    for m in CORPUS:
        expected = _two_colourable(m)
        assert flagmaps.summary(m).orientable_no_boundary == expected
        seen.add(expected)
    assert seen == {True, False}


def test_isomorphic_to_random_relabellings():
    rng = np.random.default_rng(7)
    for m in CORPUS:
        for _ in range(5):
            relabelled = _relabel(m, rng.permutation(m.n))
            assert flagmaps.is_isomorphic(m, relabelled)
            assert flagmaps.is_isomorphic(relabelled, m)


def test_is_isomorphic_matches_brute_force():
    for m1, m2 in itertools.product(CORPUS, repeat=2):
        if m1.n == m2.n:
            expected = bool(_commuting_bijections(m1, m2))
            assert flagmaps.is_isomorphic(m1, m2) == expected


BUILT = CORPUS + [realize.dihedral_spec(m).build() for m in (3, 4, 5)] + [
    realize.sym_class1(4).build()]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dual_and_petrie_commute_with_relabelling(data):
    m = data.draw(st.sampled_from(BUILT))
    p = np.array(data.draw(st.permutations(range(m.n))))
    for op in (FlagMap.dual, FlagMap.petrie):
        assert _arrays(op(_relabel(m, p))) == _arrays(_relabel(op(m), p))


def _tetrahedron() -> FlagMap:
    G = realize.sym_group(4)
    for w in build.search_epimorphisms("1", G, limit=None).witnesses:
        r0, r1, r2 = (w[k] for k in ("R0", "R1", "R2"))
        if (G.element_order(G.product(r0, r1)) == 3
                and G.element_order(G.product(r1, r2)) == 3):
            return build.build_map(build.EpimorphismSpec("1", G, w))
    raise AssertionError("no (3,3) triple found in S_4")


@pytest.mark.parametrize("make", [_tetrahedron, lambda: realize.sym_chiral(6).build()],
                         ids=["tetrahedron", "S6-chiral"])
def test_orbit_ids_match_bfs(make):
    m = make()
    gens, _ = flagmaps.aut_generators(m)
    arrays = _arrays(m) + [g.tolist() for g in gens]
    for k in range(len(arrays) + 1):
        for subset in itertools.combinations(arrays, k):
            expected = _bfs_orbit_ids(m.n, subset)
            assert perms.orbit_ids(m.n, subset) == expected
            assert perms.orbit_ids(m.n, [tuple(g) for g in subset]) == expected


def test_orbit_ids_accept_ndarrays_and_no_generators():
    m = realize.sym_chiral(6).build()
    ids, count = perms.orbit_ids(m.n, [m.r[1], m.r[2]])
    assert isinstance(ids, np.ndarray)
    assert (ids.tolist(), count) == \
        perms.orbit_ids(m.n, [m.r[1].tolist(), m.r[2].tolist()])
    assert perms.orbit_ids(4, []) == ([0, 1, 2, 3], 4)
    assert perms.orbit_ids(0, []) == ([], 0)


def _gpef_spec() -> build.EpimorphismSpec:
    G = groups.GpefGroup(3, 2, 1)
    g, h = G.generators
    return build.EpimorphismSpec("5", G, {"S": g, "S'": h})


@pytest.mark.parametrize("make", [lambda: realize.sym_chiral(6).spec, _gpef_spec,
                                  lambda: realize.nilpotent_chiral(4).spec],
                         ids=["perm", "gpef", "gpef_alpha"])
def test_spec_json_roundtrip(make):
    spec = make()
    assert build.check_spec(spec) == []
    obj = spec.to_json() | {"group": spec.group.to_json()}
    again = build.spec_from_json(json.loads(json.dumps(obj)))
    assert again.class_label == spec.class_label
    assert again.images == spec.images
    assert again.group.to_json() == spec.group.to_json()
    assert flagmaps.is_isomorphic(build.build_map(again), build.build_map(spec))


def test_parse_element_forms():
    G = groups.GpefGroup(3, 2, 1)
    assert G.parse_element([1, 0]) == G.generators[0]
    assert G.parse_element([0, 1]) == G.generators[1]
    assert G.parse_element(5) == 5
    A = groups.GpefAlphaGroup(3)
    assert [A.parse_element(list(A.coords(a))) for a in A.generators] == A.generators
    P = realize.sym_group(4)
    x = P.parse_element("(1,2)(3,4)")
    assert P.parse_element([1, 0, 3, 2]) == x
    assert P.parse_element(P.element_json(x)) == x
    bad = [(G, "(1,2)"), (G, [1, 0, 0]), (G, [1, "0"]), (G, G.size), (G, True),
           (A, [1, 0]), (P, "(1,5)"), (P, 2.0)]
    for group, value in bad:
        with pytest.raises(ValueError):
            group.parse_element(value)
