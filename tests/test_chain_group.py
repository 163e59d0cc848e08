"""Tests of the permutation group with no cap, ``PermGroup(gens, cap=None)``.

The A_n families are one such group per n, ``realize.alt_group(n)``, whose
ids are handed out as elements are met and whose element table is
enumerated by the first array call.  The reference is the same images on a
fresh ``PermGroup`` under the default cap, whose ids are the BFS ids: every
spec-level verdict must agree, a built map must classify into the claimed
class, and the two maps must be the same map rooted at flag 0.

The element table is held as arrays alone, element tuples being a memo of
the ids met; the per-element reads (``elem``, ``product``, ``inverse``,
``id_of``) are checked against the tuple list and tuple -> id dict the
table used to keep, rebuilt here from the BFS rows.
"""

import math
import random
import tracemalloc

import pytest

from etmaps import build, classes, flagmaps, groups, perms, realize, suites
from etmaps.build import EpimorphismSpec
from etmaps.groups import PermGroup
from class_oracle import expected_class, forbidden_tags


def _on_fresh_table(spec: EpimorphismSpec) -> EpimorphismSpec:
    """The same images on a capped group with the spec's generators."""
    G = spec.group
    T = PermGroup([G.elem(g) for g in G.generators])
    return EpimorphismSpec(spec.class_label, T,
                           {name: T.id_of(G.elem(x)) for name, x in spec.images.items()})


@pytest.mark.parametrize("n, label", [
    *[(5, label) for label in ("1", "2", "2s", "2P", "3", "4", "4s", "4P")],
    *[(8, label) for label in ("2ex", "2sex", "2Pex", "5", "5s", "5P")]])
def test_table_free_spec_agrees_with_the_table(n, label):
    real = suites.alt_witness(label, n)
    spec = real.spec
    assert spec.group is realize.alt_group(n)
    tspec = _on_fresh_table(spec)
    assert build.check_spec(spec) == build.check_spec(tspec) == []
    assert build.has_forbidden_automorphism(spec) == \
        build.has_forbidden_automorphism(tspec)
    assert forbidden_tags(spec) == forbidden_tags(tspec)
    assert expected_class(spec) == expected_class(tspec)
    built = real.build()
    assert classes.classify(built) == label
    # the ids may differ, so the flags may be numbered differently, but flag
    # 0 is the identity's on both sides and the maps agree from there
    on_table = build.transform_spec(tspec, real.ops)
    assert built.n == on_table.n
    assert flagmaps._extension(built, on_table, 0)[1] is None


@pytest.mark.parametrize("n", [9, 10, 12])
def test_every_table1_witness_passes_the_exact_test(n):
    for label in classes.LABELS:
        assert suites._table1_alt_expected(label, n)
        spec = suites.alt_witness(label, n).spec
        assert spec.group is realize.alt_group(n)
        assert build.check_spec(spec) == [], label
        assert build.has_forbidden_automorphism(spec) == (False, None), label


def test_ids_are_handed_out_as_elements_are_met():
    gens = [realize.cycle(20, 1, 2, 3), realize.cycle(20, *range(2, 21))]
    G = PermGroup(gens, cap=None)
    assert G.size == math.factorial(20) // 2
    assert G.generators == [1, 2]
    assert G.elem(0) == tuple(range(20))
    x = G.product(1, 2)
    assert x == 3 and G.elem(x) == perms.compose(gens[0], gens[1])
    assert G.id_of(perms.compose(gens[0], gens[1])) == x
    assert G.inverse(G.inverse(x)) == x
    assert G.generates([1, 2]) and not G.generates([1])
    with pytest.raises(ValueError, match="not in group"):
        G.id_of(realize.involution(20, [(1, 2)]))  # odd
    with pytest.raises(ValueError, match="not in group"):
        G.id_of(tuple(range(19)))
    # an array call needs the element table, which is refused over the cap
    with pytest.raises(perms.CapExceeded, match="cap of 10000000"):
        G.right_mult(x)


READS = {"elem": lambda G, a: G.elem(a), "product": lambda G, a: G.product(a, 1),
         "inverse": lambda G, a: G.inverse(a), "label": lambda G, a: G.label(a),
         "generates": lambda G, a: G.generates([a, 1])}


@pytest.mark.parametrize("read", sorted(READS))
def test_reading_an_unmet_id_enumerates_the_table(read):
    """Ids run from 0 to size-1, met or not: on a fresh group whose only
    met ids are the identity and the generators, reading any other id in
    range enumerates the element table first.  An id out of range is still
    an IndexError, and a group too large for a table refuses the read."""
    gens = [realize.cycle(5, 1, 2, 3), realize.cycle(5, 1, 2, 3, 4, 5)]
    G = PermGroup(gens, cap=None)
    READS[read](G, 59)
    assert sorted(map(G.elem, range(60))) == sorted(map(PermGroup(gens).elem, range(60)))
    assert G.elem(G.product(59, 1)) == perms.compose(G.elem(59), G.elem(1))
    assert G.elem(G.inverse(59)) == perms.inverse(G.elem(59))
    assert G.label(59) == perms.format_cycles(G.elem(59))
    with pytest.raises(IndexError):
        READS[read](G, 60)
    big = PermGroup([realize.cycle(20, 1, 2, 3), realize.cycle(20, *range(2, 21))], cap=None)
    with pytest.raises(perms.CapExceeded):
        READS[read](big, 5)


def test_verify_positive_names_how_it_decided():
    assert suites._verify_positive(suites.alt_witness("2", 5), want_aut=60) == \
        ("realizable", "exact test, no map built")
    assert suites._verify_positive(suites.alt_witness("2", 9),
                                   want_aut=math.factorial(9) // 2) == \
        ("realizable", "exact test, no map built")
    # the exact test rejects a spec whose images do not generate
    real = realize.propagate(realize.alt_class1(10), "2")
    s1, _, s3 = real.spec.image_tuple()
    bad = realize.Realization("2", EpimorphismSpec("2", real.spec.group,
                                                   {"S1": s1, "S2": s1, "S3": s3}), "")
    observed, source = suites._verify_positive(bad, want_aut=math.factorial(10) // 2)
    assert observed == "images do not generate the target group"
    assert source == "exact test, no map built"
    # x = (2,...,10) is inverted by g = (3,10)(4,9)(5,8)(6,7) in A_10, and g
    # commutes with y, so the 2Pex pattern X -> X^-1, Y -> Y extends
    G = real.spec.group
    x = G.id_of(realize.cycle(10, *range(2, 11)))
    y = G.id_of(realize.involution(10, [(1, 2), (3, 10)]))
    inverted = realize.Realization("2Pex", EpimorphismSpec("2Pex", G, {"X": x, "Y": y}), "")
    assert suites._verify_positive(inverted, want_aut=math.factorial(10) // 2) == \
        ("forbidden automorphism", "exact test, no map built")
    # a class-2 spec followed by D is a map of class 2*, not 2P
    wrong_route = realize.Realization("2P", real.spec, "D")
    assert suites._verify_positive(wrong_route, want_aut=math.factorial(10) // 2) == \
        ("classified 2s", "exact test, no map built")
    # A_5 has no index-2 subgroup, so the involutions of a class-2 spec
    # cannot all reverse orientation
    assert suites._verify_positive(suites.alt_witness("2", 5), want_aut=60,
                                   even=True) == \
        ("not orientable without boundary", "exact test, no map built")


# -- the per-element path against the old tuple table ------------------------------

def tuple_table(gens):
    """The element tuples in BFS order and the tuple -> id dict."""
    elems = list(map(tuple, perms.bfs_closure(gens)[0].tolist()))
    return elems, dict(zip(elems, range(len(elems))))


def generators_of(G):
    return [G.elem(g) for g in G.generators]


def dihedral_generators(n):
    return [realize.cycle(n, *range(1, n + 1)),
            realize.involution(n, [(1 + i, n - i) for i in range(n // 2)])]


TABLE_GROUPS = {
    "S5": [realize.cycle(5, 1, 2), realize.cycle(5, 1, 2, 3, 4, 5)],
    "A6": [realize.cycle(6, 1, 2, 3), realize.cycle(6, 2, 3, 4, 5, 6)],
    "D20-on-20": dihedral_generators(20),  # void keys
    "dihedral-256": generators_of(realize.dihedral_spec(256).spec.group),  # uint16 rows
}


@pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
def test_per_element_reads_agree_with_the_tuple_table(name):
    gens = TABLE_GROUPS[name]
    elems, index = tuple_table(gens)
    G = PermGroup(gens)
    assert G.size == len(elems) and G.matrix().dtype == perms.row_dtype(G.degree)
    ids = range(G.size)
    for a in ids:
        assert G.elem(a) == elems[a]
        assert G.inverse(a) == index[perms.inverse(elems[a])]
        assert G.id_of(elems[a]) == a
    # every pair, or every id against a sample on the largest group
    lefts = ids if G.size <= 360 else random.Random(0).sample(ids, 24)
    for a in lefts:
        for b in ids:
            assert G.product(a, b) == index[perms.compose(elems[a], elems[b])]
    with pytest.raises(IndexError):
        G.elem(G.size)
    with pytest.raises(IndexError):
        G.elem(-1)


def test_met_ids_survive_enumeration():
    """A ``cap=None`` group hands out ids as elements are met; building the
    table keeps them, and the rest of the table agrees with the tuples."""
    gens = TABLE_GROUPS["A6"]
    G = PermGroup(gens, cap=None)
    x = G.product(1, 2)
    w = G.product(x, 1)
    met = {a: G.elem(a) for a in (0, 1, 2, x, w, G.inverse(w),
                                  G.id_of(realize.cycle(6, 4, 5, 6)))}
    assert sorted(met) == list(range(7)) and G._matrix is None
    G.matrix()
    for a, p in met.items():
        assert G.elem(a) == p and G.id_of(p) == a
    elems, index = tuple_table(gens)
    by_id = [G.id_of(p) for p in elems]
    assert sorted(by_id) == list(range(G.size))
    for a in range(G.size):
        p = G.elem(a)
        assert G.elem(G.inverse(a)) == perms.inverse(p)
        for b in range(0, G.size, 7):
            assert G.elem(G.product(a, b)) == perms.compose(p, G.elem(b))


def test_a_table_keeps_no_group_sized_python_containers():
    """S8's table is a 40,320 x 8 uint8 matrix with its keys; the element
    tuples and the tuple -> id dict it used to keep held 6.8 MB."""
    gens = [realize.cycle(8, *range(1, 9)), realize.cycle(8, 1, 2)]
    tracemalloc.start()
    try:
        G = PermGroup(gens)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert G.size == math.factorial(8)
    assert len(G._elems) < G.size and len(G._index) < G.size
    assert held <= 2 * 2 ** 20


def test_id_of_on_a_table_decides_membership_by_key(monkeypatch):
    """Once the table exists no chain is run: a permutation of the right
    degree is a member exactly when its key is a row's."""
    G = PermGroup(TABLE_GROUPS["A6"])
    elems, _ = tuple_table(TABLE_GROUPS["A6"])
    runs = []
    chain = perms._stabilizer_order
    monkeypatch.setattr(perms, "_stabilizer_order",
                        lambda *args: runs.append(args) or chain(*args))
    for bad in (realize.involution(6, [(1, 2)]),  # odd
                (0, 0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 21),  # not permutations
                tuple(range(5))):
        with pytest.raises(ValueError, match="not in group"):
            G.id_of(bad)
    assert G.id_of(elems[200]) == 200
    assert runs == []


# -- evenness without the element table --------------------------------------------

def _positive_witnesses():
    """Every witness that the table1-* and table3 suites check, with the
    ``even`` flag each is checked with."""
    seen = []
    check = suites._verify_positive

    def spy(real, want_aut, even=False):
        seen.append((real, even))
        return check(real, want_aut, even)

    suites._verify_positive = spy
    try:
        for name in ("table1-sym", "table1-alt", "table1-psl2", "table3"):
            suites.SUITES[name]()
    finally:
        suites._verify_positive = check
    return seen


def test_the_diagonal_test_agrees_with_index2_characters():
    """On every positive witness whose class has signs, even or not, the
    diagonal order test and the characters read off the element table give
    the same verdict.  A10's table costs seconds and hundreds of MB, so its
    witnesses are left to the test below."""
    verdicts, evens = set(), 0
    for real, even in _positive_witnesses():
        signs = build.EVEN_SIGNS[real.label]
        G = real.spec.group
        if signs is None or G.size > math.factorial(9) // 2:
            continue
        want = [(real.spec.images[name], 1 if sign == -1 else 0)
                for name, sign in signs.items()]
        by_table = any(all(lam[x] == v for x, v in want)
                       for lam in groups.index2_characters(G))
        assert suites._has_character(G, want) == by_table, (real.label, G.size)
        verdicts.add(by_table)
        evens += even
    assert evens == 47 and verdicts == {False, True}


def test_a10_evenness_needs_no_table():
    real = realize.propagate(realize.alt_class1(10), "2")
    G = PermGroup(generators_of(real.spec.group), cap=None)
    spec = EpimorphismSpec("2", G, {name: G.id_of(real.spec.group.elem(x))
                                    for name, x in real.spec.images.items()})
    assert suites._verify_positive(realize.Realization("2", spec, ""),
                                   want_aut=math.factorial(10) // 2, even=True) == \
        ("not orientable without boundary", "exact test, no map built")
    assert G._matrix is None
