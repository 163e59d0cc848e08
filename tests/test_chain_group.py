"""Tests of the table-free permutation group, ``groups.ChainGroup``.

The Table 1 alternating witnesses are specs on a ``ChainGroup``.  The
reference is the same images over the element table ``realize.alt_group(n)``
(a ``PermGroup``): every spec-level verdict must agree, and a built map must
classify into the claimed class.
"""

import math

import pytest

from etmaps import build, classes, perms, realize, suites
from etmaps.build import EpimorphismSpec
from etmaps.groups import ChainGroup, PermGroup


def _on_table(spec: EpimorphismSpec) -> EpimorphismSpec:
    """The same images over the element table of the spec's group."""
    G = spec.group
    T = G.table
    return EpimorphismSpec(spec.class_label, T,
                           {name: T.id_of(G.elem(x)) for name, x in spec.images.items()})


@pytest.mark.parametrize("n, label", [
    *[(5, label) for label in ("1", "2", "2s", "2P", "3", "4", "4s", "4P")],
    *[(8, label) for label in ("2ex", "2sex", "2Pex", "5", "5s", "5P")]])
def test_table_free_spec_agrees_with_the_table(n, label):
    real = suites.alt_witness(label, n)
    spec = real.spec
    assert type(spec.group) is ChainGroup
    assert spec.group.table is realize.alt_group(n)
    tspec = _on_table(spec)
    assert build.check_spec(spec) == build.check_spec(tspec) == []
    assert build.has_forbidden_automorphism(spec) == \
        build.has_forbidden_automorphism(tspec)
    assert build.expected_class(spec) == build.expected_class(tspec)
    assert classes.classify(real.build()) == label
    # the map built on the table-free group is the map built on the table
    built, on_table = real.build(), build.transform_spec(tspec, real.ops)
    assert all((a == b).all() for a, b in zip(built.r, on_table.r))


@pytest.mark.parametrize("n", [9, 10, 12])
def test_every_table1_witness_passes_the_exact_test(n):
    for label in classes.LABELS:
        assert suites._table1_alt_expected(label, n)
        spec = suites.alt_witness(label, n).spec
        assert type(spec.group) is ChainGroup
        assert build.check_spec(spec) == [], label
        assert build.has_forbidden_automorphism(spec) == (False, []), label


def test_ids_are_handed_out_as_elements_are_met():
    gens = [realize.cycle(20, 1, 2, 3), realize.cycle(20, *range(2, 21))]
    G = ChainGroup(gens)
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


def test_right_mult_answers_in_table_ids():
    G = ChainGroup([realize.cycle(5, 1, 2, 3), realize.cycle(5, 1, 2, 3, 4, 5)])
    T = G.table
    assert type(T) is PermGroup and T.size == G.size == 60
    w = G.product(G.generators[1], G.generators[0])
    assert (G.right_mult(w) == T.right_mult(T.id_of(G.elem(w)))).all()
    assert G.to_json() == T.to_json()
    assert G.label(w) == T.label(T.id_of(G.elem(w)))


def test_verify_positive_names_how_it_decided():
    assert suites._verify_positive(suites.alt_witness("2", 5), want_aut=60) == \
        ("realizable", "witness build")
    assert suites._verify_positive(suites.alt_witness("2", 9),
                                   want_aut=math.factorial(9) // 2) == \
        ("realizable", "exact test, no map built")
    # above the cap, the exact test still rejects a wrong spec
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
