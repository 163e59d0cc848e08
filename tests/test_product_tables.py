"""The table-only groups built by ``groups.Product`` against two oracles.

* The hand-written classes they replaced (``reference_tables``): the same
  order, generators, right multiplication, products, inverses, JSON form
  and element inputs, on G(p,e,f) for p^e <= 27 and every valid f, on the
  C2 extensions alpha-3 to alpha-7, and on the direct products the tests
  and suites use.
* Faithful permutation representations on cosets: the same chain order,
  nilpotence class and element orders, and for every class shape the same
  exhaustive search verdict, witness count and canonical tuple count.  The
  product tables decide extension by the Cayley walk ``hom_extension``, the
  permutation groups by stabilizer chains.
"""

import random

import numpy as np
import pytest

from etmaps import build, groups, perms, realize
from etmaps.groups import DirectProduct, GpefAlphaGroup, GpefGroup, PermGroup
from reference_tables import RefDirectProduct, RefGpefAlphaGroup, RefGpefGroup

FULL_RIGHT_MULT = 2048  # every right_mult up to this order, a sample above

GPEF = [(p, e, f) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for e in range(1, 5)
        if p ** e <= 27 for f in range(1, e + 1)]


def _d4():
    return PermGroup([perms.parse_cycles("(1,2,3,4)", 4), perms.parse_cycles("(1,3)", 4)])


def _solvable_join(alpha):
    """The ``solvable`` suite's AGL1(8) x alpha-4, on the generator pairs of
    its two chiral realizations."""
    G, x, _, y = realize.agl1_8_group()
    return G, alpha(4), [(x, 32), (y, 1)]


PAIRS = {
    **{f"G({p},{e},{f})": (lambda p=p, e=e, f=f: (GpefGroup(p, e, f), RefGpefGroup(p, e, f)))
       for p, e, f in GPEF},
    **{f"alpha-{e}": (lambda e=e: (GpefAlphaGroup(e), RefGpefAlphaGroup(e)))
       for e in range(3, 8)},
    "S3 x alpha-3": lambda: (DirectProduct(realize.sym_group(3), GpefAlphaGroup(3)),
                             RefDirectProduct(realize.sym_group(3), RefGpefAlphaGroup(3))),
    "D4 x C2": lambda: (DirectProduct(_d4(), PermGroup([(1, 0)])),
                        RefDirectProduct(_d4(), PermGroup([(1, 0)]))),
    "AGL1(8) x alpha-4": lambda: (DirectProduct(*_solvable_join(GpefAlphaGroup)),
                                  RefDirectProduct(*_solvable_join(RefGpefAlphaGroup))),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_product_table_matches_the_reference_class(name):
    G, ref = PAIRS[name]()
    assert (G.size, G.generators) == (ref.size, ref.generators)
    assert G.to_json() == ref.to_json()
    rng = random.Random(G.size)
    ids = range(G.size) if G.size <= FULL_RIGHT_MULT else \
        sorted({*G.generators, 0, G.size - 1, *rng.sample(range(G.size), 200)})
    for w in ids:
        assert np.array_equal(G.right_mult(w), ref.right_mult(w)), w
    for _ in range(2000):
        a, b = rng.randrange(G.size), rng.randrange(G.size)
        assert G.product(a, b) == ref.product(a, b), (a, b)
        assert G.inverse(a) == ref.inverse(a), a
    for bad in (-1, G.size):
        with pytest.raises(IndexError):
            G.right_mult(bad)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_elements_read_as_before(name):
    G, ref = PAIRS[name]()
    rng = random.Random(G.size + 1)
    for a in [0, *G.generators, *rng.sample(range(G.size), min(G.size, 50))]:
        assert G.parse_element(a) == ref.parse_element(a) == a
        if hasattr(ref, "coords"):
            exponents = list(ref.coords(a))
            assert list(G.coords(a)) == exponents
            assert G.parse_element(exponents) == a
            # exponents are read modulo the order of their generator
            shifted = [c + k * ref.n for c, k in zip(exponents, (1, -2, 3))]
            assert G.parse_element(shifted) == ref.parse_element(shifted) == a
    for bad in (G.size, -1, True, "(1,2)", [1] * 4, [0, "1"]):
        with pytest.raises(ValueError):
            ref.parse_element(bad)
        with pytest.raises(ValueError):
            G.parse_element(bad)


# -- faithful permutation representations --------------------------------------

def coset_action(G, subgroups):
    """G acting by right multiplication on the right cosets Hx of each
    subgroup H (given by generators), the cosets of each subgroup after those
    of the one before, as a :class:`PermGroup` on the group's generators."""
    images = [[] for _ in G.generators]
    for seed in subgroups:
        members = G.subgroup(seed)
        coset = np.full(G.size, -1)
        for x in range(G.size):
            if coset[x] < 0:
                coset[G.right_mult(x)[members]] = coset.max() + 1  # the coset Hx
        for image, s in zip(images, G.generators):
            moved = np.empty(coset.max() + 1, dtype=np.int64)
            moved[coset] = coset[G.right_mult(s)]  # Hx -> Hxs
            image.extend((moved + len(image)).tolist())
    return PermGroup([tuple(p) for p in images])


def _gpef_on_both_cosets():
    G = GpefGroup(3, 2, 1)
    g, h = G.generators
    return G, [[g], [h]], 18


def _alpha_on_cosets_of_g():
    A = GpefAlphaGroup(3)
    return A, [[A.generators[0]]], 16


REPRESENTATIONS = {"G(3,2,1) on <g> and <h>": _gpef_on_both_cosets,
                   "alpha-3 on <g>": _alpha_on_cosets_of_g}


@pytest.mark.parametrize("name", sorted(REPRESENTATIONS))
def test_coset_action_is_faithful_with_the_same_class(name):
    G, subgroups, degree = REPRESENTATIONS[name]()
    P = coset_action(G, subgroups)
    assert (P.degree, P.size) == (degree, G.size)
    assert groups.nilpotence_class(P) == groups.nilpotence_class(G)
    assert sorted(map(P.element_order, range(P.size))) == \
        sorted(map(G.element_order, range(G.size)))


@pytest.mark.parametrize("shape", sorted(build.GENERATOR_NAMES))
@pytest.mark.parametrize("name", sorted(REPRESENTATIONS))
def test_searches_agree_across_representations(name, shape):
    G, subgroups, _ = REPRESENTATIONS[name]()
    P = coset_action(G, subgroups)
    on_table = build.search_epimorphisms(shape, G, limit=None)
    on_points = build.search_epimorphisms(shape, P, limit=None)
    assert (on_points.proved_empty, len(on_points.witnesses), on_points.examined) == \
        (on_table.proved_empty, len(on_table.witnesses), on_table.examined)
