"""Differential tests of the stabilizer chain behind group order, generation
and automorphism extension on permutation groups.

The references are the closures the chain replaced: the BFS element list
(``python_closure`` in ``test_closure.py``), the subgroup closure of ``GroupTable.generates`` and
the Cayley-graph walk ``groups.hom_extension``; sympy's independent
Schreier-Sims is a further oracle where it is installed.
"""

import itertools
import math
import random

import numpy as np
import pytest

from etmaps import build, fields, groups, perms, realize
from etmaps.groups import GroupTable, PermGroup, hom_extension, hom_extension_exists
from etmaps.perms import CapExceeded
from test_closure import python_closure


def _random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(p)
    else:  # sparse generators give small and intransitive groups too
        for _ in range(rng.randint(1, 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            p[i], p[j] = p[j], p[i]
    return tuple(p)


def _random_gen_sets(seed: int, count: int, max_degree: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_degree)
        yield [_random_perm(rng, n) for _ in range(rng.choice((2, 3)))]


def _embedded(gens, degree):
    """The same permutations with fixed points appended up to ``degree``."""
    return [tuple(g) + tuple(range(len(g), degree)) for g in gens]


@pytest.mark.parametrize("seed", range(4))
def test_order_matches_bfs_closure(seed):
    # each group also embedded at 256 points, the most the chain runs as
    # bytes tables, and at 257, the fewest it runs as tuples
    for gens in _random_gen_sets(seed, 150, 8):
        order = len(python_closure(gens))
        for degree in (len(gens[0]), perms.BYTE_DEGREE, perms.BYTE_DEGREE + 1):
            big = _embedded(gens, degree)
            assert perms.group_order(big) == order, (gens, degree)
            for bound in {0, 1, order // 2, order - 1, order, order + 1}:
                assert perms.order_exceeds(big, bound) == (order > bound), \
                    (gens, degree, bound)


def test_int64_rows_give_the_order_of_tuples():
    # bytes() of an int64 array would read its 8-byte buffer, not its points
    for gens in _random_gen_sets(3, 80, 12):
        order = perms.group_order(gens, cap=None)
        rows = np.array(gens, dtype=np.int64)
        assert perms._stabilizer_order(list(rows), None) == order, gens
        assert not perms.order_exceeds(rows, order) and perms.order_exceeds(rows, order - 1)


@pytest.mark.parametrize("n", [5, perms.BYTE_DEGREE, 300])
def test_dihedral_order(n):
    rotation = tuple(list(range(1, n)) + [0])
    reflection = tuple((-i) % n for i in range(n))
    assert perms.group_order([rotation, reflection]) == 2 * n
    assert perms.order_exceeds([rotation, reflection], 2 * n - 1)
    assert not perms.order_exceeds([rotation, reflection], 2 * n)
    assert perms.group_order([rotation]) == n


def test_generators_of_different_degrees_are_refused():
    # padded to one table size, they would pass for permutations of 256 points
    with pytest.raises(ValueError):
        perms.order_exceeds([(1, 0), (0, 2, 1)], 1)


def test_group_order_raises_exactly_above_cap():
    for gens in _random_gen_sets(7, 60, 7):
        order = len(python_closure(gens))
        assert perms.group_order(gens, cap=order) == order
        with pytest.raises(CapExceeded) as err:
            perms.group_order(gens, cap=order - 1)
        assert err.value.cap == order - 1


def test_order_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for gens in _random_gen_sets(11, 120, 12):
        want = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in gens]).order()
        assert perms.group_order(gens, cap=10**12) == want, gens


def test_order_of_large_symmetric_groups():
    for n in (10, 12, 16):
        cycle = tuple(list(range(1, n)) + [0])
        swap = tuple([1, 0] + list(range(2, n)))
        assert perms.group_order([cycle, swap],
                                 cap=10**20) == math.factorial(n)


def _l2_7() -> PermGroup:
    return PermGroup(fields.psl2_group_generators(fields.FiniteField(7)))


@pytest.mark.parametrize("G", [realize.sym_group(4), realize.alt_group(5)],
                         ids=["S4", "A5"])
def test_generates_matches_closure_on_every_pair(G):
    for pair in itertools.product(range(G.size), repeat=2):
        assert G.generates(pair) == GroupTable.generates(G, pair), pair


def test_generates_matches_closure_on_random_pairs_l2_7():
    G = _l2_7()
    assert (G.degree, G.size) == (8, 168)
    rng = random.Random(5)
    verdicts = set()
    for _ in range(400):
        pair = (rng.randrange(G.size), rng.randrange(G.size))
        want = GroupTable.generates(G, pair)
        assert G.generates(pair) == want, pair
        verdicts.add(want)
    assert verdicts == {True, False}


def _extension_groups():
    # in C2 x C4 = <a> x <b>, (a, b) -> (b, a) has a generating image while
    # its diagonal has order exactly 2|G|, so the bound |G| is checked tightly
    return {"S4": realize.sym_group(4), "S5": realize.sym_group(5),
            "A5": realize.alt_group(5), "L2(7)": _l2_7(),
            "AGL1(8)": realize.agl1_8_group()[0],
            "C2xC4": PermGroup([perms.parse_cycles("(1,2)", 6),
                                perms.parse_cycles("(3,4,5,6)", 6)])}


@pytest.mark.parametrize("name", ["S4", "S5", "A5", "L2(7)", "AGL1(8)", "C2xC4"])
def test_hom_extension_exists_matches_cayley_walk(name):
    G = _extension_groups()[name]
    rng = random.Random(name)
    verdicts = set()
    tried = 0
    while tried < 120:
        src = tuple(rng.randrange(G.size) for _ in range(rng.choice((2, 3))))
        if not GroupTable.generates(G, src):
            with pytest.raises(ValueError):
                hom_extension_exists(G, src, src)
            continue
        tried += 1
        g = rng.randrange(G.size)
        inner = tuple(G.conjugate(s, g) for s in src)
        scrambled = tuple(rng.randrange(G.size) for _ in src)
        swapped = src[1:] + src[:1]
        trivial = (0,) * len(src)  # a homomorphism, but not onto
        for dst in (inner, scrambled, swapped, trivial):
            want = hom_extension(G, src, dst) is not None
            assert hom_extension_exists(G, src, dst) == want, (src, dst)
            verdicts.add(want)
    assert verdicts == {True, False}


def _diagonal_and_dst_chains(G, src, dst):
    """Whether the diagonal is the graph of a homomorphism, and whether dst
    generates G: both chains run."""
    n = G.degree
    src_perms = [G.elem(x) for x in src]
    dst_perms = [G.elem(y) for y in dst]
    diagonal = [a + tuple(j + n for j in b) for a, b in zip(src_perms, dst_perms)]
    return (not perms.order_exceeds(diagonal, G.size),
            perms.order_exceeds(dst_perms, G.size // 2))


def _counting_chains(monkeypatch):
    """A list that records the bound of every ``perms.order_exceeds`` call."""
    runs = []
    order_exceeds = perms.order_exceeds

    def counted(gens, bound):
        runs.append(bound)
        return order_exceeds(gens, bound)

    monkeypatch.setattr(perms, "order_exceeds", counted)
    return runs


@pytest.mark.parametrize("name", ["S4", "S5", "A5", "L2(7)", "AGL1(8)", "C2xC4"])
def test_hom_extension_exists_skips_only_implied_generation(name, monkeypatch):
    # a dst that a permutation of the points conjugates src to runs only
    # the src chain; otherwise a dst whose elements give back every src
    # element up to inversion generates G, so only the src and diagonal
    # chains run, and any other dst also runs the dst chain when the
    # diagonal passes
    G = _extension_groups()[name]
    rng = random.Random(name)
    seen = set()
    tried = 0
    while tried < 60:
        src = tuple(rng.randrange(G.size) for _ in range(rng.choice((2, 3))))
        if not GroupTable.generates(G, src):
            continue
        tried += 1
        g = rng.randrange(G.size)
        covered = tuple(rng.choice((s, G.inverse(s))) for s in rng.sample(src, len(src)))
        inner = tuple(G.conjugate(s, g) for s in src)
        for dst in (covered, inner, (0,) * len(src)):
            hom, onto = _diagonal_and_dst_chains(G, src, dst)
            certified = perms.conjugator([G.elem(x) for x in src],
                                         [G.elem(y) for y in dst]) is not None
            with monkeypatch.context() as m:
                runs = _counting_chains(m)
                got = hom_extension_exists(G, src, dst)
            assert got == (hom and onto), (src, dst)
            implied = set(src) <= set(dst) | {G.inverse(y) for y in dst}
            want = 1 if certified else 3 if hom and not implied else 2
            assert len(runs) == want, (src, dst)
            seen.add((implied, certified, len(runs)))
    assert (True, False, 2) in seen and (False, False, 3) in seen
    # every automorphism of the transitive groups here is point-induced; the
    # intransitive C2 x C4 never gets a conjugator
    assert any(c for _, c, _ in seen) == (name != "C2xC4")


def test_outer_automorphism_of_s6_extends_by_the_chain(monkeypatch):
    # the outer automorphism of S6 sends a transposition to a triple
    # transposition, so no permutation of the points induces it and the
    # "extends" verdict comes from the diagonal and dst chains
    G = realize.sym_group(6)
    src = tuple(G.id_of(perms.parse_cycles(c, 6)) for c in ("(1,2,3,4,5,6)", "(1,2)"))
    dst = tuple(G.id_of(perms.parse_cycles(c, 6)) for c in ("(1,2,3)(4,5)", "(1,2)(3,4)(5,6)"))
    assert hom_extension(G, src, dst) is not None
    assert perms.conjugator([G.elem(x) for x in src], [G.elem(y) for y in dst]) is None
    runs = _counting_chains(monkeypatch)
    assert hom_extension_exists(G, src, dst)
    assert runs == [G.size // 2, G.size, G.size // 2]


def test_hom_extension_exists_rejects_bad_input():
    G = realize.sym_group(4)
    a, b = G.generators
    with pytest.raises(ValueError):
        hom_extension_exists(G, (a, b), (a,))
    # a transposition and a 3-cycle sharing two points generate only S3
    t = G.id_of(perms.parse_cycles("(1,2)", 4))
    c = G.id_of(perms.parse_cycles("(1,2,3)", 4))
    with pytest.raises(ValueError):
        hom_extension_exists(G, (t, c), (t, c))


def test_hom_extension_on_tables_keeps_the_walk():
    # a table-only group still answers through the Cayley-graph walk
    G = groups.GpefGroup(3, 2, 1)
    g, h = G.generators
    assert hom_extension_exists(G, (g, h), (g, h))
    assert not hom_extension_exists(G, (g, h), (h, g))


def test_search_runs_no_chain_twice(monkeypatch):
    # the forbidden-pattern test takes the search's generation test as
    # given, so no chain runs twice on the same generators and bound
    runs = {}
    stabilizer_order = perms._stabilizer_order

    def counted(gens, bound):
        key = (tuple(map(tuple, gens)), bound)
        runs[key] = runs.get(key, 0) + 1
        return stabilizer_order(gens, bound)

    monkeypatch.setattr(perms, "_stabilizer_order", counted)
    for label, G in (("5", realize.sym_group(5)), ("2Pex", realize.alt_group(7))):
        runs.clear()
        result = build.search_epimorphisms(label, G, up_to_cycle_type=True)
        assert result.proved_empty, label
        assert runs and max(runs.values()) == 1, label
