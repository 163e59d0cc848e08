"""``perms.conjugator`` and the two places that use it.

- Against brute force over Sym(n), n <= 6: on a transitive src it returns
  the least solution pi (solutions differ in pi(0)), or None when there is
  none; on an intransitive src it returns None.
- Whenever it finds a pi, the diagonal chain of
  ``groups.extends_from_generating`` also says "extends", on every group of
  ``test_stabchain._extension_groups``.
- ``build.search_epimorphisms`` with ``perms.conjugator`` patched to find
  nothing (every verdict from the stabilizer chains, as before the
  conjugator) gives the same witnesses, ``examined`` and ``proved_empty``.
- The ``a7-2ex`` proof runs a pinned number of chains, so that the search's
  conjugator filter cannot drop out unseen.
- The search makes at most one conjugator call per (tuple, pattern) pair:
  pinned counts on a search that accepts most tuples, and none at all on
  an intransitive target.
"""

import itertools
import random

import pytest

from etmaps import build, groups, perms, realize
from etmaps.groups import GroupTable
from test_stabchain import _diagonal_and_dst_chains, _extension_groups


def _brute_force(src, dst):
    """Every permutation pi with pi[s[x]] == d[pi[x]] for every pair and
    point, in lex order."""
    n = len(src[0])
    return [pi for pi in itertools.permutations(range(n))
            if all(pi[s[x]] == d[pi[x]] for s, d in zip(src, dst) for x in range(n))]


def _random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def _conjugated(src, pi):
    """The tuple pi s pi^-1 of each s: sends pi[x] to pi[s[x]]."""
    out = []
    for s in src:
        d = [0] * len(s)
        for x, y in enumerate(s):
            d[pi[x]] = pi[y]
        out.append(tuple(d))
    return out


def _cases(seed, count):
    """(src, dst) pairs on 1 to 6 points: dst conjugate to src by a random
    permutation, conjugate and then one element changed, each src element's
    square, and random."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        src = [_random_perm(rng, n) for _ in range(rng.randint(1, 3))]
        conj = _conjugated(src, _random_perm(rng, n))
        changed = list(conj)
        changed[rng.randrange(len(src))] = _random_perm(rng, n)
        squares = [perms.compose(s, s) for s in src]
        randoms = [_random_perm(rng, n) for _ in src]
        for dst in (conj, changed, squares, randoms):
            yield src, dst


# Klein four-group on 4 points and a dst with the same cycle lengths at 0
# that only a non-injective map intertwines: pi = (0, 1, 1, 0)
_NON_INJECTIVE = ([(1, 0, 3, 2), (2, 3, 0, 1)], [(1, 0, 3, 2), (1, 0, 3, 2)])


@pytest.mark.parametrize("seed", range(4))
def test_conjugator_matches_brute_force(seed):
    found = {True: 0, False: 0}
    for src, dst in itertools.chain([_NON_INJECTIVE], _cases(seed, 60)):
        n = len(src[0])
        got = perms.conjugator(src, dst)
        transitive = perms.is_transitive(n, src)
        solutions = _brute_force(src, dst)
        want = solutions[0] if transitive and solutions else None
        assert got == want, (src, dst)
        if want is not None:
            # distinct solutions of a transitive src differ at point 0
            assert len({pi[0] for pi in solutions}) == len(solutions)
        found[transitive] += bool(solutions)
    # both kinds of src had solutions, and the intransitive ones were refused
    assert found[True] and found[False]


def test_conjugator_refuses_every_intransitive_src():
    # src = dst always has the identity as a solution
    for src in ([(1, 0, 2)], [(0, 1, 2, 3)], [(1, 0, 2, 3), (0, 1, 3, 2)]):
        assert _brute_force(src, src)
        assert perms.conjugator(src, src) is None


def test_conjugator_input():
    with pytest.raises(ValueError):
        perms.conjugator([(1, 0)], [])
    assert perms.conjugator([], []) is None


@pytest.mark.parametrize("name", ["S4", "S5", "A5", "L2(7)", "AGL1(8)", "C2xC4"])
def test_a_conjugator_means_the_diagonal_chain_extends(name):
    G = _extension_groups()[name]
    rng = random.Random(name)
    certified = 0
    tried = 0
    while tried < 60:
        src = tuple(rng.randrange(G.size) for _ in range(rng.choice((2, 3))))
        if not GroupTable.generates(G, src):
            continue
        tried += 1
        g = rng.randrange(G.size)
        inner = tuple(G.conjugate(s, g) for s in src)
        scrambled = tuple(rng.randrange(G.size) for _ in src)
        swapped = src[1:] + src[:1]
        inverted = tuple(G.inverse(s) for s in src)
        for dst in (inner, scrambled, swapped, inverted):
            hom, onto = _diagonal_and_dst_chains(G, src, dst)
            if perms.conjugator([G.elem(x) for x in src], [G.elem(y) for y in dst]):
                assert hom and onto, (src, dst)
                certified += 1
            assert groups.extends_from_generating(G, src, dst) == (hom and onto)
    assert bool(certified) == (name != "C2xC4")


_GROUPS = {"S4": lambda: realize.sym_group(4), "S5": lambda: realize.sym_group(5),
           "A5": lambda: realize.alt_group(5), "A6": lambda: realize.alt_group(6),
           "L2(7)": lambda: realize.psl2_group(7), "L2(8)": lambda: realize.psl2_group(8)}


# cells with more than 90,000 witnesses (3 million on A6, 16 million on
# L2(8) for shape 3): only the first 40 are compared
_CAPPED = {("S5", "3"), ("A6", "3"), ("A6", "4"), ("L2(7)", "3"),
           ("L2(8)", "2"), ("L2(8)", "3"), ("L2(8)", "4")}


def _search_cells():
    """(group, shape, options): every shape on every group, alone and with
    ``even``, and on the symmetric and alternating groups also with
    ``up_to_cycle_type``, alone and with ``even``; every witness
    (``limit=None``) outside ``_CAPPED``."""
    for name, shape in itertools.product(_GROUPS, build.GENERATOR_NAMES):
        limit = 40 if (name, shape) in _CAPPED else None
        modes = [(), ("even",)]
        if name[0] in "SA":
            modes += [("up_to_cycle_type",), ("up_to_cycle_type", "even")]
        for mode in modes:
            options = dict.fromkeys(mode, True)
            yield pytest.param(name, shape, dict(options, limit=limit),
                               id="-".join((name, shape, *mode)))


@pytest.mark.parametrize("name, shape, options", _search_cells())
def test_search_without_conjugator_agrees(name, shape, options, monkeypatch):
    G = _GROUPS[name]()
    got = build.search_epimorphisms(shape, G, **options)
    with monkeypatch.context() as m:
        m.setattr(perms, "conjugator", lambda src, dst: None)
        want = build.search_epimorphisms(shape, G, **options)
    assert (got.witnesses, got.examined, got.complete, got.proved_empty) == \
        (want.witnesses, want.examined, want.complete, want.proved_empty)


def _counted(monkeypatch):
    """Counts of ``perms.conjugator`` calls and stabilizer-chain runs from
    here on."""
    counts = {"conjugator": 0, "chains": 0}
    conjugator, stabilizer_order = perms.conjugator, perms._stabilizer_order

    def counted_conjugator(src, dst):
        counts["conjugator"] += 1
        return conjugator(src, dst)

    def counted_chain(gens, bound):
        counts["chains"] += 1
        return stabilizer_order(gens, bound)

    monkeypatch.setattr(perms, "conjugator", counted_conjugator)
    monkeypatch.setattr(perms, "_stabilizer_order", counted_chain)
    return counts


def test_a7_2ex_proof_runs_a_pinned_number_of_chains(monkeypatch):
    # the two A7 searches of the a7-2ex suite (class 2Pex empty, class 5 not);
    # without the conjugator filter they ran 57 and 32 chains
    G = realize.alt_group(7)
    counts = _counted(monkeypatch)
    empty = build.search_epimorphisms("2Pex", G, up_to_cycle_type=True)
    assert empty.proved_empty and counts["chains"] == 14
    found = build.search_epimorphisms("5", G, up_to_cycle_type=True)
    assert found.witnesses and counts["chains"] == 14 + 4


def test_search_asks_the_conjugator_once_per_pattern(monkeypatch):
    # 582 canonical tuples, most generating and accepted; when every
    # accepted tuple's pattern got a second conjugator call inside
    # has_forbidden_automorphism, the count was 642
    G = realize.sym_group(6)
    counts = _counted(monkeypatch)
    result = build.search_epimorphisms("4", G, even=True, up_to_cycle_type=True,
                                       limit=None)
    assert result.examined == 582 and len(result.witnesses) == 8832
    assert counts == {"conjugator": 410, "chains": 570}


def test_search_on_an_intransitive_target_asks_no_conjugator(monkeypatch):
    # D_6 x C_2 (order 24) on 6 + 2 points: a generating tuple is
    # intransitive, so a conjugator would find nothing (168 calls when it
    # was asked)
    G = realize.dihedral_spec(6).spec.group
    assert not perms.is_transitive(G.degree, [G.elem(g) for g in G.generators])
    counts = _counted(monkeypatch)
    result = build.search_epimorphisms("2", G, limit=None)
    assert result.examined == 960 and len(result.witnesses) == 576
    assert counts == {"conjugator": 0, "chains": 1128}
