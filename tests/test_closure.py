"""The layered numpy closure ``perms.bfs_closure`` against the
element-by-element BFS it replaced, and the order cap of ``PermGroup``.

``python_closure`` is that BFS: from the identity, each frontier element in
order is followed by each generator in order, and a new element is appended
the first time it is seen.  The matrix must equal its list row by row, in
order, not only as a set.  ``python_orbit`` is the same BFS from any start
rows, under gathers, with its tree; it checks the closure's other callers'
starts: tuples of element ids under conjugation and the induced action's
columns.  ``python_graph`` gives every row's successor under every
generator by dictionary lookup, against the closure's Schreier columns, and
the closure's sorted keys are checked against the rows they name.
"""

import random

import numpy as np
import pytest

from etmaps import fields, groups, perms, realize
from etmaps.groups import PermGroup
from etmaps.perms import CapExceeded
from oracles import psl2_order


def python_closure(gens):
    """Elements of the generated group in BFS order: by word length, then
    frontier position, then generator index, first discovery winning."""
    ident = perms.identity(len(gens[0]))
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perms.compose(x, g)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def python_orbit(gens, start):
    """The orbit of the rows ``start`` under x -> g[x], in the BFS order of
    ``python_closure``, and for every row after ``start`` the index of its
    generator and of its parent row."""
    rows = [tuple(x) for x in start]
    seen = set(rows)
    gen_of, parent_of = [], []
    frontier = range(len(rows))
    while frontier:
        nxt = []
        for f in frontier:
            for j, g in enumerate(gens):
                y = tuple(g[i] for i in rows[f])
                if y not in seen:
                    seen.add(y)
                    nxt.append(len(rows))
                    rows.append(y)
                    gen_of.append(j)
                    parent_of.append(f)
        frontier = nxt
    return rows, gen_of, parent_of


def python_graph(gens, rows):
    """Row by row, the index of its image under each generator: the
    Schreier graph, as a (k, len(rows)) list."""
    index = {row: i for i, row in enumerate(rows)}
    return [[index[tuple(g[i] for i in row)] for row in rows] for g in gens]


def assert_graph_and_keys(closure, gens):
    """The closure's columns are ``python_graph`` of its rows, and its keys
    are the rows' keys in strictly ascending order, each with its row."""
    rows = [tuple(row) for row in closure.rows.tolist()]
    assert closure.columns.dtype == np.int64
    assert closure.columns.tolist() == python_graph(gens, rows)
    keys = perms.row_keys(closure.rows, len(gens[0]))
    assert sorted(closure.key_rows.tolist()) == list(range(len(rows)))
    assert np.array_equal(closure.keys, keys[closure.key_rows])
    keys = closure.keys.tolist()  # Python ints or bytes, which void keys compare as
    assert all(a < b for a, b in zip(keys, keys[1:]))


def assert_same_orbit(gens, start):
    closure = perms.bfs_closure(gens, start)
    rows, tree = closure.rows, closure.tree
    expected, gen_of, parent_of = python_orbit(gens, start)
    assert rows.dtype == perms.row_dtype(len(gens[0]))
    assert [tuple(row) for row in rows.tolist()] == expected
    assert np.concatenate([g for g, _ in tree]).tolist() == gen_of
    assert np.concatenate([p for _, p in tree]).tolist() == parent_of
    # replaying the tree layer by layer rebuilds every row after the start
    gens = np.array(gens)
    at = len(start)
    for g, parent in tree:
        assert np.array_equal(rows[at:at + len(g)],
                              gens[g[:, None], rows[parent]]), at
        at += len(g)
    assert at == len(rows)
    assert_graph_and_keys(closure, gens.tolist())
    return rows


def test_orbit_of_cosets():
    # x -> compose(x, g): the orbit of a start row is its right coset, and a
    # start row inside an earlier row's coset is not found again
    d4 = [realize.cycle(5, 1, 2, 3, 4), realize.involution(5, [(1, 3)])]
    x = realize.cycle(5, 1, 5)
    y = realize.cycle(5, 2, 5, 3)
    assert len(assert_same_orbit(d4, [x])) == 8
    assert len(assert_same_orbit(d4, [x, y, perms.compose(x, d4[0])])) == 16


@pytest.mark.parametrize("n", [4, 5])
def test_orbit_of_id_tuples_under_conjugation(n):
    G = realize.sym_group(n)
    inv = groups.inverse_ids(G)
    conj_g = groups.conjugation_generators(G, np.ones(G.size, dtype=bool), inv)
    assert_same_orbit(conj_g, [(1, 2)])
    tuples = [(1, 2, 3), (4, 5, 6), (2, 1, 3), (0, 7, 7)]
    orbit = assert_same_orbit(conj_g, tuples)
    for t in tuples:  # each start row's orbit is that of simultaneous conjugation
        images = {tuple(G.conjugate(x, g) for x in t) for g in range(G.size)}
        assert images <= set(map(tuple, orbit.tolist()))


@pytest.mark.parametrize("q", [7, 8])
def test_orbit_of_the_survey_start(q):
    F = fields.FiniteField(*{7: (7, 1), 8: (2, 3)}[q])
    G = realize.psl2_perm_group(F)
    A = groups._InducedAction(G, fields.pgammal2_generators(F))
    cols = assert_same_orbit(A.gen_rows.tolist(), [G.generators])
    assert np.array_equal(cols, A.cols)
    assert len(cols) == (2 if q == 7 else 3) * psl2_order(q)  # |PGammaL(2, q)|


def test_orbit_without_generators_is_the_start():
    closure = perms.bfs_closure([], [(0, 1), (1, 0)])
    assert closure.rows.tolist() == [[0, 1], [1, 0]] and closure.tree == []
    assert closure.columns.shape == (0, 2)
    assert closure.key_rows.tolist() == [1, 0]  # key 1 + 0*2 < 0 + 1*2


def assert_same_closure(gens):
    closure = perms.bfs_closure(gens)
    got = closure.rows
    assert got.dtype == perms.row_dtype(len(gens[0]))
    assert [tuple(row) for row in got.tolist()] == python_closure(gens), gens
    assert_graph_and_keys(closure, gens)
    return got


def _sym(n):
    return [realize.cycle(n, *range(1, n + 1)), realize.involution(n, [(1, 2)])]


def _alt(n):
    if n < 3:
        return [perms.identity(n)]
    long = range(1, n + 1) if n % 2 else range(2, n + 1)
    return [realize.cycle(n, 1, 2, 3), realize.cycle(n, *long)]


def _psl2(q):
    p, e = next((p, e) for p in (2, 3, 5, 7, 11, 13, 19) for e in (1, 2, 3) if p ** e == q)
    return fields.psl2_group_generators(fields.FiniteField(p, e))


@pytest.mark.parametrize("n", range(2, 9))
def test_symmetric_and_alternating(n):
    assert len(assert_same_closure(_sym(n))) == perms.group_order(_sym(n))
    assert_same_closure(_alt(n))


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_psl2_grid(q):
    assert len(assert_same_closure(_psl2(q))) == psl2_order(q)


def test_agl1_8_and_trivial_groups():
    G = realize.agl1_8_group()[0]
    assert len(assert_same_closure([G.elem(g) for g in G.generators])) == 56
    assert assert_same_closure([(0,)]).tolist() == [[0]]
    assert len(assert_same_closure([perms.identity(5)] * 3)) == 1


@pytest.mark.parametrize("seed", range(3))
def test_random_groups(seed):
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(1, 8)
        gens = []
        for _ in range(rng.choice((2, 3))):
            p = list(range(n))
            if rng.random() < 0.5:
                rng.shuffle(p)
            else:  # sparse generators give small and intransitive groups too
                i, j = rng.randrange(n), rng.randrange(n)
                p[i], p[j] = p[j], p[i]
            gens.append(tuple(p))
        assert_same_closure(gens)


def test_deep_cyclic_group():
    # cycles of lengths 4, 5 and 7 on 16 points: one generator of order 140,
    # so 140 layers of one element each
    g = realize.cycle(16, 1, 2, 3, 4)
    g = perms.compose(g, realize.cycle(16, 5, 6, 7, 8, 9))
    g = perms.compose(g, realize.cycle(16, *range(10, 17)))
    assert len(assert_same_closure([g])) == 140


def test_above_packed_degree():
    # L2(19) on the 20 points of the projective line: void row keys
    assert len(assert_same_closure(_psl2(19))) == psl2_order(19)


def test_more_than_256_points():
    # the dihedral group on 300 points: uint16 rows
    n = 300
    rotation = tuple(list(range(1, n)) + [0])
    reflection = tuple((-i) % n for i in range(n))
    got = assert_same_closure([rotation, reflection])
    assert got.dtype == np.uint16 and len(got) == 2 * n


@pytest.mark.parametrize("gens", [_sym(5), _alt(6), _psl2(7), [(0,)]],
                         ids=["S5", "A6", "L2(7)", "trivial"])
def test_perm_group_cap_is_the_order(gens):
    order = perms.group_order(gens)
    assert PermGroup(gens, cap=order).size == order
    with pytest.raises(CapExceeded) as err:
        PermGroup(gens, cap=order - 1)
    assert err.value.cap == order - 1


def test_perm_group_ids_follow_the_closure():
    gens = _psl2(8)
    G = PermGroup(gens)
    elems = python_closure(gens)
    assert [G.elem(a) for a in range(G.size)] == elems
    assert all(G.id_of(p) == a for a, p in enumerate(elems))
    assert G.generators == [elems.index(g) for g in gens]
