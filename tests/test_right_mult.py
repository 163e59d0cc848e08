"""``PermGroup.right_mult`` composes the generators' Schreier columns along
an element's word in the BFS tree of the element table.  Here it is held to
the sort path it replaced, ``ids_of`` of the gathered element matrix: on
every group the suites build, on the ROADMAP's next groups (L3(3), M11,
M12) and on D_1024 x C2, whose words are long and whose row keys are void.
Also checked: the table's sorted keys against a fresh sort, the
met-elements-first renumbering of a table built late, that a caller's
writes into a result reach no later result, and that every family's
``right_mult`` refuses an id outside the group.
"""

import itertools
import random

import numpy as np
import pytest

from etmaps import perms, realize, suites
from etmaps.groups import DirectProduct, GpefAlphaGroup, GpefGroup, PermGroup
from test_quotient_oracle import quotient


def sort_path(G, w):
    """The ids of g w for every g by one argsort of the gathered rows'
    keys: ``right_mult`` before it walked the tree."""
    m = G.matrix()
    return np.arange(G.size) if w == 0 else G.ids_of(m[w][m])


def assert_right_mult(G, ws):
    for w in ws:
        r = G.right_mult(w)
        assert r.dtype == np.int64
        assert np.array_equal(r, sort_path(G, w)), w


def some_ids(G, every_up_to=6000, sample=60):
    """Every id of a group of at most ``every_up_to`` elements.  Above: the
    generators, the last ten ids (the longest words of a BFS-numbered table)
    and a seeded sample."""
    if G.size <= every_up_to:
        return range(G.size)
    return sorted({*G.generators, *range(G.size - 10, G.size),
                   *random.Random(30).sample(range(G.size), sample)})


def _cycles(n, *cycles):
    p = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            p[a - 1] = b - 1
    return tuple(p)


def mathieu(n):
    """M11 on 11 points or M12 on 12, by their standard generators."""
    gens = [_cycles(n, tuple(range(1, 12))), _cycles(n, (3, 7, 11, 8), (4, 10, 5, 6))]
    if n == 12:
        gens.append(_cycles(12, (1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10)))
    return PermGroup(gens)


def psl3(p):
    """L3(p) on the p^2 + p + 1 points of the projective plane over F_p,
    generated by the transvection I + E_12 and the cyclic shift of
    coordinates, whose conjugates give every elementary transvection."""
    points = [v for v in itertools.product(range(p), repeat=3)
              if any(v) and v[next(i for i in range(3) if v[i])] == 1]
    index = {v: i for i, v in enumerate(points)}

    def normed(v):
        lead = next(x for x in v if x % p)
        inv = pow(lead, p - 2, p)
        return tuple(x * inv % p for x in v)

    def action(M):
        return tuple(index[normed([sum(M[r][c] * v[c] for c in range(3)) for r in range(3)])]
                     for v in points)

    return PermGroup([action([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                      action([[0, 0, 1], [1, 0, 0], [0, 1, 0]])])


SUITE_GROUPS = {
    **{f"S{n}": (lambda n=n: realize.sym_group(n)) for n in range(1, 9)},
    **{f"A{n}": (lambda n=n: realize.alt_group(n)) for n in range(1, 9)},
    **{f"L2({q})": (lambda q=q: realize.psl2_group(q)) for q in suites._PSL2_GRID},
    "AGL1(8)": lambda: realize.agl1_8_group()[0],
    "D8 x C2": lambda: realize.dihedral_spec(8).spec.group,
    **{name: (lambda name=name: suites._load_chartable(f"chartable_{name}.json")[0])
       for name in ("s4", "d4", "a5")},
}

FRONTIER_GROUPS = {
    "L3(3)": lambda: psl3(3),
    "M11": lambda: mathieu(11),
    "M12": lambda: mathieu(12),
    "D1024 x C2": lambda: realize.dihedral_spec(1024).spec.group,
}


@pytest.mark.parametrize("name", SUITE_GROUPS)
def test_suite_groups_match_the_sort_path(name):
    G = SUITE_GROUPS[name]()
    assert_right_mult(G, some_ids(G))


@pytest.mark.parametrize("name", FRONTIER_GROUPS)
def test_frontier_groups_match_the_sort_path(name):
    G = FRONTIER_GROUPS[name]()
    assert G.size == {"L3(3)": 5616, "M11": 7920, "M12": 95040, "D1024 x C2": 4096}[name]
    # D1024 x C2 keys each row as 2,052 bytes: a smaller sample of the sort path
    assert_right_mult(G, some_ids(G) if G.degree < 100 else
                      some_ids(G, every_up_to=0, sample=20))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_alt_group_renumbered_after_ids_met_before_its_table(n):
    # a fresh, uncached alt_group(n): its table is built on the first array
    # call, with the elements met before it keeping their ids
    G = realize.alt_group.__wrapped__(n)
    last = tuple(perms.bfs_closure(G._gens).rows[-1].tolist())
    met = [G.product(1, 2), G.inverse(2), G.id_of(last)]
    assert met == [3, 4, 5] and G._matrix is None
    assert_right_mult(G, range(G.size))
    assert G.elem(5) == last
    assert G.id_of(last) == 5


_KEYED_GROUPS = {
    "A7": lambda: realize.alt_group(7),
    "A6-renumbered": lambda: _met_first(realize.alt_group.__wrapped__(6)),
    "L2(19)-void-keys": lambda: realize.psl2_group(19),
}


def _met_first(G):
    G.id_of(tuple(perms.bfs_closure(G._gens).rows[-1].tolist()))
    return G


@pytest.mark.parametrize("name", _KEYED_GROUPS)
def test_sorted_keys_are_a_fresh_sort(name):
    G = _KEYED_GROUPS[name]()
    keys = perms.row_keys(G.matrix())
    order = np.argsort(keys)
    assert np.array_equal(G._key_ids, order)
    assert np.array_equal(G._sorted_keys, keys[order])


def test_writing_into_a_result_changes_no_later_result():
    G = realize.sym_group(5)
    ws = [0, *G.generators, G.size - 1]
    before = [G.right_mult(w) for w in ws]
    for w in ws:
        G.right_mult(w)[:] = -1
    assert all(np.array_equal(G.right_mult(w), r) for w, r in zip(ws, before))
    assert_right_mult(G, range(G.size))


def _table_free_s4():
    return PermGroup([_cycles(4, (1, 2, 3, 4)), _cycles(4, (1, 2))], cap=None)


def _s3_mod_a3():
    G = realize.sym_group(3)
    return quotient(G, G.subgroup([G.id_of(_cycles(3, (1, 2, 3)))]))


FAMILIES = {
    "PermGroup": lambda: realize.sym_group(4),
    "PermGroup-table-free": _table_free_s4,
    "GpefGroup": lambda: GpefGroup(3, 2, 1),
    "GpefAlphaGroup": lambda: GpefAlphaGroup(3),
    "DirectProduct": lambda: DirectProduct(realize.sym_group(3), GpefGroup(3, 1, 1)),
    "product-loop": _s3_mod_a3,
}


@pytest.mark.parametrize("at", ["-1", "size"])
@pytest.mark.parametrize("name", FAMILIES)
def test_right_mult_refuses_ids_outside_the_group(name, at):
    G = FAMILIES[name]()
    w = -1 if at == "-1" else G.size
    with pytest.raises(IndexError, match=f"no element with id {w} in a group of order {G.size}"):
        G.right_mult(w)
    if isinstance(G, PermGroup) and name.endswith("table-free"):
        assert G._matrix is None  # refused before the table is built
