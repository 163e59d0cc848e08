"""``flagmaps.join`` against the pair BFS it replaced.

``_pair_bfs_join`` is the earlier ``join``: a breadth-first search over
``(x, y)`` tuples with a dict index, numbering pairs by frontier position,
then generator 0, 1, 2, first discovery winning.  The layered join must
return equal arrays, not just an isomorphic map, on every input here: wide
products of small maps, the 57,344-flag Edmonds x nilpotent join of the
``solvable`` suite (relabelled, so the numbering cannot lean on the input's
own order), and a path of 2,000 flags whose join with itself is 2,000 layers
deep.  ``etm op join`` prints the same numbering.
"""

import json

import numpy as np
import pytest

from etmaps import build, classes, cli, realize
from etmaps.flagmaps import FlagMap, is_isomorphic, join


def _pair_bfs_join(m1: FlagMap, m2: FlagMap) -> FlagMap:
    index = {(0, 0): 0}
    order = [(0, 0)]
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for pair in frontier:
            x, y = pair
            for arr1, arr2 in zip(m1.r, m2.r):
                q = (int(arr1[x]), int(arr2[y]))
                if q not in index:
                    index[q] = len(order)
                    order.append(q)
                    nxt.append(q)
        frontier = nxt
    new_r = []
    for arr1, arr2 in zip(m1.r, m2.r):
        img = [index[(int(arr1[x]), int(arr2[y]))] for x, y in order]
        new_r.append(img)
    return FlagMap(new_r[0], new_r[1], new_r[2])


def _assert_join_matches_oracle(m1: FlagMap, m2: FlagMap) -> FlagMap:
    got, want = join(m1, m2), _pair_bfs_join(m1, m2)
    assert got.n == want.n
    for a, b in zip(got.r, want.r):
        assert a.dtype == np.int64
        assert np.array_equal(a, b)
    return got


def _tetrahedron() -> FlagMap:
    # r0, r1, r2 = (1,2), (2,3), (3,4): the Coxeter generators of [3,3]
    G = realize.sym_group(4)
    images = {name: G.id_of(realize.involution(4, [pair]))
              for name, pair in zip(("R0", "R1", "R2"), ((1, 2), (2, 3), (3, 4)))}
    return build.build_map(build.EpimorphismSpec("1", G, images))


def _relabel_fixing_zero(m: FlagMap, seed: int) -> FlagMap:
    """The map with flag x renamed p[x], for a random p with p[0] = 0."""
    p = np.concatenate(([0], 1 + np.random.default_rng(seed).permutation(m.n - 1)))
    arrays = []
    for r in m.r:
        a = np.empty(m.n, dtype=np.int64)
        a[p] = p[r]
        arrays.append(a)
    return FlagMap(*arrays)


def _path(n: int) -> FlagMap:
    """n flags in a row: r0 = r2 pairs 2k with 2k+1, r1 pairs 2k+1 with 2k+2."""
    r0 = np.arange(n) ^ 1
    r1 = np.arange(n)
    r1[1:-1] = np.arange(1, n - 1) + np.where(np.arange(1, n - 1) % 2, 1, -1)
    return FlagMap(r0, r1, r0.copy())


@pytest.mark.parametrize("label", classes.LABELS)
def test_basic_map_with_circuit_matches_oracle(label):
    m = classes.basic_map(label)
    d5 = realize.dihedral_spec(5).build()
    _assert_join_matches_oracle(m, d5)
    _assert_join_matches_oracle(d5, m)


def test_tetrahedron_with_psl2_8_matches_oracle():
    j = _assert_join_matches_oracle(_tetrahedron(), realize.psl2_class1(8).build())
    assert j.n == 24 * 504


def test_edmonds_with_nilpotent_relabelled_matches_oracle():
    ma = _relabel_fixing_zero(realize.edmonds_k8()[0].build(), seed=1)
    mc = _relabel_fixing_zero(realize.nilpotent_chiral(4).build(), seed=2)
    j = _assert_join_matches_oracle(ma, mc)
    assert j.n == 57_344


def test_deep_path_matches_oracle():
    path = _path(2_000)
    assert _assert_join_matches_oracle(path, path).n == 2_000
    _assert_join_matches_oracle(path, realize.dihedral_spec(5).build())


def test_join_is_commutative_up_to_isomorphism():
    maps = ([classes.basic_map(label) for label in classes.LABELS]
            + [_tetrahedron(), realize.dihedral_spec(5).build(), _path(40)])
    for i, m1 in enumerate(maps):
        for m2 in maps[i:]:
            assert is_isomorphic(join(m1, m2), join(m2, m1))


def test_cli_op_join_prints_oracle_numbering(capsys, tmp_path):
    m1, m2 = _tetrahedron(), realize.dihedral_spec(5).build()
    (tmp_path / "a.json").write_text(json.dumps(m1.to_json()))
    (tmp_path / "b.json").write_text(json.dumps(m2.to_json()))
    code = cli.main(["op", "join", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out) == _pair_bfs_join(m1, m2).to_json()


def test_cli_op_join_without_second_map_is_input_error(capsys, tmp_path):
    (tmp_path / "a.json").write_text(json.dumps(_tetrahedron().to_json()))
    assert cli.main(["op", "join", str(tmp_path / "a.json")]) == 2
    assert "second map" in capsys.readouterr().err
