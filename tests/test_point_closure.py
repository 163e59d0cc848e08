"""``perms.point_closure`` against a Python BFS with the same first-discovery
rule.

``python_layers`` scans each frontier point in order and, at each, the
generators in order; a point not yet marked is marked, and joins the next
layer with that parent and generator, the first time it is seen.  With a
cap it raises :class:`CapExceeded` when it is about to mark a point while
``cap`` points are already marked, as the element-by-element subgroup BFS
of ``tests/test_table_closure.py`` does.  The closure must yield the same
layers, parents and generator indices, in order, and leave the same mask.
"""

import numpy as np
import pytest

from etmaps import perms
from etmaps.perms import CapExceeded


def python_layers(images, mark, frontier, cap=None):
    """The layers (points, parents, generators) as lists, the final mask,
    and whether the cap was passed; when it was, the layers are those
    completed before the point that passed it."""
    mark = mark.copy()
    frontier = [int(x) for x in frontier]
    for x in frontier:
        mark[x] = True
    count = int(mark.sum())
    layers = []
    while frontier:
        points, parents, gens = [], [], []
        for x in frontier:
            for j in range(images.shape[1]):
                y = int(images[x, j])
                if not mark[y]:
                    if cap is not None and count >= cap:
                        return layers, mark, True
                    mark[y] = True
                    count += 1
                    points.append(y)
                    parents.append(x)
                    gens.append(j)
        if points:
            layers.append((points, parents, gens))
        frontier = points
    return layers, mark, False


def run_closure(images, mark, frontier, cap=None):
    """The layers :func:`perms.point_closure` yields, as lists, the mask it
    leaves, and whether it raised :class:`CapExceeded`."""
    mark = mark.copy()
    layers = []
    try:
        for points, parents, gens in perms.point_closure(images, mark, frontier, cap):
            assert np.array_equal(images[parents, gens], points)
            layers.append((points.tolist(), parents.tolist(), gens.tolist()))
    except CapExceeded as exc:
        assert exc.cap == cap
        return layers, mark, True
    return layers, mark, False


def _cases(seed):
    """(images, mark, frontier) triples: permutation and arbitrary image
    columns, zero to four generators, int32 and int64, with and without
    points marked before the call, frontiers of one or several points."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 7, 40, 300):
        for k in range(5):
            for perm_columns in (True, False):
                if perm_columns:
                    images = np.stack([rng.permutation(n) for _ in range(k)], axis=1) \
                        if k else np.empty((n, 0), dtype=np.int64)
                else:
                    images = rng.integers(0, n, size=(n, k))
                dtype = (np.int32, np.int64)[rng.integers(2)]
                images = images.astype(dtype)
                for premarked in (0.0, 0.3):
                    mark = rng.random(n) < premarked
                    for size in (1, 3):
                        frontier = rng.integers(0, n, size=min(size, n)).astype(dtype)
                        yield images, mark, frontier


@pytest.mark.parametrize("seed", range(3))
def test_layers_match_the_python_bfs(seed):
    for images, mark, frontier in _cases(seed):
        want_layers, want_mark, _ = python_layers(images, mark, frontier)
        layers, got_mark, raised = run_closure(images, mark, frontier)
        assert not raised
        assert layers == want_layers
        assert np.array_equal(got_mark, want_mark)


@pytest.mark.parametrize("seed", range(3))
def test_cap_is_raised_exactly_when_the_python_bfs_passes_it(seed):
    passed = set()
    for images, mark, frontier in _cases(seed):
        size = int(python_layers(images, mark, frontier)[1].sum())
        for cap in (size - 1, size, size + 1):
            want_layers, want_mark, want_raised = python_layers(images, mark, frontier, cap)
            layers, got_mark, raised = run_closure(images, mark, frontier, cap)
            assert raised == want_raised
            assert layers == want_layers
            if not raised:
                assert np.array_equal(got_mark, want_mark)
            passed.add(raised)
    assert passed == {True, False}


def test_no_generators_marks_the_frontier_only():
    mark = np.zeros(5, dtype=bool)
    mark[4] = True
    assert list(perms.point_closure(np.empty((5, 0), dtype=np.int64), mark,
                                    np.array([1, 2]), cap=0)) == []
    assert mark.tolist() == [False, True, True, False, True]


def test_points_marked_on_entry_are_never_yielded():
    # the 6-cycle from 0, with 2 and 3 marked: 4 and 5 are reached the
    # other way round, and nothing passes through the marked points
    images = np.array([[1, 5], [2, 0], [3, 1], [4, 2], [5, 3], [0, 4]])
    mark = np.zeros(6, dtype=bool)
    mark[[2, 3]] = True
    layers = [(p.tolist(), q.tolist(), g.tolist())
              for p, q, g in perms.point_closure(images, mark, np.array([0]))]
    assert layers == [([1, 5], [0, 0], [0, 1]), ([4], [5], [1])]
    assert mark.all()
