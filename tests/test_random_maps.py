"""The map-layer array kernels against plain Python oracles, on random
connected flag triples.

The triples are built from random edge blocks glued by a random r1: closed
orientable ones, closed ones with an arbitrary r1 (mostly non-orientable),
and ones with boundary, from 1 to about 200 flags.  Double covers of them
have a nontrivial automorphism, so isomorphism tests see maps with more
than one automorphism orbit.  Two maps of 100,000 flags shaped as a
long path and a long cycle give spanning trees of depth 50,000 and more.

The oracles are the Python walks these kernels replaced: the depth-first
extension walk, the depth-first orientation 2-colouring, the union-find on
lists for the vertex, edge and face orbits, and the automorphism search
that tested every candidate of flag 0's colour in turn after a random
stabilizer filter, with colours from refinement ranking whole rows by
``np.unique(..., axis=0)``, checked on maps of 300 to 10,080 flags.

Maps that the dual, the Petrie dual, the quotient, the join and
``build.build_map`` make without the public constructor's checks are
checked against that constructor, on the corpus and on built witnesses of
every build shape.
"""

import contextlib
import itertools
import random
import signal

import numpy as np
import pytest

from etmaps import build, classes, flagmaps, perms, realize
from etmaps.flagmaps import FlagMap, MapError


# -- oracles ---------------------------------------------------------------------

def _walk_match(m1: FlagMap, root1: int, m2: FlagMap, root2: int):
    """The isomorphism sending root1 to root2, by depth-first extension."""
    if m1.n != m2.n:
        return None
    a = np.full(m1.n, -1, dtype=np.int64)
    a[root1] = root2
    stack = [root1]
    while stack:
        x = stack.pop()
        ax = a[x]
        for arr1, arr2 in zip(m1.r, m2.r):
            y = int(arr1[x])
            ay = int(arr2[ax])
            if a[y] == -1:
                a[y] = ay
                stack.append(y)
            elif a[y] != ay:
                return None
    return a


def _extended(m1: FlagMap, m2: FlagMap, root2: int):
    """The library's extension from flag 0 of m1 to root2, when it is an
    isomorphism m1 -> m2, else None."""
    a, defect = flagmaps._extension(m1, m2, root2)
    return a if defect is None else None


def _dfs_orientation(m: FlagMap):
    """The 2-colouring swapped by every r_i with flag 0 coloured 0, by
    depth-first search, or None."""
    color = np.full(m.n, -1, dtype=np.int8)
    color[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        c = 1 - color[x]
        for arr in m.r:
            y = int(arr[x])
            if color[y] == -1:
                color[y] = c
                stack.append(y)
            elif color[y] != c:
                return None
    return color


def _python_bfs_tree(m: FlagMap):
    """Parent and generator label of every flag in the breadth-first tree
    from flag 0, scanning each frontier in order and r0, r1, r2 at each
    flag; the first discovery wins."""
    parent = np.full(m.n, -1, dtype=np.int64)
    gen = np.zeros(m.n, dtype=np.int8)
    parent[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i, arr in enumerate(m.r):
                y = int(arr[x])
                if parent[y] == -1 and y != 0:
                    parent[y] = x
                    gen[y] = i
                    nxt.append(y)
        frontier = nxt
    return parent, gen


def _row_colors(m: FlagMap) -> np.ndarray:
    """Colour refinement ranking the rows (c, c r0, c r1, c r2) at once."""
    idx = np.arange(m.n)
    r0, r1, r2 = m.r
    colors = ((r0 == idx).astype(np.int64) + 2 * (r1 == idx) + 4 * (r2 == idx)
              + 8 * (r0[r2] == idx))
    n_colors = len(np.unique(colors))
    while True:
        stacked = np.stack([colors, colors[r0], colors[r1], colors[r2]], axis=1)
        _, new = np.unique(stacked, axis=0, return_inverse=True)
        new = new.reshape(-1)
        k = int(new.max()) + 1
        if k == n_colors:
            return colors
        colors, n_colors = new, k


def _brute_isomorphic(m1: FlagMap, m2: FlagMap, oriented: bool = False) -> bool:
    """Some root of m1 (of orientation class 0 if oriented) extends to an
    isomorphism onto m2 sending it to flag 0."""
    roots = range(m1.n)
    if oriented:
        color = _dfs_orientation(m1)
        roots = [x for x in roots if color[x] == 0]
    return any(_walk_match(m1, x, m2, 0) is not None for x in roots)


def _filtered_aut_generators(m: FlagMap):
    """Generators of Aut(m) and its orbit ids, by an extension test at every
    candidate image of flag 0 in increasing order.  Above 256 candidates,
    8 random stabilizer words (24 random steps, then the tree path back to
    flag 0) first discard the candidates they move."""
    colors = _row_colors(m)
    candidates = np.nonzero(colors == colors[0])[0]
    rng = random.Random(12345)
    for _ in range(8 if len(candidates) > 256 else 0):
        if len(candidates) <= 64:
            break
        arr = np.arange(m.n)
        for _ in range(24):
            arr = m.r[rng.randrange(3)][arr]
        u = int(arr[0])
        while u != 0:
            arr = m.r[int(m._tree.gen[u])][arr]
            u = int(m._tree.parent[u])
        assert arr[0] == 0
        candidates = candidates[arr[candidates] == candidates]
    gens, gens_both = [], []
    in_orbit = np.zeros(m.n, dtype=bool)
    ruled_out = np.zeros(m.n, dtype=bool)

    def close(mask, start):
        mask[start] = True
        frontier = np.nonzero(mask)[0]
        while gens_both and frontier.size:
            reached = np.zeros(m.n, dtype=bool)
            for g in gens_both:
                reached[g[frontier]] = True
            frontier = np.flatnonzero(reached & ~mask)
            mask[frontier] = True

    close(in_orbit, 0)
    for c in candidates.tolist():
        if in_orbit[c] or ruled_out[c]:
            continue
        g = _extended(m, m, c)
        if g is None:
            close(ruled_out, c)
            continue
        inv = np.empty(m.n, dtype=np.int64)
        inv[g] = np.arange(m.n)
        gens.append(g)
        gens_both += [g, inv]
        close(in_orbit, 0)
    ids, _ = perms.orbit_ids(m.n, gens)
    return gens, np.asarray(ids, dtype=np.int64)


# -- random connected flag triples -------------------------------------------------

def _relabel(m: FlagMap, p: np.ndarray) -> FlagMap:
    """The map with flag x renamed p[x]."""
    arrays = []
    for r in m.r:
        a = np.empty(m.n, dtype=np.int64)
        a[p] = p[r]
        arrays.append(a)
    return FlagMap(*arrays)


def _matching(rng, flags, fixed_share=0.0) -> list[tuple[int, int]]:
    """Random pairs of ``flags``; each flag stays unpaired with the given
    probability."""
    flags = list(flags)
    rng.shuffle(flags)
    free = [x for x in flags if rng.random() >= fixed_share]
    return list(zip(free[::2], free[1::2]))


def _involution(n, pairs) -> list[int]:
    r = list(range(n))
    for x, y in pairs:
        r[x], r[y] = y, x
    return r


def _random_triple(rng, n_blocks: int, kind: str) -> FlagMap | None:
    """One attempt at a random map; None when the triple is disconnected."""
    r0, r2, sides = [], [], ([], [])
    n = 0
    for _ in range(n_blocks):
        # a block of 4 flags is one edge with both sides and both ends
        size = 4 if kind != "boundary" else int(rng.choice([1, 2, 2, 4, 4]))
        b = list(range(n, n + size))
        if size == 4:
            r0 += [(b[0], b[1]), (b[2], b[3])]
            r2 += [(b[0], b[2]), (b[1], b[3])]
            sides[0].extend((b[0], b[3]))
            sides[1].extend((b[1], b[2]))
        elif size == 2:
            which = int(rng.integers(3))   # r0 only, r2 only, or both
            if which != 1:
                r0.append((b[0], b[1]))
            if which != 0:
                r2.append((b[0], b[1]))
        n += size
    if kind == "orientable":
        a, b = list(sides[0]), list(sides[1])
        rng.shuffle(a)
        rng.shuffle(b)
        r1 = list(zip(a, b))
    else:
        r1 = _matching(rng, range(n), 0.2 if kind == "boundary" else 0.0)
    p = rng.permutation(n)
    arrays = []
    for pairs in (r0, r1, r2):
        arrays.append(_involution(n, [(int(p[x]), int(p[y])) for x, y in pairs]))
    try:
        return FlagMap(*arrays)
    except MapError:
        return None


def _double_cover(m: FlagMap, rng) -> FlagMap | None:
    """Flags (x, t) for t in {0, 1}, with r1 flipping t on a random set of
    r1-orbits; (x, t) -> (x, 1 - t) is then an automorphism.  None when the
    cover is disconnected."""
    n = m.n
    r0, r1, r2 = (arr.tolist() for arr in m.r)
    flip = [0] * n
    for x in range(n):
        if x <= r1[x] and rng.random() < 0.5:
            flip[x] = flip[r1[x]] = 1
    arrays = [[0] * (2 * n) for _ in range(3)]
    for t in (0, 1):
        for x in range(n):
            arrays[0][x + t * n] = r0[x] + t * n
            arrays[2][x + t * n] = r2[x] + t * n
            arrays[1][x + t * n] = r1[x] + (t ^ flip[x]) * n
    try:
        return FlagMap(*arrays)
    except MapError:
        return None


def _random_maps(seed: int, kind: str, count: int, max_blocks: int) -> list[FlagMap]:
    rng = np.random.default_rng(seed)
    maps = []
    while len(maps) < count:
        m = _random_triple(rng, int(rng.integers(1, max_blocks + 1)), kind)
        if m is not None:
            maps.append(m)
    return maps


def _corpus() -> list[FlagMap]:
    maps = []
    for seed, kind in enumerate(("orientable", "closed", "boundary")):
        maps += _random_maps(seed, kind, 12, 50)
    rng = np.random.default_rng(99)
    for m in list(maps[::4]):
        cover = _double_cover(m, rng)
        if cover is not None:
            maps.append(cover)
            again = _double_cover(cover, rng)
            if again is not None and again.n <= 200:
                maps.append(again)
    S4 = realize.sym_group(4)
    witnesses = build.search_epimorphisms("1", S4, limit=None).witnesses
    maps += [build.build_map(build.EpimorphismSpec("1", S4, w)) for w in witnesses[:4]]
    maps += [real.build() for real in realize.edmonds_k8()]  # a chiral pair
    return maps


CORPUS = _corpus()


@pytest.fixture(scope="module", params=["path", "cycle"])
def long_map(request) -> FlagMap:
    return _long_map(request.param == "cycle")


def _long_map(cycle: bool, n: int = 100_000) -> FlagMap:
    """n flags in a row: r0 = r2 pairs 2k with 2k+1, r1 pairs 2k+1 with
    2k+2, and on the cycle also the last flag with flag 0."""
    r0 = np.arange(n) ^ 1
    r1 = np.arange(n)
    r1[1:-1] = np.arange(1, n - 1) + np.where(np.arange(1, n - 1) % 2, 1, -1)
    if cycle:
        r1[0], r1[-1] = n - 1, 0
    return FlagMap(r0, r1, r0.copy())


def test_corpus_covers_sizes_kinds_and_symmetry():
    assert min(m.n for m in CORPUS) <= 4 and max(m.n for m in CORPUS) >= 180
    kinds = {(flagmaps.summary(m).has_boundary, flagmaps.orientation_classes(m) is None)
             for m in CORPUS}
    assert kinds == {(False, False), (False, True), (True, True)}
    assert any(flagmaps.aut_order(m) > 1 and len(set(_row_colors(m))) > 1
               for m in CORPUS)


def test_disconnected_triples_are_rejected():
    rng = np.random.default_rng(5)
    rejected = sum(_random_triple(rng, 6, "boundary") is None for _ in range(50))
    assert rejected > 0
    with pytest.raises(MapError):
        FlagMap([], [], [])


def _assert_tree_matches_python_bfs(m: FlagMap):
    parent, gen = _python_bfs_tree(m)
    assert np.array_equal(m._tree.parent, parent)
    assert np.array_equal(m._tree.gen, gen)
    # each chunk extends from flags reached before it, and every flag is
    # reached exactly once
    reached = np.zeros(m.n, dtype=np.int64)
    reached[0] = 1
    for s, children, parents in m._tree.chunks:
        assert np.array_equal(m.r[s][parents], children)
        assert reached[parents].all()
        reached[children] += 1
    assert np.array_equal(reached, np.ones(m.n))


def test_spanning_tree_matches_python_bfs():
    for m in CORPUS:
        _assert_tree_matches_python_bfs(m)


def test_orbit_ids_on_arrays_match_union_find():
    rng = np.random.default_rng(11)
    for m in CORPUS:
        gens, _ = flagmaps.aut_generators(m)
        arrays = list(m.r) + gens[:2] + [rng.permutation(m.n) for _ in range(2)]
        for k in range(1, 4):
            for subset in itertools.combinations(arrays, k):
                ids, count = perms.orbit_ids(m.n, list(subset))
                assert (ids.tolist(), count) == \
                    perms.orbit_ids(m.n, [a.tolist() for a in subset])


CELLS = ((1, 2), (0, 2), (0, 1))  # vertices, edges, faces


def _assert_cells_match_union_find(m: FlagMap):
    for i, j in CELLS:
        ids, count = perms.involution_orbit_ids(m.r[i], m.r[j])
        assert (ids.tolist(), count) == \
            perms.orbit_ids(m.n, [m.r[i].tolist(), m.r[j].tolist()])


def test_involution_orbit_ids_match_union_find():
    for m in CORPUS:
        _assert_cells_match_union_find(m)


def test_aut_orbit_ids_match_orbits_of_the_generators():
    """Regular maps, maps with two Aut orbits (orbit ids read from flag 0's
    orbit) and maps with more (the general labelling) all appear."""
    shares = set()
    for m in CORPUS:
        gens, ids = flagmaps.aut_generators(m)
        expected = perms.orbit_ids(m.n, gens)[0] if gens else np.arange(m.n)
        assert ids.dtype == np.int64 and np.array_equal(ids, expected)
        shares.add(min(3, m.n // flagmaps.aut_order(m)))
    assert shares == {1, 2, 3}


def test_rooted_match_matches_walk_at_every_root():
    rng = np.random.default_rng(12)
    for m in CORPUS:
        other = _relabel(m, rng.permutation(m.n))
        for m2 in (m, other):
            for c in range(m.n):
                fast = _extended(m, m2, c)
                slow = _walk_match(m, 0, m2, c)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert np.array_equal(fast, slow)


def test_orientation_classes_match_dfs():
    for m in CORPUS:
        fast, slow = flagmaps.orientation_classes(m), _dfs_orientation(m)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert np.array_equal(fast, slow)


def _pairs(rng):
    """(m1, m2) pairs of equal size: relabellings, duals, Petrie duals and
    other random maps."""
    by_size = {}
    for m in CORPUS:
        by_size.setdefault(m.n, []).append(m)
    for m in CORPUS:
        yield m, _relabel(m, rng.permutation(m.n))
        yield m, m.dual()
        yield m, m.petrie()
        for other in by_size[m.n][:3]:
            yield m, other


def test_isomorphism_matches_all_roots():
    rng = np.random.default_rng(13)
    verdicts = set()
    for m1, m2 in _pairs(rng):
        expected = _brute_isomorphic(m1, m2)
        assert flagmaps.is_isomorphic(m1, m2) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_oriented_isomorphism_matches_all_roots():
    rng = np.random.default_rng(14)
    verdicts = set()
    for m1, m2 in _pairs(rng):
        if _dfs_orientation(m1) is None or _dfs_orientation(m2) is None:
            continue
        expected = _brute_isomorphic(m1, m2, oriented=True)
        assert flagmaps.is_isomorphic_oriented(m1, m2) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_invariants_under_relabelling():
    rng = np.random.default_rng(15)
    for m in CORPUS:
        other = _relabel(m, rng.permutation(m.n))
        assert flagmaps.summary(other) == flagmaps.summary(m)
        assert classes.classify(other) == classes.classify(m)
        assert flagmaps.aut_order(other) == flagmaps.aut_order(m)


def test_long_map_kernels_match_oracles(long_map):
    m = long_map
    cycle = m.r[1][0] != 0
    _assert_tree_matches_python_bfs(m)
    _assert_cells_match_union_find(m)
    for subset in ([m.r[0]], [m.r[1]], list(m.r)):
        ids, count = perms.orbit_ids(m.n, subset)
        assert (ids.tolist(), count) == \
            perms.orbit_ids(m.n, [a.tolist() for a in subset])
    fast, slow = flagmaps.orientation_classes(m), _dfs_orientation(m)
    assert (fast is None) == (slow is None) == (not cycle)
    if cycle:
        assert np.array_equal(fast, slow)
    for c in (0, 1, m.n - 1):
        fast, slow = _extended(m, m, c), _walk_match(m, 0, m, c)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert np.array_equal(fast, slow)


def _aut_oracle_maps():
    """Maps with more than 256 candidate images of flag 0: S7-chiral and its
    Petrie dual, sym_class1(6), joins of corpus maps, and random closed maps
    of 300 to 4,000 flags with their double covers."""
    s7 = realize.sym_chiral(7).build()
    yield s7
    yield s7.petrie()
    yield realize.sym_class1(6).build()
    edmonds, mirror = (real.build() for real in realize.edmonds_k8())
    yield flagmaps.join(edmonds, mirror)
    S4 = realize.sym_group(4)
    for w in build.search_epimorphisms("1", S4, limit=None).witnesses[:2]:
        yield flagmaps.join(edmonds, build.build_map(build.EpimorphismSpec("1", S4, w)))
    rng = np.random.default_rng(21)
    for n_blocks in (75, 250, 1000):
        m = None
        while m is None:
            m = _random_triple(rng, n_blocks, "closed")
        yield m
        cover = _double_cover(m, rng)
        if cover is not None:
            yield cover


def test_aut_generators_match_filtered_search():
    sizes = []
    for m in _aut_oracle_maps():
        colors = _row_colors(m)
        assert np.count_nonzero(colors == colors[0]) > 256
        gens, ids = _filtered_aut_generators(FlagMap(*m.r))
        fast_gens, fast_ids = flagmaps.aut_generators(m)
        assert len(fast_gens) == len(gens)
        assert all(np.array_equal(a, b) for a, b in zip(fast_gens, gens))
        assert np.array_equal(fast_ids, ids)
        sizes.append((m.n, len(gens)))
    assert min(n for n, _ in sizes) >= 300 and max(n for n, _ in sizes) >= 8000
    assert any(k == 0 for _, k in sizes) and any(k >= 2 for _, k in sizes)


def _asymmetric_map(n_blocks: int, seed: int) -> FlagMap:
    """Closed edge blocks of 4 flags glued by a random fixed-point-free r1:
    every flag has the same stable colour, and Aut is trivial."""
    rng = np.random.default_rng(seed)
    idx = np.arange(4 * n_blocks)
    while True:
        p = rng.permutation(idx.size)
        r1 = np.empty(idx.size, dtype=np.int64)
        r1[p[0::2]], r1[p[1::2]] = p[1::2], p[0::2]
        try:
            return FlagMap(idx ^ 1, r1, idx ^ 2)
        except MapError:
            continue


@pytest.fixture
def extension_roots(monkeypatch) -> list[int]:
    """The root of every extension test run while the test runs."""
    roots = []
    extension = flagmaps._extension

    def counted(*args):
        roots.append(args[2])
        return extension(*args)

    monkeypatch.setattr(flagmaps, "_extension", counted)
    return roots


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError inside the block once ``seconds`` of wall time
    have passed, so that a search gone quadratic fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_asymmetric_map_needs_few_extension_tests(extension_roots):
    m = _asymmetric_map(5000, 22)
    assert m.n == 20_000 and len(set(_row_colors(m).tolist())) == 1
    assert flagmaps.aut_order(m) == 1
    assert classes.classify(m) is None
    assert len(extension_roots) <= 4


def test_asymmetric_maps_compare_in_few_extension_tests(extension_roots):
    """Every flag of these maps is a root; a failed test at root c rules out
    c and every root its Schreier generator moves."""
    a, b = _asymmetric_map(5000, 22), _asymmetric_map(5000, 23)
    copy = _relabel(a, np.random.default_rng(7).permutation(a.n))
    for m1, m2, verdict in ((a, b, False), (a, copy, True), (copy, a, True)):
        extension_roots.clear()
        assert flagmaps.is_isomorphic(m1, m2) == verdict
        assert len(extension_roots) <= 8, (verdict, len(extension_roots))


def test_long_path_needs_two_extension_tests(extension_roots):
    """The test at flag 1 fails at r1 of flag 0; its Schreier generator r1
    fixes only the two ends of the path, and the far end is the image."""
    m = _long_map(False, 16_000)
    with _deadline(10):
        assert flagmaps.aut_order(m) == 2
    assert extension_roots == [1, m.n - 1]


def _fresh(m: FlagMap) -> FlagMap:
    """The same map with nothing computed but its spanning tree."""
    fresh = FlagMap._derived(*m.r)
    fresh._tree_memo = m._tree
    return fresh


def test_long_map_aut_needs_two_extension_tests(long_map, extension_roots):
    """The path as above; on the cycle flag 1 is the image of a reflection
    and flag 2 of a rotation, which together reach every flag."""
    m = _fresh(long_map)
    cycle = m.r[1][0] != 0
    with _deadline(30):
        assert flagmaps.aut_order(m) == (m.n if cycle else 2)
        assert extension_roots == ([1, 2] if cycle else [1, m.n - 1])
        assert classes.classify(m) == ("1" if cycle else None)


def test_long_map_against_its_petrie_dual_needs_no_extension_test(long_map,
                                                                  extension_roots):
    """r0 = r2, so r0 r2 fixes every flag of the map, and the Petrie dual's
    r0, which is r0 r2, fixes every flag of the dual: the fixed-point counts
    differ, and no root is tested."""
    m = _fresh(long_map)
    with _deadline(30):
        assert not flagmaps.is_isomorphic(m, m.petrie())
        assert not flagmaps.is_isomorphic(m.petrie(), m)
    assert extension_roots == []


def test_match_at_the_first_root_finds_no_automorphism(extension_roots):
    """The cycle is regular, so a relabelled copy matches at root 0: one
    extension test, and Aut of neither map is computed."""
    m = _fresh(_long_map(True))
    copy = _relabel(m, np.random.default_rng(3).permutation(m.n))
    with _deadline(30):
        assert flagmaps.is_isomorphic(m, copy)
    assert extension_roots == [0]
    assert m._aut is None and copy._aut is None


def test_map_layer_makes_no_whole_map_orbit_labelling(monkeypatch):
    """Summaries, and classifying maps with at most two Aut orbits, label no
    orbits over all flags with the general array code: cells come from the
    two-involution kernel and Aut orbits from flag 0's orbit."""
    degrees = []
    labelling = perms._orbit_ids_array

    def counted(degree, gens):
        degrees.append(degree)
        return labelling(degree, gens)

    monkeypatch.setattr(perms, "_orbit_ids_array", counted)
    maps = [real.build() for real in (*realize.edmonds_k8(), realize.sym_chiral(6))]
    for m in maps:
        flagmaps.summary(m)
        assert classes.classify(m) is not None
        assert m.n not in degrees


# -- maps derived without the public constructor's checks ------------------------------

def _witness_maps() -> list[FlagMap]:
    """Built realizations of the seven build shapes, reached by the routes
    "", "D" and "DP"."""
    reals = [realize.sym_class1(4), realize.sym_chiral(6), realize.psl2_class2_q7(),
             realize.sym_even("3", 4), realize.sym_even("2P", 5),
             realize.nilpotent_chiral(4), realize.dihedral_spec(5),
             *realize.edmonds_k8()]
    source = realize.sym_class1(4)
    reals += [realize.propagate(source, t) for t in ("2s", "2P", "4", "4s", "4P")]
    two_pex = realize.edmonds_k8()[0]
    reals += [realize.propagate(two_pex, t) for t in ("2sex", "5", "5s", "5P")]
    assert {real.ops for real in reals} == {"", "D", "DP"}
    return [real.build() for real in reals]


WITNESSES = _witness_maps()


def _assert_eager_tree(m: FlagMap) -> None:
    """m's spanning tree, however it was made, equals the one the public
    constructor builds on the same arrays, array by array and dtype by
    dtype."""
    got, want = m._tree, FlagMap(*m.r)._tree
    assert len(got.chunks) == len(want.chunks)
    pairs = [(got.parent, want.parent), (got.gen, want.gen)]
    for (s, kids, pars), (t, kids2, pars2) in zip(got.chunks, want.chunks):
        assert s == t
        pairs += [(kids, kids2), (pars, pars2)]
    for a, b in pairs:
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _derived_maps():
    """Every kind of map that ``FlagMap._derived`` makes: dual, Petrie dual,
    DP, quotient by Aut, join and ``build.build_map`` (the corpus's S4 maps
    and the witnesses are built ones)."""
    sources = CORPUS + WITNESSES
    for m in sources:
        yield m
        yield m.dual()
        yield m.petrie()
        yield m.dual().petrie()
        yield flagmaps.quotient_by_aut(m)
    for m1, m2 in zip(sources[::5], sources[1::5]):
        if m1.n * m2.n <= 40_000:
            yield flagmaps.join(m1, m2)


def test_derived_maps_pass_the_public_constructor():
    for m in _derived_maps():
        assert FlagMap(*m.r) == m
        assert m.dual()._tree_memo is None and m.petrie()._tree_memo is None
        # the lazy tree is the eager one and the Python BFS
        _assert_eager_tree(m)
        _assert_tree_matches_python_bfs(m)


def test_dual_summary_matches_a_fresh_summary():
    for m in _derived_maps():
        plain = FlagMap(*m.r)
        without = plain.dual()  # no summary of plain yet
        assert without._summary is None
        expected = flagmaps.summary(FlagMap(*without.r))
        assert flagmaps.summary(without) == expected
        flagmaps.summary(plain)
        with_source = plain.dual()
        assert with_source._summary is not None
        assert flagmaps.summary(with_source) == expected
        assert flagmaps.summary(with_source.dual()) == flagmaps.summary(plain)

