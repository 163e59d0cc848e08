"""Maps on surfaces as flag sets with three involutions r0, r1, r2.

A map is a transitive action of <R0, R1, R2 | Ri^2 = (R0 R2)^2 = 1> on its
flags.  Vertices, edges and faces are the orbits of <r1,r2>, <r0,r2> and
<r0,r1>; the automorphism group is the centralizer of the monodromy group in
Sym(flags), computed here by exact extension tests, each failure pruning
the candidates by the Schreier generator it exposes.

Every map caches one BFS spanning tree of its flag graph from flag 0.  The
extension walk and the orientation colouring run on it layer by layer as
array gathers; a failed extension test walks its paths to build a word
fixing flag 0.  The public constructor checks the involutions and builds the
tree at once, since a tree that misses some flag is how disconnected triples
are rejected.  Maps derived from a valid map or spec (dual, Petrie dual,
quotient, join, ``build.build_map``) skip the checks through
``FlagMap._derived`` and build their tree on first use; each caller's proof
of validity is in docs/decisions.md.  ``join`` is the only operation that
extracts a component, by the same BFS order run layer by layer on packed
int64 pair keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import perms
from .perms import Perm


class MapError(ValueError):
    pass


class _Tree(NamedTuple):
    """BFS spanning tree of the flag graph from flag 0.  Flags are discovered
    by frontier position, then generator 0, 1, 2, first discovery winning.

    ``parent[y]`` and ``gen[y]`` give the tree edge y = r_gen(parent); flag 0
    is its own parent.  ``chunks`` lists, layer by layer, one
    ``(generator, children, parents)`` triple per generator in use, so a map
    defined on one layer extends to the next by one gather per chunk.
    """

    parent: np.ndarray
    gen: np.ndarray
    chunks: tuple[tuple[int, np.ndarray, np.ndarray], ...]


def _spanning_tree(r: tuple[np.ndarray, ...], n: int) -> _Tree | None:
    """The BFS tree of :class:`_Tree` (:func:`perms.point_closure` from flag
    0), or None when it misses some flag."""
    if n == 0:
        return None
    images = np.stack(r, axis=1, dtype=np.int32)  # row x: r0[x], r1[x], r2[x]
    reached = np.zeros(n, dtype=bool)
    parent = np.zeros(n, dtype=np.int32)
    gen = np.zeros(n, dtype=np.int8)
    chunks = []
    for children, parents, gens in perms.point_closure(
            images, reached, np.zeros(1, dtype=np.int32)):
        parent[children] = parents
        gen[children] = gens
        by_gen = np.argsort(gens, kind="stable")
        kids, pars = children[by_gen], parents[by_gen]
        start = 0
        for s, count in enumerate(np.bincount(gens, minlength=3).tolist()):
            if count:
                chunks.append((s, kids[start:start + count], pars[start:start + count]))
                start += count
    return _Tree(parent, gen, tuple(chunks)) if reached.all() else None


class FlagMap:
    """Immutable: n_flags, the three involution image arrays and the cached
    BFS spanning tree of the flag graph."""

    __slots__ = ("n", "r", "_tree_memo", "_aut", "_summary")

    def __init__(self, r0: Sequence[int], r1: Sequence[int], r2: Sequence[int]):
        arrs = []
        n = len(r0)
        for name, ri in (("r0", r0), ("r1", r1), ("r2", r2)):
            a = np.asarray(ri, dtype=np.int64)
            if a.shape != (n,):
                raise MapError("r0, r1, r2 must have one common length")
            if not np.array_equal(a[a], np.arange(n)):
                raise MapError(f"{name} is not an involution")
            arrs.append(a)
        r0a, r1a, r2a = arrs
        if not np.array_equal(r0a[r2a], r2a[r0a]):
            raise MapError("(r0 r2)^2 = 1 fails")
        tree = _spanning_tree((r0a, r1a, r2a), n)
        if tree is None:
            raise MapError("flag action is not connected")
        self._set((r0a, r1a, r2a), tree)

    def _set(self, r: tuple[np.ndarray, ...], tree: _Tree | None) -> None:
        self.n = len(r[0])
        self.r = r
        self._tree_memo = tree
        self._aut = None
        self._summary = None

    @classmethod
    def _derived(cls, r0: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> "FlagMap":
        """The map on int64 arrays that the caller has proved to be three
        involutions with (r0 r2)^2 = 1 acting transitively on the flags.
        Nothing is checked, and the tree is built on first use.
        Only the derivations of docs/decisions.md call this."""
        m = cls.__new__(cls)
        m._set((r0, r1, r2), None)
        return m

    @property
    def _tree(self) -> _Tree:
        if self._tree_memo is None:
            self._tree_memo = _spanning_tree(self.r, self.n)
        return self._tree_memo

    # -- construction helpers --------------------------------------------------

    def perm(self, i: int) -> Perm:
        return tuple(int(x) for x in self.r[i])

    def to_json(self) -> dict:
        return {"flags": self.n, "r0": self.r[0].tolist(),
                "r1": self.r[1].tolist(), "r2": self.r[2].tolist()}

    @classmethod
    def from_json(cls, obj) -> "FlagMap":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise MapError("a map must be a JSON object with r0, r1, r2 and flags")
        missing = [k for k in ("r0", "r1", "r2", "flags") if k not in obj]
        if missing:
            raise MapError(f"map JSON lacks {', '.join(missing)}")
        for name in ("r0", "r1", "r2"):
            arr = obj[name]
            if not isinstance(arr, list) or not all(
                    type(i) is int and 0 <= i < len(arr) for i in arr):
                raise MapError(f"{name} must be a list of flag indices from 0 "
                               f"to its length - 1")
        m = cls(obj["r0"], obj["r1"], obj["r2"])
        if m.n != obj["flags"]:
            raise MapError("flags field does not match array length")
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, FlagMap) and all(
            np.array_equal(a, b) for a, b in zip(self.r, other.r))

    def __hash__(self):
        return hash((self.n,) + tuple(self.perm(i) for i in range(3)))

    def __repr__(self):
        return f"FlagMap(n_flags={self.n})"

    # -- operations -------------------------------------------------------------

    def dual(self) -> "FlagMap":
        d = FlagMap._derived(self.r[2], self.r[1], self.r[0])
        s = self._summary
        if s is not None:
            d._summary = replace(s, V=s.F, F=s.V)
        return d

    def petrie(self) -> "FlagMap":
        r0, r1, r2 = self.r
        return FlagMap._derived(r0[r2], r1, r2)


@dataclass(frozen=True)
class MapSummary:
    flags: int
    V: int
    E: int
    F: int
    euler_char: int
    has_boundary: bool
    orientable_no_boundary: bool
    genus: tuple[str, int] | None  # ("orientable", g) or ("non_orientable", g)
    free_edges: int  # edge orbits of size < 4

    def to_json(self) -> dict:
        genus = None
        if self.genus is not None:
            genus = {"kind": self.genus[0], "value": self.genus[1]}
        return {"flags": self.flags, "V": self.V, "E": self.E, "F": self.F,
                "chi": self.euler_char, "has_boundary": self.has_boundary,
                "orientable_no_boundary": self.orientable_no_boundary,
                "genus": genus, "free_edges": self.free_edges}


def summary(m: FlagMap) -> MapSummary:
    """V, E, F, Euler characteristic, boundary, orientability, genus and free
    edges; computed once per map and shared with its dual."""
    if m._summary is not None:
        return m._summary
    r0, r1, r2 = m.r
    _, V = perms.involution_orbit_ids(r1, r2)
    edge_ids, E = perms.involution_orbit_ids(r0, r2)
    _, F = perms.involution_orbit_ids(r0, r1)
    chi = V - E + F
    has_boundary = any(bool(np.any(arr == np.arange(m.n))) for arr in m.r)
    orientable = orientation_classes(m) is not None
    sizes = np.bincount(edge_ids, minlength=E)
    free_edges = int(np.sum(sizes < 4))
    genus: tuple[str, int] | None = None
    if not has_boundary:
        if orientable:
            genus = ("orientable", (2 - chi) // 2)
        else:
            genus = ("non_orientable", 2 - chi)
    m._summary = MapSummary(m.n, V, E, F, chi, has_boundary, orientable, genus,
                            free_edges)
    return m._summary


# -- automorphisms -------------------------------------------------------------

def _extension(m1: FlagMap, m2: FlagMap,
               root2: int) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The flag map a with a[0] = root2 extended along m1's spanning tree
    (one gather per chunk, so a[r_s x] = r_s a[x] on every tree edge), and
    its first defect: the least s, then the least x, with a[r_s x] !=
    r_s a[x].  The defect is None exactly when a is an isomorphism m1 -> m2;
    m1 and m2 must have the same number of flags."""
    a = np.empty(m1.n, dtype=np.int64)
    a[0] = root2
    for s, children, parents in m1._tree.chunks:
        a[children] = m2.r[s][a[parents]]
    for s, (arr1, arr2) in enumerate(zip(m1.r, m2.r)):
        bad = a[arr1] != arr2[a]
        if bad.any():
            return a, (s, int(bad.argmax()))
    return a, None


def _path_to_root(m: FlagMap, x: int) -> list[int]:
    """The generator labels on the tree path from flag x back to flag 0."""
    parent, gen = m._tree.parent, m._tree.gen
    word = []
    while x:
        word.append(int(gen[x]))
        x = int(parent[x])
    return word


def _rule_out_moved(m_from: FlagMap, m_to: FlagMap, defect: tuple[int, int],
                    undecided: np.ndarray) -> None:
    """Drop from ``undecided`` every flag of m_to moved by the Schreier
    generator of a failed extension from m_from into m_to: the monodromy
    word σ of the closed walk 0 -> x -> r_s x -> 0 along m_from's tree,
    where (s, x) is the defect.  σ fixes flag 0 of m_from, so an
    isomorphism φ: m_from -> m_to has σ(φ(0)) = φ(σ(0)) = φ(0), and no image
    of flag 0 is dropped; σ moves the failed root (docs/decisions.md)."""
    s, x = defect
    word = _path_to_root(m_from, x)[::-1] + [s] + _path_to_root(m_from, int(m_from.r[s][x]))
    rest = np.flatnonzero(undecided)
    image = rest
    for t in word:
        image = m_to.r[t][image]
    undecided[rest[image != rest]] = False


def aut_generators(m: FlagMap) -> tuple[list[np.ndarray], np.ndarray]:
    """Generators of Aut(m) and the orbit id array of its action on flags.

    Each step tests the least candidate image c of flag 0 outside the orbit
    generated so far and not ruled out; every flag but 0 starts as a
    candidate.  A failed test rules out the current orbit of c, and every
    candidate moved by the Schreier generator of its first defect
    (:func:`_rule_out_moved`).  Only non-images are ruled out, so the k-th
    generator is always the automorphism sending 0 to the least image
    outside the orbit of the first k - 1 (proof in docs/decisions.md).  Aut
    acts semiregularly: |Aut| = orbit size of flag 0.
    """
    if m._aut is not None:
        return m._aut
    undecided = np.ones(m.n, dtype=bool)
    undecided[0] = False
    gens: list[np.ndarray] = []
    # columns: the generators; Aut is finite, so their inverses add no point
    images = np.empty((m.n, 0), dtype=np.int32)
    in_orbit = np.zeros(m.n, dtype=bool)
    in_orbit[0] = True
    ruled_out = np.zeros(m.n, dtype=bool)

    def close(mask, start):
        mask[start] = True
        # from everything marked: a newly found generator may map old orbit
        # members to flags unreachable through unmarked ones alone
        for _ in perms.point_closure(images, mask, np.flatnonzero(mask)):
            pass

    c = 0
    while undecided[c + 1:].any():
        # the least undecided candidate lies above the last one tested: each
        # test decides its candidate, and no flag becomes undecided again
        c += 1 + int(undecided[c + 1:].argmax())
        g, defect = _extension(m, m, c)
        if defect is None:
            gens.append(g)
            images = np.concatenate((images, g[:, None]), axis=1, dtype=np.int32)
            close(in_orbit, 0)
            undecided &= ~in_orbit
            continue
        # if h(0) is a valid image for h in the group found so far and
        # a(0) = h(c) succeeded, then h^-1 a would map 0 to c; so the
        # whole current orbit of a failed candidate fails with it
        close(ruled_out, c)
        undecided &= ~ruled_out
        _rule_out_moved(m, m, defect, undecided)
    if 2 * np.count_nonzero(in_orbit) >= m.n:
        # every orbit of a semiregular action has the size of flag 0's, so
        # its complement is the other orbit, if any
        ids = (~in_orbit).astype(np.int64)
    else:
        ids = perms.orbit_ids(m.n, gens)[0] if gens else np.arange(m.n)
    m._aut = (gens, ids)
    return m._aut


def aut_order(m: FlagMap) -> int:
    _, orbit_ids = aut_generators(m)
    return int(np.sum(orbit_ids == orbit_ids[0]))


def automorphisms(m: FlagMap) -> list[Perm]:
    """All automorphisms, as flag permutations, sorted; |result| divides
    n_flags.  Intended for small maps; use :func:`aut_order` for counts."""
    gens, _ = aut_generators(m)
    if not gens:
        return [tuple(range(m.n))]
    return sorted(map(tuple, perms.bfs_closure(gens).rows.tolist()))


def is_regular(m: FlagMap) -> bool:
    return aut_order(m) == m.n


def quotient_by_aut(m: FlagMap) -> FlagMap:
    """Flags = Aut-orbits with the induced involutions; well defined because
    Aut centralizes the monodromy group."""
    _, orbit_ids = aut_generators(m)
    _, rep = np.unique(orbit_ids, return_index=True)  # least flag of each orbit
    new_r = []
    for arr in m.r:
        img = orbit_ids[arr[rep]]
        new_r.append(img)
        # well defined iff r_i maps orbits onto orbits at every flag
        if not np.array_equal(orbit_ids[arr], img[orbit_ids]):
            raise MapError("automorphism orbits not compatible with monodromy")
    return FlagMap._derived(new_r[0], new_r[1], new_r[2])


# -- isomorphism and join ------------------------------------------------------

def _fixed_counts(m: FlagMap) -> np.ndarray:
    """How many flags have each fixed-point pattern: bit i set when r_i
    fixes the flag, bit 3 when r0 r2 does.  Isomorphisms keep the pattern."""
    idx = np.arange(m.n)
    r0, r1, r2 = m.r
    pattern = (r0 == idx) + 2 * (r1 == idx) + 4 * (r2 == idx) + 8 * (r0[r2] == idx)
    return np.bincount(pattern, minlength=16)


def is_isomorphic(m1: FlagMap, m2: FlagMap) -> bool:
    if m1.n != m2.n or not np.array_equal(_fixed_counts(m1), _fixed_counts(m2)):
        return False
    return _any_root_matches(m1, m2, np.ones(m1.n, dtype=bool))


def _any_root_matches(m1: FlagMap, m2: FlagMap, roots: np.ndarray) -> bool:
    """Is there an isomorphism m2 -> m1 sending flag 0 to a flag of the mask
    ``roots``, which the search clears as it goes?  m1 and m2 have the same
    number of flags, and the inverse of a match is an isomorphism m1 -> m2.

    The least undecided root c is tested.  A failure rules out the
    Aut(m1)-orbit of c (if a: m2 -> m1 sent 0 to h(c) with h in Aut(m1),
    h^-1 a would send 0 to c), and every root moved by the Schreier
    generator of the failure (:func:`_rule_out_moved`).  The Aut orbits are
    found only once a root has failed: a match at the first root needs none."""
    orbit_ids = None
    while roots.any():
        c = int(roots.argmax())
        _, defect = _extension(m2, m1, c)
        if defect is None:
            return True
        if orbit_ids is None:
            orbit_ids = aut_generators(m1)[1]
        roots &= orbit_ids != orbit_ids[c]
        _rule_out_moved(m2, m1, defect, roots)
    return False


def orientation_classes(m: FlagMap) -> np.ndarray | None:
    """The 2-coloring of flags swapped by every r_i (flag 0 colored 0), or
    None when the map has boundary or is non-orientable.  Such a coloring is
    the parity of the depth in the spanning tree, if any."""
    color = np.zeros(m.n, dtype=np.int8)
    for _, children, parents in m._tree.chunks:
        color[children] = color[parents] ^ 1
    for arr in m.r:
        if np.any(color[arr] == color):
            return None
    return color


def is_isomorphic_oriented(m1: FlagMap, m2: FlagMap) -> bool:
    """Isomorphism of oriented maps: a flag bijection commuting with the
    involutions that maps the orientation class of flag 0 to the orientation
    class of flag 0.  A chiral map is not oriented-isomorphic to its mirror
    even though the unoriented flag structures always are."""
    c1 = orientation_classes(m1)
    c2 = orientation_classes(m2)
    if c1 is None or c2 is None:
        raise MapError("oriented isomorphism needs orientable maps without boundary")
    if m1.n != m2.n:
        return False
    return _any_root_matches(m1, m2, c1 == 0)


def join(m1: FlagMap, m2: FlagMap) -> FlagMap:
    """Connected component of (flag 0, flag 0) under the diagonal action
    r_i(x, y) = (r_i x, r_i y).

    Flags are numbered in BFS order from (0, 0): by frontier position, then
    generator 0, 1, 2, first discovery winning.  The BFS runs a layer at a
    time on int64 pair keys x * m2.n + y.  Every r_i is an involution, so
    the pair graph is undirected and a candidate reached from layer L lies
    in layer L-1, L or L+1: the new keys are found by sorting the candidates
    with the keys of the last two layers alone, and no visited array over
    all n1 * n2 pairs is needed.  Each r_i permutes the component's keys, so
    its image array follows from sorting the candidate keys once at the end.    """
    n2 = m2.n
    images1 = np.stack(m1.r, axis=1)  # row x: r0[x], r1[x], r2[x]
    images2 = np.stack(m2.r, axis=1)
    frontier = np.zeros(1, dtype=np.int64)
    recent = frontier  # keys of the last two layers
    layers, candidates = [], []
    while frontier.size:
        layers.append(frontier)
        x, y = np.divmod(frontier, n2)
        cand = (images1[x] * n2 + images2[y]).ravel()  # (position, generator)
        candidates.append(cand)
        # the least pool position holding each key: a known key's lies in
        # ``recent``, a new key's is its first candidate position
        pool = np.concatenate((recent, cand))
        order = np.argsort(pool)
        keys = pool[order]
        runs = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        least = np.minimum.reduceat(order, runs)
        new = cand[np.sort(least[least >= recent.size]) - recent.size]
        recent = np.concatenate((frontier, new))
        frontier = new
    flags = np.concatenate(layers)
    by_key = np.argsort(flags)
    new_r = np.empty((3, flags.size), dtype=np.int64)
    # the j-th least image key under r_i is the j-th least flag key
    for img, keys in zip(new_r, np.concatenate(candidates).reshape(-1, 3).T):
        img[np.argsort(keys)] = by_key
    return FlagMap._derived(new_r[0], new_r[1], new_r[2])
