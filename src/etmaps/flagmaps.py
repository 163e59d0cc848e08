"""Maps on surfaces as flag sets with three involutions r0, r1, r2.

A map is a transitive action of <R0, R1, R2 | Ri^2 = (R0 R2)^2 = 1> on its
flags.  Vertices, edges and faces are the orbits of <r1,r2>, <r0,r2> and
<r0,r1>; the automorphism group is the centralizer of the monodromy group in
Sym(flags), computed here by color refinement plus exact extension tests.

Disconnected flag triples are rejected at construction; ``join`` is the only
operation that extracts a component.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import perms
from .perms import Perm


class MapError(ValueError):
    pass


class FlagMap:
    """Immutable: n_flags and the three involution image arrays."""

    __slots__ = ("n", "r", "_colors", "_aut")

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
        if perms.orbit_ids(n, [a.tolist() for a in arrs])[1] != 1:
            raise MapError("flag action is not connected")
        self.n = n
        self.r = (r0a, r1a, r2a)
        self._colors = None
        self._aut = None

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_perms(cls, r0: Perm, r1: Perm, r2: Perm) -> "FlagMap":
        return cls(list(r0), list(r1), list(r2))

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
        return FlagMap(self.r[2], self.r[1], self.r[0])

    def petrie(self) -> "FlagMap":
        r0, r1, r2 = self.r
        return FlagMap(r0[r2], r1, r2)


@dataclass
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
    r0, r1, r2 = (arr.tolist() for arr in m.r)
    _, V = perms.orbit_ids(m.n, [r1, r2])
    edge_ids, E = perms.orbit_ids(m.n, [r0, r2])
    _, F = perms.orbit_ids(m.n, [r0, r1])
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
    return MapSummary(m.n, V, E, F, chi, has_boundary, orientable, genus, free_edges)


# -- automorphisms -------------------------------------------------------------

def _stable_colors(m: FlagMap) -> np.ndarray:
    """Color refinement to a stable partition; automorphism orbits refine the
    color classes, so colors are used only to prune candidates."""
    if m._colors is not None:
        return m._colors
    idx = np.arange(m.n)
    r0, r1, r2 = m.r
    colors = ((r0 == idx).astype(np.int64)
              + 2 * (r1 == idx)
              + 4 * (r2 == idx)
              + 8 * (r0[r2] == idx))
    n_colors = len(np.unique(colors))
    while True:
        stacked = np.stack([colors, colors[r0], colors[r1], colors[r2]], axis=1)
        _, new = np.unique(stacked, axis=0, return_inverse=True)
        k = int(new.max()) + 1
        if k == n_colors:
            break
        colors, n_colors = new, k
    m._colors = colors
    return colors


def _rooted_match(m1: FlagMap, root1: int, m2: FlagMap,
                  root2: int) -> np.ndarray | None:
    """The isomorphism commuting with all three involutions that sends flag
    root1 of m1 to root2 of m2, as a flag image array, or None.  It is unique
    when it exists, since the flag action is connected; with m1 = m2 and
    root1 = 0 it is the automorphism sending flag 0 to root2."""
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


def _stabilizer_filter(m: FlagMap, candidates: np.ndarray,
                       rounds: int = 8) -> np.ndarray:
    """Shrink the candidate images of flag 0 using random elements of its
    monodromy stabilizer, evaluated as whole flag arrays.

    An automorphism maps flag 0 to c only if every word fixing 0 also fixes
    c, so candidates moved by a stabilizer element are discarded exactly.
    """
    import random
    rng = random.Random(12345)
    n = m.n
    # BFS spanning tree from flag 0: parent flag and generator label
    parent = np.full(n, -1, dtype=np.int64)
    psym = np.zeros(n, dtype=np.int8)
    parent[0] = 0
    frontier = [0]
    order_oldest_first = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i, arr in enumerate(m.r):
                y = int(arr[x])
                if parent[y] == -1 and y != 0:
                    parent[y] = x
                    psym[y] = i
                    nxt.append(y)
        frontier = nxt
        order_oldest_first.extend(nxt)
    for _ in range(rounds):
        if len(candidates) <= 64:
            break
        word = [rng.randrange(3) for _ in range(24)]
        arr = np.arange(n)
        for s in word:
            arr = m.r[s][arr]
        # walk the tree path from arr[0] back to the root
        u = int(arr[0])
        path = []
        while u != 0:
            path.append(int(psym[u]))
            u = int(parent[u])
        for s in path:
            arr = m.r[s][arr]
        if int(arr[0]) != 0:
            raise AssertionError("stabilizer walk failed to close")
        candidates = candidates[arr[candidates] == candidates]
    return candidates


def aut_generators(m: FlagMap) -> tuple[list[np.ndarray], np.ndarray]:
    """Generators of Aut(m) and the orbit id array of its action on flags.

    Candidates for the image of flag 0 are pruned by stable colors, by random
    stabilizer elements, and by the orbit already generated; the extension
    test is exact, so the pruning never affects the result.  Aut acts
    semiregularly: |Aut| = orbit size of flag 0.
    """
    if m._aut is not None:
        return m._aut
    colors = _stable_colors(m)
    candidates = np.nonzero(colors == colors[0])[0]
    if len(candidates) > 256:
        candidates = _stabilizer_filter(m, candidates)
    gens: list[np.ndarray] = []
    gens_both: list[np.ndarray] = []  # generators and their inverses
    in_orbit = np.zeros(m.n, dtype=bool)
    in_orbit[0] = True
    ruled_out = np.zeros(m.n, dtype=bool)

    def close(mask, start):
        mask[start] = True
        if not gens_both:
            return
        # reprocess everything marked: a newly found generator may map old
        # orbit members to flags unreachable through unmarked nodes alone
        frontier = np.nonzero(mask)[0]
        while frontier.size:
            images = np.concatenate([g[frontier] for g in gens_both])
            new = np.unique(images[~mask[images]])
            mask[new] = True
            frontier = new

    for cand in candidates:
        c = int(cand)
        if in_orbit[c] or ruled_out[c]:
            continue
        g = _rooted_match(m, 0, m, c)
        if g is not None:
            inv = np.empty(m.n, dtype=np.int64)
            inv[g] = np.arange(m.n)
            gens.append(g)
            gens_both.extend((g, inv))
            close(in_orbit, 0)
        else:
            # if h(0) is a valid image for h in the group found so far and
            # a(0) = h(c) succeeded, then h^-1 a would map 0 to c; so the
            # whole current orbit of a failed candidate fails with it
            close(ruled_out, c)
    ids, _ = perms.orbit_ids(m.n, [g.tolist() for g in gens])
    m._aut = (gens, np.asarray(ids, dtype=np.int64))
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
    elems = perms.bfs_closure([tuple(int(x) for x in g) for g in gens], cap=m.n + 1)
    return sorted(elems)


def is_regular(m: FlagMap) -> bool:
    return aut_order(m) == m.n


def is_edge_transitive(m: FlagMap) -> bool:
    """Aut transitive on edges: the edge orbits and the Aut orbits together
    connect all flags."""
    gens, _ = aut_generators(m)
    arrays = [m.r[0], m.r[2]] + list(gens)
    return perms.orbit_ids(m.n, [a.tolist() for a in arrays])[1] == 1


def quotient_by_aut(m: FlagMap) -> FlagMap:
    """Flags = Aut-orbits with the induced involutions; well defined because
    Aut centralizes the monodromy group."""
    _, orbit_ids = aut_generators(m)
    k = int(orbit_ids.max()) + 1
    rep = np.zeros(k, dtype=np.int64)
    seen = np.zeros(k, dtype=bool)
    for flag in range(m.n):
        o = int(orbit_ids[flag])
        if not seen[o]:
            seen[o] = True
            rep[o] = flag
    new_r = []
    for arr in m.r:
        img = orbit_ids[arr[rep]]
        new_r.append(img)
        # well defined iff r_i maps orbits onto orbits at every flag
        if not np.array_equal(orbit_ids[arr], img[orbit_ids]):
            raise MapError("automorphism orbits not compatible with monodromy")
    return FlagMap(new_r[0], new_r[1], new_r[2])


# -- isomorphism and join ------------------------------------------------------

def is_isomorphic(m1: FlagMap, m2: FlagMap) -> bool:
    if m1.n != m2.n:
        return False
    c1 = _stable_colors(m1)
    c2 = _stable_colors(m2)
    if sorted(np.bincount(c1).tolist()) != sorted(np.bincount(c2).tolist()):
        return False
    # color refinement is canonical, so an isomorphism maps a flag only to a
    # flag of the same color
    roots = np.nonzero(c1 == c2[0])[0]
    return any(_rooted_match(m1, int(root), m2, 0) is not None for root in roots)


def orientation_classes(m: FlagMap) -> np.ndarray | None:
    """The 2-coloring of flags swapped by every r_i (flag 0 colored 0), or
    None when the map has boundary or is non-orientable."""
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
    return any(_rooted_match(m1, int(root), m2, 0) is not None
               for root in np.nonzero(c1 == 0)[0])


def join(m1: FlagMap, m2: FlagMap) -> FlagMap:
    """Connected component of (flag 0, flag 0) under the diagonal action
    r_i(x, y) = (r_i x, r_i y)."""
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
    n = len(order)
    new_r = []
    for arr1, arr2 in zip(m1.r, m2.r):
        img = [index[(int(arr1[x]), int(arr2[y]))] for x, y in order]
        new_r.append(img)
    return FlagMap(new_r[0], new_r[1], new_r[2])
