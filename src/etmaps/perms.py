"""Permutation arithmetic and permutation-group queries.

Permutations are tuples of images on 0-indexed points: ``p[i]`` is the image
of ``i``.  Composition is left-to-right, ``compose(p, q)`` applies ``p``
first.  All I/O (cycle strings, JSON examples) uses 1-indexed points and is
converted at the boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

import numpy as np

Perm = tuple[int, ...]


class CapExceeded(Exception):
    """A group's order exceeds its element cap.  Signals the bound, not a
    failure."""

    def __init__(self, cap: int):
        super().__init__(f"group order exceeds cap of {cap} elements")
        self.cap = cap


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_perm(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def check_perm(p: Sequence[int]) -> Perm:
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in p) \
            or not is_perm(p):
        raise ValueError(f"not a permutation: {p!r}")
    return tuple(p)


def compose(p: Perm, q: Perm) -> Perm:
    """p then q: ``compose(p, q)[i] = q[p[i]]``."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(map(q.__getitem__, p))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def power(p: Perm, k: int) -> Perm:
    if k < 0:
        return power(inverse(p), -k)
    result = identity(len(p))
    base = p
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def cycles(p: Perm) -> list[list[int]]:
    """Cycle decomposition including fixed points, each cycle from its least
    point, cycles ordered by least point."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(cyc)
    return out


def cycle_structure(p: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths (fixed points as 1-cycles), sorted."""
    return tuple(sorted(len(c) for c in cycles(p)))


def order_of(p: Perm) -> int:
    o = 1
    for c in cycles(p):
        o = o * len(c) // gcd(o, len(c))
    return o


def sign(p: Perm) -> int:
    """+1 for even, -1 for odd; multiplicative under compose."""
    return -1 if (len(p) - len(cycles(p))) % 2 else 1


def parity(p: Perm) -> str:
    return "even" if sign(p) == 1 else "odd"


def is_involution(p: Perm) -> bool:
    return all(p[p[i]] == i for i in range(len(p)))


# -- cycle-string and JSON boundary (1-indexed externally) -------------------

def parse_cycles(s: str, degree: int) -> Perm:
    """Parse 1-indexed cycle notation like ``(1,2)(3,5)``; whitespace is
    ignored; ``()`` or an empty string is the identity."""
    s = "".join(s.split())
    images = list(range(degree))
    if s in ("", "()", "e", "id"):
        return tuple(images)
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"bad cycle string: {s!r}")
    for part in s[1:-1].split(")("):
        if not part:
            continue
        pts = [int(tok) - 1 for tok in part.split(",")]
        if any(t < 0 or t >= degree for t in pts):
            raise ValueError(f"point out of range 1..{degree} in {s!r}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {part!r}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            if images[a] != a:
                raise ValueError(f"point {a + 1} in two cycles of {s!r}")
            images[a] = b
    return check_perm(images)


def format_cycles(p: Perm) -> str:
    parts = ["(" + ",".join(str(i + 1) for i in c) + ")" for c in cycles(p) if len(c) > 1]
    return "".join(parts) if parts else "()"


def perm_to_json(p: Perm) -> dict:
    return {"degree": len(p), "images": list(p)}


def perm_from_json(obj) -> Perm:
    if isinstance(obj, str):
        obj = json.loads(obj)
    p = check_perm(obj["images"])
    if len(p) != obj["degree"]:
        raise ValueError("degree field does not match images length")
    return p


@dataclass(frozen=True)
class PermGroupSpec:
    """A permutation group given by generators of a common degree."""

    degree: int
    generators: tuple[Perm, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("at least one generator required")
        for g in self.generators:
            check_perm(g)
            if len(g) != self.degree:
                raise ValueError("generator degree mismatch")


def group_spec(gens: Iterable[Sequence[int]]) -> PermGroupSpec:
    gens = tuple(tuple(g) for g in gens)
    return PermGroupSpec(len(gens[0]), gens)


# -- orbits, blocks, primitivity ---------------------------------------------

def _find(parent: list[int], x: int) -> int:
    """Union-find root of ``x``, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _numbered(parent: list[int]) -> tuple[list[int], int]:
    """Class ids of a union-find forest whose roots are least members,
    numbered by least member, and the class count."""
    ids = [0] * len(parent)
    count = 0
    for i in range(len(parent)):
        r = _find(parent, i)
        if r == i:
            ids[i] = count
            count += 1
        else:
            ids[i] = ids[r]
    return ids, count


def _parts(ids: list[int], count: int) -> list[list[int]]:
    parts: list[list[int]] = [[] for _ in range(count)]
    for i, k in enumerate(ids):
        parts[k].append(i)
    return parts


def orbit_ids(degree: int, gens: Sequence[Sequence[int]]) -> tuple[Sequence[int], int]:
    """Orbit id of every point under the generated group, numbered by least
    member from 0, and the orbit count.  ``gens`` may be any integer
    sequences; no generators leaves every point in its own orbit.

    Numpy arrays (flag maps, conjugation actions on element ids) are
    labelled by array code and the ids come back as an int64 array.  Tuples
    and lists (the search's many calls on a handful of points, where numpy's
    fixed cost per call would dominate) go through the union-find and the
    ids come back as a list."""
    if gens and isinstance(gens[0], np.ndarray):
        return _orbit_ids_array(degree, gens)
    parent = list(range(degree))
    for g in gens:
        for i, j in enumerate(g):
            ri, rj = _find(parent, i), _find(parent, j)
            if ri < rj:
                parent[rj] = ri
            elif rj < ri:
                parent[ri] = rj
    return _numbered(parent)


def _orbit_ids_array(degree: int, gens: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """:func:`orbit_ids` by array code.  Each label names a point of the same
    orbit, no larger than the point itself.  Across every generator edge the
    larger label is hooked to the smaller, then labels are pointer-jumped to
    a fixed point; when no edge joins two labels, each orbit is labelled by
    its least member."""
    label = np.arange(degree)
    while True:
        hooked = False
        for g in gens:
            other = label[g]
            differ = label != other
            if differ.any():
                a, b = label[differ], other[differ]
                np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
                hooked = True
        if not hooked:
            break
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    roots = label == np.arange(degree)
    number = np.cumsum(roots) - 1
    return number[label], int(roots.sum())


def orbits(degree: int, gens: Sequence[Perm]) -> list[list[int]]:
    """Finest partition closed under all generators; parts sorted, listed by
    least element."""
    return _parts(*orbit_ids(degree, gens))


def is_transitive(degree: int, gens: Sequence[Perm]) -> bool:
    return orbit_ids(degree, gens)[1] == 1


def block_system(degree: int, gens: Sequence[Perm], alpha: int, beta: int) -> list[list[int]]:
    """Finest block system whose block containing ``alpha`` also contains
    ``beta`` (union-find refinement).  Requires a transitive group."""
    if not is_transitive(degree, gens):
        raise ValueError("block_system requires a transitive group")
    parent = list(range(degree))
    # a pair whose classes merge forces the classes of its images to merge
    queue = [(alpha, beta)]
    while queue:
        x, y = queue.pop()
        rx, ry = _find(parent, x), _find(parent, y)
        if rx == ry:
            continue
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        queue.extend((g[rx], g[ry]) for g in gens)
    return _parts(*_numbered(parent))


def is_primitive(degree: int, gens: Sequence[Perm]) -> bool:
    """Transitive with no nontrivial block system.  Intransitive input is an
    error."""
    if not is_transitive(degree, gens):
        raise ValueError("primitivity is only defined for transitive groups")
    if degree == 1:
        return True
    for beta in range(1, degree):
        if len(block_system(degree, gens, 0, beta)) > 1:
            return False
    return True


# -- closure / group order ----------------------------------------------------

PACKED_DEGREE = 16  # up to here a point fits in 4 bits, a permutation in 64


def row_dtype(degree: int) -> type:
    """The narrowest unsigned dtype that holds every point of ``degree``."""
    return np.uint8 if degree <= 1 << 8 else np.uint16 if degree <= 1 << 16 else np.uint32


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per row of a (k, degree) permutation matrix, equal
    exactly when the rows are.  Up to :data:`PACKED_DEGREE` points a row is
    packed into a uint64 (point i in bits 4i..4i+3); above it the key is the
    row's bytes as one void scalar."""
    if rows.shape[1] <= PACKED_DEGREE:
        shifts = np.arange(rows.shape[1], dtype=np.uint64) * np.uint64(4)
        return np.bitwise_or.reduce(rows.astype(np.uint64) << shifts, axis=1)
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def bfs_closure(gens: Sequence[Perm]) -> np.ndarray:
    """The elements of the generated group as the rows of a (|G|, degree)
    matrix of dtype :func:`row_dtype`, in deterministic BFS order: by word
    length, then by the position of the shorter word in its layer, then by
    generator index, the first discovery of an element winning.

    One layer is one gather: row ``f * k + j`` of the candidates is frontier
    row ``f`` followed by generator ``j``.  A generator need not be an
    involution, so a candidate may lie in any earlier layer; candidates whose
    key is in the sorted keys of all earlier layers are dropped, and of the
    rest the first occurrence of each key, in candidate order, is the next
    layer.  The numbering is that of the element-by-element BFS
    (``docs/decisions.md``)."""
    degree = len(gens[0])
    gens = np.array(gens, dtype=row_dtype(degree))
    layer = np.arange(degree, dtype=gens.dtype)[None]
    layers = [layer]
    seen = row_keys(layer)  # sorted keys of every layer so far
    while len(layer):
        # compose(x, g)[i] = g[x[i]]: (k, f, degree) gathered, then frontier-major
        cand = gens[:, layer].swapaxes(0, 1).reshape(-1, degree)
        keys = row_keys(cand)
        by_key = np.argsort(keys, kind="stable")  # equal keys in candidate order
        keys = keys[by_key]
        at = np.searchsorted(seen, keys)
        new = seen[np.minimum(at, len(seen) - 1)] != keys
        new[1:] &= keys[1:] != keys[:-1]
        seen = np.insert(seen, at[new], keys[new])
        layer = cand[np.sort(by_key[new])]
        layers.append(layer)
    return np.concatenate(layers)


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    fixing every earlier base point, and an explicit transversal mapping each
    orbit point ``q`` to ``(u, u^-1)`` with ``u[base] == q``."""

    __slots__ = ("base", "gens", "orbit", "trans", "pending")

    def __init__(self, base: int, ident: Perm):
        self.base = base
        self.gens: list[Perm] = []
        self.orbit = [base]
        self.trans: dict[int, tuple[Perm, Perm]] = {base: (ident, ident)}
        # (orbit point, generator index) pairs whose Schreier generator is
        # still to be sifted
        self.pending: list[tuple[int, int]] = []


def _stabilizer_order(gens: Sequence[Perm], bound: int | None) -> int | None:
    """|<gens>| by deterministic Schreier-Sims, or None as soon as the product
    of the transversal lengths, a lower bound on the order, exceeds ``bound``.

    Every Schreier generator is sifted; a nontrivial residue becomes a strong
    generator on the levels it reached, and a new level takes as base point
    the first point the residue moves.  Levels are closed deepest first.
    """
    if bound is not None and bound < 1:
        return None
    gens = [tuple(g) for g in gens]
    if not gens:
        return 1
    ident = tuple(range(len(gens[0])))
    levels: list[_Level] = []
    order = 1

    def add_gen(g: Perm, first: int, last: int) -> None:
        # g becomes a strong generator of levels first..last; last is one
        # past the deepest level when g fixes every base point
        if last == len(levels):
            levels.append(_Level(next(i for i, j in enumerate(g) if i != j), ident))
        for lv in levels[first:last + 1]:
            k = len(lv.gens)
            lv.gens.append(g)
            lv.pending.extend((q, k) for q in lv.orbit)

    for g in gens:
        if g != ident:
            add_gen(g, 0, 0)
    level = len(levels) - 1
    while level >= 0:
        lv = levels[level]
        if not lv.pending:
            level -= 1
            continue
        q, k = lv.pending.pop()
        s = lv.gens[k]
        u = lv.trans[q][0]
        r = s[q]
        if r not in lv.trans:
            us = compose(u, s)
            lv.trans[r] = (us, inverse(us))
            lv.orbit.append(r)
            lv.pending.extend((r, i) for i in range(len(lv.gens)))
            order = order // (len(lv.orbit) - 1) * len(lv.orbit)
            if bound is not None and order > bound:
                return None
            continue
        h = compose(compose(u, s), lv.trans[r][1])
        j = level + 1
        while h != ident and j < len(levels):
            rep = levels[j].trans.get(h[levels[j].base])
            if rep is None:
                break
            h = compose(h, rep[1])
            j += 1
        if h != ident:
            add_gen(h, level + 1, j)
            level = j
    return order


def order_exceeds(gens: Sequence[Perm], bound: int) -> bool:
    """True iff ``|<gens>| > bound``.  Exact; the stabilizer chain stops as
    soon as its lower bound on the order passes ``bound``."""
    return _stabilizer_order(gens, bound) is None


def group_order(spec: PermGroupSpec, cap: int | None = 10**7) -> int:
    """Exact order of the generated group, from a stabilizer chain.  Raises
    :class:`CapExceeded` exactly when the order exceeds ``cap``; ``None`` is
    no cap."""
    order = _stabilizer_order(spec.generators, cap)
    if order is None:
        raise CapExceeded(cap)
    return order
