"""Permutation arithmetic and permutation-group queries.

Permutations are tuples of images on 0-indexed points: ``p[i]`` is the image
of ``i``.  Composition is left-to-right, ``compose(p, q)`` applies ``p``
first.  All I/O (cycle strings, JSON examples) uses 1-indexed points and is
converted at the boundary.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    point, cycles ordered by least point.  ValueError if a point is met
    twice, as only a tuple that is not a permutation allows."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            if seen[j]:  # j has two preimages
                raise ValueError(f"not a permutation: {p!r}")
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
    return _numbered_labels(label)


def involution_orbit_ids(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """:func:`orbit_ids` of two involution arrays (the cells of a flag map).
    The orbit of x under <a, b> is the <ab>-cycle of x together with that of
    a x.  Cycle minima come from pointer doubling: after k rounds ``lab[x]``
    is the least of the 2^k points x, ab x, (ab)^2 x, ... and ``step`` is
    (ab)^(2^k).  The first round that changes nothing leaves every label
    exact (proof in docs/decisions.md)."""
    lab = np.arange(a.size)
    step = b[a]
    while True:
        new = np.minimum(lab, lab[step])
        if np.array_equal(new, lab):
            break
        lab, step = new, step[step]
    return _numbered_labels(np.minimum(lab, lab[a]))


def _numbered_labels(label: np.ndarray) -> tuple[np.ndarray, int]:
    """Ids numbered by least member, and the orbit count, from labels that
    name the least member of each point's orbit."""
    roots = label == np.arange(label.size)
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


def conjugator(src: Sequence[Perm], dst: Sequence[Perm]) -> Perm | None:
    """A permutation pi of the points with ``pi[s[x]] == d[pi[x]]`` for every
    pair (s, d) of ``src`` and ``dst`` and every point x, so that conjugation
    by pi sends each s to its d; or None when none is found.

    On a transitive <src>, pi is fixed by pi(0): for each candidate c,
    :func:`_conjugator_from` assigns pi by a BFS from point 0 over the src
    generators.  A candidate must have, under each d, the cycle length that
    point 0 has under its s.  Every BFS that meets no clash reaches the
    orbit of 0, so when that leaves a point unassigned (<src> intransitive)
    the answer is None, whether or not some pi exists: None means "no pi
    found", never "none exists"."""
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal length")
    if not src:
        return None
    n = len(src[0])
    pairs = list(zip(src, dst))
    candidates = range(n)
    for s, d in pairs:
        want, x = 1, s[0]  # the length of the s-cycle through 0
        while x:
            want, x = want + 1, s[x]
        length = [0] * n
        for c in cycles(d):
            for x in c:
                length[x] = len(c)
        candidates = [c for c in candidates if length[c] == want]
    for c in candidates:
        pi = _conjugator_from(pairs, c)
        if pi is not None:
            return tuple(pi) if -1 not in pi else None
    return None


def _conjugator_from(pairs: list[tuple[Perm, Perm]], c: int) -> list[int] | None:
    """The map pi with pi(0) = c and pi(s(x)) = d(pi(x)) on the orbit of 0
    under the s of ``pairs`` (-1 off it), or None on a clash or on an image
    met twice."""
    n = len(pairs[0][0])
    pi = [-1] * n
    used = [False] * n
    pi[0], used[c] = c, True
    queue = [0]
    for x in queue:
        px = pi[x]
        for s, d in pairs:
            y, py = s[x], d[px]
            if pi[y] < 0:
                if used[py]:
                    return None
                pi[y], used[py] = py, True
                queue.append(y)
            elif pi[y] != py:
                return None
    return pi


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

TABLE_CAP = 10**7  # the most elements an element table may have by default


def row_dtype(degree: int) -> type:
    """The narrowest unsigned dtype that holds every point of ``degree``."""
    return np.uint8 if degree <= 1 << 8 else np.uint16 if degree <= 1 << 16 else np.uint32


def row_keys(rows: np.ndarray, base: int | None = None) -> np.ndarray:
    """One sortable key per row of a (k, width) integer matrix whose entries
    lie in [0, base), equal exactly when the rows are; ``base`` defaults to
    the width, the case of permutations.  When base^width <= 2^64 the key is
    the uint64 base-``base`` number whose digit i is entry i, so rows compare
    from their last entry down.  Otherwise it is :func:`void_keys` of the
    rows cast to :func:`row_dtype` (base), so that equal rows of any integer
    dtype get equal keys."""
    width = rows.shape[1]
    base = width if base is None else base
    if base ** width > 1 << 64:
        return void_keys(rows.astype(row_dtype(base), copy=False))
    radix = np.array([base ** i for i in range(width)], dtype=np.uint64)
    return rows.astype(np.uint64) @ radix


def void_keys(rows: np.ndarray) -> np.ndarray:
    """The bytes of each row of a 2-d array as one void scalar: equal exactly
    when the rows are, and sortable (bytewise)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


class Closure(NamedTuple):
    """What :func:`bfs_closure` finds: the orbit's rows, its BFS tree, the
    Schreier graph as ``columns`` and the sorted keys of the rows."""

    rows: np.ndarray
    # per layer after ``start``: (generator index, absolute parent row)
    tree: list[tuple[np.ndarray, np.ndarray]]
    # (k, len(rows)) int64: columns[j, i] is the row of gens[j][rows[i]]
    columns: np.ndarray
    keys: np.ndarray  # the rows' :func:`row_keys`, sorted
    key_rows: np.ndarray  # int64: key_rows[i] is the row whose key is keys[i]


def bfs_closure(gens: Sequence[Sequence[int]], start: Sequence[Sequence[int]] | None = None
                ) -> Closure:
    """The orbit of the distinct rows ``start`` (default: the identity,
    whose orbit is the generated group) under x -> g[x] for every generator
    row g, its BFS tree, its Schreier graph and its sorted keys
    (:class:`Closure`).  Entries lie in [0, base), base the length of a
    generator, and the rows come back in dtype :func:`row_dtype` (base), in
    deterministic order: ``start``, then by distance, then by parent
    position, then by generator index, the first discovery winning.  For
    each layer after ``start`` the tree holds the generator index g and the
    absolute parent row of each of its rows: row i of the layer is
    ``gens[g[i]][rows[parent[i]]]``.  On a group enumeration row x is the
    element x and ``columns[j]`` is right multiplication by generator j.
    No generators or no start: the orbit is ``start``, keyed with base one
    past its largest entry.

    One layer is one gather: candidate ``f * k + j`` is frontier row ``f``
    followed by generator ``j``.  A generator need not be an involution, so
    one argsort groups the candidates' :func:`row_keys` into runs of equal
    keys; the least candidate of a run (``np.minimum.reduceat``) is its
    first discovery, and a run whose key is in the sorted keys of no
    earlier layer gives the next layer a row.  Every candidate then knows
    the row it lands on, which is its column entry (``docs/decisions.md``)."""
    start = np.array([range(len(gens[0]))] if start is None else start)
    if not len(gens) or not len(start):
        keys = row_keys(start, int(start.max(initial=0)) + 1) if start.size else \
            np.empty(0, dtype=np.uint64)
        order = np.argsort(keys)
        return Closure(start, [], np.empty((len(gens), len(start)), dtype=np.int64),
                       keys[order], order)
    base, k = len(gens[0]), len(gens)
    gens = np.array(gens, dtype=row_dtype(base))
    layer = start.astype(gens.dtype)
    keys = row_keys(layer, base)
    seen_rows = np.argsort(keys)
    seen = keys[seen_rows]  # sorted keys of every layer so far, and their rows
    rows, tree, columns = [layer], [], []
    first = 0  # the frontier's first row
    while len(layer):
        # g[x], for a permutation compose(x, g): (k, f, width) gathered, then frontier-major
        cand = gens.take(layer, axis=1).swapaxes(0, 1).reshape(-1, layer.shape[1])
        keys = row_keys(cand, base)
        by_key = np.argsort(keys)
        keys = keys.take(by_key)
        starts = np.empty(len(keys), dtype=bool)  # where a run of equal keys starts
        starts[0] = True
        starts[1:] = keys[1:] != keys[:-1]
        runs = starts.nonzero()[0]
        keys, lead = keys.take(runs), np.minimum.reduceat(by_key, runs)
        at = np.searchsorted(seen, keys)
        known = np.minimum(at, len(seen) - 1)
        land = seen_rows.take(known)  # the row each run lands on
        new = (seen.take(known) != keys).nonzero()[0]  # runs in no earlier layer
        in_order = new.take(np.argsort(lead.take(new)))  # new runs in candidate order
        fresh = lead.take(in_order)  # the next layer
        land[in_order] = np.arange(first + len(layer), first + len(layer) + len(new))
        column = np.empty(len(cand), dtype=np.int64)
        column[by_key] = land.take(starts.cumsum() - 1)
        columns.append(column.reshape(-1, k).T)
        # merge the new keys and their rows in: the i-th new key goes to at + i
        to = at.take(new) + np.arange(len(new))
        old = np.ones(len(seen) + len(new), dtype=bool)
        old[to] = False
        seen, seen_rows = _merged(seen, keys.take(new), to, old), \
            _merged(seen_rows, land.take(new), to, old)
        parent, gen = np.divmod(fresh, k)
        tree.append((gen, first + parent))
        first += len(layer)
        layer = cand.take(fresh, axis=0)
        rows.append(layer)
    return Closure(np.concatenate(rows), tree, np.concatenate(columns, axis=1), seen, seen_rows)


def _merged(known: np.ndarray, added: np.ndarray, to: np.ndarray, old: np.ndarray
            ) -> np.ndarray:
    """``known`` at the places ``old`` marks, ``added`` at ``to``."""
    out = np.empty(len(old), dtype=known.dtype)
    out[to] = added
    out[old] = known
    return out


def compose_word(columns: np.ndarray, parent: Sequence[int], gen: Sequence[int],
                 a: int) -> np.ndarray:
    """The columns of a BFS tree's generators composed along the word of
    node ``a``, root letter first, as a fresh array: the word is read by
    walking ``parent`` from ``a`` up to the root 0, ``gen[b]`` the letter
    that ends b's word.  With r = ``arange`` at the root, each letter j
    takes r = ``columns[j].take(r)``, so r[x] is where x goes along the
    whole word (``docs/decisions.md``)."""
    word = []
    while a:
        word.append(gen[a])
        a = parent[a]
    if not word:
        return np.arange(columns.shape[1], dtype=columns.dtype)
    r = columns[word.pop()].copy()
    while word:
        r = columns[word.pop()].take(r)
    return r


def point_closure(images: np.ndarray, mark: np.ndarray, frontier: np.ndarray,
                  cap: int | None = None) -> Iterator[tuple[np.ndarray, ...]]:
    """Mark in the boolean array ``mark`` the points ``frontier`` and all
    points reached from them under the columns of the (n, k) matrix
    ``images`` (row x: g_0[x] ... g_{k-1}[x]), yielding each new layer lazily
    as (points, parents, generators), point i being ``images[parents[i],
    generators[i]]``.  Points marked on entry are never yielded.
    :class:`CapExceeded` as soon as a layer takes the marked count past
    ``cap``.  Candidate ``f * k + j`` of a layer is frontier point f then
    generator j; the least unmarked candidate naming a point (``np.minimum.at``
    on positions) is its first discovery, so layers need no sort
    (``docs/decisions.md``)."""
    k = images.shape[1]
    mark[frontier] = True
    count = int(np.count_nonzero(mark))
    # the least candidate position naming each point (int32 where positions
    # fit); a reached point is never a candidate again, so needs no reset
    dtype = np.int32 if images.size < 1 << 31 else np.int64
    first = np.full(len(mark), np.iinfo(dtype).max, dtype=dtype)
    while len(frontier):
        cand = np.take(images, frontier, axis=0).ravel()
        pos = (~mark.take(cand)).nonzero()[0]
        if not pos.size:
            return
        points = cand.take(pos)
        np.minimum.at(first, points, pos.astype(dtype))  # one dtype: no slow cast
        won = first.take(points) == pos
        pos, points = pos.compress(won), points.compress(won)
        mark.put(points, True)
        count += len(points)
        if cap is not None and count > cap:
            raise CapExceeded(cap)
        at, gen = np.divmod(pos, k)
        yield points, frontier.take(at), gen
        frontier = points


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    fixing every earlier base point, and an explicit transversal mapping each
    orbit point ``q`` to ``(u, u^-1)`` with ``u[base] == q``."""

    __slots__ = ("base", "gens", "orbit", "trans", "pending")

    def __init__(self, base: int, ident: Perm | bytes):
        self.base = base
        self.gens: list[Perm | bytes] = []
        self.orbit = [base]
        self.trans: dict[int, tuple[Perm | bytes, Perm | bytes]] = {base: (ident, ident)}
        # (orbit point, generator index) pairs whose Schreier generator is
        # still to be sifted
        self.pending: list[tuple[int, int]] = []


BYTE_DEGREE = 256  # up to here a point is one byte, a permutation a bytes table
_IDENT256 = bytes(range(BYTE_DEGREE))


def _byte_inverse(p: bytes) -> bytes:
    return bytes.maketrans(p, _IDENT256)


def _stabilizer_order(gens: Sequence[Perm], bound: int | None) -> int | None:
    """|<gens>| by deterministic Schreier-Sims, or None as soon as the product
    of the transversal lengths, a lower bound on the order, exceeds ``bound``.

    Every Schreier generator is sifted; a nontrivial residue becomes a strong
    generator on the levels it reached, and a new level takes as base point
    the first point the residue moves.  Levels are closed deepest first.

    Up to :data:`BYTE_DEGREE` points every element is a 256-byte translation
    table, the permutation padded with fixed points, so that composition is
    ``bytes.translate``, inversion ``bytes.maketrans`` and the identity test
    one comparison, all in C.  The padding moves no point, so base points,
    orbits and orders are those of the tuples (``docs/decisions.md``).
    Above it the elements are tuples under :func:`compose` and
    :func:`inverse`.
    """
    if bound is not None and bound < 1:
        return None
    # from tuples: bytes() of an int64 array would read its buffer
    gens = [tuple(g) for g in gens]
    if not gens:
        return 1
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators of different degrees")
    if degree <= BYTE_DEGREE:
        pad = _IDENT256[degree:]
        gens = [bytes(g) + pad for g in gens]
        ident, mul, inv = _IDENT256, bytes.translate, _byte_inverse
    else:
        ident, mul, inv = tuple(range(degree)), compose, inverse
    levels: list[_Level] = []
    order = 1

    def add_gen(g, first: int, last: int) -> None:
        # g becomes a strong generator of levels first..last; last is one
        # past the deepest level when g fixes every base point
        if last == len(levels):
            levels.append(_Level(next(i for i, j in enumerate(g) if i != j), ident))
        for lv in levels[first:last + 1]:
            k = len(lv.gens)
            lv.gens.append(g)
            lv.pending.extend(zip(lv.orbit, repeat(k)))

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
            us = mul(u, s)
            lv.trans[r] = (us, inv(us))
            lv.orbit.append(r)
            lv.pending.extend(zip(repeat(r), range(len(lv.gens))))
            order = order // (len(lv.orbit) - 1) * len(lv.orbit)
            if bound is not None and order > bound:
                return None
            continue
        h = mul(mul(u, s), lv.trans[r][1])
        j = level + 1
        while h != ident and j < len(levels):
            rep = levels[j].trans.get(h[levels[j].base])
            if rep is None:
                break
            h = mul(h, rep[1])
            j += 1
        if h != ident:
            add_gen(h, level + 1, j)
            level = j
    return order


def order_exceeds(gens: Sequence[Perm], bound: int) -> bool:
    """True iff ``|<gens>| > bound``.  Exact; the stabilizer chain stops as
    soon as its lower bound on the order passes ``bound``."""
    return _stabilizer_order(gens, bound) is None


def extends_to_homomorphism(src: Sequence[Perm], dst: Sequence[Perm], order: int) -> bool:
    """Does s_i -> d_i extend to a homomorphism from <src>, a group of the
    given ``order``?  The diagonal <(s_i, d_i)>, acting on the points of src
    followed by those of dst, projects onto <src>; it is the graph of a
    homomorphism iff its order is ``order``.  One chain order test."""
    n = len(src[0])
    return not order_exceeds([s + tuple(j + n for j in d) for s, d in zip(src, dst)], order)


def group_order(gens: Iterable[Sequence[int]], cap: int | None = TABLE_CAP) -> int:
    """Exact order of the group generated by ``gens``, at least one
    permutation, all of one degree, from a stabilizer chain.  Raises
    :class:`CapExceeded` exactly when the order exceeds ``cap``; ``None`` is
    no cap."""
    gens = [check_perm(g) for g in gens]
    if not gens:
        raise ValueError("at least one generator required")
    if any(len(g) != len(gens[0]) for g in gens):
        raise ValueError("generator degree mismatch")
    order = _stabilizer_order(gens, cap)
    if order is None:
        raise CapExceeded(cap)
    return order
