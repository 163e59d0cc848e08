"""Finite groups as enumerated multiplication structures.

A :class:`GroupTable` is a set of element ids ``0..size-1`` with a product
oracle; id 0 is always the identity.  Concrete tables: permutation groups
(:class:`PermGroup`, known by their generators and stabilizer-chain order,
whose ids are handed out as elements are met and whose element table, a
row matrix with sorted keys, is enumerated once, at construction under a cap
or on the first array call without one), the metacyclic p-group families
``G_{p,e,f}`` and their C2 extension by ``g -> gh, h -> h^-1``, and direct products.

Automorphism questions are never answered by materializing Aut(G); they are
phrased as extension questions on generating tuples
(:func:`hom_extension_exists`), which covers outer automorphisms.  On
permutation groups generation and extension are order tests on stabilizer
chains (:func:`perms.order_exceeds`).  Other tables close subgroups over
:meth:`GroupTable.right_mult` id arrays by the one layered closure of
points (:func:`perms.point_closure`, as do the centralizers, the index-2
characters and flag maps), and walk the Cayley graph for extension
(:func:`hom_extension`, which also returns the image array).  That walk
remains for the table-only groups, and as the tests' oracle for the chain
tests and for the class a built map falls into.  The one exception is
:func:`simultaneous_inversion_survey` given permutations that induce
Aut(G): it closes their action on the images of G's generators, which fix
an automorphism, by the orbit BFS of rows (:func:`perms.bfs_closure`, as
rows have no dense key space to mark), and reads inversion at one
representative per orbit off the coset of its stabilizer that inverts it,
from the full rows of a few automorphisms only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import perms
from .perms import TABLE_CAP, CapExceeded, Perm


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _exponents(value: list, arity: int) -> tuple[int, ...]:
    """Normal-form exponents given as a JSON list of ``arity`` integers."""
    if len(value) != arity or not all(_is_int(c) for c in value):
        raise ValueError(f"{value!r} is not a list of {arity} integer exponents")
    return tuple(value)


def _mult_columns(G: "GroupTable", elems: Sequence[int]) -> np.ndarray:
    """The (|G|, k) int32 matrix whose column j is ``G.right_mult(elems[j])``."""
    images = np.empty((G.size, len(elems)), dtype=np.int32)
    for column, w in zip(images.T, elems):
        column[:] = G.right_mult(w)
    return images


class GroupTable:
    """Finite group on ids 0..size-1 with a product oracle; identity is 0."""

    size: int
    generators: list[int]

    def product(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inverse(self, a: int) -> int:
        raise NotImplementedError

    def _check_id(self, a: int) -> None:
        """IndexError unless ``a`` is an element id, in [0, size)."""
        if not 0 <= a < self.size:
            raise IndexError(f"no element with id {a} in a group of order {self.size}")

    def right_mult(self, w: int) -> np.ndarray:
        """The ids of g w for every element id g, in order, as an int64 array;
        IndexError unless w is an element id."""
        self._check_id(w)
        return np.array([self.product(g, w) for g in range(self.size)], dtype=np.int64)

    def label(self, a: int) -> str:
        return str(a)

    # -- JSON boundary ---------------------------------------------------------

    def to_json(self) -> dict:
        """The group in the form :func:`group_from_json` reads, where the
        family has one; otherwise only its order."""
        return {"order": self.size}

    def element_json(self, a: int) -> object:
        """JSON form of element ``a``: its id unless the family says otherwise."""
        return a

    def parse_element(self, value) -> int:
        """Element id of a JSON value: an id here, plus the family's own forms."""
        if _is_int(value) and 0 <= value < self.size:
            return value
        raise ValueError(f"{value!r} is not an element id of a group of "
                         f"order {self.size}")

    # -- generic helpers ------------------------------------------------------

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse(a), -k)
        result = 0
        base = a
        while k:
            if k & 1:
                result = self.product(result, base)
            base = self.product(base, base)
            k >>= 1
        return result

    def element_order(self, a: int) -> int:
        o = 1
        x = a
        while x != 0:
            x = self.product(x, a)
            o += 1
        return o

    def conjugate(self, a: int, g: int) -> int:
        """g^-1 a g."""
        return self.product(self.product(self.inverse(g), a), g)

    def commutator(self, a: int, b: int) -> int:
        """a^-1 b^-1 a b."""
        return self.product(self.product(self.inverse(a), self.inverse(b)),
                            self.product(a, b))

    def subgroup(self, seed: Iterable[int], cap: int | None = None) -> list[int]:
        """Sorted element ids of the subgroup generated by ``seed``: the
        identity closed under the seed's :meth:`right_mult` arrays by
        :func:`perms.point_closure`.  :class:`CapExceeded` as soon as the
        closure passes ``cap`` elements."""
        span = np.zeros(self.size, dtype=bool)
        images = _mult_columns(self, list(dict.fromkeys(seed)))
        for _ in perms.point_closure(images, span, np.zeros(1, dtype=np.int64), cap):
            pass
        return np.flatnonzero(span).tolist()

    def generates(self, seed: Iterable[int]) -> bool:
        """True iff ``seed`` generates the whole group.  A subgroup has order
        at most size/2, so the closure may stop once it passes that bound."""
        try:
            elems = self.subgroup(seed, cap=self.size // 2 + 1)
        except CapExceeded:
            return True
        return len(elems) == self.size


class PermGroup(GroupTable):
    """A permutation group given by its generators, with its order from a
    stabilizer chain (:func:`perms.group_order`), checked against ``cap``
    before anything is enumerated; ``cap=None`` allows any order.

    Ids are handed out as elements are met: the identity 0, the generators,
    then each new product, inverse or member given to :meth:`id_of`.  They
    are internal; elements print as cycles.  The element table is the
    (size, degree) :meth:`matrix`, the sorted :func:`perms.row_keys` of its
    rows, and the Cayley graph its closure found: each id's BFS tree parent
    and generator, and each generator's right multiplication column.
    Element tuples are a memo of the elements met, id -> tuple and back.
    Before the table exists a new member takes the next id, and :meth:`id_of`
    decides membership by a chain order test.  After, an unmet id is read off
    its row, and a tuple's id off its row key in the sorted keys, which also
    decides membership.
    With a cap the table is built here, when only the identity and the
    generators are met, so the ids are the deterministic BFS order of
    :func:`perms.bfs_closure` (word length, frontier position, generator
    index) and downstream reports are reproducible byte for byte.  With
    ``cap=None`` it is built by the first array call, or the first read of
    an id in range not met yet (ids run from 0 to size-1), and refused above
    :data:`TABLE_CAP` elements; its rows are the elements met so far, in id
    order, then the rest in BFS order, so every id handed out stays valid;
    the tree, the columns and the key ids are renumbered with them.
    :meth:`right_mult` composes the columns along a tree word; other whole
    id permutations of the group (inversion, conjugation by a normalizing
    permutation) are matrix gathers turned into ids by :meth:`ids_of`.
    """

    def __init__(self, generators: Sequence[Perm], cap: int | None = TABLE_CAP):
        self._gens = [tuple(g) for g in generators]
        self.size = perms.group_order(self._gens, cap)
        self.degree = len(self._gens[0])
        self._matrix: np.ndarray | None = None
        ident = tuple(range(self.degree))
        self._elems = {0: ident}  # the memo of met elements, both ways
        self._index = {ident: 0}
        self.generators = [self._intern(g) for g in self._gens]
        if cap is not None:
            self._enumerate()

    def _intern(self, p: Perm) -> int:
        a = self._index.get(p)
        if a is None:
            a = self._index[p] = len(self._elems) if self._matrix is None else self._lookup(p)
            self._elems[a] = p
        return a

    def _lookup(self, p: Perm) -> int | None:
        """The id of ``p`` by its key in the table, or None if not a row."""
        key = perms.row_keys(np.array([p], dtype=self._matrix.dtype))[0]
        at = min(int(self._sorted_keys.searchsorted(key)), self.size - 1)
        return int(self._key_ids[at]) if self._sorted_keys[at] == key else None

    def _enumerate(self) -> None:
        """Build the element table (see the class docstring)."""
        closure = perms.bfs_closure(self._gens)
        m, cols, key_ids = closure.rows, closure.columns, closure.key_rows
        parent = np.concatenate([[0], *(p for _, p in closure.tree)]).astype(np.int32)
        gen = np.concatenate([[0], *(g for g, _ in closure.tree)]).astype(
            np.min_scalar_type(len(self._gens) - 1))
        # the BFS rows of the elements met so far, in id order, keep their ids
        met = key_ids[np.searchsorted(closure.keys, perms.row_keys(
            np.array(list(self._elems.values()), dtype=m.dtype)))]
        if not np.array_equal(met, np.arange(len(met))):
            rest = np.ones(self.size, dtype=bool)
            rest[met] = False
            order = np.concatenate([met, np.flatnonzero(rest)])
            new_id = np.empty(self.size, dtype=np.int64)
            new_id[order] = np.arange(self.size)
            m, gen, key_ids = m[order], gen[order], new_id[key_ids]
            parent = new_id[parent[order]].astype(np.int32)
            cols = new_id[cols[:, order]]
        self._matrix = m
        self._parent, self._gen, self._columns = parent, gen, cols
        self._key_ids = key_ids
        self._sorted_keys = closure.keys

    def matrix(self) -> np.ndarray:
        """The element matrix, row a the element with id a, enumerated on the
        first call when the group was made with ``cap=None``."""
        if self._matrix is None:
            if self.size > TABLE_CAP:
                raise CapExceeded(TABLE_CAP)
            self._enumerate()
        return self._matrix

    def elem(self, a: int) -> Perm:
        p = self._elems.get(a)
        if p is None:
            self._check_id(a)
            p = self._elems[a] = tuple(self.matrix()[a].tolist())
            self._index[p] = int(a)
        return p

    def id_of(self, p: Perm) -> int:
        p = tuple(p)
        if p not in self._index and (len(p) != self.degree or not perms.is_perm(p) or (
                perms.order_exceeds(self._gens + [p], self.size) if self._matrix is None
                else self._lookup(p) is None)):
            raise ValueError(f"permutation {perms.format_cycles(p) if perms.is_perm(p) else p}"
                             " not in group")
        return self._intern(p)

    def product(self, a: int, b: int) -> int:
        return self._intern(perms.compose(self.elem(a), self.elem(b)))

    def inverse(self, a: int) -> int:
        return self._intern(perms.inverse(self.elem(a)))

    def ids_of(self, rows: np.ndarray) -> np.ndarray:
        """The ids of the rows of a (size, degree) matrix whose rows are the
        group's elements in some order, as an int64 array.  Sorting the rows'
        keys must give the group's sorted keys exactly, which makes the k-th
        sorted row the element with the k-th key; otherwise ValueError."""
        m = self.matrix()
        if rows.shape != m.shape:
            raise ValueError("the rows are not the group's elements")
        keys = perms.row_keys(rows)
        order = np.argsort(keys)
        if not np.array_equal(keys[order], self._sorted_keys):
            raise ValueError("the rows are not the group's elements")
        ids = np.empty(self.size, dtype=np.int64)
        ids[order] = self._key_ids
        return ids

    def right_mult(self, w: int) -> np.ndarray:
        """The generators' columns composed along w's word in the BFS tree
        of the table (:func:`perms.compose_word`): no sort and no
        :meth:`ids_of`; the identity's is ``arange``."""
        self._check_id(w)
        self.matrix()  # the table, built on the first array call
        return perms.compose_word(self._columns, self._parent, self._gen, w)

    def label(self, a: int) -> str:
        return perms.format_cycles(self.elem(a))

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "generators": [self.label(g) for g in self.generators]}

    def element_json(self, a: int) -> str:
        return self.label(a)

    def parse_element(self, value) -> int:
        """Cycle strings and image lists as well as ids."""
        if isinstance(value, str):
            return self.id_of(perms.parse_cycles(value, self.degree))
        if isinstance(value, list):
            return self.id_of(perms.check_perm(value))
        return super().parse_element(value)

    def generates(self, seed: Iterable[int]) -> bool:
        """Exact, by a stabilizer chain: a subgroup has order at most size/2."""
        return perms.order_exceeds([self.elem(s) for s in seed], self.size // 2)


class GpefGroup(GroupTable):
    """G_{p,e,f} = <g, h | g^n = h^n = 1, h^g = h^(p^f+1)> with n = p^e.

    Elements in normal form g^i h^j, encoded as id = i*n + j; the product is
    g^i h^j . g^k h^l = g^(i+k) h^(r^k j + l) with r = p^f + 1.
    """

    def __init__(self, p: int, e: int, f: int):
        if e < 1 or f < 1 or f > e:
            raise ValueError("need 1 <= f <= e")
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError("p must be prime")
        self.p, self.e, self.f = p, e, f
        self.n = p ** e
        self.r = p ** f + 1
        self.size = self.n * self.n
        self.generators = [self._id(1, 0), self._id(0, 1)]  # g, h

    def _id(self, i: int, j: int) -> int:
        return (i % self.n) * self.n + (j % self.n)

    def coords(self, a: int) -> tuple[int, int]:
        return divmod(a, self.n)

    def product(self, a: int, b: int) -> int:
        i, j = divmod(a, self.n)
        k, l = divmod(b, self.n)
        return self._id(i + k, pow(self.r, k, self.n) * j + l)

    def right_mult(self, w: int) -> np.ndarray:
        """:meth:`product` by ``w`` = g^k h^l on every id at once: id i*n + j
        goes to row i + k, column r^k j + l."""
        self._check_id(w)
        k, l = divmod(w, self.n)
        steps = np.arange(self.n)
        return np.add.outer((steps + k) % self.n * self.n,
                            (pow(self.r, k, self.n) * steps + l) % self.n).ravel()

    def inverse(self, a: int) -> int:
        i, j = divmod(a, self.n)
        k = (-i) % self.n
        l = (-pow(self.r, k, self.n) * j) % self.n
        return self._id(k, l)

    def label(self, a: int) -> str:
        i, j = divmod(a, self.n)
        return f"g^{i} h^{j}"

    def to_json(self) -> dict:
        return {"family": "gpef", "p": self.p, "e": self.e, "f": self.f}

    def parse_element(self, value) -> int:
        """Exponent pairs [i, j] for g^i h^j as well as ids."""
        if isinstance(value, list):
            return self._id(*_exponents(value, 2))
        return super().parse_element(value)


class GpefAlphaGroup(GroupTable):
    """The order 2^(2e+1) extension A = G_{2,e,2} x| <alpha> with
    g^alpha = gh, h^alpha = h^-1 and alpha^2 = 1.

    Elements g^i h^j alpha^eps with i, j mod 2^e; id = (i*2^e + j)*2 + eps.
    """

    def __init__(self, e: int):
        if e < 3:
            raise ValueError("need e >= 3")
        self.e = e
        self.n = 2 ** e
        self.size = 2 * self.n * self.n
        self.generators = [self._id(1, 0, 0), self._id(0, 1, 0), self._id(0, 0, 1)]

    def _id(self, i: int, j: int, eps: int) -> int:
        return ((i % self.n) * self.n + (j % self.n)) * 2 + (eps % 2)

    def coords(self, a: int) -> tuple[int, int, int]:
        ij, eps = divmod(a, 2)
        i, j = divmod(ij, self.n)
        return i, j, eps

    def _alpha_img(self, i: int, j: int) -> tuple[int, int]:
        # (g^i h^j)^alpha = (gh)^i h^-j = g^i h^(sigma(i) - j), sigma(i) = 1+5+...+5^(i-1)
        sigma = (pow(5, i, 4 * self.n) - 1) // 4 % self.n
        return i, (sigma - j) % self.n

    def product(self, a: int, b: int) -> int:
        i, j, eps = self.coords(a)
        k, l, delta = self.coords(b)
        if eps:
            k2, l2 = self._alpha_img(k, l)
        else:
            k2, l2 = k, l
        return self._id(i + k2, pow(5, k2, self.n) * j + l2, eps + delta)

    def right_mult(self, w: int) -> np.ndarray:
        """:meth:`product` by ``w`` = g^k h^l alpha^delta on every id at
        once, as an (i, j, eps) grid.  The alpha image of g^k h^l keeps k, so
        only the h exponent added, l or its image, depends on eps."""
        self._check_id(w)
        k, l, delta = self.coords(w)
        steps = np.arange(self.n)
        rows = (steps + k) % self.n * self.n * 2
        cols = (pow(5, k, self.n) * steps[:, None]
                + [l, self._alpha_img(k, l)[1]]) % self.n * 2 + [delta, 1 - delta]
        return (rows[:, None, None] + cols).ravel()

    def inverse(self, a: int) -> int:
        i, j, eps = self.coords(a)
        if not eps:
            k = (-i) % self.n
            return self._id(k, -pow(5, k, self.n) * j, 0)
        # (x alpha)^-1 = alpha x^-1 = (x^-1)^alpha alpha
        k = (-i) % self.n
        l = (-pow(5, k, self.n) * j) % self.n
        k2, l2 = self._alpha_img(k, l)
        return self._id(k2, l2, 1)

    def label(self, a: int) -> str:
        i, j, eps = self.coords(a)
        return f"g^{i} h^{j}" + (" a" if eps else "")

    def to_json(self) -> dict:
        return {"family": "gpef_alpha", "e": self.e}

    def parse_element(self, value) -> int:
        """Exponent triples [i, j, eps] for g^i h^j alpha^eps as well as ids."""
        if isinstance(value, list):
            return self._id(*_exponents(value, 3))
        return super().parse_element(value)


class DirectProduct(GroupTable):
    """A x B; id = a*|B| + b.  Generators: the given pairs, else the obvious
    embedded generators of both factors."""

    def __init__(self, left: GroupTable, right: GroupTable,
                 generator_pairs: Sequence[tuple[int, int]] | None = None):
        self.left, self.right = left, right
        self.size = left.size * right.size
        if generator_pairs is None:
            generator_pairs = [(g, 0) for g in left.generators] + \
                              [(0, g) for g in right.generators]
        self.generators = [a * right.size + b for a, b in generator_pairs]

    def product(self, a: int, b: int) -> int:
        a1, a2 = divmod(a, self.right.size)
        b1, b2 = divmod(b, self.right.size)
        return self.left.product(a1, b1) * self.right.size + self.right.product(a2, b2)

    def right_mult(self, w: int) -> np.ndarray:
        """From the factors' arrays: id a*|B| + b goes to (a w1)*|B| + b w2."""
        self._check_id(w)
        w1, w2 = divmod(w, self.right.size)
        return np.add.outer(self.left.right_mult(w1) * self.right.size,
                            self.right.right_mult(w2)).ravel()

    def inverse(self, a: int) -> int:
        a1, a2 = divmod(a, self.right.size)
        return self.left.inverse(a1) * self.right.size + self.right.inverse(a2)

    def label(self, a: int) -> str:
        a1, a2 = divmod(a, self.right.size)
        return f"({self.left.label(a1)}, {self.right.label(a2)})"


@dataclass(frozen=True)
class SubgroupSet:
    """A subgroup of a :class:`GroupTable`, with a generating seed kept so the
    derived and lower central series can continue without scanning all
    member pairs."""

    members: tuple[int, ...]
    gens: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


def normal_closure(G: GroupTable, seed: Iterable[int],
                   conjugators: Sequence[int] | None = None) -> SubgroupSet:
    """Smallest subgroup containing ``seed`` and closed under conjugation by
    ``conjugators`` (default: the group generators)."""
    if conjugators is None:
        conjugators = G.generators
    conj = list(conjugators) + [G.inverse(c) for c in conjugators]
    gens = [s for s in dict.fromkeys(seed) if s != 0]
    members = np.zeros(G.size, dtype=bool)
    images = _mult_columns(G, gens)
    for _ in perms.point_closure(images, members, np.zeros(1, dtype=np.int64)):
        pass
    changed = True
    while changed:
        changed = False
        for h in list(gens):
            for c in conj:
                x = G.conjugate(h, c)
                if not members[x]:
                    gens.append(x)
                    images = np.hstack((images, _mult_columns(G, [x])))
                    for _ in perms.point_closure(images, members, np.flatnonzero(members)):
                        pass
                    changed = True
    return SubgroupSet(tuple(np.flatnonzero(members).tolist()), tuple(gens))


def derived_series(G: GroupTable) -> list[SubgroupSet]:
    """G >= G' >= G'' >= ... until the series stabilizes."""
    whole = SubgroupSet(tuple(range(G.size)), tuple(G.generators))
    series = [whole]
    current = whole
    while True:
        seed = [G.commutator(a, b) for a in current.gens for b in current.gens]
        nxt = normal_closure(G, seed, conjugators=current.gens)
        if len(nxt.members) == len(current.members):
            return series
        series.append(nxt)
        current = nxt
        if len(current.members) == 1:
            return series


def derived_length(G: GroupTable) -> int | None:
    """Length of the derived series, or None if G is not solvable."""
    series = derived_series(G)
    if series[-1].order != 1:
        return None
    return len(series) - 1


def nilpotence_class(G: GroupTable) -> int | None:
    """The length c of the lower central series G = gamma_1 > gamma_2 > ...
    > gamma_{c+1} = 1, or None if it stalls above 1 (G is not nilpotent).
    gamma_{i+1} = [gamma_i, G] is the normal closure of the commutators
    [x, s] of gamma_i's generators x with G's generators s
    (``docs/decisions.md``)."""
    order, gens, c = G.size, G.generators, 0
    while order > 1:
        nxt = normal_closure(G, [G.commutator(x, s) for x in gens for s in G.generators])
        if nxt.order == order:
            return None
        order, gens, c = nxt.order, nxt.gens, c + 1
    return c


def inverse_ids(G: GroupTable) -> np.ndarray:
    """The inverse of every element id, as an int64 array.  On a
    :class:`PermGroup` every row of the element matrix is inverted by one
    scatter (row x sends x[i] to i), then :meth:`PermGroup.ids_of`."""
    if isinstance(G, PermGroup):
        m = G.matrix()
        inv = np.empty_like(m)
        np.put_along_axis(inv, m, np.arange(G.degree, dtype=m.dtype)[None], axis=1)
        return G.ids_of(inv)
    return np.array([G.inverse(x) for x in range(G.size)])


def conjugacy_classes(G: GroupTable) -> list[list[int]]:
    """The orbits of G's :func:`conjugation_generators` on its elements, each
    sorted, in order of least member."""
    ids, _ = conjugation_orbits(
        G.size, conjugation_generators(G, np.ones(G.size, dtype=bool), inverse_ids(G)))
    by_class = np.argsort(ids, kind="stable")
    return [c.tolist() for c in np.split(by_class, np.cumsum(np.bincount(ids))[:-1])]


def conjugation(G: GroupTable, x: int, inv: np.ndarray) -> np.ndarray:
    """The id permutation g -> x^-1 g x, from one :meth:`~GroupTable.right_mult`;
    ``inv`` holds the inverse of every id.  With r[g] = g x, r[inv[r]] sends
    g to x^-1 g^-1 x, the inverse of the image.  Its fixed points are C_G(x)."""
    r = G.right_mult(x)
    return inv[r[inv[r]]]


def conjugation_generators(G: GroupTable, members: np.ndarray,
                           inv: np.ndarray) -> list[np.ndarray]:
    """Conjugation id permutations (:func:`conjugation`) of a generating set
    of the subgroup whose ids are marked in the boolean array ``members``.

    The set is chosen greedily: the least member outside the subgroup
    generated so far, whose closure grows by right multiplication gathers
    until it has every member.  No generators for the trivial subgroup."""
    span = np.zeros(G.size, dtype=bool)
    span[0] = True
    images = _mult_columns(G, [])
    conj: list[np.ndarray] = []
    while (members & ~span).any():
        r = G.right_mult(int((members & ~span).argmax()))
        images = np.hstack((images, r[:, None].astype(np.int32)))
        conj.append(inv[r[inv[r]]])  # conjugation(G, g, inv), reusing r
        for _ in perms.point_closure(images, span, np.flatnonzero(span)):
            pass
    return conj


def conjugation_orbits(n: int, conj: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Orbit ids, numbered by least member, of the group whose conjugation id
    permutations are ``conj`` (:func:`perms.orbit_ids`), and a boolean mask
    of the least member of every orbit."""
    ids = perms.orbit_ids(n, conj)[0] if conj else np.arange(n)
    # orbits are numbered by least member, so the running maximum of the
    # ids rises exactly at each orbit's least member
    return ids, np.diff(np.maximum.accumulate(ids), prepend=-1) > 0


def involutions(G: GroupTable) -> list[int]:
    """The ids of the elements of order 2, ascending.  On a :class:`PermGroup`
    one gather squares every row of the element matrix."""
    if isinstance(G, PermGroup):
        m = G.matrix()
        square_is_one = (np.take_along_axis(m, m, axis=1) == np.arange(G.degree)).all(axis=1)
        return np.flatnonzero(square_is_one)[1:].tolist()  # id 0 is the identity
    return [x for x in range(1, G.size) if G.product(x, x) == 0]


# -- automorphism-extension machinery -----------------------------------------

def hom_extension(G: GroupTable, src: Sequence[int], dst: Sequence[int]) -> list[int] | None:
    """The automorphism of G extending src_i -> dst_i, as an image array, or
    None if the assignment does not extend.

    BFS over the Cayley graph on ``src``; every closing edge is checked for
    consistency, and the image set must be all of G.  ``src`` must generate.
    """
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal length")
    images = [-1] * G.size
    images[0] = 0
    frontier = [0]
    assigned = 1
    while frontier:
        nxt = []
        for x in frontier:
            ix = images[x]
            for s, d in zip(src, dst):
                y = G.product(x, s)
                iy = G.product(ix, d)
                if images[y] == -1:
                    images[y] = iy
                    assigned += 1
                    nxt.append(y)
                elif images[y] != iy:
                    return None
        frontier = nxt
    if assigned != G.size:
        raise ValueError("src does not generate the group")
    if len(set(images)) != G.size:
        return None
    return images


def hom_extension_exists(G: GroupTable, src: Sequence[int], dst: Sequence[int]) -> bool:
    """Does src_i -> dst_i extend to an automorphism of G?  ``src`` must
    generate G: on a :class:`PermGroup` that is checked by a stabilizer
    chain, and ValueError if it does not; then :func:`extends_from_generating`
    decides."""
    # order_exceeds rather than G.generates, so that per-layer traces count
    # only the callers' own generation tests
    if isinstance(G, PermGroup) and \
            not perms.order_exceeds([G.elem(x) for x in src], G.size // 2):
        raise ValueError("src does not generate the group")
    return extends_from_generating(G, src, dst)


def extends_from_generating(G: GroupTable, src: Sequence[int], dst: Sequence[int]) -> bool:
    """Does src_i -> dst_i extend to an automorphism of G, for a ``src``
    that the caller has proved generates G?  That is not checked here.

    On a :class:`PermGroup` a permutation pi of the points conjugating each
    src_i to dst_i (:func:`perms.conjugator`) proves that it extends: <dst>
    = pi G pi^-1 lies in G and has order |G|, so conjugation by pi is an
    automorphism of G.  When none is found, :func:`extends_by_chain`
    decides."""
    if isinstance(G, PermGroup) and perms.conjugator(
            [G.elem(x) for x in src], [G.elem(y) for y in dst]) is not None:
        return True
    return extends_by_chain(G, src, dst)


def extends_by_chain(G: GroupTable, src: Sequence[int], dst: Sequence[int]) -> bool:
    """:func:`extends_from_generating` without the point conjugator, for a
    ``src`` that generates G.  On a :class:`PermGroup` stabilizer chains
    decide: the diagonal subgroup <(src_i, dst_i)> of G x G, acting on 2 *
    degree points, projects onto G; it is the graph of a homomorphism iff
    its order is |G|, and that homomorphism is onto iff ``dst`` generates G,
    which needs no chain when every ``src`` element is a ``dst`` element or
    the inverse of one (every pattern of ``build._FORBIDDEN``).  Other
    groups walk :func:`hom_extension`."""
    if not isinstance(G, PermGroup):
        return hom_extension(G, src, dst) is not None
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal length")
    n = G.degree
    src_perms = [G.elem(x) for x in src]
    dst_perms = [G.elem(y) for y in dst]
    diagonal = [a + tuple(j + n for j in b) for a, b in zip(src_perms, dst_perms)]
    if perms.order_exceeds(diagonal, G.size):
        return False
    # <dst> contains <src> = G when each src element is in dst or inverts one
    covered = set(dst_perms).union(map(perms.inverse, dst_perms))
    return covered.issuperset(src_perms) or perms.order_exceeds(dst_perms, G.size // 2)


@dataclass
class SurveyReport:
    group_order: int
    total_pairs: int
    generating_pairs: int
    inverted_generating_pairs: int
    counterexample: tuple[int, int] | None

    @property
    def all_inverted(self) -> bool:
        return self.counterexample is None


class _InducedAction:
    """The group A of element-id permutations induced on a :class:`PermGroup`
    G by conjugation with ``aut_gens``, kept on the columns of
    ``G.generators`` alone.

    A generator a conjugates the element matrix M in one gather,
    ``a[M[:, a^-1]]``, whose ids :meth:`PermGroup.ids_of` reads; these are
    the rows ``gen_rows``.  Two automorphisms are equal exactly when they
    agree on ``G.generators``, so the orbit of that one row under the
    generator rows (:func:`perms.bfs_closure`) is A exactly: ``cols[i]``
    holds element i's images of the generators, and element i is generator
    ``gen_of[i]`` applied after element ``parent_of[i]``, numbered
    frontier-major.  No (|A|, |G|) array is built: a column a -> a(x) costs
    one |A|-sized gather per BFS layer, and the full row of one element one
    |G|-sized gather per letter of its word."""

    def __init__(self, G: PermGroup, aut_gens: Sequence[Perm]):
        n = G.size
        m = G.matrix()
        self.gen_rows = np.empty((len(aut_gens), n), dtype=np.int32)
        for row, a in zip(self.gen_rows, aut_gens):
            a = tuple(a)
            if len(a) != G.degree:
                raise ValueError("aut_gens must act on the group's points")
            a_inv = np.array(perms.inverse(a))
            try:
                row[:] = G.ids_of(np.array(a, dtype=m.dtype)[m[:, a_inv]])
            except ValueError as exc:
                raise ValueError("aut_action does not normalize the group") from exc
        closure = perms.bfs_closure(self.gen_rows, [G.generators])
        self.cols, self.layers = closure.rows, closure.tree
        self.order = len(self.cols)
        self.gen_of = np.concatenate([[0], *(g for g, _ in self.layers)]).tolist()
        self.parent_of = np.concatenate([[0], *(p for _, p in self.layers)]).tolist()

    def column(self, x: int) -> np.ndarray:
        """The image of id x under every element of A, in BFS order."""
        col = np.empty(self.order, dtype=np.int32)
        col[0] = x
        at = 1
        for g, parent in self.layers:
            col[at:at + len(g)] = self.gen_rows[g, col[parent]]
            at += len(g)
        return col

    def row(self, a: int) -> np.ndarray:
        """The image of every id under element a of A."""
        return perms.compose_word(self.gen_rows, self.parent_of, self.gen_of, a)

    def subgroup_rows(self, members: np.ndarray) -> list[np.ndarray]:
        """Full rows of generators of the subgroup of A whose elements are
        ``members`` (ascending, so the identity 0 first): the first member
        outside the subgroup generated so far, until that subgroup has every
        member.  Left multiplication by a chosen row permutes the members
        (read by their keys), and the subgroup the rows generate is the
        closure of the identity under these moves
        (:func:`perms.point_closure`).  A itself is generated by ``gen_rows``."""
        if len(members) == self.order:
            return list(self.gen_rows)
        n = self.gen_rows.shape[1]
        cols = self.cols[members]
        keys = perms.row_keys(cols, n)
        by_key = np.argsort(keys)
        keys = keys[by_key]
        rows: list[np.ndarray] = []
        moves = np.empty((len(members), 0), dtype=np.int64)  # left multiplications
        span = np.zeros(len(members), dtype=bool)
        span[0] = True
        while not span.all():
            rows.append(self.row(int(members[np.argmin(span)])))
            moves = np.column_stack(
                (moves, by_key[np.searchsorted(keys, perms.row_keys(rows[-1][cols], n))]))
            for _ in perms.point_closure(moves, span, np.flatnonzero(span)):
                pass
        return rows


def _generation_classes(G: GroupTable, x: int, inv: np.ndarray,
                        moves: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Whether (x, y) generates G, for every y, by one :meth:`generates` per
    generation class.  ``inv`` holds the inverse of every id, and ``moves``
    are maps y -> y' of the ids (not necessarily permutations) with
    <x, y'> = <x, y>.  The classes are the orbits of ``moves`` together with
    y -> y x, y -> x^-1 y and y -> y^-1, which keep <x, y> since x lies in
    it.  Returns the least member of y's class for every y, and the verdict
    for every y, which is that of its class's least member."""
    right = G.right_mult(x)
    ids, is_least = conjugation_orbits(G.size, [*moves, right, inv[right[inv]], inv])
    least = np.flatnonzero(is_least)  # class i's least member is least[i]
    verdict = np.array([G.generates((x, y)) for y in least.tolist()], dtype=bool)
    return least[ids], verdict[ids]


def simultaneous_inversion_survey(G: GroupTable,
                                  aut_gens: Sequence[Perm] | None = None) -> SurveyReport:
    """For every ordered generating pair (x, y) of G, decide whether some
    automorphism inverts both; report counts and the first counterexample
    in row-major order.

    Both branches decide a pair at one representative per orbit of a group
    of automorphisms, which moves generating pairs to generating pairs and
    inverted pairs to inverted pairs, and count each decision with its
    orbit's size.  For a fixed first element x, generation is decided once
    per generation class of y (:func:`_generation_classes`).  The least bad
    pair lies at the least representative x with a bad pair, and is its
    least bad y.

    Without ``aut_gens`` x runs over the least member of each conjugacy
    class, weighted by class size, and the generation classes of y also
    follow conjugation by C_G(x).  Every automorphism counts, inner ones
    included, so inversion too is constant on a generation class, and one
    :func:`extends_from_generating` per generating class decides it (covers
    outer automorphisms).

    With ``aut_gens`` (permutations normalizing a :class:`PermGroup` G,
    e.g. PGammaL(2,q) over PSL(2,q)) the automorphisms are the induced
    action A, kept on the columns of ``G.generators`` by
    :class:`_InducedAction`; no (|A|, |G|) array is built.  x runs over the
    least member r of each A-orbit, read off column r, weighted by orbit
    size.  The members of the stabilizer A_r are the elements whose column
    r is r, and the full rows of a few of them generate it
    (:meth:`_InducedAction.subgroup_rows`); the generation classes of y also
    follow their orbits.  The automorphisms sending r to r^-1 are the coset
    u A_r of the first one, u, so (r, y) is inverted iff u^-1(y^-1) lies in
    y's A_r-orbit (``docs/decisions.md``).
    """
    if aut_gens is not None and not isinstance(G, PermGroup):
        raise ValueError("aut_gens requires a permutation group, got "
                         f"{type(G).__name__}")
    n = G.size
    inv = inverse_ids(G)
    ident = np.arange(n)
    generating = 0
    inverted = 0
    counterexample = None
    if aut_gens is None:
        for cls in conjugacy_classes(G):
            x = cls[0]
            cent = conjugation(G, x, inv) == ident
            class_of, gen = _generation_classes(
                G, x, inv, conjugation_generators(G, cent, inv))
            sizes = np.bincount(class_of, minlength=n).tolist()
            generating += len(cls) * int(gen.sum())
            for y in np.flatnonzero(gen & (class_of == ident)).tolist():
                if extends_from_generating(G, (x, y), (int(inv[x]), int(inv[y]))):
                    inverted += len(cls) * sizes[y]
                elif counterexample is None:
                    counterexample = (x, y)
        return SurveyReport(n, n * n, generating, inverted, counterexample)

    A = _InducedAction(G, aut_gens)
    seen = np.zeros(n, dtype=bool)
    for r in range(n):  # each unseen r is the least member of its A-orbit
        if seen[r]:
            continue
        images = A.column(r)
        seen[images] = True
        fixes = np.flatnonzero(images == r)
        orbit = A.order // len(fixes)  # |A| / |A_r|
        # orbit ids of the stabilizer A_r, and the least point of each orbit
        ids, is_least = conjugation_orbits(n, A.subgroup_rows(fixes))
        _, gen = _generation_classes(G, r, inv, [np.flatnonzero(is_least)[ids]])
        # the automorphisms sending r to r^-1 are the coset u A_r of any one
        # u; one of them sends y to y^-1 iff u^-1(y^-1) is in y's A_r-orbit
        u = int(np.argmax(images == inv[r]))
        if images[u] == inv[r]:
            u_inv = np.empty(n, dtype=np.int64)
            u_inv[A.row(u)] = ident
            inverts = ids[u_inv[inv]] == ids
        else:
            inverts = np.zeros(n, dtype=bool)
        generating += orbit * int(gen.sum())
        inverted += orbit * int((gen & inverts).sum())
        bad = gen & ~inverts
        if counterexample is None and bad.any():
            counterexample = (r, int(bad.argmax()))
    return SurveyReport(n, n * n, generating, inverted, counterexample)


# -- triple counting: one pass over G x G and the character formula -----------

def class_triple_counts(G: GroupTable, classes: Sequence[Sequence[int]]) -> np.ndarray:
    """The k x k x k array whose [i, j, l] entry is the number of pairs (a, b)
    in classes[i] x classes[j] with (ab)^-1 in classes[l], i.e. solutions of
    abc = 1 with c restricted to classes[l].  ``classes`` must partition the
    ids.  One pass over G x G: row a of the product table holds ab for every
    b, from one :meth:`~GroupTable.right_mult` per b."""
    k = len(classes)
    owner = np.full(G.size, -1, dtype=np.int64)
    for i, c in enumerate(classes):
        owner[c] = i
    if sum(map(len, classes)) != G.size or (owner < 0).any():
        raise ValueError("the classes do not partition the group")
    products = np.stack([G.right_mult(b) for b in range(G.size)], axis=1)
    keys = (owner[:, None] * k + owner) * k + owner[inverse_ids(G)[products]]
    return np.bincount(keys.ravel(), minlength=k ** 3).reshape(k, k, k)


class BadCharacterTable(Exception):
    pass


@dataclass
class CharacterTable:
    order: int
    class_sizes: list[int]
    class_labels: list[str]
    class_reps: list[str]  # cycle strings locating each class, may be empty
    chars: list[list[complex]]

    def validate(self, tol: float = 1e-8) -> None:
        if sum(self.class_sizes) != self.order:
            raise BadCharacterTable("class sizes do not sum to the group order")
        for row in self.chars:
            if not (row[0].real > 0 and abs(row[0].imag) < tol):
                raise BadCharacterTable("a character degree is not positive")
        k = len(self.class_sizes)
        for i, ri in enumerate(self.chars):
            for j, rj in enumerate(self.chars):
                s = sum(self.class_sizes[t] * ri[t] * rj[t].conjugate()
                        for t in range(k))
                want = self.order if i == j else 0
                if abs(s - want) > tol * self.order:
                    raise BadCharacterTable("row orthogonality fails")

    @classmethod
    def from_json(cls, obj) -> "CharacterTable":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(
            order=obj["order"],
            class_sizes=[c["size"] for c in obj["classes"]],
            class_labels=[c["label"] for c in obj["classes"]],
            class_reps=[c.get("rep", "") for c in obj["classes"]],
            chars=[[complex(re, im) for re, im in row] for row in obj["chars"]],
        )


def frobenius_count(ct: CharacterTable, a_class: int, b_class: int,
                    c_class: int, tol: float = 1e-6) -> int:
    """|A||B||C|/|G| * sum over irreducible characters of
    chi(a)chi(b)chi(c)/chi(1); must come out a nonnegative integer."""
    total = 0j
    for row in ct.chars:
        total += row[a_class] * row[b_class] * row[c_class] / row[0]
    sizes = ct.class_sizes
    value = total * sizes[a_class] * sizes[b_class] * sizes[c_class] / ct.order
    if abs(value.imag) > tol or abs(value.real - round(value.real)) > tol:
        raise BadCharacterTable(
            f"formula value {value} is not an integer: corrupted table")
    return round(value.real)


# -- index-2 subgroups (even-realization machinery) ---------------------------

def index2_characters(G: GroupTable) -> list[list[int]]:
    """All homomorphisms G -> C2 as 0/1 lists over element ids, the trivial
    one excluded.  Kernels are exactly the index-2 subgroups.  They are
    computed once per group and kept on it as tuples; each call returns
    fresh lists, so no caller can alter the kept copy."""
    chars = getattr(G, "_index2_characters", None)
    if chars is None:
        chars = G._index2_characters = tuple(map(tuple, _index2_characters(G)))
    return [list(lam) for lam in chars]


def _index2_characters(G: GroupTable) -> list[list[int]]:
    """The characters of :func:`index2_characters`, computed.

    One layered closure over the generators' :meth:`~GroupTable.right_mult`
    arrays labels every element x with the GF(2) vector c(x), a bit mask of
    generator parities along a BFS tree path.  The characters do not depend
    on the generating set, so a generator inside the span of those before it
    is left out.  The defects c(g) + e_j + c(g s_j) of all edges span the
    relation space D, and c(x) mod D is the class of x in G/G'G^2.  The
    characters are listed over the greedy basis of that quotient: scanning
    ids upward, each id whose class lies outside the span of D and the ids
    kept so far.  Bit i of a character's index (from 1) is its value on
    basis element i (``docs/decisions.md``)."""
    images = _mult_columns(G, [])
    label = np.zeros(G.size, dtype=np.int64)
    reached = np.zeros(G.size, dtype=bool)
    reached[0] = True
    for s in G.generators:
        # each generator kept at least doubles the span, so a label needs
        # at most log2 |G| bits
        if reached[s]:
            continue
        images = np.hstack((images, _mult_columns(G, [s])))
        for pts, parents, gen in perms.point_closure(images, reached, np.flatnonzero(reached)):
            label[pts] = label[parents] ^ (1 << gen)

    # a GF(2) basis of (vector, coordinates over the greedy basis) pairs with
    # distinct leading bits, largest first; D's vectors have coordinates 0
    basis: list[tuple[int, int]] = []

    def reduce(v: int) -> tuple[int, int]:
        coords = 0
        for b, cb in basis:
            if v ^ b < v:
                v, coords = v ^ b, coords ^ cb
        return v, coords

    def insert(v: int, unit: int) -> bool:
        v, coords = reduce(v)
        if v:
            basis.append((v, coords ^ unit))
            basis.sort(reverse=True)
        return v != 0

    # the defects, which span D, each once (sorted; a plain np.unique would
    # import numpy.ma on its first call, 20 ms)
    bits = 1 << np.arange(images.shape[1])
    defects = np.sort((label[:, None] ^ bits ^ label[images]).ravel())
    for d in defects[np.diff(defects, prepend=-1) != 0].tolist():
        insert(d, 0)
    values, first, inverse = np.unique(label, return_index=True, return_inverse=True)
    rank = 0
    for v in values[np.argsort(first)].tolist():  # in order of least member
        if insert(v, 1 << rank):
            rank += 1
    coords = np.array([reduce(v)[1] for v in values.tolist()])[inverse]
    parity = np.array([bin(c).count("1") & 1 for c in range(1 << rank)])
    return [parity[coords & vec].tolist() for vec in range(1, 1 << rank)]


# -- JSON loading --------------------------------------------------------------

def _int_fields(obj: dict, family: str, names: tuple[str, ...]) -> list[int]:
    values = [obj.get(name) for name in names]
    if not all(_is_int(v) for v in values):
        raise ValueError(f"a {family} group needs integer fields "
                         + ", ".join(repr(name) for name in names))
    return values


def _check_order(base: int, exponent: int, cap: int) -> None:
    """:class:`CapExceeded` when a family's order ``base ** exponent`` is
    over ``cap``, decided without computing a huge power."""
    if base >= 2 and exponent >= 1 and (
            base > cap or exponent > cap.bit_length() or base ** exponent > cap):
        raise CapExceeded(cap)


def group_from_json(obj, cap: int = TABLE_CAP) -> GroupTable:
    """{"family":"gpef","p":..,"e":..,"f":..}, {"family":"gpef_alpha","e":..},
    or {"degree":n,"generators":[cycles-or-image-lists]}.  Malformed input
    raises ``ValueError`` naming the problem; a group of more than ``cap``
    elements raises :class:`CapExceeded`."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("a group must be a JSON object: a family or degree "
                         "and generators")
    fam = obj.get("family")
    if fam == "gpef":
        p, e, f = _int_fields(obj, fam, ("p", "e", "f"))
        _check_order(p, 2 * e, cap)
        return GpefGroup(p, e, f)
    if fam == "gpef_alpha":
        (e,) = _int_fields(obj, fam, ("e",))
        _check_order(2, 2 * e + 1, cap)
        return GpefAlphaGroup(e)
    if fam is not None:
        raise ValueError(f"unknown group family {fam!r}")
    degree, generators = obj.get("degree"), obj.get("generators")
    if not _is_int(degree) or degree < 1:
        raise ValueError(f"a permutation group needs a positive integer "
                         f"\"degree\", not {degree!r}")
    if not isinstance(generators, list) or not generators:
        raise ValueError("a permutation group needs a non-empty list of "
                         "\"generators\"")
    gens = []
    for g in generators:
        if isinstance(g, str):
            gens.append(perms.parse_cycles(g, degree))
        elif isinstance(g, list) and len(g) == degree:
            gens.append(perms.check_perm(g))
        else:
            raise ValueError(f"generator {g!r} is neither a cycle string nor "
                             f"a list of {degree} images")
    return PermGroup(gens, cap=cap)
