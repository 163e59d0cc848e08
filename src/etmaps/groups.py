"""Finite groups as enumerated multiplication structures.

A :class:`GroupTable` is a set of element ids ``0..size-1`` with a product
oracle; id 0 is always the identity.  Concrete tables: permutation groups
known only by their generators and order (:class:`ChainGroup`, whose ids are
handed out as elements are met) or enumerated by BFS closure
(:class:`PermGroup`), the metacyclic p-group families ``G_{p,e,f}`` and
their C2 extension by the automorphism ``g -> gh, h -> h^-1``, direct
products, extensions by an involutory automorphism, and quotients.

Automorphism questions are never answered by materializing Aut(G); they are
phrased as extension questions on generating tuples
(:func:`hom_extension_exists`), which covers outer automorphisms.  On
permutation groups generation and extension are order tests on stabilizer
chains (:func:`perms.order_exceeds`); other tables walk the Cayley graph
(:func:`hom_extension`, which also returns the image array).  The one
exception is :func:`simultaneous_inversion_survey` given permutations that
induce Aut(G): it closes their action on element ids as an array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import perms
from .perms import CapExceeded, Perm


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _exponents(value: list, arity: int) -> tuple[int, ...]:
    """Normal-form exponents given as a JSON list of ``arity`` integers."""
    if len(value) != arity or not all(_is_int(c) for c in value):
        raise ValueError(f"{value!r} is not a list of {arity} integer exponents")
    return tuple(value)


class GroupTable:
    """Finite group on ids 0..size-1 with a product oracle; identity is 0."""

    size: int
    generators: list[int]

    def product(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inverse(self, a: int) -> int:
        raise NotImplementedError

    def right_mult(self, w: int) -> np.ndarray:
        """The ids of g w for every element id g, in order, as an int64 array."""
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
        """Sorted element ids of the subgroup generated by ``seed``."""
        seen = {0}
        frontier = [0]
        gens = [s for s in dict.fromkeys(seed)]
        while frontier:
            nxt = []
            for x in frontier:
                for s in gens:
                    y = self.product(x, s)
                    if y not in seen:
                        if cap is not None and len(seen) >= cap:
                            raise CapExceeded(cap)
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return sorted(seen)

    def generates(self, seed: Iterable[int]) -> bool:
        """True iff ``seed`` generates the whole group.  A subgroup has order
        at most size/2, so the closure may stop once it passes that bound."""
        try:
            elems = self.subgroup(seed, cap=self.size // 2 + 1)
        except CapExceeded:
            return True
        return len(elems) == self.size

    def spot_check(self, samples: int = 50) -> None:
        """Associativity on sampled triples, identity and inverse laws."""
        import random
        rng = random.Random(0)
        n = self.size
        for a in range(n):
            if self.product(a, 0) != a or self.product(0, a) != a:
                raise ValueError("identity law fails")
            if self.product(a, self.inverse(a)) != 0:
                raise ValueError("inverse law fails")
        for _ in range(samples):
            a, b, c = (rng.randrange(n) for _ in range(3))
            if self.product(self.product(a, b), c) != self.product(a, self.product(b, c)):
                raise ValueError("associativity fails on a sampled triple")


class ChainGroup(GroupTable):
    """A permutation group known only by its generators and its order from a
    stabilizer chain (:func:`perms.group_order`), with no cap.

    Ids are handed out as elements are met: the identity 0, the generators,
    then each new product, inverse or member given to :meth:`id_of` (checked
    by a chain order test).  They are internal; elements print as cycles.
    The element table, the :class:`PermGroup` on the same generators under
    its default cap, is built by the first :meth:`right_mult`, when a map is
    built, and answers in its own BFS ids.
    """

    def __init__(self, generators: Sequence[Perm]):
        self._gens = [tuple(g) for g in generators]
        self.degree = len(self._gens[0])
        self.size = perms.group_order(perms.group_spec(self._gens), cap=None)
        self._elems = [tuple(range(self.degree))]
        self._index = {self._elems[0]: 0}
        self.generators = [self._intern(g) for g in self._gens]

    def _intern(self, p: Perm) -> int:
        a = self._index.get(p)
        if a is None:
            a = self._index[p] = len(self._elems)
            self._elems.append(p)
        return a

    @cached_property
    def table(self) -> "PermGroup":
        return PermGroup(self._gens)

    def elem(self, a: int) -> Perm:
        return self._elems[a]

    def id_of(self, p: Perm) -> int:
        p = tuple(p)
        if p not in self._index and (
                len(p) != self.degree or perms.order_exceeds(self._gens + [p], self.size)):
            raise ValueError(f"permutation {perms.format_cycles(p)} not in group")
        return self._intern(p)

    def product(self, a: int, b: int) -> int:
        return self._intern(perms.compose(self._elems[a], self._elems[b]))

    def inverse(self, a: int) -> int:
        return self._intern(perms.inverse(self._elems[a]))

    def right_mult(self, w: int) -> np.ndarray:
        """In the ids of :attr:`table`, over all of its elements."""
        table = self.table
        return table.right_mult(table.id_of(self._elems[w]))

    def label(self, a: int) -> str:
        return perms.format_cycles(self._elems[a])

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
        return perms.order_exceeds([self._elems[s] for s in seed], self.size // 2)


class PermGroup(ChainGroup):
    """A permutation group with its element table, enumerated by BFS closure
    from its generators.

    Element ids follow the deterministic BFS order of
    :func:`perms.bfs_closure` (word length, frontier position, generator
    index), so downstream reports are reproducible byte for byte.  The group
    is held as its (size, degree) element matrix with the sorted
    :func:`perms.row_keys` of its rows; the element tuples and the tuple ->
    id dict serve the per-element product.
    """

    def __init__(self, generators: Sequence[Perm], cap: int = 10**7):
        self._gens = gens = [tuple(g) for g in generators]
        self.degree = len(gens[0])
        perms.group_order(perms.group_spec(gens), cap)  # before any enumeration
        self._matrix = perms.bfs_closure(gens)
        keys = perms.row_keys(self._matrix)
        self._key_ids = np.argsort(keys)
        self._sorted_keys = keys[self._key_ids]
        self._elems = list(zip(*self._matrix.T.tolist()))  # row tuples
        self.size = len(self._elems)
        self._index = dict(zip(self._elems, range(self.size)))
        self.generators = [self._index[g] for g in gens]
        self._inv: list[int | None] = [None] * self.size

    @property
    def table(self) -> "PermGroup":
        return self

    def product(self, a: int, b: int) -> int:
        return self._index[perms.compose(self._elems[a], self._elems[b])]

    def right_mult(self, w: int) -> np.ndarray:
        """One gather on the element matrix, then ids by binary search in
        the sorted row keys."""
        products = self._matrix[w][self._matrix]  # row g: apply g, then w
        return self._key_ids[np.searchsorted(self._sorted_keys, perms.row_keys(products))]

    def inverse(self, a: int) -> int:
        cached = self._inv[a]
        if cached is None:
            cached = self._index[perms.inverse(self._elems[a])]
            self._inv[a] = cached
        return cached

    # its own attribute, so that perfbench's tracer can wrap it by name
    generates = ChainGroup.generates


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

    def inverse(self, a: int) -> int:
        a1, a2 = divmod(a, self.right.size)
        return self.left.inverse(a1) * self.right.size + self.right.inverse(a2)

    def label(self, a: int) -> str:
        a1, a2 = divmod(a, self.right.size)
        return f"({self.left.label(a1)}, {self.right.label(a2)})"


class InvolutoryExtension(GroupTable):
    """G x| <t> with t^2 = 1 acting on G by a given involutory automorphism.

    Elements (x, eps) with id = x*2 + eps and (x,1)(y,d) = (x a(y), 1+d).
    """

    def __init__(self, base: GroupTable, alpha: Sequence[int]):
        if len(alpha) != base.size:
            raise ValueError("alpha must be a map on all element ids")
        self.base = base
        self.alpha = list(alpha)
        for x in range(base.size):
            if self.alpha[self.alpha[x]] != x:
                raise ValueError("alpha is not involutory")
        self.size = 2 * base.size
        self.generators = [g * 2 for g in base.generators] + [1]  # (e,1) has id 1

    def product(self, a: int, b: int) -> int:
        x, eps = divmod(a, 2)
        y, delta = divmod(b, 2)
        y2 = self.alpha[y] if eps else y
        return self.base.product(x, y2) * 2 + ((eps + delta) % 2)

    def inverse(self, a: int) -> int:
        x, eps = divmod(a, 2)
        xi = self.base.inverse(x)
        return (self.alpha[xi] if eps else xi) * 2 + eps

    def label(self, a: int) -> str:
        x, eps = divmod(a, 2)
        return self.base.label(x) + (" t" if eps else "")


class QuotientGroup(GroupTable):
    """G/N for a verified-normal subgroup N; cosets in order of least member,
    so the identity coset is id 0."""

    def __init__(self, parent: GroupTable, members: Sequence[int], check: bool = True):
        mem = sorted(set(members))
        if check:
            _check_subgroup(parent, mem)
            _check_normal(parent, mem)
        self.parent = parent
        coset_of = [-1] * parent.size
        reps: list[int] = []
        for x in range(parent.size):
            if coset_of[x] != -1:
                continue
            cid = len(reps)
            reps.append(x)
            for m in mem:
                coset_of[parent.product(m, x)] = cid
        self.coset_of = coset_of
        self.reps = reps
        self.size = len(reps)
        self.generators = sorted({coset_of[g] for g in parent.generators}) or [0]

    def product(self, a: int, b: int) -> int:
        return self.coset_of[self.parent.product(self.reps[a], self.reps[b])]

    def inverse(self, a: int) -> int:
        return self.coset_of[self.parent.inverse(self.reps[a])]

    def label(self, a: int) -> str:
        return self.parent.label(self.reps[a]) + " N"


@dataclass(frozen=True)
class SubgroupSet:
    """A subgroup of a :class:`GroupTable`, with a generating seed kept so the
    derived series can continue without scanning all member pairs."""

    parent: GroupTable
    members: tuple[int, ...]
    gens: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


def _check_subgroup(G: GroupTable, members: Sequence[int]) -> None:
    mset = set(members)
    if 0 not in mset:
        raise ValueError("subgroup must contain the identity")
    for a in members:
        if G.inverse(a) not in mset:
            raise ValueError("subgroup not closed under inverse")
        for b in members:
            if G.product(a, b) not in mset:
                raise ValueError("subgroup not closed under product")


def _check_normal(G: GroupTable, members: Sequence[int]) -> None:
    mset = set(members)
    for g in G.generators:
        for m in members:
            if G.conjugate(m, g) not in mset:
                raise ValueError("subgroup is not normal")


def center(G: GroupTable) -> list[int]:
    gens = G.generators
    return [x for x in range(G.size)
            if all(G.product(x, g) == G.product(g, x) for g in gens)]


def normal_closure(G: GroupTable, seed: Iterable[int],
                   conjugators: Sequence[int] | None = None) -> SubgroupSet:
    """Smallest subgroup containing ``seed`` and closed under conjugation by
    ``conjugators`` (default: the group generators)."""
    if conjugators is None:
        conjugators = G.generators
    conj = list(conjugators) + [G.inverse(c) for c in conjugators]
    gens = [s for s in dict.fromkeys(seed) if s != 0]
    members = set(G.subgroup(gens))
    changed = True
    while changed:
        changed = False
        for h in list(gens):
            for c in conj:
                x = G.conjugate(h, c)
                if x not in members:
                    gens.append(x)
                    members = set(G.subgroup(gens))
                    changed = True
    return SubgroupSet(G, tuple(sorted(members)), tuple(gens))


def derived_subgroup(G: GroupTable) -> SubgroupSet:
    """Normal closure of the commutators of the generators."""
    seed = [G.commutator(a, b) for a in G.generators for b in G.generators]
    return normal_closure(G, seed)


def derived_series(G: GroupTable) -> list[SubgroupSet]:
    """G >= G' >= G'' >= ... until the series stabilizes."""
    whole = SubgroupSet(G, tuple(range(G.size)), tuple(G.generators))
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


def quotient(G: GroupTable, members: Sequence[int]) -> QuotientGroup:
    return QuotientGroup(G, members)


def nilpotence_class(G: GroupTable) -> int | None:
    """Length of the upper central series, or None if G is not nilpotent."""
    Q: GroupTable = G
    c = 0
    while Q.size > 1:
        Z = center(Q)
        if len(Z) == 1:
            return None
        Q = QuotientGroup(Q, Z, check=False)
        c += 1
    return c


def conjugacy_classes(G: GroupTable) -> list[list[int]]:
    conj = list(G.generators) + [G.inverse(g) for g in G.generators]
    seen = [False] * G.size
    classes = []
    for x in range(G.size):
        if seen[x]:
            continue
        orbit = [x]
        seen[x] = True
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for c in conj:
                    z = G.conjugate(y, c)
                    if not seen[z]:
                        seen[z] = True
                        orbit.append(z)
                        nxt.append(z)
            frontier = nxt
        classes.append(sorted(orbit))
    return classes


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
    order = int(members.sum())
    span = np.zeros(G.size, dtype=bool)
    span[0] = True
    mults: list[np.ndarray] = []
    conj: list[np.ndarray] = []
    while int(span.sum()) < order:
        g = int(np.flatnonzero(members & ~span)[0])
        r = G.right_mult(g)
        mults.append(r)
        conj.append(inv[r[inv[r]]])  # conjugation(G, g, inv), reusing r
        frontier = np.flatnonzero(span)
        while len(frontier):
            reached = np.zeros(G.size, dtype=bool)
            for m in mults:
                reached[m[frontier]] = True
            frontier = np.flatnonzero(reached & ~span)
            span[frontier] = True
    return conj


def involutions(G: GroupTable) -> list[int]:
    return [x for x in range(1, G.size) if G.product(x, x) == 0]


def strongly_real(G: GroupTable, x: int) -> bool:
    """x is the identity, an involution, or a product of two involutions,
    i.e. inverted by some involution."""
    if x == 0 or G.product(x, x) == 0:
        return True
    xinv = G.inverse(x)
    return any(G.conjugate(x, t) == xinv for t in involutions(G))


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
    generate G.

    On a :class:`ChainGroup` this is decided by stabilizer chains.  The
    diagonal subgroup <(src_i, dst_i)> of G x G, acting on 2 * degree points,
    projects onto G; it is the graph of a homomorphism iff its order is |G|,
    and that homomorphism is onto iff ``dst`` generates G.  Other groups walk
    :func:`hom_extension`.
    """
    if not isinstance(G, ChainGroup):
        return hom_extension(G, src, dst) is not None
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal length")
    # order_exceeds rather than G.generates, so that per-layer traces count
    # only the callers' own generation tests
    half = G.size // 2
    src_perms = [G.elem(x) for x in src]
    if not perms.order_exceeds(src_perms, half):
        raise ValueError("src does not generate the group")
    n = G.degree
    dst_perms = [G.elem(y) for y in dst]
    diagonal = [a + tuple(j + n for j in b) for a, b in zip(src_perms, dst_perms)]
    if perms.order_exceeds(diagonal, G.size):
        return False
    return perms.order_exceeds(dst_perms, half)


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


def _induced_action(G: PermGroup, aut_gens: Sequence[Perm]) -> np.ndarray:
    """The group of element-id permutations induced on G by conjugation with
    ``aut_gens``, one (|G|,) int32 row per automorphism, identity first.

    Only the generators are conjugated element by element; their rows are
    closed under composition by gathers.  Two rows are the same automorphism
    exactly when they agree on ``G.generators``, which is the dedup key."""
    n = G.size
    gen_rows = []
    for a in aut_gens:
        a = tuple(a)
        if len(a) != G.degree:
            raise ValueError("aut_gens must act on the group's points")
        a_inv = perms.inverse(a)
        try:
            gen_rows.append([G.id_of(perms.compose(perms.compose(a_inv, G.elem(x)), a))
                             for x in range(n)])
        except ValueError as exc:
            raise ValueError("aut_action does not normalize the group") from exc
    gen_rows = np.array(gen_rows, dtype=np.int32).reshape(-1, n)
    key_cols = np.array(G.generators)
    found = [np.arange(n, dtype=np.int32)[None, :]]
    seen = {tuple(key_cols.tolist())}
    frontier = found[0]
    while len(frontier) and len(gen_rows):
        layer = []
        for g in gen_rows:
            images = g[frontier]  # row f: apply f, then g
            fresh = []
            for i, key in enumerate(map(tuple, images[:, key_cols].tolist())):
                if key not in seen:
                    seen.add(key)
                    fresh.append(i)
            layer.append(images[fresh])
        frontier = np.concatenate(layer)
        found.append(frontier)
    return np.concatenate(found)


def simultaneous_inversion_survey(G: GroupTable,
                                  aut_gens: Sequence[Perm] | None = None) -> SurveyReport:
    """For every ordered generating pair (x, y) of G, decide whether some
    automorphism inverts both; report counts and the first counterexample
    in row-major order.

    Without ``aut_gens`` each generating pair is tested with
    :func:`hom_extension_exists` (covers outer automorphisms).

    With ``aut_gens`` (permutations normalizing a :class:`PermGroup` G and
    inducing all of Aut G, e.g. PGammaL(2,q) over PSL(2,q)) the survey runs
    on the induced action A, an (|A|, |G|) array of element-id permutations
    built by :func:`_induced_action`.  (x, y) is inverted iff some row of A
    sends x to x^-1 and y to y^-1, a count read off one matrix product of the
    inversion indicators.  Generation is invariant under A: it is decided
    for (r, y) with r one representative per A-orbit, once per orbit of the
    stabilizer A_r on y, and carried to (x, .) by a row of A taking r to x.
    The counts are exact either way.
    """
    n = G.size
    if aut_gens is None:
        # generation and invertibility are invariant under simultaneous
        # conjugation, so scan one representative per conjugacy class in the
        # first slot and weight by the class size; the counts stay exact
        generating = 0
        inverted = 0
        counterexample = None
        for cls in conjugacy_classes(G):
            x = cls[0]
            xi = G.inverse(x)
            weight = len(cls)
            for y in range(n):
                if not G.generates((x, y)):
                    continue
                generating += weight
                if hom_extension_exists(G, (x, y), (xi, G.inverse(y))):
                    inverted += weight
                elif counterexample is None:
                    counterexample = (x, y)
        return SurveyReport(n, n * n, generating, inverted, counterexample)

    if not isinstance(G, PermGroup):
        raise ValueError("aut_gens requires a permutation group, got "
                         f"{type(G).__name__}")
    acts = _induced_action(G, aut_gens)
    inverts = (acts == np.array([G.inverse(x) for x in range(n)])).astype(np.float32)
    # float32 counts are exact below 2**24 automorphisms
    pairmat = (inverts.T @ inverts) > 0

    orbit_of = np.full(n, -1)
    via = np.zeros(n, dtype=np.int64)  # a row of acts taking the orbit rep to x
    rows = []  # per orbit rep r: does (r, y) generate, for every y
    for r in range(n):
        if orbit_of[r] >= 0:
            continue
        points, first = np.unique(acts[:, r], return_index=True)
        orbit_of[points] = len(rows)
        via[points] = first
        # least point of each orbit of the stabilizer of r (a subgroup, so
        # its rows hold every image of y)
        lead = acts[acts[:, r] == r].min(axis=0)
        verdict = np.zeros(n, dtype=bool)
        for y in np.flatnonzero(np.bincount(lead, minlength=n)).tolist():
            verdict[y] = G.generates((r, y))
        rows.append(verdict[lead])
    genmat = np.empty((n, n), dtype=bool)
    genmat[np.arange(n)[:, None], acts[via]] = np.array(rows)[orbit_of]

    bad = genmat & ~pairmat
    counterexample = divmod(int(bad.argmax()), n) if bad.any() else None
    return SurveyReport(n, n * n, int(genmat.sum()), int((genmat & pairmat).sum()),
                        counterexample)


# -- triple counting: brute force and the character formula -------------------

def count_triples_brute(G: GroupTable, A: Iterable[int], B: Iterable[int],
                        C: Iterable[int]) -> int:
    """Number of pairs (a, b) in A x B with (ab)^-1 in C, i.e. solutions of
    abc = 1 with c restricted to C."""
    Cset = set(C)
    count = 0
    for a in A:
        for b in B:
            if G.inverse(G.product(a, b)) in Cset:
                count += 1
    return count


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
    """All homomorphisms G -> C2 as 0/1 arrays over element ids, the trivial
    one excluded.  Kernels are exactly the index-2 subgroups."""
    der = derived_subgroup(G)
    seed = list(der.gens) + [G.product(g, g) for g in G.generators]
    K = normal_closure(G, seed)
    Q = QuotientGroup(G, K.members, check=False)
    if Q.size == 1:
        return []
    # Q is elementary abelian of exponent 2; find a basis greedily.
    basis: list[int] = []
    span = {0}
    for q in range(1, Q.size):
        if q in span:
            continue
        basis.append(q)
        span = set(Q.subgroup(basis))
        if len(span) == Q.size:
            break
    out = []
    for vec in range(1, 1 << len(basis)):
        lam_q = [-1] * Q.size
        lam_q[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for i, b in enumerate(basis):
                    y = Q.product(x, b)
                    v = lam_q[x] ^ ((vec >> i) & 1)
                    if lam_q[y] == -1:
                        lam_q[y] = v
                        nxt.append(y)
            frontier = nxt
        out.append([lam_q[Q.coset_of[x]] for x in range(G.size)])
    return out


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


def group_from_json(obj, cap: int = 10**7) -> GroupTable:
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
