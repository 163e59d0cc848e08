"""The hand-written table-only groups that ``groups.Product`` replaced, kept
as the reference the product tables are checked against
(``test_product_tables.py``).  Each class states its normal form in its own
``product``, ``right_mult`` and ``inverse``; the ids are those of the
product tables.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from etmaps.groups import GroupTable, _exponents


class RefGpefGroup(GroupTable):
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


class RefGpefAlphaGroup(GroupTable):
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


class RefDirectProduct(GroupTable):
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
