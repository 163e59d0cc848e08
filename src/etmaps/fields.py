"""GF(p^e) arithmetic and the PSL(2,q) action on the projective line.

Field elements are integers 0..p^e-1 encoding coefficient vectors base p,
least significant coefficient first; the reducing polynomial is the first
monic irreducible of degree e in this enumeration, so every construction
here is deterministic.  The projective line is indexed 0..q-1 (the field
elements in enumeration order) with the point at infinity last, index q.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .perms import Perm


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p ** 0.5) + 1))


class FiniteField:
    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("degree must be positive")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = self._first_irreducible() if e > 1 else (0, 1)
        self._mul_table: dict[tuple[int, int], int] | None = None

    # polynomials are tuples of coefficients, constant term first

    def _poly_of(self, a: int) -> tuple[int, ...]:
        coeffs = []
        for _ in range(self.e):
            coeffs.append(a % self.p)
            a //= self.p
        return tuple(coeffs)

    def _int_of(self, coeffs) -> int:
        a = 0
        for c in reversed(coeffs):
            a = a * self.p + c % self.p
        return a

    def _first_irreducible(self) -> tuple[int, ...]:
        """First monic irreducible of degree e, by integer order of the low
        coefficient vector; returned with the leading 1 included."""
        for low in range(self.p ** self.e):
            coeffs = []
            a = low
            for _ in range(self.e):
                coeffs.append(a % self.p)
                a //= self.p
            poly = tuple(coeffs) + (1,)
            if self._poly_irreducible(poly):
                return poly
        raise AssertionError("no irreducible polynomial found")

    def _poly_irreducible(self, poly: tuple[int, ...]) -> bool:
        deg = len(poly) - 1
        if deg < 1 or poly[-1] != 1:
            return False
        for low in range(self.p, self.p ** ((deg // 2) + 1)):
            divisor = []
            a = low
            while a:
                divisor.append(a % self.p)
                a //= self.p
            if len(divisor) < 2 or divisor[-1] != 1:
                continue
            if self._poly_mod(poly, tuple(divisor)) == ():
                return False
        return True

    def _poly_mod(self, num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
        num_l = list(num)
        dd = len(den) - 1
        inv_lead = pow(den[-1], -1, self.p)
        for i in range(len(num_l) - 1, dd - 1, -1):
            c = num_l[i] * inv_lead % self.p
            if c:
                for j in range(dd + 1):
                    num_l[i - dd + j] = (num_l[i - dd + j] - c * den[j]) % self.p
        while num_l and num_l[-1] == 0:
            num_l.pop()
        return tuple(num_l)

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        pa, pb = self._poly_of(a), self._poly_of(b)
        return self._int_of([(x + y) % self.p for x, y in zip(pa, pb)])

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._int_of([(-x) % self.p for x in self._poly_of(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if self._mul_table is None:
            self._mul_table = {}
        key = (a, b) if a <= b else (b, a)
        cached = self._mul_table.get(key)
        if cached is not None:
            return cached
        pa, pb = self._poly_of(a), self._poly_of(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(pa):
            if x:
                for j, y in enumerate(pb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        rem = self._poly_mod(tuple(prod), self.modulus)
        val = self._int_of(rem + (0,) * (self.e - len(rem)))
        self._mul_table[key] = val
        return val

    @cached_property
    def _exp_log(self) -> tuple[int, list[int], list[int]]:
        """The least primitive root g with ``exp[i] = g^i`` for
        0 <= i < q - 1 and ``log[exp[i]] = i`` (``log[0]`` unused).  Each
        candidate's powers are multiplied out until they return to 1; the
        first candidate whose powers reach every nonzero element is g."""
        for g in range(1, self.q):
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = self.mul(x, g)
            if len(exp) == self.q - 1:
                log = [0] * self.q
                for i, y in enumerate(exp):
                    log[y] = i
                return g, exp, log
        raise AssertionError("multiplicative group not cyclic?")

    def power(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0 if k else 1
        _, exp, log = self._exp_log
        return exp[log[a] * k % (self.q - 1)]

    def inv(self, a: int) -> int:
        return self.power(a, -1)

    def elements(self) -> range:
        return range(self.q)

    def mult_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        n = self.q - 1
        return n // gcd(self._exp_log[2][a], n)

    def primitive_root(self) -> int:
        """The least primitive root."""
        return self._exp_log[0]

    def primitive_roots(self) -> list[int]:
        n = self.q - 1
        exp = self._exp_log[1]
        return sorted(exp[i] for i in range(n) if gcd(i, n) == 1)

    def squares(self) -> dict[int, int]:
        """x^2 -> least square root."""
        table: dict[int, int] = {}
        for x in range(self.q):
            s = self.mul(x, x)
            table.setdefault(s, x)
        return table

    def sqrt(self, a: int) -> int | None:
        return self.squares().get(a)

    def frobenius(self, a: int) -> int:
        return self.power(a, self.p)


def priminv_check(p: int, e: int) -> bool:
    """True iff some primitive root of GF(p^e) is Galois-conjugate to its own
    inverse; happens exactly for q <= 4."""
    F = FiniteField(p, e)
    for lam in F.primitive_roots():
        inv = F.inv(lam)
        for f in range(e):
            if F.power(lam, p ** f) == inv:
                return True
    return False


class PSL2Element:
    """2x2 matrix of determinant 1 over GF(q), identified with its negative;
    canonical form negates so the first nonzero entry is minimal."""

    __slots__ = ("field", "entries")

    def __init__(self, field: FiniteField, a: int, b: int, c: int, d: int):
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if det != 1:
            raise ValueError("determinant must be 1")
        entries = (a, b, c, d)
        neg = tuple(field.neg(x) for x in entries)
        for x, y in zip(entries, neg):
            if x != y:
                self.entries = entries if x < y else neg
                break
        else:
            self.entries = entries
        self.field = field

    def __eq__(self, other):
        return isinstance(other, PSL2Element) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __mul__(self, other: "PSL2Element") -> "PSL2Element":
        F = self.field
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return PSL2Element(
            F,
            F.add(F.mul(a, e), F.mul(b, g)), F.add(F.mul(a, f), F.mul(b, h)),
            F.add(F.mul(c, e), F.mul(d, g)), F.add(F.mul(c, f), F.mul(d, h)))

    def to_permutation(self) -> Perm:
        """Action t -> (a t + b)/(c t + d) on the projective line; field
        elements are points 0..q-1, infinity is point q."""
        F = self.field
        a, b, c, d = self.entries
        images = []
        for t in range(F.q):
            den = F.add(F.mul(c, t), d)
            if den == 0:
                images.append(F.q)
            else:
                num = F.add(F.mul(a, t), b)
                images.append(F.mul(num, F.inv(den)))
        images.append(F.mul(a, F.inv(c)) if c != 0 else F.q)
        return tuple(images)


def psl2_group_generators(q_field: FiniteField) -> list[Perm]:
    """Transvection generators of PSL(2,q) as permutations of the q+1 points."""
    F = q_field
    gens = []
    for k in range(F.e):
        b = F.p ** k  # the basis monomial t^k as a field element
        gens.append(PSL2Element(F, 1, b, 0, 1).to_permutation())
        gens.append(PSL2Element(F, 1, 0, b, 1).to_permutation())
    return gens


def pgammal2_generators(q_field: FiniteField) -> list[Perm]:
    """Permutations of the projective line generating PGammaL(2,q) = Aut of
    PSL(2,q): the PSL generators, a determinant-twisting element for odd q,
    and the Frobenius map."""
    F = q_field
    gens = list(psl2_group_generators(F))
    if F.p != 2:
        nu = F.primitive_root()  # a non-square
        images = [F.mul(nu, t) for t in range(F.q)] + [F.q]
        gens.append(tuple(images))
    if F.e > 1:
        frob = [F.frobenius(t) for t in range(F.q)] + [F.q]
        gens.append(tuple(frob))
    return gens

