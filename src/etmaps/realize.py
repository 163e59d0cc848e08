"""Explicit generator families realizing groups in the 14 classes: symmetric
and alternating groups, PSL(2,q), nilpotent 2-groups, and the solvable and
chiral witnesses, together with the propagation maps between classes.

Every function returns a :class:`Realization` (a direct-build spec for one of
the orbit-representative classes plus the D/P operations reaching the target
class) or raises :class:`Unrealizable` with a machine-checkable provenance:
"exhausted" when an in-repo search rules the cell out, "cited" when the
negative is catalog data beyond desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt

from . import build, fields, groups, perms
from .build import EpimorphismSpec, ORBIT_ROUTE
from .fields import FiniteField, PSL2Element
from .groups import PermGroup
from .perms import TABLE_CAP, CapExceeded, Perm


class Unrealizable(Exception):
    def __init__(self, reason: str, provenance: str = "exhausted"):
        super().__init__(reason)
        self.reason = reason
        self.provenance = provenance  # "exhausted" or "cited"


@dataclass
class Realization:
    label: str
    spec: EpimorphismSpec
    ops: str  # D/P word applied after building the representative spec

    def build(self):
        return build.transform_spec(self.spec, self.ops)


def _realization(label: str, group, images: dict[str, int]) -> Realization:
    shape, ops = ORBIT_ROUTE[label]
    spec = EpimorphismSpec(shape, group, images)
    violations = build.check_spec(spec)
    if violations:
        raise ValueError(f"invalid spec for class {label}: {violations}")
    return Realization(label, spec, ops)


# -- permutation builders (generator lists use 1-indexed points) ---------------

def involution(n: int, pairs) -> Perm:
    images = list(range(n))
    for a, b in pairs:
        a, b = a - 1, b - 1
        if images[a] != a or images[b] != b or a == b:
            raise ValueError(f"overlapping pairs in involution: {pairs}")
        images[a], images[b] = b, a
    return tuple(images)


def cycle(n: int, *points: int) -> Perm:
    images = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a - 1] = b - 1
    return perms.check_perm(images)


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError(f"the degree n must be at least 1, not {n}")


@cache
def sym_group(n: int) -> PermGroup:
    """S_n, one per n, under the table cap."""
    _check_degree(n)
    if n == 1:
        return PermGroup([(0,)])
    gens = [cycle(n, *range(1, n + 1)), involution(n, [(1, 2)])]
    return PermGroup(gens)


@cache
def alt_group(n: int) -> PermGroup:
    """A_n, one per n, with no cap: its element table is enumerated by the
    first array call, so the witnesses at large n need none."""
    if n <= 2:
        gens = [tuple(range(max(n, 1)))]
    elif n == 3:
        gens = [cycle(3, 1, 2, 3)]
    else:
        gens = [cycle(n, 1, 2, 3), cycle(n, *range(1, n + 1)) if n % 2
                else cycle(n, *range(2, n + 1))]
    return PermGroup(gens, cap=None)


@cache
def psl2_group(q: int) -> PermGroup:
    """L_2(q) (:func:`psl2_perm_group`), one per q.  Its order q(q^2 - 1)/
    gcd(2, q - 1) is checked against the table cap first, so that a q over
    the cap is refused before the field of order q is sought."""
    if q * (q * q - 1) // gcd(2, q - 1) > TABLE_CAP:
        raise CapExceeded(TABLE_CAP)
    return psl2_perm_group(_field_of(q))


def _ids(G: PermGroup, *ps: Perm) -> list[int]:
    return [G.id_of(p) for p in ps]


# -- symmetric groups, all maps (Table 1 row) ----------------------------------

def _mirror_pairs(lo: int, hi: int) -> list[tuple[int, int]]:
    """Pairs (lo, hi), (lo+1, hi-1), ... while the entries stay distinct."""
    out = []
    while lo < hi:
        out.append((lo, hi))
        lo, hi = lo + 1, hi - 1
    return out


def sym_class1(n: int) -> Realization:
    """Regular map with Aut = S_n: r0 = (1,2), r1 r2 = (1,...,n)."""
    if n < 3:
        raise ValueError("needs n >= 3")
    r1 = involution(n, _mirror_pairs(2, n))
    r2 = involution(n, [(1, 2)] + _mirror_pairs(3, n))
    r0 = involution(n, [(1, 2)])
    G = sym_group(n)
    ids = _ids(G, r0, r1, r2)
    return _realization("1", G, dict(zip(("R0", "R1", "R2"), ids)))


def sym_chiral(n: int) -> Realization:
    """Chiral (class 2Pex) map with Aut = S_n, n >= 6."""
    if n < 6:
        raise Unrealizable(
            f"every generating pair of S_{n} is simultaneously inverted")
    G = sym_group(n)
    if n == 6:
        x = cycle(6, 1, 2, 3, 4, 5, 6)
        y = involution(6, [(1, 2), (3, 5)])
    else:
        x = cycle(n, *range(1, n))
        y = involution(n, [(1, 3), (2, 4), (n - 1, n)])
    xi, yi = _ids(G, x, y)
    return _realization("2Pex", G, {"X": xi, "Y": yi})


# -- even realizations of symmetric groups (Table 3) ---------------------------

def _sym_even_class1_perms(n: int) -> tuple[Perm, Perm, Perm]:
    """Triples of odd involutions generating S_n with r0 r2 = r2 r0."""
    if n == 2:
        t = involution(2, [(1, 2)])
        return t, t, t
    if n % 4 == 3:
        r0 = involution(n, _mirror_pairs(2, n))
        r1 = involution(n, [(1, 2)] + _mirror_pairs(3, n))
        r2 = involution(n, [(2 * (n // 4) + 2, 2 * (n // 4) + 3)])
        return r0, r1, r2
    if n % 4 == 0:
        r0 = involution(n, _mirror_pairs(2, n - 1))
        r1 = involution(n, [(1, 2)] + _mirror_pairs(3, n - 1))
        r2 = involution(n, [(1, n)])
        return r0, r1, r2
    if n % 4 == 1:
        if n < 9:
            raise Unrealizable(f"odd involutions cannot generate S_{n} "
                               "with r0, r2 commuting")
        k = n // 4
        r0 = involution(n, [(2 * i - 1, 2 * i) for i in range(1, 2 * k)])
        r2 = involution(
            n, [p for i in range(k - 1)
                for p in ((4 * i + 3, 4 * i + 5), (4 * i + 4, 4 * i + 6))]
            + [(n - 2, n - 1)])
        if k % 2 == 0:
            head = [(1, 3)]
            blocks = [p for i in range(1, k - 1)
                      for p in ((4 * i + 1, 4 * i + 3), (4 * i + 2, 4 * i + 4))]
        else:
            head = [(1, 3), (5, 8), (6, 7)]
            blocks = [p for i in range(2, k - 1)
                      for p in ((4 * i + 1, 4 * i + 3), (4 * i + 2, 4 * i + 4))]
        r1 = involution(n, head + blocks + [(n - 4, n - 2), (n - 1, n)])
        return r0, r1, r2
    # n = 2 mod 4
    if n == 6:
        raise Unrealizable("S_6 has no generating triple of odd involutions "
                           "with r0, r2 commuting (outer automorphism argument)")
    if n == 10:
        r0 = involution(10, [(2 * i - 1, 2 * i) for i in range(1, 6)])
        r1 = involution(10, [(2, 4), (5, 7), (8, 10)])
        r2 = involution(10, [(3, 5), (4, 6), (7, 8)])
        return r0, r1, r2
    if n == 14:
        r0 = involution(14, [(2 * i - 1, 2 * i) for i in range(1, 8)])
        r1 = involution(14, [(2, 4), (5, 7), (6, 8), (9, 11), (12, 14)])
        r2 = involution(14, [(3, 5), (4, 6), (7, 9), (8, 10), (11, 12)])
        return r0, r1, r2
    k = n // 4
    r0 = involution(n, [(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)])
    r1 = involution(
        n, [(2, 4), (6, 8)]
        + [p for i in range(2, k - 2)
           for p in ((4 * i + 1, 4 * i + 3), (4 * i + 2, 4 * i + 4))]
        + [(n - 9, n - 7), (n - 5, n - 3), (n - 2, n)])
    r2 = involution(
        n, [p for i in range(k - 1)
            for p in ((4 * i + 3, 4 * i + 5), (4 * i + 4, 4 * i + 6))]
        + [(n - 3, n - 2)])
    return r0, r1, r2


def sym_even(label: str, n: int) -> Realization:
    """Orientable boundary-free map in the given class with Aut = S_n."""
    _check_degree(n)
    if label == "1":
        r0, r1, r2 = _sym_even_class1_perms(n)
        G = sym_group(n)
        return _realization("1", G, dict(zip(("R0", "R1", "R2"),
                                             _ids(G, r0, r1, r2))))
    if label in ("2", "2s"):
        if n in (2, 5, 6):
            raise Unrealizable(f"S_{n} not evenly realizable in class {label}")
        r0, r1, r2 = _sym_even_class1_perms(n)
        G = sym_group(n)
        ids = _ids(G, r0, r1, r2)
        return _realization(label, G, dict(zip(("S1", "S2", "S3"), ids)))
    if label == "2P":
        if n < 4:  # the even search finds none; S_3 departs from the source table
            raise Unrealizable(f"S_{n} not evenly realizable in class 2P")
        G = sym_group(n)
        if n == 5:
            imgs = (involution(5, [(1, 2)]), involution(5, [(3, 4)]),
                    involution(5, [(1, 3), (4, 5)]))
        elif n == 6:
            imgs = (involution(6, [(1, 3)]),
                    involution(6, [(1, 5), (2, 3), (4, 6)]),
                    involution(6, [(1, 2), (3, 4)]))
        else:
            r0, r1, r2 = _sym_even_class1_perms(n)
            imgs = (r0, r1, perms.compose(r0, r2))
        return _realization(label, G, dict(zip(("S1", "S2", "S3"), _ids(G, *imgs))))
    if label in ("2ex", "2sex"):
        if n < 7:
            raise Unrealizable(f"S_{n} not evenly realizable in class {label}")
        # S1 is odd and S an even cycle; the same S1 at every n >= 7
        # (docs/decisions.md)
        G = sym_group(n)
        s1 = involution(n, [(1, 3), (2, 4), (n - 1, n)])
        s = cycle(n, *range(1, n + 1)) if n % 2 else cycle(n, *range(1, n))
        ids = _ids(G, s1, s)
        return _realization(label, G, {"S1": ids[0], "S": ids[1]})
    if label == "2Pex":
        real = sym_chiral(n)
        return Realization(label, real.spec, "")
    if label == "3":
        if n < 3:
            raise Unrealizable(f"S_{n} not evenly realizable in class 3")
        return _sym_even_class3(n)
    if label in ("4", "4s"):
        if n < 4:
            raise Unrealizable(f"S_{n} not evenly realizable in class {label}")
        G = sym_group(n)
        if n % 2:
            imgs = (involution(n, [(1, 2)]), involution(n, [(1, 3)]),
                    cycle(n, *range(1, n + 1)))
        else:
            imgs = (involution(n, [(1, n)]), involution(n, [(1, 2)]),
                    cycle(n, *range(1, n)))
        ids = _ids(G, *imgs)
        return _realization(label, G, dict(zip(("S1", "S2", "S"), ids)))
    if label == "4P":
        G = sym_group(n)
        if n == 5:
            imgs = (involution(5, [(1, 2)]), involution(5, [(3, 4)]),
                    cycle(5, 2, 3, 4, 5))
        elif n == 6:
            s = perms.compose(cycle(6, 1, 5, 6), involution(6, [(2, 3)]))
            imgs = (involution(6, [(1, 2)]), involution(6, [(3, 4)]), s)
        elif n >= 3:
            r0, r1, r2 = _sym_even_class1_perms(n)
            imgs = (r0, r1, r2)
        else:
            raise Unrealizable(f"S_{n} not evenly realizable in class 4P")
        ids = _ids(G, *imgs)
        return _realization(label, G, dict(zip(("S1", "S2", "S"), ids)))
    if label in ("5", "5s", "5P"):
        if n < 6:
            raise Unrealizable(f"S_{n} not evenly realizable in class {label}")
        G = sym_group(n)
        if n == 6:
            s, sp = cycle(6, 1, 2, 5, 3), cycle(6, 1, 2, 3, 4, 5, 6)
        elif label == "5P" and n % 2 == 0:
            s = perms.compose(involution(n, [(1, 2)]), cycle(n, 3, 4, 5))
            sp = cycle(n, *range(1, n + 1))
        else:
            s = involution(n, [(1, 3), (2, 4), (n - 1, n)])
            sp = cycle(n, *range(1, n))
        ids = _ids(G, s, sp)
        return _realization(label, G, {"S": ids[0], "S'": ids[1]})
    raise ValueError(f"unknown class label {label!r}")


def _sym_even_class3(n: int) -> Realization:
    m = n - (n - 3) % 4
    half = (m - 1) // 2
    s0 = involution(n, [(2 * i - 1, 2 * i) for i in range(1, half + 1)])
    s1 = involution(n, [(2 * i, 2 * i + 1) for i in range(1, half + 1)])
    r = n - m
    if r == 0:
        s2 = s3 = involution(n, [(1, 2)])
    elif r == 1:
        s2 = s3 = involution(n, [(1, n)])
    elif r == 2:
        s2, s3 = involution(n, [(1, n)]), involution(n, [(2, n - 1)])
    else:
        s2 = involution(n, [(1, n), (2, n - 1), (3, n - 2)])
        s3 = involution(n, [(1, n)])
    G = sym_group(n)
    ids = _ids(G, s0, s1, s2, s3)
    return _realization("3", G, dict(zip(("S0", "S1", "S2", "S3"), ids)))


# -- alternating groups ---------------------------------------------------------

def alt_class1_perms(n: int) -> tuple[Perm, Perm, Perm]:
    """Involution triples (r0, r1, r2) with r0 r2 = r2 r0 generating A_n;
    they exist for n = 5 and n >= 9 only."""
    if n in (6, 7, 8):
        raise Unrealizable(
            f"A_{n} is not generated by three involutions, two commuting")
    if n < 5:
        raise Unrealizable(f"A_{n} is abelian or too small for class 1")
    if n == 5:
        r0 = involution(5, [(1, 2), (3, 4)])
        r2 = involution(5, [(1, 4), (2, 3)])
        r1 = involution(5, [(2, 3), (4, 5)])
    elif n % 4 == 1:
        r0 = involution(n, [(1, 2), (3, 4)])
        r2 = involution(n, [(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)])
        r1 = involution(n, [(2 * i, 2 * i + 1) for i in range(1, n // 2 + 1)])
    elif n % 4 == 2:
        r0 = involution(n, [(1, 2), (3, 4)])
        r2 = involution(n, [(2 * i + 1, 2 * i + 2) for i in range(1, n // 2)])
        r1 = involution(n, [(2 * i, 2 * i + 1) for i in range(1, n // 2)])
    elif n % 4 == 3:
        r0 = involution(n, [(1, 4), (2, 3), (5, 6), (n - 2, n - 1)])
        r2 = involution(n, [(2 * i - 1, 2 * i) for i in range(1, (n - 1) // 2)])
        r1 = involution(n, [(2 * i + 2, 2 * i + 3) for i in range(1, (n - 1) // 2)])
    else:
        # n = 4k: the r0 = (1,2)(3,4) printed alongside this r1, r2 leaves the
        # blocks {1,4}{2,3}{5,12}... invariant; the 4k+3-style r0 below
        # normalizes r2 and the triple generates A_n (exact chain order)
        r0 = involution(n, [(1, 4), (2, 3), (5, 6), (7, 8)])
        r2 = involution(n, [(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)])
        r1 = involution(n, [(2 * i, 2 * i + 1) for i in range(1, n // 2)] + [(1, n)])
    return r0, r1, r2


def alt_class1(n: int) -> Realization:
    """Regular map with Aut = A_n; exists for n = 5 and n >= 9 only."""
    r0, r1, r2 = alt_class1_perms(n)
    G = alt_group(n)
    ids = _ids(G, r0, r1, r2)
    return _realization("1", G, dict(zip(("R0", "R1", "R2"), ids)))


def alt_chiral_perms(n: int) -> tuple[Perm, Perm]:
    if n < 8:
        raise Unrealizable(
            "A_7 has no chiral generating pair (exhaustive argument)" if n == 7
            else f"A_{n} admits no chiral pair (inversion always extends)")
    if n % 2 == 0:
        x = cycle(n, *range(2, n + 1))
        y = involution(n, [(1, 2), (3, 4)])
    else:
        x = cycle(n, *range(1, n + 1))
        y = involution(n, [(1, 2), (3, 6)])
    return x, y


def alt_chiral(n: int) -> Realization:
    """Class 2Pex with Aut = A_n, n >= 8."""
    x, y = alt_chiral_perms(n)
    G = alt_group(n)
    xi, yi = _ids(G, x, y)
    return _realization("2Pex", G, {"X": xi, "Y": yi})


def alt_small(label: str, n: int) -> Realization:
    """Bespoke small-degree alternating realizations: class-2 triples for
    n = 6, 7, 8 and the class-5 pair for A_7."""
    G = alt_group(n)
    if label == "2" and n == 6:
        trip = (involution(6, [(1, 2), (3, 4)]), involution(6, [(2, 6), (4, 5)]),
                involution(6, [(2, 3), (4, 5)]))
    elif label == "2" and n == 7:
        trip = (involution(7, [(1, 2), (3, 4)]), involution(7, [(2, 6), (5, 7)]),
                involution(7, [(2, 3), (4, 5)]))
    elif label == "2" and n == 8:
        trip = (involution(8, [(1, 2), (3, 4), (5, 6), (7, 8)]),
                involution(8, [(1, 3), (4, 6)]), involution(8, [(3, 4), (6, 7)]))
    elif label == "5" and n == 7:
        s, sp = cycle(7, 1, 2, 3, 4, 5), perms.compose(
            cycle(7, 1, 6, 7), cycle(7, 2, 4, 5))
        ids = _ids(G, s, sp)
        return _realization("5", G, {"S": ids[0], "S'": ids[1]})
    else:
        raise ValueError(f"no bespoke realization for ({label}, A_{n})")
    ids = _ids(G, *trip)
    return _realization("2", G, dict(zip(("S1", "S2", "S3"), ids)))


# -- PSL(2, q) -------------------------------------------------------------------

def psl2_perm_group(q_field: FiniteField) -> PermGroup:
    """L_2(q) on the q + 1 points of the projective line.  :func:`psl2_group`
    refuses a q over the table cap before this builds a stabilizer chain of
    degree q + 1."""
    return PermGroup(fields.psl2_group_generators(q_field))


def _field_of(q: int) -> FiniteField:
    """The field of order q.  Its characteristic is the least prime factor of
    q, found by trial division up to the square root: q is prime when none
    divides it."""
    if q >= 2:
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        m, e = q, 0
        while m % p == 0:
            m //= p
            e += 1
        if m == 1:
            return FiniteField(p, e)
    raise ValueError(f"{q} is not a prime power")


@cache
def psl2_class1(q: int) -> Realization:
    """Regular map with Aut = L_2(q), one per q.  For q = 2, 4 and 5
    (L_2(2) = S_3 and L_2(4) = L_2(5) = A_5) it is the first witness of the
    exhaustive class-1 search; from q = 8 on, r1 is antidiagonal,
    x = diag(a, 1/a) with a primitive, and z symmetric with trace zero
    against x."""
    F = _field_of(q)
    if q in (3, 7, 9):
        raise Unrealizable(f"L_2({q}) is not a quotient of the full parent group",
                           provenance="exhausted")
    G = psl2_group(q)
    if q <= 5:
        return _realization("1", G, build.search_epimorphisms("1", G).witnesses[0])
    one = 1
    minus_one = F.neg(one)
    r1m = PSL2Element(F, 0, one, minus_one, 0)
    a = F.primitive_root()
    if q == 11:
        # pinned instance: a = a' = 2, d' = 3; b' is the least square root of
        # -1 - (a a')^2 (the printed value 2 fails the determinant condition)
        a = 2
        ap = 2
        dp = F.neg(F.mul(F.mul(a, a), ap))
        bp = F.sqrt(F.sub(F.neg(1), F.power(F.mul(a, ap), 2)))
        assert bp is not None
    else:
        ap = None
        for cand in range(1, F.q):
            val = F.sub(F.neg(1), F.power(F.mul(a, cand), 2))
            root = F.sqrt(val)
            if val != 0 and root is not None:
                ap, bp = cand, root
                dp = F.neg(F.mul(F.mul(a, a), cand))
                break
        if ap is None:
            raise AssertionError("no valid a' found")
    x = PSL2Element(F, a, 0, 0, F.inv(a))
    z = PSL2Element(F, ap, bp, bp, dp)
    r0 = x * r1m
    r2 = r1m * z
    perms3 = [r0.to_permutation(), r1m.to_permutation(), r2.to_permutation()]
    ids = _ids(G, *perms3)
    real = _realization("1", G, dict(zip(("R0", "R1", "R2"), ids)))
    if q == 11:
        zperm = z.to_permutation()
        assert perms.order_of(zperm) == 6, "pinned q=11 instance must have |z| = 6"
    return real


def psl2_class2_q7() -> Realization:
    """Class 2 over L_2(7): three involutions with product orders 3, 3, 4."""
    F = FiniteField(7)
    s1 = PSL2Element(F, 0, 1, F.neg(1), 0)
    s2 = PSL2Element(F, 0, 2, 3, 0)
    sp = PSL2Element(F, 1, 3, F.neg(3), F.neg(1))
    G = psl2_group(7)
    ids = _ids(G, s1.to_permutation(), s2.to_permutation(), sp.to_permutation())
    return _realization("2", G, dict(zip(("S1", "S2", "S3"), ids)))


# -- nilpotent, dihedral, solvable witnesses -------------------------------------

def nilpotent_chiral(e: int) -> Realization:
    """Chiral map whose automorphism group is the 2-group of order 2^(2e+1)
    and nilpotence class e+1; needs e >= 4 (classes 2-4 admit no chiral
    2-groups, a cited computer classification).  An e below 1 names no
    group of the family: ValueError."""
    if e < 1:
        raise ValueError(f"the exponent e must be at least 1, not {e}")
    if e < 4:
        raise Unrealizable("nilpotence classes 2..4 admit no chiral maps",
                           provenance="cited")
    # the generation test closes the whole group, so refuse it over the cap
    groups._check_order(2, 2 * e + 1, TABLE_CAP)
    A = groups.GpefAlphaGroup(e)
    return _realization("2Pex", A, {"X": A.element([1, 0, 0]),   # g
                                    "Y": A.element([0, 0, 1])})  # alpha


def dihedral_spec(m: int) -> Realization:
    """The circuit map {m, 2} on the sphere: Aut = D_m x C_2 acting on the m
    vertices and the two faces."""
    if m < 3:
        raise ValueError("needs m >= 3")
    n = m + 2

    def vperm(f) -> Perm:
        images = [f(v) % m for v in range(m)] + [m, m + 1]
        return tuple(images)

    r0 = vperm(lambda v: 1 - v)
    r1 = vperm(lambda v: -v)
    r2 = tuple(list(range(m)) + [m + 1, m])
    G = PermGroup([r0, r1, r2])
    ids = _ids(G, r0, r1, r2)
    return _realization("1", G, dict(zip(("R0", "R1", "R2"), ids)))


def agl1_8_group() -> tuple[PermGroup, int, int, int]:
    """AGL_1(8) = V_8 x| C_7 acting on GF(8); returns (group, x, x_mirror, y)
    with x: t -> wt for the pinned primitive root w, and y: t -> t + 1."""
    F = FiniteField(2, 3)
    w = F.primitive_root()
    xp = tuple(F.mul(w, t) for t in range(8))
    xq = tuple(F.mul(F.inv(w), t) for t in range(8))
    yp = tuple(F.add(t, 1) for t in range(8))
    G = PermGroup([xp, yp])
    return G, G.id_of(xp), G.id_of(xq), G.id_of(yp)


def edmonds_k8() -> tuple[Realization, Realization]:
    """The chiral pair of Edmonds embeddings of K_8: class 2Pex over AGL_1(8),
    the mirror using the inverse primitive root."""
    G, x, xm, y = agl1_8_group()
    return (_realization("2Pex", G, {"X": x, "Y": y}),
            _realization("2Pex", G, {"X": xm, "Y": y}))


# -- propagation between classes ---------------------------------------------------

def propagate(real: Realization, target: str) -> Realization:
    """The explicit propagation epimorphisms: class 1 sources reach 2, 3 and
    4 (non-abelian targets, dualized so |r1 r2| > 2); class 2Pex sources reach
    2ex, 4 and 5, and 2 when x is strongly real; class 2 sources reach 3, 4."""
    G = real.spec.group
    if real.spec.class_label == "1":
        r0, r1, r2 = real.spec.image_tuple()
        if G.element_order(G.product(r1, r2)) <= 2:
            r0, r2 = r2, r0
        if G.element_order(G.product(r1, r2)) <= 2:
            raise ValueError("abelian-like source: every r_i r_j has order <= 2")
        if target in ("2", "2s", "2P"):
            return _realization(target, G, {"S1": r0, "S2": r1, "S3": r2})
        if target == "3":
            s0 = r2 if r0 != r1 else r0
            return _realization("3", G, {"S0": s0, "S1": r0, "S2": r1, "S3": r2})
        if target in ("4", "4s", "4P"):
            return _realization(target, G, {"S1": r0, "S2": r1, "S": r2})
        raise ValueError(f"class 1 does not propagate to {target}")
    if real.spec.class_label == "2Pex":
        x, y = real.spec.images["X"], real.spec.images["Y"]
        if target in ("2ex", "2sex"):
            return _realization(target, G, {"S1": y, "S": x})
        if target in ("4", "4s", "4P"):
            return _realization(target, G, {"S1": y, "S2": y, "S": x})
        if target in ("5", "5s", "5P"):
            return _realization(target, G, {"S": x, "S'": y})
        if target in ("2", "2s", "2P"):
            xinv = G.inverse(x)
            a = next((t for t in groups.involutions(G)
                      if G.conjugate(x, t) == xinv), None)
            if a is None:
                raise ValueError("x is not strongly real")
            return _realization(target, G, {"S1": a, "S2": G.product(a, x), "S3": y})
        raise ValueError(f"class 2Pex does not propagate to {target}")
    if real.spec.class_label == "2":
        s1, s2, s3 = real.spec.image_tuple()
        if target == "3":
            return _realization("3", G, {"S0": s3, "S1": s1, "S2": s2, "S3": s3})
        if target in ("4", "4s", "4P"):
            return _realization(target, G, {"S1": s1, "S2": s2, "S": s3})
        raise ValueError(f"class 2 does not propagate to {target}")
    raise ValueError(f"no propagation from class {real.spec.class_label}")
