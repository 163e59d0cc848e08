import pytest

from etmaps import perms
from etmaps.fields import (FiniteField, PSL2Element, pgammal2_generators,
                           priminv_check, psl2_group_generators)
from oracles import psl2_order


def test_small_field_axioms():
    for p, e in ((2, 1), (3, 1), (2, 3), (3, 2), (5, 1)):
        F = FiniteField(p, e)
        q = F.q
        for a in range(q):
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a in range(q):
            for b in range(q):
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
        # distributivity on a few triples
        for a, b, c in ((1, 2 % q, 3 % q), (q - 1, 1, 1)):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_first_irreducible_pinned():
    assert FiniteField(2, 2).modulus == (1, 1, 1)        # x^2 + x + 1
    assert FiniteField(2, 3).modulus == (1, 1, 0, 1)     # x^3 + x + 1
    assert FiniteField(3, 2).modulus == (1, 0, 1)        # x^2 + 1


def test_primitive_root_order():
    for p, e in ((2, 3), (3, 2), (7, 1), (2, 4)):
        F = FiniteField(p, e)
        assert F.mult_order(F.primitive_root()) == F.q - 1


def test_priminv_boundary():
    assert priminv_check(2, 1)
    assert priminv_check(3, 1)
    assert priminv_check(2, 2)
    assert not priminv_check(5, 1)
    assert not priminv_check(3, 2)   # q = 9: derived by enumeration
    assert not priminv_check(2, 3)


def test_psl2_element_identified_with_negative():
    F = FiniteField(7)
    a = PSL2Element(F, 1, 3, 4, 6)
    b = PSL2Element(F, 6, 4, 3, 1)
    assert a == b
    with pytest.raises(ValueError):
        PSL2Element(F, 1, 1, 1, 1)   # det 0


def test_psl2_orders_by_closure():
    for q in (5, 7, 8, 9, 11):
        F = next(FiniteField(p, e) for p in (2, 3, 5, 7, 11)
                 for e in (1, 2, 3) if p ** e == q)
        gens = psl2_group_generators(F)
        assert perms.group_order(gens) == psl2_order(q)


def test_psl2_two_transitive_on_projective_line():
    F = FiniteField(11)
    gens = psl2_group_generators(F)
    assert perms.is_transitive(12, gens)
    assert perms.is_primitive(12, gens)
    # 2-transitivity: the stabilizer of infinity (index q+1) acts
    # transitively on the rest; check orbit of (infinity, 0) pairs instead
    pairs = {(0, 1)}
    frontier = [(0, 1)]
    while frontier:
        x, y = frontier.pop()
        for g in gens:
            nxt = (g[x], g[y])
            if nxt not in pairs:
                pairs.add(nxt)
                frontier.append(nxt)
    assert len(pairs) == 12 * 11


def test_pgammal_order():
    F = FiniteField(3, 2)
    gens = pgammal2_generators(F)
    # PGammaL(2,9) = Aut(PSL(2,9)) has order 1440
    assert perms.group_order(gens) == 1440


def _priminv_grid():
    """The (p, e) of every q = p^e <= 128, as in ``suites.suite_priminv``."""
    return [(p, e) for p in range(2, 128) if all(p % d for d in range(2, p))
            for e in range(1, 8) if p ** e <= 128]


def _order_and_inverse(F, a):
    """Multiply by ``a`` until 1: the order, and the power before 1."""
    o, x, before = 1, a, 1
    while x != 1:
        before = x
        x = F.mul(x, a)
        o += 1
    return o, before


@pytest.mark.parametrize("p, e", _priminv_grid())
def test_discrete_log_tables_match_multiplication(p, e):
    F = FiniteField(p, e)
    q = F.q
    roots = []
    for a in range(1, q):
        order, inv = _order_and_inverse(F, a)
        assert F.mult_order(a) == order, a
        assert F.inv(a) == inv and F.mul(a, inv) == 1, a
        if order == q - 1:
            roots.append(a)
        x = 1
        for k in range(4):
            assert F.power(a, k) == x and F.power(inv, -k) == x, (a, k)
            x = F.mul(x, a)
    assert F.primitive_roots() == roots
    assert F.primitive_root() == roots[0]
    assert F.power(0, 0) == 1 and F.power(0, 3) == 0
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
