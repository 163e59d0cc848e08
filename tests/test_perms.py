import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from etmaps import perms
from etmaps.perms import (CapExceeded, block_system, compose, cycle_structure,
                          group_spec, identity, inverse, is_primitive,
                          is_transitive, orbits, order_of, parity, parse_cycles,
                          power, sign)


def P(s, n):
    return parse_cycles(s, n)


def rand_perm(draw_list):
    return tuple(draw_list)


perm_strategy = st.integers(3, 40).flatmap(
    lambda n: st.permutations(list(range(n))).map(tuple))


def test_compose_involution_is_identity():
    t = P("(1,2)", 4)
    assert compose(t, t) == identity(4)


def test_compose_paper_example():
    # x y = (2,5,6)(3,4) for x = (1,...,6), y = (1,2)(3,5)
    x = P("(1,2,3,4,5,6)", 6)
    y = P("(1,2)(3,5)", 6)
    assert perms.format_cycles(compose(x, y)) == "(2,5,6)(3,4)"
    assert order_of(compose(x, y)) == 6
    # (xy)^3 = (3,4)
    assert perms.format_cycles(power(compose(x, y), 3)) == "(3,4)"


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_power_order(n):
    c = tuple(list(range(1, n)) + [0])
    assert power(c, n) == identity(n)
    assert order_of(c) == n


def test_order_paper_example():
    assert order_of(P("(2,6,4)(3,5,8,10,7)", 10)) == 15


def test_cycle_structure_and_parity():
    p = P("(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)(13,14)", 14)
    assert cycle_structure(p) == (2,) * 7
    assert parity(p) == "odd"
    assert parity(identity(9)) == "even"
    q = P("(1,2)(3,4)", 7)
    assert cycle_structure(q) == (1, 1, 1, 2, 2)
    assert parity(q) == "even"


@given(st.data())
def test_compose_inverse_roundtrip(data):
    p = data.draw(perm_strategy)
    q = data.draw(st.permutations(list(range(len(p)))).map(tuple))
    assert compose(compose(p, q), inverse(q)) == p


@given(st.data())
def test_sign_homomorphism(data):
    p = data.draw(perm_strategy)
    q = data.draw(st.permutations(list(range(len(p)))).map(tuple))
    assert sign(compose(p, q)) == sign(p) * sign(q)


def test_orbits():
    c = tuple(list(range(1, 8)) + [0])
    assert orbits(8, [c]) == [list(range(8))]
    assert is_transitive(8, [c])
    g = P("(1,2)(3,4)", 5)
    assert orbits(5, [g]) == [[0, 1], [2, 3], [4]]


def test_orbits_closed_under_generators():
    gens = [P("(1,2,3)", 6), P("(4,5)", 6)]
    for part in orbits(6, gens):
        s = set(part)
        for g in gens:
            assert {g[i] for i in part} == s


def _brute_force_block_systems(degree, gens):
    """All nontrivial block systems, by checking every candidate block
    containing point 0 of every size dividing the degree."""
    systems = []
    for size in range(2, degree):
        if degree % size:
            continue
        for rest in combinations(range(1, degree), size - 1):
            block = frozenset((0,) + rest)
            blocks = {block}
            ok = True
            while True:
                new = set()
                for b in blocks:
                    for g in gens:
                        img = frozenset(g[i] for i in b)
                        if img not in blocks and img not in new:
                            new.add(img)
                if not new:
                    break
                blocks |= new
            cover = sorted(i for b in blocks for i in b)
            if cover != list(range(degree)) or len(blocks) * size != degree:
                continue
            if all(a == b or not (a & b) for a in blocks for b in blocks):
                systems.append(sorted(sorted(b) for b in blocks))
    return systems


def test_block_system_dihedral_hexagon():
    # the reflection through the edge (1,6): hexagon dihedral group of order 12
    gens = [P("(1,2,3,4,5,6)", 6), P("(1,6)(2,5)(3,4)", 6)]
    assert perms.group_order(group_spec(gens)) == 12
    assert not is_primitive(6, gens)
    oracle = _brute_force_block_systems(6, gens)
    # blocks mod 2 (two blocks of 3) and mod 3 (three antipodal pairs)
    assert [[0, 2, 4], [1, 3, 5]] in oracle
    assert [[0, 3], [1, 4], [2, 5]] in oracle
    found = block_system(6, gens, 0, 2)
    assert found == [[0, 2, 4], [1, 3, 5]]
    found = block_system(6, gens, 0, 3)
    assert found == [[0, 3], [1, 4], [2, 5]]


def test_primitive_a5_natural():
    gens = [P("(1,2,3,4,5)", 5), P("(1,2,3)", 5)]
    assert is_primitive(5, gens)


def test_primitive_case4_n14():
    r0 = P("(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)(13,14)", 14)
    r1 = P("(2,4)(5,7)(6,8)(9,11)(12,14)", 14)
    r2 = P("(3,5)(4,6)(7,9)(8,10)(11,12)", 14)
    assert perms.format_cycles(compose(r1, r2)) == "(2,6,10,8,4)(3,5,9,12,14,11,7)"
    assert is_primitive(14, [r0, r1, r2])


def test_intransitive_primitivity_is_error():
    with pytest.raises(ValueError):
        is_primitive(5, [P("(1,2)", 5)])


@pytest.mark.parametrize("n", range(3, 8))
def test_group_order_symmetric(n):
    c = tuple(list(range(1, n)) + [0])
    t = P("(1,2)", n)
    assert perms.group_order(group_spec([c, t])) == math.factorial(n)


def test_group_order_a8_jordan_generators():
    c = P("(2,3,4,5,6,7,8)", 8)
    y = P("(1,2)(3,4)", 8)
    assert perms.group_order(group_spec([c, y])) == math.factorial(8) // 2


def test_group_order_cap():
    c = tuple(list(range(1, 8)) + [0])
    t = P("(1,2)", 8)
    with pytest.raises(CapExceeded):
        perms.group_order(group_spec([c, t]), cap=1000)


def test_cycle_string_roundtrip():
    for s, n in [("(1,2)(3,5)", 6), ("()", 4), ("(1,4)(2,3)(5,6)(9,10)", 11)]:
        p = parse_cycles(s, n)
        assert parse_cycles(perms.format_cycles(p), n) == p


def test_perm_json_roundtrip():
    p = P("(1,3,2)", 5)
    assert perms.perm_from_json(perms.perm_to_json(p)) == p
