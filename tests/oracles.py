"""Small closed-form, group-level and map-level checks shared by several
test modules.

None of them is on a verification path of the package; they are the tests'
own statements of a group order, of a triple count and of edge-transitivity.
"""

from etmaps import perms
from etmaps.groups import GroupTable
from etmaps.flagmaps import FlagMap, aut_generators


def psl2_order(q: int) -> int:
    """|PSL(2, q)| = q (q^2 - 1) / gcd(2, q - 1)."""
    return q * (q * q - 1) // (2 if q % 2 else 1)


def count_triples_brute(G: GroupTable, A, B, C) -> int:
    """Number of pairs (a, b) in A x B with (ab)^-1 in C, i.e. solutions of
    abc = 1 with c restricted to C, one product at a time."""
    Cset = set(C)
    return sum(G.inverse(G.product(a, b)) in Cset for a in A for b in B)


def is_edge_transitive(m: FlagMap) -> bool:
    """Aut transitive on edges: the edge orbits and the Aut orbits together
    connect all flags."""
    gens, _ = aut_generators(m)
    arrays = [m.r[0], m.r[2]] + list(gens)
    return perms.orbit_ids(m.n, arrays)[1] == 1
