"""The simultaneous inversion survey, with and without an automorphism action.

``simultaneous_inversion_survey(G, aut_gens)`` runs on the induced action as
id arrays.  ``reference_survey`` below is the element-by-element version it
replaced: every member of <aut_gens> conjugates every element, inversion sets
are bit masks, orbits and transport are a BFS, and the n^2 count is a Python
loop.  Without ``aut_gens`` the survey scans canonical pairs only;
``class_rep_survey`` is the version it replaced, which pairs each class
leader with every element.  Each pair of versions must give the same report,
counterexample included.  ``python_induced_action`` is the element-by-element
induced action that ``groups._induced_action`` replaced; the two must give
equal arrays, rows and their order included.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import etmaps
from etmaps import fields, perms, realize
from etmaps.groups import (DirectProduct, GpefGroup, PermGroup, SurveyReport, _induced_action,
                           hom_extension_exists, simultaneous_inversion_survey)
from test_closure import python_closure
from test_table_closure import python_conjugacy_classes


def aut_action_arrays(G, aut_gens):
    """Element-id permutations induced by conjugation by each member of the
    group generated by ``aut_gens`` inside Sym(degree)."""
    arrays = []
    for a in python_closure([tuple(a) for a in aut_gens]):
        a_inv = perms.inverse(a)
        arrays.append([G.id_of(perms.compose(perms.compose(a_inv, G.elem(x)), a))
                       for x in range(G.size)])
    return arrays


def reference_survey(G, aut_gens):
    n = G.size
    acts = aut_action_arrays(G, aut_gens)
    idx_of = {tuple(arr): i for i, arr in enumerate(acts)}
    inv_of_act = []
    for arr in acts:
        inv_arr = [0] * n
        for a, b in enumerate(arr):
            inv_arr[b] = a
        inv_of_act.append(idx_of[tuple(inv_arr)])

    masks = [0] * n
    for x in range(n):
        xi = G.inverse(x)
        for i, arr in enumerate(acts):
            if arr[x] == xi:
                masks[x] |= 1 << i

    rep_of = [-1] * n
    via = [0] * n  # index of an action taking the orbit rep to x
    reps = []
    ident_idx = idx_of[tuple(range(n))]
    for x in range(n):
        if rep_of[x] != -1:
            continue
        reps.append(x)
        rep_of[x] = x
        via[x] = ident_idx
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for arr in acts:
                    z = arr[y]
                    if rep_of[z] == -1:
                        rep_of[z] = x
                        # rep -> y (via[y]) followed by y -> z (arr)
                        via[z] = idx_of[tuple(arr[k] for k in acts[via[y]])]
                        nxt.append(z)
            frontier = nxt

    gen_rows = {r: [G.generates((r, y)) for y in range(n)] for r in reps}

    generating = 0
    inverted = 0
    counterexample = None
    for x in range(n):
        row = gen_rows[rep_of[x]]
        act_back = acts[inv_of_act[via[x]]]
        for y in range(n):
            if not row[act_back[y]]:
                continue
            generating += 1
            if masks[x] & masks[y]:
                inverted += 1
            elif counterexample is None:
                counterexample = (x, y)
    return SurveyReport(n, n * n, generating, inverted, counterexample)


FIELDS = {5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def psl2_case(q, action):
    F = fields.FiniteField(*FIELDS[q])
    G = realize.psl2_perm_group(F)
    if action == "pgammal":
        return G, fields.pgammal2_generators(F)
    return G, inner_gens(G)


def inner_gens(G):
    return [G.elem(g) for g in G.generators]


def case(name):
    kind, _, action = name.partition("-")
    if kind.startswith("L2"):
        return psl2_case(int(kind[3:-1]), action)
    if kind == "A5":
        return realize.alt_group(5), inner_gens(realize.sym_group(5))
    G = realize.sym_group(int(kind[1:]))
    return G, inner_gens(G)


DIFFERENTIAL = [f"L2({q})-{action}" for q in FIELDS for action in ("pgammal", "inner")]
DIFFERENTIAL += ["S4-inner", "S5-inner", "S6-inner", "A5-sym"]


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_survey_matches_reference(name):
    G, aut_gens = case(name)
    assert simultaneous_inversion_survey(G, aut_gens) == reference_survey(G, aut_gens)


def test_inner_action_misses_outer_inversions():
    G, aut_gens = case("L2(7)-inner")
    rep = simultaneous_inversion_survey(G, aut_gens)
    assert rep.counterexample == (1, 2)
    assert G.generates((1, 2))


@pytest.mark.parametrize("name", ["S4-inner", "S5-inner", "L2(7)-pgammal", "L2(8)-pgammal"])
def test_aut_action_path_matches_extension_path(name):
    """Where aut_gens induce all of Aut G, inversion by the action must agree
    with the automorphism-extension test on every generating pair."""
    G, aut_gens = case(name)
    assert simultaneous_inversion_survey(G, aut_gens) == simultaneous_inversion_survey(G)


def test_aut_gens_must_normalize():
    G, _ = case("L2(7)-pgammal")
    transposition = perms.parse_cycles("(1,2)", G.degree)
    with pytest.raises(ValueError, match="does not normalize"):
        simultaneous_inversion_survey(G, inner_gens(G) + [transposition])


def python_induced_action(G, aut_gens):
    """The induced action as it was built element by element: each generator
    conjugates every element through ``id_of``, and the closure gathers a
    full row for every candidate, deduplicated by its tuple on
    ``G.generators``, candidates in generator-major, then frontier, order."""
    n = G.size
    gen_rows = []
    for a in aut_gens:
        a = tuple(a)
        a_inv = perms.inverse(a)
        gen_rows.append([G.id_of(perms.compose(perms.compose(a_inv, G.elem(x)), a))
                         for x in range(n)])
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


def relabelled(G, aut_gens, seed):
    """G and ``aut_gens`` conjugated by a random relabelling of the points,
    with G rebuilt, so that its element ids differ."""
    pi = tuple(random.Random(seed).sample(range(G.degree), G.degree))
    pi_inv = perms.inverse(pi)

    def conj(g):
        return perms.compose(perms.compose(pi_inv, tuple(g)), pi)

    return PermGroup([conj(G.elem(g)) for g in G.generators]), [conj(a) for a in aut_gens]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("q", [7, 8, 9])
def test_induced_action_matches_element_loop(q, seed):
    G, aut_gens = relabelled(*psl2_case(q, "pgammal"), seed)
    acts = _induced_action(G, aut_gens)
    expected = python_induced_action(G, aut_gens)
    assert acts.dtype == expected.dtype
    assert np.array_equal(acts, expected)


def test_ids_of_refuses_a_repeated_row():
    G, _ = case("L2(7)-pgammal")
    rows = G._matrix.copy()
    assert np.array_equal(G.ids_of(rows), np.arange(G.size))
    rows[5] = rows[4]
    with pytest.raises(ValueError, match="not the group's elements"):
        G.ids_of(rows)


def test_aut_gens_must_match_degree():
    G, _ = case("L2(7)-pgammal")
    with pytest.raises(ValueError, match="group's points"):
        simultaneous_inversion_survey(G, [tuple(range(G.degree + 1))])


def test_aut_gens_need_a_permutation_group():
    with pytest.raises(ValueError, match="permutation group"):
        simultaneous_inversion_survey(GpefGroup(3, 2, 1), [(1, 0, 2)])


@pytest.mark.parametrize("cycle", [(1, 0), (1, 2, 0)])
def test_survey_with_no_aut_gens(cycle):
    """The identity alone inverts exactly the involutions: all of C2's
    generating pairs, none of C3's."""
    G = PermGroup([cycle])
    rep = simultaneous_inversion_survey(G, [])
    assert rep == reference_survey(G, [tuple(range(len(cycle)))])
    assert rep.all_inverted == (len(cycle) == 2)


def class_rep_survey(G):
    """The survey without an automorphism action as it was before canonical
    pairs: the least member of each conjugacy class against every y, weighted
    by class size, each generating pair tested by hom_extension_exists."""
    n = G.size
    generating = 0
    inverted = 0
    counterexample = None
    for cls in python_conjugacy_classes(G):
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


def _d4_x_c2():
    return PermGroup([perms.parse_cycles("(1,2,3,4)", 6), perms.parse_cycles("(1,3)", 6),
                      perms.parse_cycles("(5,6)", 6)])


def _f21():
    """The Frobenius group of order 21: x -> x + 1 and x -> 2x mod 7."""
    return PermGroup([tuple((x + 1) % 7 for x in range(7)),
                      tuple(2 * x % 7 for x in range(7))])


CANONICAL = {
    **{f"S{n}": (lambda n=n: realize.sym_group(n)) for n in range(2, 6)},
    "D4 x C2": _d4_x_c2,
    "D4 x C2 table": lambda: DirectProduct(
        PermGroup([perms.parse_cycles("(1,2,3,4)", 4), perms.parse_cycles("(1,3)", 4)]),
        PermGroup([(1, 0)])),
    "F21": _f21,
    "G(3,2,1)": lambda: GpefGroup(3, 2, 1),
}


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_pair_survey_matches_class_rep_survey(name):
    G = CANONICAL[name]()
    assert simultaneous_inversion_survey(G) == class_rep_survey(G)


@pytest.mark.parametrize("name, pair", [("F21", (1, 2)), ("G(3,2,1)", (1, 9))])
def test_canonical_pair_survey_counterexamples(name, pair):
    G = CANONICAL[name]()
    rep = simultaneous_inversion_survey(G)
    assert rep.counterexample == pair
    assert G.generates(pair)


def test_maps_and_survey_do_not_import_numpy_ma():
    """A bare ``np.unique(x)`` imports ``numpy.ma`` on first use in numpy 2.4
    (about 12 ms and 1 MB once per process); the map layer and the survey
    must get their answers without it."""
    script = """
import sys
from etmaps import fields, flagmaps, realize
from etmaps.groups import simultaneous_inversion_survey
m = realize.edmonds_k8()[0].build()
flagmaps.aut_generators(m)
flagmaps.is_isomorphic(m, m)
flagmaps.join(m, realize.dihedral_spec(5).build())
F = fields.FiniteField(2, 3)
simultaneous_inversion_survey(realize.psl2_perm_group(F), fields.pgammal2_generators(F))
print("numpy.ma" in sys.modules)
"""
    src = str(Path(etmaps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
