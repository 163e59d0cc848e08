"""The simultaneous inversion survey, with and without an automorphism action.

``simultaneous_inversion_survey(G, aut_gens)`` keeps the induced action A on
the columns of ``G.generators`` (``groups._InducedAction``) and reads full
rows only for generators of each orbit representative's stabilizer and for
one element of its inverting coset.  ``reference_survey`` below is the
element-by-element version it replaced: every member of <aut_gens>
conjugates every element, inversion sets are bit masks, orbits and
transport are a BFS, and the n^2 count is a Python loop.  Without
``aut_gens`` the survey scans canonical pairs only; ``class_rep_survey`` is
the version it replaced, which pairs each class leader with every element.
Each pair of versions must give the same report, counterexample included.
``matrix_survey`` is the survey with ``aut_gens`` as it was before orbit
representatives: a (|G|, |G|) generation matrix and one matrix product of
inversion indicators, on the whole (|A|, |G|) table of ``induced_action``.
``python_induced_action`` is that table built element by element; the two
must give equal arrays, rows and their order included.
"""

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import etmaps
from etmaps import fields, perms, realize
from etmaps.groups import (DirectProduct, GpefGroup, PermGroup, SurveyReport,
                           _generation_classes, _InducedAction, conjugacy_classes,
                           conjugation, conjugation_generators, conjugation_orbits,
                           extends_from_generating, hom_extension_exists, inverse_ids,
                           simultaneous_inversion_survey)
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


def induced_action(G, aut_gens):
    """The whole induced action A as one (|A|, |G|) int32 array of element-id
    permutations, identity first, rows in the BFS order of
    ``_InducedAction``: each layer's rows are one gather of the generator
    rows at their parents' rows."""
    A = _InducedAction(G, aut_gens)
    n = G.size
    acts = np.empty((A.order, n), dtype=np.int32)
    acts[0] = np.arange(n)
    row = 1
    for g, parent in A.layers:
        acts[row:row + len(g)] = A.gen_rows.ravel()[(g * n)[:, None] + acts[parent]]
        row += len(g)
    return acts


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


def matrix_survey(G, aut_gens):
    """The survey with ``aut_gens`` as whole (|G|, |G|) matrices: (x, y) is
    inverted iff some row of the induced action A sends x to x^-1 and y to
    y^-1, read off one float32 product of the inversion indicators.
    Generation is decided for (r, y) with r the least member of each
    A-orbit, once per orbit of the stabilizer A_r on y, and carried to
    (x, .) by a row of A taking r to x."""
    n = G.size
    acts = induced_action(G, aut_gens)
    inverts = (acts == inverse_ids(G)).astype(np.float32)
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


FIELDS = {5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def psl2_case(q, action):
    F = fields.FiniteField(*FIELDS[q])
    G = realize.psl2_perm_group(F)
    if action == "pgammal":
        return G, fields.pgammal2_generators(F)
    return G, inner_gens(G)


def inner_gens(G):
    return [G.elem(g) for g in G.generators]


def _wide_s5():
    """S5 given by ten generators, acting on itself by conjugation:
    120^10 > 2^64, so the closure keys its rows by void scalars instead of
    one uint64."""
    rng = random.Random(0)
    redundant = [tuple(rng.sample(range(5), 5)) for _ in range(8)]
    G = PermGroup(inner_gens(realize.sym_group(5)) + redundant)
    assert len(G.generators) >= 10 and G.size ** len(G.generators) > 2 ** 64
    return G, inner_gens(G)


def _d4():
    return PermGroup([perms.parse_cycles("(1,2,3,4)", 4), perms.parse_cycles("(1,3)", 4)])


def _c3_x_c3():
    return PermGroup([perms.parse_cycles("(1,2,3)", 6), perms.parse_cycles("(4,5,6)", 6)])


def _with_cycles(make, *cycles):
    def pair():
        G = make()
        return G, [perms.parse_cycles(c, G.degree) for c in cycles]
    return pair


# actions with a kernel: conjugation by G's own (central) elements acts
# trivially, so A is smaller than the point group <aut_gens>
KERNEL = {
    "C3 x C3, swap": _with_cycles(_c3_x_c3, "(1,4)(2,5)(3,6)", "(1,2,3)"),
    "C3 x C3, signed swaps": _with_cycles(_c3_x_c3, "(1,4)(2,5)(3,6)", "(2,3)", "(1,2,3)"),
    "D4, inner": lambda: (_d4(), inner_gens(_d4())),
}
BUILT = {"S5-wide": _wide_s5, **KERNEL}


def case(name):
    if name in BUILT:
        return BUILT[name]()
    kind, _, action = name.partition("-")
    if kind.startswith("L2"):
        return psl2_case(int(kind[3:-1]), action)
    if kind == "A5":
        return realize.alt_group(5), inner_gens(realize.sym_group(5))
    G = realize.sym_group(int(kind[1:]))
    return G, inner_gens(G)


DIFFERENTIAL = [f"L2({q})-{action}" for q in FIELDS for action in ("pgammal", "inner")]
DIFFERENTIAL += ["S4-inner", "S5-inner", "S6-inner", "A5-sym", *BUILT]


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_survey_matches_reference(name):
    G, aut_gens = case(name)
    expected = reference_survey(G, aut_gens)
    assert simultaneous_inversion_survey(G, aut_gens) == expected
    assert matrix_survey(G, aut_gens) == expected


@pytest.mark.parametrize("p", [11, 13])
def test_survey_matches_matrix_survey(p):
    # q <= 9 is in DIFFERENTIAL, where the matrix survey is checked too
    F = fields.FiniteField(p, 1)
    G = realize.psl2_perm_group(F)
    aut_gens = fields.pgammal2_generators(F)
    assert simultaneous_inversion_survey(G, aut_gens) == matrix_survey(G, aut_gens)


def _classes_at_orbit_reps(G, aut_gens):
    """(r, least member of y's generation class, verdict) for every least
    member r of an orbit of the induced action, as the survey forms them."""
    acts = induced_action(G, aut_gens)
    inv = inverse_ids(G)
    seen = np.zeros(G.size, dtype=bool)
    for r in range(G.size):
        if not seen[r]:
            seen[acts[:, r]] = True
            lead = acts[acts[:, r] == r].min(axis=0)
            yield (r, *_generation_classes(G, r, inv, [lead]))


def _classes_at_class_leaders(G):
    """The same for the least member x of every conjugacy class, classes
    following C_G(x) as the survey without ``aut_gens`` forms them."""
    inv = inverse_ids(G)
    for cls in conjugacy_classes(G):
        x = cls[0]
        cent = conjugation(G, x, inv) == np.arange(G.size)
        yield (x, *_generation_classes(G, x, inv, conjugation_generators(G, cent, inv)))


@pytest.mark.parametrize("name", ["L2(7)-pgammal", "L2(8)-pgammal", "S4", "S5"])
def test_generation_classes_match_brute_force(name):
    """Generation of (x, y), tested for every y, agrees with the verdict of
    y's class, which the survey decides on the class's least member alone.
    Without ``aut_gens`` the survey also decides inversion once per class;
    every generating y agrees with its class's least member there too."""
    if name.startswith("L2"):
        G, aut_gens = case(name)
        classes = _classes_at_orbit_reps(G, aut_gens)
    else:
        G = realize.sym_group(int(name[1:]))
        classes = _classes_at_class_leaders(G)
    inv = inverse_ids(G)
    for x, class_of, gen in classes:
        assert (class_of <= np.arange(G.size)).all() and (class_of[class_of] == class_of).all()
        assert [G.generates((x, y)) for y in range(G.size)] == gen.tolist(), x
        if not name.startswith("L2"):
            leader_inverted = {}
            for y in np.flatnonzero(gen).tolist():
                verdict = extends_from_generating(G, (x, y), (int(inv[x]), int(inv[y])))
                assert leader_inverted.setdefault(int(class_of[y]), verdict) == verdict, (x, y)


@pytest.mark.parametrize("name, most", [("L2(8)-pgammal", 44), ("S5", 74)])
def test_survey_runs_one_chain_per_generation_class(monkeypatch, name, most):
    # before generation classes the survey ran 197 chains on L2(8) with
    # PGammaL (the matrix survey) and 218 on S5 (one per C_G(x)-orbit)
    G, aut_gens = case(name) if name.startswith("L2") else (realize.sym_group(5), None)
    runs = []
    stabilizer_order = perms._stabilizer_order

    def counted(gens, bound):
        runs.append(bound)
        return stabilizer_order(gens, bound)

    monkeypatch.setattr(perms, "_stabilizer_order", counted)
    simultaneous_inversion_survey(G, aut_gens)
    assert len(runs) <= most


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
    ``G.generators``, candidates in frontier-major, then generator, order."""
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
        for f in frontier:
            for g in gen_rows:
                image = g[f]  # apply f, then g
                key = tuple(image[key_cols].tolist())
                if key not in seen:
                    seen.add(key)
                    layer.append(image)
        frontier = np.array(layer, dtype=np.int32).reshape(-1, n)
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
    acts = induced_action(G, aut_gens)
    expected = python_induced_action(G, aut_gens)
    assert acts.dtype == expected.dtype
    assert np.array_equal(acts, expected)


def test_induced_action_keys_too_wide_to_pack():
    G, aut_gens = case("S5-wide")
    acts = induced_action(G, aut_gens)
    assert len(acts) == 120
    assert np.array_equal(acts, python_induced_action(G, aut_gens))


@pytest.mark.parametrize("name", ["L2(7)-pgammal", "L2(8)-pgammal", "L2(9)-pgammal",
                                  "S5-inner"])
def test_columns_rows_and_stabilizers_match_the_table(name):
    """What the survey reads of A, against the whole table: every column,
    full rows, and at each orbit representative r the rows of
    ``subgroup_rows``, which must generate exactly the stabilizer A_r and
    give the least point of each A_r-orbit as ``acts[A_r].min(axis=0)``."""
    G, aut_gens = case(name)
    A = _InducedAction(G, aut_gens)
    acts = induced_action(G, aut_gens)
    for a in range(0, A.order, 7):
        assert np.array_equal(A.row(a), acts[a])
    seen = np.zeros(G.size, dtype=bool)
    for r in range(G.size):
        images = A.column(r)
        assert np.array_equal(images, acts[:, r])
        if seen[r]:
            continue
        seen[images] = True
        fixes = np.flatnonzero(images == r)
        rows = A.subgroup_rows(fixes)
        generated = python_closure([tuple(row.tolist()) for row in rows] or [tuple(range(G.size))])
        assert len(generated) == len(fixes), r
        ids, is_least = conjugation_orbits(G.size, rows)
        assert np.array_equal(np.flatnonzero(is_least)[ids], acts[fixes].min(axis=0)), r


def test_survey_memory_has_no_table():
    """L2(13) with PGammaL: the (|A|, |G|) int32 table would be 2184 x 1092
    x 4 bytes, 9.5 MB; the survey must peak at no more than 4 MB."""
    F = fields.FiniteField(13, 1)
    G = realize.psl2_perm_group(F)
    aut_gens = fields.pgammal2_generators(F)
    tracemalloc.start()
    try:
        simultaneous_inversion_survey(G, aut_gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_ids_of_refuses_a_repeated_row():
    G, _ = case("L2(7)-pgammal")
    rows = G.matrix().copy()
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
    assert rep == reference_survey(G, [tuple(range(len(cycle)))]) == matrix_survey(G, [])
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


@pytest.mark.parametrize("name", sorted(KERNEL))
def test_kernel_cases_act_with_a_kernel(name):
    """The survey on these ``DIFFERENTIAL`` cases checks that |A| and every
    |A_r| come from the induced closure, never from the order of the point
    group, which is larger."""
    G, aut_gens = case(name)
    A = _InducedAction(G, aut_gens)
    assert A.order < perms.group_order(aut_gens, None)


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
