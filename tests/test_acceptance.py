"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Algebraic checks are exact; runtime budgets are asserted
against wall-clock time.

Criterion 5 is pinned to the source table for even realizations, except for
three cells (S3 in classes 2P, 4, 4*).  The table lists them as evenly
realizable; a short proof and exhaustive parity-constrained search show that
they are not, so the suite expects "unrealizable" there and says so in each
case's source.  The proof and the search evidence are in docs/decisions.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time

import pytest

from etmaps import build, classes, cli, flagmaps, groups, perms, realize, suites
from class_oracle import expected_class
from oracles import is_edge_transitive


def _run(name: str, budget_s: float) -> suites.SuiteReport:
    started = time.monotonic()
    report = suites.run_suite(name)
    elapsed = time.monotonic() - started
    verdict = "PASS" if report.failed == 0 else "FAIL"
    print(f"[{name}] {verdict}: {len(report.cases) - report.failed}/"
          f"{len(report.cases)} cases in {elapsed:.1f}s (budget {budget_s:.0f}s)")
    for c in report.cases:
        if c.status != "pass":
            print(f"    fail: {c.id}: expected {c.expected}, observed "
                  f"{c.observed} [{c.source}]")
    assert elapsed < budget_s, f"{name} exceeded its runtime budget"
    return report


# The behaviour contract: ``etm verify all`` prints exactly these bytes.  A
# change that alters a line must say which and why, and update the pin.
VERIFY_ALL_BYTES = 85_942
VERIFY_ALL_SHA256 = "4ba81365ad23f3b02d3a196b5296d13ca9e06fd1d34afeeb38d51c83cff82b25"


def test_verify_all_stdout_is_the_contract():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", "all"])
    data = out.getvalue().encode()
    assert code == 0
    assert len(data) == VERIFY_ALL_BYTES
    assert hashlib.sha256(data).hexdigest() == VERIFY_ALL_SHA256


def test_criterion_1_basic_maps():
    report = _run("basic-maps", 1.0)
    assert report.failed == 0


def test_criterion_2_table1_sym():
    report = _run("table1-sym", 600.0)
    assert report.failed == 0


def test_criterion_3_table1_alt():
    report = _run("table1-alt", 1800.0)
    assert report.failed == 0


def test_criterion_4_table1_psl2():
    report = _run("table1-psl2", 1200.0)
    assert report.failed == 0


def test_criterion_5_table3_even_realization():
    report = _run("table3", 1800.0)
    assert report.failed == 0, (
        "cells whose verdict differs from the expected value: "
        + ", ".join(c.id for c in report.cases if c.status == "fail")
        + "; the expected values follow the source table except for the "
        "S3 cells of classes 2P, 4 and 4*, which are proved unrealizable "
        "in docs/decisions.md")


def test_criterion_6_nilpotent():
    report = _run("nilpotent", 120.0)
    assert report.failed == 0


def test_criterion_7_solvable():
    report = _run("solvable", 60.0)
    assert report.failed == 0


def test_criterion_8_frobenius():
    report = _run("frobenius", 60.0)
    assert report.failed == 0


# -- criterion 9: always-on property suites -------------------------------------


def test_criterion_9a_rewrite_soundness():
    report = _run("rewrite-soundness", 10.0)
    assert report.failed == 0


def test_criterion_9b_randomized_specs():
    """classify(build(spec)) = expected_class(spec) over >= 200 randomized
    specs on groups of order <= 2000."""
    import random
    rng = random.Random(2026)
    pool = [
        realize.sym_group(4), realize.sym_group(5), realize.sym_group(6),
        realize.alt_group(5), realize.alt_group(6),
        groups.PermGroup([perms.parse_cycles("(1,2,3,4,5,6)", 6),
                          perms.parse_cycles("(2,6)(3,5)", 6)]),
        groups.GpefGroup(3, 2, 1), groups.GpefAlphaGroup(3),
        groups.PermGroup([perms.parse_cycles("(1,2,3,4,5,6,7,8)", 8)]),
    ]
    checked = 0
    for G in pool:
        invs = [0] + groups.involutions(G)
        everything = list(range(G.size))
        for label in ("1", "2", "2ex", "2Pex", "3", "4", "5"):
            names = build.GENERATOR_NAMES[label]
            inv_names = set(build.INVOLUTORY[label])
            tries = found = 0
            while tries < 150 and found < 5:
                tries += 1
                images = {nm: rng.choice(invs if nm in inv_names else everything)
                          for nm in names}
                spec = build.EpimorphismSpec(label, G, images)
                if build.check_spec(spec):
                    continue
                found += 1
                checked += 1
                assert classes.classify(build.build_map(spec)) == \
                    expected_class(spec)
    print(f"[9b randomized-specs] PASS: {checked} specs cross-validated")
    assert checked >= 200


def test_criterion_9c_omega_equivariance():
    corpus = [
        realize.sym_class1(4).build(),
        realize.sym_chiral(6).build(),
        realize.psl2_class2_q7().build(),
        realize.alt_small("5", 7).build(),
        realize.sym_even("3", 4).build(),
        realize.sym_even("2P", 5).build(),
        classes.basic_map("4"),
        classes.basic_map("5P"),
    ]
    for m in corpus:
        lab = classes.classify(m)
        assert lab is not None
        assert classes.classify(m.dual()) == classes.omega_dual(lab)
        assert classes.classify(m.petrie()) == classes.omega_petrie(lab)
        assert m.dual().dual() == m
        assert m.petrie().petrie() == m
    print(f"[9c omega-equivariance] PASS: {len(corpus)} maps")


def test_criterion_9d_jordan_orders_on_even_corpus():
    """The even-realization constructions are primitive with a short-cycle
    power, so by Jordan's theorem the closure is all of Sym(n).  Checked by
    the exact stabilizer-chain order for n = 9 and 10."""
    for n in (9, 10):
        r0, r1, r2 = realize._sym_even_class1_perms(n)
        gens = [r0, r1, r2]
        assert perms.is_primitive(n, gens)
        order = perms.group_order(gens, cap=math.factorial(n))
        assert order == math.factorial(n), (n, order)
        print(f"[9d jordan-closure] n={n}: |G| = {order} = {n}!")
    # Case 3 corpus (two coprime cycles): closure equals n! at n = 9
    r0, r1, r2 = realize._sym_even_class1_perms(9)
    w = perms.compose(perms.compose(r0, r1), r2)
    lengths = sorted(len(c) for c in perms.cycles(w) if len(c) > 1)
    assert len(lengths) == 2 and math.gcd(*lengths) == 1
    print(f"[9d 2cycles] n=9: r0r1r2 cycle lengths {lengths} coprime")


def test_criterion_9e_priminv_boundary():
    report = _run("priminv", 30.0)
    assert report.failed == 0


def test_criterion_9f_edge_orbit_and_aut_invariants():
    import numpy as np
    corpus = [realize.sym_chiral(6).build(), realize.sym_class1(4).build(),
              realize.sym_even("2P", 5).build(), classes.basic_map("4P")]
    for m in corpus:
        s = flagmaps.summary(m)
        assert s.V - s.E + s.F == s.euler_char
        ids, count = perms.orbit_ids(m.n, [m.r[0].tolist(), m.r[2].tolist()])
        sizes = np.bincount(ids, minlength=count)
        assert all(int(x) in (1, 2, 4) for x in sizes)
        auts = flagmaps.automorphisms(m)
        ident = tuple(range(m.n))
        for a in auts:
            assert a == ident or all(a[i] != i for i in range(m.n))
        q = flagmaps.quotient_by_aut(m)
        if is_edge_transitive(m):
            assert q.n in (1, 2, 4)
    print(f"[9f invariants] PASS: {len(corpus)} maps")
