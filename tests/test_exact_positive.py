"""The exact spec test behind every positive cell of the table suites, against
the maps it stands for.

``suites._verify_positive`` builds no map.  It accepts a witness when its
route leads to the claimed class, the images satisfy the class relations and
generate G, G has the claimed order and no forbidden pattern extends to an
automorphism; for an even realization, some character G -> C2 must also take
the signs of ``build.EVEN_SIGNS`` on the images.  The oracle is the map
itself: every witness the suites check (n <= 8, and every q of the L2(q)
grid) is built here, and must classify into the claimed class, have
automorphism group G and, when even, be orientable without boundary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import pytest

from etmaps import build, classes, flagmaps, suites
from etmaps.realize import Realization

EXACT = ("realizable", "exact test, no map built")


@dataclass(frozen=True)
class Cell:
    real: Realization
    want_aut: int
    even: bool
    verdict: tuple[str, str]
    classified: str | None
    aut: int
    orientable: bool


@functools.lru_cache(maxsize=None)
def _cells(suite: str) -> list[Cell]:
    """Each witness the suite passes to ``_verify_positive``, with the verdict
    it got and the class, automorphism group order and orientability of its
    built map."""
    calls = []
    verify = suites._verify_positive

    def record(real, want_aut, even=False):
        verdict = verify(real, want_aut, even)
        calls.append((real, want_aut, even, verdict))
        return verdict

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "_verify_positive", record)
        assert suites.run_suite(suite).failed == 0
    cells = []
    for real, want_aut, even, verdict in calls:
        if suite != "table1-psl2" and real.spec.group.degree > 8:
            continue
        m = real.build()
        cells.append(Cell(real, want_aut, even, verdict, classes.classify(m),
                          flagmaps.aut_order(m),
                          flagmaps.summary(m).orientable_no_boundary))
    return cells


@pytest.mark.parametrize("suite, count", [
    ("table1-sym", 74), ("table1-alt", 42), ("table1-psl2", 46), ("table3", 61)])
def test_every_positive_cell_is_the_map_it_claims(suite, count):
    cells = _cells(suite)
    assert len(cells) == count
    for c in cells:
        where = (c.real.label, c.real.spec.group.degree)
        assert c.verdict == EXACT, where
        assert c.classified == c.real.label, where
        assert c.aut == c.want_aut, where
        assert c.even == (suite == "table3"), where
        if c.even:
            assert c.orientable, where


def test_even_decision_matches_orientability_of_table1_witnesses():
    """On the Table 1 witnesses of S2-S8 and A4-A8 the even test must say
    "not orientable without boundary" exactly when the built map is not."""
    outcomes = set()
    for suite, least in (("table1-sym", 2), ("table1-alt", 4)):
        for c in _cells(suite):
            if c.real.spec.group.degree < least:
                continue
            observed, _ = suites._verify_positive(c.real, c.want_aut, even=True)
            assert observed == ("realizable" if c.orientable
                                else "not orientable without boundary"), \
                (c.real.label, c.real.spec.group.degree)
            outcomes.add(c.orientable)
    assert outcomes == {True, False}


@pytest.mark.parametrize("label", classes.LABELS)
def test_a_wrong_route_names_the_class_its_map_falls_into(label):
    real = suites.sym_witness(label, 6)
    for ops in ("", "D", "P", "DP", "PD"):
        if ops == real.ops:
            continue
        misrouted = Realization(label, real.spec, ops)
        reached = classes.classify(misrouted.build())
        assert suites._verify_positive(misrouted, 720) == \
            (f"classified {reached}", EXACT[1])


def test_table_suites_build_no_map(monkeypatch):
    def refuse(spec):
        raise AssertionError("a table suite built a map")

    monkeypatch.setattr(build, "build_map", refuse)
    for name in ("table1-sym", "table3"):
        assert suites.run_suite(name).failed == 0
