"""The one driver behind the rows of Tables 1 and 3 (``suites._table_row``):
every cell is decided by a witness or by an exhaustive proof, and each proof
runs once in a process however many cells and suites read it."""

from __future__ import annotations

import collections
import re

from etmaps import build, classes, groups, realize, suites

TABLE_SUITES = ("table1-sym", "table1-alt", "table1-psl2", "table3")


def test_verify_all_runs_each_search_and_survey_once(monkeypatch):
    for memo in (suites._search, suites._pgammal_survey, realize.psl2_class1):
        memo.cache_clear()
    runs = collections.Counter()
    search, survey = build.search_epimorphisms, groups.simultaneous_inversion_survey

    def counted_search(label, G, even=False, up_to_cycle_type=False, **kw):
        runs["search", label, id(G), even, up_to_cycle_type] += 1
        return search(label, G, even=even, up_to_cycle_type=up_to_cycle_type, **kw)

    def counted_survey(G, aut_gens=None):
        runs["survey", id(G), aut_gens is None] += 1
        return survey(G, aut_gens)

    monkeypatch.setattr(build, "search_epimorphisms", counted_search)
    monkeypatch.setattr(groups, "simultaneous_inversion_survey", counted_survey)
    for name in sorted(suites.SUITES):
        assert suites.run_suite(name).failed == 0, name
    assert runs and max(runs.values()) == 1, [k for k, c in runs.items() if c > 1]
    # the singerman suite and the table1-psl2 2ex and 5 cells share the surveys
    assert sum(k[0] == "survey" and not k[2] for k in runs) == len(suites._PSL2_GRID)


def test_each_table_row_is_one_case_per_class_in_label_order():
    """``SuiteReport._grid_markdown`` reads the rows from the case ids."""
    for name in TABLE_SUITES:
        rows: dict[str, list[str]] = {}
        for case in suites.run_suite(name).cases:
            m = re.fullmatch(r"([A-Za-z0-9()]+)-(\S+?)(-even)?", case.id)
            if m and m.group(2) in classes.LABELS:
                rows.setdefault(m.group(1), []).append(m.group(2))
        assert rows, name
        for group, labels in rows.items():
            assert labels == list(classes.LABELS), (name, group)


def test_observed_verdicts_never_read_the_expected_value():
    """A witness that gives up on a realizable cell hands it to its search,
    which finds a tuple; an expected value that is wrong fails its cell and
    changes no observed verdict."""
    G = realize.sym_group(3)

    def witness(label):
        if label == "2":
            raise realize.Unrealizable("gave up")
        return suites.sym_witness(label, 3)

    def refute(label):
        return suites._refute_by_search(label, G)

    truth = suites._table_row("S3", G, lambda label: suites._table1_sym_expected(label, 3),
                              witness, refute)
    wrong = suites._table_row("S3", G, lambda label: True, witness, refute)
    by_id = {c.id: c for c in truth}
    assert (by_id["S3-2"].observed, by_id["S3-2"].source) == ("realizable", "exhausted")
    assert all(c.status == "pass" for c in truth)
    assert [c.observed for c in wrong] == [c.observed for c in truth]
    assert {c.id for c in wrong if c.status == "fail"} == \
        {c.id for c in truth if c.observed == "unrealizable"} == \
        {f"S3-{label}" for label in ("2ex", "2sex", "2Pex", "5", "5s", "5P")}
