"""The benchmark's workloads: seeded inputs, jobs and their verdicts.

A workload is a ``setup(seed)`` that builds what a user of ``etm`` pays for
before the first answer (the groups, the PGammaL generators, the
realizations) and a list of jobs.  A job is a function of the set-up inputs
that returns a JSON-ready verdict.  Verdicts are invariant under the seeded
relabellings, so one pinned value per job holds for every seed.

``etmaps`` must be importable before this module is imported; ``child.py``
and the tests put the checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from etmaps import build, classes, cli, fields, flagmaps, groups, realize

VERIFY_QUICK_SUITES = ("basic-maps", "nilpotent", "solvable", "frobenius",
                       "priminv", "rewrite-soundness", "small-sn")


@dataclass
class Workload:
    name: str
    setup: Callable[[int], dict]
    jobs: list[tuple[str, Callable[[dict], object]]]


# -- seeded relabellings ------------------------------------------------------------

def relabel_points(gens, rng: random.Random) -> list[tuple[int, ...]]:
    """Conjugate every generator by one random permutation s of the points:
    the image of s(i) is s(g(i))."""
    n = len(gens[0])
    s = list(range(n))
    rng.shuffle(s)
    out = []
    for g in gens:
        img = [0] * n
        for i in range(n):
            img[s[i]] = s[g[i]]
        out.append(tuple(img))
    return out


def relabel_flags(m: flagmaps.FlagMap, rng: np.random.Generator) -> flagmaps.FlagMap:
    """The map with its flags renumbered by a random permutation p fixing
    flag 0; join and oriented isomorphism are rooted at flag 0, so fixing it
    keeps every verdict."""
    p = np.concatenate(([0], 1 + rng.permutation(m.n - 1)))
    arrays = []
    for r in m.r:
        a = np.empty(m.n, dtype=np.int64)
        a[p] = p[r]
        arrays.append(a)
    return flagmaps.FlagMap(*arrays)


def seeded_group(gens, rng: random.Random) -> groups.PermGroup:
    return groups.PermGroup(relabel_points(gens, rng))


# -- search: exhaustive epimorphism searches ------------------------------------------

def sym_gens(n: int):
    return [realize.cycle(n, *range(1, n + 1)), realize.involution(n, [(1, 2)])]


def alt7_gens():
    return [realize.cycle(7, 1, 2, 3), realize.cycle(7, *range(1, 8))]


def _setup_search(seed: int) -> dict:
    rng = random.Random(seed)
    return {"A7": seeded_group(alt7_gens(), rng),
            "L2(9)": seeded_group(
                fields.psl2_group_generators(fields.FiniteField(3, 2)), rng),
            "S6": seeded_group(sym_gens(6), rng),
            "S5": seeded_group(sym_gens(5), rng)}


def search_verdict(res: build.SearchResult) -> dict:
    # ``examined`` stays out: it is a layer count that canonical enumeration
    # is meant to shrink
    return {"proved_empty": res.proved_empty, "witness": bool(res.witnesses)}


def _search_job(group: str, label: str, **kwargs):
    def job(inp):
        return search_verdict(build.search_epimorphisms(label, inp[group], **kwargs))
    return job


SEARCH = Workload("search", _setup_search, [
    ("A7-2Pex", _search_job("A7", "2Pex", up_to_cycle_type=True)),
    ("L2(9)-1", _search_job("L2(9)", "1")),
    ("S6-4-even", _search_job("S6", "4", even=True, up_to_cycle_type=True)),
    ("S5-5", _search_job("S5", "5", up_to_cycle_type=True)),
    ("S5-2ex", _search_job("S5", "2ex", up_to_cycle_type=True)),
])


# -- survey: simultaneous inversion with the full PGammaL action -----------------------

SURVEY_FIELDS = {7: (7, 1), 8: (2, 3), 9: (3, 2)}


def _setup_survey(seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    for q, (p, e) in SURVEY_FIELDS.items():
        F = fields.FiniteField(p, e)
        psl = fields.psl2_group_generators(F)
        # one relabelling for the group and its automorphisms, so the
        # PGammaL generators still normalize the relabelled group
        both = relabel_points(psl + fields.pgammal2_generators(F), rng)
        out[q] = (groups.PermGroup(both[:len(psl)]), both[len(psl):])
    return out


def _survey_job(q: int):
    def job(inp):
        G, aut_gens = inp[q]
        rep = groups.simultaneous_inversion_survey(G, aut_gens)
        return {"generating_pairs": rep.generating_pairs,
                "inverted_generating_pairs": rep.inverted_generating_pairs,
                "all_inverted": rep.all_inverted}
    return job


SURVEY = Workload("survey", _setup_survey,
                  [(f"L2({q})", _survey_job(q)) for q in SURVEY_FIELDS])


# -- maps: building, classifying and comparing large flag maps --------------------------

def _setup_maps(seed: int) -> dict:
    edmonds, mirror = realize.edmonds_k8()
    return {"rng": np.random.default_rng(seed),
            "S8-chiral": realize.sym_chiral(8),
            "S8-class1": realize.sym_class1(8),
            "S7-chiral": realize.sym_chiral(7),
            "edmonds": edmonds, "edmonds-mirror": mirror,
            "nilpotent": realize.nilpotent_chiral(4)}


def summary_verdict(m: flagmaps.FlagMap) -> dict:
    s = flagmaps.summary(m)
    return {"flags": s.flags, "V": s.V, "E": s.E, "F": s.F, "chi": s.euler_char,
            "genus": list(s.genus) if s.genus else None}


def _built(inp: dict, key: str) -> flagmaps.FlagMap:
    return relabel_flags(inp[key].build(), inp["rng"])


def _large_map_job(key: str):
    def job(inp):
        m = _built(inp, key)
        verdict = summary_verdict(m)
        d = summary_verdict(m.dual())
        verdict["dual_VEF"] = [d["V"], d["E"], d["F"]]
        verdict["class"] = classes.classify(m)
        verdict["aut"] = flagmaps.aut_order(m)
        return verdict
    return job


def _petrie_job(inp):
    m = _built(inp, "S7-chiral")
    return {"flags": m.n, "isomorphic_to_petrie": flagmaps.is_isomorphic(m, m.petrie())}


def _edmonds_oriented_job(inp):
    a, b = _built(inp, "edmonds"), _built(inp, "edmonds-mirror")
    return {"isomorphic": flagmaps.is_isomorphic(a, b),
            "oriented_isomorphic": flagmaps.is_isomorphic_oriented(a, b)}


def _join_job(inp):
    j = flagmaps.join(_built(inp, "edmonds"), _built(inp, "nilpotent"))
    verdict = summary_verdict(j)
    verdict["class"] = classes.classify(j)
    verdict["aut"] = flagmaps.aut_order(j)
    return verdict


MAPS = Workload("maps", _setup_maps, [
    ("S8-chiral", _large_map_job("S8-chiral")),
    ("S8-class1", _large_map_job("S8-class1")),
    ("S7-chiral-vs-petrie", _petrie_job),
    ("edmonds-k8-oriented", _edmonds_oriented_job),
    ("edmonds-join-nilpotent", _join_job),
])


# -- verify-quick: the fast suites through the command line ------------------------------

def _setup_verify(seed: int) -> dict:
    return {}  # fixed inputs: the seed is ignored


def _verify_job(suite: str):
    def job(inp):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", suite])
        return {"exit": code, "stdout": out.getvalue()}
    return job


VERIFY_QUICK = Workload("verify-quick", _setup_verify,
                        [(s, _verify_job(s)) for s in VERIFY_QUICK_SUITES])


WORKLOADS = {w.name: w for w in (SEARCH, SURVEY, MAPS, VERIFY_QUICK)}


# -- running and checking ------------------------------------------------------------------

def run_job(job, inputs: dict):
    """The job's verdict in JSON form, or an error record if it raised."""
    try:
        verdict = job(inputs)
    except Exception as exc:  # a raising job is a failed job, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}
    return json.loads(json.dumps(verdict))
