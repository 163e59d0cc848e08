"""Tests of the benchmark itself: the verdict check, the seeded inputs and
the tracer.

    python3 -m pytest perfbench/test_perfbench.py      # from the checkout root
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import import_etmaps  # noqa: E402

import_etmaps(ROOT)

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from etmaps import classes, flagmaps, groups, realize  # noqa: E402
from calibrate import Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

PINNED = json.loads((HERE / "pinned.json").read_text())


def test_corrupted_pinned_verdict_counts_one_failed_job(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    pinned = json.loads(json.dumps(PINNED))
    pinned["verify-quick"]["rewrite-soundness"]["stdout"] += " "
    (tmp_path / "perfbench" / "pinned.json").write_text(json.dumps(pinned))

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-quick",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    # one untraced and one traced pass, each failing the corrupted job
    assert (result["attempted"], result["failed"]) == (14, 2)
    assert result["metrics"]["jobs_failed"]["value"] == 1


def test_raising_job_is_a_failed_job():
    def boom(inputs):
        raise ValueError("no")
    verdict = workloads.run_job(boom, {})
    assert "error" in verdict
    import run
    assert run.failed_jobs({"j": verdict}, {"j": {"proved_empty": True}}) == ["j"]


def test_seeds_relabel_inputs_but_keep_verdicts():
    search = workloads.WORKLOADS["search"]
    jobs = dict(search.jobs)
    a, b = search.setup(1), search.setup(2)
    assert a["S5"].elem(1) != b["S5"].elem(1)
    for name in ("S5-5", "S5-2ex"):
        assert workloads.run_job(jobs[name], a) == workloads.run_job(jobs[name], b) \
            == PINNED["search"][name]

    base = realize.sym_chiral(6).build()
    verdicts = []
    arrays = []
    for seed in (1, 2):
        m = workloads.relabel_flags(base, np.random.default_rng(seed))
        arrays.append(m.r[0])
        verdicts.append((workloads.summary_verdict(m), classes.classify(m),
                         flagmaps.aut_order(m)))
    assert not np.array_equal(arrays[0], arrays[1])
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][1:] == ("2Pex", 720)


def _namespace_snapshot() -> dict:
    snap = {}
    for mod in [m for n, m in sys.modules.items() if n.startswith("etmaps")]:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    snap[(mod.__name__, name, k)] = v
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for k, v in vars(value).items():
                    snap[(mod.__name__, name, "." + k)] = v
    return snap


def test_tracer_restores_every_wrapped_attribute():
    before = _namespace_snapshot()
    original = groups.hom_extension
    with Tracer():
        assert groups.hom_extension is not original
        assert _namespace_snapshot().keys() == before.keys()
        classes.classify(classes.basic_map("4"))
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_outermost_only_counting():
    G = groups.PermGroup(workloads.sym_gens(4))
    with Tracer() as tracer:
        assert G.generates(G.generators)  # PermGroup -> GroupTable.generates
        gens = G.generators
        assert groups.hom_extension_exists(G, gens, gens)  # -> hom_extension
    m = tracer.metrics()
    assert m["groups.generates.calls"] == 1
    assert m["groups.generates.true_share"] == 1.0
    assert m["groups.hom_extension.calls"] == 1
    assert m["groups.hom_extension.extended_share"] == 1.0


def test_per_layer_metrics_match_benchmark_json():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [m["name"] for m in per_layer]
    assert set(Tracer().metrics()) | {"trace.overhead_share", "jobs_failed"} == set(names)
    assert len(names) == len(set(names))


def test_sampler_reads_the_host_and_leaves_its_time_out():
    previous = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        start, wall_start = sampler.clock(), perf_counter()
        while perf_counter() - wall_start < 1.0:
            pass
        clock_s, wall_s = sampler.clock() - start, perf_counter() - wall_start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.chunks) >= 3
    assert sampler.overhead_s >= sum(sampler.chunks) > 0
    assert abs(wall_s - clock_s - sampler.overhead_s) < 1e-3
