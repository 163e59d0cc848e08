"""One fresh interpreter of the benchmark: set up one workload, optionally run
its jobs, and print one JSON line with the measurements.

    python3 perfbench/child.py --root DIR --workload NAME --seed N
        --spawned-at T [--setup-only] [--trace SPANS_FILE]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to ready (``etmaps`` imported and
the workload's inputs built).  CLOCK_MONOTONIC is one clock for every
process, so the two readings compare.  A calibration (``calibrate.py``)
follows set-up.  Wall time is the sum of the jobs' times, taken with
``calibrate.Sampler`` reading the host's speed; ``scaled_wall_s`` is it at
the reference speed, and a traced pass scales its per-layer times alike.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import Sampler, calibrate, scaled


def import_etmaps(root: Path) -> None:
    """Import ``etmaps`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import etmaps
    if src not in Path(etmaps.__file__).resolve().parents:
        raise ImportError(f"etmaps was imported from {etmaps.__file__}, not {src}")


def at_reference_speed(layers: dict, factor: float) -> dict:
    """Per-layer metrics with times multiplied by ``factor``, the pass's
    reference-speed scaling, and rates divided by it."""
    def one(name, value):
        if name.endswith((".s", "self_s")):
            return value * factor
        return value / factor if name.endswith("_per_s") else value
    return {name: one(name, value) for name, value in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--spawned-at", required=True, type=float)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=Path, help="write the spans to this file")
    args = ap.parse_args(argv)

    import_etmaps(args.root)
    import workloads
    sampler = Sampler()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(clock=sampler.clock)  # spans leave the samples out
        tracer.install()  # the traced run covers set-up too
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s, "calibration": calibrate()}
    if not args.setup_only:
        verdicts, times = {}, []
        with sampler:
            for name, job in workload.jobs:
                start = sampler.clock()
                verdicts[name] = workloads.run_job(job, inputs)
                times.append(sampler.clock() - start)
        out["job_s"] = times
        out["wall_s"] = sum(times)
        out["chunks"] = sampler.chunks
        out["scaled_wall_s"] = scaled(out["wall_s"], statistics.mean(
            sampler.chunks or [out["calibration"]]))
        out["verdicts"] = verdicts
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = at_reference_speed(tracer.metrics(),
                                           out["scaled_wall_s"] / out["wall_s"])
        args.trace.parent.mkdir(parents=True, exist_ok=True)
        args.trace.write_text(json.dumps(
            {"fields": ["key", "start", "end", "parent", "value"],
             "spans": tracer.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
