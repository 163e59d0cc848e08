"""The etmaps benchmark: one workload per run, every pass in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports ``etmaps`` from ``src/``.
A pass is one child interpreter (``child.py``) that sets up the workload
from the seed and runs each job once.  A round is a few children that only
set up and exit, so that set-up time has several samples, and then a pass;
with ``--trace 1`` a traced pass follows, and the per-layer metrics come
from the traced passes.  Rounds repeat while that brings the run's length
closer to ``--seconds``; there is always at least one.

Every verdict is checked against ``pinned.json``.  The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the code, the host and every sample.  Both, and
the spans of the last traced pass, are also written under ``.perfbench/``.
Exit 0 when every verdict matches, 1 when one does not, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from calibrate import calibrate, scaled

HERE = Path(__file__).resolve().parent
WORKLOADS = ("search", "survey", "maps", "verify-quick")
SETUP_ONLY_CHILDREN = 3
CHILD_TIMEOUT_S = 150
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def failed_jobs(verdicts: dict, pinned: dict) -> list[str]:
    """Jobs whose verdict differs from the pinned one; a job that raised
    carries an error record, which never matches."""
    return sorted(name for name in set(verdicts) | set(pinned)
                  if verdicts.get(name) != pinned.get(name))


def spawn(root: Path, workload: str, seed: int, *extra: str) -> dict:
    """Run one child interpreter and return its JSON line, with its set-up
    time scaled by a calibration before the spawn and the child's after
    set-up."""
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), *extra]
    before = calibrate()
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=root, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child ran over {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["scaled_setup_s"] = scaled(out["setup_s"], (before + out["calibration"]) / 2)
    return out


def git_commit(root: Path) -> str | None:
    """HEAD of ``root/.git`` read from its files; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package's files, so a result names its code even
    where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_record(root: Path) -> dict:
    return {"commit": git_commit(root),
            "src_sha256": source_digest(root / "src" / "etmaps"),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model()}


def measure(root: Path, workload: str, seed: int, seconds: float,
            trace: bool, spans: Path) -> tuple[list, list, list]:
    """Set-up samples, untraced passes and traced passes of one run."""
    start = time.monotonic()
    setups, passes, traced = [], [], []
    while True:
        round_start = time.monotonic()
        setups += [spawn(root, workload, seed, "--setup-only")
                   for _ in range(SETUP_ONLY_CHILDREN)]
        passes.append(spawn(root, workload, seed))
        setups.append(passes[-1])
        if trace:
            traced.append(spawn(root, workload, seed, "--trace", str(spans)))
        now = time.monotonic()
        # stop where the run's length comes closest to `seconds`
        if now - start + (now - round_start) / 2 > seconds:
            return setups, passes, traced


def metrics_of(setups: list, passes: list, traced: list, jobs_failed: int) -> dict:
    def entry(value, unit):
        return {"value": value, "unit": unit}

    if not traced:
        return {"wall_s": entry(statistics.median(p["scaled_wall_s"] for p in passes),
                                "s"),
                "setup_s": entry(statistics.median(s["scaled_setup_s"] for s in setups),
                                 "s"),
                "peak_rss_mb": entry(statistics.median(p["peak_rss_mb"] for p in passes),
                                     "MB")}
    layers = {name: statistics.median_low(t["layers"][name] for t in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_share"] = (
        statistics.median(t["scaled_wall_s"] for t in traced)
        / statistics.median(p["scaled_wall_s"] for p in passes) - 1)
    layers["jobs_failed"] = jobs_failed
    per_layer = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: entry(layers[m["name"]], m["unit"]) for m in per_layer}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src" / "etmaps"
    if not (src / "__init__.py").is_file():
        print(f"error: no etmaps package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    pinned = json.loads((HERE / "pinned.json").read_text())[args.workload]
    # write the bytecode once, so that no set-up sample pays for compiling
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    out_dir = root / ".perfbench"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups, passes, traced = measure(root, args.workload, args.seed, args.seconds,
                                         bool(args.trace), out_dir / f"spans-{stem}.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runs = passes + traced
    failures = [failed_jobs(r["verdicts"], pinned) for r in runs]
    failed = sum(len(f) for f in failures)
    jobs_failed = len(set().union(*failures))
    result = {"correct": failed == 0, "attempted": len(pinned) * len(runs),
              "failed": failed,
              "metrics": metrics_of(setups, passes, traced, jobs_failed)}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_record(root),
              "setups": [{k: s[k] for k in ("setup_s", "scaled_setup_s", "calibration")}
                         for s in setups],
              "passes": [{k: v for k, v in r.items() if k != "verdicts"} for r in runs],
              "failed_jobs": sorted(set().union(*failures))}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
