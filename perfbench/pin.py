"""Record the verdict of every job of every workload in ``pinned.json``.

    python3 perfbench/pin.py        # from the root of a checkout

Run it only on a commit whose verdicts are known to be right; ``run.py``
counts every later difference in ``jobs_failed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from child import import_etmaps

HERE = Path(__file__).resolve().parent


def main() -> int:
    import_etmaps(Path.cwd())
    import workloads
    pinned = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.setup(0)
        pinned[name] = {job: workloads.run_job(fn, inputs) for job, fn in workload.jobs}
        print(name, file=sys.stderr)
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
