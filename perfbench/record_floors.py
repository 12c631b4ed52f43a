"""Record the correctness floors the benchmark gates on.

    python3 perfbench/record_floors.py

Runs each workload once, untraced, at the registry's default seed and writes
``perfbench/floors.json``: for every workload, each verified id with the
``checked_order`` it reached.  A later run fails an entry whose id is gone or
whose ``checked_order`` falls below this value.  Run it only on the commit
whose coverage is the floor; the committed file was recorded on the commit
that added the benchmark.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    floors = {}
    for name, spec in run.WORKLOADS.items():
        job = dict(spec, root=str(run.ROOT), trace=False)
        child = run.run_child(job, run.DEFAULT_SEED, run.RUN_DEADLINE_S)
        bad = [r["id"] for r in child.get("entries", []) if not r["ok"]]
        if "error" in child or bad:
            print(f"{name}: cannot record floors: {child.get('error') or bad}", file=sys.stderr)
            return 1
        floors[name] = {r["id"]: r["checked"] for r in child["entries"]}
    env = run.environment(run.DEFAULT_SEED)
    payload = {"commit": env["commit"], "src_sha256": env["src_sha256"],
               "seed": run.DEFAULT_SEED, "workloads": floors}
    run.FLOORS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.FLOORS}: " + ", ".join(f"{k} {len(v)} ids" for k, v in floors.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
