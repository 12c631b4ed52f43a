"""One client of the benchmark, run in a fresh single-threaded process.

    python3 perfbench/child.py '<job json>'

The job names the repository root and either an order ``scale`` (every
registry entry at ``default_order * scale``, as ``run_suite`` computes it) or
a fixed list of ``[id, order]`` entries.  The sampled instantiations come
from ``OVERRANK_SEED``, which the parent sets.  The child times set-up
(``import overrank`` plus ``list_identities()``), verifies each entry through
``registry.verify`` with its own timer, and prints one JSON line.  With
``"trace": true`` it wraps the layers first (see ``layertrace``) and adds the
per-layer metrics and the per-entry breakdown; spans go to ``spans_path``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import replace


def main(job: dict) -> dict:
    t0 = time.perf_counter()
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import overrank
    from overrank import registry

    if not os.path.abspath(overrank.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported overrank from {overrank.__file__}, not from {src}")
    tracer = None
    if job.get("trace"):
        import layertrace
        tracer = layertrace.Tracer().install()
    entries = {e.id: e for e in registry.list_identities()}
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if job.get("setup_only"):
        return out

    if "scale" in job:
        todo = [(e.id, max(1, int(e.default_order * job["scale"]))) for e in entries.values()]
    else:
        todo = job["entries"]
    records = []
    t1 = time.perf_counter()
    for entry_id, order in todo:
        if tracer is not None:
            tracer.request = entry_id
        rec = {"id": entry_id, "order": order,
               "tier": entries[entry_id].tier if entry_id in entries else "unknown"}
        start = time.perf_counter()
        try:
            report = registry.verify(entry_id, order)
        except Exception as exc:  # the parent counts it as a failure
            rec.update(ok=False, checked=0, error=f"{type(exc).__name__}: {exc}")
        else:
            if entry_id == job.get("inject_fail"):
                report = replace(report, ok=False, notes="injected failing report")
            rec.update(ok=bool(report.ok), checked=report.checked_order)
            if not report.ok:
                rec["error"] = report.notes or "report failed"
        rec["ms"] = (time.perf_counter() - start) * 1000.0
        records.append(rec)
    out["wall_s"] = time.perf_counter() - t1
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["entries"] = records
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["per_entry"] = tracer.per_request()
        out["absent"] = tracer.absent
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
