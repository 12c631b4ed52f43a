"""Benchmark of the overrank verifier.

    python3 perfbench/run.py --workload suite --seed 271828 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced

Run it from anywhere; it measures the ``src/`` tree next to this directory
and needs nothing built or installed.  One run is a closed loop with one
client: it starts a fresh child process (``child.py``) for the workload,
waits for it, and starts the next one while ``--seconds`` have not yet passed,
so only one child runs at a time.  Child ``i`` gets the sampled-instantiation
seed ``child_seed(seed, i)`` through ``OVERRANK_SEED``; child 0 gets ``--seed``
itself.  Set-up is timed in every child, and in set-up-only children spread
over the run until there are ``SETUP_SAMPLES`` samples.

Every verified entry is checked: a failed report, an exception, a registry
id that has gone missing, or a ``checked_order`` below the one recorded on
the seed commit (``floors.json``) counts as a failure.  Any failure makes the
command exit 1.  Without ``src/overrank`` it exits 2 and prints no result.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps every layer
(``layertrace.py``) and reports the per-layer metrics instead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the whole result set, with the
environment, every sample count and the per-entry breakdown of a traced run,
goes to ``perfbench/out/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
CHILD = BENCH_DIR / "child.py"
FLOORS = BENCH_DIR / "floors.json"

DEFAULT_SEED = 271828  # the registry default
SETUP_SAMPLES = 15
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    "suite": {"scale": 1.0},
    "deep": {"entries": [
        ["thm5.R12.d4", 320],
        ["thm3.R01.d2", 400],
        ["g1@a=2,ell=5", 1200],
        ["check5", 4000],
        ["lemma4.1@zeta=q^1,z=q^2,base=5", 1200],
        ["combo.ell5_02", 1000],
        ["lemma3.2@sampled", 1000],
    ]},
    "smoke": {"scale": 0.25},
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("entry_p50_ms", "ms"),
    ("entry_p90_ms", "ms"),
    ("coeffs_checked", "coeffs"),
    ("peak_rss_mb", "MB"),
)

TIERS = ("oracle", "lambert", "product", "combination")

PER_LAYER = (
    ("series.self_s", "s"),
    ("products.self_s", "s"),
    ("lambert.self_s", "s"),
    ("combinat.self_s", "s"),
    ("rankdiff.self_s", "s"),
    ("report.self_s", "s"),
    ("registry.self_s", "s"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.mul.demand_ops", "count"),
    ("series.mul.ns_per_op", "ns"),
    ("series.mul.max_len", "coeffs"),
    ("series.inverse.calls", "count"),
    ("series.inverse.self_s", "s"),
    ("series.add.calls", "count"),
    ("series.add.self_s", "s"),
    ("series.max_coeff_bits", "bits"),
    ("series.frac_share", "ratio"),
    ("products.poch.calls", "count"),
    ("products.poch.self_s", "s"),
    ("products.poch.demand_ops", "count"),
    ("products.p_mono.calls", "count"),
    ("products.p_mono.self_s", "s"),
    ("lambert.lambert_sum.calls", "count"),
    ("lambert.lambert_sum.self_s", "s"),
    ("lambert.g_series.calls", "count"),
    ("lambert.g_series.self_s", "s"),
    ("combinat.rank_table.calls", "count"),
    ("combinat.rank_table.self_s", "s"),
    ("combinat.rank_table.misses", "count"),
    ("combinat.rank_table.hits", "count"),
    ("combinat.nbar_class_series.calls", "count"),
    ("combinat.nbar_class_series.self_s", "s"),
    ("combinat.nbar_class_series.misses", "count"),
    ("combinat.nbar_class_series.hits", "count"),
    ("rankdiff.eval_terms.calls", "count"),
    ("rankdiff.eval_terms.self_s", "s"),
    ("rankdiff.rank_diff_oracle.calls", "count"),
    ("rankdiff.rank_diff_oracle.self_s", "s"),
    ("report.compare.calls", "count"),
    ("report.compare.self_s", "s"),
    ("registry.list_identities.calls", "count"),
    ("registry.list_identities.self_s", "s"),
    ("registry.verify.calls", "count"),
    ("registry.verify.self_s", "s"),
) + tuple((f"registry.tier.{t}_s", "s") for t in TIERS) + (
    ("registry.short_checks", "count"),
    ("trace.overhead_s", "s"),
)


def child_seed(seed: int, i: int) -> int:
    """Seed of the i-th child of a run; child 0 uses the run's seed itself."""
    return seed if i == 0 else random.Random(f"{seed}:{i}").randrange(1 << 31)


def run_child(job: dict, seed: int, timeout: float) -> dict:
    env = dict(os.environ, OVERRANK_SEED=str(seed))
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(job)], env=env,
                              cwd=str(ROOT), capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def load_floors() -> dict:
    return json.loads(FLOORS.read_text())["workloads"] if FLOORS.exists() else {}


def grade(child: dict, floors: dict) -> list:
    """One outcome per expected or verified entry: (id, failure reason or None)."""
    if "error" in child:
        return [(i, child["error"]) for i in floors] or [("<child>", child["error"])]
    out = []
    seen = set()
    for rec in child["entries"]:
        seen.add(rec["id"])
        if not rec["ok"]:
            reason = rec.get("error", "report failed")
        elif rec["checked"] < floors.get(rec["id"], 0):
            reason = f"checked_order {rec['checked']} < {floors[rec['id']]} on the seed commit"
        else:
            reason = None
        out.append((rec["id"], reason))
    out.extend((i, "missing from the registry") for i in floors if i not in seen)
    return out


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density, so neighbouring
    samples share the weight and one noisy sample cannot move it alone."""
    xs = sorted(values)
    n, steps = len(xs), 64  # midpoint rule, `steps` points per order statistic
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    logs = [a * math.log(t) + b * math.log1p(-t)
            for t in ((k + 0.5) / (n * steps) for k in range(n * steps))]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tier_seconds(child: dict) -> dict:
    out = {t: 0.0 for t in TIERS}
    for rec in child["entries"]:
        if rec["tier"] in out:
            out[rec["tier"]] += rec["ms"] / 1000.0
    return out


def entry_means(children: list) -> list:
    """Each entry's time averaged over the run's children, in ms."""
    samples = {}
    for c in children:
        for r in c["entries"]:
            samples.setdefault(r["id"], []).append(r["ms"])
    return [statistics.fmean(v) for v in samples.values()]


def end_to_end(children: list, setups: list) -> dict:
    # The machine's speed can switch between levels every few seconds, so
    # means over the run are steadier than medians of short samples, which
    # jump between levels; quantiles are smoothed for the same reason.
    ms = entry_means(children)
    values = {
        "setup_s": statistics.fmean(setups),
        "wall_s": statistics.fmean(c["wall_s"] for c in children),
        "entry_p50_ms": quantile(ms, 0.5),
        "entry_p90_ms": quantile(ms, 0.9),
        "coeffs_checked": statistics.median(sum(r["checked"] for r in c["entries"])
                                            for c in children),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in children),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(children: list) -> dict:
    """Counts come from child 0, whose seed is the run's; times are medians."""
    layers = []
    for c in children:
        values = dict(c["layers"])
        values.update({f"registry.tier.{t}_s": s for t, s in tier_seconds(c).items()})
        values["registry.short_checks"] = sum(r["checked"] < r["order"] for r in c["entries"])
        layers.append(values)
    out = {}
    for name, unit in PER_LAYER:
        if unit in ("s", "ns"):
            value = statistics.median(v[name] for v in layers)
        else:
            value = layers[0][name]
        out[name] = {"value": value, "unit": unit}
    return out


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(), "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: children until ``seconds`` pass, then the metrics."""
    spec = WORKLOADS[workload]
    floors = load_floors().get(workload, {})
    start = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    children, outcomes, durations, setups = [], [], [], []

    def probe_setups(target: float) -> bool:
        while not trace and len(setups) < target:
            probe = run_child({"root": str(ROOT), "setup_only": True}, seed,
                              RUN_DEADLINE_S - (time.perf_counter() - start))
            if "error" in probe:
                outcomes.append(("<set-up>", probe["error"]))
                return False
            setups.append(probe["setup_s"])
        return True

    # start another child while its expected end overshoots ``seconds`` by at
    # most half a child, which keeps a run near ``seconds`` on slow machines
    while not children or (time.perf_counter() - start
                           + 0.5 * statistics.median(durations) <= seconds):
        job = dict(spec, root=str(ROOT), trace=trace)
        if trace and not children:
            job["spans_path"] = str(OUT_DIR / f"{workload}-spans.jsonl")
        began = time.perf_counter()
        child = run_child(job, child_seed(seed, len(children)), RUN_DEADLINE_S - (began - start))
        durations.append(time.perf_counter() - began)
        outcomes.extend(grade(child, floors))
        if "error" in child:
            break
        children.append(child)
        setups.append(child["setup_s"])
        # spread the set-up-only children over the run, not into one burst
        share = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
        if not probe_setups(SETUP_SAMPLES * min(1.0, share)):
            break
    if children:
        probe_setups(SETUP_SAMPLES)
    failures = [(i, why) for i, why in outcomes if why]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(seed),
        "children": len(children), "entry_samples": len(entry_means(children)),
        "setup_samples": len(setups),
        "attempted": len(outcomes), "failed": len(failures),
        "failures": [{"id": i, "reason": why} for i, why in failures[:50]],
        "correct": bool(children) and not failures,
        "metrics": {},
    }
    if children:
        result["metrics"] = per_layer(children) if trace else end_to_end(children, setups)
    if children and trace:
        result["layers"] = children[0]["layers"]
        result["absent"] = children[0]["absent"]
        result["per_entry"] = {
            r["id"]: {"ms": r["ms"], "self_s": children[0]["per_entry"].get(r["id"], {})}
            for r in children[0]["entries"]}
    (OUT_DIR / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def show(result: dict) -> None:
    env = result["env"]
    print(f"perfbench {result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
          f"{result['children']} children, {result['entry_samples']} entry samples "
          f"(each the mean over the children), "
          f"{result['setup_samples']} set-up samples")
    print(f"  env python={env['python']} commit={env['commit']} src={env['src_sha256']} "
          f"nproc={env['nproc']} seed={env['seed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    frac = failed / attempted if attempted else 1.0
    print(f"  {'fail_frac':36s} {frac:>14.6g} ratio ({failed} of {attempted} attempted)")
    for f in result["failures"][:10]:
        print(f"  FAIL {f['id']}: {f['reason']}")
    if result.get("absent"):
        print(f"  absent entry points: {', '.join(result['absent'])}")
    if result.get("per_entry"):
        print("  slowest entries, traced (self time by module):")
        rows = sorted(result["per_entry"].items(), key=lambda kv: -kv[1]["ms"])[:8]
        for entry_id, row in rows:
            mods = ", ".join(f"{m} {s:.3f}" for m, s in
                             sorted(row["self_s"].items(), key=lambda kv: -kv[1]))
            print(f"    {entry_id:42s} {row['ms']:9.1f} ms  {mods}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "overrank" / "__init__.py").is_file():
        print(f"perfbench: no overrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for r in results:
        show(r)
    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
