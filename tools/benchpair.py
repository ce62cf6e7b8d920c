"""Alternating benchmark pairs: a base commit against the working tree.

Run from the root of the repository:

    python3 tools/benchpair.py --out BENCH.json [--base REV]

The base commit (``--base``, default ``HEAD``) is exported with
``git archive`` into a temporary directory, so it runs from its committed
files alone, as a fresh checkout would; no worktree is registered in the
repository.  The working tree runs in place, uncommitted changes included.
For every workload in ``BENCHMARK.json`` and every seed in ``SEEDS``,
``PAIRS`` pairs of ``perfbench/run.py`` runs are made at the benchmark's
``run_seconds``, and the side that runs first alternates from pair to
pair.  ``TRACED_PAIRS`` more pairs per workload run with ``--trace 1`` on
the first seed, for the per-layer metrics.

The output JSON holds, for each workload, seed and end-to-end metric,
each side's samples (one per run: the run's median), their median and
quartiles, and the fraction of pairs the working tree wins (ties count
for neither side); every run's correctness counts; and the traced runs'
per-layer metrics.  A pair counts as a win when the working tree's value
is better in the direction ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (20260823, 1906)
PAIRS = 10
TRACED_PAIRS = 1


def export(rev, dest):
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run(cwd, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run; its final JSON line, or the failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs, metric):
    """Both sides' samples of ``metric`` with medians, quartiles and the win fraction."""
    name, better = metric["name"], metric["better"]
    out, wins, losses = {}, 0, 0
    for side in ("base", "change"):
        values = [p[side]["metrics"][name]["value"] for p in pairs if "metrics" in p[side]]
        q1, q3 = quartiles(values) if values else (None, None)
        out[side] = {"samples": values, "median": statistics.median(values) if values else None,
                     "q1": q1, "q3": q3}
    for p in pairs:
        if "metrics" not in p["base"] or "metrics" not in p["change"]:
            continue
        b = p["base"]["metrics"][name]["value"]
        c = p["change"]["metrics"][name]["value"]
        if c != b:
            if (c < b) == (better == "lower"):
                wins += 1
            else:
                losses += 1
    base, change = out["base"], out["change"]
    if base["median"] is not None and change["median"]:
        out["base_iqr"] = base["q3"] - base["q1"]
        out["median_ratio"] = base["median"] / change["median"]
    out["pairs"] = len(pairs)
    out["change_wins"] = wins
    out["change_losses"] = losses
    out["win_fraction"] = wins / len(pairs) if pairs else None
    return out


def correctness(runs):
    return [{k: r.get(k) for k in ("correct", "attempted", "failed", "error") if k in r}
            for r in runs]


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--out", required=True, help="output JSON file")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    base_rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()

    report = {"base": base_rev, "change": "working tree", "pairs": PAIRS,
              "seconds": seconds, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "results": {}, "traced": {}}
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        trees = {"base": export(base_rev, Path(tmp)), "change": ROOT}

        def pair(i, workload, seed, trace):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            out = {"first": order[0]}
            for side in order:
                out[side] = run(trees[side], workload, seed, seconds, trace)
            shown = "solver.step_encoded.ms_per_step" if trace else "wall_s"
            print(f"{workload} seed={seed} trace={trace} pair={i} {shown}: "
                  + " ".join(f"{s}={out[s]['metrics'][shown]['value']:.4g}" if "metrics" in out[s]
                             else f"{s}={out[s]['error']}" for s in ("base", "change")),
                  flush=True)
            return out

        for workload in (w["name"] for w in bench["workloads"]):
            for seed in SEEDS:
                pairs = [pair(i, workload, seed, 0) for i in range(PAIRS)]
                report["results"].setdefault(workload, {})[str(seed)] = {
                    "metrics": {m["name"]: summarize(pairs, m) for m in bench["end_to_end"]},
                    "first": [p["first"] for p in pairs],
                    "runs": {side: correctness([p[side] for p in pairs])
                             for side in ("base", "change")},
                }
            traced = [pair(i, workload, SEEDS[0], 1) for i in range(TRACED_PAIRS)]
            report["traced"][workload] = {
                side: [p[side].get("metrics", p[side]) for p in traced]
                for side in ("base", "change")}
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
