"""ekwave benchmark: four closed-loop workloads, output checks, traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lifespan-2d --seed 20260823 --seconds 20 --trace 0

One process runs the workload's unit -- one complete run up to its
verdicts, with every output check -- back to back for ``--seconds`` (at
least one unit).  BLAS is pinned to one thread.  The last line
of standard output is a JSON object with ``correct``, ``attempted`` and
``failed`` (output checks) and ``metrics``:

* ``--trace 0``: ``wall_s`` (median unit time), ``steps_per_s`` (median
  of steps per unit over unit time; Strang plus GP steps, or normal-form
  fixed-point iterations on normalform-2d, which does not step),
  ``setup_s`` (median over fresh processes of import, construction and
  first step) and ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics of ``spans.LAYER_METRICS``, from
  the second half of the run, which records a span per call into each
  ekwave module; the first half runs untraced, and ``trace.overhead_s``
  is the difference of their median unit times.

The lines before it print every metric by name and unit, the tail
percentile and sample count, ``checks_failed_frac``, the failed checks and
the environment.  ``--smoke`` runs toy sizes; ``--write-reference``
regenerates ``reference.json`` from the current code.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import envinfo  # noqa: E402

envinfo.pin_blas_threads()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# after three probes, stop once they have taken this long (general-law's
# first step alone takes seconds)
SETUP_PROBE_BUDGET_S = 8.0
PROBE_TIMEOUT_S = 150


def import_ekwave():
    """Put this checkout's ``src`` first on the path; fail if it is absent."""
    init = SRC / "ekwave" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no ekwave sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import ekwave
    if Path(ekwave.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported ekwave from {ekwave.__file__}, not {SRC}")


def tail(values, high=True):
    """(percentile, value) of the most extreme sample with >= 10 beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    ordered = sorted(values, reverse=not high)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_units(workload, seed, seconds, smoke, reference, tracer=None):
    """Closed loop of units within ``seconds`` (at least one unit)."""
    from workloads import UnitResult, check_tables

    walls, rates, checks = [], [], []
    referenced = False
    deadline = time.perf_counter() + seconds
    unit = 0
    while True:
        scratch = SCRATCH / str(os.getpid()) / f"unit{unit}"
        scratch.mkdir(parents=True)
        if tracer is not None:
            tracer.unit = unit
        t0 = time.perf_counter()
        try:
            result = workload.unit(seed, smoke, scratch)
            referenced = check_tables(result, reference, workload, smoke)
        except Exception as exc:  # a failing unit is a failed check; keep measuring
            traceback.print_exc(file=sys.stderr)
            result = UnitResult()
            result.check("unit_completed", False, f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        shutil.rmtree(scratch)
        walls.append(wall)
        rates.append(result.steps / wall)
        checks.extend(result.checks)
        unit += 1
        # stop when another unit as long as the last would overrun
        if time.perf_counter() + wall > deadline:
            break
    return {"walls": walls, "rates": rates, "checks": checks, "referenced": referenced}


def probe_setup(name, seed, smoke):
    """setup_s of fresh processes, each timed from the first line of this file."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    values = []
    start = time.perf_counter()
    while len(values) < SETUP_PROBES:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        values.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
        if len(values) >= 3 and time.perf_counter() - start > SETUP_PROBE_BUDGET_S:
            break
    return values


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(name, seed, seconds, trace, smoke):
    """One benchmark run; returns (contract result, full report)."""
    import workloads

    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference()
    load_before = envinfo.load_1min()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "environment": envinfo.environment(),
              "load_1min_before": load_before}
    if trace:
        import spans

        first = run_units(workload, seed, seconds / 2.0, smoke, reference)
        with spans.Tracer() as tracer:
            second = run_units(workload, seed, seconds / 2.0, smoke, reference, tracer)
        values = spans.layer_metrics(tracer, sum(second["walls"]))
        values["trace.overhead_s"] = (statistics.median(second["walls"])
                                      - statistics.median(first["walls"]))
        units = {m[0]: m[1] for m in spans.LAYER_METRICS}
        metrics = {k: _metric(v, units[k]) for k, v in values.items()}
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"spans-{name}-seed{seed}.csv"
        tracer.write(spans_file)
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        report["spans"] = len(tracer.names)
        phases = [first, second]
    else:
        setup = probe_setup(name, seed, smoke)
        first = run_units(workload, seed, seconds, smoke, reference)
        walls, rates = first["walls"], first["rates"]
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "steps_per_s": _metric(statistics.median(rates), "1/s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report["samples"] = {"wall_s": walls, "steps_per_s": rates, "setup_s": setup}
        report["tail"] = {"wall_s": tail(walls), "steps_per_s": tail(rates, high=False)}
        phases = [first]

    checks = [c for p in phases for c in p["checks"]]
    failed = [c for c in checks if not c.passed]
    report["metrics"] = metrics
    report["checks_attempted"] = len(checks)
    report["checks_failed_frac"] = len(failed) / len(checks) if checks else 1.0
    report["failed_checks"] = [vars(c) for c in failed]
    report["reference_tables"] = ("checked" if all(p["referenced"] for p in phases)
                                  else f"no reference stored for seed {seed}")
    report["load_1min_after"] = envinfo.load_1min()
    report["idle"] = envinfo.box_idle(load_before)
    result = {"correct": bool(checks) and not failed, "attempted": max(len(checks), 1),
              "failed": len(failed) if checks else 1, "metrics": metrics}
    return result, report


def print_report(report):
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']} smoke={report['smoke']}")
    for key, m in report["metrics"].items():
        line = f"  {key:<40} {m['value']:.6g} {m['unit']}"
        if key in report.get("samples", {}):
            n = len(report["samples"][key])
            pct, val = report["tail"].get(key, (None, None))
            if pct is not None:
                line += f"   p{pct:.3g} {val:.6g} {m['unit']}"
            line += f"   n={n}"
        print(line)
    print(f"  {'checks_failed_frac':<40} {report['checks_failed_frac']:.6g} frac"
          f"   of {report['checks_attempted']} checks")
    for c in report["failed_checks"]:
        print(f"  FAILED {c['name']}: value={c['value']!r} limit={c['limit']!r}")
    print(f"  reference tables: {report['reference_tables']}")
    env = report["environment"]
    print(f"  env: nproc={env['nproc']} cpu={env['cpu_model']!r} caches={env['caches']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']!r} threads={env['blas_threads']}")
    print(f"  load_1min before={report['load_1min_before']:.2f} "
          f"after={report['load_1min_after']:.2f} idle={report['idle']}")
    print("report " + json.dumps(report, default=str))


def write_reference(seeds):
    """Regenerate reference.json: one unit per workload, size, seed and variant."""
    import workloads

    out = {}
    for name, workload in workloads.WORKLOADS.items():
        runs = [(seed, {}) for seed in seeds]
        runs += [(seeds[0], v) for v in getattr(workload, "reference_variants", ())]
        for smoke in (False, True):
            per_key = out.setdefault(name, {}).setdefault("smoke" if smoke else "full", {})
            for seed, variant in runs:
                scratch = SCRATCH / str(os.getpid()) / "reference"
                scratch.mkdir(parents=True)
                try:
                    result = workload.unit(seed, smoke, scratch, **variant)
                finally:
                    shutil.rmtree(scratch)
                label = f"{name} seed {seed} {variant} smoke={smoke}"
                failed = [c.name for c in result.checks if not c.passed]
                if failed:
                    sys.exit(f"perfbench: {label} failed {failed}")
                key = result.reference_key
                if key in per_key:
                    # a reference shared by several seeds must hold on each
                    check = workloads.UnitResult(reference_key=key, tables=result.tables)
                    workloads.check_tables(check, out, workload, smoke)
                    if not all(c.passed for c in check.checks):
                        sys.exit(f"perfbench: {label} differs from {key}")
                else:
                    per_key[key] = json.loads(json.dumps(result.tables))
                print(f"reference {label} -> {key}", flush=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["lifespan-2d", "madelung-1d",
                                               "normalform-2d", "general-law"])
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    import_ekwave()
    import workloads

    try:
        return run(parser, args, workloads)
    finally:
        shutil.rmtree(SCRATCH / str(os.getpid()), ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # absent, or another run is using it


def run(parser, args, workloads):
    if args.write_reference:
        write_reference([workloads.DEFAULT_SEED, workloads.SECOND_SEED])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        workloads.WORKLOADS[args.workload].setup(args.seed, args.smoke)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    result, report = measure(args.workload, args.seed, args.seconds,
                             args.trace, args.smoke)
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
