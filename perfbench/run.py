"""Benchmark of fracpoisson: one workload per process, measured end to end.

    python3 perfbench/run.py --workload {sampling,pmf,suites} --seed N
                             --seconds S --trace {0,1} [--quick]

Run from the repository root (any directory works: paths are resolved
from this file).  The load is a closed loop with one client: each
operation starts when the previous one returns, with no threads or
worker processes.  Whole rounds of the workload's operations run until
``--seconds`` have passed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A readable summary goes to standard error.  ``--quick``
shrinks every size, for the self-test; its figures mean nothing.

See README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sampling", "pmf", "suites")
SETUP_PROBES = 5
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("phase1_s", "s"),
    ("phase2_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def measure_setup(probes, scratch):
    """Median import and warm-up times over fresh interpreters."""
    runs = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), scratch],
            capture_output=True, text=True, timeout=170, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        run["setup_s"] = run["import_s"] + run["warmup_s"]
        runs.append(run)
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def _rounds(workload, ops, seconds, tracer):
    """Run whole rounds until ``seconds`` pass.

    With a tracer each round runs twice on the same inputs, plain and then
    traced; the traced replay must give the same outputs and feeds no
    check.  Returns (plain rounds, traced rounds, mismatches).
    """
    plain, traced, mismatched = [], [], []
    start = time.perf_counter()
    while True:
        index = len(plain)
        plain.append(workload.run_round(index, ops))
        if tracer is not None:
            with tracer:
                traced.append(workload.run_round(index, ops, record=False))
            if traced[-1]["digest"] != plain[-1]["digest"]:
                mismatched.append(f"round {index}: traced outputs differ from untraced")
        if time.perf_counter() - start >= seconds:
            return plain, traced, mismatched


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "fracpoisson" / "__init__.py").is_file():
        sys.stderr.write(f"error: fracpoisson sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        setup = measure_setup(1 if args.quick else SETUP_PROBES, scratch)
        import warmup
        import workloads

        warmup.run(scratch)
        workload = workloads.WORKLOADS[args.workload](args.seed, args.quick, scratch)
        ops = workloads.Ops()
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        plain, traced, failures = _rounds(workload, ops, args.seconds, tracer)
        # before the checks, which bring in mpmath and scipy.stats
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures += workload.check(ops)

    for r in plain + traced:
        for phase in ("phase1", "phase2"):
            r[f"{phase}_s"] = sum(b - a for a, b in r[phase])
        r["wall_s"] = r["phase1_s"] + r["phase2_s"]
    if tracer is None:
        values = {"setup_s": setup["setup_s"], "peak_rss_mb": peak_mb}
        for key in ("wall_s", "phase1_s", "phase2_s"):
            values[key] = _median(plain, key)
        units = dict(END_TO_END)
    else:
        from layers import PER_LAYER, layer_metrics

        overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        values = layer_metrics(tracer.records, len(traced), setup, overhead)
        units = dict(PER_LAYER)

    log = sys.stderr
    log.write(f"{args.workload} seed={args.seed} rounds={len(plain)}"
              f"{' traced=' + str(len(traced)) if traced else ''} "
              f"attempted={ops.attempted} failed={ops.failed}\n")
    for name, unit in units.items():
        log.write(f"  {name} = {values[name]:.6g} {unit}\n")
    if tracer is None:
        for name, value in workload.rates(values["phase1_s"], values["phase2_s"]).items():
            log.write(f"  ({name} = {value:.6g}, from the phase medians)\n")
    for line in ops.errors + failures:
        log.write(f"  FAILED: {line}\n")

    result = {
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
