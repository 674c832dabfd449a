"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload pmf [--runs 10] [--first-seed 1]

Runs the benchmark ``--runs`` times, one after another, with the seeds
``--first-seed`` onwards and the ``run_seconds`` of BENCHMARK.json, and
prints for each end-to-end metric the median and the distance between
the first and third quartile (``statistics.quantiles(n=4)``) as a share
of the median, next to the metric's bound.  A second set with other
seeds (``--first-seed 11``) shows whether two sets of runs of the same
code agree within the bounds.  The raw results go to
``.perfbench-results/spread-<workload>-<first seed>.json`` under the
repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        r["summary"] = proc.stderr
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", flush=True)
    out = ROOT / ".perfbench-results"
    out.mkdir(exist_ok=True)
    raw = out / f"spread-{args.workload}-{args.first_seed}.json"
    raw.write_text(json.dumps(results, indent=1))

    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        spread = float("nan")
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
        print(f"{m['name']:>12}: median {med:.6g} {m['unit']}, spread {spread:.4f}, "
              f"bound {m['bound']}{flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
