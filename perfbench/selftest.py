"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. BENCHMARK.json keeps the format rules, and its per-layer list is the
   one ``layers.PER_LAYER`` computes.
2. Every pool point the ``pmf`` workload can draw, whatever the seed,
   agrees with its reference, so no seed can pick a failing input.
3. Each workload runs in quick mode (tiny sizes) at two seeds untraced
   and once traced: exit 0, a last line with exactly ``correct``,
   ``attempted``, ``failed`` and ``metrics``, every check passing, no
   failed operation, and every metric BENCHMARK.json names.
4. In a directory holding only BENCHMARK.json and the benchmark's files
   (no sources), the benchmark exits non-zero without printing a result.

The summary goes to ``.perfbench-results/selftest.json``; exit 0 means
every item passed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_manifest(bench):
    from layers import PER_LAYER

    out = []
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        out.append(f"BENCHMARK.json keys {sorted(bench)}")
    names = []
    for w in bench["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            out.append(f"workload entry {w}")
    for m in bench["end_to_end"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            out.append(f"end-to-end entry {m}")
    for m in bench["per_layer"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better"}:
            out.append(f"per-layer entry {m}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            out.append(f"unit or direction of {m['name']}")
    out += [f"bad or repeated name {n}" for n in names if not NAME.match(n) or names.count(n) > 1]
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" or \
            setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        out.append("setup_s must be in s, lower is better, with the largest bound")
    if [(m["name"], m["unit"]) for m in bench["per_layer"]] != list(PER_LAYER):
        out.append("per_layer differs from layers.PER_LAYER")
    if not 1 <= bench["run_seconds"] <= 60 or not 2 <= len(bench["workloads"]) <= 8:
        out.append("run_seconds or workload count out of range")
    return out


def check_pools():
    sys.path.insert(0, str(ROOT / "src"))
    import fracpoisson as fp
    import workloads as W

    W._load_reference()
    out = []
    for fn, pool, _, reference, tol in W.POINTS:
        for args in pool:
            call = ((fp.spec_from_json(W._GEN_SPECS[args[0]]),) + args[1:]
                    if fn == "general_pmf" else args)
            try:
                value = getattr(fp, fn)(*call)
            except Exception as exc:  # report every failing point, not just the first
                out.append(f"{fn}{args} raised {type(exc).__name__}: {exc}")
                continue
            want = reference(*args)
            if not abs(value - want) <= tol(want, args):
                out.append(f"{fn}{args} = {value!r}, reference {want!r}")
    return out


def run_bench(cwd, command, workload, seed, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170,
                          check=False)


def check_runs(bench):
    out = []
    runs = []
    for w in bench["workloads"]:
        for seed, trace in ((11, 0), (12, 0), (13, 1)):
            proc = run_bench(ROOT, bench["command"], w["name"], seed, trace)
            label = f"{w['name']} seed {seed} trace {trace}"
            if proc.returncode != 0:
                out.append(f"{label}: exit {proc.returncode}: {proc.stderr[-1000:]}")
                continue
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"run": label, "result": doc})
            want = bench["per_layer" if trace else "end_to_end"]
            if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                out.append(f"{label}: result keys {sorted(doc)}")
            if doc["correct"] is not True or doc["failed"] != 0 or doc["attempted"] < 1:
                out.append(f"{label}: correct={doc['correct']} failed={doc['failed']} "
                           f"attempted={doc['attempted']}\n{proc.stderr[-2000:]}")
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in want}:
                out.append(f"{label}: metrics differ from BENCHMARK.json")
    return out, runs


def check_without_sources(bench):
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in bench["paths"]:
            shutil.copytree(ROOT / p, Path(bare) / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, bench["command"], bench["workloads"][0]["name"], 1, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    sys.path.insert(0, str(HERE))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {}
    report["manifest"] = check_manifest(bench)
    report["pools"] = check_pools()
    report["runs"], runs = check_runs(bench)
    report["without_sources"] = check_without_sources(bench)
    results = ROOT / ".perfbench-results"
    results.mkdir(exist_ok=True)
    (results / "selftest.json").write_text(json.dumps({"failures": report, "runs": runs},
                                                      indent=1))
    ok = True
    for item, failures in report.items():
        print(f"{item}: {'ok' if not failures else 'FAILED'}")
        for f in failures:
            print(f"  {f}")
        ok = ok and not failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
