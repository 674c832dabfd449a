"""Command line interface.

Four subcommands cover the package surface:

* ``sample``  simulate renewal / time-change / walk paths to CSV;
* ``pmf``     tabulate counting-process pmfs with certified tail bounds;
* ``check``   run a named validation suite and emit a JSON report;
* ``eval``    evaluate the special functions to 12 significant digits.

Exit codes: 0 success (for ``check``: every case passed), 1 runtime or
numerical failure, 2 usage or domain error.  Every stochastic command
requires ``--seed`` and is bit-reproducible given its command line; path
generation parallelizes over RngStream ids, so ``--jobs`` never changes
the output; it runs at most one worker per block of paths and per CPU.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .distributions import fpp_pmf_table, general_pmf_table, inverse_stable_density
from .errors import DomainError, _count
from .fraccalc import SampledFunction, caputo
from .processes import _fpp_law, _renewal_paths, _timechange_law, paths_to_csv
from .samplers import RngStream
from .special import ml_one, prabhakar
from .transforms import JumpDist, spec_from_json
from .validation import SUITE_NAMES, run_suite

_DEFAULT_JUMPS = '{"atoms": [[1.0, 0.5], [-1.0, 0.5]]}'


def _parse_json_flag(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid {what} JSON: {exc}") from exc


def _write_text(text, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _sample_chunk(task):
    """Generate the paths for a block of stream ids (worker for --jobs)."""
    process, beta, lam, spec_json, jumps_json, horizon, seed, indices = task
    spec = spec_from_json(spec_json) if spec_json is not None else None
    jumps = JumpDist.from_json(jumps_json) if jumps_json is not None else None
    law = _fpp_law(beta, lam, horizon) if process == "fpp" else _timechange_law(spec, lam, horizon)
    # one Philox for the chunk, re-keyed per path: the same draws as a
    # fresh RngStream(seed, i), and the checks run once for the largest id
    rng = RngStream(seed, max(indices, default=0))
    return _renewal_paths(law, horizon, rng, indices, jumps)


def cmd_sample(args):
    _count("path count", args.paths, least=1)
    if args.process == "fpp":
        if args.beta is None or args.lam is None:
            raise DomainError("sample --process fpp requires --beta and --lambda")
        spec_json = None
    else:
        if args.spec is None or args.lam is None:
            raise DomainError(
                f"sample --process {args.process} requires --spec and --lambda"
            )
        spec_json = _parse_json_flag(args.spec, "--spec")
        spec_from_json(spec_json)  # validate eagerly, before any sampling
    jumps_json = None
    if args.process == "ctrw":
        jumps_json = _parse_json_flag(args.jumps, "--jumps")
        JumpDist.from_json(jumps_json)

    indices = list(range(args.paths))
    jobs = max(1, args.jobs)
    base = (args.process, args.beta, args.lam, spec_json, jumps_json,
            args.horizon, args.seed)
    if jobs == 1 or args.paths == 1:
        paths = _sample_chunk(base + (indices,))
    else:  # a block of consecutive stream ids per worker
        size = -(-args.paths // jobs)
        blocks = [base + (indices[k:k + size],) for k in range(0, args.paths, size)]
        # a fork pool starts all its workers at once: no more than blocks or CPUs
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(len(blocks), cpus or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            paths = [path for got in pool.map(_sample_chunk, blocks) for path in got]

    header = {"process": args.process, "lambda": args.lam, "horizon": args.horizon,
              "paths": args.paths}
    if args.beta is not None:
        header["beta"] = args.beta
    if spec_json is not None:
        header["spec"] = spec_json
    if jumps_json is not None:
        header["jumps"] = jumps_json
    text = paths_to_csv(paths, header, args.seed)
    _write_text(text, args.output)
    mean_jumps = sum(len(p.jump_times) for p in paths) / len(paths)
    summary = f"paths={len(paths)} mean_jump_count={mean_jumps:.6g}\n"
    (sys.stderr if args.output is None else sys.stdout).write(summary)
    return 0


# ---------------------------------------------------------------------------
# pmf
# ---------------------------------------------------------------------------

def cmd_pmf(args):
    if args.lam is None:
        raise DomainError("pmf requires --lambda")
    if args.spec is not None:
        spec = spec_from_json(_parse_json_flag(args.spec, "--spec"))
        table = general_pmf_table(spec, args.lam, args.t)
    elif args.beta is not None:
        table = fpp_pmf_table(args.beta, args.lam, args.t)
    else:
        raise DomainError("pmf requires --beta or --spec")
    if args.format == "json":
        text = json.dumps(table.to_json(), indent=2) + "\n"
    else:
        text = table.to_csv()
    _write_text(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args):
    report = run_suite(args.suite, args.seed)
    text = report.to_json() + "\n"
    _write_text(text, args.output)
    if args.output is not None:
        status = "PASS" if report.passed else "FAIL"
        sys.stdout.write(f"{args.suite}: {status} ({len(report.cases)} cases)\n")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _require(args, names, function):
    missing = [f"--{n}" for n in names if getattr(args, n if n != "lambda" else "lam") is None]
    if missing:
        raise DomainError(f"eval {function} requires {', '.join(missing)}")


def cmd_eval(args):
    if args.function == "mlf":
        _require(args, ("beta", "z"), "mlf")
        value = ml_one(args.beta, args.z)
    elif args.function == "prabhakar":
        _require(args, ("gamma", "alpha", "theta", "z"), "prabhakar")
        value = prabhakar(args.gamma, args.alpha, args.theta, args.z)
    elif args.function == "density":
        _require(args, ("beta", "x", "t"), "density")
        value = inverse_stable_density(args.beta, args.x, args.t)
    else:
        _require(args, ("beta", "t", "step", "values"), "caputo")
        values = [float(v) for v in args.values.split(",")]
        g = SampledFunction(t0=args.t0, step=args.step, values=tuple(values))
        value = caputo(g, args.beta, args.t)
    sys.stdout.write(f"{value:.12g}\n")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

@functools.cache  # built once, as building takes about 0.75 ms; parsing leaves it as it was
def _parser():
    parser = argparse.ArgumentParser(
        prog="fracpoisson",
        description="Fractional counting processes: sampling, pmfs, validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="simulate paths to CSV")
    p.add_argument("--process", choices=("fpp", "timechange", "ctrw"), required=True)
    p.add_argument("--beta", type=float, help="stable index for --process fpp")
    p.add_argument("--lambda", dest="lam", type=float, help="arrival rate")
    p.add_argument("--spec", help="subordinator spec JSON (timechange/ctrw)")
    p.add_argument("--jumps", default=_DEFAULT_JUMPS,
                   help="jump-size atoms JSON for ctrw (default symmetric unit)")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers; output is independent of this")
    p.add_argument("--output", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("pmf", help="tabulate a counting pmf")
    p.add_argument("--beta", type=float, help="stable index (fractional Poisson)")
    p.add_argument("--spec", help="subordinator spec JSON (general time change)")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("check", help="run a validation suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", help="report JSON path (default stdout)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate a special function")
    p.add_argument("function", choices=("mlf", "prabhakar", "density", "caputo"))
    p.add_argument("--beta", type=float)
    p.add_argument("--z", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--step", type=float)
    p.add_argument("--values", help="comma-separated samples of g on the grid")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # DomainError and the grid errors: bad arguments, usage-level
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ArithmeticError, RuntimeError, NotImplementedError) as exc:
        # EvaluationError, SamplingError and friends: runtime failures
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
