"""Per-layer metrics derived from the tracer's records.

Every figure is per traced pass: sums over the traced rounds divided by
their number.  The end-to-end metric each one should move is listed in
README.md.  ``PER_LAYER`` is the list BENCHMARK.json names, in order.
"""

from __future__ import annotations

SAMPLERS = (
    "sample_ml_waiting",
    "sample_tempered_ml_waiting",
    "sample_tempered_stable_increment",
    "sample_inverse_stable_marginal",
    "sample_brownian_running_max",
)
PATH_KINDS = (
    "fpp",
    "timechange-stable",
    "timechange-tempered",
    "timechange-mixture",
    "ctrw",
)
SUITES = ("theorem23", "theorem31", "theorem41", "theorem51", "distributed", "fraccalc")
_DIST_FUNCS = (
    "fpp_pmf",
    "general_pmf",
    "inverse_stable_density",
    "fpp_pmf_mixture",
    "distributed_order_survival_kochubei",
    "waiting_survival_general",
)


def _calls_self(prefix):
    return [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]


def _per_layer():
    out = [("setup.import_s", "s"), ("setup.warmup_s", "s")]
    for fn in ("ml_one", "prabhakar"):
        out += _calls_self(f"special.{fn}")
    out += _calls_self("transforms.laplace_exponent")
    out += _calls_self("transforms.laplace_invert")
    out += [("transforms.laplace_invert.failed", "count"),
            ("transforms.laplace_invert.stehfest_calls", "count")]
    out += _calls_self("transforms.laplace_forward")
    for fn in _DIST_FUNCS:
        out += _calls_self(f"distributions.{fn}")
    out += [("distributions.fpp_pmf_table.us_per_row", "us"),
            ("distributions.general_pmf_table.us_per_row", "us")]
    for fn in SAMPLERS:
        out += _calls_self(f"samplers.{fn}")
        out += [(f"samplers.{fn}.draws", "count"), (f"samplers.{fn}.ns_per_draw", "ns")]
    out += [("samplers.sample_brownian_running_max.ns_per_step", "ns"),
            ("samplers.sample_tempered_stable_increment.calls_per_path", "calls/path")]
    for kind in PATH_KINDS:
        out += [(f"processes.{kind}.us_per_path", "us"),
                (f"processes.{kind}.jumps_per_path", "jumps/path")]
    out += [("processes.paths_to_csv.ns_per_row", "ns")]
    for fn in ("caputo", "governing_residual"):
        out += _calls_self(f"fraccalc.{fn}")
    out += [(f"validation.run_suite.{s}.self_s", "s") for s in SUITES]
    out += _calls_self("validation.ks_two_sample")
    out += [("cli.main.self_s", "s"), ("cli.output_bytes", "bytes"),
            ("trace.overhead_s", "s")]
    return out


PER_LAYER = _per_layer()

_RECORD_FIELDS = ("calls", "total_s", "self_s", "failed")
_SIMULATOR = {
    "fpp": "processes.simulate_fpp",
    "ctrw": "processes.simulate_ctrw",
}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(records, rounds, setup, overhead_s):
    """Map every PER_LAYER name to its value for ``rounds`` traced passes.

    ``records`` is Tracer.records; ``setup`` holds the median
    ``import_s``/``warmup_s`` of the set-up probes.
    """
    by_name = {}
    for (parent, name), rec in records.items():
        by_name.setdefault(name, []).append((parent, rec))

    def total(name, field, parents=None):
        acc = 0.0
        for parent, rec in by_name.get(name, ()):
            if parents is not None and not parents(parent):
                continue
            acc += getattr(rec, field) if field in _RECORD_FIELDS else rec.counts.get(field, 0)
        return acc

    values = {
        "setup.import_s": setup["import_s"],
        "setup.warmup_s": setup["warmup_s"],
        "trace.overhead_s": overhead_s,
    }
    values["cli.output_bytes"] = total("cli.main", "output_bytes") / rounds
    for metric, _ in PER_LAYER:
        if metric in values:
            continue
        layer, rest = metric.split(".", 1)
        head, field = rest.rsplit(".", 1)
        if layer == "validation" and head.startswith("run_suite."):
            values[metric] = total(f"validation.{head}", "self_s") / rounds
        elif field in ("calls", "self_s", "failed", "stehfest_calls", "draws"):
            values[metric] = total(f"{layer}.{head}", field) / rounds
        elif metric.endswith("_table.us_per_row"):
            name = f"{layer}.{head}"
            values[metric] = _ratio(total(name, "total_s"), total(name, "rows"), 1e6)
        elif field == "ns_per_draw":
            # bulk draws: calls made by the benchmark itself, not by a layer
            name = f"samplers.{head}"
            top = lambda p: p is None  # noqa: E731
            values[metric] = _ratio(total(name, "total_s", top), total(name, "draws", top), 1e9)
        elif field == "ns_per_step":
            name = f"samplers.{head}"
            values[metric] = _ratio(total(name, "total_s"), total(name, "steps"), 1e9)
        elif field == "calls_per_path":
            parent = "processes.simulate_timechange_renewal[timechange-tempered]"
            calls = total(f"samplers.{head}", "calls", lambda p: p == parent)
            values[metric] = _ratio(calls, total(parent, "calls"))
        elif layer == "processes" and head in PATH_KINDS:
            name = _SIMULATOR.get(head, f"processes.simulate_timechange_renewal[{head}]")
            outer = lambda p: p != "processes.simulate_ctrw"  # noqa: E731
            calls = total(name, "calls", outer)
            if field == "us_per_path":
                values[metric] = _ratio(total(name, "total_s", outer), calls, 1e6)
            else:
                values[metric] = _ratio(total(name, "jumps", outer), calls)
        elif metric == "processes.paths_to_csv.ns_per_row":
            name = "processes.paths_to_csv"
            values[metric] = _ratio(total(name, "total_s"), total(name, "rows"), 1e9)
        else:
            raise KeyError(f"no rule for per-layer metric {metric}")
    return values

