"""Span tracer that wraps the public functions of every fracpoisson layer.

The layers are the package modules.  ``Tracer.install`` replaces each
public function of each layer, in every module namespace that binds it
(``distributions`` imports ``prabhakar`` by name, ``cli`` imports the
simulators, the package re-exports everything), with a wrapper that
records a span: its name, its parent span, its duration and a few counts
read from the arguments and the result.  ``Tracer.uninstall`` puts the
originals back.  The program itself is not changed.

Spans are folded into per-edge records as they close, keyed by
(parent span name, span name), so a traced pass with millions
of calls keeps a bounded amount of memory while the parent links stay
visible.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = (
    "special",
    "transforms",
    "samplers",
    "processes",
    "distributions",
    "fraccalc",
    "validation",
    "cli",
)


class Record:
    """Aggregated spans of one (parent, name) edge."""

    __slots__ = ("calls", "total_s", "self_s", "failed", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.counts = {}

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount


def _process_kind(spec):
    name = type(spec).__name__
    return {
        "Stable": "timechange-stable",
        "TemperedStable": "timechange-tempered",
        "StableMixture": "timechange-mixture",
    }.get(name, "timechange-other")


def _arg(sig, name, args, kwargs):
    """Value of parameter ``name`` in a call, or its default."""
    if name in kwargs:
        return kwargs[name]
    params = list(sig.parameters)
    i = params.index(name)
    if i < len(args):
        return args[i]
    return sig.parameters[name].default


def _hooks(qual, fn):
    """(label, extract) for one public function.

    ``label(args, kwargs)`` refines the span name from the arguments;
    ``extract(rec, args, kwargs, result)`` adds counts to the record
    (``result`` is None when the call raised).
    """
    sig = inspect.signature(fn)
    label = None
    extract = None
    if qual.startswith("samplers.sample_"):
        def extract(rec, args, kwargs, result):
            if result is None:
                return
            draws = result.size if isinstance(result, np.ndarray) else 1
            rec.add("draws", draws)
            if "n_steps" in sig.parameters:
                rec.add("steps", draws * int(_arg(sig, "n_steps", args, kwargs)))
    elif qual.startswith("processes.simulate_"):
        if qual == "processes.simulate_timechange_renewal":
            def label(args, kwargs):
                return f"{qual}[{_process_kind(_arg(sig, 'spec', args, kwargs))}]"

        def extract(rec, args, kwargs, result):
            if result is not None:
                rec.add("jumps", len(result.jump_times))
    elif qual == "processes.paths_to_csv":
        def extract(rec, args, kwargs, result):
            paths = _arg(sig, "paths", args, kwargs)
            if isinstance(paths, (list, tuple)):
                rec.add("rows", sum(len(p.jump_times) for p in paths))
    elif qual in ("distributions.fpp_pmf_table", "distributions.general_pmf_table"):
        def extract(rec, args, kwargs, result):
            if result is not None:
                rec.add("rows", len(result.rows))
    elif qual == "transforms.laplace_invert":
        def extract(rec, args, kwargs, result):
            method = str(_arg(sig, "method", args, kwargs)).lower()
            if "stehfest" in method:
                rec.add("stehfest_calls", 1)
    elif qual == "validation.run_suite":
        def label(args, kwargs):
            return f"{qual}.{_arg(sig, 'name', args, kwargs)}"
    elif qual == "cli.main":
        def extract(rec, args, kwargs, result):
            argv = list(_arg(sig, "argv", args, kwargs) or ())
            if "--output" in argv:
                path = argv[argv.index("--output") + 1]
                if os.path.exists(path):
                    rec.add("output_bytes", os.path.getsize(path))
    return label, extract


class Tracer:
    """Wraps the public layer functions while installed; see module doc."""

    def __init__(self):
        self.records = {}
        self._stack = []
        self._patched = []

    def _wrap(self, qual, fn):
        label, extract = _hooks(qual, fn)
        records = self.records
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(args, kwargs) if label is not None else qual
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                key = (parent, name)
                rec = records.get(key)
                if rec is None:
                    rec = records[key] = Record()
                rec.calls += 1
                rec.total_s += dur
                rec.self_s += dur - frame[1]
                rec.failed += failed
                if extract is not None:
                    extract(rec, args, kwargs, result)

        return wrapper

    def install(self):
        """Wrap every public layer function in every namespace binding it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"fracpoisson.{m}") for m in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            if layer == "cli":
                # cmd_* stay inside main's self time: argparse, text, file writes
                names = ["main"]
            else:
                names = getattr(mod, "__all__", None) or [
                    n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [importlib.import_module("fracpoisson")] + list(modules.values())
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))

    def uninstall(self):
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
