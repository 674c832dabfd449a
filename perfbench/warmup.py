"""First-call warm-up: every layer once, at tiny sizes.

It is part of the set-up that ``setup_s`` times, and the timed rounds
start only after it, so lazy imports and first-call caches are paid here.
"""

from __future__ import annotations

import contextlib
import io
import os


def run(tmpdir):
    import fracpoisson as fp
    from fracpoisson import cli

    out = os.path.join(tmpdir, "warmup.out")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in (
            ["sample", "--process", "fpp", "--beta", "0.5", "--lambda", "1", "--horizon", "1",
             "--paths", "2", "--seed", "1", "--output", out],
            ["sample", "--process", "ctrw", "--spec", '{"variant": "Stable", "beta": 0.5}',
             "--lambda", "1", "--horizon", "1", "--paths", "2", "--seed", "1", "--output", out],
            ["pmf", "--beta", "0.5", "--lambda", "0.5", "--t", "1", "--output", out],
            ["eval", "mlf", "--beta", "0.5", "--z", "-1"],
        ):
            if cli.main(argv) != 0:
                raise RuntimeError(f"warm-up command failed: {argv}: {sink.getvalue()}")
    rng = fp.RngStream(1, 0)
    fp.ml_one(0.6, -1.0)
    fp.prabhakar(2.0, 0.6, 1.6, -0.5)
    fp.fpp_pmf(0.5, 1.0, 2.0, 3)
    fp.general_pmf(fp.TemperedStable(0.5, 1.0), 1.0, 1.0, 2)
    fp.inverse_stable_density(0.6, 1.0, 1.0)
    fp.sample_ml_waiting(0.6, 1.0, rng, size=16)
    fp.sample_tempered_ml_waiting(0.5, 1.0, 2.0, rng, size=16)
    fp.sample_tempered_stable_increment(0.5, 1.0, 2.0, rng, size=16)
    fp.sample_inverse_stable_marginal(0.7, 1.0, rng, size=16)
    fp.sample_brownian_running_max(1.0, 4, rng, size=16)
    fp.simulate_timechange_renewal(fp.TemperedStable(0.5, 1.0), 1.0, 1.0, rng)
    g = fp.SampledFunction.from_function(lambda t: t * t, stop=0.1, step=0.01)
    fp.caputo(g, 0.5, 0.1)
    fp.ks_two_sample(fp.sample_ml_waiting(0.6, 1.0, rng, size=25),
                     fp.sample_ml_waiting(0.6, 1.0, rng, size=25))
