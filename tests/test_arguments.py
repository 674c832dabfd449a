"""Totality of the public API on bad arguments.

Every public callable that takes a numeric parameter has a row below:
arguments that are valid, plus bad values for each numeric parameter.
Each bad value (NaN, an infinity, a value out of range, a non-integer
count) must raise DomainError before any computation, with RuntimeWarnings
treated as errors.  A completeness check keeps the table in step with
``fracpoisson.__all__``.
"""

import contextlib
import math
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

import fracpoisson as fp
from fracpoisson import (
    DistributedOrder,
    DomainError,
    EvaluationError,
    GridPath,
    JumpDist,
    RenewalPath,
    RngStream,
    SampledFunction,
    SamplingError,
    Stable,
    TemperedStable,
)

NAN, INF = math.nan, math.inf
NONFINITE = (NAN, INF, -INF)
POSITIVE = NONFINITE + (0.0, -1.0)
NONNEGATIVE = NONFINITE + (-1.0,)
ORDER_OPEN = NONFINITE + (0.0, 1.0, 1.5, -0.5)
ORDER_CLOSED = NONFINITE + (0.0, 1.5, -0.5)
COUNT = (2.5, -1, NAN, INF)
BAD_TIMES = ((NAN, 1.0), (0.5, INF), (0.5, NAN), (-1.0, 1.0), (1.0, 0.5))

RNG = RngStream(1)
GRID = SampledFunction(t0=0.0, step=0.25, values=(0.0, 0.25, 0.5, 0.75, 1.0))
PATH = GridPath((0.0, 1.0, 2.0), (0.0, 1.0, 3.0))
JUMPS = JumpDist(((1.0, 0.5), (-1.0, 0.5)))
CSV = fp.paths_to_csv([RenewalPath((0.5,), 1.0)], Stable(0.5), 1)
MASTER = {"beta": 0.5, "lam": 1.0, "step": 0.01}
# points of the wrong length or type, and parameters that are not numbers
BAD_PAIRS = ((1,), (1, 0.5, 2.0), (), ("1", 0.5), (1, "0.5"), 3)
NOT_NUMBERS = ("0.01", None, [0.01])

# public methods with numeric parameters, by the label their rows use
METHODS = {
    "SampledFunction.from_function": SampledFunction.from_function,
    "RenewalPath.count_at": RenewalPath((0.5,), 1.0).count_at,
    "CTRWPath.position_at": fp.CTRWPath((0.5,), (1.0,), 1.0).position_at,
    "JumpDist.fourier_symbol": JUMPS.fourier_symbol,
}


def _with(base, key, value):
    return {**base, key: value}


# (callable name, valid keyword arguments, {parameter: bad values})
ROWS = [
    # special functions
    ("ml_one", dict(beta=0.5, z=-1.0), {"beta": ORDER_CLOSED, "z": NONFINITE}),
    ("prabhakar", dict(gamma=1.0, alpha=0.5, theta=1.0, z=-1.0),
     {"gamma": POSITIVE, "alpha": POSITIVE, "theta": POSITIVE, "z": NONFINITE}),
    ("ml_waiting_survival", dict(beta=0.5, lam=1.0, t=1.0),
     {"beta": ORDER_CLOSED, "lam": POSITIVE, "t": NONNEGATIVE}),
    ("ml_waiting_pdf", dict(beta=0.5, lam=1.0, t=1.0),
     {"beta": ORDER_CLOSED + (2.0,), "lam": POSITIVE, "t": POSITIVE}),
    # subordinator specs and transforms
    ("Stable", dict(beta=0.5), {"beta": ORDER_OPEN}),
    ("TemperedStable", dict(beta=0.5, a=1.0), {"beta": ORDER_OPEN, "a": POSITIVE}),
    ("StableMixture", dict(weights=(0.5, 0.5), betas=(0.3, 0.7)),
     {"weights": tuple((w, 0.5) for w in POSITIVE),
      "betas": tuple((b, 0.7) for b in ORDER_OPEN)}),
    ("DistributedOrder", dict(poly=(1.0,)),
     {"poly": tuple((c,) for c in NONFINITE) + ((1.0, INF), (-1.0,), ())}),
    ("JumpDist", dict(atoms=((1.0, 0.5), (-1.0, 0.5))),
     {"atoms": tuple(((x, 0.5), (-1.0, 0.5)) for x in NONFINITE)
      + tuple(((1.0, p), (-1.0, 0.5)) for p in NONFINITE + (0.0, -0.5))}),
    ("JumpDist.fourier_symbol", dict(k=1.0, lam=1.0), {"lam": POSITIVE}),
    ("laplace_exponent", dict(spec=Stable(0.5), s=1.0),
     {"s": NONNEGATIVE + (complex(NAN, 1.0), complex(INF, 0.0), complex(-1.0, 0.0))}),
    ("levy_tail", dict(spec=Stable(0.5), t=1.0),
     {"t": POSITIVE + (np.array([1.0, NAN]), np.array([INF]))}),
    ("laplace_forward", dict(f=lambda t: math.exp(-t), s=1.0, tol=1e-9),
     {"s": POSITIVE, "tol": POSITIVE}),
    ("laplace_invert", dict(F=lambda s: 1.0 / (s + 1.0), t=1.0, noise_floor=0.0),
     {"t": POSITIVE, "terms": COUNT + (0,), "noise_floor": NONNEGATIVE}),
    ("bern_identity_check", dict(spec=Stable(0.5), s=1.0), {"s": POSITIVE}),
    ("bern_identity_check", dict(spec=Stable(0.5), s=(0.5, 1.0)),
     {"s": tuple((0.5, v) for v in POSITIVE) + ((),)}),
    # samplers
    ("RngStream", dict(seed=1, stream_id=0),
     {"seed": COUNT + (1.5, 2 ** 64), "stream_id": COUNT + (2 ** 64,)}),
    ("sample_stable_unit", dict(beta=0.5, rng=RNG, size=3),
     {"beta": ORDER_OPEN, "size": COUNT}),
    ("sample_stable_increment", dict(beta=0.5, dt=1.0, rng=RNG, size=3),
     {"beta": ORDER_OPEN, "dt": POSITIVE, "size": COUNT}),
    ("sample_ml_waiting", dict(beta=0.5, lam=1.0, rng=RNG, size=3),
     {"beta": ORDER_CLOSED, "lam": POSITIVE, "size": COUNT}),
    ("sample_tempered_stable_increment", dict(beta=0.5, a=1.0, dt=1.0, rng=RNG, size=3),
     {"beta": ORDER_OPEN, "a": POSITIVE, "dt": POSITIVE, "size": COUNT}),
    ("sample_tempered_ml_waiting", dict(beta=0.5, a=1.0, lam=2.0, rng=RNG, size=3),
     {"beta": ORDER_OPEN, "a": POSITIVE, "lam": POSITIVE + (0.5,), "size": COUNT}),
    ("sample_inverse_stable_marginal", dict(beta=0.5, t=1.0, rng=RNG, size=3),
     {"beta": ORDER_OPEN, "t": NONNEGATIVE, "size": COUNT}),
    ("sample_brownian_running_max", dict(t=1.0, n_steps=10, rng=RNG, size=3),
     {"t": NONNEGATIVE, "n_steps": COUNT + (0,), "size": COUNT}),
    ("sample_subordinator_at", dict(spec=Stable(0.5), times=(0.5, 1.0), rng=RNG, size=3),
     {"times": BAD_TIMES, "size": COUNT}),
    # paths and processes
    ("RenewalPath", dict(jump_times=(0.5, 1.5), horizon=1.0),
     {"jump_times": BAD_TIMES + ((INF,),), "horizon": POSITIVE}),
    ("CTRWPath", dict(jump_times=(0.5, 1.5), jump_sizes=(1.0, -1.0), horizon=1.0),
     {"jump_times": BAD_TIMES, "jump_sizes": ((NAN, 1.0), (1.0, INF)),
      "horizon": POSITIVE}),
    ("GridPath", dict(times=(0.0, 1.0, 2.0), values=(0.0, 1.0, 2.0)),
     {"times": ((0.0, 1.0, INF), (0.0, NAN, 2.0), (INF, INF, INF)),
      "values": ((0.0, NAN, 2.0), (0.0, 1.0, INF))}),
    ("simulate_fpp", dict(beta=0.5, lam=1.0, horizon=1.0, rng=RNG),
     {"beta": ORDER_CLOSED, "lam": POSITIVE, "horizon": POSITIVE}),
    ("simulate_timechange_renewal", dict(spec=Stable(0.5), lam=1.0, horizon=1.0, rng=RNG),
     {"lam": POSITIVE, "horizon": POSITIVE}),
    ("simulate_ctrw", dict(spec=Stable(0.5), lam=1.0, jumps=JUMPS, horizon=1.0, rng=RNG),
     {"lam": POSITIVE, "horizon": POSITIVE}),
    ("ctrw_prelimit_bernoulli", dict(beta=0.5, lam=1.0, c=10.0, t=1.0, rng=RNG),
     {"beta": ORDER_CLOSED, "lam": POSITIVE, "c": NONFINITE + (1.0, 0.5), "t": POSITIVE}),
    ("inverse_path_on_grid", dict(d=PATH, t_grid=(0.5, 1.0)),
     {"t_grid": ((NAN, 1.0), (0.5, INF), (-INF, 1.0))}),
    ("lemma1_check", dict(d=PATH, n_t=4), {"n_t": COUNT + (1,)}),
    ("paths_to_csv", dict(paths=[RenewalPath((0.5,), 1.0)], spec=Stable(0.5), seed=1),
     {"seed": COUNT}),
    ("paths_from_csv", dict(text=CSV, horizon=1.0), {"horizon": POSITIVE}),
    ("RenewalPath.count_at", dict(t=0.5), {"t": NONNEGATIVE + (1.5,)}),
    ("CTRWPath.position_at", dict(t=0.5), {"t": NONNEGATIVE + (1.5,)}),
    # analytic distributions
    ("fpp_pmf", dict(beta=0.5, lam=1.0, t=1.0, n=2),
     {"beta": ORDER_CLOSED, "lam": POSITIVE, "t": NONNEGATIVE, "n": COUNT + (2.7,)}),
    ("pmf_laplace", dict(spec=Stable(0.5), lam=1.0, n=1, s=1.0),
     {"lam": POSITIVE, "n": COUNT + (-0.5,), "s": POSITIVE + (0j, complex(NAN, 0.0))}),
    ("general_pmf", dict(spec=Stable(0.5), lam=1.0, t=1.0, n=1),
     {"lam": POSITIVE, "t": POSITIVE, "n": COUNT}),
    ("waiting_survival_general", dict(spec=Stable(0.5), lam=1.0, t=1.0),
     {"lam": POSITIVE, "t": POSITIVE}),
    ("distributed_order_survival_kochubei", dict(p=DistributedOrder(), lam=1.0, t=1.0),
     {"p": ((NAN,), (INF,)), "lam": POSITIVE, "t": POSITIVE}),
    ("stable_unit_density", dict(beta=0.5, v=1.0), {"beta": ORDER_OPEN, "v": NONFINITE}),
    ("inverse_stable_density", dict(beta=0.7, x=1.0, t=1.0),
     {"beta": ORDER_OPEN, "x": POSITIVE, "t": POSITIVE}),
    ("inverse_stable_density_quadrature", dict(beta=0.7, x=1.0, t=1.0),
     {"beta": ORDER_OPEN, "x": POSITIVE, "t": POSITIVE}),
    ("fpp_pmf_mixture", dict(beta=0.5, lam=1.0, t=1.0, n=1),
     {"beta": ORDER_CLOSED, "lam": POSITIVE, "t": POSITIVE, "n": COUNT}),
    ("renewal_mean", dict(spec=Stable(0.5), lam=1.0, t=1.0), {"lam": POSITIVE, "t": POSITIVE}),
    ("PmfTable", dict(t=1.0, params={}, rows=((0, 0.5), (1, 0.5)), tail_mass_bound=0.0),
     {"t": POSITIVE, "tail_mass_bound": NONNEGATIVE,
      "rows": (((0, NAN), (1, 0.5)), ((0, INF),))}),
    ("fpp_pmf_table", dict(beta=0.5, lam=1.0, t=1.0),
     {"beta": ORDER_CLOSED, "lam": POSITIVE, "t": POSITIVE}),
    ("general_pmf_table", dict(spec=TemperedStable(0.5, 1.0), lam=1.0, t=1.0),
     {"lam": POSITIVE, "t": POSITIVE}),
    # fractional calculus
    ("SampledFunction", dict(t0=0.0, step=0.25, values=(0.0, 0.5, 1.0)),
     {"t0": NONNEGATIVE, "step": POSITIVE, "values": ((0.0, NAN, 1.0), (0.0, 0.5, INF))}),
    ("SampledFunction.from_function", dict(fn=math.exp, stop=1.0, step=0.25, t0=0.0),
     {"stop": NONFINITE + (-1.0,), "step": POSITIVE, "t0": NONNEGATIVE}),
    ("caputo", dict(g=GRID, beta=0.5, t=1.0), {"beta": ORDER_OPEN, "t": POSITIVE}),
    ("riemann_liouville", dict(g=GRID, beta=0.5, t=1.0), {"beta": ORDER_OPEN, "t": POSITIVE}),
    ("distributed_order_deriv", dict(g=GRID, nu=DistributedOrder(), t=1.0),
     {"nu": (((NAN, 1.0),), ((1.5, 1.0),), ((INF, 1.0),)), "t": POSITIVE}),
    ("governing_residual", dict(kind="fpp_master", params=MASTER, point=(1, 0.5)),
     {"point": tuple((n, 0.5) for n in COUNT) + tuple((1, t) for t in POSITIVE)
      + BAD_PAIRS,
      "params": tuple(_with(MASTER, "beta", b) for b in ORDER_CLOSED)
      + tuple(_with(MASTER, "lam", v) for v in POSITIVE)
      + tuple(_with(MASTER, "step", v) for v in POSITIVE + NOT_NUMBERS)
      + ({"lam": 1.0, "step": 0.01}, {"beta": 0.5, "step": 0.01})}),
    ("governing_residual", dict(kind="inverse_density", params={"step": 0.01}, point=(1.0, 0.5)),
     {"point": tuple((x, 0.5) for x in POSITIVE) + tuple((1.0, t) for t in POSITIVE)
      + BAD_PAIRS,
      "params": tuple({"step": v} for v in POSITIVE + NOT_NUMBERS)}),
    ("governing_residual", dict(kind="brownian_time", params={"step": 0.01}, point=(0.5, 1.0)),
     {"point": tuple((x, 1.0) for x in NONFINITE) + tuple((0.5, t) for t in POSITIVE)
      + BAD_PAIRS,
      "params": tuple({"step": v} for v in POSITIVE + NOT_NUMBERS)}),
    # statistics
    ("ks_two_sample", dict(a=np.linspace(0.0, 1.0, 30), b=np.linspace(0.0, 1.0, 30)),
     {"a": tuple(np.append(np.linspace(0.0, 1.0, 30), v) for v in NONFINITE)}),
    ("empirical_laplace", dict(samples=(1.0, 2.0), s=1.0),
     {"samples": ((NAN, 1.0), (INF, 1.0)), "s": NONNEGATIVE}),
    ("run_suite", dict(name="fraccalc", seed=42), {"seed": COUNT}),
]

# public callables that take no numeric parameter of their own
EXEMPT = {
    # exception types take a message
    "DomainError", "EvaluationError", "SamplingError", "UnsupportedSamplingError",
    "TruncationError", "OffGridError", "ResolutionError",
    # the spec union is a type, not a constructor
    "SubordinatorSpec",
    # JSON of a spec: its numbers pass through the spec constructors above
    "spec_to_json", "spec_from_json",
    # result records built by the package, not inputs
    "KSResult", "SuiteCase", "SuiteReport",
}

# valid calls too slow to repeat here; run_suite has its own tests
SLOW = {"run_suite"}

# the defects this table was written against, one call each
DEFECTS = [
    ("fpp_pmf", (0.5, 1.0, 1.0, 2.7)),          # returned P(N = 2)
    ("pmf_laplace", (Stable(0.5), 1.0, -0.5, 1.0)),  # returned a value
    ("fpp_pmf", (0.5, 1.0, 1.0, NAN)),          # leaked a plain ValueError
    ("fpp_pmf", (0.5, 1.0, INF, 3)),            # returned 0.0
    ("fpp_pmf", (0.5, INF, 1.0, 3)),            # returned 0.0
    ("ml_waiting_pdf", (2.0, 1.0, 1.0)),        # returned 0.841
    ("sample_inverse_stable_marginal", (0.5, NAN, RNG)),  # returned nan
    ("sample_brownian_running_max", (NAN, 10, RNG)),      # returned nan
    ("sample_brownian_running_max", (1.0, 2.5, RNG)),     # leaked TypeError
    ("sample_ml_waiting", (0.5, 1.0, RNG, 2.5)),          # drew 2 values
    ("RngStream", (1.5,)),                      # was accepted
    ("TemperedStable", (0.5, INF)),             # was accepted
    ("laplace_exponent", (Stable(0.5), NAN)),   # returned nan
    ("levy_tail", (Stable(0.5), NAN)),          # returned nan
    ("prabhakar", (NAN, 0.5, 1.0, -1.0)),       # raised EvaluationError
    ("waiting_survival_general", (Stable(0.5), 1.0, INF)),  # ZeroDivisionError
    ("renewal_mean", (Stable(0.5), 1.0, INF)),  # ZeroDivisionError
    ("inverse_stable_density", (0.7, 1.0, INF)),  # scipy ValueError, RuntimeWarnings
    ("fpp_pmf_table", (0.5, -1.0, 1.0)),        # ZeroDivisionError
    # these four looped forever
    ("simulate_fpp", (0.5, 1.0, INF, RNG)),
    ("simulate_timechange_renewal", (Stable(0.5), 1.0, INF, RNG)),
    ("simulate_ctrw", (Stable(0.5), 1.0, JUMPS, INF, RNG)),
    ("ctrw_prelimit_bernoulli", (0.5, 1.0, 10.0, INF, RNG)),
    # these leaked KeyError, ValueError and TypeError
    ("governing_residual", ("fpp_master", {"beta": 0.5}, (1, 0.5))),
    ("governing_residual", ("inverse_density", {}, (1.0, 0.5, 0.0))),
    ("governing_residual", ("brownian_time", {"step": "0.01"}, (0.5, 1.0))),
]

# valid calls at the edge of the domain, and what they return; each of
# these once leaked an exception
EDGES = [
    # lam t**beta underflows to 0; leaked ValueError from math.log(0)
    ("fpp_pmf", (0.5, 1e-200, 1e-300, 1), 0.0),
    ("fpp_pmf", (0.5, 1e-200, 1e-300, 0), 1.0),
    # the contour route keeps this row; its quadrature route cannot evaluate it
    ("inverse_stable_density", (0.7, 1e-300, 1.0), 0.3342727525858209),
    # the smallest x of UNEVALUABLE's quadrature rows that it still answers
    ("inverse_stable_density_quadrature", (0.7, 1e-10, 1.0), 0.33427275259105077),
    # the bound is on x t**(-2 beta) = 1e-12, not x t**-beta = 1e-10: at t = 1e4 the
    # quadrature still answers exp(-x**2/(4t))/sqrt(pi t) here (TestQuadratureTinyX)
    ("inverse_stable_density", (0.5, 1e-8, 1e4), 0.005641895835477563),
]

# valid calls that double precision cannot evaluate: x**(-1/beta) overflows;
# each once leaked OverflowError
UNEVALUABLE = [
    ("inverse_stable_density_quadrature", (0.7, 1e-300, 1.0)),
    ("inverse_stable_density", (0.3, 1e-100, 1e-307)),  # not kept by the contour route
    # x**(1/beta) too small for quad to find D(x): it answered 1.94e-14 and
    # 0.0 where the density is 0.334272752586, and 4e-13 for 0.5641895835;
    # at x = 1e-10 it still answers (EDGES)
    ("inverse_stable_density_quadrature", (0.7, 1e-15, 1.0)),
    ("inverse_stable_density_quadrature", (0.7, 1e-150, 1.0)),
    ("inverse_stable_density", (0.5, 1e-15, 1.0)),  # beta = 1/2 takes the quadrature
    # the same bound at large and tiny t: 1.3e-13 against 5.6e-5, 1.3e-14 against 5642
    ("inverse_stable_density", (0.5, 1e-6, 1e8)),
    ("inverse_stable_density_quadrature", (0.5, 1e-23, 1e-8)),
    # t x**(-1/beta) overflows, so y x**(-1/beta) is inf on the nodes: it answered 0.0
    ("inverse_stable_density_quadrature", (0.02, 7e-7, 1e6)),
    # e^t in the Chernoff tail bound overflows: OverflowError leaked
    ("fpp_pmf_table", (0.5, 1.0, 800.0)),
    ("general_pmf_table", (fp.TemperedStable(0.5, 1.0), 1.0, 800.0)),
]

# valid sampler calls whose draws a float cannot hold, or whose rejection
# chunks no call may allocate: each raises SamplingError
UNSAMPLABLE = [
    ("sample_ml_waiting", (0.1, 1e-300, RNG, 3)),  # lam**(-1/beta): leaked OverflowError
    ("sample_stable_increment", (0.1, 1e300, RNG, 3)),  # dt**(1/beta): OverflowError
    ("sample_tempered_ml_waiting", (0.02, 1.0, 1.0 + 2 ** -52, RNG, 3)),  # the same
    # 1e30 chunks: an intp cast warned, then ValueError "negative dimensions"
    ("sample_tempered_stable_increment", (0.5, 1.0, 1e30, RNG, 1)),
    # 1e15 chunks per unit time: numpy asked for 220 PiB (_ArrayMemoryError)
    ("sample_subordinator_at", (TemperedStable(0.5, 1e30), (1.0, 2.0), RNG, 1)),
    # lam**(-10) = 1e300 is finite, W**10 D(1) times it is not: 1213 infinite
    # waits with overflow warnings, and a path of them a DomainError
    ("sample_ml_waiting", (0.1, 1e-30, RngStream(1), 10000)),
    ("simulate_fpp", (0.1, 1e-30, 1e300, RngStream(1))),
]

# valid sampler calls at the edge of the domain, whose draws are finite and
# nonnegative; 2t overflowed, and each gave NaN with a RuntimeWarning
FINITE_DRAWS = [
    ("sample_brownian_running_max", (1e308, 4, RngStream(1), 3)),
    ("sample_brownian_running_max", (sys.float_info.max, 4, RngStream(1), 3)),
]


@contextlib.contextmanager
def _strict(seconds=20):
    """Warnings as errors, and a deadline so that a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    timed = hasattr(signal, "setitimer") and threading.current_thread() is threading.main_thread()
    if timed:
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _callable(name):
    return METHODS[name] if name in METHODS else getattr(fp, name)


def _cases():
    for i, (name, valid, bad) in enumerate(ROWS, 1):
        for param, values in bad.items():
            for j, value in enumerate(values):
                yield pytest.param(name, _with(valid, param, value),
                                   id=f"{name}[{i}]-{param}-{j}")


@pytest.mark.parametrize("name, kwargs", _cases())
def test_bad_argument_raises_domain_error(name, kwargs):
    with _strict(), pytest.raises(DomainError):
        _callable(name)(**kwargs)


@pytest.mark.parametrize("name, args", DEFECTS, ids=[f"{n}-{i}" for i, (n, _) in enumerate(DEFECTS)])
def test_listed_defect_raises_domain_error(name, args):
    with _strict(), pytest.raises(DomainError):
        getattr(fp, name)(*args)


@pytest.mark.parametrize("name, args, expected", EDGES,
                         ids=[f"{n}-{i}" for i, (n, _, _) in enumerate(EDGES)])
def test_domain_edge_returns_its_value(name, args, expected):
    with _strict():
        assert getattr(fp, name)(*args) == expected


@pytest.mark.parametrize("name, args", UNEVALUABLE,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(UNEVALUABLE)])
def test_unevaluable_call_raises_evaluation_error(name, args):
    with _strict(), pytest.raises(EvaluationError):
        getattr(fp, name)(*args)


@pytest.mark.parametrize("name, args", UNSAMPLABLE,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(UNSAMPLABLE)])
def test_unsamplable_call_raises_sampling_error(name, args):
    with _strict(), pytest.raises(SamplingError):
        getattr(fp, name)(*args)


@pytest.mark.parametrize("name, args", FINITE_DRAWS,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(FINITE_DRAWS)])
def test_edge_draws_are_finite(name, args):
    with _strict():
        draws = getattr(fp, name)(*args)
    assert np.all((draws >= 0.0) & (draws < INF))


@pytest.mark.parametrize(
    "name, kwargs",
    [pytest.param(name, valid, id=f"{name}[{i}]")
     for i, (name, valid, _) in enumerate(ROWS, 1) if name not in SLOW],
)
def test_valid_row_arguments_are_accepted(name, kwargs):
    with _strict(60):
        _callable(name)(**kwargs)


def test_every_public_callable_has_a_row():
    public = {name for name in fp.__all__ if callable(getattr(fp, name))}
    rowed = {name for name, _, _ in ROWS if name not in METHODS}
    assert rowed <= public
    assert not rowed & EXEMPT
    assert sorted(public - rowed - EXEMPT) == []
