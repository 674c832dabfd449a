"""Exact-output regression pins for the asymptotic series and the CLI.

The series, sample and pmf values below were produced by the
implementation that kept one asymptotic-series routine per caller and
one ``isinstance`` ladder per subordinator operation; the suite report
digests by the one that checked the pmf series roundoff on a 2000-term
array and integrated the stable density at every point; the running
maximum digests by the one that took ``cumsum`` and ``max`` over every
block's rows, however narrow (``theorem51`` is re-pinned for its
n-path time-change kernel, which reads the stream in another order).
The values that come from the package's own Laplace inversions (three
``FPP_PMF_FAR`` rows, the ``pmf --spec`` tables and the ``theorem31``,
``theorem41`` and ``distributed`` reports) are pinned from the array
Talbot route, which evaluates each transform once on the node array;
``test_distributions.py`` checks those values against mpmath.  The tests
compare ``repr`` strings and SHA-256 digests, not tolerances: refactors
of those layers must keep the output bytes identical.
"""

import contextlib
import hashlib
import io

import pytest

from fracpoisson import fpp_pmf, ml_one, prabhakar
from fracpoisson.cli import main
from fracpoisson.distributions import _pmf_far_tail
from fracpoisson.samplers import RngStream, sample_brownian_running_max

# (beta, z, repr) on the asymptotic branch of ml_one (-z above the switch)
ML_ONE_ASYMPTOTIC = [
    (0.5, -5.0, "0.11070463773196226"),
    (0.5, -20.0, "0.028174348741051323"),
    (0.5, -1000.0, "0.0005641893014533878"),
    (0.3, -3.0, "0.21180263319643575"),
    (0.3, -50.0, "0.015228201501814692"),
    (0.9, -12.0, "0.01027522798783284"),
    (0.9, -100.0, "0.0010689724182870886"),
    (0.1, -2.0, "0.3200153359597274"),
    (0.1, -1000000.0, "9.357778619766244e-07"),
    (0.7, -8.0, "0.04606999298189691"),
    (0.7, -10000.0, "3.3429961379213076e-05"),
    (0.05, -100000000.0, "9.695058164447981e-09"),
]

# (gamma, alpha, theta, z, repr) on the asymptotic branch of prabhakar
PRABHAKAR_ASYMPTOTIC = [
    (2.0, 0.6, 1.6, -10.0, "0.004785236268898845"),
    (1.0, 0.5, 0.5, -20.0, "0.0007026087267299006"),
    (3.0, 0.4, 2.2, -50.0, "7.681964606719754e-06"),
    (0.7, 0.8, 1.1, -40.0, "0.04624682351670475"),
    (5.0, 0.3, 2.5, -1000.0, "9.961548464436564e-16"),
    (1.5, 0.5, 1.0, -7.0, "0.016761357073298924"),
    (2.0, 0.9, 1.9, -30.0, "0.00013138938660341403"),
    (4.0, 0.2, 1.0, -5.0, "0.00028778142311212056"),
]

# (beta, lam, t, n, repr) with lam t**beta past the series switch
FPP_PMF_FAR = [
    (0.5, 1.0, 30.0, 1, "0.09824162595308855"),
    (0.5, 1.0, 30.0, 3, "0.08835202675996325"),
    (0.5, 1.0, 30.0, 10, "0.04072576456943504"),
    (0.7, 2.0, 10.0, 5, "0.04838795303116058"),
    (0.9, 1.0, 20.0, 3, "0.012238328455205193"),
    (0.3, 1.0, 100.0, 2, "0.12173027868819546"),
    (0.6, 3.0, 50.0, 40, "0.013416666017385483"),
    (0.4, 2.0, 10000.0, 7, "0.008147399315008488"),
]

# (beta, z, n, repr or exception name) of the far-tail expansion itself
FAR_TAIL = [
    (0.5, 6.0, 3, "0.08260881000471088"),
    (0.3, 4.0, 2, "0.12142331020175008"),
    (0.6, 1000.0, 900, "0.0004950609995245553"),
    (0.5, 20.0, 10, "0.026008245194479817"),
    (0.8, 50.0, 30, "0.009460461569072052"),
    (0.4, 100.0, 50, "0.005438522298781564"),
    (0.95, 100.0, 20, "0.0007915119706751102"),
    (0.9, 15.0, 3, "EvaluationError"),
    (0.7, 10.0, 5, "EvaluationError"),
    (0.5, 5.0, 30, "EvaluationError"),
    (0.9, 12.0, 40, "EvaluationError"),
]

# (process, spec, lambda, horizon, paths, seed, stdout length, sha256); the
# TemperedStable pin is of the batched tempered kernel (one rejection pass
# over the chunks of a batch), whose law test_samplers.py checks
SAMPLE_DIGESTS = [
    ("timechange", '{"variant":"Stable","beta":0.6}', "1", "5", "40", "17",
     3005, "e0c2495bb48948f4f7218b0183ee7cd2f8e64b1f94cd3093d123c2b029f4a8c5"),
    ("timechange", '{"variant":"TemperedStable","beta":0.5,"a":1.0}', "2", "3", "30", "18",
     10211, "8001e8b673321a3ccfdf550988d1f0d4aa033965a7c978f561e6f8b640bdd2c6"),
    ("timechange",
     '{"variant":"StableMixture","weights":[0.5,0.5],"betas":[0.4,0.8]}', "1", "5", "40", "19",
     2752, "615c4291465cd4a87accf8464dad7896957d6733b31a40ecfdfd602b80cf6aaf"),
    ("ctrw", '{"variant":"Stable","beta":0.7}', "1", "4", "30", "20",
     3320, "537ecfe9a322205b80575e9dfceeb5abd2526f5701f338ede391ed3d54517877"),
]

# (argv after "sample", stdout length, sha256), pinned from the sampler that
# built one path at a time: paths that end in one 32-draw round
# (fpp at lambda 1) and paths of several rounds (lambda 50, horizon 3)
SAMPLE_ROUND_DIGESTS = [
    (["--process", "fpp", "--beta", "0.6", "--lambda", "1", "--horizon", "5",
      "--paths", "40", "--seed", "21"],
     3393, "af8109152aed5dbcac1fe0ce5fbaec174c471f82aed6c0055904597e95feb80c"),
    (["--process", "fpp", "--beta", "0.5", "--lambda", "50", "--horizon", "3",
      "--paths", "12", "--seed", "22"],
     22060, "54911389fc5c2b80072316648ccc54633b2255034ea1907344a62636b65dc420"),
    (["--process", "timechange", "--spec", '{"variant":"Stable","beta":0.6}',
      "--lambda", "50", "--horizon", "3", "--paths", "12", "--seed", "23"],
     27671, "5d440e78406466c7e81c424b209e18c61b3efe5a2131c0056724728a68d899bd"),
    (["--process", "ctrw", "--spec", '{"variant":"Stable","beta":0.7}',
      "--lambda", "50", "--horizon", "3", "--paths", "12", "--seed", "24"],
     33269, "270e926edee5acb3b62a707deb8a5d1e4f84152085736afb681729e1c8e59b36"),
]

# (spec, lambda, t, CSV length, sha256) of ``pmf --spec``
PMF_DIGESTS = [
    ('{"variant":"TemperedStable","beta":0.5,"a":1.0}', "1", "0.5",
     1828, "57467d07853298576c254580dc94355b39e43c7f328958571b2f51837ae8f1cc"),
    ('{"variant":"StableMixture","weights":[0.5,0.5],"betas":[0.4,0.8]}', "1", "0.5",
     1014, "cc3d8eaf2cc438bd81d32728b0da00d6decce71e9268e5aa7318506e488ffdec"),
    ('{"variant":"DistributedOrder","poly":[0.5,1.0]}', "1", "0.5",
     1005, "00824445947175326d4d61b32ae11d4c79c37c85c65f8927fdf581d111014c7e"),
]

# (suite, sha256) of the ``check --suite <suite> --seed 42 --output`` report
SUITE_DIGESTS = [
    ("theorem23", "38078285540e2fc6bf8406fdd76a6c1898174beb7ae2defd9ff00b9f0ed02db0"),
    ("theorem31", "0515c7c49f52fc7bd56019f362a2fa0172f642ee1c5d2d3dd8fcb40d19abf6e1"),
    ("theorem41", "d93a7c3ca9564fdce01b736086a78d09b2fb3d9f989f5a7f1af5bb0b0bd0029d"),
    ("theorem51", "cfa2126df4bbcbe394cbd14de0e31924cb8913a9cb53a80222cf8fbae7517263"),
    ("distributed", "c485a744f934cbd0147ced1ddce97ad85ae7802520c96174edf5a4a50c700c86"),
    ("fraccalc", "9ac1d7626dc71d155b195ae6d43433e1fa387c1ae474f415cb2e0fbddbfa12f5"),
]

# (t, n_steps, stream_id, size, sha256) of the seed-42 running maxima's bytes:
# 1e5 paths take 2 steps per block, 1000 paths take the 1000 steps at once
RUNNING_MAX_DIGESTS = [
    (1.0, 40, 0, 100_000, "37da591f0f20d2985dffc0e131bcdf67ed938d8717b54f0ca7deaecab19a38a9"),
    (1.0, 1000, 1, 1000, "7e46a0c9ab69f9f7405aae3c40dc40af9b76e353e55e32c688401eb82d060c4a"),
]


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:  # the exception type is part of the pin
        return type(exc).__name__


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("beta, z, expected", ML_ONE_ASYMPTOTIC)
def test_ml_one_asymptotic_bytes(beta, z, expected):
    assert repr(ml_one(beta, z)) == expected


@pytest.mark.parametrize("g, a, th, z, expected", PRABHAKAR_ASYMPTOTIC)
def test_prabhakar_asymptotic_bytes(g, a, th, z, expected):
    assert repr(prabhakar(g, a, th, z)) == expected


@pytest.mark.parametrize("beta, lam, t, n, expected", FPP_PMF_FAR)
def test_fpp_pmf_far_bytes(beta, lam, t, n, expected):
    assert repr(fpp_pmf(beta, lam, t, n)) == expected


@pytest.mark.parametrize("beta, z, n, expected", FAR_TAIL)
def test_far_tail_expansion_bytes(beta, z, n, expected):
    assert _outcome(_pmf_far_tail, beta, z, n) == expected


@pytest.mark.parametrize(
    "process, spec, lam, horizon, paths, seed, length, digest", SAMPLE_DIGESTS,
    ids=["stable", "tempered", "mixture", "ctrw"],
)
def test_sample_stdout_digest(process, spec, lam, horizon, paths, seed, length, digest):
    text = _cli_stdout(["sample", "--process", process, "--spec", spec, "--lambda", lam,
                        "--horizon", horizon, "--paths", paths, "--seed", seed])
    assert len(text) == length
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, length, digest", SAMPLE_ROUND_DIGESTS,
    ids=["fpp", "fpp-rounds", "stable-rounds", "ctrw-rounds"],
)
def test_sample_rounds_stdout_digest(argv, length, digest):
    text = _cli_stdout(["sample", *argv])
    assert len(text) == length
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "spec, lam, t, length, digest", PMF_DIGESTS,
    ids=["tempered", "mixture", "distributed"],
)
def test_pmf_spec_csv_digest(spec, lam, t, length, digest):
    text = _cli_stdout(["pmf", "--spec", spec, "--lambda", lam, "--t", t])
    assert len(text) == length
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("suite, digest", SUITE_DIGESTS, ids=[s for s, _ in SUITE_DIGESTS])
def test_suite_report_digest(suite, digest, tmp_path):
    report = tmp_path / "report.json"
    _cli_stdout(["check", "--suite", suite, "--seed", "42", "--output", str(report)])
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("t, n_steps, stream_id, size, digest", RUNNING_MAX_DIGESTS,
                         ids=["narrow-blocks", "wide-block"])
def test_running_max_digest(t, n_steps, stream_id, size, digest):
    draws = sample_brownian_running_max(t, n_steps, RngStream(42, stream_id), size=size)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == digest
