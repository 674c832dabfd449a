"""Exact-output regression pins for the asymptotic series and the CLI.

The series, sample and pmf values below were produced by the
implementation that kept one asymptotic-series routine per caller and
one ``isinstance`` ladder per subordinator operation; the suite report
digests by the one that checked the pmf series roundoff on a 2000-term
array and integrated the stable density at every point; the running
maximum digests by the one that took ``cumsum`` and ``max`` over every
block's rows, however narrow (``theorem51`` is re-pinned for its
n-path time-change kernel, which reads the stream in another order);
the bulk draw digests by the samplers that evaluated their elementwise
math over the whole array at once; the stream digests by the samplers
that drew every generator stream whole before any math; the series
value digests by the implementation that summed ``ml_one``'s power
series in a loop of its own, apart from the Prabhakar loop.
The values that come from the package's own Laplace inversions (three
``FPP_PMF_FAR`` rows, the ``pmf --spec`` tables and the ``theorem31``,
``theorem41`` and ``distributed`` reports) are pinned from the array
Talbot route, which evaluates each transform once on the node array;
``test_distributions.py`` checks those values against mpmath.  The
``pmf --beta`` digests are pinned from the table that called ``fpp_pmf``
once per row.  The tests
compare ``repr`` strings and SHA-256 digests, not tolerances: refactors
of those layers must keep the output bytes identical.
"""

import contextlib
import hashlib
import io
import math

import numpy as np
import pytest

from fracpoisson import fpp_pmf, ml_one, prabhakar
from fracpoisson.cli import main
from fracpoisson.distributions import _fpp_pmf_grid, _pmf_far_tail
import fracpoisson as fp
from fracpoisson import samplers
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

# (beta, lambda, t, CSV length, sha256, JSON length, sha256) of ``pmf --beta``,
# pinned from the table that made one scalar ``fpp_pmf`` call per row: the
# eleven tables of perfbench's ``pmf`` workload, then beta = 0.05 and 0.6
# below the series switch and beta = 1 (Poisson)
PMF_BETA_DIGESTS = [
    ("0.3", "1.0", "10.0", 1189, "e3bdc0c96d4a71b5e2a7cb4ebfd4e451da68b27b13d9b21f189928ba34e16d53",
     2423, "85611f70d7e0296b8f261fca81edf739a0c7f7964597365f4c4e740fd3ed1026"),
    ("0.3", "1.0", "60.0", 3024, "b6f6be90e8ef563e848e3ad2762c844439eab32b4c75b8ed5d0ae95cc6ea3064",
     6130, "4b5d7cfcbfcd6294b39ddf17dba7734433b1400c25401c2eb69f52d347d30c91"),
    ("0.5", "1.0", "2.0", 941, "7f62aff12442c787775d2d097fb6558e66f918c29e3008783b85f9b5ad6b45f5",
     1915, "d8dd3eceb93e8cd48d55a33f465463ff95358e14a64cca7f37d03807bbc6fee5"),
    ("0.5", "1.0", "60.0", 3007, "a71d8d2a0be3ad58158bb14f2f8b2bc4911dea7d084448b064e1ab729587b820",
     6113, "5edee3a86675e07721a23a046223982bce1793bff2fe29b263fb697ce01c06e3"),
    ("0.5", "2.0", "20.0", 2572, "199b885c01f67760b0664afc1c6529c5c7036260330a2d36fc2b9002e217c9be",
     5262, "df8ccaaf83b59eb5bade4a3852a32990576f8935c1fabc6b0e140b75d190f97c"),
    ("0.7", "1.0", "5.0", 1007, "67039586d0a7ed897ed7cccaa26898323e20aea8425a58c0223b2cad8998f6fe",
     2059, "41536c8619fbf12d9f44a2030cb6bc3ef6293fbd6507841762f9180333334273"),
    ("0.7", "1.0", "60.0", 2981, "9061326a2ffa077e8656e342d21420386ccb8e53e8b23eb7b6302245c71a362c",
     6087, "9e533fe6aa3504e841b2248d882c9b0ff80ebba8d213fd3aaefcf3ec050f5713"),
    ("0.9", "1.0", "10.0", 1174, "9614527ad2cce5166da20c8f2d9e5ac0489d1541f0a7291e64ac22837bccc459",
     2408, "111dadc204061d9951c16f551408343bf087183a27187d6770cc3e2fb16fdca0"),
    ("0.9", "1.0", "40.0", 2193, "028322043043c591511b09f4fded7bc8fc6f8ef07565232b77b304f27ef1ffbf",
     4545, "02e0c4846eb595acd353cb78608f0dca2b72c970d04fc990ee032505eca87375"),
    ("0.999", "1.0", "2.0", 933, "d189556bf847f3f676d52f0ed6e34824e6cc1fcf7eef591355ae12b135484d31",
     1907, "8aac65bcb9db21a18916f9607e126d7de34a8e0bab333f489912456bd4d54973"),
    ("0.999", "1.0", "25.0", 1661, "23cd5299619a914a7c98600c5652aeb223f24411303e7a9f2be5b294bfbf7501",
     3441, "1b8cbd5fb8000233b81df764d29d94d7c9825869d0f61026d5220e6421de7f46"),
    ("0.05", "1.0", "2.0", 944, "d5a9a9efaa80b1537e212f0fa8fb9f9d936e13390c815f722d6684b60720c330",
     1918, "88f19c40670f20605691e6f863374d2523f64ca8c3630642925aa126c4c31c4e"),
    ("1.0", "1.0", "5.0", 1007, "d5aefb2afd19cfc5172b0141f4d467357fb6daa2b344d0d200c82c47534bfffc",
     2059, "1ca4c2eafa5afd435f03509280781be5cba390a2c45fd9a1ab48eb3c6103fecd"),
    ("0.6", "2.0", "0.5", 1529, "c179b9ad3ce2fbb489e406e043b7926ada29147c603b859ce17e59d45e1b8dee",
     3101, "040f68add70882384e0d9803a9d1317ac5ba1edf75d434ff3c7ea64861c3b2cc"),
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

# sizes of the bulk draws: one draw, one kernel batch, exactly one block
# of the samplers' elementwise math and three blocks plus a remainder
BULK_SIZES = (1, 32, 32768, 3 * 32768 + 17)

# (sampler, its arguments before the source, sha256 of the seed-42 stream-j
# draws' bytes at each of BULK_SIZES), j the row's index
BULK_DRAW_DIGESTS = [
    ("sample_stable_unit", (0.6,), (
        "5dbdf1ddbc23f0b5817c229a00027010be8780b1cdff1deaa1b48a8302bd8e52",
        "c8534b811eb9652c3b34809a4654fefe4c0f11d47702171e3704aacd4f1cf922",
        "70a1b8bd4d23a0b589117d94dcbb93d0db943b1604e9b2cd94e82a1c000c0403",
        "e52f22e28defe83f3c7a9044259b1c69e2b0c226790bbf01f674759c441a4571",
    )),
    ("sample_stable_increment", (0.6, 2.5), (
        "0e350f88586da2d87ce1a3e7ad628b1ecec9754e7be3489b01f691f010544c35",
        "07d26cdd52bd5a7c9e0b3f373dcd0122c64d692c2df297e235ef692c24ce0c69",
        "d94676a167ffc55e5ea2b92ef4bbe051e86a60f705e6f434cc3258f1e3f6a1cf",
        "4652b8699148b57b78941a0b548cf045fe3a3f299d907739c9f1f938e3faed7d",
    )),
    ("sample_ml_waiting", (0.6, 1.5), (
        "db88990b7770f97134fee6a46e13f516c28fd6cf7a72c44f1595d51388358b03",
        "ff5d5c6b25b51901b25c48828003ab1bd27f1a637bfa04c0a16db7f3a8453b2f",
        "c013ae970f0cbbe734a4d533a1195cf3c8d99e26b6909645c15fb0049180067a",
        "6e201ecebecba1edd399617ec5eb33a9bc2f01b471d2c0b0fe073a55e09ba2ec",
    )),
    ("sample_tempered_ml_waiting", (0.5, 1.0, 2.0), (
        "528fc1a4861e794182b874def2b1ba1fe84a4040b51747504dfe3c4095e793d9",
        "73d7e571e145677f989986e42a6692fd4bf5a21ed12fb868145b0f33e5032369",
        "f758b9380ce9a523f2b179b942d5e2d43f0abeb7e67c98dd0f5528c6f7536322",
        "ba3c7e8f168b2b132fc426907f966414c4fd9a3897361d62c5adf9856c84fdf8",
    )),
    ("sample_tempered_stable_increment", (0.5, 1.0, 2.0), (
        "58fb2a777e77bb4a4ffecef88d26a691e617a60f57572697485fcc4b14890ec6",
        "cd054a51e2fdc4444a3d966f1112719d9fd014d589e47dd0e217ba03b2638499",
        "b5de72e137223dfd2aeaa6b35e6d14f92c50fad699881ac6ff59a3fc029bce7a",
        "6a02b6da4c55c72814428b23a3d52156fc78644948ed173afe3ecddc57c2c01e",
    )),
    ("sample_inverse_stable_marginal", (0.7, 1.5), (
        "41e8fb0cdef85c4ef1f29d149159ef436c6ce00e5ad99ba59d814a970627e8e4",
        "8ff379caee2f877d573961b44652f2607f4cd6d21ec71b5872bef7b04f6e2c23",
        "2a0d6a5f16e5b7f932d33e606a5594eaa99ec6c9ece965326ae49f8e480ae1ce",
        "20da432c2f162ff17b9d772e09427652a789e63f32b49db3148431a0db33df11",
    )),
]


# sizes of the stream digests: one draw, one short of a kernel batch, one
# block of the samplers' math, one past it, and three blocks and more
STREAM_SIZES = (1, 31, 32768, 32769, 100_000)
STREAM_BETAS = (0.02, 0.3, 0.5, 0.7, 0.99)

# (sampler, its argument tuples before the source, sha256 over the draws'
# bytes and the generator's final state of each tuple at each of
# STREAM_SIZES, tuple i at size k reading seed-42 stream 10 i + k);
# beta < 0.05 is left out of sample_ml_waiting, whose waits there are
# redone in logs where the direct product leaves the float range
STREAM_DIGESTS = [
    ("sample_stable_unit", [(b,) for b in STREAM_BETAS],
     "54a9e1bb107ad7021cebc1695d040a8c798c497724d8827a428ea74fcf175dba"),
    ("sample_stable_increment", [(b, 0.5) for b in STREAM_BETAS],
     "d57b3fe378a9cac8ad71d5af3e159165dc65b1875383d93c31c8b945625e2108"),
    ("sample_inverse_stable_marginal", [(b, 1.5) for b in STREAM_BETAS],
     "55137e4a3cc2783ea01b582e08306824da45f6dd0e7bbbe8cfd3c8ea6a11e17c"),
    ("sample_ml_waiting", [(b, 1.5) for b in STREAM_BETAS[1:]],
     "a92407fb19ebbd7d51f2a13b18866c21397e7e882e916f8b4bebe58cc6cfeb92"),
    ("sample_tempered_ml_waiting", [(b, 1.0, 2.0) for b in STREAM_BETAS],
     "dda36f1aafd298be0f9e34995d37cef092528a09b8c49b632313c72d9b94599f"),
    ("sample_tempered_stable_increment", [(b, 1.0, 2.0) for b in STREAM_BETAS],
     "086b3abf2c706964be40674b74fd6413c3212c1f8f3a0bf5ff67a1b10844df0e"),
    ("sample_brownian_running_max", [(1.0, 3), (1.0, 40)],
     "5efb7c420f121f675904ab094f15e8e1bea7877dbe63659278a1f9873a806589"),
]

# (beta, its series switch): the series digests below evaluate at z on
# both sides of each switch, positive z included
SERIES_SWITCHES = [
    (0.05, 1.1196283033156778), (0.1, 1.3380790844999138), (0.25, 2.0711161526832442),
    (0.5, 4.2895221179054435), (0.75, 8.884098545686003), (0.9, 10.0), (0.999, 10.0),
]


def _series_points(switch):
    """z from -3 to +1 switches, and the switch and its neighbours at either sign."""
    edge = [math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf)]
    return (np.linspace(-3.0, 1.0, 41) * switch).tolist() + edge + [-x for x in edge]


def _ml_one_values():
    return [_outcome(ml_one, beta, z) for beta, switch in SERIES_SWITCHES
            for z in _series_points(switch)]


def _prabhakar_values():
    return [_outcome(prabhakar, g, alpha, th, z) for alpha, switch in SERIES_SWITCHES
            for g, th in [(1.0, 1.0), (3.0, 2.0 * alpha + 1.0), (2.5, 0.7)]
            for z in _series_points(switch)]


def _fpp_pmf_values():
    # lam = 1, so z = t**beta; counts from n = 0 to rows n >= 170/beta,
    # whose series starts on the lgamma branch
    values = []
    for beta, switch in SERIES_SWITCHES:
        ts = [x ** (1.0 / beta) for x in _series_points(switch) if x > 0.0]
        deep = [math.ceil(170.0 / beta), math.ceil(170.0 / beta) + 37]
        values += [_outcome(fpp_pmf, beta, 1.0, t, n) for n in [0, 1, 2, 7, 30] for t in ts]
        values += [_outcome(fpp_pmf, beta, 1.0, t, n)
                   for n in deep for t in ts if t ** beta <= switch]
    return values


def _fpp_pmf_grid_values():
    values = []
    for beta, switch in SERIES_SWITCHES:
        ts = [0.0] + [x ** (1.0 / beta) for x in _series_points(switch) if x > 0.0]
        for n in (0, 1, 4):
            values += [repr(v) for v in _fpp_pmf_grid(beta, 1.0, ts, n)]
    return values


# (values, count, sha256 of their repr strings joined by newlines)
SERIES_VALUE_DIGESTS = [
    (_ml_one_values, 329, "c43327a66849ae8b3a642d2cce65f12566286cf31cc3a0cbeb7fad9c1721f9d8"),
    (_prabhakar_values, 987, "c2258afbace201b409218ec6d9595b5e3e8bcf0932302516c9cf3c062c3088ff"),
    (_fpp_pmf_values, 613, "68f6c43b0c2c08e23f08f40c1fe2ed7c78a88917f32114b4dec8bd4c43448a23"),
    (_fpp_pmf_grid_values, 294, "972542e9c9d4dbd05fa34e924739b410eaf060b1b9386bc00a557f7b013bcecf"),
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "beta, lam, t, csv_length, csv_digest, json_length, json_digest", PMF_BETA_DIGESTS,
    ids=[f"{b}-{lam}-{t}" for b, lam, t, *_ in PMF_BETA_DIGESTS],
)
def test_pmf_beta_digest(beta, lam, t, csv_length, csv_digest, json_length, json_digest, fmt):
    text = _cli_stdout(["pmf", "--beta", beta, "--lambda", lam, "--t", t, "--format", fmt])
    length, digest = (csv_length, csv_digest) if fmt == "csv" else (json_length, json_digest)
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


def test_bulk_sizes_straddle_the_block():
    assert BULK_SIZES[2] == samplers._BLOCK
    assert STREAM_SIZES[2:4] == (samplers._BLOCK, samplers._BLOCK + 1)


@pytest.mark.parametrize("j", range(len(BULK_DRAW_DIGESTS)),
                         ids=[row[0] for row in BULK_DRAW_DIGESTS])
@pytest.mark.parametrize("k", range(len(BULK_SIZES)), ids=[str(n) for n in BULK_SIZES])
def test_bulk_draw_digest(j, k):
    name, args, digests = BULK_DRAW_DIGESTS[j]
    draws = getattr(fp, name)(*args, RngStream(42, j), size=BULK_SIZES[k])
    assert hashlib.sha256(draws.tobytes()).hexdigest() == digests[k]


def _state_bytes(gen):
    state = gen.bit_generator.state
    return b"".join((state["state"]["counter"].tobytes(), state["state"]["key"].tobytes(),
                     state["buffer"].tobytes(),
                     repr((state["buffer_pos"], state["has_uint32"], state["uinteger"])).encode()))


@pytest.mark.parametrize("name, params, digest", STREAM_DIGESTS,
                         ids=[row[0] for row in STREAM_DIGESTS])
def test_stream_digest(name, params, digest):
    # the draws and where each call leaves its generator: a sampler that
    # draws its streams in pieces must make the same generator calls
    sha = hashlib.sha256()
    for i, args in enumerate(params):
        for k, n in enumerate(STREAM_SIZES):
            rng = RngStream(42, 10 * i + k)
            sha.update(getattr(fp, name)(*args, rng, size=n).tobytes())
            sha.update(_state_bytes(rng.generator))
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("values, count, digest", SERIES_VALUE_DIGESTS,
                         ids=["ml_one", "prabhakar", "fpp_pmf", "fpp_pmf_grid"])
def test_series_value_digest(values, count, digest):
    reprs = values()
    assert len(reprs) == count
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == digest
