"""Two constructions of the same process, checked against each other.

The fractional counting process can be built two ways: directly as a
renewal process with Mittag-Leffler waits, or by running a standard
Poisson process on the inverse of a stable subordinator.  The script
compares first-wait distributions between the constructions (two-sample
KS), checks the joint transform of the first two event epochs against
its product formula, and verifies the self-similar scaling of the
inverse-subordinator marginal.
"""

import numpy as np

from fracpoisson import (
    RngStream,
    Stable,
    empirical_laplace,
    ks_two_sample,
    laplace_exponent,
    sample_inverse_stable_marginal,
    simulate_fpp,
    simulate_timechange_renewal,
)

BETA = 0.7
LAM = 1.0
SEED = 77
N = 20_000


def first_wait_ks():
    spec = Stable(BETA)
    rng_a = RngStream(SEED, 0)
    rng_b = RngStream(SEED, 1)
    direct = np.array([
        simulate_fpp(BETA, LAM, 1e-9, rng_a).jump_times[0] for _ in range(N)
    ])
    changed = np.array([
        simulate_timechange_renewal(spec, LAM, 1e-9, rng_b).jump_times[0]
        for _ in range(N)
    ])
    res = ks_two_sample(direct, changed)
    print(f"first waits, renewal vs time change (beta={BETA}, {N} paths each):")
    print(f"  KS statistic {res.statistic:.5f}, p-value {res.p_value:.3f}")
    print()


def joint_epoch_transform():
    spec = Stable(BETA)
    gen = RngStream(SEED, 2).generator
    # tau1 = D(V_1) and tau2 = tau1 + D'(V_2 - V_1): the Poisson gaps V_1 and
    # V_2 - V_1 are Exp(lam), and D' is an independent copy of D
    tau1 = spec.increments(gen.standard_exponential(N) / LAM, gen)
    tau2 = tau1 + spec.increments(gen.standard_exponential(N) / LAM, gen)
    emp, err = empirical_laplace(tau1 + tau2, 1.0)
    # E[exp(-tau1 - tau2)] = lam^2 / ((lam + psi(2)) (lam + psi(1)))
    psi1 = laplace_exponent(spec, 1.0)
    psi2 = laplace_exponent(spec, 2.0)
    exact = LAM ** 2 / ((LAM + psi2) * (LAM + psi1))
    print("joint transform of the first two epochs at (1, 1):")
    print(f"  empirical {emp:.5f} +/- {err:.5f}, product formula {exact:.5f}, "
          f"deviation {abs(emp - exact) / err:.2f} sigma")
    print()


def marginal_scaling():
    rng = RngStream(SEED, 3)
    e1 = sample_inverse_stable_marginal(BETA, 1.0, rng, size=N)
    rng = RngStream(SEED, 3)
    e5 = sample_inverse_stable_marginal(BETA, 5.0, rng, size=N)
    res = ks_two_sample(e5, 5.0 ** BETA * e1)
    print(f"self-similarity of the inverse marginal, E(5) ~ 5^beta E(1):")
    print(f"  KS statistic {res.statistic:.5f} on matched streams "
          f"(identical up to float noise)")


if __name__ == "__main__":
    first_wait_ks()
    joint_epoch_transform()
    marginal_scaling()
