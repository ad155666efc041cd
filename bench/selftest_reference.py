"""Tests of reference.py, the benchmark's independent reference code.

    python3 bench/selftest_reference.py      (or: python3 -m pytest bench/selftest_reference.py)

The mixture log-likelihood and responsibilities are checked against a
brute-force sum written out from the textbook pmfs, and the GLM fits
against Nelder-Mead on the same log-likelihood.
"""

import math
import os
import sys

import numpy as np
from scipy import optimize

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def _poisson_pmf(y, mu):
    return math.exp(-mu) * mu**y / math.factorial(y)


def _nb2_pmf(y, mu, alpha):
    r = 1.0 / alpha
    coef = math.exp(math.lgamma(y + r) - math.lgamma(r)) / math.factorial(y)
    return coef * (r / (r + mu)) ** r * (mu / (r + mu)) ** y


def _brute_force(y, X, pis, betas, alphas, family):
    total, resp = 0.0, np.zeros((len(y), len(pis)))
    for i in range(len(y)):
        terms = []
        for pi, beta, alpha in zip(pis, betas, alphas):
            mu = math.exp(sum(b * x for b, x in zip(beta, X[i])))
            f = _poisson_pmf(int(y[i]), mu) if family == ref.POISSON else _nb2_pmf(int(y[i]), mu, alpha)
            terms.append(pi * f)
        total += math.log(sum(terms))
        resp[i] = [t / sum(terms) for t in terms]
    return total, resp


TINY_Y = np.array([0, 3, 1, 7, 12])
TINY_X = np.column_stack([np.ones(5), [-1.0, 0.2, -0.4, 0.9, 1.5]])
PIS = [0.3, 0.7]
BETAS = [np.array([0.1, 0.5]), np.array([1.6, 0.4])]


def test_mixture_matches_brute_force():
    for family, alphas in ((ref.POISSON, [0.0, 0.0]), (ref.NB2, [0.4, 1.3])):
        want_ll, want_resp = _brute_force(TINY_Y, TINY_X, PIS, BETAS, alphas, family)
        got_ll = ref.mixture_loglik(TINY_Y, TINY_X, PIS, BETAS, alphas, family)
        got_resp = ref.responsibilities(TINY_Y, TINY_X, PIS, BETAS, alphas, family)
        assert abs(got_ll - want_ll) < 1e-12 * (1.0 + abs(want_ll)), family
        assert np.max(np.abs(got_resp - want_resp)) < 1e-12, family


def test_nb2_large_shape_path_is_continuous():
    # both sides of LARGE_SHAPE must agree with the brute force to the
    # precision lgamma keeps there
    for alpha in (1.01 / ref.LARGE_SHAPE, 0.99 / ref.LARGE_SHAPE):
        got = ref.log_density(TINY_Y, TINY_X, BETAS[1], alpha, ref.NB2)
        mu = np.exp(TINY_X @ BETAS[1])
        want = [math.log(_nb2_pmf(int(y), m, alpha)) for y, m in zip(TINY_Y, mu)]
        assert np.max(np.abs(got - want)) < 1e-9


def test_nb2_tiny_alpha_tends_to_poisson():
    got = ref.log_density(TINY_Y, TINY_X, BETAS[1], 1e-9, ref.NB2)
    want = ref.log_density(TINY_Y, TINY_X, BETAS[1], 0.0, ref.POISSON)
    assert np.max(np.abs(got - want)) < 1e-6


def _glm_data(family, seed):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(60), rng.normal(size=60)])
    mu = np.exp(1.0 + 0.5 * X[:, 1])
    if family == ref.NB2:
        mu = rng.gamma(2.0, mu / 2.0)  # alpha = 0.5
    return rng.poisson(mu), X


def _nelder_mead(nll, x0):
    res = optimize.minimize(
        nll, x0, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 40000},
    )
    return res.x, -res.fun


def test_poisson_mle_matches_nelder_mead():
    y, X = _glm_data(ref.POISSON, 1)
    beta, ll = ref.poisson_mle(y, X)
    nm_beta, nm_ll = _nelder_mead(lambda b: -ref.log_density(y, X, b, 0.0, ref.POISSON).sum(), np.zeros(2))
    assert ll >= nm_ll - 1e-9
    assert abs(ll - nm_ll) < 1e-7
    assert np.max(np.abs(beta - nm_beta)) < 1e-4


def test_nb2_mle_matches_nelder_mead():
    y, X = _glm_data(ref.NB2, 2)
    beta, alpha, ll = ref.nb2_mle(y, X)

    def nll(t):
        return -ref.log_density(y, X, t[:2], math.exp(t[2]), ref.NB2).sum()

    nm_theta, nm_ll = _nelder_mead(nll, np.array([0.0, 0.0, 0.0]))
    assert ll >= nm_ll - 1e-9
    assert abs(ll - nm_ll) < 1e-7
    assert np.max(np.abs(np.append(beta, math.log(alpha)) - nm_theta)) < 1e-4


def test_criteria_formulas():
    # G=2, p=3 Poisson: n_k = 2*4 + 1 = 9; NB-2 adds 2 dispersions
    assert ref.n_params(2, 3, ref.POISSON) == 9
    assert ref.n_params(2, 3, ref.NB2) == 11
    c = ref.criteria(-100.0, 2, 3, 50, ref.POISSON)
    assert c["aic"] == 200.0 + 18.0
    assert abs(c["sbc"] - (200.0 + 9 * math.log(50))) < 1e-12
    assert abs(c["caic"] - (200.0 + 9 * (math.log(50) + 1.0))) < 1e-12


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
