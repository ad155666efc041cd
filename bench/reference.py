"""Reference computations the benchmark checks countmix against.

Nothing here imports countmix.  Densities come from ``scipy.stats``
log-pmfs, single-component fits from ``scipy.optimize`` on those literal
log-pmfs, and the criteria from the paper's formulas, so a value that
agrees with countmix was reached by a second, independent path.

NB-2 is parameterised by its mean mu = exp(x'beta) and dispersion alpha,
with variance mu (1 + alpha mu); in scipy's terms that is
``nbinom(n=1/alpha, p=1/(1 + alpha mu))``.  For 1/alpha above
``LARGE_SHAPE`` scipy's gammaln(y + n) - gammaln(n) cancels (about 1e-6
per row at alpha = 1e-8, where fits pin alpha), so there the log of the
rising factorial n (n+1) ... (n+y-1) is summed term by term instead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats
from scipy.special import digamma, gammaln, logsumexp

POISSON = "poisson"
NB2 = "nb2"
LARGE_SHAPE = 1e4


def log_density(y, X, beta, alpha, family):
    """Per-row log f(y_i | x_i) of one component."""
    mu = np.exp(X @ np.asarray(beta, dtype=float))
    if family == POISSON:
        return stats.poisson.logpmf(y, mu)
    shape = 1.0 / alpha
    if shape <= LARGE_SHAPE:
        return stats.nbinom.logpmf(y, shape, 1.0 / (1.0 + alpha * mu))
    y = np.asarray(y, dtype=np.int64)
    steps = np.concatenate([[0.0], np.cumsum(np.log(shape + np.arange(y.max(initial=0))))])
    rising = steps[y]
    amu = alpha * mu
    return rising - gammaln(y + 1.0) - shape * np.log1p(amu) + y * (np.log(amu) - np.log1p(amu))


def log_weighted_densities(y, X, pis, betas, alphas, family):
    """n x G matrix log pi_g + log f_g(y_i | x_i)."""
    cols = [
        math.log(pi) + log_density(y, X, beta, alpha, family)
        for pi, beta, alpha in zip(pis, betas, alphas)
    ]
    return np.column_stack(cols)


def mixture_loglik(y, X, pis, betas, alphas, family):
    """Observed-data log-likelihood sum_i log sum_g pi_g f_g(y_i | x_i)."""
    return float(logsumexp(log_weighted_densities(y, X, pis, betas, alphas, family), axis=1).sum())


def responsibilities(y, X, pis, betas, alphas, family):
    """Posterior component probabilities r_ig."""
    logw = log_weighted_densities(y, X, pis, betas, alphas, family)
    return np.exp(logw - logsumexp(logw, axis=1, keepdims=True))


def _poisson_objective(beta, y, X):
    mu = np.exp(X @ beta)
    nll = -float(stats.poisson.logpmf(y, mu).sum())
    return nll, -(X.T @ (y - mu))


def _poisson_hessian(beta, y, X):
    mu = np.exp(X @ beta)
    return X.T @ (X * mu[:, None])


def poisson_mle(y, X):
    """(beta, logL) of a Poisson regression, by trust-region Newton on the log-pmf."""
    y = np.asarray(y, dtype=float)
    beta0 = np.zeros(X.shape[1])
    beta0[0] = math.log(max(y.mean(), 1e-8))
    res = optimize.minimize(
        _poisson_objective, beta0, args=(y, X), jac=True, hess=_poisson_hessian,
        method="trust-exact", options={"gtol": 1e-9, "maxiter": 500},
    )
    return res.x, -float(res.fun)


def _nb2_objective(theta, y, X):
    beta, alpha = theta[:-1], math.exp(theta[-1])
    mu = np.exp(X @ beta)
    r = 1.0 / alpha
    nll = -float(log_density(y, X, beta, alpha, NB2).sum())
    # derivatives of the log-pmf: d/d eta and d/d log(alpha)
    d_eta = (y - mu) / (1.0 + alpha * mu)
    d_log_alpha = r * (
        digamma(r) - digamma(y + r) + np.log1p(alpha * mu) + alpha * (y - mu) / (1.0 + alpha * mu)
    )
    grad = np.concatenate([X.T @ d_eta, [d_log_alpha.sum()]])
    return nll, -grad


def nb2_mle(y, X):
    """(beta, alpha, logL) of an NB-2 regression, by BFGS on the log-pmf.

    Starts from the Poisson fit and a moment estimate of alpha.
    """
    y = np.asarray(y, dtype=float)
    beta0, _ = poisson_mle(y, X)
    mu = np.exp(X @ beta0)
    alpha0 = max(float(((y - mu) ** 2 - y).sum() / (mu**2).sum()), 1e-3)
    theta0 = np.concatenate([beta0, [math.log(alpha0)]])
    res = optimize.minimize(
        _nb2_objective, theta0, args=(y, X), jac=True, method="BFGS",
        options={"gtol": 1e-8, "maxiter": 2000},
    )
    return res.x[:-1], math.exp(res.x[-1]), -float(res.fun)


def mle(y, X, family):
    """logL of the single-component maximum-likelihood fit."""
    if family == POISSON:
        return poisson_mle(y, X)[1]
    return nb2_mle(y, X)[2]


def n_params(G, p, family):
    """The paper's parameter count G(p+1) + (G-1), plus G dispersions for NB-2."""
    return G * (p + 1) + (G - 1) + (G if family == NB2 else 0)


def criteria(logL, G, p, n, family):
    """AIC, SBC and CAIC of a G-component fit with p covariates on n rows."""
    k = n_params(G, p, family)
    return {
        "aic": -2.0 * logL + 2.0 * k,
        "sbc": -2.0 * logL + k * math.log(n),
        "caic": -2.0 * logL + k * (math.log(n) + 1.0),
    }


def close(a, b, rel=1e-6):
    """Agreement to ``rel`` relative to 1 + |b|."""
    return abs(a - b) <= rel * (1.0 + abs(b))
