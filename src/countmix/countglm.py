"""Single-component Poisson and NB-2 regression with weighted Newton fitting.

Both families use the log link, mu = exp(X beta).  The NB-2 density adds a
dispersion alpha > 0 with variance mu * (1 + alpha * mu); alpha -> 0 recovers
the Poisson model.  One damped Newton solver fits both families: over beta
for Poisson, and over the joint vector (beta, log alpha) for NB-2, with the
analytic gradient and information built from the per-row derivatives in
``_row_derivs``.  All operations are pure functions of their inputs, so
multiple fits may run concurrently on shared read-only datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import digamma, gammaln, zeta

from .data import Dataset
from .errors import (
    DimensionError,
    DomainError,
    NumericOverflowError,
    SingularDesignError,
)

POISSON = "poisson"
NB2 = "nb2"
FAMILIES = (POISSON, NB2)

ALPHA_MIN = 1e-8
ALPHA_MAX = 1e4
DEFAULT_TOL = 1e-8        # relative log-likelihood change
DEFAULT_GTOL = 1e-6       # max-norm of the gradient
DEFAULT_MAX_ITER = 100
MAX_HALVINGS = 20
WEIGHT_FLOOR = 1e-10      # rows below this weight are excluded from the rank check
# direct gammaln/polygamma differences lose precision above this shape value
_LARGE_THETA = 1e6
# the dispersion search box on the s = log(alpha) scale
_S_LO, _S_HI = float(np.log(ALPHA_MIN)), float(np.log(ALPHA_MAX))


@dataclass(frozen=True)
class GlmFit:
    """Result of a single-component count regression fit.

    ``alpha`` is exactly 0 for the Poisson family and positive for NB-2.
    ``alpha_pinned`` flags an NB-2 dispersion that ended on a search bound.
    ``se`` holds observed-information standard errors (NaN when the
    information matrix could not be inverted).
    """

    family: str
    beta: np.ndarray
    alpha: float
    se: np.ndarray
    logL: float
    converged: bool
    iterations: int
    alpha_pinned: bool = False


def validate_family(family: str) -> str:
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return family


def _weights(d: Dataset, w) -> np.ndarray:
    if w is None:
        return np.ones(d.n)
    w = np.asarray(w, dtype=float)
    if w.shape != (d.n,):
        raise DimensionError(f"weights shape {w.shape} does not match n={d.n}")
    if not np.all(np.isfinite(w)) or w.min() < -1e-12 or w.max() > 1.0 + 1e-12:
        raise DomainError("weights must lie in [0, 1]")
    return np.clip(w, 0.0, 1.0)


def _linear_predictor(beta, d: Dataset) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (d.p + 1,):
        raise DimensionError(f"beta length {beta.size} does not match p+1={d.p + 1}")
    with np.errstate(over="ignore", invalid="ignore"):
        eta = d.X @ beta
    bad = ~np.isfinite(eta)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise NumericOverflowError(f"non-finite linear predictor at row {row}", row=row)
    return eta


def _weighted_sum(w: np.ndarray, rows: np.ndarray) -> float:
    # 0 * (-inf) from fully excluded rows must contribute 0, not NaN
    contrib = np.where(w > 0.0, w * rows, 0.0)
    return float(contrib.sum())


def poisson_logpmf(beta, d: Dataset) -> np.ndarray:
    """Per-row Poisson log-density with mu = exp(X beta)."""
    eta = _linear_predictor(beta, d)
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    return d.y * eta - mu - d.log_y_factorial


def poisson_loglik(beta, d: Dataset, w=None) -> float:
    """Weighted Poisson log-likelihood sum_i w_i [y_i eta_i - exp(eta_i) - log y_i!]."""
    return _weighted_sum(_weights(d, w), poisson_logpmf(beta, d))


def poisson_loglik_grad(beta, d: Dataset, w=None) -> np.ndarray:
    """Analytic gradient of :func:`poisson_loglik` with respect to beta."""
    w = _weights(d, w)
    eta = _linear_predictor(beta, d)
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    resid = np.where(w > 0.0, w * (d.y - mu), 0.0)
    return d.X.T @ resid


# F and the term of its rising sum F(y + theta) - F(theta) = sum_{j<y} term(theta + j)
_POLYGAMMA = {
    -1: (gammaln, np.log),
    0: (digamma, lambda z: 1.0 / z),
    1: (lambda z: zeta(2.0, z), lambda z: -1.0 / z**2),  # trigamma(z) = zeta(2, z)
}


def _polygamma_ratio(y: np.ndarray, theta: float, order: int) -> np.ndarray:
    """F(y + theta) - F(theta) for integer counts y.

    F is log Gamma for ``order=-1``, digamma for 0 and trigamma for 1.
    Above ``_LARGE_THETA`` the direct difference cancels catastrophically,
    so the rising sum is used instead.
    """
    f, term = _POLYGAMMA[order]
    if theta <= _LARGE_THETA:
        return f(np.asarray(y, dtype=float) + theta) - f(theta)
    yi = np.asarray(y, dtype=np.int64)
    ymax = int(yi.max()) if yi.size else 0
    steps = np.concatenate(([0.0], np.cumsum(term(theta + np.arange(ymax, dtype=float)))))
    return steps[yi]


def nb2_logpmf(beta, alpha: float, d: Dataset) -> np.ndarray:
    """Per-row NB-2 log-density with mu = exp(X beta) and dispersion alpha."""
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"dispersion alpha must be positive, got {alpha}")
    eta = _linear_predictor(beta, d)
    theta = 1.0 / alpha
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
        amu = alpha * mu
    log1p_amu = np.log1p(amu)
    # y * log(amu / (1 + amu)), written to stay finite as amu -> 0 or inf
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(amu > 1.0, -np.log1p(1.0 / amu), np.log(amu) - log1p_amu)
        ylog = np.where(d.y > 0, d.y * ratio, 0.0)
    out = _polygamma_ratio(d.y, theta, -1) + ylog - theta * log1p_amu - d.log_y_factorial
    bad = np.isnan(out)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise NumericOverflowError(f"non-finite NB-2 log-density at row {row}", row=row)
    return out


def nb2_loglik(beta, alpha: float, d: Dataset, w=None) -> float:
    """Weighted NB-2 log-likelihood at (beta, alpha)."""
    return _weighted_sum(_weights(d, w), nb2_logpmf(beta, alpha, d))


def _row_derivs(family: str, y: np.ndarray, mu: np.ndarray, alpha: float):
    """Per-row derivatives of the log-density in eta = x'beta and s = log(alpha).

    Returns ``(u, i_ee, v, i_es, i_ss)``: the eta score u, the eta-eta
    information weight i_ee and, for NB-2, the s score v and the eta-s and
    s-s information terms (information is minus the second derivative).
    The three s terms are None for Poisson.  With theta = 1/alpha,
    L = log1p(alpha mu) and D, T the digamma and trigamma ratios:
    v = theta (L - D) + u and
    i_ss = theta (L - D) - mu / (1 + alpha mu) - theta^2 T + i_es.
    """
    if family == POISSON:
        return y - mu, mu, None, None, None
    theta = 1.0 / alpha
    amu = alpha * mu
    opa = 1.0 + amu
    u = (y - mu) / opa
    i_ee = mu * (1.0 + alpha * y) / opa**2
    i_es = u * amu / opa
    tail = theta * (np.log1p(amu) - _polygamma_ratio(y, theta, 0))
    i_ss = tail - mu / opa - theta**2 * _polygamma_ratio(y, theta, 1) + i_es
    return u, i_ee, tail + u, i_es, i_ss


def nb2_loglik_grad(beta, alpha: float, d: Dataset, w=None) -> np.ndarray:
    """Analytic gradient of :func:`nb2_loglik` over (beta, alpha), alpha last."""
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"dispersion alpha must be positive, got {alpha}")
    w = _weights(d, w)
    eta = _linear_predictor(beta, d)
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    u, _, v, _, _ = _row_derivs(NB2, d.y, mu, alpha)
    gbeta = d.X.T @ np.where(w > 0.0, w * u, 0.0)
    return np.append(gbeta, _weighted_sum(w, v) / alpha)  # d/d alpha = (d/ds) / alpha


def check_design_rank(d: Dataset, w=None) -> None:
    """Raise :class:`SingularDesignError` if sqrt(w) X is rank deficient.

    Rows with weight below ``WEIGHT_FLOOR`` are excluded. The error names
    the columns that a pivoted QR identifies as linearly dependent.
    """
    w = _weights(d, w)
    active = w >= WEIGHT_FLOOR
    k = d.p + 1
    if int(active.sum()) < k:
        raise SingularDesignError(
            f"only {int(active.sum())} effectively weighted rows for {k} coefficients"
        )
    A = d.X[active] * np.sqrt(w[active])[:, None]
    _, R, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = (diag.max() * max(A.shape) * np.finfo(float).eps) if diag.size else 0.0
    rank = int((diag > tol).sum())
    if rank < k:
        dep = sorted(int(j) for j in piv[rank:])
        labels = tuple("intercept" if j == 0 else d.names[j - 1] for j in dep)
        raise SingularDesignError(
            f"design is rank deficient; dependent column(s): {', '.join(labels)}",
            columns=labels,
        )


def _poisson_ll(beta, d, w):
    # w is pre-validated by the fit entry point; skip revalidation in hot loops
    try:
        return _weighted_sum(w, poisson_logpmf(beta, d))
    except NumericOverflowError:
        return -np.inf


def _nb2_ll(x, d, w):
    # x = (beta, log alpha); w pre-validated as for _poisson_ll
    try:
        return _weighted_sum(w, nb2_logpmf(x[:-1], float(np.exp(x[-1])), d))
    except NumericOverflowError:
        return -np.inf


def _poisson_derivs(beta, d, w):
    """Gradient and information of the weighted Poisson log-likelihood."""
    with np.errstate(over="ignore"):
        mu = np.exp(d.X @ beta)
    u, i_ee, _, _, _ = _row_derivs(POISSON, d.y, mu, 0.0)
    grad = d.X.T @ np.where(w > 0.0, w * u, 0.0)
    wmu = np.where(w > 0.0, w * i_ee, 0.0)
    return grad, d.X.T @ (d.X * wmu[:, None])


def _nb2_derivs(x, d, w):
    """Gradient and information of the weighted NB-2 log-likelihood over (beta, s)."""
    k = x.size - 1
    with np.errstate(over="ignore"):
        mu = np.exp(d.X @ x[:k])
    u, i_ee, v, i_es, i_ss = (
        np.where(w > 0.0, w * rows, 0.0)
        for rows in _row_derivs(NB2, d.y, mu, float(np.exp(x[k])))
    )
    info = np.empty((k + 1, k + 1))
    info[:k, :k] = d.X.T @ (d.X * i_ee[:, None])
    info[:k, k] = info[k, :k] = d.X.T @ i_es
    info[k, k] = i_ss.sum()
    return np.append(d.X.T @ u, v.sum()), info


_FAMILY_TERMS = {POISSON: (_poisson_derivs, _poisson_ll), NB2: (_nb2_derivs, _nb2_ll)}


def _alpha_side(alpha: float) -> int:
    """-1 on the lower dispersion bound, +1 on the upper, 0 strictly inside."""
    if alpha <= ALPHA_MIN * (1.0 + 1e-9):
        return -1
    return 1 if alpha >= ALPHA_MAX * (1.0 - 1e-9) else 0


def _solve(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def _is_pd(a) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _newton(family, x, d, w, tol, gtol, max_iter):
    """Damped Newton ascent on the weighted log-likelihood of one family.

    Poisson steps over beta; NB-2 over (beta, s) with s = log(alpha) last.
    s stays in [log ALPHA_MIN, log ALPHA_MAX] and is frozen while its
    gradient points out of that box; its step is clipped to +-5, and where
    the joint information is not positive definite s takes a bounded
    uphill step of 0.5 beside beta's own Newton step.  Every step is
    halved until the log-likelihood does not decrease.  Convergence needs
    a gradient max-norm below ``gtol`` over the free coordinates and a
    relative logL change below ``tol``; a fit whose step no longer
    improves logL has converged if its Newton decrement g' I^-1 g / 2 is
    at most ``tol * (1 + |logL|)``.
    Returns (x, logL, converged, iterations, information at the returned x).
    """
    derivs, loglik = _FAMILY_TERMS[family]
    log_alpha = family == NB2
    ll = loglik(x, d, w)
    prev_ll = None
    converged = False
    info = None
    iterations = 0
    for _ in range(max_iter):
        grad, info = derivs(x, d, w)
        k = grad.size - 1 if log_alpha else grad.size  # beta coordinates
        frozen = log_alpha and _alpha_side(float(np.exp(x[k]))) * grad[k] > 0.0
        gfree = grad[:k] if frozen else grad
        small_grad = np.max(np.abs(gfree)) < gtol
        small_change = prev_ll is None or abs(ll - prev_ll) <= tol * (1.0 + abs(ll))
        if small_grad and small_change:
            converged = True
            break
        newton = not log_alpha or frozen or _is_pd(info)  # a Newton step on the free part
        if newton and not frozen:
            step = _solve(info, grad)
        else:
            s_move = 0.0 if frozen else 0.5 * np.sign(grad[k])
            step = np.append(_solve(info[:k, :k], grad[:k]), s_move)
        s_step = min(max(step[k], -5.0), 5.0) if log_alpha else 0.0
        t = 1.0
        cand, cand_ll = x, ll
        for _ in range(MAX_HALVINGS + 1):
            trial = x + t * step
            if log_alpha:
                trial[k] = min(max(x[k] + t * s_step, _S_LO), _S_HI)
            trial_ll = loglik(trial, d, w)
            if trial_ll >= ll:
                cand, cand_ll = trial, trial_ll
                break
            t *= 0.5
        if cand is x:
            # no ascent left at this precision: an optimum if the Newton
            # decrement, the gain the quadratic model predicts, is negligible
            decrement = 0.5 * float(gfree @ step[: gfree.size])
            converged = newton and decrement <= tol * (1.0 + abs(ll))
            break
        prev_ll = ll
        x, ll = cand, cand_ll
        iterations += 1
    else:
        info = derivs(x, d, w)[1]  # the cap ended the loop: x moved since the last check
    return x, ll, converged, iterations, info


def _se_from_info(info: np.ndarray) -> np.ndarray:
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return np.full(info.shape[0], np.nan)
    with np.errstate(invalid="ignore"):
        return np.sqrt(np.diag(cov))


def _init_beta(init, d: Dataset) -> np.ndarray:
    beta = np.asarray(init, dtype=float).copy()
    if beta.shape != (d.p + 1,):
        raise DimensionError("init beta has wrong length")
    return beta


def _poisson_start(d: Dataset, w: np.ndarray) -> np.ndarray:
    """Intercept at the log weighted mean of y, other coefficients zero."""
    wsum = w.sum()
    ybar = float(w @ d.y) / wsum if wsum > 0 else 1.0
    beta = np.zeros(d.p + 1)
    beta[0] = np.log(max(ybar, 1e-8))
    return beta


def fit_poisson(
    d: Dataset,
    w=None,
    init=None,
    tol: float = DEFAULT_TOL,
    gtol: float = DEFAULT_GTOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> GlmFit:
    """Maximum-likelihood Poisson regression by damped Newton (IRLS).

    Convergence requires both a relative log-likelihood change below
    ``tol`` and a gradient max-norm below ``gtol``, or a negligible Newton
    decrement once no step improves the log-likelihood.  Non-convergence
    returns the best iterate with ``converged=False`` rather than raising.
    """
    w = _weights(d, w)
    check_design_rank(d, w)
    beta = _init_beta(init, d) if init is not None else _poisson_start(d, w)
    beta, ll, converged, iterations, info = _newton(POISSON, beta, d, w, tol, gtol, max_iter)
    return GlmFit(
        family=POISSON,
        beta=beta,
        alpha=0.0,
        se=_se_from_info(info),
        logL=ll,
        converged=converged,
        iterations=iterations,
    )


def _alpha_moment_estimate(beta, d, w):
    mu = np.exp(d.X @ beta)
    num = _weighted_sum(w, (d.y - mu) ** 2 - d.y)
    den = _weighted_sum(w, mu**2)
    if den <= 0 or not np.isfinite(num):
        return 1.0
    return float(np.clip(num / den, 1e-4, ALPHA_MAX))


def fit_nb2(
    d: Dataset,
    w=None,
    init=None,
    tol: float = DEFAULT_TOL,
    gtol: float = DEFAULT_GTOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> GlmFit:
    """Maximum-likelihood NB-2 regression by damped Newton on (beta, log alpha).

    Every step solves with the analytic joint information, so beta and
    the dispersion move together; the stopping rule is
    :func:`fit_poisson`'s over both.  ``init`` may be a ``(beta, alpha)``
    pair for warm starts; a cold start takes beta from a Poisson fit and
    alpha from a moment estimate.  Alpha stays in [ALPHA_MIN, ALPHA_MAX];
    one that ends on a bound sets ``alpha_pinned`` instead of raising.
    ``se`` holds the beta part of the inverse joint information.
    """
    w = _weights(d, w)
    if d.n < d.p + 2:
        raise DimensionError(f"NB-2 needs n >= p + 2 ({d.n} < {d.p + 2})")
    check_design_rank(d, w)
    if init is not None:
        beta0, alpha0 = init
        beta = _init_beta(beta0, d)
        alpha = float(np.clip(alpha0, ALPHA_MIN, ALPHA_MAX))
    else:
        beta = _newton(POISSON, _poisson_start(d, w), d, w, tol, gtol, max_iter)[0]
        alpha = _alpha_moment_estimate(beta, d, w)
    x, ll, converged, iterations, info = _newton(
        NB2, np.append(beta, np.log(alpha)), d, w, tol, gtol, max_iter
    )
    alpha = float(np.exp(x[-1]))
    return GlmFit(
        family=NB2,
        beta=x[:-1],
        alpha=alpha,
        se=_se_from_info(info)[:-1],
        logL=ll,
        converged=converged,
        iterations=iterations,
        alpha_pinned=_alpha_side(alpha) != 0,
    )


def dispersion_stat(d: Dataset) -> float:
    """Unconditional variance-to-mean ratio of the outcome.

    A cheap pre-gate diagnostic: values well above 1 signal overdispersion.
    Returns +inf when the mean is 0.
    """
    if d.n < 2:
        raise DimensionError("dispersion_stat needs n >= 2")
    mean = float(d.y.mean())
    if mean == 0.0:
        return np.inf
    return float(d.y.var(ddof=1)) / mean
