"""Single-component Poisson and NB-2 regression with weighted Newton fitting.

Both families use the log link, mu = exp(X beta).  The NB-2 density adds a
dispersion alpha > 0 with variance mu * (1 + alpha * mu); alpha -> 0 recovers
the Poisson model.  One block kernel, for C parameter rows at once, is the
only place densities (``_density_rows``), log-likelihoods (``_loglik``),
per-row scores and information terms (``_row_derivs``) and their weighted
assembly into gradients and X' diag(w i) X (``_weighted_derivs``) are built.
The damped Newton driver ``_newton`` fits C weighted regressions of one
family on it, over beta for Poisson and (beta, log alpha) for NB-2, each
with its own step halving and stopping rule.  Every fit runs over a column
mask of the design: row c keeps the columns of ``d.X`` that its mask keeps,
and the full design is the all-ones mask.  The one-row likelihood
functions and :func:`fit_poisson` / :func:`fit_nb2` are blocks of one; the
EM M-step, the ICOMP information and the Wald SEs use the same kernel.

The module needs numpy alone.  The NB-2 terms log Gamma(y + theta) -
log Gamma(theta) and the digamma and trigamma differences at integer counts
are rising sums, exact over the first ``Y_TABLE`` terms and asymptotic
beyond (``_polygamma_ratio``).  The rank check screens a block of weighted
designs with one stacked eigenvalue call (``_rank_screen``); only the rows
it cannot clear are factored by a column-pivoted Householder QR
(``_check_rank``), which names the dependent columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# the dispersion search box on the s = log(alpha) scale
_S_LO, _S_HI = float(np.log(ALPHA_MIN)), float(np.log(ALPHA_MAX))
# floating-point warnings that the density and derivative formulas handle
_QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


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


def _beta(beta, d: Dataset) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (d.p + 1,):
        raise DimensionError(f"beta length {beta.size} does not match p+1={d.p + 1}")
    return beta


def _check_alpha(alpha) -> None:
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"dispersion alpha must be positive, got {alpha}")


def _log_density(family: str, eta, alpha, d: Dataset) -> np.ndarray:
    """Log-densities at linear predictors eta (n, or C x n for C fits).

    ``alpha`` is a scalar, or a (C, 1) column for a block; Poisson ignores
    it.  Callers run it under ``np.errstate(**_QUIET)``: overflow to inf
    and the divisions in the NB-2 ratio are handled by the formulas.
    """
    mu = np.exp(eta)
    if family == POISSON:
        return d.y * eta - mu - d.log_y_factorial
    theta = 1.0 / alpha
    amu = alpha * mu
    log1p_amu = np.log1p(amu)
    # y * log(amu / (1 + amu)), written to stay finite as amu -> 0 or inf
    ratio = np.where(amu > 1.0, -np.log1p(1.0 / amu), np.log(amu) - log1p_amu)
    ylog = np.where(d.y > 0, d.y * ratio, 0.0)
    return _polygamma_ratio(d.y, theta, -1) + ylog - theta * log1p_amu - d.log_y_factorial


# Rising sums sum_{j<y} term(theta + j) take their first Y_TABLE terms from
# a cumulative-sum table; the rest come from the asymptotic series of F.
# Any value >= 16 keeps the series' arguments at 16 or more, where Bernoulli
# terms through B14 reach full precision.  256 was the fastest of 16, 64,
# 128, 256, 512 and 1024 on blocks of 2 to 256 rows with counts up to ~5000
# (2-core x86-64 host, numpy 2.4): a table that covers every count makes no
# series call, and the series has a fixed cost of some 20 numpy calls
Y_TABLE = 256
# the Bernoulli numbers B_2 .. B_14
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
# the coefficients of Stirling's series for log Gamma (A&S 6.1.40) and of
# the series for digamma (6.3.18) and trigamma (6.4.12), in powers of 1/z^2
_LGAMMA_SERIES = tuple(b / ((2 * k + 2) * (2 * k + 1)) for k, b in enumerate(_BERNOULLI))
_DIGAMMA_SERIES = tuple(b / (2 * k + 2) for k, b in enumerate(_BERNOULLI))
# the term of the rising sum F(y + theta) - F(theta) = sum_{j<y} term(theta + j)
# of log Gamma (A&S 6.1.15), digamma (6.3.6) and trigamma (6.4.6)
_RISING_TERM = {-1: np.log, 0: lambda z: 1.0 / z, 1: lambda z: -1.0 / (z * z)}


def _horner(coefs, u: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] * u**k, for at least two coefficients."""
    out = u * coefs[-1]
    out += coefs[-2]
    for c in coefs[-3::-1]:
        out *= u
        out += c
    return out


def _asymptotic_difference(order: int, a: np.ndarray, h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F(b) - F(a) for b = a + h, h > 0, from the asymptotic series of F.

    ``a`` is a (C, 1) column, ``h`` holds m steps and ``b`` is (C, m);
    all arguments are at least 16, where the series through B14 is exact
    to rounding.  The leading terms are written in log1p(h / a) and
    h / (a b) form, so the difference does not cancel when h << a; the
    Bernoulli sums are evaluated at a and b in one pass.
    """
    inv = 1.0 / np.concatenate([a, b], axis=1)
    u = inv * inv
    if order == -1:  # (z - 1/2) log z - z + sum_k c_k z^(1-2k)
        sums = _horner(_LGAMMA_SERIES, u) * inv
    elif order == 0:  # log z - 1/(2z) - sum_k c_k z^(-2k)
        sums = _horner(_DIGAMMA_SERIES, u) * u
    else:  # 1/z + 1/(2 z^2) + sum_k B_2k z^(-2k-1)
        sums = _horner(_BERNOULLI, u) * (u * inv)
    series = sums[:, 1:] - sums[:, :1]
    ia, ib = inv[:, :1], inv[:, 1:]
    if order == -1:
        return (a - 0.5) * np.log1p(h * ia) + h * (np.log(b) - 1.0) + series
    if order == 0:
        return np.log1p(h * ia) + 0.5 * h * ia * ib - series
    return series - h * ia * ib * (1.0 + 0.5 * (ia + ib))


def _polygamma_ratio(y: np.ndarray, theta, order: int) -> np.ndarray:
    """F(y + theta) - F(theta) for integer counts y >= 0.

    F is log Gamma for ``order=-1``, digamma for 0 and trigamma for 1.
    ``theta`` is a scalar, or a (C, 1) column giving a (C, n) result.  The
    first min(y, Y_TABLE) terms of the rising sum come from one cumulative
    sum per theta; a count above Y_TABLE adds the asymptotic difference
    from theta + Y_TABLE to theta + y.  The result is exactly 0 at y = 0.
    """
    y = np.asarray(y, dtype=np.int64)
    col = np.reshape(theta, (-1, 1)).astype(float)
    top = min(int(y.max()) if y.size else 0, Y_TABLE)
    steps = np.zeros((col.shape[0], top + 1))
    np.cumsum(_RISING_TERM[order](col + np.arange(top, dtype=float)), axis=1, out=steps[:, 1:])
    out = steps[:, np.minimum(y, Y_TABLE)]
    far = np.flatnonzero(y > Y_TABLE)
    if far.size:
        yf = y[far]
        out[:, far] += _asymptotic_difference(order, col + Y_TABLE, (yf - Y_TABLE).astype(float), col + yf)
    return out if np.ndim(theta) else out.reshape(y.shape)


def _density_rows(family: str, beta: np.ndarray, alpha, d: Dataset):
    """Log-densities of C parameter rows at once, as a (C, n) array.

    ``beta`` is (C, k) and ``alpha`` a (C, 1) column (ignored for
    Poisson).  Also returns a (C,) flag of the rows whose linear predictor
    is not finite or whose NB-2 density is NaN; :func:`_overflow_error`
    words the error of such a row.  Callers run it under
    ``np.errstate(**_QUIET)``.
    """
    eta = beta @ d.X.T
    out = _log_density(family, eta, alpha, d)
    bad = ~np.isfinite(eta).all(axis=1)
    if family == NB2:
        bad |= np.isnan(out).any(axis=1)
    return out, bad


def _overflow_error(family: str, beta, alpha, d: Dataset, c: int) -> NumericOverflowError:
    """The error of row c of a block that :func:`_density_rows` flags.

    It evaluates that row as a block of one and names the first data row
    whose linear predictor is not finite or, if there is none, the first
    whose NB-2 density is NaN.
    """
    alpha = None if alpha is None else alpha[c:c + 1]
    with np.errstate(**_QUIET):
        eta = beta[c:c + 1] @ d.X.T
        out = _log_density(family, eta, alpha, d)
    for what, bad in (("linear predictor", ~np.isfinite(eta)), ("NB-2 log-density", np.isnan(out))):
        if bad.any():
            row = int(np.flatnonzero(bad[0])[0])
            return NumericOverflowError(f"non-finite {what} at row {row}", row=row)
    return NumericOverflowError("non-finite log-density")


def _weighted_total(W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row sums of W * out; entries of weight 0 add 0, also where out is -inf."""
    return np.multiply(W, out, out=np.zeros_like(out), where=W > 0.0).sum(axis=1)


def _loglik(family: str, x: np.ndarray, d: Dataset, W: np.ndarray) -> np.ndarray:
    """Weighted log-likelihoods of C parameter rows (NB-2 rows end in log alpha).

    ``W`` is a (C, n) block of pre-validated weights.  A row whose
    density overflows scores -inf.  Runs under :func:`_newton`'s
    ``np.errstate(**_QUIET)``, as does :func:`_derivs`.
    """
    k = d.X.shape[1]
    alpha = np.exp(x[:, k:]) if family == NB2 else None
    out, bad = _density_rows(family, x[:, :k], alpha, d)
    ll = _weighted_total(W, out)
    ll[bad] = -np.inf
    return ll


def _row_derivs(family: str, beta: np.ndarray, alpha, d: Dataset):
    """Per-row derivatives of C log-densities in eta = x'beta and s = log(alpha).

    ``beta`` is (C, k) and ``alpha`` a (C, 1) column (ignored for
    Poisson); every term is (C, n).  Returns ``(u, i_ee, v, i_es, i_ss)``:
    the eta score u, the eta-eta information weight i_ee and, for NB-2,
    the s score v and the eta-s and s-s information terms (information is
    minus the second derivative).  The three s terms are None for Poisson.
    With mu = exp(eta), theta = 1/alpha, L = log1p(alpha mu) and D, T the
    digamma and trigamma ratios: v = theta (L - D) + u and
    i_ss = theta (L - D) - mu / (1 + alpha mu) - theta^2 T + i_es.
    """
    y = d.y
    mu = np.exp(beta @ d.X.T)
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


def _weighted_derivs(d: Dataset, W: np.ndarray, rows):
    """Gradients (C, m) and information matrices (C, m, m) from :func:`_row_derivs` terms.

    ``W`` is the (C, n) block of weights; m is k for Poisson and k + 1
    for NB-2, whose last coordinate is s = log(alpha).  The beta-beta
    blocks X' diag(w_c i_c) X of all rows are one (C, n) @ (n, k*k)
    product with the dataset's cached column products, which makes no
    (C, n, k) temporary.
    """
    u, i_ee, v, i_es, i_ss = rows
    on = W > 0.0

    def weighted(r):  # 0 where the weight is 0, also where r is not finite
        return np.where(on, W * r, 0.0)

    grad = weighted(u) @ d.X
    C, k = grad.shape
    beta_info = (weighted(i_ee) @ d.column_products).reshape(C, k, k)
    if v is None:
        return grad, beta_info
    info = np.empty((C, k + 1, k + 1))
    info[:, :k, :k] = beta_info
    info[:, :k, k] = info[:, k, :k] = weighted(i_es) @ d.X
    info[:, k, k] = weighted(i_ss).sum(axis=1)
    return np.column_stack([grad, weighted(v).sum(axis=1)]), info


def _derivs(family: str, x: np.ndarray, d: Dataset, W: np.ndarray):
    """Gradients and information matrices of C weighted log-likelihoods over all of ``d.X``.

    Each row of ``x`` is beta, then s = log(alpha) for NB-2.
    :func:`_newton` restricts them to each row's column mask.
    """
    k = d.X.shape[1]
    alpha = np.exp(x[:, k:]) if family == NB2 else None
    return _weighted_derivs(d, W, _row_derivs(family, x[:, :k], alpha, d))


def _one_row(family: str, beta, alpha, d: Dataset, w):
    """The arguments of the one-row functions as a validated block of one.

    Returns the (1, k) beta row, the (1, 1) alpha column (None for
    Poisson), the (1, n) weights and the (1, n) log-densities.  A flagged
    density raises its :class:`NumericOverflowError`.
    """
    W = _weights(d, w)[None]
    beta = _beta(beta, d)[None]
    if family == NB2:
        _check_alpha(alpha)
        alpha = np.array([[alpha]], dtype=float)
    with np.errstate(**_QUIET):
        out, bad = _density_rows(family, beta, alpha, d)
    if bad[0]:
        raise _overflow_error(family, beta, alpha, d, 0)
    return beta, alpha, W, out


def _one_row_grad(family: str, beta, alpha, d: Dataset, w) -> np.ndarray:
    beta, alpha, W, _ = _one_row(family, beta, alpha, d, w)
    with np.errstate(**_QUIET):
        rows = _row_derivs(family, beta, alpha, d)
        return _weighted_derivs(d, W, rows)[0][0]


def poisson_loglik(beta, d: Dataset, w=None) -> float:
    """Weighted Poisson log-likelihood sum_i w_i [y_i eta_i - exp(eta_i) - log y_i!]."""
    W, out = _one_row(POISSON, beta, None, d, w)[2:]
    return float(_weighted_total(W, out)[0])


def poisson_loglik_grad(beta, d: Dataset, w=None) -> np.ndarray:
    """Analytic gradient of :func:`poisson_loglik` with respect to beta."""
    return _one_row_grad(POISSON, beta, None, d, w)


def nb2_loglik(beta, alpha: float, d: Dataset, w=None) -> float:
    """Weighted NB-2 log-likelihood at (beta, alpha)."""
    W, out = _one_row(NB2, beta, alpha, d, w)[2:]
    return float(_weighted_total(W, out)[0])


def nb2_loglik_grad(beta, alpha: float, d: Dataset, w=None) -> np.ndarray:
    """Analytic gradient of :func:`nb2_loglik` over (beta, alpha), alpha last."""
    grad = _one_row_grad(NB2, beta, alpha, d, w)
    grad[-1] /= alpha  # d/d alpha = (d/ds) / alpha
    return grad


def check_design_rank(d: Dataset, w=None) -> None:
    """Raise :class:`SingularDesignError` if sqrt(w) X is rank deficient.

    Rows with weight below ``WEIGHT_FLOOR`` are excluded. The error names
    the columns that a pivoted QR identifies as linearly dependent.  The
    intercept is always the first pivot: the other columns are taken
    orthogonal to it and factored by a column-pivoted Householder QR.  So
    a constant covariate is the column named, never the intercept.
    """
    _check_rank(d, _weights(d, w), np.arange(d.p + 1))


def _pivoted_qr_diagonal(A: np.ndarray):
    """|r_jj| and the column order of a column-pivoted Householder QR of A.

    A is (m, k) with m >= k.  Each step takes the remaining column of
    largest norm, the first of equal ones, as LAPACK ``dgeqp3`` does; the
    norms are recomputed at each step rather than downdated.
    """
    A = np.array(A, dtype=float)  # a copy: the reflections work in place
    k = A.shape[1]
    order = np.arange(k)
    diag = np.zeros(k)
    for j in range(k):
        norms = np.linalg.norm(A[j:, j:], axis=0)
        p = j + int(np.argmax(norms))
        A[:, [j, p]] = A[:, [p, j]]
        order[[j, p]] = order[[p, j]]
        diag[j] = norms[p - j]
        if diag[j] == 0.0:
            break  # the columns left are zero
        v = A[j:, j].copy()
        v[0] += math.copysign(diag[j], v[0])
        v /= np.linalg.norm(v)
        A[j:, j + 1:] -= np.outer(2.0 * v, v @ A[j:, j + 1:])
    return diag, order


def _check_rank(d: Dataset, w: np.ndarray, cols: np.ndarray) -> None:
    """:func:`check_design_rank` for pre-validated weights.

    ``cols`` picks the columns of ``d.X`` (0 first) that make the design,
    as ``apply_mask`` would, without building that Dataset.
    """
    X = d.X[:, cols]
    active = w >= WEIGHT_FLOOR
    k = X.shape[1]
    n_active = int(np.count_nonzero(active))
    if n_active < k:
        raise SingularDesignError(f"only {n_active} effectively weighted rows for {k} coefficients")
    if k == 1:
        return  # sqrt(w) alone has rank 1
    if n_active == w.size:
        a0, XT = np.sqrt(w), X.T
    else:
        a0, XT = np.sqrt(w[active]), X[active].T
    # the columns of sqrt(w) X as contiguous rows; row 0 is sqrt(w)
    AT = np.multiply(XT, a0, order="C")
    gram = AT @ AT.T
    s00 = float(gram[0, 0])
    r00 = np.sqrt(s00)
    # the covariate columns orthogonal to sqrt(w)
    diag, order = _pivoted_qr_diagonal((AT[1:] - (gram[0, 1:] / s00)[:, None] * a0).T)
    # scaled by the largest column norm of sqrt(w) X before centring (the
    # first pivot of a plain pivoted QR), so that the rounding left in a
    # centred constant column stays below it at any scale of the constant
    tol = np.sqrt(gram.diagonal().max()) * max(n_active, k) * np.finfo(float).eps
    if r00 > tol and diag.min() > tol:
        return
    # order counts the columns after the intercept, so order + 1 indexes X
    dep = ([0] if r00 <= tol else []) + sorted(int(j) + 1 for j in order[diag <= tol])
    dep = [int(cols[j]) for j in dep]
    labels = tuple("intercept" if j == 0 else d.names[j - 1] for j in dep)
    raise SingularDesignError(
        f"design is rank deficient; dependent column(s): {', '.join(labels)}",
        columns=labels,
    )


def _rank_screen(d: Dataset, W: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """(C,) flags of the rows of the weight block W that pass :func:`_check_rank`.

    ``keep`` is the (C, k) block of the columns of ``d.X`` that each
    row's design keeps.  A flagged row is proven full rank; an
    unflagged one may be either, and only the exact check can tell.  With
    G the weighted Gram matrix of a row's active rows and kept columns,
    and S its Schur complement on the intercept (the Gram matrix of the
    covariate columns taken orthogonal to sqrt(w)), every |r_jj| of any
    QR of those columns is at least sigma_min = sqrt(lambda_min(S))
    (Businger & Golub 1965).  So a row passes when both G_00 and
    lambda_min(S) exceed tol^2 + margin, with ``_check_rank``'s tol.  All
    rows take one (C, n) @ (n, k^2) product and one stacked ``eigvalsh``.

    The margin bounds the rounding on both sides, with n = n_active, for
    (n k)^2 eps << 1.  Each entry of G errs by at most (n + 2) eps
    |a_i| |a_j|, for the weighted columns a_i, and so S, formed from it,
    by at most 4 (n + 3) eps |a_i| |a_j|, which is 4 (n + 3) eps tr(G)
    in norm.  ``eigvalsh`` is backward stable: it moves lambda_min by at
    most about 8k eps ||S|| <= 8k eps tr(G).  The exact check's QR is
    the exact QR of columns within O(n k eps) sqrt(tr(G)) of the centred
    ones; against the squared bound that costs O((n k eps)^2) tr(G),
    below eps tr(G).  The sum is under (4n + 8k + 13) eps tr(G), and the
    margin 8 (n + 2k) eps tr(G) exceeds it for k >= 2.
    """
    C, k_all = W.shape[0], d.X.shape[1]
    active = W >= WEIGHT_FLOOR
    n_active = np.count_nonzero(active, axis=1)
    k = keep.sum(axis=1)
    enough = n_active >= k
    passed = enough & (k == 1)  # sqrt(w) alone has rank 1
    todo = np.flatnonzero(enough & (k > 1))
    if not todo.size:
        return passed
    with np.errstate(**_QUIET):
        gram = (np.where(active[todo], W[todo], 0.0) @ d.column_products).reshape(-1, k_all, k_all)
        kt = keep[todo]
        gram = np.where(kt[:, :, None] & kt[:, None, :], gram, 0.0)
        diag = np.diagonal(gram, axis1=1, axis2=2)
        trace = diag.sum(axis=1)
        g = gram[:, 0, 1:]
        schur = gram[:, 1:, 1:] - g[:, :, None] * (g / gram[:, :1, 0])[:, None, :]
        # a dropped column adds an eigenvalue tr(G), above the bound
        on = schur.reshape(todo.size, -1)[:, ::k_all]  # a view of each diagonal
        on[...] = np.where(kt[:, 1:], on, trace[:, None])
        nt, kk = n_active[todo], k[todo]
        eps = np.finfo(float).eps
        bound = diag.max(axis=1) * (np.maximum(nt, kk) * eps) ** 2 + 8.0 * (nt + 2 * kk) * eps * trace
        lam = np.full(todo.size, -np.inf)
        finite = np.isfinite(schur).all(axis=(1, 2))
        if finite.any():
            lam[finite] = np.linalg.eigvalsh(schur[finite])[:, 0]
        passed[todo] = (gram[:, 0, 0] > bound) & (lam > bound)
    return passed


def _rank_errors(d: Dataset, W: np.ndarray, keep: np.ndarray) -> list:
    """Per row of the (C, n) weight block W, the error :func:`_check_rank` raises, or None.

    ``keep`` is :func:`_rank_screen`'s column mask.  Only the rows the
    screen does not pass are factored, one by one.
    """
    errors = [None] * len(W)
    for c in np.flatnonzero(~_rank_screen(d, W, keep)):
        try:
            _check_rank(d, W[c], np.flatnonzero(keep[c]))
        except SingularDesignError as exc:
            errors[c] = exc
    return errors


def _alpha_side(alpha):
    """-1 on the lower dispersion bound, +1 on the upper, 0 strictly inside."""
    return np.where(
        alpha <= ALPHA_MIN * (1.0 + 1e-9), -1, np.where(alpha >= ALPHA_MAX * (1.0 - 1e-9), 1, 0)
    )


def _solve1(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def _solve(a, b):
    """Solve a stack of systems a x = b; a singular one falls back to least squares."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.array([_solve1(ai, bi) for ai, bi in zip(a, b)]).reshape(b.shape)


def _is_pd(a) -> np.ndarray:
    """Positive definiteness of each matrix of a stack.

    One stacked Cholesky; only if it raises is each matrix tried alone.
    """
    try:
        np.linalg.cholesky(a)
        return np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.ones(len(a), dtype=bool)
    for i, ai in enumerate(a):
        try:
            np.linalg.cholesky(ai)
        except np.linalg.LinAlgError:
            out[i] = False
    return out


def _newton(family, x, d, W, max_iter, keep):
    """Damped Newton ascent on C weighted log-likelihoods of one family at once.

    Row c of ``x`` (C, m) is fitted to weight row c of ``W`` (C, n): beta
    for Poisson, (beta, s) with s = log(alpha) last for NB-2, on the
    columns of ``d.X`` that row c of the (C, k) boolean mask ``keep``
    keeps.  A dropped column gets zero gradient and a unit row and column
    in the information, so its coefficient stays at its starting value,
    which callers set to 0, and ``beta @ d.X.T`` stays the masked design's
    linear predictor.  Every row follows its own course, as if fitted
    alone: its own step halving, dispersion freeze, fallback step and
    stopping test.  s stays in
    [log ALPHA_MIN, log ALPHA_MAX] and is frozen while its gradient points
    out of that box; its step is clipped to +-5, and where the joint
    information is not positive definite s takes a bounded uphill step of
    0.5 beside beta's own Newton step.  Every step is halved until the
    log-likelihood does not decrease.  Convergence needs a gradient
    max-norm below ``DEFAULT_GTOL`` over the free coordinates and a
    relative logL change below ``DEFAULT_TOL``; a fit whose step no longer
    improves logL has converged if its Newton decrement g' I^-1 g / 2 is at
    most ``DEFAULT_TOL * (1 + |logL|)``.  A row leaves the block when it
    converges or stalls; the rows still moving after ``max_iter`` steps
    stop there.  Returns per row (x, logL, converged, iterations); a row's
    iterations are the steps it took, which is the outer iteration at
    which it left the block.
    """
    with np.errstate(**_QUIET):  # overflow to inf is scored, not warned
        x = np.array(x, dtype=float)
        C, m = x.shape
        nb2 = family == NB2
        k = m - 1 if nb2 else m  # beta coordinates
        ll = _loglik(family, x, d, W)
        # built once per block: each row's mask over its m coordinates (s is
        # always kept) and over its information
        eye = np.eye(m)
        wide = np.ones((C, m), dtype=bool)
        wide[:, :k] = keep
        both = wide[:, :, None] & wide[:, None, :]
        # x, W, ll and the masks hold the rows still in the block; a row's
        # results are written out when it leaves, at the positions in ``live``
        live, prev_ll = np.arange(C), None
        out_x, out_ll = np.empty((C, m)), np.empty(C)
        converged = np.zeros(C, dtype=bool)
        iterations = np.zeros(C, dtype=np.int64)

        def leave(rows, ok, it):
            at = live[rows]
            out_x[at], out_ll[at] = x[rows], ll[rows]
            converged[at], iterations[at] = ok, it

        for it in range(max_iter):
            grad, inf = _derivs(family, x, d, W)
            grad, inf = np.where(wide, grad, 0.0), np.where(both, inf, eye)
            gfree, frozen = grad, None
            if nb2:
                frozen = _alpha_side(np.exp(x[:, k])) * grad[:, k] > 0.0
                gfree = grad.copy()
                gfree[frozen, k] = 0.0
            done = np.abs(gfree).max(axis=1) < DEFAULT_GTOL
            if it and done.any():
                done &= np.abs(ll - prev_ll) <= DEFAULT_TOL * (1.0 + np.abs(ll))
            if done.any():
                leave(done, True, it)
                go = ~done
                live, x, W, ll = live[go], x[go], W[go], ll[go]
                grad, inf, gfree = grad[go], inf[go], gfree[go]
                frozen = None if frozen is None else frozen[go]
                wide, both = wide[go], both[go]
                if not live.size:
                    break
            # a Newton step on the free part, or beta's step beside a bounded s move
            if nb2:
                newton = frozen | _is_pd(inf)
                full = newton & ~frozen
            if not nb2 or full.all():
                step = _solve(inf, grad)
            else:
                step = np.empty_like(x)
                if full.any():
                    step[full] = _solve(inf[full], grad[full])
                part = ~full
                step[part, :k] = _solve(inf[part][:, :k, :k], grad[part, :k])
                step[part, k] = np.where(frozen[part], 0.0, 0.5 * np.sign(grad[part, k]))
            step = np.where(wide, step, 0.0)  # exactly 0, whichever solver ran
            if nb2:
                s_step = np.clip(step[:, k], -5.0, 5.0)
            # halve each row's step until its logL does not decrease.  The
            # full steps are the first candidates for the new block; pos holds
            # the rows still searching, xs..ls their slices of the block, and
            # each later pass writes the rows it accepts.  A row that accepts
            # no step leaves the block.
            new_x = new_ll = None
            pos, xs, ss, Ws, ls = np.arange(live.size), x, step, W, ll
            t = 1.0
            for _ in range(MAX_HALVINGS + 1):
                trial = xs + t * ss
                if nb2:
                    trial[:, k] = np.clip(xs[:, k] + t * s_step[pos], _S_LO, _S_HI)
                trial_ll = _loglik(family, trial, d, Ws)
                up = trial_ll >= ls
                if new_x is None:
                    new_x, new_ll = trial, trial_ll
                elif up.any():
                    new_x[pos[up]], new_ll[pos[up]] = trial[up], trial_ll[up]
                if up.all():
                    break
                if up.any():  # near a stall most passes accept no row
                    no = ~up
                    pos, xs, ss, Ws, ls = pos[no], xs[no], ss[no], Ws[no], ls[no]
                t *= 0.5
            else:
                # no ascent left at this precision: an optimum if the Newton
                # decrement, the gain the quadratic model predicts, is negligible
                decrement = 0.5 * np.einsum("ij,ij->i", gfree[pos], step[pos])
                ok = decrement <= DEFAULT_TOL * (1.0 + np.abs(ls))
                leave(pos, ok & newton[pos] if nb2 else ok, it)
                go = np.ones(live.size, dtype=bool)
                go[pos] = False
                live, W, ll, new_x, new_ll = live[go], W[go], ll[go], new_x[go], new_ll[go]
                wide, both = wide[go], both[go]
                if not live.size:
                    break
            x, ll, prev_ll = new_x, new_ll, ll
        else:
            leave(slice(None), False, max_iter)  # stopped by the cap
        return out_x, out_ll, converged, iterations


def _se_from_info(info: np.ndarray) -> np.ndarray:
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return np.full(info.shape[0], np.nan)
    with np.errstate(invalid="ignore"):
        return np.sqrt(np.diag(cov))


def _poisson_start(d: Dataset, W: np.ndarray) -> np.ndarray:
    """Per weight row: intercept at the log weighted mean of y, other coefficients zero."""
    wsum = W.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ybar = np.where(wsum > 0, (W @ d.y) / wsum, 1.0)
    beta = np.zeros((W.shape[0], d.p + 1))
    beta[:, 0] = np.log(np.maximum(ybar, 1e-8))
    return beta


def _alpha_moment_estimate(beta, d, W):
    """Per weight row: the moment estimate of alpha at beta, in [1e-4, ALPHA_MAX]."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mu = np.exp(beta @ d.X.T)
        num = np.where(W > 0.0, W * ((d.y - mu) ** 2 - d.y), 0.0).sum(axis=1)
        den = np.where(W > 0.0, W * mu**2, 0.0).sum(axis=1)
        ok = (den > 0) & np.isfinite(num)
        return np.where(ok, np.clip(num / den, 1e-4, ALPHA_MAX), 1.0)


def _fit_block(family, d, W, init, max_iter, keep):
    """Fit C weighted regressions of one family in one :func:`_newton` block.

    ``W`` is a (C, n) block of validated weights; ``init`` holds (C, m)
    starting rows in the driver's layout, or is None for cold starts (for
    NB-2, a Poisson block fit and a moment estimate of alpha).  ``keep``
    is :func:`_newton`'s (C, k) column mask; a cold start and a warm start
    from a masked fit hold 0 at every dropped column.
    """
    if init is None:
        init = _poisson_start(d, W)
        if family == NB2:
            beta = _newton(POISSON, init, d, W, max_iter, keep)[0]
            init = np.column_stack([beta, np.log(_alpha_moment_estimate(beta, d, W))])
    return _newton(family, init, d, W, max_iter, keep)


def _fit_one(family, d, w, init) -> GlmFit:
    """:func:`fit_poisson` or :func:`fit_nb2` as a :func:`_fit_block` of one, on the all-ones mask.

    The standard errors come from the information at the returned x.
    """
    w = _weights(d, w)
    nb2 = family == NB2
    if nb2 and d.n < d.p + 2:
        raise DimensionError(f"NB-2 needs n >= p + 2 ({d.n} < {d.p + 2})")
    W, keep = w[None], np.ones((1, d.p + 1), dtype=bool)  # a block of one, on the full design
    error = _rank_errors(d, W, keep)[0]
    if error is not None:
        raise error
    if init is not None:  # to the driver's layout: beta, then log alpha for NB-2
        if nb2:
            beta0, alpha0 = init
            init = np.append(_beta(beta0, d), np.log(np.clip(alpha0, ALPHA_MIN, ALPHA_MAX)))
        else:
            init = _beta(init, d)
        init = init[None]
    x, ll, converged, iterations = _fit_block(family, d, W, init, DEFAULT_MAX_ITER, keep)
    with np.errstate(**_QUIET):
        info = _derivs(family, x, d, W)[1]
    k = d.p + 1
    alpha = float(np.exp(x[0, k])) if nb2 else 0.0
    return GlmFit(
        family=family,
        beta=x[0, :k],
        alpha=alpha,
        se=_se_from_info(info[0])[:k],
        logL=float(ll[0]),
        converged=bool(converged[0]),
        iterations=int(iterations[0]),
        alpha_pinned=nb2 and bool(_alpha_side(alpha) != 0),
    )


def fit_poisson(d: Dataset, w=None, init=None) -> GlmFit:
    """Maximum-likelihood Poisson regression by damped Newton (IRLS).

    Convergence requires both a relative log-likelihood change of at most
    ``DEFAULT_TOL`` (1e-8) and a gradient max-norm below ``DEFAULT_GTOL``
    (1e-6) within ``DEFAULT_MAX_ITER`` (100) Newton steps, or a negligible
    Newton decrement once no step improves the log-likelihood.
    Non-convergence returns the last iterate with ``converged=False``
    rather than raising; its ``se`` belong to that iterate.
    """
    return _fit_one(POISSON, d, w, init)


def fit_nb2(d: Dataset, w=None, init=None) -> GlmFit:
    """Maximum-likelihood NB-2 regression by damped Newton on (beta, log alpha).

    Every step solves with the analytic joint information, so beta and
    the dispersion move together; the stopping rule is
    :func:`fit_poisson`'s over both.  ``init`` may be a ``(beta, alpha)``
    pair for warm starts; a cold start takes beta from a Poisson fit and
    alpha from a moment estimate.  Alpha stays in [ALPHA_MIN, ALPHA_MAX];
    one that ends on a bound sets ``alpha_pinned`` instead of raising.
    ``se`` holds the beta part of the inverse joint information.
    """
    return _fit_one(NB2, d, w, init)


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
