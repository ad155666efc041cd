"""EM fitting of finite mixtures of Poisson / NB-2 regressions.

The reported log-likelihood is always the observed-data mixture
log-likelihood sum_i log sum_g pi_g f_g(y_i | x_i), evaluated through
log-sum-exp; the complete-data form appears only implicitly inside EM.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from . import countglm
from .countglm import NB2, POISSON, validate_family
from .data import Dataset
from .errors import (
    ComponentCollapseError,
    DimensionError,
    DomainError,
    SingularDesignError,
)

DEFAULT_RESTARTS = 5
DEFAULT_EM_TOL = 1e-8
DEFAULT_EM_MAX_ITER = 500
INIT_EM_ITER = 50
# Newton-step cap of each inner fit in the M-step (for NB-2, joint steps in
# beta and log alpha): warm-started refits converge in a couple of steps near
# the EM fixed point, so this only bounds the cost of early, still-moving
# iterations (each accepted step already improves the weighted likelihood, so
# EM monotonicity is unaffected)
M_STEP_FIT_MAX_ITER = 15


@dataclass(frozen=True)
class ComponentParams:
    """One mixture component: weight, regression coefficients, dispersion."""

    pi: float
    beta: np.ndarray
    alpha: float = 0.0


@dataclass(frozen=True)
class MixtureModel:
    """A fitted G-component mixture.

    ``loglik_trace`` holds the observed-data log-likelihood after every
    M-step of the winning restart, so EM monotonicity can be audited.
    ``warnings`` carries collapse / reduction diagnostics.
    """

    family: str
    components: tuple[ComponentParams, ...]
    logL: float
    responsibilities: np.ndarray
    converged: bool
    iterations: int
    loglik_trace: np.ndarray
    warnings: tuple[str, ...] = ()

    @property
    def G(self) -> int:
        return len(self.components)


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _check_components(components, d: Dataset):
    if not components:
        raise DomainError("mixture needs at least one component")
    pis = np.array([c.pi for c in components], dtype=float)
    if np.any(pis <= 0.0):
        raise DomainError("all mixture weights must be positive")
    if abs(pis.sum() - 1.0) > 1e-8:
        raise DomainError(f"mixture weights sum to {pis.sum()}, expected 1")
    for c in components:
        if np.asarray(c.beta).shape != (d.p + 1,):
            raise DimensionError("component beta length does not match dataset")
    return pis


def log_density_matrix(components, d: Dataset, family: str) -> np.ndarray:
    """n x G matrix of per-component log-densities log f_g(y_i | x_i)."""
    validate_family(family)
    cols = []
    for c in components:
        if family == POISSON:
            cols.append(countglm.poisson_logpmf(c.beta, d))
        else:
            cols.append(countglm.nb2_logpmf(c.beta, c.alpha, d))
    return np.column_stack(cols)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise log sum_j exp(a_ij) for a 2-D float array.

    Follows scipy.special.logsumexp (scipy >= 1.15) step for step, so the
    values match it, at a fraction of its per-call overhead: the row
    maximum's m ties are taken out of the shifted sum s, the result is
    log1p(s / m) + log(m) + max, and rows where that is not finite (all
    -inf, or a +inf entry) fall back to log(sum(exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        amax = a.max(axis=1, keepdims=True)
        at_max = a == amax
        m = at_max.sum(axis=1, keepdims=True, dtype=a.dtype)
        s = np.exp(np.where(at_max, -np.inf, a) - amax).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + amax)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def _posterior(logf: np.ndarray, pis: np.ndarray, warn: bool = True):
    """Row normalizers log sum_g pi_g f_ig and responsibilities r_ig.

    One log-sum-exp gives both the observed-data log-likelihood (the sum
    of the normalizers) and the posterior.  Rows whose density underflows
    in every component get uniform responsibilities and, with ``warn``,
    a RuntimeWarning.
    """
    logw = logf + np.log(pis)
    norm = _logsumexp_rows(logw)
    degenerate = ~np.isfinite(norm)
    with np.errstate(invalid="ignore"):
        resp = np.exp(logw - norm[:, None])
    if degenerate.any():
        if warn:
            warnings.warn(
                f"{int(degenerate.sum())} row(s) had zero density under every "
                "component; assigning uniform responsibilities",
                RuntimeWarning,
                stacklevel=3,
            )
        resp[degenerate] = 1.0 / logf.shape[1]
    return norm, resp


def mixture_loglik(components, d: Dataset, family: str) -> float:
    """Observed-data log-likelihood sum_i log sum_g pi_g f_g(y_i | x_i)."""
    pis = _check_components(components, d)
    norm, _ = _posterior(log_density_matrix(components, d, family), pis, warn=False)
    return float(norm.sum())


def e_step(components, d: Dataset, family: str) -> np.ndarray:
    """Posterior responsibilities r_ig, computed in log space.

    Rows whose density underflows in every component get uniform
    responsibilities and a RuntimeWarning.
    """
    pis = _check_components(components, d)
    return _posterior(log_density_matrix(components, d, family), pis)[1]


def m_step(resp: np.ndarray, d: Dataset, family: str, prev=None):
    """Weighted refits given responsibilities; returns new components.

    A component whose effective sample sum_i r_ig falls below p+2 raises
    :class:`ComponentCollapseError` (caught and handled by :func:`em_fit`).
    """
    validate_family(family)
    resp = np.asarray(resp, dtype=float)
    if resp.ndim != 2 or resp.shape[0] != d.n:
        raise DimensionError("responsibility matrix shape does not match dataset")
    row_sums = resp.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-8:
        raise DomainError("responsibility rows must sum to 1")
    G = resp.shape[1]
    pis = resp.mean(axis=0)
    pis = pis / pis.sum()
    comps = []
    for g in range(G):
        w = resp[:, g]
        if w.sum() < d.p + 2:
            raise ComponentCollapseError(
                f"component {g}: effective sample {w.sum():.3f} < p+2={d.p + 2}"
            )
        if family == POISSON:
            init = prev[g].beta if prev is not None else None
            fit = countglm.fit_poisson(d, w=w, init=init, max_iter=M_STEP_FIT_MAX_ITER)
            comps.append(ComponentParams(pi=float(pis[g]), beta=fit.beta, alpha=0.0))
        else:
            init = (prev[g].beta, prev[g].alpha) if prev is not None else None
            fit = countglm.fit_nb2(d, w=w, init=init, max_iter=M_STEP_FIT_MAX_ITER)
            comps.append(
                ComponentParams(pi=float(pis[g]), beta=fit.beta, alpha=fit.alpha)
            )
    return tuple(comps)


def _quantile_split(y: np.ndarray, G: int) -> np.ndarray:
    """Deterministic hard split: sort by count, cut into G consecutive bins."""
    order = np.argsort(y, kind="stable")
    resp = np.zeros((y.size, G))
    for g, chunk in enumerate(np.array_split(order, G)):
        resp[chunk, g] = 1.0
    return resp


def init_by_count_mixture(d: Dataset, G: int, seed=0) -> np.ndarray:
    """Hard initial assignment from a covariate-free Poisson mixture on y.

    Rates start at the G mid-quantiles of y with uniform weights, run
    ``INIT_EM_ITER`` EM iterations, then each row is MAP-assigned.  With
    fewer than G distinct counts (or a group emptying out) the method
    falls back to a deterministic quantile-bin split, with a warning.
    """
    if G < 1:
        raise DomainError(f"G must be >= 1, got {G}")
    if G * (d.p + 2) > d.n:
        raise DimensionError(f"G={G} needs at least {G * (d.p + 2)} rows, have {d.n}")
    if G == 1:
        return np.ones((d.n, 1))
    y = d.y.astype(float)
    if np.unique(d.y).size < G:
        warnings.warn(
            f"fewer than {G} distinct count values; using quantile-bin split",
            RuntimeWarning,
            stacklevel=2,
        )
        return _quantile_split(d.y, G)

    rng = np.random.default_rng(_as_seedseq(seed))
    lam = np.quantile(y, (np.arange(G) + 0.5) / G)
    lam = np.maximum(lam, 1e-6)
    # coincident quantiles would create duplicate components; jitter apart
    for g in range(1, G):
        if lam[g] <= lam[g - 1]:
            lam[g] = lam[g - 1] * (1.0 + 0.05 * (1.0 + rng.random()))
    pis = np.full(G, 1.0 / G)
    lgy = gammaln(y + 1.0)
    resp = None
    for _ in range(INIT_EM_ITER):
        logf = y[:, None] * np.log(lam)[None, :] - lam[None, :] - lgy[:, None]
        _, resp = _posterior(logf, pis, warn=False)
        pis = np.clip(resp.mean(axis=0), 1e-12, None)
        pis = pis / pis.sum()
        mass = resp.sum(axis=0)
        ok = mass > 1e-9
        lam[ok] = np.maximum((resp[:, ok] * y[:, None]).sum(axis=0) / mass[ok], 1e-6)
    labels = np.argmax(resp, axis=1)
    if np.unique(labels).size < G:
        warnings.warn(
            "count-mixture initialization left an empty group; "
            "using quantile-bin split",
            RuntimeWarning,
            stacklevel=2,
        )
        return _quantile_split(d.y, G)
    hard = np.zeros((d.n, G))
    hard[np.arange(d.n), labels] = 1.0
    return hard


def _run_em(d, family, resp0, tol, max_iter):
    """One EM run from hard/soft initial responsibilities.

    Each iteration builds the log-density matrix once; the same posterior
    pass yields the log-likelihood of the new parameters and the
    responsibilities for the next M-step (or the returned model).
    """
    comps = None
    resp = resp0
    trace = []
    converged = False
    n = d.n
    for _ in range(max_iter):
        comps = m_step(resp, d, family, prev=comps)
        if min(c.pi for c in comps) < 1.0 / (2.0 * n):
            raise ComponentCollapseError(
                f"a mixture weight fell below 1/(2n) = {1.0 / (2.0 * n):.2e}"
            )
        pis = _check_components(comps, d)
        norm, resp = _posterior(log_density_matrix(comps, d, family), pis)
        ll = float(norm.sum())
        converged = bool(trace) and abs(ll - trace[-1]) <= tol * (1.0 + abs(ll))
        trace.append(ll)
        if converged:
            break
    return MixtureModel(
        family=family,
        components=comps,
        logL=trace[-1],
        responsibilities=resp,
        converged=converged,
        iterations=len(trace),
        loglik_trace=np.asarray(trace),
    )


def em_fit(
    d: Dataset,
    G: int,
    family: str,
    seed=0,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_EM_TOL,
    max_iter: int = DEFAULT_EM_MAX_ITER,
) -> MixtureModel:
    """Fit a G-component mixture by EM with multiple restarts.

    The first restart starts from :func:`init_by_count_mixture`; the rest
    perturb that hard assignment by redrawing each row's responsibilities
    from Dirichlet(1 + one-hot initial group).  Restarts that collapse
    (a weight below 1/(2n), an effective sample below p+2, or a singular
    weighted design) are discarded.  The best surviving restart by final
    log-likelihood wins, ties broken toward the lowest restart index.  If
    every restart collapses the fit is retried at G-1 and the result is
    tagged with a collapse diagnostic.  At G=1 the redraw of the single
    all-ones column reproduces the first start, so one run is made.
    """
    validate_family(family)
    if G < 1:
        raise DomainError(f"G must be >= 1, got {G}")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    if d.n < G * (d.p + 2):
        raise DimensionError(
            f"n={d.n} is too small for G={G} components with p={d.p}"
        )
    root = _as_seedseq(seed)
    init_ss, *restart_ss = root.spawn(restarts + 1)
    base = init_by_count_mixture(d, G, seed=init_ss)

    best = None
    notes: list[str] = []
    for k in range(restarts if G > 1 else 1):
        if k == 0:
            resp0 = base
        else:
            rng = np.random.default_rng(restart_ss[k - 1])
            draws = rng.gamma(shape=1.0 + base)  # row-wise Dirichlet(1 + one-hot)
            resp0 = draws / draws.sum(axis=1, keepdims=True)
        try:
            model = _run_em(d, family, resp0, tol, max_iter)
        except (ComponentCollapseError, SingularDesignError) as exc:
            notes.append(f"restart {k} discarded: {exc}")
            continue
        if best is None or model.logL > best.logL:
            best = model
    if best is None:
        if G == 1:
            raise ComponentCollapseError(
                f"all restarts failed at G=1: {'; '.join(notes)}"
            )
        reduced = em_fit(
            d, G - 1, family, seed=seed, restarts=restarts, tol=tol, max_iter=max_iter
        )
        note = f"all restarts collapsed at G={G}; refitted with G={reduced.G}"
        return replace(reduced, warnings=reduced.warnings + (note,))
    if notes:
        best = replace(best, warnings=best.warnings + tuple(notes))
    return best
