"""EM fitting of finite mixtures of Poisson / NB-2 regressions.

The reported log-likelihood is always the observed-data mixture
log-likelihood sum_i log sum_g pi_g f_g(y_i | x_i), evaluated through
log-sum-exp; the complete-data form appears only implicitly inside EM.
:func:`em_fit` runs its restarts in lock-step: every EM iteration fits
all (restart, component) refits in one block of the shared Newton driver
in ``countglm`` and takes one posterior pass over every running restart.
Every fit runs over a column mask of the design, and the full design is
the all-ones mask: the same loop fits the restarts of a block of
covariate masks at any G, with memory growing as masks x restarts x G x n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import countglm
from .countglm import NB2, validate_family
from .data import Dataset
from .errors import (
    ComponentCollapseError,
    DimensionError,
    DomainError,
    NumericOverflowError,
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


def _mixing_weights(components) -> np.ndarray:
    """The components' weights pi_g, checked to be positive and to sum to 1."""
    pis = np.array([c.pi for c in components], dtype=float)
    if np.any(pis <= 0.0):
        raise DomainError("all mixture weights must be positive")
    if abs(pis.sum() - 1.0) > 1e-8:
        raise DomainError(f"mixture weights sum to {pis.sum()}, expected 1")
    return pis


def _component_stacks(components, d: Dataset, family: str):
    """The components as the block kernel's (beta, alpha) stacks.

    Returns the coefficients as a (G, k) array and the dispersions as a
    (G, 1) column, or None for Poisson, after checking the family, the
    coefficient lengths and, for NB-2, that every alpha is positive.
    """
    validate_family(family)
    if not components:
        raise DomainError("mixture needs at least one component")
    beta = np.array([countglm._beta(c.beta, d) for c in components])
    if family != NB2:
        return beta, None
    for c in components:
        countglm._check_alpha(c.alpha)
    return beta, np.array([[c.alpha] for c in components], dtype=float)


def log_density_matrix(components, d: Dataset, family: str) -> np.ndarray:
    """n x G matrix of per-component log-densities log f_g(y_i | x_i).

    Built in one stacked evaluation by ``countglm._density_rows``, as in
    :func:`em_fit`.  A component whose linear predictor is not finite, or
    whose NB-2 density is NaN, raises its :class:`NumericOverflowError`.
    """
    beta, alpha = _component_stacks(components, d, family)
    with np.errstate(**countglm._QUIET):
        logf, bad = countglm._density_rows(family, beta, alpha, d)
    if bad.any():
        raise countglm._overflow_error(family, beta, alpha, d, int(np.flatnonzero(bad)[0]))
    return np.ascontiguousarray(logf.T)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log sum_j exp(a_..j) over the last axis of a float array.

    Follows scipy.special.logsumexp (scipy >= 1.15) step for step, so the
    values match it, at a fraction of its per-call overhead: the row
    maximum's m ties are taken out of the shifted sum s, the result is
    log1p(s / m) + log(m) + max, and rows where that is not finite (all
    -inf, or a +inf entry) fall back to log(sum(exp(a))).  The work runs
    column by column, adding the G shifted exponentials left to right as
    numpy's reduction over a short last axis does.
    """
    cols = [a[..., j] for j in range(a.shape[-1])]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        amax = cols[0]
        for c in cols[1:]:
            amax = np.maximum(amax, c)
        m = np.zeros(amax.shape)
        s = None
        for c in cols:
            at_max = c == amax
            m += at_max
            e = np.exp(np.where(at_max, -np.inf, c) - amax)
            s = e if s is None else s + e
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + amax
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=-1))
    return out


def _posterior(logf: np.ndarray, pis: np.ndarray):
    """Row normalizers log sum_g pi_g f_ig and responsibilities r_ig.

    One log-sum-exp gives both the observed-data log-likelihood (the sum
    of the normalizers) and the posterior.  ``logf`` is (n, G) with
    ``pis`` (G,), or a stack (R, n, G) with ``pis`` (R, G), whose rows
    all go through one :func:`_logsumexp_rows` call.  Rows whose density
    underflows in every component (a normalizer of -inf) get uniform
    responsibilities; :func:`e_step` and :func:`_run_em` count them from
    the normalizers to warn.
    """
    logw = logf + np.log(pis)[..., None, :]
    G = logw.shape[-1]
    norm = _logsumexp_rows(logw)
    degenerate = ~np.isfinite(norm)
    with np.errstate(invalid="ignore"):
        resp = np.exp(logw - norm[..., None])
    if degenerate.any():
        resp[degenerate] = 1.0 / G
    return norm, resp


def _warn_zero_density(count: int, stacklevel: int) -> None:
    """The RuntimeWarning for ``count`` rows of zero density under every component."""
    warnings.warn(
        f"{count} row(s) had zero density under every component; "
        "assigning uniform responsibilities",
        RuntimeWarning,
        stacklevel=stacklevel + 1,
    )


def mixture_loglik(components, d: Dataset, family: str) -> float:
    """Observed-data log-likelihood sum_i log sum_g pi_g f_g(y_i | x_i)."""
    pis = _mixing_weights(components)
    norm, _ = _posterior(log_density_matrix(components, d, family), pis)
    return float(norm.sum())


def e_step(components, d: Dataset, family: str) -> np.ndarray:
    """Posterior responsibilities r_ig, computed in log space.

    Rows whose density underflows in every component get uniform
    responsibilities and a RuntimeWarning.
    """
    pis = _mixing_weights(components)
    norm, resp = _posterior(log_density_matrix(components, d, family), pis)
    lost = int(np.count_nonzero(~np.isfinite(norm)))
    if lost:
        _warn_zero_density(lost, stacklevel=2)
    return resp


def _restart_failures(W: np.ndarray, d: Dataset, G: int, keep: np.ndarray) -> list:
    """Per restart, the error its M-step raises on its G weight rows of W, or None.

    ``W`` stacks the (G, n) weight rows of R restarts, and ``keep`` the
    (R*G, k) column masks over ``d.X`` of those rows.  Each restart's
    components are checked in order: an effective sample sum_i r_ig below
    p+2, for the p covariates its design keeps, is a
    :class:`ComponentCollapseError`, a rank-deficient weighted design a
    :class:`SingularDesignError`.  The rank of all rows is screened at
    once by ``countglm._rank_errors``.
    """
    ranks = countglm._rank_errors(d, W, keep)
    mass = W.sum(axis=1)
    p = keep.sum(axis=1) - 1
    failures = []
    for r in range(len(W) // G):
        failure = None
        for g in range(G):
            c = r * G + g
            if mass[c] < p[c] + 2:
                failure = ComponentCollapseError(
                    f"component {g}: effective sample {mass[c]:.3f} < p+2={p[c] + 2}"
                )
            else:
                failure = ranks[c]
            if failure is not None:
                break
        failures.append(failure)
    return failures


def _m_step(resp: np.ndarray, d: Dataset, family: str, prev, columns: np.ndarray):
    """One M-step for a stack of R restarts, all R*G refits in one Newton block.

    ``resp`` is (R, n, G) with entries in [0, 1]; ``prev`` holds the
    previous parameter rows (R*G, m) in the Newton driver's layout (beta,
    then log alpha for NB-2), or None for cold starts.  ``columns`` is
    the (R, k) column mask over ``d.X`` of each restart (see
    :func:`_run_em`).  Returns the mixture weights (R, G), the new rows
    (R*G, m; NaN for a failed restart) and per restart the error that
    discards it, or None.
    """
    R, n, G = resp.shape
    pis = resp.sum(axis=1) / n  # the mean over rows
    pis = pis / pis.sum(axis=1, keepdims=True)
    W = np.clip(resp.transpose(0, 2, 1).reshape(R * G, n), 0.0, 1.0)
    keep = np.repeat(columns, G, axis=0)
    failures = _restart_failures(W, d, G, keep)
    cols = np.repeat([f is None for f in failures], G)
    x = np.full((R * G, d.p + 1 + (family == NB2)), np.nan)
    if cols.any():
        init = None if prev is None else prev[cols]
        x[cols] = countglm._fit_block(family, d, W[cols], init, M_STEP_FIT_MAX_ITER, keep[cols])[0]
    return pis, x, failures


def _components(pis: np.ndarray, x: np.ndarray, family: str):
    k = x.shape[1] - (family == NB2)
    return tuple(
        ComponentParams(
            pi=float(pi), beta=row[:k], alpha=float(np.exp(row[k])) if family == NB2 else 0.0
        )
        for pi, row in zip(pis, x)
    )


def m_step(resp: np.ndarray, d: Dataset, family: str):
    """Weighted refits given responsibilities; returns new components.

    The G refits run from cold starts as one block of the shared Newton
    driver, each capped at ``M_STEP_FIT_MAX_ITER`` (15) Newton steps: the
    R=1 case of the first lock-step M-step in :func:`em_fit`.  A
    component whose effective sample sum_i r_ig falls below p+2 raises
    :class:`ComponentCollapseError` (caught and handled by :func:`em_fit`).
    """
    validate_family(family)
    resp = np.asarray(resp, dtype=float)
    if resp.ndim != 2 or resp.shape[0] != d.n:
        raise DimensionError("responsibility matrix shape does not match dataset")
    row_sums = resp.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-8:
        raise DomainError("responsibility rows must sum to 1")
    for w in resp.T:
        countglm._weights(d, w)
    pis, x, failures = _m_step(resp[None], d, family, None, np.ones((1, d.p + 1), dtype=bool))
    if failures[0] is not None:
        raise failures[0]
    return _components(pis[0], x, family)


def _quantile_split(y: np.ndarray, G: int, reason: str) -> np.ndarray:
    """Deterministic hard split, sort by count and cut into G bins, after warning ``reason``."""
    warnings.warn(f"{reason}; using quantile-bin split", RuntimeWarning, stacklevel=3)
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
    return _count_mixture_start(d, G, seed)


def _count_mixture_start(d: Dataset, G: int, seed) -> np.ndarray:
    """:func:`init_by_count_mixture` without its checks; it reads only y."""
    if G == 1:
        return np.ones((d.n, 1))
    y = d.y.astype(float)
    if np.unique(d.y).size < G:
        return _quantile_split(d.y, G, f"fewer than {G} distinct count values")

    rng = np.random.default_rng(_as_seedseq(seed))
    lam = np.quantile(y, (np.arange(G) + 0.5) / G)
    lam = np.maximum(lam, 1e-6)
    # coincident quantiles would create duplicate components; jitter apart
    for g in range(1, G):
        if lam[g] <= lam[g - 1]:
            lam[g] = lam[g - 1] * (1.0 + 0.05 * (1.0 + rng.random()))
    pis = np.full(G, 1.0 / G)
    lgy = d.log_y_factorial
    resp = None
    for _ in range(INIT_EM_ITER):
        logf = y[:, None] * np.log(lam)[None, :] - lam[None, :] - lgy[:, None]
        _, resp = _posterior(logf, pis)
        pis = np.clip(resp.mean(axis=0), 1e-12, None)
        pis = pis / pis.sum()
        mass = resp.sum(axis=0)
        ok = mass > 1e-9
        lam[ok] = np.maximum((resp[:, ok] * y[:, None]).sum(axis=0) / mass[ok], 1e-6)
    labels = np.argmax(resp, axis=1)
    if np.unique(labels).size < G:
        return _quantile_split(d.y, G, "count-mixture initialization left an empty group")
    hard = np.zeros((d.n, G))
    hard[np.arange(d.n), labels] = 1.0
    return hard


def _start_stack(d: Dataset, G: int, seed, restarts: int) -> np.ndarray:
    """The (R, n, G) starting responsibilities of :func:`em_fit`'s restarts.

    The first is :func:`init_by_count_mixture`'s, unchecked; each other
    redraws every row from Dirichlet(1 + one-hot initial group), except at
    G=1 (R=1).  It reads y alone, so every covariate mask shares it.
    """
    init_ss, *restart_ss = _as_seedseq(seed).spawn(restarts + 1)
    base = _count_mixture_start(d, G, init_ss)
    starts = [base]
    for ss in restart_ss[: restarts - 1 if G > 1 else 0]:
        draws = np.random.default_rng(ss).gamma(shape=1.0 + base)  # row-wise Dirichlet(1 + one-hot)
        starts.append(draws / draws.sum(axis=1, keepdims=True))
    return np.stack(starts)


def _run_em(d, family, starts, masks):
    """Lock-step EM of M column masks, each from an (R, n, G) stack of starts.

    ``masks`` is an (M, k) boolean block of the columns of ``d.X`` (the
    intercept among them) that each fit's design keeps; the full design is
    the all-ones mask.  Every mask runs every start, so M * R restarts,
    mask by mask, go through one loop.  Each iteration makes one M-step
    over the weight columns of the restarts still running (one Newton
    block), one log-density build for all their components, and one
    posterior pass whose normalizers give each restart's log-likelihood
    and whose responsibilities feed its next M-step.  A restart leaves the
    stack on its own when it converges, when a component collapses (a
    weight below 1/(2n) or an effective sample below p+2), when its
    weighted design is singular or when its density overflows; its course
    is the one it would take alone.  A dropped coefficient stays exactly 0
    (see ``countglm._newton``), so each restart is the fit of its masked
    design, up to rounding.  Returns, per restart (mask-major), its
    :class:`MixtureModel` or the error that ended it.

    The warnings about rows of zero density are held per restart and
    issued restart by restart, mask by mask; within a mask, none after its
    first restart that overflows, where :func:`em_fit` raises.
    """
    R, n, G = starts.shape
    M, k = masks.shape
    outcome: list = [None] * (M * R)
    traces = [[] for _ in outcome]
    lost = [[] for _ in outcome]  # per restart, the zero-density row count of each pass
    live, x = np.arange(M * R), None
    resp = starts[live % R]  # restart r of every mask starts from starts[r]
    for _ in range(DEFAULT_EM_MAX_ITER):
        pis, x, ended = _m_step(resp, d, family, x, masks[live // R])
        for j, pi in enumerate(pis):
            if ended[j] is None and pi.min() < 1.0 / (2.0 * n):
                ended[j] = ComponentCollapseError(
                    f"a mixture weight fell below 1/(2n) = {1.0 / (2.0 * n):.2e}"
                )
        if any(e is not None for e in ended):
            for j, e in enumerate(ended):
                outcome[live[j]] = e
            keep = np.array([e is None for e in ended])
            live, pis, x = live[keep], pis[keep], x[np.repeat(keep, G)]
            if not live.size:
                break
        alpha = np.exp(x[:, k:]) if family == NB2 else None
        with np.errstate(**countglm._QUIET):
            logf, bad = countglm._density_rows(family, x[:, :k], alpha, d)
        if bad.any():
            for c in np.flatnonzero(bad)[::-1]:  # the first bad component names the error
                outcome[live[c // G]] = countglm._overflow_error(family, x[:, :k], alpha, d, c)
            keep = ~bad.reshape(-1, G).any(axis=1)
            live, pis, x = live[keep], pis[keep], x[np.repeat(keep, G)]
            logf = logf[np.repeat(keep, G)]
            if not live.size:
                break
        norm, resp = _posterior(logf.reshape(-1, G, n).transpose(0, 2, 1), pis)
        done = np.zeros(live.size, dtype=bool)
        for j, ll in enumerate(norm.sum(axis=1).tolist()):
            if not math.isfinite(ll):  # some row has zero density under every component
                lost[live[j]].append(int(np.count_nonzero(~np.isfinite(norm[j]))))
            trace = traces[live[j]]
            done[j] = bool(trace) and abs(ll - trace[-1]) <= DEFAULT_EM_TOL * (1.0 + abs(ll))
            trace.append(ll)
            if done[j]:
                rows = x[j * G:(j + 1) * G]
                outcome[live[j]] = _model(family, pis[j], rows, resp[j], trace, True)
        if done.any():
            go = ~done
            live, pis, resp, x = live[go], pis[go], resp[go], x[np.repeat(go, G)]
            if not live.size:
                break
    for j, r in enumerate(live):  # stopped by the iteration cap
        outcome[r] = _model(family, pis[j], x[j * G:(j + 1) * G], resp[j], traces[r], False)
    for fit in range(0, M * R, R):
        for counts, out in zip(lost[fit:fit + R], outcome[fit:fit + R]):
            for count in counts:
                _warn_zero_density(count, stacklevel=2)
            if isinstance(out, NumericOverflowError):
                break
    return outcome


def _model(family, pis, x, resp, trace, converged):
    return MixtureModel(
        family=family,
        components=_components(pis, x, family),
        logL=trace[-1],
        responsibilities=np.ascontiguousarray(resp),
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
) -> MixtureModel:
    """Fit a G-component mixture by EM with multiple restarts.

    The restarts start from :func:`_start_stack` (the count-mixture
    assignment and its Dirichlet redraws; one run at G=1), run in
    lock-step through :func:`_run_em` on the all-ones column mask, and
    :func:`_best_restart` keeps the best that did not collapse (a weight
    below 1/(2n), an effective sample below p+2, or a singular weighted
    design).  If every restart collapses
    the fit is retried at G-1 and tagged with a collapse diagnostic; if
    that retry fails too, the :class:`ComponentCollapseError` names G and
    the first restart discarded at G.  EM stops at a relative logL change
    of at most ``DEFAULT_EM_TOL`` (1e-8), or after ``DEFAULT_EM_MAX_ITER``
    (500) iterations with ``converged=False``.
    """
    validate_family(family)
    if G < 1:
        raise DomainError(f"G must be >= 1, got {G}")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    if d.n < G * (d.p + 2):
        raise DimensionError(
            f"n={d.n} is too small for G={G} components with p={d.p}"
        )
    full = np.ones((1, d.p + 1), dtype=bool)
    best, notes = _best_restart(_run_em(d, family, _start_stack(d, G, seed, restarts), full))
    if best is None:
        if G == 1:
            raise ComponentCollapseError(
                f"all restarts failed at G=1: {'; '.join(notes)}"
            )
        try:
            reduced = em_fit(d, G - 1, family, seed=seed, restarts=restarts)
        except ComponentCollapseError as exc:
            raise ComponentCollapseError(
                f"all restarts failed at G={G}, and the retry at G={G - 1} failed too: {notes[0]}"
            ) from exc
        note = f"all restarts collapsed at G={G}; refitted with G={reduced.G}"
        return replace(reduced, warnings=reduced.warnings + (note,))
    return best


def _best_restart(outcomes):
    """The best of one fit's :func:`_run_em` outcomes (None if none), and the discard notes.

    A collapsed or singular restart is discarded with a note for the
    winner's warnings, and any other error raised; logL ties go to the first.
    """
    best = None
    notes: list[str] = []
    for k, out in enumerate(outcomes):
        if isinstance(out, (ComponentCollapseError, SingularDesignError)):
            notes.append(f"restart {k} discarded: {out}")
            continue
        if isinstance(out, Exception):
            raise out
        if best is None or out.logL > best.logL:
            best = out
    if best is not None and notes:
        best = replace(best, warnings=best.warnings + tuple(notes))
    return best, notes
