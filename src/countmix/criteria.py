"""Information criteria for fitted mixtures: AIC, SBC/BIC, CAIC, ICOMP.

ICOMP penalizes the C1 entropic complexity of the inverse of the observed
information matrix.  The information matrix is taken over free parameters
only: mixture weights are reparameterized to G-1 logits against the last
component and NB-2 dispersions sit on the log scale, which keeps the
matrix full rank despite the simplex constraint.  It is computed in closed
form by Louis's (1982) missing-information identity from the per-row
derivatives and weighted information blocks of ``countglm``'s likelihood
kernel (see :func:`observed_info`).
Instability of that matrix is a value-level outcome (ICOMP unavailable),
never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import countglm
from .countglm import NB2, validate_family
from .data import Dataset
from .errors import DomainError, InformationMatrixError, NumericOverflowError
from .mixture import MixtureModel, _component_stacks, _posterior, log_density_matrix

CRITERIA = ("aic", "sbc", "caic", "icomp")

# ICOMP availability gates: smallest eigenvalue relative to the largest,
# and an absolute cap on the condition number
EIG_FLOOR = 1e-10
COND_CAP = 1e12


@dataclass(frozen=True)
class ScoreRow:
    """One sweep row: criteria for a G-component fit, or a failure marker.

    ``icomp`` and ``ifim_condition`` are None when the information matrix
    is unstable; ``error`` is set (and the numeric fields are NaN) when
    the fit itself failed.
    """

    G: int
    logL: float
    n_k: int
    aic: float
    sbc: float
    caic: float
    icomp: float | None
    ifim_condition: float | None
    error: str | None = None


def count_params(G: int, p_active: int, family: str) -> int:
    """Free-parameter count: G*(p+1) coefficients, G-1 weights, G alphas for NB-2."""
    validate_family(family)
    if G < 1:
        raise DomainError(f"G must be >= 1, got {G}")
    if p_active < 0:
        raise DomainError(f"p_active must be >= 0, got {p_active}")
    n_k = G * (p_active + 1) + (G - 1)
    if family == NB2:
        n_k += G
    return n_k


def aic(logL: float, n_k: int) -> float:
    if n_k < 1:
        raise DomainError("n_k must be >= 1")
    return -2.0 * logL + 2.0 * n_k


def sbc(logL: float, n_k: int, n: int) -> float:
    if n_k < 1:
        raise DomainError("n_k must be >= 1")
    if n < 1:
        raise DomainError("n must be >= 1")
    return -2.0 * logL + n_k * math.log(n)


def caic(logL: float, n_k: int, n: int) -> float:
    if n_k < 1:
        raise DomainError("n_k must be >= 1")
    if n < 1:
        raise DomainError("n must be >= 1")
    return -2.0 * logL + n_k * (math.log(n) + 1.0)


def observed_info(model: MixtureModel, d: Dataset) -> np.ndarray:
    """Observed information of the mixture log-likelihood at the fitted parameters.

    The free parameters are laid out as [beta_1..beta_G, t_1..t_{G-1},
    s_1..s_G], where t_g = log(pi_g / pi_G) is a weight logit against the
    last component and s_g = log(alpha_g) appears for NB-2 only.  The
    matrix is Louis's (1982) missing-information identity,

        I = sum_ig r_ig H_ig - sum_ig r_ig s_ig s_ig' + sum_i sbar_i sbar_i',

    with r the posterior responsibilities, s_ig and H_ig the score and
    negative Hessian of log(pi_g f_ig), and sbar_i = sum_g r_ig s_ig.  The
    last two terms are summed as sum_ig r_ig (s_ig - sbar_i)(s_ig - sbar_i)',
    which is exactly zero at G = 1.  The logit scores are delta_gh - pi_h,
    so the weight block of the first term is n (diag pi - pi pi').  The
    result is symmetrized as (I + I')/2.
    """
    if not model.converged:
        raise DomainError("observed_info requires a converged model")
    comps, G, k = model.components, model.G, d.p + 1
    pis = np.array([c.pi for c in comps])
    nb2 = model.family == NB2
    t0 = G * k  # first weight logit; the log alphas follow the G - 1 logits
    size = t0 + G - 1 + (G if nb2 else 0)
    try:
        logf = log_density_matrix(comps, d, model.family)
    except NumericOverflowError as exc:
        raise InformationMatrixError(f"log-density evaluation failed: {exc}") from exc
    norm, resp = _posterior(logf, pis)
    if not np.all(np.isfinite(norm)):
        raise InformationMatrixError("a row has zero density under every component")

    info = np.zeros((size, size))
    scores = np.zeros((d.n, G, size))
    with np.errstate(**countglm._QUIET):
        # the complete-data blocks of all G components from one weighted assembly
        rows = countglm._row_derivs(model.family, *_component_stacks(comps, d, model.family), d)
        blocks = countglm._weighted_derivs(d, resp.T, rows)[1]
        for g in range(G):
            b = slice(g * k, (g + 1) * k)
            scores[:, g, b] = d.X * rows[0][g, :, None]
            info[b, b] = blocks[g, :k, :k]
            if nb2:
                j = t0 + G - 1 + g
                scores[:, g, j] = rows[2][g]
                info[b, j] = info[j, b] = blocks[g, :k, k]
                info[j, j] = blocks[g, k, k]
        if G > 1:
            t, head = slice(t0, t0 + G - 1), pis[:-1]
            scores[:, :, t] = np.eye(G)[:, :-1] - head
            info[t, t] = d.n * (np.diag(head) - np.outer(head, head))
        centred = (scores - np.einsum("ig,igk->ik", resp, scores)[:, None, :]).reshape(-1, size)
        info -= centred.T @ (centred * resp.reshape(-1, 1))
    info = (info + info.T) / 2.0
    if not np.all(np.isfinite(info)):
        raise InformationMatrixError("observed information has non-finite entries")
    return info


def _eigenvalues(info) -> np.ndarray:
    """Eigenvalues of a square, symmetric information matrix."""
    info = np.asarray(info, dtype=float)
    if info.ndim != 2 or info.shape[0] != info.shape[1]:
        raise DomainError("information matrix must be square")
    scale = max(1.0, float(np.max(np.abs(info))))
    if np.max(np.abs(info - info.T)) > 1e-8 * scale:
        raise DomainError("information matrix must be symmetric")
    return np.linalg.eigvalsh(info)


def _c1(eig: np.ndarray) -> float:
    """C1 from the eigenvalues of a symmetric PD matrix."""
    return 0.5 * eig.size * math.log(eig.mean()) - 0.5 * float(np.log(eig).sum())


def c1_complexity(sigma: np.ndarray) -> float:
    """Bozdogan C1 entropic complexity of a symmetric PD matrix.

    C1 = (s/2) log(trace/s) - (1/2) log det; zero exactly for scalar
    multiples of the identity, positive otherwise (AM-GM on eigenvalues).
    """
    eig = _eigenvalues(sigma)
    if eig.min() <= 0:
        raise DomainError("matrix must be positive definite")
    return _c1(eig)


def _icomp(logL: float, eig: np.ndarray) -> float | None:
    top = eig.max()
    if top <= 0.0 or eig.min() <= EIG_FLOOR * top:
        return None
    if top / eig.min() > COND_CAP:
        return None
    return -2.0 * logL + 2.0 * _c1(1.0 / eig)


def icomp(logL: float, info: np.ndarray) -> float | None:
    """ICOMP score -2 logL + 2 C1(info^{-1}), or None when info is unstable.

    Instability means a non-positive or relatively tiny eigenvalue
    (<= EIG_FLOOR * max eigenvalue) or a condition number above COND_CAP.
    """
    return _icomp(logL, _eigenvalues(info))


def _condition(eig: np.ndarray) -> float | None:
    return None if eig.min() <= 0.0 else float(eig.max() / eig.min())


def ifim_condition(info: np.ndarray) -> float | None:
    """Condition number of the information matrix; None if not PD."""
    return _condition(_eigenvalues(info))


def score_model(model: MixtureModel, d: Dataset, with_icomp: bool = True) -> ScoreRow:
    """Assemble all four criteria for a fitted mixture.

    ICOMP instability (or a failed information matrix) marks ``icomp``
    unavailable without blocking AIC/SBC/CAIC.  ``with_icomp=False`` skips
    the observed information, leaving ``icomp`` and ``ifim_condition``
    None, for callers that rank by AIC, SBC or CAIC alone.
    """
    row_icomp: float | None = None
    cond: float | None = None
    if with_icomp and model.converged:
        try:
            eig = _eigenvalues(observed_info(model, d))
            cond = _condition(eig)
            row_icomp = _icomp(model.logL, eig)
        except InformationMatrixError:
            row_icomp = None
            cond = None
    return _score_row(model, d.p, d.n, row_icomp, cond)


def _score_row(model: MixtureModel, p_active: int, n: int, icomp_value=None, cond=None) -> ScoreRow:
    """The :class:`ScoreRow` of a model with ``p_active`` covariates fitted to n rows."""
    n_k = count_params(model.G, p_active, model.family)
    return ScoreRow(
        G=model.G,
        logL=model.logL,
        n_k=n_k,
        aic=aic(model.logL, n_k),
        sbc=sbc(model.logL, n_k, n),
        caic=caic(model.logL, n_k, n),
        icomp=icomp_value,
        ifim_condition=cond,
    )
