"""Information criteria for fitted mixtures: AIC, SBC/BIC, CAIC, ICOMP.

ICOMP penalizes the C1 entropic complexity of the inverse of the observed
information matrix.  The information matrix is taken over free parameters
only: mixture weights are reparameterized to G-1 logits against the last
component and NB-2 dispersions sit on the log scale, which keeps the
matrix full rank despite the simplex constraint.  Instability of that
matrix is a value-level outcome (ICOMP unavailable), never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import countglm
from .countglm import NB2, validate_family
from .data import Dataset
from .errors import DomainError, InformationMatrixError, NumericOverflowError
from .mixture import ComponentParams, MixtureModel, _logsumexp_rows, log_density_matrix
from .numdiff import jacobian_central

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


def _pack_params(model: MixtureModel) -> np.ndarray:
    """Free-parameter vector: [beta_1..beta_G, logit weights, log alphas (NB-2)].

    Weight logit g is log(pi_g / pi_G) for g < G.
    """
    parts = [np.asarray(c.beta, dtype=float) for c in model.components]
    pis = np.array([c.pi for c in model.components])
    G = model.G
    if G > 1:
        parts.append(np.log(pis[:-1] / pis[-1]))
    if model.family == NB2:
        parts.append(np.log([c.alpha for c in model.components]))
    return np.concatenate(parts) if parts else np.empty(0)


def _unpack_params(theta: np.ndarray, G: int, p: int, family: str):
    k = p + 1
    betas = [theta[g * k : (g + 1) * k] for g in range(G)]
    pos = G * k
    if G > 1:
        logits = theta[pos : pos + G - 1]
        pos += G - 1
        expl = np.exp(logits - logits.max(initial=0.0))
        denom = expl.sum() + np.exp(-logits.max(initial=0.0))
        pis = np.concatenate([expl, [np.exp(-logits.max(initial=0.0))]]) / denom
    else:
        pis = np.ones(1)
    if family == NB2:
        alphas = np.exp(theta[pos : pos + G])
    else:
        alphas = np.zeros(G)
    return pis, betas, alphas


def _mixture_grad(theta: np.ndarray, d: Dataset, family: str, G: int) -> np.ndarray:
    """Analytic gradient of the observed-data mixture log-likelihood.

    Uses the standard identity d logL / d phi_g = sum_i r_ig d log f_ig / d phi_g
    with responsibilities r evaluated at theta.
    """
    pis, betas, alphas = _unpack_params(theta, G, d.p, family)
    comps = [ComponentParams(pi=pis[g], beta=betas[g], alpha=alphas[g]) for g in range(G)]
    logw = log_density_matrix(comps, d, family) + np.log(pis)
    norm = _logsumexp_rows(logw)
    resp = np.exp(logw - norm[:, None])

    pieces = []
    s_scores = []  # NB-2: d logL / d log(alpha_g)
    for g in range(G):
        mu = np.exp(d.X @ betas[g])
        u, _, v, _, _ = countglm._row_derivs(family, d.y, mu, alphas[g])
        pieces.append(d.X.T @ (resp[:, g] * u))
        if family == NB2:
            s_scores.append(float(resp[:, g] @ v))
    if G > 1:
        # logit reparameterization: d logL / d t_g = sum_i r_ig - pi_g * n
        pieces.append(resp.sum(axis=0)[: G - 1] - pis[: G - 1] * d.n)
    pieces.append(np.array(s_scores))
    return np.concatenate(pieces)


def observed_info(model: MixtureModel, d: Dataset) -> np.ndarray:
    """Negative Hessian of the mixture log-likelihood at the fitted parameters.

    Computed by central finite differences of the analytic gradient
    (step 1e-5 * (1 + |theta_j|)) and symmetrized as (H + H^T)/2.
    """
    if not model.converged:
        raise DomainError("observed_info requires a converged model")
    theta = _pack_params(model)

    def grad(t):
        return _mixture_grad(t, d, model.family, model.G)

    try:
        J = jacobian_central(grad, theta, rel_step=1e-5)
    except NumericOverflowError as exc:
        raise InformationMatrixError(f"gradient evaluation failed: {exc}") from exc
    info = -(J + J.T) / 2.0
    if not np.all(np.isfinite(info)):
        raise InformationMatrixError("observed information has non-finite entries")
    return info


def _check_symmetric(info: np.ndarray) -> np.ndarray:
    info = np.asarray(info, dtype=float)
    if info.ndim != 2 or info.shape[0] != info.shape[1]:
        raise DomainError("information matrix must be square")
    scale = max(1.0, float(np.max(np.abs(info))))
    if np.max(np.abs(info - info.T)) > 1e-8 * scale:
        raise DomainError("information matrix must be symmetric")
    return info


def c1_complexity(sigma: np.ndarray) -> float:
    """Bozdogan C1 entropic complexity of a symmetric PD matrix.

    C1 = (s/2) log(trace/s) - (1/2) log det; zero exactly for scalar
    multiples of the identity, positive otherwise (AM-GM on eigenvalues).
    """
    sigma = _check_symmetric(sigma)
    eig = np.linalg.eigvalsh(sigma)
    if eig.min() <= 0:
        raise DomainError("matrix must be positive definite")
    s = sigma.shape[0]
    return 0.5 * s * math.log(eig.mean()) - 0.5 * float(np.log(eig).sum())


def icomp(logL: float, info: np.ndarray) -> float | None:
    """ICOMP score -2 logL + 2 C1(info^{-1}), or None when info is unstable.

    Instability means a non-positive or relatively tiny eigenvalue
    (<= EIG_FLOOR * max eigenvalue) or a condition number above COND_CAP.
    """
    info = _check_symmetric(info)
    eig = np.linalg.eigvalsh(info)
    top = eig.max()
    if top <= 0.0 or eig.min() <= EIG_FLOOR * top:
        return None
    if top / eig.min() > COND_CAP:
        return None
    inv_eig = 1.0 / eig
    s = info.shape[0]
    c1 = 0.5 * s * math.log(inv_eig.mean()) - 0.5 * float(np.log(inv_eig).sum())
    return -2.0 * logL + 2.0 * c1


def ifim_condition(info: np.ndarray) -> float | None:
    """Condition number of the information matrix; None if not PD."""
    eig = np.linalg.eigvalsh(_check_symmetric(info))
    if eig.min() <= 0.0:
        return None
    return float(eig.max() / eig.min())


def score_model(model: MixtureModel, d: Dataset, with_icomp: bool = True) -> ScoreRow:
    """Assemble all four criteria for a fitted mixture.

    ICOMP instability (or a failed information matrix) marks ``icomp``
    unavailable without blocking AIC/SBC/CAIC.  ``with_icomp=False`` skips
    the observed information, leaving ``icomp`` and ``ifim_condition``
    None, for callers that rank by AIC, SBC or CAIC alone.
    """
    n_k = count_params(model.G, d.p, model.family)
    row_icomp: float | None = None
    cond: float | None = None
    if with_icomp and model.converged:
        try:
            info = observed_info(model, d)
            cond = ifim_condition(info)
            row_icomp = icomp(model.logL, info)
        except InformationMatrixError:
            row_icomp = None
            cond = None
    return ScoreRow(
        G=model.G,
        logL=model.logL,
        n_k=n_k,
        aic=aic(model.logL, n_k),
        sbc=sbc(model.logL, n_k, d.n),
        caic=caic(model.logL, n_k, d.n),
        icomp=row_icomp,
        ifim_condition=cond,
    )
