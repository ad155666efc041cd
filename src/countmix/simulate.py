"""Seeded synthetic-data generators for fixtures and experiments.

All randomness flows through numpy's PCG64 generator so fixtures are
reproducible across platforms; the algorithm name is exported for run
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DomainError, SimulationSpecError

GENERATOR_ID = "numpy.random.PCG64"

MAX_GROUPS = 5
DEFAULT_N_PER_GROUP = 50
PARAM_LOW, PARAM_HIGH = 1, 50  # inclusive integer range for drawn group params
DEFAULT_MIN_GAP = 5
_ETA_MAX = 700.0  # exp overflows past this


@dataclass(frozen=True)
class GroupParams:
    """Drawn parameters of one scatter group: covariate center and count rate."""

    mu: float
    lam: float


def gen_grouped_counts(
    seed,
    n_per_group: int = DEFAULT_N_PER_GROUP,
    n_groups: int = 4,
    reject_close: bool = True,
):
    """Grouped (x, y) scatter: x ~ N(mu_g, 1), y ~ Poisson(lam_g).

    Group centers and rates are integers drawn uniformly from
    [PARAM_LOW, PARAM_HIGH].  With ``reject_close`` (the default) the
    rate set is redrawn until all pairwise gaps reach ``DEFAULT_MIN_GAP``
    (5), so the groups stay distinguishable; pass False for the fully
    literal protocol.  Returns ``(dataset, labels, groups)``.
    """
    if n_per_group < 1:
        raise DomainError("n_per_group must be >= 1")
    if not 1 <= n_groups <= MAX_GROUPS:
        raise DomainError(f"n_groups must be in 1..{MAX_GROUPS}")
    rng = np.random.default_rng(seed)
    mus = rng.integers(PARAM_LOW, PARAM_HIGH + 1, size=n_groups)
    for _ in range(10_000):
        lams = rng.integers(PARAM_LOW, PARAM_HIGH + 1, size=n_groups)
        if not reject_close or n_groups == 1:
            break
        gaps = np.abs(lams[:, None] - lams[None, :])[np.triu_indices(n_groups, 1)]
        if gaps.min() >= DEFAULT_MIN_GAP:
            break
    else:
        raise SimulationSpecError("could not draw rates with the requested gap")

    xs, ys, labels = [], [], []
    for g in range(n_groups):
        xs.append(rng.normal(float(mus[g]), 1.0, size=n_per_group))
        ys.append(rng.poisson(float(lams[g]), size=n_per_group))
        labels.append(np.full(n_per_group, g))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    d = Dataset(
        y=y.astype(np.int64),
        X=np.column_stack([np.ones(x.size), x]),
        names=("x",),
    )
    groups = tuple(GroupParams(mu=float(m), lam=float(l)) for m, l in zip(mus, lams))
    return d, np.concatenate(labels), groups


@dataclass(frozen=True)
class MixtureSpec:
    """Ground truth for a regression-mixture generator.

    ``betas`` is G x (p+1) on the log-link scale (intercept first);
    ``alphas`` are NB-2 dispersions (0 means that component is Poisson);
    ``weights`` live on the simplex.
    """

    weights: tuple[float, ...]
    betas: tuple[tuple[float, ...], ...]
    alphas: tuple[float, ...] = ()
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size < 1 or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-8:
            raise DomainError("weights must be non-negative and sum to 1")
        b = np.asarray(self.betas, dtype=float)
        if b.ndim != 2 or b.shape[0] != w.size:
            raise DomainError("betas must be G x (p+1)")
        alphas = self.alphas if self.alphas else tuple(0.0 for _ in range(w.size))
        if len(alphas) != w.size or any(a < 0 for a in alphas):
            raise DomainError("need one non-negative alpha per component")
        object.__setattr__(self, "alphas", tuple(float(a) for a in alphas))
        p = b.shape[1] - 1
        names = self.names if self.names else tuple(f"x{j + 1}" for j in range(p))
        if len(names) != p:
            raise DomainError("names length must equal p")
        object.__setattr__(self, "names", tuple(names))

    @property
    def G(self) -> int:
        return len(self.weights)

    @property
    def p(self) -> int:
        return len(self.betas[0]) - 1


def gen_regression_mixture(spec: MixtureSpec, n: int, seed):
    """Draw n rows from a mixture of count regressions with N(0,1) covariates.

    Component labels come from the weights; y is Poisson(exp(beta_g x))
    for alpha_g = 0 and otherwise a Gamma-Poisson composition with the
    Gamma mean exp(beta_g x) and shape 1/alpha_g, which is exactly the
    NB-2 law.  Returns ``(dataset, labels)``.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = np.random.default_rng(seed)
    G, p = spec.G, spec.p
    labels = rng.choice(G, size=n, p=np.asarray(spec.weights, dtype=float))
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
    betas = np.asarray(spec.betas, dtype=float)
    eta = np.einsum("ij,ij->i", X, betas[labels])
    if np.max(eta) > _ETA_MAX:
        raise SimulationSpecError(
            "exp(beta . x) overflows; choose smaller coefficients"
        )
    mu = np.exp(eta)
    y = np.empty(n, dtype=np.int64)
    alphas = np.asarray(spec.alphas, dtype=float)
    for g in range(G):
        idx = labels == g
        if not idx.any():
            continue
        if alphas[g] == 0.0:
            y[idx] = rng.poisson(mu[idx])
        else:
            lam = rng.gamma(shape=1.0 / alphas[g], scale=alphas[g] * mu[idx])
            y[idx] = rng.poisson(lam)
    d = Dataset(y=y, X=X, names=spec.names)
    return d, labels
