"""Genetic-algorithm search over covariate subsets, plus component reports.

Each chromosome is a covariate inclusion mask; fitness is an information
criterion of the mixture refit on the masked design (lower is fitter).
Fitness is pure, so a mask-keyed cache is shared across runs and
generations without affecting results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import countglm
from .countglm import NB2, POISSON
from .criteria import ScoreRow, score_model
from .data import (
    ColumnStats,
    CovariateMask,
    Dataset,
    apply_mask,
    subset_rows,
    summary_stats,
)
from .errors import CountmixError, DomainError
from .mixture import MixtureModel, _component_stacks, em_fit
from .selection import DEFAULT_G_MAX, choose_family, normalize_criterion, sweep

WALD_Z = 1.96
# a covariate is treated as constant inside a component below this
# responsibility-weighted variance
CONSTANT_VAR_TOL = 1e-12


@dataclass(frozen=True)
class GaConfig:
    """GA hyperparameters; the defaults favor small, well-cached searches.

    ``runs`` independent GA runs are aggregated into winner frequencies,
    so 200 runs gives 0.5% frequency granularity.  ``G=None`` means the
    component count is chosen by a sweep of the full model before the GA
    starts; ``select_g_per_mask`` instead re-selects G for every mask
    (much costlier).
    """

    pop_size: int = 30
    generations: int = 40
    crossover_rate: float = 0.8
    mutation_rate: float | None = None  # None -> 1/p at runtime
    elitism: int = 2
    criterion: str = "caic"
    G: int | None = None
    runs: int = 200
    seed: int = 0
    restarts: int = 5
    g_max: int = DEFAULT_G_MAX
    select_g_per_mask: bool = False

    def __post_init__(self):
        if self.pop_size < 4:
            raise DomainError("pop_size must be >= 4")
        if not 0 <= self.elitism < self.pop_size:
            raise DomainError("elitism must be in [0, pop_size)")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise DomainError("crossover_rate must be in [0, 1]")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise DomainError("mutation_rate must be in [0, 1]")
        if self.runs < 1 or self.generations < 1:
            raise DomainError("runs and generations must be >= 1")
        if self.restarts < 1 or self.g_max < 1 or (self.G is not None and self.G < 1):
            raise DomainError("restarts, g_max and a fixed G must be >= 1")
        normalize_criterion(self.criterion)


@dataclass(frozen=True)
class SubsetRecord:
    """A winning mask with its scores and how often it won."""

    mask: CovariateMask
    aic: float
    caic: float
    sbc: float
    wins: int
    runs: int

    @property
    def rel_freq(self) -> Fraction:
        return Fraction(self.wins, self.runs)


def _score_mask(mask, d, G, family, cache, seed, restarts, criterion, g_max):
    """ScoreRow for a mask (memoized); None records a failed fit.

    A fixed-G row carries ICOMP only when ICOMP is the criterion, since
    its observed information costs about as much as the fit; a cached
    row without ICOMP is scored again when an ICOMP lookup reaches it.
    """
    key = mask.key
    if key in cache:
        row = cache[key]
        if criterion != "icomp" or row is None or row.icomp is not None:
            return row
    sub = apply_mask(d, mask)
    try:
        if G is None:
            res = sweep(sub, g_max, seed=seed, restarts=restarts, family=family)
            row = next(r for r in res.rows if r.G == res.best_G(criterion))
        else:
            model = em_fit(sub, G, family, seed=seed, restarts=restarts)
            # a collapsed fit has fewer components and is not a score at G
            if model.G == G:
                row = score_model(model, sub, with_icomp=criterion == "icomp")
            else:
                row = None
    except CountmixError:
        row = None
    cache[key] = row
    return row


def fitness(
    mask: CovariateMask,
    d: Dataset,
    G: int | None,
    family: str,
    criterion: str,
    cache: dict,
    seed=0,
    restarts: int = 5,
    g_max: int = DEFAULT_G_MAX,
) -> float:
    """Criterion value of the mixture refit on the masked design (lower wins).

    Failures score +inf, so a broken mask survives in the population but
    can never win.  Results are memoized in ``cache`` by mask bits.
    """
    criterion = normalize_criterion(criterion)
    row = _score_mask(mask, d, G, family, cache, seed, restarts, criterion, g_max)
    if row is None or row.error is not None:
        return np.inf
    value = getattr(row, criterion)
    if value is None or not np.isfinite(value):
        return np.inf
    return float(value)


def evolve(d: Dataset, cfg: GaConfig, family: str | None = None) -> list[SubsetRecord]:
    """Run ``cfg.runs`` independent GA searches and tabulate winner frequencies.

    Every run draws a fresh Bernoulli(0.5) population, then iterates
    tournament selection (k=2, ties to the first draw), uniform crossover,
    per-bit mutation, and elitism; the run winner is the best-ever mask
    seen.  Each generation draws its random numbers as blocks, in this
    order: all tournament index pairs, the crossover coins, the crossover
    swap masks, the mutation flips.  :func:`fitness` is called once per
    distinct mask over all runs.  Records are sorted by relative frequency
    (descending) then criterion value.
    """
    if d.p < 1:
        raise DomainError("GA subset selection needs at least one covariate")
    criterion = normalize_criterion(cfg.criterion)
    if family is None:
        family = choose_family(d)
    if family not in (POISSON, NB2):
        raise DomainError(f"unknown family {family!r}")

    if cfg.select_g_per_mask:
        G = None
    elif cfg.G is not None:
        G = cfg.G
    else:
        full = sweep(d, cfg.g_max, seed=cfg.seed, restarts=cfg.restarts, family=family)
        G = full.best_G(criterion)

    p = d.p
    mut = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / p
    n_children = cfg.pop_size - cfg.elitism
    pairs = (n_children + 1) // 2
    cache: dict[bytes, ScoreRow | None] = {}
    # fitness by mask key; a population's keys come from one view of its
    # rows as p-byte records, and equal CovariateMask.key
    values: dict[bytes, float] = {}
    row_record = np.dtype((np.void, p))

    def fits_of(pop: np.ndarray) -> tuple[list[bytes], np.ndarray]:
        keys = pop.view(row_record).ravel().tolist()
        for key in dict.fromkeys(keys):
            if key not in values:
                values[key] = fitness(
                    CovariateMask(np.frombuffer(key, dtype=bool)), d, G, family,
                    criterion, cache, seed=cfg.seed, restarts=cfg.restarts,
                    g_max=cfg.g_max,
                )
        return keys, np.array([values[k] for k in keys])

    win_counts: dict[bytes, int] = {}
    for run in range(cfg.runs):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, run)))
        pop = rng.random((cfg.pop_size, p)) < 0.5
        keys, fits = fits_of(pop)
        best = int(np.argmin(fits))
        best_key, best_fit = keys[best], fits[best]
        for _ in range(cfg.generations):
            elite = pop[np.argsort(fits, kind="stable")[: cfg.elitism]]
            draws = rng.integers(cfg.pop_size, size=(2, pairs, 2))
            first, second = draws[..., 0], draws[..., 1]
            winners = np.where(fits[first] <= fits[second], first, second)
            pa, pb = pop[winners[0]], pop[winners[1]]
            cross = rng.random(pairs) < cfg.crossover_rate
            swap = (rng.random((pairs, p)) < 0.5) & cross[:, None]
            # children alternate c1, c2 pair by pair; an odd count drops the last c2
            children = np.stack(
                [np.where(swap, pb, pa), np.where(swap, pa, pb)], axis=1
            ).reshape(2 * pairs, p)[:n_children]
            children ^= rng.random((n_children, p)) < mut
            pop = np.concatenate([elite, children])
            keys, fits = fits_of(pop)
            gen_best = int(np.argmin(fits))
            if fits[gen_best] < best_fit:
                best_key, best_fit = keys[gen_best], fits[gen_best]
        win_counts[best_key] = win_counts.get(best_key, 0) + 1

    records = []
    for key, count in win_counts.items():
        mask = CovariateMask(np.frombuffer(key, dtype=bool).copy())
        row = cache.get(key)
        if row is None or row.error is not None:
            aic_v = caic_v = sbc_v = float("nan")
        else:
            aic_v, caic_v, sbc_v = row.aic, row.caic, row.sbc
        records.append(
            SubsetRecord(
                mask=mask, aic=aic_v, caic=caic_v, sbc=sbc_v,
                wins=count, runs=cfg.runs,
            )
        )
    # ICOMP is a fine fitness but is not tabulated per record; fall back to
    # CAIC for ordering in that case.  Mask label is a stable final tie-break.
    crit_attr = {"aic": "aic", "sbc": "sbc", "caic": "caic", "icomp": "caic"}[criterion]
    records.sort(
        key=lambda r: (
            -r.rel_freq,
            getattr(r, crit_attr) if np.isfinite(getattr(r, crit_attr)) else np.inf,
            r.mask.render(),
        )
    )
    return records


def report_components(model: MixtureModel, d: Dataset) -> list[dict]:
    """Per-component coefficient tables with Wald 2.5% / 97.5% bounds.

    A covariate that is constant within a component's weighted support
    (responsibility-weighted variance below ``CONSTANT_VAR_TOL``) is
    excluded from that component's table: its beta/se/interval render as
    unavailable (None) and it is dropped from the information matrix
    used for the remaining standard errors.
    """
    if not model.converged:
        raise DomainError("report_components requires a converged model")
    # every component's complete-data information in one weighted assembly;
    # a table uses the beta block restricted to its active columns
    with np.errstate(**countglm._QUIET):
        rows = countglm._row_derivs(
            model.family, *_component_stacks(model.components, d, model.family), d
        )
        info = countglm._weighted_derivs(d, model.responsibilities.T, rows)[1]
    tables = []
    for g, comp in enumerate(model.components):
        r = model.responsibilities[:, g]
        mass = r.sum()
        wbar = r / mass if mass > 0 else np.full(d.n, 1.0 / d.n)
        active = [0]  # intercept is constant by design and always reported
        dropped = set()
        for j in range(1, d.p + 1):
            col = d.X[:, j]
            mean = float(wbar @ col)
            var = float(wbar @ (col - mean) ** 2)
            if var < CONSTANT_VAR_TOL:
                dropped.add(j)
            else:
                active.append(j)
        try:
            cov = np.linalg.inv(info[g][np.ix_(active, active)])
            with np.errstate(invalid="ignore"):
                se_active = np.sqrt(np.diag(cov))
        except np.linalg.LinAlgError:
            se_active = np.full(len(active), np.nan)
        se = dict(zip(active, se_active))

        rows = []
        for j in list(range(1, d.p + 1)) + [0]:
            name = "intercept" if j == 0 else d.names[j - 1]
            if j in dropped:
                rows.append({"name": name, "beta": None, "se": None, "lo": None, "hi": None})
                continue
            b = float(comp.beta[j])
            s = float(se[j])
            rows.append(
                {
                    "name": name,
                    "beta": b,
                    "se": s,
                    "lo": b - WALD_Z * s,
                    "hi": b + WALD_Z * s,
                }
            )
        tables.append({"component": g + 1, "pi": comp.pi, "alpha": comp.alpha, "rows": rows})
    return tables


def component_summaries(
    model: MixtureModel, d: Dataset
) -> list[dict[str, ColumnStats] | None]:
    """Summary statistics over the MAP-assigned rows of each component.

    A component owning no rows after MAP assignment yields None.
    """
    labels = np.argmax(model.responsibilities, axis=1)
    out: list[dict[str, ColumnStats] | None] = []
    for g in range(model.G):
        idx = np.flatnonzero(labels == g)
        if idx.size == 0:
            out.append(None)
            continue
        out.append(summary_stats(subset_rows(d, idx)))
    return out
