"""Genetic-algorithm search over covariate subsets, plus component reports.

Each chromosome is a covariate inclusion mask; fitness is an information
criterion of the mixture refit on the masked design (lower is fitter).
Fitness is pure up to rounding, so a mask-keyed cache is shared across
runs and generations; at any G each generation's new masks are fitted
together, as one masked EM block over the full design.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import countglm
from .criteria import ScoreRow, _score_row, score_model
from .data import (
    ColumnStats,
    CovariateMask,
    Dataset,
    apply_mask,
    subset_rows,
    summary_stats,
)
from .errors import CountmixError, DomainError, NoScoreError
from .mixture import MixtureModel, _best_restart, _component_stacks, _run_em, _start_stack, em_fit
from .selection import (
    DEFAULT_G_MAX,
    _criterion_value,
    normalize_criterion,
    select_best,
    sweep,
)

WALD_Z = 1.96
# a covariate is treated as constant inside a component below this
# responsibility-weighted variance
CONSTANT_VAR_TOL = 1e-12
# the component-count settings besides a fixed positive G
AUTO = "auto"
PER_MASK = "per-mask"
_ICOMP_SCORED = "icomp-scored"  # see fitness
_STARTS = "starts"  # see fitness


def _check_g(G, words: tuple[str, ...]) -> None:
    """Raise DomainError unless G is a positive integer or one of ``words``."""
    if not (G in words if isinstance(G, str) else isinstance(G, numbers.Integral) and G >= 1):
        raise DomainError(f"G must be a positive integer or one of {words}, got {G!r}")


@dataclass(frozen=True)
class GaConfig:
    """GA hyperparameters; the defaults favor small, well-cached searches.

    ``runs`` independent GA runs are aggregated into winner frequencies,
    so 200 runs gives 0.5% frequency granularity.  The runs go in
    lock-step, generation by generation, and each generation's new masks
    are fitted in one masked EM block (see :func:`evolve`).  ``G`` is the
    component count of every mask fit: a positive integer fixes it; ``"auto"`` fixes
    it at the count ``criterion`` picks in one sweep of the full model
    (G = 1..g_max) before the GA starts; ``"per-mask"`` re-selects it for
    every mask from its fits in one block per G = 1..g_max.
    """

    pop_size: int = 30
    generations: int = 40
    crossover_rate: float = 0.8
    mutation_rate: float | None = None  # None -> 1/p at runtime
    elitism: int = 2
    criterion: str = "caic"
    G: int | str = AUTO
    runs: int = 200
    seed: int = 0
    restarts: int = 5
    g_max: int = DEFAULT_G_MAX

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
        if self.restarts < 1 or self.g_max < 1:
            raise DomainError("restarts and g_max must be >= 1")
        _check_g(self.G, (AUTO, PER_MASK))
        normalize_criterion(self.criterion)


def resolve_g(d: Dataset, cfg: GaConfig, family: str) -> int | str:
    """``cfg.G``, with ``"auto"`` replaced by ``cfg.criterion``'s pick in one sweep of d."""
    if cfg.G != AUTO:
        return cfg.G
    full = sweep(d, cfg.g_max, seed=cfg.seed, restarts=cfg.restarts, family=family)
    return select_best(full.rows, cfg.criterion)


@dataclass(frozen=True)
class SubsetRecord:
    """A winning mask with its scores and how often it won."""

    mask: CovariateMask
    aic: float
    caic: float
    sbc: float
    wins: int
    runs: int

    @classmethod
    def of(cls, mask: CovariateMask, row: ScoreRow | None, wins: int, runs: int) -> SubsetRecord:
        """The record of ``mask`` with the criteria of ``row``, NaN without one."""
        aic, caic, sbc = (np.nan,) * 3 if row is None else (row.aic, row.caic, row.sbc)
        return cls(mask=mask, aic=aic, caic=caic, sbc=sbc, wins=wins, runs=runs)

    @property
    def rel_freq(self) -> Fraction:
        return Fraction(self.wins, self.runs)


def fit_mask(
    mask: CovariateMask, d: Dataset, G: int | str, family: str, seed=0, restarts: int = 5,
    g_max: int = DEFAULT_G_MAX,
) -> tuple[tuple[ScoreRow, ...], dict[int, MixtureModel]]:
    """Score rows and fitted models, by G, of the mixture refit on the reported mask.

    At a fixed G this is one :func:`em_fit`, scored without ICOMP, and a
    fit that its G-1 retry shrank raises :class:`CountmixError`; at
    ``"per-mask"`` G it is a sweep of G = 1..g_max, which fits every G
    exactly.
    """
    sub = apply_mask(d, mask)
    if G == PER_MASK:
        res = sweep(sub, g_max, seed=seed, restarts=restarts, family=family)
        return res.rows, res.models
    model = em_fit(sub, G, family, seed=seed, restarts=restarts)
    if model.G != G:
        raise CountmixError(
            f"mask {mask.render()!r} refit with {model.G} components, not the requested G={G}"
        )
    return (score_model(model, sub, with_icomp=False),), {G: model}


def mask_row(rows, G: int | str, criterion: str) -> ScoreRow | None:
    """The row of a mask's score ``rows`` (see :func:`fitness`) that scores it.

    That is the one row at a fixed G, and at ``"per-mask"`` G the row
    whose G ``criterion`` selects.  None when the fit failed (``rows`` is
    None) or no row has a ``criterion`` score.
    """
    if rows is None:
        return None
    if G == PER_MASK:
        try:
            G = select_best(rows, criterion)
        except NoScoreError:
            return None
    return next(r for r in rows if r.G == G)


def _block_rows(masks, d: Dataset, G: int, family: str, starts, with_icomp: bool) -> list:
    """Per mask, the :class:`ScoreRow` of its G-component fit on its masked design, or None.

    Every mask runs every one of ``starts`` (:func:`em_fit`'s) in one
    :func:`_run_em` over ``d.X``, and each mask keeps its best restart by
    :func:`_best_restart`, as the exact-G fit behind :func:`em_fit` and
    :func:`sweep` does, so a row is the masked fit's up to rounding.  A
    mask with G(p+2) > n is not fitted; one whose restarts all fail, or
    one of which overflows, is None, with no G-1 refit.
    """
    keep = np.ones((len(masks), d.p + 1), dtype=bool)
    keep[:, 1:] = [m.bits for m in masks]
    sized = np.flatnonzero(G * (keep.sum(axis=1) + 1) <= d.n)  # n >= G(p+2), as em_fit requires
    R = len(starts)
    fits = _run_em(d, family, starts, keep[sized]) if sized.size else []
    out: list = [None] * len(masks)
    for j, i in enumerate(sized):
        try:
            model = _best_restart(fits[j * R:(j + 1) * R], G)
        except CountmixError:  # every restart failed, or one overflowed
            continue
        if with_icomp:  # the observed information of the model on its masked design
            comps = tuple(replace(c, beta=c.beta[keep[i]]) for c in model.components)
            out[i] = score_model(replace(model, components=comps), apply_mask(d, masks[i]))
        else:
            out[i] = _score_row(model, int(keep[i].sum()) - 1, d.n)
    return out


def _score_masks(masks, d, G, family, criterion, cache, seed, restarts, g_max) -> None:
    """Put the score rows of each of ``masks`` into ``cache`` (see :func:`fitness`) unless there.

    The masks that need a fit go to one :func:`_block_rows` block per G.
    """
    icomp = criterion == "icomp"
    scored = cache.setdefault(_ICOMP_SCORED, set())
    starts = cache.setdefault(_STARTS, {})
    todo = [
        m for m in masks
        if m.key not in cache or (icomp and cache[m.key] is not None and m.key not in scored)
    ]
    if not todo:
        return
    blocks = []
    for g in range(1, g_max + 1) if G == PER_MASK else (G,):
        if g not in starts:
            starts[g] = _start_stack(d, g, seed, restarts)
        blocks.append(_block_rows(todo, d, g, family, starts[g], icomp))
    for mask, rows in zip(todo, zip(*blocks)):
        cache[mask.key] = tuple(r for r in rows if r is not None) or None
        if icomp:
            scored.add(mask.key)


def _value(rows, G, criterion: str) -> float:
    """The fitness of a mask's score ``rows``: +inf for a failed fit or no score."""
    row = mask_row(rows, G, criterion)
    value = None if row is None else _criterion_value(row, criterion)
    return np.inf if value is None else value


def fitness(
    mask: CovariateMask,
    d: Dataset,
    G: int | str,
    family: str,
    criterion: str,
    cache: dict,
    seed=0,
    restarts: int = 5,
    g_max: int = DEFAULT_G_MAX,
) -> float:
    """Criterion value of the mixture refit on the masked design (lower wins).

    ``G`` is a positive integer or ``"per-mask"``.  Failures score +inf,
    so a broken mask survives in the population but can never win.
    ``cache`` memoizes a mask's score rows by mask bits alone (its row at
    a fixed G, its rows of the G that did not fail at ``"per-mask"`` G,
    None for a failed fit), so it belongs to one (d, G, family, seed,
    restarts, g_max); criteria may share it.  The rows come from a
    :func:`_block_rows` block, here of one mask, so a score is pure up to
    rounding: another block may differ in the last bits, or within the
    fit's stopping rule where the likelihood is flat (an NB-2 dispersion
    near its lower bound).  A row carries ICOMP only when ICOMP is the
    criterion, since its observed information costs about as much as the
    fit; a row scored without it is scored again, once, when an ICOMP
    lookup reaches it.  The cache also keeps each G's start stack under
    ``"starts"``, and the keys of rows scored for ICOMP under ``"icomp-scored"``.
    """
    criterion = normalize_criterion(criterion)
    _check_g(G, (PER_MASK,))
    _score_masks([mask], d, G, family, criterion, cache, seed, restarts, g_max)
    return _value(cache[mask.key], G, criterion)


def evolve(d: Dataset, cfg: GaConfig, family: str) -> list[SubsetRecord]:
    """Run ``cfg.runs`` independent GA searches and tabulate winner frequencies.

    ``family`` is the count family of every mask fit; callers elect it,
    for instance with :func:`countmix.selection.choose_family`.

    Every run draws a fresh Bernoulli(0.5) population, then iterates
    tournament selection (k=2, ties to the first draw), uniform crossover,
    per-bit mutation, and elitism; the run winner is the best-ever mask
    seen.  Run r draws from its own generator, seeded (cfg.seed, r); each
    generation draws its random numbers as blocks, in this order: all
    tournament index pairs, the crossover coins, the crossover swap masks,
    the mutation flips.  The runs go in lock-step: their populations are
    one (runs, pop_size, p) array, each generation's selection, crossover,
    mutation and elitism are stacked array operations, and the
    generation's masks that no earlier generation scored are scored in one
    masked EM block per G, whose memory grows as masks x restarts x G x n.
    So every distinct mask is fitted once over all runs, and each run
    takes the course it would take alone.  Records are sorted by relative
    frequency (descending) then criterion value.
    """
    if d.p < 1:
        raise DomainError("GA subset selection needs at least one covariate")
    criterion = normalize_criterion(cfg.criterion)
    countglm.validate_family(family)
    G = resolve_g(d, cfg, family)

    p, R, P = d.p, cfg.runs, cfg.pop_size
    mut = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / p
    n_children = P - cfg.elitism
    pairs = (n_children + 1) // 2
    cache: dict = {}
    # fitness by mask key; a population's keys come from one view of its
    # rows as p-byte records, and equal CovariateMask.key
    values: dict[bytes, float] = {}
    row_record = np.dtype((np.void, p))

    def fits_of(pop: np.ndarray) -> np.ndarray:
        keys = pop.reshape(-1, p).view(row_record).ravel().tolist()
        new = [
            CovariateMask(np.frombuffer(key, dtype=bool))
            for key in dict.fromkeys(keys) if key not in values
        ]
        _score_masks(new, d, G, family, criterion, cache, cfg.seed, cfg.restarts, cfg.g_max)
        for mask in new:
            values[mask.key] = _value(cache[mask.key], G, criterion)
        return np.fromiter(map(values.__getitem__, keys), float, len(keys)).reshape(R, P)

    rngs = [np.random.default_rng(np.random.SeedSequence((cfg.seed, r))) for r in range(R)]
    pop = np.stack([rng.random((P, p)) for rng in rngs]) < 0.5
    fits = fits_of(pop)
    runs = np.arange(R)
    first = fits.argmin(axis=1)
    best_fit, best = fits[runs, first], pop[runs, first]
    rows = runs[:, None]
    # each run's draws of one generation, filled run by run from its own generator
    draws = np.empty((R, 2, pairs, 2), dtype=np.int64)
    coins, swaps = np.empty((R, pairs)), np.empty((R, pairs, p))
    flips = np.empty((R, n_children, p))
    for _ in range(cfg.generations):
        order = np.argsort(fits, axis=1, kind="stable")[:, : cfg.elitism]
        elite = pop[rows, order]
        for r, rng in enumerate(rngs):
            draws[r] = rng.integers(P, size=(2, pairs, 2))
            rng.random(out=coins[r])
            rng.random(out=swaps[r])
            rng.random(out=flips[r])
        a, b = draws[..., 0], draws[..., 1]  # (R, 2, pairs)
        winners = np.where(fits[runs[:, None, None], a] <= fits[runs[:, None, None], b], a, b)
        pa, pb = pop[rows, winners[:, 0]], pop[rows, winners[:, 1]]
        swap = (swaps < 0.5) & (coins < cfg.crossover_rate)[:, :, None]
        # children alternate c1, c2 pair by pair; an odd count drops the last c2
        children = np.stack(
            [np.where(swap, pb, pa), np.where(swap, pa, pb)], axis=2
        ).reshape(R, 2 * pairs, p)[:, :n_children]
        children ^= flips < mut
        pop = np.concatenate([elite, children], axis=1)
        fits = fits_of(pop)
        gen_best = fits.argmin(axis=1)
        better = fits[runs, gen_best] < best_fit
        best_fit = np.where(better, fits[runs, gen_best], best_fit)
        best[better] = pop[better, gen_best[better]]

    win_counts: dict[bytes, int] = {}
    for key in best.view(row_record).ravel().tolist():
        win_counts[key] = win_counts.get(key, 0) + 1
    records = []
    for key, count in win_counts.items():
        mask = CovariateMask(np.frombuffer(key, dtype=bool).copy())
        records.append(SubsetRecord.of(mask, mask_row(cache[key], G, criterion), count, cfg.runs))
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
