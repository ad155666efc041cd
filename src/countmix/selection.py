"""Family gate and component-count sweep."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import countglm
from .countglm import NB2, POISSON
from .criteria import CRITERIA, ScoreRow, score_model
from .data import Dataset
from .errors import CountmixError, DomainError, NoScoreError, SweepError
from .mixture import MixtureModel, _fit_g

DEFAULT_ALPHA_THRESHOLD = 0.05
DEFAULT_G_MAX = 5
# fallback gate on the raw variance/mean ratio when the NB-2 fit fails
FALLBACK_RATIO = 1.5

_ALIASES = {"bic": "sbc", "logl": "logL"}


def normalize_criterion(name: str) -> str:
    name = name.lower()
    name = _ALIASES.get(name, name)
    if name not in CRITERIA:
        raise DomainError(f"unknown criterion {name!r}; expected one of {CRITERIA}")
    return name


@dataclass(frozen=True)
class SweepResult:
    """Score table over G = 1..G_max plus the per-criterion argmin map."""

    rows: tuple[ScoreRow, ...]
    family_used: str
    best: dict[str, int]
    models: dict[int, MixtureModel]
    warnings: tuple[str, ...] = field(default=())


def choose_family(d: Dataset, threshold: float = DEFAULT_ALPHA_THRESHOLD) -> str:
    """Pick Poisson vs NB-2 from a single-component NB-2 fit.

    A fitted dispersion strictly below ``threshold`` elects Poisson;
    at or above it, NB-2.  If the NB-2 fit fails outright the gate falls
    back to the raw variance/mean ratio (> FALLBACK_RATIO means NB-2).
    """
    try:
        fit = countglm.fit_nb2(d)
        return POISSON if fit.alpha < threshold else NB2
    except CountmixError as exc:
        warnings.warn(
            f"NB-2 gate fit failed ({exc}); falling back to the "
            "variance/mean ratio",
            RuntimeWarning,
            stacklevel=2,
        )
        return NB2 if countglm.dispersion_stat(d) > FALLBACK_RATIO else POISSON


def _criterion_value(row: ScoreRow, criterion: str) -> float | None:
    if row.error is not None:
        return None
    value = getattr(row, criterion)
    if value is None or not np.isfinite(value):
        return None
    return float(value)


def select_best(rows, criterion: str) -> int:
    """G minimizing the criterion; ties go to the smallest G.

    Rows where the criterion is unavailable are skipped; if that is all
    of them, :class:`NoScoreError` is raised.
    """
    criterion = normalize_criterion(criterion)
    candidates = []
    for row in rows:
        value = _criterion_value(row, criterion)
        if value is not None:
            candidates.append((value, row.G))
    if not candidates:
        raise NoScoreError(f"criterion {criterion!r} unavailable in every row")
    return min(candidates)[1]


def sweep(
    d: Dataset,
    G_max: int = DEFAULT_G_MAX,
    seed=0,
    restarts: int = 5,
    family: str = "auto",
    alpha_threshold: float = DEFAULT_ALPHA_THRESHOLD,
) -> SweepResult:
    """Fit G = 1..G_max mixtures and score each with all four criteria.

    The family is elected once, before any mixture is fit.  Each row is
    the fit at exactly G (``mixture._fit_g``), with no G-1 retry.  A
    failed G contributes a row marked with its error and never aborts
    the sweep; only a sweep where every G fails raises :class:`SweepError`.
    """
    if G_max < 1:
        raise DomainError(f"G_max must be >= 1, got {G_max}")
    family_used = (
        choose_family(d, alpha_threshold) if family == "auto" else family
    )
    countglm.validate_family(family_used)

    notes: list[str] = []
    rows = []
    models: dict[int, MixtureModel] = {}
    for G in range(1, G_max + 1):
        try:
            model = _fit_g(d, G, family_used, seed, restarts)
        except CountmixError as exc:
            rows.append(ScoreRow(
                G=G, logL=np.nan, n_k=0, aic=np.nan, sbc=np.nan, caic=np.nan,
                icomp=None, ifim_condition=None, error=str(exc),
            ))
            notes.append(f"G={G} failed: {exc}")
            continue
        rows.append(score_model(model, d))
        models[G] = model
        notes.extend(f"G={G}: {w}" for w in model.warnings)
    if not models:
        raise SweepError(
            "every component count failed",
            diagnostics={row.G: row.error for row in rows},
        )
    best: dict[str, int] = {}
    for criterion in CRITERIA:
        try:
            best[criterion] = select_best(rows, criterion)
        except NoScoreError:
            notes.append(f"criterion {criterion} unavailable in every row")
    return SweepResult(
        rows=tuple(rows),
        family_used=family_used,
        best=best,
        models=models,
        warnings=tuple(notes),
    )
