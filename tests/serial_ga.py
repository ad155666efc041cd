"""The GA loop run by run, one mask at a time: the test oracle for the
lock-step :func:`countmix.ga.evolve`.

It scores every mask with :func:`countmix.ga.fitness`, in the order the
serial loop first meets it, and keeps each run's own generator, draws
and selection exactly as a single run makes them.
"""

import numpy as np

from countmix import CovariateMask, SubsetRecord, fitness
from countmix.ga import mask_row, resolve_g
from countmix.selection import normalize_criterion


def evolve_serial(d, cfg, family):
    """:func:`countmix.ga.evolve`, one run after another."""
    criterion = normalize_criterion(cfg.criterion)
    G = resolve_g(d, cfg, family)
    p = d.p
    mut = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / p
    n_children = cfg.pop_size - cfg.elitism
    pairs = (n_children + 1) // 2
    cache: dict = {}
    values: dict[bytes, float] = {}
    row_record = np.dtype((np.void, p))

    def fits_of(pop):
        keys = pop.view(row_record).ravel().tolist()
        for key in dict.fromkeys(keys):
            if key not in values:
                values[key] = fitness(
                    CovariateMask(np.frombuffer(key, dtype=bool)), d, G, family,
                    criterion, cache, seed=cfg.seed, restarts=cfg.restarts, g_max=cfg.g_max,
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
        records.append(SubsetRecord.of(mask, mask_row(cache[key], G, criterion), count, cfg.runs))
    crit_attr = {"aic": "aic", "sbc": "sbc", "caic": "caic", "icomp": "caic"}[criterion]
    records.sort(
        key=lambda r: (
            -r.rel_freq,
            getattr(r, crit_attr) if np.isfinite(getattr(r, crit_attr)) else np.inf,
            r.mask.render(),
        )
    )
    return records
