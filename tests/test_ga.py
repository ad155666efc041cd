import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from countmix import (
    NB2,
    POISSON,
    ComponentParams,
    CovariateMask,
    Dataset,
    GaConfig,
    MixtureModel,
    apply_mask,
    component_summaries,
    em_fit,
    evolve,
    fitness,
    report_components,
    score_model,
    select_best,
    summary_stats,
    sweep,
)
from countmix import ga as ga_mod
from countmix import mixture as mixture_mod
from countmix.errors import ComponentCollapseError, CountmixError, DomainError


def _regression_dataset(p=2, important=(0,), n=160, seed=9, alpha=0.0):
    """Poisson data where only the listed covariate indices enter the mean.

    A positive ``alpha`` makes them NB-2 counts with that dispersion.
    """
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    eta = 1.0
    for j in important:
        eta = eta + 0.8 * X[:, j + 1]
    mu = np.exp(eta)
    if alpha > 0.0:
        mu = rng.gamma(1.0 / alpha, alpha * mu)
    y = rng.poisson(mu)
    names = tuple(f"x{j + 1}" for j in range(p))
    return Dataset(y=y, X=X, names=names)


def _exhaustive_best(d, G, criterion="caic", seed=0, restarts=1):
    cache = {}
    best_key, best_val = None, np.inf
    for bits in itertools.product([False, True], repeat=d.p):
        mask = CovariateMask(np.array(bits, dtype=bool))
        val = fitness(mask, d, G, POISSON, criterion, cache, seed=seed, restarts=restarts)
        if val < best_val:
            best_key, best_val = mask.key, val
    return best_key, best_val, cache


class TestGaConfig:
    def test_defaults_valid(self):
        GaConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pop_size": 3},
            {"elitism": 30},
            {"crossover_rate": 1.5},
            {"mutation_rate": -0.1},
            {"runs": 0},
            {"criterion": "dic"},
            {"restarts": 0},
            {"g_max": 0},
            {"G": 0},
            {"G": None},
            {"G": "per_mask"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            GaConfig(**kwargs)

    @pytest.mark.parametrize("G", [3, np.int64(2), "auto", "per-mask"])
    def test_component_count_settings_accepted(self, G):
        assert GaConfig(G=G).G == G


class TestFitness:
    def test_all_ones_matches_full_model_sweep(self):
        d = _regression_dataset(p=2, important=(0, 1), seed=10)
        res = sweep(d, 2, seed=3, restarts=1, family=POISSON)
        g = res.best["caic"]
        cache = {}
        val = fitness(
            CovariateMask.all_ones(d.p), d, g, POISSON, "caic", cache,
            seed=3, restarts=1,
        )
        row = next(r for r in res.rows if r.G == g)
        assert val == row.caic

    def test_cache_hit_returns_identical_value(self, monkeypatch):
        # at G=1 a mask is fitted by the masked GLM block fit, here a block of one
        d = _regression_dataset(seed=11)
        cache = {}
        calls = _counting(monkeypatch, ga_mod, "_run_em")
        mask = CovariateMask.from_numbers(d.p, (1,))
        v1 = fitness(mask, d, 1, POISSON, "caic", cache, seed=0, restarts=1)
        v2 = fitness(mask, d, 1, POISSON, "caic", cache, seed=0, restarts=1)
        assert v1 == v2
        assert len(calls) == 1

    def test_fit_failure_scores_infinity(self, monkeypatch):
        d = _regression_dataset(seed=12)

        def broken(data, family, resp0, columns):  # every mask of the block fails
            return [DomainError("forced for test")] * len(columns)

        monkeypatch.setattr(ga_mod, "_run_em", broken)
        val = fitness(
            CovariateMask.all_ones(d.p), d, 1, POISSON, "caic", {}, seed=0
        )
        assert val == np.inf


    def test_collapsed_fit_scores_infinity(self, monkeypatch):
        # every restart collapses at G=2: the mask fails, with no G=1 refit
        d = _regression_dataset(seed=12)
        real = mixture_mod._m_step

        def failing_for_two(resp, data, family, prev, columns=None):
            pis, x, failures = real(resp, data, family, prev, columns)
            if resp.shape[2] == 2:
                failures = [ComponentCollapseError("forced for test")] * resp.shape[0]
            return pis, x, failures

        monkeypatch.setattr(mixture_mod, "_m_step", failing_for_two)
        mask = CovariateMask.all_ones(d.p)
        cache = {}
        assert fitness(mask, d, 2, POISSON, "caic", cache, seed=0, restarts=2) == np.inf
        assert cache[mask.key] is None


    def test_collapse_rule_counts_the_mask_columns(self):
        # n = 9 rows are too few for the full p = 8 (p+2 = 10), not for the
        # one covariate the mask keeps: the mask scores as its masked design
        d = _regression_dataset(p=8, n=9, seed=9)
        mask = CovariateMask.from_numbers(d.p, (1,))
        sub = apply_mask(d, mask)
        want = score_model(em_fit(sub, 1, POISSON, seed=0, restarts=1), sub).caic
        got = fitness(mask, d, 1, POISSON, "caic", {}, seed=0, restarts=1)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("G", [None, "auto", 0])
    def test_unknown_component_count_rejected(self, G):
        d = _regression_dataset(seed=11)
        with pytest.raises(DomainError, match="per-mask"):
            fitness(CovariateMask.all_ones(d.p), d, G, POISSON, "caic", {}, seed=0)

    def test_per_mask_cache_shared_across_criteria(self):
        # a CAIC lookup must not fix the G that a later AIC lookup scores at
        rng = np.random.default_rng(1)
        n = 120
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        group = rng.random(n) < 0.5
        y = rng.poisson(np.where(group, 3.0, 6.0) * np.exp(0.2 * X[:, 1]))
        d = Dataset(y=y, X=X, names=("x1", "x2"))
        res = sweep(d, 3, seed=2, restarts=1, family=POISSON)
        assert res.best["caic"] != res.best["aic"]  # the premise: they disagree
        mask = CovariateMask.all_ones(d.p)
        kwargs = dict(seed=2, restarts=1, g_max=3)
        cache = {}
        for criterion in ("caic", "aic"):
            shared = fitness(mask, d, "per-mask", POISSON, criterion, cache, **kwargs)
            fresh = fitness(mask, d, "per-mask", POISSON, criterion, {}, **kwargs)
            assert shared == fresh

    def test_icomp_lookup_rescores_row_cached_without_icomp(self):
        d = _regression_dataset(seed=11)
        mask = CovariateMask.from_numbers(d.p, (1,))
        cache = {}
        fitness(mask, d, 1, POISSON, "caic", cache, seed=0, restarts=1)
        assert cache[mask.key][0].icomp is None
        val = fitness(mask, d, 1, POISSON, "icomp", cache, seed=0, restarts=1)
        assert val == fitness(mask, d, 1, POISSON, "icomp", {}, seed=0, restarts=1)
        assert np.isfinite(val)

    @pytest.mark.parametrize(
        "criteria, fits", [(("icomp",) * 3, 1), (("caic", "icomp", "icomp"), 2)]
    )
    def test_unavailable_icomp_is_not_refitted(self, monkeypatch, criteria, fits):
        # a near-duplicate covariate leaves the information matrix unusable,
        # so the row scored for ICOMP holds none, like a row scored without it
        rng = np.random.default_rng(5)
        n = 80
        x1 = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x1, x1 + 1e-7 * rng.normal(size=n)])
        d = Dataset(y=rng.poisson(np.exp(1.0 + 0.3 * x1)), X=X, names=("x1", "x2"))
        calls = _counting(monkeypatch, ga_mod, "_run_em")  # the fit of a block of masks
        mask, cache = CovariateMask.all_ones(d.p), {}
        for criterion in criteria:
            fitness(mask, d, 1, POISSON, criterion, cache, seed=0, restarts=1)
        assert cache[mask.key][0].icomp is None
        assert len(calls) == fits


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.filterwarnings("ignore:count-mixture initialization left an empty group")
class TestResolveG:
    def test_auto_fits_each_g_once(self, binary_split_data, monkeypatch):
        # G=4 and G=5 fail at every restart; neither is refitted at a smaller G
        d = binary_split_data(3)
        calls = _counting(monkeypatch, mixture_mod, "_run_em")
        cfg = GaConfig(G="auto", g_max=5, restarts=2, seed=0, criterion="caic")
        G = ga_mod.resolve_g(d, cfg, POISSON)
        assert [starts.shape[2] for _, _, starts, _ in calls] == [1, 2, 3, 4, 5]
        assert G == select_best(sweep(d, 5, seed=0, restarts=2, family=POISSON).rows, "caic")


class TestEvolve:
    def test_exhaustive_optimum_p2(self):
        d = _regression_dataset(p=2, important=(0,), seed=13)
        best_key, _, _ = _exhaustive_best(d, G=1, seed=3)
        cfg = GaConfig(
            pop_size=8, generations=6, runs=20, seed=3, G=1, restarts=1,
            criterion="caic", elitism=2,
        )
        records = evolve(d, cfg, family=POISSON)
        assert len(records) == 1
        assert records[0].mask.key == best_key
        assert records[0].rel_freq == 1

    def test_informative_pair_wins_at_p5(self):
        d = _regression_dataset(p=5, important=(0, 2), n=220, seed=14)
        best_key, _, _ = _exhaustive_best(d, G=1, seed=5)
        cfg = GaConfig(
            pop_size=12, generations=10, runs=50, seed=5, G=1, restarts=1,
            criterion="caic", elitism=2,
        )
        records = evolve(d, cfg, family=POISSON)
        top = records[0]
        assert top.mask.key == best_key
        assert set(top.mask.numbers) >= {1, 3}

    def test_rel_freq_sums_to_one_exactly(self):
        d = _regression_dataset(p=3, important=(1,), seed=15)
        cfg = GaConfig(
            pop_size=6, generations=4, runs=37, seed=7, G=1, restarts=1,
            criterion="caic", elitism=1,
        )
        records = evolve(d, cfg, family=POISSON)
        assert sum((r.rel_freq for r in records), Fraction(0)) == 1

    def test_degenerate_ga_stays_inside_initial_population(self):
        # with mutation and crossover off, no new chromosome can appear,
        # so every evaluated mask comes from some run's Bernoulli(0.5) init
        d = _regression_dataset(p=3, important=(0,), seed=16)
        cfg = GaConfig(
            pop_size=5, generations=3, runs=4, seed=11, G=1, restarts=1,
            criterion="caic", elitism=1, crossover_rate=0.0, mutation_rate=0.0,
        )
        records = evolve(d, cfg, family=POISSON)
        allowed = set()
        for run in range(cfg.runs):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, run)))
            pop = rng.random((cfg.pop_size, d.p)) < 0.5
            allowed.update(row.tobytes() for row in pop)
        assert {r.mask.key for r in records} <= allowed

    def test_deterministic(self):
        d = _regression_dataset(p=3, important=(0,), seed=17)
        cfg = GaConfig(
            pop_size=6, generations=4, runs=8, seed=13, G=1, restarts=1,
            criterion="caic", elitism=1,
        )
        a = evolve(d, cfg, family=POISSON)
        b = evolve(d, cfg, family=POISSON)
        assert [(r.mask.key, r.wins, r.aic) for r in a] == [
            (r.mask.key, r.wins, r.aic) for r in b
        ]

    def test_fitness_called_once_per_distinct_mask(self, monkeypatch):
        # each generation's new masks are fitted as one block
        d = _regression_dataset(p=4, important=(0,), seed=17)
        calls = _counting(monkeypatch, ga_mod, "_block_rows")
        cfg = GaConfig(
            pop_size=6, generations=4, runs=8, seed=13, G=1, restarts=1,
            criterion="caic", elitism=1,
        )
        evolve(d, cfg, family=POISSON)
        keys = [mask.key for args in calls for mask in args[0]]
        assert len(keys) == len(set(keys))
        assert len(keys) < cfg.runs * (cfg.generations + 1) * cfg.pop_size
        assert 0 < len(calls) <= cfg.generations + 1

    def test_caic_ga_skips_observed_info_and_icomp_ga_uses_it(self, monkeypatch):
        from countmix import apply_mask, score_model
        from countmix import criteria as criteria_mod

        d = _regression_dataset(p=3, important=(0,), seed=17)
        info_calls = _counting(monkeypatch, criteria_mod, "observed_info")
        cfg = GaConfig(
            pop_size=6, generations=3, runs=3, seed=13, G=1, restarts=1,
            criterion="caic", elitism=1,
        )
        evolve(d, cfg, family=POISSON)
        assert info_calls == []

        real_rows, real_em = ga_mod._block_rows, ga_mod._run_em
        values, models = {}, {}

        def recording(masks, *args, **kwargs):
            rows = real_rows(masks, *args, **kwargs)
            for mask, r in zip(masks, rows):
                values[mask.key] = (mask, ga_mod._value(None if r is None else (r,), 1, "icomp"))
            return rows

        def fitting(data, family, resp0, columns):  # the models each mask's score comes from
            out = real_em(data, family, resp0, columns)
            models.update((cols[1:].tobytes(), m) for cols, m in zip(columns, out))
            return out

        monkeypatch.setattr(ga_mod, "_block_rows", recording)
        monkeypatch.setattr(ga_mod, "_run_em", fitting)
        evolve(d, dataclasses.replace(cfg, criterion="icomp"), family=POISSON)
        assert len(info_calls) == len(values) == len(models) > 0
        for mask, value in values.values():
            model, cols = models[mask.key], np.concatenate([[True], mask.bits])
            comp = model.components[0]
            model = dataclasses.replace(model, components=(dataclasses.replace(comp, beta=comp.beta[cols]),))
            icomp = score_model(model, apply_mask(d, mask)).icomp
            assert value == (np.inf if icomp is None else icomp)

    def test_full_mutation_without_crossover_complements_parents(self, monkeypatch):
        # each child is a tournament winner with every bit flipped, so every
        # mask a run visits is an initial member or the complement of one
        d = _regression_dataset(p=6, important=(0,), seed=16)
        calls = _counting(monkeypatch, ga_mod, "_block_rows")
        cfg = GaConfig(
            pop_size=6, generations=3, runs=3, seed=11, G=1, restarts=1,
            criterion="caic", elitism=2, crossover_rate=0.0, mutation_rate=1.0,
        )
        evolve(d, cfg, family=POISSON)
        initial, complements = set(), set()
        for run in range(cfg.runs):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, run)))
            pop = rng.random((cfg.pop_size, d.p)) < 0.5
            initial.update(row.tobytes() for row in pop)
            complements.update((~row).tobytes() for row in pop)
        seen = {mask.key for args in calls for mask in args[0]}
        assert seen <= initial | complements
        assert seen - initial

    def test_ga_beats_random_search_on_equal_budget(self):
        d = _regression_dataset(p=8, important=(0, 3), n=200, seed=18)
        cache = {}
        wins = 0
        trials = 20
        for trial in range(trials):
            cfg = GaConfig(
                pop_size=10, generations=5, runs=1, seed=100 + trial, G=1,
                restarts=1, criterion="caic", elitism=2,
            )
            before = len(cache)
            # share one cache across strategies: fitness is pure
            records = ga_mod.evolve(d, cfg, family=POISSON)
            ga_best = fitness(
                records[0].mask, d, 1, POISSON, "caic", cache, seed=100 + trial,
                restarts=1,
            )
            budget = max(len(cache) - before, cfg.pop_size)
            rng = np.random.default_rng(trial)
            rand_best = np.inf
            for _ in range(budget):
                mask = CovariateMask(rng.random(d.p) < 0.5)
                rand_best = min(
                    rand_best,
                    fitness(mask, d, 1, POISSON, "caic", cache,
                            seed=100 + trial, restarts=1),
                )
            if ga_best <= rand_best:
                wins += 1
        assert wins >= 0.8 * trials

    def test_needs_at_least_one_covariate(self, intercept_only):
        d = intercept_only([1, 2, 3, 4, 5, 6])
        with pytest.raises(DomainError):
            evolve(d, GaConfig(runs=1, G=1), family=POISSON)

    def test_per_mask_g_reselection(self):
        # at per-mask G each mask is scored at its own best G,
        # which must match an explicit sweep of that mask
        d = _regression_dataset(p=2, important=(0,), n=140, seed=60)
        mask = CovariateMask.from_numbers(d.p, (1,))
        cache = {}
        val = fitness(
            mask, d, "per-mask", POISSON, "caic", cache, seed=2, restarts=1, g_max=2
        )
        from countmix import apply_mask

        res = sweep(apply_mask(d, mask), 2, seed=2, restarts=1, family=POISSON)
        best_row = next(r for r in res.rows if r.G == res.best["caic"])
        assert val == best_row.caic


class TestLockStepOracle:
    """The lock-step runs make the serial loop's masks, wins and record order."""

    @pytest.mark.parametrize(
        "family, p, kwargs",
        [
            # pop 7 - elitism 2 leaves an odd number of children
            (POISSON, 4, dict(pop_size=7, elitism=2, criterion="caic")),
            (POISSON, 5, dict(pop_size=6, elitism=0, criterion="aic")),
            (POISSON, 6, dict(pop_size=6, elitism=1, crossover_rate=0.0, mutation_rate=1.0)),
            (NB2, 4, dict(pop_size=4, elitism=1, generations=1, criterion="icomp")),
            (POISSON, 3, dict(pop_size=4, elitism=1, G=2, generations=1, runs=4, criterion="sbc")),
            (POISSON, 3, dict(pop_size=4, elitism=1, G=3, generations=1, runs=4, restarts=2)),
            (POISSON, 3, dict(pop_size=4, elitism=1, G="per-mask", g_max=2, generations=1, runs=4)),
        ],
        ids=[
            "odd_children", "no_elitism", "full_mutation_no_crossover", "nb2_icomp", "fixed_g2",
            "fixed_g3", "per_mask",
        ],
    )
    def test_equals_serial_loop(self, family, p, kwargs):
        from serial_ga import evolve_serial

        # NB-2 data keep the dispersion clear of its lower bound, where the
        # likelihood is too flat for fits in different blocks to agree to rounding
        alpha = 0.5 if family == NB2 else 0.0
        d = _regression_dataset(p=p, important=(0,), n=150, seed=30 + p, alpha=alpha)
        cfg = GaConfig(**{**dict(generations=4, runs=12, seed=5, G=1, restarts=1), **kwargs})
        lock_step = evolve(d, cfg, family=family)
        serial = evolve_serial(d, cfg, family)
        assert len({r.mask.key for r in serial}) > 1  # the runs do not all agree
        assert [(r.mask.key, r.wins) for r in lock_step] == [(r.mask.key, r.wins) for r in serial]
        for a, b in zip(lock_step, serial):
            for crit in ("aic", "caic", "sbc"):
                assert getattr(a, crit) == pytest.approx(getattr(b, crit), rel=1e-12)


def _two_group_dataset(p, n, seed, alpha=0.0):
    """Counts from a two-component Poisson (NB-2 if ``alpha``) regression on x1."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    mu = np.exp(np.where(rng.random(n) < 0.4, 4.0, 1.5) + 0.5 * X[:, 1])
    if alpha > 0.0:
        mu = rng.gamma(1.0 / alpha, alpha * mu)
    return Dataset(y=rng.poisson(mu), X=X, names=tuple(f"x{j + 1}" for j in range(p)))


class TestBlockOracle:
    """A masked EM block scores every mask as em_fit and sweep do on its masked design."""

    SEED, RESTARTS = 3, 3

    @staticmethod
    def _masks(p):
        bits = itertools.product([False, True], repeat=p)
        return [CovariateMask(np.array(b, dtype=bool)) for b in bits]

    @pytest.mark.parametrize(
        "family, G, p, n, alpha, seed",
        [
            (POISSON, 2, 3, 150, 0.0, 43),
            # every fitted NB-2 dispersion is at least 0.16, clear of its lower bound
            (NB2, 2, 3, 120, 0.2, 44),
            (POISSON, 3, 3, 60, 0.0, 43),  # one mask fails
            (POISSON, 2, 5, 13, 0.0, 45),  # n < G(p+2) = 14: the full mask cannot be fitted
        ],
        ids=["poisson_g2", "nb2_g2", "poisson_g3", "n_below_full_design"],
    )
    def test_rows_equal_em_fit_mask_by_mask(self, family, G, p, n, alpha, seed):
        d = _two_group_dataset(p, n, seed, alpha)
        masks = self._masks(p)
        starts = mixture_mod._start_stack(d, G, self.SEED, self.RESTARTS)
        status = []
        for mask, row in zip(masks, ga_mod._block_rows(masks, d, G, family, starts, False)):
            sub = apply_mask(d, mask)
            try:
                model = em_fit(sub, G, family, seed=self.SEED, restarts=self.RESTARTS)
                want = score_model(model, sub, with_icomp=False) if model.G == G else None
            except CountmixError:
                want = None
            assert (row is None) == (want is None), mask.render()
            status.append(want is not None)
            if want is not None:
                assert row.n_k == want.n_k
                for crit in ("aic", "sbc", "caic"):
                    assert getattr(row, crit) == pytest.approx(getattr(want, crit), rel=1e-10)
        assert any(status)
        if n < G * (p + 2):
            assert not status[-1]

    def test_per_mask_g_equals_sweep_of_each_mask(self):
        # the masks pick G = 3, 3, 2, 2, and some fail at G = 3 and 4
        d = _two_group_dataset(2, 40, seed=44)
        masks, cache = self._masks(d.p), {}
        seed, restarts = self.SEED, self.RESTARTS
        ga_mod._score_masks(masks, d, "per-mask", POISSON, "caic", cache, seed, restarts, 4)
        for mask in masks:
            res = sweep(apply_mask(d, mask), 4, seed=seed, restarts=restarts, family=POISSON)
            assert [r.G for r in cache[mask.key]] == [r.G for r in res.rows if r.error is None]
            row = ga_mod.mask_row(cache[mask.key], "per-mask", "caic")
            assert row.G == res.best["caic"]
            assert row.caic == pytest.approx(res.rows[row.G - 1].caic, rel=1e-10)


def _handmade_model_and_data():
    """Two hard components; covariate x2 is constant inside each one."""
    n_half = 12
    rng = np.random.default_rng(19)
    x1 = rng.normal(size=2 * n_half)
    x2 = np.concatenate([np.zeros(n_half), np.ones(n_half)])
    X = np.column_stack([np.ones(2 * n_half), x1, x2])
    y = np.concatenate([rng.poisson(3.0, n_half), rng.poisson(40.0, n_half)])
    d = Dataset(y=y, X=X, names=("x1", "x2"))
    resp = np.zeros((2 * n_half, 2))
    resp[:n_half, 0] = 1.0
    resp[n_half:, 1] = 1.0
    comps = (
        ComponentParams(pi=0.5, beta=np.array([np.log(3.0), 0.0, 0.0])),
        ComponentParams(pi=0.5, beta=np.array([np.log(40.0), 0.0, 0.0])),
    )
    model = MixtureModel(
        family=POISSON,
        components=comps,
        logL=0.0,
        responsibilities=resp,
        converged=True,
        iterations=1,
        loglik_trace=np.array([0.0]),
    )
    return model, d


class TestReportComponents:
    def test_wald_interval_arithmetic(self, poisson_data):
        d = poisson_data(n=150, beta=(1.2, 0.4), seed=20)
        model = em_fit(d, 1, POISSON, seed=0, restarts=1)
        table = report_components(model, d)[0]
        for row in table["rows"]:
            assert row["lo"] == pytest.approx(row["beta"] - 1.96 * row["se"], abs=1e-10)
            assert row["hi"] == pytest.approx(row["beta"] + 1.96 * row["se"], abs=1e-10)

    def test_published_interval_fixture(self):
        # beta=-1.85, se=0.51 must reproduce the reported (-2.85, -0.85)
        # bounds once rounded to two decimals
        lo = -1.85 - 1.96 * 0.51
        hi = -1.85 + 1.96 * 0.51
        assert round(lo, 2) == -2.85
        assert round(hi, 2) == -0.85

    def test_constant_covariate_reported_unavailable(self):
        model, d = _handmade_model_and_data()
        tables = report_components(model, d)
        for table in tables:
            by_name = {row["name"]: row for row in table["rows"]}
            assert by_name["x2"]["beta"] is None
            assert by_name["x2"]["se"] is None
            assert by_name["x1"]["se"] is not None
            assert by_name["intercept"]["se"] is not None

    def test_intercept_listed_last(self, poisson_data):
        d = poisson_data(n=100, seed=21)
        model = em_fit(d, 1, POISSON, seed=0, restarts=1)
        rows = report_components(model, d)[0]["rows"]
        assert rows[-1]["name"] == "intercept"
        assert [r["name"] for r in rows[:-1]] == list(d.names)

    def test_requires_converged_model(self, poisson_data):
        import dataclasses

        d = poisson_data(n=60, seed=22)
        model = em_fit(d, 1, POISSON, seed=0, restarts=1)
        with pytest.raises(DomainError):
            report_components(dataclasses.replace(model, converged=False), d)


class TestComponentSummaries:
    def test_single_component_matches_dataset_stats(self, poisson_data):
        d = poisson_data(n=90, seed=23)
        model = em_fit(d, 1, POISSON, seed=0, restarts=1)
        summ = component_summaries(model, d)
        assert len(summ) == 1
        assert summ[0] == summary_stats(d)

    def test_hard_partition_matches_per_group_stats(self):
        model, d = _handmade_model_and_data()
        summ = component_summaries(model, d)
        lo_y = d.y[:12].astype(float)
        assert summ[0]["y"].mean == pytest.approx(lo_y.mean())
        assert summ[0]["y"].max == lo_y.max()
        assert summ[1]["x2"].mean == 1.0

    def test_single_row_component_reports_zero_sd(self):
        model, d = _handmade_model_and_data()
        resp = np.zeros((d.n, 2))
        resp[0, 0] = 1.0
        resp[1:, 1] = 1.0
        import dataclasses

        skewed = dataclasses.replace(model, responsibilities=resp)
        summ = component_summaries(skewed, d)
        assert summ[0]["y"].sd == 0.0

    def test_empty_component_reported_as_none(self):
        model, d = _handmade_model_and_data()
        resp = np.column_stack([np.full(d.n, 0.6), np.full(d.n, 0.4)])
        import dataclasses

        lopsided = dataclasses.replace(model, responsibilities=resp)
        summ = component_summaries(lopsided, d)
        assert summ[0] is not None
        assert summ[1] is None
