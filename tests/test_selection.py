import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmix import (
    NB2,
    POISSON,
    Dataset,
    MixtureSpec,
    choose_family,
    fit_nb2,
    gen_regression_mixture,
    select_best,
    sweep,
)
from countmix import em_fit, score_model
from countmix import mixture as mixture_mod
from countmix import selection as selection_mod
from countmix.criteria import ScoreRow
from countmix.errors import CountmixError, DomainError, NoScoreError, SweepError


def _row(G, value, criterion="aic", available=True):
    kwargs = dict(
        G=G, logL=-10.0, n_k=2, aic=np.nan, sbc=np.nan, caic=np.nan,
        icomp=None, ifim_condition=None,
    )
    if criterion == "icomp":
        kwargs["icomp"] = value if available else None
        kwargs["aic"] = 0.0
        kwargs["sbc"] = 0.0
        kwargs["caic"] = 0.0
    else:
        kwargs[criterion] = value
    return ScoreRow(**kwargs)


# literal score columns from the published G = 1..5 comparison table
PUBLISHED_AIC = (2931.14, 1392.98, 1400.08, 1428.51, 1455.42)
PUBLISHED_CAIC = (2939.74, 1414.47, 1434.46, 1475.79, 1515.59)
PUBLISHED_ICOMP = (2944.77, 1416.78, 1434.19, 1472.49, None)


class TestSelectBest:
    def test_published_aic_column_selects_two(self):
        rows = [_row(g + 1, v, "aic") for g, v in enumerate(PUBLISHED_AIC)]
        assert select_best(rows, "aic") == 2

    def test_published_caic_column_selects_two(self):
        rows = [_row(g + 1, v, "caic") for g, v in enumerate(PUBLISHED_CAIC)]
        assert select_best(rows, "caic") == 2

    def test_published_icomp_column_honors_missing_entry(self):
        rows = [
            _row(g + 1, v, "icomp", available=v is not None)
            for g, v in enumerate(PUBLISHED_ICOMP)
        ]
        assert select_best(rows, "icomp") == 2

    def test_ties_go_to_smallest_g(self):
        rows = [_row(g, 5.0, "aic") for g in (1, 2, 3)]
        assert select_best(rows, "aic") == 1

    def test_unavailable_everywhere_raises(self):
        rows = [_row(g, None, "icomp", available=False) for g in (1, 2)]
        with pytest.raises(NoScoreError):
            select_best(rows, "icomp")

    def test_unknown_criterion_rejected(self):
        with pytest.raises(DomainError):
            select_best([_row(1, 1.0)], "dic")

    def test_bic_alias(self):
        rows = [_row(1, 9.0, "sbc"), _row(2, 4.0, "sbc")]
        assert select_best(rows, "bic") == 2

    def test_error_rows_skipped(self):
        rows = [
            ScoreRow(G=1, logL=np.nan, n_k=0, aic=np.nan, sbc=np.nan, caic=np.nan,
                     icomp=None, ifim_condition=None, error="boom"),
            _row(2, 3.0, "aic"),
        ]
        assert select_best(rows, "aic") == 2

    @given(shift=st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_argmin_invariant_under_constant_shift(self, shift):
        rows = [_row(g + 1, v, "aic") for g, v in enumerate(PUBLISHED_AIC)]
        shifted = [_row(g + 1, v + shift, "aic") for g, v in enumerate(PUBLISHED_AIC)]
        assert select_best(rows, "aic") == select_best(shifted, "aic")


class TestChooseFamily:
    def test_equidispersed_fixture_elects_poisson(self, poisson_data):
        for seed in range(3):
            assert choose_family(poisson_data(n=300, seed=seed)) == POISSON

    def test_overdispersed_fixture_elects_nb2(self):
        rng = np.random.default_rng(31)
        X = np.column_stack([np.ones(300), rng.normal(size=300)])
        y = rng.poisson(rng.gamma(1.0, np.exp(1.5 + 0.4 * X[:, 1])))
        d = Dataset(y=y, X=X, names=("x",))
        assert choose_family(d) == NB2

    def test_alpha_exactly_at_threshold_elects_nb2(self):
        rng = np.random.default_rng(32)
        X = np.column_stack([np.ones(400), rng.normal(size=400)])
        y = rng.poisson(rng.gamma(2.0, 0.5 * np.exp(1.2 + 0.3 * X[:, 1])))
        d = Dataset(y=y, X=X, names=("x",))
        fitted_alpha = fit_nb2(d).alpha
        # strict-less rule: a fitted alpha equal to the threshold is NB-2
        assert choose_family(d, threshold=fitted_alpha) == NB2
        assert choose_family(d, threshold=fitted_alpha * (1.0 + 1e-9)) == POISSON

    def test_gate_fit_failure_falls_back_to_ratio(self, intercept_only, monkeypatch):
        # the fallback ratio is unconditional, so use a flat-mean fixture
        rng = np.random.default_rng(33)
        d = intercept_only(rng.poisson(6.0, size=200))

        def broken(*args, **kwargs):
            raise CountmixError("forced for test")

        monkeypatch.setattr(selection_mod.countglm, "fit_nb2", broken)
        with pytest.warns(RuntimeWarning):
            family = choose_family(d)
        assert family == POISSON  # equidispersed ratio stays below the gate


def _sep_spec():
    return MixtureSpec(weights=(0.45, 0.55), betas=((0.4, 0.9), (3.2, -0.6)))


class TestSweep:
    def test_single_g(self, poisson_data):
        d = poisson_data(n=100, seed=41)
        res = sweep(d, 1, seed=0, restarts=1, family=POISSON)
        assert len(res.rows) == 1
        assert all(v == 1 for v in res.best.values())

    def test_two_component_fixture(self):
        d, _ = gen_regression_mixture(_sep_spec(), 400, seed=42)
        res = sweep(d, 3, seed=1, restarts=2, family=POISSON)
        assert res.family_used == POISSON
        assert res.best["aic"] == 2
        assert res.best["caic"] == 2
        assert [r.G for r in res.rows] == [1, 2, 3]

    def test_deterministic(self):
        d, _ = gen_regression_mixture(_sep_spec(), 250, seed=43)
        a = sweep(d, 3, seed=2, restarts=2, family=POISSON)
        b = sweep(d, 3, seed=2, restarts=2, family=POISSON)
        assert a.rows == b.rows
        assert a.best == b.best

    def test_failed_g_marked_not_fatal(self, monkeypatch):
        d, _ = gen_regression_mixture(_sep_spec(), 250, seed=45)
        real = selection_mod._fit_g

        def failing_for_three(data, G, family, seed, restarts):
            if G == 3:
                raise CountmixError("forced for test")
            return real(data, G, family, seed, restarts)

        monkeypatch.setattr(selection_mod, "_fit_g", failing_for_three)
        res = sweep(d, 3, seed=4, restarts=1, family=POISSON)
        marked = [r for r in res.rows if r.error is not None]
        assert [r.G for r in marked] == [3]
        assert 3 not in res.models
        assert res.best["aic"] == 2

    def test_every_g_failing_raises_sweep_error(self, poisson_data, monkeypatch):
        d = poisson_data(n=60, seed=46)

        def always_failing(*args, **kwargs):
            raise CountmixError("forced for test")

        monkeypatch.setattr(selection_mod, "_fit_g", always_failing)
        with pytest.raises(SweepError) as err:
            sweep(d, 2, seed=0, restarts=1, family=POISSON)
        assert set(err.value.diagnostics) == {1, 2}

    @pytest.mark.parametrize("G_max", [0, -1])
    def test_g_max_below_one_is_an_input_error(self, poisson_data, G_max):
        d = poisson_data(n=60, seed=46)
        with pytest.raises(DomainError, match="G_max"):
            sweep(d, G_max, seed=0, restarts=1, family=POISSON)

    def test_grouped_fixture_scores_finite_and_ordered(self):
        from countmix import gen_grouped_counts

        d, _, _ = gen_grouped_counts(seed=48, n_per_group=40)
        res = sweep(d, 3, seed=6, restarts=2, family=POISSON)
        for row in res.rows:
            assert row.error is None
            assert np.isfinite(row.aic)
            assert row.aic < row.sbc < row.caic
        assert res.best["caic"] >= 2  # the grouped data are heterogeneous

    def test_best_indexes_available_rows(self):
        d, _ = gen_regression_mixture(_sep_spec(), 300, seed=47)
        res = sweep(d, 4, seed=5, restarts=1, family=POISSON)
        scored = {r.G for r in res.rows if r.error is None}
        assert set(res.best.values()) <= scored


@pytest.mark.filterwarnings("ignore:count-mixture initialization left an empty group")
class TestExactG:
    """A sweep fits each G once, at exactly G: a failed G is never refitted at G-1."""

    @pytest.mark.parametrize("seed, failed", [(3, [4, 5]), (12, [3])])
    def test_one_em_run_per_g(self, binary_split_data, monkeypatch, seed, failed):
        d = binary_split_data(seed)
        real = mixture_mod._run_em
        fitted_g = []

        def counting(data, family, starts, masks):
            fitted_g.append(starts.shape[2])
            return real(data, family, starts, masks)

        monkeypatch.setattr(mixture_mod, "_run_em", counting)
        res = sweep(d, 5, seed=0, restarts=2, family=POISSON)
        assert fitted_g == [1, 2, 3, 4, 5]
        assert [r.G for r in res.rows if r.error is not None] == failed

    @pytest.mark.parametrize("seed", [3, 12])
    def test_failed_row_names_g_and_every_restart(self, binary_split_data, seed):
        res = sweep(binary_split_data(seed), 5, seed=0, restarts=2, family=POISSON)
        failed = [r for r in res.rows if r.error is not None]
        assert failed
        for row in failed:
            assert row.error.startswith(f"all restarts failed at G={row.G}: restart 0 discarded: ")
            assert "; restart 1 discarded: " in row.error
            assert "refitted" not in row.error
            assert row.G not in res.models
            assert f"G={row.G} failed: {row.error}" in res.warnings

    @pytest.mark.parametrize("seed", [3, 12])
    def test_kept_rows_equal_em_fit_bitwise(self, binary_split_data, seed):
        d = binary_split_data(seed)
        res = sweep(d, 5, seed=0, restarts=2, family=POISSON)
        kept = [r for r in res.rows if r.error is None]
        assert len(kept) >= 2
        for row in kept:
            ref = em_fit(d, row.G, POISSON, seed=0, restarts=2)
            model = res.models[row.G]
            assert row == score_model(ref, d)
            assert model.logL == ref.logL and model.warnings == ref.warnings
            assert np.array_equal(model.loglik_trace, ref.loglik_trace)
            assert np.array_equal(model.responsibilities, ref.responsibilities)
            for a, b in zip(model.components, ref.components, strict=True):
                assert a.pi == b.pi and a.alpha == b.alpha
                assert np.array_equal(a.beta, b.beta)
