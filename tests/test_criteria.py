import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ortho_group

from countmix import (
    NB2,
    POISSON,
    ComponentParams,
    Dataset,
    MixtureSpec,
    aic,
    c1_complexity,
    caic,
    count_params,
    em_fit,
    gen_regression_mixture,
    icomp,
    mixture_loglik,
    observed_info,
    sbc,
    score_model,
)
from countmix.criteria import ifim_condition
from countmix.errors import DomainError


class TestCountParams:
    def test_poisson_examples(self):
        assert count_params(1, 1, POISSON) == 2
        assert count_params(2, 1, POISSON) == 5

    def test_nb2_example(self):
        assert count_params(4, 2, NB2) == 4 * 3 + 3 + 4

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            count_params(0, 1, POISSON)
        with pytest.raises(DomainError):
            count_params(1, -1, POISSON)

    @given(G=st.integers(1, 20), p=st.integers(0, 30), nb2=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_one_more_component_costs_p_plus_two(self, G, p, nb2):
        family = NB2 if nb2 else POISSON
        step = count_params(G + 1, p, family) - count_params(G, p, family)
        assert step == (p + 2) + (1 if nb2 else 0)


class TestPenalizedScores:
    def test_aic_examples(self):
        assert aic(-100.0, 3) == 206.0
        assert aic(0.0, 1) == 2.0

    def test_sbc_example(self):
        assert sbc(-100.0, 5, 100) == pytest.approx(200.0 + 5.0 * math.log(100.0))

    def test_sbc_single_observation(self):
        assert sbc(-7.0, 4, 1) == 14.0

    def test_caic_example(self):
        assert caic(-100.0, 5, 100) == pytest.approx(200.0 + 5.0 * (math.log(100.0) + 1.0))

    @given(
        logL=st.floats(-1e6, 0.0),
        n_k=st.integers(1, 50),
        n=st.integers(1, 100000),
    )
    @settings(max_examples=200, deadline=None)
    def test_caic_minus_sbc_is_nk(self, logL, n_k, n):
        assert caic(logL, n_k, n) - sbc(logL, n_k, n) == pytest.approx(n_k, rel=1e-12)

    @given(
        logL=st.floats(-1e5, 0.0),
        n_k=st.integers(1, 50),
        n=st.integers(8, 100000),
    )
    @settings(max_examples=200, deadline=None)
    def test_penalty_ordering_above_e_squared(self, logL, n_k, n):
        # 2 < log n < log n + 1 once n > e^2
        assert aic(logL, n_k) < sbc(logL, n_k, n) < caic(logL, n_k, n)

    def test_nk_below_one_rejected(self):
        with pytest.raises(DomainError):
            aic(-1.0, 0)


class TestObservedInfo:
    def test_intercept_only_poisson_closed_form(self, intercept_only):
        d = intercept_only([3, 5, 2, 8, 4, 6, 1, 0, 9, 2])
        model = em_fit(d, 1, POISSON, seed=0, restarts=1)
        info = observed_info(model, d)
        assert info.shape == (1, 1)
        assert info[0, 0] == pytest.approx(d.n * d.y.mean(), rel=1e-5)

    # (family, true weights, betas, alphas, n, data seed, EM seed): G = 3
    # exercises the two-logit weight block, NB-2 the beta-log(alpha) blocks
    @pytest.mark.parametrize(
        "family, weights, betas, alphas, n, seed, em_seed",
        [
            (POISSON, (0.45, 0.55), ((0.6, 0.9), (2.4, -0.5)), (), 120, 3, 1),
            (POISSON, (0.3, 0.3, 0.4), ((0.2, 0.9), (1.6, -0.6), (3.0, 0.3)), (), 300, 5, 2),
            (NB2, (0.4, 0.6), ((0.5, 0.8), (2.5, -0.4)), (0.3, 0.2), 300, 6, 3),
        ],
        ids=["poisson_g2", "poisson_g3", "nb2_g2"],
    )
    def test_matches_second_difference_oracle(
        self, family, weights, betas, alphas, n, seed, em_seed
    ):
        spec = MixtureSpec(weights=weights, betas=betas, alphas=alphas)
        d, _ = gen_regression_mixture(spec, n, seed=seed)
        G = len(weights)
        model = em_fit(d, G, family, seed=em_seed, restarts=2)
        assert model.converged and model.G == G
        if family == NB2:
            assert all(1e-3 < c.alpha < 10.0 for c in model.components)
        info = observed_info(model, d)

        # independent oracle: second differences of the mixture log-likelihood
        # under the documented free-parameter layout [betas, logits, log alphas]
        k = d.p + 1

        def loglik_at(theta):
            logits = np.append(theta[G * k : G * k + G - 1], 0.0)
            pis = np.exp(logits) / np.exp(logits).sum()
            log_alphas = theta[G * k + G - 1 :] if family == NB2 else np.full(G, -np.inf)
            comps = tuple(
                ComponentParams(
                    pi=float(pis[g]),
                    beta=theta[g * k : (g + 1) * k],
                    alpha=float(np.exp(log_alphas[g])),
                )
                for g in range(G)
            )
            return mixture_loglik(comps, d, family)

        pis = np.array([c.pi for c in model.components])
        theta0 = np.concatenate(
            [c.beta for c in model.components]
            + [np.log(pis[:-1] / pis[-1])]
            + ([np.log([c.alpha for c in model.components])] if family == NB2 else [])
        )
        s = theta0.size
        assert info.shape == (s, s)
        H = np.zeros((s, s))
        h = 1e-4
        for i in range(s):
            for j in range(s):
                ei = np.zeros(s)
                ej = np.zeros(s)
                ei[i] = h * (1.0 + abs(theta0[i]))
                ej[j] = h * (1.0 + abs(theta0[j]))
                H[i, j] = (
                    loglik_at(theta0 + ei + ej)
                    - loglik_at(theta0 + ei - ej)
                    - loglik_at(theta0 - ei + ej)
                    + loglik_at(theta0 - ei - ej)
                ) / (4.0 * ei[i] * ej[j])
        oracle = -(H + H.T) / 2.0
        rel = np.max(np.abs(info - oracle)) / np.max(np.abs(oracle))
        assert rel < 1e-4

    def test_symmetric_by_construction(self):
        spec = MixtureSpec(weights=(0.5, 0.5), betas=((0.5, 0.7), (2.2, -0.3)))
        d, _ = gen_regression_mixture(spec, 150, seed=4)
        model = em_fit(d, 2, POISSON, seed=2, restarts=2)
        info = observed_info(model, d)
        assert np.max(np.abs(info - info.T)) == 0.0

    def test_requires_converged_model(self, poisson_data):
        import dataclasses

        d = poisson_data(n=40, seed=5)
        model = em_fit(d, 1, POISSON, seed=0, restarts=1)
        broken = dataclasses.replace(model, converged=False)
        with pytest.raises(DomainError):
            observed_info(broken, d)


class TestIcomp:
    def test_identity_info_scores_minus_two_logl(self):
        assert icomp(-100.0, np.eye(6)) == 200.0

    def test_scalar_matrices_have_zero_complexity(self):
        assert c1_complexity(np.eye(4)) == 0.0
        assert c1_complexity(3.7 * np.eye(9)) == pytest.approx(0.0, abs=1e-12)

    def test_c1_nonnegative_on_random_spd(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = int(rng.integers(2, 8))
            A = rng.normal(size=(s, s))
            sigma = A @ A.T + 0.1 * np.eye(s)
            assert c1_complexity(sigma) >= -1e-12

    def test_orthogonal_conjugation_invariance(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            s = 5
            A = rng.normal(size=(s, s))
            sigma = A @ A.T + 0.5 * np.eye(s)
            Q = ortho_group.rvs(s, random_state=seed)
            assert c1_complexity(Q @ sigma @ Q.T) == pytest.approx(
                c1_complexity(sigma), abs=1e-9
            )

    def test_near_singular_is_unavailable_not_error(self):
        info = np.diag([1.0, 1e-14, 2.0])
        assert icomp(-10.0, info) is None

    def test_huge_condition_number_unavailable(self):
        info = np.diag([1e9, 1e-4])
        assert icomp(-10.0, info) is None

    def test_negative_eigenvalue_unavailable(self):
        assert icomp(-10.0, np.diag([1.0, -0.5])) is None

    def test_asymmetric_input_is_contract_violation(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(DomainError):
            icomp(-1.0, bad)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(4, 4))
        info = A @ A.T + np.eye(4)
        assert icomp(-5.0, info) == icomp(-5.0, info)


class TestScoreModel:
    def test_internal_consistency(self):
        spec = MixtureSpec(weights=(0.5, 0.5), betas=((0.5, 0.8), (2.5, -0.4)))
        d, _ = gen_regression_mixture(spec, 200, seed=5)
        model = em_fit(d, 2, POISSON, seed=1, restarts=2)
        row = score_model(model, d)
        assert row.aic == pytest.approx(-2.0 * row.logL + 2.0 * row.n_k, abs=1e-12)
        assert row.n_k == count_params(2, d.p, POISSON)

    def test_pure_function(self):
        spec = MixtureSpec(weights=(0.5, 0.5), betas=((0.5, 0.8), (2.5, -0.4)))
        d, _ = gen_regression_mixture(spec, 150, seed=6)
        model = em_fit(d, 2, POISSON, seed=2, restarts=1)
        assert score_model(model, d) == score_model(model, d)

    def test_separated_fixture_prefers_two_components(self):
        spec = MixtureSpec(weights=(0.45, 0.55), betas=((0.4, 0.9), (3.2, -0.6)))
        d, _ = gen_regression_mixture(spec, 400, seed=7)
        r1 = score_model(em_fit(d, 1, POISSON, seed=3, restarts=1), d)
        r2 = score_model(em_fit(d, 2, POISSON, seed=3, restarts=2), d)
        assert r2.aic < r1.aic
        assert r2.sbc < r1.sbc
        assert r2.caic < r1.caic
        assert r2.icomp is not None and r1.icomp is not None
        assert r2.icomp < r1.icomp

    def test_tiny_sample_overparameterized_icomp_unavailable(self):
        # G=5 on 40 rows: redundant components make the information matrix
        # numerically singular, so ICOMP drops out while AIC/SBC/CAIC remain
        rng = np.random.default_rng(101)
        X = np.column_stack([np.ones(40), rng.normal(size=40)])
        y = rng.poisson(np.exp(1.2 + 0.5 * X[:, 1]))
        d = Dataset(y=y, X=X, names=("x",))
        model = em_fit(d, 5, POISSON, seed=1, restarts=2)
        if model.G == 5:  # a collapse to fewer components is also acceptable
            row = score_model(model, d)
            assert row.icomp is None
            assert np.isfinite(row.aic)
            assert np.isfinite(row.sbc)
            assert np.isfinite(row.caic)

    def test_ifim_condition_reported_when_stable(self):
        spec = MixtureSpec(weights=(0.5, 0.5), betas=((0.5, 0.8), (2.5, -0.4)))
        d, _ = gen_regression_mixture(spec, 200, seed=8)
        model = em_fit(d, 2, POISSON, seed=4, restarts=1)
        row = score_model(model, d)
        if row.icomp is not None:
            assert row.ifim_condition is not None and row.ifim_condition >= 1.0

    def test_ifim_condition_none_when_not_pd(self):
        assert ifim_condition(np.diag([1.0, -1.0])) is None
