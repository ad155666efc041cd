import itertools
import math

import numpy as np
import pytest
from scipy import stats

from countmix import (
    Dataset,
    countglm,
    dispersion_stat,
    em_fit,
    fit_nb2,
    fit_poisson,
    nb2_loglik,
    nb2_loglik_grad,
    poisson_loglik,
    poisson_loglik_grad,
)
from countmix.errors import (
    DimensionError,
    DomainError,
    NumericOverflowError,
    SingularDesignError,
)
from numdiff import jacobian_central


class TestPoissonLoglik:
    def test_zero_beta_zero_count(self, intercept_only):
        d = intercept_only([0])
        assert poisson_loglik(np.zeros(1), d) == -1.0

    def test_count_two_mean_two(self, intercept_only):
        d = intercept_only([2])
        got = poisson_loglik(np.array([np.log(2.0)]), d)
        assert got == pytest.approx(np.log(2.0) - 2.0, abs=1e-12)

    def test_matches_pmf_product_oracle(self, poisson_data):
        d = poisson_data(n=25, seed=8)
        beta = np.array([1.2, 0.3])
        oracle = stats.poisson.logpmf(d.y, np.exp(d.X @ beta)).sum()
        assert poisson_loglik(beta, d) == pytest.approx(oracle, rel=1e-12)

    def test_weights_scale_contributions(self, poisson_data):
        d = poisson_data(n=10, seed=1)
        beta = np.array([1.0, 0.1])
        w = np.full(10, 0.5)
        assert poisson_loglik(beta, d, w) == pytest.approx(
            0.5 * poisson_loglik(beta, d), rel=1e-12
        )

    def test_weights_outside_unit_interval_rejected(self, poisson_data):
        d = poisson_data(n=5)
        with pytest.raises(DomainError):
            poisson_loglik(np.array([1.0, 0.0]), d, w=np.full(5, 1.5))

    def test_nonfinite_eta_names_row(self, poisson_data):
        d = poisson_data(n=5, seed=2)
        with pytest.raises(NumericOverflowError) as err:
            poisson_loglik(np.array([1e308, 1e308]), d)
        assert err.value.row is not None
        # the smallest positive alpha makes theta = 1/alpha infinite: every
        # row with y > 0 then has a NaN NB-2 density at a finite eta
        d = Dataset(y=np.array([0, 0, 3, 1]), X=np.ones((4, 1)), names=())
        with pytest.raises(NumericOverflowError, match="NB-2 log-density") as err:
            nb2_loglik(np.zeros(1), 5e-324, d)
        assert err.value.row == 2


class TestNb2Loglik:
    def test_alpha_must_be_positive(self, intercept_only):
        d = intercept_only([1, 2])
        with pytest.raises(DomainError):
            nb2_loglik(np.zeros(1), 0.0, d)
        with pytest.raises(DomainError):
            nb2_loglik(np.zeros(1), -1.0, d)

    def test_zero_count_closed_form(self, intercept_only):
        d = intercept_only([0])
        mu, alpha = 3.0, 0.7
        got = nb2_loglik(np.array([np.log(mu)]), alpha, d)
        assert got == pytest.approx(-(1.0 / alpha) * np.log1p(alpha * mu), rel=1e-12)

    def test_frozen_gamma_oracle_value(self, intercept_only):
        # scipy.stats.nbinom.logpmf(3, n=1/0.5, p=1/(1+0.5*2)) == -2.0794415416798353
        d = intercept_only([3])
        got = nb2_loglik(np.array([np.log(2.0)]), 0.5, d)
        assert got == pytest.approx(-2.0794415416798353, abs=1e-12)

    def test_matches_scipy_nbinom(self, poisson_data):
        d = poisson_data(n=20, seed=5)
        beta, alpha = np.array([1.1, -0.2]), 0.8
        mu = np.exp(d.X @ beta)
        oracle = stats.nbinom.logpmf(d.y, 1.0 / alpha, 1.0 / (1.0 + alpha * mu)).sum()
        assert nb2_loglik(beta, alpha, d) == pytest.approx(oracle, rel=1e-10)

    def test_tiny_alpha_is_poisson_limit(self, poisson_data):
        for seed in range(3):
            d = poisson_data(n=80, seed=seed)
            beta = np.array([1.4, 0.3])
            diff = nb2_loglik(beta, 1e-10, d) - poisson_loglik(beta, d)
            assert abs(diff) < 1e-4


class TestPolygammaRatio:
    """F(y + theta) - F(theta) at integer counts, F = log Gamma, digamma, trigamma."""

    THETAS = (1e-4, 0.05, 1.0, 15.9, 16.0, 1e3, 1e5, 1e7)
    # the term of the rising sum F(y + theta) - F(theta) = sum_{j<y} term(theta + j)
    TERMS = {-1: math.log, 0: lambda z: 1.0 / z, 1: lambda z: -1.0 / (z * z)}

    @staticmethod
    def _counts():
        t = countglm.Y_TABLE
        return np.array([0, 1, t - 1, t + 1, 150, 883, 3000, 20000])

    @pytest.mark.parametrize("order", [-1, 0, 1])
    def test_block_matches_exactly_summed_rising_sums(self, order):
        y = self._counts()
        got = countglm._polygamma_ratio(y, np.array(self.THETAS)[:, None], order)
        assert got.shape == (len(self.THETAS), y.size)
        for c, theta in enumerate(self.THETAS):
            for i, count in enumerate(y.tolist()):
                want = math.fsum(self.TERMS[order](theta + j) for j in range(count))
                if count == 0:
                    assert got[c, i] == 0.0
                else:
                    assert abs(got[c, i] - want) <= 1e-13 * abs(want), (theta, count)

    @pytest.mark.parametrize("order", [-1, 0, 1])
    def test_scalar_theta_matches_scipy_at_moderate_theta(self, order):
        from scipy.special import digamma, gammaln, polygamma

        f = {-1: gammaln, 0: digamma, 1: lambda z: polygamma(1, z)}[order]
        y = self._counts()
        for theta in (t for t in self.THETAS if t <= 100.0):
            got = countglm._polygamma_ratio(y, theta, order)
            assert got.shape == y.shape
            np.testing.assert_allclose(got, f(y + theta) - f(theta), rtol=1e-13, atol=0.0)
            assert got[0] == 0.0


class TestGradients:
    def test_poisson_gradient_matches_fd(self, poisson_data):
        rng = np.random.default_rng(11)
        d = poisson_data(n=60, seed=11)
        for _ in range(25):
            beta = rng.normal(0.5, 0.6, size=2)
            g = poisson_loglik_grad(beta, d)
            fd = jacobian_central(
                lambda b: np.array([poisson_loglik(b, d)]), beta, rel_step=1e-6
            )[0]
            assert np.max(np.abs(g - fd) / (1.0 + np.abs(fd))) < 1e-5

    def test_nb2_gradient_matches_fd(self, poisson_data):
        rng = np.random.default_rng(12)
        d = poisson_data(n=60, seed=12)
        for _ in range(25):
            beta = rng.normal(0.5, 0.6, size=2)
            alpha = float(rng.uniform(0.05, 3.0))
            g = nb2_loglik_grad(beta, alpha, d)
            theta = np.concatenate([beta, [alpha]])
            fd = jacobian_central(
                lambda t: np.array([nb2_loglik(t[:2], t[2], d)]), theta, rel_step=1e-6
            )[0]
            assert np.max(np.abs(g - fd) / (1.0 + np.abs(fd))) < 1e-5

    # 1e-7 and 1e-9 put theta = 1/alpha above 1e6, on the rising-sum branch;
    # the "poisson" case checks the Poisson gradient and information over beta
    @pytest.mark.parametrize(
        "alpha", [1e-9, 1e-7, 1e-3, 0.3, 2.0, 50.0, pytest.param(None, id="poisson")]
    )
    def test_nb2_joint_information_matches_fd(self, alpha):
        rng = np.random.default_rng(13)
        n = 80
        X = np.column_stack([np.ones(n), rng.normal(size=n), rng.uniform(size=n)])
        y = rng.poisson(np.exp(1.0 + 0.3 * X[:, 1]) * rng.gamma(2.0, 0.5, n))
        d = Dataset(y=y, X=X, names=("a", "b"))
        w = rng.uniform(0.0, 1.0, n)
        family = "poisson" if alpha is None else "nb2"
        x = np.array([0.9, 0.25, 0.1])  # beta, then log alpha for NB-2
        if alpha is not None:
            x = np.append(x, np.log(alpha))
        grad, info = (a[0] for a in countglm._derivs(family, x[None], d, w[None]))
        fd_grad = jacobian_central(
            lambda t: countglm._loglik(family, t[None], d, w[None]), x, rel_step=1e-6
        )[0]
        assert np.max(np.abs(grad - fd_grad) / (1.0 + np.abs(fd_grad))) < 1e-5
        J = jacobian_central(
            lambda t: countglm._derivs(family, t[None], d, w[None])[0][0], x, rel_step=1e-6
        )
        fd_info = -(J + J.T) / 2.0
        np.testing.assert_allclose(info, info.T, rtol=1e-12)
        assert np.max(np.abs(info - fd_info)) <= 1e-6 * np.max(np.abs(info))

    @staticmethod
    def _stacked_beta_information(d, W, i_ee):
        """Reference: X' diag(w_c i_c) X of each weight row c as one stacked product."""
        weighted = np.where(W > 0.0, W * i_ee, 0.0)
        return d.X.T @ (d.X * weighted[:, :, None])

    @pytest.mark.parametrize("family", ["poisson", "nb2"])
    @pytest.mark.parametrize("k", [1, 3, 9])
    @pytest.mark.parametrize("C", [1, 2, 8, 256])
    def test_beta_information_matches_stacked_product(self, family, k, C):
        # the column-products form is the same sums in another order; terms
        # that are not finite where the weight is 0 add nothing to either
        rng = np.random.default_rng(100 * C + 10 * k + (family == "nb2"))
        n = 60
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        d = Dataset(y=rng.poisson(3.0, n), X=X, names=tuple(f"x{j}" for j in range(1, k)))
        W = rng.uniform(size=(C, n))
        W[rng.random((C, n)) < 0.25] = 0.0
        beta = rng.normal(0.0, 0.3, size=(C, k))
        alpha = rng.uniform(0.05, 3.0, size=(C, 1)) if family == "nb2" else None
        with np.errstate(**countglm._QUIET):
            rows = countglm._row_derivs(family, beta, alpha, d)
            junk = np.where(rng.random((C, n)) < 0.5, np.inf, np.nan)
            rows = tuple(r if r is None else np.where(W > 0.0, r, junk) for r in rows)
            info = countglm._weighted_derivs(d, W, rows)[1]
            want = self._stacked_beta_information(d, W, rows[1])
        got = info[:, :k, :k]
        assert np.isfinite(info).all()
        scale = np.abs(want).max(axis=(1, 2))
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-13 * scale)


class TestFitPoisson:
    def test_intercept_only_closed_form(self, intercept_only):
        fit = fit_poisson(intercept_only([1, 2, 3]))
        assert fit.beta[0] == pytest.approx(np.log(2.0), abs=1e-10)
        assert fit.alpha == 0.0
        assert fit.converged

    def test_parameter_recovery_within_three_se(self, poisson_data):
        d = poisson_data(n=2000, beta=(1.0, 0.5), seed=21)
        fit = fit_poisson(d)
        assert fit.converged
        for est, truth, se in zip(fit.beta, (1.0, 0.5), fit.se):
            assert abs(est - truth) < 3.0 * se

    def test_first_order_condition(self, poisson_data):
        for seed in range(4):
            d = poisson_data(n=120, seed=seed)
            fit = fit_poisson(d)
            assert fit.converged
            assert np.max(np.abs(poisson_loglik_grad(fit.beta, d))) < 1e-6

    def test_column_permutation_invariance(self, poisson_data):
        d = poisson_data(n=150, beta=(1.0, 0.4, -0.3), seed=31)
        perm = Dataset(
            y=d.y,
            X=d.X[:, [0, 2, 1]],
            names=(d.names[1], d.names[0]),
        )
        f1, f2 = fit_poisson(d), fit_poisson(perm)
        assert f1.logL == pytest.approx(f2.logL, abs=1e-8)
        assert f1.beta[1] == pytest.approx(f2.beta[2], abs=1e-7)
        assert f1.beta[2] == pytest.approx(f2.beta[1], abs=1e-7)

    def test_unit_weights_equal_unweighted(self, poisson_data):
        d = poisson_data(n=90, seed=7)
        a = fit_poisson(d)
        b = fit_poisson(d, w=np.ones(d.n))
        np.testing.assert_allclose(a.beta, b.beta, atol=1e-10)
        assert a.logL == pytest.approx(b.logL, abs=1e-10)

    def test_singular_design_names_columns(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        X = np.column_stack([np.ones(30), x, 2.0 * x])
        d = Dataset(y=rng.poisson(3.0, 30), X=X, names=("a", "b"))
        with pytest.raises(SingularDesignError) as err:
            fit_poisson(d)
        assert err.value.columns  # at least one dependent column named
        assert set(err.value.columns) <= {"intercept", "a", "b"}

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("c", [1.5, 123.4, 2020.7])
    def test_constant_covariate_is_named_not_the_intercept(self, c, weighted):
        # 123.4 and 2020.7 have no short binary form: centring leaves rounding
        # noise in the constant column, which must still count as zero
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(40), rng.normal(size=40), np.full(40, c)])
        d = Dataset(y=rng.poisson(3.0, 40), X=X, names=("x1", "x2"))
        w = rng.uniform(0.0, 1.0, 40) if weighted else None
        with pytest.raises(SingularDesignError) as err:
            countglm.check_design_rank(d, w)
        assert err.value.columns == ("x2",)

    @staticmethod
    def _designs():
        rng = np.random.default_rng(5)
        n = 60
        z = rng.normal(size=(n, 3))
        yield "random", z
        yield "scaled", z * np.array([1e-3, 1.0, 1e4])
        yield "offset", np.column_stack([1e4 + z[:, 0], z[:, 1:]])
        yield "sum", np.column_stack([z[:, :2], z[:, 0] + z[:, 1]])
        yield "duplicate", np.column_stack([z[:, 0], z[:, 0], z[:, 1]])
        yield "near_1e-6", np.column_stack([z[:, 0], z[:, 0] + 1e-6 * z[:, 1]])
        yield "near_1e-17", np.column_stack([z[:, 0], z[:, 0] + 1e-17 * z[:, 1]])
        yield "affine", np.column_stack([z[:, 0], 3.0 - 2.0 * z[:, 0]])

    def test_rank_decisions_match_scipy_pivoted_qr(self):
        import scipy.linalg

        rng = np.random.default_rng(6)
        for name, Z in self._designs():
            n, p = Z.shape
            X = np.column_stack([np.ones(n), Z])
            d = Dataset(y=rng.poisson(2.0, n), X=X, names=tuple(f"z{j}" for j in range(p)))
            w = rng.uniform(0.0, 1.0, n)
            w[:5] = 0.0  # rows below the weight floor are excluded
            for weights in (None, w):
                ww = np.ones(n) if weights is None else weights
                active = ww >= countglm.WEIGHT_FLOOR
                A = X[active] * np.sqrt(ww[active])[:, None]
                R = scipy.linalg.qr(A, mode="r", pivoting=True)[0]
                diag = np.abs(np.diag(R))
                rank = int((diag > diag.max() * max(A.shape) * np.finfo(float).eps).sum())
                if rank == p + 1:
                    countglm.check_design_rank(d, weights)
                    continue
                with pytest.raises(SingularDesignError) as err:
                    countglm.check_design_rank(d, weights)
                assert len(err.value.columns) == p + 1 - rank, name

    @staticmethod
    def _near_threshold_designs():
        # z0 and z0 + 10^-e z1: full rank for small e, numerically dependent
        # for large e, and near the check's tolerance in between
        rng = np.random.default_rng(8)
        z = rng.normal(size=(60, 3))
        for e in range(6, 18):
            near = z[:, 0] + 10.0**-e * z[:, 1]
            yield f"near_{e}", np.column_stack([z[:, 0], near, z[:, 2]])
            yield f"scaled_{e}", np.column_stack([1e3 * z[:, 0], 1e3 * near, 1e-2 * z[:, 2]])
            yield f"offset_{e}", np.column_stack([1e4 + z[:, 0], 1e4 + near, z[:, 2]])

    def test_rank_screen_is_sound_and_block_matches_one_row_check(self):
        from countmix import CovariateMask, apply_mask

        rng = np.random.default_rng(9)
        keep = np.array([(True,) + bits for bits in itertools.product([False, True], repeat=3)])
        outcomes = set()
        for name, Z in self._near_threshold_designs():
            n = Z.shape[0]
            X = np.column_stack([np.ones(n), Z])
            d = Dataset(y=rng.poisson(2.0, n), X=X, names=("z0", "z1", "z2"))
            weights = [np.ones(n), rng.uniform(0.0, 1.0, n), np.zeros(n)]
            weights[1][:5] = 0.0  # rows below the weight floor are excluded
            weights[2][:3] = 0.5  # too few rows for most masks
            W = np.repeat(weights, len(keep), axis=0)
            K = np.tile(keep, (len(weights), 1))
            passed = countglm._rank_screen(d, W, K)
            errors = countglm._rank_errors(d, W, K)
            for w, k, ok, error in zip(W, K, passed, errors):
                masked = apply_mask(d, CovariateMask(k[1:]))
                try:
                    countglm.check_design_rank(masked, w)
                except SingularDesignError as exc:
                    assert not ok, name
                    assert error is not None and str(error) == str(exc), name
                    assert error.columns == exc.columns, name
                    outcomes.add("singular")
                else:
                    assert error is None, name
                    outcomes.add("passed" if ok else "full rank, not screened")
        assert outcomes == {"singular", "passed", "full rank, not screened"}

    def test_all_zero_outcome_handled_without_exception(self, intercept_only):
        # the MLE sits at beta0 -> -inf; the fit settles at the floor of the
        # initializer with logL just below the supremum of 0
        fit = fit_poisson(intercept_only([0, 0, 0, 0]))
        assert np.isfinite(fit.logL)
        assert fit.logL > -1e-6

    @pytest.mark.parametrize("seed", [219, 320])
    def test_stall_at_optimum_counts_as_converged(self, seed):
        # x2 is x1 plus 1e-7 noise, scaled by 1e6.  The scale lifts the
        # rounding floor of the gradient far above gtol at every point near the
        # optimum, and steps along the near-collinear direction gain less than
        # the rounding of logL, so the fit ends by the Newton-decrement rule.
        # The premise held on 40 of 40 row orders of each seed.
        rng = np.random.default_rng(seed)
        n = 300
        x1 = rng.normal(size=n)
        x2 = 1e6 * (x1 + 1e-7 * rng.normal(size=n))
        y = rng.poisson(np.exp(1.0 + 0.3 * x1))
        d = Dataset(y=y, X=np.column_stack([np.ones(n), x1, x2]), names=("x1", "x2"))
        fit = fit_poisson(d)
        assert np.max(np.abs(poisson_loglik_grad(fit.beta, d))) > 100 * countglm.DEFAULT_GTOL
        assert fit.converged
        model = em_fit(d, 1, "poisson", seed=0)
        assert model.converged
        assert fit.logL == pytest.approx(model.logL, rel=1e-12)

    def test_warm_start_converges_immediately(self, poisson_data):
        d = poisson_data(n=100, seed=9)
        first = fit_poisson(d)
        again = fit_poisson(d, init=first.beta)
        assert again.iterations <= 1
        assert again.logL == pytest.approx(first.logL, abs=1e-10)


class TestFitNb2:
    def test_poisson_data_gives_tiny_alpha(self, poisson_data):
        d = poisson_data(n=600, seed=41)
        fit = fit_nb2(d)
        assert fit.alpha <= 1e-2

    def test_moment_recovery_intercept_only(self):
        rng = np.random.default_rng(17)
        mu, alpha = 5.0, 1.0
        lam = rng.gamma(1.0 / alpha, alpha * mu, size=5000)
        d = Dataset(y=rng.poisson(lam), X=np.ones((5000, 1)), names=())
        fit = fit_nb2(d)
        assert 0.7 <= fit.alpha <= 1.3
        # cross-check against the method-of-moments dispersion estimate
        ybar = d.y.mean()
        mom = (d.y.var(ddof=1) - ybar) / ybar**2
        assert fit.alpha == pytest.approx(mom, rel=0.25)

    def test_nests_poisson_on_overdispersed_data(self):
        rng = np.random.default_rng(23)
        X = np.column_stack([np.ones(300), rng.normal(size=300)])
        mu = np.exp(1.2 + 0.5 * X[:, 1])
        y = rng.poisson(rng.gamma(1.0, mu))
        d = Dataset(y=y, X=X, names=("x",))
        assert fit_nb2(d).logL >= fit_poisson(d).logL - 1e-8

    def test_nesting_deficit_bounded_at_alpha_floor(self, poisson_data):
        # on equidispersed data alpha pins at its 1e-8 floor, leaving a
        # boundary deficit of order alpha_min * n * mu; 1e-5 bounds it here
        d = poisson_data(n=200, seed=0)
        nb = fit_nb2(d)
        assert nb.alpha_pinned or nb.alpha < 1e-2
        assert nb.logL >= fit_poisson(d).logL - 1e-5

    def test_needs_enough_rows(self):
        d = Dataset(y=np.array([1, 2]), X=np.column_stack([np.ones(2), [0.0, 1.0]]), names=("x",))
        with pytest.raises(DimensionError):
            fit_nb2(d)

    def test_warm_start_converges_immediately(self, poisson_data):
        rng = np.random.default_rng(29)
        X = np.column_stack([np.ones(250), rng.normal(size=250)])
        y = rng.poisson(rng.gamma(2.0, 0.5 * np.exp(1.0 + 0.4 * X[:, 1])))
        d = Dataset(y=y, X=X, names=("x",))
        first = fit_nb2(d)
        again = fit_nb2(d, init=(first.beta, first.alpha))
        assert again.iterations <= 1
        assert again.logL == pytest.approx(first.logL, abs=1e-8)

    # weighted, nearly equidispersed samples whose alpha MLE lies below 1e-5;
    # alternating beta and alpha updates stop here at the 100-iteration cap,
    # unconverged, with these log-likelihoods
    @pytest.mark.parametrize(
        "seed, capped_logL", [(11, -368.7706581366758), (12, -399.07829374708245)]
    )
    def test_converges_where_alternating_fit_hits_iteration_cap(self, seed, capped_logL):
        rng = np.random.default_rng(seed)
        n = 500
        mu = np.exp(rng.uniform(0, 2))
        y = rng.negative_binomial(100.0, 1 / (1 + 0.01 * mu), n)
        w = rng.uniform(0, 1, n)
        fit = fit_nb2(Dataset(y=y, X=np.ones((n, 1)), names=()), w=w)
        assert fit.converged
        assert fit.iterations < 20
        assert fit.logL >= capped_logL

    def test_uniform_poisson_limit_on_bounded_data(self, poisson_data):
        d = poisson_data(n=100, seed=51)
        rng = np.random.default_rng(51)
        for _ in range(5):
            beta = rng.normal(1.0, 0.4, size=2)
            gap = abs(nb2_loglik(beta, 1e-10, d) - poisson_loglik(beta, d))
            assert gap < 1e-4


class TestIterationCap:
    """A fit stopped by the iteration cap reports SEs of the coefficients it returns."""

    @staticmethod
    def _oracle_se(fit, d):
        if fit.family == "poisson":
            mu = np.exp(d.X @ fit.beta)
            return np.sqrt(np.diag(np.linalg.inv(d.X.T @ (d.X * mu[:, None]))))
        k = fit.beta.size

        def grad(x):  # gradient over (beta, log alpha)
            g = nb2_loglik_grad(x[:k], float(np.exp(x[k])), d)
            return np.append(g[:k], g[k] * np.exp(x[k]))

        J = jacobian_central(grad, np.append(fit.beta, np.log(fit.alpha)), rel_step=1e-6)
        return np.sqrt(np.diag(np.linalg.inv(-(J + J.T) / 2.0)))[:k]

    @pytest.mark.parametrize("family", ["poisson", "nb2"])
    def test_se_belongs_to_returned_iterate(self, family, monkeypatch):
        rng = np.random.default_rng(61)
        n = 200
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        mu = np.exp(1.5 + 0.8 * X[:, 1])
        y = rng.poisson(rng.gamma(2.0, 0.5 * mu) if family == "nb2" else mu)
        d = Dataset(y=y, X=X, names=("x",))
        monkeypatch.setattr(countglm, "DEFAULT_MAX_ITER", 2)
        fit = (fit_nb2 if family == "nb2" else fit_poisson)(d)
        assert not fit.converged and fit.iterations == 2
        np.testing.assert_allclose(fit.se, self._oracle_se(fit, d), rtol=1e-5)


def _scaled_income(overdispersed=False, scale=1e8, order=None):
    """Counts driven by an income on [10, 11.5], with the income column scaled.

    At scale 1e8 the rounding floor of the gradient lies far above
    ``DEFAULT_GTOL`` at the optimum, so only the Newton-decrement stall
    can end a fit there.
    """
    rng = np.random.default_rng(219)
    n = 95
    inc = rng.uniform(10.0, 11.5, n)
    mu = np.exp(2.0 + 0.5 * (inc - 10.0))
    y = rng.poisson(rng.gamma(2.0, 0.5 * mu) if overdispersed else mu)
    rows = np.arange(n) if order is None else np.random.default_rng(order).permutation(n)
    return Dataset(y=y[rows], X=np.column_stack([np.ones(n), scale * inc[rows]]), names=("INC",))


def _count_calls(monkeypatch, name, events, tag):
    """Wrap ``countglm.<name>`` so that each call appends ``tag`` to ``events``."""
    inner = getattr(countglm, name)

    def spy(*args):
        events.append(tag)
        return inner(*args)

    monkeypatch.setattr(countglm, name, spy)


class TestNewtonStop:
    """A negligible Newton decrement with a full step that gains nothing ends a row at once."""

    def test_scaled_covariate_converges_on_every_row_order(self):
        # a step that moves no linear predictor used to repeat to the cap
        unscaled = fit_poisson(_scaled_income(scale=1.0))
        assert unscaled.converged
        for order in range(30):
            fit = fit_poisson(_scaled_income(order=order))
            assert fit.converged, order
            assert fit.iterations < countglm.DEFAULT_MAX_ITER
            assert fit.logL == pytest.approx(unscaled.logL, rel=1e-12)

    def test_block_at_its_optimum_makes_one_trial_pass(self, monkeypatch):
        d = _scaled_income()
        n = d.n
        W = np.vstack([np.ones(n), np.random.default_rng(1).uniform(0.2, 1.0, n)])
        keep = np.ones((2, 2), dtype=bool)
        x, ll, converged, _ = countglm._newton(countglm.POISSON, countglm._poisson_start(d, W), d, W, 100, keep)
        assert converged.all()
        grad = countglm._derivs(countglm.POISSON, x, d, W)[0]
        assert (np.abs(grad).max(axis=1) >= countglm.DEFAULT_GTOL).all()  # the gradient test cannot end it
        events = []
        _count_calls(monkeypatch, "_loglik", events, "loglik")
        x2, ll2, converged2, iterations2 = countglm._newton(countglm.POISSON, x, d, W, 100, keep)
        assert events == ["loglik", "loglik"]  # the start and one trial pass
        assert converged2.all() and (iterations2 == 0).all()
        assert np.array_equal(x2, x) and np.array_equal(ll2, ll)

    def test_overshooting_cold_start_still_halves(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 200
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        d = Dataset(y=rng.poisson(np.exp(0.5 + 2.0 * X[:, 1])), X=X, names=("x",))
        W = np.ones((1, n))
        x0 = countglm._poisson_start(d, W)
        grad, info = countglm._derivs(countglm.POISSON, x0, d, W)
        decrement = 0.5 * grad[0] @ np.linalg.solve(info[0], grad[0])
        ll0 = countglm._loglik(countglm.POISSON, x0, d, W)[0]
        assert decrement > 1e3 * countglm.DEFAULT_TOL * (1.0 + abs(ll0))
        events = []
        _count_calls(monkeypatch, "_loglik", events, "trial")
        _count_calls(monkeypatch, "_derivs", events, "step")
        fit = fit_poisson(d)
        trials = [len(list(g)) for is_step, g in itertools.groupby(events, lambda e: e == "step") if not is_step]
        assert max(trials[1:]) >= 2  # some step was halved
        assert fit.converged and fit.iterations == 7
        assert fit.logL == pytest.approx(-298.1533879241632, rel=1e-12)  # the logL before the shortcut

    def test_nb2_fallback_rows_never_take_the_shortcut(self, monkeypatch):
        # warm starts at the optimum, where the decrement of the beta step
        # beside a 0.5 move of s is negligible and that step loses logL: a
        # non-Newton row still runs every halving and stalls unconverged
        d = _scaled_income(overdispersed=True)
        n = d.n
        W = np.vstack([np.ones(n), np.random.default_rng(1).uniform(0.2, 1.0, n)])
        keep = np.ones((2, 2), dtype=bool)
        x, ll, converged, _ = countglm._fit_block(countglm.NB2, d, W, None, 100, keep)
        assert converged.all() and (countglm._alpha_side(np.exp(x[:, 2])) == 0).all()
        monkeypatch.setattr(countglm, "_is_pd", lambda a: np.zeros(len(a), dtype=bool))
        events = []
        _count_calls(monkeypatch, "_loglik", events, "loglik")
        x2, ll2, converged2, iterations2 = countglm._newton(countglm.NB2, x, d, W, 100, keep)
        assert len(events) == 1 + countglm.MAX_HALVINGS + 1
        assert not converged2.any() and (iterations2 == 0).all()
        assert np.array_equal(x2, x) and np.array_equal(ll2, ll)


def _is_pd_one_by_one(a):
    out = np.ones(len(a), dtype=bool)
    for i, ai in enumerate(a):
        try:
            np.linalg.cholesky(ai)
        except np.linalg.LinAlgError:
            out[i] = False
    return out


class TestIsPd:
    @staticmethod
    def _stack(C, bad, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(C, 4, 4))
        stack = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(4)
        stack[bad] -= 50.0 * np.eye(4)  # indefinite
        return stack

    @pytest.mark.parametrize(
        "C, bad",
        [(1, []), (1, [0]), (37, []), (37, list(range(37))), (37, [0]), (37, [36]),
         (37, [18]), (37, [0, 18, 36]), (256, [0, 1, 127, 128, 255])],
    )
    def test_bisection_matches_the_per_matrix_loop(self, C, bad):
        for seed in range(3):
            stack = self._stack(C, bad, seed)
            got = countglm._is_pd(stack)
            assert np.array_equal(got, _is_pd_one_by_one(stack))
            assert np.flatnonzero(~got).tolist() == bad

    def test_one_failure_costs_a_logarithmic_number_of_factorizations(self, monkeypatch):
        stack = self._stack(256, [100], 0)
        events = []
        inner = np.linalg.cholesky

        def spy(a):
            events.append(len(a))
            return inner(a)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        assert np.flatnonzero(~countglm._is_pd(stack)).tolist() == [100]
        assert len(events) == 1 + 2 * 8  # the whole stack, then both halves at each of 8 levels


class TestDispersionStat:
    def test_constant_outcome(self, intercept_only):
        assert dispersion_stat(intercept_only([4, 4, 4])) == 0.0

    def test_zero_mean_gives_infinity(self, intercept_only):
        assert dispersion_stat(intercept_only([0, 0])) == np.inf

    def test_hiv_scale_ratio(self, intercept_only):
        # mean ~166.45 with variance > 500,000 means a ratio far above 1
        rng = np.random.default_rng(6)
        lam = rng.gamma(0.05, 166.45 / 0.05, size=400)
        d = intercept_only(rng.poisson(lam))
        assert dispersion_stat(d) > 100.0

    def test_poisson_fixture_near_one(self, intercept_only):
        rng = np.random.default_rng(13)
        d = intercept_only(rng.poisson(8.0, size=1000))
        assert 0.8 <= dispersion_stat(d) <= 1.2

    def test_needs_two_rows(self, intercept_only):
        with pytest.raises(DimensionError):
            dispersion_stat(intercept_only([3]))
