import sys
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import linear_sum_assignment

from countmix import (
    NB2,
    POISSON,
    ComponentParams,
    Dataset,
    MixtureSpec,
    e_step,
    em_fit,
    fit_nb2,
    fit_poisson,
    gen_regression_mixture,
    init_by_count_mixture,
    m_step,
    mixture_loglik,
    poisson_loglik,
)
from countmix import mixture as mixture_mod
from countmix.errors import (
    ComponentCollapseError,
    DimensionError,
    DomainError,
    NumericOverflowError,
    SingularDesignError,
)


def _toy_components():
    return (
        ComponentParams(pi=0.3, beta=np.array([np.log(2.0), 0.5])),
        ComponentParams(pi=0.7, beta=np.array([np.log(9.0), -0.2])),
    )


def _toy_dataset():
    X = np.column_stack([np.ones(5), np.array([-1.0, -0.5, 0.0, 0.5, 1.0])])
    return Dataset(y=np.array([1, 2, 5, 9, 14]), X=X, names=("x",))


class TestMixtureLoglik:
    def test_single_component_identity(self, poisson_data):
        d = poisson_data(n=40, seed=2)
        beta = np.array([1.3, 0.2])
        comps = (ComponentParams(pi=1.0, beta=beta),)
        assert mixture_loglik(comps, d, POISSON) == pytest.approx(
            poisson_loglik(beta, d), abs=1e-12
        )

    def test_identical_components_collapse(self, poisson_data):
        d = poisson_data(n=30, seed=3)
        beta = np.array([1.0, 0.1])
        two = (
            ComponentParams(pi=0.3, beta=beta),
            ComponentParams(pi=0.7, beta=beta),
        )
        one = (ComponentParams(pi=1.0, beta=beta),)
        assert mixture_loglik(two, d, POISSON) == pytest.approx(
            mixture_loglik(one, d, POISSON), abs=1e-10
        )

    def test_toy_against_termwise_oracle(self):
        d = _toy_dataset()
        comps = _toy_components()
        mus = [np.exp(d.X @ c.beta) for c in comps]
        dens = 0.3 * stats.poisson.pmf(d.y, mus[0]) + 0.7 * stats.poisson.pmf(d.y, mus[1])
        oracle = np.log(dens).sum()
        assert mixture_loglik(comps, d, POISSON) == pytest.approx(oracle, rel=1e-12)

    def test_nonpositive_weight_rejected(self, poisson_data):
        d = poisson_data(n=10, seed=1)
        comps = (
            ComponentParams(pi=0.0, beta=np.zeros(2)),
            ComponentParams(pi=1.0, beta=np.zeros(2)),
        )
        with pytest.raises(DomainError):
            mixture_loglik(comps, d, POISSON)

    def test_weights_must_sum_to_one(self, poisson_data):
        d = poisson_data(n=10, seed=1)
        comps = (
            ComponentParams(pi=0.4, beta=np.zeros(2)),
            ComponentParams(pi=0.4, beta=np.zeros(2)),
        )
        with pytest.raises(DomainError):
            mixture_loglik(comps, d, POISSON)

    def test_label_permutation_invariance(self):
        d = _toy_dataset()
        comps = _toy_components()
        assert mixture_loglik(comps, d, POISSON) == mixture_loglik(
            comps[::-1], d, POISSON
        )


class TestEStep:
    def test_single_component_all_ones(self, poisson_data):
        d = poisson_data(n=20, seed=4)
        resp = e_step((ComponentParams(pi=1.0, beta=np.array([1.0, 0.0])),), d, POISSON)
        np.testing.assert_array_equal(resp, np.ones((20, 1)))

    def test_symmetric_components_split_evenly(self, poisson_data):
        d = poisson_data(n=15, seed=5)
        beta = np.array([1.1, 0.2])
        comps = (
            ComponentParams(pi=0.5, beta=beta),
            ComponentParams(pi=0.5, beta=beta),
        )
        resp = e_step(comps, d, POISSON)
        np.testing.assert_allclose(resp, 0.5, atol=1e-12)

    def test_toy_bayes_ratios(self):
        d = _toy_dataset()
        comps = _toy_components()
        resp = e_step(comps, d, POISSON)
        mus = [np.exp(d.X @ c.beta) for c in comps]
        num = 0.3 * stats.poisson.pmf(d.y, mus[0])
        den = num + 0.7 * stats.poisson.pmf(d.y, mus[1])
        np.testing.assert_allclose(resp[:, 0], num / den, rtol=1e-10)

    def test_rows_sum_to_one(self):
        d = _toy_dataset()
        resp = e_step(_toy_components(), d, POISSON)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-10)
        assert resp.min() >= 0.0 and resp.max() <= 1.0

    def test_total_underflow_yields_uniform_with_warning(self):
        # mu overflows for every component, so each row's density is 0
        d = _toy_dataset()
        comps = (
            ComponentParams(pi=0.5, beta=np.array([800.0, 0.0])),
            ComponentParams(pi=0.5, beta=np.array([801.0, 0.0])),
        )
        with pytest.warns(RuntimeWarning):
            resp = e_step(comps, d, POISSON)
        np.testing.assert_allclose(resp, 0.5, atol=1e-15)


class TestLogsumexpRows:
    def _matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n, G = int(rng.integers(1, 40)), int(rng.integers(1, 6))
            a = rng.normal(scale=rng.choice([1.0, 30.0, 700.0]), size=(n, G))
            yield a
            yield np.round(a)  # ties at the row maximum
            holes = a.copy()
            holes[rng.random(a.shape) < 0.4] = -np.inf
            holes[rng.integers(n)] = -np.inf  # at least one all -inf row
            yield holes

    def test_matches_scipy_within_two_ulp(self):
        from scipy.special import logsumexp

        for a in self._matrices():
            want = logsumexp(a, axis=1)
            got = mixture_mod._logsumexp_rows(a)
            finite = np.isfinite(want)
            np.testing.assert_array_equal(got[~finite], want[~finite])
            np.testing.assert_array_max_ulp(got[finite], want[finite], maxulp=2)

    def test_all_minus_inf_row_gives_minus_inf_without_warning(self):
        a = np.array([[-np.inf, -np.inf], [0.0, np.log(3.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mixture_mod._logsumexp_rows(a)
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(np.log(4.0), rel=1e-15)


class TestMStep:
    def test_single_component_equals_unweighted_fit(self, poisson_data):
        d = poisson_data(n=50, seed=6)
        comps = m_step(np.ones((50, 1)), d, POISSON)
        ref = fit_poisson(d)
        assert comps[0].pi == 1.0
        np.testing.assert_allclose(comps[0].beta, ref.beta, atol=1e-8)

    def test_fully_concentrated_second_component_collapses(self, poisson_data):
        d = poisson_data(n=30, seed=7)
        resp = np.zeros((30, 2))
        resp[:, 0] = 1.0
        with pytest.raises(ComponentCollapseError):
            m_step(resp, d, POISSON)

    def test_uniform_responsibilities_give_identical_components(self, poisson_data):
        d = poisson_data(n=60, seed=8)
        resp = np.full((60, 3), 1.0 / 3.0)
        comps = m_step(resp, d, POISSON)
        for c in comps[1:]:
            np.testing.assert_allclose(c.beta, comps[0].beta, atol=1e-8)
            assert c.pi == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_hard_partition_matches_per_group_fits(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(80), rng.normal(size=80)])
        y = np.concatenate(
            [rng.poisson(np.exp(0.7 + 0.2 * X[:40, 1])), rng.poisson(np.exp(2.5 - 0.3 * X[40:, 1]))]
        )
        d = Dataset(y=y, X=X, names=("x",))
        resp = np.zeros((80, 2))
        resp[:40, 0] = 1.0
        resp[40:, 1] = 1.0
        comps = m_step(resp, d, POISSON)
        lo = fit_poisson(Dataset(y=y[:40], X=X[:40], names=("x",)))
        hi = fit_poisson(Dataset(y=y[40:], X=X[40:], names=("x",)))
        np.testing.assert_allclose(comps[0].beta, lo.beta, atol=1e-6)
        np.testing.assert_allclose(comps[1].beta, hi.beta, atol=1e-6)
        assert comps[0].pi == pytest.approx(0.5)

    def test_rows_must_sum_to_one(self, poisson_data):
        d = poisson_data(n=20, seed=10)
        with pytest.raises(DomainError):
            m_step(np.full((20, 2), 0.4), d, POISSON)


class TestInitByCountMixture:
    def test_single_group(self, poisson_data):
        d = poisson_data(n=25, seed=11)
        np.testing.assert_array_equal(init_by_count_mixture(d, 1), np.ones((25, 1)))

    def test_separated_rates_recovered(self, intercept_only):
        rng = np.random.default_rng(12)
        y = np.concatenate([rng.poisson(5.0, 100), rng.poisson(50.0, 100)])
        d = intercept_only(y)
        resp = init_by_count_mixture(d, 2, seed=0)
        labels = np.argmax(resp, axis=1)
        # identify which init group owns the low-rate half
        low_group = int(np.round(labels[:100].mean()))
        correct = (labels[:100] == low_group).sum() + (labels[100:] == 1 - low_group).sum()
        assert correct >= 190

    def test_constant_counts_fall_back_deterministically(self, intercept_only):
        d = intercept_only([4] * 12)
        with pytest.warns(RuntimeWarning):
            resp = init_by_count_mixture(d, 2, seed=0)
        assert resp.shape == (12, 2)
        np.testing.assert_array_equal(resp.sum(axis=0), [6, 6])

    def test_group_budget_enforced(self, intercept_only):
        d = intercept_only([1, 2, 3, 4])
        with pytest.raises(DimensionError):
            init_by_count_mixture(d, 3)


def _init_oracle_cases(kind):
    """Seeded (y, G, seed) cases of one kind for the count-mixture start oracle."""
    rng = np.random.default_rng(("files", "nb", "large", "zeros", "few", "ties").index(kind))
    for i in range(40):
        G = 2 + i % 4
        if kind == "files":  # the two-component n=500 files of acceptance criterion 2
            spec = MixtureSpec(weights=(0.45, 0.55), betas=((0.3, 1.0, -0.6), (3.6, -0.7, 0.5)))
            y = gen_regression_mixture(spec, 500, seed=i)[0].y
        elif kind == "nb":  # overdispersed: Gamma-Poisson rates around two means
            mu = np.where(rng.random(300) < 0.4, 3.0, 40.0)
            y = rng.poisson(rng.gamma(1.0 / rng.uniform(0.3, 2.0), mu / 2.0))
        elif kind == "large":  # softmax terms of order 1e8 without log y!: exp overflows unshifted
            y = rng.poisson(rng.uniform(1e6, 1e7), 200) + rng.integers(0, 3, 200) * 3_000_000
        elif kind == "zeros":
            y = np.where(rng.random(250) < rng.uniform(0.6, 0.95), 0, rng.poisson(rng.uniform(1, 30), 250))
        elif kind == "few":  # fewer than G distinct counts
            y = rng.integers(0, G - 1 - i % 2, 80) if G > 2 else np.full(80, i)
        else:  # ties: 60% of the rows on one count, so mid-quantiles coincide
            tie = int(rng.integers(0, 10))
            y = np.where(rng.random(200) < 0.6, tie, rng.poisson(rng.uniform(0.5, 40), 200))
        yield np.asarray(y, dtype=np.int64), G, 1000 * i + G


class TestCountMixtureStartOracle:
    """The start over distinct counts gives the row-by-row reference's output and warnings."""

    @staticmethod
    def _run(start, d, G, seed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = start(d, G, seed)
        return out, [str(w.message) for w in caught]

    @pytest.mark.parametrize("kind", ["files", "nb", "large", "zeros", "few", "ties"])
    def test_equals_row_by_row_reference(self, kind, intercept_only):
        from count_init_reference import count_mixture_start_rows

        paths = set()
        for y, G, seed in _init_oracle_cases(kind):
            d = intercept_only(y)
            got, got_warned = self._run(mixture_mod._count_mixture_start, d, G, seed)
            want, want_warned = self._run(count_mixture_start_rows, d, G, seed)
            assert np.array_equal(got, want), (kind, G, seed)
            assert got_warned == want_warned, (kind, G, seed)
            q = np.maximum(np.quantile(y.astype(float), (np.arange(G) + 0.5) / G), 1e-6)
            path = "fitted" if not got_warned else "fewer" if "fewer" in got_warned[0] else "empty group"
            if path != "fewer" and np.any(np.diff(q) <= 0):  # the rates start jittered apart
                path = f"jittered {path}"
            paths.add(path)
        # each kind reaches the paths it is here for
        expected = {
            "files": {"fitted"},
            "nb": {"fitted"},
            "large": {"fitted", "empty group"},
            "zeros": {"fitted", "jittered fitted", "jittered empty group"},
            "few": {"fewer"},
            "ties": {"fitted", "jittered empty group"},
        }[kind]
        assert expected <= paths, paths


def _two_component_spec():
    return MixtureSpec(
        weights=(0.4, 0.6),
        betas=((0.5, 0.8), (3.0, -0.4)),
        alphas=(0.0, 0.0),
    )


class TestEmFit:
    def test_single_component_reduces_to_glm(self, poisson_data):
        d = poisson_data(n=80, seed=13)
        m = em_fit(d, 1, POISSON, seed=0, restarts=2)
        ref = fit_poisson(d)
        assert m.logL == pytest.approx(ref.logL, abs=1e-10)
        np.testing.assert_allclose(m.components[0].beta, ref.beta, atol=1e-8)

    def test_single_component_nb2_reduces_to_glm(self):
        rng = np.random.default_rng(14)
        X = np.column_stack([np.ones(200), rng.normal(size=200)])
        y = rng.poisson(rng.gamma(1.25, 0.8 * np.exp(1.0 + 0.3 * X[:, 1])))
        d = Dataset(y=y, X=X, names=("x",))
        m = em_fit(d, 1, NB2, seed=0, restarts=1)
        ref = fit_nb2(d)
        assert m.logL == pytest.approx(ref.logL, abs=1e-6)

    def test_two_components_beat_one(self):
        d, _ = gen_regression_mixture(_two_component_spec(), 300, seed=15)
        m1 = em_fit(d, 1, POISSON, seed=1, restarts=1)
        m2 = em_fit(d, 2, POISSON, seed=1, restarts=2)
        assert m2.logL > m1.logL

    def test_recovery_up_to_label_permutation(self):
        spec = _two_component_spec()
        d, _ = gen_regression_mixture(spec, 600, seed=16)
        m = em_fit(d, 2, POISSON, seed=2, restarts=3)
        assert m.converged
        true_betas = np.asarray(spec.betas)
        est_betas = np.vstack([c.beta for c in m.components])
        cost = np.linalg.norm(true_betas[:, None, :] - est_betas[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        for ti, ei in zip(rows, cols):
            assert np.linalg.norm(true_betas[ti] - est_betas[ei]) < 0.5
            assert abs(spec.weights[ti] - m.components[ei].pi) < 0.05

    def test_nb2_mixture_recovery(self):
        spec = MixtureSpec(
            weights=(0.5, 0.5),
            betas=((0.6, 0.7), (3.4, -0.5)),
            alphas=(0.4, 0.4),
        )
        d, _ = gen_regression_mixture(spec, 500, seed=26)
        m = em_fit(d, 2, NB2, seed=6, restarts=2)
        assert m.converged
        true_betas = np.asarray(spec.betas)
        est_betas = np.vstack([c.beta for c in m.components])
        cost = np.linalg.norm(true_betas[:, None, :] - est_betas[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        for ti, ei in zip(rows, cols):
            assert np.linalg.norm(true_betas[ti] - est_betas[ei]) < 0.6
            assert 0.1 <= m.components[ei].alpha <= 1.2

    def test_monotone_loglik_trace(self):
        spec = _two_component_spec()
        for seed in range(5):
            d, _ = gen_regression_mixture(spec, 250, seed=seed)
            for G in (1, 2, 3):
                m = em_fit(d, G, POISSON, seed=seed, restarts=2)
                if m.loglik_trace.size > 1:
                    assert np.diff(m.loglik_trace).min() >= -1e-8

    def test_responsibility_rows_on_simplex(self):
        d, _ = gen_regression_mixture(_two_component_spec(), 200, seed=17)
        m = em_fit(d, 2, POISSON, seed=3, restarts=2)
        np.testing.assert_allclose(m.responsibilities.sum(axis=1), 1.0, atol=1e-10)
        assert m.responsibilities.min() >= 0.0

    def test_logL_matches_components(self):
        d, _ = gen_regression_mixture(_two_component_spec(), 200, seed=18)
        m = em_fit(d, 2, POISSON, seed=4, restarts=2)
        assert m.logL == pytest.approx(
            mixture_loglik(m.components, d, POISSON), abs=1e-8
        )

    def test_deterministic_for_fixed_seed(self):
        d, _ = gen_regression_mixture(_two_component_spec(), 220, seed=19)
        a = em_fit(d, 2, POISSON, seed=5, restarts=3)
        b = em_fit(d, 2, POISSON, seed=5, restarts=3)
        assert a.logL == b.logL
        for ca, cb in zip(a.components, b.components):
            np.testing.assert_array_equal(ca.beta, cb.beta)
            assert ca.pi == cb.pi

    def test_needs_enough_rows_per_component(self, intercept_only):
        d = intercept_only([1, 2, 3, 4, 5])
        with pytest.raises(DimensionError):
            em_fit(d, 3, POISSON)

    @pytest.mark.parametrize("G", [2, 3])
    def test_failed_retry_names_the_requested_g(self, G):
        rng = np.random.default_rng(0)
        n = 60
        x1 = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x1, x1])  # every weighted design is singular
        d = Dataset(y=rng.poisson(np.exp(1.0 + 0.3 * x1)), X=X, names=("x1", "x2"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # init fallbacks
            with pytest.raises(ComponentCollapseError) as err:
                em_fit(d, G, POISSON)
        assert str(err.value).startswith(
            f"all restarts failed at G={G}, and the retry at G={G - 1} failed too: "
            "restart 0 discarded: design is rank deficient; dependent column(s): x2"
        )
        assert isinstance(err.value.__cause__, ComponentCollapseError)
        assert f"at G={G - 1}" in str(err.value.__cause__)

    def test_all_collapsed_restarts_reduce_g(self, poisson_data, monkeypatch):
        d = poisson_data(n=60, seed=20)
        real_m_step = mixture_mod._m_step

        def failing_for_two(resp, data, family, prev, columns=None):
            pis, x, failures = real_m_step(resp, data, family, prev, columns)
            if resp.shape[2] == 2:
                failures = [ComponentCollapseError("forced for test")] * resp.shape[0]
            return pis, x, failures

        monkeypatch.setattr(mixture_mod, "_m_step", failing_for_two)
        m = em_fit(d, 2, POISSON, seed=0, restarts=2)
        assert m.G == 1
        assert any("collapsed" in w for w in m.warnings)

    def test_one_log_density_build_per_iteration(self, monkeypatch):
        d, _ = gen_regression_mixture(_two_component_spec(), 200, seed=21)
        real = mixture_mod.countglm._density_rows
        calls = {"n": 0}

        def counting(*args, **kwargs):
            # the Newton line search evaluates densities too; count the E-step's
            if sys._getframe(1).f_code is mixture_mod._run_em.__code__:
                calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mixture_mod.countglm, "_density_rows", counting)
        base = mixture_mod.init_by_count_mixture(d, 2, seed=0)
        starts = np.stack([base, 0.5 * base + 0.25, 0.8 * base + 0.1])
        outcomes = mixture_mod._run_em(d, POISSON, starts, np.ones((1, d.p + 1), dtype=bool))
        assert all(m.G == 2 for m in outcomes)
        assert len({m.iterations for m in outcomes}) > 1
        assert calls["n"] == max(m.iterations for m in outcomes)

    def test_single_component_runs_one_restart(self, poisson_data, monkeypatch):
        d = poisson_data(n=80, seed=22)
        one = em_fit(d, 1, POISSON, seed=4, restarts=1)
        real = mixture_mod._m_step
        stacks = []

        def counting(resp, *args, **kwargs):
            stacks.append(resp.shape[0])
            return real(resp, *args, **kwargs)

        monkeypatch.setattr(mixture_mod, "_m_step", counting)
        five = em_fit(d, 1, POISSON, seed=4, restarts=5)
        assert stacks == [1] * five.iterations
        for field in ("family", "logL", "converged", "iterations", "warnings"):
            assert getattr(five, field) == getattr(one, field)
        np.testing.assert_array_equal(five.loglik_trace, one.loglik_trace)
        np.testing.assert_array_equal(five.responsibilities, one.responsibilities)
        assert len(five.components) == len(one.components) == 1
        for cf, co in zip(five.components, one.components):
            assert (cf.pi, cf.alpha) == (co.pi, co.alpha)
            np.testing.assert_array_equal(cf.beta, co.beta)


class TestLockStepRestarts:
    """Every restart in a lock-step stack follows the course it takes alone."""

    @staticmethod
    def _starts(d, R, seed):
        base = mixture_mod.init_by_count_mixture(d, 2, seed=seed)
        rng = np.random.default_rng(seed)
        starts = [base]
        for _ in range(R - 1):
            draws = rng.gamma(shape=1.0 + base)
            starts.append(draws / draws.sum(axis=1, keepdims=True))
        return np.stack(starts)

    @pytest.mark.parametrize("family", [POISSON, NB2])
    def test_each_restart_equals_its_run_alone(self, family):
        spec = MixtureSpec(
            weights=(0.4, 0.6),
            betas=((0.5, 0.8), (3.0, -0.4)),
            alphas=(0.0, 0.0) if family == POISSON else (0.3, 0.3),
        )
        d, _ = gen_regression_mixture(spec, 200, seed=23)
        starts = self._starts(d, 5, seed=7)
        starts[4] = 0.0  # a start whose second component holds two rows: discarded
        starts[4, :, 0] = 1.0
        starts[4, :2] = (0.0, 1.0)
        full = np.ones((1, d.p + 1), dtype=bool)
        together = mixture_mod._run_em(d, family, starts, full)
        assert isinstance(together[4], ComponentCollapseError)
        for r, stacked in enumerate(together):
            (alone,) = mixture_mod._run_em(d, family, starts[r : r + 1], full)
            assert type(stacked) is type(alone)
            if isinstance(alone, Exception):
                assert str(stacked) == str(alone)
                continue
            assert stacked.iterations == alone.iterations
            assert stacked.converged == alone.converged
            assert stacked.logL == pytest.approx(alone.logL, rel=1e-12)

    @pytest.mark.parametrize("overflow", [False, True], ids=["all_run", "restart_1_overflows"])
    def test_warnings_come_restart_by_restart(self, monkeypatch, overflow):
        # in each of the first three E-steps, restart r gets 1 + t + 4 r rows
        # of zero density; serial runs would warn about restart 0's rows, then
        # restart 1's, and none after a restart whose density overflows
        d, _ = gen_regression_mixture(_two_component_spec(), 200, seed=24)
        R, G = 3, 2
        real = mixture_mod.countglm._density_rows
        passes = {"t": 0}

        def injecting(*args, **kwargs):
            logf, bad = real(*args, **kwargs)
            if sys._getframe(1).f_code is not mixture_mod._run_em.__code__:
                return logf, bad
            t = passes["t"]
            passes["t"] += 1
            if t < 3:
                assert logf.shape[0] == R * G  # every restart still runs
                for r in range(R):
                    logf[r * G : (r + 1) * G, : 1 + t + 4 * r] = -np.inf
            elif t == 3 and overflow:
                bad[G] = True  # restart 1's first component
            return logf, bad

        monkeypatch.setattr(mixture_mod.countglm, "_density_rows", injecting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if overflow:
                with pytest.raises(NumericOverflowError):
                    em_fit(d, G, POISSON, seed=3, restarts=R)
            else:
                em_fit(d, G, POISSON, seed=3, restarts=R)
        lost = [w for w in caught if "zero density" in str(w.message)]
        ran = 2 if overflow else R
        assert [int(str(w.message).split()[0]) for w in lost] == [
            1 + t + 4 * r for r in range(ran) for t in range(3)
        ]
        assert all(w.filename == mixture_mod.__file__ for w in lost)  # em_fit's call site


def _masked_data(family, seed, n=120, p=4):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    mu = np.exp(1.0 + 0.4 * X[:, 1] - 0.3 * X[:, min(3, p)])
    if family == NB2:
        mu = rng.gamma(2.0, mu / 2.0)
    return Dataset(y=rng.poisson(mu), X=X, names=tuple(f"x{j + 1}" for j in range(p)))


def _all_masks(p):
    """Every (2^p, p+1) column mask over an intercept-first design."""
    bits = (np.arange(2**p)[:, None] >> np.arange(p)) & 1
    return np.column_stack([np.ones(2**p, dtype=bool), bits.astype(bool)])


def _fit_masks(d, family, keep):
    """G=1 EM of a block of column masks, one per restart, as the GA runs it."""
    return mixture_mod._run_em(d, family, np.ones((1, d.n, 1)), keep)


class TestMaskedG1Block:
    """The G=1 fit of a block of column masks over one shared design."""

    @pytest.mark.parametrize("family", [POISSON, NB2])
    def test_dropped_coefficients_stay_exactly_zero(self, family):
        d = _masked_data(family, 40)
        keep = _all_masks(d.p)
        W = np.ones((len(keep), d.n))
        x = mixture_mod.countglm._fit_block(family, d, W, None, 100, keep)[0]
        assert np.all(x[:, : d.p + 1][~keep] == 0.0)
        assert np.any(x[:, : d.p + 1][keep] != 0.0)
        for m, k in zip(_fit_masks(d, family, keep), keep):
            assert np.all(m.components[0].beta[~k] == 0.0)

    @pytest.mark.parametrize("family", [POISSON, NB2])
    def test_row_of_full_block_equals_its_block_of_one(self, family):
        # the block's makeup may move only the last bits of a row's fit
        d = _masked_data(family, 41)
        keep = _all_masks(d.p)
        block = _fit_masks(d, family, keep)
        for c, m in enumerate(block):
            (one,) = _fit_masks(d, family, keep[c : c + 1])
            assert m.converged == one.converged
            assert m.iterations == one.iterations
            assert m.logL == pytest.approx(one.logL, rel=1e-12)

    @pytest.mark.parametrize("family", [POISSON, NB2])
    def test_row_equals_em_fit_on_the_masked_design(self, family):
        from countmix import CovariateMask, apply_mask

        d = _masked_data(family, 42)
        keep = _all_masks(d.p)
        for k, m in zip(keep, _fit_masks(d, family, keep)):
            ref = em_fit(apply_mask(d, CovariateMask(k[1:])), 1, family, seed=0, restarts=1)
            assert (m.converged, m.iterations) == (ref.converged, ref.iterations)
            assert m.logL == pytest.approx(ref.logL, rel=1e-12)
            np.testing.assert_allclose(m.loglik_trace, ref.loglik_trace, rtol=1e-12)
            # the coefficients agree to the fit's stopping rule, not to rounding:
            # NB-2's logL is flat enough in alpha that last-bit steps move it
            np.testing.assert_allclose(m.components[0].beta[k], ref.components[0].beta, atol=1e-6)
            assert m.components[0].alpha == pytest.approx(ref.components[0].alpha, abs=1e-6)

    def test_singular_mask_fails_as_its_masked_design_does(self):
        # x4 duplicates x1, so only the masks that keep both are rank deficient
        from countmix import CovariateMask, apply_mask
        from countmix.countglm import check_design_rank

        d = _masked_data(POISSON, 44, p=3)
        d = Dataset(y=d.y, X=np.column_stack([d.X, d.X[:, 1]]), names=("x1", "x2", "x3", "x4"))
        keep = _all_masks(d.p)
        for k, out in zip(keep, _fit_masks(d, POISSON, keep)):
            if k[1] and k[4]:
                with pytest.raises(SingularDesignError) as alone:
                    check_design_rank(apply_mask(d, CovariateMask(k[1:])))
                assert isinstance(out, SingularDesignError)
                assert str(out) == str(alone.value)
            else:
                assert out.converged

    @pytest.mark.parametrize(
        "family, seed, trace, beta, alpha",
        [
            (POISSON, 31, "-0x1.c035258cdfcc1p+7",
             ("0x1.053b8b66c6fcep+0", "0x1.9bde460c970d4p-2",
              "-0x1.73a1a1870f665p-4", "-0x1.6d7683626066ap-2"), "0x0.0p+0"),
            (NB2, 32, "-0x1.ea175dfc33ad5p+7",
             ("0x1.aac13aaea9598p-1", "0x1.a38bf20b975b9p-2",
              "-0x1.026024ae0b70fp-3", "-0x1.bdf187c55e45dp-2"), "0x1.690e6325a7b71p-1"),
        ],
    )
    def test_em_fit_g1_bitwise_equals_stored_result(self, family, seed, trace, beta, alpha):
        # stored from em_fit with log y! from math.lgamma, the NB-2
        # special-function differences as rising sums and the beta
        # information from the design's column products
        d = _masked_data(family, seed, n=120, p=3)
        m = em_fit(d, 1, family, seed=0, restarts=1)
        assert (m.converged, m.iterations, m.G) == (True, 2, 1)
        assert m.loglik_trace.tolist() == [float.fromhex(trace)] * 2
        assert m.logL == float.fromhex(trace)
        assert m.components[0].beta.tolist() == [float.fromhex(b) for b in beta]
        assert m.components[0].alpha == float.fromhex(alpha)
        assert m.components[0].pi == 1.0
        np.testing.assert_array_equal(m.responsibilities, np.ones((d.n, 1)))

    def test_one_mask_overflowing_does_not_hold_back_the_others_warnings(self, monkeypatch):
        # masks are separate fits: mask 1's zero-density rows are warned
        # about although mask 0, before it, overflows
        d = _masked_data(POISSON, 43, p=2)
        real = mixture_mod.countglm._density_rows
        passes = {"t": 0}

        def injecting(*args, **kwargs):
            logf, bad = real(*args, **kwargs)
            if sys._getframe(1).f_code is mixture_mod._run_em.__code__ and passes["t"] == 0:
                passes["t"] += 1
                bad[0] = True
                logf[1, :3] = -np.inf
            return logf, bad

        monkeypatch.setattr(mixture_mod.countglm, "_density_rows", injecting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = _fit_masks(d, POISSON, _all_masks(d.p)[:2])
        assert isinstance(out[0], NumericOverflowError)
        assert out[1].converged
        lost = [w for w in caught if "zero density" in str(w.message)]
        assert [int(str(w.message).split()[0]) for w in lost] == [3]

    def test_masked_fit_stops_warning_at_its_overflowing_restart(self, monkeypatch):
        # one mask at G=2 with two restarts: restart 0 overflows in the first
        # E-step, where restart 1 has three rows of zero density.  em_fit
        # raises at restart 0's overflow and warns about none of restart 1's
        # rows, and the GA's block of one mask follows the same rule
        from countmix import CovariateMask
        from countmix import ga as ga_mod

        d = _masked_data(POISSON, 45, p=2)
        real = mixture_mod.countglm._density_rows
        passes = {"t": 0}

        def injecting(*args, **kwargs):
            logf, bad = real(*args, **kwargs)
            if sys._getframe(1).f_code is mixture_mod._run_em.__code__ and passes["t"] == 0:
                passes["t"] += 1
                bad[0] = True  # restart 0's first component
                logf[2:4, :3] = -np.inf  # restart 1, both components
            return logf, bad

        monkeypatch.setattr(mixture_mod.countglm, "_density_rows", injecting)
        starts = mixture_mod._start_stack(d, 2, 0, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericOverflowError):
                em_fit(d, 2, POISSON, seed=0, restarts=2)
            passes["t"] = 0
            rows = ga_mod._block_rows([CovariateMask.all_ones(d.p)], d, 2, POISSON, starts, False)
        assert passes["t"] == 1
        assert rows == [None]
        assert not [w for w in caught if "zero density" in str(w.message)]
