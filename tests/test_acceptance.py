"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The heavier criteria (2 and 3) measure their own
wall-clock budgets.
"""

import csv
import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize, stats

from countmix import (
    NB2,
    POISSON,
    CovariateMask,
    Dataset,
    MixtureSpec,
    c1_complexity,
    choose_family,
    em_fit,
    evolve,
    fitness,
    fit_poisson,
    gen_regression_mixture,
    icomp,
    nb2_loglik,
    nb2_loglik_grad,
    poisson_loglik,
    poisson_loglik_grad,
    report_components,
    select_best,
    sweep,
)
from countmix import GaConfig
from countmix.cli import main as cli_main
from countmix.criteria import ScoreRow
from numdiff import jacobian_central


def _report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def _row(G, aic=np.nan, caic=np.nan, icomp_val=None):
    return ScoreRow(
        G=G, logL=-1.0, n_k=1, aic=aic, sbc=0.0, caic=caic,
        icomp=icomp_val, ifim_condition=None,
    )


def test_criterion_1_selection_argmin_on_published_values():
    aic_col = (2931.14, 1392.98, 1400.08, 1428.51, 1455.42)
    caic_col = (2939.74, 1414.47, 1434.46, 1475.79, 1515.59)
    icomp_col = (2944.77, 1416.78, 1434.19, 1472.49, None)
    rows = [
        _row(g + 1, aic=a, caic=c, icomp_val=i)
        for g, (a, c, i) in enumerate(zip(aic_col, caic_col, icomp_col))
    ]
    select_best(rows, "aic")  # warm-up outside the timed region
    t0 = time.perf_counter()
    picks = (
        select_best(rows, "aic"),
        select_best(rows, "caic"),
        select_best(rows, "icomp"),
    )
    elapsed = time.perf_counter() - t0
    ok = picks == (2, 2, 2) and elapsed < 1e-3
    _report(1, f"published-score argmin picks G=2 for all criteria in {elapsed * 1e6:.0f} us", ok)


def test_criterion_2_synthetic_g_recovery():
    spec = MixtureSpec(
        weights=(0.45, 0.55),
        betas=((0.3, 1.0, -0.6), (3.6, -0.7, 0.5)),
        alphas=(0.0, 0.0),
    )
    hits = {"aic": 0, "caic": 0, "icomp": 0}
    t0 = time.perf_counter()
    for seed in range(20):
        d, _ = gen_regression_mixture(spec, 500, seed=seed)
        res = sweep(d, 5, seed=seed, restarts=1, family=POISSON)
        for crit in hits:
            if res.best.get(crit) == 2:
                hits[crit] += 1
    elapsed = time.perf_counter() - t0
    ok = all(v >= 18 for v in hits.values()) and elapsed < 60.0
    _report(2, f"G=2 recovered {hits} of 20 runs in {elapsed:.1f}s (< 60s)", ok)


def test_criterion_3_em_monotonicity():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        G = 1 + (i % 4)
        family = POISSON if i % 2 == 0 else NB2
        alpha = 0.0 if family == POISSON else 0.6
        spec = MixtureSpec(
            weights=(0.5, 0.5),
            betas=((0.5, 0.8), (2.8, -0.5)),
            alphas=(alpha, alpha),
        )
        d, _ = gen_regression_mixture(spec, 160, seed=1000 + i)
        m = em_fit(d, G, family, seed=i, restarts=2)
        if m.loglik_trace.size > 1:
            worst = min(worst, float(np.diff(m.loglik_trace).min()))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-8 and elapsed < 120.0
    _report(3, f"100 EM runs, worst per-step decrement {worst:.2e} in {elapsed:.1f}s (< 2 min)", ok)


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(404)
    X = np.column_stack([np.ones(60), rng.normal(size=60)])
    y = rng.poisson(np.exp(1.2 + 0.4 * X[:, 1]))
    d = Dataset(y=y, X=X, names=("x",))
    worst = 0.0
    for k in range(50):
        beta = rng.normal(0.6, 0.5, size=2)
        if k % 2 == 0:
            g = poisson_loglik_grad(beta, d)
            fd = jacobian_central(
                lambda b: np.array([poisson_loglik(b, d)]), beta, rel_step=1e-6
            )[0]
        else:
            alpha = float(rng.uniform(0.05, 3.0))
            theta = np.concatenate([beta, [alpha]])
            g = nb2_loglik_grad(beta, alpha, d)
            fd = jacobian_central(
                lambda t: np.array([nb2_loglik(t[:2], t[2], d)]), theta, rel_step=1e-6
            )[0]
        worst = max(worst, float(np.max(np.abs(g - fd) / (1.0 + np.abs(fd)))))
    ok = worst < 1e-5
    _report(4, f"analytic vs central-difference gradients, worst rel err {worst:.2e}", ok)


def test_criterion_5_family_nesting_and_gate():
    rng = np.random.default_rng(505)
    worst = 0.0
    for k in range(10):
        n = int(rng.integers(40, 120))
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(np.exp(rng.uniform(0.5, 2.0) + 0.3 * X[:, 1]))
        d = Dataset(y=y, X=X, names=("x",))
        beta = rng.normal(1.0, 0.3, size=2)
        worst = max(worst, abs(nb2_loglik(beta, 1e-10, d) - poisson_loglik(beta, d)))
    nest_ok = worst < 1e-4

    # n large enough that the fitted dispersion separates the families
    # decisively (its sampling noise scales like sqrt(2/n))
    gate_hits = 0
    for seed in range(20):
        g = np.random.default_rng(9000 + seed)
        Xp = np.column_stack([np.ones(600), g.normal(size=600)])
        mu = np.exp(1.4 + 0.3 * Xp[:, 1])
        equi = Dataset(y=g.poisson(mu), X=Xp, names=("x",))
        over = Dataset(y=g.poisson(g.gamma(1.0, mu)), X=Xp, names=("x",))
        if choose_family(equi) == POISSON and choose_family(over) == NB2:
            gate_hits += 1
    ok = nest_ok and gate_hits == 20
    _report(
        5,
        f"alpha->0 agreement worst {worst:.2e} (< 1e-4); family gate correct {gate_hits}/20",
        ok,
    )


def test_criterion_6_glm_matches_brute_force_oracle():
    rng = np.random.default_rng(606)
    X = np.column_stack([np.ones(10), rng.normal(size=10)])
    y = rng.poisson(np.exp(1.0 + 0.5 * X[:, 1]))
    d = Dataset(y=y, X=X, names=("x",))
    fit = fit_poisson(d)

    # independent oracle: derivative-free maximization of the literal
    # pmf product, never touching the package's likelihood code
    def neg_loglik(beta):
        mu = np.exp(X @ beta)
        return -float(stats.poisson.logpmf(y, mu).sum())

    res = optimize.minimize(
        neg_loglik,
        x0=np.zeros(2),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000},
    )
    gap = float(np.max(np.abs(fit.beta - res.x)))
    ok = res.success and gap < 1e-6
    _report(6, f"Newton fit vs derivative-free pmf oracle, max |dbeta| = {gap:.2e}", ok)


def test_criterion_7_icomp_complexity_properties():
    ident_ok = c1_complexity(np.eye(7)) == 0.0

    rng = np.random.default_rng(707)
    min_c1 = np.inf
    for _ in range(100):
        s = int(rng.integers(2, 8))
        A = rng.normal(size=(s, s))
        min_c1 = min(min_c1, c1_complexity(A @ A.T + 0.05 * np.eye(s)))
    spd_ok = min_c1 >= -1e-12

    conj_ok = True
    for seed in range(5):
        A = rng.normal(size=(5, 5))
        sigma = A @ A.T + 0.5 * np.eye(5)
        Q = stats.ortho_group.rvs(5, random_state=seed)
        if abs(c1_complexity(Q @ sigma @ Q.T) - c1_complexity(sigma)) > 1e-9:
            conj_ok = False

    unavailable_ok = icomp(-10.0, np.diag([1.0, 1e-14, 2.0])) is None

    ok = ident_ok and spd_ok and conj_ok and unavailable_ok
    _report(
        7,
        "C1(I)=0, C1>=0 on 100 SPD draws, orthogonal invariance, "
        "near-singular info marked unavailable",
        ok,
    )


def test_criterion_8_ga_exhaustive_optimality():
    rng = np.random.default_rng(808)
    n, p = 180, 4
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p))])
    y = rng.poisson(np.exp(1.0 + 0.9 * X[:, 1] - 0.7 * X[:, 3]))
    d = Dataset(y=y, X=X, names=tuple(f"x{j+1}" for j in range(p)))

    cache = {}
    oracle_key, oracle_val = None, np.inf
    for bits in itertools.product([False, True], repeat=p):
        mask = CovariateMask(np.array(bits))
        val = fitness(mask, d, 1, POISSON, "caic", cache, seed=4, restarts=1)
        if val < oracle_val:
            oracle_key, oracle_val = mask.key, val

    cfg = GaConfig(
        pop_size=12, generations=8, runs=20, seed=4, G=1, restarts=1,
        criterion="caic", elitism=2,
    )
    records = evolve(d, cfg, family=POISSON)
    every_run_optimal = len(records) == 1 and records[0].mask.key == oracle_key

    full_val = fitness(CovariateMask.all_ones(p), d, 1, POISSON, "caic", cache, seed=4, restarts=1)
    res = sweep(d, 1, seed=4, restarts=1, family=POISSON)
    identity_ok = full_val == res.rows[0].caic

    cfg200 = GaConfig(
        pop_size=8, generations=4, runs=200, seed=4, G=1, restarts=1,
        criterion="caic", elitism=2,
    )
    recs200 = evolve(d, cfg200, family=POISSON)
    freq_ok = sum((r.rel_freq for r in recs200), Fraction(0)) == 1

    ok = every_run_optimal and identity_ok and freq_ok
    _report(
        8,
        "GA == exhaustive optimum in 20/20 runs; all-ones mask == full-model "
        "score; rel_freq sums to 1 exactly over 200 runs",
        ok,
    )


def test_criterion_9_report_reproducibility(tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--out", str(sim), "--seed", "17", "--groups", "2", "--n-per-group", "40"]) == 0
    out = tmp_path / "run"
    argv = [
        "sweep", "--data", str(sim / "data.csv"), "--outcome", "y",
        "--covariates", "x", "--seed", "11", "--gmax", "3",
        "--restarts", "1", "--family", "poisson", "--out", str(out),
    ]
    assert cli_main(argv) == 0
    scores_1 = (out / "scores.csv").read_bytes()
    report_1 = (out / "report.json").read_bytes()
    recorded = json.loads(report_1)["invocation"]["argv"]
    assert cli_main(recorded) == 0
    scores_2 = (out / "scores.csv").read_bytes()
    report_2 = (out / "report.json").read_bytes()
    ok = scores_1 == scores_2 and report_1 == report_2
    _report(9, "re-running the recorded invocation reproduces scores.csv byte-for-byte", ok)


def test_criterion_10_wald_interval_arithmetic():
    rng = np.random.default_rng(1010)
    X = np.column_stack([np.ones(150), rng.normal(size=150)])
    y = rng.poisson(np.exp(1.2 + 0.4 * X[:, 1]))
    d = Dataset(y=y, X=X, names=("x",))
    model = em_fit(d, 1, POISSON, seed=0, restarts=1)
    worst = 0.0
    for row in report_components(model, d)[0]["rows"]:
        worst = max(worst, abs(row["lo"] - (row["beta"] - 1.96 * row["se"])))
        worst = max(worst, abs(row["hi"] - (row["beta"] + 1.96 * row["se"])))
    fitted_ok = worst < 1e-10

    # published fixture row: beta=-1.85, se=0.51 -> approximately (-2.85, -0.85)
    lo, hi = -1.85 - 1.96 * 0.51, -1.85 + 1.96 * 0.51
    fixture_ok = round(lo, 2) == -2.85 and round(hi, 2) == -0.85

    ok = fitted_ok and fixture_ok
    _report(10, f"Wald bounds exact to {worst:.1e} on fitted values; fixture row rounds to (-2.85, -0.85)", ok)
