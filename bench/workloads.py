"""The benchmark's three workloads: inputs, one repetition of the job, checks.

Every input is drawn here with seeded numpy; countmix only ever sees the
finished datasets or CSV files.  A workload object makes its inputs once
(``__init__``) and runs one whole repetition of its job per ``run(k)``
call, k counting repetitions from 0.  ``run`` returns the outputs, the
number of failed operations and the time of each operation, in the same
order on every repetition.  It passes each operation's wall time to
``after_op`` as soon as the operation ends and keeps the time that
``after_op`` returns.  ``CHECKPOINTS`` names the countmix bindings after
whose calls a timed run may run calibration blocks inside an operation.  Repetitions with the same
``key(k)`` use the same inputs, and ``check`` tests the first outputs of
each key against ``reference``.  ``digest`` condenses the outputs so
that repetitions with one key can be compared exactly: countmix is
deterministic for fixed inputs and seeds.

Why these three, and why their sizes, is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import countmix
import countmix.cli
from countmix import CountmixError, Dataset

POISSON = "poisson"
NB2 = "nb2"


def _stream(tag: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([tag, seed]))


def _write_csv(path, header, y, X):
    """Outcome then covariate columns; floats in repr so they read back exactly."""
    lines = [",".join(header)]
    for i in range(y.size):
        lines.append(",".join([str(int(y[i]))] + [repr(float(v)) for v in X[i, 1:]]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# calls go through the module attributes, so that a traced run sees them
def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return countmix.cli.main(argv)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class EmMixed:
    """Library-level ``em_fit`` calls over Poisson and NB-2 mixtures.

    One repetition fits the six-model list (Poisson G=1..4, NB-2 G=1..2)
    to one replicate set: a dataset per cell, each drawn from a
    G-component mixture of that family with well-separated intercepts, so
    every fit answers the question it asks and EM converges.  Repetition
    k uses set k mod SETS, so the median over a run's repetitions spans
    many datasets instead of repeating one.
    """

    name = "em_mixed"
    CHECKPOINTS = ()
    CELLS = ((POISSON, 1), (POISSON, 2), (POISSON, 3), (POISSON, 4), (NB2, 1), (NB2, 2))
    SETS = 64
    TRACE_REPS = 10
    N = 160
    RESTARTS = 2
    ALPHA = 0.1
    INTERCEPTS = (0.5, 2.5, 4.5, 6.5)
    SLOPES = (0.8, -0.5, 0.4, -0.3)

    def __init__(self, seed: int, out_dir: str):
        rng = _stream(1, seed)
        self.sets = []
        for r in range(self.SETS):
            tasks = []
            for c, (family, G) in enumerate(self.CELLS):
                X = np.column_stack([np.ones(self.N), rng.standard_normal(self.N)])
                labels = rng.permutation(np.arange(self.N) % G)
                mu = np.exp(np.take(self.INTERCEPTS, labels) + np.take(self.SLOPES, labels) * X[:, 1])
                if family == NB2:
                    mu = rng.gamma(1.0 / self.ALPHA, self.ALPHA * mu)
                y = rng.poisson(mu)
                fit_seed = 1000 * seed + 10 * r + c
                tasks.append((family, G, Dataset(y=y, X=X, names=("x1",)), fit_seed))
            self.sets.append(tasks)

    def operations(self) -> int:
        return len(self.CELLS)

    def key(self, k: int) -> int:
        return k % self.SETS

    def run(self, k: int, after_op):
        models, failed, times = [], 0, []
        for family, G, d, fit_seed in self.sets[self.key(k)]:
            t0 = time.perf_counter()
            try:
                models.append(countmix.em_fit(d, G, family, seed=fit_seed, restarts=self.RESTARTS))
            except CountmixError:
                models.append(None)
                failed += 1
            times.append(after_op(time.perf_counter() - t0))
        return models, failed, times

    def digest(self, models) -> str:
        h = hashlib.sha256()
        for m in models:
            if m is None:
                h.update(b"failed")
                continue
            h.update(repr((m.family, m.logL, m.converged, m.iterations, m.warnings)).encode())
            for comp in m.components:
                h.update(repr((comp.pi, comp.alpha)).encode())
                h.update(np.ascontiguousarray(comp.beta).tobytes())
            h.update(np.ascontiguousarray(m.responsibilities).tobytes())
            h.update(np.ascontiguousarray(m.loglik_trace).tobytes())
        return h.hexdigest()

    def check(self, outputs) -> list[str]:
        import reference as ref

        problems = []
        for key, models in sorted(outputs.items()):
            for (family, G, d, _), m in zip(self.sets[key], models):
                if m is None:
                    continue
                where = f"em_mixed set {key} ({family}, G={G})"
                y, X = d.y, d.X
                # every restart collapsing is answered, as documented, by a refit at G-1
                if m.G != G and not any(f"collapsed at G={G}" in w for w in m.warnings):
                    problems.append(f"{where}: returned G={m.G} without a collapse note")
                if m.loglik_trace.size > 1 and np.diff(m.loglik_trace).min() < -1e-8:
                    problems.append(f"{where}: loglik_trace decreases by {-np.diff(m.loglik_trace).min():.3g}")
                pis = [c.pi for c in m.components]
                betas = [c.beta for c in m.components]
                alphas = [c.alpha for c in m.components]
                ll = ref.mixture_loglik(y, X, pis, betas, alphas, family)
                if not ref.close(m.logL, ll, 1e-8):
                    problems.append(f"{where}: logL {m.logL!r} but reference gives {ll!r}")
                resp = ref.responsibilities(y, X, pis, betas, alphas, family)
                err = float(np.max(np.abs(resp - m.responsibilities)))
                if err > 1e-8:
                    problems.append(f"{where}: responsibilities differ from reference by {err:.3g}")
                if m.G == 1:
                    best = ref.mle(y, X, family)
                    if not ref.close(m.logL, best, 1e-6):
                        problems.append(f"{where}: logL {m.logL!r} but reference MLE gives {best!r}")
        return problems


class SweepPoisson:
    """``countmix sweep --family poisson --gmax 2`` on several CSV files.

    Each file holds n=500 rows drawn from the two-component Poisson
    regression mixture of acceptance criterion 2.
    """

    name = "sweep_poisson"
    CHECKPOINTS = ()
    DATASETS = 25
    N = 500
    GMAX = 2
    WEIGHTS = (0.45, 0.55)
    BETAS = ((0.3, 1.0, -0.6), (3.6, -0.7, 0.5))
    TRUE_G = 2
    TRACE_REPS = 1

    def __init__(self, seed: int, out_dir: str):
        rng = _stream(2, seed)
        self.inputs = []
        betas = np.asarray(self.BETAS)
        for k in range(self.DATASETS):
            labels = rng.choice(len(self.WEIGHTS), size=self.N, p=self.WEIGHTS)
            X = np.column_stack([np.ones(self.N), rng.standard_normal((self.N, 2))])
            y = rng.poisson(np.exp(np.einsum("ij,ij->i", X, betas[labels])))
            data = os.path.join(out_dir, f"data{k}.csv")
            _write_csv(data, ["y", "x1", "x2"], y, X)
            out = os.path.join(out_dir, f"sweep{k}")
            argv = [
                "sweep", "--data", data, "--outcome", "y", "--covariates", "x1,x2",
                "--seed", str(100 * seed + k), "--gmax", str(self.GMAX),
                "--family", "poisson", "--out", out,
            ]
            self.inputs.append((y, X, argv, out))

    def operations(self) -> int:
        return len(self.inputs)

    def key(self, k: int) -> int:
        return 0

    def run(self, k: int, after_op):
        outputs, failed, times = [], 0, []
        for _, _, argv, out in self.inputs:
            t0 = time.perf_counter()
            status = _run_cli(argv)
            times.append(after_op(time.perf_counter() - t0))
            if status != 0:
                outputs.append(None)
                failed += 1
                continue
            outputs.append((_read(os.path.join(out, "report.json")), _read(os.path.join(out, "scores.csv"))))
        return outputs, failed, times

    def digest(self, outputs) -> str:
        h = hashlib.sha256()
        for o in outputs:
            h.update(b"failed" if o is None else b"".join(o))
        return h.hexdigest()

    def check(self, outputs) -> list[str]:
        import reference as ref

        problems, recovered, attempted = [], 0, 0
        for k, ((y, X, _, _), o) in enumerate(zip(self.inputs, outputs[0])):
            if o is None:
                continue
            attempted += 1
            where = f"sweep_poisson dataset {k}"
            report = json.loads(o[0])
            n, p = X.shape[0], X.shape[1] - 1
            rows = {r["G"]: r for r in report["score_table"]}
            if report["family"] != POISSON or sorted(rows) != list(range(1, self.GMAX + 1)):
                problems.append(f"{where}: family {report['family']}, rows {sorted(rows)}")
                continue
            for G, r in rows.items():
                if r["error"] is not None:
                    problems.append(f"{where}: G={G} failed: {r['error']}")
                    continue
                if r["n_k"] != ref.n_params(G, p, POISSON):
                    problems.append(f"{where}: G={G} n_k {r['n_k']}")
                for crit, value in ref.criteria(r["logL"], G, p, n, POISSON).items():
                    if not ref.close(r[crit], value, 1e-12):
                        problems.append(f"{where}: G={G} {crit} {r[crit]!r}, formula gives {value!r}")
            mle = ref.poisson_mle(y, X)[1]
            if not ref.close(rows[1]["logL"], mle, 1e-6):
                problems.append(f"{where}: G=1 logL {rows[1]['logL']!r}, reference MLE {mle!r}")
            for crit, G in report["chosen"].items():
                scored = [(r[crit], g) for g, r in rows.items() if r["error"] is None and r[crit] is not None]
                if G != min(scored)[1]:
                    problems.append(f"{where}: chose G={G} by {crit}, argmin is G={min(scored)[1]}")
            selected = report["selected_G"]
            comps = report["components"]
            if len(comps) != selected:
                problems.append(f"{where}: {len(comps)} component tables for G={selected}")
                continue
            betas = [[row["beta"] for row in c["rows"][-1:] + c["rows"][:-1]] for c in comps]
            ll = ref.mixture_loglik(y, X, [c["pi"] for c in comps], betas, [0.0] * selected, POISSON)
            if not ref.close(ll, rows[selected]["logL"], 1e-8):
                problems.append(f"{where}: report components give logL {ll!r}, row has {rows[selected]['logL']!r}")
            recovered += report["chosen"].get("caic") == self.TRUE_G
        if attempted and recovered < math.ceil(0.9 * attempted):
            problems.append(f"sweep_poisson: CAIC recovered G={self.TRUE_G} on {recovered} of {attempted}")
        return problems


class GaStudy:
    """``countmix ga`` on one 95-row file with the eight study covariates.

    The file is drawn like the hiv_schema_csv test fixture: county shares
    and incomes on their real ranges, and a one-component Poisson count.
    """

    name = "ga_study"
    # one ga call is the whole job, so the blocks also run between its mask fits
    CHECKPOINTS = (("countmix.ga", "em_fit"),)
    N = 95
    COVARIATES = ("SCH", "POV", "INC", "URB", "UMP", "NHB", "NHW", "HSP")
    RUNS = 50
    GMAX = 1
    TRACE_REPS = 1

    def __init__(self, seed: int, out_dir: str):
        rng = _stream(3, seed)
        n = self.N
        cols = {
            "SCH": rng.uniform(0.05, 0.30, n),
            "POV": rng.uniform(0.05, 0.30, n),
            "INC": rng.uniform(10.0, 11.5, n),
            "URB": rng.integers(0, 2, n).astype(float),
            "UMP": rng.uniform(0.05, 0.18, n),
            "NHB": rng.uniform(0.0, 0.5, n),
            "NHW": rng.uniform(0.4, 1.0, n),
            "HSP": rng.uniform(0.0, 0.1, n),
        }
        self.y = rng.poisson(np.exp(2.0 + 1.5 * cols["URB"] - 1.0 * (cols["NHW"] - 0.8)))
        self.X = np.column_stack([np.ones(n)] + [cols[c] for c in self.COVARIATES])
        data = os.path.join(out_dir, "study.csv")
        _write_csv(data, ["HIV", *self.COVARIATES], self.y, self.X)
        self.out = os.path.join(out_dir, "ga")
        self.argv = [
            "ga", "--data", data, "--outcome", "HIV", "--covariates", ",".join(self.COVARIATES),
            "--seed", str(seed), "--gmax", str(self.GMAX), "--runs", str(self.RUNS), "--out", self.out,
        ]

    def operations(self) -> int:
        return 1

    def key(self, k: int) -> int:
        return 0

    def run(self, k: int, after_op):
        t0 = time.perf_counter()
        status = _run_cli(self.argv)
        times = [after_op(time.perf_counter() - t0)]
        if status != 0:
            return [None], 1, times
        files = ("report.json", "ga.csv", "components.csv")
        return [tuple(_read(os.path.join(self.out, f)) for f in files)], 0, times

    def digest(self, outputs) -> str:
        return hashlib.sha256(b"failed" if outputs[0] is None else b"".join(outputs[0])).hexdigest()

    def check(self, outputs) -> list[str]:
        import reference as ref

        files = outputs[0][0]
        if files is None:
            return []
        report = json.loads(files[0])
        if report["family"] != POISSON or report["selected_G"] != 1:
            return [f"ga_study: family {report['family']}, G={report['selected_G']}"]
        p = len(self.COVARIATES)
        scores = {}
        for code in range(2**p):
            bits = tuple(bool(code >> j & 1) for j in range(p))
            cols = [0] + [j + 1 for j in range(p) if bits[j]]
            logL = ref.poisson_mle(self.y, self.X[:, cols])[1]
            scores[bits] = ref.criteria(logL, 1, sum(bits), self.N, POISSON)
        problems = []
        records = report["ga_records"]
        if sum(r["wins"] for r in records) != self.RUNS or any(r["runs"] != self.RUNS for r in records):
            problems.append(f"ga_study: wins sum to {sum(r['wins'] for r in records)}, runs {self.RUNS}")
        for r in records:
            want = scores[tuple(r["bits"])]
            for crit in ("aic", "caic", "sbc"):
                if r[crit] is None or not ref.close(r[crit], want[crit], 1e-6):
                    problems.append(f"ga_study: subset [{r['subset']}] {crit} {r[crit]!r}, reference {want[crit]!r}")
        best = min(s["caic"] for s in scores.values())
        if not records or records[0]["caic"] is None or not ref.close(records[0]["caic"], best, 1e-6):
            problems.append(f"ga_study: winner CAIC {records[0]['caic'] if records else None!r}, minimum over all masks {best!r}")
        return problems


WORKLOADS = {w.name: w for w in (EmMixed, SweepPoisson, GaStudy)}
