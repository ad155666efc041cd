import numpy as np
import pytest

from countmix import Dataset


@pytest.fixture
def intercept_only():
    def make(y):
        y = np.asarray(y)
        return Dataset(y=y, X=np.ones((y.size, 1)), names=())

    return make


@pytest.fixture
def poisson_data():
    """Seeded single-component Poisson regression dataset."""

    def make(n=200, beta=(1.5, 0.4), seed=0):
        rng = np.random.default_rng(seed)
        beta = np.asarray(beta, dtype=float)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, beta.size - 1))])
        y = rng.poisson(np.exp(X @ beta))
        names = tuple(f"x{j + 1}" for j in range(beta.size - 1))
        return Dataset(y=y, X=X, names=names)

    return make


@pytest.fixture
def binary_split_data():
    """Poisson counts driven by a 0/1 covariate, n=50.

    A component that keeps only one value of x2 has a singular weighted
    design, so every restart fails at some G: at G=4 and 5 for seed 3,
    at G=3 alone for seed 12 (sweeps with seed 0 and 2 restarts).
    """

    def make(seed):
        n = 50
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.normal(size=n), (rng.random(n) < 0.5).astype(float)])
        y = rng.poisson(np.exp(1.0 + 0.3 * X[:, 1] + 2.5 * X[:, 2]))
        return Dataset(y=y, X=X, names=("x1", "x2"))

    return make


@pytest.fixture
def hiv_schema_csv(tmp_path):
    """95-row synthetic file using the 8-covariate study schema.

    The row count is a property of this fixture file only.
    """
    rng = np.random.default_rng(2010)
    n = 95
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
    eta = 2.0 + 1.5 * cols["URB"] - 1.0 * (cols["NHW"] - 0.8)
    hiv = rng.poisson(np.exp(eta))
    path = tmp_path / "hiv_like.csv"
    header = "HIV," + ",".join(cols)
    lines = [header]
    for i in range(n):
        lines.append(
            ",".join([str(int(hiv[i]))] + [repr(float(cols[c][i])) for c in cols])
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, list(cols)
