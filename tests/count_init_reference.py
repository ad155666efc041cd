"""The count-mixture start row by row: the test oracle for
:func:`countmix.mixture._count_mixture_start`.

It runs the ``INIT_EM_ITER`` EM iterations of the covariate-free Poisson
mixture over all n rows, with log y! kept in each row's log-density and
the general posterior pass of :mod:`countmix.mixture`, and draws the
jitter, takes the fallbacks and warns exactly as the production start.
"""

import numpy as np

from countmix.mixture import INIT_EM_ITER, _as_seedseq, _posterior, _quantile_split


def count_mixture_start_rows(d, G, seed):
    """:func:`countmix.mixture._count_mixture_start`, one posterior row per observation."""
    if G == 1:
        return np.ones((d.n, 1))
    y = d.y.astype(float)
    if np.unique(d.y).size < G:
        return _quantile_split(d.y, G, f"fewer than {G} distinct count values")

    rng = np.random.default_rng(_as_seedseq(seed))
    lam = np.quantile(y, (np.arange(G) + 0.5) / G)
    lam = np.maximum(lam, 1e-6)
    for g in range(1, G):
        if lam[g] <= lam[g - 1]:
            lam[g] = lam[g - 1] * (1.0 + 0.05 * (1.0 + rng.random()))
    pis = np.full(G, 1.0 / G)
    lgy = d.log_y_factorial
    resp = None
    for _ in range(INIT_EM_ITER):
        logf = y[:, None] * np.log(lam)[None, :] - lam[None, :] - lgy[:, None]
        _, resp = _posterior(logf, pis)
        pis = np.clip(resp.mean(axis=0), 1e-12, None)
        pis = pis / pis.sum()
        mass = resp.sum(axis=0)
        ok = mass > 1e-9
        lam[ok] = np.maximum((resp[:, ok] * y[:, None]).sum(axis=0) / mass[ok], 1e-6)
    labels = np.argmax(resp, axis=1)
    if np.unique(labels).size < G:
        return _quantile_split(d.y, G, "count-mixture initialization left an empty group")
    hard = np.zeros((d.n, G))
    hard[np.arange(d.n), labels] = 1.0
    return hard
