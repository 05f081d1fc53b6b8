"""Seeded input generators owned by the benchmark.

The library's own ``gen_mackey_glass`` uses 0.1/0.01 coefficients and settles
to a fixed point beyond about 1000 samples, so test targets go constant. The
benchmark therefore synthesizes its series itself: the chaotic Mackey-Glass
recursion (beta=0.2, gamma=0.1, tau=17) and an AE-index-like 1-minute series.

Each generator has a fixed underlying system and draws observation noise (and,
for AE, the missing-value gaps) from the seed. Values differ between seeds,
but the forecasting difficulty does not: re-drawing the whole chaotic
trajectory or storm schedule per seed moves the held-out NMSE by 40-50%
(interquartile range over ten seeds), too much to compare two commits on.
"""

from __future__ import annotations

import numpy as np

MINUTES_PER_DAY = 1440
AE_SENTINEL = 99999.0
# Fixed seed of the underlying AE-like storm schedule; the run seed only
# draws noise and gaps on top of it.
_AE_SCENARIO = 20200730


def mackey_glass(n: int, seed: int, noise: float = 1e-3, warmup: int = 1000,
                 tau: int = 17, beta: float = 0.2, gamma: float = 0.1) -> np.ndarray:
    """Chaotic discrete Mackey-Glass series of length ``n`` plus seeded noise.

    Iterates ``x[t+1] = x[t] + beta*x[t-tau]/(1+x[t-tau]**10) - gamma*x[t]``
    from the constant history 1.2, drops ``warmup`` values so the series
    starts on the attractor, then adds Gaussian noise of std ``noise``.
    """
    x = [1.2] * (tau + 1)
    for _ in range(warmup + n - 1):
        cur, delayed = x[-1], x[-1 - tau]
        x.append(cur + beta * delayed / (1.0 + delayed ** 10) - gamma * cur)
    clean = np.asarray(x[tau + warmup:], dtype=np.float64)
    return clean + np.random.default_rng(seed).normal(0.0, noise, n)


def _ae_scenario(n: int, minutes_per_day: int, storms_per_day: float) -> np.ndarray:
    rng = np.random.default_rng(_AE_SCENARIO)
    t = np.arange(n, dtype=np.float64)
    base = 45.0 + 15.0 * np.sin(2.0 * np.pi * t / minutes_per_day)
    storms = np.zeros(n)
    n_storms = rng.poisson(storms_per_day * n / minutes_per_day)
    for onset in np.sort(rng.uniform(0.0, n, n_storms)):
        height = float(np.clip(rng.lognormal(np.log(300.0), 0.6), 60.0, 1500.0))
        rise = rng.uniform(5.0, 20.0)
        decay = rng.uniform(30.0, 120.0)
        lo, hi = int(onset), min(n, int(onset + rise + 8.0 * decay))
        dt = t[lo:hi] - onset
        storms[lo:hi] += height * np.clip(np.where(dt < rise, dt / rise,
                                                   np.exp(-(dt - rise) / decay)), 0.0, None)
    eps = rng.normal(0.0, 0.04, n)
    ar = np.empty(n)
    ar[0] = eps[0]
    for i in range(1, n):
        ar[i] = 0.97 * ar[i - 1] + eps[i]
    return np.maximum((base + storms) * np.exp(ar), 5.0)


def ae_like(days: int, seed: int, minutes_per_day: int = MINUTES_PER_DAY,
            gap_days=(), gaps_per_day: int = 2, storms_per_day: float = 12.0,
            noise: float = 0.1) -> np.ndarray:
    """Positive, bursty 1-minute series shaped like the auroral-electrojet index.

    A quiet diurnal baseline carries superposed substorm bursts (fast rise,
    exponential recovery, log-normal peaks of a few hundred nT) under a
    multiplicative AR(1) fluctuation. The seed adds Gaussian noise of std
    ``noise`` nT and places ``gaps_per_day`` runs of ``AE_SENTINEL`` (1-6
    minutes) inside each day of ``gap_days`` (1-based), at least 30 minutes
    from the day's edges so linear interpolation can fill them.
    """
    rng = np.random.default_rng(seed)
    n = days * minutes_per_day
    values = _ae_scenario(n, minutes_per_day, storms_per_day) + rng.normal(0.0, noise, n)
    for day in gap_days:
        lo = (day - 1) * minutes_per_day + 30
        hi = day * minutes_per_day - 36
        for start in rng.choice(np.arange(lo, hi), size=gaps_per_day, replace=False):
            values[start:start + int(rng.integers(1, 7))] = AE_SENTINEL
    return values
