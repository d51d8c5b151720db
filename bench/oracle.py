"""Closed-form oracle for the Robin eigenvalue loop written by `rellich`.

The Robin problem -u'' = lam u, u(0) = 0, u'(1) = kappa u(1) has, by its
bracket structure alone (no scan, no tolerance on a grid):

* kappa = inf (u(1) = 0): lam = (k pi)^2 for k = 1, 2, ...
* finite kappa, positive lam = w^2: one root of w cot w = kappa in each
  (k pi, (k+1) pi) for k >= 1, where w cot w falls from +inf to -inf, and
  one in (0, pi) iff kappa < 1, where it falls from 1 to -inf;
* lam = 0 iff kappa = 1 (u = x);
* one negative lam = -s^2 iff 1 < kappa < inf, with s the root of
  s - kappa tanh s in (0, kappa].

Every bracket of every loop sample is bisected at once as a numpy array.
This module never imports the package under test.
"""

from __future__ import annotations

import csv
import math

import numpy as np

ROOT_RTOL = 1e-8      # relative agreement required between CSV and oracle
KAPPA_RTOL = 1e-12    # kappa column against the loop map


def loop_thetas(samples):
    """The loop grid: `samples` equally spaced angles in [0, 2 pi)."""
    return np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)


def loop_kappa(theta):
    """The loop map kappa = -tan(theta / 2), with the chart point at pi."""
    half = 0.5 * theta
    if abs(math.cos(half)) < 1e-12:
        return math.inf
    return -math.tan(half) + 0.0


def _is_unit(kappa):
    return abs(1.0 - kappa) <= 1e-12 * max(1.0, abs(kappa))


def _bisect(lo, hi, positive_below_root, iters=200):
    """Vectorized bisection of a function that changes sign once per bracket.

    `positive_below_root(x)` is True where x lies below the root.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = positive_below_root(mid)
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def robin_eigenvalues(kappas, lambda_max):
    """Oracle eigenvalues <= lambda_max for each kappa, as sorted lists."""
    omega_top = math.sqrt(lambda_max)
    out = [[] for _ in kappas]
    pos_idx, pos_lo, pos_k = [], [], []
    neg_idx, neg_k = [], []
    for i, kappa in enumerate(kappas):
        if math.isinf(kappa):
            k = 1
            while (k * math.pi) ** 2 <= lambda_max:
                out[i].append((k * math.pi) ** 2)
                k += 1
            continue
        unit = _is_unit(kappa)
        if unit:
            out[i].append(0.0)
        elif kappa > 1.0:
            neg_idx.append(i)
            neg_k.append(kappa)
        first = 0 if (kappa < 1.0 and not unit) else 1
        for k in range(first, int(omega_top / math.pi) + 1):
            pos_idx.append(i)
            pos_lo.append(k * math.pi)
            pos_k.append(kappa)
    if pos_idx:
        kap = np.array(pos_k)
        lo = np.array(pos_lo)
        roots = _bisect(lo, lo + math.pi,
                        lambda w: w / np.tan(w) - kap > 0.0)
        for i, w in zip(pos_idx, roots):
            if w * w <= lambda_max:
                out[i].append(float(w * w))
    if neg_idx:
        kap = np.array(neg_k)
        roots = _bisect(np.zeros_like(kap), kap,
                        lambda s: s - kap * np.tanh(s) < 0.0)
        for i, s in zip(neg_idx, roots):
            out[i].append(float(-s * s))
    return [sorted(v) for v in out]


def _match(expected, got):
    """Greedy match of two sorted lists; returns (missing, spurious)."""
    missing = spurious = 0
    i = j = 0
    while i < len(expected) or j < len(got):
        if i < len(expected) and j < len(got):
            e, g = expected[i], got[j]
            if abs(e - g) <= ROOT_RTOL * max(1.0, abs(e)):
                i += 1
                j += 1
            elif e < g:
                missing += 1
                i += 1
            else:
                spurious += 1
                j += 1
        elif i < len(expected):
            missing += 1
            i += 1
        else:
            spurious += 1
            j += 1
    return missing, spurious


class RobinOracle:
    """Expected eigenvalues of the `rellich` loop for one grid size."""

    def __init__(self, samples, lambda_max):
        self.thetas = loop_thetas(samples)
        self.kappas = [loop_kappa(float(t)) for t in self.thetas]
        self.expected = robin_eigenvalues(self.kappas, lambda_max)

    def check_csv(self, path):
        """Compare `rellich_branches.csv` with the oracle.

        Returns {"missing", "spurious", "bad_rows"}: oracle eigenvalues
        absent from the file, listed eigenvalues the oracle does not have,
        and rows whose theta is off the grid or whose kappa disagrees with
        the loop map.
        """
        index = {float(t): i for i, t in enumerate(self.thetas)}
        got = [[] for _ in self.thetas]
        bad_rows = 0
        with open(path, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                i = index.get(float(row["theta"]))
                if i is None:
                    bad_rows += 1
                    continue
                kappa, want = float(row["kappa"]), self.kappas[i]
                if not (kappa == want or abs(kappa - want)
                        <= KAPPA_RTOL * max(1.0, abs(want))):
                    bad_rows += 1
                got[i].append(float(row["lambda"]))
        missing = spurious = 0
        for expected, listed in zip(self.expected, got):
            m, s = _match(expected, sorted(listed))
            missing += m
            spurious += s
        return {"missing": missing, "spurious": spurious,
                "bad_rows": bad_rows}
