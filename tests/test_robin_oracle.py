"""40-digit oracle for the Robin secular roots.

Every eigenvalue <= 400 of the 720-sample Robin loop, and of a few kappas
far out or next to the unit band, is held to its root computed by mpmath
at 40 digits, and its error is reported in units in the last place of
lam.  The float roots are the adjacent-float sign changes of the solver's
sign tests; near kappa = 1 those tests are flat over many floats, so the
error there is that of the test, not of the search.  The bounds are the
worst errors of the bisection solver this module was written against
(see WORST_ULPS).
"""

import math

import numpy as np
import pytest

from tripletflow import sturm

mp = pytest.importorskip("mpmath")

LAMBDA_MAX = 400.0
EXTRA_KAPPAS = (-1e6, -50.0, 14.0, 229.0, 1e6, 1e155, 1.0 + 1e-9,
                1.0 - 1e-9, 1.0 + 2e-12, 1.0 - 2e-12)
# the worst error of the bisection solver, in ulps of lam: on the whole
# set (at kappa = 1 - 2e-12, where lam = 6e-12 is off by 6e-5 of itself)
# and on the loop alone (at kappa = 0.99131)
WORST_ULPS = 3.1210703887e11
WORST_LOOP_ULPS = 101.71


def _loop_kappas():
    thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    return [sturm.kappa_of_theta(t) for t in thetas]


def _reference(kappa, lam, k):
    """The 40-digit root of the bracket k of kappa (k = -1: the negative
    one) next to the float lam."""
    with mp.workdps(40):
        if math.isinf(kappa):
            return (k * mp.pi) ** 2
        kap = mp.mpf(kappa)
        if k < 0:
            s0 = kap if math.isinf(lam) else mp.sqrt(-mp.mpf(lam))
            s = mp.findroot(lambda s: s - kap * mp.tanh(s), s0)
            assert 0 < s <= kap
            return -s * s
        # omega - k pi - atan2(omega, kappa): increasing, free of poles
        w = mp.findroot(lambda w: w - k * mp.pi - mp.atan2(w, kap),
                        mp.mpf(math.sqrt(lam)))
        assert k * mp.pi - 1e-30 <= w <= (k + 1) * mp.pi + 1e-30
        return w * w


def _ulps(lam, ref):
    nearest = float(ref)
    if math.isinf(nearest):
        return 0.0 if lam == nearest else math.inf
    return float(abs(mp.mpf(lam) - ref)) / float(np.spacing(abs(nearest)))


def robin_root_errors(kappas):
    """(kappa, lam, error in ulps of lam) for every eigenvalue <= 400 of
    the kappas outside the unit band, where lam = 0 is set, not solved."""
    kappas = [k for k in kappas
              if math.isinf(k) or abs(1.0 - k) > 1e-12 * max(1.0, abs(k))]
    rows = []
    for kappa, eigs in zip(kappas, sturm.secular_eigenvalues_batch(
            kappas, LAMBDA_MAX)):
        # the positive roots fill the brackets from (0, pi) where kappa < 1
        # and from (pi, 2 pi) otherwise
        first = 0 if kappa < 1.0 else 1
        positive = [lam for lam in eigs.tolist() if lam > 0.0]
        for lam in eigs.tolist():
            k = positive.index(lam) + first if lam > 0.0 else -1
            rows.append((kappa, lam, _ulps(lam, _reference(kappa, lam, k))))
    return rows


def _worst(rows, count=5):
    return sorted(rows, key=lambda row: -row[2])[:count]


def test_robin_roots_against_40_digit_oracle():
    loop = robin_root_errors(_loop_kappas())
    extra = robin_root_errors(EXTRA_KAPPAS)
    assert len(loop) > 4000 and len(extra) > 50
    for kappa, lam, ulps in _worst(loop + extra):
        print(f"kappa={kappa!r} lam={lam!r}: {ulps:.4g} ulps")
    worst = max(row[2] for row in loop + extra)
    assert worst <= WORST_ULPS, _worst(loop + extra)
    assert max(row[2] for row in loop) <= WORST_LOOP_ULPS, _worst(loop)
    # far from kappa = 1 the sign tests are sharp: a few ulps at most
    sharp = [row for row in loop + extra if abs(1.0 - row[0]) > 0.2]
    assert max(row[2] for row in sharp) <= 8.0, _worst(sharp)
