"""40-digit oracle for the Robin secular roots.

Every eigenvalue <= 400 of the 720-sample Robin loop, and of a few kappas
far out or next to kappa = 1, is held to its root computed by mpmath at
40 digits, and its error is reported in units in the last place of lam.
The float roots are the adjacent-float sign changes of the solver's sign
tests.  Within 1/32 of kappa = 1 the first and the negative bracket are
judged by the series form lam R(lam) = 1 - kappa, which is sharp there;
the product test of the first bracket is flat over many floats just
outside that band, so the worst error is there, that of the test, not of
the search.  The bounds are the worst errors measured (see WORST_ULPS).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletflow import sturm

mp = pytest.importorskip("mpmath")

LAMBDA_MAX = 400.0
EXTRA_KAPPAS = (-1e6, -50.0, 14.0, 229.0, 1e6, 1e155, 1.0 + 1e-9,
                1.0 - 1e-9, 1.0 + 2e-12, 1.0 - 2e-12)
# the worst errors measured, in ulps of lam: on the loop (at kappa =
# 0.96569, lam = 0.1022, the first bracket just outside the series band)
# and on the extra kappas (at kappa = 1 + 1e-9, lam = 118.9)
WORST_LOOP_ULPS = 32.26
WORST_EXTRA_ULPS = 2.39
# the roots of the series brackets, within 1/32 of kappa = 1 (3.68
# measured on the loop, at kappa = 1.00876)
SERIES_ULPS = 4.0


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
    the kappas other than 1, where lam = 0 is set, not solved."""
    kappas = [k for k in kappas if k != 1.0]
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
    assert max(row[2] for row in loop) <= WORST_LOOP_ULPS, _worst(loop)
    assert max(row[2] for row in extra) <= WORST_EXTRA_ULPS, _worst(extra)
    series = [row for row in loop + extra if abs(1.0 - row[0])
              <= sturm._NEAR_UNIT and row[1] < 1.0]
    assert len(series) >= 10
    assert max(row[2] for row in series) <= SERIES_ULPS, _worst(series)
    # far from kappa = 1 the sign tests are sharp: a few ulps at most
    sharp = [row for row in loop + extra if abs(1.0 - row[0]) > 0.2]
    assert max(row[2] for row in sharp) <= 8.0, _worst(sharp)


@settings(max_examples=60, deadline=None)
@given(kappa=st.one_of(st.floats(-1e-9, 1e-9), st.floats(-1 / 32, 1 / 32))
       .map(lambda d: 1.0 + d)
       .filter(lambda k: k != 1.0 and abs(1.0 - k) <= sturm._NEAR_UNIT))
def test_series_roots_within_4_ulps_of_the_40_digit_root(kappa):
    # the one eigenvalue below 1 within 1/32 of kappa = 1: the root of the
    # first bracket (kappa < 1) or of the negative one (kappa > 1)
    eigs = sturm.secular_eigenvalues(kappa, 1.0)
    assert eigs.size == 1
    lam = float(eigs[0])
    ulps = _ulps(lam, _reference(kappa, lam, 0 if kappa < 1.0 else -1))
    assert ulps <= SERIES_ULPS, (kappa, lam, ulps)
