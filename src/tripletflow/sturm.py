"""Exact semi-analytic model of the Robin family for -d^2/dx^2 on [0, 1].

The function algebra is spanned by terms c * x^k * exp(r*x); it is closed
under differentiation, antidifferentiation and products, and all L2 inner
products and traces are evaluated in closed form, so the boundary-triplet
identities hold up to rounding only.  The boundary convention is

    trace0(u) = (u(0), u(1)),    trace1(u) = (u'(0), -u'(1)),

the minimal operator has all four traces zero, and the reference extension
is the Dirichlet one.  The Robin family is the relation

    {(0, b, c, -kappa*b)}  in C^2 + C^2,

which constrains u(0) = 0 and u'(1) = kappa * u(1); kappa = infinity is the
chart point with u(0) = u(1) = 0.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

import numpy as np

from .cayley import _boundary_coords
from .gelfand import identity_triple
from .relspace import RelationStack

__all__ = [
    "ExpPoly",
    "one",
    "xvar",
    "exponential",
    "sin_wave",
    "cos_wave",
    "sinh_wave",
    "dirichlet_solve",
    "helmholtz_dirichlet_solve",
    "deficiency_basis",
    "robin_relation",
    "robin_relations",
    "kappa_of_theta",
    "secular_eigenvalues",
    "secular_eigenvalues_batch",
    "eigenfunction",
    "boundary_residual",
    "galerkin_sine",
    "RellichBoundaryProblem",
    "rellich_dtn_matrix",
]

_ZERO_COEF = 0.0 + 0.0j

# the default eigenvalue cutoff of the Robin solver and of the Robin loops
_ROBIN_LAMBDA_MAX = 400.0


class ExpPoly:
    """Finite sum of terms coef * x**power * exp(rate*x) on [0, 1].

    Terms are kept in a canonical form: merged by (power, rate), exact zero
    coefficients dropped, sorted for reproducibility.  Instances are
    immutable; arithmetic returns new values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for coef, power, rate in terms:
            coef = complex(coef)
            power = int(power)
            rate = complex(rate)
            if power < 0:
                raise ValueError("powers must be nonnegative")
            key = (power, rate)
            merged[key] = merged.get(key, _ZERO_COEF) + coef
        items = tuple(sorted(
            ((coef, power, rate) for (power, rate), coef in merged.items()
             if coef != 0),
            key=lambda t: (t[1], t[2].real, t[2].imag),
        ))
        object.__setattr__(self, "terms", items)

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly values are immutable")

    @property
    def is_zero(self):
        return not self.terms

    # -- algebra ----------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly(self.terms + other.terms)

    def __sub__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            prod = [(c1 * c2, k1 + k2, r1 + r2)
                    for c1, k1, r1 in self.terms
                    for c2, k2, r2 in other.terms]
            return ExpPoly(prod)
        return ExpPoly([(complex(other) * c, k, r) for c, k, r in self.terms])

    __rmul__ = __mul__

    def conjugate(self):
        return ExpPoly([(np.conj(c), k, np.conj(r)) for c, k, r in self.terms])

    def derivative(self):
        out = []
        for c, k, r in self.terms:
            if k > 0:
                out.append((c * k, k - 1, r))
            if r != 0:
                out.append((c * r, k, r))
        return ExpPoly(out)

    def antiderivative(self):
        """An antiderivative, exact: repeated integration by parts."""
        # int x^k e^{rx} dx = e^{rx} sum_{j<=k} (-1)^{k-j} (k!/j!) x^j / r^{k-j+1}
        out = []
        for c, k, r in self.terms:
            if r == 0:
                out.append((c / (k + 1), k + 1, 0.0))
                continue
            coef = c
            for j in range(k, -1, -1):
                out.append((coef / r, j, r))
                coef = -coef * j / r
        return ExpPoly(out)

    def __call__(self, x):
        x = complex(x)
        return complex(sum(c * x**k * cmath.exp(r * x)
                           for c, k, r in self.terms))

    def integral01(self):
        anti = self.antiderivative()
        return anti(1.0) - anti(0.0)

    def inner(self, other):
        """L2[0,1] inner product, conjugate-linear in the second slot."""
        return (self * other.conjugate()).integral01()

    def norm(self):
        return math.sqrt(max(0.0, self.inner(self).real))

    # -- traces -----------------------------------------------------------
    def trace0(self):
        """(u(0), u(1))."""
        return np.array([self(0.0), self(1.0)])

    def trace1(self):
        """(u'(0), -u'(1))."""
        du = self.derivative()
        return np.array([du(0.0), -du(1.0)])

    def __repr__(self):
        if not self.terms:
            return "ExpPoly(0)"
        bits = [f"({c:.3g})*x^{k}*e^({r:.3g}x)" for c, k, r in self.terms]
        return "ExpPoly(" + " + ".join(bits) + ")"


def one():
    return ExpPoly([(1.0, 0, 0.0)])


def xvar():
    return ExpPoly([(1.0, 1, 0.0)])


def exponential(rate):
    return ExpPoly([(1.0, 0, rate)])


def sin_wave(omega):
    """sin(omega x) written with complex rates."""
    return ExpPoly([(-0.5j, 0, 1j * omega), (0.5j, 0, -1j * omega)])


def cos_wave(omega):
    return ExpPoly([(0.5, 0, 1j * omega), (0.5, 0, -1j * omega)])


def sinh_wave(s):
    return ExpPoly([(0.5, 0, s), (-0.5, 0, s * -1.0)])


def dirichlet_solve(rhs):
    """The unique u with -u'' = rhs and u(0) = u(1) = 0, exactly."""
    particular = -1.0 * rhs.antiderivative().antiderivative()
    beta = -particular(0.0)
    alpha = -particular(1.0) - beta
    return particular + ExpPoly([(alpha, 1, 0.0), (beta, 0, 0.0)])


def _collect_by_rate(u):
    groups = {}
    for c, k, r in u.terms:
        by_power = groups.setdefault(r, {})
        by_power[k] = by_power.get(k, 0.0) + c
    return groups


def helmholtz_dirichlet_solve(shift, rhs):
    """The u with -u'' + shift*u = rhs, u(0) = u(1) = 0, for shift != 0.

    Particular solutions are found per exponential rate by undetermined
    coefficients; a rate hitting a characteristic root raises the ansatz
    degree by one instead of dividing by a vanishing pivot.
    """
    shift = complex(shift)
    if shift == 0:
        raise ValueError("use dirichlet_solve for shift == 0")
    particular = ExpPoly()
    for rate, powers in _collect_by_rate(rhs).items():
        deg = max(powers)
        pivot = shift - rate * rate
        resonant = abs(pivot) <= 1e-9 * max(abs(shift), abs(rate) ** 2, 1.0)
        if resonant:
            # treat the rate as an exact characteristic root: kill the pivot
            # and raise the ansatz degree instead of dividing by it
            pivot = 0.0
        size = deg + 2 if resonant else deg + 1
        # action of -(d/dx)^2 + shift on q(x) e^{rate x}:
        # row i (coefficient of x^i):
        #   (shift - rate^2) q_i - 2 rate (i+1) q_{i+1} - (i+2)(i+1) q_{i+2}
        mat = np.zeros((size, size), dtype=complex)
        for i in range(size):
            mat[i, i] = pivot
            if i + 1 < size:
                mat[i, i + 1] = -2.0 * rate * (i + 1)
            if i + 2 < size:
                mat[i, i + 2] = -(i + 2) * (i + 1)
        vec = np.zeros(size, dtype=complex)
        for k, c in powers.items():
            vec[k] = c
        coefs, *_ = np.linalg.lstsq(mat, vec, rcond=None)
        resid = np.linalg.norm(mat @ coefs - vec)
        if resid > 1e-12 * max(1.0, np.linalg.norm(vec)):
            raise np.linalg.LinAlgError("undetermined-coefficient solve failed")
        particular = particular + ExpPoly(
            [(coefs[j], j, rate) for j in range(size)])
    root = cmath.sqrt(shift)
    e_plus = exponential(root)
    e_minus = exponential(-root)
    bmat = np.array([[1.0, 1.0],
                     [cmath.exp(root), cmath.exp(-root)]], dtype=complex)
    if abs(np.linalg.det(bmat)) < 1e-14:
        raise np.linalg.LinAlgError("homogeneous boundary system is singular")
    ab = np.linalg.solve(bmat, np.array([-particular(0.0), -particular(1.0)]))
    return particular + ab[0] * e_plus + ab[1] * e_minus


def deficiency_basis(mu):
    """Two independent solutions of -u'' = mu u: {1, x} at mu = 0, otherwise
    exp(+-rate x) with rate the principal square root of -mu."""
    mu = complex(mu)
    if mu == 0:
        return [one(), xvar()]
    neg = -mu
    # negation can leave signed zeros that flip the principal branch
    rate = cmath.sqrt(complex(neg.real + 0.0, neg.imag + 0.0))
    return [exponential(rate), exponential(-rate)]


def robin_relations(kappas):
    """The boundary relations {(0, b, c, -kappa b)} in trace coordinates,
    one per kappa, as a RelationStack of closed-form orthonormal graphs.

    For finite kappa the graph columns are (0, 1, 0, -kappa) / h and
    (0, 0, 1, 0) with h = hypot(1, kappa), orthonormal as written, so no
    SVD is made and no kappa is large enough for a column to be lost.  At
    kappa = +-infinity the relation is {(0, 0, c, d)}: both boundary values
    vanish and both second traces are free.  A NaN kappa raises ValueError.
    """
    kap = np.array(kappas, dtype=float)
    if np.isnan(kap).any():
        raise ValueError("non-finite entries in input matrix")
    infinite = np.isinf(kap)
    finite = ~infinite
    cols = np.zeros((kap.size, 4, 2), dtype=complex)
    h = np.hypot(1.0, kap[finite])
    cols[finite, 1, 0] = 1.0 / h
    cols[finite, 3, 0] = -kap[finite] / h
    cols[finite, 2, 1] = 1.0
    cols[infinite, 2, 0] = 1.0
    cols[infinite, 3, 1] = 1.0
    return RelationStack(2, 2, cols)


def robin_relation(kappa):
    """The boundary relation {(0, b, c, -kappa b)}; the single-kappa form
    of `robin_relations`."""
    return robin_relations([kappa])[0]


def kappa_of_theta(theta):
    """Loop parameterization: theta on the circle to kappa = -tan(theta/2).

    Counterclockwise theta traverses the Robin parameter once through
    R + {infinity}; with this orientation the family reports index +1.
    """
    half = 0.5 * theta
    if abs(math.cos(half)) < 1e-12:
        return math.inf
    return -math.tan(half) + 0.0  # normalize -0.0


# The first bracket and the negative one within _NEAR_UNIT of kappa = 1 are
# judged and stepped in lam = omega^2 (lam = -s^2 on the negative one), where
# the secular equation omega cot omega = kappa reads lam R(lam) = 1 - kappa
# with R(lam) = (1 - omega cot omega) / lam.  The Taylor coefficients
# |B_2n| 4^n / (2n)! of R, n = 8, ..., 1 (highest first), give it to
# rounding for |lam| <= 0.1, and 1 - kappa is exact there, so the equation
# keeps its digits where omega cot omega and kappa nearly cancel.  The
# sign test of those brackets is that of lam R(lam) - (1 - kappa): lam R(lam)
# increases on the whole positive bracket, all coefficients being positive,
# and on the negative one, |lam| <= (1 + _NEAR_UNIT)^2, its slope stays
# above 0.29.
_NEAR_UNIT = 1.0 / 32.0
_COT_SERIES = (3617 / 162820783125, 4 / 18243225, 1382 / 638512875,
               2 / 93555, 1 / 4725, 2 / 945, 1 / 45, 1 / 3)

# quarter points of a search interval, one trial point per column
_QUARTERS = np.array([0.25, 0.5, 0.75])


def _cot_series(lam):
    """R(lam) = (1 - omega cot omega) / lam, lam = omega^2, by the
    truncated Taylor series _COT_SERIES."""
    r = np.full_like(lam, _COT_SERIES[0])
    for coef in _COT_SERIES[1:]:
        r = r * lam + coef
    return r


class _SecularEquations:
    """Sign tests and Newton steps of a batch of secular brackets, laid
    out as slices: [:n1] positive brackets on atan2 and the product test,
    [n1:npos] positive and [npos:n3] negative ones on the series, [n3:]
    negative ones on tanh.  x is omega on the positive brackets and s on
    the negative ones."""

    def __init__(self, kappa, offset, n1, npos, n3):
        self.kappa, self.offset = kappa, offset
        self.kappa_col = kappa[:, None]
        self.n1, self.npos, self.n3 = n1, npos, n3
        with np.errstate(over="ignore"):
            self.kappa2 = kappa[:n1] * kappa[:n1]
        self.sign = np.where(np.arange(n1, n3) < npos, 1.0, -1.0)
        # exact: kappa is within _NEAR_UNIT of 1 (Sterbenz)
        self.gap = 1.0 - kappa[n1:n3]

    def take(self, keep):
        """The brackets where `keep` is True, in the same layout."""
        n1, npos, n3 = (np.count_nonzero(keep[:n])
                        for n in (self.n1, self.npos, self.n3))
        return _SecularEquations(self.kappa[keep], self.offset[keep],
                                n1, npos, n3)

    def below(self, t):
        """The sign tests, True below the root of the bracket, for trial
        points t of shape (n, m): (omega cos omega - kappa sin omega)
        sign(sin omega) > 0 on [:n1], sign (lam R(lam) - (1 - kappa)) < 0
        with lam = sign x^2 on [n1:n3], and s - kappa tanh s < 0 on
        [n3:]."""
        n1, n3 = self.n1, self.n3
        below = np.empty(t.shape, dtype=bool)
        if n1:
            w = t[:n1]
            sin_w = np.sin(w)
            below[:n1] = ((w * np.cos(w) - self.kappa_col[:n1] * sin_w)
                          * np.sign(sin_w) > 0.0)
        if n3 > n1:
            sign = self.sign[:, None]
            lam = sign * (t[n1:n3] * t[n1:n3])
            below[n1:n3] = sign * (lam * _cot_series(lam)
                                   - self.gap[:, None]) < 0.0
        if n3 < len(t):
            s = t[n3:]
            below[n3:] = s - self.kappa_col[n3:] * np.tanh(s) < 0.0
        return below

    def newton(self, x):
        """The Newton point of every bracket from x: on
        omega - k pi - atan2(omega, kappa), increasing and free of poles;
        on lam R(lam) = 1 - kappa, taking its slope R + lam R' as
        2 R - 1/3; on s - kappa tanh s."""
        n1, n3 = self.n1, self.n3
        out = np.empty_like(x)
        w, kap = x[:n1], self.kappa[:n1]
        out[:n1] = w - ((w - self.offset[:n1] - np.arctan2(w, kap))
                        / (1.0 - kap / (w * w + self.kappa2)))
        if n3 > n1:
            u = x[n1:n3]
            lam = self.sign * (u * u)
            r = _cot_series(lam)
            out[n1:n3] = np.sqrt(self.sign * (
                lam - (lam * r - self.gap) / (2.0 * r - 1.0 / 3.0)))
        if x.size > n3:
            s, kap = x[n3:], self.kappa[n3:]
            tanh_s = np.tanh(s)
            slope = 1.0 - kap * (1.0 - tanh_s * tanh_s)
            out[n3:] = s - (s - kap * tanh_s) / slope
        return out


# Newton steps taken before the sign tests start
_NEWTON_STEPS = 8


def _nearest_changes():
    """_NEAREST_CHANGE[c, pattern] is the i of the interval
    [e[i], e[i + 1]] of e = (lo, t0, t1, t2, hi) in which the sign test
    changes, the one nearest to interval c (the lower one on a tie).  lo
    is below the root, hi is not, and t_j is below it where bit 2 - j of
    pattern is set."""
    table = np.zeros((4, 8), dtype=int)
    for pattern in range(8):
        below = [True] + [bool(pattern >> (2 - i) & 1) for i in range(3)]
        below.append(False)
        changes = [i for i in range(4) if below[i] and not below[i + 1]]
        for c in range(4):
            table[c, pattern] = min(changes, key=lambda i: (abs(i - c), i))
    return table


_NEAREST_CHANGE = _nearest_changes()
_PATTERN = np.array([4, 2, 1])


def _bracket_roots(eqs, lo, hi, start, tol):
    """Root of every bracket [lo, hi] at once, down to adjacent floats,
    and the number of sign-test rounds taken.

    Each bracket holds a sign change of `eqs.below`, below the root at lo
    and not at hi; `tol` bounds how far from the root of the Newton
    equation of `eqs.newton` that change may lie: two floats where the
    sign test is sharp, more where it is flat.  First the Newton
    iteration runs from `start` in every bracket, kept inside it, until
    its correction is at most tol (at most _NEWTON_STEPS steps); where it
    gives no point, the midpoint stands in and the whole bracket is
    searched.  Then each round judges the quarter points of the part of
    the bracket within g of that point, the center, with g the last
    correction but at least tol.  g grows
    fourfold whenever the bracket that follows lies outside the three
    points, and once it spans the bracket the rounds quarter it.  The
    bracket becomes the interval between its ends and the three points
    in which the sign test changes, the one nearest the center where it
    changes more than once, so below(lo) and not below(hi) hold
    throughout; a bracket with no float between its ends stops.  No step
    of a bracket reads another one, so each takes the same steps
    whatever brackets it is solved with.
    """
    x = start
    step = np.full(lo.size, np.inf)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            moving = step > tol
            if not moving.any():
                break
            p = np.minimum(np.maximum(eqs.newton(x), lo), hi)
            step = np.where(moving, np.abs(p - x), step)
            x = np.where(moving, p, x)
    found = ~np.isnan(x)
    center = np.where(found, x, 0.5 * (lo + hi))
    reach = np.where(found, np.maximum(step, tol), np.inf)

    roots = np.empty(lo.size)
    index = np.arange(lo.size)
    rows = None
    windowed = True
    rounds = 0
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        count = np.count_nonzero(live)
        if rows is None or 2 * count <= live.size:
            # set the finished roots aside and go on with the live ones
            roots[index[~live]] = mid[~live]
            if not count:
                return roots, rounds
            if count < live.size:
                lo, hi, center, reach, index = (
                    a[live] for a in (lo, hi, center, reach, index))
                eqs = eqs.take(live)
                live = live[live]
            rows = 3 * np.arange(count)
        rounds += 1
        center = np.minimum(np.maximum(center, lo), hi)
        a, b = lo, hi
        if windowed:
            windowed = (reach < hi - lo).any()
        if windowed:
            a = np.maximum(center - reach, lo)
            b = np.minimum(center + reach, hi)
        t = (b - a)[:, None] * _QUARTERS
        t += a[:, None]
        np.minimum(t, np.nextafter(hi, lo)[:, None], out=t)
        np.maximum(t, np.nextafter(lo, hi)[:, None], out=t)
        # the new bracket is [t[i - 1], t[i]], lo and hi standing in for
        # t[-1] and t[3]
        i = _NEAREST_CHANGE[(t < center[:, None]).sum(axis=1),
                            eqs.below(t).dot(_PATTERN)]
        at = rows + i
        flat = t.ravel()
        lo = np.where(live & (i > 0), flat[at - 1], lo)
        hi = np.where(live & (i < 3), flat[at - (i == 3)], hi)
        if windowed:
            reach = np.where(i % 3 == 0, 4.0 * reach, reach)


def _secular_brackets(kap, lambda_max):
    """The secular brackets of the kappas in `kap`, as (owner, eqs, lo,
    hi, start, tol) for `_bracket_roots`; owner is the index in `kap` of
    each bracket's kappa.

    The positive brackets, x = omega, come first: (k pi, (k+1) pi) for
    1 <= k <= sqrt(lambda_max) / pi, and (0, pi) where kappa < 1; then
    the negative ones, x = s in (0, kappa], where kappa > 1.  Infinite
    kappas and kappa = 1 have no bracket here.  The Newton
    iteration starts from k pi + atan2(k pi + pi/2, kappa); in the first
    and the negative bracket from the root of the [1/1] Pade form
    (1 - 2 lam/5) / (1 - lam/15) = kappa of omega cot omega (s coth s for
    lam = -s^2), lam = 15 (1 - kappa) / (6 - kappa), which is about
    3 (1 - kappa) near kappa = 1, or from atan2(pi/2, kappa) (from kappa
    on the negative bracket) where that is smaller.
    """
    top = int(math.sqrt(max(lambda_max, 0.0)) / math.pi)
    finite = np.nonzero(np.isfinite(kap))[0]
    rows = np.repeat(finite, top)
    single = finite[kap[finite] != 1.0]
    first = single[kap[single] < 1.0]
    neg = single[kap[single] > 1.0]
    near_first = 1.0 - kap[first] <= _NEAR_UNIT
    near_neg = kap[neg] - 1.0 <= _NEAR_UNIT
    owner = np.concatenate([rows, first[~near_first], first[near_first],
                            neg[near_neg], neg[~near_neg]])
    n1 = rows.size + int((~near_first).sum())
    npos = rows.size + first.size
    n3 = npos + int(near_neg.sum())
    kappa = kap[owner]
    lo = np.zeros(owner.size)
    lo[:rows.size] = np.tile(np.arange(1, top + 1) * math.pi, finite.size)
    hi = lo + math.pi
    hi[npos:] = kappa[npos:]

    start = lo + np.arctan2(lo + 0.5 * math.pi, kappa)
    start[npos:] = kappa[npos:]
    with np.errstate(divide="ignore", invalid="ignore"):
        pade = np.sqrt(15.0 * np.abs(1.0 - kappa) / (6.0 - kappa))
    np.fmin(start, pade, out=start, where=lo == 0.0)
    # near its root x the product test errs by about 2 eps |x cos x| on
    # the positive brackets (the tanh test by 2 eps x on the negative
    # ones), and its slope is |kappa (1 - kappa) -+ x^2| / |kappa| times
    # |cos x| (times 1), so it may change sign that far from the root: many
    # floats near kappa = 1, where the series test of [n1:n3] takes over
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x2 = np.where(np.arange(owner.size) < npos, 1.0, -1.0) * start * start
        noise = (2.0 ** -51 * start * np.abs(kappa)
                 / np.abs(kappa * (1.0 - kappa) - x2))
    noise[n1:n3] = 0.0
    tol = np.fmax(noise, 2.0 * np.spacing(start))
    eqs = _SecularEquations(kappa, lo, n1, npos, n3)
    return owner, eqs, lo, hi, start, tol


def _secular_roots(kap, lambda_max):
    """Roots of the secular brackets of the kappas in `kap` (see
    `_secular_brackets`) and the sign-test rounds of their solve, as
    (rows_pos, omega, rows_neg, s, rounds): omega is a root of
    omega cot omega = kap[rows_pos], s the root of s - kappa tanh s for
    kappa = kap[rows_neg]."""
    owner, eqs, lo, hi, start, tol = _secular_brackets(kap, lambda_max)
    roots, rounds = _bracket_roots(eqs, lo, hi, start, tol)
    npos = eqs.npos
    return owner[:npos], roots[:npos], owner[npos:], roots[npos:], rounds


def secular_eigenvalues_batch(kappas, lambda_max=_ROBIN_LAMBDA_MAX):
    """Eigenvalues <= lambda_max of the Robin condition u(0) = 0,
    u'(1) = kappa u(1) for each kappa, as a list of sorted arrays; kappa =
    inf means u(1) = 0, and a NaN kappa or a non-finite lambda_max raises
    ValueError.

    Every root sits in a closed-form bracket:

    * kappa = inf: exactly (k pi)^2 for k >= 1;
    * lam = omega^2 > 0: one root of omega cot omega = kappa in each
      (k pi, (k+1) pi) for k >= 1, and one in (0, pi) iff kappa < 1;
    * lam = 0 iff kappa = 1 (u = x);
    * lam = -s^2 < 0: exactly one iff 1 < kappa < inf, with s the root of
      s - kappa tanh s in (0, kappa], a form that cannot overflow; lam
      is -inf where s^2 exceeds the float range.

    All brackets of all kappas are solved as one array, down to adjacent
    floats at which the sign test of the bracket changes, by a bracketed
    Newton iteration (`_bracket_roots`): each round judges three points
    of every bracket by the sign test alone, so each root carries the
    certificate bisection gives, and is the same whatever kappas it is
    solved with.
    """
    if not math.isfinite(lambda_max):
        raise ValueError("lambda_max must be a finite number")
    kap = np.array(kappas, dtype=float)
    if np.isnan(kap).any():
        raise ValueError("kappa must not be NaN")
    if not kap.size:
        return []
    ks = np.arange(1, int(math.sqrt(max(lambda_max, 0.0)) / math.pi) + 1)
    rows_pos, omega, rows_neg, s, _ = _secular_roots(kap, lambda_max)
    infinite = np.isinf(kap)
    unit = np.nonzero(kap == 1.0)[0]
    with np.errstate(over="ignore"):
        neg = -(s * s)
    owner = np.concatenate([np.repeat(np.nonzero(infinite)[0], ks.size),
                            rows_pos, unit, rows_neg])
    lams = np.concatenate([np.tile((ks * math.pi) ** 2, int(infinite.sum())),
                           omega * omega, np.zeros(unit.size), neg])
    keep = lams <= lambda_max
    owner, lams = owner[keep], lams[keep]
    order = np.lexsort((lams, owner))
    counts = np.bincount(owner, minlength=kap.size)
    return np.split(lams[order], np.cumsum(counts)[:-1])


def secular_eigenvalues(kappa, lambda_max=_ROBIN_LAMBDA_MAX):
    """Eigenvalues (sorted, <= lambda_max) of the Robin condition
    u(0) = 0, u'(1) = kappa u(1); kappa = inf means u(1) = 0.

    The single-kappa form of `secular_eigenvalues_batch`.
    """
    return secular_eigenvalues_batch([kappa], lambda_max)[0]


def eigenfunction(lam):
    """The candidate eigenfunction with u(0) = 0 for the eigenvalue lam."""
    if lam > 0:
        return sin_wave(math.sqrt(lam))
    if lam < 0:
        return sinh_wave(math.sqrt(-lam))
    return xvar()


def boundary_residual(kappa, lam):
    """Residual of the Robin condition at the candidate eigenvalue, per
    max(1, |kappa|).

    For a negative lam = -s^2 the eigenfunction sinh(s x) is normalized by
    cosh(s), so that u(1) = tanh(s) and u'(1) = s: the residual is then
    relative in u, as it is for the other eigenfunctions (|u| <= 1), and
    cannot overflow, where sinh(s) grows like e^s.  A NaN kappa raises
    ValueError, as in `secular_eigenvalues_batch`.
    """
    if math.isnan(kappa):
        raise ValueError("kappa must not be NaN")
    if lam < 0:
        s = math.sqrt(-lam)
        u1, du1 = math.tanh(s), s
    else:
        u = eigenfunction(lam)
        u1, du1 = u(1.0), u.derivative()(1.0)
    if math.isinf(kappa):
        return abs(u1)
    return abs(du1 - kappa * u1) / max(1.0, abs(kappa))


def galerkin_sine(n_modes):
    """Galerkin data in the orthonormal basis sqrt(2) sin(n pi x), n <= N.

    Returns (eigenvalues, cayley_diagonal, project) where project maps an
    ExpPoly to its first N sine coefficients, computed in closed form.
    """
    if n_modes < 4:
        raise ValueError("need at least 4 modes")
    modes = [math.sqrt(2.0) * sin_wave(n * math.pi)
             for n in range(1, n_modes + 1)]
    lam = np.array([(n * math.pi) ** 2 for n in range(1, n_modes + 1)])
    cayley = (lam - 1j) / (lam + 1j)

    def project(u):
        return np.array([u.inner(phi) for phi in modes])

    return lam, cayley, project


# ---------------------------------------------------------------------------
# boundary-problem realization
# ---------------------------------------------------------------------------

def _orthonormalize_exppolys(funcs):
    basis = []
    for f in funcs:
        g = f
        for b in basis:
            g = g - g.inner(b) * b
        nrm = g.norm()
        if nrm < 1e-13:
            raise np.linalg.LinAlgError("dependent deficiency solutions")
        basis.append((1.0 / nrm) * g)
    return basis


def _traces(u):
    """The four traces tau(u) = (u(0), u(1), u'(0), -u'(1))."""
    return np.concatenate([u.trace0(), u.trace1()])


class RellichBoundaryProblem:
    """The Robin model as a boundary problem over the exact algebra.

    Elements of the maximal domain are ExpPoly values, and an element set
    is a list of them; each block form evaluates its elements one at a
    time and stacks the results as columns.  The boundary space is C^2
    with the identity Gelfand triple, so the reduced maps coincide with
    the raw ones up to the Dirichlet-to-Neumann correction.  Its deficiency
    triplet is two 2 x 4 matrices (G0, G1) on the four traces, built on
    first use with the matrix engine's formula, `cayley._boundary_coords`.
    """

    def __init__(self):
        self.boundary_dim = 2
        self.triple = identity_triple(2)

    # -- one element ----------------------------------------------------------
    @staticmethod
    def action(u):
        return -1.0 * u.derivative().derivative()

    @staticmethod
    def gamma0(u):
        return u.trace0()

    @staticmethod
    def gamma1(u):
        return u.trace1()

    def project_regular(self, u):
        return dirichlet_solve(self.action(u))

    # -- element sets ---------------------------------------------------------
    @staticmethod
    def traces(elems):
        return (np.column_stack([u.trace0() for u in elems]),
                np.column_stack([u.trace1() for u in elems]))

    def deficiency_traces(self, elems):
        gamma = self.inner_boundary_maps()
        return tuple(np.column_stack(part)
                     for part in zip(*[gamma(u) for u in elems]))

    def projection_traces(self, elems):
        return self.traces([self.project_regular(u) for u in elems])

    @staticmethod
    def element_norms(elems):
        return np.array([u.norm() for u in elems])

    def lagrange_matrix(self, elems):
        """The m x m matrix of the Lagrange form <Au_i, u_j> - <u_i, Au_j>
        at (j, i), with one action per element."""
        acts = [self.action(u) for u in elems]
        return np.array([[a.inner(v) - u.inner(b)
                          for u, a in zip(elems, acts)]
                         for v, b in zip(elems, acts)], dtype=complex)

    @staticmethod
    def combine(elems, weights):
        out = weights[0] * elems[0]
        for w, k in zip(weights[1:], elems[1:]):
            out = out + w * k
        return out

    # -- distinguished element sets ---------------------------------------------
    @staticmethod
    def kernel_basis():
        return [one(), xvar()]

    @staticmethod
    def minimal_domain_elements():
        bump = ExpPoly([(1.0, 2, 0.0), (-2.0, 3, 0.0), (1.0, 4, 0.0)])
        return [bump, xvar() * bump, exponential(1.0) * bump,
                exponential(-2.0) * bump]

    @staticmethod
    def gamma1_kernel_elements():
        # constants and the cubic 3x^2 - 2x^3 have vanishing derivative traces
        cubic = ExpPoly([(3.0, 2, 0.0), (-2.0, 3, 0.0)])
        return [one(), cubic]

    def test_elements(self, rng, count):
        out = [one(), xvar(), ExpPoly([(1.0, 2, 0.0)]),
               ExpPoly([(1.0, 3, 0.0)]), exponential(1.0), exponential(-1.0),
               sin_wave(math.pi), cos_wave(2.0)]
        rates = [0.0, 1.0, -1.0, 2.0, 1j * math.pi, -1j * math.pi]
        while len(out) < count:
            terms = []
            for _ in range(3):
                coef = rng.standard_normal() + 1j * rng.standard_normal()
                terms.append((coef, int(rng.integers(0, 3)),
                              rates[int(rng.integers(0, len(rates)))]))
            out.append(ExpPoly(terms))
        return out[:count]

    # -- deficiency triplet ----------------------------------------------------
    @cached_property
    def _deficiency_maps(self):
        """The deficiency triplet at mu = i as one 4 x 4 matrix (G0; G1) on
        the traces, Gamma_j u = G_j tau(u) on the L2-orthonormal K- basis.

        The minimal domain has all four traces zero, so both maps factor
        through tau.  By Green's formula the split's projections are
        boundary forms, <Au - conj(mu) u, y> = omega(tau u, tau y) on K+ with
        omega(s, t) = <s1, t0> - <s0, t1> = t^H J s (likewise on K-), and
        V y - y = -2i (A + i)^(-1) y has zero Dirichlet values, so
        W = T0(K-)^(-1) T0(K+).
        """
        mu, mu_bar = 1j, -1j
        kplus, kminus = (
            np.column_stack([_traces(y) for y in
                             _orthonormalize_exppolys(deficiency_basis(m))])
            for m in (mu, mu_bar))
        j_form = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))
        c_plus = kplus.conj().T @ j_form / (mu - mu_bar)
        c_minus = kminus.conj().T @ j_form / (mu_bar - mu)
        w = np.linalg.solve(kminus[:2], kplus[:2])
        return np.vstack(_boundary_coords(w, mu, c_plus, c_minus))

    def inner_boundary_maps(self):
        maps = self._deficiency_maps
        return lambda u: tuple(np.split(maps @ _traces(u), 2))


def rellich_dtn_matrix():
    """Dirichlet-to-Neumann matrix at spectral point zero for the model.

    Computed through the algebra: solve the kernel for prescribed boundary
    values and take second traces.  Equals [[-1, 1], [1, -1]].
    """
    from .triplet import dirichlet_to_neumann  # local import, no cycle at load

    return dirichlet_to_neumann(RellichBoundaryProblem())
