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
from .relspace import relations_from_span

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
    one per kappa, orthonormalized by one stacked SVD into a RelationStack.

    At kappa = +-infinity the relation is {(0, 0, c, d)}: both boundary
    values vanish and both second traces are free.  A NaN kappa raises
    ValueError.
    """
    kap = np.array(kappas, dtype=float)
    infinite = np.isinf(kap)
    finite = ~infinite
    cols = np.zeros((kap.size, 4, 2), dtype=complex)
    cols[finite, 1, 0] = 1.0
    cols[finite, 2, 1] = 1.0
    cols[finite, 3, 0] = -kap[finite]
    cols[infinite, 2, 0] = 1.0
    cols[infinite, 3, 1] = 1.0
    return relations_from_span(2, 2, cols)


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


def _bisect_brackets(lo, hi, below_root):
    """Bisect every bracket [lo, hi] at once, down to adjacent floats.

    Each bracket holds exactly one sign change; `below_root(x)` is True
    where x lies below the root of its own bracket.
    """
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            break
        below = below_root(mid)
        np.copyto(lo, mid, where=below)
        np.copyto(hi, mid, where=~below)
    return 0.5 * (lo + hi)


def secular_eigenvalues_batch(kappas, lambda_max=_ROBIN_LAMBDA_MAX):
    """Eigenvalues <= lambda_max of the Robin condition u(0) = 0,
    u'(1) = kappa u(1) for each kappa, as a list of sorted arrays; kappa =
    inf means u(1) = 0, and a NaN kappa raises ValueError.

    Every root sits in a closed-form bracket, and all brackets of all
    kappas are bisected as one array:

    * kappa = inf: exactly (k pi)^2 for k >= 1;
    * lam = omega^2 > 0: one root of omega cot omega = kappa in each
      (k pi, (k+1) pi) for k >= 1, and one in (0, pi) iff kappa < 1;
    * lam = 0 iff kappa = 1 (u = x);
    * lam = -s^2 < 0: exactly one iff 1 < kappa < inf, with s the root of
      s - kappa tanh s in (0, kappa], a form that cannot overflow.
    """
    kap = np.array(kappas, dtype=float)
    if np.isnan(kap).any():
        raise ValueError("kappa must not be NaN")
    if not kap.size:
        return []
    infinite = np.isinf(kap)
    unit = ~infinite & (np.abs(1.0 - kap)
                        <= 1e-12 * np.maximum(1.0, np.abs(kap)))
    ks = np.arange(int(math.sqrt(max(lambda_max, 0.0)) / math.pi) + 1)
    parts = []

    # kappa = inf: the Dirichlet eigenvalues, in closed form
    rows, cols = np.nonzero(infinite[:, None] & (ks >= 1)[None, :])
    parts.append((rows, (ks[cols] * math.pi) ** 2))

    # positive eigenvalues: omega cot omega - kappa changes sign once per
    # bracket, evaluated without the poles of cot
    first_bracket = ~infinite & (kap < 1.0) & ~unit
    rows_pos, cols = np.nonzero((~infinite)[:, None]
                                & ((ks >= 1)[None, :]
                                   | first_bracket[:, None]))
    lo_pos = ks[cols] * math.pi
    # the negative eigenvalue: s - kappa tanh s changes sign in (0, kappa]
    rows_neg = np.nonzero(~infinite & (kap > 1.0) & ~unit)[0]
    kn = kap[rows_neg]

    # both kinds of bracket are bisected together, each by its own sign
    # test: the positive ones first, then the negative ones
    npos = rows_pos.size
    kp = kap[rows_pos]

    def below_root(x):
        w = x[:npos]
        sin_w = np.sin(w)
        below = (w * np.cos(w) - kp * sin_w) * np.sign(sin_w) > 0.0
        if kn.size:
            s = x[npos:]
            below = np.concatenate([below, s - kn * np.tanh(s) < 0.0])
        return below

    roots = _bisect_brackets(np.concatenate([lo_pos, np.zeros_like(kn)]),
                             np.concatenate([lo_pos + math.pi, kn]),
                             below_root)
    omega, s = roots[:npos], roots[npos:]
    parts.append((rows_pos, omega * omega))
    parts.append((np.nonzero(unit)[0], np.zeros(int(unit.sum()))))
    parts.append((rows_neg, -(s * s)))

    owner = np.concatenate([p[0] for p in parts])
    lams = np.concatenate([p[1] for p in parts])
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

    Elements of the maximal domain are ExpPoly values; the boundary space is
    C^2 with the identity Gelfand triple, so the reduced maps coincide with
    the raw ones up to the Dirichlet-to-Neumann correction.  Its deficiency
    triplet is two 2 x 4 matrices (G0, G1) on the four traces, built on
    first use with the matrix engine's formula, `cayley._boundary_coords`.
    """

    def __init__(self):
        self.boundary_dim = 2
        self.triple = identity_triple(2)

    # -- element operations -------------------------------------------------
    @staticmethod
    def action(u):
        return -1.0 * u.derivative().derivative()

    def lagrange_form(self, u, v):
        return self.action(u).inner(v) - u.inner(self.action(v))

    @staticmethod
    def gamma0(u):
        return u.trace0()

    @staticmethod
    def gamma1(u):
        return u.trace1()

    def project_regular(self, u):
        return dirichlet_solve(self.action(u))

    @staticmethod
    def element_norm(u):
        return u.norm()

    # -- distinguished elements ----------------------------------------------
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
