import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tripletflow import famindex
from tripletflow import relspace as rs
from tripletflow import sturm
from tripletflow.gelfand import identity_triple
from tripletflow.gelfand import is_triple_self_adjoint


# -- exact calculus -----------------------------------------------------------

def test_derivative_of_exponential():
    lam = 0.7 - 1.3j
    u = sturm.exponential(lam)
    assert (u.derivative() - lam * u).norm() < 1e-15


def test_basic_integrals():
    assert abs(sturm.one().integral01() - 1.0) < 1e-15
    # int_0^1 x e^x dx = 1 by parts
    u = sturm.xvar() * sturm.exponential(1.0)
    assert abs(u.integral01() - 1.0) < 1e-14


def test_canonical_form_merges_terms():
    u = sturm.ExpPoly([(1.0, 1, 2.0), (2.0, 1, 2.0), (0.0, 0, 0.0)])
    assert len(u.terms) == 1
    coef, power, rate = u.terms[0]
    assert coef == 3.0 and power == 1 and rate == 2.0
    v = sturm.ExpPoly([(1.0, 1, 2.0), (-1.0, 1, 2.0)])
    assert v.is_zero


def test_product_rule_and_associativity(rng):
    rates = [0.0, 1.0, -1.0, 1j * math.pi, 0.5 - 1j]

    def rand_poly():
        return sturm.ExpPoly([
            (complex(rng.standard_normal(), rng.standard_normal()),
             int(rng.integers(0, 3)), rates[int(rng.integers(0, len(rates)))])
            for _ in range(2)])

    for _ in range(10):
        u, v, w = rand_poly(), rand_poly(), rand_poly()
        prod_rule = ((u * v).derivative()
                     - (u.derivative() * v + u * v.derivative()))
        assert prod_rule.norm() < 1e-12
        assoc = (u * v) * w - u * (v * w)
        assert assoc.norm() < 1e-11


def test_rate_collision_cancels_exactly():
    # the product of e^{l x} with the conjugate of e^{-conj(l) x} has rate 0
    lam = 0.3 + 1.7j
    u = sturm.exponential(lam)
    v = sturm.exponential(-np.conj(lam))
    prod = u * v.conjugate()
    assert all(rate == 0.0 for _, _, rate in prod.terms)


def test_inner_matches_adaptive_quadrature(rng):
    rates = [0.0, 1.0, -1.0, 2.0, 1j * math.pi, -1j * math.pi, 0.5 - 1j]
    for _ in range(12):
        terms_u = [(complex(rng.standard_normal(), rng.standard_normal()),
                    int(rng.integers(0, 3)),
                    rates[int(rng.integers(0, len(rates)))])
                   for _ in range(3)]
        terms_v = [(complex(rng.standard_normal(), rng.standard_normal()),
                    int(rng.integers(0, 3)),
                    rates[int(rng.integers(0, len(rates)))])
                   for _ in range(3)]
        u = sturm.ExpPoly(terms_u)
        v = sturm.ExpPoly(terms_v)
        closed = u.inner(v)

        def integrand_re(x):
            return (u(x) * np.conj(v(x))).real

        def integrand_im(x):
            return (u(x) * np.conj(v(x))).imag

        re, _ = quad(integrand_re, 0.0, 1.0, limit=200)
        im, _ = quad(integrand_im, 0.0, 1.0, limit=200)
        assert abs(closed - complex(re, im)) < 1e-10 * max(1.0, abs(closed))


# -- solvers ------------------------------------------------------------------

def test_dirichlet_solve_examples():
    u = sturm.dirichlet_solve(sturm.ExpPoly([(-2.0, 0, 0.0)]))
    want = sturm.ExpPoly([(1.0, 2, 0.0), (-1.0, 1, 0.0)])
    assert (u - want).norm() < 1e-14

    rhs = (math.pi ** 2) * sturm.sin_wave(math.pi)
    u = sturm.dirichlet_solve(rhs)
    assert (u - sturm.sin_wave(math.pi)).norm() < 1e-12

    lam = 1.7
    rhs = sturm.exponential(lam)
    u = sturm.dirichlet_solve(rhs)
    resid = (-1.0) * u.derivative().derivative() - rhs
    assert resid.norm() < 1e-13
    assert abs(u(0.0)) < 1e-14 and abs(u(1.0)) < 1e-14


def test_helmholtz_solve_including_resonant_rate():
    shift = 1j
    root = cmath.sqrt(shift)
    for rhs in (sturm.exponential(2.0), sturm.exponential(root),
                sturm.xvar() * sturm.exponential(-root)):
        w = sturm.helmholtz_dirichlet_solve(shift, rhs)
        resid = (-1.0) * w.derivative().derivative() + shift * w - rhs
        assert resid.norm() < 1e-11
        assert abs(w(0.0)) < 1e-11 and abs(w(1.0)) < 1e-11


def test_deficiency_basis_cases():
    basis0 = sturm.deficiency_basis(0.0)
    assert (basis0[0] - sturm.one()).is_zero
    assert (basis0[1] - sturm.xvar()).is_zero

    # at mu = pi^2 the span contains both waves
    bpi = sturm.deficiency_basis(math.pi ** 2)
    sin_comb = (-0.5j) * bpi[0] + 0.5j * bpi[1]
    assert (sin_comb - sturm.sin_wave(math.pi)).norm() < 1e-12
    cos_comb = 0.5 * bpi[0] + 0.5 * bpi[1]
    assert (cos_comb - sturm.cos_wave(math.pi)).norm() < 1e-12

    for mu in (1j, -1j, 2.0 - 3.0j):
        basis = sturm.deficiency_basis(mu)
        assert len(basis) == 2  # defect numbers (2, 2) for the interval model
        for u in basis:
            resid = (-1.0) * u.derivative().derivative() - complex(mu) * u
            assert resid.norm() < 1e-12
    rate = sturm.deficiency_basis(1j)[0].terms[0][2]
    assert abs(rate - cmath.exp(-1j * math.pi / 4)) < 1e-14


# -- the Robin family ---------------------------------------------------------

def test_robin_relation_coordinates():
    rel = sturm.robin_relation(0.0)
    want = rs.LinearRelation.from_span(
        2, 2, np.array([[0, 0], [1, 0], [0, 1], [0, 0]], dtype=float))
    assert rel.gap(want) < 1e-14
    rel_inf = sturm.robin_relation(math.inf)
    want_inf = rs.LinearRelation.from_span(
        2, 2, np.array([[0, 0], [0, 0], [1, 0], [0, 1]], dtype=float))
    assert rel_inf.gap(want_inf) < 1e-14


def test_robin_relation_selfadjoint_across_identity_triple():
    triple = identity_triple(2)
    for kappa in (-4.0, -1.0, 0.0, 1.0, 3.7, math.inf):
        rel = sturm.robin_relation(kappa)
        assert rs.is_self_adjoint(rel)
        assert is_triple_self_adjoint(triple, rel)


def test_kappa_parameterization():
    assert sturm.kappa_of_theta(0.0) == 0.0
    assert math.isinf(sturm.kappa_of_theta(math.pi))
    assert abs(sturm.kappa_of_theta(1.5 * math.pi) - 1.0) < 1e-12
    # decreasing on the first half-loop
    assert sturm.kappa_of_theta(0.5) < sturm.kappa_of_theta(0.25) < 0.0


def test_secular_closed_form_limits():
    eig = sturm.secular_eigenvalues(math.inf)
    for n, lam in enumerate(eig[:5], start=1):
        assert abs(lam - (n * math.pi) ** 2) <= 1e-10 * (n * math.pi) ** 2
    eig = sturm.secular_eigenvalues(0.0)
    for n, lam in enumerate(eig[:5], start=1):
        want = ((n - 0.5) * math.pi) ** 2
        assert abs(lam - want) <= 1e-10 * want


def test_zero_eigenvalue_exactly_at_unit_parameter():
    assert abs(sturm.secular_eigenvalues(1.0)[0]) < 1e-13
    assert sturm.secular_eigenvalues(0.999)[0] > 0.0
    assert sturm.secular_eigenvalues(1.001)[0] < 0.0


def test_negative_eigenvalue_against_bisection_oracle():
    lo, hi = 1.0, 3.0

    def f(s):
        return math.tanh(s) - 0.5 * s

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    s_star = 0.5 * (lo + hi)
    assert abs(s_star - 1.9150) < 5e-4
    lam = sturm.secular_eigenvalues(2.0)[0]
    assert abs(lam + s_star ** 2) < 1e-8
    assert abs(lam + 3.6672) < 5e-4


def _tanh_root(kappa):
    """Root of s - kappa tanh s in (0, kappa], by scalar bisection."""
    lo, hi = 0.0, kappa
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid - kappa * math.tanh(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kappa", [60.0, 229.0, 1e6])
def test_negative_eigenvalue_beyond_former_scan_range(kappa):
    # the grid scan stopped at s = 50 and silently lost this eigenvalue
    eig = sturm.secular_eigenvalues(kappa)
    s_star = _tanh_root(kappa)
    assert eig[0] < 0.0 and eig[1] > 0.0
    assert abs(eig[0] + s_star ** 2) <= 1e-13 * s_star ** 2
    assert abs(eig[0] + kappa ** 2) <= 1e-6 * kappa ** 2


def test_batch_equals_scalar_on_loop_grid():
    thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    kappas = [sturm.kappa_of_theta(t) for t in thetas]
    batch = sturm.secular_eigenvalues_batch(kappas, lambda_max=400.0)
    assert len(batch) == len(kappas)
    for kappa, eigs in zip(kappas, batch):
        assert np.array_equal(eigs, sturm.secular_eigenvalues(kappa, 400.0))
    assert sturm.secular_eigenvalues_batch([]) == []
    with pytest.raises(ValueError):
        sturm.secular_eigenvalues_batch([0.0, float("nan")])


@pytest.mark.parametrize("lambda_max", [math.inf, math.nan])
def test_lambda_max_must_be_finite(lambda_max):
    message = "lambda_max must be a finite number"
    with pytest.raises(ValueError, match=message):
        sturm.secular_eigenvalues_batch([0.0, 2.0], lambda_max)
    with pytest.raises(ValueError, match=message):
        sturm.secular_eigenvalues(0.0, lambda_max)
    with pytest.raises(ValueError, match=message):
        famindex.rellich_eigenvalue_samples(samples=8, lambda_max=lambda_max)
    # a negative cap is finite: the one negative eigenvalue, -3.667..., of
    # kappa = 2 lies above this one
    assert [len(eigs) for eigs in sturm.secular_eigenvalues_batch(
        [0.0, 2.0], -100.0)] == [0, 0]


def test_kappa_infinity_has_one_spelling():
    # None is not read as infinity: it reads as NaN and is rejected
    with pytest.raises(ValueError, match="NaN"):
        sturm.secular_eigenvalues(None)
    with pytest.raises(ValueError, match="non-finite"):
        sturm.robin_relations([None])
    with pytest.raises(TypeError):
        sturm.boundary_residual(None, math.pi ** 2)


def test_boundary_residual_rejects_nan_kappa():
    # a NaN kappa is named, as by the secular solvers, not turned into a
    # NaN residual
    for lam in (-4.0, 0.0, math.pi ** 2):
        with pytest.raises(ValueError, match="kappa must not be NaN"):
            sturm.boundary_residual(float("nan"), lam)


def test_one_solve_equals_separate_positive_and_negative_ones():
    # both kinds of bracket share one solve; the roots must be those of
    # solving each kind on its own, to the last bit
    thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    kappas = [sturm.kappa_of_theta(t) for t in thetas]
    kappas = [k for k in kappas if not math.isinf(k)]
    kappas += [1.0 + 1e-9, 1.0 - 1e-9, 1.5, 14.0, 229.0, 1e6, -1e6]
    owner, eqs, lo, hi, start, tol = sturm._secular_brackets(
        np.array(kappas), 400.0)
    joint, _ = sturm._bracket_roots(eqs, lo, hi, start, tol)
    positive = np.arange(owner.size) < eqs.npos
    assert positive.any() and not positive.all()
    for kind in (positive, ~positive):
        alone, _ = sturm._bracket_roots(eqs.take(kind), lo[kind], hi[kind],
                                        start[kind], tol[kind])
        assert np.array_equal(alone, joint[kind])
    batch = sturm.secular_eigenvalues_batch(kappas, lambda_max=400.0)
    for kappa, eigs in zip(kappas, batch):
        assert np.array_equal(sturm.secular_eigenvalues(kappa, 400.0), eigs)


# the Taylor coefficients |B_2n| 4^n / (2n)! of R(lam) = (1 - w cot w) / lam,
# n = 8, ..., 1, from the Bernoulli numbers B_16, ..., B_2
_BERNOULLI = (Fraction(-3617, 510), Fraction(7, 6), Fraction(-691, 2730),
              Fraction(5, 66), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(1, 6))
_SERIES = tuple(float(abs(b) * 4 ** n / math.factorial(2 * n))
                for n, b in zip(range(8, 0, -1), _BERNOULLI))


def _below(kappa, x, positive, series):
    """The sign tests of the secular brackets, written out: True below the
    root.  With `series`, the first or the negative bracket within
    1/32 of kappa = 1, judged by sign (lam R(lam) - (1 - kappa)) < 0 with
    lam = sign x^2."""
    if series:
        sign = 1.0 if positive else -1.0
        lam = sign * (x * x)
        r = _SERIES[0]
        for coef in _SERIES[1:]:
            r = r * lam + coef
        return bool(sign * (lam * r - (1.0 - kappa)) < 0.0)
    if positive:
        sin_x = np.sin(x)
        return bool((x * np.cos(x) - kappa * sin_x) * np.sign(sin_x) > 0.0)
    return bool(x - kappa * np.tanh(x) < 0.0)


def _at_sign_change(kappa, x, positive, series=False):
    """x is one end of two adjacent floats, below the root at the lower
    one and not at the upper one."""
    down, up = np.nextafter(x, -np.inf), np.nextafter(x, np.inf)
    at_down, at_x, at_up = (_below(kappa, t, positive, series)
                            for t in (down, x, up))
    return (at_x and not at_up) or (at_down and not at_x)


def test_series_of_the_sign_test_is_that_of_the_solver():
    assert _SERIES == sturm._COT_SERIES


_NEAR_KAPPAS = st.floats(-1e-9, 1e-9).map(lambda d: 1.0 + d)
_SERIES_KAPPAS = st.floats(-1.0 / 32.0, 1.0 / 32.0).map(lambda d: 1.0 + d)


@settings(max_examples=60, deadline=None)
@given(kappas=st.lists(st.one_of(st.floats(-1e6, 1e6), _NEAR_KAPPAS,
                                 _SERIES_KAPPAS), min_size=1, max_size=5))
def test_roots_carry_the_sign_change_certificate(kappas):
    # every root sits at adjacent floats where its sign test changes: the
    # series test on the first and the negative bracket within 1/32 of
    # kappa = 1, the product and tanh tests elsewhere; one root in every
    # bracket, and the batch is the scalar call
    kap = np.array(kappas)
    rows_pos, omega, rows_neg, s, _ = sturm._secular_roots(kap, 400.0)
    top = int(math.sqrt(400.0) / math.pi)
    for row, kappa in enumerate(kappas):
        series = abs(1.0 - kappa) <= sturm._NEAR_UNIT
        first = 0 if kappa < 1.0 else 1
        roots = np.sort(omega[rows_pos == row])
        assert roots.size == top + 1 - first
        for k, w in enumerate(roots, start=first):
            assert k * math.pi <= w <= (k + 1) * math.pi
            assert _at_sign_change(kappa, w, True, series and k == 0)
        negative = s[rows_neg == row]
        assert negative.size == (kappa > 1.0)
        for root in negative:
            assert 0.0 < root <= kappa
            assert _at_sign_change(kappa, root, False, series)
    batch = sturm.secular_eigenvalues_batch(kappas, lambda_max=400.0)
    for kappa, eigs in zip(kappas, batch):
        assert np.array_equal(sturm.secular_eigenvalues(kappa, 400.0), eigs)


def test_sign_test_rounds_of_the_robin_index(monkeypatch):
    # the 720-sample solve and the crossing polish, counted in rounds of
    # sign tests; bisection took 57 rounds for the loop and 59-74 for each
    # polish solve, 806 in all.  Near the crossing (|1 - kappa| ~ 1e-12)
    # the product test was flat over ~4e11 floats around the root, and the
    # polish solves took up to 21 rounds; the series test is sharp there
    rounds = []
    caps = []
    solve = sturm._secular_roots

    def counted(kap, lambda_max):
        result = solve(kap, lambda_max)
        rounds.append(result[-1])
        caps.append(lambda_max)
        return result

    monkeypatch.setattr(sturm, "_secular_roots", counted)
    famindex._robin_index(sturm.kappa_of_theta, 720, 400.0)
    assert rounds[0] <= 5
    assert len(rounds) > 1 and max(rounds[1:]) <= 3
    assert sum(rounds) <= 22
    # the polish solves only up to the top of the flow window [-1, 1]
    assert caps == [400.0] + [1.0] * (len(caps) - 1)


@settings(max_examples=80, deadline=None)
@given(kappa=st.floats(-40.0, 40.0), top=st.integers(1, 8))
def test_secular_roots_fill_every_bracket(kappa, top):
    # below (top*pi)^2 the brackets (k pi, (k+1) pi), k < top, hold one
    # root each, plus exactly one of: a root in (0, pi) (kappa < 1), zero
    # (kappa = 1), a negative eigenvalue (kappa > 1)
    eigs = sturm.secular_eigenvalues(kappa, lambda_max=(top * math.pi) ** 2)
    assert eigs.size == top
    assert np.all(np.diff(eigs) > 0.0)
    for lam in eigs:
        assert sturm.boundary_residual(kappa, lam) <= 1e-10


@pytest.mark.parametrize("kappa", [14.0, 40.0, 1e3, 1e6])
def test_negative_branch_residual_is_relative_in_u(kappa):
    # sinh(s x) has u(1) = sinh(s) ~ e^s / 2: absolute in u, the residual
    # at the root exceeded 1e-10 at kappa = 14, and evaluating sinh(s)
    # overflowed from kappa ~ 710 on
    eigs = sturm.secular_eigenvalues(kappa, lambda_max=400.0)
    assert eigs[0] < 0.0 < eigs[1]
    for lam in eigs:
        assert sturm.boundary_residual(kappa, lam) <= 1e-10


def test_eigenfunction_residuals():
    for kappa in (-2.0, 0.0, 0.5, 1.0, 2.0, 10.0):
        for lam in sturm.secular_eigenvalues(kappa, lambda_max=200.0):
            assert sturm.boundary_residual(kappa, lam) < 1e-10
            u = sturm.eigenfunction(lam)
            ode = (-1.0) * u.derivative().derivative() - lam * u
            assert ode.norm() < 1e-9 * max(1.0, abs(lam))
            assert abs(u(0.0)) < 1e-12


def test_secular_respects_lambda_max():
    eig = sturm.secular_eigenvalues(3.0, lambda_max=50.0)
    assert np.all(eig <= 50.0)
    more = sturm.secular_eigenvalues(3.0, lambda_max=400.0)
    assert len(more) > len(eig)
    assert np.allclose(more[: len(eig)], eig)


# -- Galerkin bridge ----------------------------------------------------------

def test_galerkin_diagonals_and_projection():
    lam, cayley, project = sturm.galerkin_sine(6)
    assert abs(lam[0] - math.pi ** 2) < 1e-12
    want = (math.pi ** 2 - 1j) / (math.pi ** 2 + 1j)
    assert abs(cayley[0] - want) < 1e-14
    coeffs = project(math.sqrt(2.0) * sturm.sin_wave(2 * math.pi))
    unit = np.zeros(6)
    unit[1] = 1.0
    assert np.linalg.norm(coeffs - unit) < 1e-12
    ramp = project(sturm.xvar())
    want = np.array([math.sqrt(2.0) * (-1.0) ** (n + 1) / (n * math.pi)
                     for n in range(1, 7)])
    assert np.linalg.norm(ramp - want) < 1e-12
    with pytest.raises(ValueError):
        sturm.galerkin_sine(3)


def test_galerkin_projection_isometric_on_band():
    _, _, project = sturm.galerkin_sine(10)
    u = sturm.sin_wave(math.pi) + 0.25 * sturm.sin_wave(3 * math.pi)
    coeffs = project(u)
    assert abs(np.linalg.norm(coeffs) ** 2 - u.inner(u).real) < 1e-12


def test_galerkin_resolvent_diagonal():
    # operator-level bridge: the Dirichlet solve divides each sine
    # coefficient by the corresponding reference eigenvalue
    lam, _, project = sturm.galerkin_sine(6)
    for n in (1, 3):
        mode = math.sqrt(2.0) * sturm.sin_wave(n * math.pi)
        coeffs = project(sturm.dirichlet_solve(mode))
        want = np.zeros(6)
        want[n - 1] = 1.0 / lam[n - 1]
        assert np.linalg.norm(coeffs - want) < 1e-12


# -- exact Lagrange identity ---------------------------------------------------

def test_lagrange_identity_exact(rng):
    rates = [0.0, 1.0, -1.0, 2.0, 1j * math.pi, -1j * math.pi, 0.5 - 1j,
             -0.25 + 0.5j]
    for _ in range(25):
        def rand_poly():
            return sturm.ExpPoly([
                (complex(rng.standard_normal(), rng.standard_normal()),
                 int(rng.integers(0, 3)),
                 rates[int(rng.integers(0, len(rates)))])
                for _ in range(int(rng.integers(1, 6)))])

        u, v = rand_poly(), rand_poly()
        act_u = (-1.0) * u.derivative().derivative()
        act_v = (-1.0) * v.derivative().derivative()
        lhs = act_u.inner(v) - u.inner(act_v)
        rhs = (np.vdot(v.trace0(), u.trace1())
               - np.vdot(v.trace1(), u.trace0()))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_cauchy_data_span():
    # boundary data of the kernel of the action: span {(a, b, b-a, a-b)}
    cols = []
    for k in (sturm.one(), sturm.xvar()):
        cols.append(np.concatenate([k.trace0(), k.trace1()]))
    data = rs.LinearRelation.from_span(2, 2, np.column_stack(cols))
    want = rs.LinearRelation.from_span(
        2, 2, np.array([[1, 0], [1, 1], [-0, 1], [0, -1]], dtype=float))
    assert data.gap(want) < 1e-14
