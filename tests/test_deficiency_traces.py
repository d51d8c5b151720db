"""The interval model's deficiency triplet as two 2 x 4 matrices on the
four traces, checked against the ExpPoly pipeline it replaced.

The reference below evaluates the deficiency boundary values element by
element: orthogonal projections of f -+ i u onto the L2-orthonormal
deficiency spaces, and the isometry V through an exact Dirichlet resolvent
solve.  The trace matrices must reproduce it to rounding.
"""

import numpy as np
import pytest

from tripletflow import sturm


class ReferenceInnerMaps:
    """Boundary values of the deficiency triplet at mu = i, element by
    element in the ExpPoly algebra."""

    def __init__(self):
        self.kplus = sturm._orthonormalize_exppolys(sturm.deficiency_basis(1j))
        self.kminus = sturm._orthonormalize_exppolys(
            sturm.deficiency_basis(-1j))
        # (A - mu)(A - conj mu)^-1 y = y - 2i (A + i)^-1 y
        self.v_images = [y - sturm.helmholtz_dirichlet_solve(1j, 2j * y)
                         for y in self.kplus]

    def gamma(self, u):
        f = -1.0 * u.derivative().derivative()
        g = f + (-1j) * u
        u_minus = sturm.ExpPoly()
        for b in self.kminus:
            u_minus = u_minus + (g.inner(b) / -2j) * b
        g = f + 1j * u
        v_up = sturm.ExpPoly()
        for b, img in zip(self.kplus, self.v_images):
            v_up = v_up + (g.inner(b) / 2j) * img
        g0 = u_minus + v_up
        g1 = (-1j) * u_minus + 1j * v_up
        return (np.array([g0.inner(b) for b in self.kminus]),
                np.array([g1.inner(b) for b in self.kminus]))


@pytest.fixture(scope="module")
def maps():
    bp = sturm.RellichBoundaryProblem()
    return bp, bp.inner_boundary_maps()


def test_trace_maps_match_the_exppoly_reference(maps):
    bp, gamma = maps
    ref = ReferenceInnerMaps().gamma
    elems = (bp.test_elements(np.random.default_rng(5), 40)
             + bp.kernel_basis() + bp.gamma1_kernel_elements())
    for u in elems:
        got0, got1 = gamma(u)
        want0, want1 = ref(u)
        assert got0.shape == got1.shape == (2,)
        scale = 1e-13 * max(1.0, u.norm())
        assert np.linalg.norm(got0 - want0) <= scale
        assert np.linalg.norm(got1 - want1) <= scale


def test_trace_maps_vanish_on_the_minimal_domain(maps):
    bp, gamma = maps
    for u in bp.minimal_domain_elements():
        g0, g1 = gamma(u)
        assert np.linalg.norm(g0) < 1e-13
        assert np.linalg.norm(g1) < 1e-13


def test_isometry_read_off_the_maps_is_unitary(maps):
    # on y in K+ the split is c+ = e_j, c- = 0, so Gamma0 y_j = W e_j
    _, gamma = maps
    kplus = sturm._orthonormalize_exppolys(sturm.deficiency_basis(1j))
    w = np.column_stack([gamma(y)[0] for y in kplus])
    assert np.linalg.norm(w.conj().T @ w - np.eye(2)) < 1e-14


def test_abstract_lagrange_identity(maps):
    bp, gamma = maps
    elems = bp.test_elements(np.random.default_rng(11), 20)
    data = [(u, bp.action(u), *gamma(u)) for u in elems]
    for u, au, g0u, g1u in data:
        for v, av, g0v, g1v in data:
            left, right = au.inner(v), u.inner(av)
            boundary = (complex(np.vdot(g0v, g1u))
                        - complex(np.vdot(g1v, g0u)))
            scale = max(1.0, abs(left), abs(right))
            assert abs(left - right - boundary) <= 1e-12 * scale


def test_evaluation_makes_no_integral_or_resolvent_solve(monkeypatch):
    bp = sturm.RellichBoundaryProblem()
    bp.inner_boundary_maps()
    calls = {"inner": 0, "solve": 0}
    inner, solve = sturm.ExpPoly.inner, sturm.helmholtz_dirichlet_solve

    def counting_inner(self, other):
        calls["inner"] += 1
        return inner(self, other)

    def counting_solve(shift, rhs):
        calls["solve"] += 1
        return solve(shift, rhs)

    monkeypatch.setattr(sturm.ExpPoly, "inner", counting_inner)
    monkeypatch.setattr(sturm, "helmholtz_dirichlet_solve", counting_solve)
    gamma = bp.inner_boundary_maps()
    for u in bp.test_elements(np.random.default_rng(2), 12):
        gamma(u)
    assert calls == {"inner": 0, "solve": 0}
