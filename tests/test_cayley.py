import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletflow import cayley as cy
from tripletflow import relspace as rs

from conftest import random_complex


def test_deficiency_trivial_for_selfadjoint(rng):
    h = random_complex(rng, 3, 3)
    h = h + h.conj().T
    graph = rs.LinearRelation.graph_of(h)
    model = cy.SymmetricModel(3, graph, graph)
    kp, km = cy.deficiency_spaces(model)
    assert kp.dim == 0 and km.dim == 0


def test_deficiency_restricted_diagonal():
    # graph of diag(0, 0) restricted to span(e1) + span(e1): defect (1, 1)
    t_rel = rs.LinearRelation.from_blocks(np.array([[1.0], [0.0]]),
                                          np.zeros((2, 1)))
    a_rel = rs.LinearRelation.graph_of(np.zeros((2, 2)))
    model = cy.SymmetricModel(2, t_rel, a_rel)
    kp, km = cy.deficiency_spaces(model)
    assert kp.dim == 1 and km.dim == 1
    # direct oracle: the adjoint is {((x1,x2),(y1,y2)) : y1 = 0}, so the
    # solutions of (x, ix) in T* are exactly multiples of e2
    want = rs.Subspace.from_span(np.array([[0.0], [1.0]]), ambient_dim=2)
    assert kp.gap(want) < 1e-12
    assert km.gap(want) < 1e-12


def test_extension_isometry_properties(rng):
    model = cy.random_symmetric_model(rng, 5, 2)
    vmat = cy.extension_isometry(model)
    for j in range(vmat.shape[1]):
        assert abs(np.linalg.norm(vmat[:, j]) - 1.0) < 1e-12
        assert model.kminus.contains(vmat[:, j].reshape(-1, 1))
    # the full Cayley transform restricted to K+ agrees with the isometry
    u_a = rs.cayley_unitary(model.A)
    assert np.linalg.norm(u_a @ model.kplus.basis - vmat) < 1e-12


def test_extension_isometry_empty(rng):
    model = cy.random_symmetric_model(rng, 3, 0)
    assert cy.extension_isometry(model).shape == (3, 0)


def test_scalar_defect_modulus(rng):
    model = cy.random_symmetric_model(rng, 2, 1)
    vmat = cy.extension_isometry(model)
    coord = model.kminus.basis.conj().T @ vmat
    assert abs(abs(coord[0, 0]) - 1.0) < 1e-12


def test_von_neumann_trivial_cases(rng):
    model = cy.random_symmetric_model(rng, 4, 2)
    # z in the minimal domain: all components vanish except the symmetric one
    zpair = model.T.graph.basis[:, 0]
    split = cy.von_neumann_components(model, zpair)
    assert np.linalg.norm(split.z_plus) < 1e-12
    assert np.linalg.norm(split.z_minus) < 1e-12
    assert np.linalg.norm(split.z0) < 1e-12 and np.linalg.norm(split.z1) < 1e-12
    # z in K-: boundary values are z and -mu z
    y = model.kminus.basis[:, 0]
    split = cy.von_neumann_components(model, y, action=np.conj(model.mu) * y)
    assert np.linalg.norm(split.z0 - y) < 1e-12
    assert np.linalg.norm(split.z1 - (-model.mu) * y) < 1e-12


def test_von_neumann_reconstruction(rng):
    for _ in range(20):
        model = cy.random_symmetric_model(rng, int(rng.integers(3, 8)), 2)
        basis = model.Tstar.graph.basis
        z = basis @ random_complex(rng, basis.shape[1])
        split = cy.von_neumann_components(model, z)
        assert split.split_residual < 1e-10 * max(1.0, np.linalg.norm(z))
        assert split.reconstruction_residual < 1e-10 * max(
            1.0, np.linalg.norm(z))


def test_lagrange_identity_cases(rng):
    model = cy.random_symmetric_model(rng, 5, 2)
    t0 = model.T.graph.basis[:, 0]
    t1 = model.T.graph.basis[:, 1]
    assert cy.lagrange_residual(model, t0, t1) < 1e-12
    yp = model.kplus.basis[:, 0]
    ym = model.kminus.basis[:, 0]
    res = cy.lagrange_residual(model, yp, ym, x_action=model.mu * yp,
                               z_action=np.conj(model.mu) * ym)
    assert res < 1e-10
    basis = model.Tstar.graph.basis
    for _ in range(10):
        x = basis @ random_complex(rng, basis.shape[1])
        z = basis @ random_complex(rng, basis.shape[1])
        scale = max(1.0, np.linalg.norm(x) * np.linalg.norm(z))
        assert cy.lagrange_residual(model, x, z) / scale < 1e-10


def test_extension_from_multivalued_recovers_reference(rng):
    model = cy.random_symmetric_model(rng, 5, 2)
    brel = rs.LinearRelation.zero_times_full(model.defect)
    a_prime = cy.extension_from_relation(model, brel)
    assert a_prime.gap(model.A) < 1e-10


def test_extension_from_zero_operator_is_gamma1_kernel(rng):
    model = cy.random_symmetric_model(rng, 4, 2)
    brel = rs.LinearRelation.graph_of(np.zeros((2, 2)))
    a_prime = cy.extension_from_relation(model, brel)
    _, g0, g1, _ = cy.boundary_data(model)
    # every pair of the extension has vanishing second boundary value
    coords = model.Tstar.graph.basis.conj().T @ a_prime.graph.basis
    assert np.linalg.norm(g1 @ coords) < 1e-10
    assert rs.is_self_adjoint(a_prime)


def test_extension_selfadjoint_iff_relation_is(rng):
    model = cy.random_symmetric_model(rng, 4, 1)
    for t in (-2.0, 0.0, 1.0, 5.0):
        brel = rs.LinearRelation.graph_of(np.array([[t]]))
        assert rs.is_self_adjoint(cy.extension_from_relation(model, brel))
    skew = rs.LinearRelation.graph_of(np.array([[1j]]))
    with pytest.warns(UserWarning):
        bad = cy.extension_from_relation(model, skew)
    assert not rs.is_self_adjoint(bad)


def test_factorization_multivalued_gives_identity_factor(rng):
    model = cy.random_symmetric_model(rng, 4, 2)
    brel = rs.LinearRelation.zero_times_full(2)
    u_b = rs.cayley_unitary(brel)
    assert np.linalg.norm(u_b - np.eye(2)) < 1e-13
    r1, r2 = cy.cayley_factorization_check(model, brel)
    assert r1 < 1e-10 and r2 < 1e-10


def test_factorization_scalar_graph(rng):
    model = cy.random_symmetric_model(rng, 3, 1)
    brel = rs.LinearRelation.graph_of(np.array([[1.0]]))
    r1, r2 = cy.cayley_factorization_check(model, brel)
    assert r1 < 1e-10 and r2 < 1e-10


def test_factorization_requires_mu_i(rng):
    model = cy.random_symmetric_model(rng, 3, 1, mu=2j)
    with pytest.raises(ValueError):
        cy.cayley_factorization_check(
            model, rs.LinearRelation.graph_of(np.array([[0.0]])))


def test_partial_cayley_vanishes_off_image(rng):
    model = cy.random_symmetric_model(rng, 4, 2)
    u_t = cy.partial_cayley(model.T, model.mu)
    # the orthogonal complement of Im(T - conj(mu)) is K+
    assert np.linalg.norm(u_t @ model.kplus.basis) < 1e-10


def test_domain_splitting_spans_adjoint(rng):
    model = cy.random_symmetric_model(rng, 5, 2)
    mu = model.mu
    stacked = np.hstack([
        model.T.graph.basis,
        np.vstack([model.kplus.basis, mu * model.kplus.basis]),
        np.vstack([model.kminus.basis, np.conj(mu) * model.kminus.basis]),
    ])
    span = rs.Subspace.from_span(stacked)
    assert span.gap(model.Tstar.graph) < 1e-10
    assert stacked.shape[1] == model.Tstar.dim


def test_arbitrary_mu_supported(rng):
    model = cy.random_symmetric_model(rng, 4, 2, mu=0.7 + 1.3j)
    vmat = cy.extension_isometry(model)
    for j in range(vmat.shape[1]):
        assert abs(np.linalg.norm(vmat[:, j]) - 1.0) < 1e-11


MODEL_SHAPES = [(8, 3), (40, 10), (5, 0), (6, 6)]
MUS = [1j, -1j, 0.3 + 2j]


@pytest.mark.parametrize("dim,defect", MODEL_SHAPES)
@pytest.mark.parametrize("mu", MUS, ids=["i", "-i", "0.3+2i"])
def test_boundary_data_matches_per_column_split(dim, defect, mu):
    rng = np.random.default_rng(1000 * dim + defect)
    model = cy.random_symmetric_model(rng, dim, defect, mu=mu)
    basis, g0, g1, vmat = cy.boundary_data(model)
    bmh = model.kminus.basis.conj().T
    g0_ref = np.zeros_like(g0)
    g1_ref = np.zeros_like(g1)
    for j in range(basis.shape[1]):
        split = cy.von_neumann_components(model, basis[:, j],
                                          check_reconstruction=False)
        assert split.split_residual < 1e-10
        g0_ref[:, j] = bmh @ split.z0
        g1_ref[:, j] = bmh @ split.z1
    assert g0.shape == g1.shape == (defect, basis.shape[1])
    assert np.abs(g0 - g0_ref).max(initial=0.0) <= 1e-13
    assert np.abs(g1 - g1_ref).max(initial=0.0) <= 1e-13
    assert vmat is cy.extension_isometry(model)
    # the residuals pinned by the per-vector tests keep their bounds
    x = basis @ random_complex(rng, basis.shape[1])
    z = basis @ random_complex(rng, basis.shape[1])
    split = cy.von_neumann_components(model, z)
    scale = max(1.0, np.linalg.norm(z))
    assert split.split_residual < 1e-10 * scale
    assert split.reconstruction_residual < 1e-10 * scale
    assert (cy.lagrange_residual(model, x, z)
            / max(1.0, np.linalg.norm(x) * np.linalg.norm(z))) < 1e-10


def test_split_rejects_pairs_outside_adjoint(rng):
    model = cy.random_symmetric_model(rng, 5, 2)
    outside = model.Tstar.graph.complement().basis[:, 0]
    with pytest.raises(ValueError):
        cy.von_neumann_components(model, outside)
    inside = model.Tstar.graph.basis[:, 0]
    with pytest.raises(ValueError):
        cy.lagrange_residual(model, inside, outside)
    with pytest.raises(ValueError):
        cy.lagrange_residual(model, inside, np.full(10, np.nan))


def test_extension_isometry_cached_per_model(rng):
    model = cy.random_symmetric_model(rng, 6, 2)
    vmat = cy.extension_isometry(model)
    assert cy.extension_isometry(model) is vmat
    assert not vmat.flags.writeable
    with pytest.raises(ValueError):
        vmat[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.mu = -1j
    twin = model.with_mu(-1j)
    vtwin = cy.extension_isometry(twin)
    assert vtwin is not vmat
    assert np.linalg.norm(vtwin - vmat) > 1e-3
    # at mu = -i the isometry is the inverse Cayley transform on K+(-i)
    u_a = rs.cayley_unitary(model.A)
    assert np.linalg.norm(u_a.conj().T @ twin.kplus.basis - vtwin) < 1e-12
    assert np.linalg.norm(u_a @ model.kplus.basis - vmat) < 1e-12
    assert cy.extension_isometry(model) is vmat


def test_factorization_large_model():
    rng = np.random.default_rng(8020)
    model = cy.random_symmetric_model(rng, 80, 20)
    brel = cy.random_selfadjoint_relation(rng, 20)
    r1, r2 = cy.cayley_factorization_check(model, brel)
    assert r1 <= 1e-9 and r2 <= 1e-9


_coef = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                           allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8),
       data=st.data(), alpha=_coef, beta=_coef)
def test_split_is_linear(seed, dim, data, alpha, beta):
    defect = data.draw(st.integers(0, dim))
    rng = np.random.default_rng(seed)
    model = cy.random_symmetric_model(rng, dim, defect, mu=MUS[seed % 3])
    basis = model.Tstar.graph.basis
    x = basis @ random_complex(rng, basis.shape[1])
    z = basis @ random_complex(rng, basis.shape[1])
    sx, sz, sc = (cy.von_neumann_components(model, p,
                                            check_reconstruction=False)
                  for p in (x, z, alpha * x + beta * z))
    scale = max(1.0, abs(alpha) * np.linalg.norm(x)
                + abs(beta) * np.linalg.norm(z))
    for name in ("z_T", "z_plus", "z_minus", "z0", "z1"):
        combo = alpha * getattr(sx, name) + beta * getattr(sz, name)
        assert np.linalg.norm(getattr(sc, name) - combo) <= 1e-10 * scale
