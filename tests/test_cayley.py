import dataclasses
import warnings

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
    model = cy.SymmetricModel(graph, graph)
    kp, km = cy.deficiency_spaces(model)
    assert kp.dim == 0 and km.dim == 0


def test_model_needs_t_and_a_in_one_space():
    three = rs.LinearRelation.graph_of(np.eye(3))
    two = rs.LinearRelation.graph_of(np.eye(2))
    wide = rs.LinearRelation.from_span(2, 3, np.eye(5)[:, :2])
    for t, a in ((two, three), (three, two), (wide, wide)):
        with pytest.raises(ValueError, match="one space C\\^n"):
            cy.SymmetricModel(t, a)
    assert cy.SymmetricModel(three, three).dim == 3


def test_deficiency_restricted_diagonal():
    # graph of diag(0, 0) restricted to span(e1) + span(e1): defect (1, 1)
    t_rel = rs.LinearRelation.from_blocks(np.array([[1.0], [0.0]]),
                                          np.zeros((2, 1)))
    a_rel = rs.LinearRelation.graph_of(np.zeros((2, 2)))
    model = cy.SymmetricModel(t_rel, a_rel)
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
    split = cy.von_neumann_components(
        model, np.concatenate([y, np.conj(model.mu) * y]))
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
    res = cy.lagrange_residual(model, np.concatenate([yp, model.mu * yp]),
                               np.concatenate([ym, np.conj(model.mu) * ym]))
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
    _, g0, g1 = cy.boundary_data(model)
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
    basis, g0, g1 = cy.boundary_data(model)
    bmh = model.kminus.basis.conj().T
    g0_ref = np.zeros_like(g0)
    g1_ref = np.zeros_like(g1)
    for j in range(basis.shape[1]):
        split = cy.von_neumann_components(model, basis[:, j])
        assert split.split_residual < 1e-10
        g0_ref[:, j] = bmh @ split.z0
        g1_ref[:, j] = bmh @ split.z1
    assert g0.shape == g1.shape == (defect, basis.shape[1])
    assert np.abs(g0 - g0_ref).max(initial=0.0) <= 1e-13
    assert np.abs(g1 - g1_ref).max(initial=0.0) <= 1e-13
    # the residuals pinned by the per-vector tests keep their bounds
    x = basis @ random_complex(rng, basis.shape[1])
    z = basis @ random_complex(rng, basis.shape[1])
    split = cy.von_neumann_components(model, z)
    scale = max(1.0, np.linalg.norm(z))
    assert split.split_residual < 1e-10 * scale
    assert split.reconstruction_residual < 1e-10 * scale
    assert (cy.lagrange_residual(model, x, z)
            / max(1.0, np.linalg.norm(x) * np.linalg.norm(z))) < 1e-10


def test_split_rejects_a_vector_without_its_action(rng):
    model = cy.random_symmetric_model(rng, 5, 2)
    vec = model.Tstar.graph.basis[:5, 0]
    with pytest.raises(ValueError, match="stacked as"):
        cy.von_neumann_components(model, vec)
    pair = model.Tstar.graph.basis[:, 0]
    with pytest.raises(ValueError, match="stacked as"):
        cy.lagrange_residual(model, pair, vec)


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
    conj = model.with_mu(-1j)
    vconj = cy.extension_isometry(conj)
    assert vconj is not vmat
    assert np.linalg.norm(vconj - vmat) > 1e-3
    # at mu = -i the isometry is the inverse Cayley transform on K+(-i)
    u_a = rs.cayley_unitary(model.A)
    assert np.linalg.norm(u_a.conj().T @ conj.kplus.basis - vconj) < 1e-12
    assert np.linalg.norm(u_a @ model.kplus.basis - vmat) < 1e-12
    assert cy.extension_isometry(model) is vmat


def test_factorization_large_model():
    rng = np.random.default_rng(8020)
    model = cy.random_symmetric_model(rng, 80, 20)
    brel = cy.random_selfadjoint_relation(rng, 20)
    r1, r2 = cy.cayley_factorization_check(model, brel)
    assert r1 <= 1e-9 and r2 <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_factorization_on_the_benchmark_extension_mix(seed):
    # the extension benchmark's inputs: 100 models 8/3, 3 of 40/10 and one
    # of 80/20 with their boundary relations, drawn from one generator
    rng = np.random.default_rng(seed)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dim, defect, count in ((8, 3, 100), (40, 10, 3), (80, 20, 1)):
            for _ in range(count):
                model = cy.random_symmetric_model(rng, dim, defect)
                brel = cy.random_selfadjoint_relation(rng, defect)
                worst = max(worst,
                            *cy.cayley_factorization_check(model, brel))
    assert worst <= 1e-9


def _bit_equal(a, b):
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.float64),
                                                 b.view(np.float64))


@pytest.mark.parametrize("mu", [1j, 0.3 + 2j, -1.5 - 0.7j],
                         ids=["i", "0.3+2i", "-1.5-0.7i"])
def test_conjugate_twin_bit_equal_to_rebuild(mu):
    # the full model at conj(mu) has this model's K+ and K- swapped, and
    # its split is this model's two coefficient blocks swapped, bit for
    # bit: the factorization check reads both identities off one split
    rng = np.random.default_rng(8300)
    for dim, defect in ((8, 3), (40, 10), (5, 0), (6, 6)):
        model = cy.random_symmetric_model(rng, dim, defect, mu=mu)
        conj = model.with_mu(np.conj(model.mu))
        assert conj.mu == np.conj(mu)
        assert conj.T is model.T and conj.A is model.A
        assert _bit_equal(conj.Tstar.graph.basis, model.Tstar.graph.basis)
        assert _bit_equal(conj.kplus.basis, model.kminus.basis)
        assert _bit_equal(conj.kminus.basis, model.kplus.basis)
        basis = model.Tstar.graph.basis
        c_plus, c_minus = cy._split_block(model, basis)
        conj_plus, conj_minus = cy._split_block(conj, basis)
        assert _bit_equal(conj_plus, c_minus)
        assert _bit_equal(conj_minus, c_plus)
        # V at conj(mu) is V^(-1) = K+ W^H: equal to rounding
        assert np.linalg.norm(cy.extension_isometry(conj)
                              - model.kplus.basis @ model._w.conj().T) <= 1e-13


def test_with_mu_builds_full_model(rng, monkeypatch):
    model = cy.random_symmetric_model(rng, 5, 2)
    calls = []
    adjoint = cy.adjoint_relation
    monkeypatch.setattr(cy, "adjoint_relation",
                        lambda rel: calls.append(rel) or adjoint(rel))
    with pytest.raises(ValueError, match="mu must be nonreal"):
        model.with_mu(2.0)
    conj = model.with_mu(-1j)
    other = model.with_mu(2j)
    assert calls == [model.T, model.T]
    assert conj.Tstar is not model.Tstar
    assert other.mu == 2j and other.Tstar is not model.Tstar
    assert other.kplus.gap(model.Tstar.kernel_at(2j)) < 1e-12
    assert other.kminus.gap(model.Tstar.kernel_at(-2j)) < 1e-12


def test_factorization_warns_once_at_caller():
    rng = np.random.default_rng(62)
    model = cy.random_symmetric_model(rng, 6, 2)
    skew = rs.LinearRelation.graph_of(np.diag([1 + 0.5j, 2.0]))
    with pytest.warns(UserWarning, match="not self-adjoint") as records:
        cy.cayley_factorization_check(model, skew)
    assert len(records) == 1
    assert records[0].filename == __file__
    with pytest.warns(UserWarning, match="not self-adjoint") as records:
        cy.extension_from_relation(model, skew)
    assert len(records) == 1
    assert records[0].filename == __file__


def _old_factorization_check(model, brel):
    """The factorization check with a full rebuild of the model at -i."""
    u_a = rs.cayley_unitary(model.A)
    u_b = rs.cayley_unitary(brel)
    a_prime = cy.extension_from_relation(model, brel)
    u_bh_minus = cy.embed_boundary_unitary(model.kminus, u_b)
    res_plus = np.linalg.norm(rs.cayley_unitary(a_prime) - u_bh_minus @ u_a)
    model_minus = cy.SymmetricModel(model.T, model.A, mu=-1j)
    a_second = cy.extension_from_relation(model_minus, brel)
    u_bh_plus = cy.embed_boundary_unitary(model.kplus, u_b)
    res_minus = np.linalg.norm(rs.cayley_unitary(a_second) - u_a @ u_bh_plus)
    return float(res_plus), float(res_minus)


def test_factorization_residuals_match_full_rebuild():
    rng = np.random.default_rng(3)
    shapes = [(8, 3)] * 10 + [(40, 10), (80, 20)]
    for dim, defect in shapes:
        model = cy.random_symmetric_model(rng, dim, defect)
        brel = cy.random_selfadjoint_relation(rng, defect)
        r_plus, r_minus = cy.cayley_factorization_check(model, brel)
        ref_plus, ref_minus = _old_factorization_check(model, brel)
        assert r_plus == ref_plus
        # the -i twin derives its split and V^(-1) from the model at i
        assert abs(r_minus - ref_minus) <= 1e-13


def test_reconstruction_skipped_when_reference_not_invertible():
    # T = {(0, (t, 0))}: T* = {(x, y) : x1 = 0}, defect (1, 1)
    t_rel = rs.LinearRelation.from_blocks(np.zeros((2, 1)),
                                          np.array([[1.0], [0.0]]))
    with_mul = rs.LinearRelation.zero_times_full(2)
    # T = graph of diag(0, 0) on span(e1): A = graph of 0 has a kernel
    t_ker = rs.LinearRelation.from_blocks(np.array([[1.0], [0.0]]),
                                          np.zeros((2, 1)))
    with_ker = rs.LinearRelation.graph_of(np.zeros((2, 2)))
    for t, a in ((t_rel, with_mul), (t_ker, with_ker)):
        model = cy.SymmetricModel(t, a)
        assert not model._a_invertible
        z = model.Tstar.graph.basis @ np.arange(1.0, model.Tstar.dim + 1)
        split = cy.von_neumann_components(model, z)
        assert split.reconstruction_residual is None
        assert split.split_residual < 1e-12
        assert not model.with_mu(-1j)._a_invertible


def test_reference_invertibility_decided_once(rng, monkeypatch):
    model = cy.random_symmetric_model(rng, 5, 2)
    basis = model.Tstar.graph.basis
    z = basis @ random_complex(rng, basis.shape[1])
    first = cy.von_neumann_components(model, z).reconstruction_residual
    assert model._a_invertible is True
    monkeypatch.setattr(type(model.A), "kernel_at",
                        lambda *args: pytest.fail("kernel recomputed"))
    assert (cy.von_neumann_components(model, z).reconstruction_residual
            == first)


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
    sx, sz, sc = (cy.von_neumann_components(model, p)
                  for p in (x, z, alpha * x + beta * z))
    scale = max(1.0, abs(alpha) * np.linalg.norm(x)
                + abs(beta) * np.linalg.norm(z))
    for name in ("z_T", "z_plus", "z_minus", "z0", "z1"):
        combo = alpha * getattr(sx, name) + beta * getattr(sz, name)
        assert np.linalg.norm(getattr(sc, name) - combo) <= 1e-10 * scale


def _max_rel(a, b):
    """Largest entry of |a - b|, relative to max(1, largest |b|)."""
    return (np.abs(a - b).max(initial=0.0)
            / max(1.0, np.abs(b).max(initial=0.0)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(8, 3), (6, 6), (5, 0), (2, 1)]),
       mu=st.sampled_from([1j, 0.3 + 2j, -1.5 - 0.7j]))
def test_derived_twin_matches_full_rebuild(seed, shape, mu):
    # the boundary values at conj(mu), derived from the split at mu with
    # the blocks swapped and W^H, against those of the full model
    rng = np.random.default_rng(seed)
    model = cy.random_symmetric_model(rng, *shape, mu=mu)
    full = model.with_mu(np.conj(mu))
    basis, g0_ref, g1_ref = cy.boundary_data(full)
    c_plus, c_minus = cy._split_block(model, basis)
    g0, g1 = cy._boundary_coords(model._w.conj().T, np.conj(mu), c_minus,
                                 c_plus)
    assert _max_rel(g0, g0_ref) <= 1e-12
    assert _max_rel(g1, g1_ref) <= 1e-12
    x = basis @ random_complex(rng, basis.shape[1])
    z = basis @ random_complex(rng, basis.shape[1])
    assert (cy.lagrange_residual(full, x, z)
            / max(1.0, np.linalg.norm(x) * np.linalg.norm(z))) <= 1e-10


def test_factorization_rejects_a_nonunitary_isometry(rng):
    model = cy.random_symmetric_model(rng, 6, 2)
    brel = cy.random_selfadjoint_relation(rng, 2)
    # a V off the unitary group by more than the resolvent bound
    model.__dict__["_isometry"] = 1.001 * model._isometry
    with pytest.raises(np.linalg.LinAlgError, match="not unitary"):
        cy.cayley_factorization_check(model, brel)


def test_factorization_rejects_cuts_of_different_dimensions(rng,
                                                            monkeypatch):
    model = cy.random_symmetric_model(rng, 6, 2)
    brel = cy.random_selfadjoint_relation(rng, 2)
    null_space_dims = cy._null_space_dims

    def one_less_at_minus_i(a):
        # the -i cut read as one dimension smaller than the cut at i
        coeff, dims = null_space_dims(a)
        return coeff, dims - np.arange(len(dims))

    monkeypatch.setattr(cy, "_null_space_dims", one_less_at_minus_i)
    with pytest.raises(np.linalg.LinAlgError, match="differ in dimension"):
        cy.cayley_factorization_check(model, brel)


def test_factorization_makes_one_least_squares_solve(rng, monkeypatch):
    model = cy.random_symmetric_model(rng, 8, 3)
    brel = cy.random_selfadjoint_relation(rng, 3)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *args, **kw: calls.append("lstsq")
                        or lstsq(*args, **kw))
    split_block = cy._split_block
    monkeypatch.setattr(cy, "_split_block",
                        lambda *args: calls.append("split")
                        or split_block(*args))
    cy.cayley_factorization_check(model, brel)
    # the resolvent solve at i, and one split of the T* basis for both
    # extensions; the split is two projections
    assert sorted(calls) == ["lstsq", "split"]


def _lstsq_split(model, pairs):
    """Reference split: one least-squares solve along
    T (+) {(y, mu y)} (+) {(y, conj(mu) y)}, returning the coefficients on
    the bases of T, K+ and K-."""
    mu = model.mu
    kp = model.kplus.basis
    km = model.kminus.basis
    blocks = np.hstack([model.T.graph.basis,
                        np.vstack([kp, mu * kp]),
                        np.vstack([km, np.conj(mu) * km])])
    coeff, *_ = np.linalg.lstsq(blocks, pairs, rcond=None)
    st, sp = model.T.dim, model.kplus.dim
    return coeff[:st], coeff[st:st + sp], coeff[st + sp:]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(2, 1), (6, 6), (8, 3), (8, 0)]),
       mu=st.sampled_from(MUS))
def test_projection_split_matches_least_squares(seed, shape, mu):
    rng = np.random.default_rng(seed)
    model = cy.random_symmetric_model(rng, *shape, mu=mu)
    basis = model.Tstar.graph.basis
    pair = basis @ random_complex(rng, basis.shape[1])
    scale = max(1.0, np.linalg.norm(pair))
    c_plus, c_minus = cy._split_block(model, pair[:, None])
    _, ref_plus, ref_minus = _lstsq_split(model, pair[:, None])
    assert np.abs(c_plus - ref_plus).max(initial=0.0) <= 1e-12 * scale
    assert np.abs(c_minus - ref_minus).max(initial=0.0) <= 1e-12 * scale
    # a pair built from known parts gives them back
    t = model.T.graph.basis @ random_complex(rng, model.T.dim)
    y_plus = model.kplus.basis @ random_complex(rng, model.kplus.dim)
    y_minus = model.kminus.basis @ random_complex(rng, model.kminus.dim)
    built = t + np.concatenate([y_plus + y_minus,
                                mu * y_plus + np.conj(mu) * y_minus])
    split = cy.von_neumann_components(model, built)
    assert np.linalg.norm(split.z_T - t) <= 1e-12 * max(1.0, np.linalg.norm(t))
    assert np.linalg.norm(split.z_plus - y_plus) <= 1e-12 * max(
        1.0, np.linalg.norm(y_plus))
    assert np.linalg.norm(split.z_minus - y_minus) <= 1e-12 * max(
        1.0, np.linalg.norm(y_minus))
    assert split.split_residual < 1e-12


@pytest.mark.parametrize("dim,defect", [(40, 10), (80, 20)])
def test_large_model_split_and_factorization(dim, defect):
    rng = np.random.default_rng(100 * dim + defect)
    model = cy.random_symmetric_model(rng, dim, defect)
    basis, g0, g1 = cy.boundary_data(model)
    bmh = model.kminus.basis.conj().T
    for j in range(basis.shape[1]):
        split = cy.von_neumann_components(model, basis[:, j])
        assert np.abs(g0[:, j] - bmh @ split.z0).max() <= 1e-12
        assert np.abs(g1[:, j] - bmh @ split.z1).max() <= 1e-12
    x = basis @ random_complex(rng, basis.shape[1])
    z = basis @ random_complex(rng, basis.shape[1])
    assert (cy.lagrange_residual(model, x, z)
            / max(1.0, np.linalg.norm(x) * np.linalg.norm(z))) < 1e-10
    brel = cy.random_selfadjoint_relation(rng, defect)
    r_plus, r_minus = cy.cayley_factorization_check(model, brel)
    assert r_plus < 1e-9 and r_minus < 1e-9


@pytest.mark.parametrize("dim,defect",
                         [(8, 3), (40, 10), (80, 20), (6, 6), (2, 1), (5, 0)])
def test_minus_i_extension_matches_the_full_model(dim, defect):
    # the -i extension, cut from the split at i, against the extension of
    # the full model at -i; defect 0 takes the Cayley transform in C^0
    rng = np.random.default_rng(10 * dim + defect)
    model = cy.random_symmetric_model(rng, dim, defect)
    brel = cy.random_selfadjoint_relation(rng, defect)
    r_plus, r_minus, (a_prime, a_second) = cy._factorization(model, brel)
    assert r_plus <= 1e-9 and r_minus <= 1e-9
    assert a_prime.gap(cy.extension_from_relation(model, brel)) <= 1e-12
    full = cy.extension_from_relation(model.with_mu(-1j), brel)
    assert a_second.gap(full) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_split_measures_overflowing_pairs_scaled():
    model = cy.random_symmetric_model(np.random.default_rng(0), 4, 1)
    # the norm of the pair overflows; its distance from T* does not vanish
    with pytest.raises(ValueError, match="does not belong to T"):
        cy.von_neumann_components(model, np.full(8, 1e200))
    # a pair of T* stays one at any scale, and its coefficients scale
    pair = model.Tstar.graph.basis @ np.array([1.0, -2.0, 0.5j, 1.0, 3.0])
    c_plus, c_minus = cy._split_block(model, pair[:, None])
    big_plus, big_minus = cy._split_block(model, 1e300 * pair[:, None])
    np.testing.assert_allclose(big_plus, 1e300 * c_plus, rtol=1e-12)
    np.testing.assert_allclose(big_minus, 1e300 * c_minus, rtol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_von_neumann_residuals_of_overflowing_pairs(scale):
    model = cy.random_symmetric_model(np.random.default_rng(0), 4, 1)
    c = np.random.default_rng(1).standard_normal(model.Tstar.graph.dim)
    pair = model.Tstar.graph.basis @ c
    unit = cy.von_neumann_components(model, pair)
    big = cy.von_neumann_components(model, scale * pair)
    # the residuals are representable and scale with the pair
    for got, ref in ((big.split_residual, unit.split_residual),
                     (big.reconstruction_residual,
                      unit.reconstruction_residual)):
        assert np.isfinite(got)
        assert got <= 1e-10 * scale * np.linalg.norm(pair)
        assert abs(np.log10(got / (scale * ref))) < 1.0
    for part in ("z_T", "z_plus", "z_minus", "z0", "z1"):
        np.testing.assert_allclose(getattr(big, part),
                                   scale * getattr(unit, part),
                                   rtol=1e-12, atol=0.0)
    # the Lagrange residual is that of the unit pairs times both scales:
    # finite while that product is, inf past it, never NaN
    small = cy.lagrange_residual(model, pair, pair)
    got = cy.lagrange_residual(model, scale * pair, pair)
    assert np.isfinite(got)
    assert got <= 1e-10 * scale * np.linalg.norm(pair) ** 2
    both = cy.lagrange_residual(model, scale * pair, scale * pair)
    if small * scale * scale < np.finfo(float).max:
        assert np.isfinite(both)
    else:
        assert both == np.inf


def test_von_neumann_split_of_finite_norm_keeps_its_bits():
    # no scaled copy for a pair whose norm is finite: the split equals the
    # direct computation from the projection coefficients bit for bit
    model = cy.random_symmetric_model(np.random.default_rng(2), 5, 2)
    basis = model.Tstar.graph.basis
    pair = 1e150 * (basis @ np.random.default_rng(3).standard_normal(
        basis.shape[1]))
    split = cy.von_neumann_components(model, pair)
    c_plus, c_minus = cy._split_block(model, pair[:, None])
    np.testing.assert_array_equal(split.z_plus,
                                  (model.kplus.basis @ c_plus)[:, 0])
    z_t = split.z_T
    t_basis = model.T.graph.basis
    assert split.split_residual == float(
        np.linalg.norm(z_t - t_basis @ (t_basis.conj().T @ z_t)))
