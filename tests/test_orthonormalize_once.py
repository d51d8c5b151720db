"""Bases that are orthonormal by construction are taken as given.

The adjoint of a relation is the SVD null space of its constraints, an
extension of the engine is the orthonormal basis of T* times orthonormal
null-space coefficients, the deficiency spaces of a model are the left
null spaces of the two images of T's graph basis, and the graphs of the
random builders are orthonormal by their formulas.  None is orthonormalized
a second time; the references below are the paths that did, kept to
compare against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletflow import cayley as cy
from tripletflow import relspace as rs

from conftest import random_complex


def old_adjoint_bases(bases, dom_dim, gram):
    """`_adjoint_bases` of one relation with the null space orthonormalized
    again."""
    a_blk = bases[..., :dom_dim, :]
    b_blk = bases[..., dom_dim:, :]
    cod_dim = b_blk.shape[-2]
    gcod = np.eye(cod_dim) if gram is None else np.asarray(gram)
    gdom = np.eye(dom_dim) if gram is None else np.asarray(gram)
    cons = np.concatenate([b_blk.conj().swapaxes(-1, -2) @ gcod,
                           -a_blk.conj().swapaxes(-1, -2) @ gdom], axis=-1)
    null = rs._orthonormal_columns(rs._null_space(cons))
    return null, np.array(null.shape[-1])


def old_extension(model, g0, g1, perp):
    """One extension of the engine, cut alone and orthonormalized again
    through `LinearRelation.from_span`."""
    coeff = rs._null_space(perp.conj().T @ np.vstack([g0, g1]))
    return rs.LinearRelation.from_span(model.dim, model.dim,
                                       model.Tstar.graph.basis @ coeff)


def old_factorization_check(model, brel):
    """`cayley.cayley_factorization_check` on the route that took the
    complement of B's graph by its own SVD, built each extension alone
    through `old_extension`, and took each Cayley transform alone."""
    perp = brel.graph.complement().basis
    w = model._w
    c_plus, c_minus = cy._split_block(model, model.Tstar.graph.basis)
    a_prime = old_extension(
        model, *cy._boundary_coords(w, 1j, c_plus, c_minus), perp)
    a_second = old_extension(
        model, *cy._boundary_coords(w.conj().T, -1j, c_minus, c_plus), perp)
    u_a, u_b, u_prime, u_second = (
        rs.cayley_unitary(rel) for rel in (model.A, brel, a_prime, a_second))
    res_plus = np.linalg.norm(
        u_prime - cy.embed_boundary_unitary(model.kminus, u_b) @ u_a)
    res_minus = np.linalg.norm(
        u_second - u_a @ cy.embed_boundary_unitary(model.kplus, u_b))
    return float(res_plus), float(res_minus)


def gram_matrix(rng, n):
    root = random_complex(rng, n, n)
    return root @ root.conj().T + n * np.eye(n)


@st.composite
def graph_stacks(draw):
    """A stack of graph columns in C^dom + C^cod whose members have their
    own ranks, so that their adjoints have mixed dimensions, with one Gram
    matrix for both spaces, which then have one dimension, or none."""
    count = draw(st.integers(2, 5))
    weighted = draw(st.booleans())
    dom_dim = draw(st.integers(1, 4))
    cod_dim = dom_dim if weighted else draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = dom_dim + cod_dim
    members = [random_complex(rng, m, rank) @ random_complex(rng, rank, k)
               for rank in draw(st.lists(st.integers(0, min(m, k)),
                                         min_size=count, max_size=count))]
    gram = gram_matrix(rng, dom_dim) if weighted else None
    return np.array(members), dom_dim, gram


@settings(max_examples=150, deadline=None)
@given(case=graph_stacks())
def test_stacked_adjoint_bases_equal_per_matrix(case):
    stack, dom_dim, gram = case
    bases, dims = rs._adjoint_bases(stack, dom_dim, gram)
    assert dims.shape == stack.shape[:1]
    assert bases.shape[-1] == dims.max()
    for member, basis, dim in zip(stack, bases, dims):
        ref, ref_dim = rs._adjoint_bases(member, dom_dim, gram)
        assert dim == ref_dim == ref.shape[1]
        # the member's adjoint is its last dims[i] columns
        own = basis[:, basis.shape[1] - dim:]
        if not member.any():
            # all of the space, by another orthonormal basis than the
            # identity of the single all-zero matrix
            np.testing.assert_allclose(own @ own.conj().T,
                                       np.eye(len(member)), atol=1e-12)
            continue
        np.testing.assert_array_equal(own, ref)


@settings(max_examples=150, deadline=None)
@given(case=graph_stacks())
def test_adjoint_bases_match_the_orthonormalized_path(case):
    stack, dom_dim, gram = case
    for bases in (stack, stack[0]):
        new, dims = rs._adjoint_bases(bases, dom_dim, gram)
        members = bases.reshape(-1, *stack.shape[1:])
        for member, basis, dim in zip(members,
                                      new.reshape(len(members),
                                                  *new.shape[-2:]),
                                      np.ravel(dims)):
            ref, ref_dim = old_adjoint_bases(member, dom_dim, gram)
            assert dim == ref_dim
            basis = basis[:, basis.shape[1] - dim:]
            assert np.linalg.norm(basis.conj().T @ basis
                                  - np.eye(dim)) <= 1e-13
            assert rs.Subspace(basis).gap(rs.Subspace(ref)) <= 1e-13


def test_adjoint_relation_takes_the_null_space_as_given(rng, monkeypatch):
    rel = rs.LinearRelation.from_span(3, 2, random_complex(rng, 5, 2))
    monkeypatch.setattr(rs, "_orthonormal_columns",
                        lambda *args: pytest.fail("orthonormalized again"))
    adj = rs.adjoint_relation(rel)
    assert (adj.dom_dim, adj.cod_dim, adj.dim) == (2, 3, 3)
    assert rs.is_self_adjoint_batch([rel, rel]).tolist() == [False, False]


@pytest.mark.parametrize("dim, defect, seed",
                         [(8, 3, 0), (40, 10, 1), (80, 20, 2)])
def test_extension_bases_are_orthonormal_and_match_from_span(
        dim, defect, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    model = cy.random_symmetric_model(rng, dim, defect)
    brel = cy.random_selfadjoint_relation(rng, defect)
    perp = brel.graph.complement().basis
    r_plus, r_minus, extensions = cy._factorization(model, brel)
    for mod, ext in zip((model, model.with_mu(-1j)), extensions):
        basis = ext.graph.basis
        assert np.linalg.norm(basis.conj().T @ basis
                              - np.eye(ext.dim)) <= 1e-13
        _, g0, g1 = cy.boundary_data(mod)
        assert ext.gap(old_extension(mod, g0, g1, perp)) <= 1e-13

    # the old path: both bases orthonormalized again, on a fresh model
    monkeypatch.setattr(rs, "_adjoint_bases", old_adjoint_bases)
    rng = np.random.default_rng(seed)
    old_model = cy.random_symmetric_model(rng, dim, defect)
    old_brel = cy.random_selfadjoint_relation(rng, defect)
    old_plus, old_minus = old_factorization_check(old_model, old_brel)
    assert abs(r_plus - old_plus) <= 1e-13
    assert abs(r_minus - old_minus) <= 1e-13


def test_factorization_orthonormalizes_nothing_again(rng, monkeypatch):
    model = cy.random_symmetric_model(rng, 8, 3)
    brel = cy.random_selfadjoint_relation(rng, 3)
    monkeypatch.setattr(rs, "_orthonormal_columns",
                        lambda *args: pytest.fail("orthonormalized again"))
    r_plus, r_minus = cy.cayley_factorization_check(model, brel)
    assert max(r_plus, r_minus) <= 1e-13


def old_random_symmetric_model(rng, dim, defect, mu=1j):
    """`cayley.random_symmetric_model` with the domain orthonormalized
    before T's graph is, and A's graph orthonormalized from [I; H]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
    evals = signs * rng.uniform(0.5, 3.0, size=dim)
    herm = q @ np.diag(evals) @ q.conj().T
    dom = rs.Subspace.from_span(rng.standard_normal((dim, dim - defect))
                                + 1j * rng.standard_normal((dim,
                                                            dim - defect)),
                                ambient_dim=dim)
    t_rel = rs.LinearRelation.from_blocks(dom.basis, herm @ dom.basis)
    return cy.SymmetricModel(t_rel, rs.LinearRelation.graph_of(herm), mu=mu)


def old_random_selfadjoint_relation(rng, dim):
    """`cayley.random_selfadjoint_relation` through `from_blocks`."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return rs.LinearRelation.from_blocks(0.5j * (u - np.eye(dim)),
                                         0.5 * (u + np.eye(dim)))


def orthonormality_defect(basis):
    return np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1]))


@pytest.mark.parametrize("mu", [1j, -1j, 0.3 + 2j], ids=["i", "-i", "0.3+2i"])
@pytest.mark.parametrize("dim, defect",
                         [(8, 3), (40, 10), (80, 20), (5, 0), (6, 6), (3, 1)])
def test_deficiency_spaces_match_the_kernels_of_the_adjoint(dim, defect, mu):
    rng = np.random.default_rng(1000 * dim + defect)
    model = cy.random_symmetric_model(rng, dim, defect, mu=mu)
    for space, shift in ((model.kplus, mu), (model.kminus, np.conj(mu))):
        assert space.dim == defect
        assert orthonormality_defect(space.basis) <= 1e-13
        assert space.gap(model.Tstar.kernel_at(shift)) <= 1e-12


@pytest.mark.parametrize("dim, defect, seed",
                         [(8, 3, 0), (40, 10, 1), (80, 20, 2), (5, 0, 3),
                          (6, 6, 4)])
def test_random_model_graphs_match_the_orthonormalized_path(dim, defect,
                                                            seed):
    # the same draws in the same order: T, and A = graph_of(herm), are the
    # same relations as on the old path
    model = cy.random_symmetric_model(np.random.default_rng(seed), dim,
                                      defect)
    old = old_random_symmetric_model(np.random.default_rng(seed), dim,
                                     defect)
    assert orthonormality_defect(model.A.graph.basis) <= 1e-13
    assert model.A.gap(old.A) <= 1e-13
    assert model.T.gap(old.T) <= 1e-13


@pytest.mark.parametrize("dim", range(9))
def test_random_selfadjoint_relation_is_orthonormal_as_given(dim):
    rel = cy.random_selfadjoint_relation(np.random.default_rng(dim), dim)
    old = old_random_selfadjoint_relation(np.random.default_rng(dim), dim)
    assert (rel.dom_dim, rel.cod_dim, rel.dim) == (dim, dim, dim)
    assert orthonormality_defect(rel.graph.basis) <= 1e-13
    assert rel.gap(old) <= 1e-13


def test_model_construction_svd_count(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rng = np.random.default_rng(0)
    cy.random_symmetric_model(rng, 8, 3)
    # T's graph, the adjoint, the self-adjointness of A (adjoint and
    # gap), and K+ and K- together: one SVD of the stack of the two
    # 5 x 8 images of T's graph basis
    assert len(calls) == 5
    assert calls[-1] == (2, 5, 8)
    calls.clear()
    cy.random_selfadjoint_relation(rng, 3)
    assert len(calls) == 0


def count_linalg(monkeypatch):
    """Record the input shape of every SVD, inverse and least-squares
    solve, in order, as (name, shape)."""
    calls = []
    for name in ("svd", "inv", "lstsq"):
        def counting(a, *args, _fn=getattr(np.linalg, name), _name=name,
                     **kw):
            calls.append((_name, a.shape))
            return _fn(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_factorization_check_linalg_count(monkeypatch):
    rng = np.random.default_rng(0)
    model = cy.random_symmetric_model(rng, 8, 3)
    brel = cy.random_selfadjoint_relation(rng, 3)
    batches = []
    unitaries = cy.cayley_unitaries
    monkeypatch.setattr(cy, "cayley_unitaries",
                        lambda rels: batches.append(rels.bases.shape)
                        or unitaries(rels))
    calls = count_linalg(monkeypatch)
    cy.cayley_factorization_check(model, brel)
    # U(A) and U(B), each an SVD and an inverse; B's adjoint and its gap,
    # which give the complement of B's graph too; the resolvent solve at
    # i; the stacked cut (2, d, n + d) of both extensions; and their one
    # Cayley batch (2, 2n, n), an SVD and an inverse of (2, n, n)
    assert calls == [("svd", (1, 8, 8)), ("inv", (1, 8, 8)),
                     ("svd", (1, 3, 3)), ("inv", (1, 3, 3)),
                     ("svd", (1, 3, 6)), ("svd", (1, 6, 3)),
                     ("lstsq", (8, 8)), ("svd", (2, 3, 11)),
                     ("svd", (2, 8, 8)), ("inv", (2, 8, 8))]
    assert batches == [(2, 16, 8)]


def test_extension_from_relation_linalg_count(monkeypatch):
    rng = np.random.default_rng(0)
    model = cy.random_symmetric_model(rng, 8, 3)
    brel = cy.random_selfadjoint_relation(rng, 3)
    calls = count_linalg(monkeypatch)
    cy.extension_from_relation(model, brel)
    # B's adjoint and its gap, the resolvent solve and the one cut
    assert calls == [("svd", (1, 3, 6)), ("svd", (1, 6, 3)),
                     ("lstsq", (8, 8)), ("svd", (1, 3, 11))]
