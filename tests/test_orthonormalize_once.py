"""Bases that are orthonormal by construction are taken as given.

The adjoint of a relation is the SVD null space of its constraints, an
extension of the engine is the orthonormal basis of T* times orthonormal
null-space coefficients, the deficiency spaces of a model are the left
null spaces of the two images of T's graph basis, and the graphs of the
random builders are orthonormal by their formulas, and so are the null
spaces of the triplet checks.  None is orthonormalized a second time; the
references below are the paths that did, kept to compare against.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletflow import cayley as cy
from tripletflow import relspace as rs
from tripletflow import triplet as tp
from tripletflow.verify import _finite_problem

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
    null = rs._null_space(cons)
    # member by member, as `_orthonormal_columns` takes one matrix; an
    # orthonormal basis keeps its rank, so the stack keeps its shape
    members = null.reshape(math.prod(null.shape[:-2]), *null.shape[-2:])
    again = [rs._orthonormal_columns(member) for member in members]
    return np.reshape(again, null.shape), np.array(null.shape[-1])


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
    # T's graph, then the constructor's two: T's adjoint, and K+ and K-
    # together, one SVD of the stack of the two 5 x 8 images of T's graph
    # basis; A's self-adjointness is read off its Lagrange form
    assert calls == [(16, 5), (5, 16), (2, 5, 8)]
    calls.clear()
    cy.random_selfadjoint_relation(rng, 3)
    assert len(calls) == 0


def count_linalg(monkeypatch, names=("svd", "inv", "lstsq")):
    """Record the input shape of every call of the `np.linalg` functions
    named (by default every SVD, inverse and least-squares solve), in
    order, as (name, shape)."""
    calls = []
    for name in names:
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
    # U(B), an inverse that certifies itself; B's adjoint, which gives the
    # complement of B's graph, with B judged by its Lagrange form; the
    # resolvent solve at i; the stacked cut (2, d, n + d) of both
    # extensions; and one Cayley batch (3, 2n, n) of A and both
    # extensions, an inverse of (3, n, n)
    assert calls == [("inv", (1, 3, 3)), ("svd", (1, 3, 6)),
                     ("lstsq", (8, 8)), ("svd", (2, 3, 11)),
                     ("inv", (3, 8, 8))]
    assert batches == [(3, 16, 8)]


def test_extension_from_relation_linalg_count(monkeypatch):
    rng = np.random.default_rng(0)
    model = cy.random_symmetric_model(rng, 8, 3)
    brel = cy.random_selfadjoint_relation(rng, 3)
    calls = count_linalg(monkeypatch)
    cy.extension_from_relation(model, brel)
    # B's adjoint, the resolvent solve and the one cut
    assert calls == [("svd", (1, 3, 6)), ("lstsq", (8, 8)),
                     ("svd", (1, 3, 11))]


def test_triplet_null_spaces_are_taken_as_given(monkeypatch):
    # kernel_report's kernel of the corrected trace and joint kernel, and
    # the cut of boundary_condition_domain, are SVD null spaces, and T's
    # coefficients in the orthonormal basis of T* are orthonormal too: used
    # as they come, they span what their orthonormalized copies span
    rng = np.random.default_rng(3)
    bp = _finite_problem(rng, dim=8, defect=3)
    rt = tp.reduced_triplet(bp)
    brel = tp.transform_boundary_condition(
        rt, cy.random_selfadjoint_relation(rng, 3))
    basis, g0, g1 = bp.coefficient_view()
    _, g1_bold, _ = rt._reduce(g0, g1)
    t_coeff = basis.conj().T @ bp.model.T.graph.basis
    for null in (rs._null_space(g1_bold),
                 rs._null_space(np.vstack([g0, g1_bold])), t_coeff):
        assert orthonormality_defect(null) <= 1e-13
        assert rs.Subspace(null).gap(rs.Subspace.from_span(null)) <= 1e-13
    for reduced in (False, True):
        dom = tp.boundary_condition_domain(rt, brel, reduced=reduced)
        assert orthonormality_defect(dom.basis) <= 1e-13
        assert dom.gap(rs.Subspace.from_span(dom.basis)) <= 1e-13

    spans, svds = [], []
    from_span, svd = rs._orthonormal_columns, np.linalg.svd
    monkeypatch.setattr(rs, "_orthonormal_columns",
                        lambda cols: spans.append(cols.shape)
                        or from_span(cols))
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: svds.append(a.shape)
                        or svd(a, *args, **kw))
    tp.kernel_report(rt, np.random.default_rng(0))
    # the span of T and the kernel is orthonormalized; the two null spaces
    # and the two gaps make the other four SVDs
    assert len(spans) == 1 and len(svds) == 5
    spans.clear()
    svds.clear()
    tp.boundary_condition_domain(rt, brel)
    # the complement of the relation's graph and the cut
    assert spans == [] and len(svds) == 2


# -- from_span on one matrix; relation parts and restrictions as given -------

def old_orthonormal_columns(columns):
    """`relspace._orthonormal_columns` as it read a stack (..., m, k) of
    one rank, kept to compare the one-matrix form against."""
    *batch, m, _ = columns.shape
    columns, norms = rs._rescaled_norms(columns, axis=-2, zeros=True)
    keep = (norms > 0.0).any(axis=tuple(range(norms.ndim - 1)))
    if not keep.all():
        columns, norms = columns[..., keep], norms[..., keep]
    if columns.shape[-1] == 0:
        return np.zeros((*batch, m, 0), dtype=complex)
    u, s, _ = np.linalg.svd(columns / np.where(norms > 0.0, norms, 1.0),
                            full_matrices=False)
    ranks = (s > rs.DEFAULT_TOL * s[..., :1]).sum(axis=-1)
    rank = ranks.flat[0]
    if (ranks != rank).any():
        raise ValueError("the members of the stack differ in rank")
    return u[..., :rank]


@st.composite
def spanning_columns(draw):
    """A complex matrix (m, k), m from 1 to 8 and k from 0 to 8, of any
    rank, with zero columns and columns scaled by 1e+-200 and 1e+-300,
    whose norms overflow or underflow."""
    m = draw(st.integers(1, 8))
    k = draw(st.integers(0, 8))
    rank = draw(st.integers(0, min(m, k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.sampled_from([1.0, 0.0, 1e200, 1e-200, 1e300,
                                            1e-300]),
                           min_size=k, max_size=k))
    return (random_complex(rng, m, rank) @ random_complex(rng, rank, k)
            * np.array(scales))


@settings(max_examples=300, deadline=None)
@given(columns=spanning_columns())
def test_from_span_equals_the_stacked_route_bit_for_bit(columns):
    got = rs.Subspace.from_span(columns).basis
    want = old_orthonormal_columns(rs._as_matrix(columns))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def old_multivalued_part(rel):
    """`LinearRelation.multivalued_part` through `from_span`."""
    coeff = rs._null_space(rel.dom_block())
    return rs.Subspace.from_span(rel.cod_block() @ coeff,
                                 ambient_dim=rel.cod_dim)


def old_restrict_relation(rel, dom_sub, cod_sub):
    """`restrict_relation` through `from_span`."""
    cons = np.vstack([
        dom_sub.complement().basis.conj().T @ rel.dom_block(),
        cod_sub.complement().basis.conj().T @ rel.cod_block(),
    ])
    return rs.LinearRelation.from_span(rel.dom_dim, rel.cod_dim,
                                       rel.graph.basis @ rs._null_space(cons))


def old_parts_decomposition(rel):
    """`parts_decomposition` on the two routes above."""
    mul = old_multivalued_part(rel)
    op = old_restrict_relation(rel, rs.Subspace.full(rel.dom_dim),
                               mul.complement())
    return op, mul


def old_zero_times_full(dim):
    return rs.LinearRelation.from_blocks(np.zeros((dim, dim)), np.eye(dim))


@st.composite
def relations_with_parts(draw):
    """(relation, dom_sub, cod_sub): a relation in C^dom + C^cod, dom and
    cod from 0 to 4, of every dimension, its first columns in the
    multivalued part 0 + C^cod, and random subspaces of both spaces."""
    dom_dim = draw(st.integers(0, 4))
    cod_dim = draw(st.integers(0 if dom_dim else 1, 4))
    k = draw(st.integers(0, dom_dim + cod_dim))
    mul = draw(st.integers(0, min(k, cod_dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = random_complex(rng, dom_dim + cod_dim, k)
    columns[:dom_dim, :mul] = 0.0
    rel = rs.LinearRelation.from_span(dom_dim, cod_dim, columns)
    subs = [rs.Subspace.from_span(random_complex(rng, n,
                                                 draw(st.integers(0, n))),
                                  ambient_dim=n)
            for n in (dom_dim, cod_dim)]
    return rel, *subs


@settings(max_examples=200, deadline=None)
@given(case=relations_with_parts())
def test_parts_and_restrictions_take_their_bases_as_given(case):
    rel, dom_sub, cod_sub = case

    def subspaces(multivalued, restrict, parts, zero_times_full):
        op, mul = parts(rel)
        return [multivalued(rel), restrict(rel, dom_sub, cod_sub).graph,
                op.graph, mul, zero_times_full(rel.dom_dim).graph]

    want = subspaces(old_multivalued_part, old_restrict_relation,
                     old_parts_decomposition, old_zero_times_full)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rs, "_orthonormal_columns",
                      lambda *args: pytest.fail("orthonormalized again"))
        got = subspaces(rs.LinearRelation.multivalued_part,
                        rs.restrict_relation, rs.parts_decomposition,
                        rs.LinearRelation.zero_times_full)
    for new, old in zip(got, want):
        assert new.ambient_dim == old.ambient_dim
        assert orthonormality_defect(new.basis) <= 1e-14
        assert new.gap(old) <= 1e-14
