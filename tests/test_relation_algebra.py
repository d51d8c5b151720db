"""Property tests of the relation algebra on stacks of self-adjoint
relations in C^n + C^n, n from 1 to 6, under random invertible maps.

The maps are U diag(s) V^H with random unitaries U, V and singular values
s in [0.2, 5], so every map is invertible with condition number at most 25
and the gap bounds below measure the algebra, not the conditioning.
The complement of a graph read off its adjoint is checked on relations
of every dimension, self-adjoint or not.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripletflow import relspace as rs
from tripletflow.cayley import random_selfadjoint_relation

from conftest import random_complex


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_invertible(rng, n):
    left, right = random_unitary(rng, n), random_unitary(rng, n)
    return left @ np.diag(rng.uniform(0.2, 5.0, size=n)) @ right.conj().T


@st.composite
def stacks(draw):
    """(rng, n, relations): one to five random self-adjoint relations in
    C^n + C^n, as a list or as a RelationStack."""
    n = draw(st.integers(1, 6))
    count = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rels = [random_selfadjoint_relation(rng, n) for _ in range(count)]
    if draw(st.booleans()):
        rels = rs.map_relations(np.eye(2 * n), rels)
    return rng, n, rels


def svd_images(lin, bases):
    """Orthonormal bases of the images of full-rank bases under an
    invertible map as an SVD gives them: normalized columns, then the left
    singular vectors, one per column."""
    images = lin @ bases
    images = images / np.linalg.norm(images, axis=-2, keepdims=True)
    return np.linalg.svd(images, full_matrices=False)[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 4),
       st.data(), st.floats(0.0, 8.0), st.integers(0, 2**32 - 1))
def test_map_relations_images_are_orthonormal_bases_of_the_images(
        count, dom_dim, cod_dim, data, log_cond, seed):
    # relations of every dimension in C^dom + C^cod under maps of
    # condition number 10^log_cond, up to 1e8
    m = dom_dim + cod_dim
    assume(m > 0)
    k = data.draw(st.integers(0, m))
    rng = np.random.default_rng(seed)
    bases = np.array([random_unitary(rng, m)[:, :k] for _ in range(count)])
    svals = np.logspace(0.0, log_cond, m)
    lin = random_unitary(rng, m) @ np.diag(svals) @ random_unitary(rng, m)
    images = rs.map_relations(lin, rs.RelationStack(dom_dim, cod_dim, bases))
    assert (len(images), images.dom_dim, images.cod_dim, images.dim) == (
        count, dom_dim, cod_dim, k)
    gram = images.bases.conj().swapaxes(-1, -2) @ images.bases - np.eye(k)
    assert np.all(np.linalg.norm(gram, axis=(-2, -1)) <= 1e-14)
    if k:
        gaps = rs._gaps(svd_images(lin, bases), images.bases)
        assert np.all(gaps <= 1e-14 * 10.0 ** log_cond)


@settings(max_examples=60, deadline=None)
@given(case=stacks())
def test_map_relations_equals_map_relation_bit_for_bit(case):
    rng, n, rels = case
    lin = random_invertible(rng, 2 * n)
    images = rs.map_relations(lin, rels)
    assert isinstance(images, rs.RelationStack)
    assert (len(images), images.dom_dim, images.cod_dim, images.dim) == (
        len(rels), n, n, n)
    for image, rel in zip(images, rels):
        np.testing.assert_array_equal(image.graph.basis,
                                      rs.map_relation(lin, rel).graph.basis)


@settings(max_examples=60, deadline=None)
@given(case=stacks())
def test_composed_maps_agree_with_their_product(case):
    rng, n, rels = case
    first = random_invertible(rng, 2 * n)
    second = random_invertible(rng, 2 * n)
    twice = rs.map_relations(second, rs.map_relations(first, rels))
    once = rs.map_relations(second @ first, rels)
    for lhs, rhs in zip(twice, once):
        assert lhs.gap(rhs) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(case=stacks())
def test_symplectic_maps_keep_self_adjointness(case):
    # diag(E, E^-H) keeps the form <y, x'> - <x, y'>, and with it every
    # self-adjoint relation self-adjoint
    rng, n, rels = case
    e_mat = random_invertible(rng, n)
    lin = np.zeros((2 * n, 2 * n), dtype=complex)
    lin[:n, :n] = e_mat
    lin[n:, n:] = np.linalg.inv(e_mat.conj().T)
    assert rs.is_self_adjoint_batch(rels).all()
    assert rs.is_self_adjoint_batch(rs.map_relations(lin, rels)).all()


@settings(max_examples=60, deadline=None)
@given(case=stacks())
def test_adjoint_is_an_involution_with_complementary_dimension(case):
    # a generic map takes a self-adjoint relation to a relation that is
    # not; its adjoint lives in C^n + C^n again, of dimension 2n - dim
    rng, n, rels = case
    for rel in rs.map_relations(random_invertible(rng, 2 * n), rels):
        adj = rs.adjoint_relation(rel)
        assert (adj.dom_dim, adj.cod_dim) == (rel.cod_dim, rel.dom_dim)
        assert rel.dim + adj.dim == rel.dom_dim + rel.cod_dim
        assert rs.adjoint_relation(adj).gap(rel) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(case=stacks(), data=st.data())
def test_stacks_of_unequal_rank_raise(case, data):
    rng, n, rels = case
    # any dimension but n
    k = (n + data.draw(st.integers(1, 2 * n))) % (2 * n + 1)
    other = rs.LinearRelation.from_span(n, n, random_complex(rng, 2 * n, k))
    assert other.dim != n
    with pytest.raises(ValueError, match="differ in shape"):
        rs.map_relations(np.eye(2 * n), [*rels, other])


@st.composite
def square_relations(draw):
    """(relation, self-adjoint by construction): a relation in
    C^d + C^d, d from 0 to 4, either a random self-adjoint one or the span
    of k random columns, k from 0 to 2d, the first m of them in the
    multivalued part 0 + C^d."""
    d = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_selfadjoint_relation(rng, d), True
    k = draw(st.integers(0, 2 * d))
    columns = random_complex(rng, 2 * d, k)
    columns[:d, :draw(st.integers(0, k))] = 0.0
    return rs.LinearRelation.from_span(d, d, columns), False


@settings(max_examples=150, deadline=None)
@given(case=square_relations())
def test_complement_from_the_adjoint(case):
    # B^perp = {(y, -x) : (x, y) in B*}, with the verdict of one adjoint
    rel, self_adjoint = case
    perp, verdict = rs._adjoint_complement(rel)
    d = rel.dom_dim
    assert perp.shape == (2 * d, 2 * d - rel.dim)
    assert np.linalg.norm(perp.conj().T @ perp
                          - np.eye(perp.shape[1])) <= 1e-13
    assert rs.Subspace(perp).gap(rel.graph.complement()) <= 1e-13
    assert verdict == rs.is_self_adjoint(rel)
    assert verdict or not self_adjoint
