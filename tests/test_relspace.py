import math

import numpy as np
import pytest

from tripletflow import relspace as rs
from tripletflow.cayley import random_selfadjoint_relation
from tripletflow.sturm import robin_relation

from conftest import random_complex


def test_span_orthonormalize_examples():
    assert rs.span_orthonormalize(np.eye(2)).dim == 2
    assert rs.span_orthonormalize(np.zeros((2, 1))).dim == 0
    sub = rs.span_orthonormalize(np.array([[1.0], [1.0]]))
    assert sub.dim == 1
    target = np.array([1.0, 1.0]) / math.sqrt(2.0)
    overlap = abs(np.vdot(sub.basis[:, 0], target))
    assert abs(overlap - 1.0) < 1e-14


def test_span_orthonormalize_rejects_bad_input():
    with pytest.raises(ValueError):
        rs.span_orthonormalize(np.array([[np.nan], [1.0]]))


@pytest.mark.filterwarnings("error")
def test_from_span_keeps_columns_at_extreme_scales():
    # each squared norm below overflows or underflows
    full = rs.Subspace.full(2)
    for cols in ([[1e200, 0], [1, 1]], [[1e-200, 0], [1e-200, 1]],
                 [[1e308 + 1e308j, 0], [1e308, 1]], [[5e-324, 0], [0, 1]]):
        sub = rs.Subspace.from_span(cols)
        assert sub.dim == 2
        assert sub.gap(full) <= 1e-15
    diagonal = rs.Subspace.from_span([[1e-200, 1.0], [1e-200, 0.0]])
    assert diagonal.contains([1.0, 1.0])
    # parallel columns stay one direction at any scale
    assert rs.Subspace.from_span([[1e200, -3e250], [1e200, -3e250]]).dim == 1
    # a stack rescales the columns of each member the same way
    bases = rs._orthonormal_columns(np.array([[[1e200, 0], [1, 1]],
                                              [[1, 0], [0, 1]]],
                                             dtype=complex))
    assert bases.shape == (2, 2, 2)
    for basis in bases:
        assert rs.Subspace(basis).gap(full) <= 1e-15


@pytest.mark.filterwarnings("error")
def test_contains_measures_overflowing_vectors_scaled():
    # the squared norm of each vector below overflows
    line = rs.Subspace.from_span([[1.0], [0.0]])
    assert not line.contains([1e200, 1e200])
    assert line.contains([1e200, 0.0])
    diagonal = rs.Subspace.from_span([[1.0], [1.0]])
    assert diagonal.contains([1e300 + 1e300j, 1e300 + 1e300j])
    assert not diagonal.contains([1e300, -1e300])
    assert rs.Subspace.full(2).contains(np.full((2, 2), 1e200))
    assert not line.contains(np.array([[1e200, 0.0], [0.0, 1e200]]))


def test_subspace_gap_and_ops(rng):
    a = rs.span_orthonormalize(random_complex(rng, 5, 2))
    assert a.gap(a) < 1e-14
    assert a.gap(a.complement()) == 1.0
    both = a.add(a.complement())
    assert both.dim == 5
    inter = a.intersect(a.complement())
    assert inter.dim == 0


def test_adjoint_hermitian_graph_is_itself(rng):
    h = random_complex(rng, 3, 3)
    h = h + h.conj().T
    rel = rs.LinearRelation.graph_of(h)
    assert rs.adjoint_relation(rel).gap(rel) < 1e-13


def test_adjoint_multivalued_is_itself():
    rel = rs.LinearRelation.zero_times_full(1)
    assert rs.adjoint_relation(rel).gap(rel) < 1e-14


def test_adjoint_of_graph_is_graph_of_conjugate_transpose(rng):
    m = random_complex(rng, 4, 4)
    got = rs.adjoint_relation(rs.LinearRelation.graph_of(m))
    want = rs.LinearRelation.graph_of(m.conj().T)
    assert got.gap(want) < 1e-12


def test_is_self_adjoint_examples():
    assert rs.is_self_adjoint(rs.LinearRelation.graph_of(np.diag([1.0, -2.0])))
    assert not rs.is_self_adjoint(
        rs.LinearRelation.graph_of(np.array([[0.0, 1.0], [0.0, 0.0]])))
    for kappa in (-2.0, 0.0, 3.5):
        part = rs.LinearRelation.from_blocks(np.array([[1.0]]),
                                             np.array([[-kappa]]))
        assert rs.is_self_adjoint(part)
    with pytest.raises(ValueError):
        rs.is_self_adjoint(rs.LinearRelation.from_span(1, 2, np.eye(3)))


def test_cayley_scalar_values():
    u0 = rs.cayley_unitary(rs.LinearRelation.graph_of(np.array([[0.0]])))
    assert abs(u0[0, 0] + 1.0) < 1e-14
    uinf = rs.cayley_unitary(rs.LinearRelation.zero_times_full(1))
    assert abs(uinf[0, 0] - 1.0) < 1e-14
    # (t - i)/(t + i) at t = 1
    u1 = rs.cayley_unitary(rs.LinearRelation.graph_of(np.array([[1.0]])))
    assert abs(u1[0, 0] - (1 - 1j) / (1 + 1j)) < 1e-14


def test_cayley_unitary_in_the_zero_space():
    zero = rs.LinearRelation.from_blocks(np.zeros((0, 0)), np.zeros((0, 0)))
    assert zero.dim == 0
    assert rs.cayley_unitary(zero).shape == (0, 0)
    assert [u.shape for u in rs.cayley_unitaries([zero, zero])] == [(0, 0)] * 2


def test_cayley_unitarity_and_formula(rng):
    for _ in range(25):
        n = int(rng.integers(1, 9))
        rel = random_selfadjoint_relation(rng, n)
        u = rs.cayley_unitary(rel)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-9
        h = random_complex(rng, n, n)
        h = h + h.conj().T
        u1 = rs.cayley_unitary(rs.LinearRelation.graph_of(h))
        u2 = (h - 1j * np.eye(n)) @ np.linalg.inv(h + 1j * np.eye(n))
        assert np.linalg.norm(u1 - u2) < 1e-12


def test_cayley_rejects_non_selfadjoint():
    # graph of -i: the denominator block degenerates
    rel = rs.LinearRelation.graph_of(np.array([[-1j]]))
    with pytest.raises(np.linalg.LinAlgError):
        rs.cayley_unitary(rel)


def test_parts_decomposition_examples(rng):
    m = random_complex(rng, 3, 3)
    rel = rs.LinearRelation.graph_of(m)
    op, mul = rs.parts_decomposition(rel)
    assert mul.dim == 0
    assert op.gap(rel) < 1e-12

    rel = rs.LinearRelation.zero_times_full(2)
    op, mul = rs.parts_decomposition(rel)
    assert mul.dim == 2 and op.dim == 0

    robin = robin_relation(1.7)
    op, mul = rs.parts_decomposition(robin)
    assert op.dim == 1 and mul.dim == 1
    # the multivalued direction is the first second-trace coordinate
    assert mul.contains(np.array([1.0, 0.0]).reshape(-1, 1))
    # recombination: operator part plus 0 (+) mul spans the relation
    recomb = op.graph.add(rs.Subspace.from_span(
        np.vstack([np.zeros((2, mul.dim)), mul.basis]), ambient_dim=4))
    assert recomb.gap(robin.graph) < 1e-12


def test_map_relation_examples(rng):
    m = random_complex(rng, 3, 3) + 3 * np.eye(3)
    rel = rs.LinearRelation.graph_of(m)
    ident = rs.map_relation(np.eye(6), rel)
    assert ident.gap(rel) < 1e-13
    swap = np.zeros((6, 6))
    swap[:3, 3:] = np.eye(3)
    swap[3:, :3] = np.eye(3)
    inv = rs.map_relation(swap, rel)
    assert inv.gap(rs.LinearRelation.graph_of(np.linalg.inv(m))) < 1e-11
    lin = random_complex(rng, 6, 6) + 3 * np.eye(6)
    rel2 = rs.map_relation(np.linalg.inv(lin), rs.map_relation(lin, rel))
    assert rel2.gap(rel) < 1e-11
    with pytest.raises(ValueError):
        rs.map_relation(np.zeros((6, 6)), rel)


def test_map_relation_composition(rng):
    rel = rs.LinearRelation.from_span(2, 2, random_complex(rng, 4, 3))
    l1 = random_complex(rng, 4, 4) + 2 * np.eye(4)
    l2 = random_complex(rng, 4, 4) + 2 * np.eye(4)
    lhs = rs.map_relation(l2, rs.map_relation(l1, rel))
    rhs = rs.map_relation(l2 @ l1, rel)
    assert lhs.gap(rhs) < 1e-11


@pytest.mark.parametrize("cols", [3, 5])
def test_map_relation_rejects_a_non_square_map(cols):
    rel = robin_relation(0.5)
    text = f"expected a 4 x 4 map, got 4 x {cols}"
    with pytest.raises(ValueError, match=text):
        rs.map_relation(np.eye(4, cols), rel)


@pytest.mark.filterwarnings("error")
def test_map_relation_keeps_a_relation_under_a_huge_multiple_of_one(rng):
    # the image columns have norms that overflow when squared
    rel = rs.LinearRelation.from_span(2, 2, random_complex(rng, 4, 2))
    image = rs.map_relation(1e300 * np.eye(4), rel)
    assert image.dim == 2
    assert image.gap(rel) <= 1e-15


def test_restrict_relation_examples(rng):
    m = np.diag([1.0, 2.0, 3.0])
    rel = rs.LinearRelation.graph_of(m)
    full = rs.Subspace.full(3)
    assert rs.restrict_relation(rel, full, full).gap(rel) < 1e-13
    # invariant subspace of a diagonal matrix
    k = rs.Subspace.from_span(np.eye(3)[:, :2], ambient_dim=3)
    got = rs.restrict_relation(rel, k, k)
    want = rs.LinearRelation.from_blocks(np.eye(3)[:, :2],
                                         (m @ np.eye(3))[:, :2])
    assert got.gap(want) < 1e-13
    zero = rs.Subspace.zero(1)
    got = rs.restrict_relation(rs.LinearRelation.zero_times_full(1),
                               zero, zero)
    assert got.dim == 0


def test_adjoint_involution_and_dimension(rng):
    for _ in range(40):
        dom, cod = (int(x) for x in rng.integers(1, 9, 2))
        k = int(rng.integers(0, dom + cod + 1))
        rel = rs.LinearRelation.from_span(dom, cod,
                                          random_complex(rng, dom + cod, k))
        adj = rs.adjoint_relation(rel)
        assert rel.dim + adj.dim == dom + cod
        assert rs.adjoint_relation(adj).gap(rel) < 1e-11


def test_relation_json_roundtrip(rng):
    rel = rs.LinearRelation.from_span(2, 3, random_complex(rng, 5, 2))
    back = rs.relation_from_json(rs.relation_to_json(rel))
    assert back.dom_dim == 2 and back.cod_dim == 3
    assert back.gap(rel) < 1e-14
