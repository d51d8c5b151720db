import math

import numpy as np
import pytest

from tripletflow import cayley as cy
from tripletflow import relspace as rs
from tripletflow import sturm
from tripletflow import triplet as tp
from tripletflow import verify as vf

from conftest import random_complex


def finite_problem(rng, dim=5, defect=2, plain=False):
    model = cy.random_symmetric_model(rng, dim, defect)
    if plain:
        return tp.MatrixBoundaryProblem(model)
    d = model.defect
    e_mat = random_complex(rng, d, d) + 2 * np.eye(d)
    h_mat = random_complex(rng, d, d)
    h_mat = h_mat + h_mat.conj().T
    gram = random_complex(rng, d, d)
    gram = gram @ gram.conj().T + d * np.eye(d)
    return tp.MatrixBoundaryProblem(model, gram_small=gram, mix=(e_mat, h_mat))


# -- projections -----------------------------------------------------------

def test_projection_on_reference_domain_is_identity(rng):
    bp = finite_problem(rng)
    u = bp.model.A.graph.basis[:, 0]
    p, k = tp.regular_kernel_split(bp, u)
    assert np.linalg.norm(p - u) < 1e-12
    assert np.linalg.norm(k) < 1e-12


def test_projection_on_kernel_is_zero(rng):
    bp = finite_problem(rng)
    u = bp.kernel_basis()[0]
    p, k = tp.regular_kernel_split(bp, u)
    assert np.linalg.norm(p) < 1e-12
    assert np.linalg.norm(k - u) < 1e-12


def test_projection_idempotent(rng):
    bp = finite_problem(rng)
    for u in bp.test_elements(rng=rng, count=6):
        p, _ = tp.regular_kernel_split(bp, u)
        p2, _ = tp.regular_kernel_split(bp, p)
        assert np.linalg.norm(p2 - p) < 1e-11 * max(1.0, np.linalg.norm(u))


def test_rellich_projection_of_parabola():
    bp = sturm.RellichBoundaryProblem()
    u = sturm.ExpPoly([(1.0, 2, 0.0)])  # x^2, action -2
    p, k = tp.regular_kernel_split(bp, u)
    want_p = sturm.ExpPoly([(1.0, 2, 0.0), (-1.0, 1, 0.0)])  # x^2 - x
    assert (p - want_p).norm() < 1e-14
    assert (k - sturm.xvar()).norm() < 1e-14


# -- kernel solution map and the Weyl matrix --------------------------------

def test_rellich_kernel_solution_map():
    bp = sturm.RellichBoundaryProblem()
    ksm = tp.kernel_solution_map(bp)
    sol = ksm(np.array([2.0, 5.0]))  # boundary values (2, 5) -> 2 + 3x
    want = sturm.ExpPoly([(2.0, 0, 0.0), (3.0, 1, 0.0)])
    assert (sol - want).norm() < 1e-13


def test_empty_kernel_map(rng):
    model = cy.random_symmetric_model(rng, 3, 0)
    bp = tp.MatrixBoundaryProblem(model)
    assert tp.dirichlet_to_neumann(bp).shape == (0, 0)
    with pytest.raises(ValueError):
        tp.kernel_solution_map(bp)(np.zeros(0))


@pytest.mark.parametrize("plain", [True, False])
@pytest.mark.parametrize("dim", range(1, 7))
def test_defect_zero_problem_passes_every_check(dim, plain):
    # d = 0: the kernel of the action and the boundary space are both zero
    rng = np.random.default_rng(dim)
    bp = finite_problem(rng, dim=dim, defect=0, plain=plain)
    rt = tp.reduced_triplet(bp)
    res = tp.reduced_residuals(rt, rng)
    assert res["surjectivity_margin"] == math.inf
    assert max(res["gamma1_bold_vs_projection"], res["standard_lagrange"],
               res["gamma1_bold_on_kernel"]) < 1e-9
    for check in tp.kernel_report(rt, rng):
        assert check["pass"], check
    assert tp.neumann_graph_check(rt) < 1e-8
    assert max(tp.compare_triplets(rt, rng).residuals.values()) < 1e-9
    brel = cy.random_selfadjoint_relation(rng, 0)
    raw = tp.boundary_condition_domain(rt, brel)
    red = tp.boundary_condition_domain(
        rt, tp.transform_boundary_condition(rt, brel), reduced=True)
    assert raw.dim == dim and raw.gap(red) < 1e-9


def test_kernel_map_inverts_first_trace(rng):
    bp = finite_problem(rng)
    ksm = tp.kernel_solution_map(bp)
    for j in range(bp.boundary_dim):
        coords = np.eye(bp.boundary_dim)[:, j]
        assert np.linalg.norm(bp.gamma0(ksm(coords)) - coords) < 1e-10


def test_rellich_weyl_matrix():
    assert np.linalg.norm(sturm.rellich_dtn_matrix()
                          - np.array([[-1.0, 1.0], [1.0, -1.0]])) < 1e-13


def test_weyl_identity_fixture(rng):
    # recombine the traces so that both agree on the kernel: the operator
    # at spectral point zero becomes the identity
    model = cy.random_symmetric_model(rng, 5, 2)
    plain = tp.MatrixBoundaryProblem(model)
    m_inner = tp.dirichlet_to_neumann(plain)
    assert np.linalg.norm(m_inner - m_inner.conj().T) < 1e-10
    d = model.defect
    e_mat = random_complex(rng, d, d) + 2 * np.eye(d)
    h_mat = e_mat.conj().T @ e_mat - m_inner
    bp = tp.MatrixBoundaryProblem(model, mix=(e_mat, h_mat))
    assert np.linalg.norm(tp.dirichlet_to_neumann(bp) - np.eye(d)) < 1e-9


def test_weyl_graph_is_kernel_boundary_data(rng):
    bp = finite_problem(rng)
    ksm = tp.kernel_solution_map(bp)
    cauchy = rs.LinearRelation.from_span(
        bp.boundary_dim, bp.boundary_dim,
        np.vstack([ksm.trace0_matrix, ksm.trace1_matrix]))
    graph = rs.LinearRelation.graph_of(tp.dirichlet_to_neumann(bp))
    assert cauchy.gap(graph) < 1e-10


# -- reduced triplet ---------------------------------------------------------

def test_rellich_reduced_trace_on_sine():
    bp = sturm.RellichBoundaryProblem()
    rt = tp.reduced_triplet(bp)
    u = sturm.sin_wave(np.pi)
    assert np.linalg.norm(bp.gamma0(u)) < 1e-13
    assert np.linalg.norm(bp.gamma1(u) - np.array([np.pi, np.pi])) < 1e-12
    assert np.linalg.norm(rt.gamma1_bold(u) - np.array([np.pi, np.pi])) < 1e-12


def test_reduced_trace_trivial_cases(rng):
    bp = finite_problem(rng)
    rt = tp.reduced_triplet(bp)
    u = bp.model.A.graph.basis[:, 1]
    assert np.linalg.norm(rt.gamma1_bold(u) - bp.gamma1(u)) < 1e-11
    k = bp.kernel_basis()[0]
    assert np.linalg.norm(rt.gamma1_bold(k)) < 1e-11


def test_reduced_residuals_both_realizations(rng):
    for bp in (finite_problem(rng), finite_problem(rng, dim=6, defect=3),
               sturm.RellichBoundaryProblem()):
        res = tp.reduced_residuals(tp.reduced_triplet(bp), rng)
        assert res["gamma1_bold_vs_projection"] < 1e-9
        assert res["standard_lagrange"] < 1e-9
        assert res["surjectivity_margin"] > 1e-6
        assert res["gamma1_bold_on_kernel"] < 1e-9


@pytest.mark.parametrize("plain", [True, False])
@pytest.mark.parametrize("defect", [5, 6])
def test_surjectivity_margin_at_large_defect(rng, defect, plain):
    # 2d > 8: the check draws 2d test elements, so the combined trace can
    # reach its full rank 2d
    bp = finite_problem(rng, dim=defect + 3, defect=defect, plain=plain)
    res = tp.reduced_residuals(tp.reduced_triplet(bp), rng)
    assert res["surjectivity_margin"] > 1e-6
    assert res["standard_lagrange"] < 1e-9


def test_kernel_report_three_instances(rng):
    instances = [sturm.RellichBoundaryProblem(),
                 finite_problem(rng, dim=4, defect=1),
                 finite_problem(rng, dim=6, defect=2)]
    for bp in instances:
        for check in tp.kernel_report(tp.reduced_triplet(bp), rng):
            assert check["pass"], check


# -- boundary-condition transform -------------------------------------------

def test_transform_multivalued_fixed_point(rng):
    bp = finite_problem(rng)
    rt = tp.reduced_triplet(bp)
    d = bp.boundary_dim
    brel = rs.LinearRelation.zero_times_full(d)
    got = tp.transform_boundary_condition(rt, brel)
    assert got.gap(brel) < 1e-11


def test_transform_graph_formula(rng):
    bp = finite_problem(rng)
    rt = tp.reduced_triplet(bp)
    d = bp.boundary_dim
    ups = random_complex(rng, d, d) + 4 * np.eye(d)
    got = tp.transform_boundary_condition(rt, rs.LinearRelation.graph_of(ups))
    lam = rt.triple.lam
    lam_prime_inv = np.linalg.inv(rt.triple.lam_prime)
    want = rs.LinearRelation.graph_of(
        np.linalg.inv(lam) @ (ups - rt.dtn) @ lam_prime_inv)
    assert got.gap(want) < 1e-10


def test_transform_robin_relation_closed_form():
    bp = sturm.RellichBoundaryProblem()
    rt = tp.reduced_triplet(bp)
    for kappa in (-1.5, 0.0, 2.0):
        got = tp.transform_boundary_condition(rt, sturm.robin_relation(kappa))
        cols = np.array([[0.0, 0.0],
                         [1.0, 0.0],
                         [0.0, 1.0],
                         [1.0 - kappa, 0.0]])
        want = rs.LinearRelation.from_span(2, 2, cols)
        assert got.gap(want) < 1e-12


def test_raw_and_reduced_extensions_agree(rng):
    bp = finite_problem(rng)
    rt = tp.reduced_triplet(bp)
    brel = cy.random_selfadjoint_relation(rng, bp.boundary_dim)
    raw = tp.boundary_condition_domain(rt, brel)
    red = tp.boundary_condition_domain(
        rt, tp.transform_boundary_condition(rt, brel), reduced=True)
    assert raw.gap(red) < 1e-9


def test_multivalued_condition_gives_reference_domain(rng):
    bp = finite_problem(rng)
    d = bp.boundary_dim
    dom = tp.boundary_condition_domain(tp.reduced_triplet(bp),
                                       rs.LinearRelation.zero_times_full(d))
    basis, _, _ = bp.coefficient_view()
    a_coeff = rs.Subspace.from_span(basis.conj().T @ bp.model.A.graph.basis,
                                    ambient_dim=basis.shape[1])
    assert dom.gap(a_coeff) < 1e-10


# -- Neumann-type extension ---------------------------------------------------

def test_neumann_graph_rellich():
    bp = sturm.RellichBoundaryProblem()
    rt = tp.reduced_triplet(bp)
    assert tp.neumann_graph_check(rt) < 1e-12
    # with the identity triple the expected relation is the negated
    # Dirichlet-to-Neumann matrix itself
    want = rs.LinearRelation.graph_of(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    elems = bp.gamma1_kernel_elements()
    cols = [np.concatenate([rt.gamma0_bar(u), rt.gamma1_bar(u)])
            for u in elems]
    actual = rs.LinearRelation.from_span(2, 2, np.column_stack(cols))
    assert actual.gap(want) < 1e-12


def test_neumann_graph_finite_models(rng):
    for bp in (finite_problem(rng), finite_problem(rng, dim=6, defect=3),
               finite_problem(rng, plain=True)):
        assert tp.neumann_graph_check(tp.reduced_triplet(bp)) < 1e-8


# -- comparison with the deficiency triplet ----------------------------------

def test_comparison_scalar_defect(rng):
    bp = finite_problem(rng, dim=4, defect=1)
    comparison = tp.compare_triplets(tp.reduced_triplet(bp), rng)
    assert abs(comparison.d_matrix[0, 0]) > 1e-8
    assert abs(comparison.p_matrix[0, 0].imag) < 1e-9
    for value in comparison.residuals.values():
        assert value < 1e-9


def test_comparison_defect_two(rng):
    bp = finite_problem(rng, dim=6, defect=2)
    comparison = tp.compare_triplets(tp.reduced_triplet(bp), rng)
    for value in comparison.residuals.values():
        assert value < 1e-9


def test_comparison_plain_problem(rng):
    # with untouched traces the intertwiner is the identity and the
    # Hermitian block is exactly the negated zero-point Weyl matrix
    bp = finite_problem(rng, plain=True)
    comparison = tp.compare_triplets(tp.reduced_triplet(bp), rng)
    d = bp.boundary_dim
    assert np.linalg.norm(comparison.d_matrix - np.eye(d)) < 1e-9
    assert np.linalg.norm(comparison.p_matrix
                          + tp.dirichlet_to_neumann(bp)) < 1e-8


def test_comparison_rellich(rng):
    comparison = tp.compare_triplets(
        tp.reduced_triplet(sturm.RellichBoundaryProblem()), rng)
    for value in comparison.residuals.values():
        assert value < 1e-9


def test_triplet_suite_at_seed_163():
    # a least-squares fit of P over the test elements read a Hermitian
    # defect of 1.6e-9 here (||P|| ~ 8e3, cond(D) ~ 680); P from the
    # kernel solve stays far below the tolerance
    records = vf.run_suite("triplet", trials=50, seed=163)
    assert vf.all_pass(records), [r for r in records if not r["pass"]]
